// The execution pipeline: operators consume and produce BatchData —
// immutable shared columns plus selection vectors — end to end. Rows exist
// only at Output, the sink.
//
// Intra-partition parallelism: the heavy scans (chain pipelines, key
// hashing, aggregate/join table builds, probe scans, exchange binning) are
// split into morsel_size_-row morsels scheduled as one flat job list over
// all partitions (Executor::RunMorsels), each job writing its own
// (partition, morsel) slot, followed by a fixed morsel-order merge. The
// merge order — never the thread schedule — decides every output and every
// counter, so results are bit-identical at any thread count and any morsel
// size; docs/architecture.md §15 gives the per-operator argument.

#include <algorithm>
#include <iterator>
#include <memory>
#include <utility>

#include "common/hash.h"
#include "exec/exec_detail.h"
#include "exec/executor.h"
#include "exec/key_table.h"
#include "exec/spool_cache.h"
#include "exec/vector_kernels.h"
#include "plan/expr_cse.h"

namespace scx {

namespace {

using exec_detail::AggState;
using exec_detail::FinalizeAggCell;
using exec_detail::SyntheticValue;

/// Executor::kBatchRows-row batches needed to process every partition's
/// live rows — the batches_evaluated accounting (the pipeline operates on
/// whole partitions, so this is bookkeeping, not a physical chunking).
int64_t LiveBatches(const BatchData& d) {
  int64_t n = 0;
  for (const BatchPartition& p : d.partitions) {
    n += NumBatches(p.LiveRows(), Executor::kBatchRows);
  }
  return n;
}

ColumnPtr MakeColumn(ColumnVector&& col) {
  return std::make_shared<ColumnVector>(std::move(col));
}

/// The partition's column at `pos` with only live rows: shared as-is when
/// the partition is unfiltered, gathered through the selection otherwise.
ColumnPtr DenseColumn(const BatchPartition& part, int pos) {
  const ColumnPtr& col = part.columns[static_cast<size_t>(pos)];
  if (!part.filtered) return col;
  return MakeColumn(GatherColumn(*col, part.sel));
}

/// All partitions' live rows concatenated (partition order, live-row order)
/// into one dense partition — the columnar TakeGathered.
BatchPartition ConcatLive(const BatchData& in) {
  BatchPartition out;
  const size_t width = in.schema.columns().size();
  size_t total = 0;
  for (const BatchPartition& p : in.partitions) total += p.LiveRows();
  out.rows = total;
  out.columns.reserve(width);
  for (size_t j = 0; j < width; ++j) {
    ColumnVector acc;
    acc.Reserve(total);
    for (const BatchPartition& p : in.partitions) {
      acc.AppendColumn(*p.columns[j], p.Selection());
    }
    out.columns.push_back(MakeColumn(std::move(acc)));
  }
  return out;
}

/// The partition's live rows sorted on `positions` (all ascending), as a
/// dense partition. Sorts a permutation of live physical indices with
/// SortRowIndices, whose comparison outcomes are those of Value's ordering
/// on the materialized rows. std::sort's control flow depends only on the
/// comparator outcomes and the element count, so the row order is a
/// function of the data alone.
BatchPartition SortedPartition(const BatchPartition& part,
                               const std::vector<int>& positions) {
  SelectionVector perm;
  if (part.filtered) {
    perm = part.sel;
  } else {
    perm.resize(part.rows);
    for (uint32_t i = 0; i < static_cast<uint32_t>(part.rows); ++i) {
      perm[i] = i;
    }
  }
  std::vector<const ColumnVector*> keys;
  keys.reserve(positions.size());
  for (int p : positions) {
    keys.push_back(part.columns[static_cast<size_t>(p)].get());
  }
  SortRowIndices(keys, &perm);
  BatchPartition out;
  out.rows = perm.size();
  out.columns.reserve(part.columns.size());
  for (const ColumnPtr& col : part.columns) {
    out.columns.push_back(MakeColumn(GatherColumn(*col, perm)));
  }
  return out;
}

/// Cell as double with ScalarExpr/Value::AsNumeric semantics (typed fast
/// paths; the kValue fallback aborts on strings exactly like AsNumeric).
inline double NumericCell(const ColumnVector& col, size_t r) {
  switch (col.rep()) {
    case ColumnRep::kInt64:
      return static_cast<double>(col.ints()[r]);
    case ColumnRep::kDouble:
      return col.doubles()[r];
    default:
      return col.ValueAt(r).AsNumeric();
  }
}

/// Column-major aggregate update: folds one whole argument column into the
/// per-group states of aggregate `agg_index`. `ids[r]` is row r's dense
/// group id. Per (group, aggregate) pair the update order is the column's
/// row order, so every partial (including float sums) is the one a
/// row-at-a-time loop over the partition computes.
void UpdateAggColumnar(const AggregateDesc& a, bool global,
                       const ColumnVector* arg, const ColumnVector* hidden,
                       const std::vector<size_t>& ids, size_t naggs,
                       size_t agg_index, std::vector<AggState>* states) {
  const size_t n = ids.size();
  auto state = [&](size_t r) -> AggState& {
    return (*states)[ids[r] * naggs + agg_index];
  };
  switch (a.fn) {
    case AggFn::kSum:
      // Same in the merge (global) and raw-row cases: partial sums were
      // rewritten to kSum by the split rule.
      switch (arg->rep()) {
        case ColumnRep::kInt64: {
          const int64_t* v = arg->ints().data();
          for (size_t r = 0; r < n; ++r) {
            AggState& s = state(r);
            s.isum = WrapAdd(s.isum, v[r]);
            s.seen = true;
          }
          break;
        }
        case ColumnRep::kDouble: {
          const double* v = arg->doubles().data();
          for (size_t r = 0; r < n; ++r) {
            AggState& s = state(r);
            s.dsum += v[r];
            s.seen = true;
          }
          break;
        }
        default:
          for (size_t r = 0; r < n; ++r) {
            Value v = arg->ValueAt(r);
            AggState& s = state(r);
            if (v.is_int()) {
              s.isum = WrapAdd(s.isum, v.as_int());
            } else {
              s.dsum += v.AsNumeric();
            }
            s.seen = true;
          }
          break;
      }
      break;
    case AggFn::kCount:
      if (global) {
        // Merging partial counts: sum the int column.
        if (arg->rep() == ColumnRep::kInt64) {
          const int64_t* v = arg->ints().data();
          for (size_t r = 0; r < n; ++r) {
            AggState& s = state(r);
            s.isum = WrapAdd(s.isum, v[r]);
            s.seen = true;
          }
        } else {
          for (size_t r = 0; r < n; ++r) {
            AggState& s = state(r);
            s.isum = WrapAdd(s.isum, arg->ValueAt(r).as_int());
            s.seen = true;
          }
        }
      } else {
        for (size_t r = 0; r < n; ++r) {
          AggState& s = state(r);
          ++s.count;
          s.seen = true;
        }
      }
      break;
    case AggFn::kMin:
      for (size_t r = 0; r < n; ++r) {
        Value v = arg->ValueAt(r);
        AggState& s = state(r);
        if (!s.seen || v < s.minv) s.minv = v;
        s.seen = true;
      }
      break;
    case AggFn::kMax:
      for (size_t r = 0; r < n; ++r) {
        Value v = arg->ValueAt(r);
        AggState& s = state(r);
        if (!s.seen || v > s.maxv) s.maxv = v;
        s.seen = true;
      }
      break;
    case AggFn::kAvg:
      for (size_t r = 0; r < n; ++r) {
        AggState& s = state(r);
        s.dsum += NumericCell(*arg, r);
        if (global) {
          s.count += hidden->rep() == ColumnRep::kInt64
                         ? hidden->ints()[r]
                         : hidden->ValueAt(r).as_int();
        } else {
          ++s.count;
        }
        s.seen = true;
      }
      break;
  }
}

/// True when any stage actually computes a column. Decides — uniformly for
/// every morsel of a schedule — whether sub-morsel reshaped results come
/// back dense (they compacted at the first evaluating stage) or as shared
/// input columns plus a selection.
bool ScheduleEvals(const PipelineSchedule& sched) {
  for (const PipelineStage& st : sched.stages) {
    if (st.has_eval) return true;
  }
  return false;
}

/// True when any stage can narrow the selection.
bool ScheduleFilters(const PipelineSchedule& sched) {
  for (const PipelineStage& st : sched.stages) {
    if (st.is_filter) return true;
  }
  return false;
}

/// Runs live rows [mbegin, mend) of one partition through a fused chain
/// schedule. Filter stages narrow the selection over the current physical
/// row space without touching a column; a compute stage that actually
/// evaluates (has_eval) first compacts the live rows — gathering every
/// still-needed column through the selection, or slicing the morsel's dense
/// range — so expressions run densely over exactly the rows that passed
/// the filters (never on filtered-out rows, which could abort on type
/// errors a row-at-a-time evaluation never sees).
///
/// `stage_live[si]` accumulates the live rows entering stage si; the caller
/// sums them across a partition's morsels before converting to batch counts,
/// which keeps batches_evaluated identical at every morsel size. A morsel
/// covering the whole partition returns the exact serial shape; a proper
/// sub-range is normalized for the fixed morsel-order merge — dense columns
/// when the schedule evaluates, a selection over the parent's physical space
/// otherwise. Only the representation can differ from serial; the live-cell
/// sequence never does.
BatchPartition RunChainMorsel(const PipelineSchedule& sched,
                              const std::vector<int>& col_pos,
                              const BatchPartition& in, size_t mbegin,
                              size_t mend, std::vector<int64_t>* stage_live) {
  const size_t live_total = in.LiveRows();
  const bool whole = mbegin == 0 && mend == live_total;
  const size_t nsteps = sched.steps.size();
  std::vector<ColumnPtr> cols(nsteps);
  for (size_t s = 0; s < nsteps; ++s) {
    if (col_pos[s] >= 0) {
      cols[s] = in.columns[static_cast<size_t>(col_pos[s])];
    }
  }
  // The morsel's live range over the current row space: a slice of the
  // parent selection when filtered, the dense range [base, limit) otherwise.
  // Compaction (gather or slice) rebases to a morsel-dense space where
  // base == 0 and limit is the live count.
  size_t base = 0;
  size_t limit = in.rows;
  SelectionVector sel;
  bool filtered = in.filtered;
  if (filtered) {
    sel.assign(in.sel.begin() + static_cast<ptrdiff_t>(mbegin),
               in.sel.begin() + static_cast<ptrdiff_t>(mend));
  } else {
    base = mbegin;
    limit = mend;
  }
  for (size_t si = 0; si < sched.stages.size(); ++si) {
    const PipelineStage& stage = sched.stages[si];
    (*stage_live)[si] +=
        static_cast<int64_t>(filtered ? sel.size() : limit - base);
    if (stage.is_filter) {
      for (const PredStep& ps : stage.preds) {
        SelectByPredicate(*cols[static_cast<size_t>(ps.lhs)],
                          ps.rhs >= 0 ? cols[static_cast<size_t>(ps.rhs)].get()
                                      : nullptr,
                          ps.literal, ps.op, limit, /*first=*/!filtered, &sel,
                          base);
        filtered = true;
        // Later predicates of this stage select from an empty set; the row
        // path never evaluates them on any row either.
        if (sel.empty()) break;
      }
      continue;
    }
    if (stage.has_eval) {
      if (filtered) {
        for (size_t s = 0; s < nsteps; ++s) {
          if (cols[s] == nullptr) continue;
          if (sched.last_use[s] < static_cast<int>(si)) {
            cols[s].reset();  // dead beyond this point; stop copying it
            continue;
          }
          cols[s] = MakeColumn(GatherColumn(*cols[s], sel));
        }
        base = 0;
        limit = sel.size();
        sel.clear();
        filtered = false;
      } else if (base > 0 || limit < in.rows) {
        // Unfiltered sub-range: slice the still-needed columns so the
        // expressions below run only over this morsel's rows.
        for (size_t s = 0; s < nsteps; ++s) {
          if (cols[s] == nullptr) continue;
          if (sched.last_use[s] < static_cast<int>(si)) {
            cols[s].reset();
            continue;
          }
          cols[s] = MakeColumn(SliceColumn(*cols[s], base, limit));
        }
        limit -= base;
        base = 0;
      }
    }
    for (int e : stage.eval_steps) {
      const ExprStep& step = sched.steps[static_cast<size_t>(e)];
      switch (step.kind) {
        case ScalarExpr::Kind::kColumn:
          break;  // bound from the chain input above
        case ScalarExpr::Kind::kLiteral:
          cols[static_cast<size_t>(e)] =
              MakeColumn(SplatColumn(step.literal, limit));
          break;
        case ScalarExpr::Kind::kBinary: {
          auto col = std::make_shared<ColumnVector>();
          EvalBinaryColumns(step.op, *cols[static_cast<size_t>(step.lhs)],
                            *cols[static_cast<size_t>(step.rhs)], limit,
                            col.get());
          cols[static_cast<size_t>(e)] = std::move(col);
          break;
        }
      }
    }
  }
  BatchPartition out;
  if (whole) {
    // Exactly the serial result: share columns, just narrow the selection.
    out.rows = limit;
    out.sel = std::move(sel);
    out.filtered = filtered;
    if (sched.reshaped) {
      out.columns.reserve(sched.output_steps.size());
      for (int s : sched.output_steps) {
        out.columns.push_back(cols[static_cast<size_t>(s)]);
      }
    } else {
      out.columns = in.columns;  // filters only: share, just narrow the sel
    }
    return out;
  }
  if (sched.reshaped && ScheduleEvals(sched)) {
    // The first evaluating stage compacted, so the output columns are
    // morsel-dense; compact any trailing selection too and the merge is a
    // plain column concatenation.
    out.columns.reserve(sched.output_steps.size());
    if (filtered) {
      for (int s : sched.output_steps) {
        out.columns.push_back(
            MakeColumn(GatherColumn(*cols[static_cast<size_t>(s)], sel)));
      }
      out.rows = sel.size();
    } else {
      for (int s : sched.output_steps) {
        out.columns.push_back(cols[static_cast<size_t>(s)]);
      }
      out.rows = limit;
    }
    return out;
  }
  // No evaluation ever ran: the output shares whole-partition input columns
  // and the morsel's result is a selection over the parent's physical space
  // (synthesized as the identity of the range when no predicate narrowed
  // it), so the merge concatenates selections.
  if (!filtered) {
    sel.reserve(limit - base);
    for (size_t i = base; i < limit; ++i) {
      sel.push_back(static_cast<uint32_t>(i));
    }
  }
  out.rows = in.rows;
  out.sel = std::move(sel);
  out.filtered = true;
  if (sched.reshaped) {
    out.columns.reserve(sched.output_steps.size());
    for (int s : sched.output_steps) {
      out.columns.push_back(cols[static_cast<size_t>(s)]);
    }
  } else {
    out.columns = in.columns;
  }
  return out;
}

bool IsChainOp(PhysicalOpKind kind) {
  return kind == PhysicalOpKind::kFilter || kind == PhysicalOpKind::kCompute ||
         kind == PhysicalOpKind::kProject;
}

}  // namespace

Result<BatchData> Executor::EvalBatch(const PhysicalNodePtr& node,
                                      ExecMetrics* metrics) {
  if (!fault_enabled_ || in_recovery_) return EvalBatchInner(node, metrics);
  // Pass ids are pre-order: the id EvalBatchInner assigns to this node
  // before it descends into its children, captured here so the failure
  // decision never depends on how many passes the children consumed. Fused
  // chain interiors share their head's pass: the chain is one failure
  // domain, like one SCOPE stage.
  int64_t pass = metrics->operator_invocations + 1;
  SCX_ASSIGN_OR_RETURN(BatchData out, EvalBatchInner(node, metrics));
  SCX_RETURN_IF_ERROR(InjectFaultsBatch(node, pass, &out, metrics));
  return out;
}

Status Executor::InjectFaultsBatch(const PhysicalNodePtr& node, int64_t pass,
                                   BatchData* out, ExecMetrics* metrics) {
  const FaultPlan& plan = cluster_.fault_plan;
  int64_t slowest = 0;
  for (size_t m = 0; m < out->partitions.size(); ++m) {
    double ticks = static_cast<double>(out->partitions[m].LiveRows()) *
                   plan.StragglerMultiplier(static_cast<int>(m));
    slowest = std::max(slowest, static_cast<int64_t>(ticks));
  }
  metrics->sim_makespan_ticks += slowest;
  if (node->kind == PhysicalOpKind::kOutput ||
      node->kind == PhysicalOpKind::kSequence) {
    return Status();
  }
  for (size_t m = 0; m < out->partitions.size(); ++m) {
    if (!plan.FailsAt(pass, static_cast<int>(m))) continue;
    if (plan.max_failures > 0 &&
        metrics->machine_failures_injected >= plan.max_failures) {
      break;
    }
    ++metrics->machine_failures_injected;
    out->partitions[m] = BatchPartition();  // the machine's output is gone
    SCX_RETURN_IF_ERROR(RecoverPartitionBatch(node, m, out, metrics));
  }
  return Status();
}

Status Executor::RecoverPartitionBatch(const PhysicalNodePtr& node, size_t m,
                                       BatchData* out, ExecMetrics* metrics) {
  const FaultPlan& plan = cluster_.fault_plan;
  ++metrics->partitions_recovered;
  if (node->kind == PhysicalOpKind::kSpool &&
      !plan.disable_recovery_spool_reads) {
    // Re-read the surviving spool (durable storage): sharing the entry's
    // immutable columns restores the partition without copying a cell. The
    // cross-query peek pins its entry so a concurrent insertion cannot
    // evict it mid-read, and bumps no reuse count (fault-vs-clean identity).
    auto it = batch_spool_cache_.find(node.get());
    if (it != batch_spool_cache_.end() && m < it->second.partitions.size()) {
      out->partitions[m] = it->second.partitions[m];
      ++metrics->recovery_spool_hits;
      return Status();
    }
    if (cross_cache_ != nullptr) {
      CrossQuerySpoolCache::PinnedEntry pin =
          cross_cache_->Pin(CrossKeyFor(*node));
      if (pin && m < pin.batch().partitions.size()) {
        out->partitions[m] = pin.batch().partitions[m];
        ++metrics->recovery_spool_hits;
        return Status();
      }
    }
  }
  // No surviving spool: deterministically recompute the lost sub-DAG.
  // Recovery mode is side-effect-free — scratch metrics, read-only spool
  // lookups, recomputed spools memoized in a recovery-local overlay — so
  // every pre-existing counter stays bit-identical to the clean run.
  ExecMetrics scratch;
  in_recovery_ = true;
  auto recomputed = EvalBatchInner(node, &scratch);
  in_recovery_ = false;
  recovery_batch_overlay_.clear();
  if (!recomputed.ok()) return recomputed.status();
  metrics->rows_recomputed += recomputed->TotalLiveRows();
  metrics->recovery_spool_hits += scratch.spool_cache_hits;
  metrics->recovery_bytes_moved += scratch.bytes_extracted +
                                   scratch.bytes_shuffled +
                                   scratch.bytes_spooled;
  if (m < recomputed->partitions.size()) {
    out->partitions[m] = std::move(recomputed->partitions[m]);
  }
  return Status();
}

Result<BatchData> Executor::RecoverySpoolBatch(const PhysicalNodePtr& node,
                                               ExecMetrics* scratch) {
  const bool allow_reads = !cluster_.fault_plan.disable_recovery_spool_reads;
  if (allow_reads) {
    auto it = batch_spool_cache_.find(node.get());
    if (it != batch_spool_cache_.end()) {
      ++scratch->spool_reads;
      ++scratch->spool_cache_hits;  // folded into recovery_spool_hits
      return it->second;
    }
  }
  auto ov = recovery_batch_overlay_.find(node.get());
  if (ov != recovery_batch_overlay_.end()) {
    ++scratch->spool_reads;
    return ov->second;
  }
  if (allow_reads && cross_cache_ != nullptr) {
    CrossQuerySpoolCache::PinnedEntry pin =
        cross_cache_->Pin(CrossKeyFor(*node));
    if (pin) {
      ++scratch->spool_reads;
      ++scratch->spool_cache_hits;
      BatchData data = pin.batch();  // shares immutable columns
      recovery_batch_overlay_[node.get()] = data;
      return data;
    }
  }
  SCX_ASSIGN_OR_RETURN(BatchData in, EvalBatch(node->children[0], scratch));
  recovery_batch_overlay_[node.get()] = in;
  return in;
}

Result<BatchData> Executor::EvalBatchInner(const PhysicalNodePtr& node,
                                           ExecMetrics* metrics) {
  ++metrics->operator_invocations;
  switch (node->kind) {
    case PhysicalOpKind::kExtract:
      return EvalExtractBatch(*node, metrics);

    case PhysicalOpKind::kFilter:
    case PhysicalOpKind::kProject:
    case PhysicalOpKind::kCompute:
      return EvalChainBatch(node, metrics);

    case PhysicalOpKind::kHashAgg:
    case PhysicalOpKind::kStreamAgg: {
      SCX_ASSIGN_OR_RETURN(BatchData in, EvalBatch(node->children[0], metrics));
      return EvalAggregateBatch(*node, std::move(in), metrics);
    }

    case PhysicalOpKind::kHashJoin:
    case PhysicalOpKind::kMergeJoin: {
      SCX_ASSIGN_OR_RETURN(BatchData l, EvalBatch(node->children[0], metrics));
      SCX_ASSIGN_OR_RETURN(BatchData r, EvalBatch(node->children[1], metrics));
      return EvalJoinBatch(*node, std::move(l), std::move(r), metrics);
    }

    case PhysicalOpKind::kUnionAll: {
      BatchData out;
      out.schema = node->proto->schema();
      const size_t machines = static_cast<size_t>(cluster_.machines);
      const size_t width = out.schema.columns().size();
      std::vector<std::vector<ColumnVector>> acc(machines);
      for (auto& a : acc) a.resize(width);
      std::vector<size_t> rows_acc(machines, 0);
      for (const PhysicalNodePtr& child : node->children) {
        SCX_ASSIGN_OR_RETURN(BatchData in, EvalBatch(child, metrics));
        for (size_t p = 0; p < in.partitions.size(); ++p) {
          const BatchPartition& part = in.partitions[p];
          size_t dest = p % machines;
          rows_acc[dest] += part.LiveRows();
          for (size_t j = 0; j < width; ++j) {
            acc[dest][j].AppendColumn(*part.columns[j], part.Selection());
          }
        }
      }
      out.partitions.resize(machines);
      for (size_t d = 0; d < machines; ++d) {
        BatchPartition& part = out.partitions[d];
        part.rows = rows_acc[d];
        part.columns.reserve(width);
        for (size_t j = 0; j < width; ++j) {
          part.columns.push_back(MakeColumn(std::move(acc[d][j])));
        }
      }
      return out;
    }

    case PhysicalOpKind::kSpool: {
      // Recovery recomputation must not mutate spool bookkeeping (caches,
      // reuse counts, budget): reroute to the read-only recovery path.
      if (in_recovery_) return RecoverySpoolBatch(node, metrics);
      auto it = batch_spool_cache_.find(node.get());
      if (it != batch_spool_cache_.end()) {
        ++metrics->spool_reads;
        ++metrics->spool_cache_hits;
        TrackSpoolRead(node.get());
        // A hit copies shared_ptrs: every reader shares the materialized
        // immutable columns; no row (or cell) is ever copied.
        return it->second;
      }
      if (cross_cache_ != nullptr) {
        SpoolCacheKey key = CrossKeyFor(*node);
        if (auto hit = cross_cache_->LookupBatch(key)) {
          // Served by an earlier execution (shared immutable columns): no
          // materialization work, no bytes_spooled.
          ++metrics->spool_reads;
          ++metrics->spool_cache_hits;
          ++metrics->cross_query_spool_hits;
          BatchData data = std::move(*hit);
          batch_spool_cache_[node.get()] = data;
          TrackSpoolInsert(node.get(), data.TotalLiveBytes(), metrics);
          return data;
        }
      }
      SCX_ASSIGN_OR_RETURN(BatchData in, EvalBatch(node->children[0], metrics));
      // Materialize compacted so every consumer reads dense columns.
      RunPartitions(in.partitions.size(), in.TotalLiveRows(), [&](size_t p) {
        in.partitions[p] = CompactPartition(in.partitions[p]);
      });
      metrics->bytes_spooled += in.TotalLiveBytes();
      metrics->rows_spooled += in.TotalLiveRows();
      ++metrics->spool_executions;
      ++metrics->spool_reads;
      if (cross_cache_ != nullptr) {
        cross_cache_->InsertBatch(CrossKeyFor(*node), in,
                                  DagCost(node->children[0]),
                                  &metrics->spool_bytes_evicted);
      }
      batch_spool_cache_[node.get()] = in;
      TrackSpoolInsert(node.get(), in.TotalLiveBytes(), metrics);
      return in;
    }

    case PhysicalOpKind::kSpoolScan:
      // Rejected by ValidatePlan before execution; kept only so the
      // operator switch stays exhaustive.
      break;

    case PhysicalOpKind::kOutput: {
      SCX_ASSIGN_OR_RETURN(BatchData in, EvalBatch(node->children[0], metrics));
      // The one columns->rows conversion: the output sink is a row
      // container.
      size_t machines = in.partitions.size();
      std::vector<Row> rows;
      rows.reserve(static_cast<size_t>(in.TotalLiveRows()));
      for (const BatchPartition& part : in.partitions) {
        AppendPartitionRows(part, &rows);
      }
      metrics->rows_output += static_cast<int64_t>(rows.size());
      auto& sink = metrics->outputs[node->proto->output_path];
      sink.insert(sink.end(), std::make_move_iterator(rows.begin()),
                  std::make_move_iterator(rows.end()));
      BatchData out;
      out.schema = std::move(in.schema);
      out.partitions.resize(machines);
      return out;
    }

    case PhysicalOpKind::kSequence: {
      for (const PhysicalNodePtr& c : node->children) {
        SCX_ASSIGN_OR_RETURN(BatchData ignored, EvalBatch(c, metrics));
        (void)ignored;
      }
      BatchData out;
      out.partitions.resize(static_cast<size_t>(cluster_.machines));
      return out;
    }

    case PhysicalOpKind::kHashExchange: {
      SCX_ASSIGN_OR_RETURN(BatchData in, EvalBatch(node->children[0], metrics));
      return ExchangeBatch(*node, std::move(in), metrics,
                           /*preserve_order=*/false);
    }
    case PhysicalOpKind::kMergeExchange: {
      SCX_ASSIGN_OR_RETURN(BatchData in, EvalBatch(node->children[0], metrics));
      return ExchangeBatch(*node, std::move(in), metrics,
                           /*preserve_order=*/true);
    }

    case PhysicalOpKind::kRangeExchange: {
      SCX_ASSIGN_OR_RETURN(BatchData in, EvalBatch(node->children[0], metrics));
      return RangeExchangeBatch(*node, std::move(in), metrics);
    }

    case PhysicalOpKind::kBroadcastExchange: {
      SCX_ASSIGN_OR_RETURN(BatchData in, EvalBatch(node->children[0], metrics));
      size_t machines = static_cast<size_t>(cluster_.machines);
      metrics->bytes_shuffled +=
          in.TotalLiveBytes() * static_cast<int64_t>(machines);
      metrics->rows_shuffled +=
          in.TotalLiveRows() * static_cast<int64_t>(machines);
      // One dense gathered copy; every machine shares its columns. The row
      // path copies the gathered rows machine-1 times — here the fan-out
      // is machines shared_ptr copies.
      BatchPartition all = ConcatLive(in);
      BatchData out;
      out.schema = std::move(in.schema);
      out.partitions.assign(machines, all);
      return out;
    }

    case PhysicalOpKind::kGather: {
      SCX_ASSIGN_OR_RETURN(BatchData in, EvalBatch(node->children[0], metrics));
      metrics->bytes_shuffled += in.TotalLiveBytes();
      metrics->rows_shuffled += in.TotalLiveRows();
      BatchData out;
      out.schema = std::move(in.schema);
      out.partitions.resize(1);
      in.schema = out.schema;  // ConcatLive reads the schema width
      out.partitions[0] = ConcatLive(in);
      if (!node->delivered.sort.Empty()) {
        out.partitions[0] = SortedPartition(
            out.partitions[0],
            out.schema.PositionsOf(node->delivered.sort.cols));
      }
      return out;
    }

    case PhysicalOpKind::kSort: {
      SCX_ASSIGN_OR_RETURN(BatchData in, EvalBatch(node->children[0], metrics));
      std::vector<int> positions =
          in.schema.PositionsOf(node->sort_spec.cols);
      RunPartitions(in.partitions.size(), in.TotalLiveRows(), [&](size_t p) {
        in.partitions[p] = SortedPartition(in.partitions[p], positions);
      });
      return in;
    }
  }
  return Status::Internal("unhandled physical operator " +
                          std::string(PhysicalOpKindName(node->kind)));
}

Result<BatchData> Executor::EvalExtractBatch(const PhysicalNode& node,
                                             ExecMetrics* metrics) {
  const FileDef& file = node.proto->file;
  BatchData out;
  out.schema = node.proto->schema();
  size_t machines = static_cast<size_t>(cluster_.machines);
  out.partitions.resize(machines);

  std::vector<int> file_cols;
  for (const ColumnInfo& c : out.schema.columns()) {
    int idx = file.ColumnIndex(c.name);
    if (idx < 0) {
      return Status::ExecutionError("extract column " + c.name +
                                    " missing from file " + file.path);
    }
    file_cols.push_back(idx);
  }
  // Row i lands on machine i % machines; machine m synthesizes rows
  // m, m + machines, ... straight into columns, without ever
  // materializing a row.
  int64_t rows = file.row_count;
  RunPartitions(machines, rows, [&](size_t m) {
    BatchPartition& part = out.partitions[m];
    const size_t width = file_cols.size();
    std::vector<ColumnVector> cols(width);
    int64_t count =
        rows > static_cast<int64_t>(m)
            ? (rows - static_cast<int64_t>(m) +
               static_cast<int64_t>(machines) - 1) /
                  static_cast<int64_t>(machines)
            : 0;
    for (size_t j = 0; j < width; ++j) {
      cols[j].Reserve(static_cast<size_t>(count));
      for (int64_t i = static_cast<int64_t>(m); i < rows;
           i += static_cast<int64_t>(machines)) {
        cols[j].AppendValue(SyntheticValue(file, file_cols[j], i));
      }
    }
    part.rows = static_cast<size_t>(count);
    part.columns.reserve(width);
    for (size_t j = 0; j < width; ++j) {
      part.columns.push_back(MakeColumn(std::move(cols[j])));
    }
  });
  metrics->rows_extracted += rows;
  metrics->bytes_extracted += out.TotalLiveBytes();
  return out;
}

Result<BatchData> Executor::EvalChainBatch(const PhysicalNodePtr& head,
                                           ExecMetrics* metrics) {
  // Collect the maximal Filter/Compute/Project chain below (and including)
  // the head, top-down.
  std::vector<const PhysicalNode*> chain;
  PhysicalNodePtr cur = head;
  while (IsChainOp(cur->kind)) {
    chain.push_back(cur.get());
    cur = cur->children[0];
  }
  // EvalBatch already counted the head; the interior nodes are operator
  // invocations of their own, one per plan node.
  metrics->operator_invocations += static_cast<int64_t>(chain.size()) - 1;
  SCX_ASSIGN_OR_RETURN(BatchData in, EvalBatch(cur, metrics));

  // Lower the chain bottom-up (execution order) into one fused schedule.
  std::vector<PipelineStageDesc> descs;
  descs.reserve(chain.size());
  for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
    PipelineStageDesc desc;
    switch ((*it)->kind) {
      case PhysicalOpKind::kFilter:
        desc.predicates = &(*it)->proto->predicates;
        break;
      case PhysicalOpKind::kCompute:
        desc.items = &(*it)->proto->compute_items;
        break;
      default:
        desc.project = &(*it)->proto->project_map;
        break;
    }
    descs.push_back(desc);
  }
  PipelineSchedule sched = BuildPipelineSchedule(descs);
  metrics->exprs_deduped += sched.duplicates_eliminated;

  std::vector<int> col_pos(sched.steps.size(), -1);
  for (size_t s = 0; s < sched.steps.size(); ++s) {
    if (sched.steps[s].kind == ScalarExpr::Kind::kColumn) {
      col_pos[s] = in.schema.PositionOf(sched.steps[s].column);
    }
  }

  BatchData out;
  out.schema = chain.front()->proto->schema();
  const size_t nparts = in.partitions.size();
  const size_t nstages = sched.stages.size();
  out.partitions.resize(nparts);

  // Pure remap (no filter, no eval — every plain SELECT column list): there
  // is no per-row work to split, and the whole-partition path shares the
  // input columns zero-copy where a sub-morsel run would have to emit a
  // synthesized selection — turning every downstream dense-column share
  // into a full gather. Run it serial-shaped per partition instead.
  const int64_t in_rows = in.TotalLiveRows();
  if (!ScheduleFilters(sched) && !ScheduleEvals(sched)) {
    RunPartitions(nparts, in_rows, [&](size_t p) {
      std::vector<int64_t> plive(nstages, 0);
      out.partitions[p] =
          RunChainMorsel(sched, col_pos, in.partitions[p],
                         /*mbegin=*/0, in.partitions[p].LiveRows(), &plive);
    });
    for (size_t p = 0; p < nparts; ++p) {
      metrics->batches_evaluated +=
          static_cast<int64_t>(nstages) *
          NumBatches(in.partitions[p].LiveRows(), kBatchRows);
    }
    return out;
  }

  // Morsel pass: every (partition, morsel) range runs the whole schedule
  // into its own output slot and per-stage live-row counts.
  std::vector<size_t> live(nparts);
  std::vector<std::vector<BatchPartition>> mout(nparts);
  std::vector<std::vector<std::vector<int64_t>>> mlive(nparts);
  for (size_t p = 0; p < nparts; ++p) {
    live[p] = in.partitions[p].LiveRows();
    const size_t nm = static_cast<size_t>(NumBatches(live[p], morsel_size_));
    mout[p].resize(nm);
    mlive[p].assign(nm, std::vector<int64_t>(nstages, 0));
  }
  RunMorsels(live, metrics, [&](size_t p, size_t b, size_t e) {
    mout[p][b / morsel_size_] = RunChainMorsel(
        sched, col_pos, in.partitions[p], b, e, &mlive[p][b / morsel_size_]);
  });

  // Merge pass: fixed morsel-order concatenation per partition, so the
  // live-cell sequence is the serial chain's at any morsel size or thread
  // count.
  RunPartitions(nparts, in_rows, [&](size_t p) {
    std::vector<BatchPartition>& ms = mout[p];
    BatchPartition& sink = out.partitions[p];
    if (ms.empty()) {
      // Zero live rows, zero morsels: still run the (empty) chain so the
      // output columns exist for downstream consumers, as in serial.
      std::vector<int64_t> zero(nstages, 0);
      sink = RunChainMorsel(sched, col_pos, in.partitions[p], 0, 0, &zero);
      return;
    }
    if (ms.size() == 1) {
      sink = std::move(ms[0]);
      return;
    }
    if (sched.reshaped && ScheduleEvals(sched)) {
      // Dense morsel outputs: concatenate columns in morsel order.
      size_t total = 0;
      for (const BatchPartition& m : ms) total += m.rows;
      const size_t width = sched.output_steps.size();
      sink.rows = total;
      sink.columns.reserve(width);
      for (size_t j = 0; j < width; ++j) {
        ColumnVector acc;
        acc.Reserve(total);
        for (const BatchPartition& m : ms) {
          acc.AppendColumn(*m.columns[j], nullptr);
        }
        sink.columns.push_back(MakeColumn(std::move(acc)));
      }
      return;
    }
    // Shared columns: concatenate the morsel selections — disjoint,
    // ascending slices of the parent's live order.
    size_t total = 0;
    for (const BatchPartition& m : ms) total += m.sel.size();
    sink.rows = in.partitions[p].rows;
    sink.filtered = true;
    sink.sel.reserve(total);
    for (const BatchPartition& m : ms) {
      sink.sel.insert(sink.sel.end(), m.sel.begin(), m.sel.end());
    }
    sink.columns = sched.reshaped ? ms[0].columns : in.partitions[p].columns;
  });

  // batches_evaluated depends on per-stage selectivity: per-morsel live
  // counts sum to the partition's per-stage live rows, so the batch count
  // is the serial one at every morsel size. Summed master-side in
  // partition order.
  for (size_t p = 0; p < nparts; ++p) {
    for (size_t s = 0; s < nstages; ++s) {
      int64_t rows_at_stage = 0;
      for (const std::vector<int64_t>& m : mlive[p]) rows_at_stage += m[s];
      metrics->batches_evaluated +=
          NumBatches(static_cast<size_t>(rows_at_stage), kBatchRows);
    }
  }
  return out;
}

Result<BatchData> Executor::EvalAggregateBatch(const PhysicalNode& node,
                                               BatchData in,
                                               ExecMetrics* metrics) {
  const LogicalNode& proto = *node.proto;
  const bool local = proto.kind() == LogicalOpKind::kLocalGbAgg;
  const bool global = proto.kind() == LogicalOpKind::kGlobalGbAgg;

  std::vector<int> group_pos = in.schema.PositionsOf(proto.group_cols);
  struct AggIo {
    int arg_pos = -1;
    int hidden_pos = -1;  // global-Avg partial-count input
  };
  const size_t naggs = proto.aggregates.size();
  std::vector<AggIo> io(naggs);
  for (size_t i = 0; i < naggs; ++i) {
    const AggregateDesc& a = proto.aggregates[i];
    if (!a.count_star) io[i].arg_pos = in.schema.PositionOf(a.arg);
    if (global && a.fn == AggFn::kAvg && a.hidden_count != 0) {
      io[i].hidden_pos = in.schema.PositionOf(a.hidden_count);
    }
  }

  BatchData out;
  out.schema = proto.schema();
  out.partitions.resize(in.partitions.size());
  metrics->batches_evaluated += LiveBatches(in);

  const size_t in_width = in.schema.columns().size();
  const size_t nparts = in.partitions.size();
  const int64_t in_rows = in.TotalLiveRows();

  // Per-partition state threaded through the passes below.
  struct PartAgg {
    std::vector<ColumnPtr> dense;  ///< live views of referenced columns
    size_t n = 0;
    std::vector<uint64_t> hashes;
    std::vector<size_t> ids;  ///< global group id per live row, row order
    SelectionVector reps;     ///< first (representative) live row per group
    std::vector<AggState> states;  ///< naggs states per group, group-major
  };
  std::vector<PartAgg> ps(nparts);
  std::vector<size_t> live(nparts);

  // Pass 1 (partition-parallel): densify the referenced columns — shared
  // when the partition is unfiltered, gathered through the selection
  // otherwise — and allocate the shared hash accumulator morsel jobs write
  // disjoint slices of.
  RunPartitions(nparts, in_rows, [&](size_t p) {
    PartAgg& st = ps[p];
    const BatchPartition& part = in.partitions[p];
    st.n = part.LiveRows();
    st.dense.resize(in_width);
    auto densify = [&](int pos) {
      if (pos < 0) return;
      ColumnPtr& col = st.dense[static_cast<size_t>(pos)];
      if (col == nullptr) col = DenseColumn(part, pos);
    };
    for (int gp : group_pos) densify(gp);
    for (size_t i = 0; i < naggs; ++i) {
      densify(io[i].arg_pos);
      densify(io[i].hidden_pos);
    }
    st.hashes.assign(st.n, kRowKeySeed);
    st.ids.resize(st.n);
  });
  for (size_t p = 0; p < nparts; ++p) live[p] = ps[p].n;

  // Pass 2 (morsel-parallel): hash the key cells. Hashing is the
  // data-parallel, SIMD-friendly half of group-id assignment; each morsel
  // writes a disjoint slice of the partition's hash array.
  RunMorsels(live, metrics, [&](size_t p, size_t b, size_t e) {
    PartAgg& st = ps[p];
    for (int gp : group_pos) {
      HashColumnCells(*st.dense[static_cast<size_t>(gp)], b, e,
                      st.hashes.data());
    }
  });

  // Pass 3 (partition-parallel): one serial-row-order insert scan per
  // partition over the precomputed hashes. Scanning in row order makes the
  // table's insertion order — and therefore every dense group id and the
  // output group order — the serial one by construction, at any morsel
  // size, with no merge step to pay for. (A morsel-local-table fold gives
  // the same ids but costs a rebuild pass; measured, it was ~20% of
  // aggregate-heavy scripts.) A group is keyed by its first live row
  // (ColumnKeyTable), so no key is ever materialized.
  RunPartitions(nparts, in_rows, [&](size_t p) {
    PartAgg& st = ps[p];
    std::vector<const ColumnVector*> keys;
    keys.reserve(group_pos.size());
    for (int gp : group_pos) {
      keys.push_back(st.dense[static_cast<size_t>(gp)].get());
    }
    ColumnKeyTable table(std::move(keys), st.n);
    for (size_t r = 0; r < st.n; ++r) {
      st.ids[r] = table.FindOrInsert(r, st.hashes[r]).first;
    }
    st.reps = table.reps();
    st.states.assign(st.reps.size() * naggs, AggState{});
  });

  // Pass 4 (flat partition x aggregate jobs): serial-row-order columnar
  // updates with the global ids. Different aggregates of one partition
  // write disjoint states[] elements, so the jobs are independent; within
  // one (group, aggregate) pair the update order is the column's row order
  // — float partials (dsum) are never folded across morsels.
  RunPartitions(nparts * naggs, in_rows, [&](size_t j) {
    const size_t p = j / naggs;
    const size_t i = j % naggs;
    PartAgg& st = ps[p];
    const int ap = io[i].arg_pos;
    const int hp = io[i].hidden_pos;
    UpdateAggColumnar(proto.aggregates[i], global,
                      ap >= 0 ? st.dense[static_cast<size_t>(ap)].get()
                              : nullptr,
                      hp >= 0 ? st.dense[static_cast<size_t>(hp)].get()
                              : nullptr,
                      st.ids, naggs, i, &st.states);
  });

  // Pass 5 (partition-parallel): finalize straight into columns: key
  // columns gathered at the representative rows, then per aggregate the
  // output column (plus a local Avg's hidden partial count) — the output
  // row layout, column-major.
  int64_t groups = 0;
  for (const PartAgg& st : ps) groups += static_cast<int64_t>(st.reps.size());
  RunPartitions(nparts, groups, [&](size_t p) {
    PartAgg& st = ps[p];
    BatchPartition& sink = out.partitions[p];
    const size_t ngroups = st.reps.size();
    sink.rows = ngroups;
    for (int gp : group_pos) {
      sink.columns.push_back(MakeColumn(
          GatherColumn(*st.dense[static_cast<size_t>(gp)], st.reps)));
    }
    for (size_t i = 0; i < naggs; ++i) {
      const AggregateDesc& a = proto.aggregates[i];
      ColumnVector col;
      col.Reserve(ngroups);
      for (size_t id = 0; id < ngroups; ++id) {
        col.AppendValue(
            FinalizeAggCell(a, st.states[id * naggs + i], global, local));
      }
      sink.columns.push_back(MakeColumn(std::move(col)));
      if (local && a.hidden_count != 0) {
        ColumnVector hid;
        hid.Reserve(ngroups);
        for (size_t id = 0; id < ngroups; ++id) {
          hid.AppendValue(Value::Int(st.states[id * naggs + i].count));
        }
        sink.columns.push_back(MakeColumn(std::move(hid)));
      }
    }
  });

  // Stream aggregates deliver rows ordered on their chosen sort order.
  if (node.kind == PhysicalOpKind::kStreamAgg && !node.sort_spec.Empty()) {
    std::vector<int> positions = out.schema.PositionsOf(node.sort_spec.cols);
    RunPartitions(out.partitions.size(), groups, [&](size_t p) {
      out.partitions[p] = SortedPartition(out.partitions[p], positions);
    });
  }
  return out;
}

Result<BatchData> Executor::EvalJoinBatch(const PhysicalNode& node,
                                          BatchData left, BatchData right,
                                          ExecMetrics* metrics) {
  const LogicalNode& proto = *node.proto;
  if (left.partitions.size() != right.partitions.size()) {
    return Status::ExecutionError(
        "join inputs have different partition counts (" +
        std::to_string(left.partitions.size()) + " vs " +
        std::to_string(right.partitions.size()) + ")");
  }
  std::vector<int> lpos, rpos;
  for (const auto& [l, r] : proto.join_keys) {
    lpos.push_back(left.schema.PositionOf(l));
    rpos.push_back(right.schema.PositionOf(r));
  }
  BatchData out;
  out.schema = proto.schema();
  out.partitions.resize(left.partitions.size());
  metrics->batches_evaluated +=
      LiveBatches(right) + LiveBatches(left);

  const size_t nleft = left.schema.columns().size();
  const size_t nright = right.schema.columns().size();
  // Residual predicate positions in the joined (left ++ right) schema.
  struct ResidualIo {
    int lhs_pos = -1;
    int rhs_pos = -1;  // -1: literal side
  };
  std::vector<ResidualIo> rio;
  for (const BoundPredicate& pred : proto.predicates) {
    ResidualIo r;
    r.lhs_pos = out.schema.PositionOf(pred.lhs);
    if (pred.rhs_is_column) r.rhs_pos = out.schema.PositionOf(pred.rhs);
    rio.push_back(r);
  }

  const size_t nparts = left.partitions.size();
  const size_t width = nleft + nright;

  // Per-partition state threaded through the passes below.
  struct PartJoin {
    std::vector<ColumnPtr> bcols, pcols;  ///< dense build/probe views
    size_t bn = 0, pn = 0;
    std::vector<uint64_t> bh, ph;  ///< shared hash accumulators
    std::unique_ptr<ColumnKeyTable> table;  ///< over the build key columns
    std::vector<std::vector<uint32_t>> rows_by_key;
    std::vector<const ColumnVector*> probe_keys;
    std::vector<SelectionVector> mli, mbi;  ///< per probe morsel
    SelectionVector li, bi;  ///< surviving pairs, in emit order
  };
  std::vector<PartJoin> js(nparts);
  std::vector<size_t> blive(nparts), plive(nparts);

  const int64_t in_rows = left.TotalLiveRows() + right.TotalLiveRows();
  // Pass 1 (partition-parallel): dense live views of both sides (all
  // columns: the output gathers every cell of each surviving pair).
  RunPartitions(nparts, in_rows, [&](size_t p) {
    PartJoin& st = js[p];
    st.bcols.resize(nright);
    st.pcols.resize(nleft);
    for (size_t j = 0; j < nright; ++j) {
      st.bcols[j] = DenseColumn(right.partitions[p], static_cast<int>(j));
    }
    for (size_t j = 0; j < nleft; ++j) {
      st.pcols[j] = DenseColumn(left.partitions[p], static_cast<int>(j));
    }
    st.bn = right.partitions[p].LiveRows();
    st.pn = left.partitions[p].LiveRows();
    st.bh.assign(st.bn, kRowKeySeed);
    st.ph.assign(st.pn, kRowKeySeed);
    st.mli.resize(static_cast<size_t>(NumBatches(st.pn, morsel_size_)));
    st.mbi.resize(st.mli.size());
  });
  for (size_t p = 0; p < nparts; ++p) {
    blive[p] = js[p].bn;
    plive[p] = js[p].pn;
  }

  // Pass 2 (morsel-parallel): hash the build keys — the data-parallel half
  // of the build; each morsel writes a disjoint hash-array slice.
  RunMorsels(blive, metrics, [&](size_t p, size_t b, size_t e) {
    PartJoin& st = js[p];
    for (int rp : rpos) {
      HashColumnCells(*st.bcols[static_cast<size_t>(rp)], b, e,
                      st.bh.data());
    }
  });

  // Pass 3 (partition-parallel): build each partition's table in one
  // serial-row-order scan over the precomputed hashes — first-occurrence
  // insertion order and ascending per-key row lists are the serial ones by
  // construction, with no morsel-table fold to pay for.
  RunPartitions(nparts, in_rows, [&](size_t p) {
    PartJoin& st = js[p];
    std::vector<const ColumnVector*> build_keys;
    for (int rp : rpos) {
      build_keys.push_back(st.bcols[static_cast<size_t>(rp)].get());
    }
    for (int lp : lpos) {
      st.probe_keys.push_back(st.pcols[static_cast<size_t>(lp)].get());
    }
    st.table = std::make_unique<ColumnKeyTable>(std::move(build_keys), st.bn);
    for (size_t r = 0; r < st.bn; ++r) {
      auto [id, inserted] = st.table->FindOrInsert(r, st.bh[r]);
      if (inserted) st.rows_by_key.emplace_back();
      st.rows_by_key[id].push_back(static_cast<uint32_t>(r));
    }
  });

  // Pass 4 (morsel-parallel): hash this morsel's probe keys and scan. The
  // emit order inside a morsel is probe row order outer, build insertion
  // order within a key group, collected per morsel.
  RunMorsels(plive, metrics, [&](size_t p, size_t b, size_t e) {
    PartJoin& st = js[p];
    const size_t m = b / morsel_size_;
    for (int lp : lpos) {
      HashColumnCells(*st.pcols[static_cast<size_t>(lp)], b, e,
                      st.ph.data());
    }
    SelectionVector& li = st.mli[m];
    SelectionVector& bi = st.mbi[m];
    auto cell = [&](int pos, uint32_t pi, uint32_t bri) {
      return pos < static_cast<int>(nleft)
                 ? st.pcols[static_cast<size_t>(pos)]->ValueAt(pi)
                 : st.bcols[static_cast<size_t>(pos) - nleft]->ValueAt(bri);
    };
    for (size_t i = b; i < e; ++i) {
      size_t id = st.table->Find(st.probe_keys, i, st.ph[i]);
      if (id == ColumnKeyTable::kNotFound) continue;
      for (uint32_t bld : st.rows_by_key[id]) {
        bool pass = true;
        for (size_t k = 0; k < rio.size(); ++k) {
          const BoundPredicate& pred = proto.predicates[k];
          Value lv = cell(rio[k].lhs_pos, static_cast<uint32_t>(i), bld);
          Value rv = rio[k].rhs_pos >= 0
                         ? cell(rio[k].rhs_pos, static_cast<uint32_t>(i), bld)
                         : pred.literal;
          if (!PredicatePassCells(pred.op, lv, rv)) {
            pass = false;
            break;
          }
        }
        if (pass) {
          li.push_back(static_cast<uint32_t>(i));
          bi.push_back(bld);
        }
      }
    }
  });

  // Pass 5 (partition-parallel): concatenate the per-morsel pair lists in
  // morsel order — probe row order overall, i.e. the serial emit order.
  RunPartitions(nparts, in_rows, [&](size_t p) {
    PartJoin& st = js[p];
    size_t total = 0;
    for (const SelectionVector& s : st.mli) total += s.size();
    st.li.reserve(total);
    st.bi.reserve(total);
    for (size_t m = 0; m < st.mli.size(); ++m) {
      st.li.insert(st.li.end(), st.mli[m].begin(), st.mli[m].end());
      st.bi.insert(st.bi.end(), st.mbi[m].begin(), st.mbi[m].end());
    }
    st.mli.clear();
    st.mbi.clear();
    out.partitions[p].rows = st.li.size();
    out.partitions[p].columns.resize(width);
  });

  // Pass 6 (flat partition x column jobs): gather the output columns.
  int64_t pairs = 0;
  for (const PartJoin& st : js) pairs += static_cast<int64_t>(st.li.size());
  RunPartitions(nparts * width, pairs, [&](size_t j) {
    const size_t p = j / width;
    const size_t c = j % width;
    PartJoin& st = js[p];
    out.partitions[p].columns[c] = MakeColumn(
        c < nleft ? GatherColumn(*st.pcols[c], st.li)
                  : GatherColumn(*st.bcols[c - nleft], st.bi));
  });
  return out;
}

BatchData Executor::ExchangeBatch(const PhysicalNode& node, BatchData in,
                                  ExecMetrics* metrics, bool preserve_order) {
  size_t machines = static_cast<size_t>(cluster_.machines);
  std::vector<int> positions =
      in.schema.PositionsOf(node.exchange_cols.ToVector());
  metrics->bytes_shuffled += in.TotalLiveBytes();
  metrics->rows_shuffled += in.TotalLiveRows();
  metrics->batches_evaluated += LiveBatches(in);

  const size_t nsrc = in.partitions.size();
  const size_t width = in.schema.columns().size();
  // Phase 1: densify the key columns per source (partition-parallel), then
  // hash and bin live physical row indices per (source, morsel,
  // destination) in one flat morsel pass — each job owns its bin row.
  std::vector<size_t> live(nsrc);
  std::vector<std::vector<ColumnPtr>> key_cols(nsrc);
  std::vector<std::vector<uint64_t>> hashes(nsrc);
  std::vector<std::vector<std::vector<SelectionVector>>> dsel(nsrc);
  const int64_t in_rows = in.TotalLiveRows();
  RunPartitions(nsrc, in_rows, [&](size_t s) {
    const BatchPartition& part = in.partitions[s];
    const size_t n = part.LiveRows();
    live[s] = n;
    key_cols[s].resize(width);
    hashes[s].assign(n, kRowKeySeed);
    dsel[s].assign(static_cast<size_t>(NumBatches(n, morsel_size_)),
                   std::vector<SelectionVector>(machines));
    for (int pos : positions) {
      ColumnPtr& col = key_cols[s][static_cast<size_t>(pos)];
      if (col == nullptr) col = DenseColumn(part, pos);
    }
  });
  RunMorsels(live, metrics, [&](size_t s, size_t b, size_t e) {
    const BatchPartition& part = in.partitions[s];
    std::vector<SelectionVector>& bins = dsel[s][b / morsel_size_];
    for (int pos : positions) {
      HashColumnCells(*key_cols[s][static_cast<size_t>(pos)], b, e,
                      hashes[s].data());
    }
    for (size_t k = b; k < e; ++k) {
      size_t d = hashes[s][k] % machines;
      bins[d].push_back(part.filtered ? part.sel[k]
                                      : static_cast<uint32_t>(k));
    }
  });
  // Phase 2: per destination, concatenate the column slices source-major,
  // morsel order within a source — a row order independent of the morsel
  // size and the thread count.
  BatchData out;
  out.schema = std::move(in.schema);
  out.partitions.resize(machines);
  RunPartitions(machines, in_rows, [&](size_t d) {
    size_t total = 0;
    for (size_t s = 0; s < nsrc; ++s) {
      for (const std::vector<SelectionVector>& bins : dsel[s]) {
        total += bins[d].size();
      }
    }
    BatchPartition& sink = out.partitions[d];
    sink.rows = total;
    sink.columns.reserve(width);
    for (size_t j = 0; j < width; ++j) {
      ColumnVector acc;
      acc.Reserve(total);
      for (size_t s = 0; s < nsrc; ++s) {
        for (const std::vector<SelectionVector>& bins : dsel[s]) {
          if (bins[d].empty()) continue;
          acc.AppendColumn(*in.partitions[s].columns[j], &bins[d]);
        }
      }
      sink.columns.push_back(MakeColumn(std::move(acc)));
    }
  });
  if (preserve_order && !node.delivered.sort.Empty()) {
    std::vector<int> sort_pos =
        out.schema.PositionsOf(node.delivered.sort.cols);
    RunPartitions(out.partitions.size(), in_rows, [&](size_t p) {
      out.partitions[p] = SortedPartition(out.partitions[p], sort_pos);
    });
  }
  return out;
}

BatchData Executor::RangeExchangeBatch(const PhysicalNode& node, BatchData in,
                                       ExecMetrics* metrics) {
  const size_t machines = static_cast<size_t>(cluster_.machines);
  std::vector<int> positions =
      in.schema.PositionsOf(node.delivered.partitioning.range_cols);
  const size_t nkeys = positions.size();
  const size_t nsrc = in.partitions.size();
  metrics->bytes_shuffled += in.TotalLiveBytes();
  metrics->rows_shuffled += in.TotalLiveRows();
  metrics->batches_evaluated += LiveBatches(in);

  // Dense live views of the key columns per source, and the whole key
  // multiset concatenated (partition order, live order) for the boundary
  // scan.
  std::vector<std::vector<ColumnPtr>> pkeys(nsrc);
  const int64_t in_rows = in.TotalLiveRows();
  RunPartitions(nsrc, in_rows, [&](size_t s) {
    pkeys[s].resize(nkeys);
    for (size_t k = 0; k < nkeys; ++k) {
      pkeys[s][k] = DenseColumn(in.partitions[s], positions[k]);
    }
  });
  const size_t total_live = static_cast<size_t>(in.TotalLiveRows());
  std::vector<ColumnVector> all(nkeys);
  for (size_t k = 0; k < nkeys; ++k) {
    all[k].Reserve(total_live);
    for (size_t s = 0; s < nsrc; ++s) {
      all[k].AppendColumn(*pkeys[s][k], nullptr);
    }
  }

  // Boundary computation by exact quantiles over the key multiset — the
  // simulation stand-in for SCOPE's sampling pass: sort an index
  // permutation with Value's cell comparator and read the boundary rows at
  // the quantile indices i * n / machines. Value's ordering is total, so
  // the value sequence of the sorted multiset — and with it every boundary
  // — does not depend on the input order.
  std::vector<uint32_t> perm(total_live);
  for (uint32_t i = 0; i < static_cast<uint32_t>(total_live); ++i) {
    perm[i] = i;
  }
  std::vector<const ColumnVector*> all_keys;
  all_keys.reserve(nkeys);
  for (const ColumnVector& col : all) all_keys.push_back(&col);
  SortRowIndices(all_keys, &perm);
  std::vector<Row> boundaries;
  for (size_t i = 1; i < machines && !perm.empty(); ++i) {
    const uint32_t r = perm[i * perm.size() / machines];
    Row b;
    b.reserve(nkeys);
    for (size_t k = 0; k < nkeys; ++k) b.push_back(all[k].ValueAt(r));
    boundaries.push_back(std::move(b));
  }

  // Scatter: morsel jobs compute each live row's destination — an
  // upper_bound over the boundaries with cell-vs-Value comparisons — and
  // bin the physical row indices per (source, morsel, destination).
  std::vector<size_t> live(nsrc);
  std::vector<std::vector<std::vector<SelectionVector>>> bins(nsrc);
  for (size_t s = 0; s < nsrc; ++s) {
    live[s] = in.partitions[s].LiveRows();
    bins[s].assign(static_cast<size_t>(NumBatches(live[s], morsel_size_)),
                   std::vector<SelectionVector>(machines));
  }
  RunMorsels(live, metrics, [&](size_t s, size_t b, size_t e) {
    const BatchPartition& part = in.partitions[s];
    std::vector<SelectionVector>& mb = bins[s][b / morsel_size_];
    auto less_than_boundary = [&](size_t row, const Row& bound) {
      for (size_t k = 0; k < nkeys; ++k) {
        int c = CompareCellValue(*pkeys[s][k], row, bound[k]);
        if (c != 0) return c < 0;
      }
      return false;  // equal keys go right of the boundary (upper_bound)
    };
    for (size_t i = b; i < e; ++i) {
      size_t lo = 0, hi = boundaries.size();
      while (lo < hi) {
        const size_t mid = (lo + hi) / 2;
        if (less_than_boundary(i, boundaries[mid])) {
          hi = mid;
        } else {
          lo = mid + 1;
        }
      }
      mb[lo].push_back(part.filtered ? part.sel[i]
                                     : static_cast<uint32_t>(i));
    }
  });

  // Gather per destination: source-major, morsel order within a source —
  // the same row order as the hash exchange's.
  BatchData out;
  out.schema = std::move(in.schema);
  out.partitions.resize(machines);
  const size_t width = out.schema.columns().size();
  RunPartitions(machines, in_rows, [&](size_t d) {
    size_t total = 0;
    for (size_t s = 0; s < nsrc; ++s) {
      for (const std::vector<SelectionVector>& mb : bins[s]) {
        total += mb[d].size();
      }
    }
    BatchPartition& sink = out.partitions[d];
    sink.rows = total;
    sink.columns.reserve(width);
    for (size_t j = 0; j < width; ++j) {
      ColumnVector acc;
      acc.Reserve(total);
      for (size_t s = 0; s < nsrc; ++s) {
        for (const std::vector<SelectionVector>& mb : bins[s]) {
          if (mb[d].empty()) continue;
          acc.AppendColumn(*in.partitions[s].columns[j], &mb[d]);
        }
      }
      sink.columns.push_back(MakeColumn(std::move(acc)));
    }
  });
  return out;
}

}  // namespace scx
