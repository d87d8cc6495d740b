// The execution pipeline: operators consume and produce BatchData —
// immutable shared columns plus selection vectors — end to end. Rows exist
// only at Output, the sink.
//
// Parallelism: each operator is a short sequence of partition-parallel
// passes (Executor::RunPartitions), one job per partition, each job writing
// only its own partition's slot. A new pass starts only where the operator
// needs a barrier: an exchange's destinations wait for every source's bins.
// Merges run in partition order, so every output and every counter is
// bit-identical at any thread count; docs/architecture.md §15 gives the
// per-operator argument.

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

/// Non-empty partitions of `d`: the jobs of one partition-parallel scan
/// over it, as ExecMetrics::morsels_evaluated counts them.
int64_t ScanJobs(const BatchData& d) {
  int64_t n = 0;
  for (const BatchPartition& p : d.partitions) n += p.LiveRows() > 0;
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

/// True when some stage filters or evaluates. A pure remap (every plain
/// SELECT column list) does no per-row work: it only shares columns.
bool ScheduleDoesRowWork(const PipelineSchedule& sched) {
  for (const PipelineStage& st : sched.stages) {
    if (st.is_filter || st.has_eval) return true;
  }
  return false;
}

/// Runs one partition through a fused chain schedule. Filter stages narrow
/// the selection over the physical row space without touching a column; a
/// compute stage that actually evaluates (has_eval) first compacts the live
/// rows, gathering every still-needed column through the selection, so
/// expressions run densely over exactly the rows that passed the filters
/// (never on filtered-out rows, which could abort on type errors a
/// row-at-a-time evaluation never sees). `stage_live[si]` receives the live
/// rows entering stage si.
BatchPartition RunChain(const PipelineSchedule& sched,
                        const std::vector<int>& col_pos,
                        const BatchPartition& in,
                        std::vector<int64_t>* stage_live) {
  const size_t nsteps = sched.steps.size();
  std::vector<ColumnPtr> cols(nsteps);
  for (size_t s = 0; s < nsteps; ++s) {
    if (col_pos[s] >= 0) {
      cols[s] = in.columns[static_cast<size_t>(col_pos[s])];
    }
  }
  size_t rows = in.rows;
  bool filtered = in.filtered;
  SelectionVector sel;
  if (filtered) sel = in.sel;
  for (size_t si = 0; si < sched.stages.size(); ++si) {
    const PipelineStage& stage = sched.stages[si];
    (*stage_live)[si] = static_cast<int64_t>(filtered ? sel.size() : rows);
    if (stage.is_filter) {
      for (const PredStep& ps : stage.preds) {
        SelectByPredicate(*cols[static_cast<size_t>(ps.lhs)],
                          ps.rhs >= 0 ? cols[static_cast<size_t>(ps.rhs)].get()
                                      : nullptr,
                          ps.literal, ps.op, rows, /*first=*/!filtered, &sel);
        filtered = true;
        // Later predicates of this stage select from an empty set; the row
        // path never evaluates them on any row either.
        if (sel.empty()) break;
      }
      continue;
    }
    if (stage.has_eval && filtered) {
      for (size_t s = 0; s < nsteps; ++s) {
        if (cols[s] == nullptr) continue;
        if (sched.last_use[s] < static_cast<int>(si)) {
          cols[s].reset();  // dead beyond this point; stop copying it
          continue;
        }
        cols[s] = MakeColumn(GatherColumn(*cols[s], sel));
      }
      rows = sel.size();
      sel.clear();
      filtered = false;
    }
    for (int e : stage.eval_steps) {
      const ExprStep& step = sched.steps[static_cast<size_t>(e)];
      switch (step.kind) {
        case ScalarExpr::Kind::kColumn:
          break;  // bound from the chain input above
        case ScalarExpr::Kind::kLiteral:
          cols[static_cast<size_t>(e)] =
              MakeColumn(SplatColumn(step.literal, rows));
          break;
        case ScalarExpr::Kind::kBinary: {
          auto col = std::make_shared<ColumnVector>();
          EvalBinaryColumns(step.op, *cols[static_cast<size_t>(step.lhs)],
                            *cols[static_cast<size_t>(step.rhs)], rows,
                            col.get());
          cols[static_cast<size_t>(e)] = std::move(col);
          break;
        }
      }
    }
  }
  BatchPartition out;
  out.rows = rows;
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

/// Destination d of an exchange: bin d of every source, in source order,
/// concatenated column by column. bins[s][d] holds physical row indices of
/// source partition s.
BatchPartition GatherBins(const BatchData& in,
                          const std::vector<std::vector<SelectionVector>>& bins,
                          size_t d, size_t width) {
  size_t total = 0;
  for (const std::vector<SelectionVector>& b : bins) total += b[d].size();
  BatchPartition out;
  out.rows = total;
  out.columns.reserve(width);
  for (size_t j = 0; j < width; ++j) {
    ColumnVector acc;
    acc.Reserve(total);
    for (size_t s = 0; s < bins.size(); ++s) {
      if (bins[s][d].empty()) continue;
      acc.AppendColumn(*in.partitions[s].columns[j], &bins[s][d]);
    }
    out.columns.push_back(MakeColumn(std::move(acc)));
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
  out.partitions.resize(nparts);
  std::vector<std::vector<int64_t>> stage_live(
      nparts, std::vector<int64_t>(sched.stages.size(), 0));
  RunPartitions(nparts, in.TotalLiveRows(), [&](size_t p) {
    out.partitions[p] =
        RunChain(sched, col_pos, in.partitions[p], &stage_live[p]);
  });
  // batches_evaluated depends on per-stage selectivity; summed master-side
  // in partition order.
  for (const std::vector<int64_t>& live : stage_live) {
    for (int64_t rows : live) {
      metrics->batches_evaluated +=
          NumBatches(static_cast<size_t>(rows), kBatchRows);
    }
  }
  if (ScheduleDoesRowWork(sched)) metrics->morsels_evaluated += ScanJobs(in);
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
  metrics->morsels_evaluated += ScanJobs(in);

  const size_t in_width = in.schema.columns().size();
  // Stream aggregates deliver rows ordered on their chosen sort order.
  std::vector<int> sort_pos;
  if (node.kind == PhysicalOpKind::kStreamAgg && !node.sort_spec.Empty()) {
    sort_pos = out.schema.PositionsOf(node.sort_spec.cols);
  }

  // One job per partition: densify the referenced columns (shared when the
  // partition is unfiltered, gathered through the selection otherwise),
  // hash the key cells, assign dense group ids in one row-order insert
  // scan, fold each aggregate column-major, and finalize straight into
  // columns: key columns gathered at the representative rows, then per
  // aggregate the output column (plus a local Avg's hidden partial count).
  // Row-order insertion makes every group id, and so the output group
  // order, a function of the partition alone. A group is keyed by its first
  // live row (ColumnKeyTable), so no key is ever materialized.
  RunPartitions(in.partitions.size(), in.TotalLiveRows(), [&](size_t p) {
    const BatchPartition& part = in.partitions[p];
    const size_t n = part.LiveRows();
    std::vector<ColumnPtr> dense(in_width);
    auto densify = [&](int pos) -> const ColumnVector* {
      if (pos < 0) return nullptr;
      ColumnPtr& col = dense[static_cast<size_t>(pos)];
      if (col == nullptr) col = DenseColumn(part, pos);
      return col.get();
    };
    std::vector<const ColumnVector*> keys;
    keys.reserve(group_pos.size());
    std::vector<uint64_t> hashes(n, kRowKeySeed);
    for (int gp : group_pos) {
      keys.push_back(densify(gp));
      HashColumnCells(*keys.back(), n, hashes.data());
    }
    ColumnKeyTable table(keys, n);
    std::vector<size_t> ids(n);
    for (size_t r = 0; r < n; ++r) {
      ids[r] = table.FindOrInsert(r, hashes[r]).first;
    }
    const SelectionVector& reps = table.reps();
    const size_t ngroups = reps.size();
    std::vector<AggState> states(ngroups * naggs);
    for (size_t i = 0; i < naggs; ++i) {
      UpdateAggColumnar(proto.aggregates[i], global,
                        densify(io[i].arg_pos), densify(io[i].hidden_pos),
                        ids, naggs, i, &states);
    }
    BatchPartition& sink = out.partitions[p];
    sink.rows = ngroups;
    for (const ColumnVector* key : keys) {
      sink.columns.push_back(MakeColumn(GatherColumn(*key, reps)));
    }
    for (size_t i = 0; i < naggs; ++i) {
      const AggregateDesc& a = proto.aggregates[i];
      ColumnVector col;
      col.Reserve(ngroups);
      for (size_t id = 0; id < ngroups; ++id) {
        col.AppendValue(
            FinalizeAggCell(a, states[id * naggs + i], global, local));
      }
      sink.columns.push_back(MakeColumn(std::move(col)));
      if (local && a.hidden_count != 0) {
        ColumnVector hid;
        hid.Reserve(ngroups);
        for (size_t id = 0; id < ngroups; ++id) {
          hid.AppendValue(Value::Int(states[id * naggs + i].count));
        }
        sink.columns.push_back(MakeColumn(std::move(hid)));
      }
    }
    if (!sort_pos.empty()) sink = SortedPartition(sink, sort_pos);
  });
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
  // The build and the probe scan: one job per non-empty side partition.
  metrics->morsels_evaluated += ScanJobs(right) + ScanJobs(left);

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

  // One job per partition: dense live views of both sides (all columns:
  // the output gathers every cell of each surviving pair), the build table
  // filled in one row-order scan (first-occurrence insertion order and
  // ascending per-key row lists), the probe scan emitting pairs in probe
  // row order, build insertion order within a key group, and the output
  // columns gathered at those pairs.
  const int64_t in_rows = left.TotalLiveRows() + right.TotalLiveRows();
  RunPartitions(left.partitions.size(), in_rows, [&](size_t p) {
    std::vector<ColumnPtr> bcols(nright), pcols(nleft);
    for (size_t j = 0; j < nright; ++j) {
      bcols[j] = DenseColumn(right.partitions[p], static_cast<int>(j));
    }
    for (size_t j = 0; j < nleft; ++j) {
      pcols[j] = DenseColumn(left.partitions[p], static_cast<int>(j));
    }
    const size_t bn = right.partitions[p].LiveRows();
    const size_t pn = left.partitions[p].LiveRows();
    std::vector<const ColumnVector*> build_keys, probe_keys;
    std::vector<uint64_t> bh(bn, kRowKeySeed), ph(pn, kRowKeySeed);
    for (int rp : rpos) {
      build_keys.push_back(bcols[static_cast<size_t>(rp)].get());
      HashColumnCells(*build_keys.back(), bn, bh.data());
    }
    for (int lp : lpos) {
      probe_keys.push_back(pcols[static_cast<size_t>(lp)].get());
      HashColumnCells(*probe_keys.back(), pn, ph.data());
    }
    ColumnKeyTable table(build_keys, bn);
    std::vector<std::vector<uint32_t>> rows_by_key;
    for (size_t r = 0; r < bn; ++r) {
      auto [id, inserted] = table.FindOrInsert(r, bh[r]);
      if (inserted) rows_by_key.emplace_back();
      rows_by_key[id].push_back(static_cast<uint32_t>(r));
    }
    auto cell = [&](int pos, uint32_t pi, uint32_t bri) {
      return pos < static_cast<int>(nleft)
                 ? pcols[static_cast<size_t>(pos)]->ValueAt(pi)
                 : bcols[static_cast<size_t>(pos) - nleft]->ValueAt(bri);
    };
    SelectionVector li, bi;  // surviving pairs, in emit order
    for (uint32_t i = 0; i < static_cast<uint32_t>(pn); ++i) {
      size_t id = table.Find(probe_keys, i, ph[i]);
      if (id == ColumnKeyTable::kNotFound) continue;
      for (uint32_t bld : rows_by_key[id]) {
        bool pass = true;
        for (size_t k = 0; k < rio.size(); ++k) {
          const BoundPredicate& pred = proto.predicates[k];
          Value lv = cell(rio[k].lhs_pos, i, bld);
          Value rv = rio[k].rhs_pos >= 0 ? cell(rio[k].rhs_pos, i, bld)
                                         : pred.literal;
          if (!PredicatePassCells(pred.op, lv, rv)) {
            pass = false;
            break;
          }
        }
        if (pass) {
          li.push_back(i);
          bi.push_back(bld);
        }
      }
    }
    BatchPartition& sink = out.partitions[p];
    sink.rows = li.size();
    sink.columns.reserve(nleft + nright);
    for (const ColumnPtr& col : pcols) {
      sink.columns.push_back(MakeColumn(GatherColumn(*col, li)));
    }
    for (const ColumnPtr& col : bcols) {
      sink.columns.push_back(MakeColumn(GatherColumn(*col, bi)));
    }
  });
  return out;
}

BatchData Executor::ExchangeBatch(const PhysicalNode& node, BatchData in,
                                  ExecMetrics* metrics, bool preserve_order) {
  const size_t machines = static_cast<size_t>(cluster_.machines);
  std::vector<int> positions =
      in.schema.PositionsOf(node.exchange_cols.ToVector());
  metrics->bytes_shuffled += in.TotalLiveBytes();
  metrics->rows_shuffled += in.TotalLiveRows();
  metrics->batches_evaluated += LiveBatches(in);
  metrics->morsels_evaluated += ScanJobs(in);

  // Source pass: hash each source's live key cells and bin its live
  // physical row indices per destination; source s owns bins[s].
  const size_t nsrc = in.partitions.size();
  const int64_t in_rows = in.TotalLiveRows();
  std::vector<std::vector<SelectionVector>> bins(
      nsrc, std::vector<SelectionVector>(machines));
  RunPartitions(nsrc, in_rows, [&](size_t s) {
    const BatchPartition& part = in.partitions[s];
    const size_t n = part.LiveRows();
    std::vector<uint64_t> hashes(n, kRowKeySeed);
    for (int pos : positions) {
      HashColumnCells(*DenseColumn(part, pos), n, hashes.data());
    }
    for (size_t k = 0; k < n; ++k) {
      bins[s][hashes[k] % machines].push_back(
          part.filtered ? part.sel[k] : static_cast<uint32_t>(k));
    }
  });
  // Destination pass: concatenate the bins source-major — a row order
  // independent of the thread count — and, for an order-preserving
  // exchange, sort each destination on the delivered order.
  std::vector<int> sort_pos;
  if (preserve_order && !node.delivered.sort.Empty()) {
    sort_pos = in.schema.PositionsOf(node.delivered.sort.cols);
  }
  const size_t width = in.schema.columns().size();
  BatchData out;
  out.partitions.resize(machines);
  RunPartitions(machines, in_rows, [&](size_t d) {
    out.partitions[d] = GatherBins(in, bins, d, width);
    if (!sort_pos.empty()) {
      out.partitions[d] = SortedPartition(out.partitions[d], sort_pos);
    }
  });
  out.schema = std::move(in.schema);
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
  metrics->morsels_evaluated += ScanJobs(in);

  // The whole key multiset concatenated (partition order, live order) for
  // the boundary scan.
  const int64_t in_rows = in.TotalLiveRows();
  const size_t total_live = static_cast<size_t>(in_rows);
  std::vector<ColumnVector> all(nkeys);
  for (size_t k = 0; k < nkeys; ++k) {
    all[k].Reserve(total_live);
    for (const BatchPartition& part : in.partitions) {
      all[k].AppendColumn(*part.columns[static_cast<size_t>(positions[k])],
                          part.Selection());
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

  // Source pass: each live row's destination is an upper_bound over the
  // boundaries with cell-vs-Value comparisons; its physical row index goes
  // to bins[s][destination].
  std::vector<std::vector<SelectionVector>> bins(
      nsrc, std::vector<SelectionVector>(machines));
  RunPartitions(nsrc, in_rows, [&](size_t s) {
    const BatchPartition& part = in.partitions[s];
    auto less_than_boundary = [&](uint32_t row, const Row& bound) {
      for (size_t k = 0; k < nkeys; ++k) {
        int c = CompareCellValue(
            *part.columns[static_cast<size_t>(positions[k])], row, bound[k]);
        if (c != 0) return c < 0;
      }
      return false;  // equal keys go right of the boundary (upper_bound)
    };
    const size_t n = part.LiveRows();
    for (size_t i = 0; i < n; ++i) {
      const uint32_t row =
          part.filtered ? part.sel[i] : static_cast<uint32_t>(i);
      size_t lo = 0, hi = boundaries.size();
      while (lo < hi) {
        const size_t mid = (lo + hi) / 2;
        if (less_than_boundary(row, boundaries[mid])) {
          hi = mid;
        } else {
          lo = mid + 1;
        }
      }
      bins[s][lo].push_back(row);
    }
  });

  // Destination pass: source-major, the same row order as the hash
  // exchange's.
  const size_t width = in.schema.columns().size();
  BatchData out;
  out.partitions.resize(machines);
  RunPartitions(machines, in_rows, [&](size_t d) {
    out.partitions[d] = GatherBins(in, bins, d, width);
  });
  out.schema = std::move(in.schema);
  return out;
}

}  // namespace scx
