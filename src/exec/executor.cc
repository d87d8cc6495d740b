#include "exec/executor.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <sstream>
#include <utility>

#include "common/hash.h"
#include "exec/exec_detail.h"
#include "exec/row_key_table.h"
#include "exec/spool_cache.h"

namespace scx {

int64_t PartitionedData::TotalRows() const {
  int64_t n = 0;
  for (const auto& p : partitions) n += static_cast<int64_t>(p.size());
  return n;
}

int64_t PartitionedData::TotalBytes() const {
  int64_t n = 0;
  for (const auto& p : partitions) {
    for (const Row& r : p) {
      for (const Value& v : r) n += v.ByteWidth();
    }
  }
  return n;
}

std::vector<Row> PartitionedData::Gathered() const {
  std::vector<Row> out;
  out.reserve(static_cast<size_t>(TotalRows()));
  for (const auto& p : partitions) {
    out.insert(out.end(), p.begin(), p.end());
  }
  return out;
}

std::vector<Row> PartitionedData::TakeGathered() {
  std::vector<Row> out;
  out.reserve(static_cast<size_t>(TotalRows()));
  for (auto& p : partitions) {
    out.insert(out.end(), std::make_move_iterator(p.begin()),
               std::make_move_iterator(p.end()));
    p.clear();
  }
  return out;
}

std::vector<Row> CanonicalRows(const std::vector<Row>& rows) {
  std::vector<Row> out;
  out.reserve(rows.size());
  out.insert(out.end(), rows.begin(), rows.end());
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<Row> CanonicalRows(std::vector<Row>&& rows) {
  std::sort(rows.begin(), rows.end());
  return std::move(rows);
}

std::map<std::string, std::vector<Row>> CanonicalOutputs(
    const ExecMetrics& m) {
  std::map<std::string, std::vector<Row>> out;
  for (const auto& [path, rows] : m.outputs) {
    out.emplace(path, CanonicalRows(rows));
  }
  return out;
}

bool SameOutputs(const ExecMetrics& a, const ExecMetrics& b) {
  return CanonicalOutputs(a) == CanonicalOutputs(b);
}

std::string ExecMetricsToJson(const ExecMetrics& m) {
  std::ostringstream os;
  os << "{\"rows_extracted\":" << m.rows_extracted
     << ",\"bytes_extracted\":" << m.bytes_extracted
     << ",\"rows_shuffled\":" << m.rows_shuffled
     << ",\"bytes_shuffled\":" << m.bytes_shuffled
     << ",\"bytes_spooled\":" << m.bytes_spooled
     << ",\"rows_spooled\":" << m.rows_spooled
     << ",\"spool_executions\":" << m.spool_executions
     << ",\"spool_reads\":" << m.spool_reads
     << ",\"spool_cache_hits\":" << m.spool_cache_hits
     << ",\"cross_query_spool_hits\":" << m.cross_query_spool_hits
     << ",\"spool_bytes_evicted\":" << m.spool_bytes_evicted
     << ",\"operator_invocations\":" << m.operator_invocations
     << ",\"rows_output\":" << m.rows_output
     << ",\"batches_evaluated\":" << m.batches_evaluated
     << ",\"exprs_deduped\":" << m.exprs_deduped
     << ",\"rows_converted\":" << m.rows_converted
     << ",\"batch_pipeline_breaks\":" << m.batch_pipeline_breaks
     << ",\"morsels_evaluated\":" << m.morsels_evaluated
     << ",\"morsel_steal_count\":" << m.morsel_steal_count
     << ",\"machine_failures_injected\":" << m.machine_failures_injected
     << ",\"partitions_recovered\":" << m.partitions_recovered
     << ",\"rows_recomputed\":" << m.rows_recomputed
     << ",\"recovery_spool_hits\":" << m.recovery_spool_hits
     << ",\"recovery_bytes_moved\":" << m.recovery_bytes_moved
     << ",\"sim_makespan_ticks\":" << m.sim_makespan_ticks << "}";
  return os.str();
}

namespace exec_detail {

Value SyntheticValue(const FileDef& file, int col_index, int64_t row_index) {
  const ColumnStats& cs = file.columns[static_cast<size_t>(col_index)];
  uint64_t h = Mix64(file.data_seed ^
                     (static_cast<uint64_t>(col_index) + 1) *
                         0x9e3779b97f4a7c15ULL ^
                     static_cast<uint64_t>(row_index));
  uint64_t domain = static_cast<uint64_t>(std::max<int64_t>(1, cs.distinct_count));
  uint64_t k = h % domain;
  if (cs.skew_alpha > 0) {
    // Power-law draw: key floor(domain * u^(1+alpha)) for u uniform in
    // [0, 1) — low keys are hot, and hotter the larger alpha. alpha == 0
    // keeps the exact legacy modulo draw above (bit-identity for every
    // pre-existing catalog).
    double u = static_cast<double>(h >> 11) * 0x1.0p-53;
    double scaled =
        std::pow(u, 1.0 + cs.skew_alpha) * static_cast<double>(domain);
    k = std::min(domain - 1, static_cast<uint64_t>(scaled));
  }
  switch (cs.type) {
    case DataType::kInt64:
      return Value::Int(static_cast<int64_t>(k) + 1);
    case DataType::kDouble:
      return Value::Real(static_cast<double>(k) * 0.5);
    case DataType::kString:
      return Value::Str("v" + std::to_string(k));
  }
  return Value::Int(0);
}

Value FinalizeAggCell(const AggregateDesc& a, const AggState& s, bool global,
                      bool local) {
  if (global) {
    switch (a.fn) {
      case AggFn::kSum:
      case AggFn::kCount:
        if (a.out_type == DataType::kDouble) {
          return Value::Real(s.dsum);
        }
        return Value::Int(s.isum);
      case AggFn::kMin:
        return s.minv;
      case AggFn::kMax:
        return s.maxv;
      case AggFn::kAvg:
        return Value::Real(
            s.count > 0 ? s.dsum / static_cast<double>(s.count) : 0);
    }
    return Value::Int(0);
  }
  switch (a.fn) {
    case AggFn::kSum:
      if (a.out_type == DataType::kDouble) {
        return Value::Real(s.dsum);
      }
      return Value::Int(s.isum);
    case AggFn::kCount:
      return Value::Int(s.count);
    case AggFn::kMin:
      return s.minv;
    case AggFn::kMax:
      return s.maxv;
    case AggFn::kAvg:
      if (local) {
        return Value::Real(s.dsum);  // partial sum (out)
      }
      return Value::Real(
          s.count > 0 ? s.dsum / static_cast<double>(s.count) : 0);
  }
  return Value::Int(0);
}

}  // namespace exec_detail

namespace {

using exec_detail::AggState;
using exec_detail::FinalizeAggCell;
using exec_detail::SyntheticValue;

/// Sorts rows in place by the given column positions (all ascending).
void SortRows(std::vector<Row>* rows, const std::vector<int>& positions) {
  std::sort(rows->begin(), rows->end(), [&](const Row& a, const Row& b) {
    for (int p : positions) {
      auto c = a[static_cast<size_t>(p)] <=> b[static_cast<size_t>(p)];
      if (c != 0) return c < 0;
    }
    return false;
  });
}

}  // namespace

void Executor::RunPartitions(size_t n, int64_t rows,
                             const std::function<void(size_t)>& fn) {
  if (threads_ <= 1 || n <= 1 || rows < kSerialCutoffRows) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  if (pool_ == nullptr) pool_ = std::make_unique<WorkerPool>(threads_);
  ++pool_passes_;
  pool_->Run(n, fn);
}

void Executor::RunMorsels(const std::vector<size_t>& live, ExecMetrics* metrics,
                          const std::function<void(size_t, size_t, size_t)>& fn) {
  struct MorselJob {
    size_t part, begin, end;
  };
  std::vector<MorselJob> jobs;
  size_t nonempty = 0;
  for (size_t p = 0; p < live.size(); ++p) {
    if (live[p] == 0) continue;
    ++nonempty;
    for (size_t b = 0; b < live[p]; b += morsel_size_) {
      jobs.push_back({p, b, std::min(live[p], b + morsel_size_)});
    }
  }
  // Both counters depend on `live` and morsel_size_ only, never on the
  // thread count or execution order.
  metrics->morsels_evaluated += static_cast<int64_t>(jobs.size());
  metrics->morsel_steal_count += static_cast<int64_t>(jobs.size() - nonempty);
  int64_t rows = 0;
  for (size_t n : live) rows += static_cast<int64_t>(n);
  RunPartitions(jobs.size(), rows, [&](size_t j) {
    const MorselJob& job = jobs[j];
    fn(job.part, job.begin, job.end);
  });
}

Result<ExecMetrics> Executor::Execute(const PhysicalNodePtr& plan) {
  ExecMetrics metrics;
  spool_meta_.clear();
  run_spool_bytes_ = 0;
  spool_seq_ = 0;
  spool_budget_ = ResolveSpoolBudget(cluster_.spool_cache_bytes);
  fault_enabled_ = cluster_.fault_plan.Enabled();
  in_recovery_ = false;
  recovery_overlay_.clear();
  recovery_batch_overlay_.clear();
  if (batch_size_ > 1) {
    batch_spool_cache_.clear();
    SCX_ASSIGN_OR_RETURN(BatchData ignored, EvalBatch(plan, &metrics));
    (void)ignored;
    return metrics;
  }
  spool_cache_.clear();
  SCX_ASSIGN_OR_RETURN(PartitionedData ignored, Eval(plan, &metrics));
  (void)ignored;
  return metrics;
}

SpoolCacheKey Executor::CrossKeyFor(const PhysicalNode& node,
                                    bool batch) const {
  SpoolCacheKey key;
  key.canon = CanonicalSubDagDescription(node.children[0]);
  key.catalog_version = catalog_version_;
  key.machines = cluster_.machines;
  key.batch = batch;
  return key;
}

void Executor::TrackSpoolInsert(const PhysicalNode* node, int64_t bytes,
                                ExecMetrics* metrics) {
  RunSpoolMeta meta;
  meta.bytes = bytes;
  meta.recompute_cost = DagCost(node->children[0]);
  meta.seq = spool_seq_++;
  run_spool_bytes_ += bytes;
  spool_meta_[node] = meta;
  // Evict the least valuable materializations until the budget holds. The
  // (benefit, seq) order is a strict total order (seq is unique), so the
  // victim choice does not depend on unordered_map iteration order.
  while (run_spool_bytes_ > spool_budget_ && !spool_meta_.empty()) {
    auto victim = spool_meta_.end();
    for (auto it = spool_meta_.begin(); it != spool_meta_.end(); ++it) {
      if (victim == spool_meta_.end()) {
        victim = it;
        continue;
      }
      double benefit = it->second.recompute_cost * (1.0 + it->second.reads);
      double best =
          victim->second.recompute_cost * (1.0 + victim->second.reads);
      if (benefit < best ||
          (benefit == best && it->second.seq < victim->second.seq)) {
        victim = it;
      }
    }
    run_spool_bytes_ -= victim->second.bytes;
    metrics->spool_bytes_evicted += victim->second.bytes;
    spool_cache_.erase(victim->first);
    batch_spool_cache_.erase(victim->first);
    spool_meta_.erase(victim);
  }
}

void Executor::TrackSpoolRead(const PhysicalNode* node) {
  auto it = spool_meta_.find(node);
  if (it != spool_meta_.end()) ++it->second.reads;
}

Result<PartitionedData> Executor::Eval(const PhysicalNodePtr& node,
                                       ExecMetrics* metrics) {
  if (!fault_enabled_ || in_recovery_) return EvalInner(node, metrics);
  // Pass ids are pre-order: the id EvalInner assigns to this node before it
  // descends into its children. Captured here so the failure decision never
  // depends on how many passes the children consumed.
  int64_t pass = metrics->operator_invocations + 1;
  SCX_ASSIGN_OR_RETURN(PartitionedData out, EvalInner(node, metrics));
  SCX_RETURN_IF_ERROR(InjectFaults(node, pass, &out, metrics));
  return out;
}

Status Executor::InjectFaults(const PhysicalNodePtr& node, int64_t pass,
                              PartitionedData* out, ExecMetrics* metrics) {
  const FaultPlan& plan = cluster_.fault_plan;
  // Simulated makespan of this pass: the slowest machine, with stragglers
  // running straggler_factor x slower. A function of the plan, the data and
  // the pass structure only — identical across threads and morsel sizes.
  int64_t slowest = 0;
  for (size_t m = 0; m < out->partitions.size(); ++m) {
    double ticks = static_cast<double>(out->partitions[m].size()) *
                   plan.StragglerMultiplier(static_cast<int>(m));
    slowest = std::max(slowest, static_cast<int64_t>(ticks));
  }
  metrics->sim_makespan_ticks += slowest;
  // Output has already moved its rows into the metrics sink and Sequence
  // carries no data: nothing a machine failure could lose.
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
    out->partitions[m].clear();  // the machine's output is gone
    SCX_RETURN_IF_ERROR(RecoverPartition(node, m, out, metrics));
  }
  return Status();
}

Status Executor::RecoverPartition(const PhysicalNodePtr& node, size_t m,
                                  PartitionedData* out, ExecMetrics* metrics) {
  const FaultPlan& plan = cluster_.fault_plan;
  ++metrics->partitions_recovered;
  if (node->kind == PhysicalOpKind::kSpool &&
      !plan.disable_recovery_spool_reads) {
    // The spool's materialization is durable storage: the failed machine
    // only lost its in-flight copy. Re-read the surviving spool — run-local
    // first, then the cross-query cache via a pinned zero-copy peek (the pin
    // keeps concurrent insertions from evicting the entry mid-read; no reuse
    // bump, so future eviction victims match the clean run).
    auto it = spool_cache_.find(node.get());
    if (it != spool_cache_.end() && m < it->second.partitions.size()) {
      out->partitions[m] = it->second.partitions[m];
      ++metrics->recovery_spool_hits;
      return Status();
    }
    if (cross_cache_ != nullptr) {
      CrossQuerySpoolCache::PinnedEntry pin =
          cross_cache_->Pin(CrossKeyFor(*node, /*batch=*/false));
      if (pin && m < pin.rows().partitions.size()) {
        out->partitions[m] = pin.rows().partitions[m];
        ++metrics->recovery_spool_hits;
        return Status();
      }
    }
  }
  // No surviving spool: deterministically recompute the lost sub-DAG.
  // Recovery mode is side-effect-free — scratch metrics, read-only spool
  // lookups, recomputed spools memoized in a recovery-local overlay — so
  // every legacy counter stays bit-identical to the clean run.
  ExecMetrics scratch;
  in_recovery_ = true;
  auto recomputed = EvalInner(node, &scratch);
  in_recovery_ = false;
  recovery_overlay_.clear();
  recovery_batch_overlay_.clear();
  if (!recomputed.ok()) return recomputed.status();
  metrics->rows_recomputed += recomputed->TotalRows();
  metrics->recovery_spool_hits += scratch.spool_cache_hits;
  metrics->recovery_bytes_moved += scratch.bytes_extracted +
                                   scratch.bytes_shuffled +
                                   scratch.bytes_spooled;
  if (m < recomputed->partitions.size()) {
    out->partitions[m] = std::move(recomputed->partitions[m]);
  }
  return Status();
}

Result<PartitionedData> Executor::RecoverySpoolRows(const PhysicalNodePtr& node,
                                                    ExecMetrics* scratch) {
  const bool allow_reads = !cluster_.fault_plan.disable_recovery_spool_reads;
  if (allow_reads) {
    auto it = spool_cache_.find(node.get());
    if (it != spool_cache_.end()) {
      ++scratch->spool_reads;
      ++scratch->spool_cache_hits;  // folded into recovery_spool_hits
      return it->second;
    }
  }
  auto ov = recovery_overlay_.find(node.get());
  if (ov != recovery_overlay_.end()) {
    ++scratch->spool_reads;
    return ov->second;
  }
  if (allow_reads && cross_cache_ != nullptr) {
    CrossQuerySpoolCache::PinnedEntry pin =
        cross_cache_->Pin(CrossKeyFor(*node, /*batch=*/false));
    if (pin) {
      ++scratch->spool_reads;
      ++scratch->spool_cache_hits;
      PartitionedData data = pin.rows();
      recovery_overlay_[node.get()] = data;
      return data;
    }
  }
  SCX_ASSIGN_OR_RETURN(PartitionedData in, Eval(node->children[0], scratch));
  recovery_overlay_[node.get()] = in;
  return in;
}

Result<PartitionedData> Executor::EvalInner(const PhysicalNodePtr& node,
                                            ExecMetrics* metrics) {
  ++metrics->operator_invocations;
  switch (node->kind) {
    case PhysicalOpKind::kExtract:
      return EvalExtract(*node, metrics);

    case PhysicalOpKind::kFilter: {
      SCX_ASSIGN_OR_RETURN(PartitionedData in, Eval(node->children[0], metrics));
      PartitionedData out;
      out.schema = in.schema;
      out.partitions.resize(in.partitions.size());
      const std::vector<BoundPredicate>& preds = node->proto->predicates;
      RunPartitions(in.partitions.size(), in.TotalRows(), [&](size_t p) {
        for (Row& r : in.partitions[p]) {
          bool pass = true;
          for (const BoundPredicate& pred : preds) {
            if (!pred.Evaluate(r, in.schema)) {
              pass = false;
              break;
            }
          }
          if (pass) out.partitions[p].push_back(std::move(r));
        }
      });
      return out;
    }

    case PhysicalOpKind::kProject: {
      SCX_ASSIGN_OR_RETURN(PartitionedData in, Eval(node->children[0], metrics));
      PartitionedData out;
      out.schema = node->proto->schema();
      out.partitions.resize(in.partitions.size());
      std::vector<int> positions;
      for (const auto& [src, dst] : node->proto->project_map) {
        (void)dst;
        positions.push_back(in.schema.PositionOf(src));
      }
      RunPartitions(in.partitions.size(), in.TotalRows(), [&](size_t p) {
        out.partitions[p].reserve(in.partitions[p].size());
        for (const Row& r : in.partitions[p]) {
          Row projected;
          projected.reserve(positions.size());
          for (int pos : positions) {
            projected.push_back(r[static_cast<size_t>(pos)]);
          }
          out.partitions[p].push_back(std::move(projected));
        }
      });
      return out;
    }

    case PhysicalOpKind::kCompute: {
      SCX_ASSIGN_OR_RETURN(PartitionedData in, Eval(node->children[0], metrics));
      PartitionedData out;
      out.schema = node->proto->schema();
      out.partitions.resize(in.partitions.size());
      const auto& items = node->proto->compute_items;
      RunPartitions(in.partitions.size(), in.TotalRows(), [&](size_t p) {
        out.partitions[p].reserve(in.partitions[p].size());
        for (const Row& r : in.partitions[p]) {
          Row computed;
          computed.reserve(items.size());
          for (const ComputeItem& item : items) {
            computed.push_back(item.expr->Evaluate(r, in.schema));
          }
          out.partitions[p].push_back(std::move(computed));
        }
      });
      return out;
    }

    case PhysicalOpKind::kHashAgg:
    case PhysicalOpKind::kStreamAgg: {
      SCX_ASSIGN_OR_RETURN(PartitionedData in, Eval(node->children[0], metrics));
      return EvalAggregate(*node, std::move(in), metrics);
    }

    case PhysicalOpKind::kHashJoin:
    case PhysicalOpKind::kMergeJoin: {
      SCX_ASSIGN_OR_RETURN(PartitionedData l, Eval(node->children[0], metrics));
      SCX_ASSIGN_OR_RETURN(PartitionedData r, Eval(node->children[1], metrics));
      return EvalJoin(*node, std::move(l), std::move(r), metrics);
    }

    case PhysicalOpKind::kUnionAll: {
      PartitionedData out;
      out.schema = node->proto->schema();
      out.partitions.resize(static_cast<size_t>(cluster_.machines));
      for (const PhysicalNodePtr& child : node->children) {
        SCX_ASSIGN_OR_RETURN(PartitionedData in, Eval(child, metrics));
        for (size_t p = 0; p < in.partitions.size(); ++p) {
          size_t dest = p % out.partitions.size();
          auto& sink = out.partitions[dest];
          sink.insert(sink.end(),
                      std::make_move_iterator(in.partitions[p].begin()),
                      std::make_move_iterator(in.partitions[p].end()));
        }
      }
      return out;
    }

    case PhysicalOpKind::kSpool: {
      // Recovery recomputation must not mutate spool bookkeeping (caches,
      // reuse counts, budget): reroute to the read-only recovery path.
      if (in_recovery_) return RecoverySpoolRows(node, metrics);
      auto it = spool_cache_.find(node.get());
      if (it != spool_cache_.end()) {
        ++metrics->spool_reads;
        ++metrics->spool_cache_hits;
        TrackSpoolRead(node.get());
        return it->second;
      }
      if (cross_cache_ != nullptr) {
        SpoolCacheKey key = CrossKeyFor(*node, /*batch=*/false);
        if (auto hit = cross_cache_->LookupRows(key)) {
          // Served by an earlier execution: no materialization work, no
          // bytes_spooled. Keep a run-local copy so sibling consumers stay
          // on the ordinary in-run path (and within the byte budget).
          ++metrics->spool_reads;
          ++metrics->spool_cache_hits;
          ++metrics->cross_query_spool_hits;
          PartitionedData data = std::move(*hit);
          spool_cache_[node.get()] = data;
          TrackSpoolInsert(node.get(), data.TotalBytes(), metrics);
          return data;
        }
      }
      SCX_ASSIGN_OR_RETURN(PartitionedData in, Eval(node->children[0], metrics));
      metrics->bytes_spooled += in.TotalBytes();
      metrics->rows_spooled += in.TotalRows();
      ++metrics->spool_executions;
      ++metrics->spool_reads;
      if (cross_cache_ != nullptr) {
        cross_cache_->InsertRows(CrossKeyFor(*node, /*batch=*/false), in,
                                 DagCost(node->children[0]),
                                 &metrics->spool_bytes_evicted);
      }
      spool_cache_[node.get()] = in;
      TrackSpoolInsert(node.get(), in.TotalBytes(), metrics);
      return in;
    }

    case PhysicalOpKind::kSpoolScan:
      // Rejected by ValidatePlan before execution; kept only so the
      // operator switch stays exhaustive.
      break;

    case PhysicalOpKind::kOutput: {
      SCX_ASSIGN_OR_RETURN(PartitionedData in, Eval(node->children[0], metrics));
      // Output is terminal — a Sequence child or the plan root — so its
      // data is never read again; move the rows into the sink.
      size_t machines = in.partitions.size();
      std::vector<Row> rows = in.TakeGathered();
      metrics->rows_output += static_cast<int64_t>(rows.size());
      auto& sink = metrics->outputs[node->proto->output_path];
      sink.insert(sink.end(), std::make_move_iterator(rows.begin()),
                  std::make_move_iterator(rows.end()));
      PartitionedData out;
      out.schema = std::move(in.schema);
      out.partitions.resize(machines);
      return out;
    }

    case PhysicalOpKind::kSequence: {
      for (const PhysicalNodePtr& c : node->children) {
        SCX_ASSIGN_OR_RETURN(PartitionedData ignored, Eval(c, metrics));
        (void)ignored;
      }
      PartitionedData out;
      out.partitions.resize(static_cast<size_t>(cluster_.machines));
      return out;
    }

    case PhysicalOpKind::kHashExchange: {
      SCX_ASSIGN_OR_RETURN(PartitionedData in, Eval(node->children[0], metrics));
      return Exchange(*node, std::move(in), metrics, /*preserve_order=*/false);
    }
    case PhysicalOpKind::kMergeExchange: {
      SCX_ASSIGN_OR_RETURN(PartitionedData in, Eval(node->children[0], metrics));
      return Exchange(*node, std::move(in), metrics, /*preserve_order=*/true);
    }

    case PhysicalOpKind::kRangeExchange: {
      SCX_ASSIGN_OR_RETURN(PartitionedData in, Eval(node->children[0], metrics));
      size_t machines = static_cast<size_t>(cluster_.machines);
      std::vector<int> positions = in.schema.PositionsOf(
          node->delivered.partitioning.range_cols);
      // Boundary computation by exact quantiles over the key multiset —
      // the simulation stand-in for SCOPE's sampling pass.
      std::vector<std::vector<std::vector<Value>>> part_keys(
          in.partitions.size());
      RunPartitions(in.partitions.size(), in.TotalRows(), [&](size_t p) {
        part_keys[p].reserve(in.partitions[p].size());
        for (const Row& r : in.partitions[p]) {
          std::vector<Value> key;
          key.reserve(positions.size());
          for (int pos : positions) key.push_back(r[static_cast<size_t>(pos)]);
          part_keys[p].push_back(std::move(key));
        }
      });
      std::vector<std::vector<Value>> keys;
      keys.reserve(static_cast<size_t>(in.TotalRows()));
      for (auto& pk : part_keys) {
        keys.insert(keys.end(), std::make_move_iterator(pk.begin()),
                    std::make_move_iterator(pk.end()));
      }
      std::sort(keys.begin(), keys.end());
      std::vector<std::vector<Value>> boundaries;
      for (size_t i = 1; i < machines && !keys.empty(); ++i) {
        boundaries.push_back(keys[i * keys.size() / machines]);
      }
      metrics->bytes_shuffled += in.TotalBytes();
      metrics->rows_shuffled += in.TotalRows();
      return ScatterByDest(
          std::move(in),
          [&](const std::vector<Row>& rows, std::vector<uint32_t>* dest) {
            for (size_t i = 0; i < rows.size(); ++i) {
              std::vector<Value> key;
              key.reserve(positions.size());
              for (int pos : positions) {
                key.push_back(rows[i][static_cast<size_t>(pos)]);
              }
              (*dest)[i] = static_cast<uint32_t>(
                  std::upper_bound(boundaries.begin(), boundaries.end(),
                                   key) -
                  boundaries.begin());
            }
          });
    }

    case PhysicalOpKind::kBroadcastExchange: {
      SCX_ASSIGN_OR_RETURN(PartitionedData in, Eval(node->children[0], metrics));
      size_t machines = static_cast<size_t>(cluster_.machines);
      metrics->bytes_shuffled +=
          in.TotalBytes() * static_cast<int64_t>(machines);
      metrics->rows_shuffled +=
          in.TotalRows() * static_cast<int64_t>(machines);
      std::vector<Row> all = in.TakeGathered();
      PartitionedData out;
      out.schema = std::move(in.schema);
      out.partitions.resize(machines);
      const int64_t copied = static_cast<int64_t>(all.size() * (machines - 1));
      RunPartitions(machines - 1, copied,
                    [&](size_t m) { out.partitions[m] = all; });
      out.partitions[machines - 1] = std::move(all);
      return out;
    }

    case PhysicalOpKind::kGather: {
      SCX_ASSIGN_OR_RETURN(PartitionedData in, Eval(node->children[0], metrics));
      metrics->bytes_shuffled += in.TotalBytes();
      metrics->rows_shuffled += in.TotalRows();
      PartitionedData out;
      out.schema = std::move(in.schema);
      out.partitions.resize(1);
      out.partitions[0] = in.TakeGathered();
      if (!node->delivered.sort.Empty()) {
        SortRows(&out.partitions[0],
                 out.schema.PositionsOf(node->delivered.sort.cols));
      }
      return out;
    }

    case PhysicalOpKind::kSort: {
      SCX_ASSIGN_OR_RETURN(PartitionedData in, Eval(node->children[0], metrics));
      std::vector<int> positions =
          in.schema.PositionsOf(node->sort_spec.cols);
      RunPartitions(in.partitions.size(), in.TotalRows(),
                    [&](size_t p) { SortRows(&in.partitions[p], positions); });
      return in;
    }
  }
  return Status::Internal("unhandled physical operator " +
                          std::string(PhysicalOpKindName(node->kind)));
}

Result<PartitionedData> Executor::EvalExtract(const PhysicalNode& node,
                                              ExecMetrics* metrics) {
  const FileDef& file = node.proto->file;
  PartitionedData out;
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
  // Row i lands on machine i % machines, so machine m independently
  // synthesizes rows m, m + machines, ... — the same per-partition row
  // order as the serial round-robin loop.
  int64_t rows = file.row_count;
  RunPartitions(machines, rows, [&](size_t m) {
    std::vector<Row>& part = out.partitions[m];
    if (static_cast<int64_t>(m) >= rows) return;
    part.reserve(static_cast<size_t>(
        (rows - static_cast<int64_t>(m) + static_cast<int64_t>(machines) - 1) /
        static_cast<int64_t>(machines)));
    for (int64_t i = static_cast<int64_t>(m); i < rows;
         i += static_cast<int64_t>(machines)) {
      Row row;
      row.reserve(file_cols.size());
      for (int idx : file_cols) {
        row.push_back(SyntheticValue(file, idx, i));
      }
      part.push_back(std::move(row));
    }
  });
  metrics->rows_extracted += rows;
  metrics->bytes_extracted += out.TotalBytes();
  return out;
}

Result<PartitionedData> Executor::EvalAggregate(const PhysicalNode& node,
                                                PartitionedData in,
                                                ExecMetrics* metrics) {
  const LogicalNode& proto = *node.proto;
  const bool local = proto.kind() == LogicalOpKind::kLocalGbAgg;
  const bool global = proto.kind() == LogicalOpKind::kGlobalGbAgg;
  (void)metrics;

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

  PartitionedData out;
  out.schema = proto.schema();
  out.partitions.resize(in.partitions.size());

  RunPartitions(in.partitions.size(), in.TotalRows(), [&](size_t p) {
    const std::vector<Row>& rows = in.partitions[p];
    // Pre-sized for the worst case (all keys distinct): no rehash ever.
    RowKeyTable table(rows.size());
    std::vector<AggState> states;  // naggs states per group, group-major
    for (const Row& r : rows) {
      auto [id, inserted] = table.FindOrInsert(r, group_pos);
      if (inserted) states.resize(states.size() + naggs);
      AggState* group_states = &states[id * naggs];
      for (size_t i = 0; i < naggs; ++i) {
        const AggregateDesc& a = proto.aggregates[i];
        AggState& s = group_states[i];
        if (global) {
          // Merge partial states: Sum/Count partials are summed (fn was
          // rewritten to kSum by the split rule); Min/Max fold; Avg sums
          // the partial sums and the partial counts.
          const Value& v = r[static_cast<size_t>(io[i].arg_pos)];
          switch (a.fn) {
            case AggFn::kSum:
              if (v.is_int()) {
                s.isum = WrapAdd(s.isum, v.as_int());
              } else {
                s.dsum += v.AsNumeric();
              }
              break;
            case AggFn::kMin:
              if (!s.seen || v < s.minv) s.minv = v;
              break;
            case AggFn::kMax:
              if (!s.seen || v > s.maxv) s.maxv = v;
              break;
            case AggFn::kAvg: {
              s.dsum += v.AsNumeric();
              s.count +=
                  r[static_cast<size_t>(io[i].hidden_pos)].as_int();
              break;
            }
            case AggFn::kCount:
              s.isum = WrapAdd(s.isum, v.as_int());
              break;
          }
          s.seen = true;
          continue;
        }
        // Full or local aggregation over raw rows.
        switch (a.fn) {
          case AggFn::kSum: {
            const Value& v = r[static_cast<size_t>(io[i].arg_pos)];
            if (v.is_int()) {
              s.isum = WrapAdd(s.isum, v.as_int());
            } else {
              s.dsum += v.AsNumeric();
            }
            break;
          }
          case AggFn::kCount:
            ++s.count;
            break;
          case AggFn::kMin: {
            const Value& v = r[static_cast<size_t>(io[i].arg_pos)];
            if (!s.seen || v < s.minv) s.minv = v;
            break;
          }
          case AggFn::kMax: {
            const Value& v = r[static_cast<size_t>(io[i].arg_pos)];
            if (!s.seen || v > s.maxv) s.maxv = v;
            break;
          }
          case AggFn::kAvg: {
            const Value& v = r[static_cast<size_t>(io[i].arg_pos)];
            s.dsum += v.AsNumeric();
            ++s.count;
            break;
          }
        }
        s.seen = true;
      }
    }

    out.partitions[p].reserve(table.size());
    for (size_t id = 0; id < table.size(); ++id) {
      Row row = table.KeyAt(id);
      const AggState* group_states = &states[id * naggs];
      for (size_t i = 0; i < naggs; ++i) {
        const AggregateDesc& a = proto.aggregates[i];
        const AggState& s = group_states[i];
        row.push_back(FinalizeAggCell(a, s, global, local));
        if (!global && local && a.hidden_count != 0) {
          row.push_back(Value::Int(s.count));  // partial count (hidden)
        }
      }
      out.partitions[p].push_back(std::move(row));
    }
  });

  // Stream aggregates deliver rows ordered on their chosen sort order.
  if (node.kind == PhysicalOpKind::kStreamAgg && !node.sort_spec.Empty()) {
    std::vector<int> positions = out.schema.PositionsOf(node.sort_spec.cols);
    RunPartitions(out.partitions.size(), out.TotalRows(),
                  [&](size_t p) { SortRows(&out.partitions[p], positions); });
  }
  return out;
}

Result<PartitionedData> Executor::EvalJoin(const PhysicalNode& node,
                                           PartitionedData left,
                                           PartitionedData right,
                                           ExecMetrics* metrics) {
  const LogicalNode& proto = *node.proto;
  (void)metrics;
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
  PartitionedData out;
  out.schema = proto.schema();
  out.partitions.resize(left.partitions.size());

  const int64_t in_rows = left.TotalRows() + right.TotalRows();
  RunPartitions(left.partitions.size(), in_rows, [&](size_t p) {
    const std::vector<Row>& build = right.partitions[p];
    RowKeyTable table(build.size());
    std::vector<std::vector<const Row*>> rows_by_key;
    // Emits the joined rows of probe row `l` against build group `id`,
    // applying the residual predicates.
    auto emit = [&](const Row& l, size_t id) {
      for (const Row* r : rows_by_key[id]) {
        Row joined = l;
        joined.insert(joined.end(), r->begin(), r->end());
        bool pass = true;
        for (const BoundPredicate& pred : proto.predicates) {
          if (!pred.Evaluate(joined, out.schema)) {
            pass = false;
            break;
          }
        }
        if (pass) out.partitions[p].push_back(std::move(joined));
      }
    };
    for (const Row& r : build) {
      auto [id, inserted] = table.FindOrInsert(r, rpos);
      if (inserted) rows_by_key.emplace_back();
      rows_by_key[id].push_back(&r);
    }
    for (const Row& l : left.partitions[p]) {
      size_t id = table.Find(l, lpos);
      if (id == RowKeyTable::kNotFound) continue;
      emit(l, id);
    }
  });
  return out;
}

PartitionedData Executor::Exchange(const PhysicalNode& node,
                                   PartitionedData in, ExecMetrics* metrics,
                                   bool preserve_order) {
  size_t machines = static_cast<size_t>(cluster_.machines);
  std::vector<int> positions =
      in.schema.PositionsOf(node.exchange_cols.ToVector());
  metrics->bytes_shuffled += in.TotalBytes();
  metrics->rows_shuffled += in.TotalRows();
  PartitionedData out = ScatterByDest(
      std::move(in),
      [&](const std::vector<Row>& rows, std::vector<uint32_t>* dest) {
        for (size_t i = 0; i < rows.size(); ++i) {
          (*dest)[i] = static_cast<uint32_t>(HashRowKey(rows[i], positions) %
                                             machines);
        }
      });
  if (preserve_order && !node.delivered.sort.Empty()) {
    std::vector<int> sort_pos =
        out.schema.PositionsOf(node.delivered.sort.cols);
    RunPartitions(out.partitions.size(), out.TotalRows(),
                  [&](size_t p) { SortRows(&out.partitions[p], sort_pos); });
  }
  return out;
}

}  // namespace scx
