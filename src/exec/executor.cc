#include "exec/executor.h"

#include <algorithm>
#include <cmath>
#include <compare>
#include <sstream>
#include <utility>

#include "common/hash.h"
#include "exec/exec_detail.h"
#include "exec/spool_cache.h"

namespace scx {

namespace {

// A total order for comparing outputs. Value's own <=> ranks NaN equal to
// every double (so a sort over it has no strict weak order) and its == never
// matches a NaN; here NaN sorts after every other double and all NaNs are
// equal. ORDER BY and the key tables keep Value's semantics.
std::strong_ordering CanonicalCompare(const Value& a, const Value& b) {
  std::strong_ordering order = a <=> b;
  // <=> says "less" or "greater" only for two non-NaN values.
  if (order != 0 || a.type() != DataType::kDouble ||
      b.type() != DataType::kDouble) {
    return order;
  }
  return std::isnan(a.as_double()) <=> std::isnan(b.as_double());
}

}  // namespace

std::strong_ordering CanonicalCompare(const Row& a, const Row& b) {
  return std::lexicographical_compare_three_way(
      a.begin(), a.end(), b.begin(), b.end(),
      [](const Value& x, const Value& y) { return CanonicalCompare(x, y); });
}

namespace {

// A closure type rather than a function, so std::sort inlines it.
constexpr auto kCanonicalLess = [](const Row& a, const Row& b) {
  return CanonicalCompare(a, b) < 0;
};

bool SameCanonicalRows(const std::vector<Row>& a, const std::vector<Row>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const Row& x, const Row& y) {
                      return CanonicalCompare(x, y) == 0;
                    });
}

}  // namespace

std::vector<Row> CanonicalRows(const std::vector<Row>& rows) {
  std::vector<Row> out;
  out.reserve(rows.size());
  out.insert(out.end(), rows.begin(), rows.end());
  std::sort(out.begin(), out.end(), kCanonicalLess);
  return out;
}

std::vector<Row> CanonicalRows(std::vector<Row>&& rows) {
  std::sort(rows.begin(), rows.end(), kCanonicalLess);
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

bool SameOutputs(const std::map<std::string, std::vector<Row>>& a,
                 const std::map<std::string, std::vector<Row>>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const auto& x, const auto& y) {
                      return x.first == y.first &&
                             SameCanonicalRows(CanonicalRows(x.second),
                                               CanonicalRows(y.second));
                    });
}

bool SameOutputs(const ExecMetrics& a, const ExecMetrics& b) {
  return SameOutputs(a.outputs, b.outputs);
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
     << ",\"morsels_evaluated\":" << m.morsels_evaluated
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

Result<ExecMetrics> Executor::Execute(const PhysicalNodePtr& plan) {
  if (cluster_.machines < 1) {
    return Status::InvalidArgument("cluster needs at least one machine, got " +
                                   std::to_string(cluster_.machines));
  }
  ExecMetrics metrics;
  spool_meta_.clear();
  run_spool_bytes_ = 0;
  spool_seq_ = 0;
  spool_budget_ = ResolveSpoolBudget(cluster_.spool_cache_bytes);
  fault_enabled_ = cluster_.fault_plan.Enabled();
  in_recovery_ = false;
  recovery_batch_overlay_.clear();
  batch_spool_cache_.clear();
  SCX_ASSIGN_OR_RETURN(BatchData ignored, EvalBatch(plan, &metrics));
  (void)ignored;
  return metrics;
}

SpoolCacheKey Executor::CrossKeyFor(const PhysicalNode& node) const {
  SpoolCacheKey key;
  key.canon = CanonicalSubDagDescription(node.children[0]);
  key.catalog_version = catalog_version_;
  key.machines = cluster_.machines;
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
    batch_spool_cache_.erase(victim->first);
    spool_meta_.erase(victim);
  }
}

void Executor::TrackSpoolRead(const PhysicalNode* node) {
  auto it = spool_meta_.find(node);
  if (it != spool_meta_.end()) ++it->second.reads;
}

}  // namespace scx
