#ifndef SCX_COST_COST_MODEL_H_
#define SCX_COST_COST_MODEL_H_

#include <cstdint>
#include <map>
#include <vector>

#include "common/hash.h"
#include "memo/memo.h"
#include "plan/column_registry.h"
#include "props/physical_props.h"

namespace scx {

/// One deterministic machine-failure event: partition `machine` of the
/// operator pass with id `pass` (the value of
/// ExecMetrics::operator_invocations when the pass starts, 1-based) loses its
/// output and must be recovered.
struct FaultEvent {
  int64_t pass = 0;
  int machine = 0;
};

/// Seeded adversarial-cluster description carried by ClusterConfig. All
/// decisions are pure functions of (seed, pass, machine), so a FaultPlan is
/// bit-reproducible across thread counts. The executor's recovery contract
/// (docs/architecture.md §17): for any FaultPlan the outputs and every
/// pre-existing ExecMetrics counter are bit-identical to the clean run —
/// faults only add to the fault/recovery counters.
/// Ignored by the cost model and the optimizer.
struct FaultPlan {
  /// Seed for the probabilistic failure / straggler draws. The plan is
  /// inert unless Enabled().
  uint64_t seed = 0;
  /// Per-(pass, machine) probability that the partition's output is lost.
  double failure_prob = 0;
  /// Cap on injected failures per execution (probabilistic and explicit
  /// combined); 0 = unlimited. Applied in deterministic DAG-walk order.
  int max_failures = 0;
  /// Explicit deterministic failures, checked before the probabilistic draw.
  std::vector<FaultEvent> failures;
  /// Per-machine probability of being a straggler for the whole run.
  double straggler_prob = 0;
  /// Simulated-time delay multiplier applied to straggler machines
  /// (feeds ExecMetrics::sim_makespan_ticks only; never changes results).
  double straggler_factor = 1.0;
  /// Forbid recovery from re-reading surviving spools (run-local or
  /// cross-query): every recovery recomputes the lost sub-DAG from scratch.
  /// The pure-recomputation arm of scxcheck oracle 9.
  bool disable_recovery_spool_reads = false;

  bool Enabled() const {
    return failure_prob > 0 || !failures.empty() || straggler_prob > 0 ||
           disable_recovery_spool_reads;
  }

  /// True iff partition `machine` of pass `pass` fails (before the
  /// executor's max_failures cap). Explicit events win; otherwise a
  /// deterministic Bernoulli draw on (seed, pass, machine).
  bool FailsAt(int64_t pass, int machine) const {
    for (const FaultEvent& e : failures) {
      if (e.pass == pass && e.machine == machine) return true;
    }
    if (failure_prob <= 0) return false;
    uint64_t h = Mix64(seed ^ Mix64(static_cast<uint64_t>(pass) * 0x517cc1b727220a95ULL ^
                                    (static_cast<uint64_t>(machine) + 1)));
    double u = static_cast<double>(h >> 11) * 0x1.0p-53;
    return u < failure_prob;
  }

  /// Simulated-delay multiplier of `machine` (>= 1.0; constant per run).
  double StragglerMultiplier(int machine) const {
    if (straggler_prob <= 0 || straggler_factor <= 1.0) return 1.0;
    uint64_t h = Mix64(seed ^ 0x2545f4914f6cdd1dULL ^
                       Mix64(static_cast<uint64_t>(machine) + 1));
    double u = static_cast<double>(h >> 11) * 0x1.0p-53;
    return u < straggler_prob ? straggler_factor : 1.0;
  }
};

/// Static cluster description used by the cost model and the simulator.
struct ClusterConfig {
  /// Number of (virtual) machines; the default mirrors a modest SCOPE pod.
  int machines = 100;
  /// Worker threads the executor uses to evaluate per-machine partitions.
  /// 0 = DefaultNumThreads() (SCX_NUM_THREADS or hardware concurrency);
  /// 1 = the exact serial path. Results are bit-identical for every value
  /// (see docs/architecture.md §12). Ignored by the cost model.
  int exec_threads = 0;
  /// Byte budget for spooled intermediate results — bounds both the run-local
  /// spool cache and the engine's cross-query spool cache. 0 =
  /// DefaultSpoolCacheBytes() (SCX_SPOOL_CACHE_BYTES or 256 MiB); negative =
  /// unlimited. Eviction is cost-aware and deterministic (see
  /// docs/architecture.md §16). Ignored by the cost model.
  int64_t spool_cache_bytes = 0;
  /// Adversarial-cluster simulation: seeded machine failures and stragglers
  /// with spool-based recovery. Inert (and free) unless fault_plan.Enabled().
  /// Never changes outputs or pre-existing counters — see
  /// docs/architecture.md §17. Ignored by the cost model.
  FaultPlan fault_plan;
};

/// Per-byte cost constants. Units are abstract "cost units" (the paper also
/// reports unitless estimated costs); only ratios matter. Network shuffle
/// dominates, matching shuffle-bound cloud jobs.
struct CostConstants {
  double read_per_byte = 0.5;          ///< extract from distributed storage
  double net_per_byte = 2.0;           ///< hash repartition shuffle
  double merge_exchange_extra = 0.4;   ///< extra for order-preserving merge
  double range_sample_extra = 0.15;    ///< extra for range-boundary sampling
  double gather_per_byte = 1.5;        ///< merge to a single partition
  double sort_per_byte_level = 0.03;   ///< x log2(rows per partition)
  double stream_agg_per_byte = 0.15;
  double hash_agg_per_byte = 0.40;
  double filter_per_byte = 0.05;
  double project_per_byte = 0.02;
  double hash_join_per_byte = 0.45;
  double merge_join_per_byte = 0.20;
  double spool_write_per_byte = 0.5;
  double spool_read_per_byte = 0.1;    ///< per consumer
  double output_per_byte = 0.4;
};

/// Estimated logical properties of one memo group.
struct GroupStats {
  double rows = 0;
  double row_width = 8;  ///< bytes

  double Bytes() const { return rows * row_width; }
};

/// Derives row-count/width estimates for every memo group, and
/// distinct-value counts for every column (base columns from the catalog via
/// the column registry; aggregate outputs derived from group cardinality).
class CardinalityEstimator {
 public:
  CardinalityEstimator(const ClusterConfig& cluster,
                       ColumnRegistryPtr columns)
      : cluster_(cluster), columns_(std::move(columns)) {}

  /// Computes stats for all groups reachable from the memo root. Must be
  /// re-run after Algorithm 1 restructures the memo (it is cheap).
  void EstimateMemo(const Memo& memo);

  const GroupStats& StatsOf(GroupId id) const { return stats_.at(id); }
  bool HasStats(GroupId id) const { return stats_.count(id) != 0; }

  /// Registers stats for a rule-created group (e.g. the LocalGbAgg group
  /// introduced by the aggregate-split transformation).
  void SetStats(GroupId id, GroupStats stats) { stats_[id] = stats; }

  /// Distinct-value count of one column.
  double Ndv(ColumnId id) const;

  /// Distinct-value count of a combination of columns: the product of the
  /// per-column counts (independence assumption), uncapped.
  double NdvOf(const ColumnSet& cols) const;

  /// Expected number of distinct values observed among `n` draws from a
  /// domain of `d` values: d * (1 - e^{-n/d}).
  static double DistinctSeen(double d, double n);

  /// Estimates output stats of the operator `expr` given child stats.
  GroupStats EstimateExpr(const LogicalNode& op,
                          const std::vector<GroupStats>& child_stats);

  /// Selectivity of a conjunction of predicates.
  double Selectivity(const std::vector<BoundPredicate>& preds) const;

  const ClusterConfig& cluster() const { return cluster_; }

 private:
  ClusterConfig cluster_;
  ColumnRegistryPtr columns_;
  std::map<GroupId, GroupStats> stats_;
  std::map<ColumnId, double> derived_ndv_;
};

/// Per-operator cost functions. Costs model per-stage makespan: the work of
/// an operator divided by its effective parallelism, which is capped by the
/// distinct-value count of the partitioning columns (the skew term: hash
/// partitioning on a low-NDV column set leaves machines idle).
class CostModel {
 public:
  CostModel(const CostConstants& constants, const ClusterConfig& cluster,
            const CardinalityEstimator* estimator)
      : c_(constants), cluster_(cluster), est_(estimator) {}

  /// Effective parallelism of a delivered partitioning.
  double EffectiveParallelism(const Partitioning& part) const;

  double Extract(const GroupStats& out) const;
  double Filter(const GroupStats& in, const Partitioning& in_part) const;
  double Project(const GroupStats& in, const Partitioning& in_part) const;
  double Sort(const GroupStats& in, const Partitioning& in_part) const;
  double StreamAgg(const GroupStats& in, const Partitioning& in_part) const;
  double HashAgg(const GroupStats& in, const Partitioning& in_part) const;
  double HashJoin(const GroupStats& left, const GroupStats& right,
                  const Partitioning& part) const;
  double MergeJoin(const GroupStats& left, const GroupStats& right,
                   const Partitioning& part) const;
  /// Hash repartition of `in` to hash partitioning on `to_cols`.
  double HashExchange(const GroupStats& in, const Partitioning& in_part,
                      const ColumnSet& to_cols) const;
  /// Order-preserving (merge) repartition.
  double MergeExchange(const GroupStats& in, const Partitioning& in_part,
                       const ColumnSet& to_cols) const;
  /// Range repartition (hash-exchange cost plus a boundary-sampling pass).
  double RangeExchange(const GroupStats& in, const Partitioning& in_part,
                       const ColumnSet& to_cols) const;
  /// Replicate the input to every machine (each machine receives a full
  /// copy, so the makespan is the full byte volume over the network).
  double Broadcast(const GroupStats& in) const;
  /// Merge all partitions into one (serial requirement).
  double Gather(const GroupStats& in) const;
  double SpoolWrite(const GroupStats& in, const Partitioning& in_part) const;
  double SpoolRead(const GroupStats& in, const Partitioning& in_part) const;
  double Output(const GroupStats& in, const Partitioning& in_part) const;

  /// Cost of one hash repartition of group `g`'s full output — the paper's
  /// RepartCost(G) used by the Sec. VIII-B shared-group ranking.
  double RepartCostOf(const GroupStats& g) const;

  const CostConstants& constants() const { return c_; }

 private:
  CostConstants c_;
  ClusterConfig cluster_;
  const CardinalityEstimator* est_;
};

}  // namespace scx

#endif  // SCX_COST_COST_MODEL_H_
