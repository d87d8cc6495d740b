#ifndef SCX_EXEC_EXECUTOR_H_
#define SCX_EXEC_EXECUTOR_H_

#include <compare>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/worker_pool.h"
#include "cost/cost_model.h"
#include "exec/column_batch.h"
#include "opt/physical_plan.h"

namespace scx {

class CrossQuerySpoolCache;
struct SpoolCacheKey;

/// Counters accumulated while executing a plan on the simulated cluster.
struct ExecMetrics {
  int64_t rows_extracted = 0;
  /// Bytes read from the simulated store by Extract operators. Together
  /// with bytes_shuffled and bytes_spooled this is the run's total data
  /// movement — the quantity the batch-vs-sequential oracle bounds.
  int64_t bytes_extracted = 0;
  int64_t rows_shuffled = 0;
  int64_t bytes_shuffled = 0;   ///< exchanged over the simulated network
  int64_t bytes_spooled = 0;    ///< materialized by Spool operators
  int64_t rows_spooled = 0;     ///< rows materialized by Spool operators
  int64_t spool_executions = 0; ///< distinct spool materializations
  int64_t spool_reads = 0;      ///< total consumer reads of spools
  int64_t spool_cache_hits = 0; ///< spool_reads served from the cache
  /// spool_cache_hits served by the engine's cross-query spool cache (a
  /// sub-DAG materialized by an earlier execution). 0 unless the executor
  /// was built with a cross-query cache (Engine::SubmitBatch path).
  int64_t cross_query_spool_hits = 0;
  /// Bytes of spooled intermediates dropped to keep spool storage within
  /// the ClusterConfig::spool_cache_bytes budget (run-local evictions plus
  /// cross-query evictions triggered by this run's insertions). Evicted
  /// spools recompute on their next read, so results are unaffected.
  int64_t spool_bytes_evicted = 0;
  int64_t operator_invocations = 0;
  int64_t rows_output = 0;
  /// Executor::kBatchRows-row batches the vectorized kernels (filter,
  /// project, compute, aggregate, join build/probe, hash-exchange key
  /// hashing) processed, counted per partition from its live rows. The
  /// kernels run over whole partitions, so this is bookkeeping, not a
  /// physical chunking.
  int64_t batches_evaluated = 0;
  /// Structurally duplicate scalar subtrees eliminated by the
  /// expression-CSE pass, summed over Compute operator invocations.
  int64_t exprs_deduped = 0;
  /// Jobs run by the partition-parallel scans (fused chains that filter or
  /// compute, aggregate key hashing, join build, join probe, hash and range
  /// exchange binning): one per non-empty input partition of each scan. A
  /// function of the data alone — never of the thread count.
  int64_t morsels_evaluated = 0;

  // --- Fault-injection / recovery counters (docs/architecture.md §17). All
  // stay 0 unless ClusterConfig::fault_plan is enabled; none of the counters
  // above may ever change when a FaultPlan is armed (the fault-vs-clean
  // identity contract, scxcheck oracle 8).

  /// Partition outputs lost to injected machine failures.
  int64_t machine_failures_injected = 0;
  /// Failed partitions restored (always equals machine_failures_injected
  /// after a successful run: every failure is recovered).
  int64_t partitions_recovered = 0;
  /// Rows produced by recovery recomputation of lost sub-DAGs. 0 when every
  /// recovery was served by a surviving spool.
  int64_t rows_recomputed = 0;
  /// Recovery reads served by a surviving spool (run-local or cross-query)
  /// instead of recomputation.
  int64_t recovery_spool_hits = 0;
  /// Bytes extracted/shuffled/spooled while recomputing lost sub-DAGs —
  /// recovery's own data movement, kept separate so the legacy byte counters
  /// stay clean-run-identical. Oracle 9 bounds it by the pure-recomputation
  /// arm (FaultPlan::disable_recovery_spool_reads).
  int64_t recovery_bytes_moved = 0;
  /// Simulated makespan: per operator pass, the maximum over machines of
  /// (live rows x FaultPlan::StragglerMultiplier), summed over passes. Only
  /// accounted while a FaultPlan is enabled; a function of the plan and the
  /// data — never of the thread count.
  int64_t sim_makespan_ticks = 0;

  /// Output rows per OUTPUT path.
  std::map<std::string, std::vector<Row>> outputs;
};

/// The metrics counters as a JSON object (outputs omitted), in declaration
/// order; scx_cli --json embeds this under "execution".
std::string ExecMetricsToJson(const ExecMetrics& m);

/// The canonical order on rows: Value's ordering, except that NaN sorts
/// after every other double and all NaNs compare equal, so it is total.
std::strong_ordering CanonicalCompare(const Row& a, const Row& b);

/// Canonical (sorted by CanonicalCompare) form of an output row set, for
/// comparing the results of two plans.
std::vector<Row> CanonicalRows(const std::vector<Row>& rows);
std::vector<Row> CanonicalRows(std::vector<Row>&& rows);

/// All outputs of one run in canonical form (each path's rows sorted).
std::map<std::string, std::vector<Row>> CanonicalOutputs(const ExecMetrics& m);

/// True iff both output sets hold identical rows for identical paths, in
/// any order, under the canonical order's equality (so a NaN matches a
/// NaN). Each side is canonicalized exactly once.
bool SameOutputs(const std::map<std::string, std::vector<Row>>& a,
                 const std::map<std::string, std::vector<Row>>& b);
bool SameOutputs(const ExecMetrics& a, const ExecMetrics& b);

/// Executes physical plans on a deterministic simulated cluster: extract
/// synthesizes rows from the catalog's data specs, exchanges re-bucket rows
/// by key hash across machines (with byte accounting), and spools
/// materialize once per plan-DAG node regardless of consumer count.
///
/// The executor validates the optimizer's property reasoning at runtime:
/// aggregations and joins assume their inputs are co-located the way the
/// delivered properties claim, so a property bug surfaces as a result
/// mismatch against the reference evaluation.
///
/// The plan runs on one batch-native pipeline: operators exchange
/// BatchData (immutable shared columns + selection vectors) end to end,
/// Filter/Compute/Project chains fuse into one cross-stage expression
/// schedule (plan/expr_cse.h), spools cache column batches whose readers
/// share storage, and exchanges scatter column slices by a precomputed hash
/// column. Rows exist only at Output (docs/architecture.md §14). Its
/// correctness oracle is the single-machine reference evaluator over the
/// bound logical DAG (testing/reference_eval.h), which shares nothing
/// physical with the plan.
///
/// Per-machine partitions are the one unit of parallelism: the plan DAG is
/// walked by one master thread, and each operator is a short sequence of
/// partition-parallel passes on a WorkerPool of cluster.exec_threads
/// threads (1 = the exact serial path). Every job writes only its own
/// partition's output slot and all merges happen in fixed partition order,
/// so counters and raw output rows are bit-identical at every thread count
/// (docs/architecture.md §15).
class Executor {
 public:
  /// Passes over fewer live rows than this run inline on the calling
  /// thread: for them, waking the pool costs more than the work it would
  /// spread (measured, docs/architecture.md §15). The cutoff changes only
  /// where jobs run, never what they compute or count.
  static constexpr int64_t kSerialCutoffRows = 4096;

  /// Rows per batch in the batches_evaluated accounting.
  static constexpr size_t kBatchRows = 4096;

  explicit Executor(ClusterConfig cluster)
      : cluster_(cluster),
        threads_(cluster.exec_threads > 0 ? cluster.exec_threads
                                          : DefaultNumThreads()) {}

  /// As above, but spool reads may additionally be served by (and fresh
  /// materializations inserted into) `cross_cache`, the engine-owned
  /// cross-query spool cache. `catalog_version` becomes part of every cache
  /// key, so entries never survive a catalog change. `cross_cache` may be
  /// nullptr (identical to the single-argument constructor).
  Executor(ClusterConfig cluster, CrossQuerySpoolCache* cross_cache,
           uint64_t catalog_version)
      : Executor(cluster) {
    cross_cache_ = cross_cache;
    catalog_version_ = catalog_version;
  }

  /// Runs the plan; returns counters and the produced outputs.
  /// InvalidArgument when the cluster has no machine.
  Result<ExecMetrics> Execute(const PhysicalNodePtr& plan);

  /// Passes this executor has handed to its worker pool so far. Not an
  /// ExecMetrics counter: it depends on the thread count and the serial
  /// cutoff by design. Tests use it to show a pass really ran on the pool.
  int64_t pool_passes() const { return pool_passes_; }

 private:
  /// Evaluates `node`, then (when a FaultPlan is armed) injects this pass's
  /// machine failures and recovers each lost partition — from a surviving
  /// spool when possible, by deterministic side-effect-free recomputation
  /// otherwise. One branch when no plan is armed.
  Result<BatchData> EvalBatch(const PhysicalNodePtr& node,
                              ExecMetrics* metrics);
  Result<BatchData> EvalBatchInner(const PhysicalNodePtr& node,
                                   ExecMetrics* metrics);
  Result<BatchData> EvalExtractBatch(const PhysicalNode& node,
                                     ExecMetrics* metrics);
  /// Evaluates the maximal Filter/Compute/Project chain headed at `head`
  /// through one fused cross-stage expression schedule.
  Result<BatchData> EvalChainBatch(const PhysicalNodePtr& head,
                                   ExecMetrics* metrics);
  Result<BatchData> EvalAggregateBatch(const PhysicalNode& node, BatchData in,
                                       ExecMetrics* metrics);
  Result<BatchData> EvalJoinBatch(const PhysicalNode& node, BatchData left,
                                  BatchData right, ExecMetrics* metrics);
  BatchData ExchangeBatch(const PhysicalNode& node, BatchData in,
                          ExecMetrics* metrics, bool preserve_order);
  /// Range repartitioning: columnar quantile boundaries plus a
  /// partition-binned scatter.
  BatchData RangeExchangeBatch(const PhysicalNode& node, BatchData in,
                               ExecMetrics* metrics);

  /// Runs fn(0..n-1) — one pass over `rows` live rows in total — on the
  /// pool when exec_threads > 1, n > 1 and rows >= kSerialCutoffRows,
  /// serially otherwise. fn must write only to state owned by its index.
  void RunPartitions(size_t n, int64_t rows,
                     const std::function<void(size_t)>& fn);

  ClusterConfig cluster_;
  int threads_;
  std::unique_ptr<WorkerPool> pool_;  ///< created lazily by RunPartitions
  int64_t pool_passes_ = 0;           ///< see pool_passes()
  /// Spool materializations, keyed by plan node identity so a shared spool
  /// executes once per plan DAG: partitions are compacted once at write
  /// time, and every read hands back the same shared immutable columns (a
  /// cache hit copies shared_ptrs, never rows).
  std::unordered_map<const PhysicalNode*, BatchData> batch_spool_cache_;

  // --- Spool byte budget + cross-query cache (spool_cache.h) ---

  /// Registers a fresh run-local spool materialization of `bytes` bytes for
  /// `node`, then evicts run-local entries (lowest recompute-cost x reuse
  /// benefit first, oldest on ties) until the budget holds. Runs only on the
  /// master DAG-walk thread; eviction order depends only on the plan and the
  /// walk order, so it is bit-identical across thread counts.
  void TrackSpoolInsert(const PhysicalNode* node, int64_t bytes,
                        ExecMetrics* metrics);
  /// Bumps the run-local reuse counter of `node`'s spool entry.
  void TrackSpoolRead(const PhysicalNode* node);
  /// Cross-query cache key of the sub-DAG materialized by spool `node`.
  SpoolCacheKey CrossKeyFor(const PhysicalNode& node) const;

  /// Per-entry bookkeeping behind the run-local spool byte budget.
  struct RunSpoolMeta {
    int64_t bytes = 0;
    double recompute_cost = 0;
    int64_t reads = 0;
    int64_t seq = 0;
  };
  std::unordered_map<const PhysicalNode*, RunSpoolMeta> spool_meta_;
  int64_t run_spool_bytes_ = 0;
  int64_t spool_seq_ = 0;
  /// Effective budget (resolved from cluster_.spool_cache_bytes at Execute).
  int64_t spool_budget_ = 0;
  CrossQuerySpoolCache* cross_cache_ = nullptr;
  uint64_t catalog_version_ = 0;

  // --- Fault injection + spool-based recovery (docs/architecture.md §17) ---
  //
  // Injection runs on the master DAG-walk thread after each pass: partition m
  // of the pass with id `pass` (operator_invocations at pass entry, 1-based)
  // is dropped when cluster_.fault_plan.FailsAt(pass, m). Recovery restores
  // the partition from a surviving spool (run-local cache, or cross-query
  // cache via a pinned zero-copy peek) or recomputes the lost sub-DAG in
  // recovery mode: scratch metrics, no spool bookkeeping mutation, no cache
  // insertion, no reuse bumps — so every pre-existing counter and all output
  // rows are bit-identical to the clean run (oracle 8). Recovery work is
  // accounted only in the recovery_* counters.

  /// Injects failures for the pass that produced `out` and recovers them.
  Status InjectFaultsBatch(const PhysicalNodePtr& node, int64_t pass,
                           BatchData* out, ExecMetrics* metrics);
  /// Restores partition m of `out` after an injected failure.
  Status RecoverPartitionBatch(const PhysicalNodePtr& node, size_t m,
                               BatchData* out, ExecMetrics* metrics);
  /// Recovery-mode kSpool evaluation: read-only lookup (run-local cache ->
  /// recovery overlay -> pinned cross-query peek) or recomputation into the
  /// overlay. Never mutates run spool state.
  Result<BatchData> RecoverySpoolBatch(const PhysicalNodePtr& node,
                                       ExecMetrics* scratch);

  /// cluster_.fault_plan.Enabled(), resolved once per Execute.
  bool fault_enabled_ = false;
  /// True while recomputing a lost sub-DAG: disables nested injection and
  /// reroutes kSpool to the read-only recovery path.
  bool in_recovery_ = false;
  /// Within-recovery memo of recomputed spool sub-DAGs, so a shared spool
  /// whose materialization was evicted is recomputed once per recovery
  /// event, not once per appearance. Cleared after each recovery.
  std::unordered_map<const PhysicalNode*, BatchData> recovery_batch_overlay_;
};

}  // namespace scx

#endif  // SCX_EXEC_EXECUTOR_H_
