#ifndef SCX_OPT_PHYSICAL_PLAN_H_
#define SCX_OPT_PHYSICAL_PLAN_H_

#include <atomic>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "memo/memo.h"
#include "props/physical_props.h"

namespace scx {

/// Physical operator kinds. Aggregation kinds pair with the proto logical
/// node's kind (kGbAgg = full, kLocalGbAgg = partial, kGlobalGbAgg = merge).
enum class PhysicalOpKind {
  kExtract,
  kFilter,
  kProject,
  kCompute,
  kHashAgg,
  kStreamAgg,
  kHashJoin,
  kMergeJoin,
  kUnionAll,
  kSpool,
  kSpoolScan,  ///< per-consumer read of a materialized spool
  kOutput,
  kSequence,
  // Enforcers:
  kHashExchange,      ///< hash repartition on `exchange_cols`
  kMergeExchange,     ///< order-preserving repartition on `exchange_cols`
  kRangeExchange,     ///< range repartition on the delivered `range_cols`
  kBroadcastExchange, ///< replicate the (small) input to every machine;
                      ///< only appears as the build side of a hash join
  kGather,         ///< merge everything into a single partition
  kSort,           ///< per-partition sort on `sort_spec`
};

const char* PhysicalOpKindName(PhysicalOpKind kind);

class PhysicalNode;
using PhysicalNodePtr = std::shared_ptr<PhysicalNode>;

/// A node of a physical plan. Plans are DAGs: a shared spool winner appears
/// once and is referenced by each consumer, which is exactly what makes the
/// deduplicated (DAG) cost lower than the per-consumer (tree) cost.
class PhysicalNode {
 public:
  PhysicalOpKind kind = PhysicalOpKind::kExtract;
  /// Operator payload (logical prototype); enforcers reuse the child's.
  LogicalNodePtr proto;
  /// Memo group this plan node was produced for.
  GroupId group = kInvalidGroup;
  std::vector<PhysicalNodePtr> children;
  DeliveredProps delivered;
  /// Cost of this operator alone.
  double own_cost = 0;
  /// own_cost + sum of children's tree_cost (re-executes shared subtrees —
  /// the conventional optimizer's accounting, paper Fig. 8(a)).
  double tree_cost = 0;
  /// Precomputed lower bound on DagCost: own_cost + the largest child
  /// cost_lb. Valid by induction — DagCost(n) >= n->own_cost +
  /// DagCost(child) >= n->own_cost + child->cost_lb for every child — and
  /// a pure function of the node, so bound-based pruning decisions are
  /// deterministic. Unlike dag_cost_memo it never triggers a DAG walk,
  /// which keeps candidate screening O(children) even for fresh enforcer
  /// and spool intermediates that are considered once and discarded.
  double cost_lb = 0;

  /// Enforcer payloads.
  ColumnSet exchange_cols;  ///< kHashExchange / kMergeExchange
  SortSpec sort_spec;       ///< kSort, and the order chosen by stream aggs
  /// Marginal cost charged per additional consumer of a spool.
  double extra_consumer_cost = 0;

  /// Memoized DagCost of the sub-DAG rooted here; NaN until the first
  /// DagCost call. Sub-DAGs are immutable once built, so the value is a
  /// pure function of the node. A finished plan outlives its optimizer and
  /// may be costed from several threads at once; they may race to store
  /// the value, but every writer stores the identical double, so relaxed
  /// ordering is enough.
  std::atomic<double> dag_cost_memo{std::numeric_limits<double>::quiet_NaN()};

  /// One-line description for plan printing.
  std::string Describe() const;
};

/// Builds a physical node and fills in `tree_cost`.
PhysicalNodePtr MakePhysicalNode(PhysicalOpKind kind, LogicalNodePtr proto,
                                 GroupId group,
                                 std::vector<PhysicalNodePtr> children,
                                 DeliveredProps delivered, double own_cost);

/// Cost with shared subplans counted once per distinct node (plus the
/// marginal per-extra-consumer cost of spools). This is the objective the
/// CSE-extended optimizer reports.
double DagCost(const PhysicalNodePtr& root);

/// Cost with shared subplans re-counted per consuming path (conventional
/// accounting; equals DagCost when the plan is a tree).
double TreeCost(const PhysicalNodePtr& root);

/// Number of distinct operator nodes in the plan DAG.
int CountDagNodes(const PhysicalNodePtr& root);

/// Pretty-prints a plan; shared nodes print once and are referenced by
/// `@<id>` afterwards.
std::string PrintPhysicalPlan(const PhysicalNodePtr& root);

}  // namespace scx

#endif  // SCX_OPT_PHYSICAL_PLAN_H_
