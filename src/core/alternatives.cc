// The optimizer's physical search (paper Algorithm 5): implementation and
// enforcer alternatives of one group under one requirement.

#include "core/optimizer.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

namespace scx {

namespace {

/// Chooses the sort order a stream aggregate will produce: the required
/// output order extended by the remaining grouping columns. Fails when the
/// required order cannot be embedded in the grouping columns.
std::optional<SortSpec> ExtendSort(const SortSpec& required,
                                   const std::vector<ColumnId>& group_cols) {
  ColumnSet gc = ColumnSet::FromVector(group_cols);
  SortSpec out;
  ColumnSet used;
  for (ColumnId c : required.cols) {
    if (!gc.Contains(c) || used.Contains(c)) return std::nullopt;
    out.cols.push_back(c);
    used.Insert(c);
  }
  for (ColumnId c : group_cols) {
    if (!used.Contains(c)) {
      out.cols.push_back(c);
      used.Insert(c);
    }
  }
  return out;
}

/// Maps a delivered property set through a projection (source → output).
DeliveredProps MapDeliveredThroughProject(
    const DeliveredProps& in,
    const std::vector<std::pair<ColumnId, ColumnId>>& project_map) {
  std::map<ColumnId, ColumnId> fwd;
  for (const auto& [src, out] : project_map) {
    fwd.emplace(src, out);  // first wins on duplicate sources
  }
  DeliveredProps out;
  switch (in.partitioning.kind) {
    case PartitioningKind::kSerial:
    case PartitioningKind::kRandom:
      out.partitioning = in.partitioning;
      break;
    case PartitioningKind::kHash: {
      ColumnSet mapped;
      bool complete = true;
      for (ColumnId c : in.partitioning.cols.ToVector()) {
        auto it = fwd.find(c);
        if (it == fwd.end()) {
          complete = false;
          break;
        }
        mapped.Insert(it->second);
      }
      out.partitioning =
          complete ? Partitioning::Hash(mapped) : Partitioning::Random();
      break;
    }
    case PartitioningKind::kRange: {
      std::vector<ColumnId> mapped;
      bool complete = true;
      for (ColumnId c : in.partitioning.range_cols) {
        auto it = fwd.find(c);
        if (it == fwd.end()) {
          complete = false;
          break;
        }
        mapped.push_back(it->second);
      }
      out.partitioning = complete ? Partitioning::Range(std::move(mapped))
                                  : Partitioning::Random();
      break;
    }
  }
  for (ColumnId c : in.sort.cols) {
    auto it = fwd.find(c);
    if (it == fwd.end()) break;
    out.sort.cols.push_back(it->second);
  }
  return out;
}

/// Maps a requirement through a projection (output → source). Every output
/// column has a source, so this always succeeds.
RequiredProps MapRequiredThroughProject(
    const RequiredProps& req,
    const std::vector<std::pair<ColumnId, ColumnId>>& project_map) {
  std::map<ColumnId, ColumnId> back;
  for (const auto& [src, out] : project_map) back.emplace(out, src);
  RequiredProps creq;
  creq.partitioning.kind = req.partitioning.kind;
  for (ColumnId c : req.partitioning.cols.ToVector()) {
    auto it = back.find(c);
    creq.partitioning.cols.Insert(it != back.end() ? it->second : c);
  }
  for (ColumnId c : req.sort.cols) {
    auto it = back.find(c);
    creq.sort.cols.push_back(it != back.end() ? it->second : c);
  }
  return creq;
}

/// Combines the parent's partitioning requirement with an operator's own
/// constraint "input must be partitioned within `own`" (grouping columns for
/// aggregates, join keys for joins). Returns nullopt when no partitioning
/// can satisfy both natively — the enforcer framework then compensates above
/// the operator. This push-down is what lets phase 2 enforce e.g. {B} at a
/// shared aggregate and have the exchange happen below the aggregation
/// (paper Fig. 8(b)) instead of reshuffling its output.
std::optional<PartitioningReq> CombinePartReq(const PartitioningReq& parent,
                                              const ColumnSet& own) {
  switch (parent.kind) {
    case PartReqKind::kNone:
      return PartitioningReq::SubsetOf(own);
    case PartReqKind::kSerial:
      return PartitioningReq::Serial();
    case PartReqKind::kHashExact:
    case PartReqKind::kRangeExact:
      if (parent.cols.IsSubsetOf(own)) return parent;
      return std::nullopt;
    case PartReqKind::kHashSubset: {
      ColumnSet inter = parent.cols.Intersect(own);
      if (inter.Empty()) return std::nullopt;
      return PartitioningReq::SubsetOf(std::move(inter));
    }
  }
  return std::nullopt;
}

}  // namespace

/// Streaming replacement for a collect-then-scan candidate vector: keeps the
/// running cheapest alternative under the mode's objective, with the exact
/// tie rule of a scan (strict `<`, first wins).
/// Under DAG costing it first compares the candidate's precomputed
/// cost_lb — own cost + the largest child cost_lb, filled in by
/// MakePhysicalNode, so the check is O(children) with no DAG walk ever
/// (an earlier version used own cost + the largest child DagCost, whose
/// memoized walks were cold for the fresh enforcer/spool intermediates
/// every round mints) — against the running best, and skips the
/// candidate's full DAG walk when the bound already rules it out
/// (DagCost(p) >= p->own_cost + DagCost(child) >= p->own_cost +
/// child->cost_lb for every child, by induction from the leaves).
/// The skip only drops candidates whose true cost is >= the running
/// best, which the strict-`<` rule would have rejected anyway, so winner
/// and cost are bit-identical to the unpruned scan — and because the
/// bound is a pure function of the candidate, the pruned count is
/// deterministic too.
class Optimizer::AltAccumulator {
 public:
  AltAccumulator(OptimizerMode mode, OptCacheCounters* c)
      : mode_(mode), counters_(c) {}

  void Consider(PhysicalNodePtr p) {
    if (p == nullptr) return;
    if (mode_ == OptimizerMode::kConventional) {
      double c = TreeCost(p);  // O(1): precomputed at node build
      if (c < best_cost_) {
        best_cost_ = c;
        best_ = std::move(p);
      }
      return;
    }
    if (best_ != nullptr && p->cost_lb >= best_cost_) {
      ++counters_->pruned_alternatives;
      return;
    }
    double c = DagCost(p);
    if (c < best_cost_) {
      best_cost_ = c;
      best_ = std::move(p);
    }
  }

  /// Cost of the best candidate; +inf when there is none.
  double best_cost() const { return best_cost_; }
  PhysicalNodePtr TakeBest() { return std::move(best_); }

 private:
  OptimizerMode mode_;
  PhysicalNodePtr best_;
  double best_cost_ = std::numeric_limits<double>::infinity();
  OptCacheCounters* counters_;
};

PhysicalNodePtr Optimizer::OptimizeSharedEnforced(GroupId g,
                                                  const RequiredProps& req) {
  PhysicalNodePtr base = SpoolBase(g, enforced_.at(g));
  if (base == nullptr) return nullptr;
  AltAccumulator acc(ctx_.mode(), &diag_.cache);
  WrapEnforcersOverBase(g, base, req, &acc);
  return acc.TakeBest();
}

void Optimizer::WrapEnforcersOverBase(GroupId g, const PhysicalNodePtr& base,
                                      const RequiredProps& req,
                                      AltAccumulator* acc) {
  const CostModel& cost_model = ctx_.cost_model();
  const GroupStats& stats = StatsOf(g);
  if (PropertySatisfied(req, base->delivered)) {
    acc->Consider(base);
    return;
  }
  bool part_ok = req.partitioning.SatisfiedBy(base->delivered.partitioning);
  if (part_ok) {
    // Only the sort is missing: sort each partition above the spool.
    DeliveredProps d{base->delivered.partitioning, req.sort};
    PhysicalNodePtr sort = MakePhysicalNode(
        PhysicalOpKind::kSort, base->proto, g, {base}, d,
        cost_model.Sort(stats, base->delivered.partitioning));
    sort->sort_spec = req.sort;
    acc->Consider(std::move(sort));
    return;
  }
  if (req.partitioning.kind == PartReqKind::kSerial) {
    DeliveredProps d{Partitioning::Serial(), base->delivered.sort};
    PhysicalNodePtr gather =
        MakePhysicalNode(PhysicalOpKind::kGather, base->proto, g, {base}, d,
                         cost_model.Gather(stats));
    if (PropertySatisfied(req, gather->delivered)) {
      acc->Consider(gather);
    } else {
      DeliveredProps ds{Partitioning::Serial(), req.sort};
      PhysicalNodePtr sort = MakePhysicalNode(
          PhysicalOpKind::kSort, base->proto, g, {gather}, ds,
          cost_model.Sort(stats, Partitioning::Serial()));
      sort->sort_spec = req.sort;
      acc->Consider(std::move(sort));
    }
    return;
  }
  if (req.partitioning.kind == PartReqKind::kRangeExact) {
    Partitioning range = Partitioning::Range(req.partitioning.range_cols);
    DeliveredProps d{range, {}};
    PhysicalNodePtr ex = MakePhysicalNode(
        PhysicalOpKind::kRangeExchange, base->proto, g, {base}, d,
        cost_model.RangeExchange(stats, base->delivered.partitioning,
                                 req.partitioning.cols));
    ex->exchange_cols = req.partitioning.cols;
    if (req.sort.Empty()) {
      acc->Consider(std::move(ex));
    } else {
      DeliveredProps ds{range, req.sort};
      PhysicalNodePtr sort =
          MakePhysicalNode(PhysicalOpKind::kSort, base->proto, g, {ex}, ds,
                           cost_model.Sort(stats, range));
      sort->sort_spec = req.sort;
      acc->Consider(std::move(sort));
    }
    return;
  }

  for (ColumnSet& cols : ctx_.EnforceCandidates(req.partitioning)) {
    // Order-preserving exchange when the spool already delivers the order.
    if (!req.sort.Empty() &&
        base->delivered.sort.SatisfiesPrefix(req.sort)) {
      DeliveredProps d{Partitioning::Hash(cols), base->delivered.sort};
      PhysicalNodePtr ex = MakePhysicalNode(
          PhysicalOpKind::kMergeExchange, base->proto, g, {base}, d,
          cost_model.MergeExchange(stats, base->delivered.partitioning,
                                   cols));
      ex->exchange_cols = cols;
      acc->Consider(std::move(ex));
      continue;
    }
    DeliveredProps d{Partitioning::Hash(cols), {}};
    PhysicalNodePtr ex = MakePhysicalNode(
        PhysicalOpKind::kHashExchange, base->proto, g, {base}, d,
        cost_model.HashExchange(stats, base->delivered.partitioning, cols));
    ex->exchange_cols = cols;
    if (req.sort.Empty()) {
      acc->Consider(std::move(ex));
    } else {
      DeliveredProps ds{Partitioning::Hash(cols), req.sort};
      PhysicalNodePtr sort = MakePhysicalNode(
          PhysicalOpKind::kSort, base->proto, g, {ex}, ds,
          cost_model.Sort(stats, Partitioning::Hash(cols)));
      sort->sort_spec = req.sort;
      acc->Consider(std::move(sort));
    }
  }
}

PhysicalNodePtr Optimizer::LogPhysOpt(GroupId g, const RequiredProps& req,
                                      double* out_cost) {
  AltAccumulator acc(ctx_.mode(), &diag_.cache);
  if (phase_ == 2) {
    // Frozen memo: iterate in place, no rule can append.
    for (const GroupExpr& expr : ctx_.memo().group(g).exprs()) {
      ImplementExpr(g, expr, req, &acc);
    }
  } else {
    ctx_.EnsureExplored(g);
    // Copy: nested OptimizeGroup calls may add expressions to other groups
    // (and rules could add to this one) while we iterate.
    std::vector<GroupExpr> exprs = ctx_.memo().group(g).exprs();
    for (const GroupExpr& expr : exprs) {
      ImplementExpr(g, expr, req, &acc);
    }
  }
  EnforceAlternatives(g, req, &acc);
  if (out_cost != nullptr) *out_cost = acc.best_cost();
  return acc.TakeBest();
}

void Optimizer::ImplementExpr(GroupId g, const GroupExpr& expr,
                              const RequiredProps& req, AltAccumulator* acc) {
  const CostModel& cost_model = ctx_.cost_model();
  const LogicalNode& op = *expr.op;
  auto push_if_valid = [&](PhysicalNodePtr node) {
    if (node != nullptr && PropertySatisfied(req, node->delivered)) {
      acc->Consider(std::move(node));
    }
  };

  switch (op.kind()) {
    case LogicalOpKind::kExtract: {
      DeliveredProps d{Partitioning::Random(), {}};
      push_if_valid(MakePhysicalNode(PhysicalOpKind::kExtract, expr.op, g, {},
                                     d, cost_model.Extract(StatsOf(g))));
      break;
    }
    case LogicalOpKind::kFilter: {
      PhysicalNodePtr cp = OptimizeGroup(expr.children[0], req);
      if (cp == nullptr) break;
      push_if_valid(MakePhysicalNode(
          PhysicalOpKind::kFilter, expr.op, g, {cp}, cp->delivered,
          cost_model.Filter(StatsOf(expr.children[0]),
                            cp->delivered.partitioning)));
      break;
    }
    case LogicalOpKind::kProject: {
      RequiredProps creq = MapRequiredThroughProject(req, op.project_map);
      PhysicalNodePtr cp = OptimizeGroup(expr.children[0], creq);
      if (cp == nullptr) break;
      DeliveredProps d =
          MapDeliveredThroughProject(cp->delivered, op.project_map);
      push_if_valid(MakePhysicalNode(
          PhysicalOpKind::kProject, expr.op, g, {cp}, d,
          cost_model.Project(StatsOf(expr.children[0]),
                             cp->delivered.partitioning)));
      break;
    }
    case LogicalOpKind::kCompute: {
      // Passthrough items keep their column ids, so requirements on them
      // push straight through; requirements touching computed outputs
      // cannot (the enforcer framework compensates above this node).
      ColumnSet pass;
      for (const ComputeItem& item : op.compute_items) {
        if (item.IsPassthrough()) pass.Insert(item.out);
      }
      RequiredProps creq;
      if (req.partitioning.kind == PartReqKind::kNone ||
          req.partitioning.kind == PartReqKind::kSerial ||
          req.partitioning.cols.IsSubsetOf(pass)) {
        creq.partitioning = req.partitioning;
      }
      for (ColumnId c : req.sort.cols) {
        if (!pass.Contains(c)) break;
        creq.sort.cols.push_back(c);
      }
      PhysicalNodePtr cp = OptimizeGroup(expr.children[0], creq);
      if (cp == nullptr) break;
      DeliveredProps d;
      const Partitioning& cpart = cp->delivered.partitioning;
      if (cpart.kind != PartitioningKind::kHash &&
          cpart.kind != PartitioningKind::kRange) {
        d.partitioning = cpart;
      } else if (cpart.cols.IsSubsetOf(pass)) {
        d.partitioning = cpart;
      } else {
        d.partitioning = Partitioning::Random();
      }
      for (ColumnId c : cp->delivered.sort.cols) {
        if (!pass.Contains(c)) break;
        d.sort.cols.push_back(c);
      }
      push_if_valid(MakePhysicalNode(
          PhysicalOpKind::kCompute, expr.op, g, {cp}, d,
          cost_model.Project(StatsOf(expr.children[0]),
                             cp->delivered.partitioning)));
      break;
    }
    case LogicalOpKind::kSpool: {
      // Un-enforced spool (phase 1, or phase 2 after budget exhaustion):
      // pass the consumer's requirement through to the producer.
      PhysicalNodePtr cp = OptimizeGroup(expr.children[0], req);
      if (cp == nullptr) break;
      PhysicalNodePtr spool = MakePhysicalNode(
          PhysicalOpKind::kSpool, expr.op, g, {cp}, cp->delivered,
          cost_model.SpoolWrite(StatsOf(expr.children[0]),
                                cp->delivered.partitioning));
      spool->extra_consumer_cost = cost_model.SpoolRead(
          StatsOf(expr.children[0]), cp->delivered.partitioning);
      push_if_valid(std::move(spool));
      break;
    }
    case LogicalOpKind::kOutput: {
      // ORDER BY output: a globally ordered file can be produced either by
      // gathering everything into one sorted partition (Gather + Sort
      // enforcers) or, in parallel, by range-partitioning on the order
      // columns and sorting each partition — partition order then follows
      // key order. Both alternatives are costed.
      std::vector<RequiredProps> creqs;
      if (op.order_by.empty()) {
        creqs.push_back(RequiredProps{});
      } else {
        creqs.push_back(RequiredProps{PartitioningReq::Serial(),
                                      SortSpec{op.order_by}});
        creqs.push_back(RequiredProps{
            PartitioningReq::RangeExactly(op.order_by),
            SortSpec{op.order_by}});
      }
      for (const RequiredProps& creq : creqs) {
        PhysicalNodePtr cp = OptimizeGroup(expr.children[0], creq);
        if (cp == nullptr) continue;
        push_if_valid(MakePhysicalNode(
            PhysicalOpKind::kOutput, expr.op, g, {cp}, cp->delivered,
            cost_model.Output(StatsOf(expr.children[0]),
                              cp->delivered.partitioning)));
      }
      break;
    }
    case LogicalOpKind::kSequence: {
      std::vector<PhysicalNodePtr> children;
      bool ok = true;
      for (GroupId c : expr.children) {
        PhysicalNodePtr cp = OptimizeGroup(c, RequiredProps{});
        if (cp == nullptr) {
          ok = false;
          break;
        }
        children.push_back(std::move(cp));
      }
      if (!ok) break;
      DeliveredProps d{Partitioning::Random(), {}};
      push_if_valid(MakePhysicalNode(PhysicalOpKind::kSequence, expr.op, g,
                                     std::move(children), d, 0));
      break;
    }
    case LogicalOpKind::kGbAgg:
    case LogicalOpKind::kGlobalGbAgg: {
      GroupId child = expr.children[0];
      std::optional<PartitioningReq> combined =
          op.group_cols.empty()
              ? std::optional<PartitioningReq>(PartitioningReq::Serial())
              : CombinePartReq(req.partitioning,
                               ColumnSet::FromVector(op.group_cols));
      if (!combined.has_value()) break;  // enforcers compensate above
      PartitioningReq part_req = *combined;
      // Stream aggregate: input sorted on a grouping-column order chosen to
      // also serve the required output order.
      std::optional<SortSpec> order = ExtendSort(req.sort, op.group_cols);
      if (order.has_value()) {
        RequiredProps creq{part_req, *order};
        PhysicalNodePtr cp = OptimizeGroup(child, creq);
        if (cp != nullptr) {
          DeliveredProps d{cp->delivered.partitioning, *order};
          PhysicalNodePtr agg = MakePhysicalNode(
              PhysicalOpKind::kStreamAgg, expr.op, g, {cp}, d,
              cost_model.StreamAgg(StatsOf(child),
                                   cp->delivered.partitioning));
          agg->sort_spec = *order;
          push_if_valid(std::move(agg));
        }
      }
      // Hash aggregate: no input order needed, no output order delivered.
      {
        RequiredProps creq{part_req, {}};
        PhysicalNodePtr cp = OptimizeGroup(child, creq);
        if (cp != nullptr) {
          DeliveredProps d{cp->delivered.partitioning, {}};
          push_if_valid(MakePhysicalNode(
              PhysicalOpKind::kHashAgg, expr.op, g, {cp}, d,
              cost_model.HashAgg(StatsOf(child),
                                 cp->delivered.partitioning)));
        }
      }
      break;
    }
    case LogicalOpKind::kLocalGbAgg: {
      // A local (partial) aggregate works on any placement and preserves it,
      // so the parent's partitioning requirement passes straight through.
      GroupId child = expr.children[0];
      std::optional<SortSpec> order = ExtendSort(req.sort, op.group_cols);
      if (order.has_value()) {
        RequiredProps creq{req.partitioning, *order};
        PhysicalNodePtr cp = OptimizeGroup(child, creq);
        if (cp != nullptr) {
          DeliveredProps d{cp->delivered.partitioning, *order};
          PhysicalNodePtr agg = MakePhysicalNode(
              PhysicalOpKind::kStreamAgg, expr.op, g, {cp}, d,
              cost_model.StreamAgg(StatsOf(child),
                                   cp->delivered.partitioning));
          agg->sort_spec = *order;
          push_if_valid(std::move(agg));
        }
      }
      {
        RequiredProps creq{req.partitioning, {}};
        PhysicalNodePtr cp = OptimizeGroup(child, creq);
        if (cp != nullptr) {
          DeliveredProps d{cp->delivered.partitioning, {}};
          push_if_valid(MakePhysicalNode(
              PhysicalOpKind::kHashAgg, expr.op, g, {cp}, d,
              cost_model.HashAgg(StatsOf(child),
                                 cp->delivered.partitioning)));
        }
      }
      break;
    }
    case LogicalOpKind::kJoin: {
      ImplementJoin(g, expr, req, acc);
      break;
    }
    case LogicalOpKind::kUnionAll: {
      std::vector<PhysicalNodePtr> children;
      bool ok = true;
      for (GroupId c : expr.children) {
        PhysicalNodePtr cp = OptimizeGroup(c, RequiredProps{});
        if (cp == nullptr) {
          ok = false;
          break;
        }
        children.push_back(std::move(cp));
      }
      if (!ok) break;
      // Concatenation gives no placement or order guarantee (the sources'
      // column identities differ, so even matching schemes are
      // inexpressible on the output ids).
      DeliveredProps d{Partitioning::Random(), {}};
      push_if_valid(MakePhysicalNode(
          PhysicalOpKind::kUnionAll, expr.op, g, std::move(children), d,
          cost_model.Project(StatsOf(g), Partitioning::Random())));
      break;
    }
  }
}

void Optimizer::ImplementJoin(GroupId g, const GroupExpr& expr,
                              const RequiredProps& req, AltAccumulator* acc) {
  const CostModel& cost_model = ctx_.cost_model();
  const LogicalNode& op = *expr.op;
  GroupId left = expr.children[0];
  GroupId right = expr.children[1];
  std::vector<ColumnId> lkeys, rkeys;
  for (const auto& [l, r] : op.join_keys) {
    lkeys.push_back(l);
    rkeys.push_back(r);
  }
  auto push_if_valid = [&](PhysicalNodePtr node) {
    if (node != nullptr && PropertySatisfied(req, node->delivered)) {
      acc->Consider(std::move(node));
    }
  };

  // Aligns the follower side's required columns with the positions the
  // driver side actually delivered.
  auto aligned_cols = [&](const ColumnSet& driver_cols,
                          const std::vector<ColumnId>& driver_keys,
                          const std::vector<ColumnId>& other_keys) {
    ColumnSet out;
    for (size_t i = 0; i < driver_keys.size(); ++i) {
      if (driver_cols.Contains(driver_keys[i])) out.Insert(other_keys[i]);
    }
    return out;
  };
  // Mirror of aligned_cols, mapping follower columns back to the left side
  // so delivered partitioning is always expressed in left-side columns.
  auto left_side_cols = [&](const ColumnSet& driver_cols, bool driver_left) {
    if (driver_left) return driver_cols;
    return aligned_cols(driver_cols, rkeys, lkeys);
  };

  // Hash join, driver side optimized first with a free subset requirement;
  // the other side is then pinned to the aligned exact scheme.
  for (bool driver_left : {true, false}) {
    GroupId driver = driver_left ? left : right;
    GroupId other = driver_left ? right : left;
    const std::vector<ColumnId>& dkeys = driver_left ? lkeys : rkeys;
    const std::vector<ColumnId>& okeys = driver_left ? rkeys : lkeys;

    // Fold the parent's partitioning requirement into the driver's when it
    // speaks of this side's key columns (delivered partitioning is always
    // expressed in left-side columns, so only fold for the left driver).
    std::optional<PartitioningReq> dpart =
        driver_left
            ? CombinePartReq(req.partitioning, ColumnSet::FromVector(dkeys))
            : std::optional<PartitioningReq>(
                  PartitioningReq::SubsetOf(ColumnSet::FromVector(dkeys)));
    if (!dpart.has_value()) continue;
    RequiredProps dreq{*dpart, {}};
    PhysicalNodePtr dp = OptimizeGroup(driver, dreq);
    if (dp == nullptr) continue;
    // A range-partitioned driver cannot anchor a co-partitioned join: the
    // other side would need the *same* range bounds, which independent
    // exchanges do not share (and hash on the other side never co-locates
    // with range). Equal-key co-location within one stream — what makes
    // range satisfy a kHashSubset aggregate requirement — is not enough
    // across two streams.
    if (dp->delivered.partitioning.kind == PartitioningKind::kRange) {
      continue;
    }
    RequiredProps oreq;
    Partitioning delivered_part;
    if (dp->delivered.partitioning.kind == PartitioningKind::kSerial) {
      oreq.partitioning = PartitioningReq::Serial();
      delivered_part = Partitioning::Serial();
    } else {
      ColumnSet o =
          aligned_cols(dp->delivered.partitioning.cols, dkeys, okeys);
      oreq.partitioning = PartitioningReq::Exactly(o);
      delivered_part = Partitioning::Hash(
          left_side_cols(dp->delivered.partitioning.cols, driver_left));
    }
    PhysicalNodePtr opn = OptimizeGroup(other, oreq);
    if (opn == nullptr) continue;
    PhysicalNodePtr lp = driver_left ? dp : opn;
    PhysicalNodePtr rp = driver_left ? opn : dp;
    DeliveredProps d{delivered_part, {}};
    push_if_valid(MakePhysicalNode(
        PhysicalOpKind::kHashJoin, expr.op, g, {lp, rp}, d,
        cost_model.HashJoin(StatsOf(left), StatsOf(right),
                            delivered_part)));
  }

  // Broadcast hash join: the (presumably small) right side is replicated to
  // every machine, so the left side needs NO particular partitioning — the
  // parent requirement passes straight through and no exchange of the big
  // side is ever needed.
  {
    // Pass the parent's requirement to the left side only where it speaks
    // of left-side columns (the probe stream flows through unchanged).
    // The replicated build side spans the whole cluster, so this variant
    // does not produce serial plans (Gather-based alternatives cover that).
    if (req.partitioning.kind != PartReqKind::kSerial) {
      ColumnSet left_schema_cols = ctx_.memo().group(left).schema().IdSet();
      RequiredProps lreq;
      if (req.partitioning.cols.IsSubsetOf(left_schema_cols)) {
        lreq.partitioning = req.partitioning;
      }
      if (SortSpec{req.sort}.AsSet().IsSubsetOf(left_schema_cols)) {
        lreq.sort = req.sort;
      }
      PhysicalNodePtr lp = OptimizeGroup(left, lreq);
      PhysicalNodePtr rp = OptimizeGroup(right, RequiredProps{});
      if (lp != nullptr && rp != nullptr &&
          lp->delivered.partitioning.kind != PartitioningKind::kSerial) {
        PhysicalNodePtr bcast = MakePhysicalNode(
            PhysicalOpKind::kBroadcastExchange, rp->proto, right, {rp},
            DeliveredProps{Partitioning::Random(), {}},
            cost_model.Broadcast(StatsOf(right)));
        // The probe stream flows through unchanged: placement and order
        // of the left side are preserved.
        DeliveredProps d = lp->delivered;
        push_if_valid(MakePhysicalNode(
            PhysicalOpKind::kHashJoin, expr.op, g, {lp, std::move(bcast)}, d,
            cost_model.HashJoin(StatsOf(left), StatsOf(right),
                                lp->delivered.partitioning)));
      }
    }
  }

  // Merge join (left-driven): both sides sorted on the aligned full key
  // order; preserves the left order downstream.
  {
    SortSpec lorder;
    std::optional<SortSpec> ext = ExtendSort(req.sort, lkeys);
    lorder = ext.has_value() ? *ext : SortSpec{lkeys};
    std::optional<PartitioningReq> lpart =
        CombinePartReq(req.partitioning, ColumnSet::FromVector(lkeys));
    if (!lpart.has_value()) return;
    RequiredProps lreq{*lpart, lorder};
    PhysicalNodePtr lp = OptimizeGroup(left, lreq);
    // Same range-driver exclusion as the hash join above.
    if (lp != nullptr &&
        lp->delivered.partitioning.kind == PartitioningKind::kRange) {
      lp = nullptr;
    }
    if (lp != nullptr) {
      // Right order aligned with the left key permutation.
      SortSpec rorder;
      for (ColumnId lc : lorder.cols) {
        for (size_t i = 0; i < lkeys.size(); ++i) {
          if (lkeys[i] == lc) {
            rorder.cols.push_back(rkeys[i]);
            break;
          }
        }
      }
      RequiredProps rreq;
      Partitioning delivered_part;
      if (lp->delivered.partitioning.kind == PartitioningKind::kSerial) {
        rreq.partitioning = PartitioningReq::Serial();
        delivered_part = Partitioning::Serial();
      } else {
        ColumnSet o =
            aligned_cols(lp->delivered.partitioning.cols, lkeys, rkeys);
        rreq.partitioning = PartitioningReq::Exactly(o);
        delivered_part = lp->delivered.partitioning;
      }
      rreq.sort = rorder;
      PhysicalNodePtr rp = OptimizeGroup(right, rreq);
      if (rp != nullptr) {
        DeliveredProps d{delivered_part, lorder};
        push_if_valid(MakePhysicalNode(
            PhysicalOpKind::kMergeJoin, expr.op, g, {lp, rp}, d,
            cost_model.MergeJoin(StatsOf(left), StatsOf(right),
                                 delivered_part)));
      }
    }
  }
}

void Optimizer::EnforceAlternatives(GroupId g, const RequiredProps& req,
                                    AltAccumulator* acc) {
  const CostModel& cost_model = ctx_.cost_model();
  const GroupStats& stats = StatsOf(g);

  // Sort enforcer: satisfy the partitioning first, then sort in place.
  if (!req.sort.Empty()) {
    RequiredProps relaxed{req.partitioning, {}};
    PhysicalNodePtr inner = OptimizeGroup(g, relaxed);
    if (inner != nullptr) {
      DeliveredProps d{inner->delivered.partitioning, req.sort};
      PhysicalNodePtr sort = MakePhysicalNode(
          PhysicalOpKind::kSort, inner->proto, g, {inner}, d,
          cost_model.Sort(stats, inner->delivered.partitioning));
      sort->sort_spec = req.sort;
      acc->Consider(std::move(sort));
    }
  }

  if (req.partitioning.kind == PartReqKind::kSerial) {
    RequiredProps relaxed{PartitioningReq::None(), req.sort};
    PhysicalNodePtr inner = OptimizeGroup(g, relaxed);
    if (inner != nullptr) {
      DeliveredProps d{Partitioning::Serial(), inner->delivered.sort};
      acc->Consider(MakePhysicalNode(PhysicalOpKind::kGather, inner->proto,
                                        g, {inner}, d,
                                        cost_model.Gather(stats)));
    }
    return;
  }

  if (req.partitioning.kind == PartReqKind::kRangeExact) {
    RequiredProps relaxed{PartitioningReq::None(), {}};
    PhysicalNodePtr inner = OptimizeGroup(g, relaxed);
    if (inner != nullptr) {
      Partitioning range = Partitioning::Range(req.partitioning.range_cols);
      DeliveredProps d{range, {}};
      PhysicalNodePtr ex = MakePhysicalNode(
          PhysicalOpKind::kRangeExchange, inner->proto, g, {inner}, d,
          cost_model.RangeExchange(stats, inner->delivered.partitioning,
                                   req.partitioning.cols));
      ex->exchange_cols = req.partitioning.cols;
      if (req.sort.Empty()) {
        acc->Consider(std::move(ex));
      } else {
        DeliveredProps ds{range, req.sort};
        PhysicalNodePtr sort =
            MakePhysicalNode(PhysicalOpKind::kSort, inner->proto, g, {ex}, ds,
                             cost_model.Sort(stats, range));
        sort->sort_spec = req.sort;
        acc->Consider(std::move(sort));
      }
    }
    return;
  }

  if (req.partitioning.kind != PartReqKind::kHashSubset &&
      req.partitioning.kind != PartReqKind::kHashExact) {
    return;
  }

  for (ColumnSet& cols : ctx_.EnforceCandidates(req.partitioning)) {
    // Plain hash repartition (destroys order) + optional sort above.
    RequiredProps relaxed{PartitioningReq::None(), {}};
    PhysicalNodePtr inner = OptimizeGroup(g, relaxed);
    if (inner != nullptr) {
      DeliveredProps d{Partitioning::Hash(cols), {}};
      PhysicalNodePtr ex = MakePhysicalNode(
          PhysicalOpKind::kHashExchange, inner->proto, g, {inner}, d,
          cost_model.HashExchange(stats, inner->delivered.partitioning,
                                  cols));
      ex->exchange_cols = cols;
      if (req.sort.Empty()) {
        acc->Consider(std::move(ex));
      } else {
        DeliveredProps ds{Partitioning::Hash(cols), req.sort};
        PhysicalNodePtr sort =
            MakePhysicalNode(PhysicalOpKind::kSort, inner->proto, g, {ex}, ds,
                             cost_model.Sort(stats, Partitioning::Hash(cols)));
        sort->sort_spec = req.sort;
        acc->Consider(std::move(sort));
      }
    }
    // Order-preserving merge repartition over a locally sorted input.
    if (!req.sort.Empty()) {
      RequiredProps sorted_relax{PartitioningReq::None(), req.sort};
      PhysicalNodePtr inner2 = OptimizeGroup(g, sorted_relax);
      if (inner2 != nullptr) {
        DeliveredProps d{Partitioning::Hash(cols), inner2->delivered.sort};
        PhysicalNodePtr ex = MakePhysicalNode(
            PhysicalOpKind::kMergeExchange, inner2->proto, g, {inner2}, d,
            cost_model.MergeExchange(stats, inner2->delivered.partitioning,
                                     cols));
        ex->exchange_cols = cols;
        acc->Consider(std::move(ex));
      }
    }
  }
}

}  // namespace scx
