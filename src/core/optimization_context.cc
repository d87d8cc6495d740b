#include "core/optimization_context.h"

namespace scx {

OptimizationContext::OptimizationContext(Memo memo, ColumnRegistryPtr columns,
                                         OptimizerConfig config)
    : memo_(std::move(memo)),
      columns_(std::move(columns)),
      config_(std::move(config)),
      estimator_(config_.cluster, columns_),
      cost_model_(config_.costs, config_.cluster, &estimator_) {}

const PropertyHistory* OptimizationContext::HistoryOf(GroupId g) const {
  auto it = history_.find(g);
  return it == history_.end() ? nullptr : &it->second;
}

void OptimizationContext::RecordHistory(GroupId g, const RequiredProps& req) {
  PropertyHistory& h = history_[g];
  if (req.partitioning.kind == PartReqKind::kHashSubset) {
    // Sec. V: store one exact entry per partitioning scheme satisfying the
    // range requirement, i.e. per non-empty subset (capped for wide sets).
    std::vector<ColumnSet> candidates = EnforceCandidates(req.partitioning);
    for (ColumnSet& s : candidates) {
      RequiredProps entry;
      entry.partitioning = PartitioningReq::Exactly(std::move(s));
      entry.sort = req.sort;
      h.Add(entry, props_interner_);
    }
  } else {
    h.Add(req, props_interner_);
  }
}

void OptimizationContext::CreditDelivered(GroupId g,
                                          const DeliveredProps& delivered) {
  history_[g].CreditDelivered(delivered);
}

void OptimizationContext::ComputeSharedInfo() {
  shared_ = SharedInfo::Compute(memo_);
}

std::vector<ColumnSet> OptimizationContext::EnforceCandidates(
    const PartitioningReq& req) const {
  std::vector<ColumnSet> out;
  switch (req.kind) {
    case PartReqKind::kHashExact:
      out.push_back(req.cols);
      break;
    case PartReqKind::kHashSubset: {
      if (req.cols.Size() <= config_.max_expand_cols) {
        out = req.cols.NonEmptySubsets();
      } else {
        for (ColumnId c : req.cols.ToVector()) {
          out.push_back(ColumnSet::Of({c}));
        }
        out.push_back(req.cols);
      }
      break;
    }
    case PartReqKind::kRangeExact:  // handled by the range-exchange path
    case PartReqKind::kNone:
    case PartReqKind::kSerial:
      break;
  }
  return out;
}

double OptimizationContext::PlanCost(const PhysicalNodePtr& plan) const {
  return mode_ == OptimizerMode::kConventional ? TreeCost(plan)
                                               : DagCost(plan);
}

void OptimizationContext::EnsureExplored(GroupId g) {
  if (!explored_.insert(g).second) return;
  std::vector<GroupExpr> snapshot = memo_.group(g).exprs();

  // Join commutativity: Join(L,R) ≡ Project(Join(R,L)) — the commuted join
  // lives in a fresh (rule-generated) group delivering right++left columns;
  // an id-preserving Project restores this group's schema order. Not
  // applied to rule-generated groups (would ping-pong forever).
  if (config_.enable_join_commute && !memo_.group(g).rule_generated()) {
    for (const GroupExpr& expr : snapshot) {
      if (expr.op->kind() != LogicalOpKind::kJoin) continue;
      const LogicalNode& join = *expr.op;
      Schema swapped;
      int left_width =
          memo_.group(expr.children[0]).schema().NumColumns();
      for (int i = left_width; i < join.schema().NumColumns(); ++i) {
        swapped.AddColumn(join.schema().column(i));
      }
      for (int i = 0; i < left_width; ++i) {
        swapped.AddColumn(join.schema().column(i));
      }
      auto commuted = std::make_shared<LogicalNode>(
          LogicalOpKind::kJoin, std::move(swapped),
          std::vector<LogicalNodePtr>{});
      for (const auto& [l, r] : join.join_keys) {
        commuted->join_keys.emplace_back(r, l);
      }
      commuted->predicates = join.predicates;
      GroupExpr cexpr;
      cexpr.op = std::move(commuted);
      cexpr.children = {expr.children[1], expr.children[0]};
      GroupId cgroup = memo_.NewGroup(std::move(cexpr));
      memo_.group(cgroup).set_rule_generated(true);
      estimator_.SetStats(cgroup, StatsOf(g));

      auto restore = std::make_shared<LogicalNode>(
          LogicalOpKind::kProject, join.schema(),
          std::vector<LogicalNodePtr>{});
      for (const ColumnInfo& c : join.schema().columns()) {
        restore->project_map.emplace_back(c.id, c.id);
      }
      GroupExpr pexpr;
      pexpr.op = std::move(restore);
      pexpr.children = {cgroup};
      memo_.group(g).AddExpr(std::move(pexpr));
    }
  }

  if (!config_.enable_agg_split) return;
  for (const GroupExpr& expr : snapshot) {
    if (expr.op->kind() != LogicalOpKind::kGbAgg) continue;
    if (expr.op->group_cols.empty()) continue;  // grand totals stay serial
    const LogicalNode& agg = *expr.op;
    GroupId child = expr.children[0];

    // Build LocalGbAgg: same grouping, partial aggregate outputs.
    Schema local_schema;
    for (ColumnId c : agg.group_cols) {
      int pos = agg.schema().PositionOf(c);
      local_schema.AddColumn(agg.schema().column(pos));
    }
    std::vector<AggregateDesc> local_aggs;
    std::vector<AggregateDesc> global_aggs;
    for (const AggregateDesc& a : agg.aggregates) {
      AggregateDesc local = a;
      ColumnMeta meta;
      meta.name = "partial_" + a.out_name;
      meta.type = a.fn == AggFn::kCount ? DataType::kInt64 : a.out_type;
      if (a.fn == AggFn::kAvg) meta.type = DataType::kDouble;
      local.out = columns_->Create(meta);
      local.out_name = meta.name;
      local.out_type = meta.type;
      local.hidden_count = 0;
      if (a.fn == AggFn::kAvg) {
        ColumnMeta cnt;
        cnt.name = "partialcnt_" + a.out_name;
        cnt.type = DataType::kInt64;
        local.hidden_count = columns_->Create(cnt);
      }
      local_schema.AddColumn(ColumnInfo{local.out, local.out_name, "",
                                        local.out_type});
      if (local.hidden_count != 0) {
        local_schema.AddColumn(ColumnInfo{local.hidden_count,
                                          "partialcnt_" + a.out_name, "",
                                          DataType::kInt64});
      }

      // Global side merges partials: Sum for Sum/Count partials, Min/Max
      // pass through, Avg divides summed partial sums by summed counts
      // (the partial-count column travels in hidden_count).
      AggregateDesc global = a;
      global.arg = local.out;
      global.count_star = false;
      switch (a.fn) {
        case AggFn::kSum:
        case AggFn::kCount:
          global.fn = AggFn::kSum;
          break;
        case AggFn::kMin:
        case AggFn::kMax:
          break;
        case AggFn::kAvg:
          global.hidden_count = local.hidden_count;
          break;
      }
      local_aggs.push_back(std::move(local));
      global_aggs.push_back(std::move(global));
    }

    auto local_proto = std::make_shared<LogicalNode>(
        LogicalOpKind::kLocalGbAgg, std::move(local_schema),
        std::vector<LogicalNodePtr>{});
    local_proto->group_cols = agg.group_cols;
    local_proto->aggregates = std::move(local_aggs);

    GroupExpr local_expr;
    local_expr.op = local_proto;
    local_expr.children = expr.children;
    GroupId local_group = memo_.NewGroup(std::move(local_expr));
    memo_.group(local_group).set_rule_generated(true);
    estimator_.SetStats(
        local_group,
        estimator_.EstimateExpr(*local_proto, {StatsOf(child)}));

    auto global_proto = std::make_shared<LogicalNode>(
        LogicalOpKind::kGlobalGbAgg, agg.schema(),
        std::vector<LogicalNodePtr>{});
    global_proto->group_cols = agg.group_cols;
    global_proto->aggregates = std::move(global_aggs);
    global_proto->result_name = agg.result_name;
    GroupExpr global_expr;
    global_expr.op = std::move(global_proto);
    global_expr.children = {local_group};
    memo_.group(g).AddExpr(std::move(global_expr));
  }
}

void OptimizationContext::Freeze() {
  // Sec. VIII-C: rank history entries by phase-1 win counts.
  if (shared_.has_value() && config_.rank_properties) {
    for (GroupId s : shared_->shared_groups()) history_[s].RankByWins();
  }

  // Explore every reachable group to fixpoint so phase 2 only ever reads
  // the memo. Rules may append groups mid-pass; repeat until stable.
  size_t reachable = 0;
  for (;;) {
    std::vector<GroupId> topo = memo_.TopologicalOrder();
    if (topo.size() == reachable) break;
    reachable = topo.size();
    for (GroupId g : topo) EnsureExplored(g);
  }

  // Materialize shared-below as dense sorted vectors so the enforcement
  // signature can walk them without a map lookup per probe. Recomputed
  // bottom-up over the post-fixpoint memo rather than copied from
  // SharedInfo: the shared-info pass ran before exploration, so groups
  // appended by rules (e.g. a commuted join) have no entry there — yet they
  // can sit above shared groups, and an empty set would make their cache
  // signature claim independence from the round's enforcement assignment.
  if (shared_.has_value()) {
    shared_below_sorted_.assign(static_cast<size_t>(memo_.num_groups()), {});
    for (GroupId g : memo_.TopologicalOrder()) {
      std::set<GroupId> below;
      if (memo_.group(g).is_shared()) below.insert(g);
      for (const GroupExpr& e : memo_.group(g).exprs()) {
        for (GroupId c : e.children) {
          const std::vector<GroupId>& cb =
              shared_below_sorted_[static_cast<size_t>(c)];
          below.insert(cb.begin(), cb.end());
        }
      }
      shared_below_sorted_[static_cast<size_t>(g)].assign(below.begin(),
                                                          below.end());
    }
  }
}

}  // namespace scx
