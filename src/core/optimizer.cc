#include "core/optimizer.h"

#include <algorithm>
#include <limits>
#include <set>
#include <utility>
#include <vector>

#include "core/fingerprint.h"

namespace scx {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Sentinel history index used by OptimizerMode::kNaiveSharing: enforce no
/// requirement at the shared group (locally cheapest shared plan).
constexpr int kNaiveEntryIndex = -1;

/// Nonzero seed of every phase-2 enforcement signature of a group with
/// shared groups below — keeps those cache keys distinct from the phase-1
/// signature 0 even when the current assignment touches none of them
/// (phase-1 winners of such groups embed unenforced spools).
constexpr uint64_t kPhase2SigSeed = 0x9e3779b97f4a7c15ULL;

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

Optimizer::Optimizer(Memo memo, ColumnRegistryPtr columns,
                     OptimizerConfig config)
    : ctx_(std::move(memo), std::move(columns), std::move(config)) {}

Result<OptimizeResult> Optimizer::Run(OptimizerMode mode) {
  if (ran_) {
    return Status::FailedPrecondition(
        "Optimizer::Run is single-shot: the optimization context is frozen "
        "and the memo restructured; build a fresh Optimizer to re-optimize");
  }
  ran_ = true;

  auto t0 = std::chrono::steady_clock::now();
  ctx_.set_mode(mode);
  diag_.num_scripts = std::max<int>(
      1, static_cast<int>(ctx_.script_roots().size()));

  if (mode != OptimizerMode::kConventional) {
    // Merged multi-script memos duplicate whole chains; keep only the
    // maximal common subexpressions there. Single-script memos keep the
    // historical behaviour bit for bit.
    CseIdentifyOptions cse_opts;
    cse_opts.prune_single_consumer_spools = ctx_.script_roots().size() >= 2;
    CseIdentifyResult id =
        IdentifyCommonSubexpressions(&ctx_.mutable_memo(), cse_opts);
    diag_.explicit_shared = id.explicit_shared;
    diag_.merged_subexpressions = id.merged;
  }
  ctx_.EstimateMemo();
  {
    std::vector<GroupId> topo = ctx_.memo().TopologicalOrder();
    diag_.reachable_groups = static_cast<int>(topo.size());
    for (GroupId g : topo) {
      if (ctx_.memo().group(g).is_shared()) ++diag_.num_shared_groups;
    }
  }

  RequiredProps trivial;
  PhysicalNodePtr p1 = OptimizeGroup(ctx_.memo().root(), trivial);
  if (p1 == nullptr) {
    return Status::OptimizeError("phase 1 found no valid plan");
  }
  diag_.phase1_cost = ctx_.PlanCost(p1);
  PhysicalNodePtr best = p1;
  double best_cost = diag_.phase1_cost;

  if (mode != OptimizerMode::kConventional) {
    ctx_.ComputeSharedInfo();
    for (GroupId s : ctx_.shared_info()->shared_groups()) {
      diag_.lca_of[s] = ctx_.shared_info()->LcaOf(s);
      const PropertyHistory* h = ctx_.HistoryOf(s);
      diag_.history_sizes[s] = h != nullptr ? h->size() : 0;
    }
    ComputeCrossScriptSharing();
    ctx_.Freeze();  // ranks histories, explores to fixpoint
    // The winner cache is kept: subtrees with no shared group below keep
    // their phase-1 winners.
    phase_ = 2;
    phase2_start_ = std::chrono::steady_clock::now();
    PhysicalNodePtr p2 = OptimizeGroup(ctx_.memo().root(), trivial);
    diag_.phase2_seconds = SecondsSince(phase2_start_);
    if (p2 != nullptr) {
      double c2 = ctx_.PlanCost(p2);
      if (c2 < best_cost) {
        best = p2;
        best_cost = c2;
      }
    }
  }

  diag_.cache.interner_size = static_cast<long>(ctx_.props_interner().size());
  diag_.final_cost = best_cost;
  diag_.optimize_seconds = SecondsSince(t0);

  OptimizeResult result;
  result.plan = best;
  result.cost = best_cost;
  result.diagnostics = diag_;
  return result;
}

void Optimizer::ComputeCrossScriptSharing() {
  const std::vector<GroupId>& roots = ctx_.script_roots();
  if (roots.size() < 2 || ctx_.shared_info() == nullptr) return;
  // A shared group reachable from two or more script roots is a sub-DAG the
  // fingerprint merge unified across script boundaries (or a spool whose
  // consumers happen to span scripts): its one spool decision amortizes over
  // all of them. Reachability runs over every memo expression of every
  // group, matching how phase 2 can wire any alternative.
  const Memo& memo = ctx_.memo();
  std::map<GroupId, int> reached_by;
  for (GroupId root : roots) {
    std::set<GroupId> seen;
    std::vector<GroupId> stack{root};
    while (!stack.empty()) {
      GroupId g = stack.back();
      stack.pop_back();
      if (!seen.insert(g).second) continue;
      for (const GroupExpr& expr : memo.group(g).exprs()) {
        for (GroupId child : expr.children) stack.push_back(child);
      }
    }
    for (GroupId g : seen) ++reached_by[g];
  }
  for (GroupId s : ctx_.shared_info()->shared_groups()) {
    auto it = reached_by.find(s);
    if (it != reached_by.end() && it->second >= 2) {
      ++diag_.cross_script_shared_groups;
    }
  }
}

void Optimizer::InstallAssignment(const RoundAssignment& assignment) {
  for (const auto& [s, idx] : assignment) enforced_[s] = idx;
  ++enforce_epoch_;
}

void Optimizer::RemoveAssignment(const RoundAssignment& assignment) {
  for (const auto& [s, idx] : assignment) enforced_.erase(s);
  ++enforce_epoch_;
}

uint64_t Optimizer::EnforcementSig(GroupId g) {
  if (phase_ == 1 || ctx_.shared_info() == nullptr) return 0;
  const std::vector<GroupId>& below = ctx_.SharedBelowSorted(g);
  if (below.empty()) return 0;
  size_t i = static_cast<size_t>(g);
  if (sig_memo_.size() <= i) {
    size_t n = static_cast<size_t>(ctx_.memo().num_groups());
    sig_memo_.resize(n > i ? n : i + 1, {0, 0});
  }
  if (sig_memo_[i].first == enforce_epoch_) return sig_memo_[i].second;
  uint64_t sig = kPhase2SigSeed;
  for (GroupId sg : below) {
    auto it = enforced_.find(sg);
    if (it == enforced_.end()) continue;
    sig = HashCombine(
        sig, (static_cast<uint64_t>(static_cast<uint32_t>(sg)) << 32) |
                 static_cast<uint32_t>(it->second));
  }
  sig_memo_[i] = {enforce_epoch_, sig};
  return sig;
}

PhysicalNodePtr Optimizer::OptimizeGroup(GroupId g, const RequiredProps& req) {
  WinnerKey key{g, ctx_.InternProps(req), EnforcementSig(g)};
  if (auto hit = winners_.find(key); hit != winners_.end()) {
    ++diag_.cache.winner_hits;
    return hit->second.value_or(nullptr);
  }
  ++diag_.cache.winner_misses;

  bool record = phase_ == 1 && ctx_.mode() == OptimizerMode::kCse &&
                ctx_.memo().group(g).is_shared();
  if (record) ctx_.RecordHistory(g, req);

  PhysicalNodePtr plan;
  if (phase_ == 2 && enforced_.count(g) != 0) {
    plan = OptimizeSharedEnforced(g, req);
  } else if (phase_ == 2 && in_rounds_.count(g) == 0 &&
             !diag_.budget_exhausted &&
             !ctx_.shared_info()->SharedGroupsWithLca(g).empty()) {
    plan = RunRoundsAt(g, req);
  } else {
    plan = LogPhysOpt(g, req);
  }

  if (record && plan != nullptr) ctx_.CreditDelivered(g, plan->delivered);

  winners_[key] = plan;
  return plan;
}

PhysicalNodePtr Optimizer::SpoolBase(GroupId g, int entry_index) {
  GroupId child = ctx_.memo().group(g).initial_expr().children[0];
  // Nested enforcement below the spool can change the base across outer
  // rounds; include the child's enforcement signature in the key.
  SpoolKey key{g, entry_index, EnforcementSig(child)};
  if (auto hit = spool_bases_.find(key); hit != spool_bases_.end()) {
    ++diag_.cache.spool_hits;
    return hit->second;
  }
  ++diag_.cache.spool_misses;

  RequiredProps eprops;  // trivial for the naive-sharing sentinel entry
  if (entry_index != kNaiveEntryIndex) {
    const PropertyHistory* h = ctx_.HistoryOf(g);
    if (h != nullptr && entry_index < h->size()) {
      eprops = h->entry(entry_index).props;
    }
  }
  PhysicalNodePtr cp = OptimizeGroup(child, eprops);
  PhysicalNodePtr spool;
  if (cp != nullptr) {
    double write = ctx_.cost_model().SpoolWrite(StatsOf(child),
                                                cp->delivered.partitioning);
    spool = MakePhysicalNode(PhysicalOpKind::kSpool,
                             ctx_.memo().group(g).initial_expr().op, g, {cp},
                             cp->delivered, write);
    spool->extra_consumer_cost = ctx_.cost_model().SpoolRead(
        StatsOf(child), cp->delivered.partitioning);
  }
  spool_bases_[key] = spool;
  return spool;
}

// Determinism contract (docs/architecture.md §10): for a fixed script and
// config, the chosen plan, its cost, rounds_planned/rounds_executed, the
// round trace and every cache counter are reproducible run to run as long
// as the time budget does not expire, and the trace only records — it
// never changes the search. Winner selection uses strict less-than, so ties
// go to the earliest round.
PhysicalNodePtr Optimizer::RunRoundsAt(GroupId g, const RequiredProps& req) {
  in_rounds_.insert(g);
  const SharedInfo& shared = *ctx_.shared_info();
  std::vector<GroupId> here = shared.SharedGroupsWithLca(g);

  if (ctx_.mode() == OptimizerMode::kNaiveSharing) {
    // Related-work baseline: exactly one round per LCA, every shared group
    // enforced with NO requirement — i.e. the locally cheapest shared plan,
    // which all consumers must then compensate above (paper Secs. I-II).
    diag_.rounds_planned += 1;
    ++diag_.rounds_executed;
    RoundAssignment naive;
    for (GroupId s : here) naive[s] = kNaiveEntryIndex;
    InstallAssignment(naive);
    PhysicalNodePtr plan = LogPhysOpt(g, req);
    RemoveAssignment(naive);
    in_rounds_.erase(g);
    return plan;
  }

  const OptimizerConfig& config = ctx_.config();

  // Sec. VIII-B: rank shared groups by potential repartitioning savings
  // RepartSav(G) = (NoConsumers(G)-1) * RepartCost(G).
  std::map<GroupId, double> savings;
  for (GroupId s : here) {
    double consumers = static_cast<double>(shared.ConsumersOf(s).size());
    savings[s] =
        (consumers - 1.0) * ctx_.cost_model().RepartCostOf(ctx_.StatsOf(s));
  }

  std::vector<std::vector<GroupId>> classes;
  if (config.exploit_independent_groups) {
    classes = shared.IndependenceClassesAt(ctx_.memo(), g);
  } else {
    classes.push_back(here);
  }
  if (config.rank_shared_groups) {
    for (auto& cls : classes) {
      std::stable_sort(cls.begin(), cls.end(), [&](GroupId a, GroupId b) {
        return savings[a] > savings[b];
      });
    }
    std::stable_sort(classes.begin(), classes.end(),
                     [&](const std::vector<GroupId>& a,
                         const std::vector<GroupId>& b) {
                       double ma = 0, mb = 0;
                       for (GroupId s : a) ma = std::max(ma, savings[s]);
                       for (GroupId s : b) mb = std::max(mb, savings[s]);
                       return ma > mb;
                     });
  }

  std::map<GroupId, int> sizes;
  for (GroupId s : here) {
    const PropertyHistory* h = ctx_.HistoryOf(s);
    sizes[s] = h != nullptr ? h->size() : 0;
  }

  RoundEnumerator enumerator(classes, sizes);
  diag_.rounds_planned += enumerator.TotalRounds();

  PhysicalNodePtr best;
  double best_cost = kInf;
  RoundAssignment assignment;
  while (enumerator.Next(&assignment)) {
    // The budget stop is sticky: remaining LCAs fall back to phase-1-style
    // optimization (OptimizeGroup checks diag_.budget_exhausted).
    if (diag_.budget_exhausted ||
        SecondsSince(phase2_start_) > config.budget_seconds ||
        diag_.rounds_executed >= config.max_rounds) {
      diag_.budget_exhausted = true;
      break;
    }
    ++diag_.rounds_executed;
    InstallAssignment(assignment);
    double cost;
    PhysicalNodePtr plan = LogPhysOpt(g, req, &cost);
    RemoveAssignment(assignment);
    enumerator.ReportCost(cost);
    if (plan != nullptr && cost < best_cost) {
      best = plan;
      best_cost = cost;
    }
    if (config.trace_rounds) {
      RoundTraceEntry entry;
      entry.lca = g;
      entry.round_index = diag_.rounds_executed;
      entry.assignment = assignment;
      entry.cost = cost;
      entry.best_so_far = best_cost;
      diag_.round_trace.push_back(std::move(entry));
    }
  }

  in_rounds_.erase(g);
  if (best == nullptr) {
    best = LogPhysOpt(g, req);  // budget exhausted before the 1st round
  }
  return best;
}

}  // namespace scx
