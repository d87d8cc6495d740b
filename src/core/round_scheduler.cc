#include "core/round_scheduler.h"

#include <algorithm>
#include <limits>
#include <map>
#include <utility>

namespace scx {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace

RoundScheduler::RoundScheduler(const OptimizationContext* ctx,
                               OptimizeDiagnostics* diag)
    : ctx_(ctx),
      diag_(diag),
      phase2_start_(std::chrono::steady_clock::now()) {}

void RoundScheduler::StartPhase2() {
  phase2_start_ = std::chrono::steady_clock::now();
}

bool RoundScheduler::BudgetExceeded() const {
  if (budget_exhausted_) return true;
  double elapsed = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - phase2_start_)
                       .count();
  return elapsed > ctx_->config().budget_seconds;
}

PhysicalNodePtr RoundScheduler::RunRoundsAt(RoundTask* task, GroupId g,
                                            const RequiredProps& req) {
  task->in_rounds_.insert(g);
  const SharedInfo& shared = *ctx_->shared_info();
  std::vector<GroupId> here = shared.SharedGroupsWithLca(g);

  if (ctx_->mode() == OptimizerMode::kNaiveSharing) {
    // Related-work baseline: exactly one round per LCA, every shared group
    // enforced with NO requirement — i.e. the locally cheapest shared plan,
    // which all consumers must then compensate above (paper Secs. I-II).
    diag_->rounds_planned += 1;
    ++diag_->rounds_executed;
    RoundAssignment naive;
    for (GroupId s : here) naive[s] = kNaiveEntryIndex;
    task->InstallAssignment(naive);
    PhysicalNodePtr plan = task->LogPhysOpt(g, req);
    task->RemoveAssignment(naive);
    task->in_rounds_.erase(g);
    return plan;
  }

  const OptimizerConfig& config = ctx_->config();

  // Sec. VIII-B: rank shared groups by potential repartitioning savings
  // RepartSav(G) = (NoConsumers(G)-1) * RepartCost(G).
  std::map<GroupId, double> savings;
  for (GroupId s : here) {
    double consumers = static_cast<double>(shared.ConsumersOf(s).size());
    savings[s] =
        (consumers - 1.0) * ctx_->cost_model().RepartCostOf(ctx_->StatsOf(s));
  }

  std::vector<std::vector<GroupId>> classes;
  if (config.exploit_independent_groups) {
    classes = shared.IndependenceClassesAt(ctx_->memo(), g);
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
    const PropertyHistory* h = ctx_->HistoryOf(s);
    sizes[s] = h != nullptr ? h->size() : 0;
  }

  RoundEnumerator enumerator(classes, sizes);
  diag_->rounds_planned += enumerator.TotalRounds();

  PhysicalNodePtr best;
  double best_cost = kInf;

  // Class-local branch-and-bound across rounds. Active only while the round
  // trace is off — a pruned round has no exact cost to record, and the
  // determinism contract promises the traced cost stream bit-identical to
  // the unpruned path. Pruning never changes the winner or the class pin: a
  // finite bound was achieved by an EARLIER round of the same class, and a
  // pruned round's true cost is >= that bound, so it loses both strict-`<`
  // comparisons either way.
  bool round_bound = !config.trace_rounds &&
                     ctx_->mode() == OptimizerMode::kCse;

  RoundAssignment assignment;
  while (enumerator.Next(&assignment)) {
    if (BudgetExceeded() || diag_->rounds_executed >= config.max_rounds) {
      budget_exhausted_ = true;
      diag_->budget_exhausted = true;
      break;
    }
    ++diag_->rounds_executed;
    double bound = round_bound ? enumerator.BestCostInClass() : kInf;
    task->InstallAssignment(assignment);
    // The round root is never cached (only OptimizeGroup writes winners),
    // so seeding its alternative comparison with the class bound cannot
    // poison any cache entry.
    double cost;
    PhysicalNodePtr plan = task->LogPhysOpt(g, req, &cost, bound);
    task->RemoveAssignment(assignment);
    if (plan == nullptr && bound < kInf) ++task->counters_.pruned_rounds;
    enumerator.ReportCost(cost);
    if (plan != nullptr && cost < best_cost) {
      best = plan;
      best_cost = cost;
    }
    if (config.trace_rounds) {
      RoundTraceEntry entry;
      entry.lca = g;
      entry.round_index = diag_->rounds_executed;
      entry.assignment = assignment;
      entry.cost = cost;
      entry.best_so_far = best_cost;
      diag_->round_trace.push_back(std::move(entry));
    }
  }

  task->in_rounds_.erase(g);
  if (best == nullptr) {
    best = task->LogPhysOpt(g, req);  // budget exhausted before the 1st round
  }
  return best;
}

}  // namespace scx
