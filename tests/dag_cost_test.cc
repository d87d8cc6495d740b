// DagCost / CountDagNodes equivalence: the allocation-free walk (a reused
// per-thread scratch table) must return, bit for bit, what a plain
// recursive std::unordered_map walk returns — the same DFS post-order
// summation, so the same floating-point result. Covers multi-consumer
// spools, nested shared spools, a DAG that grows the scratch table
// mid-walk, and concurrent walks on disjoint plans (run under tsan in CI).

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <random>
#include <thread>
#include <unordered_map>
#include <vector>

#include "opt/physical_plan.h"

namespace scx {
namespace {

// The reference walk: refs counted in a fresh hash map per call, costs
// summed in DFS post-order.
void RefCollect(const PhysicalNode* node,
                std::unordered_map<const PhysicalNode*, int>* refs,
                std::vector<const PhysicalNode*>* order) {
  auto [it, inserted] = refs->emplace(node, 0);
  ++it->second;
  if (!inserted) return;
  for (const PhysicalNodePtr& c : node->children) {
    RefCollect(c.get(), refs, order);
  }
  order->push_back(node);
}

double RefDagCost(const PhysicalNodePtr& root) {
  std::unordered_map<const PhysicalNode*, int> refs;
  std::vector<const PhysicalNode*> order;
  RefCollect(root.get(), &refs, &order);
  double total = 0;
  for (const PhysicalNode* n : order) {
    total += n->own_cost;
    int extra = refs.at(n) - 1;
    if (extra > 0) total += extra * n->extra_consumer_cost;
  }
  return total;
}

int RefCountNodes(const PhysicalNodePtr& root) {
  std::unordered_map<const PhysicalNode*, int> refs;
  std::vector<const PhysicalNode*> order;
  RefCollect(root.get(), &refs, &order);
  return static_cast<int>(order.size());
}

// Costs with many significant bits, so any change in summation order
// shows up in the low bits of the total.
double OddCost(int i) { return 1.0 / 3.0 + 0.7071 * i + 1e-9 * i * i; }

PhysicalNodePtr Leaf(int i) {
  return MakePhysicalNode(PhysicalOpKind::kExtract, nullptr, i, {},
                          DeliveredProps{}, OddCost(i));
}

PhysicalNodePtr Node(PhysicalOpKind kind, int i,
                     std::vector<PhysicalNodePtr> children) {
  return MakePhysicalNode(kind, nullptr, i, std::move(children),
                          DeliveredProps{}, OddCost(i));
}

PhysicalNodePtr Spool(int i, PhysicalNodePtr child) {
  PhysicalNodePtr s = Node(PhysicalOpKind::kSpool, i, {std::move(child)});
  s->extra_consumer_cost = 0.125 + OddCost(i) / 7;
  return s;
}

void ExpectSameAsReference(const PhysicalNodePtr& root) {
  const double ref = RefDagCost(root);
  const double got = DagCost(root);
  EXPECT_EQ(std::bit_cast<uint64_t>(got), std::bit_cast<uint64_t>(ref))
      << got << " vs " << ref;
  // The memoized second call returns the identical double.
  EXPECT_EQ(std::bit_cast<uint64_t>(DagCost(root)),
            std::bit_cast<uint64_t>(ref));
  EXPECT_EQ(CountDagNodes(root), RefCountNodes(root));
}

// A random DAG of `n` nodes: node i takes 1-3 children among the previous
// `window` nodes, every 7th node is a spool, so sharing is dense.
std::vector<PhysicalNodePtr> RandomDag(int n, int window, uint32_t seed) {
  std::mt19937 rng(seed);
  std::vector<PhysicalNodePtr> nodes;
  nodes.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    if (i < 4) {
      nodes.push_back(Leaf(i));
      continue;
    }
    std::vector<PhysicalNodePtr> children;
    const int k = 1 + static_cast<int>(rng() % 3);
    const int lo = std::max(0, i - window);
    for (int c = 0; c < k; ++c) {
      children.push_back(nodes[static_cast<size_t>(
          lo + static_cast<int>(rng() % static_cast<uint32_t>(i - lo)))]);
    }
    if (i % 7 == 0) {
      nodes.push_back(Spool(i, Node(PhysicalOpKind::kHashAgg, i, children)));
    } else {
      nodes.push_back(Node(PhysicalOpKind::kHashJoin, i, children));
    }
  }
  return nodes;
}

TEST(DagCostTest, SpoolReadByThreeConsumers) {
  PhysicalNodePtr spool =
      Spool(10, Node(PhysicalOpKind::kHashAgg, 11, {Leaf(1)}));
  std::vector<PhysicalNodePtr> consumers;
  for (int i = 0; i < 4; ++i) {
    consumers.push_back(Node(PhysicalOpKind::kFilter, 20 + i, {spool}));
  }
  PhysicalNodePtr root = Node(PhysicalOpKind::kSequence, 30, consumers);
  ExpectSameAsReference(root);
  EXPECT_EQ(CountDagNodes(root), 8);
  // Shared once: strictly cheaper than re-running the spool per consumer.
  EXPECT_LT(DagCost(root), TreeCost(root));
}

TEST(DagCostTest, NestedSharedSpools) {
  PhysicalNodePtr inner =
      Spool(1, Node(PhysicalOpKind::kHashAgg, 2, {Leaf(3)}));
  PhysicalNodePtr mid_a = Node(PhysicalOpKind::kFilter, 4, {inner});
  PhysicalNodePtr mid_b = Node(PhysicalOpKind::kCompute, 5, {inner});
  PhysicalNodePtr outer = Spool(
      6, Node(PhysicalOpKind::kHashJoin, 7, {mid_a, mid_b, inner}));
  PhysicalNodePtr root = Node(
      PhysicalOpKind::kSequence, 8,
      {Node(PhysicalOpKind::kOutput, 9, {outer}),
       Node(PhysicalOpKind::kOutput, 10, {outer}),
       Node(PhysicalOpKind::kOutput, 11,
            {Node(PhysicalOpKind::kHashJoin, 12, {outer, inner})})});
  ExpectSameAsReference(root);
  // Sub-DAG roots too: each memoizes its own walk.
  ExpectSameAsReference(outer);
  ExpectSameAsReference(mid_b);
}

TEST(DagCostTest, LargeDagGrowsScratchMidWalk) {
  // A fresh thread starts with an empty scratch table, so this walk of a
  // few thousand distinct nodes must grow it several times mid-walk.
  std::vector<PhysicalNodePtr> nodes = RandomDag(3000, 64, 7);
  std::thread t([&] {
    ExpectSameAsReference(nodes.back());
    for (size_t i = 0; i < nodes.size(); i += 97) {
      ExpectSameAsReference(nodes[i]);
    }
  });
  t.join();
  EXPECT_GT(CountDagNodes(nodes.back()), 1000);
}

TEST(DagCostTest, ConcurrentWalksOnDisjointPlans) {
  // Each thread walks its own plan with its own scratch table; the results
  // must match the reference computed afterwards on the main thread.
  constexpr int kThreads = 2;
  std::vector<std::vector<PhysicalNodePtr>> plans;
  for (int t = 0; t < kThreads; ++t) {
    plans.push_back(RandomDag(600, 40, 100 + static_cast<uint32_t>(t)));
  }
  std::vector<std::vector<double>> got(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (const PhysicalNodePtr& n : plans[static_cast<size_t>(t)]) {
        got[static_cast<size_t>(t)].push_back(DagCost(n));
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    const auto& plan = plans[static_cast<size_t>(t)];
    for (size_t i = 0; i < plan.size(); ++i) {
      EXPECT_EQ(std::bit_cast<uint64_t>(got[static_cast<size_t>(t)][i]),
                std::bit_cast<uint64_t>(RefDagCost(plan[i])))
          << "thread " << t << " node " << i;
    }
  }
}

}  // namespace
}  // namespace scx
