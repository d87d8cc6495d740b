// Tests for the phase-2 round enumerator (paper Sec. VII ordering and the
// Sec. VIII-A independent-shared-group extension, including the paper's
// 8x8 = 64 → 8+7 = 15 rounds example), driven through Next/ReportCost.

#include <gtest/gtest.h>

#include <limits>

#include "core/rounds.h"

namespace scx {
namespace {

std::vector<RoundAssignment> Drain(RoundEnumerator* sched) {
  std::vector<RoundAssignment> out;
  RoundAssignment a;
  while (sched->Next(&a)) {
    out.push_back(a);
    sched->ReportCost(100.0);
  }
  return out;
}

TEST(RoundEnumeratorTest, SingleGroupEnumeratesAllEntries) {
  RoundEnumerator sched({{7}}, {{7, 3}});
  EXPECT_EQ(sched.TotalRounds(), 3);
  auto rounds = Drain(&sched);
  ASSERT_EQ(rounds.size(), 3u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(rounds[static_cast<size_t>(i)].at(7), i);
  }
}

TEST(RoundEnumeratorTest, JointClassIsCartesianFirstGroupFastest) {
  // Paper Sec. VII: for groups 3,4 with histories {p1,p2} and {q1,q2} the
  // rounds are (p1,q1),(p2,q1),(p1,q2),(p2,q2) — first group varies first.
  RoundEnumerator sched({{3, 4}}, {{3, 2}, {4, 2}});
  EXPECT_EQ(sched.TotalRounds(), 4);
  auto rounds = Drain(&sched);
  ASSERT_EQ(rounds.size(), 4u);
  EXPECT_EQ(rounds[0], (RoundAssignment{{3, 0}, {4, 0}}));
  EXPECT_EQ(rounds[1], (RoundAssignment{{3, 1}, {4, 0}}));
  EXPECT_EQ(rounds[2], (RoundAssignment{{3, 0}, {4, 1}}));
  EXPECT_EQ(rounds[3], (RoundAssignment{{3, 1}, {4, 1}}));
}

TEST(RoundEnumeratorTest, PaperSixtyFourToFifteenExample) {
  // Sec. VIII-A: two independent groups with 8 property sets each: 8 rounds
  // for the first, then 7 for the second (its all-initial combination was
  // already evaluated), 15 total instead of 64.
  RoundEnumerator sched({{5}, {6}}, {{5, 8}, {6, 8}});
  EXPECT_EQ(sched.TotalRounds(), 15);
  auto rounds = Drain(&sched);
  EXPECT_EQ(rounds.size(), 15u);
  // First 8 rounds vary group 5 with group 6 pinned at its best entry (0).
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(rounds[static_cast<size_t>(i)].at(5), i);
    EXPECT_EQ(rounds[static_cast<size_t>(i)].at(6), 0);
  }
  // Last 7 rounds vary group 6 from entry 1, group 5 pinned to its best.
  for (int i = 0; i < 7; ++i) {
    EXPECT_EQ(rounds[static_cast<size_t>(8 + i)].at(6), i + 1);
  }
}

TEST(RoundEnumeratorTest, SecondClassPinsBestOfFirst) {
  // Make entry 2 of group 5 the cheapest; the second class must run with
  // group 5 pinned at 2.
  RoundEnumerator sched({{5}, {6}}, {{5, 3}, {6, 2}});
  RoundAssignment a;
  std::vector<double> costs = {50, 20, 10};  // best is entry 2
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(sched.Next(&a));
    sched.ReportCost(costs[static_cast<size_t>(i)]);
  }
  ASSERT_TRUE(sched.Next(&a));
  EXPECT_EQ(a.at(5), 2);
  EXPECT_EQ(a.at(6), 1);
  sched.ReportCost(99);
  EXPECT_FALSE(sched.Next(&a));
}

TEST(RoundEnumeratorTest, EmptyClassesYieldNoRounds) {
  RoundEnumerator sched({}, {});
  EXPECT_EQ(sched.TotalRounds(), 0);
  RoundAssignment a;
  EXPECT_FALSE(sched.Next(&a));
}

TEST(RoundEnumeratorTest, GroupWithEmptyHistoryIsDegenerate) {
  // A shared group with no recorded properties contributes one degenerate
  // entry so joint enumeration still works.
  RoundEnumerator sched({{1, 2}}, {{1, 0}, {2, 2}});
  EXPECT_EQ(sched.TotalRounds(), 2);
  auto rounds = Drain(&sched);
  ASSERT_EQ(rounds.size(), 2u);
  EXPECT_EQ(rounds[0].at(1), 0);
  EXPECT_EQ(rounds[1].at(2), 1);
}

TEST(RoundEnumeratorTest, SingleEntryClassesCollapse) {
  // Three independent groups with one entry each: one round total (all at
  // entry 0), the rest skipped as already-evaluated.
  RoundEnumerator sched({{1}, {2}, {3}}, {{1, 1}, {2, 1}, {3, 1}});
  EXPECT_EQ(sched.TotalRounds(), 1);
  auto rounds = Drain(&sched);
  ASSERT_EQ(rounds.size(), 1u);
  EXPECT_EQ(rounds[0],
            (RoundAssignment{{1, 0}, {2, 0}, {3, 0}}));
}

TEST(RoundEnumeratorTest, ThreeClassesChainBests) {
  RoundEnumerator sched({{1}, {2}, {3}}, {{1, 2}, {2, 2}, {3, 2}});
  // 2 + 1 + 1 = 4 rounds.
  EXPECT_EQ(sched.TotalRounds(), 4);
  auto rounds = Drain(&sched);
  EXPECT_EQ(rounds.size(), 4u);
}

TEST(RoundEnumeratorTest, SerialPinsLowestCostTiesByIndex) {
  // Entries 1 and 2 of group 5 tie for the cheapest cost; the strict `<`
  // rule keeps the first, so the second class runs with entry 1 pinned.
  RoundEnumerator sched({{5}, {6}}, {{5, 3}, {6, 2}});
  RoundAssignment a;
  std::vector<double> costs = {20, 10, 10};
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(sched.Next(&a));
    sched.ReportCost(costs[static_cast<size_t>(i)]);
  }
  ASSERT_TRUE(sched.Next(&a));
  EXPECT_EQ(a.at(5), 1);
  EXPECT_EQ(a.at(6), 1);
  sched.ReportCost(5);
  EXPECT_FALSE(sched.Next(&a));
}

TEST(RoundEnumeratorTest, TotalRoundsSaturatesInsteadOfOverflowing) {
  // 2^64 joint combinations in one class: the naive product overflows a
  // signed long. TotalRounds must saturate to LONG_MAX (a count this large
  // only ever meets the round budget, which stops far earlier), and the
  // enumerator must stay usable.
  std::vector<GroupId> cls;
  std::map<GroupId, int> sizes;
  for (GroupId g = 1; g <= 64; ++g) {
    cls.push_back(g);
    sizes[g] = 2;
  }
  RoundEnumerator sched({cls}, sizes);
  EXPECT_EQ(sched.TotalRounds(), std::numeric_limits<long>::max());
  RoundAssignment a;
  ASSERT_TRUE(sched.Next(&a));
  EXPECT_EQ(a.size(), 64u);
  for (const auto& [g, idx] : a) EXPECT_EQ(idx, 0) << "group " << g;
  sched.ReportCost(1.0);
  ASSERT_TRUE(sched.Next(&a));  // first group varies fastest
  EXPECT_EQ(a.at(1), 1);
}

TEST(RoundEnumeratorTest, TotalRoundsSaturatesAcrossClassSums) {
  // Each class saturates on its own; adding them must not wrap around
  // either. Also checks a saturated count mixed with a small class.
  std::vector<std::vector<GroupId>> classes;
  std::map<GroupId, int> sizes;
  for (int c = 0; c < 2; ++c) {
    std::vector<GroupId> cls;
    for (int i = 0; i < 64; ++i) {
      GroupId g = static_cast<GroupId>(100 * c + i + 1);
      cls.push_back(g);
      sizes[g] = 2;
    }
    classes.push_back(std::move(cls));
  }
  classes.push_back({500});
  sizes[500] = 3;
  RoundEnumerator sched(classes, sizes);
  EXPECT_EQ(sched.TotalRounds(), std::numeric_limits<long>::max());
  RoundAssignment a;
  EXPECT_TRUE(sched.Next(&a));
}

}  // namespace
}  // namespace scx
