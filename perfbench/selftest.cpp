// Unit tests of the driver's percentile, open-loop schedule, and span
// self-time code (stats.hpp). Run with `python3 perfbench/run.py --selftest`.
#include <gtest/gtest.h>

#include <cmath>

#include "stats.hpp"

namespace perfbench {
namespace {

TEST(Percentile, InterpolatesBetweenClosestRanks) {
  const std::vector<double> v = {4, 1, 3, 2};  // sorted: 1 2 3 4
  EXPECT_DOUBLE_EQ(percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 4.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50), 2.5);
  EXPECT_DOUBLE_EQ(percentile(v, 25), 1.75);
  EXPECT_DOUBLE_EQ(median({7}), 7.0);
  EXPECT_DOUBLE_EQ(median({5, 1, 9}), 5.0);
}

TEST(Percentile, ClampsAndHandlesEmpty) {
  EXPECT_TRUE(std::isnan(percentile({}, 50)));
  EXPECT_DOUBLE_EQ(percentile({1, 2}, -5), 1.0);
  EXPECT_DOUBLE_EQ(percentile({1, 2}, 150), 2.0);
}

TEST(Percentile, P99OfHundredSamples) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  EXPECT_NEAR(percentile(v, 99), 99.01, 1e-9);
}

TEST(OpenLoopSchedule, DueTimesAreExactMultiplesOfThePeriod) {
  const OpenLoopSchedule s(1000.0, 5'000'000);  // 1 ms period
  EXPECT_EQ(s.due_ns(0), 5'000'000u);
  EXPECT_EQ(s.due_ns(1), 6'000'000u);
  EXPECT_EQ(s.due_ns(1000), 1'005'000'000u);
}

TEST(OpenLoopSchedule, NonIntegralPeriodNeverDrifts) {
  const OpenLoopSchedule s(3.0, 0);  // 333'333'333.3 ns period
  EXPECT_EQ(s.due_ns(3), 1'000'000'000u);
  EXPECT_EQ(s.due_ns(300), 100'000'000'000u);
}

Span make(const char* name, std::uint32_t parent, std::uint64_t a, std::uint64_t b) {
  Span s;
  s.name = name;
  s.parent = parent;
  s.start_ns = a;
  s.end_ns = b;
  return s;
}

TEST(SelfTimes, LeafSpanIsAllSelf) {
  const auto st = self_times({make("root", Span::kNoParent, 10, 30)});
  EXPECT_EQ(st[0], 20u);
}

TEST(SelfTimes, SubtractsDisjointChildren) {
  const auto st = self_times({make("root", Span::kNoParent, 0, 100), make("a", 0, 10, 20),
                              make("b", 0, 50, 80)});
  EXPECT_EQ(st[0], 60u);
  EXPECT_EQ(st[1], 10u);
  EXPECT_EQ(st[2], 30u);
}

TEST(SelfTimes, OverlappingChildrenCountOnce) {
  // Pipelined children overlap: [10,40) and [30,60) cover 50, not 60.
  const auto st = self_times({make("root", Span::kNoParent, 0, 100), make("a", 0, 10, 40),
                              make("b", 0, 30, 60), make("c", 0, 35, 45)});
  EXPECT_EQ(st[0], 50u);
}

TEST(SelfTimes, ChildrenAreClippedToTheParent) {
  const auto st = self_times({make("root", Span::kNoParent, 100, 200), make("a", 0, 50, 120),
                              make("b", 0, 190, 400)});
  EXPECT_EQ(st[0], 70u);
}

TEST(SelfTimes, GrandchildrenDoNotReduceTheRoot) {
  const auto st = self_times({make("root", Span::kNoParent, 0, 100), make("a", 0, 0, 50),
                              make("a.x", 1, 10, 20)});
  EXPECT_EQ(st[0], 50u);
  EXPECT_EQ(st[1], 40u);
  EXPECT_EQ(st[2], 10u);
}

}  // namespace
}  // namespace perfbench
