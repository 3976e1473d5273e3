// Tests of the benchmark's own arithmetic: the tail-percentile rule and the
// windowed percentile, ladder capacity selection with growing-backlog detection,
// self-time subtraction, and connection-tag mapping.

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "thorbench/src/spans.h"
#include "thorbench/src/stats.h"

namespace thorbench {
namespace {

TEST(PercentileTest, NearestRankReturnsASample) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  EXPECT_EQ(Percentile(v, 50.0), 50.0);
  EXPECT_EQ(Percentile(v, 99.0), 99.0);
  EXPECT_EQ(Percentile(v, 100.0), 100.0);
  EXPECT_EQ(Percentile({7.0}, 99.0), 7.0);
  EXPECT_EQ(Percentile({}, 50.0), 0.0);
}

TEST(PercentileTest, SamplesBeyondCountsStrictlyAbove) {
  EXPECT_EQ(SamplesBeyond(1000, 99.0), 10);
  EXPECT_EQ(SamplesBeyond(999, 99.0), 9);
  EXPECT_EQ(SamplesBeyond(100, 90.0), 10);
  EXPECT_EQ(SamplesBeyond(0, 50.0), 0);
}

TEST(PercentileTest, TailRuleKeepsTenBeyond) {
  // p99 needs 1000 samples; below that the rule steps down the ladder.
  EXPECT_EQ(TailPercentile(1000), 99.0);
  EXPECT_EQ(TailPercentile(999), 95.0);
  EXPECT_EQ(TailPercentile(200), 95.0);
  EXPECT_EQ(TailPercentile(199), 90.0);
  EXPECT_EQ(TailPercentile(100), 90.0);
  EXPECT_EQ(TailPercentile(99), 75.0);
  EXPECT_EQ(TailPercentile(19), 0.0);
}

TEST(PercentileTest, WindowedPercentileIsTheMedianWindow) {
  // Three windows of 100; a stall delays five requests of the middle one.
  std::vector<double> v;
  for (int w = 0; w < 3; ++w) {
    for (int i = 1; i <= 100; ++i) v.push_back(i);
  }
  for (int i = 150; i < 155; ++i) v[static_cast<size_t>(i)] = 1000.0;
  EXPECT_EQ(Percentile(v, 99.0), 1000.0);  // the plain p99 is the stall
  EXPECT_EQ(WindowedPercentile(v, 100, 99.0), 99.0);  // the median window
  EXPECT_EQ(WindowedPercentile(v, 100, 90.0), 90.0);
  // Under two windows it is the plain percentile.
  EXPECT_EQ(WindowedPercentile(v, 200, 99.0), 1000.0);
}

Rung Passing(double rate) {
  Rung r;
  r.offered_rps = rate;
  r.achieved_rps = rate;
  r.p99_ms = 1.0;
  r.samples = 5000;
  return r;
}

TEST(LadderTest, CapacityIsLastPassBeforeFirstFailure) {
  std::vector<Rung> rungs = {Passing(1000), Passing(2000), Passing(3000)};
  EXPECT_EQ(CapacityRung(rungs, 2.0), 2);
  rungs[1].p99_ms = 2.5;  // a failure in the middle ends the walk
  EXPECT_EQ(CapacityRung(rungs, 2.0), 0);
  rungs[0].failures = 1;
  EXPECT_EQ(CapacityRung(rungs, 2.0), -1);
}

TEST(LadderTest, RungFailsOnEachCriterion) {
  EXPECT_TRUE(RungPasses(Passing(1000), 2.0));
  Rung r = Passing(1000);
  r.backlog_growing = true;
  EXPECT_FALSE(RungPasses(r, 2.0));
  r = Passing(1000);
  r.valid = false;  // generator fell behind
  EXPECT_FALSE(RungPasses(r, 2.0));
  r = Passing(1000);
  r.samples = 999;  // p99 unsupported
  EXPECT_FALSE(RungPasses(r, 2.0));
  r = Passing(1000);
  r.p99_ms = 2.0;  // the limit itself passes
  EXPECT_TRUE(RungPasses(r, 2.0));
}

TEST(LadderTest, BacklogGrowthDetection) {
  std::vector<double> flat(100, 12.0);
  EXPECT_FALSE(BacklogGrowing(flat, 32.0));
  std::vector<double> ramp;
  for (int i = 0; i < 100; ++i) ramp.push_back(i * 4.0);  // +400 over a rung
  EXPECT_TRUE(BacklogGrowing(ramp, 32.0));
  // A start-up transient in the first quarter alone is not growth.
  std::vector<double> spike(100, 10.0);
  for (int i = 0; i < 25; ++i) spike[static_cast<size_t>(i)] = 500.0;
  EXPECT_FALSE(BacklogGrowing(spike, 32.0));
  EXPECT_FALSE(BacklogGrowing({1.0, 2.0, 3.0}, 0.0));  // too few samples
}

TEST(SelfTimeTest, SubtractsUnionOfChildrenClippedToParent) {
  Interval parent{0.0, 10.0};
  EXPECT_DOUBLE_EQ(SelfMs(parent, {}), 10.0);
  EXPECT_DOUBLE_EQ(SelfMs(parent, {{1.0, 3.0}, {5.0, 6.0}}), 7.0);
  // Overlapping children count once.
  EXPECT_DOUBLE_EQ(SelfMs(parent, {{1.0, 4.0}, {2.0, 5.0}}), 6.0);
  // Children sticking out of the parent are clipped.
  EXPECT_DOUBLE_EQ(SelfMs(parent, {{-5.0, 2.0}, {9.0, 20.0}}), 7.0);
  // Fully covered: zero, never negative.
  EXPECT_DOUBLE_EQ(SelfMs(parent, {{0.0, 10.0}, {0.0, 10.0}}), 0.0);
}

TEST(SelfTimeTest, SpanLogTotalsAndCoverage) {
  SpanLog log;
  const int root = log.Add("request", 1, 0.0, 10.0);
  log.Add("net.ingress", 1, 0.0, 4.0, root);
  log.Add("serve.batch", 1, 4.0, 9.0, root);
  const int root2 = log.Add("request", 2, 20.0, 30.0);
  log.Add("net.ingress", 2, 20.0, 30.0, root2);
  auto totals = log.Totals();
  EXPECT_EQ(totals["request"].count, 2);
  EXPECT_DOUBLE_EQ(totals["request"].total_ms, 20.0);
  EXPECT_DOUBLE_EQ(totals["request"].self_ms, 1.0);
  EXPECT_DOUBLE_EQ(totals["net.ingress"].self_ms, 14.0);
  EXPECT_DOUBLE_EQ(log.Coverage("request"), 19.0 / 20.0);
  EXPECT_EQ(LayerOf("net.ingress"), "net");
  EXPECT_EQ(LayerOf("request"), "request");
}

TEST(TagMapTest, MapsObservedTagsToConnections) {
  std::map<uint64_t, int> map;
  std::string error;
  // Server ids need not follow client connection order.
  ASSERT_TRUE(MapTags({{7}, {5, 5}, {9}}, &map, &error)) << error;
  EXPECT_EQ(map.at(7), 0);
  EXPECT_EQ(map.at(5), 1);
  EXPECT_EQ(map.at(9), 2);
}

TEST(TagMapTest, RejectsAmbiguousWindows) {
  std::map<uint64_t, int> map;
  std::string error;
  EXPECT_FALSE(MapTags({{1, 2}}, &map, &error));  // two tags in one window
  EXPECT_FALSE(MapTags({{}}, &map, &error));      // nothing observed
  EXPECT_FALSE(MapTags({{3}, {3}}, &map, &error));  // one tag, two clients
}

}  // namespace
}  // namespace thorbench
