#include <gtest/gtest.h>

#include "trace.hpp"

namespace nvc::e2e {
namespace {

TEST(Percentile, InterpolatesBetweenClosestRanks) {
  const std::vector<double> v = {4, 1, 3, 2, 5};
  EXPECT_DOUBLE_EQ(percentile(v, 0), 1);
  EXPECT_DOUBLE_EQ(percentile(v, 50), 3);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 5);
  EXPECT_DOUBLE_EQ(percentile(v, 25), 2);
  EXPECT_DOUBLE_EQ(percentile(v, 90), 4.6);
  EXPECT_DOUBLE_EQ(percentile({1, 2}, 99), 1.99);
}

TEST(Percentile, EmptyAndSingleSample) {
  EXPECT_DOUBLE_EQ(percentile({}, 50), 0);
  EXPECT_DOUBLE_EQ(percentile({7}, 99), 7);
}

TEST(Percentile, AveragesOneBinomialSdOfRanksAcrossAGap) {
  // 30 fast and 25 slow samples: the median rank 27 sits by the gap, and
  // one sample changing cluster moves the result a little, not 10 -> 20.
  std::vector<double> v(30, 10.0);
  v.insert(v.end(), 25, 20.0);
  // sd = sqrt(0.25 * 55) = 3.71: ranks 24..30 = six 10s and one 20.
  EXPECT_DOUBLE_EQ(percentile(v, 50), 80.0 / 7);
  v[0] = 20.0;  // now 29 fast: ranks 24..30 = five 10s and two 20s
  EXPECT_DOUBLE_EQ(percentile(v, 50), 90.0 / 7);
}

TEST(WindowedPercentile, TakesAPercentileOfPerWindowPercentiles) {
  // 5000 samples = five windows of 1000; one window is a burst.
  std::vector<double> v;
  for (int w = 0; w < 5; ++w) {
    for (int i = 0; i < 1000; ++i) v.push_back(w == 2 ? 1000.0 + i : i);
  }
  EXPECT_NEAR(windowed_percentile(v, 99, 50), 989.0, 1e-9);  // mean of ranks 986..992
  EXPECT_NEAR(windowed_percentile(v, 50, 50), 499.5, 1e-9);
  EXPECT_NEAR(windowed_percentile(v, 50, 100), 1499.5, 1e-9);  // the burst
  // Below 2000 samples there is one window: the plain percentile.
  const std::vector<double> small(v.begin(), v.begin() + 1500);
  EXPECT_DOUBLE_EQ(windowed_percentile(small, 50, 10), percentile(small, 50));
}

TEST(WindowedPercentile, QuietEndIgnoresSlowWindows) {
  // 20 windows of 1000 samples; every fifth window runs twice as slow.
  std::vector<double> v;
  for (int w = 0; w < 20; ++w) {
    for (int i = 0; i < 1000; ++i) v.push_back((w % 5 == 4 ? 2.0 : 1.0) * i);
  }
  EXPECT_NEAR(windowed_percentile(v, 50, 10), 499.5, 1e-9);
  EXPECT_GT(windowed_percentile(v, 50, 90), 900.0);
}

Span span(std::uint64_t start, std::uint64_t end, std::int32_t parent,
          SpanKind kind) {
  return Span{start, end, parent, kind};
}

TEST(SelfTimes, ChildrenAreSubtractedFromTheirParent) {
  // mdb.commit [0,100) holds runtime.barrier [10,30) and runtime.commit
  // [40,90); runtime.begin [100,110) stands alone.
  const std::vector<Span> spans = {
      span(0, 100, -1, SpanKind::kMdbCommit),
      span(10, 30, 0, SpanKind::kBarrier),
      span(40, 90, 0, SpanKind::kCommit),
      span(100, 110, -1, SpanKind::kBegin),
  };
  std::array<double, kSpanKinds> weight;
  weight.fill(1.0);
  const SelfTimes t = self_times(spans, weight, 0.0);
  auto at = [](SpanKind k) { return static_cast<std::size_t>(k); };
  EXPECT_DOUBLE_EQ(t.total[at(SpanKind::kMdbCommit)], 100);
  EXPECT_DOUBLE_EQ(t.self[at(SpanKind::kMdbCommit)], 30);
  EXPECT_DOUBLE_EQ(t.self[at(SpanKind::kBarrier)], 20);
  EXPECT_DOUBLE_EQ(t.self[at(SpanKind::kCommit)], 50);
  EXPECT_DOUBLE_EQ(t.covered, 110);
}

TEST(SelfTimes, TracerCostComesOffEverySpanButNeverBelowZero) {
  const std::vector<Span> spans = {
      span(0, 100, -1, SpanKind::kMdbCommit),
      span(10, 30, 0, SpanKind::kBarrier),
      span(40, 45, 0, SpanKind::kCommit),  // shorter than the tracer's cost
  };
  std::array<double, kSpanKinds> weight;
  weight.fill(1.0);
  const SelfTimes t = self_times(spans, weight, 10.0);
  auto at = [](SpanKind k) { return static_cast<std::size_t>(k); };
  EXPECT_DOUBLE_EQ(t.total[at(SpanKind::kMdbCommit)], 90);
  EXPECT_DOUBLE_EQ(t.total[at(SpanKind::kBarrier)], 10);
  EXPECT_DOUBLE_EQ(t.total[at(SpanKind::kCommit)], 0);
  EXPECT_DOUBLE_EQ(t.self[at(SpanKind::kMdbCommit)], 80);
  EXPECT_DOUBLE_EQ(t.covered, 90);
}

TEST(SelfTimes, SampledSpansAreScaledByTheirWeight) {
  // One recorded store span standing for 64 calls inside an mdb.put.
  const std::vector<Span> spans = {
      span(0, 10000, -1, SpanKind::kMdbPut),
      span(100, 150, 0, SpanKind::kStore),
      span(20000, 20040, -1, SpanKind::kStore),
  };
  std::array<double, kSpanKinds> weight;
  weight.fill(1.0);
  weight[static_cast<std::size_t>(SpanKind::kStore)] = 64;
  const SelfTimes t = self_times(spans, weight, 0.0);
  EXPECT_DOUBLE_EQ(t.self[static_cast<std::size_t>(SpanKind::kMdbPut)],
                   10000 - 64 * 50);
  EXPECT_DOUBLE_EQ(t.total[static_cast<std::size_t>(SpanKind::kStore)],
                   64 * 90);
  EXPECT_DOUBLE_EQ(t.covered, 10000 + 64 * 40);
}

TEST(Tracer, RecordsNestingAsParents) {
  Tracer tracer;
  EXPECT_GT(tracer.overhead(), 0.0);
  EXPECT_TRUE(tracer.spans().empty());  // the cost probes are not kept
  {
    SpanScope outer(&tracer, SpanKind::kMdbCommit);
    SpanScope inner(&tracer, SpanKind::kCommit);
  }
  SpanScope after(&tracer, SpanKind::kBegin);
  ASSERT_EQ(tracer.spans().size(), 3u);
  EXPECT_EQ(tracer.spans()[0].parent, -1);
  EXPECT_EQ(tracer.spans()[1].parent, 0);
  EXPECT_EQ(tracer.spans()[2].parent, -1);
  EXPECT_LE(tracer.spans()[1].end, tracer.spans()[0].end);
  EXPECT_EQ(tracer.durations_ns(SpanKind::kCommit).size(), 1u);
}

}  // namespace
}  // namespace nvc::e2e
