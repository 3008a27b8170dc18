// Contract and accessor coverage for small API surfaces that the larger
// suites exercise only implicitly.
#include <gtest/gtest.h>

#include "common/table.hpp"
#include "core/mrc.hpp"
#include "core/policy.hpp"
#include "core/write_cache.hpp"

namespace nvc {
namespace {

TEST(TablePrinterContract, RowArityMismatchDies) {
  TablePrinter t({"a", "b"});
  EXPECT_DEATH(t.add_row({"only-one"}), "arity");
}

TEST(TablePrinterContract, EmptyHeaderDies) {
  EXPECT_DEATH(TablePrinter({}), "");
}

TEST(PolicyCounters, FlushRatioHandlesZeroStores) {
  core::PolicyCounters c;
  EXPECT_DOUBLE_EQ(c.flush_ratio(10), 0.0);
  c.stores = 4;
  EXPECT_DOUBLE_EQ(c.flush_ratio(1), 0.25);
}

TEST(PolicyNames, NameMatchesKind) {
  const auto p = core::make_policy(core::PolicyKind::kSoftCache);
  EXPECT_STREQ(p->name(), "SC");
  EXPECT_EQ(p->kind(), core::PolicyKind::kSoftCache);
}

TEST(MrcContract, OutOfRangeSizeDies) {
  core::Mrc mrc(std::vector<double>{0.5, 0.4});
  EXPECT_DEATH((void)mrc.at(0), "");
  EXPECT_DEATH((void)mrc.at(3), "");
  EXPECT_DOUBLE_EQ(mrc.at(2), 0.4);
}

TEST(MrcContract, ValuesSpanMatchesAt) {
  core::Mrc mrc(std::vector<double>{0.9, 0.5, 0.1});
  const auto values = mrc.values();
  ASSERT_EQ(values.size(), 3u);
  for (std::size_t c = 1; c <= 3; ++c) {
    EXPECT_DOUBLE_EQ(values[c - 1], mrc.at(c));
  }
}

TEST(WriteCacheContract, CapacityBoundsEnforced) {
  EXPECT_DEATH(core::WriteCache(0), "");
  EXPECT_DEATH(core::WriteCache(core::WriteCache::kMaxCapacity + 1), "");
}

TEST(SoftCacheContract, SizesAboveTheCacheBoundRefused) {
  // The sampler may select any size up to knee.max_size, so SC refuses a
  // bound the cache could not take before the first burst, not at it.
  core::PolicyConfig knee_too_large;
  knee_too_large.sampler.knee.max_size = core::WriteCache::kMaxCapacity + 1;
  EXPECT_DEATH(
      (void)core::make_policy(core::PolicyKind::kSoftCache, knee_too_large),
      "knee.max_size");
  core::PolicyConfig cache_too_large;
  cache_too_large.cache_size = core::WriteCache::kMaxCapacity + 1;
  EXPECT_DEATH((void)core::make_policy(core::PolicyKind::kSoftCacheOffline,
                                       cache_too_large),
               "");
  core::PolicyConfig at_bound;
  at_bound.cache_size = core::WriteCache::kMaxCapacity;
  at_bound.sampler.knee.max_size = core::WriteCache::kMaxCapacity;
  EXPECT_EQ(core::make_policy(core::PolicyKind::kSoftCache, at_bound)
                ->current_cache_size(),
            core::WriteCache::kMaxCapacity);
}

TEST(WriteCacheStats, DerivedQuantitiesConsistent) {
  core::WriteCache cache(2);
  core::CountingSink sink;
  cache.access(1, sink);
  cache.access(1, sink);
  cache.access(2, sink);
  cache.access(3, sink);  // evicts 1
  cache.flush_all(sink);  // flushes 2, 3
  const auto& s = cache.stats();
  EXPECT_EQ(s.accesses, 4u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses(), 3u);
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_EQ(s.fase_flushes, 2u);
  EXPECT_EQ(s.flushes(), 3u);
  EXPECT_EQ(s.flushes(), sink.count());
  EXPECT_DOUBLE_EQ(s.hit_ratio(), 0.25);
  cache.reset_stats();
  EXPECT_EQ(cache.stats().accesses, 0u);
  EXPECT_EQ(cache.size(), 0u);  // contents were flushed, not stats-reset
}

TEST(CountingSink, ResetsToZero) {
  core::CountingSink sink;
  sink.flush_line(1);
  sink.flush_line(2);
  EXPECT_EQ(sink.count(), 2u);
  sink.reset();
  EXPECT_EQ(sink.count(), 0u);
}

}  // namespace
}  // namespace nvc
