// Unit and property tests for the software write-combining cache
// (paper Sections II-B and III-C: fully associative, LRU, resizable).
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "core/write_cache.hpp"

namespace nvc::core {
namespace {

/// Sink that remembers the order of flushed lines.
class RecordingSink final : public FlushSink {
 public:
  void flush_line(LineAddr line) override { flushed.push_back(line); }
  std::vector<LineAddr> flushed;
};

TEST(WriteCache, MissThenHit) {
  WriteCache cache(4);
  RecordingSink sink;
  EXPECT_FALSE(cache.access(10, sink));  // insert
  EXPECT_TRUE(cache.access(10, sink));   // combined
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_TRUE(sink.flushed.empty());
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().accesses, 2u);
}

TEST(WriteCache, EvictsLeastRecentlyUsed) {
  WriteCache cache(2);
  RecordingSink sink;
  cache.access(1, sink);
  cache.access(2, sink);
  cache.access(3, sink);  // evicts 1
  ASSERT_EQ(sink.flushed.size(), 1u);
  EXPECT_EQ(sink.flushed[0], 1u);
  EXPECT_FALSE(cache.contains(1));
  EXPECT_TRUE(cache.contains(2));
  EXPECT_TRUE(cache.contains(3));
}

TEST(WriteCache, HitRefreshesRecency) {
  WriteCache cache(2);
  RecordingSink sink;
  cache.access(1, sink);
  cache.access(2, sink);
  cache.access(1, sink);  // 1 becomes MRU
  cache.access(3, sink);  // evicts 2
  ASSERT_EQ(sink.flushed.size(), 1u);
  EXPECT_EQ(sink.flushed[0], 2u);
}

TEST(WriteCache, PaperFigure1Scenario) {
  // Figure 1: cache of two blocks holding {0x200>>6, 0x400>>6}; accessing
  // 0x600>>6 evicts 0x400>>6 (the least recently accessed).
  WriteCache cache(2);
  RecordingSink sink;
  cache.access(0x400 >> 6, sink);
  cache.access(0x200 >> 6, sink);
  cache.access(0x600 >> 6, sink);
  ASSERT_EQ(sink.flushed.size(), 1u);
  EXPECT_EQ(sink.flushed[0], static_cast<LineAddr>(0x400 >> 6));
}

TEST(WriteCache, FlushAllEmptiesLruFirst) {
  WriteCache cache(4);
  RecordingSink sink;
  for (LineAddr l = 1; l <= 4; ++l) cache.access(l, sink);
  cache.flush_all(sink);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(sink.flushed, (std::vector<LineAddr>{1, 2, 3, 4}));
  EXPECT_EQ(cache.stats().fase_flushes, 4u);
}

TEST(WriteCache, ReusableAfterFlushAll) {
  WriteCache cache(4);
  RecordingSink sink;
  for (LineAddr l = 1; l <= 4; ++l) cache.access(l, sink);
  cache.flush_all(sink);
  // Previously cached lines are gone: re-accessing misses (FASE semantics).
  EXPECT_FALSE(cache.access(1, sink));
  EXPECT_TRUE(cache.access(1, sink));
}

TEST(WriteCache, ResizeShrinkEvictsExcess) {
  WriteCache cache(8);
  RecordingSink sink;
  for (LineAddr l = 1; l <= 8; ++l) cache.access(l, sink);
  cache.resize(3, sink);
  EXPECT_EQ(cache.capacity(), 3u);
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(sink.flushed, (std::vector<LineAddr>{1, 2, 3, 4, 5}));
  EXPECT_TRUE(cache.contains(6));
  EXPECT_TRUE(cache.contains(7));
  EXPECT_TRUE(cache.contains(8));
}

TEST(WriteCache, ResizeGrowKeepsContents) {
  WriteCache cache(2);
  RecordingSink sink;
  cache.access(1, sink);
  cache.access(2, sink);
  cache.resize(50, sink);
  EXPECT_TRUE(sink.flushed.empty());
  for (LineAddr l = 3; l <= 50; ++l) cache.access(l, sink);
  EXPECT_TRUE(sink.flushed.empty());  // fits now
  EXPECT_EQ(cache.size(), 50u);
}

TEST(WriteCache, CapacityOneAlwaysEvicts) {
  WriteCache cache(1);
  RecordingSink sink;
  cache.access(1, sink);
  cache.access(2, sink);
  cache.access(1, sink);
  EXPECT_EQ(sink.flushed, (std::vector<LineAddr>{1, 2}));
}

TEST(WriteCache, LruOrderReportsTailToHead) {
  WriteCache cache(4);
  RecordingSink sink;
  cache.access(5, sink);
  cache.access(6, sink);
  cache.access(7, sink);
  cache.access(5, sink);  // 5 -> MRU
  EXPECT_EQ(cache.lru_order(), (std::vector<LineAddr>{6, 7, 5}));
}

TEST(WriteCache, EveryMissFlushesExactlyOnceEventually) {
  // Invariant behind "miss ratio == flush ratio": each inserted line leaves
  // the cache exactly once, via eviction or flush_all.
  WriteCache cache(7);
  RecordingSink sink;
  Rng rng(123);
  std::uint64_t misses = 0;
  for (int i = 0; i < 10000; ++i) {
    if (!cache.access(rng.below(50), sink)) ++misses;
  }
  cache.flush_all(sink);
  EXPECT_EQ(sink.flushed.size(), misses);
}

// --- reference-model property test ------------------------------------------------

/// Naive LRU model: deque of lines, MRU at back.
class ReferenceLru {
 public:
  explicit ReferenceLru(std::size_t cap) : cap_(cap) {}

  bool access(LineAddr line, std::vector<LineAddr>* evicted) {
    for (auto it = order_.begin(); it != order_.end(); ++it) {
      if (*it == line) {
        order_.erase(it);
        order_.push_back(line);
        return true;
      }
    }
    if (order_.size() == cap_) {
      evicted->push_back(order_.front());
      order_.pop_front();
    }
    order_.push_back(line);
    return false;
  }

  void resize(std::size_t cap, std::vector<LineAddr>* evicted) {
    while (order_.size() > cap) {
      evicted->push_back(order_.front());
      order_.pop_front();
    }
    cap_ = cap;
  }

  void flush_all(std::vector<LineAddr>* evicted) {
    for (const LineAddr l : order_) evicted->push_back(l);
    order_.clear();
  }

 private:
  std::size_t cap_;
  std::deque<LineAddr> order_;
};

struct FuzzParams {
  std::uint64_t seed;
  std::size_t capacity;
  std::size_t address_space;
};

/// The cache and the reference model side by side; every operation is
/// applied to both and the flush sequences must stay equal.
struct LockstepLru {
  explicit LockstepLru(std::size_t capacity) : cache(capacity), ref(capacity) {}

  void access(LineAddr line) {
    const bool hit = cache.access(line, sink);
    ASSERT_EQ(hit, ref.access(line, &ref_flushed)) << "line " << line;
    ASSERT_EQ(sink.flushed, ref_flushed);
  }
  void resize(std::size_t capacity) {
    cache.resize(capacity, sink);
    ref.resize(capacity, &ref_flushed);
    ASSERT_EQ(sink.flushed, ref_flushed) << "resize to " << capacity;
  }
  void flush_all() {
    cache.flush_all(sink);
    ref.flush_all(&ref_flushed);
    ASSERT_EQ(sink.flushed, ref_flushed);
  }

  WriteCache cache;
  ReferenceLru ref;
  RecordingSink sink;
  std::vector<LineAddr> ref_flushed;
};

class WriteCacheFuzz : public ::testing::TestWithParam<FuzzParams> {};

TEST_P(WriteCacheFuzz, MatchesReferenceModel) {
  const FuzzParams p = GetParam();
  LockstepLru lru(p.capacity);
  const std::size_t max_resize =
      std::min(2 * p.capacity, WriteCache::kMaxCapacity);
  Rng rng(p.seed);

  for (int step = 0; step < 20000; ++step) {
    SCOPED_TRACE(step);
    const double roll = rng.uniform();
    if (roll < 0.90) {
      ASSERT_NO_FATAL_FAILURE(lru.access(rng.below(p.address_space) + 1));
    } else if (roll < 0.95) {
      ASSERT_NO_FATAL_FAILURE(lru.resize(rng.range(1, max_resize)));
    } else {
      ASSERT_NO_FATAL_FAILURE(lru.flush_all());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, WriteCacheFuzz,
    ::testing::Values(FuzzParams{1, 1, 4}, FuzzParams{2, 2, 8},
                      FuzzParams{3, 8, 16}, FuzzParams{4, 8, 200},
                      FuzzParams{5, 23, 60}, FuzzParams{6, 50, 50},
                      FuzzParams{7, 50, 1000}, FuzzParams{8, 64, 256}));

/// Short runs of accesses between resizes that alternately grow the cache
/// (up to kMaxCapacity) and shrink it (down to 1) around its starting
/// capacity, so lines are evicted from, and later inserted into, every
/// depth. The address space is twice the capacity: the cache is mostly full
/// when it shrinks. Capacities 5 and 7 move the size across the search's
/// four-line groups in both directions.
class WriteCacheGrowShrinkFuzz : public ::testing::TestWithParam<std::size_t> {
};

TEST_P(WriteCacheGrowShrinkFuzz, MatchesReferenceModel) {
  const std::size_t capacity = GetParam();
  LockstepLru lru(capacity);
  Rng rng(capacity);

  for (int round = 0; round < 2000; ++round) {
    SCOPED_TRACE(round);
    const std::size_t run = rng.range(1, 16);
    for (std::size_t i = 0; i < run; ++i) {
      ASSERT_NO_FATAL_FAILURE(lru.access(rng.below(2 * capacity) + 1));
    }
    const std::size_t next =
        round % 2 == 0 ? rng.range(capacity, WriteCache::kMaxCapacity)
                       : rng.range(1, capacity);
    ASSERT_NO_FATAL_FAILURE(lru.resize(next));
    if (round % 50 == 49) {
      ASSERT_NO_FATAL_FAILURE(lru.flush_all());
    }
  }
  ASSERT_NO_FATAL_FAILURE(lru.flush_all());
  EXPECT_EQ(lru.cache.size(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Capacities, WriteCacheGrowShrinkFuzz,
                         ::testing::Values(1, 5, 7, 50, 64));

}  // namespace
}  // namespace nvc::core
