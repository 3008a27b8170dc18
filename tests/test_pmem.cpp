// Unit tests for the persistent-memory substrate: flush backends, mmap
// regions, the persistent allocator, and the shadow crash model.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <string>
#include <unistd.h>
#include <vector>

#include "common/cpu.hpp"
#include "common/types.hpp"
#include "pmem/flush.hpp"
#include "pmem/pmem_alloc.hpp"
#include "pmem/pmem_region.hpp"
#include "pmem/shadow.hpp"

namespace nvc::pmem {
namespace {

std::string unique_name(const char* base) {
  static int counter = 0;
  return std::string(base) + "." + std::to_string(::getpid()) + "." +
         std::to_string(counter++);
}

// --- FlushBackend ---------------------------------------------------------------

TEST(FlushBackend, CountsFlushesAndFences) {
  FlushBackend b(FlushKind::kCountOnly);
  int data[64] = {};
  b.flush(&data[0]);
  b.flush(&data[32]);
  b.fence();
  EXPECT_EQ(b.flush_count(), 2u);
  EXPECT_EQ(b.fence_count(), 1u);
  b.reset_counters();
  EXPECT_EQ(b.flush_count(), 0u);
}

TEST(FlushBackend, FlushRangeCoversEveryLine) {
  FlushBackend b(FlushKind::kCountOnly);
  alignas(64) char buf[64 * 4] = {};
  b.flush_range(buf, sizeof buf);
  EXPECT_EQ(b.flush_count(), 4u);
  b.reset_counters();
  // A 1-byte range still needs one flush.
  b.flush_range(buf, 1);
  EXPECT_EQ(b.flush_count(), 1u);
  b.reset_counters();
  // A range straddling a line boundary needs two.
  b.flush_range(buf + 60, 8);
  EXPECT_EQ(b.flush_count(), 2u);
  b.reset_counters();
  b.flush_range(buf, 0);
  EXPECT_EQ(b.flush_count(), 0u);
}

TEST(FlushBackend, RealInstructionsExecuteWhenSupported) {
  // Whichever hardware kind is available must execute without faulting on
  // ordinary memory (DRAM emulation, as in the paper), through both the
  // synchronous flush() and the posted issue().
  const CpuFeatures& cpu = cpu_features();
  alignas(64) volatile char buf[64] = {};
  for (FlushKind kind : {FlushKind::kClflush, FlushKind::kClflushopt,
                         FlushKind::kClwb, FlushKind::kSimulated}) {
    FlushBackend b(kind, /*simulated_latency_ns=*/10);
    const bool reported = (kind == FlushKind::kClflush && cpu.clflush) ||
                          (kind == FlushKind::kClflushopt && cpu.clflushopt) ||
                          (kind == FlushKind::kClwb && cpu.clwb) ||
                          kind == FlushKind::kSimulated;
    EXPECT_EQ(b.kind(), reported ? kind : FlushKind::kSimulated);
    buf[0] = 1;
    b.flush(const_cast<const char*>(buf));
    b.fence();
    EXPECT_EQ(b.flush_count(), 1u);
    buf[0] = 2;
    b.issue(const_cast<const char*>(buf));
    b.fence();
    EXPECT_EQ(b.flush_count(), 2u);
  }
}

TEST(FlushBackend, UnsupportedKindDowngradesToSimulated) {
  // kCountOnly and kSimulated never downgrade; hardware kinds only when the
  // CPU lacks them, which we can't force here — but the constructor must
  // always yield a usable backend.
  FlushBackend b(parse_flush_kind("definitely-not-a-kind"));
  alignas(64) char buf[64] = {};
  b.flush(buf);
  EXPECT_EQ(b.flush_count(), 1u);
}

TEST(FlushBackend, ParseNamesRoundTrip) {
  EXPECT_EQ(parse_flush_kind("clflush"), FlushKind::kClflush);
  EXPECT_EQ(parse_flush_kind("clflushopt"), FlushKind::kClflushopt);
  EXPECT_EQ(parse_flush_kind("clwb"), FlushKind::kClwb);
  EXPECT_EQ(parse_flush_kind("sim"), FlushKind::kSimulated);
  EXPECT_EQ(parse_flush_kind("count"), FlushKind::kCountOnly);
  EXPECT_STREQ(to_string(FlushKind::kClflush), "clflush");
  EXPECT_STREQ(to_string(FlushKind::kCountOnly), "count");
}

// --- PmemRegion -------------------------------------------------------------------

TEST(PmemRegion, CreateWriteReopenPersists) {
  const std::string name = unique_name("region-reopen");
  {
    PmemRegion r = PmemRegion::create(name, 1 << 16);
    ASSERT_TRUE(r.valid());
    std::memcpy(r.base(), "durable!", 8);
    r.sync();
  }  // unmapped; file remains
  ASSERT_TRUE(PmemRegion::exists(name));
  {
    PmemRegion r = PmemRegion::open(name);
    ASSERT_TRUE(r.valid());
    EXPECT_EQ(r.size(), std::size_t{1 << 16});
    EXPECT_EQ(std::memcmp(r.base(), "durable!", 8), 0);
    r.close_and_destroy();
  }
  EXPECT_FALSE(PmemRegion::exists(name));
}

TEST(PmemRegion, OffsetPointerRoundTrip) {
  const std::string name = unique_name("region-offset");
  PmemRegion r = PmemRegion::create(name, 1 << 16);
  char* p = static_cast<char*>(r.base()) + 1234;
  EXPECT_EQ(r.offset_of(p), 1234u);
  EXPECT_EQ(r.at(1234), p);
  EXPECT_TRUE(r.contains(p));
  EXPECT_FALSE(r.contains(&name));
  r.close_and_destroy();
}

TEST(PmemRegion, MoveTransfersOwnership) {
  const std::string name = unique_name("region-move");
  PmemRegion a = PmemRegion::create(name, 1 << 16);
  void* base = a.base();
  PmemRegion b = std::move(a);
  EXPECT_FALSE(a.valid());  // NOLINT(bugprone-use-after-move): testing move
  EXPECT_TRUE(b.valid());
  EXPECT_EQ(b.base(), base);
  b.close_and_destroy();
}

TEST(PmemRegion, PmemDirEnvPlacesTheBackingFile) {
  // NVC_PMEM_DIR is the deployment path the e2e benchmark sets; every
  // region file of the process lands in it.
  const char* outer = std::getenv("NVC_PMEM_DIR");
  const std::string outer_dir = outer != nullptr ? outer : "";
  const std::string default_dir = region_dir();
  std::string tmpl = default_dir + "/nvc-pmem-dir.XXXXXX";
  ASSERT_NE(::mkdtemp(tmpl.data()), nullptr);
  const std::string dir = tmpl;
  ::setenv("NVC_PMEM_DIR", dir.c_str(), 1);
  EXPECT_EQ(region_dir(), dir);
  const std::string name = unique_name("region-dir");
  {
    PmemRegion r = PmemRegion::create(name, 1 << 16);
    EXPECT_EQ(r.path(), dir + "/nvcache." + name + ".pmem");
    EXPECT_EQ(::access(r.path().c_str(), F_OK), 0);
    EXPECT_TRUE(PmemRegion::exists(name));
    r.close_and_destroy();
  }
  if (outer != nullptr) {
    ::setenv("NVC_PMEM_DIR", outer_dir.c_str(), 1);
  } else {
    ::unsetenv("NVC_PMEM_DIR");
  }
  EXPECT_EQ(region_dir(), default_dir);
  EXPECT_EQ(::rmdir(dir.c_str()), 0);  // empty: the file went nowhere else
}

TEST(PmemRegion, OpenMissingThrows) {
  EXPECT_THROW(PmemRegion::open(unique_name("region-missing")),
               std::runtime_error);
}

// --- PmemAllocator -----------------------------------------------------------------

class PmemAllocatorTest : public ::testing::Test {
 protected:
  PmemAllocatorTest()
      : name_(unique_name("alloc")),
        heap_(PmemRegion::create(name_, 1 << 20), /*format=*/true) {}
  ~PmemAllocatorTest() override { PmemRegion::destroy(name_); }

  std::string name_;
  PmemAllocator heap_;
};

TEST_F(PmemAllocatorTest, AllocateGivesDistinctAlignedBlocks) {
  const POffset a = heap_.allocate(100);
  const POffset b = heap_.allocate(100);
  ASSERT_NE(a, kNullOffset);
  ASSERT_NE(b, kNullOffset);
  EXPECT_NE(a, b);
  EXPECT_EQ(a % 16, 0u);
  EXPECT_EQ(b % 16, 0u);
  EXPECT_GE(heap_.block_size(a), 100u);
}

TEST_F(PmemAllocatorTest, FreeListReusesBlocks) {
  const POffset a = heap_.allocate(64);
  heap_.deallocate(a);
  const POffset b = heap_.allocate(64);
  EXPECT_EQ(a, b);  // same size class comes back LIFO
}

TEST_F(PmemAllocatorTest, BytesInUseTracksAllocations) {
  EXPECT_EQ(heap_.bytes_in_use(), 0u);
  const POffset a = heap_.allocate(100);
  EXPECT_EQ(heap_.bytes_in_use(), 100u);
  const POffset b = heap_.allocate(28);
  EXPECT_EQ(heap_.bytes_in_use(), 128u);
  heap_.deallocate(a);
  EXPECT_EQ(heap_.bytes_in_use(), 28u);
  heap_.deallocate(b);
  EXPECT_EQ(heap_.bytes_in_use(), 0u);
}

TEST_F(PmemAllocatorTest, RootSurvivesReopen) {
  const POffset a = heap_.allocate(64);
  *heap_.resolve<std::uint64_t>(a) = 0xfeedface;
  heap_.set_root(a);

  PmemAllocator reopened(PmemRegion::open(name_), /*format=*/false);
  EXPECT_EQ(reopened.root(), a);
  EXPECT_EQ(*reopened.resolve<std::uint64_t>(reopened.root()), 0xfeedfaceu);
}

TEST_F(PmemAllocatorTest, OpenRejectsUnformattedRegion) {
  const std::string other = unique_name("alloc-raw");
  PmemRegion raw = PmemRegion::create(other, 1 << 16);
  EXPECT_THROW(PmemAllocator(std::move(raw), /*format=*/false),
               std::runtime_error);
  PmemRegion::destroy(other);
}

TEST_F(PmemAllocatorTest, ExhaustionReturnsNull) {
  // Region is 1 MiB; oversized allocations must eventually return null
  // rather than corrupting.
  POffset last = kNullOffset;
  int count = 0;
  for (; count < 64; ++count) {
    last = heap_.allocate(100 * 1024);
    if (last == kNullOffset) break;
  }
  EXPECT_EQ(last, kNullOffset);
  EXPECT_GT(count, 0);
}

TEST_F(PmemAllocatorTest, PayloadsAreCacheLineAligned) {
  // Regression: alignas(64) members in persistent structs (e.g. the queue
  // example's anchors) require line-aligned payloads; misalignment made
  // placement-new UB.
  for (const std::size_t size : {1u, 24u, 64u, 100u, 4096u}) {
    const POffset off = heap_.allocate(size);
    ASSERT_NE(off, kNullOffset);
    const auto addr = reinterpret_cast<std::uintptr_t>(heap_.resolve(off));
    EXPECT_EQ(addr % kCacheLineSize, 0u) << "size " << size;
  }
}

TEST_F(PmemAllocatorTest, RecycledBlocksKeepAlignment) {
  const POffset a = heap_.allocate(128);
  heap_.deallocate(a);
  const POffset b = heap_.allocate(100);  // same size class, recycled
  EXPECT_EQ(a, b);
  const auto addr = reinterpret_cast<std::uintptr_t>(heap_.resolve(b));
  EXPECT_EQ(addr % kCacheLineSize, 0u);
}

TEST_F(PmemAllocatorTest, ZeroByteAllocationIsValid) {
  const POffset a = heap_.allocate(0);
  EXPECT_NE(a, kNullOffset);
  heap_.deallocate(a);
}

// --- ShadowPmem -------------------------------------------------------------------

TEST(ShadowPmem, StoresVisibleOnlyAfterFlush) {
  ShadowPmem mem(4096);
  mem.store_value<int>(128, 42);
  EXPECT_EQ(mem.load_value<int>(128), 42);        // volatile view sees it
  EXPECT_EQ(mem.durable_value<int>(128), 0);       // durable view does not
  mem.flush_addr(128);
  EXPECT_EQ(mem.durable_value<int>(128), 42);
}

TEST(ShadowPmem, CrashDropsUnflushedLines) {
  ShadowPmem mem(4096);
  mem.store_value<int>(0, 1);
  mem.flush_addr(0);
  mem.store_value<int>(64, 2);  // different line, never flushed
  mem.crash();
  EXPECT_EQ(mem.load_value<int>(0), 1);
  EXPECT_EQ(mem.load_value<int>(64), 0);  // lost
  EXPECT_EQ(mem.dirty_line_count(), 0u);
}

TEST(ShadowPmem, LineGranularFlushTakesNeighborsOnSameLine) {
  ShadowPmem mem(4096);
  mem.store_value<int>(0, 7);
  mem.store_value<int>(60, 9);  // same 64B line
  mem.flush_line(0);
  EXPECT_EQ(mem.durable_value<int>(0), 7);
  EXPECT_EQ(mem.durable_value<int>(60), 9);
}

TEST(ShadowPmem, StoreSpanningLinesDirtiesBoth) {
  ShadowPmem mem(4096);
  const std::uint64_t v = 0x1122334455667788ull;
  mem.store(60, &v, sizeof v);  // straddles lines 0 and 1
  EXPECT_TRUE(mem.line_dirty(0));
  EXPECT_TRUE(mem.line_dirty(1));
  mem.flush_line(0);
  mem.flush_line(1);
  EXPECT_EQ(mem.durable_value<std::uint64_t>(60), v);
}

TEST(ShadowPmem, FlushAllPersistsEverything) {
  ShadowPmem mem(4096);
  for (PmAddr a = 0; a < 4096; a += 64) mem.store_value<int>(a, 5);
  EXPECT_EQ(mem.dirty_line_count(), 64u);
  mem.flush_all();
  EXPECT_EQ(mem.dirty_line_count(), 0u);
  mem.crash();
  for (PmAddr a = 0; a < 4096; a += 64) EXPECT_EQ(mem.load_value<int>(a), 5);
}

TEST(ShadowPmem, EventClockCutsPowerAtTheFreezePoint) {
  ShadowPmem mem(4096);
  mem.set_clock(false);
  mem.store_value<int>(0, 1);  // setup traffic: off the clock
  EXPECT_EQ(mem.events(), 0u);
  mem.set_clock(true);
  mem.freeze_at(2);
  mem.store_value<int>(64, 2);                            // event 1
  mem.write_back(mem.volatile_base() + 64);  // event 2 lands
  mem.flush_line(0);  // event 3: power is off, silently lost
  EXPECT_EQ(mem.events(), 3u);
  EXPECT_EQ(mem.durable_value<int>(64), 2);
  EXPECT_EQ(mem.durable_value<int>(0), 0);
  mem.crash();  // power is back
  mem.store_value<int>(0, 3);
  mem.flush_line(0);
  EXPECT_EQ(mem.durable_value<int>(0), 3);
}

TEST(ShadowPmem, TornBytesAreAlignedPureAndGated) {
  // Tear rate 1: every post-cut write-back in the window tears.
  const ShadowPmem always(4 * kCacheLineSize, 8, /*tear_rate=*/1.0,
                          /*tear_seed=*/7);
  for (LineAddr line = 0; line < 64; ++line) {
    const std::size_t bytes = always.torn_bytes(line);
    EXPECT_GE(bytes, 8u) << "line " << line;
    EXPECT_LE(bytes, 56u) << "line " << line;
    EXPECT_EQ(bytes % 8, 0u) << "line " << line;        // ADR atomicity unit
    EXPECT_EQ(bytes, always.torn_bytes(line));          // pure: no ordinal
  }
  const ShadowPmem never(4 * kCacheLineSize, 8, /*tear_rate=*/0.0,
                         /*tear_seed=*/7);
  for (LineAddr line = 0; line < 64; ++line) {
    EXPECT_EQ(never.torn_bytes(line), 0u);
  }
}

TEST(ShadowPmem, TornFlushPersistsAlignedPrefixAndKeepsLineDirty) {
  ShadowPmem shadow(4 * kCacheLineSize);
  std::vector<std::uint8_t> pattern(kCacheLineSize);
  for (std::size_t i = 0; i < pattern.size(); ++i) {
    pattern[i] = static_cast<std::uint8_t>(0xA0 + i);
  }
  shadow.store(0, pattern.data(), pattern.size());
  shadow.flush_line_torn(0, 16);
  EXPECT_EQ(shadow.torn_flushes(), 1u);
  std::vector<std::uint8_t> durable(kCacheLineSize);
  shadow.load_durable(0, durable.data(), durable.size());
  for (std::size_t i = 0; i < 16; ++i) {
    EXPECT_EQ(durable[i], pattern[i]) << "torn-in byte " << i;
  }
  for (std::size_t i = 16; i < kCacheLineSize; ++i) {
    EXPECT_EQ(durable[i], 0) << "byte " << i << " leaked past the tear";
  }
  EXPECT_TRUE(shadow.line_dirty(0));  // the rest is still unpersisted

  // While frozen, a full flush is dropped but the torn path still lands —
  // it models the write-back racing the power cut itself.
  shadow.freeze_at(shadow.events());
  shadow.flush_line(1);  // dropped
  shadow.flush_line_torn(1, 8);
  EXPECT_EQ(shadow.torn_flushes(), 2u);
}

// --- the tear window (ShadowPmem::flush_line past the cut) ------------------

/// Store a distinct word pattern over each of lines [0, lines): word w of
/// line l holds `salt ^ (l << 8 | w)`, so no two words of two patterns agree.
void store_lines(ShadowPmem& mem, LineAddr lines, std::uint64_t salt) {
  for (LineAddr line = 0; line < lines; ++line) {
    for (std::size_t w = 0; w < kCacheLineSize / 8; ++w) {
      mem.store_value<std::uint64_t>(line_base(line) + 8 * w,
                                     salt ^ (line << 8 | w));
    }
  }
}

TEST(ShadowPmem, ZeroTearRateDropsEveryPostCutWriteBack) {
  ShadowPmem mem(8 * kCacheLineSize, /*tear_burst=*/8, /*tear_rate=*/0.0);
  store_lines(mem, 8, 0x5a5a);
  mem.freeze_at(mem.events());
  for (LineAddr line = 0; line < 8; ++line) mem.flush_line(line);
  EXPECT_EQ(mem.torn_flushes(), 0u);
  EXPECT_EQ(mem.flushes(), 0u);
  EXPECT_EQ(mem.bytes_written(), 0u);
  EXPECT_EQ(mem.dirty_line_count(), 8u);
  for (PmAddr a = 0; a < 8 * kCacheLineSize; a += 8) {
    EXPECT_EQ(mem.durable_value<std::uint64_t>(a), 0u) << "byte " << a;
  }
}

TEST(ShadowPmem, TearWindowOpensOnlyAtTheFirstPostCutEvent) {
  // The burst racing the cut is the write-backs issued right at it. When
  // the first post-cut event is a store, no burst was in flight, and later
  // write-backs are simply lost.
  ShadowPmem mem(4 * kCacheLineSize, 8, /*tear_rate=*/1.0, /*tear_seed=*/3);
  store_lines(mem, 2, 0x11);
  mem.freeze_at(mem.events());
  mem.store_value<std::uint64_t>(line_base(2), 9);  // event freeze + 1
  mem.flush_line(0);
  mem.flush_line(1);
  EXPECT_EQ(mem.torn_flushes(), 0u);
  EXPECT_EQ(mem.line_write_count(0), 0u);
  EXPECT_EQ(mem.line_write_count(1), 0u);
}

TEST(ShadowPmem, TearWindowClosesAtTheBurstLimit) {
  ShadowPmem mem(8 * kCacheLineSize, /*tear_burst=*/3, /*tear_rate=*/1.0,
                 /*tear_seed=*/3);
  store_lines(mem, 6, 0x22);
  mem.freeze_at(mem.events());
  for (LineAddr line = 0; line < 6; ++line) mem.flush_line(line);
  EXPECT_EQ(mem.torn_flushes(), 3u);
  for (LineAddr line = 0; line < 6; ++line) {
    EXPECT_EQ(mem.line_write_count(line), line < 3 ? 1u : 0u) << "line " << line;
  }
  mem.flush_line(0);  // the window stays closed
  EXPECT_EQ(mem.torn_flushes(), 3u);
}

TEST(ShadowPmem, TearWindowClosesForGoodOnAnEventGap) {
  // A post-cut event between two write-backs ends the burst: nothing
  // ordered after the gap was in flight, even if the run resumes gapless.
  ShadowPmem mem(4 * kCacheLineSize, 8, /*tear_rate=*/1.0, /*tear_seed=*/3);
  store_lines(mem, 4, 0x33);
  mem.freeze_at(mem.events());
  mem.flush_line(0);    // freeze + 1: tears
  mem.claim_event();    // freeze + 2: the gap
  mem.flush_line(1);    // freeze + 3: closes the window
  mem.flush_line(2);    // freeze + 4: gapless after 3, but the window is shut
  EXPECT_EQ(mem.torn_flushes(), 1u);
  EXPECT_EQ(mem.line_write_count(0), 1u);
  EXPECT_EQ(mem.line_write_count(1), 0u);
  EXPECT_EQ(mem.line_write_count(2), 0u);
}

TEST(ShadowPmem, PostCutFenceClosesTheTearWindow) {
  ShadowPmem mem(4 * kCacheLineSize, 8, /*tear_rate=*/1.0, /*tear_seed=*/3);
  store_lines(mem, 3, 0x44);
  mem.freeze_at(mem.events());
  mem.fence();  // no event claimed, no write-back in flight: stays open
  mem.flush_line(0);
  EXPECT_EQ(mem.torn_flushes(), 1u);
  mem.fence();  // nothing ordered behind this fence was ever issued
  mem.flush_line(1);  // gapless, yet past the fence
  mem.flush_line(2);
  EXPECT_EQ(mem.torn_flushes(), 1u);
  EXPECT_EQ(mem.line_write_count(1), 0u);
  EXPECT_EQ(mem.line_write_count(2), 0u);
}

TEST(ShadowPmem, CrashReopensTheTearWindowForTheNextCut) {
  ShadowPmem mem(4 * kCacheLineSize, /*tear_burst=*/1, /*tear_rate=*/1.0,
                 /*tear_seed=*/3);
  store_lines(mem, 2, 0x55);
  mem.freeze_at(mem.events());
  mem.flush_line(0);  // tears
  mem.flush_line(1);  // past the burst limit: dropped
  EXPECT_EQ(mem.torn_flushes(), 1u);
  mem.crash();
  store_lines(mem, 2, 0x66);
  mem.freeze_at(mem.events());
  mem.flush_line(1);  // first write-back past the second cut: tears
  EXPECT_EQ(mem.torn_flushes(), 2u);
  EXPECT_EQ(mem.line_write_count(1), 1u);
}

TEST(ShadowPmem, TornWriteBackIsANewWordPrefixOverTheOldLine) {
  // What a post-cut write-back leaves durable: the first torn_bytes() of
  // the new line, then the old line — whole 8-byte words on either side,
  // never the whole new line (ADR power-fail atomicity, DESIGN.md §9).
  constexpr LineAddr kLines = 8;
  constexpr std::size_t kWords = kCacheLineSize / 8;
  for (const std::uint64_t seed : {1ull, 7ull, 0x7ea2ull, 0xfeedull}) {
    ShadowPmem mem(kLines * kCacheLineSize, kLines, /*tear_rate=*/1.0, seed);
    store_lines(mem, kLines, /*salt=*/0xa0a0);
    mem.flush_all();
    store_lines(mem, kLines, /*salt=*/0xb0b0);
    mem.freeze_at(mem.events());
    for (LineAddr line = 0; line < kLines; ++line) mem.flush_line(line);
    EXPECT_EQ(mem.torn_flushes(), kLines) << "seed " << seed;
    for (LineAddr line = 0; line < kLines; ++line) {
      const std::size_t torn = mem.torn_bytes(line) / 8;
      ASSERT_GE(torn, 1u);
      ASSERT_LT(torn, kWords);
      for (std::size_t w = 0; w < kWords; ++w) {
        const std::uint64_t salt = w < torn ? 0xb0b0 : 0xa0a0;
        const std::uint64_t want = salt ^ (line << 8 | w);
        EXPECT_EQ(mem.durable_value<std::uint64_t>(line_base(line) + 8 * w),
                  want)
            << "seed " << seed << " line " << line << " word " << w;
      }
      EXPECT_TRUE(mem.line_dirty(line)) << "seed " << seed << " line " << line;
    }
  }
}

TEST(ShadowPmem, TornWriteBackWearsTheLineButIsNotAFlush) {
  ShadowPmem mem(4 * kCacheLineSize, 8, /*tear_rate=*/1.0, /*tear_seed=*/3);
  store_lines(mem, 2, 0x77);
  mem.flush_line(0);
  ASSERT_EQ(mem.bytes_written(), kCacheLineSize);
  mem.freeze_at(mem.events());
  mem.flush_line(1);
  EXPECT_EQ(mem.flushes(), 1u);  // only the pre-cut write-back
  EXPECT_EQ(mem.torn_flushes(), 1u);
  EXPECT_EQ(mem.bytes_written(), kCacheLineSize + mem.torn_bytes(1));
  EXPECT_EQ(mem.line_write_count(1), 1u);
  const WearStats wear = mem.wear_stats();
  EXPECT_EQ(wear.lines_touched, 2u);
  EXPECT_EQ(wear.line_writes, 2u);
  EXPECT_EQ(wear.bytes_written, mem.bytes_written());
}

TEST(ShadowPmem, TearDecisionsAreAFunctionOfSeedAndLineAlone) {
  // Replay contract: a tear seed names the same torn lengths in every
  // instance, and the rate gates roughly its share of lines.
  constexpr LineAddr kLines = 512;
  const ShadowPmem a(kCacheLineSize, 8, /*tear_rate=*/0.5, /*tear_seed=*/11);
  const ShadowPmem b(kCacheLineSize, 8, /*tear_rate=*/0.5, /*tear_seed=*/11);
  const ShadowPmem other(kCacheLineSize, 8, /*tear_rate=*/0.5,
                         /*tear_seed=*/12);
  std::size_t torn = 0;
  std::size_t differ = 0;
  for (LineAddr line = 0; line < kLines; ++line) {
    EXPECT_EQ(a.torn_bytes(line), b.torn_bytes(line)) << "line " << line;
    if (a.torn_bytes(line) != 0) ++torn;
    if (a.torn_bytes(line) != other.torn_bytes(line)) ++differ;
  }
  EXPECT_GT(torn, kLines / 4);
  EXPECT_LT(torn, 3 * kLines / 4);
  EXPECT_GT(differ, kLines / 4);
}

TEST(ShadowPmem, FullWriteBackCompletesATornLine) {
  ShadowPmem mem(4 * kCacheLineSize);
  store_lines(mem, 1, 0x88);
  mem.flush_line_torn(0, 24);
  ASSERT_TRUE(mem.line_dirty(0));
  mem.flush_line(0);
  EXPECT_FALSE(mem.line_dirty(0));
  EXPECT_EQ(mem.line_write_count(0), 2u);
  mem.crash();
  for (std::size_t w = 0; w < kCacheLineSize / 8; ++w) {
    EXPECT_EQ(mem.load_value<std::uint64_t>(8 * w), 0x88u ^ w)
        << "word " << w;
  }
}

TEST(ShadowPmem, CountsStoresAndFlushes) {
  ShadowPmem mem(1024);
  mem.store_value<int>(0, 1);
  mem.store_value<int>(4, 2);
  mem.flush_addr(0);
  EXPECT_EQ(mem.stores(), 2u);
  EXPECT_EQ(mem.flushes(), 1u);
}

}  // namespace
}  // namespace nvc::pmem
