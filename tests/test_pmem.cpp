// Unit tests for the persistent-memory substrate: flush backends, mmap
// regions, the persistent allocator, and the shadow crash model.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <string>
#include <unistd.h>

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
  // ordinary memory (DRAM emulation, as in the paper).
  alignas(64) volatile char buf[64] = {};
  for (FlushKind kind : {FlushKind::kClflush, FlushKind::kClflushopt,
                         FlushKind::kClwb, FlushKind::kSimulated}) {
    FlushBackend b(kind, /*simulated_latency_ns=*/10);
    buf[0] = 1;
    b.flush(const_cast<const char*>(buf));
    b.fence();
    EXPECT_EQ(b.flush_count(), 1u);
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
  EXPECT_TRUE(mem.write_back(mem.volatile_base() + 64));  // event 2 lands
  EXPECT_TRUE(mem.flush_line(0));  // event 3: power is off, silently lost
  EXPECT_EQ(mem.events(), 3u);
  EXPECT_EQ(mem.durable_value<int>(64), 2);
  EXPECT_EQ(mem.durable_value<int>(0), 0);
  mem.crash();  // power is back
  mem.store_value<int>(0, 3);
  mem.flush_line(0);
  EXPECT_EQ(mem.durable_value<int>(0), 3);
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
