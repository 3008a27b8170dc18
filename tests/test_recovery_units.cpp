// Unit tests for the hardened-recovery building blocks (DESIGN.md §14):
// the shared checksum module, commit-granularity data-line verification,
// the heap clean-shutdown seal, untrusted header/log inspection on hostile
// bytes, and the region-open diagnostics for truncated / empty / foreign /
// version-mismatched image files. The common thread: every routine here is
// fed arbitrary garbage somewhere below and must classify, throw, or return
// a status — never abort, crash, or read out of bounds. The last section
// drives the two integrity features of a live Runtime — the online
// scrubber (`scrub`) and recover()'s verify stage (`verify_data`) —
// over real regions and over the crash rig's shadow medium.
#include <gtest/gtest.h>

#include <unistd.h>

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/checksum.hpp"
#include "common/types.hpp"
#include "pmem/flush.hpp"
#include "pmem/pmem_alloc.hpp"
#include "pmem/pmem_region.hpp"
#include "runtime/backend_sink.hpp"
#include "runtime/recovery.hpp"
#include "runtime/runtime.hpp"
#include "runtime/scrub.hpp"
#include "runtime/undo_log.hpp"
#include "support/crash_rig.hpp"

namespace nvc {
namespace {

std::uint64_t splitmix(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// --- checksum module -------------------------------------------------------

TEST(Checksum, Crc32cKnownAnswers) {
  // The standard CRC32C check value (RFC 3720 appendix / every iSCSI stack).
  EXPECT_EQ(crc32c("123456789", 9), 0xE3069283u);
  EXPECT_EQ(crc32c("", 0), 0u);
  // 32 zero bytes, another published vector.
  const std::array<std::uint8_t, 32> zeros{};
  EXPECT_EQ(crc32c(zeros.data(), zeros.size()), 0x8A9136AAu);
}

TEST(Checksum, Crc32cChains) {
  const char* msg = "adaptive software caching";
  const std::size_t len = std::strlen(msg);
  const std::uint32_t whole = crc32c(msg, len);
  for (std::size_t split = 0; split <= len; ++split) {
    const std::uint32_t part = crc32c(msg, split);
    EXPECT_EQ(crc32c(msg + split, len - split, part), whole) << split;
  }
}

TEST(Checksum, Fnv32KnownAnswers) {
  EXPECT_EQ(fnv1a32("", 0), Fnv32::kOffsetBasis);
  // FNV-1a reference vectors.
  EXPECT_EQ(fnv1a32("a", 1), 0xe40c292cu);
  EXPECT_EQ(fnv1a32("foobar", 6), 0xbf9cf968u);
}

TEST(Checksum, Fnv32MixLeIsHostEndianIndependent) {
  // mix_le must equal mixing the value's little-endian byte image, whatever
  // the host order — the durable log format is a byte stream.
  Fnv32 a;
  a.mix_le(std::uint64_t{0x1122334455667788ull});
  const std::uint8_t le[8] = {0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11};
  Fnv32 b;
  b.mix_bytes(le, sizeof(le));
  EXPECT_EQ(a.value(), b.value());
}

TEST(Checksum, UndoLogCheckWordIsTheSharedFnv) {
  // The undo log's record certification must be exactly the shared module's
  // FNV over token/len/gen/payload in that order — the durable PR 2 format.
  const std::uint64_t token = 0x00c0ffee00c0ffeeull;
  const std::uint32_t len = 24;
  const std::uint32_t gen = 7;
  std::uint8_t payload[24];
  std::uint64_t s = 42;
  for (auto& b : payload) b = static_cast<std::uint8_t>(splitmix(s));

  Fnv32 h;
  h.mix_le(token);
  h.mix_le(len);
  h.mix_le(gen);
  h.mix_bytes(payload, len);
  EXPECT_EQ(runtime::UndoLog::entry_check(token, len, gen, payload),
            h.value());
  // Any field perturbation changes the word.
  EXPECT_NE(runtime::UndoLog::entry_check(token + 1, len, gen, payload),
            h.value());
  EXPECT_NE(runtime::UndoLog::entry_check(token, len, gen + 1, payload),
            h.value());
}

// --- LineVerifyTable -------------------------------------------------------

TEST(LineVerifyTable, CommitDirtyVerifyLifecycle) {
  runtime::LineVerifyTable table(4 * kCacheLineSize);
  ASSERT_EQ(table.lines(), 4u);
  std::uint8_t line[kCacheLineSize];
  std::memset(line, 0x5a, sizeof(line));

  // Unknown lines are not checkable and verify() passes them (no false
  // positives before the first commit publishes a checksum).
  EXPECT_FALSE(table.checkable(0));
  EXPECT_TRUE(table.verify(0, line));

  table.note_commit(0, line);
  EXPECT_TRUE(table.checkable(0));
  EXPECT_TRUE(table.verify(0, line));

  // A corrupted byte fails verification...
  line[17] ^= 0x01;
  EXPECT_FALSE(table.verify(0, line));

  // ...but a line marked dirty (in-flight FASE store) is never checked.
  table.mark_dirty(0);
  EXPECT_FALSE(table.checkable(0));
  EXPECT_TRUE(table.verify(0, line));

  // The next commit republishes the new content and re-arms checking.
  table.note_commit(0, line);
  EXPECT_TRUE(table.checkable(0));
  EXPECT_TRUE(table.verify(0, line));
  line[17] ^= 0x01;
  EXPECT_FALSE(table.verify(0, line));
}

TEST(LineVerifyTable, OutOfRangeIndicesAreInert) {
  runtime::LineVerifyTable table(2 * kCacheLineSize);
  std::uint8_t line[kCacheLineSize] = {};
  table.mark_dirty(99);          // must not write anywhere
  table.note_commit(99, line);   // ditto
  EXPECT_FALSE(table.checkable(99));
  EXPECT_TRUE(table.verify(99, line));  // not checkable => passes
}

// --- heap clean-shutdown seal ---------------------------------------------

std::string unique_region(const char* tag) {
  return std::string("recovery_units_") + tag + "_" +
         std::to_string(::getpid());
}

TEST(HeapSeal, SealUnsealLifecycle) {
  const std::string name = unique_region("seal");
  pmem::PmemRegion::destroy(name);
  {
    pmem::PmemAllocator heap(pmem::PmemRegion::create(name, 256 * 1024),
                             /*format=*/true);
    EXPECT_FALSE(heap.sealed_clean());

    const std::uint64_t word = heap.seal();
    EXPECT_NE(word, 0u);
    EXPECT_TRUE(heap.sealed_clean());
    auto st = pmem::PmemAllocator::inspect(heap.region().base(),
                                           heap.region().size());
    EXPECT_TRUE(st.magic_ok);
    EXPECT_TRUE(st.version_ok);
    EXPECT_TRUE(st.sealed);
    EXPECT_TRUE(st.seal_valid);
    EXPECT_TRUE(st.bump_plausible);
    EXPECT_EQ(st.seal_gen, 1u);

    // Unseal: the image reads as dirty again.
    heap.unseal();
    EXPECT_FALSE(heap.sealed_clean());
    st = pmem::PmemAllocator::inspect(heap.region().base(),
                                      heap.region().size());
    EXPECT_FALSE(st.sealed);

    // Re-seal bumps the generation.
    heap.seal();
    st = pmem::PmemAllocator::inspect(heap.region().base(),
                                      heap.region().size());
    EXPECT_TRUE(st.seal_valid);
    EXPECT_EQ(st.seal_gen, 2u);
  }
  pmem::PmemRegion::destroy(name);
}

TEST(HeapSeal, StaleSealOverMutatedHeaderIsInvalid) {
  const std::string name = unique_region("stale_seal");
  pmem::PmemRegion::destroy(name);
  {
    pmem::PmemAllocator heap(pmem::PmemRegion::create(name, 256 * 1024),
                             /*format=*/true);
    heap.seal();
    ASSERT_TRUE(heap.sealed_clean());
    // Mutate a covered header byte (the root slot) *without* unsealing —
    // the checksum no longer matches, so the seal cannot fake cleanliness.
    auto* bytes = static_cast<std::uint8_t*>(heap.region().base());
    bytes[16] ^= 0xff;  // root field, byte 0
    EXPECT_FALSE(heap.sealed_clean());
    const auto st = pmem::PmemAllocator::inspect(heap.region().base(),
                                                 heap.region().size());
    EXPECT_TRUE(st.sealed);
    EXPECT_FALSE(st.seal_valid);
  }
  pmem::PmemRegion::destroy(name);
}

TEST(HeapSeal, InspectNeverCrashesOnGarbage) {
  std::vector<std::uint8_t> buf(4096);
  std::uint64_t s = 0xdecafull;
  for (int round = 0; round < 64; ++round) {
    for (auto& b : buf) b = static_cast<std::uint8_t>(splitmix(s));
    const auto st = pmem::PmemAllocator::inspect(buf.data(), buf.size());
    EXPECT_FALSE(st.magic_ok);  // 2^-64 false-positive budget, accepted
  }
  // Undersized and empty views must be handled too.
  for (const std::size_t size : {std::size_t{0}, std::size_t{1},
                                 std::size_t{16}, std::size_t{100}}) {
    const auto st = pmem::PmemAllocator::inspect(buf.data(), size);
    EXPECT_FALSE(st.magic_ok) << size;
  }
}

// --- region-open diagnostics ----------------------------------------------

TEST(RegionOpen, MissingFileThrowsDiagnostic) {
  EXPECT_THROW(pmem::PmemRegion::open("recovery_units_never_created"),
               std::runtime_error);
}

TEST(RegionOpen, EmptyFileThrowsDiagnostic) {
  const std::string name = unique_region("empty");
  pmem::PmemRegion::destroy(name);
  std::string path;
  {
    pmem::PmemRegion region = pmem::PmemRegion::create(name, 4096);
    path = region.path();
  }
  ASSERT_EQ(::truncate(path.c_str(), 0), 0);
  try {
    pmem::PmemRegion::open(name);
    FAIL() << "open() accepted a zero-length image";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("empty"), std::string::npos)
        << e.what();
  }
  pmem::PmemRegion::destroy(name);
}

TEST(RegionOpen, TruncatedHeapThrowsDiagnostic) {
  const std::string name = unique_region("truncated");
  pmem::PmemRegion::destroy(name);
  std::string path;
  {
    pmem::PmemAllocator heap(pmem::PmemRegion::create(name, 256 * 1024),
                             /*format=*/true);
    path = heap.region().path();
  }
  // The file survives but most of it is gone — smaller than a heap header.
  ASSERT_EQ(::truncate(path.c_str(), 128), 0);
  try {
    pmem::PmemAllocator heap(pmem::PmemRegion::open(name), /*format=*/false);
    FAIL() << "open() accepted a truncated heap image";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("too small"), std::string::npos)
        << e.what();
  }
  pmem::PmemRegion::destroy(name);
}

TEST(RegionOpen, VersionMismatchThrowsDiagnostic) {
  const std::string name = unique_region("version");
  pmem::PmemRegion::destroy(name);
  {
    pmem::PmemAllocator heap(pmem::PmemRegion::create(name, 256 * 1024),
                             /*format=*/true);
  }
  {
    pmem::PmemRegion region = pmem::PmemRegion::open(name);
    // Bump the version field (offset 8, after the 8-byte magic).
    const std::uint32_t alien = pmem::PmemAllocator::kVersion + 7;
    std::memcpy(static_cast<std::uint8_t*>(region.base()) + 8, &alien,
                sizeof(alien));
    const auto st =
        pmem::PmemAllocator::inspect(region.base(), region.size());
    EXPECT_TRUE(st.magic_ok);
    EXPECT_FALSE(st.version_ok);
    EXPECT_EQ(st.version, alien);
    try {
      pmem::PmemAllocator heap(std::move(region), /*format=*/false);
      FAIL() << "open() accepted a version-mismatched heap";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("version mismatch"),
                std::string::npos)
          << e.what();
    }
  }
  pmem::PmemRegion::destroy(name);
}

TEST(RegionOpen, ForeignBytesThrowDiagnostic) {
  const std::string name = unique_region("foreign");
  pmem::PmemRegion::destroy(name);
  {
    pmem::PmemRegion region = pmem::PmemRegion::create(name, 256 * 1024);
    std::uint64_t s = 3;
    auto* bytes = static_cast<std::uint8_t*>(region.base());
    for (std::size_t i = 0; i < 4096; ++i) {
      bytes[i] = static_cast<std::uint8_t>(splitmix(s));
    }
  }
  try {
    pmem::PmemAllocator heap(pmem::PmemRegion::open(name), /*format=*/false);
    FAIL() << "open() accepted foreign bytes as a heap";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("not a nvcache heap"),
              std::string::npos)
        << e.what();
  }
  pmem::PmemRegion::destroy(name);
}

// --- untrusted undo-log inspection ----------------------------------------

using runtime::UndoLog;

TEST(UndoLogInspect, HostileBytesNeverCrash) {
  alignas(64) std::uint8_t seg[4096];
  std::uint64_t s = 0xfacefeedull;
  for (int round = 0; round < 128; ++round) {
    for (auto& b : seg) b = static_cast<std::uint8_t>(splitmix(s));
    const UndoLog::Inspection ins = UndoLog::inspect(seg, sizeof(seg));
    // Random bytes essentially never spell the magic; whatever happens, the
    // reported extents must stay inside the segment.
    EXPECT_LE(ins.certified_extent, sizeof(seg));
    for (const std::uint64_t off : ins.offsets) EXPECT_LT(off, sizeof(seg));
    if (!ins.formatted) {
      EXPECT_TRUE(ins.offsets.empty());
    }
  }
  // Undersized views: inspect must refuse rather than read out of bounds.
  EXPECT_FALSE(UndoLog::inspect(seg, 0).formatted);
  EXPECT_FALSE(UndoLog::inspect(seg, 8).formatted);
  EXPECT_FALSE(UndoLog::inspect(nullptr, 4096).formatted);
}

TEST(UndoLogInspect, CertifiesHandcraftedChainAndStopsAtCorruption) {
  alignas(64) std::uint8_t seg[1024];
  std::memset(seg, 0, sizeof(seg));

  // Empty, committed log of generation 7.
  UndoLog::LogHeader header{};
  header.magic = UndoLog::kMagic;
  header.state = UndoLog::pack_state(7, UndoLog::kHeaderSize);
  std::memcpy(seg, &header, sizeof(header));
  UndoLog::Inspection ins = UndoLog::inspect(seg, sizeof(seg));
  EXPECT_TRUE(ins.formatted);
  EXPECT_TRUE(ins.state_plausible);
  EXPECT_TRUE(ins.tail_covered);
  EXPECT_EQ(ins.gen, 7u);
  EXPECT_EQ(ins.certified_extent, UndoLog::kHeaderSize);
  EXPECT_TRUE(ins.offsets.empty());

  // Append one certified 8-byte record and publish a covering tail.
  const std::uint64_t token = 0x140;
  std::uint8_t payload[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  UndoLog::EntryHead entry{};
  entry.addr_token = token;
  entry.len = sizeof(payload);
  entry.check = UndoLog::entry_check(token, entry.len, 7, payload);
  std::memcpy(seg + UndoLog::kHeaderSize, &entry, sizeof(entry));
  std::memcpy(seg + UndoLog::kHeaderSize + sizeof(entry), payload,
              sizeof(payload));
  const std::uint64_t tail =
      UndoLog::kHeaderSize + sizeof(entry) + sizeof(payload);
  header.state = UndoLog::pack_state(7, tail);
  std::memcpy(seg, &header, sizeof(header));

  ins = UndoLog::inspect(seg, sizeof(seg));
  ASSERT_EQ(ins.offsets.size(), 1u);
  EXPECT_EQ(ins.offsets[0], UndoLog::kHeaderSize);
  EXPECT_EQ(ins.certified_extent, tail);
  EXPECT_TRUE(ins.tail_covered);

  // A flipped payload bit breaks certification: the chain stops short of
  // the durable tail, which is exactly the "synced bytes corrupted"
  // signature the salvage pipeline reports as unrecoverable.
  seg[UndoLog::kHeaderSize + sizeof(entry) + 3] ^= 0x10;
  ins = UndoLog::inspect(seg, sizeof(seg));
  EXPECT_TRUE(ins.offsets.empty());
  EXPECT_EQ(ins.certified_extent, UndoLog::kHeaderSize);
  EXPECT_FALSE(ins.tail_covered);

  // A tail pointing outside the segment is implausible on its face.
  header.state = UndoLog::pack_state(7, sizeof(seg) + 64);
  std::memcpy(seg, &header, sizeof(header));
  ins = UndoLog::inspect(seg, sizeof(seg));
  EXPECT_TRUE(ins.formatted);
  EXPECT_FALSE(ins.state_plausible);
  EXPECT_FALSE(ins.tail_covered);
}

TEST(UndoLogInspect, PadBitFlipEndsTheCertifiedChain) {
  // A strict segment of 8-byte records: entries 1, 3 and 5 pad 16 bytes to
  // their line end. Flipping any bit of an entry's pad, padded or not, ends
  // the certified chain at that entry: the structural pad check refuses
  // most flips, and the check word, which covers the pad, the rest (16 -> 0).
  alignas(64) std::uint8_t seg[1024] = {};
  pmem::FlushBackend backend(pmem::FlushKind::kCountOnly);
  runtime::BackendSink sink(&backend);
  UndoLog log(seg, sizeof(seg), &sink, runtime::LogSyncMode::kStrict);
  log.format();
  for (std::uint64_t i = 0; i < 6; ++i) log.record(8 * i, &i, sizeof i);
  const UndoLog::Inspection ins = UndoLog::inspect(seg, sizeof(seg));
  ASSERT_EQ(ins.offsets,
            (std::vector<std::uint64_t>{64, 88, 128, 152, 192, 216}));
  for (const std::size_t victim : {std::size_t{1}, std::size_t{2}}) {
    const std::size_t pad_at =
        ins.offsets[victim] + offsetof(UndoLog::EntryHead, pad);
    for (unsigned bit = 0; bit < 16; ++bit) {
      std::vector<std::uint8_t> copy(seg, seg + sizeof(seg));
      copy[pad_at + bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
      const UndoLog::Inspection hit =
          UndoLog::inspect(copy.data(), copy.size());
      EXPECT_EQ(hit.offsets.size(), victim)
          << "entry " << victim << " bit " << bit;
      EXPECT_EQ(hit.certified_extent, ins.offsets[victim])
          << "entry " << victim << " bit " << bit;
    }
  }
}

TEST(UndoLogInspect, RefusesMalformedPadsWhoseCheckWordValidates) {
  // The pad rule is structural, checked beside the check word: a pad that
  // does not end the entry's line, or that is a line or longer, is refused
  // even when the check word was computed over it.
  alignas(64) std::uint8_t seg[1024] = {};
  const UndoLog::LogHeader header{UndoLog::kMagic,
                                  UndoLog::pack_state(5, UndoLog::kHeaderSize)};
  std::memcpy(seg, &header, sizeof(header));
  const std::uint64_t token = 0x40;
  const std::uint64_t payload = 0x0123456789abcdefull;
  const auto certified_with_pad = [&](std::uint16_t pad) {
    const UndoLog::EntryHead entry{
        token, sizeof(payload), pad,
        UndoLog::entry_check(token, sizeof(payload), 5, &payload, pad)};
    std::memcpy(seg + UndoLog::kHeaderSize, &entry, sizeof(entry));
    std::memcpy(seg + UndoLog::kHeaderSize + sizeof(entry), &payload,
                sizeof(payload));
    return UndoLog::inspect(seg, sizeof(seg)).offsets.size();
  };
  EXPECT_EQ(certified_with_pad(0), 1u);
  EXPECT_EQ(certified_with_pad(40), 1u);   // 64 + 24 + 40 = 128, a line end
  EXPECT_EQ(certified_with_pad(8), 0u);    // ends at 96, mid-line
  EXPECT_EQ(certified_with_pad(4), 0u);    // not a multiple of 8: mid-line
  EXPECT_EQ(certified_with_pad(104), 0u);  // ends a line (192), but >= 64
}

// --- online scrubber and the verify stage ----------------------------------

runtime::RuntimeConfig scrub_config(const char* name) {
  runtime::RuntimeConfig config;
  config.region_name = name;
  config.region_size = 64u << 10;
  config.flush = pmem::FlushKind::kCountOnly;
  config.max_threads = 1;
  config.scrub = true;
  return config;
}

/// Run one slice on this thread. The flush worker runs slices too whenever
/// it idles, and a step that finds one running returns false: retry until
/// one of ours ran.
void own_slice(runtime::Scrubber& scrubber) {
  while (!scrubber.step()) std::this_thread::yield();
}

/// Slice until the sweep has wrapped twice: every data line was scanned
/// after this call began.
void full_sweep(runtime::Scrubber& scrubber) {
  const std::uint64_t target = scrubber.stats().passes + 2;
  while (scrubber.stats().passes < target) own_slice(scrubber);
}

constexpr std::uint64_t kJunk = 0xBADC0FFEE0DDF00Dull;

/// Overwrite the word at `p` (in the rig's image) with kJunk and write it
/// back, until the junk is durable: a worker slice may repair it first.
void corrupt_durably(testing::CrashRig& rig, std::uint8_t* p) {
  pmem::FlushMedium& medium = rig;
  const auto base = static_cast<std::uint8_t*>(
      rig.runtime().allocator().region().base());
  std::uint64_t durable = 0;
  do {
    std::memcpy(p, &kJunk, sizeof kJunk);
    medium.write_back(p);
    medium.fence();
    std::memcpy(&durable, rig.durable_image().data() + (p - base),
                sizeof durable);
  } while (durable != kJunk);
}

TEST(Scrubber, RepairsACorruptHeaderAndCountsIt) {
  runtime::Runtime rt(scrub_config("test-scrub-header"));
  auto* base = static_cast<std::uint8_t*>(rt.allocator().region().base());
  const std::size_t n = pmem::PmemAllocator::header_size();
  const std::vector<std::uint8_t> good(base, base + n);
  std::memcpy(base, &kJunk, sizeof kJunk);
  own_slice(*rt.scrubber());
  EXPECT_EQ(rt.scrub_stats().metadata_repairs, 1u);
  EXPECT_EQ(rt.health().scrub_metadata_repairs, 1u);
  EXPECT_EQ(std::memcmp(base, good.data(), n), 0);
  rt.destroy_storage();
}

TEST(Scrubber, HeaderRepairReachesTheDurableImage) {
  runtime::RuntimeConfig config = testing::rig_runtime_config();
  config.scrub = true;
  testing::CrashRig rig(config);
  auto* base = static_cast<std::uint8_t*>(
      rig.runtime().allocator().region().base());
  const std::size_t n = pmem::PmemAllocator::header_size();
  const std::vector<std::uint8_t> good(base, base + n);
  corrupt_durably(rig, base);
  own_slice(*rig.runtime().scrubber());
  const std::vector<std::uint8_t> image = rig.durable_image();
  EXPECT_EQ(std::memcmp(image.data(), good.data(), n), 0)
      << "the repaired header never reached media";
}

TEST(Scrubber, RepairsALogMagicDurably) {
  runtime::RuntimeConfig config = testing::rig_runtime_config();
  config.scrub = true;
  testing::CrashRig rig(config);
  auto* log = static_cast<std::uint8_t*>(
                  rig.runtime().allocator().region().base()) +
              rig.image_log_offset(0);
  corrupt_durably(rig, log);
  own_slice(*rig.runtime().scrubber());
  // Worker slices may have repaired earlier attempts of corrupt_durably.
  EXPECT_GE(rig.runtime().scrub_stats().metadata_repairs, 1u);
  std::uint64_t magic = 0;
  std::memcpy(&magic, log, sizeof magic);
  EXPECT_EQ(magic, runtime::UndoLog::kMagic);
  std::memcpy(&magic, rig.durable_image().data() + rig.image_log_offset(0),
              sizeof magic);
  EXPECT_EQ(magic, runtime::UndoLog::kMagic)
      << "the repaired log magic never reached media";
}

TEST(Scrubber, QuarantinesBadMediaLinesAndForgoesTheSeal) {
  // One run per media: healthy media seals at shutdown; media the fault
  // model marks bad is quarantined by the sweep, and the destructor then
  // leaves the heap unsealed.
  for (const bool bad_media : {false, true}) {
    SCOPED_TRACE(bad_media ? "bad media" : "healthy media");
    runtime::RuntimeConfig config = scrub_config("test-scrub-quarantine");
    if (bad_media) {
      config.fault.bad_line_rate = 0.05;
      config.fault.seed = 7;
    }
    {
      runtime::Runtime rt(config);
      full_sweep(*rt.scrubber());
      const runtime::ScrubStats stats = rt.scrub_stats();
      const runtime::HealthReport health = rt.health();
      EXPECT_EQ(health.quarantined_lines.size(), stats.media_quarantines);
      EXPECT_EQ(health.scrub_media_quarantines, stats.media_quarantines);
      if (bad_media) {
        EXPECT_GT(stats.media_quarantines, 0u);
      } else {
        EXPECT_EQ(stats.media_quarantines, 0u);
      }
    }
    {
      const pmem::PmemRegion region =
          pmem::PmemRegion::open(config.region_name);
      const auto st =
          pmem::PmemAllocator::inspect(region.base(), region.size());
      EXPECT_EQ(st.seal_valid, !bad_media);
    }
    pmem::PmemRegion::destroy(config.region_name);
  }
}

TEST(Scrubber, CountsACommittedLineCorruptedAtRest) {
  runtime::RuntimeConfig config = scrub_config("test-scrub-at-rest");
  config.verify_data = true;
  runtime::Runtime rt(config);
  auto* p = static_cast<std::uint64_t*>(rt.pm_alloc(kCacheLineSize));
  rt.fase_begin();
  rt.pstore(p[0], std::uint64_t{42});
  ASSERT_TRUE(rt.fase_end());
  full_sweep(*rt.scrubber());
  EXPECT_EQ(rt.scrub_stats().checksum_mismatches, 0u);
  p[0] = 43;  // flipped at rest: no store reported it
  full_sweep(*rt.scrubber());
  EXPECT_GE(rt.scrub_stats().checksum_mismatches, 1u);
  EXPECT_GE(rt.health().scrub_checksum_mismatches, 1u);
  rt.destroy_storage();
}

TEST(Scrubber, SkipsLinesOfAnOpenFase) {
  runtime::RuntimeConfig config = scrub_config("test-scrub-open-fase");
  config.verify_data = true;
  runtime::Runtime rt(config);
  auto* p = static_cast<std::uint64_t*>(rt.pm_alloc(kCacheLineSize));
  rt.fase_begin();
  rt.pstore(p[0], std::uint64_t{42});
  ASSERT_TRUE(rt.fase_end());
  // In flight: the bytes differ from the committed checksum, but the
  // line is dirty, so no check may fire.
  rt.fase_begin();
  rt.pstore(p[0], std::uint64_t{43});
  full_sweep(*rt.scrubber());
  EXPECT_EQ(rt.scrub_stats().checksum_mismatches, 0u);
  ASSERT_TRUE(rt.fase_end());
  full_sweep(*rt.scrubber());
  EXPECT_EQ(rt.scrub_stats().checksum_mismatches, 0u);
  rt.destroy_storage();
}

/// A heap-backed medium whose data write lets one scrub slice land right
/// after the bytes change: the window a pstore keeps closed by dirtying
/// the line in the verify table before writing it.
class ScrubAfterStoreMedium final : public runtime::Medium {
 public:
  void* data_region(std::size_t size) override {
    data_.reset(static_cast<char*>(std::aligned_alloc(4096, size)));
    std::memset(data_.get(), 0, size);
    return data_.get();
  }
  void* log_region(std::size_t) override { return nullptr; }  // no log
  void store(void* dst, const void* src, std::size_t len) override {
    std::memcpy(dst, src, len);
    if (rt != nullptr) own_slice(*rt->scrubber());
  }
  bool manual_flush() const override { return false; }
  bool write_back(const void*) override { return true; }
  void fence() override {}

  runtime::Runtime* rt = nullptr;

 private:
  std::unique_ptr<char, decltype(&std::free)> data_{nullptr, &std::free};
};

TEST(Scrubber, ASliceRightAfterAStoreSeesTheLineDirty) {
  // One batch covers the whole 64-line region, so the slice inside
  // store() checks the stored line whatever the cursor.
  runtime::RuntimeConfig config = scrub_config("test-scrub-store-window");
  config.region_size = runtime::Scrubber::kBatchLines * kCacheLineSize;
  config.verify_data = true;
  ScrubAfterStoreMedium medium;
  runtime::Runtime rt(config, &medium);
  auto* p = static_cast<std::uint64_t*>(rt.pm_alloc(kCacheLineSize));
  medium.rt = &rt;
  rt.fase_begin();
  rt.pstore(p[0], std::uint64_t{42});
  ASSERT_TRUE(rt.fase_end());
  // Committed at 42; the next store's bytes land before its commit.
  rt.fase_begin();
  rt.pstore(p[0], std::uint64_t{43});
  ASSERT_TRUE(rt.fase_end());
  EXPECT_EQ(rt.scrub_stats().checksum_mismatches, 0u)
      << "a slice between the data write and the dirty mark checked new "
      << "bytes against the old commit's checksum";
  medium.rt = nullptr;
}

TEST(Scrubber, PassesAdvanceAfterAFullSweep) {
  const runtime::RuntimeConfig config = scrub_config("test-scrub-passes");
  runtime::Runtime rt(config);
  const std::size_t lines = config.region_size / kCacheLineSize;
  const std::size_t slices =
      (lines + runtime::Scrubber::kBatchLines - 1) /
      runtime::Scrubber::kBatchLines;
  for (std::size_t i = 0; i < slices; ++i) own_slice(*rt.scrubber());
  EXPECT_GE(rt.scrub_stats().passes, 1u);
  EXPECT_GE(rt.scrub_stats().lines_scanned, lines);
  rt.destroy_storage();
}

TEST(Scrubber, ShutdownStopsSlices) {
  runtime::Runtime rt(scrub_config("test-scrub-shutdown"));
  own_slice(*rt.scrubber());
  rt.scrubber()->shutdown();
  const std::uint64_t slices = rt.scrub_stats().slices;
  EXPECT_FALSE(rt.scrubber()->step());
  // The flush worker idles every 200 us: give it many chances.
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_EQ(rt.scrub_stats().slices, slices);
  rt.destroy_storage();
}

TEST(VerifyStage, RecoverFlagsACorruptedCommittedLine) {
  runtime::RuntimeConfig config;
  config.region_name = "test-verify-stage";
  config.region_size = 64u << 10;
  config.flush = pmem::FlushKind::kCountOnly;
  config.max_threads = 1;
  config.undo_logging = true;
  config.log_segment_size = 32u << 10;
  config.verify_data = true;
  runtime::Runtime rt(config);
  auto* p = static_cast<std::uint64_t*>(rt.pm_alloc(kCacheLineSize));
  rt.fase_begin();
  rt.pstore(p[0], std::uint64_t{42});
  ASSERT_TRUE(rt.fase_end());
  rt.recover();
  EXPECT_EQ(rt.last_recovery().data_lines_failed_verify, 0u);
  p[0] = 43;  // flipped at rest
  rt.recover();
  const runtime::RecoveryReport report = rt.last_recovery();
  EXPECT_EQ(report.data_lines_failed_verify, 1u);
  ASSERT_FALSE(report.defects.empty());
  EXPECT_NE(report.defects.back().find("fails its commit-time checksum"),
            std::string::npos);
  rt.destroy_storage();
}

}  // namespace
}  // namespace nvc
