// Direct unit tests for the durable undo log (runtime/undo_log), including
// the strict per-record and batched per-epoch durability protocols, the
// once-per-epoch tail publish both share (checked against a ShadowPmem
// durable image), the line-aligned strict layout, batched coalescing of
// contiguous records, and the self-certifying entry format the recovery
// walk depends on.
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <vector>

#include "common/checksum.hpp"
#include "common/rng.hpp"
#include "pmem/flush.hpp"
#include "pmem/shadow.hpp"
#include "runtime/backend_sink.hpp"
#include "runtime/recovery.hpp"
#include "runtime/undo_log.hpp"

namespace nvc::runtime {
namespace {

struct LogFixture : public ::testing::Test {
  LogFixture()
      : buffer(static_cast<char*>(std::aligned_alloc(64, kSize)), &std::free),
        backend(pmem::FlushKind::kCountOnly),
        sink(&backend) {
    std::memset(buffer.get(), 0, kSize);
  }

  UndoLog make_log(LogSyncMode mode = LogSyncMode::kStrict) {
    return UndoLog(buffer.get(), kSize, &sink, mode);
  }

  static constexpr std::size_t kSize = 16 * 1024;
  std::unique_ptr<char, decltype(&std::free)> buffer;
  pmem::FlushBackend backend;
  BackendSink sink;
};

/// An undo log living inside a ShadowPmem: its write-backs copy lines into
/// the durable image (what a crash would leave), and every line and fence
/// issued is recorded.
struct ShadowLog {
  struct Sink final : core::FlushSink {
    explicit Sink(pmem::ShadowPmem* s)
        : shadow(s),
          shift(line_of(reinterpret_cast<PmAddr>(s->volatile_base()))) {}
    bool flush_line(LineAddr line) override {
      lines.push_back(line - shift);
      return shadow->flush_line(line - shift);
    }
    void drain() override { ++fences; }

    pmem::ShadowPmem* shadow;
    LineAddr shift;
    std::vector<LineAddr> lines;  // segment-relative, in issue order
    std::uint64_t fences = 0;
  };

  explicit ShadowLog(LogSyncMode mode)
      : shadow(kSize), sink(&shadow), log(shadow.volatile_base(), kSize,
                                          &sink, mode) {}

  /// The untrusted view recovery would get of the durable segment.
  UndoLog::Inspection durable() const {
    std::vector<std::uint8_t> image(kSize);
    shadow.load_durable(0, image.data(), image.size());
    return UndoLog::inspect(image.data(), image.size());
  }
  std::uint64_t header_writes() const { return shadow.line_write_count(0); }

  static constexpr std::size_t kSize = 16 * 1024;
  pmem::ShadowPmem shadow;
  Sink sink;
  UndoLog log;
};

TEST_F(LogFixture, FormatProducesValidEmptyLog) {
  UndoLog log = make_log();
  log.format();
  EXPECT_TRUE(log.valid());
  EXPECT_FALSE(log.needs_recovery());
  EXPECT_EQ(log.tail(), UndoLog::kHeaderSize);
}

TEST_F(LogFixture, UnformattedBufferIsInvalid) {
  UndoLog log = make_log();
  EXPECT_FALSE(log.valid());
  EXPECT_FALSE(log.needs_recovery());
}

TEST_F(LogFixture, RecordAdvancesTailAndNeedsRecovery) {
  // record() advances the appended tail; the durable tail follows at the
  // next sync().
  UndoLog log = make_log();
  log.format();
  const std::uint64_t old_value = 0x1111;
  log.record(/*addr_token=*/100, &old_value, sizeof old_value);
  EXPECT_TRUE(log.needs_recovery());
  EXPECT_GT(log.appended_tail(), UndoLog::kHeaderSize);
  EXPECT_EQ(log.tail(), UndoLog::kHeaderSize);
  EXPECT_EQ(log.records(), 1u);
  EXPECT_TRUE(log.sync());
  EXPECT_EQ(log.tail(), log.appended_tail());
}

TEST_F(LogFixture, CommitTruncates) {
  UndoLog log = make_log();
  log.format();
  const std::uint64_t v = 7;
  log.record(1, &v, sizeof v);
  log.commit();
  EXPECT_FALSE(log.needs_recovery());
  EXPECT_EQ(log.tail(), UndoLog::kHeaderSize);
}

TEST_F(LogFixture, RollbackAppliesNewestFirst) {
  UndoLog log = make_log();
  log.format();
  const std::uint64_t first = 0xAAAA;
  const std::uint64_t second = 0xBBBB;
  log.record(500, &first, sizeof first);   // older value of token 500
  log.record(500, &second, sizeof second); // newer overwrite of same token
  std::vector<std::uint64_t> applied;
  log.rollback([&](std::uint64_t token, const void* bytes, std::uint32_t len) {
    EXPECT_EQ(token, 500u);
    EXPECT_EQ(len, sizeof(std::uint64_t));
    std::uint64_t v;
    std::memcpy(&v, bytes, sizeof v);
    applied.push_back(v);
  });
  // Newest record first, so the final applied value is the *oldest* state.
  ASSERT_EQ(applied.size(), 2u);
  EXPECT_EQ(applied[0], second);
  EXPECT_EQ(applied[1], first);
  EXPECT_FALSE(log.needs_recovery());
}

TEST_F(LogFixture, RollbackRestoresExactBytesForManyRecords) {
  UndoLog log = make_log();
  log.format();
  Rng rng(6);
  // Simulated "memory": token -> value history; rollback must restore the
  // first (oldest) logged value per token.
  std::map<std::uint64_t, std::uint32_t> oldest;
  for (int i = 0; i < 100; ++i) {
    const std::uint64_t token = rng.below(20) * 8;
    const auto value = static_cast<std::uint32_t>(rng());
    log.record(token, &value, sizeof value);
    oldest.try_emplace(token, value);
  }
  std::map<std::uint64_t, std::uint32_t> restored;
  log.rollback([&](std::uint64_t token, const void* bytes, std::uint32_t len) {
    ASSERT_EQ(len, sizeof(std::uint32_t));
    std::uint32_t v;
    std::memcpy(&v, bytes, len);
    restored[token] = v;  // later (older) applications overwrite
  });
  EXPECT_EQ(restored, oldest);
}

TEST_F(LogFixture, VariablePayloadSizes) {
  UndoLog log = make_log();
  log.format();
  std::vector<char> payload(UndoLog::kMaxPayload, 'x');
  log.record(0, payload.data(), 1);
  log.record(8, payload.data(), 13);  // non-multiple-of-8 length
  log.record(16, payload.data(), UndoLog::kMaxPayload);
  std::size_t seen = 0;
  std::vector<std::uint32_t> lens;
  log.rollback([&](std::uint64_t, const void* bytes, std::uint32_t len) {
    ++seen;
    lens.push_back(len);
    EXPECT_EQ(static_cast<const char*>(bytes)[0], 'x');
  });
  EXPECT_EQ(seen, 3u);
  EXPECT_EQ(lens, (std::vector<std::uint32_t>{UndoLog::kMaxPayload, 13, 1}));
}

TEST_F(LogFixture, StrictRecordPersistsEntryBeforeTail) {
  // Strict protocol check: each record() writes back exactly the entry's
  // lines and fences once, leaving the header line unwritten; sync() then
  // publishes the tail covering it — one header write-back, one fence.
  ShadowLog s(LogSyncMode::kStrict);
  s.log.format();
  for (const std::size_t len : {std::size_t{8}, std::size_t{200}}) {
    const std::vector<char> value(len, 'v');
    const std::uint64_t entry_at = s.log.appended_tail();
    s.sink.lines.clear();
    s.sink.fences = 0;
    s.log.record(0, value.data(), len);
    std::vector<LineAddr> entry_lines;
    for (LineAddr line = line_of(entry_at);
         line <= line_of(s.log.appended_tail() - 1); ++line) {
      entry_lines.push_back(line);
    }
    EXPECT_EQ(s.sink.lines, entry_lines) << len;
    EXPECT_EQ(s.sink.fences, 1u) << len;
    EXPECT_EQ(s.log.tail(), UndoLog::kHeaderSize) << len;
  }
  EXPECT_EQ(s.log.sync_points(), 2u);
  EXPECT_EQ(s.header_writes(), 1u);  // format() only

  s.sink.lines.clear();
  s.sink.fences = 0;
  EXPECT_TRUE(s.log.sync());
  EXPECT_EQ(s.sink.lines, std::vector<LineAddr>{0});
  EXPECT_EQ(s.sink.fences, 1u);
  EXPECT_EQ(s.log.tail(), s.log.appended_tail());
  EXPECT_EQ(s.log.sync_points(), 2u);  // the publish persists no entry
  EXPECT_EQ(s.header_writes(), 2u);
}

TEST(UndoLogDurability, DurableImageCertifiesEveryStrictRecordAtReturn) {
  // Property over random record/sync/commit sequences: after every strict
  // record() returns, the *durable* image certifies every record of the
  // open generation (rollback would find it after a crash here). In both
  // modes a sync() leaves the durable tail covering every record, and the
  // header line is written back once per epoch plus once per commit.
  for (const LogSyncMode mode : {LogSyncMode::kStrict, LogSyncMode::kBatched}) {
    ShadowLog s(mode);
    s.log.format();
    Rng rng(16);
    std::vector<char> payload(2 * UndoLog::kMaxPayload + 40);
    std::uint64_t epochs = 0;
    std::uint64_t commits = 0;
    std::uint64_t records_at_commit = 0;
    bool unpublished = false;  // records appended since the last publish
    for (int round = 0; round < 60; ++round) {
      const std::uint64_t records = rng.below(5);
      for (std::uint64_t r = 0; r < records; ++r) {
        const std::size_t len = 1 + rng.below(payload.size());
        for (char& b : payload) b = static_cast<char>(rng());
        s.log.record(8 * rng.below(64), payload.data(), len);
        unpublished = true;
        if (mode != LogSyncMode::kStrict) continue;
        const UndoLog::Inspection ins = s.durable();
        ASSERT_TRUE(ins.tail_covered) << round;
        EXPECT_EQ(ins.offsets.size(), s.log.records() - records_at_commit)
            << round;
        EXPECT_EQ(ins.certified_extent, s.log.appended_tail()) << round;
      }
      // Most epochs end in a sync (a data write-back); some commit with
      // the tail never published past the entries.
      if (rng.below(4) != 0) {
        EXPECT_TRUE(s.log.sync());
        EXPECT_TRUE(s.log.sync());  // nothing pending: no header write
        if (unpublished) ++epochs;
        unpublished = false;
        const UndoLog::Inspection ins = s.durable();
        EXPECT_EQ(ins.durable_tail, s.log.appended_tail()) << round;
        EXPECT_EQ(ins.certified_extent, s.log.appended_tail()) << round;
      }
      if (rng.below(2) == 0) {
        EXPECT_TRUE(s.log.commit());
        ++commits;
        records_at_commit = s.log.records();
        unpublished = false;
      }
      ASSERT_EQ(s.header_writes(), 1 + epochs + commits)
          << to_string(mode) << " round " << round;
    }
    EXPECT_GT(epochs, 10u);
    EXPECT_GT(commits, 10u);
  }
}

TEST_F(LogFixture, OverflowAborts) {
  UndoLog log = make_log();
  log.format();
  std::vector<char> payload(UndoLog::kMaxPayload, 'y');
  EXPECT_DEATH(
      {
        for (int i = 0; i < 100000; ++i) {
          log.record(0, payload.data(), UndoLog::kMaxPayload);
        }
      },
      "overflow");
}

TEST_F(LogFixture, ReopenedLogSeesPriorRecords) {
  // A second UndoLog over the same bytes (a restarted process) sees the
  // uncommitted records of the first.
  {
    UndoLog log = make_log();
    log.format();
    const std::uint64_t v = 3;
    log.record(42, &v, sizeof v);
  }
  UndoLog reopened = make_log();
  EXPECT_TRUE(reopened.valid());
  EXPECT_TRUE(reopened.needs_recovery());
  std::size_t count = 0;
  reopened.rollback([&](std::uint64_t token, const void*, std::uint32_t) {
    EXPECT_EQ(token, 42u);
    ++count;
  });
  EXPECT_EQ(count, 1u);
}

// --- batched (epoch) durability ---------------------------------------------

TEST_F(LogFixture, BatchedRecordIssuesNoFlushesUntilSync) {
  UndoLog log = make_log(LogSyncMode::kBatched);
  log.format();
  backend.reset_counters();
  const std::uint64_t v = 9;
  for (int i = 0; i < 50; ++i) log.record(8 * i, &v, sizeof v);
  EXPECT_EQ(backend.flush_count(), 0u);
  EXPECT_EQ(backend.fence_count(), 0u);
  EXPECT_EQ(log.tail(), UndoLog::kHeaderSize);  // durable tail lags
  EXPECT_GT(log.appended_tail(), UndoLog::kHeaderSize);
  EXPECT_EQ(log.sync_points(), 0u);

  log.sync();
  // One epoch: one flush of the dirty log range + fence, one tail publish
  // + fence — not 2 * records.
  EXPECT_EQ(backend.fence_count(), 2u);
  EXPECT_LT(backend.flush_count(), 50u);
  EXPECT_EQ(log.sync_points(), 1u);
  EXPECT_EQ(log.tail(), log.appended_tail());

  backend.reset_counters();
  log.sync();  // nothing pending: O(1) no-op
  EXPECT_EQ(backend.flush_count(), 0u);
  EXPECT_EQ(backend.fence_count(), 0u);
}

TEST_F(LogFixture, BatchedUnsyncedEntriesSelfCertifyAcrossReopen) {
  // A crash before any sync leaves the durable tail at the header, but the
  // appended entries are found by the footer-walk (in the tmpfs/eADR model
  // the bytes are present; the check word certifies them). Tokens 0 and 8
  // are adjacent, so the second record grew the first entry: one entry
  // restores both old values.
  {
    UndoLog log = make_log(LogSyncMode::kBatched);
    log.format();
    const std::uint64_t a = 0xA, b = 0xB;
    log.record(0, &a, sizeof a);
    log.record(8, &b, sizeof b);
    // no sync, no commit: crash
  }
  UndoLog reopened = make_log(LogSyncMode::kBatched);
  EXPECT_TRUE(reopened.needs_recovery());
  EXPECT_EQ(reopened.tail(), UndoLog::kHeaderSize);
  EXPECT_GT(reopened.appended_tail(), UndoLog::kHeaderSize);
  std::vector<std::uint64_t> tokens;
  std::vector<std::uint64_t> values;
  reopened.rollback([&](std::uint64_t token, const void* bytes,
                        std::uint32_t len) {
    tokens.push_back(token);
    ASSERT_EQ(len, 16u);
    values.resize(2);
    std::memcpy(values.data(), bytes, len);
  });
  EXPECT_EQ(tokens, (std::vector<std::uint64_t>{0}));
  EXPECT_EQ(values, (std::vector<std::uint64_t>{0xA, 0xB}));
}

TEST_F(LogFixture, BatchedUnsyncedSeparateEntriesSelfCertifyAcrossReopen) {
  // The same crash with records that do not touch: two entries, rolled
  // back newest first.
  {
    UndoLog log = make_log(LogSyncMode::kBatched);
    log.format();
    const std::uint64_t a = 0xA, b = 0xB;
    log.record(0, &a, sizeof a);
    log.record(16, &b, sizeof b);
  }
  UndoLog reopened = make_log(LogSyncMode::kBatched);
  EXPECT_TRUE(reopened.needs_recovery());
  EXPECT_EQ(reopened.tail(), UndoLog::kHeaderSize);
  std::vector<std::uint64_t> tokens;
  reopened.rollback([&](std::uint64_t token, const void*, std::uint32_t) {
    tokens.push_back(token);
  });
  EXPECT_EQ(tokens, (std::vector<std::uint64_t>{16, 0}));  // newest first
}

TEST_F(LogFixture, CommittedGenerationEntriesAreNotReplayed) {
  // After commit() the entry bytes still sit in the segment, but the
  // generation bump de-certifies them: a reopen must find nothing, even
  // though the stale chain is intact byte-for-byte.
  {
    UndoLog log = make_log(LogSyncMode::kBatched);
    log.format();
    const std::uint64_t v = 0xDEAD;
    log.record(16, &v, sizeof v);
    log.sync();
    log.commit();
  }
  UndoLog reopened = make_log(LogSyncMode::kBatched);
  EXPECT_TRUE(reopened.valid());
  EXPECT_FALSE(reopened.needs_recovery());
  std::size_t replayed = 0;
  reopened.rollback(
      [&](std::uint64_t, const void*, std::uint32_t) { ++replayed; });
  EXPECT_EQ(replayed, 0u);
}

TEST_F(LogFixture, TornEntryStopsTheRecoveryWalk) {
  // Corrupt the payload of the newest (unsynced) entry: its check word must
  // fail and recovery must replay only the intact prefix.
  UndoLog log = make_log(LogSyncMode::kBatched);
  log.format();
  const std::uint64_t a = 1, b = 2;
  log.record(0, &a, sizeof a);
  const std::uint64_t second_at = log.appended_tail();
  log.record(8, &b, sizeof b);
  buffer.get()[second_at + 16] ^= 0x5a;  // flip a payload byte (torn write)
  std::vector<std::uint64_t> tokens;
  log.rollback([&](std::uint64_t token, const void*, std::uint32_t) {
    tokens.push_back(token);
  });
  EXPECT_EQ(tokens, (std::vector<std::uint64_t>{0}));
}

TEST_F(LogFixture, NewGenerationRecordsAfterRecommitAreFound) {
  // Cycle: record+commit, then record again — only the second generation's
  // entry may be visible to recovery.
  UndoLog log = make_log();
  log.format();
  const std::uint64_t v1 = 1, v2 = 2;
  log.record(100, &v1, sizeof v1);
  log.commit();
  log.record(200, &v2, sizeof v2);
  std::vector<std::uint64_t> tokens;
  log.rollback([&](std::uint64_t token, const void*, std::uint32_t) {
    tokens.push_back(token);
  });
  EXPECT_EQ(tokens, (std::vector<std::uint64_t>{200}));
}

// --- entry layout: line-aligned strict entries -------------------------------

std::uint64_t entry_bytes(std::size_t len) {
  return sizeof(UndoLog::EntryHead) + align_up(len, 8);
}

/// How many of the entries at `offsets` carry a line pad.
std::size_t padded_entries(const char* seg,
                           const std::vector<std::uint64_t>& offsets) {
  std::size_t padded = 0;
  for (const std::uint64_t at : offsets) {
    UndoLog::EntryHead head;
    std::memcpy(&head, seg + at, sizeof(head));
    padded += head.pad != 0 ? 1 : 0;
  }
  return padded;
}

/// Append an entry in the packed layout that predates line alignment, head
/// {u64 token; u32 len; u32 check} with the check word mixing the u32
/// length, computed here without UndoLog. Returns the next entry's offset.
std::uint64_t append_packed_entry(char* seg, std::uint64_t off,
                                  std::uint64_t token, const void* payload,
                                  std::uint32_t len, std::uint32_t gen) {
  struct PackedHead {
    std::uint64_t addr_token;
    std::uint32_t len;
    std::uint32_t check;
  };
  Fnv32 h;
  h.mix_le(token);
  h.mix_le(len);
  h.mix_le(gen);
  h.mix_bytes(payload, len);
  const PackedHead head{token, len, h.value()};
  std::memcpy(seg + off, &head, sizeof(head));
  std::memcpy(seg + off + sizeof(head), payload, len);
  return off + entry_bytes(len);
}

TEST(UndoLogLayout, SixteenStrictEightByteRecordsWriteBackSixteenLines) {
  // Two 24-byte entries share each line and the second pads to its end, so
  // no entry straddles: 16 records, 16 entry-line write-backs (the packed
  // layout took 20), two per line over lines 1..8.
  ShadowLog s(LogSyncMode::kStrict);
  s.log.format();
  s.sink.lines.clear();
  for (std::uint64_t i = 0; i < 16; ++i) {
    s.log.record(8 * i, &i, sizeof i);
    EXPECT_EQ(s.sink.lines.size(), i + 1) << i;
  }
  for (LineAddr line = 1; line <= 8; ++line) {
    EXPECT_EQ(s.shadow.line_write_count(line), 2u) << line;
  }
  EXPECT_EQ(s.shadow.line_write_count(9), 0u);
  EXPECT_EQ(s.log.appended_tail(), UndoLog::kHeaderSize + 8 * kCacheLineSize);
  const UndoLog::Inspection ins = s.durable();
  ASSERT_EQ(ins.offsets.size(), 16u);
  for (std::size_t i = 0; i < 16; ++i) {
    EXPECT_EQ(ins.offsets[i],
              UndoLog::kHeaderSize + (i / 2) * kCacheLineSize + (i % 2) * 24)
        << i;
  }
}

TEST(UndoLogLayout, StrictEntriesOfUpToALineNeverSpanTwoLines) {
  // Equal sizes: every record of every size whose entry fits one line
  // writes back exactly one line.
  for (std::size_t len = 1; entry_bytes(len) <= kCacheLineSize; ++len) {
    ShadowLog s(LogSyncMode::kStrict);
    s.log.format();
    const std::vector<char> value(len, 'e');
    for (int r = 0; r < 20; ++r) {
      s.sink.lines.clear();
      s.log.record(0, value.data(), len);
      ASSERT_EQ(s.sink.lines.size(), 1u) << "len " << len << " record " << r;
    }
  }
  // Mixed sizes: the pad is sized by the entry before, so an entry that is
  // no larger than it (or that starts a line) fits the room left.
  ShadowLog s(LogSyncMode::kStrict);
  s.log.format();
  Rng rng(27);
  const std::vector<char> value(48, 'm');
  std::uint64_t previous = kCacheLineSize;
  std::size_t checked = 0;
  for (int r = 0; r < 2000; ++r) {
    if (s.log.appended_tail() + kCacheLineSize > ShadowLog::kSize) {
      ASSERT_TRUE(s.log.commit());
    }
    const std::size_t len = 1 + rng.below(48);
    const std::uint64_t at = s.log.appended_tail();
    s.sink.lines.clear();
    s.log.record(0, value.data(), len);
    if (entry_bytes(len) <= previous || at % kCacheLineSize == 0) {
      ASSERT_EQ(s.sink.lines.size(), 1u) << "record " << r << " len " << len;
      ++checked;
    }
    previous = entry_bytes(len);
  }
  EXPECT_GT(checked, 1000u);
}

TEST_F(LogFixture, BatchedEntriesKeepThePackedLayout) {
  // Batched mode never pads: a fixed record sequence produces exactly the
  // bytes of the packed format, entry after entry.
  UndoLog log = make_log(LogSyncMode::kBatched);
  log.format();
  std::vector<char> expected(kSize, 0);
  std::uint64_t off = UndoLog::kHeaderSize;
  Rng rng(31);
  std::vector<char> payload(UndoLog::kMaxPayload);
  for (const std::uint32_t len : {8u, 8u, 13u, 1u, 40u, 8u, 256u, 24u, 8u, 48u,
                                  100u, 8u, 8u}) {
    for (char& b : payload) b = static_cast<char>(rng());
    const std::uint64_t token = 8 * rng.below(512);
    log.record(token, payload.data(), len);
    off = append_packed_entry(expected.data(), off, token, payload.data(), len,
                              /*gen=*/1);
  }
  EXPECT_TRUE(log.sync());
  ASSERT_EQ(log.appended_tail(), off);
  EXPECT_EQ(std::memcmp(buffer.get() + UndoLog::kHeaderSize,
                        expected.data() + UndoLog::kHeaderSize,
                        off - UndoLog::kHeaderSize),
            0);
  const UndoLog::Inspection ins = UndoLog::inspect(buffer.get(), kSize);
  EXPECT_EQ(ins.offsets.size(), 13u);
  EXPECT_EQ(padded_entries(buffer.get(), ins.offsets), 0u);
}

TEST_F(LogFixture, BatchedLogDegradedMidFaseRollsBackEveryRecord) {
  // The degradation latch turns a batched log strict inside a FASE: packed
  // entries, then padded ones, in one chain that walks and rolls back whole.
  UndoLog log = make_log(LogSyncMode::kBatched);
  log.format();
  std::vector<std::uint64_t> tokens;
  std::vector<char> payload(40, 'd');
  const auto append = [&](std::size_t len) {
    tokens.push_back(64 * tokens.size());
    log.record(tokens.back(), payload.data(), len);
  };
  for (int i = 0; i < 5; ++i) append(8);
  EXPECT_TRUE(log.sync());
  log.degrade_to_strict();
  for (const std::size_t len : {8, 8, 8, 40, 8, 13, 40, 8}) append(len);

  const UndoLog::Inspection ins = UndoLog::inspect(buffer.get(), kSize);
  ASSERT_EQ(ins.offsets.size(), tokens.size());
  EXPECT_EQ(ins.certified_extent, log.appended_tail());
  EXPECT_GE(padded_entries(buffer.get(), ins.offsets), 2u);

  std::vector<std::uint64_t> rolled;
  EXPECT_EQ(log.rollback([&](std::uint64_t token, const void*,
                             std::uint32_t) { rolled.push_back(token); }),
            tokens.size());
  EXPECT_EQ(rolled, std::vector<std::uint64_t>(tokens.rbegin(), tokens.rend()));
}

/// Salvage a copy of one log segment over the headerless raw cells `data`,
/// with check words (honest) or on len and pad alone (the bug-skip walk).
runtime::RecoveryReport salvage(const std::vector<char>& segment,
                                std::vector<char>& data,
                                bool skip_verification) {
  std::vector<char> seg = segment;
  runtime::RegionView view;
  view.data = data.data();
  view.data_size = data.size();
  view.logs = seg.data();
  view.log_segment_size = seg.size();
  view.log_segments = 1;
  view.heap_header = false;
  runtime::RecoveryManager mgr(view);
  mgr.set_bug_skip_verification(skip_verification);
  return mgr.run();
}

TEST_F(LogFixture, InspectTrustingWalkAndRollbackAgreeOnPaddedSegments) {
  // A strict segment of mixed sizes, pads included. inspect() certifies one
  // offset per record; salvage with and without check words (the bug-skip
  // path walks on len and pad alone) certifies as many and restores the
  // same bytes that rollback() restores.
  UndoLog log = make_log(LogSyncMode::kStrict);
  log.format();
  constexpr std::size_t kData = 4096;
  Rng rng(41);
  std::vector<char> payload(UndoLog::kMaxPayload);
  std::size_t records = 0;
  for (const std::size_t len : {8, 8, 8, 24, 40, 8, 1, 48, 48, 16, 8, 200, 8}) {
    for (char& b : payload) b = static_cast<char>(rng());
    log.record(8 * rng.below((kData - UndoLog::kMaxPayload) / 8),
               payload.data(), len);
    ++records;
  }
  const UndoLog::Inspection ins = UndoLog::inspect(buffer.get(), kSize);
  ASSERT_EQ(ins.offsets.size(), records);
  EXPECT_GE(padded_entries(buffer.get(), ins.offsets), 3u);

  const std::vector<char> segment(buffer.get(), buffer.get() + kSize);
  std::vector<char> data0(kData);
  for (char& b : data0) b = static_cast<char>(rng());
  std::vector<char> honest = data0;
  std::vector<char> trusting = data0;
  const runtime::RecoveryReport a = salvage(segment, honest, false);
  const runtime::RecoveryReport b = salvage(segment, trusting, true);
  ASSERT_EQ(a.segments.size(), 1u);
  ASSERT_EQ(b.segments.size(), 1u);
  EXPECT_EQ(a.segments[0].records_certified, records);
  EXPECT_EQ(b.segments[0].records_certified, records);
  EXPECT_EQ(a.records_undone, records);
  EXPECT_EQ(honest, trusting);

  std::vector<char> rolled = data0;
  std::vector<std::uint64_t> order;
  EXPECT_EQ(log.rollback([&](std::uint64_t token, const void* bytes,
                             std::uint32_t len) {
    order.push_back(token);
    std::memcpy(rolled.data() + token, bytes, len);
  }),
            records);
  EXPECT_EQ(rolled, honest);
  ASSERT_EQ(order.size(), records);
  for (std::size_t i = 0; i < records; ++i) {
    UndoLog::EntryHead head;
    std::memcpy(&head, segment.data() + ins.offsets[records - 1 - i],
                sizeof(head));
    EXPECT_EQ(order[i], head.addr_token) << i;
  }
}

TEST_F(LogFixture, PackedEntriesWrittenBeforeLineAlignmentStillCertify) {
  // An image written by the packed format (u32 len, no pad field) reopens:
  // its entries certify and roll back unchanged.
  char* seg = buffer.get();
  const std::uint64_t a = 0x1111, b = 0x2222;
  const char c[13] = "thirteen byt";
  std::uint64_t off = UndoLog::kHeaderSize;
  off = append_packed_entry(seg, off, 8, &a, sizeof a, /*gen=*/3);
  off = append_packed_entry(seg, off, 16, &b, sizeof b, 3);
  off = append_packed_entry(seg, off, 32, c, sizeof c, 3);
  const UndoLog::LogHeader header{UndoLog::kMagic,
                                  UndoLog::pack_state(3, off)};
  std::memcpy(seg, &header, sizeof(header));

  const UndoLog::Inspection ins = UndoLog::inspect(seg, kSize);
  EXPECT_TRUE(ins.tail_covered);
  EXPECT_EQ(ins.offsets, (std::vector<std::uint64_t>{64, 88, 112}));
  EXPECT_EQ(ins.certified_extent, off);

  UndoLog reopened = make_log();
  EXPECT_TRUE(reopened.needs_recovery());
  EXPECT_EQ(reopened.appended_tail(), off);
  std::vector<std::uint64_t> tokens;
  std::vector<std::uint32_t> lens;
  reopened.rollback([&](std::uint64_t token, const void*, std::uint32_t len) {
    tokens.push_back(token);
    lens.push_back(len);
  });
  EXPECT_EQ(tokens, (std::vector<std::uint64_t>{32, 16, 8}));
  EXPECT_EQ(lens, (std::vector<std::uint32_t>{13, 8, 8}));
}

// --- batched coalescing: one entry per contiguous run -----------------------

/// The certified entry heads of a segment, oldest first.
std::vector<UndoLog::EntryHead> entry_heads(const char* seg, std::size_t size) {
  std::vector<UndoLog::EntryHead> heads;
  for (const std::uint64_t at : UndoLog::inspect(seg, size).offsets) {
    UndoLog::EntryHead head;
    std::memcpy(&head, seg + at, sizeof(head));
    heads.push_back(head);
  }
  return heads;
}

/// Payload lengths of the certified entries, oldest first.
std::vector<std::uint32_t> entry_lens(const char* seg, std::size_t size) {
  std::vector<std::uint32_t> lens;
  for (const UndoLog::EntryHead& head : entry_heads(seg, size)) {
    lens.push_back(head.len);
  }
  return lens;
}

/// A sink whose write-backs can be made to fail.
struct FailingSink final : core::FlushSink {
  bool flush_line(LineAddr) override { return !fail; }
  void drain() override {}
  bool fail = false;
};

TEST_F(LogFixture, BatchedAdjacentRecordsCoalesceIntoOneEntry) {
  UndoLog log = make_log(LogSyncMode::kBatched);
  log.format();
  const std::uint64_t a = 0xA1A1, b = 0xB2B2;
  log.record(64, &a, sizeof a);
  log.record(72, &b, sizeof b);
  EXPECT_EQ(log.records(), 1u);
  EXPECT_EQ(log.bytes_logged(), 32u);
  EXPECT_EQ(log.appended_tail(), UndoLog::kHeaderSize + 32);

  const std::vector<UndoLog::EntryHead> heads =
      entry_heads(buffer.get(), kSize);
  ASSERT_EQ(heads.size(), 1u);
  EXPECT_EQ(heads[0].addr_token, 64u);
  EXPECT_EQ(heads[0].len, 16u);
  EXPECT_EQ(heads[0].pad, 0u);
  std::uint64_t payload[2];
  std::memcpy(payload, buffer.get() + UndoLog::kHeaderSize + 16,
              sizeof payload);
  EXPECT_EQ(payload[0], a);
  EXPECT_EQ(payload[1], b);
  // The grown entry is an ordinary one: its check word is the format's.
  EXPECT_EQ(heads[0].check, UndoLog::entry_check(64, 16, 1, payload));
}

TEST_F(LogFixture, BatchedCoalescingStopsAtEachLimit) {
  const std::vector<char> v(UndoLog::kMaxPayload, 'c');
  const auto lens_after = [&](const auto& script) {
    std::memset(buffer.get(), 0, kSize);
    UndoLog log = make_log(LogSyncMode::kBatched);
    log.format();
    script(log);
    return entry_lens(buffer.get(), kSize);
  };
  using Lens = std::vector<std::uint32_t>;
  // A gap, an overlap, the same token again, a record that ends where the
  // entry starts: each appends.
  for (const std::uint64_t second : {16u, 4u, 0u}) {
    EXPECT_EQ(lens_after([&](UndoLog& log) {
                log.record(0, v.data(), 8);
                log.record(second, v.data(), 8);
              }),
              (Lens{8, 8}))
        << second;
  }
  EXPECT_EQ(lens_after([&](UndoLog& log) {
              log.record(8, v.data(), 8);
              log.record(0, v.data(), 8);
            }),
            (Lens{8, 8}));
  // Odd lengths continue on the exact byte.
  EXPECT_EQ(lens_after([&](UndoLog& log) {
              log.record(0, v.data(), 13);
              log.record(13, v.data(), 3);
              log.record(16, v.data(), 1);
            }),
            (Lens{17}));
  // The grown payload stops at 48 bytes: a run of eight 8-byte records is
  // one full entry and a second one.
  EXPECT_EQ(lens_after([&](UndoLog& log) {
              for (std::uint64_t i = 0; i < 8; ++i) {
                log.record(8 * i, v.data(), 8);
              }
            }),
            (Lens{48, 16}));
  EXPECT_EQ(lens_after([&](UndoLog& log) {
              log.record(0, v.data(), 40);
              log.record(40, v.data(), 8);
              log.record(48, v.data(), 1);
            }),
            (Lens{48, 1}));
  EXPECT_EQ(lens_after([&](UndoLog& log) {
              log.record(0, v.data(), 41);
              log.record(41, v.data(), 8);
            }),
            (Lens{41, 8}));
  // A sync persists the entry; commit() ends its generation; a failed sync
  // may have written it back too.
  EXPECT_EQ(lens_after([&](UndoLog& log) {
              log.record(0, v.data(), 8);
              EXPECT_TRUE(log.sync());
              log.record(8, v.data(), 8);
            }),
            (Lens{8, 8}));
  EXPECT_EQ(lens_after([&](UndoLog& log) {
              log.record(0, v.data(), 8);
              EXPECT_TRUE(log.commit());
              log.record(8, v.data(), 8);
              log.record(16, v.data(), 8);
            }),
            (Lens{16}));
  FailingSink failing;
  EXPECT_EQ(lens_after([&](UndoLog& log) {
              log.set_sink(&failing);
              log.record(0, v.data(), 8);
              failing.fail = true;
              EXPECT_FALSE(log.sync());
              failing.fail = false;
              log.record(8, v.data(), 8);
              log.set_sink(&sink);
            }),
            (Lens{8, 8}));
  // The grown entry must stay inside the segment: a record that would grow
  // the last entry past the end appends instead (and overflows).
  UndoLog tight(buffer.get(), UndoLog::kHeaderSize + UndoLog::kMaxPayload +
                                  sizeof(UndoLog::EntryHead) + 24,
                &sink, LogSyncMode::kBatched);
  tight.format();
  tight.record(0, v.data(), UndoLog::kMaxPayload);
  tight.record(1000, v.data(), 8);
  EXPECT_EQ(tight.records(), 2u);
  EXPECT_DEATH(tight.record(1008, v.data(), 8), "overflow");
}

TEST_F(LogFixture, BatchedSplitRecordNeverMergesItsFirstPiece) {
  // A record longer than kMaxPayload splits into pieces; the 256-byte
  // first piece never joins the open entry before it, and only a short
  // last piece stays open to the records after it.
  UndoLog log = make_log(LogSyncMode::kBatched);
  log.format();
  const std::vector<char> v(600, 's');
  log.record(0, v.data(), 8);
  log.record(8, v.data(), 300);
  EXPECT_EQ(entry_lens(buffer.get(), kSize),
            (std::vector<std::uint32_t>{8, 256, 44}));
  log.record(308, v.data(), 4);
  log.record(312, v.data(), 1);
  EXPECT_EQ(entry_lens(buffer.get(), kSize),
            (std::vector<std::uint32_t>{8, 256, 48, 1}));
  EXPECT_EQ(log.records(), 4u);
  std::vector<std::uint64_t> tokens;
  log.rollback([&](std::uint64_t token, const void*, std::uint32_t) {
    tokens.push_back(token);
  });
  EXPECT_EQ(tokens, (std::vector<std::uint64_t>{312, 264, 8, 0}));
}

TEST_F(LogFixture, BatchedLogDegradedMidFaseExtendsNoEntry) {
  // After the degradation latch every record is a strict, persisted entry,
  // even one that continues the entry appended just before the latch.
  UndoLog log = make_log(LogSyncMode::kBatched);
  log.format();
  const std::vector<char> v(8, 'd');
  log.record(0, v.data(), 8);
  log.record(8, v.data(), 8);
  log.degrade_to_strict();
  log.record(16, v.data(), 8);
  log.record(24, v.data(), 8);
  log.record(32, v.data(), 8);
  EXPECT_EQ(entry_lens(buffer.get(), kSize),
            (std::vector<std::uint32_t>{16, 8, 8, 8}));
  EXPECT_EQ(log.records(), 4u);
}

TEST_F(LogFixture, StrictAdjacentRecordsKeepTheLineAlignedLayout) {
  // Strict entries are durable as written and never grow: the adjacent
  // 8-byte sequence that coalesces in batched mode produces exactly the
  // line-aligned bytes built here by hand, one entry per record.
  UndoLog log = make_log(LogSyncMode::kStrict);
  log.format();
  std::vector<char> expected(kSize, 0);
  for (std::uint64_t i = 0; i < 16; ++i) {
    const std::uint64_t value = 0x5100 + i;
    log.record(8 * i, &value, sizeof value);
    // Two 24-byte entries per line; the second pads the line's last 16.
    const std::uint64_t off =
        UndoLog::kHeaderSize + (i / 2) * kCacheLineSize + (i % 2) * 24;
    const std::uint16_t pad = i % 2 == 1 ? 16 : 0;
    const UndoLog::EntryHead head{
        8 * i, 8, pad, UndoLog::entry_check(8 * i, 8, 1, &value, pad)};
    std::memcpy(expected.data() + off, &head, sizeof head);
    std::memcpy(expected.data() + off + sizeof head, &value, sizeof value);
  }
  EXPECT_EQ(log.records(), 16u);
  EXPECT_EQ(log.bytes_logged(), 16u * 24);
  ASSERT_EQ(log.appended_tail(), UndoLog::kHeaderSize + 8 * kCacheLineSize);
  EXPECT_EQ(std::memcmp(buffer.get() + UndoLog::kHeaderSize,
                        expected.data() + UndoLog::kHeaderSize,
                        8 * kCacheLineSize),
            0);
}

TEST(UndoLogDurability, BatchedCoalescedEntriesPersistWithFewerLines) {
  // kv's shape: eight records of 8 + 8 adjacent bytes, one per line. The
  // sync writes back four entry lines (eight 32-byte entries) and the
  // durable image certifies the eight grown entries.
  ShadowLog s(LogSyncMode::kBatched);
  s.log.format();
  s.sink.lines.clear();
  for (std::uint64_t r = 0; r < 8; ++r) {
    const std::uint64_t balance = r, stamp = ~r;
    s.log.record(64 * r, &balance, sizeof balance);
    s.log.record(64 * r + 8, &stamp, sizeof stamp);
  }
  EXPECT_TRUE(s.sink.lines.empty());
  EXPECT_TRUE(s.durable().offsets.empty());
  EXPECT_TRUE(s.log.sync());
  EXPECT_EQ(s.sink.lines, (std::vector<LineAddr>{1, 2, 3, 4, 0}));
  const UndoLog::Inspection ins = s.durable();
  EXPECT_TRUE(ins.tail_covered);
  EXPECT_EQ(ins.offsets.size(), 8u);
  EXPECT_EQ(ins.certified_extent, UndoLog::kHeaderSize + 8 * 32);
  EXPECT_EQ(s.log.records(), 8u);
}

TEST_F(LogFixture, CoalescedEntriesRestoreWhatUncoalescedOnesDo) {
  // One store script, logged by a batched log (which coalesces) and a
  // strict one (which never does): inspect(), honest and bug-skip salvage
  // and rollback() of either log restore the same pre-FASE bytes.
  constexpr std::size_t kData = 2048;
  Rng rng(28);
  std::vector<char> data0(kData);
  for (char& b : data0) b = static_cast<char>(rng());

  std::unique_ptr<char, decltype(&std::free)> strict_buffer(
      static_cast<char*>(std::aligned_alloc(64, kSize)), &std::free);
  std::memset(strict_buffer.get(), 0, kSize);
  UndoLog batched(buffer.get(), kSize, &sink, LogSyncMode::kBatched);
  UndoLog strict(strict_buffer.get(), kSize, &sink, LogSyncMode::kStrict);
  batched.format();
  strict.format();
  std::vector<char> data = data0;
  std::uint64_t at = 0;
  for (int r = 0; r < 120; ++r) {
    // Mostly runs of adjacent stores of mixed sizes, with jumps, overlaps
    // and a mid-script sync.
    const std::size_t len = 1 + rng.below(24);
    switch (rng.below(6)) {
      case 0:
        at = rng.below(kData - 64);
        break;
      case 1:
        at -= std::min<std::uint64_t>(at, rng.below(8));
        break;
      default:
        break;
    }
    if (at + len > kData) at = 0;
    batched.record(at, data.data() + at, len);
    strict.record(at, data.data() + at, len);
    for (std::size_t i = 0; i < len; ++i) {
      data[at + i] = static_cast<char>(rng());
    }
    at += len;
    if (r == 60) {
      EXPECT_TRUE(batched.sync());
    }
  }
  EXPECT_LT(batched.records(), strict.records() / 2);
  EXPECT_EQ(UndoLog::inspect(buffer.get(), kSize).offsets.size(),
            batched.records());

  for (const char* seg : {buffer.get(), strict_buffer.get()}) {
    for (const bool skip : {false, true}) {
      std::vector<char> salvaged = data;
      const runtime::RecoveryReport report =
          salvage(std::vector<char>(seg, seg + kSize), salvaged, skip);
      EXPECT_TRUE(report.ok()) << report.summary();
      EXPECT_EQ(salvaged, data0) << (seg == buffer.get()) << skip;
    }
  }
  for (UndoLog* log : {&batched, &strict}) {
    std::vector<char> rolled = data;
    log->rollback([&](std::uint64_t token, const void* bytes,
                      std::uint32_t len) {
      std::memcpy(rolled.data() + token, bytes, len);
    });
    EXPECT_EQ(rolled, data0) << to_string(log->mode());
  }
}

TEST_F(LogFixture, SeparateAdjacentEntriesWrittenBeforeCoalescingStillCertify) {
  // An image from a log that appended one entry per record: two entries
  // whose ranges touch certify and roll back as two, and a reopened log
  // never grows an entry it did not append itself.
  char* seg = buffer.get();
  const std::uint64_t a = 0x1111, b = 0x2222;
  std::uint64_t off = UndoLog::kHeaderSize;
  off = append_packed_entry(seg, off, 0, &a, sizeof a, /*gen=*/2);
  off = append_packed_entry(seg, off, 8, &b, sizeof b, 2);
  const UndoLog::LogHeader header{UndoLog::kMagic,
                                  UndoLog::pack_state(2, UndoLog::kHeaderSize)};
  std::memcpy(seg, &header, sizeof(header));
  EXPECT_EQ(UndoLog::inspect(seg, kSize).offsets,
            (std::vector<std::uint64_t>{64, 88}));

  UndoLog reopened = make_log(LogSyncMode::kBatched);
  EXPECT_TRUE(reopened.needs_recovery());
  EXPECT_EQ(reopened.appended_tail(), off);
  const std::uint64_t c = 0x3333;
  reopened.record(16, &c, sizeof c);
  EXPECT_EQ(entry_lens(seg, kSize), (std::vector<std::uint32_t>{8, 8, 8}));

  std::uint64_t cells[3] = {0xAAAA, 0xBBBB, 0xCCCC};
  std::vector<std::uint64_t> tokens;
  reopened.rollback([&](std::uint64_t token, const void* bytes,
                        std::uint32_t len) {
    tokens.push_back(token);
    std::memcpy(reinterpret_cast<char*>(cells) + token, bytes, len);
  });
  EXPECT_EQ(tokens, (std::vector<std::uint64_t>{16, 8, 0}));
  EXPECT_EQ(cells[0], a);
  EXPECT_EQ(cells[1], b);
  EXPECT_EQ(cells[2], c);
}

TEST_F(LogFixture, ParseLogSyncMode) {
  EXPECT_EQ(parse_log_sync_mode("strict"), LogSyncMode::kStrict);
  EXPECT_EQ(parse_log_sync_mode("batched"), LogSyncMode::kBatched);
  // Malformed env values fall back to the default, like parse_flush_kind.
  EXPECT_EQ(parse_log_sync_mode("bogus"), LogSyncMode::kStrict);
  EXPECT_EQ(parse_log_sync_mode(nullptr), LogSyncMode::kStrict);
  EXPECT_STREQ(to_string(LogSyncMode::kStrict), "strict");
  EXPECT_STREQ(to_string(LogSyncMode::kBatched), "batched");
}

}  // namespace
}  // namespace nvc::runtime
