// FlushElisionTable and its two sinks: the write-back dedup protocol
// (DESIGN.md §13).
//
// Three tiers:
//   - unit cases of the table: owner/elided/untracked verdicts, the pending
//     window from an owner's announce to its retire, collisions, count
//     saturation, lines beyond the slot encoding, slot sizing, the line
//     base, the statistics, the seeded revert-retire bug hook;
//   - unit cases of the sinks (core/elision_sink.hpp): RetiringSink retires
//     before the write, ElidingSink skips scheduled write-backs and its
//     drain re-checks what it skipped; two producers' rings run by hand
//     replay both orders of an owner's write-back and an elider's drain;
//   - real-thread property tests (`ctest -L tsan`): producers announce
//     over a shared line set while one executor retires each owner's
//     write-back immediately before performing it. Every elided announce
//     must be covered by a later retire and its bytes must reach the
//     simulated media; through the sinks, every drain must find the
//     producer's stores written or their write-back issued. Through the
//     Runtime and its flush worker, a flush-behind run must write back
//     exactly the sync run's lines, less those elision skipped.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/spsc_queue.hpp"
#include "core/elision.hpp"
#include "core/elision_sink.hpp"
#include "runtime/runtime.hpp"

namespace {

using nvc::LineAddr;
using nvc::core::ElidingSink;
using nvc::core::FlushElisionTable;
using nvc::core::FlushSink;
using nvc::core::RetiringSink;
using Announce = FlushElisionTable::Announce;

// The slot word's pending-count field is 16 bits wide (core/elision.hpp).
constexpr std::uint32_t kMaxPending = 0xFFFF;
// ElidingSink's bound on lines it tracks between drains
// (core/elision_sink.hpp).
constexpr std::size_t kMaxTracked = 4096;

/// A line that shares `held`'s slot in every table of `slots` slots with
/// line base 0: the hash is deterministic, so a probe table finds it.
LineAddr collider_of(LineAddr held, std::size_t slots) {
  FlushElisionTable probe(slots);
  EXPECT_EQ(probe.announce(held), Announce::kOwner);
  for (LineAddr k = held + 1;; ++k) {
    // Retire every other owner at once, so only `held`'s slot stays taken.
    switch (probe.announce(k)) {
      case Announce::kUntracked:
        return k;
      case Announce::kOwner:
        probe.retire(k);
        break;
      case Announce::kElided:
        ADD_FAILURE() << "line " << k << " elided in a table it never held";
        return k;
    }
  }
}

/// Media stand-in: records each write-back it receives and whether the
/// table still listed the line as pending at that moment; `on_write` runs
/// inside each write-back.
struct RecordingSink final : FlushSink {
  void flush_line(LineAddr line) override {
    written.push_back(line);
    if (table != nullptr) pending_at_write.push_back(table->pending(line));
    if (on_write) on_write(line);
  }
  void drain() override { ++drains; }
  std::size_t writes_of(LineAddr line) const {
    return static_cast<std::size_t>(
        std::count(written.begin(), written.end(), line));
  }

  const FlushElisionTable* table = nullptr;
  std::function<void(LineAddr)> on_write;
  std::vector<LineAddr> written;
  std::vector<bool> pending_at_write;
  std::size_t drains = 0;
};

/// One producer's flush-behind ring, run by hand: flush_line() queues,
/// run() executes the queue through the shared executor, and drain() runs
/// this ring only, the way a producer's drain ticket covers its own ring
/// and no other thread's.
struct ManualRing final : FlushSink {
  explicit ManualRing(FlushSink* exec) : executor(exec) {}
  void flush_line(LineAddr line) override { queued.push_back(line); }
  void drain() override {
    run();
    executor->drain();
  }
  void run() {
    for (const LineAddr line : queued) executor->flush_line(line);
    queued.clear();
  }

  FlushSink* executor;
  std::vector<LineAddr> queued;
};

// --- unit cases --------------------------------------------------------------

TEST(ElisionTable, AnnounceRetireDedupesScheduledWriteBacks) {
  FlushElisionTable t;
  EXPECT_EQ(t.announce(5), Announce::kOwner);
  EXPECT_EQ(t.announce(5), Announce::kElided);
  EXPECT_EQ(t.announce(5), Announce::kElided);
  EXPECT_EQ(t.retire(5), 3u);  // one write satisfies all three
  EXPECT_EQ(t.retire(5), 0u);
  EXPECT_EQ(t.announce(5), Announce::kOwner);  // cycle restarts cleanly
  EXPECT_EQ(t.retire(5), 1u);
  EXPECT_EQ(t.pending_count(), 0u);
}

TEST(ElisionTable, PendingFromAnnounceUntilRetire) {
  FlushElisionTable t;
  EXPECT_FALSE(t.pending(7));
  ASSERT_EQ(t.announce(7), Announce::kOwner);
  EXPECT_TRUE(t.pending(7));
  EXPECT_FALSE(t.pending(8));
  ASSERT_EQ(t.announce(7), Announce::kElided);
  EXPECT_TRUE(t.pending(7));
  EXPECT_EQ(t.retire(7), 2u);
  EXPECT_FALSE(t.pending(7));
  ASSERT_EQ(t.announce(7), Announce::kOwner);
  EXPECT_TRUE(t.pending(7));
  EXPECT_EQ(t.retire(7), 1u);
  EXPECT_FALSE(t.pending(7));
  EXPECT_EQ(t.pending_count(), 0u);
}

TEST(ElisionTable, CollidingLineIsUntrackedAndLeavesTheOwnerAlone) {
  // Two slots (the minimum): by pigeonhole some line among 2..63 hashes
  // into the slot line 1 holds.
  FlushElisionTable t(/*slots=*/2);
  ASSERT_EQ(t.announce(1), Announce::kOwner);
  ASSERT_EQ(t.announce(1), Announce::kElided);
  std::vector<LineAddr> other_owners;
  LineAddr collider = 0;
  for (LineAddr k = 2; k < 64 && collider == 0; ++k) {
    const Announce a = t.announce(k);
    if (a == Announce::kUntracked) collider = k;
    if (a == Announce::kOwner) other_owners.push_back(k);
  }
  ASSERT_NE(collider, 0u) << "no collision in 2 slots?";
  EXPECT_GE(t.stats().collisions, 1u);
  EXPECT_FALSE(t.pending(collider));
  // The collider flushes on its own and never owned a count: its retire
  // satisfies nothing and must not clear the slot line 1 holds.
  EXPECT_EQ(t.retire(collider), 0u);
  EXPECT_TRUE(t.pending(1));
  EXPECT_EQ(t.retire(1), 2u) << "the owner's count changed";
  EXPECT_FALSE(t.pending(1));
  for (const LineAddr k : other_owners) EXPECT_EQ(t.retire(k), 1u);
  EXPECT_EQ(t.pending_count(), 0u);
}

TEST(ElisionTable, SaturatedCountAnswersUntrackedAndNeverWraps) {
  FlushElisionTable t;
  constexpr LineAddr kLine = 5;
  ASSERT_EQ(t.announce(kLine), Announce::kOwner);
  for (std::uint32_t i = 1; i < kMaxPending; ++i) {
    ASSERT_EQ(t.announce(kLine), Announce::kElided) << "announce " << i;
  }
  // The count field is full: one more increment would carry into the line
  // bits and make the slot name another line.
  EXPECT_EQ(t.announce(kLine), Announce::kUntracked);
  EXPECT_EQ(t.announce(kLine), Announce::kUntracked);
  EXPECT_TRUE(t.pending(kLine));
  EXPECT_FALSE(t.pending(kLine + 1));
  EXPECT_EQ(t.pending_count(), 1u);
  EXPECT_EQ(t.retire(kLine), kMaxPending);
  EXPECT_FALSE(t.pending(kLine));
  EXPECT_EQ(t.pending_count(), 0u);
  const FlushElisionTable::Stats s = t.stats();
  EXPECT_EQ(s.owners, 1u);
  EXPECT_EQ(s.elisions, kMaxPending - 1);
  EXPECT_EQ(s.announces, kMaxPending + 2);
}

TEST(ElisionTable, LinesBeyondTheSlotEncodingAreUntracked) {
  FlushElisionTable t;
  for (const LineAddr line :
       {LineAddr{1} << 48, (LineAddr{1} << 48) + 7, ~LineAddr{0}}) {
    EXPECT_EQ(t.announce(line), Announce::kUntracked) << line;
    EXPECT_EQ(t.announce(line), Announce::kUntracked) << line;
    EXPECT_FALSE(t.pending(line)) << line;
    EXPECT_EQ(t.retire(line), 0u) << line;
  }
  EXPECT_EQ(t.pending_count(), 0u);
  const FlushElisionTable::Stats s = t.stats();
  EXPECT_EQ(s.announces, 6u);
  EXPECT_EQ(s.owners + s.elisions + s.retires, 0u);
}

TEST(ElisionTable, RevertRetireBugLeavesThePendingCountStuck) {
  FlushElisionTable t;
  t.set_bug_revert_retire(true);
  EXPECT_EQ(t.announce(9), Announce::kOwner);
  EXPECT_EQ(t.retire(9), 1u);  // reports, but the decrement is reverted
  // The quiescence probe is exactly what catches this in the fuzzer: the
  // count never drains, and later announces elide against a write-back
  // that no longer exists.
  EXPECT_GT(t.pending_count(), 0u);
  EXPECT_EQ(t.announce(9), Announce::kElided);
}

TEST(ElisionTable, RevertRetireBugIsOffUntilSetAndCanBeCleared) {
  FlushElisionTable t;
  EXPECT_FALSE(t.bug_revert_retire());
  t.set_bug_revert_retire(true);
  ASSERT_EQ(t.announce(4), Announce::kOwner);
  EXPECT_EQ(t.retire(4), 1u);
  EXPECT_TRUE(t.pending(4));
  t.set_bug_revert_retire(false);
  EXPECT_FALSE(t.bug_revert_retire());
  EXPECT_EQ(t.retire(4), 1u);  // the stuck count drains with a sound retire
  EXPECT_FALSE(t.pending(4));
  EXPECT_EQ(t.pending_count(), 0u);
  EXPECT_EQ(t.stats().retires, 1u) << "the reverted retire was counted";
}

TEST(ElisionTable, SlotCountRoundsUpToAPowerOfTwo) {
  EXPECT_EQ(FlushElisionTable().slot_count(), FlushElisionTable::kDefaultSlots);
  EXPECT_EQ(FlushElisionTable(2).slot_count(), 2u);
  EXPECT_EQ(FlushElisionTable(3).slot_count(), 4u);
  EXPECT_EQ(FlushElisionTable(5).slot_count(), 8u);
  EXPECT_EQ(FlushElisionTable(4096).slot_count(), 4096u);
  EXPECT_EQ(FlushElisionTable(4097).slot_count(), 8192u);
  // Every slot of the rounded-up table is usable: it holds one owner per
  // slot at once and never more.
  FlushElisionTable t(5);
  std::size_t owners = 0;
  for (LineAddr line = 0; line < 256; ++line) {
    if (t.announce(line) == Announce::kOwner) ++owners;
  }
  EXPECT_EQ(owners, t.slot_count());
  EXPECT_EQ(t.pending_count(), t.slot_count());
}

TEST(ElisionTable, LineBaseMakesVerdictsIndependentOfWhereTheRegionSits) {
  // Four slots for twelve lines: collisions are certain, and they must
  // fall on the same offsets wherever the region's first line is.
  constexpr LineAddr kFar = LineAddr{1} << 30;
  FlushElisionTable here(4, /*line_base=*/0);
  FlushElisionTable there(4, /*line_base=*/kFar);
  const std::vector<LineAddr> offsets = {0, 3, 3, 7, 11, 0, 5, 9,
                                         2, 7, 1, 6, 4, 8, 10, 11};
  for (std::size_t i = 0; i < offsets.size(); ++i) {
    const LineAddr off = offsets[i];
    EXPECT_EQ(here.announce(off), there.announce(kFar + off)) << "step " << i;
    if (i % 5 == 4) {
      EXPECT_EQ(here.retire(off), there.retire(kFar + off)) << "step " << i;
    }
  }
  for (LineAddr off = 0; off < 12; ++off) {
    EXPECT_EQ(here.pending(off), there.pending(kFar + off)) << off;
  }
  const FlushElisionTable::Stats a = here.stats();
  const FlushElisionTable::Stats b = there.stats();
  EXPECT_GT(a.collisions, 0u);
  EXPECT_EQ(a.collisions, b.collisions);
  EXPECT_EQ(a.owners, b.owners);
  EXPECT_EQ(a.elisions, b.elisions);
  EXPECT_EQ(a.retires, b.retires);
}

TEST(ElisionTable, RetireOfAnUnannouncedLineSatisfiesNothing) {
  FlushElisionTable t;
  EXPECT_EQ(t.retire(3), 0u);
  EXPECT_FALSE(t.pending(3));
  EXPECT_EQ(t.pending_count(), 0u);
  EXPECT_EQ(t.stats().retires, 0u);
  // The stray retire left no trace: the next announce still owns.
  EXPECT_EQ(t.announce(3), Announce::kOwner);
  EXPECT_EQ(t.retire(3), 1u);
  EXPECT_EQ(t.retire(3), 0u);
  EXPECT_EQ(t.stats().retires, 1u);
}

TEST(ElisionTable, StatsCountEveryVerdict) {
  FlushElisionTable t(2);
  constexpr LineAddr kHeld = 1;
  const LineAddr other = collider_of(kHeld, 2);
  constexpr LineAddr kFar = LineAddr{1} << 48;
  EXPECT_EQ(t.announce(kHeld), Announce::kOwner);
  EXPECT_EQ(t.announce(kHeld), Announce::kElided);
  EXPECT_EQ(t.announce(other), Announce::kUntracked);
  EXPECT_EQ(t.announce(other), Announce::kUntracked);
  EXPECT_EQ(t.announce(kFar), Announce::kUntracked);
  EXPECT_EQ(t.retire(other), 0u);
  EXPECT_EQ(t.retire(kHeld), 2u);
  EXPECT_EQ(t.retire(kHeld), 0u);
  const FlushElisionTable::Stats s = t.stats();
  EXPECT_EQ(s.announces, 5u);
  EXPECT_EQ(s.owners, 1u);
  EXPECT_EQ(s.elisions, 1u);
  // Each colliding announce counts; a line beyond the encoding is
  // untracked without colliding with anything.
  EXPECT_EQ(s.collisions, 2u);
  // Only a retire that cleared a pending slot counts.
  EXPECT_EQ(s.retires, 1u);
}

TEST(ElisionTable, PendingCountCountsLinesNotAnnounces) {
  FlushElisionTable t;
  for (const LineAddr line : {10, 20, 30}) {
    for (int i = 0; i < 4; ++i) t.announce(line);
  }
  EXPECT_EQ(t.pending_count(), 3u);
  EXPECT_EQ(t.retire(20), 4u);
  EXPECT_EQ(t.pending_count(), 2u);
  EXPECT_EQ(t.retire(10), 4u);
  EXPECT_EQ(t.retire(30), 4u);
  EXPECT_EQ(t.pending_count(), 0u);
}

// --- RetiringSink --------------------------------------------------------------

TEST(RetiringSink, RetiresBeforeTheWriteBackStarts) {
  auto table = std::make_shared<FlushElisionTable>();
  RecordingSink media;
  media.table = table.get();
  // An announce that races the write itself finds the slot already empty,
  // so it becomes the next owner rather than ride a write that may have
  // read the line before its store.
  std::vector<Announce> racing;
  media.on_write = [&](LineAddr line) {
    racing.push_back(table->announce(line));
  };
  RetiringSink sink(&media, table);
  ASSERT_EQ(table->announce(6), Announce::kOwner);
  ASSERT_EQ(table->announce(6), Announce::kElided);
  sink.flush_line(6);
  ASSERT_EQ(media.written, std::vector<LineAddr>{6});
  EXPECT_FALSE(media.pending_at_write[0]) << "wrote before retiring";
  ASSERT_EQ(racing.size(), 1u);
  EXPECT_EQ(racing[0], Announce::kOwner);
  EXPECT_EQ(table->retire(6), 1u);  // the racing owner's own write-back
  EXPECT_EQ(table->pending_count(), 0u);
}

TEST(RetiringSink, PassesTheDrainThroughAndAFreshAnnounceOwnsAgain) {
  auto table = std::make_shared<FlushElisionTable>();
  auto media = std::make_unique<RecordingSink>();
  RecordingSink* seen = media.get();
  RetiringSink sink(std::move(media), table);  // the worker side owns it
  ASSERT_EQ(table->announce(8), Announce::kOwner);
  ASSERT_EQ(table->announce(9), Announce::kOwner);
  // A retired line is free: the next announce owns a fresh write-back.
  sink.flush_line(8);
  EXPECT_FALSE(table->pending(8));
  EXPECT_EQ(table->announce(8), Announce::kOwner);
  sink.flush_line(9);
  EXPECT_FALSE(table->pending(9));
  EXPECT_EQ(seen->drains, 0u);
  sink.drain();
  EXPECT_EQ(seen->drains, 1u);
  EXPECT_EQ(seen->written, (std::vector<LineAddr>{8, 9}));
}

TEST(RetiringSink, UntrackedWriteBackLeavesTheSlotOwnerAlone) {
  // An untracked line travels the same ring as owners, so the executor
  // retires it too; that retire must not clear the line holding the slot.
  auto table = std::make_shared<FlushElisionTable>(2);
  constexpr LineAddr kHeld = 1;
  const LineAddr other = collider_of(kHeld, 2);
  RecordingSink media;
  media.table = table.get();
  RetiringSink sink(&media, table);
  ASSERT_EQ(table->announce(kHeld), Announce::kOwner);
  ASSERT_EQ(table->announce(kHeld), Announce::kElided);
  ASSERT_EQ(table->announce(other), Announce::kUntracked);
  sink.flush_line(other);
  EXPECT_TRUE(table->pending(kHeld));
  EXPECT_EQ(table->stats().retires, 0u);
  sink.flush_line(kHeld);
  EXPECT_FALSE(table->pending(kHeld));
  EXPECT_EQ(media.written, (std::vector<LineAddr>{other, kHeld}));
  EXPECT_EQ(table->stats().retires, 1u);
}

// --- ElidingSink ---------------------------------------------------------------

TEST(ElidingSink, OwnerIsForwardedAndLaterAnnouncesAreSkipped) {
  auto table = std::make_shared<FlushElisionTable>();
  RecordingSink ring;
  ElidingSink sink(&ring, table);
  sink.flush_line(3);
  sink.flush_line(3);
  sink.flush_line(3);
  sink.flush_line(4);
  EXPECT_EQ(ring.written, (std::vector<LineAddr>{3, 4}));
  EXPECT_EQ(sink.elided_count(), 2u);
  EXPECT_EQ(sink.reflushed_count(), 0u);
  EXPECT_EQ(table->stats().elisions, 2u);
  EXPECT_EQ(table->retire(3), 3u);
  EXPECT_EQ(table->retire(4), 1u);
}

TEST(ElidingSink, UntrackedLinesAreAlwaysForwarded) {
  auto table = std::make_shared<FlushElisionTable>(2);
  constexpr LineAddr kHeld = 1;
  const LineAddr other = collider_of(kHeld, 2);
  constexpr LineAddr kFar = LineAddr{1} << 48;
  RecordingSink ring;
  ElidingSink sink(&ring, table);
  sink.flush_line(kHeld);
  for (int i = 0; i < 3; ++i) {
    sink.flush_line(other);
    sink.flush_line(kFar);
  }
  EXPECT_EQ(ring.writes_of(kHeld), 1u);
  EXPECT_EQ(ring.writes_of(other), 3u);
  EXPECT_EQ(ring.writes_of(kFar), 3u);
  EXPECT_EQ(sink.elided_count(), 0u);
  sink.drain();  // nothing was elided, so nothing is re-checked
  EXPECT_EQ(sink.reflushed_count(), 0u);
  EXPECT_EQ(ring.drains, 1u);
  EXPECT_EQ(ring.written.size(), 7u);
}

TEST(ElidingSink, DrainWritesBackAnElidedLineWhoseOwnerHasNotStarted) {
  auto table = std::make_shared<FlushElisionTable>();
  RecordingSink ring;
  ElidingSink sink(&ring, table);
  // Another producer owns line 5; its write-back sits in its own ring.
  ASSERT_EQ(table->announce(5), Announce::kOwner);
  sink.flush_line(5);
  EXPECT_EQ(sink.elided_count(), 1u);
  EXPECT_TRUE(ring.written.empty());
  sink.drain();
  EXPECT_EQ(ring.written, std::vector<LineAddr>{5});
  EXPECT_EQ(sink.reflushed_count(), 1u);
  // One drain for the ring's own queue, one more for the reflush.
  EXPECT_EQ(ring.drains, 2u);
  // The reflush did not announce: the owner still retires both counts.
  EXPECT_EQ(table->stats().announces, 2u);
  EXPECT_EQ(table->retire(5), 2u);
}

TEST(ElidingSink, DrainSkipsAnElidedLineWhoseOwnerRetired) {
  auto table = std::make_shared<FlushElisionTable>();
  RecordingSink ring;
  ElidingSink sink(&ring, table);
  ASSERT_EQ(table->announce(5), Announce::kOwner);
  sink.flush_line(5);
  ASSERT_EQ(table->retire(5), 2u);  // the owner's write-back started
  sink.drain();
  EXPECT_TRUE(ring.written.empty());
  EXPECT_EQ(sink.reflushed_count(), 0u);
  EXPECT_EQ(ring.drains, 1u);
}

TEST(ElidingSink, DrainReflushesEachStillPendingLineOnce) {
  auto table = std::make_shared<FlushElisionTable>();
  RecordingSink ring;
  ElidingSink sink(&ring, table);
  for (const LineAddr line : {40, 30, 20}) {
    ASSERT_EQ(table->announce(line), Announce::kOwner);
  }
  for (int i = 0; i < 3; ++i) {
    for (const LineAddr line : {40, 30, 20}) sink.flush_line(line);
  }
  ASSERT_EQ(table->retire(30), 4u);  // only 30's owner started
  EXPECT_EQ(sink.elided_count(), 9u);
  sink.drain();
  EXPECT_EQ(ring.writes_of(20), 1u);
  EXPECT_EQ(ring.writes_of(40), 1u);
  EXPECT_EQ(ring.writes_of(30), 0u);
  EXPECT_EQ(sink.reflushed_count(), 2u);
  EXPECT_EQ(ring.drains, 2u);
}

TEST(ElidingSink, DrainForgetsTheLinesItChecked) {
  auto table = std::make_shared<FlushElisionTable>();
  RecordingSink ring;
  ElidingSink sink(&ring, table);
  ASSERT_EQ(table->announce(5), Announce::kOwner);
  sink.flush_line(5);
  sink.drain();
  ASSERT_EQ(sink.reflushed_count(), 1u);
  // The line is still pending (its owner never ran), but it was elided
  // before the last barrier, which already wrote it back.
  sink.drain();
  EXPECT_EQ(sink.reflushed_count(), 1u);
  EXPECT_EQ(ring.writes_of(5), 1u);
  EXPECT_EQ(ring.drains, 3u);
}

TEST(ElidingSink, FullTrackingForwardsInsteadOfEliding) {
  auto table = std::make_shared<FlushElisionTable>();
  RecordingSink ring;
  ElidingSink sink(&ring, table);
  sink.flush_line(7);  // owner
  for (std::size_t i = 0; i < kMaxTracked; ++i) sink.flush_line(7);
  EXPECT_EQ(sink.elided_count(), kMaxTracked);
  EXPECT_EQ(ring.writes_of(7), 1u);
  // With no room left to remember the line for the drain's re-check, an
  // elided announce schedules its own write-back.
  sink.flush_line(7);
  EXPECT_EQ(sink.elided_count(), kMaxTracked);
  EXPECT_EQ(ring.writes_of(7), 2u);
  sink.drain();
  EXPECT_EQ(sink.reflushed_count(), 1u);
  // After the drain the sink tracks again.
  sink.flush_line(7);
  EXPECT_EQ(sink.elided_count(), kMaxTracked + 1);
  EXPECT_EQ(ring.writes_of(7), 3u);
}

TEST(ElidingSink, DrainRecheckWritesBackPastTheRevertRetireBug) {
  auto table = std::make_shared<FlushElisionTable>();
  table->set_bug_revert_retire(true);
  RecordingSink media;
  RetiringSink executor(&media, table);
  ManualRing ring(&executor);
  ElidingSink sink(&ring, table);
  sink.flush_line(2);  // owner
  ring.run();          // its write-back "retires" but the count stays
  sink.flush_line(2);  // elided onto a write-back that no longer exists
  EXPECT_EQ(sink.elided_count(), 1u);
  EXPECT_EQ(media.writes_of(2), 1u);
  sink.drain();
  EXPECT_EQ(sink.reflushed_count(), 1u);
  EXPECT_EQ(media.writes_of(2), 2u) << "the second store never reached media";
  // What the quiescence check catches: the count never drains.
  EXPECT_GT(table->pending_count(), 0u);
}

// --- two producers, rings run by hand -------------------------------------------

/// Producers A and B share one table and one executor; each has its own
/// ring. The executor is the worker-side RetiringSink over the media.
struct TwoProducers {
  std::shared_ptr<FlushElisionTable> table =
      std::make_shared<FlushElisionTable>();
  RecordingSink media;
  RetiringSink executor{&media, table};
  ManualRing ring_a{&executor};
  ManualRing ring_b{&executor};
  ElidingSink a{&ring_a, table};
  ElidingSink b{&ring_b, table};

  TwoProducers() { media.table = table.get(); }
};

TEST(ElisionPipeline, ElidedStoreRidesTheOwnersWriteBackWhenItRunsFirst) {
  TwoProducers p;
  p.a.flush_line(7);
  p.b.flush_line(7);
  EXPECT_EQ(p.b.elided_count(), 1u);
  p.ring_a.run();  // A's write-back reads the line with B's bytes in it
  p.b.drain();
  EXPECT_EQ(p.b.reflushed_count(), 0u);
  EXPECT_EQ(p.media.written, std::vector<LineAddr>{7});
  p.a.drain();
  EXPECT_EQ(p.media.written, std::vector<LineAddr>{7}) << "a duplicate write";
  EXPECT_EQ(p.table->pending_count(), 0u);
  EXPECT_EQ(p.table->stats().retires, 1u);
}

TEST(ElisionPipeline, ElidedStoreIsWrittenByItsOwnDrainWhileTheOwnerIsQueued) {
  TwoProducers p;
  p.a.flush_line(7);
  p.b.flush_line(7);
  // B's commit barrier cannot wait on A's ring: its own drain must write
  // the line back before the commit proceeds.
  p.b.drain();
  EXPECT_EQ(p.b.reflushed_count(), 1u);
  ASSERT_EQ(p.media.written, std::vector<LineAddr>{7});
  EXPECT_FALSE(p.media.pending_at_write[0]);
  EXPECT_FALSE(p.table->pending(7));
  // A's write-back still runs: a duplicate, the price of B's commit.
  p.a.drain();
  EXPECT_EQ(p.media.written, (std::vector<LineAddr>{7, 7}));
  EXPECT_EQ(p.table->pending_count(), 0u);
}

TEST(ElisionPipeline, StoreAfterTheOwnersRetireSchedulesAFreshWriteBack) {
  TwoProducers p;
  p.a.flush_line(7);
  // B stores while A's write-back is under way: past the retire, so it
  // cannot ride that write and owns the next one.
  p.media.on_write = [&](LineAddr line) {
    if (p.media.written.size() == 1) p.b.flush_line(line);
  };
  p.ring_a.run();
  EXPECT_EQ(p.b.elided_count(), 0u);
  ASSERT_EQ(p.ring_b.queued, std::vector<LineAddr>{7});
  EXPECT_TRUE(p.table->pending(7));
  p.b.drain();
  EXPECT_EQ(p.media.written, (std::vector<LineAddr>{7, 7}));
  EXPECT_EQ(p.table->pending_count(), 0u);
}

// --- real-thread property tests ------------------------------------------------

TEST(ElisionTableThreads, EveryElidedAnnounceIsCoveredByALaterRetire) {
  constexpr std::size_t kProducers = 3;
  constexpr std::size_t kLines = 24;
  constexpr std::size_t kSlots = 16;  // fewer than kLines: collisions happen
  constexpr std::uint64_t kRounds = 400;
  constexpr LineAddr kBase = 1000;

  FlushElisionTable table(kSlots, kBase);
  // Each line holds one word per producer, so a write-back of the line
  // carries every producer's bytes; "media" keeps the newest written value.
  using Line = std::array<std::atomic<std::uint64_t>, kProducers>;
  std::vector<Line> payload(kLines);
  std::vector<Line> media(kLines);
  for (std::size_t l = 0; l < kLines; ++l) {
    for (std::size_t p = 0; p < kProducers; ++p) {
      payload[l][p].store(0);
      media[l][p].store(0);
    }
  }
  const auto write_back = [&](std::size_t l) {
    for (std::size_t p = 0; p < kProducers; ++p) {
      const std::uint64_t v = payload[l][p].load(std::memory_order_relaxed);
      std::uint64_t cur = media[l][p].load(std::memory_order_relaxed);
      while (cur < v && !media[l][p].compare_exchange_weak(cur, v)) {
      }
    }
  };

  struct Tally {
    std::vector<std::uint64_t> owners = std::vector<std::uint64_t>(kLines);
    std::vector<std::uint64_t> elided = std::vector<std::uint64_t>(kLines);
    std::uint64_t untracked = 0;
  };
  std::vector<Tally> tallies(kProducers);
  std::vector<std::unique_ptr<nvc::SpscQueue<std::size_t>>> rings;
  for (std::size_t p = 0; p < kProducers; ++p) {
    rings.push_back(std::make_unique<nvc::SpscQueue<std::size_t>>(64));
  }
  // The executor starts once every producer announced each line once, so
  // the first round elides and collides no matter how threads are placed.
  std::atomic<std::size_t> first_round_done{0};
  std::atomic<std::size_t> producers_done{0};

  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      Tally& tally = tallies[p];
      for (std::uint64_t round = 1; round <= kRounds; ++round) {
        for (std::size_t i = 0; i < kLines; ++i) {
          const std::size_t l = (i + p * 7) % kLines;
          payload[l][p].store(round, std::memory_order_relaxed);
          switch (table.announce(kBase + l)) {
            case Announce::kOwner:
              tally.owners[l]++;
              // A failed push leaves the value intact for the retry.
              for (std::size_t v = l; !rings[p]->try_push(std::move(v));) {
                std::this_thread::yield();
              }
              break;
            case Announce::kElided:
              tally.elided[l]++;
              break;
            case Announce::kUntracked:
              tally.untracked++;
              write_back(l);
              break;
          }
        }
        if (round == 1) first_round_done.fetch_add(1);
      }
      producers_done.fetch_add(1);
    });
  }

  std::vector<std::uint64_t> retired(kLines);
  std::thread executor([&] {
    while (first_round_done.load() < kProducers) std::this_thread::yield();
    for (;;) {
      const bool finished = producers_done.load() == kProducers;
      bool popped = false;
      for (auto& ring : rings) {
        while (const auto l = ring->try_pop()) {
          popped = true;
          retired[*l] += table.retire(kBase + *l);  // retire, then write
          write_back(*l);
        }
      }
      if (finished && !popped) break;
      if (!popped) std::this_thread::yield();
    }
  });
  for (auto& t : producers) t.join();
  executor.join();

  std::uint64_t owners = 0;
  std::uint64_t elided = 0;
  std::uint64_t untracked = 0;
  for (std::size_t l = 0; l < kLines; ++l) {
    std::uint64_t line_owners = 0;
    std::uint64_t line_elided = 0;
    for (const Tally& tally : tallies) {
      line_owners += tally.owners[l];
      line_elided += tally.elided[l];
    }
    // A retire's count is its owner plus every announce elided onto it.
    EXPECT_EQ(retired[l], line_owners + line_elided) << "line " << l;
    owners += line_owners;
    elided += line_elided;
    for (std::size_t p = 0; p < kProducers; ++p) {
      EXPECT_EQ(media[l][p].load(), kRounds)
          << "line " << l << ", producer " << p
          << ": an elided store never reached the media";
    }
  }
  for (const Tally& tally : tallies) untracked += tally.untracked;
  EXPECT_GT(owners, 0u);
  EXPECT_GT(elided, 0u);
  EXPECT_GT(untracked, 0u);

  const FlushElisionTable::Stats s = table.stats();
  EXPECT_EQ(s.announces, owners + elided + untracked);
  EXPECT_EQ(s.owners, owners);
  EXPECT_EQ(s.elisions, elided);
  EXPECT_EQ(s.retires, owners);
  EXPECT_EQ(table.pending_count(), 0u);
}

TEST(ElisionPipelineThreads, EveryDrainFindsItsStoresWrittenOrIssued) {
  // The runtime's wiring on real threads: each producer stores into lines
  // it shares with the others and writes them back through an ElidingSink
  // over its own ring; one executor pops every ring into a RetiringSink
  // over the media. After each drain (a commit point) every line the
  // producer stored since the last one must hold its bytes on the media.
  constexpr std::size_t kProducers = 3;
  constexpr std::size_t kLines = 16;
  constexpr std::size_t kSlots = 8;  // fewer than kLines: collisions happen
  constexpr std::uint64_t kRounds = 300;
  constexpr std::size_t kStoresPerCommit = 5;

  auto table = std::make_shared<FlushElisionTable>(kSlots);
  using Line = std::array<std::atomic<std::uint64_t>, kProducers>;
  std::vector<Line> payload(kLines);
  std::vector<Line> media(kLines);
  for (std::size_t l = 0; l < kLines; ++l) {
    for (std::size_t p = 0; p < kProducers; ++p) {
      payload[l][p].store(0);
      media[l][p].store(0);
    }
  }
  // The executor holds a line's lock from its retire through its write:
  // the in-model assumption that a write-back is durable once issued
  // (DESIGN.md §13). A producer that reads the media under the lock after
  // seeing the retire therefore sees the write.
  std::array<std::mutex, kLines> issuing;

  /// The media write-back of one line: it carries every producer's bytes.
  struct MediaWriter final : FlushSink {
    std::vector<Line>* payload;
    std::vector<Line>* media;
    void flush_line(LineAddr l) override {
      for (std::size_t p = 0; p < kProducers; ++p) {
        const std::uint64_t v =
            (*payload)[l][p].load(std::memory_order_relaxed);
        std::uint64_t cur = (*media)[l][p].load(std::memory_order_relaxed);
        while (cur < v && !(*media)[l][p].compare_exchange_weak(cur, v)) {
        }
      }
    }
  };
  MediaWriter writer;
  writer.payload = &payload;
  writer.media = &media;
  RetiringSink executor(&writer, table);

  /// A producer's ring: its drain waits until the executor ran every line
  /// this producer pushed, and covers no other producer's ring.
  struct ThreadRing final : FlushSink {
    nvc::SpscQueue<LineAddr> queue{64};
    std::uint64_t pushed = 0;
    std::atomic<std::uint64_t> executed{0};
    void flush_line(LineAddr line) override {
      for (LineAddr v = line; !queue.try_push(std::move(v));) {
        std::this_thread::yield();
      }
      ++pushed;
    }
    void drain() override {
      while (executed.load(std::memory_order_acquire) < pushed) {
        std::this_thread::yield();
      }
    }
  };
  std::vector<std::unique_ptr<ThreadRing>> rings;
  for (std::size_t p = 0; p < kProducers; ++p) {
    rings.push_back(std::make_unique<ThreadRing>());
  }

  std::atomic<std::uint64_t> stale{0};
  std::atomic<std::uint64_t> elided{0};
  std::atomic<std::uint64_t> reflushed{0};
  // The executor starts once every producer wrote back its first batch,
  // and the batches overlap, so the first commits elide no matter how
  // threads are placed.
  std::atomic<std::size_t> first_batch_done{0};
  std::atomic<std::size_t> producers_done{0};
  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      ElidingSink sink(rings[p].get(), table);
      std::vector<std::size_t> stored;
      bool first = true;
      const auto commit = [&](std::uint64_t round) {
        if (first) {
          first_batch_done.fetch_add(1);
          first = false;
        }
        sink.drain();
        for (const std::size_t l : stored) {
          std::lock_guard<std::mutex> g(issuing[l]);
          if (media[l][p].load() < round) stale.fetch_add(1);
        }
        stored.clear();
      };
      for (std::uint64_t round = 1; round <= kRounds; ++round) {
        for (std::size_t i = 0; i < kLines; ++i) {
          const std::size_t l = (i + p * 2) % kLines;
          payload[l][p].store(round, std::memory_order_relaxed);
          sink.flush_line(l);
          stored.push_back(l);
          if (stored.size() == kStoresPerCommit) commit(round);
        }
        commit(round);
      }
      elided.fetch_add(sink.elided_count());
      reflushed.fetch_add(sink.reflushed_count());
      producers_done.fetch_add(1);
    });
  }

  std::thread worker([&] {
    while (first_batch_done.load() < kProducers) std::this_thread::yield();
    for (;;) {
      const bool finished = producers_done.load() == kProducers;
      bool popped = false;
      for (auto& ring : rings) {
        while (const auto l = ring->queue.try_pop()) {
          popped = true;
          {
            std::lock_guard<std::mutex> g(issuing[*l]);
            executor.flush_line(*l);
          }
          ring->executed.fetch_add(1, std::memory_order_release);
        }
      }
      if (finished && !popped) break;
      if (!popped) std::this_thread::yield();
    }
  });
  for (auto& t : producers) t.join();
  worker.join();

  EXPECT_EQ(stale.load(), 0u)
      << "a drain returned before an elided store reached the media";
  EXPECT_GT(elided.load(), 0u);
  EXPECT_GT(table->stats().collisions, 0u);
  for (std::size_t l = 0; l < kLines; ++l) {
    for (std::size_t p = 0; p < kProducers; ++p) {
      EXPECT_EQ(media[l][p].load(), kRounds) << "line " << l << ", " << p;
    }
  }
  EXPECT_EQ(table->pending_count(), 0u);
  // Informational: how often a commit found its owner still queued.
  std::printf("elided %llu, reflushed at a drain %llu\n",
              static_cast<unsigned long long>(elided.load()),
              static_cast<unsigned long long>(reflushed.load()));
}

/// Fixed multi-threaded store schedule through a Runtime on the count
/// backend; returns its stats.
nvc::runtime::RuntimeStats flush_behind_run(const std::string& name,
                                            bool async_flush) {
  using nvc::kCacheLineSize;
  nvc::runtime::RuntimeConfig config;
  config.region_name = name;
  config.flush = nvc::pmem::FlushKind::kCountOnly;
  config.policy = nvc::core::PolicyKind::kSoftCacheOffline;
  config.policy_config.cache_size = 8;
  config.async_flush = async_flush;
  config.flush_queue_depth = 64;
  nvc::runtime::Runtime rt(config);

  constexpr int kThreads = 4;
  constexpr std::size_t kLinesPerThread = 24;
  auto* base = static_cast<std::uint8_t*>(
      rt.pm_alloc(kThreads * kLinesPerThread * kCacheLineSize +
                  kCacheLineSize));
  const auto addr = reinterpret_cast<std::uintptr_t>(base);
  base += nvc::align_up(addr, kCacheLineSize) - addr;

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&rt, base, t] {
      std::uint8_t* mine = base + static_cast<std::size_t>(t) *
                                      kLinesPerThread * kCacheLineSize;
      const std::uint64_t v = 0xabcdULL + static_cast<std::uint64_t>(t);
      for (int f = 0; f < 16; ++f) {
        nvc::runtime::FaseScope fase(rt);
        for (std::size_t i = 0; i < 32; ++i) {
          const std::size_t line = (static_cast<std::size_t>(f) * 7 + i) %
                                   kLinesPerThread;
          rt.pstore(mine + line * kCacheLineSize, &v, sizeof(v));
        }
      }
      rt.thread_flush();
    });
  }
  for (auto& th : threads) th.join();

  const nvc::runtime::RuntimeStats s = rt.stats();
  rt.destroy_storage();
  return s;
}

TEST(ElisionRuntimeThreads, FlushBehindWritesBackTheSyncRunsLinesLessElided) {
  // Exactly-once flush traffic (DESIGN.md §8) means the same write-backs
  // whether lines drain synchronously or through the flush worker and
  // helping drains, less those flush elision skipped (how many depends on
  // the worker's timing): the release-published ring counts must match the
  // sync run's, write for write, in every async run.
  const nvc::runtime::RuntimeStats sync_run =
      flush_behind_run("test-elision-flush-sync", false);
  EXPECT_GT(sync_run.flushes, 0u);
  for (const char* name :
       {"test-elision-flush-async-a", "test-elision-flush-async-b"}) {
    const nvc::runtime::RuntimeStats async_run = flush_behind_run(name, true);
    EXPECT_EQ(sync_run.flushes, async_run.flushes + async_run.elided_flushes -
                                    async_run.elision_reflushes)
        << name;
  }
}

}  // namespace
