// FlushElisionTable + PSpace elision protocol tests (`ctest -L structures`).
//
// Three tiers:
//   - table unit tests: both faces (FliT tag/untag/pending, dedup
//     announce/retire), collision fallback conservatism, the seeded
//     revert-retire bug hook, pending_count() quiescence probe;
//   - the exactly-once property sweep: seeded turnstile interleavings of
//     writers + helpers over a heap-arena PSpace, asserting every dirty
//     line hits media EXACTLY once with elision on (cross-checked against
//     the shared WearTracker) and exactly 1 + helpers times with elision
//     off;
//   - the mid-helping freeze regression: on ShadowPmem, sweep power cuts
//     across a helper that ELIDED a flush and then durably published a
//     dependent value — whenever the dependent is durable the elided
//     antecedent must be too. With the seeded early-untag protocol bug the
//     same sweep must find a violation (the checker has teeth).
#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <utility>
#include <vector>

#include "common/env.hpp"
#include "core/elision.hpp"
#include "pmem/shadow.hpp"
#include "pmem/wear.hpp"
#include "structures/pspace.hpp"
#include "testing/interleave.hpp"
#include "testing/seed.hpp"

namespace {

using nvc::core::FlushElisionTable;
using nvc::structures::POffset;
using nvc::structures::PSpace;
using nvc::testing::InterleaveScheduler;
using nvc::testing::replay_hint;
using nvc::testing::seed_from_env;

using Tag = FlushElisionTable::Tag;
using Announce = FlushElisionTable::Announce;

// --- table unit tests --------------------------------------------------------

TEST(ElisionTable, TagRaisesPendingUntilUntag) {
  FlushElisionTable t;
  EXPECT_FALSE(t.pending(7));
  const Tag a = t.tag(7);
  EXPECT_TRUE(t.pending(7));
  EXPECT_FALSE(t.pending(8));
  const Tag b = t.tag(7);  // two writers mid-protocol
  t.untag(7, a);
  EXPECT_TRUE(t.pending(7));  // one write-back still in flight
  t.untag(7, b);
  EXPECT_FALSE(t.pending(7));
  EXPECT_EQ(t.pending_count(), 0u);
}

TEST(ElisionTable, CollisionFallbackIsConservativeForEveryLine) {
  // Two slots (the minimum): by pigeonhole some line among 2..63 hashes
  // into one of the occupied slots and falls back to the shared counter.
  FlushElisionTable t(/*slots=*/2);
  std::vector<std::pair<nvc::LineAddr, Tag>> held;
  held.emplace_back(1, t.tag(1));
  nvc::LineAddr collider = 0;
  Tag ctag = Tag::kSlot;
  for (nvc::LineAddr k = 2; k < 64; ++k) {
    const Tag tk = t.tag(k);
    if (tk == Tag::kShared) {
      collider = k;
      ctag = tk;
      break;
    }
    held.emplace_back(k, tk);
  }
  ASSERT_NE(collider, 0u) << "no collision in 2 slots?";
  // The shared fallback keeps pending() true for ALL lines: a collision may
  // only cause spurious helper flushes, never an unsound elision.
  EXPECT_TRUE(t.pending(collider));
  EXPECT_TRUE(t.pending(1));
  EXPECT_TRUE(t.pending(99));  // even a line nobody ever tagged
  t.untag(collider, ctag);
  EXPECT_FALSE(t.pending(99));  // shared fallback drained
  EXPECT_TRUE(t.pending(1));    // slot tags still pin their own lines
  for (const auto& [line, tag] : held) t.untag(line, tag);
  EXPECT_EQ(t.pending_count(), 0u);
}

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

// --- exactly-once property sweep (seeded interleavings) ----------------------

struct SweepResult {
  std::uint64_t media_writes;
  std::uint64_t helper_flushes;
  std::uint64_t helper_elisions;
};

// kThreads writers each dirty kLinesPer private lines and persist them
// (writer protocol), then publish "done". Each thread then HELPS its
// neighbour's lines — strictly after observing done, so every tagged
// write-back completed and elision is legal at every one of them.
SweepResult run_writer_helper_sweep(std::uint64_t seed, bool elide,
                                    nvc::pmem::WearTracker* wear,
                                    std::vector<nvc::LineAddr>* dirty) {
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kLinesPer = 8;
  PSpace ps(64 * 1024, elide, nullptr, wear);
  InterleaveScheduler sched(seed);
  ps.set_yield_hook(sched.hook());

  std::vector<std::vector<POffset>> lines(kThreads);
  for (auto& mine : lines) {
    for (std::size_t l = 0; l < kLinesPer; ++l) {
      mine.push_back(ps.alloc_lines(1));
    }
  }
  std::vector<std::atomic<bool>> done(kThreads);
  for (auto& d : done) d.store(false);

  std::vector<std::function<void(std::size_t)>> bodies;
  for (std::size_t i = 0; i < kThreads; ++i) {
    bodies.push_back([&, i](std::size_t) {
      for (const POffset off : lines[i]) {
        ps.word(off).store(0xD1A7 + i, std::memory_order_release);
        ps.persist(off, sizeof(std::uint64_t));
      }
      done[i].store(true, std::memory_order_release);
      const std::size_t peer = (i + 1) % kThreads;
      while (!done[peer].load(std::memory_order_acquire)) ps.yield();
      for (const POffset off : lines[peer]) {
        ps.persist_help(off, sizeof(std::uint64_t));
      }
    });
  }
  sched.run(bodies);

  EXPECT_EQ(ps.table().pending_count(), 0u) << "writer tags leaked";
  if (dirty != nullptr) {
    for (const auto& mine : lines) {
      for (const POffset off : mine) dirty->push_back(nvc::line_of(off));
    }
  }
  return {ps.media_writes(), ps.helper_flushes(), ps.helper_elisions()};
}

TEST(ElisionProperty, ExactlyOnceWriteBackPerDirtyLine) {
  const std::uint64_t base = seed_from_env("NVC_SEED", 20260808);
  for (int iter = 0; iter < 16; ++iter) {
    const std::uint64_t seed = base + static_cast<std::uint64_t>(iter);
    SCOPED_TRACE(replay_hint("NVC_SEED", seed));
    nvc::pmem::WearTracker wear;
    std::vector<nvc::LineAddr> dirty;
    const SweepResult r =
        run_writer_helper_sweep(seed, /*elide=*/true, &wear, &dirty);
    // Helping happens strictly after the writer finished, so EVERY help is
    // an elision and every dirty line reaches media exactly once — under
    // every interleaving the turnstile can produce.
    EXPECT_EQ(r.helper_flushes, 0u);
    EXPECT_EQ(r.helper_elisions, dirty.size());
    EXPECT_EQ(r.media_writes, dirty.size());
    EXPECT_EQ(wear.line_writes(), r.media_writes);  // cross-check
    for (const nvc::LineAddr line : dirty) {
      ASSERT_EQ(wear.line_write_count(line), 1u)
          << "line " << line << " written more than once";
    }
  }
}

TEST(ElisionProperty, DisablingElisionDoublesPerLineWriteBacks) {
  const std::uint64_t seed = seed_from_env("NVC_SEED", 20260808);
  SCOPED_TRACE(replay_hint("NVC_SEED", seed));
  nvc::pmem::WearTracker wear;
  std::vector<nvc::LineAddr> dirty;
  const SweepResult r =
      run_writer_helper_sweep(seed, /*elide=*/false, &wear, &dirty);
  EXPECT_EQ(r.helper_elisions, 0u);
  EXPECT_EQ(r.helper_flushes, dirty.size());
  EXPECT_EQ(r.media_writes, 2 * dirty.size());  // writer + helper, per line
  for (const nvc::LineAddr line : dirty) {
    EXPECT_EQ(wear.line_write_count(line), 2u);
  }
}

// --- mid-helping freeze regression (ShadowPmem) ------------------------------

constexpr std::uint64_t kAnte = 0xA17ECEDE;  // antecedent value (word X)
constexpr std::uint64_t kDep = 0xDE9E7DE7;   // dependent value (word Y)

struct FreezeProbe {
  std::uint64_t events;     // clock at the end of an unfrozen run
  std::uint64_t elisions;   // helper elisions observed
  std::uint64_t durable_x;  // durable image after the (frozen) run
  std::uint64_t durable_y;
};

// Writer publishes X via cas_persist; the helper waits until it SEES X
// (volatile), help-persists it (the elidable flush), then durably publishes
// the dependent Y. Elision soundness == at no power cut is Y durable
// while X is not.
FreezeProbe run_dependent_publish(std::uint64_t seed, bool bug_early_untag,
                                  std::uint64_t freeze_event) {
  nvc::pmem::ShadowPmem shadow(4 * 1024);
  shadow.freeze_at(freeze_event);
  PSpace ps(shadow.size(), /*elide=*/true, &shadow);
  ps.set_bug_early_untag(bug_early_untag);
  InterleaveScheduler sched(seed);
  ps.set_yield_hook(sched.hook());
  const POffset x = ps.alloc_lines(1);
  const POffset y = ps.alloc_lines(1);

  std::vector<std::function<void(std::size_t)>> bodies;
  bodies.push_back([&](std::size_t) { ps.cas_persist(x, 0, kAnte); });
  bodies.push_back([&](std::size_t) {
    while (ps.word(x).load(std::memory_order_acquire) != kAnte) ps.yield();
    ps.persist_help(x, sizeof(std::uint64_t));
    ps.cas_persist(y, 0, kDep);
  });
  sched.run(bodies);

  return {shadow.events(), ps.helper_elisions(), ps.durable_u64(x),
          ps.durable_u64(y)};
}

TEST(ElisionRegression, FreezeAfterElidedHelpNeverStrandsTheDependent) {
  const std::uint64_t base = seed_from_env("NVC_SEED", 20260808);
  std::uint64_t elisions_seen = 0;
  for (int iter = 0; iter < 32; ++iter) {
    const std::uint64_t seed = base + static_cast<std::uint64_t>(iter);
    SCOPED_TRACE(replay_hint("NVC_SEED", seed));
    const FreezeProbe dry =
        run_dependent_publish(seed, /*bug=*/false, ~std::uint64_t{0});
    elisions_seen += dry.elisions;
    for (std::uint64_t e = 0; e <= dry.events; ++e) {
      const FreezeProbe p = run_dependent_publish(seed, /*bug=*/false, e);
      if (p.durable_y == kDep) {
        ASSERT_EQ(p.durable_x, kAnte)
            << "power cut at event " << e
            << ": dependent durable but its elided antecedent is not";
      }
    }
  }
  // The sweep must actually exercise the elision path (some schedule lets
  // the helper probe only after the writer's write-back completed).
  EXPECT_GT(elisions_seen, 0u);
}

TEST(ElisionRegression, EarlyUntagBugIsCaughtByTheSameSweep) {
  const std::uint64_t base = seed_from_env("NVC_SEED", 20260808);
  bool caught = false;
  for (int iter = 0; iter < 64 && !caught; ++iter) {
    const std::uint64_t seed = base + static_cast<std::uint64_t>(iter);
    const FreezeProbe dry =
        run_dependent_publish(seed, /*bug=*/true, ~std::uint64_t{0});
    for (std::uint64_t e = 0; e <= dry.events && !caught; ++e) {
      const FreezeProbe p = run_dependent_publish(seed, /*bug=*/true, e);
      if (p.durable_y == kDep && p.durable_x != kAnte) caught = true;
    }
  }
  // With tag dropped before the write-back, some schedule lets the helper
  // elide an unflushed line; some power cut then strands the dependent.
  // If this ever stops failing-the-invariant, the regression test itself
  // has gone blind — fail loudly.
  EXPECT_TRUE(caught)
      << "seeded early-untag bug produced no durability violation";
}

}  // namespace
