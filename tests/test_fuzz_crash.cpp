// Randomized crash-state fuzzer with a cross-mode durability oracle
// (DESIGN.md §9).
//
// Seeded random FASE programs (src/testing/fuzz_program.hpp) run on the
// production Runtime over the freeze/restart rig's shadow medium
// (tests/support/crash_rig.hpp) under every combination of the two
// durability mode axes —
//
//     log protocol      strict | batched     (LogSyncMode)
//     data write-backs  sync   | flush-behind pipeline (with flush elision)
//
// — and, under torn write-backs and write admission, both sampler
// hibernations (the rig's counted one and the shipped forever one) — with
// the durable image frozen at randomized event indices. For every
// crash point, the DurabilityOracle gives the only legal outcomes: each
// context must recover to the image after SOME committed outermost FASE of
// that context, and — because the whole run is deterministic (manual
// channels + the seeded virtual scheduler stand in for the background
// flush worker) — the recovered commit index must be monotone in the freeze
// index. EVERY failure message carries a one-line replay command
// (NVC_FUZZ_SEED + NVC_FUZZ_MODE + NVC_FUZZ_FREEZE) that reproduces the
// exact program, interleaving, and crash point.
//
// Knobs (all optional):
//   NVC_FUZZ_SEED=N    run exactly one program, generated from seed N
//   NVC_FUZZ_ITERS=N   programs per mode (default 8; nightly runs raise it)
//   NVC_FUZZ_MODE=S    only the named mode combo, e.g. batched-asyncflush-forever
//   NVC_FUZZ_FREEZE=N  only the named freeze event (with SEED: one exact case)
//
// Two differential companions ride along: the analyze/MRC/knee pipeline is
// checked against its brute-force references on random traces, and the
// generated programs are replayed on the Runtime's real regions (real
// threads, a real flush worker, pm_alloc/pm_free) with every live
// object's final bytes checked against the oracle.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/env.hpp"
#include "common/rng.hpp"
#include "core/analyzer.hpp"
#include "core/flush_pipeline.hpp"
#include "pmem/pmem_region.hpp"
#include "runtime/runtime.hpp"
#include "support/crash_rig.hpp"
#include "testing/durability_oracle.hpp"
#include "testing/fuzz_program.hpp"
#include "testing/seed.hpp"
#include "testing/virtual_scheduler.hpp"

namespace nvc::testing {
namespace {

constexpr std::uint64_t kDefaultBaseSeed = 20260806;

/// Per-iteration program seed: derived from the base by splitmix64 so
/// consecutive iterations explore unrelated programs. The int64 mask only
/// keeps the default campaign's programs what they have always been; a
/// pinned NVC_FUZZ_SEED parses unsigned, so any 64-bit seed replays.
std::uint64_t derive_seed(std::uint64_t base, std::uint64_t iter) {
  std::uint64_t sm = base + iter;
  return splitmix64(sm) & 0x7fffffffffffffffULL;
}

/// Effective (seed, iteration-count) honoring the replay knobs: an explicit
/// NVC_FUZZ_SEED pins one exact program.
struct SeedPlan {
  std::uint64_t override_seed;
  bool pinned;
  std::uint64_t iters;

  std::uint64_t seed(std::uint64_t iter) const {
    return pinned ? override_seed : derive_seed(kDefaultBaseSeed, iter);
  }
};

/// True when NVC_FUZZ_SEED names a seed (any unsigned 64-bit value).
bool fuzz_seed_pinned() {
  return seed_from_env("NVC_FUZZ_SEED", 0) ==
         seed_from_env("NVC_FUZZ_SEED", 1);
}

SeedPlan seed_plan(std::uint64_t default_iters) {
  SeedPlan plan;
  plan.pinned = fuzz_seed_pinned();
  plan.override_seed = seed_from_env("NVC_FUZZ_SEED", 0);
  plan.iters =
      plan.pinned
          ? 1
          : static_cast<std::uint64_t>(env_int(
                "NVC_FUZZ_ITERS", static_cast<std::int64_t>(default_iters)));
  return plan;
}

// --------------------------------------------------------------------------
// The 2x2 mode matrix (async flush carries flush elision), and the same
// matrix under both sampler hibernations.
// --------------------------------------------------------------------------

struct FuzzMode {
  runtime::LogSyncMode log;
  bool async_flush;
  /// Forever-hibernation, the shipped default: after its burst the sampler
  /// is dormant, the repeat-store lane is armed and SC's MRC check is live.
  /// Otherwise the rig's counted hibernation starts a new burst after every
  /// 32 hibernating stores.
  bool forever = false;
};

std::string mode_name(const FuzzMode& mode) {
  return std::string(runtime::to_string(mode.log)) + "-" +
         (mode.async_flush ? "asyncflush" : "syncflush") +
         (mode.forever ? "-forever" : "");
}

/// gtest case name of a mode: mode_name() without the dashes.
std::string test_name(const ::testing::TestParamInfo<FuzzMode>& info) {
  std::string name = mode_name(info.param);
  std::erase(name, '-');
  return name;
}

const FuzzMode kAllModes[] = {
    {runtime::LogSyncMode::kStrict, false},
    {runtime::LogSyncMode::kStrict, true},
    {runtime::LogSyncMode::kBatched, false},
    {runtime::LogSyncMode::kBatched, true},
};

const FuzzMode kHibernationModes[] = {
    {runtime::LogSyncMode::kStrict, false, false},
    {runtime::LogSyncMode::kStrict, false, true},
    {runtime::LogSyncMode::kStrict, true, false},
    {runtime::LogSyncMode::kStrict, true, true},
    {runtime::LogSyncMode::kBatched, false, false},
    {runtime::LogSyncMode::kBatched, false, true},
    {runtime::LogSyncMode::kBatched, true, false},
    {runtime::LogSyncMode::kBatched, true, true},
};

runtime::RuntimeConfig fuzz_runtime_config(const FuzzProgram& program,
                                           const FuzzMode& mode) {
  runtime::RuntimeConfig config = rig_runtime_config(program.contexts);
  config.log_sync = mode.log;
  config.async_flush = mode.async_flush;
  // Online SC: its bursts end, and resize the cache, inside the programs'
  // stores.
  config.policy = core::PolicyKind::kSoftCache;
  if (mode.forever) config.policy_config.sampler.hibernation_length = 0;
  return config;
}

/// Deterministic everywhere: the flush ring is a manual channel too, so no
/// OS thread other than this one ever runs.
CrashRigConfig fuzz_medium(const FuzzProgram& program) {
  return {.data_lines = program.data_lines, .manual_pipeline = true};
}

/// Interpret the program on the rig. After every op the seeded virtual
/// scheduler decides how many queued write-backs each context's virtual
/// flush worker performs. All scheduler draws depend only on the program
/// seed, never on the freeze point, so every freeze value observes the same
/// execution and the same event indexing.
/// `after_op`, when set, runs right after each op, before the scheduler's
/// flush quanta.
void run_program(CrashRig& rig, const FuzzProgram& program,
                 const std::function<void(const FuzzOp&)>& after_op = {}) {
  std::uint64_t sm = program.seed ^ 0x5ced0123abcd7777ULL;
  VirtualScheduler scheduler(splitmix64(sm));
  for (const FuzzOp& op : program.ops) {
    switch (op.kind) {
      case FuzzOpKind::kFaseBegin:
        rig.fase_begin(op.ctx);
        break;
      case FuzzOpKind::kFaseEnd:
        rig.fase_end(op.ctx);
        break;
      case FuzzOpKind::kPstore: {
        const FuzzObject& obj = program.objects[op.object];
        const std::vector<std::uint8_t> bytes =
            payload_bytes(op.value_seed, op.len);
        rig.pstore(op.ctx, obj.offset + op.offset, bytes.data(),
                   bytes.size());
        break;
      }
      case FuzzOpKind::kPersistBarrier:
        rig.persist_barrier(op.ctx);
        break;
      case FuzzOpKind::kAlloc:
      case FuzzOpKind::kFree:
        break;  // bump-allocated offsets; nothing for the rig to do
    }
    if (after_op) after_op(op);
    for (std::uint32_t c = 0; c < program.contexts; ++c) {
      for (std::uint32_t n = scheduler.flush_quantum(); n > 0; --n) {
        if (!rig.pump_flush(c)) break;
      }
    }
  }
}

/// The freeze indices to sweep: exhaustive when the run is small, else the
/// endpoints plus a seeded random sample — sorted, so the monotonicity
/// assertion applies across the sampled sweep too. NVC_FUZZ_FREEZE pins a
/// single point (the replay path).
std::vector<std::uint64_t> freeze_points(std::uint64_t total,
                                         std::uint64_t seed) {
  const std::int64_t pinned = env_int("NVC_FUZZ_FREEZE", -1);
  if (pinned >= 0) return {static_cast<std::uint64_t>(pinned)};
  constexpr std::uint64_t kExhaustive = 512;
  std::vector<std::uint64_t> points;
  if (total <= kExhaustive) {
    for (std::uint64_t e = 0; e <= total; ++e) points.push_back(e);
    return points;
  }
  std::uint64_t sm = seed ^ 0xf0f0e1e1d2d2c3c3ULL;
  Rng rng(splitmix64(sm));
  points.push_back(0);
  for (std::uint64_t i = 0; i < kExhaustive; ++i) {
    points.push_back(rng.below(total + 1));
  }
  points.push_back(total);
  std::sort(points.begin(), points.end());
  points.erase(std::unique(points.begin(), points.end()), points.end());
  return points;
}

/// The freeze sweep every campaign shares: at each of freeze_points(),
/// every context must recover the image after SOME committed FASE, and —
/// the execution being deterministic — the matched commit index must be
/// monotone in the freeze point. `dimension` (" with torn write-backs", …)
/// and the replay fragment `env` go into failure messages; `last_index`
/// receives the last commit index matched per context, and `torn` (when
/// set) the write-backs that landed torn over the whole sweep.
void sweep_freeze_points(const runtime::RuntimeConfig& config,
                         const CrashRigConfig& medium,
                         const FuzzProgram& program,
                         const DurabilityOracle& oracle, std::uint64_t total,
                         const std::string& mode, const std::string& dimension,
                         const std::string& env,
                         std::vector<int>& last_index,
                         std::uint64_t* torn = nullptr) {
  last_index.assign(program.contexts, -1);
  for (const std::uint64_t e : freeze_points(total, program.seed)) {
    CrashRig rig(config, medium);
    rig.freeze_at(e);
    run_program(rig, program);
    for (std::size_t c = 0; c < program.contexts; ++c) {
      const int index = oracle.match(c, rig.recovered_data(c));
      ASSERT_GE(index, 0)
          << "ctx " << c << ": crash at event " << e << "/" << total
          << dimension << " recovered a state matching no committed FASE\n  "
          << fuzz_replay_line(program.seed, mode, e, env);
      ASSERT_GE(index, last_index[c])
          << "ctx " << c << ": durability regressed" << dimension
          << " — freeze " << e << " recovered commit " << index
          << " after an earlier freeze had already reached " << last_index[c]
          << "\n  " << fuzz_replay_line(program.seed, mode, e, env);
      last_index[c] = index;
    }
    if (torn != nullptr) *torn += rig.torn_flushes();
  }
}

// --------------------------------------------------------------------------
// The crash sweep across all four mode combinations.
// --------------------------------------------------------------------------

class FuzzCrash : public ::testing::TestWithParam<FuzzMode> {};

TEST_P(FuzzCrash, EveryCrashStateIsACommittedFasePrefix) {
  // In flush-behind modes the route also elides write-backs of lines whose
  // queued write-back has not started (DESIGN.md §13). Elision may only
  // drop a write-back another one will carry, so the oracle is unchanged;
  // two invariants ride along there: a fully drained run leaves the
  // elision table quiesced (every announce retired — the seeded
  // revert-retire bug is exactly a violation of this), and the elision
  // counters balance (owners + elisions never exceed the announces).
  const FuzzMode mode = GetParam();
  const std::string only = env_str("NVC_FUZZ_MODE", "");
  if (!only.empty() && only != mode_name(mode)) {
    GTEST_SKIP() << "NVC_FUZZ_MODE=" << only << " filters out this combo";
  }

  const SeedPlan plan = seed_plan(/*default_iters=*/8);
  std::uint64_t elided_total = 0;
  for (std::uint64_t iter = 0; iter < plan.iters; ++iter) {
    const std::uint64_t seed = plan.seed(iter);
    const FuzzProgram program = generate_program(seed);
    const DurabilityOracle oracle(program);

    // Probe run, never frozen: learns the event count (identical for every
    // freeze value — the execution is deterministic) and pins down the
    // no-crash contract: an uninterrupted run recovers to exactly the final
    // committed image of every context.
    CrashRig probe(fuzz_runtime_config(program, mode), fuzz_medium(program));
    run_program(probe, program);
    const std::uint64_t total = probe.events();
    elided_total += probe.stats().elided_flushes;
    for (std::size_t c = 0; c < program.contexts; ++c) {
      ASSERT_EQ(probe.recovered_data(c), oracle.final_committed(c))
          << "ctx " << c << ": uninterrupted run lost committed data\n  "
          << fuzz_replay_line(seed, mode_name(mode), total);
    }
    if (mode.async_flush) {
      // recovered_data() drained every channel.
      ASSERT_EQ(probe.elision_table()->pending_count(), 0u)
          << "elision table not quiescent after a fully drained run — some "
          << "announced write-back never retired\n  "
          << fuzz_replay_line(seed, mode_name(mode), total);
      const core::FlushElisionTable::Stats st =
          probe.elision_table()->stats();
      ASSERT_GE(st.announces, st.owners + st.elisions)
          << "elision counters do not balance\n  "
          << fuzz_replay_line(seed, mode_name(mode), total);
    } else {
      ASSERT_EQ(probe.elision_table(), nullptr)
          << "synchronous flushing built an elision table";
    }

    std::vector<int> last_index;
    sweep_freeze_points(fuzz_runtime_config(program, mode),
                        fuzz_medium(program), program, oracle, total,
                        mode_name(mode), "", "", last_index);
    if (::testing::Test::HasFatalFailure()) return;
    if (env_int("NVC_FUZZ_FREEZE", -1) < 0) {
      // The unfrozen end of the sweep must have reached the final commit.
      for (std::size_t c = 0; c < program.contexts; ++c) {
        ASSERT_EQ(static_cast<std::size_t>(last_index[c]) + 1,
                  oracle.snapshots(c).size())
            << "ctx " << c << ": sweep never recovered the final commit\n  "
            << fuzz_replay_line(seed, mode_name(mode), total);
      }
    }
  }

  // Campaign coverage (deterministic seeds): the manual ring holds
  // write-backs across ops, so re-evictions of a queued line must actually
  // elide somewhere — otherwise elision goes untested. Skipped on pinned
  // replays, where the campaign is deliberately partial.
  const bool pinned = fuzz_seed_pinned() ||
                      env_int("NVC_FUZZ_FREEZE", -1) >= 0 ||
                      env_int("NVC_FUZZ_ITERS", -1) >= 0;
  if (mode.async_flush && !pinned) {
    EXPECT_GT(elided_total, 0u)
        << "the fuzz campaign never elided a write-back; the flush-behind "
        << "ring no longer holds lines long enough to dedup";
  }
}

INSTANTIATE_TEST_SUITE_P(AllModes, FuzzCrash, ::testing::ValuesIn(kAllModes),
                         test_name);

// --------------------------------------------------------------------------
// The repeat-store lane's disarm points (DESIGN.md §5 item 5).
// --------------------------------------------------------------------------

/// Count stores that re-dirty a line flushed since the same context's
/// previous store to it: a pstore, then a persist_barrier or an outermost
/// FASE end on that context, then a pstore to the same object and offset.
std::uint64_t redirty_after_flush(const FuzzProgram& program) {
  struct Last {
    const FuzzOp* store = nullptr;
    bool flushed = false;
    int depth = 0;
  };
  std::vector<Last> last(program.contexts);
  std::uint64_t count = 0;
  for (const FuzzOp& op : program.ops) {
    Last& l = last[op.ctx];
    switch (op.kind) {
      case FuzzOpKind::kFaseBegin:
        ++l.depth;
        break;
      case FuzzOpKind::kFaseEnd:
        if (--l.depth == 0) l.flushed = true;
        break;
      case FuzzOpKind::kPersistBarrier:
        l.flushed = true;
        break;
      case FuzzOpKind::kPstore:
        if (l.store != nullptr && l.flushed && l.store->object == op.object &&
            l.store->offset == op.offset) {
          ++count;
        }
        l.store = &op;
        l.flushed = false;
        break;
      default:
        break;
    }
  }
  return count;
}

class RepeatLaneFuzzCrash : public ::testing::TestWithParam<FuzzMode> {};

TEST_P(RepeatLaneFuzzCrash, RedirtiedLinesAreWrittenBackBeforeCommit) {
  // The same sweep with the repeat-store lane live: forever-hibernation
  // leaves the online sampler dormant after its first burst, which is what
  // arms the lane for SC. The programs' same-line runs split by a barrier
  // or FASE end then re-dirty a just-flushed line; a lane left armed across
  // the split would only count those stores and leave the line dirty.
  // Checked two ways: after every outermost commit of the unfrozen run the
  // context's durable bytes equal the committed image, and every freeze
  // point recovers a monotone committed prefix.
  const FuzzMode mode = GetParam();
  const std::string only = env_str("NVC_FUZZ_MODE", "");
  if (!only.empty() && only != mode_name(mode)) {
    GTEST_SKIP() << "NVC_FUZZ_MODE=" << only << " filters out this combo";
  }

  const SeedPlan plan = seed_plan(/*default_iters=*/4);
  std::uint64_t redirtied = 0;
  for (std::uint64_t iter = 0; iter < plan.iters; ++iter) {
    const std::uint64_t seed = plan.seed(iter);
    const FuzzProgram program = generate_program(seed);
    const DurabilityOracle oracle(program);
    redirtied += redirty_after_flush(program);

    runtime::RuntimeConfig rig_config = fuzz_runtime_config(program, mode);
    rig_config.policy_config.sampler.hibernation_length = 0;

    CrashRig probe(rig_config, fuzz_medium(program));
    std::vector<int> depth(program.contexts, 0);
    std::vector<std::size_t> commits(program.contexts, 0);
    run_program(probe, program, [&](const FuzzOp& op) {
      if (op.kind == FuzzOpKind::kFaseBegin) ++depth[op.ctx];
      if (op.kind != FuzzOpKind::kFaseEnd || --depth[op.ctx] > 0) return;
      const std::size_t k = ++commits[op.ctx];
      ASSERT_EQ(probe.durable_data(op.ctx), oracle.snapshots(op.ctx)[k])
          << "ctx " << op.ctx << ": commit " << k << " left a stored line "
          << "unflushed\n  "
          << fuzz_replay_line(seed, mode_name(mode), probe.events());
    });
    if (::testing::Test::HasFatalFailure()) return;
    const std::uint64_t total = probe.events();

    std::vector<int> last_index;
    sweep_freeze_points(rig_config, fuzz_medium(program), program, oracle,
                        total, mode_name(mode), " with the repeat lane live",
                        "", last_index);
    if (::testing::Test::HasFatalFailure()) return;
  }
  if (!fuzz_seed_pinned() && env_int("NVC_FUZZ_ITERS", -1) < 0) {
    EXPECT_GT(redirtied, 0u)
        << "no program re-dirtied a just-flushed line; the generator's "
        << "same-line runs are gone";
  }
}

INSTANTIATE_TEST_SUITE_P(AllModes, RepeatLaneFuzzCrash,
                         ::testing::ValuesIn(kAllModes), test_name);

// --------------------------------------------------------------------------
// Worker-independence of the deterministic schedule (DESIGN.md §8).
// --------------------------------------------------------------------------

TEST(FuzzSeedPlan, PinnedSeedKeepsAll64Bits) {
  // A replay line may name any 64-bit program seed; a signed parse would
  // clamp this one to INT64_MAX and replay another program.
  const std::string saved = env_str("NVC_FUZZ_SEED", "");
  ::setenv("NVC_FUZZ_SEED", "18446744073709551557", 1);
  const SeedPlan plan = seed_plan(/*default_iters=*/8);
  ::unsetenv("NVC_FUZZ_SEED");
  const SeedPlan campaign = seed_plan(/*default_iters=*/8);
  if (!saved.empty()) ::setenv("NVC_FUZZ_SEED", saved.c_str(), 1);

  EXPECT_TRUE(plan.pinned);
  EXPECT_EQ(plan.iters, 1u);
  EXPECT_EQ(plan.seed(0), 18446744073709551557ULL);
  // Unpinned, the campaign's seeds are the masked derivations.
  EXPECT_FALSE(campaign.pinned);
  EXPECT_EQ(campaign.seed(3), derive_seed(kDefaultBaseSeed, 3));
  EXPECT_LE(campaign.seed(3), 0x7fffffffffffffffULL);
}

TEST(FuzzDeterminism, WorkersCannotPerturbManualReplays) {
  // The fuzzer's whole value rests on manual channels being invisible to
  // the background flush worker: replays must be byte-identical no matter
  // how busy it is. Run the same program twice in the flush-behind manual
  // mode — the second time while a private flush worker churns a real
  // channel (sweeps and pokes active) — and require the same event count
  // and the same durable image, byte for byte.
  const FuzzMode mode{runtime::LogSyncMode::kBatched, true};
  const std::uint64_t seed = derive_seed(kDefaultBaseSeed, 0);
  const FuzzProgram program = generate_program(seed);

  CrashRig quiet(fuzz_runtime_config(program, mode), fuzz_medium(program));
  run_program(quiet, program);
  const std::uint64_t quiet_events = quiet.events();
  std::vector<std::vector<std::uint8_t>> quiet_images;
  for (std::size_t c = 0; c < program.contexts; ++c) {
    quiet_images.push_back(quiet.durable_data(c));
  }

  core::FlushWorker flush_worker;
  struct NullSink final : core::FlushSink {
    void flush_line(LineAddr) override {}
  };
  auto noisy_flush =
      flush_worker.open_channel(std::make_unique<NullSink>(), 64);
  std::atomic<bool> done{false};
  std::thread churn([&] {
    while (!done.load(std::memory_order_acquire)) {
      for (LineAddr l = 0; l < 32; ++l) (void)noisy_flush->try_push(l);
      noisy_flush->request_wake();
      std::this_thread::yield();
    }
    noisy_flush->wait_drained();
  });

  CrashRig noisy(fuzz_runtime_config(program, mode), fuzz_medium(program));
  run_program(noisy, program);
  EXPECT_EQ(noisy.events(), quiet_events)
      << "worker activity changed the deterministic event schedule";
  for (std::size_t c = 0; c < program.contexts; ++c) {
    EXPECT_EQ(noisy.durable_data(c), quiet_images[c])
        << "ctx " << c << ": replay no longer byte-identical under busy workers\n  "
        << fuzz_replay_line(seed, mode_name(mode), quiet_events);
  }

  done.store(true, std::memory_order_release);
  churn.join();
  noisy_flush->close();
}

// --------------------------------------------------------------------------
// The torn dimension: the same sweep with the write-backs racing each power
// cut landing torn (DESIGN.md §9).
// --------------------------------------------------------------------------

/// The torn campaign's medium: half the write-backs in a tear window land
/// torn. The tear seed derives from the program seed, so each program tears
/// different lines yet replays bit-for-bit from NVC_FUZZ_SEED alone.
CrashRigConfig torn_medium(const FuzzProgram& program) {
  CrashRigConfig medium = fuzz_medium(program);
  medium.tear_rate = 0.5;
  std::uint64_t sm = program.seed ^ 0xfa17c0defa17c0deULL;
  medium.tear_seed = splitmix64(sm);
  return medium;
}

class TornFuzzCrash : public ::testing::TestWithParam<FuzzMode> {};

TEST_P(TornFuzzCrash, TornRunsStillRecoverCommittedPrefixes) {
  const FuzzMode mode = GetParam();
  const std::string only = env_str("NVC_FUZZ_MODE", "");
  if (!only.empty() && only != mode_name(mode)) {
    GTEST_SKIP() << "NVC_FUZZ_MODE=" << only << " filters out this combo";
  }

  const SeedPlan plan = seed_plan(/*default_iters=*/4);
  std::uint64_t torn_total = 0;
  for (std::uint64_t iter = 0; iter < plan.iters; ++iter) {
    const std::uint64_t seed = plan.seed(iter);
    const FuzzProgram program = generate_program(seed);
    const DurabilityOracle oracle(program);
    const runtime::RuntimeConfig rig_config =
        fuzz_runtime_config(program, mode);
    const CrashRigConfig medium = torn_medium(program);

    // Probe run, never frozen: without a power cut nothing tears, so the
    // uninterrupted run recovers the final commit.
    CrashRig probe(rig_config, medium);
    run_program(probe, program);
    const std::uint64_t total = probe.events();
    for (std::size_t c = 0; c < program.contexts; ++c) {
      ASSERT_EQ(probe.recovered_data(c), oracle.final_committed(c))
          << "ctx " << c << ": uninterrupted run lost committed data\n  "
          << fuzz_replay_line(seed, mode_name(mode), total);
    }

    // Tear decisions are pure in (tear seed, line), so the pre-freeze
    // execution is identical at every freeze point and durability must
    // still be monotone.
    std::vector<int> last_index;
    sweep_freeze_points(rig_config, medium, program, oracle, total,
                        mode_name(mode), " with torn write-backs", "",
                        last_index, &torn_total);
    if (::testing::Test::HasFatalFailure()) return;
  }

  // Campaign coverage (deterministic seeds): the sweep is only meaningful
  // if some write-back actually landed torn. Skipped on pinned replays,
  // where the campaign is deliberately partial.
  if (!fuzz_seed_pinned() && env_int("NVC_FUZZ_FREEZE", -1) < 0 &&
      env_int("NVC_FUZZ_ITERS", -1) < 0) {
    EXPECT_GT(torn_total, 0u)
        << "the torn campaign never tore a write-back";
  }
}

INSTANTIATE_TEST_SUITE_P(AllModes, TornFuzzCrash,
                         ::testing::ValuesIn(kHibernationModes), test_name);

// --------------------------------------------------------------------------
// The admission dimension: the same sweep with write-through bypasses.
// --------------------------------------------------------------------------

class AdmitFuzzCrash : public ::testing::TestWithParam<FuzzMode> {};

TEST_P(AdmitFuzzCrash, BypassedLinesKeepTheDurabilityContract) {
  // Write-admission (DESIGN.md §12) changes WHERE a store's write-back
  // happens — immediately through the LogOrderedSink instead of at
  // eviction/FASE end — but must not change WHAT a crash can leave behind:
  // the same oracle, the same monotone durability, under every mode combo,
  // both hibernations and both non-trivial admission modes. NVC_ADMIT pins one admission
  // mode for replay (failure lines carry the fragment).
  const FuzzMode mode = GetParam();
  const std::string only = env_str("NVC_FUZZ_MODE", "");
  if (!only.empty() && only != mode_name(mode)) {
    GTEST_SKIP() << "NVC_FUZZ_MODE=" << only << " filters out this combo";
  }

  const core::AdmitMode sweep[] = {core::AdmitMode::kWriteOnce,
                                   core::AdmitMode::kReuse};
  const std::string admit_pin = env_str("NVC_ADMIT", "");
  const SeedPlan plan = seed_plan(/*default_iters=*/4);
  std::uint64_t bypassed_total = 0;
  for (const core::AdmitMode admit : sweep) {
    if (!admit_pin.empty() && admit_pin != core::to_string(admit)) continue;
    const std::string admit_env =
        std::string("NVC_ADMIT=") + core::to_string(admit);
    for (std::uint64_t iter = 0; iter < plan.iters; ++iter) {
      const std::uint64_t seed = plan.seed(iter);
      const FuzzProgram program = generate_program(seed);
      const DurabilityOracle oracle(program);

      runtime::RuntimeConfig rig_config = fuzz_runtime_config(program, mode);
      rig_config.policy_config.admission.mode = admit;

      // Probe run, never frozen: even with bypasses the uninterrupted run
      // must recover the final commit.
      CrashRig probe(rig_config, fuzz_medium(program));
      run_program(probe, program);
      const std::uint64_t total = probe.events();
      bypassed_total += probe.stats().bypassed_stores;
      for (std::size_t c = 0; c < program.contexts; ++c) {
        ASSERT_EQ(probe.recovered_data(c), oracle.final_committed(c))
            << "ctx " << c << ": uninterrupted run with admission lost "
            << "committed data\n  "
            << fuzz_replay_line(seed, mode_name(mode), total, admit_env);
      }

      std::vector<int> last_index;
      sweep_freeze_points(rig_config, fuzz_medium(program), program, oracle,
                          total, mode_name(mode), " with admission bypasses",
                          admit_env, last_index);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }

  // Campaign coverage (deterministic seeds): the sweep is only meaningful
  // if the doorkeeper actually bypassed stores somewhere. Skipped on
  // pinned replays, where the campaign is deliberately partial.
  const bool pinned = fuzz_seed_pinned() ||
                      env_int("NVC_FUZZ_FREEZE", -1) >= 0 ||
                      env_int("NVC_FUZZ_ITERS", -1) >= 0 ||
                      !admit_pin.empty();
  if (pinned) return;
  EXPECT_GT(bypassed_total, 0u)
      << "admission sweep never bypassed a store; the write-once doorkeeper "
      << "no longer sees first touches";
}

INSTANTIATE_TEST_SUITE_P(AllModes, AdmitFuzzCrash,
                         ::testing::ValuesIn(kHibernationModes), test_name);

// --------------------------------------------------------------------------
// Flush elision's seeded bug: the quiescence check above has teeth.
// --------------------------------------------------------------------------

TEST(ElideFuzzBug, SeededRevertRetireBugIsCaught) {
  // Checker validation (the acceptance bar for the elision dimension): arm
  // the "reverted flush-pending decrement" — retire() reports success but
  // leaves the pending count — and require the harness's quiescence
  // invariant to flag it, with the one-line replay attached. The bug makes
  // every later announce of a retired line elide although no write-back
  // remains scheduled; only the commit-point drain re-check stands between
  // that and silent data loss, which is exactly why the invariant must
  // stay armed in the sweep above.
  const FuzzMode mode{runtime::LogSyncMode::kStrict, true};
  const std::uint64_t seed = derive_seed(kDefaultBaseSeed, 0);
  const FuzzProgram program = generate_program(seed);

  const runtime::RuntimeConfig rig_config =
      fuzz_runtime_config(program, mode);
  CrashRigConfig medium = fuzz_medium(program);
  medium.elide_bug_revert_retire = true;

  CrashRig rig(rig_config, medium);
  run_program(rig, program);
  const std::uint64_t total = rig.events();
  const std::uint64_t reflushes = rig.stats().elision_reflushes;
  // Quiesce exactly as the sweep does before its invariant check.
  for (std::size_t c = 0; c < program.contexts; ++c) {
    (void)rig.recovered_data(c);
  }
  EXPECT_GT(rig.elision_table()->pending_count(), 0u)
      << "the quiescence checker no longer detects a reverted retire; "
      << "a real elide-forever bug would ship undetected ("
      << fuzz_replay_line(seed, mode_name(mode), total)
      << ")";
  // Defense in depth held: the drain re-check flushed the stranded lines,
  // so even under the bug the uninterrupted run lost nothing.
  const DurabilityOracle oracle(program);
  for (std::size_t c = 0; c < program.contexts; ++c) {
    EXPECT_EQ(rig.recovered_data(c), oracle.final_committed(c))
        << "ctx " << c
        << ": drain re-check failed to cover the buggy retire";
  }
  EXPECT_GT(reflushes, 0u)
      << "the buggy run never exercised the drain re-check path";
}

// --------------------------------------------------------------------------
// Differential oracle: the analyze/MRC/knee pipeline vs. brute force.
// --------------------------------------------------------------------------

TEST(FuzzDifferential, AnalysisPipelineMatchesBruteForceReferences) {
  const SeedPlan plan = seed_plan(/*default_iters=*/8);
  for (std::uint64_t iter = 0; iter < plan.iters; ++iter) {
    const std::uint64_t seed = plan.seed(iter);
    SCOPED_TRACE(replay_hint("NVC_FUZZ_SEED", seed));
    Rng rng(seed);
    // A dense renamed trace, the exact shape the burst sampler hands to
    // analyze_burst (identities allocated from 0).
    const LineAddr ids = rng.range(4, 40);
    const std::size_t n = rng.range(64, 384);
    std::vector<LineAddr> trace(n);
    for (LineAddr& t : trace) t = rng.below(ids);

    // Interval extraction: dense fast path vs. hashed reference.
    const auto fast = core::intervals_of_dense_trace(trace, ids);
    const auto ref = core::intervals_of_trace(trace);
    ASSERT_EQ(fast.size(), ref.size());
    auto sorted = [](std::vector<core::ReuseInterval> v) {
      std::sort(v.begin(), v.end(), [](const auto& a, const auto& b) {
        return a.e != b.e ? a.e < b.e : a.s < b.s;
      });
      return v;
    };
    const auto fast_sorted = sorted(fast);
    const auto ref_sorted = sorted(ref);
    for (std::size_t i = 0; i < fast_sorted.size(); ++i) {
      ASSERT_EQ(fast_sorted[i].s, ref_sorted[i].s) << "interval " << i;
      ASSERT_EQ(fast_sorted[i].e, ref_sorted[i].e) << "interval " << i;
    }

    // Linear-time reuse curve vs. the O(n^2) window enumeration.
    const auto n_time = static_cast<LogicalTime>(n);
    const auto reuse_fast = core::compute_reuse_all_k(fast, n_time);
    const auto reuse_ref = core::compute_reuse_brute_force(ref, n_time);
    for (LogicalTime k = 1; k <= n_time; ++k) {
      ASSERT_NEAR(reuse_fast.at(k), reuse_ref.at(k), 1e-7) << "k=" << k;
    }

    // Footprint curve vs. its brute-force reference.
    const auto fp_fast = core::compute_footprint_all_k(trace);
    const auto fp_ref = core::compute_footprint_brute_force(trace);
    for (LogicalTime k = 1; k <= n_time; ++k) {
      ASSERT_NEAR(fp_fast.at(k), fp_ref.at(k), 1e-7) << "k=" << k;
    }

    // End to end: analyze_burst must equal the pipeline recomposed from the
    // brute-force reuse curve and a per-size LRU simulation — same MRCs,
    // same knee, same placement.
    const core::KneeConfig knee;
    const core::BurstAnalysis analysis = core::analyze_burst(trace, knee);
    const core::Mrc mrc_ref = core::mrc_from_reuse(reuse_ref, knee.max_size);
    const core::Mrc exact_ref =
        core::mrc_simulate_write_cache(trace, {}, knee.max_size);
    ASSERT_EQ(analysis.mrc.max_size(), mrc_ref.max_size());
    ASSERT_EQ(analysis.exact.max_size(), exact_ref.max_size());
    for (std::size_t c = 1; c <= mrc_ref.max_size(); ++c) {
      ASSERT_NEAR(analysis.mrc.at(c), mrc_ref.at(c), 1e-7) << "size " << c;
      ASSERT_NEAR(analysis.exact.at(c), exact_ref.at(c), 1e-12)
          << "size " << c;
      if (c >= 2) {  // LRU inclusion: the published MRC is non-increasing
        ASSERT_LE(analysis.mrc.at(c), analysis.mrc.at(c - 1) + 1e-12);
      }
    }
    const core::KneeResult selection =
        core::KneeFinder(knee).select(mrc_ref);
    EXPECT_EQ(analysis.selection.model_size, selection.chosen_size);
    EXPECT_EQ(analysis.selection.chosen_size,
              core::place_knee(mrc_ref, exact_ref, selection.chosen_size));
    EXPECT_EQ(analysis.selection.had_knees, selection.had_knees);
    EXPECT_EQ(analysis.selection.candidates, selection.candidates);
  }
}

// --------------------------------------------------------------------------
// Differential oracle: generated programs on the REAL runtime.
// --------------------------------------------------------------------------

std::string unique_region(const char* base) {
  static int counter = 0;
  return std::string(base) + "." + std::to_string(::getpid()) + "." +
         std::to_string(counter++);
}

TEST(FuzzRuntimeDifferential, LiveObjectsMatchTheOracleAfterRealThreads) {
  // The crash sweep runs the Runtime deterministically on one thread over
  // the rig's medium; this companion replays the same generated programs on
  // its real regions — one real OS thread per context, the real background
  // flush worker, the real allocator — and checks every live
  // object's final bytes against the oracle, plus the log's
  // committed-at-exit invariant. (No crash injection
  // here: the real backends cannot freeze; nondeterministic interleavings
  // are exactly what the end-state check must be robust to.)
  struct RtMode {
    runtime::LogSyncMode log;
    bool async_flush;
  };
  const RtMode rt_modes[] = {
      {runtime::LogSyncMode::kStrict, false},
      {runtime::LogSyncMode::kBatched, true},
  };
  const SeedPlan plan = seed_plan(/*default_iters=*/4);
  for (std::uint64_t iter = 0; iter < plan.iters; ++iter) {
    const std::uint64_t seed = plan.seed(iter);
    SCOPED_TRACE(replay_hint("NVC_FUZZ_SEED", seed));
    const FuzzProgram program = generate_program(seed);
    const DurabilityOracle oracle(program);
    for (const RtMode& mode : rt_modes) {
      SCOPED_TRACE(std::string("log=") + runtime::to_string(mode.log) +
                   (mode.async_flush ? " asyncflush" : " syncflush"));
      runtime::RuntimeConfig config;
      config.region_name = unique_region("fuzzrt");
      config.region_size = 1u << 20;
      config.policy = core::PolicyKind::kSoftCache;
      config.policy_config.cache_size = 4;
      config.policy_config.sampler.burst_length = 64;
      config.policy_config.sampler.hibernation_length = 32;
      config.flush = pmem::FlushKind::kCountOnly;
      config.undo_logging = true;
      config.log_sync = mode.log;
      config.async_flush = mode.async_flush;
      config.flush_queue_depth = 8;
      runtime::Runtime rt(config);

      std::vector<void*> ptrs(program.objects.size(), nullptr);
      std::vector<std::thread> threads;
      for (std::uint32_t c = 0; c < program.contexts; ++c) {
        threads.emplace_back([&, c] {
          for (const FuzzOp& op : program.ops) {
            if (op.ctx != c) continue;
            switch (op.kind) {
              case FuzzOpKind::kFaseBegin:
                rt.fase_begin();
                break;
              case FuzzOpKind::kFaseEnd:
                rt.fase_end();
                break;
              case FuzzOpKind::kPstore: {
                const std::vector<std::uint8_t> bytes =
                    payload_bytes(op.value_seed, op.len);
                rt.pstore(static_cast<char*>(ptrs[op.object]) + op.offset,
                          bytes.data(), bytes.size());
                break;
              }
              case FuzzOpKind::kPersistBarrier:
                rt.persist_barrier();
                break;
              case FuzzOpKind::kAlloc: {
                void* p = rt.pm_alloc(op.len);
                ptrs[op.object] = p;
                // The oracle's images start zeroed; match it (an
                // unprotected pstore outside any FASE, as Atlas permits
                // for initialization).
                const std::vector<std::uint8_t> zeros(op.len, 0);
                rt.pstore(p, zeros.data(), zeros.size());
                break;
              }
              case FuzzOpKind::kFree:
                rt.pm_free(ptrs[op.object]);
                ptrs[op.object] = nullptr;
                break;
            }
          }
          rt.thread_flush();
        });
      }
      for (std::thread& t : threads) t.join();

      EXPECT_FALSE(rt.needs_recovery())
          << "every FASE committed, yet a log segment wants recovery";
      for (std::uint32_t id = 0; id < program.objects.size(); ++id) {
        if (ptrs[id] == nullptr) continue;  // freed: memory may be reused
        const std::vector<std::uint8_t> expected =
            oracle.final_object_bytes(program, id);
        EXPECT_EQ(0,
                  std::memcmp(ptrs[id], expected.data(), expected.size()))
            << "object " << id << " (ctx " << program.objects[id].ctx
            << ", " << expected.size() << " bytes) diverged from the oracle";
      }
      rt.destroy_storage();
    }
  }
}

}  // namespace
}  // namespace nvc::testing
