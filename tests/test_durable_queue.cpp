// Durable MPMC queue (structures/durable_queue.hpp) — `ctest -L
// structures`, also in the tsan tier.
//
// Two execution regimes share the same op bodies:
//   - deterministic: seeded turnstile (one thread at a time, switches at
//     persist steps), recorded history checked by the Wing–Gong
//     linearizability search, recovery contract on ShadowPmem;
//   - free-running: NVC_STRUCT_THREADS real threads over the thread-safe
//     heap backend with no turnstile — the tsan stress — with the same
//     linearizability check on the recorded history.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <set>
#include <vector>

#include "common/env.hpp"
#include "common/rng.hpp"
#include "structures/durable_queue.hpp"
#include "pmem/shadow.hpp"
#include "structures/pspace.hpp"
#include "testing/history.hpp"
#include "testing/interleave.hpp"
#include "testing/linearizability.hpp"
#include "testing/seed.hpp"

namespace {

using nvc::Rng;
using nvc::structures::DurableQueue;
using nvc::structures::PSpace;
using nvc::testing::check_linearizable;
using nvc::testing::HistoryRecorder;
using nvc::testing::InterleaveScheduler;
using nvc::testing::LinVerdict;
using nvc::testing::Op;
using nvc::testing::OpCode;
using nvc::testing::QueueModel;
using nvc::testing::replay_hint;
using nvc::testing::seed_from_env;

void recorded_enqueue(DurableQueue& q, HistoryRecorder& rec,
                      std::size_t thread, std::uint64_t value) {
  const std::size_t op = rec.begin(thread, OpCode::kEnqueue, value);
  q.enqueue(value);
  rec.end(thread, op, /*ok=*/true);
}

void recorded_dequeue(DurableQueue& q, HistoryRecorder& rec,
                      std::size_t thread) {
  const std::size_t op = rec.begin(thread, OpCode::kDequeue, 0);
  std::uint64_t v = 0;
  const bool ok = q.dequeue(&v);
  rec.end(thread, op, ok, v);
}

TEST(DurableQueue, SingleThreadedFifoAndRecovery) {
  nvc::pmem::ShadowPmem shadow(64 * 1024);
  PSpace ps(shadow.size(), /*elide=*/true, &shadow);
  DurableQueue q(ps);
  for (std::uint64_t v = 1; v <= 5; ++v) q.enqueue(v);
  std::uint64_t v = 0;
  ASSERT_TRUE(q.dequeue(&v));
  EXPECT_EQ(v, 1u);
  ASSERT_TRUE(q.dequeue(&v));
  EXPECT_EQ(v, 2u);
  // Every completed op persisted before returning: the durable image IS the
  // logical queue, with no extra flushing step.
  EXPECT_EQ(q.recovered_contents(), (std::vector<std::uint64_t>{3, 4, 5}));
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(q.dequeue(&v));
  EXPECT_FALSE(q.dequeue(&v));
  EXPECT_TRUE(q.recovered_contents().empty());
  EXPECT_EQ(ps.table().pending_count(), 0u);
}

TEST(DurableQueue, TurnstileInterleavingsAreLinearizable) {
  const std::uint64_t base = seed_from_env("NVC_SEED", 20260808);
  for (int iter = 0; iter < 12; ++iter) {
    const std::uint64_t seed = base + static_cast<std::uint64_t>(iter);
    SCOPED_TRACE(replay_hint("NVC_SEED", seed));
    PSpace ps(256 * 1024, /*elide=*/true);
    DurableQueue q(ps);
    InterleaveScheduler sched(seed);
    ps.set_yield_hook(sched.hook());
    constexpr std::size_t kThreads = 3;
    HistoryRecorder rec(kThreads);
    std::vector<std::function<void(std::size_t)>> bodies;
    for (std::size_t i = 0; i < kThreads; ++i) {
      bodies.push_back([&, i](std::size_t) {
        for (std::uint64_t k = 0; k < 4; ++k) {
          recorded_enqueue(q, rec, i, 100 * (i + 1) + k);
          if (k % 2 == 1) recorded_dequeue(q, rec, i);
        }
      });
    }
    sched.run(bodies);
    const auto result = check_linearizable<QueueModel>(rec.snapshot());
    ASSERT_EQ(result.verdict, LinVerdict::kOk) << result.detail;
    EXPECT_EQ(ps.table().pending_count(), 0u);
  }
}

TEST(DurableQueue, ElisionCutsMediaWritesOnHelpedSchedules) {
  const std::uint64_t base = seed_from_env("NVC_SEED", 20260808);
  std::uint64_t writes_on = 0, writes_off = 0, elisions = 0, helps = 0;
  for (int iter = 0; iter < 16; ++iter) {
    const std::uint64_t seed = base + static_cast<std::uint64_t>(iter);
    for (const bool elide : {true, false}) {
      PSpace ps(256 * 1024, elide);
      DurableQueue q(ps);
      InterleaveScheduler sched(seed);  // same schedule either way
      ps.set_yield_hook(sched.hook());
      std::vector<std::function<void(std::size_t)>> bodies;
      for (std::size_t i = 0; i < 3; ++i) {
        bodies.push_back([&, i](std::size_t) {
          for (std::uint64_t k = 0; k < 6; ++k) q.enqueue(10 * i + k);
          std::uint64_t v;
          for (int d = 0; d < 3; ++d) q.dequeue(&v);
        });
      }
      sched.run(bodies);
      (elide ? writes_on : writes_off) += ps.media_writes();
      if (elide) {
        elisions += ps.helper_elisions();
        helps += ps.helper_elisions() + ps.helper_flushes();
      }
    }
  }
  // The contended schedules must actually produce helping, some of it
  // elided, and elision must never increase media traffic.
  EXPECT_GT(helps, 0u);
  EXPECT_GT(elisions, 0u);
  EXPECT_LE(writes_on, writes_off);
}

TEST(DurableQueue, FreeRunningStressIsLinearizable) {
  const std::size_t threads = static_cast<std::size_t>(
      nvc::env_int("NVC_STRUCT_THREADS", 4));
  const std::size_t per = std::max<std::size_t>(2, 56 / threads);
  const std::uint64_t base = seed_from_env("NVC_SEED", 20260808);
  for (int round = 0; round < 4; ++round) {
    const std::uint64_t seed = base + static_cast<std::uint64_t>(round);
    SCOPED_TRACE(replay_hint("NVC_SEED", seed));
    PSpace ps((per * threads + 8) * 64 * 2, /*elide=*/true);
    DurableQueue q(ps);
    InterleaveScheduler sched(seed, /*free_running=*/true);
    ps.set_yield_hook(sched.hook());  // no-ops: genuine concurrency
    HistoryRecorder rec(threads);
    std::vector<std::function<void(std::size_t)>> bodies;
    for (std::size_t i = 0; i < threads; ++i) {
      bodies.push_back([&, i, seed](std::size_t) {
        Rng rng(seed ^ (0x9E3779B9u * (i + 1)));
        for (std::size_t k = 0; k < per; ++k) {
          if (rng.chance(0.6)) {
            recorded_enqueue(q, rec, i, 1000 * (i + 1) + k);
          } else {
            recorded_dequeue(q, rec, i);
          }
        }
      });
    }
    sched.run(bodies);
    const auto history = rec.snapshot();
    const auto result = check_linearizable<QueueModel>(history);
    // kBudget would mean the history outgrew the bounded search — shrink
    // `per` rather than letting the check silently pass.
    ASSERT_EQ(result.verdict, LinVerdict::kOk) << result.detail;
    // Conservation: every dequeued value was enqueued exactly once.
    std::multiset<std::uint64_t> enq, deq;
    for (const Op& op : history) {
      if (op.code == OpCode::kEnqueue) enq.insert(op.arg);
      if (op.code == OpCode::kDequeue && op.ok) deq.insert(op.ret);
    }
    for (const std::uint64_t v : deq) EXPECT_EQ(enq.count(v), 1u);
    EXPECT_EQ(ps.table().pending_count(), 0u);
  }
}

}  // namespace
