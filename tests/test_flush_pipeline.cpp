// The flush-behind pipeline (DESIGN.md §8): FlushChannel / FlushWorker /
// AsyncFlushSink, including exactly-once and FIFO retirement with N
// producers, one worker and helping drains, and the drain watchdog. Runs
// under the `tsan` ctest label — configure with -DNVC_SANITIZE=thread to
// check the producer/worker handoff, the helping consumer, and the stats
// aggregation under ThreadSanitizer.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <tuple>
#include <vector>

#include "core/flush_pipeline.hpp"
#include "core/log_ordered_sink.hpp"
#include "runtime/runtime.hpp"

namespace nvc::core {
namespace {

/// Records every line it receives (mutex so worker and helper may both
/// deliver); counts drains.
struct RecordingSink final : FlushSink {
  void flush_line(LineAddr line) override {
    std::lock_guard<std::mutex> lock(mutex);
    lines.push_back(line);
  }
  void drain() override { ++drains; }
  std::vector<LineAddr> snapshot() const {
    std::lock_guard<std::mutex> lock(mutex);
    return lines;
  }
  mutable std::mutex mutex;
  std::vector<LineAddr> lines;
  std::atomic<std::uint64_t> drains{0};
};

/// Worker-side sink that forwards into an externally owned recorder (the
/// channel wants ownership; tests want to inspect).
struct ForwardSink final : FlushSink {
  explicit ForwardSink(FlushSink* t) : target(t) {}
  void flush_line(LineAddr line) override { target->flush_line(line); }
  void drain() override { target->drain(); }
  FlushSink* target;
};

/// First flush parks until released: wedges whichever consumer pops it
/// while that consumer holds the channel's consumer lock.
struct GateSink final : FlushSink {
  explicit GateSink(FlushSink* t) : target(t) {}
  void flush_line(LineAddr line) override {
    entered.store(true, std::memory_order_release);
    while (!release.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    target->flush_line(line);
  }
  void drain() override {}
  std::atomic<bool> entered{false};
  std::atomic<bool> release{false};
  FlushSink* target;
};

/// Forwards like ForwardSink and raises a flag when the channel that owns
/// it destroys it.
struct DestructionFlagSink final : FlushSink {
  DestructionFlagSink(FlushSink* t, std::atomic<bool>* flag)
      : target(t), destroyed(flag) {}
  ~DestructionFlagSink() override {
    destroyed->store(true, std::memory_order_release);
  }
  void flush_line(LineAddr line) override { target->flush_line(line); }
  void drain() override {}
  FlushSink* target;
  std::atomic<bool>* destroyed;
};

bool wait_until(const std::function<bool()>& done,
                std::chrono::seconds budget = std::chrono::seconds(20)) {
  const auto deadline = std::chrono::steady_clock::now() + budget;
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

/// Sink whose flushes take a while — fills the ring faster than it drains.
struct SlowSink final : FlushSink {
  explicit SlowSink(FlushSink* t) : target(t) {}
  void flush_line(LineAddr line) override {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    target->flush_line(line);
  }
  FlushSink* target;
};

TEST(FlushChannel, TicketWaitDeliversEveryLineInOrder) {
  RecordingSink record;
  auto channel = FlushWorker::shared().open_channel(
      std::make_unique<ForwardSink>(&record), 64);
  constexpr std::uint64_t kLines = 48;  // < capacity: everything queues
  AsyncFlushSink sink(channel, &record);
  for (std::uint64_t i = 1; i <= kLines; ++i) {
    sink.flush_line(static_cast<LineAddr>(i));
  }
  sink.drain();
  EXPECT_EQ(channel->flushed(), channel->pushed());
  EXPECT_EQ(sink.overflow_flushes(), 0u);
  EXPECT_GE(record.drains.load(), 1u);
  // The ring is FIFO and the consumer side is serialized (worker sweep or
  // helping producer, whoever wins), so delivery order = issue order.
  const auto lines = record.snapshot();
  ASSERT_EQ(lines.size(), kLines);
  for (std::uint64_t i = 0; i < kLines; ++i) {
    EXPECT_EQ(lines[i], i + 1);
  }
}

TEST(FlushChannel, WorkerDrainsWithoutProducerHelp) {
  RecordingSink record;
  auto channel = FlushWorker::shared().open_channel(
      std::make_unique<ForwardSink>(&record), 64);
  for (LineAddr l = 1; l <= 8; ++l) ASSERT_TRUE(channel->try_push(l));
  channel->request_wake();
  // No wait_drained() — only the background worker can make progress.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (channel->flushed() < 8 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(channel->flushed(), 8u);
  EXPECT_NE(channel->last_flush_thread(), std::this_thread::get_id());
  channel->close();
}

TEST(AsyncFlushSink, RingOverflowFallsBackToLocalSynchronousFlush) {
  RecordingSink record;
  auto channel = FlushWorker::shared().open_channel(
      std::make_unique<SlowSink>(&record), 4);
  AsyncFlushSink sink(channel, &record);
  constexpr std::uint64_t kLines = 64;
  for (LineAddr l = 1; l <= kLines; ++l) sink.flush_line(l);
  sink.drain();
  // 64 fast pushes against a 4-deep ring drained at 200 µs/line must
  // overflow; every line still arrives exactly once.
  EXPECT_GT(sink.overflow_flushes(), 0u);
  EXPECT_EQ(record.snapshot().size(), kLines);
  EXPECT_EQ(channel->flushed() + sink.overflow_flushes(), kLines);
}

TEST(AsyncFlushSink, InflightTrackingFollowsTheRing) {
  RecordingSink record;
  auto channel = FlushWorker::shared().open_channel(
      std::make_unique<ForwardSink>(&record), 64);
  AsyncFlushSink sink(channel, &record);
  EXPECT_FALSE(sink.maybe_inflight(7));
  sink.flush_line(7);
  // Queued (the worker may or may not have popped yet — a true return is
  // allowed to be conservative, but after drain it must be false).
  sink.drain();
  EXPECT_FALSE(sink.maybe_inflight(7));
  // A never-pushed line is never in flight.
  EXPECT_FALSE(sink.maybe_inflight(8));
}

TEST(AsyncFlushSink, InflightIsExactOnAManualChannelAcrossWraparound) {
  // A manual channel retires a line only when the test pumps it, so the
  // hazard answer must be exact: false with nothing pushed since the drain
  // (answered from the producer's own state), true while a line is queued,
  // false once it is pumped. Three lines a round lap the 4-slot ring many
  // times; odd rounds drain with lines still queued, even ones pump first.
  RecordingSink record;
  auto channel = FlushWorker::shared().open_manual_channel(
      std::make_unique<ForwardSink>(&record), 4);
  AsyncFlushSink sink(channel, &record);
  LineAddr next = 1;
  for (int round = 0; round < 24; ++round) {
    EXPECT_FALSE(sink.maybe_inflight(next - 1));
    EXPECT_FALSE(sink.maybe_inflight(next));
    const LineAddr a = next++;
    const LineAddr b = next++;
    const LineAddr c = next++;
    for (const LineAddr l : {a, b, c}) sink.flush_line(l);
    EXPECT_TRUE(sink.maybe_inflight(a));
    EXPECT_TRUE(sink.maybe_inflight(c));
    EXPECT_FALSE(sink.maybe_inflight(next));
    ASSERT_TRUE(channel->pump_one());
    EXPECT_FALSE(sink.maybe_inflight(a));
    EXPECT_TRUE(sink.maybe_inflight(b));
    EXPECT_TRUE(sink.maybe_inflight(c));
    if (round % 2 == 0) {
      ASSERT_TRUE(channel->pump_one());
      ASSERT_TRUE(channel->pump_one());
      EXPECT_FALSE(channel->pump_one());
      EXPECT_FALSE(sink.maybe_inflight(b));
      EXPECT_FALSE(sink.maybe_inflight(c));
    }
    sink.drain();
    for (const LineAddr l : {a, b, c}) EXPECT_FALSE(sink.maybe_inflight(l));
  }
  EXPECT_EQ(sink.overflow_flushes(), 0u);
  EXPECT_EQ(channel->pushed(), channel->flushed());
  const auto lines = record.snapshot();
  ASSERT_EQ(lines.size(), next - 1);
  for (std::size_t i = 0; i < lines.size(); ++i) EXPECT_EQ(lines[i], i + 1);
}

TEST(AsyncFlushSink, DeviceModelMakesDrainWaitForDurability) {
  RecordingSink record;
  auto channel = FlushWorker::shared().open_channel(
      std::make_unique<ForwardSink>(&record), 64);
  FlushDeviceModel model;
  model.latency_ns = 2'000'000;  // 2 ms: dwarfs scheduling noise
  model.issue_ns = 1;
  AsyncFlushSink sink(channel, &record, model);
  const auto start = std::chrono::steady_clock::now();
  sink.flush_line(1);
  sink.drain();
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_GE(std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
                .count(),
            1'000'000);
}

TEST(AsyncFlushSink, LogSyncHappensAtEnqueueTime) {
  // LogOrderedSink wraps the async sink: the epoch-log sync must run on the
  // enqueuing thread before the line can enter the ring.
  struct CountingLog final : EpochLog {
    void sync() override {
      ++syncs;
      thread = std::this_thread::get_id();
    }
    std::uint64_t syncs = 0;
    std::thread::id thread{};
  };
  RecordingSink record;
  auto channel = FlushWorker::shared().open_channel(
      std::make_unique<ForwardSink>(&record), 64);
  AsyncFlushSink async_sink(channel, &record);
  CountingLog log;
  LogOrderedSink ordered(&async_sink, &log);
  ordered.flush_line(1);
  ordered.flush_line(2);
  EXPECT_EQ(log.syncs, 2u);
  EXPECT_EQ(log.thread, std::this_thread::get_id());
  ordered.drain();
  EXPECT_EQ(record.snapshot().size(), 2u);
}

TEST(FlushPipelineRuntime, AsyncModeMatchesSyncFlushAccounting) {
  auto run = [](bool async) {
    runtime::RuntimeConfig config;
    config.region_name =
        std::string("flushpipe.acct.") + (async ? "async" : "sync");
    config.region_size = 1u << 20;
    config.policy = core::PolicyKind::kSoftCacheOffline;
    config.policy_config.cache_size = 4;
    config.flush = pmem::FlushKind::kSimulated;
    config.simulated_flush_ns = 0;  // counting, not timing
    config.async_flush = async;
    config.undo_logging = true;
    config.log_sync = runtime::LogSyncMode::kBatched;
    runtime::Runtime rt(config);
    auto* cells = static_cast<std::uint64_t*>(rt.pm_alloc(64 * 64));
    for (int f = 0; f < 32; ++f) {
      runtime::FaseScope fase(rt);
      for (int s = 0; s < 16; ++s) {
        rt.pstore(cells[(f * 7 + s * 3) % 512],
                  static_cast<std::uint64_t>(f * 100 + s));
      }
    }
    rt.thread_flush();
    const runtime::RuntimeStats stats = rt.stats();
    rt.destroy_storage();
    return stats;
  };
  const runtime::RuntimeStats sync_stats = run(false);
  const runtime::RuntimeStats async_stats = run(true);
  // Identical store streams => identical data traffic, fences, log records:
  // the pipeline moves write-backs in time and drops only those flush
  // elision proved another queued write-back carries.
  EXPECT_EQ(sync_stats.stores, async_stats.stores);
  EXPECT_EQ(sync_stats.flushes, async_stats.flushes +
                                    async_stats.elided_flushes -
                                    async_stats.elision_reflushes);
  EXPECT_EQ(sync_stats.fences, async_stats.fences);
  EXPECT_EQ(sync_stats.log_records, async_stats.log_records);
  EXPECT_GT(async_stats.flushes, 0u);
}

TEST(FlushPipelineRuntime, StatsNeverRaceWithTheWorker) {
  // Enqueue write-backs with no commit point in sight (pwrote outside any
  // FASE never drains), then poll stats() while the background worker is
  // still popping the ring — the "stats() never races with the worker"
  // guarantee in executable form under -DNVC_SANITIZE=thread: aggregation
  // only reads the channel's release-ordered counter, never the
  // worker-owned backend's plain counters. A store to a line still queued
  // is elided, so every store is a write-back or an elision.
  runtime::RuntimeConfig config;
  config.region_name = "flushpipe.race";
  config.region_size = 1u << 20;
  config.policy = core::PolicyKind::kEager;  // every store becomes a push
  config.flush = pmem::FlushKind::kSimulated;
  config.simulated_flush_ns = 0;
  config.async_flush = true;
  config.flush_queue_depth = 256;
  runtime::Runtime rt(config);
  auto* cells = static_cast<std::uint64_t*>(rt.pm_alloc(64 * 64));
  constexpr std::uint64_t kStores = 4096;
  for (std::uint64_t i = 0; i < kStores; ++i) {
    cells[i % 512] = i;
    rt.pwrote(&cells[i % 512], sizeof(std::uint64_t));
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  std::uint64_t last = 0;
  std::uint64_t elided = 0;
  for (;;) {
    const runtime::RuntimeStats s = rt.stats();
    EXPECT_GE(s.flushes, last);  // monotone: merged counters never rewind
    last = s.flushes;
    elided = s.elided_flushes;  // no drain ran: nothing was re-flushed
    EXPECT_EQ(s.elision_reflushes, 0u);
    if (last + elided >= kStores ||
        std::chrono::steady_clock::now() > deadline) {
      break;
    }
    std::this_thread::yield();
  }
  // Exactly-once: pops + overflow fallbacks + elisions.
  EXPECT_EQ(last + elided, kStores);
  rt.thread_flush();
  rt.destroy_storage();
}

// --- one worker, N producers, helping drains --------------------------------

TEST(FlushWorker, ProducersRetireEveryLineExactlyOnce) {
  // N producers push into private rings that one worker sweeps while each
  // producer's wait_drained helps; every line retires exactly once and the
  // release-published flushed() counts match the producer-side pushes.
  constexpr std::size_t kProducers = 4;
  constexpr std::uint64_t kLinesEach = 512;
  FlushWorker worker;
  RecordingSink record;

  std::vector<std::thread> producers;
  std::vector<std::shared_ptr<FlushChannel>> channels(kProducers);
  for (std::size_t p = 0; p < kProducers; ++p) {
    channels[p] =
        worker.open_channel(std::make_unique<ForwardSink>(&record), 64);
  }
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      auto& ch = *channels[p];
      for (std::uint64_t i = 0; i < kLinesEach; ++i) {
        const LineAddr tag = (static_cast<LineAddr>(p) << 32) | i;
        while (!ch.try_push(tag)) {
          ch.request_wake();  // ring full: let the worker catch up
          std::this_thread::yield();
        }
        if (ch.depth() >= 32) ch.request_wake();
      }
      ch.wait_drained();
    });
  }
  for (auto& t : producers) t.join();

  for (std::size_t p = 0; p < kProducers; ++p) {
    EXPECT_EQ(channels[p]->flushed(), kLinesEach);
    EXPECT_EQ(channels[p]->pushed(), kLinesEach);
    channels[p]->close();
  }
  auto lines = record.snapshot();
  ASSERT_EQ(lines.size(), kProducers * kLinesEach);
  std::sort(lines.begin(), lines.end());
  EXPECT_EQ(std::adjacent_find(lines.begin(), lines.end()), lines.end())
      << "a line was flushed twice";
}

TEST(FlushWorker, SlowSinksNProducersExactlyOnce) {
  // N producers and one worker with deliberately slow sinks: rings fill,
  // producers overflow into request_wake storms, the worker sits in
  // flush_line long enough for helping drains to find the consumer lock
  // held. Every line must still retire exactly once, and the
  // release-published flushed() counters must equal the producer-side
  // pushed() counts.
  constexpr std::size_t kProducers = 3;
  constexpr std::uint64_t kLinesEach = 96;
  FlushWorker worker;
  RecordingSink record;
  std::vector<std::shared_ptr<FlushChannel>> channels(kProducers);
  for (std::size_t p = 0; p < kProducers; ++p) {
    channels[p] = worker.open_channel(std::make_unique<SlowSink>(&record), 16);
  }
  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      auto& ch = *channels[p];
      for (std::uint64_t i = 0; i < kLinesEach; ++i) {
        const LineAddr tag = (static_cast<LineAddr>(p + 1) << 32) | i;
        while (!ch.try_push(tag)) {
          ch.request_wake();
          std::this_thread::yield();
        }
      }
      ch.wait_drained();
    });
  }
  for (auto& t : producers) t.join();
  std::uint64_t total = 0;
  for (auto& ch : channels) {
    EXPECT_EQ(ch->flushed(), ch->pushed());
    EXPECT_EQ(ch->pushed(), kLinesEach);
    total += ch->flushed();
    ch->close();
  }
  auto lines = record.snapshot();
  ASSERT_EQ(lines.size(), total);
  std::sort(lines.begin(), lines.end());
  EXPECT_EQ(std::adjacent_find(lines.begin(), lines.end()), lines.end())
      << "a line was flushed twice";
}

TEST(FlushWorker, BatchedSweepsStayFifoAgainstHelpingDrains) {
  // A's producer pushes bursts past the spin batch (half of A's 64-slot
  // ring), so the worker retires them in batches while it spins, and
  // drains each burst as a helping consumer. B's producer keeps its own
  // ring short and drains constantly, so the worker's sweeps interleave
  // both channels. Every consumer of a ring goes through its lock: each
  // line retires exactly once, in push order.
  FlushWorker worker;
  RecordingSink record_a;
  RecordingSink record_b;
  auto a = worker.open_channel(std::make_unique<ForwardSink>(&record_a), 64);
  auto b = worker.open_channel(std::make_unique<ForwardSink>(&record_b), 64);
  constexpr std::uint64_t kBursts = 200;
  const auto produce = [](FlushChannel& ch, std::uint64_t burst_lines) {
    LineAddr next = 0;
    for (std::uint64_t burst = 0; burst < kBursts; ++burst) {
      for (std::uint64_t i = 0; i < burst_lines; ++i) {
        const LineAddr line = ++next;
        while (!ch.try_push(line)) {
          ch.request_wake();
          std::this_thread::yield();
        }
      }
      if (burst % 2 == 1) ch.request_wake();
      ch.wait_drained();
    }
  };
  std::thread producer_a([&] { produce(*a, 48); });
  std::thread producer_b([&] { produce(*b, 2); });
  producer_a.join();
  producer_b.join();
  for (const auto& [ch, record, burst_lines] :
       {std::tuple{a.get(), &record_a, std::uint64_t{48}},
        std::tuple{b.get(), &record_b, std::uint64_t{2}}}) {
    EXPECT_EQ(ch->pushed(), kBursts * burst_lines);
    EXPECT_EQ(ch->flushed(), ch->pushed());
    const auto lines = record->snapshot();
    ASSERT_EQ(lines.size(), kBursts * burst_lines);
    for (std::size_t i = 0; i < lines.size(); ++i) {
      ASSERT_EQ(lines[i], i + 1) << "out of order or retired twice";
    }
    ch->close();
  }
}

TEST(FlushWorker, ManualChannelInvisibleToTheWorker) {
  FlushWorker worker;
  RecordingSink record;
  auto manual =
      worker.open_manual_channel(std::make_unique<ForwardSink>(&record), 16);
  for (LineAddr l = 1; l <= 4; ++l) ASSERT_TRUE(manual->try_push(l));
  manual->request_wake();  // no-op by contract
  worker.poke();           // even an explicit poke must not reach it
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_EQ(manual->flushed(), 0u) << "the worker swept a manual channel";
  // The deterministic scheduler's pump runs on the calling thread.
  EXPECT_TRUE(manual->pump_one());
  EXPECT_EQ(manual->flushed(), 1u);
  EXPECT_EQ(manual->last_flush_thread(), std::this_thread::get_id());
  manual->wait_drained();
  EXPECT_EQ(record.snapshot(), (std::vector<LineAddr>{1, 2, 3, 4}));
  manual->close();
}

TEST(FlushWorker, HelpingDrainRetiresItsRingWhileTheWorkerIsWedged) {
  // The one worker sits inside a gated flush on channel W, holding W's
  // consumer lock. Another producer's drain must not depend on it: the
  // helping drain retires that producer's own ring, in order, on its own
  // thread.
  FlushWorker worker;
  RecordingSink record_w;
  RecordingSink record_p;
  auto gate_sink = std::make_unique<GateSink>(&record_w);
  GateSink* gate = gate_sink.get();
  auto wedged = worker.open_channel(std::move(gate_sink), 16);
  auto producer =
      worker.open_channel(std::make_unique<ForwardSink>(&record_p), 16);
  ASSERT_TRUE(wedged->try_push(1));
  wedged->request_wake();
  ASSERT_TRUE(wait_until(
      [&] { return gate->entered.load(std::memory_order_acquire); }))
      << "the worker never picked up the gated line";

  for (LineAddr l = 1; l <= 8; ++l) ASSERT_TRUE(producer->try_push(l));
  producer->wait_drained();
  EXPECT_EQ(producer->flushed(), 8u);
  EXPECT_EQ(producer->last_flush_thread(), std::this_thread::get_id())
      << "a wedged worker retired another channel's lines";
  EXPECT_EQ(record_p.snapshot(),
            (std::vector<LineAddr>{1, 2, 3, 4, 5, 6, 7, 8}));

  gate->release.store(true, std::memory_order_release);
  wedged->wait_drained();
  EXPECT_EQ(wedged->flushed(), 1u);
  EXPECT_NE(wedged->last_flush_thread(), std::this_thread::get_id());
  producer->close();
  wedged->close();
}

TEST(FlushWorker, DrainWaitsForTheWedgedHolderInsteadOfSkippingAhead) {
  // Line 1 is in flight on the worker (gated) while 2..5 sit queued behind
  // it. A helping drain cannot take the ring while the worker holds it, so
  // it must not complete early, and once the gate opens every line retires
  // exactly once in push order.
  FlushWorker worker;
  RecordingSink record;
  auto gate_sink = std::make_unique<GateSink>(&record);
  GateSink* gate = gate_sink.get();
  auto channel = worker.open_channel(std::move(gate_sink), 16);
  ASSERT_TRUE(channel->try_push(1));
  channel->request_wake();
  ASSERT_TRUE(wait_until(
      [&] { return gate->entered.load(std::memory_order_acquire); }));
  for (LineAddr l = 2; l <= 5; ++l) ASSERT_TRUE(channel->try_push(l));

  std::atomic<bool> drained{false};
  std::thread drainer([&] {
    channel->wait_drained();
    drained.store(true, std::memory_order_release);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_FALSE(drained.load(std::memory_order_acquire))
      << "the drain completed while line 1 was still in flight";
  EXPECT_EQ(channel->flushed(), 0u);
  gate->release.store(true, std::memory_order_release);
  drainer.join();
  EXPECT_EQ(channel->flushed(), 5u);
  EXPECT_EQ(record.snapshot(), (std::vector<LineAddr>{1, 2, 3, 4, 5}));
  channel->close();
}

TEST(FlushWorker, ClosedDrainedChannelIsPrunedAndReleasesItsSink) {
  // The channel owns its sink so the worker never dangles; once the
  // producer has drained, closed and let go, the worker's next pass drops
  // the channel and with it the sink.
  FlushWorker worker;
  RecordingSink record;
  std::atomic<bool> destroyed{false};
  auto channel = worker.open_channel(
      std::make_unique<DestructionFlagSink>(&record, &destroyed), 16);
  for (LineAddr l = 1; l <= 4; ++l) ASSERT_TRUE(channel->try_push(l));
  channel->wait_drained();
  channel->close();
  channel.reset();
  EXPECT_TRUE(wait_until(
      [&] { return destroyed.load(std::memory_order_acquire); }))
      << "the worker kept a closed, drained channel alive";
  EXPECT_EQ(record.snapshot().size(), 4u);
}

/// Idle task that records which threads ran it; reports work while
/// `budget` lasts.
struct CountingIdleTask final : IdleTask {
  explicit CountingIdleTask(int work_steps) : budget(work_steps) {}
  bool idle_step() override {
    {
      std::lock_guard<std::mutex> lock(mutex);
      threads.push_back(std::this_thread::get_id());
    }
    const bool worked = budget.fetch_sub(1, std::memory_order_relaxed) > 0;
    calls.fetch_add(1, std::memory_order_release);
    return worked;
  }
  std::vector<std::thread::id> thread_ids() const {
    std::lock_guard<std::mutex> lock(mutex);
    return threads;
  }
  std::atomic<int> budget;
  std::atomic<int> calls{0};
  mutable std::mutex mutex;
  std::vector<std::thread::id> threads;
};

TEST(FlushWorker, IdleTaskRunsOnlyOnTheWorkerThread) {
  // The scrubber's hook: idle slices run on the worker when its sweeps come
  // up empty, and idle_steps() counts only the slices that did work. A
  // manual channel's pump and drain on the caller's thread never run one.
  FlushWorker worker;
  auto task = std::make_shared<CountingIdleTask>(3);
  worker.register_idle_task(task);
  RecordingSink record;
  auto manual =
      worker.open_manual_channel(std::make_unique<ForwardSink>(&record), 16);
  for (LineAddr l = 1; l <= 4; ++l) ASSERT_TRUE(manual->try_push(l));
  EXPECT_TRUE(manual->pump_one());
  manual->wait_drained();
  ASSERT_TRUE(wait_until(
      [&] { return task->calls.load(std::memory_order_acquire) > 3; }));
  EXPECT_EQ(worker.idle_steps(), 3u);
  for (const std::thread::id id : task->thread_ids()) {
    EXPECT_NE(id, std::this_thread::get_id());
  }
  manual->close();
}

TEST(FlushWorker, IdleTasksTakeTurnsAndExpiredOnesArePruned) {
  // Two tasks that always report work must both keep getting slices (a
  // busy task cannot starve the next), and a registration whose owner is
  // gone is dropped rather than run. The expired registration aliases a
  // task object the test keeps alive, so "never ran" stays observable.
  FlushWorker worker;
  auto first = std::make_shared<CountingIdleTask>(1 << 30);
  auto second = std::make_shared<CountingIdleTask>(1 << 30);
  CountingIdleTask orphan(1 << 30);
  std::weak_ptr<IdleTask> orphan_ref;
  {
    const std::shared_ptr<IdleTask> owner(std::make_shared<int>(0), &orphan);
    orphan_ref = owner;
  }
  ASSERT_TRUE(orphan_ref.expired());
  worker.register_idle_task(first);
  worker.register_idle_task(orphan_ref);
  worker.register_idle_task(second);
  EXPECT_TRUE(wait_until([&] {
    return first->calls.load(std::memory_order_acquire) >= 3 &&
           second->calls.load(std::memory_order_acquire) >= 3;
  })) << "an always-busy idle task starved the other";
  EXPECT_EQ(orphan.calls.load(std::memory_order_acquire), 0)
      << "an expired idle task was run";
}

TEST(FlushWorker, SharedWorkerIsOneInstanceAcrossThreads) {
  // Every async runtime hands its channels to the same worker, whichever
  // thread asks first.
  FlushWorker* seen[2] = {nullptr, nullptr};
  std::thread a([&] { seen[0] = &FlushWorker::shared(); });
  std::thread b([&] { seen[1] = &FlushWorker::shared(); });
  a.join();
  b.join();
  EXPECT_EQ(seen[0], seen[1]);
  EXPECT_EQ(seen[0], &FlushWorker::shared());
}

// --------------------------------------------------------------------------
// Flush-drain watchdog: a wedged consumer is diagnosed, never aborted, and
// the helping drain still completes.
// --------------------------------------------------------------------------

/// Blocks its first flush until the channel's drain watchdog has fired,
/// modeling a worker wedged mid-write-back while holding the consumer lock.
struct WedgedSink final : FlushSink {
  void flush_line(LineAddr) override {
    entered.store(true, std::memory_order_release);
    const FlushChannel* ch = channel.load(std::memory_order_acquire);
    while (ch == nullptr || ch->stall_warnings() == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      ch = channel.load(std::memory_order_acquire);
    }
  }
  void drain() override {}
  std::atomic<bool> entered{false};
  std::atomic<const FlushChannel*> channel{nullptr};
};

TEST(FlushDrainWatchdog, DiagnosesStalledConsumerAndKeepsHelping) {
  // The watchdog is always armed at FlushChannel::kDrainWatchdogMs, so this
  // case takes about one period.
  auto owned = std::make_unique<WedgedSink>();
  WedgedSink* wedged = owned.get();
  auto channel =
      FlushWorker::shared().open_manual_channel(std::move(owned), 16);
  wedged->channel.store(channel.get(), std::memory_order_release);

  for (LineAddr l = 1; l <= 4; ++l) ASSERT_TRUE(channel->try_push(l));
  // The "worker": grabs the consumer lock and wedges inside the sink until
  // the watchdog fires.
  std::thread worker([&] { channel->pump_one(); });
  while (!wedged->entered.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }

  // The producer's completion ticket cannot make progress (lock held) until
  // the watchdog unwedges the sink; it must diagnose, keep helping, and
  // finish the drain rather than aborting.
  channel->wait_drained();
  worker.join();
  EXPECT_GE(channel->stall_warnings(), 1u);
  EXPECT_EQ(channel->flushed(), channel->pushed());
  channel->close();
}

/// Accepts everything (the silent-path control below).
struct AcceptSink final : FlushSink {
  void flush_line(LineAddr) override {}
  void drain() override {}
};

TEST(FlushDrainWatchdog, SilentWhenDraining) {
  auto channel = FlushWorker::shared().open_manual_channel(
      std::make_unique<AcceptSink>(), 16);
  for (LineAddr l = 1; l <= 8; ++l) ASSERT_TRUE(channel->try_push(l));
  channel->wait_drained();  // helping consumer drains everything itself
  EXPECT_EQ(channel->stall_warnings(), 0u);
  EXPECT_EQ(channel->flushed(), 8u);
  channel->close();
}

}  // namespace
}  // namespace nvc::core
