// The flush-behind pipeline (DESIGN.md §8): FlushChannel / FlushWorker /
// AsyncFlushSink. Runs under the `tsan` ctest label — configure with
// -DNVC_SANITIZE=thread to check the producer/worker handoff, the helping
// consumer, and the stats aggregation under ThreadSanitizer.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
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
  bool flush_line(LineAddr line) override {
    std::lock_guard<std::mutex> lock(mutex);
    lines.push_back(line);
    return true;
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
  bool flush_line(LineAddr line) override { return target->flush_line(line); }
  void drain() override { target->drain(); }
  FlushSink* target;
};

/// Sink whose flushes take a while — fills the ring faster than it drains.
struct SlowSink final : FlushSink {
  explicit SlowSink(FlushSink* t) : target(t) {}
  bool flush_line(LineAddr line) override {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    return target->flush_line(line);
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
    for (const LineAddr l : {a, b, c}) ASSERT_TRUE(sink.flush_line(l));
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
    bool sync() override {
      ++syncs;
      thread = std::this_thread::get_id();
      return true;
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
  // the pipeline moves write-backs in time, never adds or drops any.
  EXPECT_EQ(sync_stats.stores, async_stats.stores);
  EXPECT_EQ(sync_stats.flushes, async_stats.flushes);
  EXPECT_EQ(sync_stats.fences, async_stats.fences);
  EXPECT_EQ(sync_stats.log_records, async_stats.log_records);
  EXPECT_GT(async_stats.flushes, 0u);
}

TEST(FlushPipelineRuntime, StatsNeverRaceWithTheWorker) {
  // Enqueue write-backs with no commit point in sight (pwrote outside any
  // FASE never drains), then poll stats() while the background worker is
  // still popping the ring — the satellite's "stats() never races with the
  // worker" guarantee in executable form under -DNVC_SANITIZE=thread:
  // aggregation only reads the channel's release-ordered counter, never the
  // worker-owned backend's plain counters.
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
  for (;;) {
    const runtime::RuntimeStats s = rt.stats();
    EXPECT_GE(s.flushes, last);  // monotone: merged counters never rewind
    last = s.flushes;
    if (s.flushes >= kStores ||
        std::chrono::steady_clock::now() > deadline) {
      break;
    }
    std::this_thread::yield();
  }
  EXPECT_EQ(last, kStores);  // exactly-once: pops + overflow fallbacks
  rt.thread_flush();
  rt.destroy_storage();
}

TEST(FlushPool, SlowSinksNProducersMWorkersExactlyOnce) {
  // N producers x M pool workers with deliberately slow sinks: rings fill,
  // producers overflow into request_wake storms, home workers wedge in
  // flush_line long enough for steal sweeps and helping drains to engage.
  // Every line must still retire exactly once, and the release-published
  // flushed() counters must equal the producer-side pushed() counts.
  constexpr std::size_t kProducers = 3;
  constexpr std::uint64_t kLinesEach = 96;
  FlushWorker pool(2);
  RecordingSink record;
  std::vector<std::shared_ptr<FlushChannel>> channels(kProducers);
  for (std::size_t p = 0; p < kProducers; ++p) {
    channels[p] = pool.open_channel(std::make_unique<SlowSink>(&record), 16);
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

TEST(FlushPool, BatchedHomeSweepsStayFifoAgainstHelpersAndThieves) {
  // Channel A homes on worker 0, B on worker 1. A's producer pushes bursts
  // past the spin batch (half of A's 64-slot ring), so worker 0 retires
  // them in batches while it spins, and drains each burst as a helping
  // consumer. B's producer keeps its own ring short and drains constantly,
  // so worker 1 idles into steal sweeps of A, and B's wait_drained steals
  // from A while it waits. Every consumer of A goes through A's lock: each
  // line retires exactly once, in push order.
  FlushWorker pool(2);
  RecordingSink record_a;
  RecordingSink record_b;
  auto a = pool.open_channel(std::make_unique<ForwardSink>(&record_a), 64);
  auto b = pool.open_channel(std::make_unique<ForwardSink>(&record_b), 64);
  ASSERT_EQ(a->home(), 0u);
  ASSERT_EQ(b->home(), 1u);
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

}  // namespace
}  // namespace nvc::core
