// WriteBackRoute (runtime/write_back_route.hpp, DESIGN.md §8 stage table):
// one table-driven test over every stage combination —
// {no log, strict, batched} x {sync, async on a manual channel, which
// carries flush elision} x {faults off, armed} — with recording sinks
// standing in for the media. Each combination checks the route's four promises:
//   * every data write-back that reaches the media follows a log sync of
//     the records covering its line;
//   * a line still queued, or elided while its owner is pending, is
//     written back by the next drain, and every announce retires — also
//     on the ring's overflow path;
//   * once the async->sync latch fires, nothing more enters the ring or
//     the elision table;
//   * the hazard check is true exactly for lines still queued or pending.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "runtime/write_back_route.hpp"

namespace nvc::runtime {
namespace {

/// Data-media stand-in: records every write-back it accepts, fails on
/// demand, and checks the log-order invariant for each line it receives.
struct MediaSink final : core::FlushSink {
  bool flush_line(LineAddr line) override {
    if (line == bad_line) return false;
    if (fail_next > 0) {
      --fail_next;
      return false;
    }
    if (log != nullptr) {
      EXPECT_GE(log->tail(), covered[line])
          << "line " << line << " reached the media before its records";
    }
    written.push_back(line);
    return true;
  }
  bool has(LineAddr line) const {
    for (const LineAddr l : written) {
      if (l == line) return true;
    }
    return false;
  }

  const UndoLog* log = nullptr;
  /// Appended log tail right after each line's record: the durable tail
  /// must cover it before the line may be written back.
  std::unordered_map<LineAddr, std::uint64_t> covered;
  std::vector<LineAddr> written;
  int fail_next = 0;
  LineAddr bad_line = ~LineAddr{0};
};

/// Worker-side base sink: the channel owns it, the test inspects `media`.
struct ForwardSink final : core::FlushSink {
  explicit ForwardSink(core::FlushSink* t) : target(t) {}
  bool flush_line(LineAddr line) override { return target->flush_line(line); }
  core::FlushSink* target;
};

/// Log-media stand-in: every write-back succeeds.
struct LogMedia final : core::FlushSink {
  bool flush_line(LineAddr) override { return true; }
};

enum class Log { kNone, kStrict, kBatched };

struct Mode {
  Log log;
  bool async;
  bool faults;
};

std::string describe(const Mode& m) {
  const char* log = m.log == Log::kNone     ? "nolog"
                    : m.log == Log::kStrict ? "strict"
                                            : "batched";
  return std::string(log) + (m.async ? "/async" : "/sync") +
         (m.faults ? "/faults" : "");
}

constexpr std::size_t kRing = 8;
constexpr std::size_t kLogBytes = 16u << 10;
constexpr std::uint32_t kDegradeAfter = 2;

void run_mode(const Mode& m) {
  SCOPED_TRACE(describe(m));
  MediaSink media;
  LogMedia log_media;
  auto* log_buf = static_cast<char*>(std::aligned_alloc(64, kLogBytes));
  std::unique_ptr<char, decltype(&std::free)> log_guard(log_buf, &std::free);
  std::unique_ptr<UndoLog> log;
  if (m.log != Log::kNone) {
    log = std::make_unique<UndoLog>(log_buf, kLogBytes, &log_media,
                                    m.log == Log::kStrict
                                        ? LogSyncMode::kStrict
                                        : LogSyncMode::kBatched);
    log->format();
    media.log = log.get();
  }
  auto table = m.async ? std::make_shared<core::FlushElisionTable>() : nullptr;

  WriteBackSpec spec;
  spec.sync_sink = &media;
  spec.log = log.get();
  spec.elision = table;
  if (m.faults) spec.faults = std::make_shared<core::FaultStats>();
  spec.retry = core::RetryPolicy{/*max_retries=*/3, 0, 0};
  spec.degrade_after = kDegradeAfter;
  if (m.async) {
    spec.worker_sink = std::make_unique<ForwardSink>(&media);
    spec.ring_depth = kRing;
    spec.manual_channel = true;
  }
  WriteBackRoute route(std::move(spec));

  // A store to `line` as a runtime makes it: undo record, hazard ordering,
  // then the policy's write-back through the route.
  std::uint64_t cell = 0;
  auto store_and_flush = [&](LineAddr line) {
    if (log != nullptr) {
      log->record(line * kCacheLineSize, &cell, sizeof cell);
      media.covered[line] = log->appended_tail();
      route.order_store(line, line);
    }
    ++cell;
    route.sink().flush_line(line);
    if (log != nullptr) {
      EXPECT_EQ(log->tail(), log->appended_tail())
          << "the route forwarded line " << line << " without a log sync";
    }
  };

  // Lines 1..6 fit the ring: in async mode all stay queued.
  std::set<LineAddr> queued;
  for (LineAddr line = 1; line <= 6; ++line) {
    store_and_flush(line);
    if (m.async) queued.insert(line);
  }
  // Another context's announced, not yet started write-back.
  std::set<LineAddr> foreign;
  if (table != nullptr) {
    ASSERT_EQ(table->announce(200), core::FlushElisionTable::Announce::kOwner);
    foreign.insert(200);
  }
  auto check_hazard = [&] {
    for (LineAddr line = 0; line <= 210; ++line) {
      const bool expected = queued.contains(line) || foreign.contains(line);
      EXPECT_EQ(route.inflight(line), expected) << "line " << line;
    }
  };
  check_hazard();
  if (m.async) {
    ASSERT_TRUE(route.pump_one());  // FIFO: line 1 leaves the ring
    queued.erase(1);
    EXPECT_TRUE(media.has(1));
    EXPECT_FALSE(media.has(2));
  } else {
    for (LineAddr line = 1; line <= 6; ++line) EXPECT_TRUE(media.has(line));
  }
  check_hazard();

  // An eviction of a line whose foreign write-back is pending is elided,
  // and the drain writes it back after all.
  if (table != nullptr) {
    store_and_flush(200);
    EXPECT_EQ(route.elided(), 1u);
    EXPECT_FALSE(media.has(200));
  }
  route.sink().drain();
  for (LineAddr line = 1; line <= 6; ++line) EXPECT_TRUE(media.has(line));
  queued.clear();
  if (table != nullptr) {
    EXPECT_TRUE(media.has(200));
    EXPECT_EQ(route.reflushed(), 1u);
    table->retire(200);
    foreign.clear();
  }
  check_hazard();
  // Async: the six queued lines, plus the elided line the drain re-flushed
  // through the ring.
  EXPECT_EQ(route.ring_flushes(), m.async ? 7u : 0u);

  // A full ring writes the next line back at once, through the overflow
  // retire stage: once drained, no announce stays pending.
  if (m.async) {
    for (LineAddr line = 300; line <= 300 + kRing; ++line) {
      store_and_flush(line);
    }
    EXPECT_TRUE(media.has(300 + kRing));
    route.sink().drain();
    EXPECT_EQ(table->pending_count(), 0u);
  }

  // Transient failures up to the latch threshold; retries absorb them when
  // the retry stage is armed.
  media.fail_next = kDegradeAfter;
  store_and_flush(400);
  route.sink().drain();
  media.fail_next = 0;  // unarmed routes do not retry the failures away
  route.maybe_degrade();
  const bool flush_latch = m.faults && m.async;
  EXPECT_EQ(route.flush_degraded(), flush_latch);
  EXPECT_EQ(route.log_degraded(), m.faults && m.log == Log::kBatched);
  if (log != nullptr) {
    EXPECT_EQ(log->mode(), m.log == Log::kStrict || m.faults
                               ? LogSyncMode::kStrict
                               : LogSyncMode::kBatched);
  }
  if (m.faults) {
    EXPECT_TRUE(media.has(400));
    EXPECT_EQ(route.faults()->transients(), kDegradeAfter);
  } else {
    EXPECT_EQ(route.faults(), nullptr);
  }

  if (flush_latch) {
    // Degraded: straight to the retrying sync path — no ring push, no
    // elision-table traffic, the media sees the line at once.
    const std::uint64_t ring_before = route.ring_flushes();
    const std::uint64_t announces_before = table->stats().announces;
    store_and_flush(500);
    EXPECT_TRUE(media.has(500));
    EXPECT_FALSE(route.inflight(500));
    route.sink().drain();
    EXPECT_EQ(route.ring_flushes(), ring_before);
    EXPECT_EQ(table->stats().announces, announces_before);
  }

  // A line that can never be written: quarantine suspends commits for good
  // when the retry stage is armed; otherwise the failure just propagates.
  EXPECT_TRUE(route.commit_allowed());
  media.bad_line = 600;
  store_and_flush(600);
  route.sink().drain();
  EXPECT_EQ(route.commit_allowed(), !m.faults);
  EXPECT_EQ(route.commit_suspended(), m.faults);
  media.bad_line = ~LineAddr{0};
  store_and_flush(601);
  route.sink().drain();
  EXPECT_EQ(route.commit_allowed(), !m.faults);
}

TEST(WriteBackRoute, EveryStageCombinationKeepsTheRouteContract) {
  for (const Log log : {Log::kNone, Log::kStrict, Log::kBatched}) {
    for (const bool async : {false, true}) {
      for (const bool faults : {false, true}) {
        run_mode(Mode{log, async, faults});
      }
    }
  }
}

TEST(WriteBackRoute, ElisionAndTheRingComeOnlyTogether) {
  // Flush elision is part of flush-behind: a table without a ring (a
  // synchronous elide stage) and a ring without a table are both refused.
  MediaSink media;
  EXPECT_DEATH(
      {
        WriteBackSpec spec;
        spec.sync_sink = &media;
        spec.elision = std::make_shared<core::FlushElisionTable>();
        WriteBackRoute route(std::move(spec));
      },
      "flush elision rides the flush-behind ring");
  EXPECT_DEATH(
      {
        WriteBackSpec spec;
        spec.sync_sink = &media;
        spec.worker_sink = std::make_unique<ForwardSink>(&media);
        spec.ring_depth = kRing;
        spec.manual_channel = true;
        WriteBackRoute route(std::move(spec));
      },
      "flush elision rides the flush-behind ring");
}

}  // namespace
}  // namespace nvc::runtime
