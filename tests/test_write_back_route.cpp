// WriteBackRoute (runtime/write_back_route.hpp, DESIGN.md §8 stage table):
// one table-driven test over every stage combination —
// {no log, strict, batched} x {sync, async on a manual channel, which
// carries flush elision} — with recording sinks standing in for the media.
// Each combination checks the route's three promises:
//   * every data write-back that reaches the media follows a log sync of
//     the records covering its line;
//   * a line still queued, or elided while its owner is pending, is
//     written back by the next drain, and every announce retires — also
//     on the ring's overflow path;
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

/// Data-media stand-in: records every write-back it receives and checks
/// the log-order invariant for each line.
struct MediaSink final : core::FlushSink {
  void flush_line(LineAddr line) override {
    if (log != nullptr) {
      EXPECT_GE(log->tail(), covered[line])
          << "line " << line << " reached the media before its records";
    }
    written.push_back(line);
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
};

/// Worker-side base sink: the channel owns it, the test inspects `media`.
struct ForwardSink final : core::FlushSink {
  explicit ForwardSink(core::FlushSink* t) : target(t) {}
  void flush_line(LineAddr line) override { target->flush_line(line); }
  core::FlushSink* target;
};

/// Log-media stand-in.
struct LogMedia final : core::FlushSink {
  void flush_line(LineAddr) override {}
};

enum class Log { kNone, kStrict, kBatched };

struct Mode {
  Log log;
  bool async;
};

std::string describe(const Mode& m) {
  const char* log = m.log == Log::kNone     ? "nolog"
                    : m.log == Log::kStrict ? "strict"
                                            : "batched";
  return std::string(log) + (m.async ? "/async" : "/sync");
}

constexpr std::size_t kRing = 8;
constexpr std::size_t kLogBytes = 16u << 10;

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
}

TEST(WriteBackRoute, EveryStageCombinationKeepsTheRouteContract) {
  for (const Log log : {Log::kNone, Log::kStrict, Log::kBatched}) {
    for (const bool async : {false, true}) run_mode(Mode{log, async});
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
