// Shadow persistent-memory model: the one power-failure model of the crash
// suites (DESIGN.md §9).
//
// Real hardware keeps recently written lines in the (volatile) CPU cache;
// only flushed lines are guaranteed durable. ShadowPmem makes that split
// explicit: every store lands in the volatile image, a flush copies the
// affected cache line into the durable image, and crash() discards all
// unflushed state.
//
// It also owns the power cut: every store and write-back claims the next
// index on one event clock (history recorders claim on it too), and
// freeze_at(e) cuts the power at e. Claim and apply happen under one lock,
// so event order is apply order whatever thread issues the write-back. As
// a pmem::FlushMedium it takes write-backs by address within its volatile
// image, so a runtime::Runtime whose regions live there runs over it
// unchanged (tests/support/crash_rig.hpp).
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <unordered_set>

#include "common/types.hpp"
#include "pmem/flush.hpp"
#include "pmem/wear.hpp"

namespace nvc::pmem {

class ShadowPmem final : public FlushMedium {
 public:
  /// `tear_burst`: the most post-cut write-backs that may land torn (the
  /// modeled write-queue depth; see flush_line()). `tear_rate`: the chance
  /// that one of them tears rather than drops, decided per line from
  /// `tear_seed` (torn_bytes()); 0 drops every one.
  explicit ShadowPmem(std::size_t size, std::size_t tear_burst = 8,
                      double tear_rate = 0.0, std::uint64_t tear_seed = 1);

  std::size_t size() const noexcept { return size_; }

  /// Write `len` bytes at byte offset `addr` into the volatile image. Claims
  /// an event.
  void store(PmAddr addr, const void* data, std::size_t len);

  /// Convenience: store a trivially-copyable value.
  template <typename T>
  void store_value(PmAddr addr, const T& value) {
    store(addr, &value, sizeof(T));
  }

  /// Read from the volatile image (what the running program sees).
  void load(PmAddr addr, void* out, std::size_t len) const;

  template <typename T>
  T load_value(PmAddr addr) const {
    T v{};
    load(addr, &v, sizeof(T));
    return v;
  }

  /// Persist one cache line: claim an event, then copy the line from
  /// volatile to durable.
  ///
  /// Past the cut the write-back is lost (not counted) unless it lands
  /// torn. With a tear rate set, the gapless run of events freeze+1,
  /// freeze+2, … sat in one in-flight burst, and each of its lines drops
  /// or lands torn per the pure per-line torn_bytes(). Recovery stays
  /// sound because the window closes for good on an event gap (the burst
  /// was over), on a post-cut fence (nothing ordered behind it was ever
  /// issued — a batched log sync's fence sits between the records and the
  /// data write-backs it orders), and at `tear_burst` lines. So every log sync ordered before the burst is durable, torn-in
  /// data bytes are covered by durable undo records, and torn log lines
  /// fail their check words.
  void flush_line(LineAddr line);

  /// Torn write-back: persist only the first `bytes` bytes of `line`
  /// (a multiple of 8 < 64). Works even while frozen — this models the
  /// write-back that raced the power cut and partially landed. The line
  /// stays dirty: its remaining bytes are still unpersisted.
  void flush_line_torn(LineAddr line, std::size_t bytes);

  /// Bytes of `line` a post-cut write-back in the tear window persists:
  /// 0 = it drops whole, else a multiple of 8 in [8, 56] — never a torn
  /// aligned 8-byte word (ADR power-fail atomicity), never the whole line.
  /// Pure: a function of (tear seed, line) gated by the tear rate.
  std::size_t torn_bytes(LineAddr line) const noexcept;

  /// Persist the line containing byte offset `addr`.
  void flush_addr(PmAddr addr) { flush_line(line_of(addr)); }

  // --- pmem::FlushMedium: write-backs by address in the volatile image -----

  void write_back(const void* addr) override {
    flush_line(line_of(static_cast<PmAddr>(
        static_cast<const std::uint8_t*>(addr) - volatile_.get())));
  }
  /// A post-cut fence closes the tear window.
  void fence() override;

  /// Persist every dirty line (models a whole-cache flush).
  void flush_all();

  /// Power failure: all unflushed lines are lost; the volatile image is
  /// reloaded from the durable image (as a restarted process would see).
  /// Power is back after the restart: the cut is cleared; the clock keeps
  /// its count and its running state.
  void crash();

  // --- the power cut ---------------------------------------------------------

  /// Start or stop the event clock (running from construction). While it
  /// is stopped nothing claims an event, so nothing can be frozen away:
  /// setup traffic, and the restarted machine after crash().
  void set_clock(bool running);
  /// Claim the next event index (0 while the clock is stopped). Stores and
  /// write-backs claim internally; history recorders call this for
  /// invocations and responses.
  std::uint64_t claim_event();
  std::uint64_t events() const noexcept {
    return events_.load(std::memory_order_relaxed);
  }
  /// Power fails once the clock passes `event` (freeze_at(events()): from
  /// this instant): every write-back claiming a later event is lost, until
  /// crash() restarts the machine.
  void freeze_at(std::uint64_t event);

  /// Read from the durable image (what recovery would see after a crash).
  void load_durable(PmAddr addr, void* out, std::size_t len) const;

  template <typename T>
  T durable_value(PmAddr addr) const {
    T v{};
    load_durable(addr, &v, sizeof(T));
    return v;
  }

  std::size_t dirty_line_count() const noexcept { return dirty_.size(); }
  bool line_dirty(LineAddr line) const { return dirty_.contains(line); }

  std::uint64_t stores() const noexcept { return stores_; }
  std::uint64_t flushes() const noexcept { return flushes_; }
  std::uint64_t torn_flushes() const noexcept { return torn_flushes_; }

  /// Endurance accounting (DESIGN.md §12): bytes that actually programmed
  /// the durable image — full lines plus torn prefixes; dropped attempts
  /// (frozen, out-of-range) never count.
  std::uint64_t bytes_written() const noexcept { return bytes_written_; }
  /// Write-backs that programmed (part of) `line`.
  std::uint64_t line_write_count(LineAddr line) const {
    const auto it = line_writes_.find(line);
    return it == line_writes_.end() ? 0 : it->second;
  }
  /// Max/mean/leveling-skew over the per-line write counts.
  WearStats wear_stats() const;

  /// Raw base of the volatile image, 64-byte aligned — lets components that
  /// write through pointers (the undo log) live inside the crash model.
  /// Writes through this pointer bypass store()/dirty accounting, but
  /// flush_line() copies the whole line regardless of the dirty set, so a
  /// pointer-writing component persists correctly as long as every byte it
  /// needs durable is covered by a flush_line() before crash().
  std::uint8_t* volatile_base() noexcept { return volatile_.get(); }

 private:
  using AlignedImage = std::unique_ptr<std::uint8_t[], decltype(&std::free)>;
  static AlignedImage make_image(std::size_t size);

  // All under mutex_.
  std::uint64_t claim_locked();
  void tear_locked(LineAddr line, std::uint64_t event);
  void flush_torn_locked(LineAddr line, std::size_t bytes);

  std::size_t size_;
  std::size_t tear_burst_;
  double tear_rate_;
  std::uint64_t tear_seed_;
  AlignedImage volatile_;
  AlignedImage durable_;
  /// Serializes image access and the clock: a worker's write-back may race
  /// the application thread's store to the same line (on hardware the
  /// coherent cache arbitrates). Which one lands first stays
  /// nondeterministic — that is the interleaving the crash matrix sweeps.
  std::mutex mutex_;
  bool clock_running_ = true;
  std::atomic<std::uint64_t> events_{0};
  std::uint64_t freeze_event_ = ~std::uint64_t{0};
  /// Tear window: post-cut write-backs so far, the last one's event, and
  /// whether the window has closed for good.
  std::size_t tear_depth_ = 0;
  std::uint64_t tear_last_event_ = 0;
  bool tear_closed_ = false;
  std::unordered_set<LineAddr> dirty_;
  std::unordered_map<LineAddr, std::uint64_t> line_writes_;
  std::uint64_t stores_ = 0;
  std::uint64_t flushes_ = 0;
  std::uint64_t torn_flushes_ = 0;
  std::uint64_t bytes_written_ = 0;
};

}  // namespace nvc::pmem
