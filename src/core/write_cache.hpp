// The software write-combining cache (paper Sections II-B, III-C).
//
// A per-thread, fully associative, LRU-replacement, *resizable* cache of
// dirty cache-line addresses. Each persistent store inserts its line address;
// a hit means the write was combined with an earlier one. On eviction (cache
// full) or at FASE end, the owner flushes the evicted line from the hardware
// cache to NVRAM.
//
// Departure from the paper's structure: the paper pairs a hash map with a
// doubly linked list so that every operation is O(1). This cache is one
// array of line addresses in recency order (MRU first), searched four lines
// per AVX2 compare (a scalar loop under NVC_NO_SIMD); a hit at depth d
// shifts the d more recent lines down one slot. The capacity is bounded by
// kMaxCapacity = 64, just above the knee rule's 50-line bound on the
// FASE-end stall, and at such sizes (5 on ocean, 7 on raytrace) a short
// scan of one or two cache lines beats a hash probe plus a list relink.
// The replacement order is the paper's LRU exactly, so every flush
// sequence is unchanged.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common/types.hpp"

namespace nvc::core {

/// Receives cache lines that must be written back to NVRAM.
class FlushSink {
 public:
  virtual ~FlushSink() = default;
  /// Write back (flush) one hardware cache line. Returns true when the
  /// line was accepted (durably written, or queued on a path that will
  /// retry/account for it); false when the media rejected the write-back
  /// and the line is NOT durable — fault-tolerant decorators
  /// (core/fault_sink.hpp) turn persistent false into quarantine.
  /// Infallible sinks simply return true.
  virtual bool flush_line(LineAddr line) = 0;
  /// Ordering point: wait until previously issued flushes are durable.
  virtual void drain() {}
};

/// Sink that only counts (used when an experiment needs flush ratios only).
class CountingSink final : public FlushSink {
 public:
  bool flush_line(LineAddr) override {
    ++count_;
    return true;
  }
  std::uint64_t count() const noexcept { return count_; }
  void reset() noexcept { count_ = 0; }

 private:
  std::uint64_t count_ = 0;
};

struct WriteCacheStats {
  std::uint64_t accesses = 0;   // persistent stores observed
  std::uint64_t hits = 0;       // writes combined with a buffered line
  std::uint64_t evictions = 0;  // flushes caused by capacity
  std::uint64_t fase_flushes = 0;  // flushes caused by FASE end

  std::uint64_t misses() const noexcept { return accesses - hits; }
  std::uint64_t flushes() const noexcept { return evictions + fase_flushes; }
  double hit_ratio() const noexcept {
    return accesses == 0
               ? 0.0
               : static_cast<double>(hits) / static_cast<double>(accesses);
  }
};

class WriteCache {
 public:
  /// `capacity` is the number of line addresses buffered (paper default 8).
  explicit WriteCache(std::size_t capacity = kDefaultCapacity);

  WriteCache(const WriteCache&) = delete;
  WriteCache& operator=(const WriteCache&) = delete;

  /// Record a persistent store to `line`. Returns true if the write was
  /// combined (line already buffered). May evict the LRU line into `sink`.
  bool access(LineAddr line, FlushSink& sink);

  /// Flush and drop every buffered line (FASE end). Eviction order is LRU
  /// first, so the most recently written lines stay hot the longest.
  void flush_all(FlushSink& sink);

  /// Change the capacity. Shrinking evicts LRU lines into `sink`.
  void resize(std::size_t new_capacity, FlushSink& sink);

  std::size_t capacity() const noexcept { return capacity_; }
  std::size_t size() const noexcept { return size_; }
  bool contains(LineAddr line) const noexcept;

  /// Buffered lines from LRU to MRU (test/diagnostic helper).
  std::vector<LineAddr> lru_order() const;

  const WriteCacheStats& stats() const noexcept { return stats_; }
  void reset_stats() noexcept { stats_ = {}; }

  /// Rough x86 instruction footprint of one operation of the paper's
  /// hash map + list structure; used by the cost model to account for the
  /// software cache's instruction overhead (paper Table IV: SC executes ~8%
  /// more instructions than AT). The model keeps the paper's figures.
  static constexpr std::uint64_t kInstrPerHit = 18;    // probe + list move
  static constexpr std::uint64_t kInstrPerInsert = 24; // probe + link

  static constexpr std::size_t kDefaultCapacity = 8;  // paper Section III-C
  /// A linear search is short only while the cache is: policies refuse a
  /// size above this bound at construction.
  static constexpr std::size_t kMaxCapacity = 64;

 private:
  /// Fills every slot at and past size_, so a four-wide compare may read
  /// past the last line without matching (no line address is ~0).
  static constexpr LineAddr kNoLine = ~LineAddr{0};

  /// Depth of `line` (0 = MRU), or size_ when it is not buffered.
  std::size_t find(LineAddr line) const noexcept;
  /// Move lines_[0, depth) down one slot and put `line` first.
  void push_front(LineAddr line, std::size_t depth) noexcept;
  void evict_lru(FlushSink& sink);

  std::size_t capacity_;
  std::size_t size_ = 0;
  // Cache-line aligned, so no group of four lines straddles two lines.
  alignas(64) std::array<LineAddr, kMaxCapacity> lines_;
  WriteCacheStats stats_;
};

}  // namespace nvc::core
