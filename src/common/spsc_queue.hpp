// Bounded lock-free single-producer / single-consumer ring buffer.
//
// Used to hand evicted line addresses from an application thread to the
// flush-behind worker: the producing thread only writes its own tail index
// and the consumer only writes its own head index, so a push is wait-free —
// one slot move plus one release store. Capacity is a power of two fixed at
// construction; push fails (rather than blocks) when the ring is full so
// the producer can fall back instead of stalling.
//
// Each side keeps a private copy of the other side's cursor on its own
// cache line and re-reads the shared one only when its copy says the ring
// is full (producer) or empty (consumer). A steady stream of pushes then
// never pulls the consumer's line to the producer's core, and vice versa:
// only the slots and the cursor being published cross cores. A stale copy
// is always conservative — it can only make the ring look fuller (producer)
// or emptier (consumer) than it is, never the reverse.
#pragma once

#include <atomic>
#include <cstddef>
#include <optional>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "common/types.hpp"

namespace nvc {

template <typename T>
class SpscQueue {
 public:
  explicit SpscQueue(std::size_t capacity)
      : ring_(capacity), mask_(capacity - 1) {
    NVC_REQUIRE(is_pow2(capacity), "SPSC capacity must be a power of two");
  }

  /// Producer side. Returns false (leaving `v` intact) when full.
  bool try_push(T&& v) {
    const std::size_t tail = tail_.load(std::memory_order_relaxed);
    if (tail - head_seen_ == ring_.size()) {
      head_seen_ = head_.load(std::memory_order_acquire);
      if (tail - head_seen_ == ring_.size()) return false;
    }
    ring_[tail & mask_] = std::move(v);
    tail_.store(tail + 1, std::memory_order_release);
    return true;
  }

  /// Consumer side. Empty optional when no element is ready. Consumers on
  /// different threads must be serialized by a lock (the cached producer
  /// cursor is plain consumer state).
  std::optional<T> try_pop() {
    const std::size_t head = head_.load(std::memory_order_relaxed);
    if (head == tail_seen_) {
      tail_seen_ = tail_.load(std::memory_order_acquire);
      if (head == tail_seen_) return std::nullopt;
    }
    std::optional<T> v(std::move(ring_[head & mask_]));
    ring_[head & mask_] = T{};  // release payload resources eagerly
    head_.store(head + 1, std::memory_order_release);
    return v;
  }

  /// Approximate from any thread (exact only from the owning side's
  /// perspective). Reads both shared cursors, never the cached copies.
  std::size_t size() const noexcept {
    return tail_.load(std::memory_order_acquire) -
           head_.load(std::memory_order_acquire);
  }
  bool empty() const noexcept { return size() == 0; }
  std::size_t capacity() const noexcept { return ring_.size(); }

  /// Successful pushes so far (exact on the producer's thread).
  std::size_t pushes() const noexcept {
    return tail_.load(std::memory_order_relaxed);
  }

 private:
  std::vector<T> ring_;
  const std::size_t mask_;
  /// Consumer line: its cursor and its copy of the producer's.
  alignas(kCacheLineSize) std::atomic<std::size_t> head_{0};
  std::size_t tail_seen_ = 0;
  /// Producer line: its cursor and its copy of the consumer's.
  alignas(kCacheLineSize) std::atomic<std::size_t> tail_{0};
  std::size_t head_seen_ = 0;
};

}  // namespace nvc
