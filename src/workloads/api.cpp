#include "workloads/api.hpp"

#include <atomic>
#include <cstdlib>

namespace nvc::workloads {

void ThreadTrace::store_trace(std::vector<LineAddr>* stores,
                              std::vector<std::size_t>* boundaries) const {
  stores->clear();
  boundaries->clear();
  stores->reserve(static_cast<std::size_t>(store_count));
  for (const TraceEvent& ev : events) {
    switch (ev.kind) {
      case TraceEvent::Kind::kStore:
        stores->push_back(ev.value);
        break;
      case TraceEvent::Kind::kFaseEnd:
      case TraceEvent::Kind::kBarrier:  // barrier also clears the cache
        boundaries->push_back(stores->size());
        break;
      case TraceEvent::Kind::kFaseBegin:
      case TraceEvent::Kind::kCompute:
      case TraceEvent::Kind::kLoad:
        break;
    }
  }
}

/// Bump arena for trace-mode allocations. Thread-safe via an atomic cursor;
/// 64-byte aligns every allocation so trace line addresses never alias
/// across objects.
struct TraceApi::Arena {
  explicit Arena(std::size_t bytes)
      : storage(static_cast<char*>(std::aligned_alloc(
            kCacheLineSize, align_up(bytes, kCacheLineSize)))),
        size(align_up(bytes, kCacheLineSize)) {
    NVC_REQUIRE(storage != nullptr, "trace arena allocation failed");
  }
  ~Arena() { std::free(storage); }

  void* alloc(std::size_t n) {
    const std::size_t need = align_up(n, kCacheLineSize);
    const std::size_t off = cursor.fetch_add(need, std::memory_order_relaxed);
    NVC_REQUIRE(off + need <= size, "trace arena exhausted");
    return storage + off;
  }

  char* storage;
  std::size_t size;
  std::atomic<std::size_t> cursor{0};
};

TraceApi::TraceApi(std::size_t threads, std::size_t arena_bytes)
    : traces_(threads), arena_(std::make_unique<Arena>(arena_bytes)) {
  NVC_REQUIRE(threads >= 1);
}

TraceApi::~TraceApi() = default;
TraceApi::TraceApi(TraceApi&&) noexcept = default;
TraceApi& TraceApi::operator=(TraceApi&&) noexcept = default;

void* TraceApi::alloc(std::size_t, std::size_t size) {
  return arena_->alloc(size);
}

void TraceApi::fase_begin(std::size_t tid) {
  traces_[tid].events.push_back(
      TraceEvent{TraceEvent::Kind::kFaseBegin, 0});
}

void TraceApi::fase_end(std::size_t tid) {
  ThreadTrace& t = traces_[tid];
  t.events.push_back(TraceEvent{TraceEvent::Kind::kFaseEnd, 0});
  ++t.fase_count;
}

void TraceApi::wrote(std::size_t tid, const void* addr, std::size_t len) {
  NVC_ASSERT(len > 0);
  ThreadTrace& t = traces_[tid];
  const auto a = reinterpret_cast<PmAddr>(addr);
  const LineAddr first = line_of(a);
  const LineAddr last = line_of(a + len - 1);
  for (LineAddr line = first; line <= last; ++line) {
    t.events.push_back(TraceEvent{TraceEvent::Kind::kStore, line});
    ++t.store_count;
  }
}

void TraceApi::compute(std::size_t tid, std::uint64_t instr) {
  ThreadTrace& t = traces_[tid];
  // Coalesce adjacent compute events to keep traces compact.
  if (!t.events.empty() &&
      t.events.back().kind == TraceEvent::Kind::kCompute) {
    t.events.back().value += instr;
  } else {
    t.events.push_back(TraceEvent{TraceEvent::Kind::kCompute, instr});
  }
  t.compute_instr += instr;
}

LineAddr TraceApi::arena_base_line() const noexcept {
  return line_of(reinterpret_cast<PmAddr>(arena_->storage));
}

void TraceApi::persist_barrier(std::size_t tid) {
  traces_[tid].events.push_back(TraceEvent{TraceEvent::Kind::kBarrier, 0});
}

void TraceApi::read(std::size_t tid, const void* addr, std::size_t len) {
  NVC_ASSERT(len > 0);
  ThreadTrace& t = traces_[tid];
  const auto a = reinterpret_cast<PmAddr>(addr);
  const LineAddr first = line_of(a);
  const LineAddr last = line_of(a + len - 1);
  for (LineAddr line = first; line <= last; ++line) {
    // Coalesce immediately repeated loads of the same line (a read sweep
    // emits one event per line, like the hardware sees one fill).
    if (!t.events.empty() &&
        t.events.back().kind == TraceEvent::Kind::kLoad &&
        t.events.back().value == line) {
      continue;
    }
    t.events.push_back(TraceEvent{TraceEvent::Kind::kLoad, line});
    ++t.load_count;
  }
}

std::uint64_t TraceApi::total_stores() const noexcept {
  std::uint64_t total = 0;
  for (const auto& t : traces_) total += t.store_count;
  return total;
}

}  // namespace nvc::workloads
