#include "core/write_cache.hpp"

#include <bit>
#include <utility>

#include "common/assert.hpp"
#include "common/simd.hpp"

namespace nvc::core {

static_assert(WriteCache::kMaxCapacity % 4 == 0,
              "the four-wide search reads whole groups of four slots");

WriteCache::WriteCache(std::size_t capacity) : capacity_(capacity) {
  NVC_REQUIRE(capacity >= 1 && capacity <= kMaxCapacity);
  lines_.fill(kNoLine);
}

inline std::size_t WriteCache::find(LineAddr line) const noexcept {
#if NVC_SIMD_AVX2
  const __m256i key = _mm256_set1_epi64x(static_cast<long long>(line));
  for (std::size_t i = 0; i < size_; i += 4) {
    const __m256i group = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(lines_.data() + i));
    const auto mask = static_cast<unsigned>(_mm256_movemask_pd(
        _mm256_castsi256_pd(_mm256_cmpeq_epi64(group, key))));
    if (mask != 0) return i + static_cast<std::size_t>(std::countr_zero(mask));
  }
  return size_;
#else
  std::size_t i = 0;
  while (i < size_ && lines_[i] != line) ++i;
  return i;
#endif
}

inline void WriteCache::push_front(LineAddr line,
                                   std::size_t depth) noexcept {
  // Plain loops, no memmove call: the usual depth is a handful of lines,
  // where the call costs more than the copy.
  std::size_t i = depth;
#if NVC_SIMD_AVX2
  // Four lines down one slot per step, deepest first: a step reads only
  // slots below every slot an earlier step wrote.
  for (; i >= 4; i -= 4) {
    const __m256i four = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(lines_.data() + i - 4));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(lines_.data() + i - 3),
                        four);
  }
#endif
  // Carry each remaining line one slot down (a shifting loop would be
  // compiled into a memmove call).
  LineAddr carry = line;
  for (std::size_t k = 0; k <= i; ++k) std::swap(carry, lines_[k]);
}

inline void WriteCache::evict_lru(FlushSink& sink) {
  NVC_ASSERT(size_ > 0);
  const LineAddr line = lines_[--size_];
  lines_[size_] = kNoLine;
  ++stats_.evictions;
  sink.flush_line(line);
}

bool WriteCache::access(LineAddr line, FlushSink& sink) {
  NVC_ASSERT(line != kNoLine);
  ++stats_.accesses;
  const std::size_t depth = find(line);
  if (depth < size_) {
    ++stats_.hits;
    push_front(line, depth);
    return true;
  }
  if (size_ == capacity_) evict_lru(sink);
  push_front(line, size_);
  ++size_;
  return false;
}

void WriteCache::flush_all(FlushSink& sink) {
  while (size_ > 0) {
    const LineAddr line = lines_[--size_];
    lines_[size_] = kNoLine;
    ++stats_.fase_flushes;
    sink.flush_line(line);
  }
}

void WriteCache::resize(std::size_t new_capacity, FlushSink& sink) {
  NVC_REQUIRE(new_capacity >= 1 && new_capacity <= kMaxCapacity);
  while (size_ > new_capacity) evict_lru(sink);
  capacity_ = new_capacity;
}

bool WriteCache::contains(LineAddr line) const noexcept {
  return find(line) < size_;
}

std::vector<LineAddr> WriteCache::lru_order() const {
  return {lines_.rbegin() + static_cast<std::ptrdiff_t>(kMaxCapacity - size_),
          lines_.rend()};
}

}  // namespace nvc::core
