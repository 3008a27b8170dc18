#include "pmem/shadow.hpp"

#include <algorithm>
#include <cstring>
#include <vector>

#include "common/assert.hpp"
#include "common/rng.hpp"

namespace nvc::pmem {

namespace {

/// Salt of the tear decision. Part of the replay contract: a tear seed
/// names the same torn bytes in every build.
constexpr std::uint64_t kTornSalt = 0x746f726e77726974ULL;

/// Stateless mix of three words through splitmix64 (pure => replayable).
std::uint64_t mix(std::uint64_t a, std::uint64_t b, std::uint64_t c) noexcept {
  std::uint64_t s = a ^ (b * 0x9e3779b97f4a7c15ULL) ^
                    (c * 0x94d049bb133111ebULL);
  std::uint64_t h = splitmix64(s);
  return splitmix64(s) ^ h;
}

/// Uniform [0, 1) from a hash word (same construction as Rng::uniform).
double unit(std::uint64_t h) noexcept {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

}  // namespace

ShadowPmem::AlignedImage ShadowPmem::make_image(std::size_t size) {
  // Cache-line aligned so pointer-based line arithmetic (volatile_base())
  // agrees with the offset-based line model.
  auto* p = static_cast<std::uint8_t*>(
      std::aligned_alloc(kCacheLineSize, align_up(size, kCacheLineSize)));
  NVC_REQUIRE(p != nullptr);
  std::memset(p, 0, size);
  return AlignedImage(p, &std::free);
}

ShadowPmem::ShadowPmem(std::size_t size, std::size_t tear_burst,
                       double tear_rate, std::uint64_t tear_seed)
    : size_(size),
      tear_burst_(tear_burst),
      tear_rate_(tear_rate),
      tear_seed_(tear_seed),
      volatile_(make_image(size)),
      durable_(make_image(size)) {
  NVC_REQUIRE(size > 0);
}

void ShadowPmem::store(PmAddr addr, const void* data, std::size_t len) {
  NVC_REQUIRE(addr + len <= size_, "store out of region");
  std::lock_guard<std::mutex> lock(mutex_);
  claim_locked();
  std::memcpy(volatile_.get() + addr, data, len);
  ++stores_;
  const LineAddr first = line_of(addr);
  const LineAddr last = line_of(addr + len - 1);
  for (LineAddr line = first; line <= last; ++line) dirty_.insert(line);
}

void ShadowPmem::load(PmAddr addr, void* out, std::size_t len) const {
  NVC_REQUIRE(addr + len <= size_, "load out of region");
  std::memcpy(out, volatile_.get() + addr, len);
}

void ShadowPmem::flush_line(LineAddr line) {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::uint64_t e = claim_locked();
  if (e > freeze_event_) {
    // Power is off: the line never persists, unless it lands torn.
    tear_locked(line, e);
    return;
  }
  ++flushes_;
  const PmAddr base = line_base(line);
  if (base >= size_) return;  // flush of a line we never mapped
  const std::size_t len = std::min(kCacheLineSize, size_ - base);
  std::memcpy(durable_.get() + base, volatile_.get() + base, len);
  dirty_.erase(line);
  bytes_written_ += len;
  ++line_writes_[line];
}

void ShadowPmem::flush_line_torn(LineAddr line, std::size_t bytes) {
  NVC_REQUIRE(bytes > 0 && bytes < kCacheLineSize && bytes % 8 == 0,
              "torn length must be a multiple of 8 below a full line");
  std::lock_guard<std::mutex> lock(mutex_);
  flush_torn_locked(line, bytes);
}

std::size_t ShadowPmem::torn_bytes(LineAddr line) const noexcept {
  if (tear_rate_ <= 0.0) return 0;
  const std::uint64_t h = mix(tear_seed_, kTornSalt, line);
  if (unit(h) >= tear_rate_) return 0;
  return 8 * (1 + (splitmix64_mix(h) % 7));
}

void ShadowPmem::flush_torn_locked(LineAddr line, std::size_t bytes) {
  const PmAddr base = line_base(line);
  if (base >= size_) return;
  ++torn_flushes_;
  const std::size_t len = std::min(bytes, size_ - base);
  std::memcpy(durable_.get() + base, volatile_.get() + base, len);
  // The line stays dirty: bytes past the tear never persisted. The prefix
  // did program media cells, so it wears the line like any write.
  bytes_written_ += len;
  ++line_writes_[line];
}

void ShadowPmem::fence() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (events_.load(std::memory_order_relaxed) > freeze_event_ &&
      tear_depth_ > 0) {
    tear_closed_ = true;
  }
}

void ShadowPmem::flush_all() {
  // Copy to avoid iterating a set while erasing from it.
  std::vector<LineAddr> lines;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    lines.assign(dirty_.begin(), dirty_.end());
  }
  for (LineAddr line : lines) flush_line(line);
}

void ShadowPmem::crash() {
  std::lock_guard<std::mutex> lock(mutex_);
  // The restarted machine has power again.
  freeze_event_ = ~std::uint64_t{0};
  tear_depth_ = 0;
  tear_last_event_ = 0;
  tear_closed_ = false;
  std::memcpy(volatile_.get(), durable_.get(), size_);
  dirty_.clear();
}

void ShadowPmem::set_clock(bool running) {
  std::lock_guard<std::mutex> lock(mutex_);
  clock_running_ = running;
}

std::uint64_t ShadowPmem::claim_event() {
  std::lock_guard<std::mutex> lock(mutex_);
  return claim_locked();
}

void ShadowPmem::freeze_at(std::uint64_t event) {
  std::lock_guard<std::mutex> lock(mutex_);
  freeze_event_ = event;
}

std::uint64_t ShadowPmem::claim_locked() {
  if (!clock_running_) return 0;
  const std::uint64_t e = events_.load(std::memory_order_relaxed) + 1;
  events_.store(e, std::memory_order_relaxed);
  return e;
}

void ShadowPmem::tear_locked(LineAddr line, std::uint64_t event) {
  // The tear window (see flush_line): open at the first post-cut event,
  // grow by gapless events up to tear_burst_ lines, close for good on a
  // gap, a fence or the burst limit.
  if (tear_rate_ <= 0.0 || event == 0 || tear_closed_) return;
  if (event == freeze_event_ + 1) {
    tear_depth_ = 1;
  } else if (tear_depth_ > 0 && event == tear_last_event_ + 1 &&
             tear_depth_ < tear_burst_) {
    ++tear_depth_;
  } else {
    if (tear_depth_ > 0) tear_closed_ = true;
    return;
  }
  tear_last_event_ = event;
  const std::size_t bytes = torn_bytes(line);
  if (bytes == 0) return;  // this line drops entirely instead of tearing
  flush_torn_locked(line, bytes);
}

WearStats ShadowPmem::wear_stats() const {
  WearStats s;
  s.lines_touched = line_writes_.size();
  std::uint64_t total = 0;
  for (const auto& [line, n] : line_writes_) {
    (void)line;
    total += n;
    s.max_line_writes = std::max(s.max_line_writes, n);
  }
  s.line_writes = total;
  s.bytes_written = bytes_written_;
  if (!line_writes_.empty()) {
    s.mean_line_writes =
        static_cast<double>(total) / static_cast<double>(line_writes_.size());
    if (s.mean_line_writes > 0.0) {
      s.leveling_skew =
          static_cast<double>(s.max_line_writes) / s.mean_line_writes - 1.0;
    }
  }
  return s;
}

void ShadowPmem::load_durable(PmAddr addr, void* out, std::size_t len) const {
  NVC_REQUIRE(addr + len <= size_, "durable load out of region");
  std::memcpy(out, durable_.get() + addr, len);
}

}  // namespace nvc::pmem
