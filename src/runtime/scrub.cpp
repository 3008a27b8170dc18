#include "runtime/scrub.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

#include "pmem/pmem_alloc.hpp"
#include "runtime/undo_log.hpp"

namespace nvc::runtime {

Scrubber::Scrubber(pmem::FlushBackend backend, void* data,
                   std::size_t data_size, void* logs,
                   std::size_t log_segment_size, std::size_t log_segments)
    : backend_(std::move(backend)),
      data_(static_cast<char*>(data)),
      data_size_(data_size),
      logs_(static_cast<char*>(logs)),
      log_segment_size_(log_segment_size),
      log_segments_(log_segments) {}

void Scrubber::refresh_header_mirror() {
  // Caller holds header_lock_. The mirror is refreshed after every
  // legitimate mutation, so by the time scrub_metadata compares (under the
  // same lock) any divergence with an *implausible* live header is
  // corruption, never an in-flight update.
  const std::size_t n = pmem::PmemAllocator::header_size();
  if (data_ == nullptr || data_size_ < n) return;
  header_mirror_.resize(n);
  std::memcpy(header_mirror_.data(), data_, n);
  mirror_valid_ = true;
}

void Scrubber::scrub_metadata() {
  // Heap header: only under the owner's lock, and only repair when the
  // header fails its own plausibility checks — a legitimate racer never
  // produces an implausible header, so restoring the mirror can never
  // clobber a valid newer state.
  if (header_lock_ != nullptr && data_ != nullptr) {
    std::lock_guard<std::mutex> lock(*header_lock_);
    const pmem::PmemAllocator::HeaderStatus st =
        pmem::PmemAllocator::inspect(data_, data_size_);
    const bool corrupt = !st.magic_ok || !st.version_ok || !st.bump_plausible;
    if (corrupt) {
      ++checksum_mismatches_;  // detected either way
      if (mirror_valid_) {
        std::memcpy(data_, header_mirror_.data(), header_mirror_.size());
        persist_repair(data_, header_mirror_.size());
        metadata_repairs_.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }

  // Undo-log header magics: the magic is immutable after format, so the
  // compile-time constant IS the redundant copy. The state word mutates on
  // every sync/commit and cannot be checked online. All-zero headers are
  // stillborn slots, not corruption.
  if (logs_ != nullptr) {
    for (std::size_t s = 0; s < log_segments_; ++s) {
      char* seg = logs_ + s * log_segment_size_;
      std::uint64_t magic;
      std::memcpy(&magic, seg, sizeof(magic));
      if (magic == UndoLog::kMagic || magic == 0) continue;
      const std::uint64_t fixed = UndoLog::kMagic;
      std::memcpy(seg, &fixed, sizeof(fixed));
      persist_repair(seg, sizeof(fixed));
      metadata_repairs_.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

void Scrubber::persist_repair(const char* p, std::size_t len) {
  // A repair is a media write like any other: without the write-back it
  // would sit in the cache, lost at a crash.
  const LineAddr first = line_of(reinterpret_cast<PmAddr>(p));
  const LineAddr last = line_of(reinterpret_cast<PmAddr>(p + len - 1));
  for (LineAddr line = first; line <= last; ++line) {
    backend_.flush(reinterpret_cast<const void*>(line_base(line)));
    if (wear_ != nullptr) wear_->record(line);
  }
  backend_.fence();
}

void Scrubber::scrub_data_batch() {
  if (data_ == nullptr || data_size_ < kCacheLineSize) return;
  const std::size_t total_lines = data_size_ / kCacheLineSize;
  const std::size_t batch = std::min(kBatchLines, total_lines);
  for (std::size_t i = 0; i < batch; ++i) {
    const std::size_t idx = cursor_;
    cursor_ = (cursor_ + 1) % total_lines;
    if (cursor_ == 0) passes_.fetch_add(1, std::memory_order_relaxed);
    const char* line_bytes = data_ + idx * kCacheLineSize;
    if (table_ != nullptr && !table_->verify(idx, line_bytes)) {
      // Committed content no longer matches its commit-time checksum and
      // no store is in flight (dirty lines are not checkable). Data has no
      // redundant copy — count and surface, never "repair" by guessing.
      checksum_mismatches_.fetch_add(1, std::memory_order_relaxed);
    }
    lines_scanned_.fetch_add(1, std::memory_order_relaxed);
  }
}

bool Scrubber::idle_step() {
  if (stopped_.load(std::memory_order_acquire)) return false;
  std::unique_lock<std::mutex> lock(slice_mutex_, std::try_to_lock);
  if (!lock.owns_lock()) return false;  // another worker's slice is running
  if (stopped_.load(std::memory_order_acquire)) return false;
  scrub_metadata();
  scrub_data_batch();
  slices_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void Scrubber::shutdown() {
  stopped_.store(true, std::memory_order_release);
  // Wait out an in-flight slice: once we hold the slice lock, every later
  // idle_step observes stopped_ and returns before touching the region.
  std::lock_guard<std::mutex> lock(slice_mutex_);
}

ScrubStats Scrubber::stats() const {
  ScrubStats s;
  s.slices = slices_.load(std::memory_order_relaxed);
  s.passes = passes_.load(std::memory_order_relaxed);
  s.lines_scanned = lines_scanned_.load(std::memory_order_relaxed);
  s.metadata_repairs = metadata_repairs_.load(std::memory_order_relaxed);
  s.checksum_mismatches = checksum_mismatches_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace nvc::runtime
