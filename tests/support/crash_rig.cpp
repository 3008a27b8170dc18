#include "support/crash_rig.hpp"

#include <bit>

#include "common/assert.hpp"
#include "pmem/pmem_alloc.hpp"

namespace nvc::testing {

namespace {

/// Heap region holding one `data_bytes` block per context: the allocator
/// header, then per block a size-class payload (line-aligned) behind its
/// 32-byte block header, which takes one more line.
std::size_t region_bytes_for(std::size_t contexts, std::size_t data_bytes) {
  const std::size_t block = std::bit_ceil(data_bytes) + kCacheLineSize;
  return align_up(pmem::PmemAllocator::header_size() + kCacheLineSize +
                      contexts * block,
                  4096);
}

}  // namespace

runtime::RuntimeConfig rig_runtime_config(std::size_t contexts) {
  runtime::RuntimeConfig config;
  config.region_name = "crash-rig";
  config.policy = decltype(config.policy)::kSoftCacheOffline;
  config.policy_config.cache_size = 2;
  config.policy_config.sampler.burst_length = 48;
  config.policy_config.sampler.hibernation_length = 32;
  config.flush = pmem::FlushKind::kCountOnly;
  config.flush_queue_depth = 8;
  config.undo_logging = true;
  config.log_segment_size = 32u << 10;
  config.max_threads = contexts;
  return config;
}

CrashRig::CrashRig(runtime::RuntimeConfig config, const CrashRigConfig& medium)
    : config_(std::move(config)),
      medium_(medium),
      region_bytes_(region_bytes_for(config_.max_threads, data_bytes())),
      shadow_(region_bytes_ +
                  (config_.undo_logging
                       ? config_.max_threads * config_.log_segment_size
                       : 0),
              medium_.tear_burst, medium_.tear_rate, medium_.tear_seed) {
  NVC_REQUIRE(medium_.data_lines >= 1);
  config_.region_size = region_bytes_;
  config_.fresh = true;
  shadow_.set_clock(false);  // setup traffic cannot be frozen away
  rt_ = std::make_unique<runtime::Runtime>(config_, this);
  for (std::size_t c = 0; c < config_.max_threads; ++c) {
    on(c);  // claims slot c
    blocks_.push_back(image_offset(rt_->pm_alloc(data_bytes())));
    // Make the block durable, allocator block header included.
    const LineAddr first = line_of(blocks_[c] - 1);
    const LineAddr last = line_of(blocks_[c] + data_bytes() - 1);
    for (LineAddr line = first; line <= last; ++line) shadow_.flush_line(line);
  }
  elision_ = rt_->elision_table();
  if (medium_.elide_bug_revert_retire) {
    NVC_REQUIRE(elision_ != nullptr,
                "the seeded elision bug needs async_flush");
    elision_->set_bug_revert_retire(true);
  }
  shadow_.set_clock(true);
}

CrashRig::~CrashRig() = default;

void CrashRig::fase_begin(std::size_t ctx) { on(ctx).fase_begin(); }

bool CrashRig::fase_end(std::size_t ctx) { return on(ctx).fase_end(); }

void CrashRig::pstore(std::size_t ctx, PmAddr addr, const void* bytes,
                      std::size_t len) {
  NVC_REQUIRE(addr + len <= data_bytes(), "pstore past the data block");
  on(ctx).pstore(shadow_.volatile_base() + blocks_[ctx] + addr, bytes, len);
}

void CrashRig::persist_barrier(std::size_t ctx) { on(ctx).persist_barrier(); }

void CrashRig::pwrote(std::size_t ctx, const void* addr, std::size_t len) {
  on(ctx).pwrote(addr, len);
}

bool CrashRig::pump_flush(std::size_t ctx) { return rt_->pump_flush(ctx); }

void* CrashRig::data_region(std::size_t size) {
  NVC_REQUIRE(size == region_bytes_);
  return shadow_.volatile_base();
}

void* CrashRig::log_region(std::size_t size) {
  NVC_REQUIRE(region_bytes_ + size == shadow_.size());
  return shadow_.volatile_base() + region_bytes_;
}

void CrashRig::store(void* dst, const void* src, std::size_t len) {
  shadow_.store(image_offset(dst), src, len);
}

void CrashRig::restart() {
  if (restarted_) return;
  restarted_ = true;
  // Tear down while the power is still off: write-backs of lines still
  // queued at the freeze point, and the shutdown seal, claim post-freeze
  // event indices and drop — power failed with those writes in flight.
  rt_.reset();
  shadow_.crash();  // everything unflushed is gone
  // The restarted machine runs off the clock: nothing in recovery can be
  // frozen away or torn.
  shadow_.set_clock(false);
  runtime::RuntimeConfig reopen = config_;
  reopen.fresh = false;
  rt_ = std::make_unique<runtime::Runtime>(reopen, this);
  rt_->recover();
}

std::vector<std::uint8_t> CrashRig::recovered_data(std::size_t ctx) {
  NVC_REQUIRE(config_.undo_logging, "the rig recovers through the undo log");
  restart();
  return durable_data(ctx);
}

std::vector<std::uint8_t> CrashRig::durable_data(std::size_t ctx) const {
  std::vector<std::uint8_t> out(data_bytes());
  shadow_.load_durable(blocks_[ctx], out.data(), out.size());
  return out;
}

std::vector<std::uint8_t> CrashRig::durable_image() const {
  std::vector<std::uint8_t> out(shadow_.size());
  shadow_.load_durable(0, out.data(), out.size());
  return out;
}

}  // namespace nvc::testing
