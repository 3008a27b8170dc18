#include "support/crash_rig.hpp"

#include <bit>

#include "common/assert.hpp"
#include "pmem/fault.hpp"
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
      shadow_(region_bytes_ + config_.max_threads * config_.log_segment_size) {
  NVC_REQUIRE(config_.undo_logging, "the rig recovers through the undo log");
  NVC_REQUIRE(medium_.data_lines >= 1);
  config_.region_size = region_bytes_;
  config_.fresh = true;
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
    NVC_REQUIRE(elision_ != nullptr, "the seeded elision bug needs elide");
    elision_->set_bug_revert_retire(true);
  }
  // Media faults start with the script.
  injector_ = rt_->fault_injector();
  shadow_.set_fault_injector(injector_.get());
  counting_ = true;
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

bool CrashRig::pump_flush(std::size_t ctx) { return rt_->pump_flush(ctx); }

bool CrashRig::pump_analysis(std::size_t ctx) {
  return rt_->pump_analysis(ctx);
}

void* CrashRig::data_region(std::size_t size) {
  NVC_REQUIRE(size == region_bytes_);
  return shadow_.volatile_base();
}

void* CrashRig::log_region(std::size_t size) {
  NVC_REQUIRE(region_bytes_ + size == shadow_.size());
  return shadow_.volatile_base() + region_bytes_;
}

void CrashRig::store(void* dst, const void* src, std::size_t len) {
  {
    std::lock_guard<std::mutex> lock(shadow_mutex_);
    shadow_.store(image_offset(dst), src, len);
  }
  claim_event();
}

bool CrashRig::write_back(const void* addr) {
  const LineAddr line = line_of(image_offset(addr));
  // An atomic claim: in real-worker async mode the worker and the
  // application thread race for event slots.
  const std::uint64_t e = claim_event();
  if (!powered(e)) {
    // Power is off: the line never persists, unless it lands torn. Either
    // way report success: no software before the cut can observe this.
    maybe_tear(line, e);
    return true;
  }
  std::lock_guard<std::mutex> lock(shadow_mutex_);
  return shadow_.flush_line(line);
}

void CrashRig::fence() {
  if (powered(events())) return;  // a post-cut fence closes the tear window
  std::lock_guard<std::mutex> lock(shadow_mutex_);
  if (tear_depth_ > 0) tear_closed_ = true;
}

void CrashRig::maybe_tear(LineAddr line, std::uint64_t event) {
  // The write queue racing the power cut can hold several lines: the
  // gapless run of post-cut events freeze+1, freeze+2, … sat in one
  // in-flight burst, and each of its lines drops or lands torn per the
  // injector's pure per-line decision. Recovery stays sound because the
  // window closes for good on an event gap (the burst was over), on a
  // post-cut fence (nothing ordered behind it was ever issued — a batched
  // log sync's fence sits between the records and the data write-backs it
  // orders), and at medium_.tear_burst lines. So every log sync ordered
  // before the burst is durable, torn-in data bytes are covered by durable
  // undo records, and torn log lines fail their check words.
  if (!injector_) return;
  std::lock_guard<std::mutex> lock(shadow_mutex_);
  if (tear_closed_) return;
  if (event == freeze_event_ + 1) {
    tear_depth_ = 1;
  } else if (tear_depth_ > 0 && event == tear_last_event_ + 1 &&
             tear_depth_ < medium_.tear_burst) {
    ++tear_depth_;
  } else {
    if (tear_depth_ > 0) tear_closed_ = true;
    return;
  }
  tear_last_event_ = event;
  const std::size_t bytes = injector_->torn_bytes(line);
  if (bytes == 0) return;  // this line drops entirely instead of tearing
  shadow_.flush_line_torn(line, bytes);
}

std::uint64_t CrashRig::claim_event() {
  if (!counting_) return 0;
  const std::uint64_t e = events_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (!powered(e) && deterministic() && !shadow_.frozen()) {
    // Deterministic runs execute entirely on this thread, so the first
    // post-freeze event is a single well-defined instant: cut the shadow
    // image's power too, closing every conceivable write-back path.
    shadow_.freeze();
  }
  return e;
}

void CrashRig::restart() {
  if (restarted_) return;
  restarted_ = true;
  // Tear down while the power is still off: write-backs of lines still
  // queued at the freeze point, and the shutdown seal, claim post-freeze
  // event indices and drop — power failed with those writes in flight.
  rt_.reset();
  shadow_.crash();  // everything unflushed is gone
  // The restarted machine runs off the clock, on fresh media: recovery's
  // own write-backs must not fail, or a crashed-again-during-recovery
  // model would leak into every oracle check (testing recovery-time faults
  // is a separate scenario, driven explicitly).
  counting_ = false;
  shadow_.set_fault_injector(nullptr);
  runtime::RuntimeConfig reopen = config_;
  reopen.fresh = false;
  reopen.fault = {};
  rt_ = std::make_unique<runtime::Runtime>(reopen, this);
  rt_->recover();
}

std::vector<std::uint8_t> CrashRig::recovered_data(std::size_t ctx) {
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
