// Freeze/restart rig for crash-consistency tests (DESIGN.md §9).
//
// A thin adapter: the production runtime::Runtime runs over a crash medium
// the rig provides (runtime::Medium), and script calls bind the calling
// thread to a context slot and forward to it. The power-failure model is
// pmem::ShadowPmem's: one image holds the heap region and the log
// segments, every pstore data write and every attempted write-back — from
// any backend the Runtime builds — goes to it and claims the next *event
// index* on its clock, and freeze_at(e) cuts the power there.
// recovered_data() then restarts the way a process would: tear the Runtime
// down while the power is still off, crash() the image, reopen a Runtime
// with fresh=false over it, and run Runtime::recover().
//
// Setup traffic (heap and log formats, one pm_alloc'ed data block per
// context, written back) runs before the clock starts and before media
// faults attach.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "pmem/shadow.hpp"
#include "runtime/runtime.hpp"

namespace nvc::testing {

/// The medium's own knobs; everything else is the RuntimeConfig.
struct CrashRigConfig {
  /// Per-context data block, in lines.
  std::size_t data_lines = 8;
  /// Max lines of the write-back burst racing the power cut that may land
  /// torn/dropped (the modeled write-queue depth; see
  /// pmem::ShadowPmem::flush_line).
  std::size_t tear_burst = 8;
  /// With RuntimeConfig::async_flush: manual channels, written back only
  /// by pump_flush() and the helping drain (the fuzzer's configuration).
  bool manual_pipeline = false;
  /// Checker validation (needs RuntimeConfig::async_flush): arm the
  /// elision table's seeded "reverted flush-pending decrement" bug.
  bool elide_bug_revert_retire = false;
};

/// RuntimeConfig defaults for rig scripts: `contexts` slots with strict
/// undo logging, SC-offline at a tiny fixed size (mid-FASE evictions, so
/// many log epochs), a small flush ring (its overflow path gets exercised),
/// count-only flush backends, and the online sampler scaled down so short
/// scripts complete bursts (set `policy = kSoftCache` to use it).
runtime::RuntimeConfig rig_runtime_config(std::size_t contexts = 1);

class CrashRig final : public runtime::Medium {
 public:
  /// `config.max_threads` is the context count. The rig sizes the heap
  /// region itself (region_size).
  explicit CrashRig(runtime::RuntimeConfig config,
                    const CrashRigConfig& medium = {});
  ~CrashRig() override;

  CrashRig(const CrashRig&) = delete;
  CrashRig& operator=(const CrashRig&) = delete;

  // --- script surface (forwards to the Runtime) -----------------------------

  void fase_begin(std::size_t ctx = 0);
  /// Runtime::fase_end: true when the outermost end committed the FASE. The
  /// caller's oracle bookkeeping must not advance its committed snapshot on
  /// false.
  bool fase_end(std::size_t ctx = 0);
  /// Instrumented persistent store of `len` bytes at byte offset `addr` of
  /// context `ctx`'s data block.
  void pstore(std::size_t ctx, PmAddr addr, const void* bytes,
              std::size_t len);
  void pstore_u64(std::size_t ctx, std::size_t cell, std::uint64_t value) {
    pstore(ctx, cell * sizeof(std::uint64_t), &value, sizeof value);
  }
  void persist_barrier(std::size_t ctx = 0);
  /// Runtime::pwrote: the caller wrote [addr, addr+len) of data(ctx)
  /// directly.
  void pwrote(std::size_t ctx, const void* addr, std::size_t len);
  /// Volatile view of `ctx`'s data block (what the running program sees).
  void* data(std::size_t ctx) noexcept {
    return shadow_.volatile_base() + blocks_[ctx];
  }

  /// Manual-mode scheduler hooks: Runtime::pump_flush / pump_analysis.
  bool pump_flush(std::size_t ctx = 0);
  bool pump_analysis(std::size_t ctx = 0);

  // --- crash injection -------------------------------------------------------

  /// Power fails once `events()` passes `event`: later write-backs are lost.
  void freeze_at(std::uint64_t event) { shadow_.freeze_at(event); }
  std::uint64_t events() const noexcept { return shadow_.events(); }

  /// Restart after the power failure (once; see the file comment) and
  /// return the durable bytes of `ctx`'s data block. Needs undo logging.
  std::vector<std::uint8_t> recovered_data(std::size_t ctx = 0);

  /// Durable bytes of `ctx`'s data block, no crash/recovery.
  std::vector<std::uint8_t> durable_data(std::size_t ctx = 0) const;

  /// The entire durable image — the heap region, then every log segment —
  /// with no crash/recovery applied (the corruption fuzzer's input).
  std::vector<std::uint8_t> durable_image() const;
  /// Byte offset of `ctx`'s data block within durable_image().
  PmAddr image_data_offset(std::size_t ctx) const noexcept {
    return blocks_[ctx];
  }
  /// Byte offset of `ctx`'s log segment within durable_image().
  PmAddr image_log_offset(std::size_t ctx) const noexcept {
    return region_bytes_ + ctx * config_.log_segment_size;
  }

  // --- inspection ------------------------------------------------------------

  /// The Runtime under test: the original until the restart, the reopened
  /// one after it.
  runtime::Runtime& runtime() noexcept { return *rt_; }
  /// Counters of runtime(): read them before recovered_data().
  runtime::RuntimeStats stats() const { return rt_->stats(); }
  /// The original Runtime's elision table (null unless async_flush), kept
  /// past the restart so quiescence can be checked after the teardown
  /// drain.
  const core::FlushElisionTable* elision_table() const noexcept {
    return elision_.get();
  }
  std::uint64_t torn_flushes() const noexcept {
    return shadow_.torn_flushes();
  }
  std::size_t data_bytes() const noexcept {
    return medium_.data_lines * kCacheLineSize;
  }

 private:
  // runtime::Medium
  void* data_region(std::size_t size) override;
  void* log_region(std::size_t size) override;
  void store(void* dst, const void* src, std::size_t len) override;
  bool manual_flush() const override { return medium_.manual_pipeline; }
  bool write_back(const void* addr) override {
    return shadow_.write_back(addr);
  }
  void fence() override { shadow_.fence(); }

  PmAddr image_offset(const void* p) noexcept {
    return static_cast<PmAddr>(static_cast<const std::uint8_t*>(p) -
                               shadow_.volatile_base());
  }
  /// Bind the calling thread to `ctx` and return the runtime.
  runtime::Runtime& on(std::size_t ctx) {
    rt_->bind_context(ctx);
    return *rt_;
  }
  void restart();

  runtime::RuntimeConfig config_;
  CrashRigConfig medium_;
  std::size_t region_bytes_;
  pmem::ShadowPmem shadow_;
  /// Data block offsets in the image, one per context.
  std::vector<PmAddr> blocks_;
  /// Kept from the original Runtime so they outlive the restart.
  std::shared_ptr<pmem::FaultInjector> injector_;
  std::shared_ptr<core::FlushElisionTable> elision_;
  bool restarted_ = false;
  /// Declared last: destroyed (drained, sealed) while the image is alive.
  std::unique_ptr<runtime::Runtime> rt_;
};

}  // namespace nvc::testing
