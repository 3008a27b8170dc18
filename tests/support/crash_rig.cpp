#include "support/crash_rig.hpp"

#include "common/assert.hpp"

namespace nvc::testing {

/// Freezeable sink: pointer-based lines are translated to shadow-offset
/// lines by `shift` (0 for the data path, whose lines already are shadow
/// offsets; the log writes through raw pointers into the shadow image).
struct CrashRig::FreezeSink final : core::FlushSink {
  FreezeSink(CrashRig* owner, LineAddr line_shift)
      : rig(owner), shift(line_shift) {}
  bool flush_line(LineAddr line) override {
    flushes.fetch_add(1, std::memory_order_relaxed);
    // Atomically claim this flush's event index: in real-worker async mode
    // the background worker and the application thread race for slots, and
    // the power-failure cut must be a single consistent point.
    const std::uint64_t e = rig->claim_event();
    if (!rig->powered(e)) {
      // Power is off: the line never persists — except that write-backs
      // racing the cut may land torn (fault dimension; no-op when no
      // injector or the line drew "no tear"). Either way report success:
      // software running before the cut can never observe this outcome.
      rig->maybe_tear(line - shift, e);
      return true;
    }
    std::lock_guard<std::mutex> lock(rig->shadow_mutex_);
    return rig->shadow_.flush_line(line - shift);
  }
  void drain() override {
    fences.fetch_add(1, std::memory_order_relaxed);
    // A post-cut fence closes the tear window (see CrashRig::maybe_tear):
    // ordering software issued after the cut never completed, so nothing
    // sequenced behind this fence can have reached the write queue.
    if (!rig->powered(rig->events())) rig->note_fence();
  }
  CrashRig* rig;
  LineAddr shift;
  std::atomic<std::uint64_t> flushes{0};
  std::atomic<std::uint64_t> fences{0};
};

/// Worker-side sink for the async data path: the channel owns this thin
/// forwarder while the FreezeSink (and its counters) stay with the rig.
struct CrashRig::ForwardSink final : core::FlushSink {
  explicit ForwardSink(core::FlushSink* t) : target(t) {}
  bool flush_line(LineAddr line) override { return target->flush_line(line); }
  void drain() override {}
  core::FlushSink* target;
};

/// Recovery-time sink: never frozen (the machine is back up).
struct CrashRig::LiveSink final : core::FlushSink {
  LiveSink(pmem::ShadowPmem* target, LineAddr line_shift)
      : shadow(target), shift(line_shift) {}
  bool flush_line(LineAddr line) override {
    return shadow->flush_line(line - shift);
  }
  void drain() override {}
  pmem::ShadowPmem* shadow;
  LineAddr shift;
};

/// One logical runtime thread: private policy, log segment, and write-back
/// route, all against the rig's shared shadow image and event clock.
struct CrashRig::Context {
  Context(CrashRig* rig, LineAddr log_shift)
      : data_sink(rig, /*shift=*/0), log_sink(rig, log_shift) {}

  FreezeSink data_sink;
  FreezeSink log_sink;
  std::unique_ptr<core::Policy> policy;
  core::SoftCachePolicy* soft = nullptr;  // set in online_policy mode
  std::unique_ptr<runtime::UndoLog> log;
  /// The same route Runtime builds, over the freezeable sinks. Declared
  /// last: destruction drains the ring while the shadow and the sinks are
  /// still alive.
  std::unique_ptr<runtime::WriteBackRoute> route;
  int fase_depth = 0;
};

CrashRig::CrashRig(const CrashRigConfig& config)
    : config_(config),
      shadow_(config.contexts *
              (config.data_lines * kCacheLineSize + config.log_bytes)),
      log_shift_(line_of(reinterpret_cast<PmAddr>(shadow_.volatile_base()))) {
  NVC_REQUIRE(config.contexts >= 1);
  NVC_REQUIRE(config.log_bytes % kCacheLineSize == 0);
  NVC_REQUIRE(!config.async_analysis || config.online_policy,
              "async analysis is a mode of the online policy");
  if (config_.fault.enabled()) {
    // Attached before any context formats its log, so permanently bad
    // lines can hit even the setup write-backs (a stillborn context whose
    // header never persists is a legal fault outcome recovery must handle).
    injector_ = std::make_unique<pmem::FaultInjector>(config_.fault);
    shadow_.set_fault_injector(injector_.get());
  }
  if (config_.elide) {
    // One table for all contexts: cross-context dedup is the dimension
    // under test (a line evicted by context A while context B's write-back
    // of it is still queued gets elided).
    elision_ = std::make_shared<core::FlushElisionTable>();
    if (config_.elide_bug_revert_retire) {
      elision_->set_bug_revert_retire(true);
    }
  }
  for (std::size_t i = 0; i < config_.contexts; ++i) {
    auto c = std::make_unique<Context>(this, log_shift_);
    core::PolicyConfig pc;
    pc.cache_size = config_.cache_size;
    pc.admission.mode = config_.admission;
    if (config_.online_policy) {
      pc.sampler.burst_length = config_.burst_length;
      pc.sampler.hibernation_length = config_.hibernation_length;
      // Deterministic async: the analysis channel is never served by the
      // background worker; bursts run only under pump_analysis().
      pc.sampler.manual_analysis = config_.async_analysis;
      c->policy = core::make_policy(core::PolicyKind::kSoftCache, pc);
      c->soft = static_cast<core::SoftCachePolicy*>(c->policy.get());
    } else {
      c->policy = core::make_policy(core::PolicyKind::kSoftCacheOffline, pc);
    }
    c->log = std::make_unique<runtime::UndoLog>(
        shadow_.volatile_base() + log_offset(i), config_.log_bytes,
        &c->log_sink, config_.mode);
    runtime::WriteBackSpec spec;
    spec.sync_sink = &c->data_sink;
    spec.log = c->log.get();
    spec.elision = elision_;
    spec.arm_faults(injector_.get(), config_.fault);
    if (config_.async_flush) {
      // A tiny ring (overflow falls back to the synchronous FreezeSink)
      // drained by the background worker — or, in manual mode, only by
      // pump_flush() and the helping drain.
      spec.worker_sink = std::make_unique<ForwardSink>(&c->data_sink);
      spec.ring_depth = config_.flush_ring;
      spec.manual_channel = config_.manual_pipeline;
    }
    c->route = std::make_unique<runtime::WriteBackRoute>(std::move(spec));
    c->log->format();  // pre-script: not an event, cannot be frozen away
    contexts_.push_back(std::move(c));
  }
  counting_ = true;
}

CrashRig::~CrashRig() = default;

void CrashRig::fase_begin(std::size_t ctx) {
  Context& c = *contexts_[ctx];
  if (c.fase_depth++ == 0) {
    c.route->maybe_degrade();
    c.policy->on_fase_begin(c.route->sink());
  }
}

bool CrashRig::fase_end(std::size_t ctx) {
  Context& c = *contexts_[ctx];
  NVC_REQUIRE(c.fase_depth > 0, "fase_end without matching fase_begin");
  if (--c.fase_depth != 0) return false;
  // As in Runtime::fase_end: the policy flushes its buffered lines
  // through the ordering decorator (log sync precedes each data flush),
  // then the log commits — the FASE's atomic commit point.
  c.policy->on_fase_end(c.route->sink());
  return c.route->commit_allowed() && c.log->commit();
}

void CrashRig::pstore(std::size_t ctx, PmAddr addr, const void* bytes,
                      std::size_t len) {
  NVC_REQUIRE(len > 0);
  NVC_REQUIRE(addr + len <= data_bytes(), "pstore past region end");
  Context& c = *contexts_[ctx];
  NVC_REQUIRE(c.fase_depth > 0, "rig pstores must be inside a FASE");
  const PmAddr base = data_offset(ctx) + addr;
  // Log the old bytes before overwriting, as Runtime::pstore does (the
  // token is the shadow offset, so recovery stores the payload straight
  // back).
  std::vector<std::uint8_t> old(len);
  {
    std::lock_guard<std::mutex> lock(shadow_mutex_);
    shadow_.load(base, old.data(), len);
  }
  c.log->record(base, old.data(), len);
  const LineAddr first = line_of(base);
  const LineAddr last = line_of(base + len - 1);
  // Write-after-enqueue hazard (DESIGN.md §8, §13), as in Runtime::pstore.
  c.route->order_store(first, last);
  {
    std::lock_guard<std::mutex> lock(shadow_mutex_);
    shadow_.store(base, bytes, len);
  }
  claim_event();
  for (LineAddr line = first; line <= last; ++line) {
    c.policy->on_store(line, c.route->sink());
  }
}

void CrashRig::persist_barrier(std::size_t ctx) {
  Context& c = *contexts_[ctx];
  c.policy->flush_buffered(c.route->sink());
}

bool CrashRig::pump_flush(std::size_t ctx, std::size_t worker) {
  return contexts_[ctx]->route->pump_one(worker);
}

bool CrashRig::pump_analysis(std::size_t ctx, std::size_t worker) {
  Context& c = *contexts_[ctx];
  return c.soft != nullptr && c.soft->pump_analysis(worker);
}

void CrashRig::maybe_tear(LineAddr line, std::uint64_t event) {
  // The write queue racing the power cut can hold *several* lines: every
  // flush in the gapless run of post-cut events freeze+1, freeze+2, … was
  // issued back-to-back with no intervening activity, i.e. it sat in the
  // same in-flight burst when power failed. Each such line independently
  // drops or lands torn, per the injector's pure per-line tear decision.
  //
  // What keeps recovery sound is when the window *closes* — permanently:
  //   * on any event-index gap (a pstore or powered flush claimed an index:
  //     the burst was over, later flushes are ordinary post-cut activity
  //     that never reached the queue);
  //   * on any post-cut fence (FreezeSink::drain): ordering issued after
  //     the cut never completed, so flushes sequenced behind it were never
  //     issued — in particular a batched log sync's fence sits between the
  //     log flushes and the data flushes it orders, so a data line can
  //     never tear in ahead of the (dropped) records that cover it;
  //   * at config_.tear_burst lines (a write queue has finite depth).
  // Within an open window every log sync ordered before the burst claimed
  // pre-cut events and is durable, so torn-in data bytes are always covered
  // by durable undo records, and torn log lines are self-certifying.
  if (!injector_) return;
  std::lock_guard<std::mutex> lock(shadow_mutex_);
  if (tear_closed_) return;
  if (event == freeze_event_ + 1) {
    tear_depth_ = 1;
  } else if (tear_depth_ > 0 && event == tear_last_event_ + 1 &&
             tear_depth_ < config_.tear_burst) {
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

void CrashRig::note_fence() {
  std::lock_guard<std::mutex> lock(shadow_mutex_);
  if (tear_depth_ > 0) tear_closed_ = true;
}

const runtime::WriteBackRoute& CrashRig::route(std::size_t ctx) const {
  return *contexts_[ctx]->route;
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

void CrashRig::recover_all() {
  if (recovered_) return;
  recovered_ = true;
  // Quiesce the pipeline first: write-backs of lines that were still
  // queued at the freeze point claim post-freeze event indices and drop —
  // power failed with those writes in flight, they never persist.
  for (auto& c : contexts_) c->route->wait_drained();
  shadow_.crash();  // everything unflushed is gone
  // The restarted machine gets fresh media behavior: recovery's own
  // write-backs must not fail, or a crashed-again-during-recovery model
  // would leak into every oracle check. (Testing recovery-time faults is a
  // separate scenario, driven explicitly.)
  shadow_.set_fault_injector(nullptr);
  LiveSink rsink(&shadow_, log_shift_);
  for (std::size_t i = 0; i < contexts_.size(); ++i) {
    runtime::UndoLog log(shadow_.volatile_base() + log_offset(i),
                         config_.log_bytes, &rsink, config_.mode);
    if (!log.valid()) {
      // Stillborn context: its header line went bad before format() could
      // persist. Sound, not silent data loss — every sync of this log
      // failed, so the gating LogOrderedSink never let one of its data
      // flushes through; the region's durable image is still all-initial.
      NVC_REQUIRE(injector_ != nullptr, "log segment lost its format");
      continue;
    }
    if (log.needs_recovery()) {
      log.rollback(
          [&](std::uint64_t token, const void* payload, std::uint32_t len) {
            shadow_.store(token, payload, len);
          });
    }
  }
  shadow_.flush_all();
}

std::vector<std::uint8_t> CrashRig::recovered_data(std::size_t ctx) {
  recover_all();
  std::vector<std::uint8_t> out(data_bytes());
  shadow_.load_durable(data_offset(ctx), out.data(), out.size());
  return out;
}

std::vector<std::uint8_t> CrashRig::durable_data(std::size_t ctx) const {
  std::vector<std::uint8_t> out(data_bytes());
  shadow_.load_durable(data_offset(ctx), out.data(), out.size());
  return out;
}

std::vector<std::uint8_t> CrashRig::durable_image() const {
  std::vector<std::uint8_t> out(shadow_.size());
  shadow_.load_durable(0, out.data(), out.size());
  return out;
}

std::uint64_t CrashRig::data_flushes() const noexcept {
  return sum([](const Context& c) {
    return c.data_sink.flushes.load(std::memory_order_relaxed);
  });
}

std::uint64_t CrashRig::log_fences() const noexcept {
  return sum([](const Context& c) {
    return c.log_sink.fences.load(std::memory_order_relaxed);
  });
}

std::uint64_t CrashRig::log_syncs() const noexcept {
  return sum([](const Context& c) { return c.log->sync_points(); });
}

std::uint64_t CrashRig::bypassed_stores() const noexcept {
  return sum([](const Context& c) { return c.policy->counters().bypassed; });
}

std::uint64_t CrashRig::elided_flushes() const noexcept {
  return sum([](const Context& c) { return c.route->elided(); });
}

std::uint64_t CrashRig::elision_reflushes() const noexcept {
  return sum([](const Context& c) { return c.route->reflushed(); });
}

}  // namespace nvc::testing
