#include "runtime/write_back_route.hpp"

#include "common/assert.hpp"

namespace nvc::runtime {

void WriteBackSpec::arm_faults(const pmem::FaultInjector* injector,
                               const pmem::FaultConfig& config) {
  if (injector != nullptr && !injector->idle()) {
    faults = std::make_shared<core::FaultStats>();
  }
  retry = core::RetryPolicy{config.max_retries, config.backoff_ns,
                            config.backoff_cap_ns};
  degrade_after = config.degrade_after;
}

WriteBackRoute::WriteBackRoute(WriteBackSpec spec)
    : log_(spec.log),
      elision_(std::move(spec.elision)),
      faults_(std::move(spec.faults)),
      degrade_after_(spec.degrade_after),
      sync_(spec.sync_sink) {
  NVC_REQUIRE(sync_ != nullptr);
  NVC_REQUIRE((elision_ != nullptr) == (spec.worker_sink != nullptr),
              "flush elision rides the flush-behind ring");
  if (faults_ != nullptr) {
    retry_sync_ =
        std::make_unique<core::FaultTolerantSink>(sync_, faults_, spec.retry);
    sync_ = retry_sync_.get();
    if (log_ != nullptr) {
      // The log's own persistence path retries on this thread too.
      retry_log_ = std::make_unique<core::FaultTolerantSink>(
          log_->sink(), faults_, spec.retry);
      log_->set_sink(retry_log_.get());
    }
  }
  core::FlushSink* data = sync_;
  if (spec.worker_sink != nullptr) {
    // Worker side, bottom up: retries run where the write-back executes;
    // the line retires before any attempt (decrement-before-write — a
    // retried line stays retired, and an elider that raced in meanwhile
    // became an owner and rescheduled).
    std::unique_ptr<core::FlushSink> worker = std::move(spec.worker_sink);
    if (faults_ != nullptr) {
      worker = std::make_unique<core::FaultTolerantSink>(std::move(worker),
                                                         faults_, spec.retry);
    }
    worker =
        std::make_unique<core::RetiringSink>(std::move(worker), elision_);
    core::FlushWorker& flusher = core::FlushWorker::shared();
    channel_ =
        spec.manual_channel
            ? flusher.open_manual_channel(std::move(worker), spec.ring_depth)
            : flusher.open_channel(std::move(worker), spec.ring_depth);
    // A full ring writes back locally, bypassing the worker-side retire:
    // that owner path must retire too.
    retire_overflow_ = std::make_unique<core::RetiringSink>(sync_, elision_);
    async_ = std::make_unique<core::AsyncFlushSink>(
        channel_, retire_overflow_.get(), spec.device);
    ring_ = async_.get();
    eliding_ = std::make_unique<core::ElidingSink>(ring_, elision_);
    data = eliding_.get();
  }
  if (log_ != nullptr) {
    ordered_ = std::make_unique<core::LogOrderedSink>(data, log_);
    data = ordered_.get();
  }
  current_ = data;
}

void WriteBackRoute::maybe_degrade() {
  if (faults_ == nullptr || (faults_->quarantined_count() == 0 &&
                             faults_->transients() < degrade_after_)) {
    return;
  }
  if (ring_ != nullptr) {
    // Async->sync: drain (re-checking elided lines) so no line is stranded
    // behind the reroute, then bypass ring and elision for good — a failing
    // medium wants fewer write-backs in flight, and none deduped away.
    eliding_->drain();
    ring_ = nullptr;
    if (log_ != nullptr) {
      degraded_ = std::make_unique<core::LogOrderedSink>(sync_, log_);
      current_ = degraded_.get();
    } else {
      current_ = sync_;
    }
  }
  if (log_ != nullptr && !log_degraded_ &&
      log_->mode() == LogSyncMode::kBatched) {
    // Batched->strict: persist the open epoch under the old discipline
    // (best effort — a failure surfaces as a transient and the per-record
    // syncs retry the same range), then every record is durable before its
    // pstore returns.
    log_->sync();
    log_->degrade_to_strict();
    log_degraded_ = true;
  }
}

bool WriteBackRoute::commit_allowed() noexcept {
  if (!commit_suspended_ && faults_ != nullptr &&
      faults_->quarantined_count() > 0) {
    commit_suspended_ = true;
  }
  return !commit_suspended_;
}

void WriteBackRoute::order_store(LineAddr first, LineAddr last) {
  if (ring_ == nullptr && elision_ == nullptr) return;
  for (LineAddr line = first; line <= last; ++line) {
    if (!inflight(line)) continue;
    if (!log_->sync() && ring_ != nullptr) ring_->drain();
    return;
  }
}

}  // namespace nvc::runtime
