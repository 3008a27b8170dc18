#include "runtime/write_back_route.hpp"

#include "common/assert.hpp"

namespace nvc::runtime {

WriteBackRoute::WriteBackRoute(WriteBackSpec spec)
    : log_(spec.log), elision_(std::move(spec.elision)),
      sink_(spec.sync_sink) {
  NVC_REQUIRE(sink_ != nullptr);
  NVC_REQUIRE((elision_ != nullptr) == (spec.worker_sink != nullptr),
              "flush elision rides the flush-behind ring");
  if (spec.worker_sink != nullptr) {
    // Worker side: the line retires right before its write-back
    // (decrement-before-write — an elider that raced in meanwhile became
    // an owner and rescheduled).
    auto worker = std::make_unique<core::RetiringSink>(
        std::move(spec.worker_sink), elision_);
    core::FlushWorker& flusher = core::FlushWorker::shared();
    channel_ =
        spec.manual_channel
            ? flusher.open_manual_channel(std::move(worker), spec.ring_depth)
            : flusher.open_channel(std::move(worker), spec.ring_depth);
    // A full ring writes back locally, bypassing the worker-side retire:
    // that owner path must retire too.
    retire_overflow_ =
        std::make_unique<core::RetiringSink>(spec.sync_sink, elision_);
    ring_ = std::make_unique<core::AsyncFlushSink>(
        channel_, retire_overflow_.get(), spec.device);
    eliding_ = std::make_unique<core::ElidingSink>(ring_.get(), elision_);
    sink_ = eliding_.get();
  }
  if (log_ != nullptr) {
    ordered_ = std::make_unique<core::LogOrderedSink>(sink_, log_);
    sink_ = ordered_.get();
  }
}

void WriteBackRoute::order_store(LineAddr first, LineAddr last) {
  if (ring_ == nullptr) return;
  for (LineAddr line = first; line <= last; ++line) {
    if (inflight(line)) {
      log_->sync();
      return;
    }
  }
}

}  // namespace nvc::runtime
