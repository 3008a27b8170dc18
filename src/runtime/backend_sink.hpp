// Bridge from the policies' FlushSink interface to a pmem::FlushBackend:
// flush_line() issues a real cache-line write-back, drain() a fence. The
// backend's own counters keep the per-thread flush/fence accounting.
#pragma once

#include <utility>

#include "core/write_cache.hpp"
#include "pmem/flush.hpp"

namespace nvc::runtime {

class BackendSink final : public core::FlushSink {
 public:
  explicit BackendSink(pmem::FlushBackend* backend) : backend_(backend) {}

  bool flush_line(LineAddr line) override {
    return backend_->flush(reinterpret_cast<const void*>(line_base(line))) ==
           pmem::FlushResult::kOk;
  }
  void drain() override { backend_->fence(); }

 private:
  pmem::FlushBackend* backend_;
};

/// Worker-side sink for the flush-behind pipeline (core::FlushChannel owns
/// one). It owns its backend outright — the backend's plain counters are
/// only ever touched from whichever thread holds the channel's consumer
/// lock, and stats aggregation reads the channel's atomic flushed() count
/// instead — and issues posted write-backs: the producer's drain() fence
/// (and, for the simulated kind, its device-timeline model) is where
/// completion is awaited, so the worker never stalls per line.
class IssueSink final : public core::FlushSink {
 public:
  explicit IssueSink(pmem::FlushBackend backend)
      : backend_(std::move(backend)) {}

  bool flush_line(LineAddr line) override {
    return backend_.issue(reinterpret_cast<const void*>(line_base(line))) ==
           pmem::FlushResult::kOk;
  }
  void drain() override { backend_.fence(); }

  pmem::FlushBackend& backend() noexcept { return backend_; }

 private:
  pmem::FlushBackend backend_;
};

}  // namespace nvc::runtime
