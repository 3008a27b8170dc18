// Off-critical-path burst analysis (paper Section III-C made asynchronous).
//
// The paper's pitch is that adaptive sizing costs almost nothing online, yet
// a naive implementation runs the full rename -> reuse -> MRC -> knee
// pipeline synchronously inside on_store() at every burst end — a
// multi-millisecond stall on the application thread. This module moves that
// work to one shared background worker:
//
//   app thread                        worker thread (std::jthread)
//   ----------                        ----------------------------
//   record burst trace
//   burst ends: move the trace  --->  SPSC ring (AnalysisChannel)
//   into the channel, O(1)            pop job, run analyze_burst()
//   keep running with the old         publish the BurstAnalysis into the
//   cache size                        channel's result slot (mutex-guarded
//   at the next FASE boundary,        payload + release-ordered counter)
//   poll the slot and resize
//
// One worker is shared across all thread contexts (AnalysisWorker::shared());
// each producer owns a private AnalysisChannel, so every queue really is
// single-producer/single-consumer. Channels are shared_ptr-owned by both
// sides: a producer can be destroyed with a job in flight and the worker
// still has a live slot to publish into (the orphaned channel is pruned once
// its queue drains).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <thread>
#include <vector>

#include "common/spsc_queue.hpp"
#include "common/types.hpp"
#include "core/knee.hpp"
#include "core/mrc.hpp"

namespace nvc::core {

/// Result of analyzing one (already FASE-renamed) burst trace.
struct BurstAnalysis {
  Mrc mrc;    // the paper's timescale model
  Mrc exact;  // the burst's exact write-cache MRC (stack distances)
  KneeResult selection;
};

/// The full burst analysis: reuse intervals (dense path — renamed ids lie in
/// [0, trace.size())) -> reuse(k) for all k -> MRC -> knee selection, then
/// one exact stack-distance pass over the same trace on which the knee is
/// placed (place_knee). Deterministic: the async, synchronous and offline
/// paths call exactly this.
BurstAnalysis analyze_burst(std::span<const LineAddr> renamed_trace,
                            const KneeConfig& knee);

class AnalysisWorker;

/// One producer's mailbox to the shared worker. Producer-side calls (submit,
/// poll, drain) must come from a single thread.
class AnalysisChannel {
 public:
  /// Hand a completed burst to the worker. O(1): one vector move into the
  /// ring plus a wakeup; no analysis work happens on the calling thread.
  /// Returns false (trace untouched) if the ring is full — the caller then
  /// falls back to synchronous analysis rather than losing the burst.
  bool submit(std::vector<LineAddr>&& renamed_trace, const KneeConfig& knee);

  /// Number of analyses completed so far (release-ordered with the result).
  std::uint64_t completed() const noexcept {
    return completed_.load(std::memory_order_acquire);
  }

  /// True when every submitted job has been analyzed.
  bool idle() const noexcept {
    return completed() == submitted_.load(std::memory_order_relaxed);
  }

  /// Block until every submitted job has been analyzed (shutdown drain).
  /// On a manual channel this pumps the queue on the calling thread
  /// instead of waiting — there is no worker to wait for.
  void drain();

  /// Take the most recent published result (empty if none since last take).
  std::optional<BurstAnalysis> take_result();

  /// Thread that ran the most recent analysis (test hook: proves the
  /// pipeline left the application thread).
  std::thread::id last_analysis_thread() const;

  /// Producer is going away; the worker prunes the channel once drained.
  void close() noexcept { closed_.store(true, std::memory_order_release); }

  /// Pop one queued job, analyze it on the calling thread, and publish the
  /// result (true when a job ran). Only valid on *manual* channels
  /// (open_manual_channel), where the caller is the sole consumer — a
  /// deterministic test scheduler standing in for the worker thread.
  bool pump_one();

  /// True for channels the background worker never serves.
  bool manual() const noexcept { return manual_; }

 private:
  friend class AnalysisWorker;

  struct Job {
    std::vector<LineAddr> trace;
    KneeConfig knee;
  };

  AnalysisChannel(AnalysisWorker* worker, bool manual)
      : worker_(worker), manual_(manual) {}

  /// Consumer side: store `result` as the latest, then release-publish the
  /// completion count that covers it.
  void publish(BurstAnalysis&& result);

  static constexpr std::size_t kRingSlots = 8;

  AnalysisWorker* worker_;
  /// Never served by the worker thread; jobs run only via pump_one() (or
  /// the producer's drain). submit() skips the worker handshake entirely.
  const bool manual_ = false;
  SpscQueue<Job> queue_{kRingSlots};
  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<bool> closed_{false};

  mutable std::mutex result_mutex_;  // guards the three fields below
  BurstAnalysis result_;
  bool has_result_ = false;
  std::thread::id analysis_thread_;
};

/// The shared background analyzer: one jthread that blocks on the count of
/// jobs pending across its channels and serves every channel when woken.
/// Each channel has exactly one consumer — this worker, or the owner's
/// pump_one() for a manual channel, which the worker never sees.
class AnalysisWorker {
 public:
  AnalysisWorker();

  AnalysisWorker(const AnalysisWorker&) = delete;
  AnalysisWorker& operator=(const AnalysisWorker&) = delete;

  /// The process-wide worker used by async samplers.
  static AnalysisWorker& shared();

  /// Open a new producer channel the worker serves.
  std::shared_ptr<AnalysisChannel> open_channel();

  /// Open a channel the worker will never serve: analyses run only when
  /// the owner calls AnalysisChannel::pump_one(). Lets the crash fuzzer
  /// decide deterministically (from a seed) *when* a background analysis
  /// completes relative to the application's FASE stream.
  std::shared_ptr<AnalysisChannel> open_manual_channel();

 private:
  friend class AnalysisChannel;

  void notify();  // a producer enqueued a job
  /// Run and publish every queued job on `ch`.
  void serve(AnalysisChannel& ch);
  void run(std::stop_token st);

  std::mutex mutex_;  // guards channels_
  std::condition_variable_any cv_;
  /// Jobs queued on any channel, counted before they become poppable (see
  /// AnalysisChannel::submit) and decremented as the worker pops them.
  std::atomic<std::uint64_t> pending_{0};
  std::vector<std::shared_ptr<AnalysisChannel>> channels_;
  /// Last member: the jthread stops and joins before the rest is destroyed.
  std::jthread thread_;
};

}  // namespace nvc::core
