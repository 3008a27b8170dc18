#include "core/analyzer.hpp"

#include "common/assert.hpp"
#include "core/reuse_locality.hpp"

namespace nvc::core {

BurstAnalysis analyze_burst(std::span<const LineAddr> renamed_trace,
                            const KneeConfig& knee) {
  NVC_REQUIRE(!renamed_trace.empty());
  const auto n = static_cast<LogicalTime>(renamed_trace.size());
  // Renamed identities are allocated sequentially from 0, so they are dense
  // in [0, n) and the direct-indexed interval extraction applies.
  const auto intervals =
      intervals_of_dense_trace(renamed_trace, static_cast<LineAddr>(n));
  const ReuseCurve reuse = compute_reuse_all_k(intervals, n);
  BurstAnalysis out;
  out.mrc = mrc_from_reuse(reuse, knee.max_size);
  out.exact = mrc_exact_from_intervals(intervals, n, knee.max_size);
  out.selection = KneeFinder(knee).select(out.mrc);
  out.selection.model_size = out.selection.chosen_size;
  out.selection.chosen_size =
      place_knee(out.mrc, out.exact, out.selection.chosen_size);
  return out;
}

// --- AnalysisChannel --------------------------------------------------------

bool AnalysisChannel::submit(std::vector<LineAddr>&& renamed_trace,
                             const KneeConfig& knee) {
  Job job{std::move(renamed_trace), knee};
  if (manual_) {
    // No worker handshake: the job sits in the ring until the owner pumps
    // it (touching pending_ would leave the worker thread spinning on a
    // channel it cannot see).
    if (!queue_.try_push(std::move(job))) {
      renamed_trace = std::move(job.trace);
      return false;
    }
    submitted_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  // Count the job before it becomes poppable so the worker's per-pop
  // decrement can never underflow the counter.
  worker_->pending_.fetch_add(1, std::memory_order_release);
  if (!queue_.try_push(std::move(job))) {
    worker_->pending_.fetch_sub(1, std::memory_order_release);
    renamed_trace = std::move(job.trace);  // give the burst back: the caller
    return false;                          // falls back to sync analysis
  }
  submitted_.fetch_add(1, std::memory_order_relaxed);
  worker_->notify();
  return true;
}

void AnalysisChannel::publish(BurstAnalysis&& result) {
  {
    std::lock_guard<std::mutex> lock(result_mutex_);
    result_ = std::move(result);
    has_result_ = true;
    analysis_thread_ = std::this_thread::get_id();
  }
  completed_.fetch_add(1, std::memory_order_release);
}

bool AnalysisChannel::pump_one() {
  NVC_REQUIRE(manual_, "pump_one is the manual channel's consumer side");
  auto job = queue_.try_pop();
  if (!job.has_value()) return false;
  publish(analyze_burst(job->trace, job->knee));
  return true;
}

void AnalysisChannel::drain() {
  if (manual_) {
    while (pump_one()) {
    }
    return;
  }
  const std::uint64_t target = submitted_.load(std::memory_order_relaxed);
  std::uint64_t done = completed_.load(std::memory_order_acquire);
  while (done < target) {
    completed_.wait(done, std::memory_order_acquire);
    done = completed_.load(std::memory_order_acquire);
  }
}

std::optional<BurstAnalysis> AnalysisChannel::take_result() {
  std::lock_guard<std::mutex> lock(result_mutex_);
  if (!has_result_) return std::nullopt;
  has_result_ = false;
  return std::move(result_);
}

std::thread::id AnalysisChannel::last_analysis_thread() const {
  std::lock_guard<std::mutex> lock(result_mutex_);
  return analysis_thread_;
}

// --- AnalysisWorker ---------------------------------------------------------

AnalysisWorker::AnalysisWorker()
    : thread_([this](std::stop_token st) { run(st); }) {}

AnalysisWorker& AnalysisWorker::shared() {
  static AnalysisWorker worker;
  return worker;
}

std::shared_ptr<AnalysisChannel> AnalysisWorker::open_channel() {
  std::shared_ptr<AnalysisChannel> channel(
      new AnalysisChannel(this, /*manual=*/false));
  std::lock_guard<std::mutex> lock(mutex_);
  channels_.push_back(channel);
  return channel;
}

std::shared_ptr<AnalysisChannel> AnalysisWorker::open_manual_channel() {
  // Not registered in channels_: the worker never pops from it, so
  // pump_one() is the single consumer and completion timing is whatever
  // the owning test's scheduler decides.
  return std::shared_ptr<AnalysisChannel>(
      new AnalysisChannel(this, /*manual=*/true));
}

void AnalysisWorker::notify() {
  // Empty critical section: the waiter checks the predicate under mutex_, so
  // synchronizing with it here means the notify cannot fall into the gap
  // between its (failed) predicate check and its going to sleep.
  { std::lock_guard<std::mutex> lock(mutex_); }
  cv_.notify_one();
}

void AnalysisWorker::serve(AnalysisChannel& ch) {
  while (auto job = ch.queue_.try_pop()) {
    pending_.fetch_sub(1, std::memory_order_release);
    ch.publish(analyze_burst(job->trace, job->knee));
    ch.completed_.notify_all();
  }
}

void AnalysisWorker::run(std::stop_token st) {
  std::unique_lock<std::mutex> lock(mutex_);
  while (true) {
    const bool keep_going = cv_.wait(lock, st, [&] {
      return pending_.load(std::memory_order_acquire) > 0;
    });
    if (!keep_going) return;  // stop requested and nothing pending

    // Snapshot the channel list; analysis runs without the registry lock so
    // producers can open channels and submit while a burst is in flight.
    std::vector<std::shared_ptr<AnalysisChannel>> channels = channels_;
    lock.unlock();

    for (const auto& ch : channels) serve(*ch);

    lock.lock();
    // Prune channels whose producer is gone and whose queue has drained.
    std::erase_if(channels_, [](const std::shared_ptr<AnalysisChannel>& ch) {
      return ch->closed_.load(std::memory_order_acquire) &&
             ch->queue_.empty();
    });
  }
}

}  // namespace nvc::core
