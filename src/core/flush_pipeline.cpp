#include "core/flush_pipeline.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "common/assert.hpp"
#include "common/cpu.hpp"

namespace nvc::core {

namespace {

inline void cpu_pause() noexcept {
#if defined(__x86_64__)
  __builtin_ia32_pause();
#endif
}

/// Worker doze tick. Long enough that an idle worker costs nothing
/// measurable (5k wakes/s upper bound), short enough that a ring filled
/// between FASE commits is swept before it backs up.
constexpr auto kDozeTick = std::chrono::microseconds(200);

/// After a sweep found work, keep polling this long before dozing again —
/// an eviction storm delivers lines faster than cv wakeups can. Only used
/// when the worker may run on a second CPU; on a single allowed CPU spinning
/// would take the producer's timeslice.
constexpr auto kSpinWindow = std::chrono::microseconds(50);

/// Backlog a ring must reach before a *spinning* worker takes it (or its
/// watermark, half the ring, if that is lower). A FASE's commit-time batch
/// is a handful of lines that the committing thread's wait_drained()
/// retires itself in one lock hold; a worker racing it for them only
/// bounces the channel's lines between the two cores. An eviction storm
/// crosses this quickly, and doze-tick and poke sweeps take any backlog.
/// 32 and 64 still let the worker race the 64-line bursts of
/// BM_FlushPipelineDrainPool (EXPERIMENTS.md).
constexpr std::size_t kSpinBatch = 128;

std::uint64_t steady_now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

// --- FlushChannel -----------------------------------------------------------

FlushChannel::FlushChannel(FlushWorker* worker, std::unique_ptr<FlushSink> sink,
                           std::size_t capacity, bool manual)
    : worker_(worker),
      sink_(std::move(sink)),
      manual_(manual),
      queue_(capacity) {}

bool FlushChannel::try_push(LineAddr line) {
  return queue_.try_push(std::move(line));
}

std::size_t FlushChannel::consume(std::size_t max_lines) {
  if (consume_lock_.test_and_set(std::memory_order_acquire)) {
    return 0;  // the other side holds the lock and is making progress
  }
  std::size_t done = 0;
  while (done < max_lines) {
    const std::optional<LineAddr> line = queue_.try_pop();
    if (!line.has_value()) break;
    sink_->flush_line(*line);
    ++done;
  }
  if (done != 0) {
    // flushed_ counts lines *retired from the ring*, success or not: the
    // drain ticket must complete even when the media rejects a line. A
    // false outcome has already been accounted by the fault-tolerant sink
    // below (quarantine + FaultStats), whose release stores this counter's
    // release publish sequences after — a drain()er that sees the count
    // also sees the quarantine.
    last_flush_thread_ = std::this_thread::get_id();
    flushed_.fetch_add(done, std::memory_order_release);
  }
  consume_lock_.clear(std::memory_order_release);
  return done;
}

void FlushChannel::request_wake() {
  if (manual_) return;  // no worker serves this channel
  if (!wake_requested_.exchange(true, std::memory_order_relaxed)) {
    worker_->poke();
  }
}

void FlushChannel::wait_drained() {
  const std::uint64_t target = pushed();
  // Watchdog arm: "progress" is the retired-line counter moving. The only
  // way this loop fails to make progress itself is the consumer lock being
  // held continuously by a wedged worker (e.g. a backend stalled by the
  // media or a debugger) — detect that, diagnose once per watchdog period,
  // and keep helping so a recovered worker still completes us. The clock
  // is read only on iterations that retired nothing.
  constexpr std::uint64_t kWatchdogNs = kDrainWatchdogMs * 1000000ULL;
  std::uint64_t last_flushed = flushed_.load(std::memory_order_acquire);
  std::uint64_t stall_since_ns = 0;
  while (last_flushed < target) {
    // Help: pop and flush on this thread rather than waiting for the worker
    // to be scheduled. The whole backlog drains under one lock hold — one
    // acquire/release and one counter publish per drain, not per line.
    if (consume(capacity()) == 0) {
      // Our ring is empty, or the worker holds it and is mid-flush on our
      // behalf: yield so a descheduled worker (single-core host) gets the
      // timeslice it needs to finish.
      std::this_thread::yield();
    }
    const std::uint64_t now_flushed = flushed_.load(std::memory_order_acquire);
    if (now_flushed != last_flushed) {
      last_flushed = now_flushed;
      stall_since_ns = 0;
      continue;
    }
    const std::uint64_t now = steady_now_ns();
    if (stall_since_ns == 0) {
      stall_since_ns = now;
    } else if (now - stall_since_ns >= kWatchdogNs) {
      stall_warnings_.fetch_add(1, std::memory_order_relaxed);
      std::fprintf(
          stderr,
          "[nvc] flush drain watchdog: no write-back progress for %llu ms "
          "(queue depth=%zu pushed=%llu flushed=%llu); continuing as "
          "helping consumer\n",
          static_cast<unsigned long long>(kDrainWatchdogMs),
          queue_.size(), static_cast<unsigned long long>(target),
          static_cast<unsigned long long>(now_flushed));
      stall_since_ns = now;  // re-arm: one diagnostic per watchdog period
    }
  }
}

// --- FlushWorker ------------------------------------------------------------

FlushWorker::FlushWorker()
    : thread_([this](std::stop_token st) { run(st); }) {}

FlushWorker& FlushWorker::shared() {
  static FlushWorker worker;
  return worker;
}

std::shared_ptr<FlushChannel> FlushWorker::open_channel(
    std::unique_ptr<FlushSink> sink, std::size_t capacity) {
  NVC_REQUIRE(sink != nullptr);
  NVC_REQUIRE(is_pow2(capacity), "flush queue depth must be a power of two");
  std::shared_ptr<FlushChannel> channel(
      new FlushChannel(this, std::move(sink), capacity, /*manual=*/false));
  std::lock_guard<std::mutex> lock(mutex_);
  channels_.push_back(channel);
  return channel;
}

std::shared_ptr<FlushChannel> FlushWorker::open_manual_channel(
    std::unique_ptr<FlushSink> sink, std::size_t capacity) {
  NVC_REQUIRE(sink != nullptr);
  NVC_REQUIRE(is_pow2(capacity), "flush queue depth must be a power of two");
  // Deliberately NOT registered in channels_: the worker never sees it, so
  // the only consumers are pump_one() calls and helping drains — both on
  // the owner's thread, both deterministic.
  return std::shared_ptr<FlushChannel>(
      new FlushChannel(this, std::move(sink), capacity, /*manual=*/true));
}

void FlushWorker::poke() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    poked_ = true;
  }
  cv_.notify_one();
}

void FlushWorker::register_idle_task(std::weak_ptr<IdleTask> task) {
  std::lock_guard<std::mutex> lock(mutex_);
  idle_tasks_.push_back(std::move(task));
}

bool FlushWorker::run_idle_task() {
  std::shared_ptr<IdleTask> task;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    while (!idle_tasks_.empty() && task == nullptr) {
      idle_cursor_ %= idle_tasks_.size();
      task = idle_tasks_[idle_cursor_].lock();
      if (task != nullptr) {
        ++idle_cursor_;
      } else {
        // Owner died; expiry IS the deregistration protocol.
        idle_tasks_.erase(idle_tasks_.begin() +
                          static_cast<std::ptrdiff_t>(idle_cursor_));
      }
    }
  }
  if (task == nullptr) return false;
  // Off-mutex: the step may do real work (scrubbing a batch of lines) and
  // must not block channel registration or watermark pokes.
  const bool worked = task->idle_step();
  if (worked) idle_steps_.fetch_add(1, std::memory_order_relaxed);
  return worked;
}

std::size_t FlushWorker::sweep(
    const std::vector<std::shared_ptr<FlushChannel>>& channels,
    bool spinning) {
  // Read-only until there is work: an empty ring costs two cursor loads and
  // no store, so an idle sweep never takes a line the producer writes away
  // from it. A taken ring retires its backlog in one batch; a spinning
  // sweep leaves backlogs below kSpinBatch to the producer's own drain.
  std::size_t total = 0;
  for (const auto& ch : channels) {
    if (ch->wake_requested_.load(std::memory_order_relaxed)) {
      ch->wake_requested_.store(false, std::memory_order_relaxed);
    }
    const std::size_t backlog = ch->queue_.size();
    if (backlog == 0 ||
        (spinning && backlog < std::min(kSpinBatch, ch->capacity() / 2))) {
      continue;
    }
    total += ch->consume(backlog);
  }
  return total;
}

void FlushWorker::run(std::stop_token st) {
  // With a single allowed CPU the post-work spin below would only take the
  // producer's timeslice; drain()'s helping consumer covers latency there.
  // Asked once, from this thread: it runs on the mask it inherited from
  // the thread that constructed the worker.
  const bool spin = can_spin();

  std::unique_lock<std::mutex> lock(mutex_);
  while (true) {
    // Doze: wake on the periodic tick, an explicit poke, or stop. A plain
    // timeout (predicate false) still sweeps — the tick is the default
    // delivery mechanism; pokes only accelerate watermark crossings.
    cv_.wait_for(lock, st, kDozeTick, [&] { return poked_; });
    poked_ = false;
    std::vector<std::shared_ptr<FlushChannel>> channels = channels_;
    lock.unlock();

    // The wake-up sweep takes every backlog. Only when it found work does
    // the worker keep polling (spin sweeps follow the kSpinBatch rule); an
    // empty tick goes straight back to dozing without having written a
    // single channel line.
    bool idle = sweep(channels, /*spinning=*/false) == 0;
    if (!idle && spin) {
      auto last_work = std::chrono::steady_clock::now();
      while (!st.stop_requested()) {
        if (sweep(channels, /*spinning=*/true) != 0) {
          last_work = std::chrono::steady_clock::now();
        } else if (std::chrono::steady_clock::now() - last_work >
                   kSpinWindow) {
          idle = true;
          break;
        } else {
          cpu_pause();
        }
      }
    }
    // Idle worker: one bounded slice of background work (the online
    // scrubber). Flush traffic always wins — the slice runs only after a
    // sweep (plus spin window) found every ring empty, and the next doze
    // tick re-checks the rings before another slice runs.
    if (idle && !st.stop_requested()) run_idle_task();

    lock.lock();
    // Prune channels whose producer is gone and whose queue has drained.
    std::erase_if(channels_, [](const std::shared_ptr<FlushChannel>& ch) {
      return ch->closed_.load(std::memory_order_acquire) && ch->queue_.empty();
    });
    if (st.stop_requested()) return;
  }
}

// --- AsyncFlushSink ---------------------------------------------------------

AsyncFlushSink::AsyncFlushSink(std::shared_ptr<FlushChannel> channel,
                               FlushSink* local, DeviceModel model)
    : channel_(std::move(channel)),
      local_(local),
      model_(model),
      watermark_(channel_->capacity() / 2) {
  NVC_REQUIRE(channel_ != nullptr && local_ != nullptr);
}

AsyncFlushSink::~AsyncFlushSink() {
  // Leave no line behind: the producer is going away, so write back
  // anything still queued (helping consumer) and release the channel for
  // pruning. The channel owns its sink, so the worker side stays valid
  // even though this producer (and its runtime) is being torn down.
  channel_->wait_drained();
  channel_->close();
}

std::uint64_t AsyncFlushSink::now_ns() const noexcept {
  return steady_now_ns();
}

bool AsyncFlushSink::maybe_inflight(LineAddr line) const noexcept {
  // Nothing pushed since the last drain: answered from this thread's own
  // state, without touching the consumer's line.
  if (pending_lines_.empty()) return false;
  // pending_lines_[i] was push number pending_base_ + i + 1 and is out of
  // the ring once flushed() covers it, so the still-queued suffix starts at
  // flushed() - pending_base_. A stale flushed() read only widens the scan
  // (errs conservatively).
  const std::uint64_t flushed = channel_->flushed();
  if (flushed >= pending_base_ + pending_lines_.size()) return false;
  for (std::size_t i = static_cast<std::size_t>(flushed - pending_base_);
       i < pending_lines_.size(); ++i) {
    if (pending_lines_[i] == line) return true;
  }
  return false;
}

bool AsyncFlushSink::flush_line(LineAddr line) {
  if (!channel_->try_push(line)) {
    // Ring full: absorb backpressure synchronously on this thread. The line
    // is flushed exactly once either way, so total data traffic is
    // identical to sync mode.
    ++overflows_;
    return local_->flush_line(line);
  }
  pending_lines_.push_back(line);
  if (model_.issue_ns != 0) {
    // Pipelined-device model: the line occupies the device for issue_ns
    // starting when the device is free (or now, if it went idle). The clock
    // is read once per burst; later pushes just extend the busy window
    // (over-estimating occupancy across a mid-burst pause is conservative).
    if (!burst_active_) {
      burst_active_ = true;
      device_free_ns_ = std::max(device_free_ns_, now_ns());
    }
    device_free_ns_ += model_.issue_ns;
  }
  // The push count since the last drain bounds the ring depth from above,
  // so the shared cursors are read only once it reaches the watermark.
  if (pending_lines_.size() >= watermark_ &&
      channel_->depth() >= watermark_) {
    channel_->request_wake();
  }
  // Queued: the worker-side sink decides the line's fate (retry/quarantine
  // happen there); accepted from this producer's point of view.
  return true;
}

void AsyncFlushSink::drain() {
  channel_->wait_drained();
  // Every pending entry is now flushed; reset the shadow (capacity kept).
  pending_base_ += pending_lines_.size();
  pending_lines_.clear();
  burst_active_ = false;
  if (model_.latency_ns > model_.issue_ns) {
    // Everything is issued; durability of the last line lags its issue slot
    // by the device's remaining write latency.
    const std::uint64_t durable_at =
        device_free_ns_ + (model_.latency_ns - model_.issue_ns);
    while (now_ns() < durable_at) cpu_pause();
  }
  local_->drain();  // fence, counted on the application thread's backend
}

}  // namespace nvc::core
