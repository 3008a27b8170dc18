// Deterministic turnstile scheduler for the durable-structure tests.
//
// Runs N client bodies on real std::threads but admits exactly ONE at a
// time: every PSpace persist step (and every structure retry-loop head)
// calls yield(), and at each yield the scheduler picks — from a seeded RNG
// — which runnable thread proceeds. The interleaving is therefore a pure
// function of (seed, bodies): a failing schedule replays from its seed, and
// a PSpace over a pmem::ShadowPmem crash model runs under it exactly as it
// would single-threaded.
//
// The yield points sit exactly where the FliT protocol is vulnerable — a
// writer can be parked between tagging a line and completing its write-back
// while a helper runs, which is the window the seeded elision bug
// (PSpace::set_bug_early_untag) needs to manifest.
//
// free_running=true turns yield() into a no-op and releases all threads at
// once: the same test bodies become a genuine tsan stress test over the
// thread-safe heap-arena PSpace.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/assert.hpp"
#include "common/rng.hpp"

namespace nvc::testing {

class InterleaveScheduler {
 public:
  explicit InterleaveScheduler(std::uint64_t seed, bool free_running = false)
      : rng_(seed), free_running_(free_running) {}

  /// Run every body to completion under the turnstile (or concurrently when
  /// free-running). Bodies receive their thread index. Blocks until all
  /// bodies return.
  void run(const std::vector<std::function<void(std::size_t)>>& bodies) {
    const std::size_t n = bodies.size();
    NVC_REQUIRE(n >= 1, "need at least one body");
    state_.assign(n, State::kWaiting);
    current_ = n;  // nobody admitted yet
    switches_ = 0;

    std::vector<std::thread> threads;
    threads.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      threads.emplace_back([this, i, &bodies] {
        if (!free_running_) {
          std::unique_lock<std::mutex> lk(mu_);
          state_[i] = State::kRunnable;
          cv_.wait(lk, [&] { return current_ == i; });
        }
        bodies[i](i);
        if (!free_running_) {
          std::unique_lock<std::mutex> lk(mu_);
          state_[i] = State::kDone;
          grant_next_locked();
          cv_.notify_all();
        }
      });
    }

    if (!free_running_) {
      std::unique_lock<std::mutex> lk(mu_);
      // Wait for every thread to park at the gate, then admit the first.
      for (;;) {
        bool all_parked = true;
        for (std::size_t i = 0; i < n; ++i) {
          if (state_[i] == State::kWaiting) all_parked = false;
        }
        if (all_parked) break;
        lk.unlock();
        std::this_thread::yield();
        lk.lock();
      }
      grant_next_locked();
      cv_.notify_all();
    }
    for (auto& t : threads) t.join();
  }

  /// The yield point: called from worker threads (via PSpace's yield hook).
  /// Picks the next thread to admit; blocks the caller until readmitted.
  void yield() {
    if (free_running_) return;
    std::unique_lock<std::mutex> lk(mu_);
    const std::size_t me = current_;
    grant_next_locked();
    if (current_ == me) return;  // re-picked ourselves: keep running
    cv_.notify_all();
    cv_.wait(lk, [&] { return current_ == me; });
  }

  /// Bind this scheduler's yield() as a PSpace yield hook.
  std::function<void()> hook() {
    return [this] { yield(); };
  }

  /// Context switches performed (deterministic under a fixed seed).
  std::uint64_t switches() const noexcept { return switches_; }

 private:
  enum class State { kWaiting, kRunnable, kDone };

  void grant_next_locked() {
    std::vector<std::size_t> runnable;
    for (std::size_t i = 0; i < state_.size(); ++i) {
      if (state_[i] == State::kRunnable) runnable.push_back(i);
    }
    if (runnable.empty()) {
      current_ = state_.size();  // everyone done
      return;
    }
    const std::size_t pick = runnable[rng_.below(runnable.size())];
    if (pick != current_) ++switches_;
    current_ = pick;
  }

  Rng rng_;
  bool free_running_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<State> state_;
  std::size_t current_ = 0;
  std::uint64_t switches_ = 0;
};

}  // namespace nvc::testing
