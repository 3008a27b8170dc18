// Deterministic stand-in for the OS scheduler in crash-fuzzing runs.
//
// The production flush-behind pipeline hands write-backs to one real
// background thread; which of them have completed at a crash is then decided
// by the OS scheduler and not reproducible. For fuzzing, the rig opens
// *manual* channels instead (FlushWorker::open_manual_channel): the worker
// never touches them, and the queued write-backs run only when the driver
// pumps them. This scheduler makes those pump decisions from a seed — after
// every program op it draws how many queued write-backs the virtual flush
// worker performs — so the entire interleaving, and therefore every crash
// state, replays from NVC_FUZZ_SEED on a single OS thread.
#pragma once

#include <cstdint>

#include "common/rng.hpp"

namespace nvc::testing {

struct VirtualSchedulerConfig {
  /// Chance the virtual flush worker runs at all at a yield point.
  double flush_run_p = 0.55;
  /// Most write-backs per quantum when it does run (uniform 1..max). Small,
  /// so lines linger in the ring across several ops and crashes land with
  /// writes genuinely in flight.
  std::uint32_t flush_max_batch = 3;
};

class VirtualScheduler {
 public:
  explicit VirtualScheduler(std::uint64_t seed,
                            VirtualSchedulerConfig config = {})
      : rng_(seed), config_(config) {}

  /// How many queued lines the virtual flush worker writes back now
  /// (0 = it stays descheduled this quantum).
  std::uint32_t flush_quantum() {
    if (!rng_.chance(config_.flush_run_p)) return 0;
    return static_cast<std::uint32_t>(rng_.range(1, config_.flush_max_batch));
  }

 private:
  Rng rng_;
  VirtualSchedulerConfig config_;
};

}  // namespace nvc::testing
