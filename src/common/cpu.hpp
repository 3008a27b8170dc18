// Runtime CPU feature detection for the persistent-memory flush instructions,
// plus the per-thread affinity query behind the flush worker's spin rule.
#pragma once

#include <cstdint>

namespace nvc {

struct CpuFeatures {
  bool clflush = false;     // SSE2 CLFLUSH
  bool clflushopt = false;  // CLFLUSHOPT (weakly ordered flush+invalidate)
  bool clwb = false;        // CLWB (write back without invalidate)
};

/// Detect flush-instruction support via CPUID (cached after first call).
const CpuFeatures& cpu_features();

/// True when the calling thread may run on more than one CPU, so a spin
/// loop on it need not take a CPU away from the thread it waits for. Counts
/// the thread's affinity mask on Linux (a process started under
/// `taskset -c 0` gets false on any host), hardware_concurrency elsewhere.
/// Affinity is per thread and inherited at creation: ask from the thread
/// that would spin. A system call, so callers ask once, not per decision.
bool can_spin();

/// Pin the calling thread to one logical CPU. Returns false (and leaves the
/// affinity untouched) when pinning is unsupported or rejected — callers
/// treat pinning as a hint, never a requirement.
bool pin_thread_to_cpu(int cpu);

}  // namespace nvc
