// Shared plumbing for the per-table / per-figure benchmark binaries.
//
// Two measurement substrates (see DESIGN.md):
//  * live wall-clock: workloads run through the FASE runtime against a
//    tmpfs-backed region with real clflush* instructions;
//  * trace + cost model: workloads are recorded once per thread count and
//    replayed through the policies on hwsim cores (deterministic; used for
//    the thread-scaling figures since this host exposes one core).
//
// Every binary honors NVC_FULL=1 (paper-scale inputs), NVC_THREADS,
// NVC_SEED, and NVC_FLUSH (clflush|clflushopt|clwb|sim|count). This is the
// only code that turns knobs into a RuntimeConfig; the libraries take every
// setting from their caller.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/env.hpp"
#include "common/stats.hpp"
#include "common/stopwatch.hpp"
#include "common/table.hpp"
#include "core/policy.hpp"
#include "core/sampler.hpp"
#include "hwsim/contention.hpp"
#include "mdb/mtest.hpp"
#include "runtime/runtime.hpp"
#include "workloads/replay.hpp"
#include "workloads/workload.hpp"

namespace nvc::bench {

/// Paper Table III order, including mdb.
std::vector<std::string> all_workloads();

/// SPLASH2-style subset used by Table I / Fig. 5 / Fig. 6 / Table IV.
std::vector<std::string> splash_workloads();

/// Instantiate any workload, including "mdb".
std::unique_ptr<workloads::Workload> make_any_workload(
    const std::string& name);

/// Default workload parameters from the environment.
workloads::WorkloadParams params_from_env(std::size_t threads = 1);

/// Record the per-thread write trace of a workload (trace mode).
workloads::TraceApi record_trace(const std::string& name,
                                 const workloads::WorkloadParams& params);

/// Offline analysis of a recorded trace: best cache size per paper rules
/// (thread 0's trace, as SC-offline profiles one representative thread).
/// `exact_out` receives that trace's exact write-cache MRC.
core::KneeResult offline_knee(const workloads::TraceApi& traces,
                              core::Mrc* mrc_out = nullptr,
                              core::Mrc* exact_out = nullptr);

/// Flush regret of cache size `size`: its flushes over the fewest any size
/// up to the MRC's largest gets (that largest size, by LRU inclusion),
/// minus 1, read off an exact write-cache MRC.
double flush_regret(const core::Mrc& exact, std::size_t size);

struct LiveResult {
  double seconds = 0.0;
  runtime::RuntimeStats stats;
};

/// Run a workload live through the runtime and time it.
LiveResult run_live(const std::string& workload, core::PolicyKind kind,
                    const workloads::WorkloadParams& params,
                    const core::PolicyConfig& policy_config);

/// Best-of-n live timing (the paper averages five runs; quick mode uses 3).
LiveResult run_live_repeated(const std::string& workload,
                             core::PolicyKind kind,
                             const workloads::WorkloadParams& params,
                             const core::PolicyConfig& policy_config,
                             int repeats);

/// Policy config with the sampler scaled to the environment: the paper's
/// burst is 64M writes; quick runs sample 64K writes.
core::PolicyConfig default_policy_config();

/// Cost-model configuration for a given thread count (contention grows with
/// threads, per hwsim/contention.hpp).
workloads::SimConfig sim_config_for_threads(std::size_t threads,
                                            const core::PolicyConfig& pc);

/// Exit 2, naming the allowed values, when NVC_FLUSH or NVC_LOG_SYNC is
/// set to anything but one of them.
void check_enum_knobs();

/// Print the standard header every bench emits, after check_enum_knobs():
/// every bench binary calls this before any work.
void print_banner(const std::string& experiment, const std::string& paper_ref);

}  // namespace nvc::bench
