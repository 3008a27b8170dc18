#include "harness.hpp"

#include <cstdio>
#include <cstdlib>
#include <unistd.h>

namespace nvc::bench {

namespace {

/// NVC_FULL=1 runs paper-scale inputs (the defaults are scaled down).
bool full_scale() { return env_int("NVC_FULL", 0) != 0; }

/// Exit 2 when the enum knob `name` is set to a value its parser does not
/// round-trip (`to_string(parse(v)) == v`). The parsers fall back to a
/// default on an unknown name, so a misspelling would otherwise run and
/// measure something else.
template <typename RoundTrip>
void check_enum_knob(const char* name, const char* allowed,
                     RoundTrip round_trip) {
  const char* value = std::getenv(name);
  if (value == nullptr || round_trip(value) == value) return;
  std::fprintf(stderr, "%s: unknown value '%s' (want %s)\n", name, value,
               allowed);
  std::exit(2);
}

}  // namespace

void check_enum_knobs() {
  check_enum_knob("NVC_FLUSH", "clflush|clflushopt|clwb|sim|count",
                  [](const char* v) -> std::string {
                    return pmem::to_string(pmem::parse_flush_kind(v));
                  });
  check_enum_knob("NVC_LOG_SYNC", "strict|batched",
                  [](const char* v) -> std::string {
                    return runtime::to_string(runtime::parse_log_sync_mode(v));
                  });
  check_enum_knob("NVC_ADMIT", "always|write-once|reuse",
                  [](const char* v) -> std::string {
                    const auto mode = core::parse_admit_mode(v);
                    return mode ? core::to_string(*mode) : "";
                  });
}

std::vector<std::string> all_workloads() {
  auto names = workloads::workload_names();
  names.push_back("mdb");
  return names;
}

std::vector<std::string> splash_workloads() {
  return {"barnes",  "fmm",           "ocean",        "raytrace",
          "volrend", "water-nsquared", "water-spatial"};
}

std::unique_ptr<workloads::Workload> make_any_workload(
    const std::string& name) {
  if (name == "mdb") {
    mdb::MtestConfig config;
    config.inserts_quick =
        static_cast<std::uint64_t>(env_int("NVC_MDB_INSERTS", 20000));
    // Full scale is capped below the paper's 1M by default: recording the
    // Mtest trace at 1M inserts needs ~10 GB of event memory. Live-only
    // runs can raise it (NVC_MDB_INSERTS_FULL=1000000).
    config.inserts_full = static_cast<std::uint64_t>(
        env_int("NVC_MDB_INSERTS_FULL", 200000));
    return mdb::make_mdb_workload(config);
  }
  return workloads::make_workload(name);
}

workloads::WorkloadParams params_from_env(std::size_t threads) {
  workloads::WorkloadParams p;
  p.threads = threads;
  p.seed = static_cast<std::uint64_t>(env_int("NVC_SEED", 42));
  p.full = full_scale();
  return p;
}

workloads::TraceApi record_trace(const std::string& name,
                                 const workloads::WorkloadParams& params) {
  const std::size_t arena_mb =
      static_cast<std::size_t>(env_int("NVC_ARENA_MB", 512));
  workloads::TraceApi api(params.threads, arena_mb << 20);
  make_any_workload(name)->run(api, params);
  return api;
}

core::KneeResult offline_knee(const workloads::TraceApi& traces,
                              core::Mrc* mrc_out, core::Mrc* exact_out) {
  std::vector<LineAddr> stores;
  std::vector<std::size_t> boundaries;
  traces.trace(0).store_trace(&stores, &boundaries);
  return core::BurstSampler::analyze_offline(
      stores, boundaries, core::KneeConfig{}, mrc_out, exact_out);
}

double flush_regret(const core::Mrc& exact, std::size_t size) {
  const double fewest = exact.at(exact.max_size());
  return fewest > 0.0 ? exact.at(size) / fewest - 1.0 : 0.0;
}

core::PolicyConfig default_policy_config() {
  core::PolicyConfig config;
  config.atlas_table_size = 8;
  config.cache_size = core::WriteCache::kDefaultCapacity;
  // The paper's burst is 64M writes on multi-billion-write runs (~1%); the
  // scaled defaults keep the same burst:execution proportion.
  config.sampler.burst_length =
      static_cast<std::uint64_t>(env_int("NVC_BURST", full_scale()
                                                          ? (1 << 16)
                                                          : (1 << 12)));
  // Skip the initialization FASE before the burst (calibration choice
  // documented in EXPERIMENTS.md; NVC_SKIP_FASES=0 restores the paper's
  // sample-from-the-start behavior).
  config.sampler.skip_fases =
      static_cast<std::uint32_t>(env_int("NVC_SKIP_FASES", 1));
  // NVC_ADMIT=always|write-once|reuse selects the write-admission policy
  // (DESIGN.md §12); print_banner has already refused any other value.
  config.admission.mode =
      core::parse_admit_mode(env_str("NVC_ADMIT", "always")).value();
  return config;
}

LiveResult run_live(const std::string& workload, core::PolicyKind kind,
                    const workloads::WorkloadParams& params,
                    const core::PolicyConfig& policy_config) {
  static int run_counter = 0;
  runtime::RuntimeConfig config;
  config.region_name = "bench." + std::to_string(::getpid()) + "." +
                       std::to_string(run_counter++);
  config.region_size =
      static_cast<std::size_t>(env_int("NVC_REGION_MB", 512)) << 20;
  config.policy = kind;
  config.policy_config = policy_config;
  // Default: the simulated backend at a paper-era clflush-to-memory cost.
  // Modern cores retire clflush in tens of ns, which erases the flush-cost
  // premium the paper measures on its 2.8 GHz Xeon E7 (see DESIGN.md);
  // NVC_FLUSH=clflush|clflushopt|clwb selects the real instructions.
  config.flush =
      pmem::parse_flush_kind(env_str("NVC_FLUSH", "sim").c_str());
  config.simulated_flush_ns =
      static_cast<std::uint32_t>(env_int("NVC_FLUSH_NS", 250));
  // NVC_FLUSH_ASYNC=1 routes data-line write-backs through the flush-behind
  // pipeline (DESIGN.md §8), which also elides write-backs of lines already
  // queued (DESIGN.md §13).
  config.async_flush = env_int("NVC_FLUSH_ASYNC", 0) != 0;
  // NVC_LOG=1 turns on durable undo logging; NVC_LOG_SYNC=strict|batched
  // picks the durability protocol (DESIGN.md §7).
  config.undo_logging = env_int("NVC_LOG", 0) != 0;
  config.log_sync =
      runtime::parse_log_sync_mode(env_str("NVC_LOG_SYNC", "strict").c_str());

  runtime::Runtime rt(config);
  workloads::RuntimeApi api(rt);
  auto w = make_any_workload(workload);

  Stopwatch timer;
  w->run(api, params);
  LiveResult result;
  result.seconds = timer.seconds();
  result.stats = rt.stats();
  rt.destroy_storage();
  return result;
}

LiveResult run_live_repeated(const std::string& workload,
                             core::PolicyKind kind,
                             const workloads::WorkloadParams& params,
                             const core::PolicyConfig& policy_config,
                             int repeats) {
  LiveResult best;
  best.seconds = 1e300;
  for (int r = 0; r < repeats; ++r) {
    LiveResult one = run_live(workload, kind, params, policy_config);
    if (one.seconds < best.seconds) best = std::move(one);
  }
  return best;
}

workloads::SimConfig sim_config_for_threads(std::size_t threads,
                                            const core::PolicyConfig& pc) {
  workloads::SimConfig sim;
  sim.policy = pc;
  // Strong scaling: each thread observes ~1/t of the total writes, so its
  // sampling burst shrinks accordingly (the paper's burst is likewise a
  // fixed small fraction of the per-thread write stream).
  sim.policy.sampler.burst_length = std::max<std::uint64_t>(
      512, pc.sampler.burst_length / threads);
  sim.l1.contention_prob = hwsim::contention_for_threads(threads);
  return sim;
}

void print_banner(const std::string& experiment,
                  const std::string& paper_ref) {
  check_enum_knobs();
  std::printf("=== %s ===\n", experiment.c_str());
  std::printf("paper: %s\n", paper_ref.c_str());
  std::printf("mode: %s | flush backend: %s | seed %lld\n\n",
              full_scale() ? "FULL (paper-scale)" : "quick (NVC_FULL=1 for paper-scale)",
              env_str("NVC_FLUSH", "sim").c_str(),
              static_cast<long long>(env_int("NVC_SEED", 42)));
}

}  // namespace nvc::bench
