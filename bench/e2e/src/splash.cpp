// The SPLASH2-style workloads, ocean and raytrace, run live in rounds: each
// round is a fresh Runtime running the full-size app once, so every round
// also pays one burst analysis. Rounds see identical inputs, so their
// counters and outputs must agree; and one live round must match a TraceApi
// recording of the same seed replayed through core::make_policy.
#include <algorithm>
#include <memory>
#include <numeric>

#include "bench.hpp"
#include "common/rng.hpp"
#include "workloads/replay.hpp"
#include "workloads/workload.hpp"

namespace nvc::e2e {

namespace {

struct RoundCounts {
  std::uint64_t stores = 0;
  std::uint64_t fases = 0;
  std::uint64_t flushes = 0;
  std::uint64_t output = 0;  // digest of the first persistent allocation
};

std::string describe(const RoundCounts& c) {
  return "stores=" + std::to_string(c.stores) +
         " fases=" + std::to_string(c.fases) +
         " flushes=" + std::to_string(c.flushes) +
         " output=" + std::to_string(c.output);
}

/// Read the round's output back (ocean's grids, raytrace's frame buffer)
/// one 4 KiB page at a time in a seeded order, timing each page read.
/// The output's lines are evicted first, so every page comes from memory
/// whatever the round left in the caches: a page read that hits or misses
/// by chance would make the read percentiles jump between runs. Returns an
/// order-independent digest.
std::uint64_t read_output(const BenchApi::Allocation& output,
                          std::uint64_t seed, std::vector<double>* read_us) {
  constexpr std::size_t kPageWords = 4096 / sizeof(std::uint64_t);
  const auto* words = static_cast<const std::uint64_t*>(output.base);
  const std::size_t n = output.size / sizeof(std::uint64_t);
  std::vector<std::size_t> pages((n + kPageWords - 1) / kPageWords);
  std::iota(pages.begin(), pages.end(), std::size_t{0});
  Rng rng(seed);
  std::shuffle(pages.begin(), pages.end(), rng);

  pmem::FlushBackend evict(pmem::FlushKind::kClflush);
  evict.flush_range(output.base, output.size);
  evict.fence();
  std::uint64_t digest = 0;
  for (const std::size_t page : pages) {
    const std::size_t begin = page * kPageWords;
    const std::size_t end = std::min(n, begin + kPageWords);
    const auto t0 = op_start_ticks();
    std::uint64_t sum = 0;
    for (std::size_t i = begin; i < end; ++i) sum += words[i] ^ i;
    read_us->push_back(seconds_since(t0) * 1e6);
    digest += splitmix64_mix(sum ^ page);
  }
  return digest;
}

/// A round allocates 16.9 MB (ocean) or 1.05 MB (raytrace); set-up faults
/// in the whole region, so it is sized close to that.
std::size_t region_bytes(const Options& options) {
  return (options.workload == "ocean" ? 20u : 2u) << 20;
}

/// Live counters of one round against the same round recorded through
/// TraceApi and replayed through the SC policy. Ocean is checked at the
/// quick grid: its full-size recording needs about 1 GB of trace events.
void replay_oracle(const Options& options, Pass& pass) {
  workloads::WorkloadParams params;
  params.threads = 1;
  params.seed = options.seed;
  params.full = !options.quick && options.workload == "raytrace";
  auto workload = workloads::make_workload(options.workload);

  const runtime::RuntimeConfig config =
      base_config(options, region_name(options, "oracle"),
                  region_bytes(options));
  runtime::RuntimeStats live;
  {
    runtime::Runtime rt(config);
    BenchApi api(rt);
    workload->run(api, params);
    if (options.planted("splash")) {
      // An extra store the recording never sees.
      api.fase_begin(0);
      api.wrote(0, api.allocations().front().base, sizeof(std::uint64_t));
      api.fase_end(0);
    }
    live = rt.stats();
    rt.destroy_storage();
  }

  workloads::TraceApi recording(1);
  workload->run(recording, params);
  const workloads::FlushCountResult replay = workloads::replay_flush_count_all(
      recording, config.policy, config.policy_config);

  auto check = [&](const char* what, std::uint64_t got, std::uint64_t want) {
    if (got != want) {
      pass.fail(std::string("replay oracle: live ") + what + "=" +
                std::to_string(got) + " but the replayed recording has " +
                std::to_string(want));
    }
  };
  check("stores", live.stores, replay.stores);
  check("fases", live.fases, replay.fases);
  check("flushes", live.flushes, replay.flushes);
}

}  // namespace

Pass run_splash(const Options& options, Tracer* tracer, Recorder* recorder) {
  Pass pass;
  const bool ocean = options.workload == "ocean";
  // Nominal rounds: ocean ~1.6 s and raytrace ~65 ms per round.
  const std::uint64_t rounds = options.scaled(ocean ? 5 : 120);
  workloads::WorkloadParams params;
  params.threads = 1;
  params.seed = options.seed;
  params.full = !options.quick;
  auto workload = workloads::make_workload(options.workload);

  RoundCounts first;
  for (std::uint64_t r = 0; r < rounds; ++r) {
    const runtime::RuntimeConfig config =
        base_config(options, region_name(options, "round" + std::to_string(r)),
                    region_bytes(options));
    const auto t0 = ticks();
    auto rt = std::make_unique<runtime::Runtime>(config);
    prefault(*rt);
    pass.setup_s.push_back(seconds_since(t0));

    BenchApi api(*rt);
    // Only the first round is recorded: later rounds repeat it.
    api.trace_into(tracer, r == 0 ? recorder : nullptr);
    const auto t1 = ticks();
    workload->run(api, params);
    const double round_s = seconds_since(t1);
    pass.wall_s += round_s;
    api.trace_into(nullptr, nullptr);

    const runtime::RuntimeStats stats = rt->stats();
    // One rate window per round: every round does the same work, while
    // within a round ocean's FASEs run at rates a factor of two apart.
    pass.window_rates.push_back(static_cast<double>(stats.stores) / round_s);
    pass.add_stats(stats);
    pass.user_bytes += api.user_bytes();
    pass.store_calls += api.store_calls();
    pass.fase_us.insert(pass.fase_us.end(), api.fase_us().begin(),
                        api.fase_us().end());
    pass.alloc_us.insert(pass.alloc_us.end(), api.alloc_us().begin(),
                         api.alloc_us().end());

    RoundCounts counts{stats.stores, stats.fases, stats.flushes,
                       read_output(api.allocations().front(), options.seed,
                                   &pass.read_us)};
    if (r == 0) {
      first = counts;
    } else if (counts.stores != first.stores || counts.fases != first.fases ||
               counts.flushes != first.flushes ||
               counts.output != first.output) {
      pass.fail("round " + std::to_string(r) + " (" + describe(counts) +
                ") differs from round 0 (" + describe(first) + ")");
    }

    if (r + 1 < rounds) {
      rt->destroy_storage();
    } else {
      rt.reset();  // clean shutdown seals the image
      clean_restarts(config, 3, pass);
      destroy_regions(config);
    }
  }
  pass.ops = pass.stats.stores;
  pass.peak_rss_mb = peak_rss_mb();
  replay_oracle(options, pass);
  return pass;
}

}  // namespace nvc::e2e
