// Figure 7 — accuracy of the MRC analysis on four programs: the actual MRC
// (direct write-cache simulation at every size), the full-trace (offline)
// model, and the sampled (online, one-burst) model; then each choice's size,
// the model knee it was placed from, and its flush regret against size 50.
// Paper: the sampled MRC is less precise but has the same inflection points
// as the accurate MRC, so size selection is unaffected.
#include <cstdio>

#include "core/mrc.hpp"
#include "harness.hpp"

int main() {
  using namespace nvc;
  using namespace nvc::bench;
  print_banner("Figure 7: actual vs full-trace vs sampled MRC",
               "Fig. 7 — sampled MRC shares the accurate MRC's knees on "
               "barnes, ocean, water-nsquared, water-spatial");

  const std::size_t max_size = core::KneeConfig{}.max_size;
  for (const char* name :
       {"barnes", "ocean", "water-nsquared", "water-spatial"}) {
    const auto traces = record_trace(name, params_from_env(1));
    std::vector<LineAddr> stores;
    std::vector<std::size_t> boundaries;
    traces.trace(0).store_trace(&stores, &boundaries);

    // Actual: simulate the write cache at every size.
    const core::Mrc actual =
        core::mrc_simulate_write_cache(stores, boundaries, max_size);

    // Full-trace model: offline analysis over the whole trace, and the
    // trace's exact write-cache MRC that prices each choice's regret.
    core::Mrc full_model;
    core::Mrc exact;
    const auto offline = core::BurstSampler::analyze_offline(
        stores, boundaries, core::KneeConfig{}, &full_model, &exact);

    // Sampled model: one burst of the first ~1/8 of the trace (the online
    // sampler's view).
    core::BurstSampler sampler([&] {
      core::SamplerConfig config;
      config.burst_length = std::max<std::uint64_t>(stores.size() / 8, 1000);
      return config;
    }());
    std::size_t bi = 0;
    std::optional<std::size_t> online_choice;
    for (std::size_t i = 0; i < stores.size() && !online_choice; ++i) {
      while (bi < boundaries.size() && boundaries[bi] == i) {
        sampler.on_fase_boundary();
        ++bi;
      }
      online_choice = sampler.on_store(stores[i]);
    }
    const core::Mrc& sampled = sampler.last_mrc();

    std::printf("## %s\n", name);
    std::printf("# size  actual  full_trace  sampled\n");
    for (std::size_t c = 1; c <= max_size; ++c) {
      std::printf("%3zu  %8.5f  %8.5f  %8.5f\n", c, actual.at(c),
                  full_model.at(c),
                  sampled.empty() ? -1.0 : sampled.at(c));
    }
    // Extension: periodic re-sampling (the fix for phase-sensitive
    // programs whose first burst is unrepresentative — see EXPERIMENTS.md
    // on barnes).
    core::SamplerConfig re_config;
    re_config.burst_length = std::max<std::uint64_t>(stores.size() / 8, 1000);
    re_config.hibernation_length = re_config.burst_length * 2;
    core::BurstSampler resampler(re_config);
    std::optional<std::size_t> last_choice;
    bi = 0;
    for (std::size_t i = 0; i < stores.size(); ++i) {
      while (bi < boundaries.size() && boundaries[bi] == i) {
        resampler.on_fase_boundary();
        ++bi;
      }
      if (const auto s2 = resampler.on_store(stores[i])) last_choice = s2;
    }
    // Both samplers finish a burst: these traces are far longer than the
    // 1000-store floor, so a burst is 1/8 of the trace.
    const std::size_t one_burst = online_choice.value();
    const std::size_t resampled = last_choice.value();
    std::printf("offline choice: %zu, online (one burst): %zu, online with "
                "re-sampling (extension): %zu\n",
                offline.chosen_size, one_burst, resampled);
    std::printf("model knees before placement: %zu, %zu, %zu\n",
                offline.model_size, sampler.last_selection().model_size,
                resampler.last_selection().model_size);
    std::printf("regret (flushes over size %zu's, minus 1): %.3f, %.3f, "
                "%.3f\n\n",
                max_size, flush_regret(exact, offline.chosen_size),
                flush_regret(exact, one_burst), flush_regret(exact, resampled));
  }
  return 0;
}
