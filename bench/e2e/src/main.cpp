// nvc_e2e: the repository's end-to-end benchmark. One process runs one
// workload with one seed and prints every metric by name and unit; the last
// stdout line is a JSON object {correct, attempted, failed, metrics}.
//
//   nvc_e2e --workload W --seed N --seconds S --trace 0|1 --out DIR
//           [--quick] [--flush=sim|clwb|...] [--plant-bug=ORACLE]
//
// --trace 0 reports the end-to-end metrics. --trace 1 runs the workload
// untraced, then traced, then replays the recorded store stream through the
// core layers, and reports the per-layer metrics. See README.md.
#include <pthread.h>
#include <sched.h>
#include <sys/stat.h>
#include <unistd.h>

#include <array>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <string>
#include <vector>

#include "bench.hpp"
#include "common/cpu.hpp"
#include "core/flush_pipeline.hpp"

extern char** environ;

namespace nvc::e2e {
namespace {

constexpr const char* kWorkloads[] = {"ocean", "raytrace", "mdb", "kv-strict",
                                      "kv-batched-async"};
constexpr const char* kOracles[] = {"splash", "mdb", "kv", "kv-crash"};
constexpr std::uint64_t kRecordedStores = 8u << 20;
constexpr std::size_t kDumpedSpans = 1u << 18;

struct Metric {
  std::string name;
  std::string unit;
  double value;
};

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

std::string number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i != 0) out += ", ";
    out += quoted(metrics[i].name) + ": {\"value\": " +
           number(metrics[i].value) + ", \"unit\": " +
           quoted(metrics[i].unit) + "}";
  }
  return out + "}";
}

bool parse(int argc, char** argv, Options* o) {
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string value;
    if (const auto eq = arg.find('='); eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg.resize(eq);
    } else if (arg != "--quick" && i + 1 < argc) {
      value = argv[++i];
    }
    if (arg == "--workload") {
      o->workload = value;
    } else if (arg == "--seed") {
      o->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      o->seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return false;
      o->trace = value == "1";
      have_trace = true;
    } else if (arg == "--out") {
      o->out_dir = value;
    } else if (arg == "--quick") {
      o->quick = true;
    } else if (arg == "--flush") {
      o->flush = pmem::parse_flush_kind(value.c_str());
      if (value != pmem::to_string(o->flush)) return false;
    } else if (arg == "--plant-bug") {
      o->plant_bug = value;
    } else {
      return false;
    }
  }
  bool known = false;
  for (const char* w : kWorkloads) known = known || o->workload == w;
  bool oracle = o->plant_bug.empty();
  for (const char* name : kOracles) oracle = oracle || o->plant_bug == name;
  return known && oracle && have_trace && !o->out_dir.empty() &&
         o->seconds > 0.0 && o->seconds <= 600.0;
}

/// The libraries read NVC_* environment knobs; any of them set would change
/// what is measured, so only the region directory is allowed.
bool knobs_clear() {
  bool clear = true;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string entry = *e;
    const std::string name = entry.substr(0, entry.find('='));
    if (name.rfind("NVC_", 0) == 0 && name != "NVC_PMEM_DIR") {
      std::fprintf(stderr, "nvc_e2e: refusing to run with %s set\n",
                   name.c_str());
      clear = false;
    }
  }
  return clear;
}

/// Pin the application thread to one fixed CPU (the second allowed one, so
/// CPU 0's interrupt load stays off it). With a flush worker, the worker is
/// started first on the remaining CPUs so it never shares the app's CPU.
int pin_app_thread(bool flush_worker) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (::sched_getaffinity(0, sizeof allowed, &allowed) != 0) return -1;
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
  }
  if (cpus.empty()) return -1;
  const int app = cpus.size() > 1 ? cpus[1] : cpus[0];
  if (flush_worker && cpus.size() > 1) {
    cpu_set_t others = allowed;
    CPU_CLR(app, &others);
    ::pthread_setaffinity_np(::pthread_self(), sizeof others, &others);
    core::FlushWorker::shared();  // its thread inherits `others`
  }
  return pin_thread_to_cpu(app) ? app : -1;
}

Pass run_pass(const Options& o, Tracer* tracer, Recorder* recorder) {
  if (o.workload == "mdb") return run_mdb(o, tracer, recorder);
  if (o.workload.rfind("kv-", 0) == 0) return run_kv(o, tracer, recorder);
  return run_splash(o, tracer, recorder);
}

/// Interference from other tenants of the host only ever adds time, so
/// each timing comes from the quiet end of the run: the 90th percentile of
/// the window rates, and the 10th percentile over windows of each window's
/// latency percentile.
constexpr double kQuietEnd = 10.0;

std::vector<Metric> end_to_end(const Pass& p) {
  const auto& s = p.stats;
  return {
      {"ops_per_s", "1/s", percentile(p.window_rates, 100.0 - kQuietEnd)},
      {"fase_p50_us", "us", windowed_percentile(p.fase_us, 50, kQuietEnd)},
      {"fase_p99_us", "us", windowed_percentile(p.fase_us, 99, kQuietEnd)},
      {"read_p50_us", "us", windowed_percentile(p.read_us, 50, kQuietEnd)},
      {"read_p99_us", "us", windowed_percentile(p.read_us, 99, kQuietEnd)},
      {"flush_ratio", "lines/store",
       ratio(static_cast<double>(s.flushes), static_cast<double>(s.stores))},
      {"write_amp", "B/B",
       ratio(static_cast<double>((s.flushes + s.log_flushes) * kCacheLineSize),
             static_cast<double>(p.user_bytes))},
      {"setup_s", "s", percentile(p.setup_s, 50)},
      {"peak_rss_mb", "MB", p.peak_rss_mb},
  };
}

struct Layered {
  std::vector<Metric> metrics;  // every BENCHMARK.json per_layer metric
  std::vector<Metric> extra;    // workload-specific, report only
};

Layered per_layer(const Options& o, const Pass& untraced, const Pass& t,
                  const Tracer& tracer, const Recorder& recorder) {
  const auto& s = t.stats;
  const double ops = static_cast<double>(t.ops);
  const double wall_ns = t.wall_s * 1e9;
  const std::vector<double> stores = tracer.durations_ns(SpanKind::kStore);
  std::array<double, kSpanKinds> weight;
  weight.fill(1.0);
  weight[static_cast<std::size_t>(SpanKind::kStore)] =
      ratio(static_cast<double>(t.store_calls),
            static_cast<double>(stores.size()));
  const SelfTimes self =
      self_times(tracer.spans(), weight, tracer.overhead());
  const double tick_ns = ns_per_tick();
  auto busy = [&](SpanKind k) {
    return ratio(self.total[static_cast<std::size_t>(k)] * tick_ns, wall_ns);
  };
  auto us = [&](SpanKind k, double p) {
    return percentile(tracer.durations_ns(k), p) / 1e3;
  };
  const runtime::RuntimeConfig config = base_config(o, "", 0);
  std::vector<double> cache_sizes(s.cache_sizes.begin(), s.cache_sizes.end());

  Layered out;
  out.metrics = {
      {"runtime.store_ns_p50", "ns", percentile(stores, 50)},
      {"runtime.store_ns_p99", "ns", percentile(stores, 99)},
      {"runtime.store_busy_frac", "frac", busy(SpanKind::kStore)},
      {"runtime.commit_us_p50", "us", us(SpanKind::kCommit, 50)},
      {"runtime.commit_us_p99", "us", us(SpanKind::kCommit, 99)},
      {"runtime.commit_busy_frac", "frac", busy(SpanKind::kCommit)},
      {"runtime.log_records_per_op", "count/op",
       ratio(static_cast<double>(s.log_records), ops)},
      {"runtime.log_syncs_per_op", "count/op",
       ratio(static_cast<double>(s.log_syncs), ops)},
      {"runtime.log_flushes_per_op", "count/op",
       ratio(static_cast<double>(s.log_flushes), ops)},
      {"runtime.log_fences_per_op", "count/op",
       ratio(static_cast<double>(s.log_fences), ops)},
      {"runtime.recover_ms_p50", "ms", percentile(t.recover_ms, 50)},
      {"runtime.recover_records_undone", "count",
       ratio(std::accumulate(t.records_undone.begin(), t.records_undone.end(),
                             0.0),
             static_cast<double>(t.records_undone.size()))},
      {"core.policy.store_ns", "ns",
       replay_policy_ns(recorder, config.policy_config)},
      {"core.policy.combine_frac", "frac",
       ratio(static_cast<double>(s.combined), static_cast<double>(s.stores))},
      {"core.policy.instr_per_store", "count",
       ratio(static_cast<double>(s.instructions),
             static_cast<double>(s.stores))},
      {"core.sampler.cache_size", "lines", percentile(cache_sizes, 50)},
      {"core.analyzer.burst_ms", "ms",
       analyze_burst_ms(recorder, config.policy_config.sampler)},
      {"pmem.data_flushes_per_op", "count/op",
       ratio(static_cast<double>(s.flushes), ops)},
      {"pmem.fences_per_op", "count/op",
       ratio(static_cast<double>(s.fences + s.log_fences), ops)},
      {"pmem.flush_busy_frac", "frac",
       ratio(static_cast<double>(s.flushes + s.log_flushes) *
                 flush_line_ns(config.flush, config.simulated_flush_ns),
             wall_ns)},
      {"pmem.alloc_us_p50", "us", percentile(t.alloc_us, 50)},
      {"mdb.page_copies_per_txn", "count/op", t.page_copies_per_txn},
      {"workloads.app_self_frac", "frac",
       ratio(wall_ns - self.covered * tick_ns, wall_ns)},
      {"trace.overhead_frac", "frac", ratio(t.wall_s, untraced.wall_s) - 1.0},
  };
  if (!tracer.durations_ns(SpanKind::kBarrier).empty()) {
    out.extra.push_back(
        {"runtime.barrier_us_p50", "us", us(SpanKind::kBarrier, 50)});
    out.extra.push_back(
        {"runtime.barrier_busy_frac", "frac", busy(SpanKind::kBarrier)});
  }
  if (o.workload == "mdb") {
    out.extra.insert(
        out.extra.end(),
        {{"mdb.put_us_p50", "us", us(SpanKind::kMdbPut, 50)},
         {"mdb.commit_us_p50", "us", us(SpanKind::kMdbCommit, 50)},
         {"mdb.commit_us_p99", "us", us(SpanKind::kMdbCommit, 99)},
         {"mdb.get_us_p50", "us", us(SpanKind::kMdbGet, 50)},
         {"mdb.get_us_p99", "us", us(SpanKind::kMdbGet, 99)},
         {"mdb.scan_us_p50", "us", us(SpanKind::kMdbScan, 50)}});
  }
  out.extra.push_back({"trace.span_cost_ns", "ns", tracer.overhead() * tick_ns});
  for (std::size_t k = 0; k < kSpanKinds; ++k) {
    if (self.total[k] == 0.0) continue;
    out.extra.push_back({std::string(span_name(static_cast<SpanKind>(k))) +
                             ".self_frac",
                         "frac", ratio(self.self[k] * tick_ns, wall_ns)});
  }
  return out;
}

void print_metrics(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-34s %14s %s\n", m.name.c_str(), number(m.value).c_str(),
                m.unit.c_str());
  }
}

}  // namespace
}  // namespace nvc::e2e

int main(int argc, char** argv) {
  using namespace nvc::e2e;
  Options o;
  if (!parse(argc, argv, &o)) {
    std::fprintf(stderr,
                 "usage: nvc_e2e --workload "
                 "ocean|raytrace|mdb|kv-strict|kv-batched-async --seed N "
                 "--seconds S --trace 0|1 --out DIR [--quick] [--flush=KIND] "
                 "[--plant-bug=splash|mdb|kv|kv-crash]\n");
    return 2;
  }
  if (!knobs_clear()) return 2;
  ::mkdir(o.out_dir.c_str(), 0755);
  if (std::getenv("NVC_PMEM_DIR") == nullptr) {
    const std::string pmem_dir = o.out_dir + "/pmem";
    ::mkdir(pmem_dir.c_str(), 0755);
    ::setenv("NVC_PMEM_DIR", pmem_dir.c_str(), 1);
  }
  const int cpu = pin_app_thread(o.workload == "kv-batched-async");
  ns_per_tick();  // calibrates for 20 ms on first use: not inside a timing

  std::printf("nvc_e2e workload=%s seed=%llu seconds=%s trace=%d quick=%d "
              "flush=%s cpu=%d%s%s\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              number(o.seconds).c_str(), o.trace ? 1 : 0, o.quick ? 1 : 0,
              nvc::pmem::to_string(o.flush), cpu,
              o.plant_bug.empty() ? "" : " plant-bug=",
              o.plant_bug.c_str());

  std::vector<Metric> metrics;
  std::vector<Metric> extra;
  std::vector<const Pass*> passes;
  Pass untraced = run_pass(o, nullptr, nullptr);
  passes.push_back(&untraced);
  Pass traced;
  if (!o.trace) {
    metrics = end_to_end(untraced);
  } else {
    Tracer tracer;
    Recorder recorder(kRecordedStores);
    traced = run_pass(o, &tracer, &recorder);
    passes.push_back(&traced);
    Layered layered = per_layer(o, untraced, traced, tracer, recorder);
    metrics = std::move(layered.metrics);
    extra = std::move(layered.extra);
    const std::string dump = o.out_dir + "/spans-" + o.workload + ".csv";
    if (!tracer.dump(dump, kDumpedSpans)) {
      std::fprintf(stderr, "nvc_e2e: could not write %s\n", dump.c_str());
    }
  }

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  for (const Pass* p : passes) {
    attempted += p->ops;
    failed += p->failed;
    for (const std::string& f : p->failures) {
      std::printf("ORACLE FAILURE: %s\n", f.c_str());
    }
  }
  const Pass& main_pass = *passes.back();
  std::printf("ops=%llu wall_s=%s fases=%zu reads=%zu setups=%zu restarts=%zu\n",
              static_cast<unsigned long long>(main_pass.ops),
              number(main_pass.wall_s).c_str(), main_pass.fase_us.size(),
              main_pass.read_us.size(), main_pass.setup_s.size(),
              main_pass.recover_ms.size());
  print_metrics(o.trace ? "per-layer:" : "end-to-end:", metrics);
  if (!extra.empty()) print_metrics("workload-specific (report only):", extra);
  std::printf("failed_frac %s (%llu of %llu)\n",
              number(ratio(static_cast<double>(failed),
                           static_cast<double>(attempted)))
                  .c_str(),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));

  const std::string result =
      std::string("{\"correct\": ") + (failed == 0 ? "true" : "false") +
      ", \"attempted\": " + std::to_string(attempted) +
      ", \"failed\": " + std::to_string(failed) +
      ", \"metrics\": " + metrics_json(metrics) + "}";
  const std::string path = o.out_dir + "/result-" + o.workload + "-seed" +
                           std::to_string(o.seed) + "-trace" +
                           (o.trace ? "1" : "0") + ".json";
  if (std::FILE* f = std::fopen(path.c_str(), "w")) {
    std::fprintf(f,
                 "{\"workload\": %s, \"seed\": %llu, \"seconds\": %s, "
                 "\"trace\": %d, \"quick\": %s, \"flush\": %s, "
                 "\"result\": %s, \"report_only\": %s}\n",
                 quoted(o.workload).c_str(),
                 static_cast<unsigned long long>(o.seed),
                 number(o.seconds).c_str(), o.trace ? 1 : 0,
                 o.quick ? "true" : "false",
                 quoted(nvc::pmem::to_string(o.flush)).c_str(), result.c_str(),
                 metrics_json(extra).c_str());
    std::fclose(f);
  }
  std::printf("%s\n", result.c_str());
  return 0;
}
