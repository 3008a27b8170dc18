#include "workloads/replay.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace nvc::workloads {

namespace {

/// Trace replays build policies directly (no Runtime to stamp the admission
/// doorkeeper's `line_base`), and the captured store addresses are raw heap
/// lines that move with ASLR from one capture run to the next. Normalize by
/// the trace's smallest store line — a fixed offset from the capture-run
/// region base — so admission decisions replay bit-for-bit across runs.
core::PolicyConfig with_trace_line_base(const ThreadTrace& trace,
                                        core::PolicyConfig config) {
  if (config.admission.mode == core::AdmitMode::kAlways) return config;
  LineAddr base = ~LineAddr{0};
  for (const TraceEvent& ev : trace.events) {
    if (ev.kind == TraceEvent::Kind::kStore) base = std::min(base, ev.value);
  }
  if (base != ~LineAddr{0}) config.admission.line_base = base;
  return config;
}

}  // namespace

FlushCountResult replay_flush_count(const ThreadTrace& trace,
                                    core::PolicyKind kind,
                                    const core::PolicyConfig& config) {
  auto policy = core::make_policy(kind, with_trace_line_base(trace, config));
  core::CountingSink sink;
  for (const TraceEvent& ev : trace.events) {
    switch (ev.kind) {
      case TraceEvent::Kind::kStore:
        policy->on_store(ev.value, sink);
        break;
      case TraceEvent::Kind::kFaseBegin:
        policy->on_fase_begin(sink);
        break;
      case TraceEvent::Kind::kFaseEnd:
        policy->on_fase_end(sink);
        break;
      case TraceEvent::Kind::kBarrier:
        policy->flush_buffered(sink);
        break;
      case TraceEvent::Kind::kLoad:  // reads never reach the write policies
      case TraceEvent::Kind::kCompute:
        break;
    }
  }
  policy->finish(sink);

  FlushCountResult r;
  r.stores = policy->counters().stores;
  r.fases = policy->counters().fases;
  r.flushes = sink.count();
  return r;
}

FlushCountResult replay_flush_count_all(const TraceApi& traces,
                                        core::PolicyKind kind,
                                        const core::PolicyConfig& config) {
  FlushCountResult total;
  for (std::size_t tid = 0; tid < traces.threads(); ++tid) {
    const FlushCountResult r =
        replay_flush_count(traces.trace(tid), kind, config);
    total.stores += r.stores;
    total.flushes += r.flushes;
    total.fases += r.fases;
  }
  return total;
}

namespace {

/// Sink that issues flushes into the simulated core.
class SimSink final : public core::FlushSink {
 public:
  explicit SimSink(hwsim::CoreSim* core) : core_(core) {}
  void flush_line(LineAddr line) override { core_->flush(line); }
  void drain() override { core_->drain(); }

 private:
  hwsim::CoreSim* core_;
};

}  // namespace

SimThreadResult replay_cost_model(const ThreadTrace& trace,
                                  core::PolicyKind kind,
                                  const SimConfig& config,
                                  std::uint64_t seed) {
  hwsim::CacheConfig l1 = config.l1;
  l1.seed = seed;
  hwsim::CoreSim core(config.cost, l1);
  SimSink sink(&core);
  auto policy =
      core::make_policy(kind, with_trace_line_base(trace, config.policy));

  std::uint64_t policy_instr_seen = 0;
  auto charge_policy_instructions = [&] {
    const std::uint64_t now = policy->counters().instructions;
    if (now > policy_instr_seen) {
      core.execute(now - policy_instr_seen);
      policy_instr_seen = now;
    }
  };

  for (const TraceEvent& ev : trace.events) {
    switch (ev.kind) {
      case TraceEvent::Kind::kStore:
        core.memory_access(ev.value, /*is_write=*/true);
        policy->on_store(ev.value, sink);
        break;
      case TraceEvent::Kind::kLoad:
        core.memory_access(ev.value, /*is_write=*/false);
        break;
      case TraceEvent::Kind::kFaseBegin:
        policy->on_fase_begin(sink);
        break;
      case TraceEvent::Kind::kFaseEnd:
        policy->on_fase_end(sink);
        break;
      case TraceEvent::Kind::kBarrier:
        policy->flush_buffered(sink);
        break;
      case TraceEvent::Kind::kCompute:
        core.execute(ev.value);
        break;
    }
    charge_policy_instructions();
  }
  policy->finish(sink);
  charge_policy_instructions();

  SimThreadResult r;
  r.cycles = core.cycles();
  r.instructions = core.counters().instructions;
  r.flushes = core.counters().flushes;
  r.stall_cycles = core.counters().stall_cycles;
  r.stores = policy->counters().stores;
  r.l1 = core.l1_stats();
  return r;
}

SimRunResult simulate_run(const TraceApi& traces, core::PolicyKind kind,
                          const SimConfig& config) {
  SimRunResult run;
  run.threads.reserve(traces.threads());
  for (std::size_t tid = 0; tid < traces.threads(); ++tid) {
    run.threads.push_back(replay_cost_model(traces.trace(tid), kind, config,
                                            /*seed=*/tid * 7919 + 13));
  }
  return run;
}

double SimRunResult::makespan_cycles() const noexcept {
  double m = 0.0;
  for (const auto& t : threads) m = std::max(m, t.cycles);
  return m;
}

std::uint64_t SimRunResult::total_instructions() const noexcept {
  std::uint64_t total = 0;
  for (const auto& t : threads) total += t.instructions;
  return total;
}

std::uint64_t SimRunResult::total_flushes() const noexcept {
  std::uint64_t total = 0;
  for (const auto& t : threads) total += t.flushes;
  return total;
}

std::uint64_t SimRunResult::total_stores() const noexcept {
  std::uint64_t total = 0;
  for (const auto& t : threads) total += t.stores;
  return total;
}

double SimRunResult::flush_ratio() const noexcept {
  const std::uint64_t stores = total_stores();
  return stores == 0 ? 0.0
                     : static_cast<double>(total_flushes()) /
                           static_cast<double>(stores);
}

double SimRunResult::l1_miss_ratio() const noexcept {
  std::uint64_t accesses = 0;
  std::uint64_t misses = 0;
  for (const auto& t : threads) {
    accesses += t.l1.accesses;
    misses += t.l1.misses;
  }
  return accesses == 0 ? 0.0
                       : static_cast<double>(misses) /
                             static_cast<double>(accesses);
}

}  // namespace nvc::workloads
