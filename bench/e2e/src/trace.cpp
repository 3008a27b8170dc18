#include "trace.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace nvc::e2e {

double ns_per_tick() {
  static const double rate = [] {
    using Clock = std::chrono::steady_clock;
    const auto t0 = Clock::now();
    const std::uint64_t c0 = ticks();
    while (Clock::now() - t0 < std::chrono::milliseconds(20)) {
    }
    const std::uint64_t c1 = ticks();
    const double ns =
        std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
    return ns / static_cast<double>(c1 - c0);
  }();
  return rate;
}

const char* span_name(SpanKind kind) {
  switch (kind) {
    case SpanKind::kStore: return "runtime.store";
    case SpanKind::kBegin: return "runtime.begin";
    case SpanKind::kCommit: return "runtime.commit";
    case SpanKind::kBarrier: return "runtime.barrier";
    case SpanKind::kAlloc: return "pmem.alloc";
    case SpanKind::kMdbPut: return "mdb.put";
    case SpanKind::kMdbDel: return "mdb.del";
    case SpanKind::kMdbCommit: return "mdb.commit";
    case SpanKind::kMdbGet: return "mdb.get";
    case SpanKind::kMdbScan: return "mdb.scan";
    case SpanKind::kCount: break;
  }
  return "?";
}

namespace {

double net(const Span& s, double overhead) {
  return std::max(0.0, static_cast<double>(s.end - s.start) - overhead);
}

}  // namespace

SelfTimes self_times(const std::vector<Span>& spans,
                     const std::array<double, kSpanKinds>& weight,
                     double overhead) {
  SelfTimes out;
  for (const Span& s : spans) {
    const auto k = static_cast<std::size_t>(s.kind);
    const double d = net(s, overhead) * weight[k];
    out.total[k] += d;
    out.self[k] += d;
    if (s.parent < 0) {
      out.covered += d;
    } else {
      const Span& p = spans[static_cast<std::size_t>(s.parent)];
      out.self[static_cast<std::size_t>(p.kind)] -= d;
    }
  }
  return out;
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double q = std::clamp(p, 0.0, 100.0) / 100.0;
  const double n = static_cast<double>(values.size());
  const double rank = q * (n - 1.0);
  const double half = std::sqrt(q * (1.0 - q) * n);
  if (half < 1.0) {
    const auto lo = static_cast<std::size_t>(std::floor(rank));
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] +
           (values[hi] - values[lo]) * (rank - static_cast<double>(lo));
  }
  const auto first = static_cast<std::size_t>(std::max(0.0, std::ceil(rank - half)));
  const auto last = static_cast<std::size_t>(std::min(n - 1.0, std::floor(rank + half)));
  double sum = 0.0;
  for (std::size_t i = first; i <= last; ++i) sum += values[i];
  return sum / static_cast<double>(last - first + 1);
}

double windowed_percentile(const std::vector<double>& samples, double p,
                           double across) {
  constexpr std::size_t kMinWindow = 1000;
  constexpr std::size_t kMaxWindows = 200;
  const std::size_t windows =
      std::clamp<std::size_t>(samples.size() / kMinWindow, 1, kMaxWindows);
  std::vector<double> per_window;
  for (std::size_t w = 0; w < windows; ++w) {
    const auto begin = samples.begin() + static_cast<long>(samples.size() * w / windows);
    const auto end = samples.begin() + static_cast<long>(samples.size() * (w + 1) / windows);
    per_window.push_back(percentile(std::vector<double>(begin, end), p));
  }
  return percentile(std::move(per_window), across);
}

Tracer::Tracer() : origin_(ticks()) {
  constexpr int kProbes = 4096;
  spans_.reserve(kProbes);
  for (int i = 0; i < kProbes; ++i) close(open(SpanKind::kStore));
  std::vector<double> empty;
  for (const Span& s : spans_) empty.push_back(static_cast<double>(s.end - s.start));
  overhead_ = percentile(std::move(empty), 50.0);
  spans_.clear();
}

std::vector<double> Tracer::durations_ns(SpanKind kind) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.kind == kind) out.push_back(net(s, overhead_) * ns_per_tick());
  }
  return out;
}

bool Tracer::dump(const std::string& path, std::size_t limit) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::size_t n = std::min(limit, spans_.size());
  std::fprintf(f, "# %zu of %zu spans\nindex,name,start_ns,end_ns,parent\n", n,
               spans_.size());
  auto ns = [&](std::uint64_t t) {
    return std::llround(static_cast<double>(t - origin_) * ns_per_tick());
  };
  for (std::size_t i = 0; i < n; ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%zu,%s,%lld,%lld,%d\n", i, span_name(s.kind), ns(s.start),
                 ns(s.end), s.parent);
  }
  return std::fclose(f) == 0;
}

}  // namespace nvc::e2e
