#include "pmem/fault.hpp"

#include "common/rng.hpp"

namespace nvc::pmem {

namespace {

// Salts keep the independent decision streams (transient / bad / torn)
// uncorrelated even though they share one seed.
constexpr std::uint64_t kTransientSalt = 0x7261746520666c75ULL;
constexpr std::uint64_t kBadSalt = 0x6261646c696e6573ULL;
constexpr std::uint64_t kTornSalt = 0x746f726e77726974ULL;

/// Stateless mix of up to three words through splitmix64; the basis of
/// every injector decision (pure => replayable).
std::uint64_t mix(std::uint64_t a, std::uint64_t b, std::uint64_t c) noexcept {
  std::uint64_t s = a ^ (b * 0x9e3779b97f4a7c15ULL) ^
                    (c * 0x94d049bb133111ebULL);
  std::uint64_t h = splitmix64(s);
  return splitmix64(s) ^ h;
}

/// Uniform [0, 1) from a hash word (same construction as Rng::uniform).
double unit(std::uint64_t h) noexcept {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

}  // namespace

FaultInjector::FaultInjector(const FaultConfig& config) : config_(config) {
  explicit_bad_.insert(config_.bad_lines.begin(), config_.bad_lines.end());
  idle_ = config_.rate <= 0.0 && config_.bad_line_rate <= 0.0 &&
          explicit_bad_.empty();
}

bool FaultInjector::line_bad(LineAddr line) const noexcept {
  if (explicit_bad_.contains(line)) return true;
  if (config_.bad_line_rate <= 0.0) return false;
  return unit(mix(config_.seed, kBadSalt, line)) < config_.bad_line_rate;
}

std::size_t FaultInjector::torn_bytes(LineAddr line) const noexcept {
  if (config_.torn_rate <= 0.0) return 0;
  std::uint64_t h = mix(config_.seed, kTornSalt, line);
  if (unit(h) >= config_.torn_rate) return 0;
  // 8..56 bytes in units of 8: never tears an aligned 8-byte word (ADR
  // power-fail atomicity), never the whole line (that would be a clean
  // flush, not a tear).
  return 8 * (1 + (splitmix64_mix(h) % 7));
}

FaultDecision FaultInjector::on_flush_attempt(LineAddr line) {
  FaultDecision d;
  if (idle_) return d;
  if (line_bad(line)) {
    d.fail = d.bad = true;
    bad_hits_.fetch_add(1, std::memory_order_release);
    return d;
  }
  std::uint64_t ordinal;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ordinal = attempts_[line]++;
  }
  if (config_.rate > 0.0 &&
      unit(mix(config_.seed ^ kTransientSalt, line, ordinal)) < config_.rate) {
    d.fail = true;
    transients_.fetch_add(1, std::memory_order_release);
  }
  return d;
}

void FaultInjector::reset_counters() noexcept {
  transients_.store(0, std::memory_order_release);
  bad_hits_.store(0, std::memory_order_release);
}

}  // namespace nvc::pmem
