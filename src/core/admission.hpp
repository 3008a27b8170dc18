// Write-admission policies for the deferred-flush structures (DESIGN.md §12).
//
// The caching policies decide *when* buffered lines are flushed; admission
// decides *what* is worth buffering at all. A streaming store — a line
// written once and never again — gains nothing from the soft cache: it will
// be flushed exactly once either way, but while it sits in the cache it
// evicts lines that would have combined. Worse, on a capacity-limited
// structure (the soft cache, Atlas' table) a streaming scan turns every
// resident hot line into eviction churn: extra write-backs that cost media
// endurance without saving any.
//
// Three modes (NVC_ADMIT):
//   always      no filter at all (default). The policies' hot path keeps a
//               single null-pointer test.
//   write-once  doorkeeper detector: the first touch of a line within the
//               sampled window bypasses the deferred structure and writes
//               through immediately; a second touch within the window is
//               evidence of reuse and admits the line.
//   reuse       the doorkeeper gated by an MRC-driven verdict: bypass only
//               arms once the online sampler's last burst predicts a miss
//               ratio so high that caching is not paying for itself. The
//               verdict is re-published at burst boundaries exactly like the
//               cache-size selection (SoftCachePolicy::apply_pending_
//               selection); before the first burst completes, everything is
//               admitted. Requires the online sampling policy (SC); other
//               policies have no MRC and degrade to `always`.
//
// The doorkeeper is a direct-mapped tag table (window entries, power of
// two), indexed by splitmix64_mix(line): one hash, one compare, one store
// per filtered miss. A collision forgets an old line early — the penalty is
// one spurious write-through, never a correctness issue.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "common/types.hpp"

namespace nvc::core {

class BurstSampler;

enum class AdmitMode : std::uint8_t {
  kAlways,     // admit every store (no filter)
  kWriteOnce,  // first touch in the window bypasses the cache
  kReuse,      // write-once gated by the sampler's MRC verdict
};

const char* to_string(AdmitMode mode);

/// Parse "always" / "write-once" / "reuse" (NVC_ADMIT); empty for unknown.
std::optional<AdmitMode> parse_admit_mode(std::string_view name);

struct AdmissionConfig {
  AdmitMode mode = AdmitMode::kAlways;
  /// Doorkeeper entries (rounded up to a power of two). The "sampled
  /// window": a line must be re-touched before `window` distinct collisions
  /// evict its tag to count as reused.
  std::size_t window = 4096;
  /// kReuse: bypass arms when the predicted hit ratio at the selected cache
  /// size falls below this (a streaming-dominated MRC), and disarms again
  /// when a later burst shows reuse.
  double reuse_threshold = 0.5;
  /// Subtracted from every line before hashing into the doorkeeper. The
  /// Runtime stamps its data-region base line here so the collision pattern
  /// depends only on a line's offset within the region, not on where ASLR
  /// mapped it — which is what lets the admission ablation gate its
  /// media-byte counters with zero tolerance across processes
  /// (bench/compare.py `exact_*`). Indexing only: stored tags stay full
  /// line addresses, so 0 remains the empty sentinel.
  LineAddr line_base = 0;
};

struct AdmissionCounters {
  std::uint64_t bypassed = 0;    // stores written through past the cache
  std::uint64_t readmitted = 0;  // second-touch stores admitted by the tag
  std::uint64_t verdicts = 0;    // kReuse verdict publications consumed
};

class AdmissionFilter {
 public:
  explicit AdmissionFilter(const AdmissionConfig& config);

  /// Probe-and-update: true when `line` should bypass the deferred-flush
  /// structure and be written through now. Always updates the doorkeeper so
  /// the reuse evidence keeps accumulating even while bypass is disarmed.
  bool should_bypass(LineAddr line) noexcept;

  /// kReuse: consume a newly completed burst's MRC (no-op when the sampler
  /// has not finished a burst since the last publish). Called where the
  /// cache-size selection lands: in the store that ends the burst.
  void publish_verdict(const BurstSampler& sampler);

  AdmitMode mode() const noexcept { return config_.mode; }
  bool bypass_armed() const noexcept { return armed_; }
  const AdmissionCounters& counters() const noexcept { return counters_; }

  /// Rough x86 footprint of one doorkeeper probe (hash, load, compare,
  /// store), for the policies' bookkeeping-instruction estimate.
  static constexpr std::uint64_t kInstrProbe = 6;

 private:
  AdmissionConfig config_;
  std::vector<LineAddr> tags_;  // 0 = empty (line 0 is never persistent)
  std::size_t mask_;
  bool armed_;
  std::uint64_t published_bursts_ = 0;
  AdmissionCounters counters_;
};

}  // namespace nvc::core
