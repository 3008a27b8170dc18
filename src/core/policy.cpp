#include "core/policy.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "common/types.hpp"

namespace nvc::core {

namespace {
// Bookkeeping instruction estimates per operation (x86-ish, calibrated so the
// relative overheads match the paper's Table IV observation that SC executes
// about 8% more instructions than AT on a write-heavy workload).
constexpr std::uint64_t kInstrEagerStore = 2;
constexpr std::uint64_t kInstrLazyStore = 12;
constexpr std::uint64_t kInstrAtlasProbe = 8;
constexpr std::uint64_t kInstrAtlasReplace = 6;
constexpr std::uint64_t kInstrPerFlushIssue = 4;
constexpr std::uint64_t kInstrSamplerStore = 9;
constexpr std::uint64_t kInstrSamplerAnalysisPerWrite = 30;
}  // namespace

const char* to_string(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kEager:
      return "ER";
    case PolicyKind::kLazy:
      return "LA";
    case PolicyKind::kAtlas:
      return "AT";
    case PolicyKind::kSoftCache:
      return "SC";
    case PolicyKind::kSoftCacheOffline:
      return "SC-offline";
    case PolicyKind::kBest:
      return "BEST";
  }
  NVC_UNREACHABLE("invalid PolicyKind");
}

bool Policy::admit_bypass(LineAddr line, FlushSink& sink) {
  counters_.instructions += AdmissionFilter::kInstrProbe;
  if (!admission_->should_bypass(line)) return false;
  // Write through the same sink the deferred flushes use: with a log it is
  // the LogOrderedSink route, so a bypassed line obeys the same
  // log-before-data ordering as an evicted one (DESIGN.md §12).
  ++counters_.stores;
  ++counters_.bypassed;
  counters_.instructions += kInstrPerFlushIssue;
  sink.flush_line(line);
  return true;
}

// --- ER ---------------------------------------------------------------------

bool EagerPolicy::do_store(LineAddr line, FlushSink& sink) {
  ++counters_.stores;
  counters_.instructions += kInstrEagerStore + kInstrPerFlushIssue;
  sink.flush_line(line);
  return false;  // every store flushes: no store is a pure count
}

// --- LA ---------------------------------------------------------------------

LazyPolicy::LazyPolicy()
    : Policy(PolicyCounters{
          .stores = 1, .combined = 1, .instructions = kInstrLazyStore}) {}

bool LazyPolicy::do_store(LineAddr line, FlushSink& sink) {
  if (admission_ != nullptr && admit_bypass(line, sink)) return false;
  ++counters_.stores;
  counters_.instructions += kInstrLazyStore;
  const auto [slot, inserted] = pending_.try_emplace(line, seq_);
  (void)slot;
  if (inserted) {
    ++seq_;
  } else {
    ++counters_.combined;
  }
  // The line is pending until the next boundary. With admission every
  // store probes (and trains) the doorkeeper, so no repeat is a pure count.
  return admission_ == nullptr;
}

void LazyPolicy::flush_pending(FlushSink& sink) {
  // Flush in first-write order for determinism.
  std::vector<std::pair<std::uint64_t, LineAddr>> ordered;
  ordered.reserve(pending_.size());
  pending_.for_each([&ordered](LineAddr line, const std::uint64_t& seq) {
    ordered.emplace_back(seq, line);
  });
  std::sort(ordered.begin(), ordered.end());
  for (const auto& [seq, line] : ordered) {
    (void)seq;
    counters_.instructions += kInstrPerFlushIssue;
    sink.flush_line(line);
  }
  pending_.clear();
  seq_ = 0;
}

void LazyPolicy::do_fase_end(FlushSink& sink) {
  flush_pending(sink);
  sink.drain();
}

void LazyPolicy::do_finish(FlushSink& sink) {
  flush_pending(sink);
  sink.drain();
}

// --- AT ---------------------------------------------------------------------

AtlasPolicy::AtlasPolicy(std::size_t table_size, std::size_t associativity)
    : Policy(PolicyCounters{
          .stores = 1, .combined = 1, .instructions = kInstrAtlasProbe}),
      table_(table_size),
      sets_(table_size / associativity),
      ways_(associativity) {
  NVC_REQUIRE(associativity >= 1 && associativity <= table_size);
  NVC_REQUIRE(table_size % associativity == 0);
  NVC_REQUIRE(is_pow2(sets_), "Atlas sets must be a power of two");
}

bool AtlasPolicy::do_store(LineAddr line, FlushSink& sink) {
  if (admission_ != nullptr && admit_bypass(line, sink)) return false;
  ++counters_.stores;
  counters_.instructions += kInstrAtlasProbe;
  Entry* set = &table_[(static_cast<std::size_t>(line) & (sets_ - 1)) *
                       ways_];
  ++clock_;
  Entry* victim = &set[0];
  for (std::size_t w = 0; w < ways_; ++w) {
    if (set[w].line == line) {
      ++counters_.combined;  // already recorded: the write is absorbed
      set[w].stamp = clock_;
      return admission_ == nullptr;
    }
    if (set[w].line == 0) {
      victim = &set[w];  // prefer an empty slot
      break;
    }
    if (set[w].stamp < victim->stamp) victim = &set[w];
  }
  if (victim->line != 0) {
    // Conflict: write back the previously recorded line, then replace it.
    counters_.instructions += kInstrAtlasReplace + kInstrPerFlushIssue;
    sink.flush_line(victim->line);
  }
  victim->line = line;
  victim->stamp = clock_;
  // Recorded until the next boundary; a repeat would only refresh the
  // stamp of its set's newest entry, which replacement already treats as
  // the newest. With admission every store probes the doorkeeper.
  return admission_ == nullptr;
}

void AtlasPolicy::flush_table(FlushSink& sink) {
  for (Entry& slot : table_) {
    if (slot.line != 0) {
      counters_.instructions += kInstrPerFlushIssue;
      sink.flush_line(slot.line);
      slot = Entry{};
    }
  }
}

void AtlasPolicy::do_fase_end(FlushSink& sink) {
  flush_table(sink);
  sink.drain();
}

void AtlasPolicy::do_finish(FlushSink& sink) {
  flush_table(sink);
  sink.drain();
}

// --- SC / SC-offline ---------------------------------------------------------

SoftCachePolicy::SoftCachePolicy(const PolicyConfig& config, bool online)
    : Policy(PolicyCounters{.stores = 1,
                            .combined = 1,
                            .instructions = WriteCache::kInstrPerHit}),
      cache_(config.cache_size),
      sampler_(config.sampler),
      online_(online) {
  // The cache itself refuses cache_size; the sampler may select any size
  // up to knee.max_size, so that bound is refused here, before a burst.
  NVC_REQUIRE(config.sampler.knee.max_size <= WriteCache::kMaxCapacity,
              "knee.max_size exceeds the write cache's capacity bound");
}

bool SoftCachePolicy::do_store(LineAddr line, FlushSink& sink) {
  // A dormant sampler ignores stores, so this store skips it, cannot resize
  // the cache, and a repeat would be a plain hit on the MRU line. Admission
  // is consulted only on misses, so it does not disarm the lane.
  const bool dormant = !online_ || sampler_.dormant();
  // Admission runs only on cache misses: a line the cache already buffers
  // combines more cheaply than any write-through, whatever the doorkeeper
  // remembers about it.
  if (admission_ != nullptr && !cache_.contains(line) &&
      admit_bypass(line, sink)) {
    // The sampler still sees bypassed stores: the MRC (and so the size
    // selection and the reuse verdict) must describe the full write stream,
    // not the post-filter residue.
    if (!dormant) sample_store(line, sink);
    return false;  // written through, not buffered
  }
  ++counters_.stores;
  const bool hit = cache_.access(line, sink);
  if (hit) {
    ++counters_.combined;
    counters_.instructions += WriteCache::kInstrPerHit;
  } else {
    counters_.instructions += WriteCache::kInstrPerInsert;
  }

  if (!dormant) sample_store(line, sink);
  return dormant;
}

void SoftCachePolicy::sample_store(LineAddr line, FlushSink& sink) {
  if (sampler_.sampling()) counters_.instructions += kInstrSamplerStore;
  if (const auto selected = sampler_.on_store(line)) {
    // The burst ended: the full pipeline ran on this thread and the
    // selection applies immediately — as does the admission verdict this
    // burst implies.
    counters_.instructions +=
        kInstrSamplerAnalysisPerWrite * sampler_.burst_length();
    apply_selection(*selected, sink);
    if (admission_ != nullptr) admission_->publish_verdict(sampler_);
  }
}

void SoftCachePolicy::apply_selection(std::size_t selected,
                                      FlushSink& sink) {
  if (fired_) {
    // The re-sample's selection only ever grows the cache.
    cache_.resize(std::max(selected, cache_.capacity()), sink);
    return;
  }
  cache_.resize(selected, sink);
  // With counted hibernation the sampler re-samples on its own; the check
  // is for the paper's analyze-once configuration only.
  if (!sampler_.dormant()) return;
  // The burst's exact MRC counts FASE-end flushes; the model does not.
  predicted_ = sampler_.last_exact_mrc().at(selected);
  open_window();
}

void SoftCachePolicy::open_window() {
  window_flushes_ = cache_.stats().flushes();
  window_stores_ = cached_stores();
}

void SoftCachePolicy::check_prediction() {
  if (!predicted_ || fired_) return;
  const std::uint64_t stores = cached_stores() - window_stores_;
  if (stores < sampler_.burst_length()) return;
  const std::uint64_t flushes = cache_.stats().flushes() - window_flushes_;
  const double observed =
      static_cast<double>(flushes) / static_cast<double>(stores);
  if (observed > kResampleSlack * *predicted_ + kResampleFloor) {
    // The prediction was armed on a dormant sampler by the selection it
    // applied, so the burst always starts.
    const bool started = sampler_.resample();
    NVC_ENSURE(started, "the MRC check found its sampler busy");
    fired_ = ResampleCheck{cache_.capacity(), *predicted_, observed};
    return;
  }
  open_window();
}

void SoftCachePolicy::do_flush_buffered(FlushSink& sink) {
  // Mid-FASE barrier: flush the cache, nothing else. No sampler boundary:
  // the renamer epoch is a FASE property, not a flush property.
  const std::uint64_t flushed = cache_.size();
  counters_.instructions += kInstrPerFlushIssue * flushed;
  cache_.flush_all(sink);
  sink.drain();
}

void SoftCachePolicy::do_fase_end(FlushSink& sink) {
  if (online_) sampler_.on_fase_boundary();
  const std::uint64_t flushed = cache_.size();
  counters_.instructions += kInstrPerFlushIssue * flushed;
  cache_.flush_all(sink);
  if (online_) check_prediction();
  sink.drain();
}

void SoftCachePolicy::do_finish(FlushSink& sink) {
  const std::uint64_t flushed = cache_.size();
  counters_.instructions += kInstrPerFlushIssue * flushed;
  cache_.flush_all(sink);
  sink.drain();
}

// --- BEST -------------------------------------------------------------------

bool BestPolicy::do_store(LineAddr, FlushSink&) {
  ++counters_.stores;
  return true;  // nothing is ever flushed: every repeat is a pure count
}

// --- factory ------------------------------------------------------------------

namespace {

std::unique_ptr<Policy> make_policy_bare(PolicyKind kind,
                                         const PolicyConfig& config) {
  switch (kind) {
    case PolicyKind::kEager:
      return std::make_unique<EagerPolicy>();
    case PolicyKind::kLazy:
      return std::make_unique<LazyPolicy>();
    case PolicyKind::kAtlas:
      return std::make_unique<AtlasPolicy>(config.atlas_table_size,
                                           config.atlas_associativity);
    case PolicyKind::kSoftCache:
      return std::make_unique<SoftCachePolicy>(config, /*online=*/true);
    case PolicyKind::kSoftCacheOffline:
      return std::make_unique<SoftCachePolicy>(config, /*online=*/false);
    case PolicyKind::kBest:
      return std::make_unique<BestPolicy>();
  }
  NVC_UNREACHABLE("invalid PolicyKind");
}

/// ER already writes every store through and BEST never flushes — a filter
/// would only distort their counters. The reuse predictor needs the online
/// sampler's MRC, so kReuse attaches to SC only and degrades to `always`
/// everywhere else (DESIGN.md §12).
bool admission_applies(PolicyKind kind, AdmitMode mode) {
  switch (mode) {
    case AdmitMode::kAlways:
      return false;
    case AdmitMode::kWriteOnce:
      return kind == PolicyKind::kLazy || kind == PolicyKind::kAtlas ||
             kind == PolicyKind::kSoftCache ||
             kind == PolicyKind::kSoftCacheOffline;
    case AdmitMode::kReuse:
      return kind == PolicyKind::kSoftCache;
  }
  NVC_UNREACHABLE("invalid AdmitMode");
}

}  // namespace

std::unique_ptr<Policy> make_policy(PolicyKind kind,
                                    const PolicyConfig& config) {
  std::unique_ptr<Policy> policy = make_policy_bare(kind, config);
  if (admission_applies(kind, config.admission.mode)) {
    policy->attach_admission(config.admission);
  }
  return policy;
}

}  // namespace nvc::core
