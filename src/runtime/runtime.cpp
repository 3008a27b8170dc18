#include "runtime/runtime.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <unordered_map>

#include "common/assert.hpp"
#include "runtime/backend_sink.hpp"
#include "runtime/scrub.hpp"
#include "runtime/write_back_route.hpp"

namespace nvc::runtime {

namespace {

/// This thread's single-entry context cache: ctx()'s fast path, also set by
/// bind_context(). Internal linkage keeps both in one TLS block lookup.
thread_local std::uint64_t tl_instance = 0;
thread_local void* tl_ctx = nullptr;  // a Runtime::ThreadContext

std::uint64_t next_instance_id() {
  static std::atomic<std::uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

struct Runtime::ThreadContext {
  ThreadContext(const Runtime& rt, void* log_base)
      : backend(rt.make_backend()),
        log_backend(rt.make_backend()),
        sink(&backend),
        log_sink(&log_backend),
        policy(core::make_policy(rt.config_.policy,
                                 rt.config_.policy_config)),
        log(log_base != nullptr
                ? std::make_unique<UndoLog>(log_base,
                                            rt.config_.log_segment_size,
                                            &log_sink, rt.config_.log_sync)
                : nullptr),
        route(rt.route_spec(&sink, log.get())) {}

  pmem::FlushBackend backend;      // data-line flushes (the paper's metric)
  pmem::FlushBackend log_backend;  // undo-log persistence traffic
  BackendSink sink;
  BackendSink log_sink;
  std::unique_ptr<core::Policy> policy;
  std::unique_ptr<UndoLog> log;
  /// Every stage between the policy and the media. Declared after the sinks
  /// it writes through: its destructor drains the ring while the data
  /// region is still mapped (contexts die before the allocator).
  WriteBackRoute route;
  std::uint32_t fase_depth = 0;
  /// Data-region line indices this FASE has touched (verify_data only;
  /// stays empty otherwise). fase_end publishes their commit-time checksums
  /// into the shared LineVerifyTable after a successful log commit.
  std::vector<std::size_t> touched_lines;
};

Runtime::Runtime(RuntimeConfig config, Medium* medium)
    : config_(std::move(config)),
      medium_(medium),
      instance_id_(next_instance_id()) {
  NVC_REQUIRE(config_.region_size >= 4096);
  NVC_REQUIRE(config_.max_threads >= 1);

  pmem::PmemRegion data =
      medium_ != nullptr
          ? pmem::PmemRegion::borrow(medium_->data_region(config_.region_size),
                                     config_.region_size)
      : config_.fresh
          ? pmem::PmemRegion::create(config_.region_name, config_.region_size)
          : pmem::PmemRegion::open(config_.region_name);
  allocator_ =
      std::make_unique<pmem::PmemAllocator>(std::move(data), config_.fresh);
  // A reopened heap consumes its clean-shutdown proof before any mutation:
  // a crash from here on must reopen as *unsealed* (the seal only ever
  // vouches for an image no live runtime can still be dirtying). A fresh
  // heap's format must be durable before anything points into it.
  if (!config_.fresh) allocator_->unseal();
  persist_header();
  if (config_.verify_data) {
    verify_table_ =
        std::make_shared<LineVerifyTable>(allocator_->region().size());
  }
  // The elision table hashes its slots relative to the region base, so its
  // decisions replay bit-for-bit across processes (ASLR moves the mapping;
  // line offsets within the region do not). Elision rides flush-behind
  // (DESIGN.md §13).
  if (config_.async_flush) {
    const LineAddr base_line =
        reinterpret_cast<std::uintptr_t>(allocator_->region().base()) /
        kCacheLineSize;
    elision_ = std::make_shared<core::FlushElisionTable>(
        core::FlushElisionTable::kDefaultSlots, base_line);
  }

  if (config_.undo_logging) {
    const std::string log_name = config_.region_name + ".log";
    const std::size_t log_size =
        config_.log_segment_size * config_.max_threads;
    bool format = config_.fresh;
    if (medium_ != nullptr) {
      log_region_ = pmem::PmemRegion::borrow(medium_->log_region(log_size),
                                             log_size);
    } else if (config_.fresh || !pmem::PmemRegion::exists(log_name)) {
      log_region_ = pmem::PmemRegion::create(log_name, log_size);
      format = true;
    } else {
      log_region_ = pmem::PmemRegion::open(log_name);
    }
    if (format) {
      pmem::FlushBackend backend = make_backend();
      BackendSink sink(&backend);
      for (std::size_t s = 0; s < config_.max_threads; ++s) {
        UndoLog(static_cast<char*>(log_region_.base()) +
                    s * config_.log_segment_size,
                config_.log_segment_size, &sink)
            .format();
      }
    }
  }

  if (config_.scrub) {
    scrubber_ = std::make_shared<Scrubber>(
        make_backend(), allocator_->region().base(),
        allocator_->region().size(),
        log_region_.valid() ? log_region_.base() : nullptr,
        config_.log_segment_size,
        log_region_.valid() ? config_.max_threads : 0);
    scrubber_->set_header_lock(&alloc_mutex_);
    if (verify_table_ != nullptr) scrubber_->set_verify_table(verify_table_);
    {
      std::lock_guard<std::mutex> lock(alloc_mutex_);
      scrubber_->refresh_header_mirror();
    }
    // The worker holds only a weak_ptr: resetting scrubber_ is
    // deregistration.
    core::FlushWorker::shared().register_idle_task(scrubber_);
  }
}

Runtime::~Runtime() {
  // The flush worker may be mid-slice holding a locked shared_ptr; the weak_ptr
  // expiring cannot interrupt that, so stop the scrubber and wait out any
  // in-flight slice before the region can be unmapped below.
  if (scrubber_ != nullptr) scrubber_->shutdown();

  // Seal the heap iff shutdown is provably clean: every context quiescent
  // (no open FASE) and every write-back ring drained. The seal is the
  // recovery pipeline's clean-shutdown fast path; writing it over a dirty
  // image would vouch for bytes still in flight.
  bool quiescent = allocator_ != nullptr;
  {
    std::lock_guard<std::mutex> lock(contexts_mutex_);
    for (const auto& c : contexts_) {
      c->route.wait_drained();
      if (c->fase_depth != 0) quiescent = false;
    }
  }
  if (quiescent) {
    std::lock_guard<std::mutex> lock(alloc_mutex_);
    allocator_->seal();
    persist_header();
  }
}

pmem::FlushBackend Runtime::make_backend() const {
  pmem::FlushBackend backend(config_.flush, config_.simulated_flush_ns);
  backend.set_medium(medium_);
  return backend;
}

WriteBackSpec Runtime::route_spec(core::FlushSink* sync_sink,
                                  UndoLog* log) const {
  WriteBackSpec spec;
  spec.sync_sink = sync_sink;
  spec.log = log;
  if (config_.async_flush) {
    spec.elision = elision_;
    spec.ring_depth = config_.flush_queue_depth;
    spec.manual_channel = medium_ != nullptr && medium_->manual_flush();
    // Posted write-backs on a private backend. It shares ownership of the
    // tracker (the channel may outlive the Runtime); the tracker records
    // through atomics, so stats() stays race-free.
    auto issue = std::make_unique<IssueSink>(make_backend());
    // Device timing model for the simulated kind only (hardware kinds
    // self-time). Occupancy is a quarter of the write latency: a pipelined
    // device accepts lines ~4x faster than one synchronous strongly-ordered
    // flush completes (see DESIGN.md §8).
    if (issue->backend().kind() == pmem::FlushKind::kSimulated) {
      spec.device.latency_ns = config_.simulated_flush_ns;
      spec.device.issue_ns =
          std::max<std::uint32_t>(1, config_.simulated_flush_ns / 4);
    }
    spec.worker_sink = std::move(issue);
  }
  return spec;
}

void Runtime::persist_header() {
  pmem::FlushBackend backend = make_backend();
  backend.flush_range(allocator_->region().base(),
                      pmem::PmemAllocator::header_size());
  backend.fence();
}

Runtime::ThreadContext& Runtime::ctx() {
  // Single-entry fast path: a thread overwhelmingly talks to one Runtime, so
  // pstore/fase_begin/fase_end resolve their context with one compare
  // instead of a hash-map probe. Instance ids are never reused, so a stale
  // entry can only miss, never alias another runtime.
  if (tl_instance == instance_id_) return *static_cast<ThreadContext*>(tl_ctx);
  ThreadContext& c = ctx_slow();
  tl_instance = instance_id_;
  tl_ctx = &c;
  return c;
}

Runtime::ThreadContext& Runtime::ctx_slow() {
  // Per-(thread, runtime-instance) context cache. Keyed by instance id so a
  // Runtime reallocated at the same address cannot alias a stale entry.
  thread_local std::unordered_map<std::uint64_t, ThreadContext*> tl_cache;
  auto it = tl_cache.find(instance_id_);
  if (it != tl_cache.end()) return *it->second;

  std::lock_guard<std::mutex> lock(contexts_mutex_);
  ThreadContext& c = add_context();
  tl_cache.emplace(instance_id_, &c);
  return c;
}

Runtime::ThreadContext& Runtime::add_context() {
  const std::size_t slot = contexts_.size();
  NVC_REQUIRE(slot < config_.max_threads || !config_.undo_logging,
              "more threads than configured log segments");
  void* log_base =
      config_.undo_logging
          ? static_cast<char*>(log_region_.base()) +
                slot * config_.log_segment_size
          : nullptr;
  contexts_.push_back(std::make_unique<ThreadContext>(*this, log_base));
  return *contexts_.back();
}

Runtime::ThreadContext& Runtime::context_at(std::size_t slot) {
  std::lock_guard<std::mutex> lock(contexts_mutex_);
  while (contexts_.size() <= slot) add_context();
  return *contexts_[slot];
}

void Runtime::bind_context(std::size_t slot) {
  tl_ctx = &context_at(slot);
  tl_instance = instance_id_;
}

bool Runtime::pump_flush(std::size_t slot) {
  return context_at(slot).route.pump_one();
}

void* Runtime::pm_alloc(std::size_t size) {
  std::lock_guard<std::mutex> lock(alloc_mutex_);
  const pmem::POffset off = allocator_->allocate(size);
  NVC_REQUIRE(off != pmem::kNullOffset, "persistent region exhausted");
  if (scrubber_ != nullptr) scrubber_->refresh_header_mirror();
  return allocator_->resolve(off);
}

void Runtime::pm_free(void* p) {
  if (p == nullptr) return;
  std::lock_guard<std::mutex> lock(alloc_mutex_);
  allocator_->deallocate(allocator_->offset_of(p));
  if (scrubber_ != nullptr) scrubber_->refresh_header_mirror();
}

void Runtime::set_root(void* p) {
  std::lock_guard<std::mutex> lock(alloc_mutex_);
  allocator_->set_root(p == nullptr ? pmem::kNullOffset
                                    : allocator_->offset_of(p));
  persist_header();
  if (scrubber_ != nullptr) scrubber_->refresh_header_mirror();
}

void* Runtime::get_root() const {
  std::lock_guard<std::mutex> lock(alloc_mutex_);
  return allocator_->resolve(allocator_->root());
}

void Runtime::fase_begin() {
  ThreadContext& c = ctx();
  if (c.fase_depth++ == 0) c.policy->on_fase_begin(c.route.sink());
}

bool Runtime::fase_end() {
  ThreadContext& c = ctx();
  NVC_REQUIRE(c.fase_depth > 0, "fase_end without matching fase_begin");
  if (--c.fase_depth != 0) return false;
  c.policy->on_fase_end(c.route.sink());
  // The log commit is the atomic commit point; without an undo log the
  // FASE boundary itself is. Checksums are published only after it: no
  // checksum may vouch for content never committed.
  if (c.log) c.log->commit();
  publish_commit(c);
  return true;
}

void Runtime::publish_commit(ThreadContext& c) {
  if (verify_table_ == nullptr || c.touched_lines.empty()) return;
  std::sort(c.touched_lines.begin(), c.touched_lines.end());
  c.touched_lines.erase(
      std::unique(c.touched_lines.begin(), c.touched_lines.end()),
      c.touched_lines.end());
  const char* base = static_cast<const char*>(allocator_->region().base());
  for (const std::size_t idx : c.touched_lines) {
    verify_table_->note_commit(idx, base + idx * kCacheLineSize);
  }
  c.touched_lines.clear();
}

void Runtime::pstore(void* dst, const void* src, std::size_t len) {
  NVC_REQUIRE(len > 0);
  ThreadContext& c = ctx();
  if (c.log && c.fase_depth > 0) {
    // Log the old value before overwriting (undo logging).
    c.log->record(allocator_->region().offset_of(dst), dst, len);
    // Write-after-enqueue hazard (DESIGN.md §8, §13): a queued or pending
    // write-back of a touched line may carry this store's new bytes, so
    // the records above must be durable before the data write below.
    const auto a = reinterpret_cast<PmAddr>(dst);
    c.route.order_store(line_of(a), line_of(a + len - 1));
  }
  // Dirty before the write: a scrub slice between the two would otherwise
  // check new bytes against the old commit's checksum.
  if (verify_table_ != nullptr) mark_dirty(c, dst, len);
  if (medium_ != nullptr) {
    medium_->store(dst, src, len);
  } else {
    std::memcpy(dst, src, len);
  }
  report(c, dst, len);
}

void Runtime::persist_barrier() {
  ThreadContext& c = ctx();
  // Flush everything the policy has buffered and drain — without signalling
  // a FASE boundary (the FASE stays open; the sampling policy's renamer
  // epoch must not advance mid-FASE).
  c.policy->flush_buffered(c.route.sink());
}

void Runtime::pwrote(const void* addr, std::size_t len) {
  NVC_REQUIRE(len > 0);
  ThreadContext& c = ctx();
  if (verify_table_ != nullptr) mark_dirty(c, addr, len);
  report(c, addr, len);
}

void Runtime::mark_dirty(ThreadContext& c, const void* addr,
                         std::size_t len) {
  // verify_data: dirty every touched line (suppressing scrub checks
  // while content is in flight). Lines touched inside a FASE are recorded
  // so fase_end can publish their checksums at the commit point; stores
  // outside any FASE leave the line permanently dirty — there is no commit
  // whose content a checksum could vouch for.
  const auto a = reinterpret_cast<PmAddr>(addr);
  const auto base = reinterpret_cast<PmAddr>(allocator_->region().base());
  if (a < base || a + len > base + allocator_->region().size()) return;
  const LineAddr base_line = line_of(base);
  for (LineAddr line = line_of(a); line <= line_of(a + len - 1); ++line) {
    const auto idx = static_cast<std::size_t>(line - base_line);
    verify_table_->mark_dirty(idx);
    if (c.fase_depth > 0) c.touched_lines.push_back(idx);
  }
}

void Runtime::report(ThreadContext& c, const void* addr, std::size_t len) {
  const auto a = reinterpret_cast<PmAddr>(addr);
  core::FlushSink& sink = c.route.sink();
  for (LineAddr line = line_of(a); line <= line_of(a + len - 1); ++line) {
    c.policy->on_store(line, sink);
  }
}

RegionView Runtime::region_view(core::FlushSink* sink) const {
  RegionView view;
  view.data = allocator_->region().base();
  view.data_size = allocator_->region().size();
  view.logs = log_region_.valid() ? log_region_.base() : nullptr;
  view.log_segment_size = config_.log_segment_size;
  view.log_segments = log_region_.valid() ? config_.max_threads : 0;
  view.sink = sink;
  return view;
}

bool Runtime::needs_recovery() const {
  if (!config_.undo_logging || !log_region_.valid()) return false;
  return RecoveryManager(region_view(nullptr)).needs_recovery();
}

std::size_t Runtime::recover() {
  if (!config_.undo_logging || !log_region_.valid()) return 0;
  pmem::FlushBackend backend = make_backend();
  BackendSink sink(&backend);
  RecoveryManager manager(region_view(&sink));
  if (verify_table_ != nullptr) manager.set_verify_table(verify_table_.get());
  RecoveryReport report = manager.run();
  backend.fence();
  const std::size_t undone = report.records_undone;
  {
    std::lock_guard<std::mutex> lock(recovery_mutex_);
    recovery_ran_ = true;
    last_recovery_ = std::move(report);
  }
  return undone;
}

RecoveryReport Runtime::last_recovery() const {
  std::lock_guard<std::mutex> lock(recovery_mutex_);
  return last_recovery_;
}

ScrubStats Runtime::scrub_stats() const {
  return scrubber_ != nullptr ? scrubber_->stats() : ScrubStats{};
}

void Runtime::thread_flush() {
  ThreadContext& c = ctx();
  c.policy->finish(c.route.sink());
}

RuntimeStats Runtime::stats() const {
  std::lock_guard<std::mutex> lock(contexts_mutex_);
  RuntimeStats s;
  s.threads = contexts_.size();
  for (const auto& c : contexts_) {
    const core::PolicyCounters pc = c->policy->counters();
    s.stores += pc.stores;
    s.combined += pc.combined;
    s.fases += pc.fases;
    s.instructions += pc.instructions;
    // The app-side backend counts sync/overflow flushes and fences and is
    // only mutated by its owning thread. Ring write-backs come from the
    // channel's release-published count, never from the worker-side
    // backend, so stats() cannot race an in-flight worker write-back.
    s.flushes += c->backend.flush_count() + c->route.ring_flushes();
    s.fences += c->backend.fence_count();
    s.log_flushes += c->log_backend.flush_count();
    s.log_fences += c->log_backend.fence_count();
    if (c->log) {
      s.log_records += c->log->records();
      s.log_bytes += c->log->bytes_logged();
      s.log_syncs += c->log->sync_points();
    }
    s.elided_flushes += c->route.elided();
    s.elision_reflushes += c->route.reflushed();
    if (const std::size_t size = c->policy->current_cache_size(); size > 0) {
      s.cache_sizes.push_back(size);
    }
    if (c->policy->kind() == core::PolicyKind::kSoftCache) {
      const auto& sc = static_cast<const core::SoftCachePolicy&>(*c->policy);
      s.sampler_resamples += sc.resamples();
      if (const auto& check = sc.fired_check()) {
        s.resample_checks.push_back(*check);
      }
    }
  }
  return s;
}

HealthReport Runtime::health() const {
  HealthReport report;
  {
    std::lock_guard<std::mutex> lock(recovery_mutex_);
    report.recovery_ran = recovery_ran_;
    if (recovery_ran_) {
      report.recovery_outcome = last_recovery_.outcome;
      report.recovery_records_undone = last_recovery_.records_undone;
      report.recovery_defects = last_recovery_.defects.size();
    }
  }
  if (scrubber_ != nullptr) {
    report.scrub_attached = true;
    const ScrubStats ss = scrubber_->stats();
    report.scrub_lines_scanned = ss.lines_scanned;
    report.scrub_metadata_repairs = ss.metadata_repairs;
    report.scrub_checksum_mismatches = ss.checksum_mismatches;
  }
  return report;
}

void Runtime::destroy_storage() {
  const std::string data_name = config_.region_name;
  const std::string log_name = config_.region_name + ".log";
  if (scrubber_ != nullptr) {
    // Stop slices (and wait out an in-flight one) before the mappings go
    // away; resetting drops the worker's weak_ptr registration.
    scrubber_->shutdown();
    scrubber_.reset();
  }
  {
    // Write back anything still queued in the pipeline while the region is
    // still mapped (an eviction pushed outside a FASE has no commit point
    // to drain it). Producers must be quiescent by now — destroy_storage
    // is teardown — so draining from this thread is safe.
    std::lock_guard<std::mutex> lock(contexts_mutex_);
    for (const auto& c : contexts_) c->route.wait_drained();
  }
  allocator_.reset();
  log_region_ = pmem::PmemRegion();
  pmem::PmemRegion::destroy(data_name);
  pmem::PmemRegion::destroy(log_name);
}

}  // namespace nvc::runtime
