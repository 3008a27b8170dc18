// Persistence space for the durable lock-free structure suite (DESIGN.md
// §13).
//
// A PSpace is a flat, line-aligned arena of emulated NVRAM with the two
// persist primitives the structures are written against:
//
//   persist(off, len)      — the WRITER protocol for bytes this thread just
//                            wrote and must make durable before its next
//                            publication step. FliT-style (PAPERS.md): the
//                            line's pending counter is tagged for the
//                            duration of the write-back and untagged only
//                            after it completed, so a concurrent helper
//                            that reads the counter at zero *knows* the
//                            line is durable.
//   persist_help(off, len) — the HELPER protocol for bytes some other
//                            thread wrote but this thread's operation
//                            depends on (the classic "flush before you act
//                            on what you read" of durable lock-free
//                            structures). With elision on, the helper skips
//                            the flush exactly when the counter is zero —
//                            every tagged write-back of the line has
//                            completed, the bytes are already on media.
//                            With elision off (NVC_ELIDE=0), every helper
//                            flushes conservatively: the baseline the
//                            BM_ElisionHitRate benchmark compares against.
//
// A seeded yield hook fires at every persist step (and on request from the
// structures' retry loops), which is where the deterministic turnstile
// scheduler (src/testing/interleave.hpp) switches virtual threads — the
// tag→flush→untag window is exactly where elision bugs live, so the
// scheduler must be able to park a writer inside it.
//
// The arena is either a plain heap block whose media writes are only
// counted (optionally into a shared pmem::WearTracker) — thread-safe, for
// the free-running tsan stress tests and the benchmarks — or the volatile
// image of a pmem::ShadowPmem, the crash suites' power-failure model:
// every write-back claims an event on the model's clock, freeze_at(e) on
// the model drops all later ones, and the model's durable image is what a
// restarted process would see.
//
// The seeded-bug hook set_bug_early_untag() reorders the writer protocol to
// tag→untag→flush: a helper arriving inside that window reads the counter
// at zero and elides a flush of a line whose write-back has NOT completed —
// the durable-linearizability harness must catch the resulting loss.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/types.hpp"
#include "core/elision.hpp"
#include "pmem/shadow.hpp"
#include "pmem/wear.hpp"

namespace nvc::structures {

/// Byte offset into a PSpace arena. 0 is reserved (null): the first line of
/// every arena holds the structure header, so no node ever lives at 0.
using POffset = std::uint64_t;

class PSpace {
 public:
  /// A `bytes` arena. `elide`: arm FliT-style helper elision
  /// (NVC_ELIDE=1); off = every persist_help flushes. `shadow` (not owned;
  /// outlives the space): place the arena at the start of that model's
  /// volatile image and write back through it; null = a heap arena.
  /// `wear`: record every media write-back there too.
  PSpace(std::size_t bytes, bool elide, pmem::ShadowPmem* shadow = nullptr,
         pmem::WearTracker* wear = nullptr);

  PSpace(const PSpace&) = delete;
  PSpace& operator=(const PSpace&) = delete;

  // --- arena ----------------------------------------------------------------

  std::uint8_t* base() noexcept { return base_; }
  std::size_t size() const noexcept { return size_; }

  /// Bump-allocate `lines` whole cache lines (thread-safe). Returns the
  /// byte offset of the first line. Throws nothing; asserts on exhaustion
  /// (the tests size their arenas).
  POffset alloc_lines(std::size_t lines);

  /// Volatile view of the arena at `off` (what running threads read/write;
  /// the structures place std::atomic fields here).
  template <typename T>
  T* at(POffset off) noexcept {
    return reinterpret_cast<T*>(base() + off);
  }
  std::atomic<std::uint64_t>& word(POffset off) noexcept {
    return *reinterpret_cast<std::atomic<std::uint64_t>*>(base() + off);
  }

  /// Durable view (recovery): what a crash at this instant would leave.
  /// A heap arena has no crash model, so durable == volatile.
  std::uint64_t durable_u64(POffset off) const;

  // --- persist protocols ----------------------------------------------------

  void persist(POffset off, std::size_t len);
  void persist_help(POffset off, std::size_t len);

  /// Publish-and-persist (the FliT pstore shape): CAS `word(off)` with the
  /// line's pending count raised ACROSS the CAS, and on success keep it
  /// raised until the write-back completed. This is the primitive every
  /// shared-word publication (link CAS, deletion mark, head swing) must
  /// use: plain persist() tags only around the flush, so a helper probing
  /// between a raw CAS and a later persist() would read pending == 0 and
  /// elide a line whose new value never reached media. On CAS failure the
  /// tag is dropped without a flush (the transient nonzero count only makes
  /// concurrent helpers conservative). Returns the CAS result.
  bool cas_persist(POffset off, std::uint64_t expected,
                   std::uint64_t desired);

  /// Persistent load (FliT's pload): read a shared mutable word and make
  /// the read durable-dependable before acting on it — helper protocol, so
  /// the flush is ELIDED whenever the publishing writer's tagged write-back
  /// already completed. This is what durable linearizability demands of
  /// traversals: an operation's return may depend on every link it hopped,
  /// and each hop must be on media before the op returns. Elision turns the
  /// discipline from a flush-per-hop into a counter-probe-per-hop (the
  /// BM_ElisionHitRate lever).
  std::uint64_t pload(POffset off) {
    const std::uint64_t v = word(off).load(std::memory_order_acquire);
    persist_help(off, sizeof(std::uint64_t));
    return v;
  }

  /// Scheduler hook: called at every persist step; structures also call it
  /// at retry-loop heads so the turnstile can interleave at CAS races.
  void yield() {
    if (yield_hook_) yield_hook_();
  }
  void set_yield_hook(std::function<void()> hook) {
    yield_hook_ = std::move(hook);
  }

  bool elide_enabled() const noexcept { return elide_; }
  const core::FlushElisionTable& table() const noexcept { return flit_; }

  /// Seeded bug (checker validation): writer untags BEFORE the write-back
  /// instead of after — the reverted flush-pending decrement on the FliT
  /// face. Helpers then elide unflushed lines; the durable-linearizability
  /// oracle must flag the loss.
  void set_bug_early_untag(bool on) noexcept { bug_early_untag_ = on; }

  // --- counters (relaxed; exact under the turnstile) ------------------------

  std::uint64_t media_writes() const noexcept {
    return media_writes_.load(std::memory_order_relaxed);
  }
  std::uint64_t writer_flushes() const noexcept {
    return writer_flushes_.load(std::memory_order_relaxed);
  }
  std::uint64_t helper_flushes() const noexcept {
    return helper_flushes_.load(std::memory_order_relaxed);
  }
  std::uint64_t helper_elisions() const noexcept {
    return helper_elisions_.load(std::memory_order_relaxed);
  }

 private:
  void flush_range(POffset off, std::size_t len, bool writer);
  /// One media write-back of the line (line = arena byte offset >> 6).
  void flush_line(LineAddr line);

  std::size_t size_;
  std::unique_ptr<std::uint8_t[]> heap_;  // null over a shadow model
  std::uint8_t* base_;
  pmem::ShadowPmem* shadow_;
  pmem::WearTracker* wear_;
  bool elide_;
  bool bug_early_untag_ = false;
  core::FlushElisionTable flit_;
  std::function<void()> yield_hook_;
  std::atomic<POffset> bump_{kCacheLineSize};  // line 0 = header, 0 = null
  std::atomic<std::uint64_t> media_writes_{0};
  std::atomic<std::uint64_t> writer_flushes_{0};
  std::atomic<std::uint64_t> helper_flushes_{0};
  std::atomic<std::uint64_t> helper_elisions_{0};
};

}  // namespace nvc::structures
