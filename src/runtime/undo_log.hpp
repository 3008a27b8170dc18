// Durable undo logging for failure-atomic sections.
//
// Atlas guarantees that upon a failure either all or none of a FASE's updates
// are visible in NVRAM (paper Section II-A). The mechanism is a per-thread
// persistent undo log: before data is overwritten inside a FASE, the old
// bytes are appended to the log; at the outermost FASE end the dirty data
// lines are flushed (by whichever caching policy is active) and the log is
// truncated, which is the atomic commit. Recovery after a crash rolls back
// any non-truncated records in reverse order, restoring the pre-FASE state.
//
// Two durability disciplines (LogSyncMode, DESIGN.md §7):
//
//   kStrict   every record() persists its entry before it returns — one
//             flush of the entry's lines and one fence. This is Atlas'
//             protocol: the old-value entry is durable before the in-place
//             update can possibly reach NVRAM, sound even under spontaneous
//             hardware cache eviction.
//   kBatched  record() only appends; entries become durable at the next
//             sync() — a single flush of the dirty log range and one fence.
//             The runtime orders sync() before every software-issued
//             data-line flush via core::LogOrderedSink, which preserves the
//             recovery invariant under the simulated/shadow backends and
//             eADR semantics (no spontaneous eviction of dirty lines to
//             NVRAM).
//
// In both modes the durable tail in the header is published only by sync()
// (once per epoch) and reset by commit(), so the header line is written
// back once per epoch plus once per commit. The invariant the tail keeps is:
// it covers every record whose data line software may have written back.
// The two modes differ only in whether record() persists the entry at once.
//
// Entry layout (DESIGN.md §7): a 16-byte EntryHead {u64 addr_token; u16 len;
// u16 pad; u32 check}, the payload padded to 8 bytes, then `pad` skipped
// bytes. Batched entries never pad, so they pack back to back. A strict
// entry that leaves less room in its last line than its own size pads to
// the end of that line, so the next record starts line-aligned and every
// strict record of up to 64 B that is no larger than the one before it
// persists with exactly one line write-back. The pad is decided after the
// entry, never before the next one: the previous entry is already durable,
// and moving a new entry forward would need a marker in a flushed line.
//
// Batched records coalesce (DESIGN.md §7): a record whose range starts
// where the newest entry's range ends extends that entry instead of
// appending one, while no persist has covered it and the grown entry's
// payload stays within kMaxCoalescedPayload (one line with its head). A
// grown entry is an ordinary entry with a larger len; the durable format
// does not change. Strict entries are durable as they are written, so they
// never grow.
//
// Entries are *self-certifying*: each carries a check word mixing the
// address token, length, pad, payload bytes, and the log generation. Recovery
// does not trust the tail beyond its durable value — it walks the entry
// chain forward and replays exactly the records whose check words validate
// against the current generation, so a tail that lags the appended entries
// (either mode, between syncs) still yields a sound rollback, and stale
// entries from a committed generation are never replayed.
#pragma once

#include <cstdint>
#include <vector>

#include "common/assert.hpp"
#include "common/types.hpp"
#include "core/log_ordered_sink.hpp"

namespace nvc::runtime {

/// When undo-log records become durable (see file comment).
enum class LogSyncMode : std::uint8_t {
  kStrict,   // entry per record: Atlas' protocol, the default
  kBatched,  // entries per epoch: one flush_range + fence at each sync point
};

/// Parse "strict" / "batched".
LogSyncMode parse_log_sync_mode(const char* name);
const char* to_string(LogSyncMode mode);

/// One log segment: a fixed [base, base+size) slice of a persistent region.
/// Layout: a 64-byte header (magic + packed generation/tail state) followed
/// by entries, each [EntryHead][payload padded to 8][pad] (file comment).
class UndoLog final : public core::EpochLog {
 public:
  /// `base` must be 64-byte aligned; `size` covers header + payload.
  /// Durability traffic is issued through `sink` (the runtime passes a
  /// BackendSink over the per-thread log backend; crash tests pass a
  /// shadow-memory sink).
  UndoLog(void* base, std::size_t size, core::FlushSink* sink,
          LogSyncMode mode = LogSyncMode::kStrict);

  /// Format the segment as an empty, committed log (generation 1).
  void format();

  /// True if the header magic is valid (segment was formatted).
  bool valid() const;

  /// True if the log holds uncommitted entries (crash inside a FASE):
  /// any entry of the current generation self-certifies.
  bool needs_recovery() const;

  /// Log the current content of [addr, addr+len) as undo records.
  /// kStrict: one entry per kMaxPayload piece, each durable (one flush
  /// range, one fence) before the next is appended; the tail covering it
  /// is published at the next sync(). kBatched: durable at the next sync();
  /// a record that continues the newest entry's range extends that entry
  /// while it is unsynced and its payload fits kMaxCoalescedPayload, and
  /// otherwise appends one entry per kMaxPayload piece.
  /// `addr_token` is the position-independent token of the first byte (the
  /// caller maps pointers to region offsets).
  void record(std::uint64_t addr_token, const void* current_bytes,
              std::size_t len);

  /// Epoch boundary (core::EpochLog): make every appended record durable
  /// and publish the durable tail covering them. O(1) no-op when nothing
  /// has been appended since the last sync. Returns false when the log
  /// media rejected a write-back: the pending entries (or the tail covering
  /// them) are NOT durable, and callers must not flush data those entries
  /// cover; the next sync retries whichever step failed.
  bool sync() override;

  /// Commit: truncate the log durably and advance the generation (the
  /// FASE's updates become permanent; stale entry bytes left in the segment
  /// no longer certify). A single flush+fence of the header word. Returns
  /// false when the header write-back failed: the generation does NOT
  /// advance (volatile and durable state are restored to the pre-commit
  /// view), so the FASE stays uncommitted and recovery would roll it back.
  bool commit();

  /// Graceful degradation latch: switch a batched log to strict, per-record
  /// durability. Callers sync() first so no appended entry is left behind
  /// under the old discipline; no entry grows after the latch.
  /// Irreversible by design.
  void degrade_to_strict() noexcept {
    mode_ = LogSyncMode::kStrict;
    open_entry_ = kNoOpenEntry;
  }

  /// Roll back every uncommitted record, newest first. `apply` restores the
  /// payload bytes at the location identified by the token. Walks the entry
  /// chain forward to find the recovery extent (see file comment), then
  /// applies in reverse.
  template <typename ApplyFn>
  std::size_t rollback(ApplyFn&& apply) {
    std::vector<std::uint64_t> offsets = walk_entries();
    for (auto it = offsets.rbegin(); it != offsets.rend(); ++it) {
      const auto* head = reinterpret_cast<const EntryHead*>(base_ + *it);
      apply(head->addr_token, base_ + *it + sizeof(EntryHead), head->len);
    }
    commit();
    return offsets.size();
  }

  /// Durable tail offset (kHeaderSize when empty/committed). In both modes
  /// this lags appended_tail() until the next sync().
  std::uint64_t tail() const;
  std::uint64_t appended_tail() const noexcept { return appended_tail_; }

  std::size_t capacity() const noexcept { return size_; }
  /// Entries appended: a batched record that extends the newest entry
  /// adds none.
  std::uint64_t records() const noexcept { return records_; }
  /// Entry bytes appended (heads and payloads; strict line pads excluded).
  /// An extended entry adds its growth, payload rounded up to 8 bytes.
  std::uint64_t bytes_logged() const noexcept { return bytes_logged_; }
  /// Number of entry persists (flush range + fence) — one per record in
  /// strict mode, one per epoch in batched mode. Tail publishes are not
  /// counted: they happen once per epoch in both modes.
  std::uint64_t sync_points() const noexcept { return sync_points_; }
  LogSyncMode mode() const noexcept { return mode_; }

  /// The sink durability traffic goes through. The write-back route
  /// interposes its retry stage here (runtime/write_back_route.hpp).
  core::FlushSink* sink() const noexcept { return sink_; }
  void set_sink(core::FlushSink* sink) noexcept { sink_ = sink; }

  static constexpr std::uint32_t kMaxPayload = 256;
  /// Largest payload a batched entry grows to by coalescing: head and
  /// payload fit one cache line.
  static constexpr std::uint32_t kMaxCoalescedPayload = 48;
  static constexpr std::size_t kHeaderSize = kCacheLineSize;

  // The durable layout is public: the salvage-mode RecoveryManager and the
  // image fuzzer read (and deliberately corrupt) segments without an UndoLog
  // object, so they need the header/entry shapes and the state packing.
  struct LogHeader {
    std::uint64_t magic;
    std::uint64_t state;  // generation << 32 | tail (one atomic 8-byte word)
  };
  struct EntryHead {
    std::uint64_t addr_token;
    std::uint16_t len;
    std::uint16_t pad;    // bytes skipped after the payload (strict only)
    std::uint32_t check;  // self-certifying word over token/len/pad/gen/payload
  };
  static_assert(sizeof(EntryHead) == 16);
  static_assert(sizeof(EntryHead) + kMaxCoalescedPayload == kCacheLineSize);
  static constexpr std::uint64_t kMagic = 0x4e5643554e444f4cULL;  // NVCUNDOL

  static std::uint64_t pack_state(std::uint32_t gen,
                                  std::uint64_t tail) noexcept {
    return (static_cast<std::uint64_t>(gen) << 32) | tail;
  }
  static std::uint32_t state_gen(std::uint64_t state) noexcept {
    return static_cast<std::uint32_t>(state >> 32);
  }
  static std::uint64_t state_tail(std::uint64_t state) noexcept {
    return state & 0xffffffffULL;
  }

  /// Bytes from an entry's head to the next entry's head.
  static std::uint64_t entry_size(const EntryHead& head) noexcept {
    return sizeof(EntryHead) + align_up(head.len, 8) + head.pad;
  }

  /// Self-certifying check word over token/len/pad/generation/payload
  /// (FNV-1a via common/checksum.hpp; the mix order is the durable format).
  /// `len | pad << 16` is mixed as one 32-bit word, so an unpadded entry
  /// certifies exactly as the older u32-length format did.
  static std::uint32_t entry_check(std::uint64_t addr_token, std::uint32_t len,
                                   std::uint32_t gen, const void* payload,
                                   std::uint16_t pad = 0) noexcept;

  /// Untrusted read of a raw log segment: never aborts, never reads outside
  /// [base, base+size). The salvage pipeline's view of a segment whose
  /// bytes may be arbitrary garbage.
  struct Inspection {
    bool formatted = false;        // header magic validates
    bool state_plausible = false;  // durable tail lands inside the segment
    bool tail_covered = false;     // certified chain reaches the durable tail
    std::uint32_t gen = 0;
    std::uint64_t durable_tail = 0;
    std::uint64_t certified_extent = 0;   // end offset of the certified chain
    std::vector<std::uint64_t> offsets;   // certified entries, oldest first
  };
  static Inspection inspect(const void* base, std::size_t size);

 private:
  LogHeader* header() const { return reinterpret_cast<LogHeader*>(base_); }
  bool persist(const void* p, std::size_t len);
  bool publish_state(std::uint32_t gen, std::uint64_t tail);
  /// Flush + fence the appended-but-not-durable entries; no tail publish.
  /// Closes the open entry whatever the outcome.
  bool persist_entries();
  /// Batched coalescing: grow the open entry by [bytes, bytes+len) when the
  /// record continues its range and fits (file comment). False: append.
  bool extend_open_entry(std::uint64_t addr_token, const char* bytes,
                         std::size_t len);

  /// Offsets of every entry of the current generation that self-certifies,
  /// oldest first, starting at kHeaderSize; stops at the first entry that
  /// fails validation. Requires the chain to cover the durable tail (the
  /// trusted in-process path; RecoveryManager uses inspect() instead).
  std::vector<std::uint64_t> walk_entries() const;

  char* base_;
  std::size_t size_;
  core::FlushSink* sink_;
  LogSyncMode mode_;
  std::uint32_t gen_ = 0;
  std::uint64_t appended_tail_ = kHeaderSize;   // includes unsynced entries
  std::uint64_t synced_tail_ = kHeaderSize;     // durable entry prefix
  std::uint64_t published_tail_ = kHeaderSize;  // tail in the durable header
  /// Offset of the newest entry while it may still grow: set only by a
  /// batched append, cleared by every persist attempt, commit(), format()
  /// and degrade_to_strict(). Entries start past the header, so 0 is none.
  static constexpr std::uint64_t kNoOpenEntry = 0;
  std::uint64_t open_entry_ = kNoOpenEntry;
  std::uint64_t records_ = 0;
  std::uint64_t bytes_logged_ = 0;
  std::uint64_t sync_points_ = 0;
};

}  // namespace nvc::runtime
