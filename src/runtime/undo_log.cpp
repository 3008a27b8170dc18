#include "runtime/undo_log.hpp"

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstring>
#include <string_view>

#include "common/assert.hpp"
#include "common/checksum.hpp"

namespace nvc::runtime {

LogSyncMode parse_log_sync_mode(const char* name) {
  if (name != nullptr && std::string_view(name) == "batched") {
    return LogSyncMode::kBatched;
  }
  return LogSyncMode::kStrict;  // unknown values fall back to the default
}

const char* to_string(LogSyncMode mode) {
  switch (mode) {
    case LogSyncMode::kStrict:
      return "strict";
    case LogSyncMode::kBatched:
      return "batched";
  }
  NVC_UNREACHABLE("invalid LogSyncMode");
}

UndoLog::UndoLog(void* base, std::size_t size, core::FlushSink* sink,
                 LogSyncMode mode)
    : base_(static_cast<char*>(base)), size_(size), sink_(sink), mode_(mode) {
  NVC_REQUIRE(base_ != nullptr);
  NVC_REQUIRE(sink_ != nullptr);
  NVC_REQUIRE((reinterpret_cast<std::uintptr_t>(base_) % kCacheLineSize) == 0,
              "log segment must be cache-line aligned");
  NVC_REQUIRE(size_ >= kHeaderSize + kMaxPayload + sizeof(EntryHead));
  NVC_REQUIRE(size_ <= 0xffffffffULL, "tail must fit the packed state word");
  if (valid()) {
    // Reopened segment (restart path): adopt the durable generation and
    // tail, and treat any self-certifying entries beyond the tail as the
    // appended extent (records whose covering tail was never published).
    const std::uint64_t state = header()->state;
    gen_ = state_gen(state);
    synced_tail_ = published_tail_ = state_tail(state);
    const std::vector<std::uint64_t> offsets = walk_entries();
    appended_tail_ = synced_tail_;
    if (!offsets.empty()) {
      const auto* head =
          reinterpret_cast<const EntryHead*>(base_ + offsets.back());
      appended_tail_ = offsets.back() + entry_size(*head);
    }
  }
}

bool UndoLog::persist(const void* p, std::size_t len) {
  NVC_ASSERT(len > 0);
  const auto addr = reinterpret_cast<PmAddr>(p);
  const LineAddr first = line_of(addr);
  const LineAddr last = line_of(addr + len - 1);
  bool ok = true;
  // Attempt every line even after a failure (retry/quarantine accounting
  // below the sink wants to see each one), then fence what did land.
  for (LineAddr line = first; line <= last; ++line) {
    ok = sink_->flush_line(line) && ok;
  }
  sink_->drain();
  return ok;
}

bool UndoLog::publish_state(std::uint32_t gen, std::uint64_t tail) {
  // A single aligned 8-byte store: atomic with respect to power failure, so
  // generation and tail can never tear apart.
  const std::uint64_t previous = header()->state;
  header()->state = pack_state(gen, tail);
  if (persist(&header()->state, sizeof(header()->state))) return true;
  // The durable header still holds `previous`: restore the volatile view
  // to match so in-memory reads (tail(), walk_entries()) never run ahead
  // of what a crash would leave behind.
  header()->state = previous;
  return false;
}

std::uint32_t UndoLog::entry_check(std::uint64_t addr_token, std::uint32_t len,
                                   std::uint32_t gen, const void* payload,
                                   std::uint16_t pad) noexcept {
  // FNV-1a over token, length and pad, generation, and the payload bytes.
  // The generation term invalidates stale entries after commit(); the
  // payload term catches torn entries whose head line persisted without the
  // data. The mix order (token LE, len|pad<<16 LE, gen LE, payload) is the
  // durable format; with pad 0 it is the original u32-length word, which
  // common/checksum.hpp reproduces bit-for-bit.
  Fnv32 h;
  h.mix_le(addr_token);
  h.mix_le(len | static_cast<std::uint32_t>(pad) << 16);
  h.mix_le(gen);
  h.mix_bytes(payload, len);
  return h.value();
}

void UndoLog::format() {
  LogHeader* h = header();
  h->magic = kMagic;
  gen_ = 1;
  h->state = pack_state(gen_, kHeaderSize);
  appended_tail_ = synced_tail_ = published_tail_ = kHeaderSize;
  open_entry_ = kNoOpenEntry;
  persist(h, sizeof(LogHeader));
}

bool UndoLog::valid() const { return header()->magic == kMagic; }

bool UndoLog::needs_recovery() const {
  if (!valid()) return false;
  if (state_tail(header()->state) > kHeaderSize) return true;
  // Batched mode can crash with a committed (header-size) durable tail but
  // appended entries that reached NVRAM; the entry chain self-certifies.
  return !walk_entries().empty();
}

std::uint64_t UndoLog::tail() const { return state_tail(header()->state); }

UndoLog::Inspection UndoLog::inspect(const void* base, std::size_t size) {
  Inspection out;
  if (base == nullptr || size < kHeaderSize + sizeof(EntryHead)) return out;
  const char* bytes = static_cast<const char*>(base);
  LogHeader head_copy;
  std::memcpy(&head_copy, bytes, sizeof(head_copy));
  if (head_copy.magic != kMagic) return out;
  out.formatted = true;
  out.gen = state_gen(head_copy.state);
  out.durable_tail = state_tail(head_copy.state);
  out.state_plausible =
      out.durable_tail >= kHeaderSize && out.durable_tail <= size;
  std::uint64_t off = kHeaderSize;
  while (off + sizeof(EntryHead) <= size) {
    EntryHead entry;
    std::memcpy(&entry, bytes + off, sizeof(entry));
    if (entry.len < 1 || entry.len > kMaxPayload) break;
    const std::uint64_t next = off + entry_size(entry);
    // A pad only ever runs to the end of the entry's last line: refuse any
    // other shape before trusting the check word. (Entries start 8-aligned,
    // so a pad that ends a line is a multiple of 8.)
    if (entry.pad != 0 &&
        (entry.pad >= kCacheLineSize || next % kCacheLineSize != 0)) {
      break;
    }
    if (next > size) break;
    if (entry.check != entry_check(entry.addr_token, entry.len, out.gen,
                                   bytes + off + sizeof(EntryHead),
                                   entry.pad)) {
      break;
    }
    out.offsets.push_back(off);
    off = next;
  }
  out.certified_extent = off;
  // Everything below the durable tail was synced (flushed + fenced) before
  // the tail was published; a chain that stops short of it means synced
  // bytes were corrupted after the fact.
  out.tail_covered = out.state_plausible && off >= out.durable_tail;
  return out;
}

std::vector<std::uint64_t> UndoLog::walk_entries() const {
  Inspection ins = inspect(base_, size_);
  NVC_REQUIRE(ins.tail_covered,
              "corrupt undo log: synced entries fail validation");
  return std::move(ins.offsets);
}

bool UndoLog::extend_open_entry(std::uint64_t addr_token, const char* bytes,
                                std::size_t len) {
  if (open_entry_ == kNoOpenEntry) return false;
  NVC_ASSERT(mode_ == LogSyncMode::kBatched && open_entry_ >= synced_tail_);
  char* entry = base_ + open_entry_;
  const auto* head = reinterpret_cast<const EntryHead*>(entry);
  const std::size_t merged = head->len + len;
  if (head->addr_token + head->len != addr_token ||
      merged > kMaxCoalescedPayload) {
    return false;
  }
  const std::uint64_t end =
      open_entry_ + sizeof(EntryHead) + align_up(merged, 8);
  if (end > size_) return false;

  // A killed process leaves these bytes in the file, so every instant must
  // certify the old entry or the grown one: the new payload bytes first
  // (past the old len, so the old check word still holds), then len, pad
  // and check together in one aligned 8-byte store.
  char* payload = entry + sizeof(EntryHead);
  std::memcpy(payload + head->len, bytes, len);
  struct LenPadCheck {
    std::uint16_t len;
    std::uint16_t pad;
    std::uint32_t check;
  };
  static_assert(sizeof(LenPadCheck) == 8 && offsetof(EntryHead, len) == 8 &&
                offsetof(EntryHead, check) == 12);
  const LenPadCheck grown{
      static_cast<std::uint16_t>(merged), 0,
      entry_check(head->addr_token, static_cast<std::uint32_t>(merged), gen_,
                  payload)};
  std::uint64_t word;
  std::memcpy(&word, &grown, sizeof(word));
  std::atomic_signal_fence(std::memory_order_release);
  std::atomic_ref<std::uint64_t>(
      *reinterpret_cast<std::uint64_t*>(entry + offsetof(EntryHead, len)))
      .store(word, std::memory_order_relaxed);

  bytes_logged_ += end - appended_tail_;
  appended_tail_ = end;
  return true;
}

void UndoLog::record(std::uint64_t addr_token, const void* current_bytes,
                     std::size_t len) {
  NVC_REQUIRE(len >= 1);
  const auto* bytes = static_cast<const char*>(current_bytes);
  if (extend_open_entry(addr_token, bytes, len)) return;
  for (std::size_t done = 0; done < len;) {
    const auto piece = static_cast<std::uint32_t>(
        std::min<std::size_t>(len - done, kMaxPayload));
    const std::uint64_t bytes_used = sizeof(EntryHead) + align_up(piece, 8);
    const std::uint64_t end = appended_tail_ + bytes_used;
    NVC_REQUIRE(end <= size_, "undo log segment overflow");
    // Strict: when the room left in this entry's last line could not hold
    // another entry of its size, pad to the line end so the next record
    // starts line-aligned and persists with one line write-back.
    std::uint64_t pad = 0;
    if (mode_ == LogSyncMode::kStrict) {
      const std::uint64_t room = align_up(end, kCacheLineSize) - end;
      if (room < bytes_used && end + room <= size_) pad = room;
    }

    // Only a batched entry stays open to extension (no persist covers it
    // until the next sync); a strict entry is persisted below.
    open_entry_ =
        mode_ == LogSyncMode::kBatched ? appended_tail_ : kNoOpenEntry;
    char* entry = base_ + appended_tail_;
    char* payload = entry + sizeof(EntryHead);
    std::memcpy(payload, bytes + done, piece);
    auto* head = reinterpret_cast<EntryHead*>(entry);
    head->addr_token = addr_token + done;
    head->len = static_cast<std::uint16_t>(piece);
    head->pad = static_cast<std::uint16_t>(pad);
    head->check =
        entry_check(head->addr_token, piece, gen_, payload, head->pad);

    appended_tail_ = end + pad;
    ++records_;
    bytes_logged_ += bytes_used;
    done += piece;

    // Strict mode: the entry must be durable before the caller's in-place
    // data update. The tail covering it is published at the next sync(),
    // which runs before any software write-back of the data line; a data
    // line evicted before then is still rolled back, because recovery walks
    // self-certifying entries past the durable tail.
    if (mode_ == LogSyncMode::kStrict) persist_entries();
  }
}

bool UndoLog::persist_entries() {
  // Whatever the outcome, a persist may have written the open entry back:
  // it must never grow again.
  open_entry_ = kNoOpenEntry;
  if (appended_tail_ == synced_tail_) return true;
  // A failed entry flush leaves the synced state untouched so the next
  // persist (or a retry above us) covers the same range again.
  if (!persist(base_ + synced_tail_, appended_tail_ - synced_tail_)) {
    return false;
  }
  synced_tail_ = appended_tail_;
  ++sync_points_;
  return true;
}

bool UndoLog::sync() {
  if (appended_tail_ == published_tail_) return true;
  // Entries must be durable before the tail that covers them.
  if (!persist_entries()) return false;
  if (!publish_state(gen_, synced_tail_)) return false;
  published_tail_ = synced_tail_;
  return true;
}

bool UndoLog::commit() {
  // Advancing the generation de-certifies every entry of this FASE in one
  // atomic durable store; unsynced entries are simply discarded.
  open_entry_ = kNoOpenEntry;
  if (!publish_state(gen_ + 1, kHeaderSize)) {
    // The durable header still certifies this generation's records; keep
    // the volatile generation in step so recovery (which would roll the
    // whole FASE back) and future records agree on it.
    return false;
  }
  ++gen_;
  appended_tail_ = synced_tail_ = published_tail_ = kHeaderSize;
  return true;
}

}  // namespace nvc::runtime
