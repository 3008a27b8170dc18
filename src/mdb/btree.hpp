// MDB — a memory-mapped, copy-on-write B+-tree key-value store in the mold
// of OpenLDAP's MDB/LMDB (paper Section IV-B):
//
//   * fixed-size pages in one persistent slab;
//   * two alternating meta pages; a commit atomically installs a new root by
//     writing the older meta (single-page write = the durability point);
//   * writers copy-on-write every page they touch (never update in place),
//     so readers run lock-free against the root snapshot they started with
//     (MVCC); one writer at a time (exclusive lock), as in MDB;
//   * freed pages are recycled once no live reader can still see them.
//
// All page mutations are reported through PersistApi, so the store runs
// under any persistence policy, live or traced. A write transaction is one
// FASE (MDB's write txns are the paper's durable FASEs).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <vector>

#include "common/assert.hpp"
#include "workloads/api.hpp"

namespace nvc::mdb {

using Key = std::uint64_t;
using Value = std::uint64_t;
using PageNo = std::uint32_t;
using TxnId = std::uint64_t;

inline constexpr std::size_t kPageSize = 4096;
inline constexpr PageNo kNoPage = 0xffffffffu;

struct DbStats {
  std::uint64_t puts = 0;
  std::uint64_t deletes = 0;
  std::uint64_t gets = 0;
  std::uint64_t commits = 0;
  std::uint64_t page_copies = 0;
  std::uint64_t page_allocs = 0;
  std::uint64_t page_reuses = 0;
};

class Db {
 public:
  /// Create a fresh store backed by `max_pages` pages allocated from the
  /// API (tid 0). `api` must outlive the Db.
  Db(workloads::PersistApi& api, std::size_t max_pages);

  Db(const Db&) = delete;
  Db& operator=(const Db&) = delete;

  // --- transactions -----------------------------------------------------------

  /// Snapshot read transaction; cheap, many may run concurrently.
  class ReadTxn {
   public:
    /// Point lookup.
    std::optional<Value> get(Key key) const;

    /// In-order scan: visit up to `limit` pairs with key >= from; returns
    /// the number visited.
    std::size_t scan(Key from, std::size_t limit,
                     void (*visit)(Key, Value, void*) = nullptr,
                     void* arg = nullptr) const;

    /// Number of pairs reachable from this snapshot (full walk).
    std::size_t count() const;

    TxnId id() const noexcept { return txn_; }

    ~ReadTxn();
    ReadTxn(ReadTxn&& other) noexcept;
    ReadTxn& operator=(ReadTxn&&) = delete;
    ReadTxn(const ReadTxn&) = delete;

   private:
    friend class Db;
    ReadTxn(const Db* db, PageNo root, TxnId txn)
        : db_(db), root_(root), txn_(txn) {}
    const Db* db_;
    PageNo root_;
    TxnId txn_;
  };

  /// Exclusive write transaction (copy-on-write). One at a time; the Db
  /// serializes writers internally. Maps to one FASE.
  class WriteTxn {
   public:
    void put(Key key, Value value);
    /// Returns true if the key existed.
    bool del(Key key);
    std::optional<Value> get(Key key) const;

    /// Durably install this transaction's root. The txn is dead afterwards.
    void commit();
    /// Drop every page this txn allocated; the old root stays current.
    void abort();

    ~WriteTxn();
    WriteTxn(WriteTxn&& other) noexcept;
    WriteTxn& operator=(WriteTxn&&) = delete;
    WriteTxn(const WriteTxn&) = delete;

   private:
    friend class Db;
    WriteTxn(Db* db, std::size_t tid);

    PageNo cow(PageNo page);  // copy page unless already dirty in this txn
    void insert_rec(PageNo page, Key key, Value value, Key* promoted,
                    PageNo* right);
    bool delete_rec(PageNo page, Key key);

    Db* db_;
    std::size_t tid_;
    PageNo root_;
    TxnId txn_;
    std::vector<PageNo> allocated_;  // for abort
    std::vector<PageNo> freed_;      // enqueued to the freelist on commit
    bool open_ = true;
  };

  ReadTxn begin_read() const;
  WriteTxn begin_write(std::size_t tid);

  const DbStats& stats() const noexcept { return stats_; }
  std::size_t pages_in_use() const noexcept {
    return next_page_.load(std::memory_order_relaxed);
  }
  TxnId last_committed() const noexcept { return last_committed_; }

  /// Validate structural invariants of the current tree (tests): sorted
  /// keys, child counts, uniform leaf depth. Aborts on violation.
  void check_invariants() const;

  /// Recovery-side reader: interpret a raw durable image of a Db slab (as a
  /// restarted process — or the crash-consistency tests — would see it),
  /// select the newest *intact* meta (magic + checksum), validate the tree
  /// reachable from it, and return its contents along with the committed
  /// transaction id. Aborts if the reachable tree violates invariants.
  struct ImageContents {
    TxnId txn = 0;
    std::map<Key, Value> pairs;
  };
  static ImageContents read_image(const void* slab, std::size_t bytes);

 private:
  struct Meta;
  struct Node;

  Node* node(PageNo page) const;
  const Meta* newest_meta() const;
  PageNo alloc_page(std::size_t tid, TxnId txn);
  void release_readers(TxnId txn) const;

  workloads::PersistApi& api_;
  char* slab_;
  std::size_t max_pages_;
  /// Bump frontier. Mutated only under writer_mutex_, but read by readers'
  /// bounds checks, hence atomic (relaxed is enough: a reader's snapshot
  /// never references pages at or past the frontier it raced with).
  std::atomic<PageNo> next_page_;

  mutable std::mutex writer_mutex_;
  mutable std::mutex reader_mutex_;
  mutable std::multiset<TxnId> active_readers_;
  std::vector<std::pair<TxnId, PageNo>> freelist_;
  std::vector<TxnId> page_txn_;  // last txn that owned (dirtied) each page

  TxnId last_committed_ = 0;
  DbStats stats_;
};

}  // namespace nvc::mdb
