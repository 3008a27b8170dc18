// Tests for the MDB copy-on-write B+-tree: correctness against a reference
// map, MVCC snapshot isolation, structural invariants, page recycling,
// abort semantics, and the recovery-side image reader.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "mdb/btree.hpp"
#include "mdb/mtest.hpp"
#include "workloads/api.hpp"

namespace nvc::mdb {
namespace {

struct DbHarness {
  DbHarness(std::size_t max_pages = 2048)
      : api(1, 64u << 20), db(api, max_pages) {}
  workloads::TraceApi api;
  Db db;
};

TEST(MdbBasic, PutGetSingle) {
  DbHarness h;
  {
    auto txn = h.db.begin_write(0);
    txn.put(42, 4242);
    txn.commit();
  }
  auto read = h.db.begin_read();
  EXPECT_EQ(read.get(42), std::optional<Value>(4242));
  EXPECT_EQ(read.get(43), std::nullopt);
}

TEST(MdbBasic, OverwriteReplacesValue) {
  DbHarness h;
  {
    auto txn = h.db.begin_write(0);
    txn.put(1, 10);
    txn.put(1, 20);
    txn.commit();
  }
  EXPECT_EQ(h.db.begin_read().get(1), std::optional<Value>(20));
}

TEST(MdbBasic, DeleteRemovesKey) {
  DbHarness h;
  {
    auto txn = h.db.begin_write(0);
    txn.put(5, 50);
    txn.put(6, 60);
    txn.commit();
  }
  {
    auto txn = h.db.begin_write(0);
    EXPECT_TRUE(txn.del(5));
    EXPECT_FALSE(txn.del(99));
    txn.commit();
  }
  auto read = h.db.begin_read();
  EXPECT_EQ(read.get(5), std::nullopt);
  EXPECT_EQ(read.get(6), std::optional<Value>(60));
}

TEST(MdbBasic, EmptyDbReads) {
  DbHarness h;
  auto read = h.db.begin_read();
  EXPECT_EQ(read.get(0), std::nullopt);
  EXPECT_EQ(read.count(), 0u);
  EXPECT_EQ(read.scan(0, 10), 0u);
}

TEST(MdbBasic, WriteTxnSeesOwnWrites) {
  DbHarness h;
  auto txn = h.db.begin_write(0);
  txn.put(7, 70);
  EXPECT_EQ(txn.get(7), std::optional<Value>(70));
  txn.commit();
}

TEST(MdbBasic, AbortDiscardsChanges) {
  DbHarness h;
  {
    auto txn = h.db.begin_write(0);
    txn.put(1, 100);
    txn.commit();
  }
  {
    auto txn = h.db.begin_write(0);
    txn.put(1, 999);
    txn.put(2, 222);
    txn.abort();
  }
  auto read = h.db.begin_read();
  EXPECT_EQ(read.get(1), std::optional<Value>(100));
  EXPECT_EQ(read.get(2), std::nullopt);
}

TEST(MdbBasic, DestructorWithoutCommitAborts) {
  DbHarness h;
  {
    auto txn = h.db.begin_write(0);
    txn.put(9, 90);
    // No commit: destructor must abort and release the writer lock.
  }
  EXPECT_EQ(h.db.begin_read().get(9), std::nullopt);
  // The writer lock must be free again.
  auto txn = h.db.begin_write(0);
  txn.commit();
}

TEST(MdbBasic, MovedReadTxnKeepsItsSnapshot) {
  DbHarness h;
  {
    auto txn = h.db.begin_write(0);
    txn.put(1, 10);
    txn.commit();
  }
  auto first = h.db.begin_read();
  Db::ReadTxn moved(std::move(first));
  {
    auto txn = h.db.begin_write(0);
    txn.put(1, 20);
    txn.commit();
  }
  EXPECT_EQ(moved.get(1), std::optional<Value>(10));
  EXPECT_EQ(h.db.begin_read().get(1), std::optional<Value>(20));
}

TEST(MdbBasic, MovedWriteTxnCommitsOnce) {
  DbHarness h;
  {
    auto first = h.db.begin_write(0);
    first.put(3, 30);
    Db::WriteTxn moved(std::move(first));
    moved.put(4, 40);
    moved.commit();
    // `first` is dead: its destructor must neither abort nor unlock.
  }
  auto read = h.db.begin_read();
  EXPECT_EQ(read.get(3), std::optional<Value>(30));
  EXPECT_EQ(read.get(4), std::optional<Value>(40));
  EXPECT_EQ(h.db.last_committed(), 1u);
  auto txn = h.db.begin_write(0);  // the writer lock is free again
  txn.commit();
}

// --- splits and bulk correctness -------------------------------------------------------

/// Keys 0, 3, 6, ... inserted in ascending order, `per_txn` to a commit.
/// Ascending inserts leave every split leaf about half full (~127 pairs),
/// so 50,000 keys need ~390 leaves: more than one internal node holds
/// (340 children), and the root splits into a three-level tree.
constexpr Key kDeepKeys = 50000;

std::map<Key, Value> insert_ascending(Db& db, Key keys, Key per_txn) {
  std::map<Key, Value> reference;
  for (Key base = 0; base < keys; base += per_txn) {
    auto txn = db.begin_write(0);
    for (Key i = base; i < std::min(keys, base + per_txn); ++i) {
      txn.put(3 * i, i + 1);
      reference[3 * i] = i + 1;
    }
    txn.commit();
  }
  return reference;
}

/// PersistApi over plain memory whose one allocation is the Db slab, so a
/// test can read the slab back as a durable image.
class SlabApi final : public workloads::PersistApi {
 public:
  void* alloc(std::size_t, std::size_t size) override {
    slab_.assign(size / sizeof(std::uint64_t), 0);
    return slab_.data();
  }
  void fase_begin(std::size_t) override {}
  void fase_end(std::size_t) override {}
  void wrote(std::size_t, const void*, std::size_t) override {}
  void persist_barrier(std::size_t) override {}

  std::vector<char> image() const {
    const auto* bytes = reinterpret_cast<const char*>(slab_.data());
    return {bytes, bytes + slab_.size() * sizeof(std::uint64_t)};
  }

 private:
  std::vector<std::uint64_t> slab_;
};

TEST(MdbBulk, InternalNodesSplitAndMatchReference) {
  DbHarness h(4096);
  const auto reference = insert_ascending(h.db, kDeepKeys, 5000);
  h.db.check_invariants();
  EXPECT_EQ(h.db.begin_read().count(), reference.size());

  // A write txn's own lookups descend the same internal levels.
  auto txn = h.db.begin_write(0);
  for (Key i = 0; i < kDeepKeys; i += 97) {
    EXPECT_EQ(txn.get(3 * i), std::optional<Value>(i + 1)) << i;
    EXPECT_EQ(txn.get(3 * i + 1), std::nullopt) << i;
  }
  txn.abort();
  auto read = h.db.begin_read();
  EXPECT_EQ(read.get(3 * (kDeepKeys - 1)), std::optional<Value>(kDeepKeys));
  EXPECT_EQ(read.scan(3 * 40000, 5), 5u);
}

TEST(MdbImage, DeepTreeImageReadsBackEveryPair) {
  SlabApi api;
  constexpr std::size_t kPages = 2048;
  Db db(api, kPages);
  const auto reference = insert_ascending(db, kDeepKeys, 10000);
  const auto image = api.image();
  const Db::ImageContents contents =
      Db::read_image(image.data(), kPages * kPageSize);
  EXPECT_EQ(contents.txn, db.last_committed());
  EXPECT_EQ(contents.pairs, reference);
}

TEST(MdbImage, EitherTornMetaLeavesTheOtherCommit) {
  // A commit writes the older of the two metas, so the previous commit's
  // meta and tree stay intact beside it. Tear either meta in a copy of
  // the image: recovery falls back to the other, and the two survivors
  // are the last two commits.
  SlabApi api;
  constexpr std::size_t kPages = 64;
  Db db(api, kPages);
  std::map<TxnId, std::map<Key, Value>> snapshots;
  std::map<Key, Value> state;
  for (Key round = 0; round < 3; ++round) {
    auto txn = db.begin_write(0);
    for (Key k = 0; k < 10; ++k) {
      txn.put(round * 10 + k, round);
      state[round * 10 + k] = round;
    }
    txn.del(round);
    state.erase(round);
    txn.commit();
    snapshots[db.last_committed()] = state;
  }

  std::set<TxnId> survivors;
  for (std::size_t slot = 0; slot < 2; ++slot) {
    auto image = api.image();
    image[slot * kPageSize] ^= 0x5a;  // the meta's first word never landed
    const Db::ImageContents contents =
        Db::read_image(image.data(), kPages * kPageSize);
    ASSERT_TRUE(snapshots.count(contents.txn)) << contents.txn;
    EXPECT_EQ(contents.pairs, snapshots[contents.txn]) << contents.txn;
    survivors.insert(contents.txn);
  }
  const TxnId last = db.last_committed();
  EXPECT_EQ(survivors, (std::set<TxnId>{last - 1, last}));
}

TEST(MdbBulk, ManyInsertsSplitLeavesAndMatchReference) {
  DbHarness h(4096);
  std::map<Key, Value> reference;
  Rng rng(2);
  for (int batch = 0; batch < 100; ++batch) {
    auto txn = h.db.begin_write(0);
    for (int i = 0; i < 50; ++i) {
      const Key k = rng.below(100000);
      txn.put(k, k + 1);
      reference[k] = k + 1;
    }
    txn.commit();
  }
  h.db.check_invariants();
  EXPECT_GT(h.db.stats().page_allocs, 10u);  // splits happened

  auto read = h.db.begin_read();
  EXPECT_EQ(read.count(), reference.size());
  Rng probe(3);
  for (int i = 0; i < 2000; ++i) {
    const Key k = probe.below(100000);
    const auto it = reference.find(k);
    const auto got = read.get(k);
    if (it == reference.end()) {
      EXPECT_EQ(got, std::nullopt) << k;
    } else {
      EXPECT_EQ(got, std::optional<Value>(it->second)) << k;
    }
  }
}

TEST(MdbBulk, SequentialInsertsProduceSortedScan) {
  DbHarness h(4096);
  {
    auto txn = h.db.begin_write(0);
    for (Key k = 0; k < 2000; ++k) txn.put(k * 3, k);
    txn.commit();
  }
  h.db.check_invariants();
  std::vector<Key> seen;
  auto collect = [](Key k, Value, void* arg) {
    static_cast<std::vector<Key>*>(arg)->push_back(k);
  };
  auto read = h.db.begin_read();
  EXPECT_EQ(read.scan(0, 5000, collect, &seen), 2000u);
  ASSERT_EQ(seen.size(), 2000u);
  for (std::size_t i = 1; i < seen.size(); ++i) {
    EXPECT_LT(seen[i - 1], seen[i]);
  }
}

TEST(MdbBulk, ScanFromMidRange) {
  DbHarness h(4096);
  {
    auto txn = h.db.begin_write(0);
    for (Key k = 0; k < 1000; ++k) txn.put(k, k);
    txn.commit();
  }
  std::vector<Key> seen;
  auto collect = [](Key k, Value, void* arg) {
    static_cast<std::vector<Key>*>(arg)->push_back(k);
  };
  auto read = h.db.begin_read();
  EXPECT_EQ(read.scan(500, 10, collect, &seen), 10u);
  ASSERT_EQ(seen.size(), 10u);
  EXPECT_EQ(seen.front(), 500u);
  EXPECT_EQ(seen.back(), 509u);
}

TEST(MdbBulk, MixedWorkloadAgainstReference) {
  DbHarness h(4096);
  std::map<Key, Value> reference;
  Rng rng(11);
  for (int round = 0; round < 300; ++round) {
    auto txn = h.db.begin_write(0);
    for (int op = 0; op < 8; ++op) {
      const double roll = rng.uniform();
      const Key k = rng.below(3000);
      if (roll < 0.7) {
        txn.put(k, k * 7);
        reference[k] = k * 7;
      } else {
        const bool was_in_db = txn.del(k);
        EXPECT_EQ(was_in_db, reference.erase(k) > 0) << "key " << k;
      }
    }
    txn.commit();
  }
  h.db.check_invariants();
  auto read = h.db.begin_read();
  EXPECT_EQ(read.count(), reference.size());
}

// --- MVCC snapshots ----------------------------------------------------------------------

TEST(MdbMvcc, ReaderSeesSnapshotNotLaterWrites) {
  DbHarness h;
  {
    auto txn = h.db.begin_write(0);
    txn.put(1, 100);
    txn.commit();
  }
  auto old_reader = h.db.begin_read();  // snapshot at txn 1
  {
    auto txn = h.db.begin_write(0);
    txn.put(1, 200);
    txn.put(2, 2);
    txn.commit();
  }
  EXPECT_EQ(old_reader.get(1), std::optional<Value>(100));
  EXPECT_EQ(old_reader.get(2), std::nullopt);
  auto new_reader = h.db.begin_read();
  EXPECT_EQ(new_reader.get(1), std::optional<Value>(200));
}

TEST(MdbMvcc, LiveReaderBlocksPageReuseForItsSnapshot) {
  DbHarness h(4096);
  {
    auto txn = h.db.begin_write(0);
    for (Key k = 0; k < 500; ++k) txn.put(k, 1);
    txn.commit();
  }
  auto reader = h.db.begin_read();  // pin the snapshot
  // Heavy churn: without the reader check these commits would recycle the
  // reader's pages and corrupt its view.
  for (int round = 0; round < 50; ++round) {
    auto txn = h.db.begin_write(0);
    for (Key k = 0; k < 100; ++k) txn.put(k, round);
    txn.commit();
  }
  // The pinned snapshot must still read value 1 everywhere.
  for (Key k = 0; k < 500; k += 37) {
    ASSERT_EQ(reader.get(k), std::optional<Value>(1)) << k;
  }
}

TEST(MdbMvcc, PagesRecycledAfterReadersFinish) {
  DbHarness h(4096);
  for (int round = 0; round < 200; ++round) {
    auto txn = h.db.begin_write(0);
    for (Key k = 0; k < 64; ++k) txn.put(k, round);
    txn.commit();
  }
  // 200 rounds of COW on a small tree: without recycling this would need
  // hundreds of fresh pages; with it the footprint stays near the live set.
  EXPECT_GT(h.db.stats().page_reuses, 100u);
  EXPECT_LT(h.db.pages_in_use(), 64u);
}

TEST(MdbMvcc, ConcurrentReadersDuringWrites) {
  DbHarness h(4096);
  {
    auto txn = h.db.begin_write(0);
    for (Key k = 0; k < 1000; ++k) txn.put(k, k);
    txn.commit();
  }
  std::atomic<bool> stop{false};
  std::atomic<bool> failed{false};
  std::thread reader_thread([&] {
    while (!stop.load()) {
      auto read = h.db.begin_read();
      // Every snapshot must be internally consistent: all present or
      // shifted by a full committed batch, never torn.
      const auto v0 = read.get(0);   // = round of the snapshot's commit
      const auto v999 = read.get(999);
      if (!v0 || !v999 || (*v999 - *v0 != 999)) failed = true;
    }
  });
  for (int round = 1; round <= 100; ++round) {
    auto txn = h.db.begin_write(0);
    for (Key k = 0; k < 1000; ++k) txn.put(k, k + round);
    txn.commit();
  }
  stop = true;
  reader_thread.join();
  EXPECT_FALSE(failed.load());
}

// --- persistence accounting ----------------------------------------------------------------

TEST(MdbPersistence, EveryCommitIsOneFase) {
  DbHarness h;
  for (int i = 0; i < 10; ++i) {
    auto txn = h.db.begin_write(0);
    txn.put(static_cast<Key>(i), 1);
    txn.commit();
  }
  // DbHarness construction runs one formatting FASE.
  EXPECT_EQ(h.api.trace(0).fase_count, 11u);
}

TEST(MdbPersistence, CowCopiesScaleWithLiveContent) {
  // COW traffic is reported at store granularity over the node's used
  // region, so copying a nearly-full leaf reports far more stores than
  // copying a nearly-empty one.
  DbHarness small;
  {
    auto txn = small.db.begin_write(0);
    txn.put(1, 1);
    txn.commit();
  }
  const auto before_small = small.api.trace(0).store_count;
  {
    auto txn = small.db.begin_write(0);
    txn.put(2, 2);  // COW of a 1-entry leaf
    txn.commit();
  }
  const auto delta_small = small.api.trace(0).store_count - before_small;

  DbHarness big;
  {
    auto txn = big.db.begin_write(0);
    for (Key k = 0; k < 200; ++k) txn.put(k, k);  // one fat leaf
    txn.commit();
  }
  const auto before_big = big.api.trace(0).store_count;
  {
    auto txn = big.db.begin_write(0);
    txn.put(500, 1);  // COW of a 200-entry leaf: ~400 word stores
    txn.commit();
  }
  const auto delta_big = big.api.trace(0).store_count - before_big;

  EXPECT_GE(delta_small, 4u);
  EXPECT_GE(delta_big, 20 * delta_small);
}

TEST(Mtest, WorkloadRunsAndReportsName) {
  auto w = make_mdb_workload();
  EXPECT_EQ(w->name(), "mdb");
  workloads::WorkloadParams p;
  p.threads = 2;
  p.full = false;
  workloads::TraceApi api(p.threads, 128u << 20);
  MtestConfig config;
  config.inserts_quick = 4000;
  auto small = make_mdb_workload(config);
  small->run(api, p);
  EXPECT_GT(api.total_stores(), 10000u);  // COW page traffic dominates
}

}  // namespace
}  // namespace nvc::mdb
