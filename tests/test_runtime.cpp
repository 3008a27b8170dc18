// Tests for the FASE runtime: instrumented stores, nesting, per-thread
// contexts, undo logging, and crash recovery across a real process abort
// (fork + _exit on the tmpfs-backed region, the paper's emulation model).
#include <gtest/gtest.h>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <string>
#include <thread>

#include "common/barrier.hpp"
#include "pmem/pmem_region.hpp"
#include "runtime/pvar.hpp"
#include "runtime/runtime.hpp"

namespace nvc::runtime {
namespace {

std::string unique_name(const char* base) {
  static int counter = 0;
  return std::string(base) + "." + std::to_string(::getpid()) + "." +
         std::to_string(counter++);
}

RuntimeConfig quick_config(const std::string& name) {
  RuntimeConfig config;
  config.region_name = name;
  config.region_size = 4u << 20;
  config.policy = core::PolicyKind::kSoftCacheOffline;
  config.policy_config.cache_size = 8;
  config.flush = pmem::FlushKind::kCountOnly;
  return config;
}

class RuntimeTest : public ::testing::Test {
 protected:
  RuntimeTest() : name_(unique_name("rt")) {}
  ~RuntimeTest() override {
    pmem::PmemRegion::destroy(name_);
    pmem::PmemRegion::destroy(name_ + ".log");
  }
  std::string name_;
};

TEST_F(RuntimeTest, PstoreWritesAndCounts) {
  Runtime rt(quick_config(name_));
  auto* x = rt.pm_new<std::uint64_t>();
  {
    FaseScope fase(rt);
    rt.pstore(*x, std::uint64_t{42});
  }
  EXPECT_EQ(*x, 42u);
  rt.thread_flush();
  const RuntimeStats s = rt.stats();
  EXPECT_EQ(s.stores, 1u);
  EXPECT_EQ(s.fases, 1u);
  EXPECT_GE(s.flushes, 1u);
  rt.destroy_storage();
}

TEST_F(RuntimeTest, MultiLineStoreReportsEachLine) {
  Runtime rt(quick_config(name_));
  auto* buf = static_cast<char*>(rt.pm_alloc(256));
  {
    FaseScope fase(rt);
    char data[200] = {1};
    rt.pstore(buf, data, sizeof data);
  }
  // 200 bytes span 4 cache lines (alloc is 16-aligned, so up to 5).
  const RuntimeStats s = rt.stats();
  EXPECT_GE(s.stores, 4u);
  EXPECT_LE(s.stores, 5u);
  rt.destroy_storage();
}

TEST_F(RuntimeTest, NestedFasesFlushOnlyAtOutermostEnd) {
  RuntimeConfig config = quick_config(name_);
  config.policy = core::PolicyKind::kLazy;
  Runtime rt(config);
  auto* x = rt.pm_new<std::uint64_t>();
  {
    FaseScope outer(rt);
    rt.pstore(*x, std::uint64_t{1});
    {
      FaseScope inner(rt);
      rt.pstore(*x, std::uint64_t{2});
    }
    // Inner end must NOT have flushed (lazy flushes at outermost end only).
    EXPECT_EQ(rt.stats().flushes, 0u);
    rt.pstore(*x, std::uint64_t{3});
  }
  EXPECT_EQ(rt.stats().flushes, 1u);  // one distinct line
  EXPECT_EQ(rt.stats().fases, 1u);    // one outermost FASE
  rt.destroy_storage();
}

TEST_F(RuntimeTest, PerThreadContextsAreIndependent) {
  Runtime rt(quick_config(name_));
  constexpr std::size_t kThreads = 4;
  auto* arr = static_cast<std::uint64_t*>(
      rt.pm_alloc(kThreads * 8 * sizeof(std::uint64_t)));
  ThreadTeam::run(kThreads, [&](std::size_t tid) {
    for (int rep = 0; rep < 100; ++rep) {
      FaseScope fase(rt);
      rt.pstore(arr[tid * 8], static_cast<std::uint64_t>(rep));
    }
  });
  const RuntimeStats s = rt.stats();
  EXPECT_EQ(s.threads, kThreads);
  EXPECT_EQ(s.stores, 400u);
  EXPECT_EQ(s.fases, 400u);
  rt.destroy_storage();
}

TEST_F(RuntimeTest, PvarAssignmentRoutesThroughRuntime) {
  Runtime rt(quick_config(name_));
  auto* loc = rt.pm_new<int>();
  PRef<int> ref(rt, loc);
  {
    FaseScope fase(rt);
    ref = 7;
    ref += 3;
  }
  EXPECT_EQ(ref.get(), 10);
  EXPECT_EQ(rt.stats().stores, 2u);
  rt.destroy_storage();
}

TEST_F(RuntimeTest, PArrayAllocatesAndStores) {
  Runtime rt(quick_config(name_));
  auto arr = PArray<double>::allocate(rt, 64);
  {
    FaseScope fase(rt);
    for (std::size_t i = 0; i < arr.size(); ++i) {
      arr[i] = static_cast<double>(i) * 1.5;
    }
  }
  EXPECT_DOUBLE_EQ(arr.read(10), 15.0);
  EXPECT_EQ(rt.stats().stores, 64u);
  rt.destroy_storage();
}

TEST_F(RuntimeTest, RootSurvivesRuntimeReopen) {
  {
    Runtime rt(quick_config(name_));
    auto* x = rt.pm_new<std::uint64_t>();
    {
      FaseScope fase(rt);
      rt.pstore(*x, std::uint64_t{0xabcdef});
    }
    rt.set_root(x);
    rt.thread_flush();
  }
  RuntimeConfig reopen = quick_config(name_);
  reopen.fresh = false;
  Runtime rt(reopen);
  auto* x = static_cast<std::uint64_t*>(rt.get_root());
  ASSERT_NE(x, nullptr);
  EXPECT_EQ(*x, 0xabcdefu);
  rt.destroy_storage();
}

// --- undo logging -----------------------------------------------------------------

TEST_F(RuntimeTest, UndoLogRecordsAndCommits) {
  RuntimeConfig config = quick_config(name_);
  config.undo_logging = true;
  Runtime rt(config);
  auto* x = rt.pm_new<std::uint64_t>();
  {
    FaseScope fase(rt);
    rt.pstore(*x, std::uint64_t{5});
    rt.pstore(*x, std::uint64_t{6});
  }
  const RuntimeStats s = rt.stats();
  EXPECT_EQ(s.log_records, 2u);
  EXPECT_FALSE(rt.needs_recovery());  // committed at FASE end
  rt.destroy_storage();
}

TEST_F(RuntimeTest, RecoveryRollsBackUncommittedFase) {
  RuntimeConfig config = quick_config(name_);
  config.undo_logging = true;
  std::uint64_t root_offset = 0;
  {
    Runtime rt(config);
    auto* x = rt.pm_new<std::uint64_t>();
    rt.set_root(x);
    {
      FaseScope fase(rt);
      rt.pstore(*x, std::uint64_t{111});
    }
    // Simulate a crash mid-FASE: begin, store, and *never* end the FASE.
    rt.fase_begin();
    rt.pstore(*x, std::uint64_t{999});
    EXPECT_EQ(*x, 999u);
    root_offset = rt.allocator().offset_of(x);
    // Runtime destroyed with the FASE open — like a process kill. (The
    // region files survive; the undo log still holds the record.)
  }

  RuntimeConfig reopen = config;
  reopen.fresh = false;
  Runtime rt(reopen);
  EXPECT_TRUE(rt.needs_recovery());
  const std::size_t undone = rt.recover();
  EXPECT_EQ(undone, 1u);
  EXPECT_FALSE(rt.needs_recovery());
  auto* x = rt.allocator().resolve<std::uint64_t>(root_offset);
  EXPECT_EQ(*x, 111u);  // rolled back to the last committed value
  rt.destroy_storage();
}

TEST_F(RuntimeTest, RecoveryAcrossRealProcessCrash) {
  // Fork a child that dies with _exit inside a FASE; the parent recovers.
  // This exercises real persistence across process termination on the
  // tmpfs-backed region (the paper's emulation of NVRAM durability).
  RuntimeConfig config = quick_config(name_);
  config.undo_logging = true;
  config.flush = pmem::default_flush_kind();  // real flushes in the child

  {
    // Parent formats the region and seeds the committed value.
    Runtime rt(config);
    auto* x = rt.pm_new<std::uint64_t>();
    rt.set_root(x);
    FaseScope fase(rt);
    rt.pstore(*x, std::uint64_t{1000});
  }

  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: reopen, start a FASE, clobber the value, die without commit.
    RuntimeConfig child = config;
    child.fresh = false;
    Runtime rt(child);
    auto* x = static_cast<std::uint64_t*>(rt.get_root());
    rt.fase_begin();
    rt.pstore(*x, std::uint64_t{2000});
    ::_exit(0);  // no FASE end, no destructors: a hard crash
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);

  RuntimeConfig reopen = config;
  reopen.fresh = false;
  Runtime rt(reopen);
  EXPECT_TRUE(rt.needs_recovery());
  rt.recover();
  auto* x = static_cast<std::uint64_t*>(rt.get_root());
  EXPECT_EQ(*x, 1000u);  // the uncommitted 2000 was rolled back
  rt.destroy_storage();
}

TEST_F(RuntimeTest, BatchedLogFencesScaleWithEpochsNotRecords) {
  // The tentpole counter assertion: a write-heavy FASE workload (high line
  // reuse, so the cache absorbs the stores and each FASE is one flush
  // epoch) must show strict-mode log traffic O(records) and batched-mode
  // traffic O(epochs).
  constexpr int kFaseCount = 50;
  constexpr int kStoresPerFase = 20;
  constexpr std::uint64_t kRecords = kFaseCount * kStoresPerFase;

  RuntimeStats stats[2];
  int i = 0;
  for (const LogSyncMode mode : {LogSyncMode::kStrict, LogSyncMode::kBatched}) {
    const std::string region = name_ + "." + to_string(mode);
    RuntimeConfig config = quick_config(region);
    config.undo_logging = true;
    config.log_sync = mode;
    Runtime rt(config);
    // 4 lines, cache capacity 8: every line stays cached until FASE end.
    auto* arr = static_cast<std::uint64_t*>(rt.pm_alloc(4 * kCacheLineSize));
    for (int f = 0; f < kFaseCount; ++f) {
      FaseScope fase(rt);
      for (int s = 0; s < kStoresPerFase; ++s) {
        rt.pstore(arr[(s % 4) * 8], static_cast<std::uint64_t>(f * 100 + s));
      }
    }
    stats[i++] = rt.stats();
    rt.destroy_storage();
  }
  const RuntimeStats& strict = stats[0];
  const RuntimeStats& batched = stats[1];

  ASSERT_EQ(strict.log_records, kRecords);
  ASSERT_EQ(batched.log_records, kRecords);
  // Strict persists each record's entry (one fence each), publishes the
  // tail once per epoch (here one per FASE) and commits once per FASE.
  EXPECT_EQ(strict.log_syncs, kRecords);
  EXPECT_EQ(strict.log_fences, kRecords + kFaseCount + kFaseCount);
  // Batched syncs once per epoch — here exactly one per FASE, at the first
  // data-line flush of the end-of-FASE flush burst.
  EXPECT_EQ(batched.log_syncs, static_cast<std::uint64_t>(kFaseCount));
  EXPECT_EQ(batched.log_fences,
            static_cast<std::uint64_t>(2 * kFaseCount + kFaseCount));
  // Batching must not change the data-line traffic the paper measures.
  EXPECT_EQ(strict.flushes, batched.flushes);
  EXPECT_EQ(strict.stores, batched.stores);
}

TEST_F(RuntimeTest, BatchedRecoveryAcrossRealProcessCrash) {
  // The fork-crash test under the batched protocol: the child dies inside
  // a FASE with records appended but never explicitly synced. On the
  // tmpfs-backed region (the eADR-style emulation model) the appended
  // bytes survive, and the self-certifying entry walk must find and roll
  // them back even though the durable tail was never advanced.
  RuntimeConfig config = quick_config(name_);
  config.undo_logging = true;
  config.log_sync = LogSyncMode::kBatched;
  config.flush = pmem::default_flush_kind();

  {
    Runtime rt(config);
    auto* x = rt.pm_new<std::uint64_t>();
    rt.set_root(x);
    FaseScope fase(rt);
    rt.pstore(*x, std::uint64_t{1000});
  }

  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    RuntimeConfig child = config;
    child.fresh = false;
    Runtime rt(child);
    auto* x = static_cast<std::uint64_t*>(rt.get_root());
    rt.fase_begin();
    rt.pstore(*x, std::uint64_t{2000});
    rt.persist_barrier();  // forces one ordered sync mid-FASE
    rt.pstore(*x, std::uint64_t{3000});  // appended, never synced
    ::_exit(0);  // no FASE end, no destructors: a hard crash
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);

  RuntimeConfig reopen = config;
  reopen.fresh = false;
  Runtime rt(reopen);
  EXPECT_TRUE(rt.needs_recovery());
  EXPECT_EQ(rt.recover(), 2u);  // both the synced and the unsynced record
  auto* x = static_cast<std::uint64_t*>(rt.get_root());
  EXPECT_EQ(*x, 1000u);
  rt.destroy_storage();
}

TEST_F(RuntimeTest, BatchedAdjacentPairSurvivesSigkillAfterEitherStore) {
  // kv's record update under the batched protocol: two adjacent 8-byte
  // stores whose undo records share one growing entry. SIGKILL the child
  // right after the first store (the entry holds one value) and right
  // after the second (the entry grew in place): the file must certify the
  // entry either way, and recovery restores both committed values.
  for (const int stores : {1, 2}) {
    SCOPED_TRACE(stores);
    const std::string region = name_ + "." + std::to_string(stores);
    RuntimeConfig config = quick_config(region);
    config.undo_logging = true;
    config.log_sync = LogSyncMode::kBatched;
    config.flush = pmem::default_flush_kind();
    {
      Runtime rt(config);
      auto* pair = static_cast<std::uint64_t*>(rt.pm_alloc(16));
      rt.set_root(pair);
      FaseScope fase(rt);
      rt.pstore(pair[0], std::uint64_t{1000});
      rt.pstore(pair[1], std::uint64_t{1001});
    }

    const pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      RuntimeConfig child = config;
      child.fresh = false;
      Runtime rt(child);
      auto* pair = static_cast<std::uint64_t*>(rt.get_root());
      rt.fase_begin();
      rt.pstore(pair[0], std::uint64_t{2000});
      if (stores == 2) rt.pstore(pair[1], std::uint64_t{2001});
      ::raise(SIGKILL);
      ::_exit(1);
    }
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFSIGNALED(status));
    EXPECT_EQ(WTERMSIG(status), SIGKILL);

    RuntimeConfig reopen = config;
    reopen.fresh = false;
    Runtime rt(reopen);
    EXPECT_TRUE(rt.needs_recovery());
    EXPECT_EQ(rt.recover(), 1u);  // one entry, grown or not
    auto* pair = static_cast<std::uint64_t*>(rt.get_root());
    EXPECT_EQ(pair[0], 1000u);
    EXPECT_EQ(pair[1], 1001u);
    rt.destroy_storage();
  }
}

TEST_F(RuntimeTest, ContextFastPathSurvivesAlternatingRuntimes) {
  // One thread alternating between two live runtimes must keep each
  // runtime's per-thread state (policy counters, log) separate — the
  // single-entry thread-local context cache may only ever miss, never
  // alias.
  const std::string other_name = unique_name("rt");
  Runtime a(quick_config(name_));
  Runtime b(quick_config(other_name));
  auto* xa = a.pm_new<std::uint64_t>();
  auto* xb = b.pm_new<std::uint64_t>();
  for (std::uint64_t i = 0; i < 64; ++i) {
    {
      FaseScope fase(a);
      a.pstore(*xa, i);
    }
    {
      FaseScope fase(b);
      b.pstore(*xb, i * 2);
    }
  }
  EXPECT_EQ(*xa, 63u);
  EXPECT_EQ(*xb, 126u);
  EXPECT_EQ(a.stats().stores, 64u);
  EXPECT_EQ(a.stats().fases, 64u);
  EXPECT_EQ(b.stats().stores, 64u);
  EXPECT_EQ(b.stats().fases, 64u);
  a.destroy_storage();
  b.destroy_storage();
  pmem::PmemRegion::destroy(other_name);
  pmem::PmemRegion::destroy(other_name + ".log");
}

TEST_F(RuntimeTest, StatsAggregateCacheSizes) {
  RuntimeConfig config = quick_config(name_);
  config.policy = core::PolicyKind::kSoftCacheOffline;
  config.policy_config.cache_size = 23;
  Runtime rt(config);
  auto* x = rt.pm_new<std::uint64_t>();
  {
    FaseScope fase(rt);
    rt.pstore(*x, std::uint64_t{1});
  }
  const RuntimeStats s = rt.stats();
  ASSERT_EQ(s.cache_sizes.size(), 1u);
  EXPECT_EQ(s.cache_sizes[0], 23u);
  rt.destroy_storage();
}

TEST_F(RuntimeTest, PersistBarrierFlushesMidFase) {
  RuntimeConfig config = quick_config(name_);
  config.policy = core::PolicyKind::kLazy;
  Runtime rt(config);
  auto* x = rt.pm_new<std::uint64_t>();
  {
    FaseScope fase(rt);
    rt.pstore(*x, std::uint64_t{1});
    EXPECT_EQ(rt.stats().flushes, 0u);
    rt.persist_barrier();  // LMDB-style ordering point
    EXPECT_EQ(rt.stats().flushes, 1u);
    rt.pstore(*x, std::uint64_t{2});
  }
  EXPECT_EQ(rt.stats().flushes, 2u);  // barrier + FASE end
  EXPECT_EQ(rt.stats().fases, 1u);    // barrier is not a FASE boundary
  rt.destroy_storage();
}

TEST_F(RuntimeTest, FaseEndWithoutBeginDies) {
  Runtime rt(quick_config(name_));
  EXPECT_DEATH(rt.fase_end(), "fase_begin");
  rt.destroy_storage();
}

}  // namespace
}  // namespace nvc::runtime
