// Crash-consistency tests for the full MDB stack: COW pages + barrier-
// ordered commit + checksummed alternating metas, running under each valid
// persistence policy on the production runtime::Runtime over the crash
// rig's shadow medium (tests/support/crash_rig.hpp), with undo logging off
// as MDB ships (its own metas are the commit record).
//
// Method: Db's PersistApi hands it the rig's data block and forwards its
// reports to the Runtime, whose write-backs land in the shadow durable
// image. At a chosen event index the power fails (no further write-back
// takes effect) — exactly what a power failure at that instant would leave
// in NVRAM. The test then interprets the durable image with Db::read_image
// and asserts that it is a structurally intact tree whose contents equal
// the state after some committed transaction (all-or-nothing per write
// transaction, the FASE guarantee).
#include <gtest/gtest.h>

#include <cstddef>
#include <cstring>
#include <map>
#include <ostream>
#include <vector>

#include "common/rng.hpp"
#include "core/policy.hpp"
#include "mdb/btree.hpp"
#include "support/crash_rig.hpp"
#include "workloads/api.hpp"

namespace nvc::mdb {
namespace {

using testing::CrashRig;

/// PersistApi over a CrashRig: Db's one allocation is context 0's data
/// block; writes, FASEs and barriers go to the rig's Runtime.
class RigApi final : public workloads::PersistApi {
 public:
  explicit RigApi(CrashRig& rig) : rig_(rig) {}

  void* alloc(std::size_t, std::size_t size) override {
    NVC_REQUIRE(size <= rig_.data_bytes(), "slab past the data block");
    return rig_.data(0);
  }
  void fase_begin(std::size_t) override { rig_.fase_begin(0); }
  void fase_end(std::size_t) override { rig_.fase_end(0); }
  void wrote(std::size_t, const void* addr, std::size_t len) override {
    rig_.pwrote(0, addr, len);
  }
  void persist_barrier(std::size_t) override { rig_.persist_barrier(0); }

 private:
  CrashRig& rig_;
};

constexpr std::size_t kSlabPages = 192;
constexpr std::size_t kSlabBytes = kSlabPages * kPageSize;
/// Script length: long enough that every policy's run claims over 1000
/// events on the rig's clock (Db writes in place and reports them, so only
/// write-backs claim).
constexpr int kTxns = 50;

/// A rig running `kind` with undo logging off, sized to the slab;
/// `flush_behind` runs the write-backs through manual flush channels.
CrashRig make_rig(core::PolicyKind kind, const core::PolicyConfig& policy,
                  bool flush_behind = false) {
  runtime::RuntimeConfig config = testing::rig_runtime_config();
  config.policy = kind;
  config.policy_config = policy;
  config.undo_logging = false;
  config.async_flush = flush_behind;
  return CrashRig(config, {.data_lines = kSlabBytes / kCacheLineSize,
                           .manual_pipeline = flush_behind});
}

/// Deterministic transaction script; returns per-committed-txn snapshots.
std::map<TxnId, std::map<Key, Value>> run_script(workloads::PersistApi& api,
                                                 int txns) {
  Db db(api, kSlabPages);
  std::map<TxnId, std::map<Key, Value>> snapshots;
  std::map<Key, Value> state;
  snapshots[0] = state;  // the freshly formatted, empty tree
  Rng rng(1234);
  for (int t = 0; t < txns; ++t) {
    auto txn = db.begin_write(0);
    for (int op = 0; op < 6; ++op) {
      const Key k = rng.below(500);
      if (rng.chance(0.8)) {
        const Value v = rng();
        txn.put(k, v);
        state[k] = v;
      } else {
        txn.del(k);
        state.erase(k);
      }
    }
    txn.commit();
    snapshots[db.last_committed()] = state;
  }
  return snapshots;
}

struct CrashCase {
  core::PolicyKind kind;
  double crash_fraction;  // where in the event stream the power fails
};

// gtest names each case after its printed parameter: by default a raw byte
// dump of the struct, padding included. The padding is uninitialised, so
// the names changed from build to build. Print the same dump with the
// padding zeroed so every case keeps one stable name.
void PrintTo(const CrashCase& c, std::ostream* os) {
  unsigned char bytes[sizeof(CrashCase)] = {};
  std::memcpy(bytes + offsetof(CrashCase, kind), &c.kind, sizeof c.kind);
  std::memcpy(bytes + offsetof(CrashCase, crash_fraction), &c.crash_fraction,
              sizeof c.crash_fraction);
  ::testing::internal::PrintBytesInObjectTo(bytes, sizeof bytes, os);
}

class MdbCrash : public ::testing::TestWithParam<CrashCase> {};

TEST_P(MdbCrash, FrozenImageIsACommittedSnapshot) {
  const CrashCase param = GetParam();
  core::PolicyConfig config;
  config.cache_size = 8;
  config.sampler.burst_length = 1u << 20;  // never adapts mid-test

  // Dry run: learn the event count and the per-txn expected snapshots.
  CrashRig dry = make_rig(param.kind, config);
  RigApi dry_api(dry);
  const auto snapshots = run_script(dry_api, kTxns);
  const std::uint64_t total_events = dry.events();
  ASSERT_GT(total_events, 1000u);

  // Crash run: same script, durability frozen mid-stream.
  const auto freeze_at = static_cast<std::uint64_t>(
      param.crash_fraction * static_cast<double>(total_events));
  CrashRig crashed = make_rig(param.kind, config);
  crashed.freeze_at(freeze_at);
  RigApi crashed_api(crashed);
  (void)run_script(crashed_api, kTxns);

  const auto image = crashed.durable_data(0);
  const Db::ImageContents contents =
      Db::read_image(image.data(), kSlabBytes);

  const auto it = snapshots.find(contents.txn);
  ASSERT_NE(it, snapshots.end())
      << "durable tree claims txn " << contents.txn
      << " which never committed";
  EXPECT_EQ(contents.pairs, it->second)
      << core::to_string(param.kind) << " crashed at event " << freeze_at
      << "/" << total_events;
}

INSTANTIATE_TEST_SUITE_P(
    PoliciesAndCrashPoints, MdbCrash,
    ::testing::Values(
        CrashCase{core::PolicyKind::kEager, 0.05},
        CrashCase{core::PolicyKind::kEager, 0.50},
        CrashCase{core::PolicyKind::kEager, 0.95},
        CrashCase{core::PolicyKind::kLazy, 0.10},
        CrashCase{core::PolicyKind::kLazy, 0.55},
        CrashCase{core::PolicyKind::kLazy, 0.90},
        CrashCase{core::PolicyKind::kAtlas, 0.15},
        CrashCase{core::PolicyKind::kAtlas, 0.60},
        CrashCase{core::PolicyKind::kAtlas, 0.85},
        CrashCase{core::PolicyKind::kSoftCache, 0.20},
        CrashCase{core::PolicyKind::kSoftCache, 0.45},
        CrashCase{core::PolicyKind::kSoftCache, 0.80},
        CrashCase{core::PolicyKind::kSoftCacheOffline, 0.25},
        CrashCase{core::PolicyKind::kSoftCacheOffline, 0.65},
        CrashCase{core::PolicyKind::kSoftCacheOffline, 0.99}));

/// Dense sweep under the paper's policy: 25 crash points spread across the
/// run, every one must yield a committed snapshot.
void sweep_sc_crash_points(bool flush_behind) {
  core::PolicyConfig config;
  config.cache_size = 20;
  CrashRig dry =
      make_rig(core::PolicyKind::kSoftCacheOffline, config, flush_behind);
  RigApi dry_api(dry);
  const auto snapshots = run_script(dry_api, kTxns);
  const std::uint64_t total_events = dry.events();

  Rng rng(77);
  for (int round = 0; round < 25; ++round) {
    // Crash any time after the store was formatted (the ctor's first few
    // events persist the initial metas; before that there is no store to
    // recover, just as an interrupted mkfs leaves no filesystem).
    const std::uint64_t freeze_at = 10 + rng.below(total_events - 10);
    CrashRig crashed =
        make_rig(core::PolicyKind::kSoftCacheOffline, config, flush_behind);
    crashed.freeze_at(freeze_at);
    RigApi crashed_api(crashed);
    (void)run_script(crashed_api, kTxns);
    const auto image = crashed.durable_data(0);
    const Db::ImageContents contents =
        Db::read_image(image.data(), kSlabBytes);
    const auto it = snapshots.find(contents.txn);
    ASSERT_NE(it, snapshots.end()) << "freeze " << freeze_at;
    ASSERT_EQ(contents.pairs, it->second) << "freeze " << freeze_at;
  }
}

TEST(MdbCrash, ManyRandomCrashPointsUnderSc) { sweep_sc_crash_points(false); }

TEST(MdbCrash, ManyRandomCrashPointsUnderScWithFlushBehind) {
  // The same sweep with the write-backs queued on flush-behind rings,
  // written back only when a ring overflows or a FASE end or barrier
  // drains it.
  sweep_sc_crash_points(true);
}

TEST(MdbCrash, BestPolicyLosesEverything) {
  // Sanity: under BEST (no flushes ever), a crash leaves no intact meta.
  core::PolicyConfig config;
  CrashRig rig = make_rig(core::PolicyKind::kBest, config);
  rig.freeze_at(0);  // nothing ever durable
  RigApi api(rig);
  (void)run_script(api, 5);
  const auto image = rig.durable_data(0);
  EXPECT_DEATH((void)Db::read_image(image.data(), kSlabBytes),
               "no intact meta");
}

}  // namespace
}  // namespace nvc::mdb
