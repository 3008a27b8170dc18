#include "mdb/mtest.hpp"

#include <atomic>
#include <string>

#include "common/barrier.hpp"
#include "common/rng.hpp"
#include "mdb/btree.hpp"

namespace nvc::mdb {

namespace {

class MtestWorkload final : public workloads::Workload {
 public:
  explicit MtestWorkload(const MtestConfig& config) : config_(config) {}

  std::string name() const override { return "mdb"; }
  std::string problem_size(const workloads::WorkloadParams& p) const override {
    return std::to_string(inserts(p));
  }

  void run(workloads::PersistApi& api,
           const workloads::WorkloadParams& p) override {
    const std::uint64_t total = inserts(p);
    // Slab sized for the live tree plus COW churn (pages are recycled two
    // commits after being freed).
    const std::size_t max_pages = p.full ? 16384 : 4096;
    Db db(api, max_pages);

    const std::uint64_t per_thread = total / p.threads;
    ThreadTeam::run(p.threads, [&](std::size_t tid) {
      Rng rng(p.seed * 31 + tid);
      std::uint64_t batches = 0;
      for (std::uint64_t done = 0; done < per_thread;
           done += config_.batch, ++batches) {
        // One durable write transaction (= FASE) per batch of puts.
        {
          Db::WriteTxn txn = db.begin_write(tid);
          for (std::uint64_t i = 0; i < config_.batch; ++i) {
            const Key key = rng();
            txn.put(key, key * 2 + 1);
            last_key_.store(key, std::memory_order_relaxed);
          }
          if (batches % config_.delete_every == config_.delete_every - 1) {
            txn.del(last_key_.load(std::memory_order_relaxed));
          }
          txn.commit();
        }
        // Periodic snapshot traversal (parallel with writers in MDB).
        if (batches % config_.traverse_every ==
            config_.traverse_every - 1) {
          Db::ReadTxn read = db.begin_read();
          read.scan(rng(), config_.traversal_length);
          api.compute(tid, 12 * config_.traversal_length);
        }
      }
    });
  }

 private:
  std::uint64_t inserts(const workloads::WorkloadParams& p) const {
    return p.full ? config_.inserts_full : config_.inserts_quick;
  }

  MtestConfig config_;
  std::atomic<Key> last_key_{0};  // shared delete-candidate, like Mtest's mix
};

}  // namespace

std::unique_ptr<workloads::Workload> make_mdb_workload(
    const MtestConfig& config) {
  return std::make_unique<MtestWorkload>(config);
}

}  // namespace nvc::mdb
