// kv-strict and kv-batched-async: a benchmark-owned table of 64-byte records
// updated in place through Runtime::pstore inside FASEs, the Atlas usage
// pattern and the only workloads that reach runtime/undo_log. The table is
// far larger than the software cache and keys are skewed (key = N * u^3).
// 90% of txns move balance between 8 records (two pstores each, deltas
// summing to zero); 10% read back, without a FASE, the 8 records the last
// update txn wrote, after evicting their lines and letting the write-backs
// drain: a read from memory. Which
// records a read finds cached otherwise depends on the flush instruction
// and on other tenants' cache use, and moved read latency by up to 45%
// between runs; a read of lines still in L1 is too short to time stably.
//
// Oracles: every read matches a DRAM model, the balance sum is invariant,
// and the final table equals the model. kv-strict then runs crash cycles:
// a forked child commits a seeded number of txns and SIGKILLs itself at a
// seeded store of the next one; the parent reopens, recovers, and the
// table must hold exactly the committed prefix. The backing files keep
// unflushed bytes, so this checks undo rollback, not flush ordering.
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <array>
#include <cstring>
#include <memory>

#include "bench.hpp"
#include "common/rng.hpp"

namespace nvc::e2e {

namespace {

constexpr std::size_t kTxnRecords = 8;
constexpr int kCrashCycles = 20;
constexpr std::uint64_t kRootMagic = 0x4532454b56524f4fULL;
/// Wait between evicting a read txn's records and reading them. The records
/// were just written, so eviction writes them back; a read issued at once
/// queues behind those write-backs in the memory controller, and under
/// memory traffic from other processes that wait set the read tail. With two
/// processes writing at random over 256 MB each on the other CPUs of a 4-vCPU
/// Xeon VM, read_p99_us went from 0.39 to 0.73 us, against 0.42 to 0.46 us
/// with the wait.
constexpr double kSettleSeconds = 2e-6;

struct alignas(64) Record {
  std::int64_t balance = 0;
  std::uint64_t stamp = 0;  // id of the last txn that wrote the record
  std::uint64_t key = 0;
};
static_assert(sizeof(Record) == 64);

struct Root {
  std::uint64_t magic;
  std::uint64_t records;
  pmem::POffset table;
};

struct Txn {
  bool read = false;
  std::array<std::uint64_t, kTxnRecords> keys{};
  std::array<std::int64_t, kTxnRecords> delta{};
};

class TxnGen {
 public:
  TxnGen(std::uint64_t seed, std::uint64_t records)
      : rng_(seed), records_(records) {}

  Txn next() {
    Txn t;
    t.read = rng_.below(10) == 0;
    if (t.read) return t;  // reads the last update's records
    std::int64_t sum = 0;
    for (std::size_t i = 0; i < kTxnRecords; ++i) {
      const double u = rng_.uniform();
      t.keys[i] = std::min(
          records_ - 1,
          static_cast<std::uint64_t>(static_cast<double>(records_) * u * u * u));
      t.delta[i] = i + 1 < kTxnRecords
                       ? static_cast<std::int64_t>(rng_.below(201)) - 100
                       : -sum;
      sum += t.delta[i];
    }
    return t;
  }

  Txn next_update() {
    Txn t = next();
    while (t.read) t = next();
    return t;
  }

 private:
  Rng rng_;
  std::uint64_t records_;
};

struct Model {
  std::vector<std::int64_t> balance;
  std::vector<std::uint64_t> stamp;
  std::int64_t total = 0;

  Model(std::uint64_t records, std::uint64_t seed)
      : balance(records), stamp(records, 0) {
    Rng rng(seed);
    for (auto& b : balance) {
      b = static_cast<std::int64_t>(rng.below(10000));
      total += b;
    }
  }

  void apply(const Txn& t, std::uint64_t id) {
    for (std::size_t i = 0; i < kTxnRecords; ++i) {
      balance[t.keys[i]] += t.delta[i];
      stamp[t.keys[i]] = id;
    }
  }
};

/// How run_update deviates from a plain txn (crash cycles, planted bugs).
struct UpdatePlan {
  int kill_after = 0;           // SIGKILL after this many stores (0 = never)
  bool unlogged_first = false;  // first store bypasses the undo log
  bool drop_last = false;       // the last balance store never happens
};

void run_update(BenchApi& api, Record* table, const Txn& t, std::uint64_t id,
                const UpdatePlan& plan) {
  api.fase_begin(0);
  int stores = 0;
  auto store = [&](void* dst, const void* src) {
    if (plan.unlogged_first && stores == 0) {
      std::memcpy(dst, src, sizeof(std::uint64_t));
    } else {
      api.pstore(dst, src, sizeof(std::uint64_t));
    }
    if (++stores == plan.kill_after) ::raise(SIGKILL);
  };
  for (std::size_t i = 0; i < kTxnRecords; ++i) {
    Record& r = table[t.keys[i]];
    const std::int64_t balance = r.balance + t.delta[i];
    if (!(plan.drop_last && i + 1 == kTxnRecords)) store(&r.balance, &balance);
    store(&r.stamp, &id);
  }
  api.fase_end(0);
}

/// Allocate the table, load the model's initial state with plain stores and
/// write it back through a pmem flush backend (a bulk load, outside any
/// FASE), then publish the root.
Record* load(BenchApi& api, const Model& model,
             const runtime::RuntimeConfig& config) {
  const std::uint64_t records = model.balance.size();
  auto* root = static_cast<Root*>(api.alloc(0, sizeof(Root)));
  auto* table = static_cast<Record*>(api.alloc(0, records * sizeof(Record)));
  for (std::uint64_t i = 0; i < records; ++i) {
    table[i] = Record{model.balance[i], 0, i};
  }
  pmem::PmemAllocator& heap = api.runtime().allocator();
  *root = Root{kRootMagic, records, heap.offset_of(table)};
  pmem::FlushBackend loader(config.flush, config.simulated_flush_ns);
  loader.flush_range(table, records * sizeof(Record));
  loader.flush_range(root, sizeof(Root));
  loader.fence();
  api.runtime().set_root(root);
  return table;
}

Record* open_table(runtime::Runtime& rt) {
  const auto* root = static_cast<const Root*>(rt.get_root());
  NVC_REQUIRE(root != nullptr && root->magic == kRootMagic, "kv root missing");
  return rt.allocator().resolve<Record>(root->table);
}

/// Records whose balance or stamp differ from the model.
std::uint64_t mismatches(const Record* table, const Model& model) {
  std::uint64_t wrong = 0;
  for (std::size_t i = 0; i < model.balance.size(); ++i) {
    if (table[i].balance != model.balance[i] ||
        table[i].stamp != model.stamp[i]) {
      ++wrong;
    }
  }
  return wrong;
}

void check_table(const Record* table, const Model& model, const char* when,
                 Pass& pass) {
  std::int64_t sum = 0;
  for (std::size_t i = 0; i < model.balance.size(); ++i) sum += table[i].balance;
  if (sum != model.total) {
    pass.fail(std::string("balance sum ") + when + " is " + std::to_string(sum) +
              ", want " + std::to_string(model.total));
  }
  if (const std::uint64_t wrong = mismatches(table, model); wrong != 0) {
    pass.fail(std::to_string(wrong) + " records differ from the model " + when,
              wrong);
  }
}

void crash_cycles(const Options& options, runtime::RuntimeConfig config,
                  Model& model, std::uint64_t next_id, Pass& pass) {
  config.fresh = false;
  for (int cycle = 0; cycle < kCrashCycles; ++cycle) {
    Rng plan_rng(options.seed * 7919 + static_cast<std::uint64_t>(cycle));
    const std::uint64_t committed = 1 + plan_rng.below(32);
    UpdatePlan fatal;
    fatal.kill_after = 1 + static_cast<int>(plan_rng.below(2 * kTxnRecords));
    fatal.unlogged_first = options.planted("kv-crash");
    const std::uint64_t gen_seed = plan_rng();

    std::fflush(nullptr);
    const pid_t pid = ::fork();
    if (pid < 0) {
      pass.fail("fork failed");
      return;
    }
    if (pid == 0) {
      runtime::Runtime rt(config);
      BenchApi api(rt);
      Record* table = open_table(rt);
      TxnGen gen(gen_seed, model.balance.size());
      for (std::uint64_t i = 0; i < committed; ++i) {
        run_update(api, table, gen.next_update(), next_id + i, UpdatePlan{});
      }
      run_update(api, table, gen.next_update(), next_id + committed, fatal);
      ::_exit(3);  // not reached: the fatal txn kills the process
    }
    int status = 0;
    ::waitpid(pid, &status, 0);
    if (!WIFSIGNALED(status) || WTERMSIG(status) != SIGKILL) {
      pass.fail("crash child did not die at its planned store");
    }

    const auto t0 = ticks();
    runtime::Runtime rt(config);
    const bool needed = rt.needs_recovery();
    const std::size_t undone = rt.recover();
    pass.recover_ms.push_back(seconds_since(t0) * 1e3);
    pass.records_undone.push_back(static_cast<double>(undone));
    if (!needed || undone == 0) {
      pass.fail("crash cycle " + std::to_string(cycle) +
                " left nothing to roll back");
    }

    TxnGen gen(gen_seed, model.balance.size());
    for (std::uint64_t i = 0; i < committed; ++i) {
      model.apply(gen.next_update(), next_id + i);
    }
    next_id += committed + 1;
    check_table(open_table(rt), model, "after crash recovery", pass);
  }
}

}  // namespace

Pass run_kv(const Options& options, Tracer* tracer, Recorder* recorder) {
  Pass pass;
  const bool strict = options.workload == "kv-strict";
  const std::uint64_t records = options.quick ? 50000 : 1000000;
  // Nominal txns: ~16 us each under strict logging, ~8 us batched + async.
  const std::uint64_t txns = options.scaled(strict ? 500000 : 1000000);
  const Model initial(records, options.seed * 17 + 3);

  // Set-up: a fresh runtime with the table loaded, five times; the last
  // one is the one measured.
  std::unique_ptr<runtime::Runtime> rt;
  std::unique_ptr<BenchApi> api;
  Record* table = nullptr;
  runtime::RuntimeConfig config;
  for (int i = 0; i < 5; ++i) {
    if (rt != nullptr) {
      pass.alloc_us.insert(pass.alloc_us.end(), api->alloc_us().begin(),
                           api->alloc_us().end());
      api.reset();
      rt->destroy_storage();
      rt.reset();
    }
    config = base_config(options, region_name(options, "setup" + std::to_string(i)),
                         records * sizeof(Record) + (8u << 20));
    config.undo_logging = true;
    config.log_sync = strict ? runtime::LogSyncMode::kStrict
                             : runtime::LogSyncMode::kBatched;
    config.async_flush = !strict;  // one flush worker
    const auto t0 = ticks();
    rt = std::make_unique<runtime::Runtime>(config);
    prefault(*rt);
    api = std::make_unique<BenchApi>(*rt);
    table = load(*api, initial, config);
    pass.setup_s.push_back(seconds_since(t0));
  }
  pass.alloc_us.insert(pass.alloc_us.end(), api->alloc_us().begin(),
                       api->alloc_us().end());

  Model model = initial;
  TxnGen gen(options.seed, records);
  std::array<Record, kTxnRecords> seen;
  Txn last;  // the last update txn
  pmem::FlushBackend evict(pmem::FlushKind::kClflush);
  api->trace_into(tracer, recorder);
  Windows windows;
  const auto t0 = ticks();
  windows.begin();
  for (std::uint64_t id = 1; id <= txns; ++id) {
    const Txn t = gen.next();
    if (!t.read) {
      UpdatePlan plan;
      plan.drop_last = options.planted("kv") && id % 1000 == 0;
      run_update(*api, table, t, id, plan);
      model.apply(t, id);
      last = t;
      windows.add(1);
      continue;
    }
    for (std::size_t i = 0; i < kTxnRecords; ++i) evict.flush(&table[last.keys[i]]);
    evict.fence();
    for (const auto e0 = ticks(); seconds_since(e0) < kSettleSeconds;) {
    }
    const auto r0 = op_start_ticks();
    for (std::size_t i = 0; i < kTxnRecords; ++i) seen[i] = table[last.keys[i]];
    pass.read_us.push_back(seconds_since(r0) * 1e6);
    for (std::size_t i = 0; i < kTxnRecords; ++i) {
      const std::uint64_t k = last.keys[i];
      if (seen[i].balance != model.balance[k] || seen[i].stamp != model.stamp[k]) {
        pass.fail("read of record " + std::to_string(k) + " disagrees with the model");
      }
    }
    windows.add(1);
  }
  windows.end();
  pass.wall_s = seconds_since(t0);
  pass.window_rates = windows.rates();
  api->trace_into(nullptr, nullptr);
  pass.peak_rss_mb = peak_rss_mb();

  pass.add_stats(rt->stats());
  pass.ops = txns;
  pass.user_bytes = api->user_bytes();
  pass.store_calls = api->store_calls();
  pass.fase_us = api->fase_us();
  check_table(table, model, "after the timed phase", pass);

  api.reset();
  rt.reset();  // clean shutdown seals the image
  if (strict) {
    crash_cycles(options, config, model, txns + 1, pass);
  } else {
    clean_restarts(config, 3, pass);
  }
  destroy_regions(config);
  return pass;
}

}  // namespace nvc::e2e
