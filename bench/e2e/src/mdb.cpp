// mdb: the paper's Mtest shape driven on mdb::Db by the benchmark. Write
// txns of 10 random puts, a delete every 4th txn, and after each commit 10
// point gets of keys the txn put plus a 64-key scan from a random key every
// 16th txn. Durability comes from copy-on-write pages and persist_barrier,
// so no undo log. Every get and scan is checked against a std::map model,
// and the final durable image must hold exactly the model.
//
// The gets read back the txn's own keys, whose pages the commit just wrote:
// a get of a random key lands on a leaf that is cached or not depending on
// how far the tree has grown and on other tenants' cache use, and its
// latency then drifts threefold through a run.
#include <array>
#include <map>
#include <memory>
#include <optional>

#include "bench.hpp"
#include "common/rng.hpp"
#include "mdb/btree.hpp"

namespace nvc::e2e {

namespace {

struct Instance {
  std::unique_ptr<runtime::Runtime> rt;
  std::unique_ptr<BenchApi> api;
  std::unique_ptr<mdb::Db> db;

  /// Tear down users before the runtime they point into.
  void close() {
    db.reset();
    api.reset();
    rt.reset();
  }
};

void collect(mdb::Key key, mdb::Value value, void* out) {
  static_cast<std::vector<std::pair<mdb::Key, mdb::Value>>*>(out)->emplace_back(
      key, value);
}

}  // namespace

Pass run_mdb(const Options& options, Tracer* tracer, Recorder* recorder) {
  Pass pass;
  constexpr std::size_t kPuts = 10;
  const std::uint64_t txns = options.scaled(20000);  // 200k puts
  // The tree plus copy-on-write churn peaks near 1100 pages; set-up faults
  // in the whole region, so the slab is sized close to that.
  constexpr std::size_t kMaxPages = 4096;
  const std::size_t region_bytes = kMaxPages * mdb::kPageSize + (2u << 20);

  // Set-up: a fresh runtime holding an empty Db, 16 times; the last one is
  // the one measured.
  Instance db;
  runtime::RuntimeConfig config;
  for (int i = 0; i < 16; ++i) {
    if (db.rt != nullptr) {
      pass.alloc_us.insert(pass.alloc_us.end(), db.api->alloc_us().begin(),
                           db.api->alloc_us().end());
      db.close();
      destroy_regions(config);
    }
    config = base_config(options, region_name(options, "setup" + std::to_string(i)),
                         region_bytes);
    const auto t0 = ticks();
    db.rt = std::make_unique<runtime::Runtime>(config);
    prefault(*db.rt);
    db.api = std::make_unique<BenchApi>(*db.rt);
    db.db = std::make_unique<mdb::Db>(*db.api, kMaxPages);
    pass.setup_s.push_back(seconds_since(t0));
  }
  pass.alloc_us.insert(pass.alloc_us.end(), db.api->alloc_us().begin(),
                       db.api->alloc_us().end());
  const std::size_t setup_fases = db.api->fase_us().size();
  const std::uint64_t setup_bytes = db.api->user_bytes();
  const runtime::RuntimeStats setup_stats = db.rt->stats();

  Rng rng(options.seed * 31 + 7);
  std::map<mdb::Key, mdb::Value> model;
  std::array<mdb::Key, kPuts> put{};  // this txn's keys
  std::vector<std::pair<mdb::Key, mdb::Value>> scanned;
  db.api->trace_into(tracer, recorder);
  Windows windows;
  const auto t0 = ticks();
  windows.begin();
  for (std::uint64_t txn = 0; txn < txns; ++txn) {
    {
      mdb::Db::WriteTxn w = db.db->begin_write(0);
      for (std::size_t i = 0; i < kPuts; ++i) {
        const mdb::Key key = rng();
        mdb::Value value = key * 2 + 1;
        model[key] = value;
        put[i] = key;
        // Planted bug: the store keeps a value the model never saw.
        if (options.planted("mdb") && txn % 1000 == 999 && i == 0) ++value;
        SpanScope span(tracer, SpanKind::kMdbPut);
        w.put(key, value);
      }
      if (txn % 4 == 3) {
        bool existed = false;
        {
          SpanScope span(tracer, SpanKind::kMdbDel);
          existed = w.del(put.back());
        }
        model.erase(put.back());
        if (!existed) pass.fail("delete missed a key put in the same txn");
      }
      SpanScope span(tracer, SpanKind::kMdbCommit);
      w.commit();
    }
    const mdb::Db::ReadTxn r = db.db->begin_read();
    for (std::size_t g = 0; g < kPuts; ++g) {
      const mdb::Key key = put[rng.below(kPuts)];
      const auto g0 = op_start_ticks();
      std::optional<mdb::Value> got;
      {
        SpanScope span(tracer, SpanKind::kMdbGet);
        got = r.get(key);
      }
      pass.read_us.push_back(seconds_since(g0) * 1e6);
      const auto it = model.find(key);
      const bool agrees = it == model.end()
                              ? !got.has_value()
                              : got.has_value() && *got == it->second;
      if (!agrees) {
        pass.fail("get(" + std::to_string(key) + ") disagrees with the model");
      }
    }
    if (txn % 16 == 15) {
      const mdb::Key from = rng();
      scanned.clear();
      {
        SpanScope span(tracer, SpanKind::kMdbScan);
        r.scan(from, 64, collect, &scanned);
      }
      std::vector<std::pair<mdb::Key, mdb::Value>> want;
      for (auto it = model.lower_bound(from);
           it != model.end() && want.size() < 64; ++it) {
        want.emplace_back(it->first, it->second);
      }
      if (scanned != want) {
        pass.fail("scan from " + std::to_string(from) + " returned " +
                  std::to_string(scanned.size()) + " pairs unlike the model's " +
                  std::to_string(want.size()));
      }
    }
    windows.add(1);
  }
  windows.end();
  pass.wall_s = seconds_since(t0);
  pass.window_rates = windows.rates();
  db.api->trace_into(nullptr, nullptr);
  pass.peak_rss_mb = peak_rss_mb();

  pass.add_stats(db.rt->stats(), setup_stats);
  pass.ops = txns;
  pass.user_bytes = db.api->user_bytes() - setup_bytes;
  pass.store_calls = db.api->store_calls();
  pass.fase_us.assign(db.api->fase_us().begin() +
                          static_cast<std::ptrdiff_t>(setup_fases),
                      db.api->fase_us().end());
  pass.page_copies_per_txn = static_cast<double>(db.db->stats().page_copies) /
                             static_cast<double>(txns);

  const BenchApi::Allocation slab = db.api->allocations().front();
  const mdb::Db::ImageContents image =
      mdb::Db::read_image(slab.base, slab.size);
  if (image.txn != txns) {
    pass.fail("durable image is at txn " + std::to_string(image.txn) +
              ", want " + std::to_string(txns));
  }
  if (image.pairs != model) {
    std::uint64_t wrong = 0;
    for (const auto& [key, value] : model) {
      const auto it = image.pairs.find(key);
      if (it == image.pairs.end() || it->second != value) ++wrong;
    }
    wrong += image.pairs.size() > model.size()
                 ? image.pairs.size() - model.size()
                 : 0;
    pass.fail("durable image differs from the model in " +
                  std::to_string(wrong) + " keys",
              wrong);
  }

  db.close();  // clean shutdown seals the image
  clean_restarts(config, 3, pass);
  destroy_regions(config);
  return pass;
}

}  // namespace nvc::e2e
