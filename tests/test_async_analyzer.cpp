// Tests for the asynchronous burst-analysis pipeline: the background
// AnalysisWorker, the sampler's O(1) burst handoff, and the SC policy's
// deferred FASE-boundary resize. The whole file carries the `tsan` ctest
// label; build with -DNVC_SANITIZE=thread and run `ctest -L tsan` to check
// the handoff protocol under ThreadSanitizer.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <optional>
#include <thread>
#include <vector>

#include "core/analyzer.hpp"
#include "core/policy.hpp"
#include "core/sampler.hpp"
#include "core/write_cache.hpp"

namespace nvc::core {
namespace {

// A dense (already renamed) cyclic trace: ids 0..period-1 repeated.
std::vector<LineAddr> cyclic_trace(std::size_t n, LineAddr period) {
  std::vector<LineAddr> trace(n);
  for (std::size_t i = 0; i < n; ++i) {
    trace[i] = static_cast<LineAddr>(i % period);
  }
  return trace;
}

SamplerConfig sampler_config(std::uint64_t burst, bool async) {
  SamplerConfig config;
  config.burst_length = burst;
  config.knee.max_size = 50;
  config.async_analysis = async;
  return config;
}

void expect_same_mrc(const Mrc& a, const Mrc& b) {
  ASSERT_EQ(a.max_size(), b.max_size());
  const auto va = a.values();
  const auto vb = b.values();
  // Byte-identical, not approximately equal: both paths must run exactly the
  // same pipeline on exactly the same renamed trace.
  EXPECT_TRUE(std::equal(va.begin(), va.end(), vb.begin()));
}

/// Same model MRC, same exact MRC, same knee and the same placement.
void expect_same_analysis(const BurstAnalysis& a, const BurstAnalysis& b) {
  expect_same_mrc(a.mrc, b.mrc);
  expect_same_mrc(a.exact, b.exact);
  EXPECT_EQ(a.selection.chosen_size, b.selection.chosen_size);
  EXPECT_EQ(a.selection.model_size, b.selection.model_size);
  EXPECT_EQ(a.selection.had_knees, b.selection.had_knees);
  EXPECT_EQ(a.selection.candidates, b.selection.candidates);
}

BurstAnalysis last_analysis(const BurstSampler& sampler) {
  return {sampler.last_mrc(), sampler.last_exact_mrc(),
          sampler.last_selection()};
}

// --- AnalysisWorker / AnalysisChannel ----------------------------------------

TEST(AnalysisWorker, WorkerResultMatchesDirectAnalysis) {
  const auto trace = cyclic_trace(512, 9);
  KneeConfig knee;
  knee.max_size = 50;
  const BurstAnalysis direct = analyze_burst(trace, knee);

  auto channel = AnalysisWorker::shared().open_channel();
  ASSERT_TRUE(channel->submit(std::vector<LineAddr>(trace), knee));
  channel->drain();
  EXPECT_TRUE(channel->idle());
  EXPECT_EQ(channel->completed(), 1u);
  auto result = channel->take_result();
  ASSERT_TRUE(result.has_value());
  expect_same_analysis(*result, direct);
  EXPECT_FALSE(channel->take_result().has_value());  // consumed
  channel->close();
}

TEST(AnalysisWorker, AnalysisRunsOffTheSubmittingThread) {
  auto channel = AnalysisWorker::shared().open_channel();
  KneeConfig knee;
  knee.max_size = 20;
  ASSERT_TRUE(channel->submit(cyclic_trace(256, 7), knee));
  channel->drain();
  EXPECT_NE(channel->last_analysis_thread(), std::this_thread::get_id());
  channel->close();
}

TEST(AnalysisWorker, ServesManyJobsFromOneChannel) {
  auto channel = AnalysisWorker::shared().open_channel();
  KneeConfig knee;
  knee.max_size = 20;
  std::uint64_t accepted = 0;
  for (int i = 0; i < 100; ++i) {
    std::vector<LineAddr> trace = cyclic_trace(128, 5);
    if (channel->submit(std::move(trace), knee)) {
      ++accepted;
    } else {
      // Ring full: the burst is handed back intact for the sync fallback.
      EXPECT_EQ(trace.size(), 128u);
    }
    if (i % 8 == 7) channel->drain();
  }
  channel->drain();
  EXPECT_EQ(channel->completed(), accepted);
  EXPECT_TRUE(channel->idle());
  channel->close();
}

TEST(AnalysisWorker, ChannelsCompleteEverySubmission) {
  // Two producers, one private worker: every submission on each channel is
  // analyzed and published, and each channel's last result is available.
  AnalysisWorker worker;
  auto ch0 = worker.open_channel();
  auto ch1 = worker.open_channel();

  constexpr int kJobs = 6;
  const auto produce = [](AnalysisChannel& ch, LineAddr working_set) {
    for (int j = 0; j < kJobs; ++j) {
      auto burst = cyclic_trace(256, working_set);
      while (!ch.submit(std::move(burst), KneeConfig{})) {
        std::this_thread::yield();
      }
    }
    ch.drain();
  };
  std::thread p0([&] { produce(*ch0, 16); });
  std::thread p1([&] { produce(*ch1, 8); });
  p0.join();
  p1.join();

  for (const auto& ch : {ch0, ch1}) {
    EXPECT_TRUE(ch->idle());
    EXPECT_EQ(ch->completed(), static_cast<std::uint64_t>(kJobs));
    EXPECT_TRUE(ch->take_result().has_value());
    ch->close();
  }
}

TEST(AnalysisWorker, ManualChannelInvisibleToTheWorker) {
  AnalysisWorker worker;
  auto manual = worker.open_manual_channel();
  ASSERT_TRUE(manual->submit(cyclic_trace(128, 8), KneeConfig{}));
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_EQ(manual->completed(), 0u) << "the worker served a manual channel";
  EXPECT_TRUE(manual->pump_one());
  EXPECT_EQ(manual->completed(), 1u);
  EXPECT_EQ(manual->last_analysis_thread(), std::this_thread::get_id());
  manual->close();
}

TEST(AnalysisWorker, ResultSlotHoldsTheNewestAnalysis) {
  // Three bursts with different working sets go through one channel; after
  // the drain the slot holds the last one's analysis, not an earlier one.
  KneeConfig knee;
  knee.max_size = 50;
  auto channel = AnalysisWorker::shared().open_channel();
  for (const LineAddr period : {4, 13, 29}) {
    ASSERT_TRUE(channel->submit(cyclic_trace(512, period), knee));
  }
  channel->drain();
  EXPECT_EQ(channel->completed(), 3u);
  const BurstAnalysis newest = analyze_burst(cyclic_trace(512, 29), knee);
  auto result = channel->take_result();
  ASSERT_TRUE(result.has_value());
  expect_same_analysis(*result, newest);
  channel->close();
}

TEST(AnalysisWorker, FullRingHandsTheTraceBack) {
  // On a manual channel nothing consumes until the owner pumps, so the
  // ring fills exactly: the next submit fails and returns the burst intact
  // for the synchronous fallback, and a pump frees one slot.
  AnalysisWorker worker;
  auto manual = worker.open_manual_channel();
  std::uint64_t accepted = 0;
  std::vector<LineAddr> trace = cyclic_trace(64, 5);
  while (manual->submit(std::move(trace), KneeConfig{})) {
    ++accepted;
    ASSERT_LE(accepted, 1024u) << "the analysis ring never filled";
    trace = cyclic_trace(64, 5);
  }
  EXPECT_GT(accepted, 0u);
  EXPECT_EQ(trace, cyclic_trace(64, 5)) << "a rejected burst was not returned";
  EXPECT_FALSE(manual->idle());
  EXPECT_TRUE(manual->pump_one());
  EXPECT_TRUE(manual->submit(std::move(trace), KneeConfig{}));
  manual->drain();
  EXPECT_EQ(manual->completed(), accepted + 1);
  manual->close();
}

TEST(AnalysisWorker, ManualDrainRunsEveryJobOnTheCallingThread) {
  // With no worker serving it, a manual channel's drain() is the consumer:
  // it pumps every queued job on the caller's thread rather than waiting.
  AnalysisWorker worker;
  auto manual = worker.open_manual_channel();
  for (const LineAddr period : {3, 6, 9}) {
    ASSERT_TRUE(manual->submit(cyclic_trace(128, period), KneeConfig{}));
  }
  manual->drain();
  EXPECT_TRUE(manual->idle());
  EXPECT_EQ(manual->completed(), 3u);
  EXPECT_EQ(manual->last_analysis_thread(), std::this_thread::get_id());
  EXPECT_TRUE(manual->take_result().has_value());
  manual->close();
}

TEST(AnalysisWorker, ChannelDroppedWithAJobInFlightIsServedThenPruned) {
  // A producer may go away with a burst still queued: the worker keeps the
  // channel alive, serves the job, and drops the closed channel at a later
  // pass. The worker wakes only for jobs, so a second producer's bursts
  // drive those passes.
  AnalysisWorker worker;
  auto channel = worker.open_channel();
  auto keeper = worker.open_channel();
  const std::weak_ptr<AnalysisChannel> ref = channel;
  ASSERT_TRUE(channel->submit(cyclic_trace(256, 11), KneeConfig{}));
  channel->close();
  channel.reset();
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(20);
  while (!ref.expired() && std::chrono::steady_clock::now() < deadline) {
    ASSERT_TRUE(keeper->submit(cyclic_trace(32, 3), KneeConfig{}));
    keeper->drain();
  }
  EXPECT_TRUE(ref.expired()) << "the worker kept a closed channel alive";
  keeper->close();
}

// --- BurstSampler async mode --------------------------------------------------

TEST(AsyncSampler, MatchesSyncByteIdentical) {
  constexpr std::uint64_t kBurst = 1200;
  BurstSampler sync_sampler(sampler_config(kBurst, false));
  BurstSampler async_sampler(sampler_config(kBurst, true));

  std::optional<std::size_t> sync_selected;
  for (std::uint64_t i = 0; i < kBurst; ++i) {
    const LineAddr line = static_cast<LineAddr>(i % 12);
    if (auto s = sync_sampler.on_store(line)) sync_selected = s;
    EXPECT_FALSE(async_sampler.on_store(line).has_value());
    if (i % 64 == 63) {
      sync_sampler.on_fase_boundary();
      async_sampler.on_fase_boundary();
    }
  }
  ASSERT_TRUE(sync_selected.has_value());

  async_sampler.drain();
  const auto async_selected = async_sampler.poll_selection();
  ASSERT_TRUE(async_selected.has_value());
  EXPECT_EQ(*async_selected, *sync_selected);
  EXPECT_EQ(async_sampler.bursts_completed(), 1u);
  expect_same_analysis(last_analysis(async_sampler),
                       last_analysis(sync_sampler));
}

TEST(AsyncSampler, MultiBurstEquivalenceWithHibernation) {
  auto config = sampler_config(300, false);
  config.hibernation_length = 150;
  BurstSampler sync_sampler(config);
  config.async_analysis = true;
  BurstSampler async_sampler(config);

  int bursts_seen = 0;
  for (std::uint64_t i = 0; i < 3000; ++i) {
    // Shifting working set so consecutive bursts select different sizes.
    const LineAddr line = static_cast<LineAddr>(i % (8 + 4 * (i / 1000)));
    const auto sync_sel = sync_sampler.on_store(line);
    EXPECT_FALSE(async_sampler.on_store(line).has_value());
    if (sync_sel) {
      // The sync path just finished a burst, so the async path just handed
      // the identical burst off. Drain before continuing so both samplers
      // leave hibernation at the same write index.
      async_sampler.drain();
      const auto async_sel = async_sampler.poll_selection();
      ASSERT_TRUE(async_sel.has_value());
      EXPECT_EQ(*async_sel, *sync_sel);
      expect_same_analysis(last_analysis(async_sampler),
                           last_analysis(sync_sampler));
      ++bursts_seen;
    }
    if (i % 64 == 63) {
      sync_sampler.on_fase_boundary();
      async_sampler.on_fase_boundary();
    }
  }
  EXPECT_GE(bursts_seen, 3);
  EXPECT_EQ(async_sampler.bursts_completed(),
            sync_sampler.bursts_completed());
}

TEST(KneePlacement, SyncAsyncAndOfflinePlaceIdentically) {
  // FASEs in two phases (a 2-line loop, then a 10-line loop): the model's
  // knee is left of the exact cliff, so every path must move it the same
  // way, from the same exact MRC.
  std::vector<LineAddr> trace;
  std::vector<std::size_t> boundaries;
  for (int f = 0; f < 6; ++f) {
    for (LineAddr i = 0; i < 1000; ++i) trace.push_back(100 + i % 2);
    for (LineAddr i = 0; i < 1500; ++i) trace.push_back(200 + i % 10);
    boundaries.push_back(trace.size());
  }
  boundaries.pop_back();  // the trace ends inside its last FASE
  const auto burst = static_cast<std::uint64_t>(trace.size());
  BurstSampler sync_sampler(sampler_config(burst, false));
  BurstSampler async_sampler(sampler_config(burst, true));
  std::size_t next = 0;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    if (next < boundaries.size() && boundaries[next] == i) {
      sync_sampler.on_fase_boundary();
      async_sampler.on_fase_boundary();
      ++next;
    }
    sync_sampler.on_store(trace[i]);
    async_sampler.on_store(trace[i]);
  }
  async_sampler.drain();
  ASSERT_TRUE(async_sampler.poll_selection().has_value());
  ASSERT_EQ(sync_sampler.bursts_completed(), 1u);

  BurstAnalysis offline;
  offline.selection = BurstSampler::analyze_offline(
      trace, boundaries, sampler_config(burst, false).knee, &offline.mrc,
      &offline.exact);

  const BurstAnalysis sync = last_analysis(sync_sampler);
  EXPECT_LT(sync.selection.model_size, sync.selection.chosen_size);
  expect_same_analysis(last_analysis(async_sampler), sync);
  expect_same_analysis(offline, sync);
}

TEST(AsyncSampler, PollIsEmptyInSyncMode) {
  BurstSampler sampler(sampler_config(100, false));
  for (int i = 0; i < 250; ++i) {
    sampler.on_store(static_cast<LineAddr>(i % 5));
    EXPECT_FALSE(sampler.poll_selection().has_value());
  }
  EXPECT_FALSE(sampler.analysis_in_flight());
  sampler.drain();  // no-op, must not block
}

TEST(AsyncSampler, BurstEndDoesNotBlockOnStore) {
  // The handoff is O(1): the store completing the burst returns before the
  // analysis finishes, so the selection cannot be visible yet without a
  // drain. (micro_gbench measures the latency itself.)
  BurstSampler sampler(sampler_config(1 << 14, true));
  for (std::uint64_t i = 0; i < (1u << 14); ++i) {
    EXPECT_FALSE(sampler.on_store(static_cast<LineAddr>(i % 500)).has_value());
  }
  EXPECT_FALSE(sampler.sampling());  // burst over, hibernating
  sampler.drain();
  EXPECT_TRUE(sampler.poll_selection().has_value());
}

TEST(AsyncSampler, HibernationReEnableReReservesTraceBuffer) {
  for (const bool async : {false, true}) {
    auto config = sampler_config(128, async);
    config.hibernation_length = 64;
    BurstSampler sampler(config);
    EXPECT_GE(sampler.trace_capacity(), 128u);
    for (int i = 0; i < 128; ++i) {
      sampler.on_store(static_cast<LineAddr>(i % 6));
    }
    // Burst over: the buffer was shrunk (sync) or moved into the channel
    // (async) — either way the capacity is gone.
    EXPECT_EQ(sampler.trace_capacity(), 0u) << "async=" << async;
    sampler.drain();
    for (int i = 0; i < 64; ++i) {
      sampler.on_store(static_cast<LineAddr>(i % 6));
    }
    // Sampling re-enabled: the full burst reservation must be back so the
    // new burst does not re-grow through repeated reallocation.
    EXPECT_TRUE(sampler.sampling()) << "async=" << async;
    EXPECT_GE(sampler.trace_capacity(), 128u) << "async=" << async;
  }
}

// --- SoftCachePolicy deferred resize -----------------------------------------

PolicyConfig policy_config(std::uint64_t burst, bool async) {
  PolicyConfig config;
  config.sampler = sampler_config(burst, async);
  return config;
}

// Expected post-burst size from an identically driven synchronous policy.
std::size_t sync_selected_size(std::uint64_t burst) {
  SoftCachePolicy policy(policy_config(burst, false), /*online=*/true);
  CountingSink sink;
  for (std::uint64_t i = 0; i < burst; ++i) {
    policy.on_store(static_cast<LineAddr>(i % 12), sink);
  }
  return policy.current_cache_size();
}

TEST(AsyncPolicy, DefersResizeToNextFaseEnd) {
  constexpr std::uint64_t kBurst = 600;
  const std::size_t expected = sync_selected_size(kBurst);
  ASSERT_NE(expected, WriteCache::kDefaultCapacity)
      << "workload must actually change the size for this test to bite";

  SoftCachePolicy policy(policy_config(kBurst, true), /*online=*/true);
  CountingSink sink;
  policy.on_fase_begin(sink);
  for (std::uint64_t i = 0; i < kBurst; ++i) {
    policy.on_store(static_cast<LineAddr>(i % 12), sink);
  }
  // Burst handed off: the old size stays, even once the analysis result has
  // landed, until the policy crosses a FASE boundary.
  EXPECT_EQ(policy.current_cache_size(), WriteCache::kDefaultCapacity);
  policy.drain_analysis();
  EXPECT_FALSE(policy.sampler().analysis_in_flight());
  EXPECT_EQ(policy.current_cache_size(), WriteCache::kDefaultCapacity);

  policy.on_fase_end(sink);
  EXPECT_EQ(policy.current_cache_size(), expected);
}

TEST(AsyncPolicy, AppliesAtFaseBeginToo) {
  constexpr std::uint64_t kBurst = 600;
  const std::size_t expected = sync_selected_size(kBurst);

  SoftCachePolicy policy(policy_config(kBurst, true), /*online=*/true);
  CountingSink sink;
  for (std::uint64_t i = 0; i < kBurst; ++i) {
    policy.on_store(static_cast<LineAddr>(i % 12), sink);
  }
  policy.drain_analysis();
  EXPECT_EQ(policy.current_cache_size(), WriteCache::kDefaultCapacity);
  policy.on_fase_begin(sink);
  EXPECT_EQ(policy.current_cache_size(), expected);
}

TEST(AsyncPolicy, FinishDrainsInFlightAnalysis) {
  constexpr std::uint64_t kBurst = 600;
  const std::size_t expected = sync_selected_size(kBurst);

  SoftCachePolicy policy(policy_config(kBurst, true), /*online=*/true);
  CountingSink sink;
  for (std::uint64_t i = 0; i < kBurst; ++i) {
    policy.on_store(static_cast<LineAddr>(i % 12), sink);
  }
  // Shutdown immediately after the burst handoff: finish() must wait for the
  // background analysis and apply its selection rather than dropping it.
  policy.finish(sink);
  EXPECT_EQ(policy.current_cache_size(), expected);
  EXPECT_EQ(policy.sampler().bursts_completed(), 1u);
}

TEST(AsyncPolicy, SyncAndAsyncConvergeOnIdenticalRuns) {
  // Full end-to-end equivalence: same stores, same FASE structure; after the
  // final boundary both modes run with the same cache size and have seen the
  // same number of bursts.
  constexpr std::uint64_t kStores = 4000;
  auto run = [](bool async) {
    auto config = policy_config(500, async);
    config.sampler.hibernation_length = 250;
    SoftCachePolicy policy(config, /*online=*/true);
    CountingSink sink;
    for (std::uint64_t i = 0; i < kStores; ++i) {
      policy.on_fase_begin(sink);
      for (int j = 0; j < 40; ++j) {
        policy.on_store(static_cast<LineAddr>((i * 40 + j) % 15), sink);
      }
      policy.on_fase_end(sink);
      if (async) policy.drain_analysis();  // keep burst alignment exact
    }
    policy.finish(sink);
    return std::pair{policy.current_cache_size(),
                     policy.sampler().bursts_completed()};
  };
  const auto [sync_size, sync_bursts] = run(false);
  const auto [async_size, async_bursts] = run(true);
  EXPECT_EQ(async_size, sync_size);
  EXPECT_EQ(async_bursts, sync_bursts);
  EXPECT_GE(sync_bursts, 2u);
}

}  // namespace
}  // namespace nvc::core
