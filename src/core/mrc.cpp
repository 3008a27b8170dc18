#include "core/mrc.hpp"

#include <algorithm>
#include <bit>

#include "common/assert.hpp"
#include "common/simd.hpp"
#include "core/write_cache.hpp"

namespace nvc::core {

double Mrc::at(std::size_t c) const {
  NVC_REQUIRE(c >= 1 && c <= mr_.size(), "cache size out of MRC range");
  return mr_[c - 1];
}

double Mrc::gradient(std::size_t c) const {
  NVC_REQUIRE(c >= 2 && c <= mr_.size());
  return mr_[c - 2] - mr_[c - 1];
}

Mrc mrc_from_reuse(const ReuseCurve& reuse, std::size_t max_size) {
  NVC_REQUIRE(max_size >= 1);
  const LogicalTime n = reuse.trace_length();
  std::vector<double> mr(max_size, 1.0);
  if (n < 2) return Mrc(std::move(mr));

  // Scattered model samples: c(k) = k - reuse(k) is nondecreasing in k, so a
  // single sweep assigns, for each integer size, the first sample at or past
  // it. hr(c) = reuse(k+1) - reuse(k)  =>  mr = 1 - hr (Eq. 3 / Eq. 6).
  std::size_t next_c = 1;
  for (LogicalTime k = 1; k < n && next_c <= max_size; ++k) {
    const double c = static_cast<double>(k) - reuse.at(k);
    const double hr = reuse.at(k + 1) - reuse.at(k);
    const double miss = std::clamp(1.0 - hr, 0.0, 1.0);
    while (next_c <= max_size && static_cast<double>(next_c) <= c) {
      mr[next_c - 1] = miss;
      ++next_c;
    }
  }
  // Sizes beyond the largest sampled c: extend with the final miss ratio.
  if (next_c > 1) {
    for (std::size_t c = next_c; c <= max_size; ++c) mr[c - 1] = mr[next_c - 2];
  }

  // Enforce LRU inclusion: non-increasing in cache size.
  for (std::size_t c = 1; c < max_size; ++c) {
    mr[c] = std::min(mr[c], mr[c - 1]);
  }
  return Mrc(std::move(mr));
}

namespace {

/// The live marks of the Mattson pass: time t is marked iff it is some
/// line's most recent access, so a reuse at time t of a line last accessed
/// at p has stack distance 1 + (marks in (p, t)), and every mark is older
/// than t. Marks are a bitset of 64-bit words under a 16-ary counting tree:
/// level 0 has one entry per word, level l + 1 one per group of 16 level-l
/// entries. A child joins its level once it is closed: a word when the
/// next one starts, a group when its last child closes. Each entry holds
/// the marks of the closed entries to its right within its group; the open
/// group of each level keeps its closed marks in open_[level] until it
/// closes.
///
/// take(p) walks up from p's word, reading one entry per level and
/// decrementing its group's lanes left of it (one 16-lane vector add), and
/// stops at the first level where p's group is the open one: the marks
/// after that are the open groups' totals below it plus the current word.
/// A reuse whose previous access is in the current word touches no tree,
/// one in the current 16-word group one level, and no walk is longer than
/// log16(n / 64) levels; there is no data-dependent branch inside a level.
class MarkSet {
 public:
  static constexpr std::size_t kFanout = 16;

  explicit MarkSet(std::size_t n)
      : words_(std::max<std::size_t>((n + 63) / 64, 1), 0) {
    std::size_t entries = words_.size();
    std::size_t size = 0;
    do {
      entries = (entries + kFanout - 1) / kFanout * kFanout;  // whole groups
      level_offsets_.push_back(size);
      size += entries;
      entries /= kFanout;
    } while (entries > 1);
    tree_.assign(size, 0);
    open_.assign(level_offsets_.size(), 0);
  }

  /// Count the marks after p, then clear p's own mark.
  std::uint64_t take(std::size_t p) {
    std::size_t index = p / 64;
    const std::uint64_t bit = std::uint64_t{1} << (p % 64);
    std::uint64_t count = static_cast<std::uint64_t>(
        std::popcount(words_[index] & ~(bit | (bit - 1))));
    words_[index] &= ~bit;
    if (index == current_) return count;
    // Marks in the open part after p's ancestor at the current level.
    auto open_after = static_cast<std::uint64_t>(
        std::popcount(words_[current_]));
    std::size_t current = current_;
    for (std::size_t level = 0;; ++level) {
      std::uint32_t* group = &tree_[level_offsets_[level] +
                                    (index & ~(kFanout - 1))];
      const auto lane = static_cast<std::uint32_t>(index % kFanout);
      count += group[lane];
      decrement_below_u32x16(group, lane);
      index /= kFanout;
      current /= kFanout;
      if (index == current) {  // p's group is this level's open group
        --open_[level];
        return count + open_after;
      }
      open_after += open_[level];
    }
  }

  /// Mark time t, the newest time so far.
  void set_newest(std::size_t t) {
    const std::size_t w = t / 64;
    if (w != current_) {
      close(current_);
      current_ = w;
    }
    words_[w] |= std::uint64_t{1} << (t % 64);
  }

 private:
  /// Word `index` is complete: its marks join level 0, and every group it
  /// completes joins the level above.
  void close(std::size_t index) {
    auto marks = static_cast<std::uint32_t>(std::popcount(words_[index]));
    for (std::size_t level = 0; level < level_offsets_.size(); ++level) {
      std::uint32_t* group = &tree_[level_offsets_[level] +
                                    (index & ~(kFanout - 1))];
      for (std::size_t k = 0; k < index % kFanout; ++k) group[k] += marks;
      open_[level] += marks;
      if (index % kFanout != kFanout - 1) return;
      marks = open_[level];
      open_[level] = 0;
      index /= kFanout;
    }
  }

  std::vector<std::uint64_t> words_;
  /// The levels one after another; entry i holds the marks of the closed
  /// entries right of i in its group of kFanout.
  std::vector<std::uint32_t> tree_;
  std::vector<std::size_t> level_offsets_;
  std::vector<std::uint32_t> open_;  // per level: the open group's marks
  std::size_t current_ = 0;          // the word the newest mark is in
};

}  // namespace

Mrc mrc_exact_from_intervals(std::span<const ReuseInterval> intervals,
                             LogicalTime n, std::size_t max_size) {
  NVC_REQUIRE(max_size >= 1);
  NVC_REQUIRE(n < (LogicalTime{1} << 32), "mark counts are 32-bit");
  // distance_hist[d] = accesses with stack distance exactly d (1-based);
  // the last bucket takes every distance > max_size, so the loop needs no
  // branch on it.
  std::vector<std::uint64_t> distance_hist(max_size + 2, 0);

  // Intervals come in order of their ends; an access that ends none is a
  // line's first (cold).
  MarkSet marks(static_cast<std::size_t>(n));
  std::size_t next = 0;
  for (LogicalTime t = 1; t <= n; ++t) {
    if (next < intervals.size() && intervals[next].e == t) {
      NVC_ASSERT(intervals[next].s < t, "interval ends before it starts");
      const std::uint64_t dist =
          marks.take(static_cast<std::size_t>(intervals[next].s - 1)) + 1;
      ++distance_hist[std::min<std::uint64_t>(dist, max_size + 1)];
      ++next;
    }
    marks.set_newest(static_cast<std::size_t>(t - 1));
  }
  NVC_REQUIRE(next == intervals.size(),
              "reuse intervals must be ordered by their ends within [1, n]");

  std::vector<double> mr(max_size, 1.0);
  if (n == 0) return Mrc(std::move(mr));
  // Misses at size c: every access but the reuses at distance <= c (a
  // cold access has no distance).
  std::uint64_t hits_within = 0;
  for (std::size_t c = 1; c <= max_size; ++c) {
    hits_within += distance_hist[c];
    mr[c - 1] = static_cast<double>(n - hits_within) / static_cast<double>(n);
  }
  return Mrc(std::move(mr));
}

Mrc mrc_exact_lru(std::span<const LineAddr> trace, std::size_t max_size) {
  return mrc_exact_from_intervals(intervals_of_trace(trace),
                                  static_cast<LogicalTime>(trace.size()),
                                  max_size);
}

Mrc mrc_simulate_write_cache(std::span<const LineAddr> trace,
                             std::span<const std::size_t> boundaries,
                             std::size_t max_size) {
  NVC_REQUIRE(max_size >= 1);
  std::vector<double> mr(max_size, 1.0);
  if (trace.empty()) return Mrc(std::move(mr));

  for (std::size_t c = 1; c <= max_size; ++c) {
    WriteCache cache(c);
    CountingSink sink;
    std::size_t next_boundary = 0;
    std::uint64_t hits = 0;
    for (std::size_t i = 0; i < trace.size(); ++i) {
      while (next_boundary < boundaries.size() &&
             boundaries[next_boundary] == i) {
        cache.flush_all(sink);
        ++next_boundary;
      }
      if (cache.access(trace[i], sink)) ++hits;
    }
    mr[c - 1] = 1.0 - static_cast<double>(hits) /
                          static_cast<double>(trace.size());
  }
  return Mrc(std::move(mr));
}

}  // namespace nvc::core
