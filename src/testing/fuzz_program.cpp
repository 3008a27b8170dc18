#include "testing/fuzz_program.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "common/rng.hpp"

namespace nvc::testing {
namespace {

/// Object sizes mix three regimes: sub-word stores, around-a-line stores,
/// and multi-line stores (which the undo log records in several pieces).
std::uint32_t pick_object_size(Rng& rng, std::uint32_t max_store) {
  const std::uint64_t r = rng.below(100);
  if (r < 30) return static_cast<std::uint32_t>(rng.range(1, 16));
  if (r < 70) return static_cast<std::uint32_t>(rng.range(17, 96));
  return static_cast<std::uint32_t>(rng.range(97, max_store));
}

struct CtxState {
  PmAddr bump = 0;                       // next free byte in the region
  int depth = 0;                         // open FASE nesting
  std::vector<std::uint32_t> live;       // allocatable targets for pstores
};

}  // namespace

const char* to_string(FuzzOpKind kind) {
  switch (kind) {
    case FuzzOpKind::kFaseBegin: return "fase_begin";
    case FuzzOpKind::kFaseEnd: return "fase_end";
    case FuzzOpKind::kPstore: return "pstore";
    case FuzzOpKind::kPersistBarrier: return "persist_barrier";
    case FuzzOpKind::kAlloc: return "alloc";
    case FuzzOpKind::kFree: return "free";
  }
  return "?";
}

std::vector<std::uint8_t> payload_bytes(std::uint64_t value_seed,
                                        std::size_t len) {
  std::vector<std::uint8_t> out(len);
  std::uint64_t sm = value_seed;
  std::uint64_t word = 0;
  for (std::size_t i = 0; i < len; ++i) {
    if (i % 8 == 0) word = splitmix64(sm);
    out[i] = static_cast<std::uint8_t>(word >> ((i % 8) * 8));
  }
  return out;
}

FuzzProgram generate_program(std::uint64_t seed,
                             const FuzzProgramConfig& config) {
  NVC_REQUIRE(config.max_contexts >= 1);
  NVC_REQUIRE(config.max_store >= 2);
  Rng rng(seed);
  FuzzProgram p;
  p.seed = seed;
  p.data_lines = config.data_lines;
  p.contexts = rng.range(1, config.max_contexts);
  const std::size_t region = p.data_bytes();

  std::vector<CtxState> ctxs(p.contexts);

  // Bump-allocate one object; false when the region is exhausted. A random
  // 0–7 byte gap before each object varies the starting alignment so store
  // footprints land on every phase of the 64-byte grid.
  auto try_alloc = [&](std::uint32_t c) {
    CtxState& st = ctxs[c];
    const PmAddr gap = rng.below(8);
    const std::uint32_t size = pick_object_size(rng, config.max_store);
    if (st.bump + gap + size > region) return false;
    st.bump += gap;
    const auto id = static_cast<std::uint32_t>(p.objects.size());
    p.objects.push_back(FuzzObject{c, st.bump, size});
    st.bump += size;
    st.live.push_back(id);
    p.ops.push_back(FuzzOp{FuzzOpKind::kAlloc, c, id, 0, size, 0});
    return true;
  };

  // Every context starts with at least one object so its first FASE has a
  // store target.
  for (std::uint32_t c = 0; c < p.contexts; ++c) {
    const std::size_t want = 1 + rng.below(2);
    for (std::size_t i = 0; i < want; ++i) (void)try_alloc(c);
    NVC_REQUIRE(!ctxs[c].live.empty(), "region too small for one object");
  }

  auto emit_pstore = [&](std::uint32_t c) {
    CtxState& st = ctxs[c];
    const std::uint32_t id =
        st.live[rng.below(st.live.size())];
    const FuzzObject& obj = p.objects[id];
    std::uint32_t offset;
    std::uint32_t len;
    // A third of the stores are forced to straddle a cache-line boundary
    // (start on the last byte of a line): the footprint splits across two
    // lines, so the policy sees two dirty lines and the hazard check in
    // the async path has two chances to fire mid-store.
    const std::uint32_t phase = static_cast<std::uint32_t>(
        (kCacheLineSize - 1 - obj.offset % kCacheLineSize) % kCacheLineSize);
    if (obj.size >= phase + 2 && rng.chance(0.33)) {
      offset = phase;
      len = static_cast<std::uint32_t>(rng.range(2, obj.size - offset));
    } else {
      offset = static_cast<std::uint32_t>(rng.below(obj.size));
      len = static_cast<std::uint32_t>(rng.range(1, obj.size - offset));
    }
    if (len > config.max_store) len = config.max_store;
    p.ops.push_back(FuzzOp{FuzzOpKind::kPstore, c, id, offset, len, rng()});
  };

  // A run of 2-6 pstores to one byte range inside one cache line, split by
  // a persist_barrier() or an outermost FASE end (plus a fresh begin). The
  // policy's repeat-store lane is armed across the run and must disarm at
  // the split: the stores after it re-dirty a line that was just flushed,
  // and that line must be written back again before the next commit.
  auto emit_repeat_run = [&](std::uint32_t c) {
    CtxState& st = ctxs[c];
    const std::uint32_t id = st.live[rng.below(st.live.size())];
    const FuzzObject& obj = p.objects[id];
    const auto offset = static_cast<std::uint32_t>(rng.below(obj.size));
    const auto to_line_end = static_cast<std::uint32_t>(
        kCacheLineSize - (obj.offset + offset) % kCacheLineSize);
    const std::uint32_t room = std::min(to_line_end, obj.size - offset);
    const auto len =
        static_cast<std::uint32_t>(rng.range(1, std::min(room, 8u)));
    const std::uint64_t run = rng.range(2, 6);
    const std::uint64_t split = rng.range(1, run - 1);
    for (std::uint64_t i = 0; i < run; ++i) {
      if (i == split) {
        if (st.depth == 1 && rng.chance(0.5)) {
          p.ops.push_back(FuzzOp{FuzzOpKind::kFaseEnd, c, 0, 0, 0, 0});
          p.ops.push_back(FuzzOp{FuzzOpKind::kFaseBegin, c, 0, 0, 0, 0});
        } else {
          p.ops.push_back(FuzzOp{FuzzOpKind::kPersistBarrier, c, 0, 0, 0, 0});
        }
      }
      p.ops.push_back(FuzzOp{FuzzOpKind::kPstore, c, id, offset, len, rng()});
    }
  };

  while (p.ops.size() < config.target_ops) {
    const auto c = static_cast<std::uint32_t>(rng.below(p.contexts));
    CtxState& st = ctxs[c];
    const std::uint64_t r = rng.below(100);
    if (st.depth == 0) {
      if (r < 72) {
        st.depth = 1;
        p.ops.push_back(FuzzOp{FuzzOpKind::kFaseBegin, c, 0, 0, 0, 0});
      } else if (r < 87) {
        if (!try_alloc(c)) {
          st.depth = 1;
          p.ops.push_back(FuzzOp{FuzzOpKind::kFaseBegin, c, 0, 0, 0, 0});
        }
      } else if (st.live.size() > 1) {
        // Free a random live object, but always keep one so the next FASE
        // has a store target. Addresses are never reused (bump allocator).
        const std::size_t pick = rng.below(st.live.size());
        const std::uint32_t id = st.live[pick];
        st.live.erase(st.live.begin() + static_cast<std::ptrdiff_t>(pick));
        p.ops.push_back(FuzzOp{FuzzOpKind::kFree, c, id, 0, 0, 0});
      }
    } else {
      if (r < 10) {
        emit_repeat_run(c);
      } else if (r < 64) {
        emit_pstore(c);
      } else if (r < 78) {
        --st.depth;
        p.ops.push_back(FuzzOp{FuzzOpKind::kFaseEnd, c, 0, 0, 0, 0});
      } else if (r < 86 && st.depth < 3) {
        ++st.depth;  // nested FASE: inner begin/end must be no-ops
        p.ops.push_back(FuzzOp{FuzzOpKind::kFaseBegin, c, 0, 0, 0, 0});
      } else if (r < 94) {
        p.ops.push_back(FuzzOp{FuzzOpKind::kPersistBarrier, c, 0, 0, 0, 0});
      } else {
        --st.depth;  // occasionally end immediately => empty nested FASEs
        p.ops.push_back(FuzzOp{FuzzOpKind::kFaseEnd, c, 0, 0, 0, 0});
      }
    }
  }

  // Close every open FASE so the program's final state is committed (the
  // crash sweep still hits mid-FASE states at every interior freeze point).
  for (std::uint32_t c = 0; c < p.contexts; ++c) {
    while (ctxs[c].depth > 0) {
      --ctxs[c].depth;
      p.ops.push_back(FuzzOp{FuzzOpKind::kFaseEnd, c, 0, 0, 0, 0});
    }
  }
  return p;
}

}  // namespace nvc::testing
