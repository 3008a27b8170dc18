// Seeded image corruptor for the recovery fuzzer (DESIGN.md §14).
//
// Takes a frozen durable image (CrashRig::durable_image()) plus a layout
// spec and applies one *class* of damage, deterministically derived from a
// splitmix64 seed — so every corrupted image a CI run ever saw reproduces
// from the one-line NVC_FUZZ_SEED / NVC_CORRUPT_* replay command the test
// prints. Eight classes model the distinct ways a persistent image rots:
//
//   bit-flips        — media bit rot anywhere in the image
//   line-scribble    — whole cache lines overwritten with garbage (a wild
//                      DMA, a misdirected write-back)
//   truncation       — the image tail reads as zeros (file truncated or a
//                      short mapping after a resize crash)
//   torn-tear        — a burst of adjacent lines each persisted only a
//                      prefix (multi-line write-queue tear at power cut)
//   stale-generation — a log segment reverts to an earlier snapshot of
//                      itself (firmware write reordering / lost erase: old
//                      generation bytes where new ones should be)
//   header-mutation  — targeted log-header damage (magic, state word)
//   log-magic        — one log segment's magic destroyed outright, so
//                      salvage must classify and reformat the slot
//   heap-header      — one field of the data region's heap header: its
//                      magic, layout version, bump frontier (moved past the
//                      region's end) or clean-shutdown seal
//
// The corruptor returns a description of every mutation it made, so a
// failing oracle names the exact bytes that were hit.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace nvc::testing {

enum class CorruptionKind : std::uint8_t {
  kBitFlips,
  kLineScribble,
  kTruncation,
  kTornTear,
  kStaleGeneration,
  kHeaderMutation,
  kLogMagic,
  kHeapHeader,
};

inline constexpr std::size_t kCorruptionKinds = 8;

/// Kind by sweep index (0..kCorruptionKinds-1).
CorruptionKind corruption_kind(std::size_t index);
const char* to_string(CorruptionKind kind);
/// Parse the NVC_CORRUPT_KIND pin ("bit-flips", "truncation", …).
/// Returns false (kind untouched) for unknown names.
bool parse_corruption_kind(const char* name, CorruptionKind& kind);

/// Where the interesting structures live inside the flat image.
struct ImageLayout {
  std::size_t data_offset = 0;  // data region, heap header first
  std::size_t data_size = 0;
  std::size_t log_offset = 0;   // first log segment
  std::size_t log_segment_size = 0;
  std::size_t log_segments = 0;
};

struct CorruptorConfig {
  std::uint64_t seed = 1;       // NVC_FUZZ_SEED
  std::size_t sites = 4;        // distinct hits per pass (NVC_CORRUPT_SITES)
};

class ImageCorruptor {
 public:
  ImageCorruptor(CorruptorConfig config, ImageLayout layout)
      : config_(config), layout_(layout), state_(config.seed) {}

  /// Apply one pass of `kind` to `image` in place. `stale` is an earlier
  /// durable snapshot of the same image (required by kStaleGeneration,
  /// which degrades to header mutation when null/mismatched). Returns a
  /// human-readable account of every mutation.
  std::string corrupt(CorruptionKind kind, std::vector<std::uint8_t>& image,
                      const std::vector<std::uint8_t>* stale = nullptr);

 private:
  std::uint64_t next();  // splitmix64
  std::uint64_t next_below(std::uint64_t bound);

  std::string bit_flips(std::vector<std::uint8_t>& image);
  std::string line_scribble(std::vector<std::uint8_t>& image);
  std::string truncation(std::vector<std::uint8_t>& image);
  std::string torn_tear(std::vector<std::uint8_t>& image);
  std::string stale_generation(std::vector<std::uint8_t>& image,
                               const std::vector<std::uint8_t>* stale);
  std::string header_mutation(std::vector<std::uint8_t>& image);
  std::string log_magic(std::vector<std::uint8_t>& image);
  std::string heap_header(std::vector<std::uint8_t>& image);

  CorruptorConfig config_;
  ImageLayout layout_;
  std::uint64_t state_;
};

}  // namespace nvc::testing
