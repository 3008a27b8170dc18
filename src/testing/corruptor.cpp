#include "testing/corruptor.hpp"

#include <algorithm>
#include <cstring>

#include "common/assert.hpp"
#include "common/types.hpp"
#include "pmem/pmem_alloc.hpp"
#include "runtime/undo_log.hpp"

namespace nvc::testing {

CorruptionKind corruption_kind(std::size_t index) {
  NVC_REQUIRE(index < kCorruptionKinds);
  return static_cast<CorruptionKind>(index);
}

const char* to_string(CorruptionKind kind) {
  switch (kind) {
    case CorruptionKind::kBitFlips:
      return "bit-flips";
    case CorruptionKind::kLineScribble:
      return "line-scribble";
    case CorruptionKind::kTruncation:
      return "truncation";
    case CorruptionKind::kTornTear:
      return "torn-tear";
    case CorruptionKind::kStaleGeneration:
      return "stale-generation";
    case CorruptionKind::kHeaderMutation:
      return "header-mutation";
    case CorruptionKind::kLogMagic:
      return "log-magic";
    case CorruptionKind::kHeapHeader:
      return "heap-header";
  }
  return "?";
}

bool parse_corruption_kind(const char* name, CorruptionKind& kind) {
  if (name == nullptr) return false;
  for (std::size_t i = 0; i < kCorruptionKinds; ++i) {
    const CorruptionKind k = corruption_kind(i);
    if (std::strcmp(name, to_string(k)) == 0) {
      kind = k;
      return true;
    }
  }
  return false;
}

std::uint64_t ImageCorruptor::next() {
  // splitmix64: the repo-wide seeded-stream idiom (see common/rng.hpp).
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::uint64_t ImageCorruptor::next_below(std::uint64_t bound) {
  return bound == 0 ? 0 : next() % bound;
}

std::string ImageCorruptor::corrupt(CorruptionKind kind,
                                    std::vector<std::uint8_t>& image,
                                    const std::vector<std::uint8_t>* stale) {
  NVC_REQUIRE(!image.empty());
  switch (kind) {
    case CorruptionKind::kBitFlips:
      return bit_flips(image);
    case CorruptionKind::kLineScribble:
      return line_scribble(image);
    case CorruptionKind::kTruncation:
      return truncation(image);
    case CorruptionKind::kTornTear:
      return torn_tear(image);
    case CorruptionKind::kStaleGeneration:
      return stale_generation(image, stale);
    case CorruptionKind::kHeaderMutation:
      return header_mutation(image);
    case CorruptionKind::kLogMagic:
      return log_magic(image);
    case CorruptionKind::kHeapHeader:
      return heap_header(image);
  }
  return "?";
}

std::string ImageCorruptor::bit_flips(std::vector<std::uint8_t>& image) {
  std::string what = "bit-flips:";
  for (std::size_t i = 0; i < config_.sites; ++i) {
    const std::size_t byte = next_below(image.size());
    const unsigned bit = static_cast<unsigned>(next_below(8));
    image[byte] ^= static_cast<std::uint8_t>(1u << bit);
    what += " @" + std::to_string(byte) + ".b" + std::to_string(bit);
  }
  return what;
}

std::string ImageCorruptor::line_scribble(std::vector<std::uint8_t>& image) {
  const std::size_t lines = image.size() / kCacheLineSize;
  std::string what = "line-scribble:";
  for (std::size_t i = 0; i < config_.sites && lines > 0; ++i) {
    const std::size_t line = next_below(lines);
    for (std::size_t b = 0; b < kCacheLineSize; b += sizeof(std::uint64_t)) {
      const std::uint64_t junk = next();
      std::memcpy(image.data() + line * kCacheLineSize + b, &junk,
                  sizeof(junk));
    }
    what += " line " + std::to_string(line);
  }
  return what;
}

std::string ImageCorruptor::truncation(std::vector<std::uint8_t>& image) {
  // A truncated file reads back as zeros past the cut. Cut somewhere in the
  // back three quarters so the damage can land in data or logs.
  const std::size_t min_keep = image.size() / 4;
  const std::size_t cut = min_keep + next_below(image.size() - min_keep);
  std::memset(image.data() + cut, 0, image.size() - cut);
  return "truncation: image zeroed from byte " + std::to_string(cut) + " of " +
         std::to_string(image.size());
}

std::string ImageCorruptor::torn_tear(std::vector<std::uint8_t>& image) {
  // A multi-line write-queue tear: 2..5 adjacent lines each persisted only
  // a prefix; bytes past each tear revert to zero (the never-written cell
  // state) — the same shape ShadowPmem::flush_line_torn leaves, but across
  // a burst and with the suffix *lost* rather than stale.
  const std::size_t lines = image.size() / kCacheLineSize;
  if (lines == 0) return "torn-tear: image smaller than one line; untouched";
  const std::size_t burst = 2 + next_below(4);
  const std::size_t first = next_below(lines);
  std::string what = "torn-tear: lines";
  for (std::size_t i = 0; i < burst; ++i) {
    const std::size_t line = first + i;
    if (line >= lines) break;
    const std::size_t keep = 8 * (1 + next_below(kCacheLineSize / 8 - 1));
    std::memset(image.data() + line * kCacheLineSize + keep, 0,
                kCacheLineSize - keep);
    what += " " + std::to_string(line) + "(keep " + std::to_string(keep) +
            "B)";
  }
  return what;
}

std::string ImageCorruptor::stale_generation(
    std::vector<std::uint8_t>& image, const std::vector<std::uint8_t>* stale) {
  if (stale == nullptr || stale->size() != image.size() ||
      layout_.log_segments == 0) {
    // No earlier snapshot to replay: degrade to the closest targeted class.
    return "stale-generation (no snapshot): " + header_mutation(image);
  }
  // Revert one whole log segment to its earlier self: entries of a previous
  // generation reappear under whatever state word the old image held. The
  // generation check plus check-word certification must refuse to replay
  // them as current.
  const std::size_t slot = next_below(layout_.log_segments);
  const std::size_t off = layout_.log_offset + slot * layout_.log_segment_size;
  std::memcpy(image.data() + off, stale->data() + off,
              layout_.log_segment_size);
  return "stale-generation: log segment " + std::to_string(slot) +
         " reverted to earlier snapshot";
}

std::string ImageCorruptor::header_mutation(std::vector<std::uint8_t>& image) {
  if (layout_.log_segments == 0) return bit_flips(image);
  std::string what = "header-mutation:";
  for (std::size_t i = 0; i < config_.sites; ++i) {
    const std::size_t slot = next_below(layout_.log_segments);
    const std::size_t off =
        layout_.log_offset + slot * layout_.log_segment_size;
    std::uint64_t value = next();
    switch (next_below(3)) {
      case 0:  // destroy the magic
        std::memcpy(image.data() + off, &value, sizeof(value));
        what += " slot " + std::to_string(slot) + " magic";
        break;
      case 1:  // arbitrary state word (generation and tail both garbage)
        std::memcpy(image.data() + off + sizeof(std::uint64_t), &value,
                    sizeof(value));
        what += " slot " + std::to_string(slot) + " state";
        break;
      default: {  // plausible-looking tail pointing past every real entry
        const std::uint64_t tail =
            runtime::UndoLog::kHeaderSize +
            8 * next_below(layout_.log_segment_size / 8);
        value = runtime::UndoLog::pack_state(
            static_cast<std::uint32_t>(1 + next_below(4)), tail);
        std::memcpy(image.data() + off + sizeof(std::uint64_t), &value,
                    sizeof(value));
        what += " slot " + std::to_string(slot) + " tail->" +
                std::to_string(tail);
        break;
      }
    }
  }
  return what;
}

std::string ImageCorruptor::log_magic(std::vector<std::uint8_t>& image) {
  if (layout_.log_segments == 0) return bit_flips(image);
  const std::size_t slot = next_below(layout_.log_segments);
  std::uint64_t value = next();
  if (value == runtime::UndoLog::kMagic) value = ~value;
  std::memcpy(image.data() + layout_.log_offset +
                  slot * layout_.log_segment_size,
              &value, sizeof(value));
  return "log-magic: slot " + std::to_string(slot) + " magic destroyed";
}

std::string ImageCorruptor::heap_header(std::vector<std::uint8_t>& image) {
  using pmem::PmemAllocator;
  const std::size_t base = layout_.data_offset;
  if (layout_.data_size < PmemAllocator::header_size() ||
      base + PmemAllocator::header_size() > image.size()) {
    return bit_flips(image);
  }
  std::uint8_t* header = image.data() + base;
  switch (next_below(4)) {
    case 0: {  // destroy the magic
      std::uint64_t value = next();
      if (value == PmemAllocator::kMagic) value = ~value;
      std::memcpy(header, &value, sizeof(value));
      return "heap-header: magic";
    }
    case 1: {  // a layout version this build does not read
      auto value = static_cast<std::uint32_t>(next());
      if (value == PmemAllocator::kVersion) value = ~value;
      std::memcpy(header + PmemAllocator::version_offset(), &value,
                  sizeof(value));
      return "heap-header: version " + std::to_string(value);
    }
    case 2: {  // a bump frontier past the region's end
      const std::uint64_t value =
          layout_.data_size + 8 * (1 + next_below(std::uint64_t{1} << 20));
      std::memcpy(header + PmemAllocator::bump_offset(), &value,
                  sizeof(value));
      return "heap-header: bump " + std::to_string(value) + " of " +
             std::to_string(layout_.data_size);
    }
    default: {  // a seal word that vouches for nothing
      std::uint64_t value = next();
      if (value == 0) value = 1;
      std::memcpy(header + PmemAllocator::seal_offset(), &value,
                  sizeof(value));
      return "heap-header: seal";
    }
  }
}

}  // namespace nvc::testing
