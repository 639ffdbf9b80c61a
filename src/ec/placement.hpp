// Chunk placement policy: which region stores which chunk of an object.
//
// The paper (Fig. 1) distributes the twelve chunks of each object over six
// regions round-robin, two chunks per region. The policy is a pure function
// of (key, chunk index, region count) so every component — backend, region
// manager, client — independently agrees on the layout without metadata.
// Round-robin is the one policy; the backend holds it by value.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"

namespace agar::ec {

/// Round-robin placement: chunk i -> region (i + offset(key)) % R.
/// With offset disabled (the paper's setup) chunk i simply lives in region
/// i % R, so every region holds the same stripe positions for every object.
/// With key offsets enabled the stripe start rotates per key, spreading the
/// "near" chunks across regions (useful for load-balance experiments).
class RoundRobinPlacement {
 public:
  explicit RoundRobinPlacement(bool per_key_offset = false)
      : per_key_offset_(per_key_offset) {}

  /// Stripe start of `key`: chunk i lives in region (i + offset) % R.
  /// 0 unless per-key offsets are enabled.
  [[nodiscard]] std::size_t offset_of(const ObjectKey& key,
                                      std::size_t num_regions) const;

  /// Region storing chunk `index` of `key`, given `num_regions` regions.
  [[nodiscard]] RegionId region_of(const ObjectKey& key, ChunkIndex index,
                                   std::size_t num_regions) const;

  /// All chunk indices of a (k+m)-chunk stripe that live in `region`.
  [[nodiscard]] std::vector<ChunkIndex> chunks_in_region(
      const ObjectKey& key, std::size_t total_chunks, RegionId region,
      std::size_t num_regions) const;

 private:
  bool per_key_offset_;
};

}  // namespace agar::ec
