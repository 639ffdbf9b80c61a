#include "ec/placement.hpp"

#include <stdexcept>

#include "common/bytes.hpp"

namespace agar::ec {

std::vector<ChunkIndex> RoundRobinPlacement::chunks_in_region(
    const ObjectKey& key, std::size_t total_chunks, RegionId region,
    std::size_t num_regions) const {
  std::vector<ChunkIndex> out;
  for (std::size_t i = 0; i < total_chunks; ++i) {
    const auto idx = static_cast<ChunkIndex>(i);
    if (region_of(key, idx, num_regions) == region) out.push_back(idx);
  }
  return out;
}

std::size_t RoundRobinPlacement::offset_of(const ObjectKey& key,
                                           std::size_t num_regions) const {
  if (num_regions == 0) {
    throw std::invalid_argument("RoundRobinPlacement: no regions");
  }
  return per_key_offset_ ? fnv1a(key) % num_regions : 0;
}

RegionId RoundRobinPlacement::region_of(const ObjectKey& key, ChunkIndex index,
                                        std::size_t num_regions) const {
  return static_cast<RegionId>((index + offset_of(key, num_regions)) %
                               num_regions);
}

}  // namespace agar::ec
