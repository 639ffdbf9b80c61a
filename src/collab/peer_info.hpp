// What the cooperative tier's broadcasts carry — the paper's §VI: "Agar
// nodes could broadcast their contents and workload statistics
// periodically, in order to let nearby caches update the values of each
// cache option accordingly."
//
// Each region broadcasts the chunk keys it has configured; peer-fetch reads
// them to redirect a fetch to a nearby peer cache. overlap_of() reports the
// redundancy two nearby caches waste by caching the same chunks
// (Frankfurt/Dublin in the paper's example).
#pragma once

#include <set>
#include <string>

#include "common/types.hpp"

namespace agar::collab {

/// What one region broadcasts. The configured-chunk set is ordered so
/// broadcast state never carries hash-map iteration order.
struct PeerInfo {
  RegionId region = kInvalidRegion;
  std::set<std::string> configured_chunks;  // chunk cache keys, sorted
};

/// Overlap report between two regions' configurations.
struct OverlapReport {
  std::size_t chunks_a = 0;
  std::size_t chunks_b = 0;
  std::size_t shared = 0;  ///< chunk keys configured by both

  [[nodiscard]] double shared_fraction() const {
    const std::size_t total = chunks_a + chunks_b;
    return total == 0 ? 0.0
                      : 2.0 * static_cast<double>(shared) /
                            static_cast<double>(total);
  }
};

/// Pairwise overlap of two broadcast snapshots (the tier's end-of-run
/// config_overlap report).
[[nodiscard]] OverlapReport overlap_of(const PeerInfo& a, const PeerInfo& b);

}  // namespace agar::collab
