// What the cooperative tier's broadcasts carry, and what a region does with
// them — the paper's §VI: "Agar nodes could broadcast their contents and
// workload statistics periodically, in order to let nearby caches update
// the values of each cache option accordingly."
//
// Each region broadcasts (a) the chunk keys it has configured and (b) its
// popularity snapshot. A region that can fetch a chunk from a nearby peer
// cache cheaper than from the chunk's home region folds that into its
// chunk costs via peer_aware_costs(); overlap_of() reports the redundancy
// two nearby caches waste by caching the same chunks (Frankfurt/Dublin in
// the paper's example).
#pragma once

#include <set>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "core/option_generator.hpp"
#include "sim/topology.hpp"

namespace agar::collab {

/// What one region broadcasts. The configured-chunk set is ordered: peer
/// directories feed merged planning snapshots and the overlap report, so
/// broadcast state must not carry hash-map iteration order.
struct PeerInfo {
  RegionId region = kInvalidRegion;
  std::set<std::string> configured_chunks;  // chunk cache keys, sorted
  std::vector<std::pair<ObjectKey, double>> popularity;
};

/// Adjust chunk costs with peer caches: if a peer within `max_peer_ms` of
/// the client region has a chunk configured, the chunk's expected latency
/// becomes min(original, peer cache latency), where the peer cache latency
/// is the inter-region base latency scaled by `peer_cache_factor`
/// (< 1: a memcached hit is cheaper than an S3 GET over the same distance).
[[nodiscard]] std::vector<core::ChunkCost> peer_aware_costs(
    std::vector<core::ChunkCost> costs, const ObjectKey& key,
    const std::vector<PeerInfo>& peers, const sim::Topology& topology,
    RegionId client_region, double peer_cache_factor = 0.75,
    double max_peer_ms = 400.0);

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
