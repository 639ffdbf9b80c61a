#include "collab/peer_info.hpp"

#include <algorithm>

namespace agar::collab {

std::vector<core::ChunkCost> peer_aware_costs(
    std::vector<core::ChunkCost> costs, const ObjectKey& key,
    const std::vector<PeerInfo>& peers, const sim::Topology& topology,
    RegionId client_region, double peer_cache_factor, double max_peer_ms) {
  for (auto& cost : costs) {
    const std::string ck = ChunkId{key, cost.index}.cache_key();
    for (const auto& peer : peers) {
      if (peer.region == client_region) continue;
      if (!peer.configured_chunks.contains(ck)) continue;
      const double base = topology.base_latency_ms(client_region, peer.region);
      if (base > max_peer_ms) continue;
      cost.latency_ms = std::min(cost.latency_ms, base * peer_cache_factor);
    }
  }
  return costs;
}

OverlapReport overlap_of(const PeerInfo& a, const PeerInfo& b) {
  OverlapReport report;
  report.chunks_a = a.configured_chunks.size();
  report.chunks_b = b.configured_chunks.size();
  for (const auto& ck : a.configured_chunks) {
    if (b.configured_chunks.contains(ck)) ++report.shared;
  }
  return report;
}

}  // namespace agar::collab
