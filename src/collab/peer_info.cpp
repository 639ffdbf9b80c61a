#include "collab/peer_info.hpp"

namespace agar::collab {

OverlapReport overlap_of(const PeerInfo& a, const PeerInfo& b) {
  OverlapReport report;
  report.chunks_a = a.configured_chunks.size();
  report.chunks_b = b.configured_chunks.size();
  for (const ChunkKey ck : a.configured_chunks) {
    if (b.configured(ck)) ++report.shared;
  }
  return report;
}

}  // namespace agar::collab
