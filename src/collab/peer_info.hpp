// What the cooperative tier's broadcasts carry — the paper's §VI: "Agar
// nodes could broadcast their contents and workload statistics
// periodically, in order to let nearby caches update the values of each
// cache option accordingly."
//
// Each region broadcasts the chunk keys it has configured; peer-fetch reads
// them to redirect a fetch to a nearby peer cache. overlap_of() reports the
// redundancy two nearby caches waste by caching the same chunks
// (Frankfurt/Dublin in the paper's example). Every lane's strategy reads
// the one backend, so a chunk key names the same chunk in every region.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/types.hpp"

namespace agar::collab {

/// What one region broadcasts. The configured chunks are sorted, so
/// broadcast state never carries hash-map iteration order and a lookup is
/// a binary search.
struct PeerInfo {
  RegionId region = kInvalidRegion;
  std::vector<ChunkKey> configured_chunks;  // ascending, no duplicates

  [[nodiscard]] bool configured(ChunkKey chunk) const {
    return std::binary_search(configured_chunks.begin(),
                              configured_chunks.end(), chunk);
  }
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

/// The cooperative tier's counters. CollabRuntime keeps the first seven
/// per lane, mutated only from events on that lane; a run's summary merges
/// them in lane order and adds the fields that exist once per run.
struct CollabStats {
  std::uint64_t peer_hits = 0;    ///< wire fetches served by a peer cache
  std::uint64_t peer_misses = 0;  ///< directory consulted, no eligible peer
  std::uint64_t bytes_from_peers = 0;
  std::uint64_t bytes_from_backend = 0;
  /// Reads completed while a region had learned a newer config epoch than
  /// it had applied (the stale-configuration window the Paxos log bounds).
  std::uint64_t stale_config_reads = 0;
  std::uint64_t paxos_appends = 0;  ///< config-log append attempts
  /// Appends lost to quorum loss or an unreachable leader.
  std::uint64_t paxos_append_failures = 0;
  // Once per run:
  double paxos_append_p50_ms = 0.0;
  double paxos_append_p99_ms = 0.0;
  std::uint64_t config_epochs = 0;  ///< decided prefix of the config log
  /// Mean pairwise shared_fraction of the lanes' final broadcast
  /// snapshots.
  double config_overlap = 0.0;

  /// Add another lane's counts (the once-per-run fields are left alone).
  void merge(const CollabStats& other) {
    peer_hits += other.peer_hits;
    peer_misses += other.peer_misses;
    bytes_from_peers += other.bytes_from_peers;
    bytes_from_backend += other.bytes_from_backend;
    stale_config_reads += other.stale_config_reads;
    paxos_appends += other.paxos_appends;
    paxos_append_failures += other.paxos_append_failures;
  }
};

/// Pairwise overlap of two broadcast snapshots (the tier's end-of-run
/// config_overlap report).
[[nodiscard]] OverlapReport overlap_of(const PeerInfo& a, const PeerInfo& b);

}  // namespace agar::collab
