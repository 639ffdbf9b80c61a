// Cooperative geo-distributed cache tier — the paper's §VI discussion made
// concrete: nearby Agar caches periodically broadcast their configured
// chunks, reads fetch a non-resident chunk from a nearby peer cache when
// the latency model says it beats the chunk's home region, and
// reconfigurations append the installed configuration to a
// Paxos-replicated log so every region agrees on the current config epoch.
//
// The tier is a pure overlay on the lane-partitioned runner: every lane
// (client region) owns a LaneState that is only ever touched from events
// executing on that lane, and ALL cross-lane traffic — broadcasts, Paxos
// append requests/replies, decided-epoch notifications — rides the sharded
// engine's post()/outboxes with (when, lane, seq) keying, so shards=1 and
// shards=N stay byte-identical (the PR 6 determinism contract).
//
// Pieces:
//  * peer directory — each lane's view of what every other lane last
//    broadcast (PeerInfo). Broadcasts are periodic events on the
//    owning lane's loop, delivered to each peer after the inter-region base
//    latency; a recipient inside a network partition drops broadcasts from
//    the other side. Directory staleness is bounded by the period: the
//    simulation serves a redirected transfer regardless of whether the peer
//    still holds the chunk (a real peer would serve-through), so staleness
//    costs accuracy of the latency win, never correctness.
//  * peer-fetch — installed under the FetchCoordinator's coalescing table
//    and *around* the PR 7 FetchPolicy (ReadStrategy::enable_collab), so a
//    redirected transfer still gets retries/hedges/timeouts and a failed
//    peer arm falls back through the strategies' degraded-read machinery.
//  * config log — lane 0 owns the paxos::ReplicatedLog (acceptor RTTs are
//    sampled on lane 0's network partition, so fail_region outages starve
//    the quorum exactly like they starve reads). Other lanes request
//    appends via post(); the outcome is posted back and recorded by the
//    requesting lane. Decided epochs are broadcast to every lane; a lane
//    applies a learned epoch only after `apply_ms`, and every read that
//    completes in between counts as a stale-config read.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "collab/peer_info.hpp"
#include "common/types.hpp"
#include "paxos/replicated_log.hpp"
#include "sim/network.hpp"
#include "sim/sharded_engine.hpp"
#include "sim/topology.hpp"

namespace agar::client {
class ReadStrategy;
}

namespace agar::collab {

/// Parsed `collab=` settings — the api::CollabRegistry product. The
/// registry validates/parses the namespaced `collab.*` params; the runner
/// turns a settings object into one CollabRuntime per run. `collab=none`
/// builds no settings object, so no runtime exists.
struct CollabSettings {
  SimTimeMs broadcast_period_ms = 5000.0;
  /// Peers farther than this base latency are never worth consulting.
  double peer_threshold_ms = 400.0;
  /// Delay between learning a decided config epoch and applying it; reads
  /// completing in between are counted as stale-config reads.
  SimTimeMs apply_delay_ms = 10.0;
};

/// One run's cooperative tier. Constructed by the runner after lanes are
/// bound, attached to each lane's strategy during per-lane setup, and
/// summarized single-threaded after the engine stops.
class CollabRuntime {
 public:
  /// Consensus/control messages are tiny next to ~114 KB chunks; their
  /// one-way delay is the inter-region base latency scaled by this factor
  /// (matching the ReplicatedLog's message_rtt_factor default).
  static constexpr double kMessageFactor = 0.3;

  /// `lane_networks[i]` serves lane i (the runner's partitions); lane 0's
  /// network also backs the replicated log's acceptor RTTs. All pointers
  /// are non-owning and must outlive the runtime.
  CollabRuntime(CollabSettings settings, sim::ShardedEngine* engine,
                const sim::Topology* topology,
                std::vector<RegionId> lane_regions,
                std::vector<sim::Network*> lane_networks);

  CollabRuntime(const CollabRuntime&) = delete;
  CollabRuntime& operator=(const CollabRuntime&) = delete;

  [[nodiscard]] const CollabSettings& settings() const { return settings_; }

  /// Install the tier on one lane's strategy: the peer-fetch transport
  /// (ReadStrategy::enable_collab), the reconfigure observer feeding the
  /// config log, and the periodic broadcast timer. Must run during the
  /// lane's setup phase (the lane's scheduling lane set, engine not yet
  /// running); `strategy` must outlive the run.
  void attach(std::size_t lane, client::ReadStrategy& strategy);

  // ---- scenario hooks (fire as events on the owning lane's loop) ----
  /// `group` and its complement lose sight of each other: broadcasts are
  /// dropped at delivery, peers across the cut are ineligible, and append
  /// requests to an unreachable lane 0 fail locally. The backend data
  /// path is untouched (partition != outage).
  void set_partition(std::size_t lane, const std::vector<RegionId>& group);
  void heal_partition(std::size_t lane);

  /// Read-completion hook: counts the completion as a stale-config read if
  /// the lane has learned a config epoch it has not applied yet.
  void note_read(std::size_t lane);

  /// One lane's cumulative counters; read only from events executing on
  /// that lane, or after the run.
  [[nodiscard]] const CollabStats& lane_stats(std::size_t lane) const {
    return lanes_[lane].stats;
  }

  /// End-of-run (single-threaded, engine stopped): merge lane counters in
  /// lane order, then add the append percentiles, the decided epochs and
  /// the configuration-overlap ratio of each strategy's final broadcast
  /// snapshot.
  [[nodiscard]] CollabStats summarize(
      const std::vector<client::ReadStrategy*>& strategies);

 private:
  struct LaneState {
    /// Last broadcast received from each lane (region == kInvalidRegion
    /// until the first delivery).
    std::vector<PeerInfo> directory;
    /// Current partition group; empty = fully connected.
    std::unordered_set<RegionId> partition;
    std::uint64_t reconfig_seq = 0;
    std::uint64_t learned_epoch = 0;
    std::uint64_t applied_epoch = 0;
    CollabStats stats;
    std::vector<SimTimeMs> append_latencies;
  };

  [[nodiscard]] bool connected(std::size_t lane, RegionId a, RegionId b) const;
  [[nodiscard]] SimTimeMs message_delay_ms(RegionId from, RegionId to) const;
  /// Nearest eligible peer cache for a chunk bound for `home`, or `home`
  /// itself when no peer is cheaper (the routing decision of peer-fetch).
  [[nodiscard]] RegionId route(std::size_t lane, const ChunkId& chunk,
                               RegionId home, std::size_t bytes);
  void fetch_done(std::size_t lane, RegionId target, RegionId home,
                  std::size_t bytes, bool ok);
  void broadcast(std::size_t lane, client::ReadStrategy& strategy);
  void deliver(std::size_t to_lane, std::size_t from_lane, PeerInfo info);
  void on_reconfigure(std::size_t lane);
  /// Lane 0 only: run the append against the replicated log and post the
  /// outcome (and, on success, the decided epoch) back out.
  void serve_append(std::size_t lane, const std::string& record);
  void record_append(std::size_t lane, const paxos::AppendOutcome& outcome);
  void learn(std::size_t lane, std::uint64_t epoch);

  CollabSettings settings_;
  sim::ShardedEngine* engine_;      // non-owning
  const sim::Topology* topology_;   // non-owning
  std::vector<RegionId> lane_regions_;
  std::vector<sim::Network*> lane_networks_;  // non-owning
  std::vector<std::size_t> lane_of_region_;   // region -> lane, or npos
  paxos::ReplicatedLog log_;        ///< lane 0 access only while running
  std::vector<LaneState> lanes_;
};

}  // namespace agar::collab
