#include "collab/collab.hpp"

#include <memory>
#include <stdexcept>
#include <utility>

#include "api/registry.hpp"
#include "client/strategy.hpp"
#include "stats/histogram.hpp"

namespace agar::collab {

CollabRuntime::CollabRuntime(CollabSettings settings,
                             sim::ShardedEngine* engine,
                             const sim::Topology* topology,
                             std::vector<RegionId> lane_regions,
                             std::vector<sim::Network*> lane_networks)
    : settings_(settings),
      engine_(engine),
      topology_(topology),
      lane_regions_(std::move(lane_regions)),
      lane_networks_(std::move(lane_networks)),
      log_(topology->num_regions(), lane_networks_.at(0)),
      lanes_(lane_regions_.size()) {
  if (engine_ == nullptr) {
    throw std::invalid_argument("CollabRuntime: null engine");
  }
  if (lane_regions_.empty() ||
      lane_regions_.size() != lane_networks_.size()) {
    throw std::invalid_argument("CollabRuntime: lane shape mismatch");
  }
  lane_of_region_.assign(topology_->num_regions(),
                         static_cast<std::size_t>(-1));
  for (std::size_t i = 0; i < lane_regions_.size(); ++i) {
    lane_of_region_[lane_regions_[i]] = i;
    lanes_[i].directory.resize(lane_regions_.size());
  }
}

bool CollabRuntime::connected(std::size_t lane, RegionId a, RegionId b) const {
  const auto& group = lanes_[lane].partition;
  if (group.empty()) return true;
  return group.contains(a) == group.contains(b);
}

SimTimeMs CollabRuntime::message_delay_ms(RegionId from, RegionId to) const {
  return topology_->base_latency_ms(from, to) * kMessageFactor;
}

void CollabRuntime::attach(std::size_t lane, client::ReadStrategy& strategy) {
  strategy.enable_collab(
      [this, lane](const ChunkId& chunk, RegionId home, std::size_t bytes) {
        return route(lane, chunk, home, bytes);
      },
      [this, lane](RegionId target, RegionId home, std::size_t bytes,
                   bool ok) { fetch_done(lane, target, home, bytes, ok); });
  strategy.set_reconfigure_observer([this, lane] { on_reconfigure(lane); });

  engine_->loop_of_lane(lane).schedule_periodic(
      settings_.broadcast_period_ms, [this, lane, &strategy] {
        broadcast(lane, strategy);
        return true;
      });
}

RegionId CollabRuntime::route(std::size_t lane, const ChunkId& chunk,
                              RegionId home, std::size_t bytes) {
  LaneState& st = lanes_[lane];
  const RegionId self = lane_regions_[lane];
  sim::Network& net = *lane_networks_[lane];
  const SimTimeMs home_ms =
      net.model().expected_backend_fetch_ms(self, home, bytes);

  // Nearest-first over the topology: peers are sorted by base latency from
  // this region, so the first eligible holder is the cheapest candidate
  // and the threshold lets us stop early. Deterministic by construction.
  for (const RegionId peer : topology_->regions_by_distance(self)) {
    if (peer == self) continue;
    if (topology_->base_latency_ms(self, peer) > settings_.peer_threshold_ms) {
      break;
    }
    if (peer == home) continue;  // redirect would be the identity
    const std::size_t peer_lane = lane_of_region_[peer];
    if (peer_lane == static_cast<std::size_t>(-1)) continue;  // no cache there
    const PeerInfo& info = st.directory[peer_lane];
    if (info.region == kInvalidRegion) continue;        // nothing heard yet
    if (!connected(lane, self, peer)) continue;         // across the cut
    if (net.is_down(peer)) continue;                    // outage: fail fast
    if (!info.configured(chunk.key())) continue;
    if (net.model().expected_backend_fetch_ms(self, peer, bytes) >= home_ms) {
      continue;  // peer no cheaper than the home region
    }
    return peer;
  }
  ++st.stats.peer_misses;
  return home;
}

void CollabRuntime::fetch_done(std::size_t lane, RegionId target,
                               RegionId home, std::size_t bytes, bool ok) {
  CollabStats& stats = lanes_[lane].stats;
  if (!ok) return;  // failures are visible in the network/policy counters
  if (target != home) {
    ++stats.peer_hits;
    stats.bytes_from_peers += bytes;
  } else {
    stats.bytes_from_backend += bytes;
  }
}

void CollabRuntime::broadcast(std::size_t lane,
                              client::ReadStrategy& strategy) {
  PeerInfo info = strategy.collab_info();
  info.region = lane_regions_[lane];
  const SimTimeMs now = engine_->loop_of_lane(lane).now();
  for (std::size_t j = 0; j < lane_regions_.size(); ++j) {
    if (j == lane) continue;
    const SimTimeMs delay =
        topology_->base_latency_ms(lane_regions_[lane], lane_regions_[j]);
    engine_->post(j, now + delay, [this, j, lane, info] {
      deliver(j, lane, info);
    });
  }
}

void CollabRuntime::deliver(std::size_t to_lane, std::size_t from_lane,
                            PeerInfo info) {
  LaneState& st = lanes_[to_lane];
  // Partition check at delivery time: a broadcast in flight when the cut
  // happens is lost like any other cross-partition message.
  if (!connected(to_lane, lane_regions_[to_lane], info.region)) return;
  st.directory[from_lane] = std::move(info);
}

void CollabRuntime::on_reconfigure(std::size_t lane) {
  LaneState& st = lanes_[lane];
  const RegionId self = lane_regions_[lane];
  const RegionId leader = lane_regions_[0];
  ++st.reconfig_seq;
  const std::string record =
      topology_->name(self) + "/cfg" + std::to_string(st.reconfig_seq);
  if (!connected(lane, self, leader)) {
    // The log's region is across the cut: the append request cannot even
    // be sent. Counted as a failed append with no latency sample.
    ++st.stats.paxos_appends;
    ++st.stats.paxos_append_failures;
    return;
  }
  const SimTimeMs now = engine_->loop_of_lane(lane).now();
  engine_->post(0, now + message_delay_ms(self, leader),
                [this, lane, record] { serve_append(lane, record); });
}

void CollabRuntime::serve_append(std::size_t lane, const std::string& record) {
  // Lane 0 owns the log: appends from every region serialize here in
  // posted-event order, and the acceptor RTT samples are drawn from lane
  // 0's network — so fail_region outages starve the Paxos quorum exactly
  // like they starve lane 0's reads.
  const RegionId requester = lane_regions_[lane];
  const paxos::AppendOutcome outcome = log_.append(requester, record);
  const SimTimeMs now = engine_->loop_of_lane(0).now();
  engine_->post(lane, now + message_delay_ms(lane_regions_[0], requester),
                [this, lane, outcome] { record_append(lane, outcome); });
  if (!outcome.ok) return;
  const auto epoch = static_cast<std::uint64_t>(log_.decided_prefix());
  for (std::size_t j = 0; j < lane_regions_.size(); ++j) {
    // Decided-epoch notifications ride the learner channel of the storage
    // network, which the control-plane partition does not cut — so a
    // healed region converges without a catch-up protocol.
    engine_->post(j,
                  now + message_delay_ms(lane_regions_[0], lane_regions_[j]),
                  [this, j, epoch] { learn(j, epoch); });
  }
}

void CollabRuntime::record_append(std::size_t lane,
                                  const paxos::AppendOutcome& outcome) {
  LaneState& st = lanes_[lane];
  ++st.stats.paxos_appends;
  if (outcome.ok) {
    st.append_latencies.push_back(outcome.latency_ms);
  } else {
    ++st.stats.paxos_append_failures;
  }
}

void CollabRuntime::learn(std::size_t lane, std::uint64_t epoch) {
  LaneState& st = lanes_[lane];
  if (epoch <= st.learned_epoch) return;
  st.learned_epoch = epoch;
  // Apply after the configured delay on the lane's OWN loop (schedule_in,
  // not post-to-self: post clamps to the window boundary, which would
  // inflate apply_ms to the window size).
  engine_->loop_of_lane(lane).schedule_in(
      settings_.apply_delay_ms, [this, lane, epoch] {
        LaneState& s = lanes_[lane];
        if (epoch > s.applied_epoch) s.applied_epoch = epoch;
      });
}

void CollabRuntime::note_read(std::size_t lane) {
  LaneState& st = lanes_[lane];
  if (st.learned_epoch > st.applied_epoch) ++st.stats.stale_config_reads;
}

void CollabRuntime::set_partition(std::size_t lane,
                                  const std::vector<RegionId>& group) {
  lanes_[lane].partition =
      std::unordered_set<RegionId>(group.begin(), group.end());
}

void CollabRuntime::heal_partition(std::size_t lane) {
  lanes_[lane].partition.clear();
}

CollabStats CollabRuntime::summarize(
    const std::vector<client::ReadStrategy*>& strategies) {
  CollabStats out;
  stats::Histogram latencies;
  for (const LaneState& lane : lanes_) {
    out.merge(lane.stats);
    for (const SimTimeMs ms : lane.append_latencies) latencies.add(ms);
  }
  if (latencies.count() > 0) {
    out.paxos_append_p50_ms = latencies.percentile(50);
    out.paxos_append_p99_ms = latencies.percentile(99);
  }
  out.config_epochs = static_cast<std::uint64_t>(log_.decided_prefix());

  // Overlap over the lanes' FINAL snapshots (not the possibly-stale
  // directories): how much capacity nearby caches spend on the same chunks
  // — the paper's Frankfurt/Dublin redundancy example.
  std::vector<PeerInfo> final_infos;
  final_infos.reserve(strategies.size());
  for (std::size_t i = 0; i < strategies.size(); ++i) {
    PeerInfo info = strategies[i]->collab_info();
    info.region = lane_regions_[i];
    final_infos.push_back(std::move(info));
  }
  double overlap_sum = 0.0;
  std::size_t pairs = 0;
  for (std::size_t a = 0; a < final_infos.size(); ++a) {
    for (std::size_t b = a + 1; b < final_infos.size(); ++b) {
      overlap_sum +=
          overlap_of(final_infos[a], final_infos[b]).shared_fraction();
      ++pairs;
    }
  }
  out.config_overlap = pairs == 0 ? 0.0
                                  : overlap_sum / static_cast<double>(pairs);
  return out;
}

namespace {

const api::CollabRegistration kNone{{
    "none",
    "none",
    "no cooperation: every region's cache works alone (the historical "
    "single-node behavior; all outputs byte-identical to before the knob)",
    api::ParamSchema{},
    [](const api::CollabContext&,
       const api::ParamMap&) -> std::unique_ptr<CollabSettings> {
      return nullptr;
    },
    {}}};

const api::CollabRegistration kBroadcast{{
    "broadcast",
    "collab",
    "cooperative cache tier: periodic peer broadcasts build a chunk "
    "directory, reads peer-fetch from cheaper nearby caches, and "
    "reconfigurations append config epochs to a Paxos-replicated log",
    api::ParamSchema{{
        {"period_s", api::ParamType::kDouble, "5",
         "peer broadcast period in seconds"},
        {"peer_threshold_ms", api::ParamType::kDouble, "400",
         "max base latency (ms) to a peer cache worth consulting"},
        {"apply_ms", api::ParamType::kDouble, "10",
         "delay between learning a decided config epoch and applying it "
         "(reads completing in between count as stale-config reads)"},
    }},
    [](const api::CollabContext&, const api::ParamMap& params) {
      auto settings = std::make_unique<CollabSettings>();
      settings->broadcast_period_ms = params.get_double("period_s") * 1000.0;
      if (!(settings->broadcast_period_ms > 0.0)) {
        throw std::invalid_argument("collab.period_s must be > 0");
      }
      settings->peer_threshold_ms = params.get_double("peer_threshold_ms");
      settings->apply_delay_ms = params.get_double("apply_ms");
      return settings;
    },
    {}}};

}  // namespace

}  // namespace agar::collab
