// Experiment runner: wires a full deployment (topology, network, backend,
// working set) to a read strategy and replays the paper's evaluation
// methodology — N runs x M reads issued by closed-loop clients on the
// discrete-event simulator, with Agar/periodic reconfiguration running on
// the same virtual timeline (paper §V-A: 5 runs, 1,000 reads per run, 2
// YCSB clients per instance, 30 s reconfiguration period).
#pragma once

#include <algorithm>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <map>
#include <vector>

#include "api/param_map.hpp"
#include "cache/cache.hpp"
#include "client/strategy.hpp"
#include "client/workload.hpp"
#include "ec/reed_solomon.hpp"
#include "scenario/scenario.hpp"
#include "sim/network.hpp"
#include "sim/topology.hpp"
#include "stats/histogram.hpp"
#include "store/backend.hpp"

namespace agar::collab {
class CollabRuntime;
}  // namespace agar::collab

namespace agar::client {

/// Everything needed to stand up the simulated storage system.
struct DeploymentConfig {
  std::size_t num_objects = 300;       ///< paper: 300 objects
  std::size_t object_size_bytes = 1_MB;///< paper: 1 MB each
  ec::CodecParams codec{};             ///< paper: RS(9, 3)
  sim::LatencyModelParams latency{};
  bool per_key_placement_offset = false;
  std::uint64_t seed = 42;
  bool store_payloads = true;  ///< false skips payload bytes (bench speed)
};

/// An instantiated deployment. Address-stable (members referenced across
/// components), hence non-copyable and heap-held parts.
class Deployment {
 public:
  explicit Deployment(const DeploymentConfig& config);

  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  [[nodiscard]] const sim::Topology& topology() const { return *topology_; }
  [[nodiscard]] sim::Network& network() { return *network_; }
  [[nodiscard]] store::BackendCluster& backend() { return *backend_; }
  [[nodiscard]] const DeploymentConfig& config() const { return config_; }

  /// Partition the deployment for lane-parallel runs: one client region per
  /// lane. Lane 0 keeps the primary network (and the backend's codec), so
  /// a one-lane run is bit-for-bit the unpartitioned deployment; every
  /// further lane gets its own Network (own latency RNG stream, own wire
  /// and FIFO state) and its own codec clone (own decode-plan cache) so
  /// shard threads never share mutable simulation state.
  void bind_lanes(const std::vector<RegionId>& lane_regions);
  [[nodiscard]] sim::Network& lane_network(std::size_t lane) {
    return lane == 0 ? *network_ : *lane_networks_[lane - 1];
  }
  [[nodiscard]] const ec::ObjectCodec& lane_codec(std::size_t lane) const {
    return lane == 0 ? backend_->codec() : *lane_codecs_[lane - 1];
  }

  /// Network serving `region`'s strategy: its lane's partition when lanes
  /// are bound, else the shared primary network.
  [[nodiscard]] sim::Network& network_for(RegionId region) {
    return lane_network(lane_of(region));
  }
  /// Per-lane decode codec for `region`, or null when the shared backend
  /// codec is safe (single lane / lanes never bound).
  [[nodiscard]] const ec::ObjectCodec* codec_override_for(RegionId region) {
    const std::size_t lane = lane_of(region);
    return lane == 0 ? nullptr : lane_codecs_[lane - 1].get();
  }

 private:
  [[nodiscard]] std::size_t lane_of(RegionId region) const {
    for (std::size_t i = 0; i < lane_regions_.size(); ++i) {
      if (lane_regions_[i] == region) return i;
    }
    return 0;
  }

  DeploymentConfig config_;
  std::unique_ptr<sim::Topology> topology_;
  std::unique_ptr<sim::Network> network_;
  std::unique_ptr<store::BackendCluster> backend_;
  std::vector<RegionId> lane_regions_;
  std::vector<std::unique_ptr<sim::Network>> lane_networks_;   // lanes 1..
  std::vector<std::unique_ptr<ec::ObjectCodec>> lane_codecs_;  // lanes 1..
};

struct ExperimentConfig {
  DeploymentConfig deployment{};
  WorkloadSpec workload = WorkloadSpec::zipfian(1.1);
  RegionId client_region = sim::region::kFrankfurt;
  /// Client populations in multiple regions (one strategy instance — for
  /// Agar, one cache and control plane — per region). Empty means
  /// {client_region}.
  std::vector<RegionId> client_regions;
  std::size_t ops_per_run = 1000;  ///< paper: 1,000 reads (total, all regions)
  std::size_t runs = 5;            ///< paper: averages of 5 runs
  std::size_t num_clients = 2;     ///< closed-loop clients per region
  /// Open-loop mode: > 0 switches from closed-loop clients to a Poisson
  /// arrival process with this many reads/second per region. Reads overlap
  /// freely (no client blocks waiting for its previous read).
  double arrival_rate_per_s = 0.0;
  SimTimeMs reconfig_period_ms = 30'000.0;
  double decode_ms_per_mb = 10.0;
  bool verify_data = false;
  /// Per-destination-region cap on concurrent backend fetches (0 =
  /// unlimited). Contention beyond the cap queues FIFO on the network.
  std::size_t max_outstanding_per_region = 64;
  /// Candidate option weights for Agar; the paper enumerates {1,3,5,7,9}.
  std::vector<std::size_t> agar_candidate_weights = {1, 3, 5, 7, 9};
  /// Fault-tolerant fetch policy by registry name ("none", "retry",
  /// "hedge"). "none" keeps the historical fail-fast wire path — no policy
  /// object is created and results are byte-identical to before the knob
  /// existed. Parameters arrive namespaced (`fetch.retries=3`) in
  /// `fetch_params` with the prefix already stripped.
  std::string fetch_policy = "none";
  api::ParamMap fetch_params;
  /// Cooperative cache tier by registry name ("none", "broadcast"). "none"
  /// keeps the historical isolated-cache path — no CollabRuntime is built
  /// and results are byte-identical to before the knob existed. Parameters
  /// arrive namespaced (`collab.period_s=5`) in `collab_params` with the
  /// prefix already stripped.
  std::string collab = "none";
  api::ParamMap collab_params;
  /// Scripted mid-run events (popularity shifts, outages, rate changes,
  /// latency degradation). Empty means a stationary run, as before.
  scenario::Scenario scenario;
  /// Width of the windowed time-series metrics in ms; 0 disables windows
  /// (RunResult::windows stays empty, output byte-identical to before).
  SimTimeMs metric_window_ms = 0.0;
  /// Worker threads for the sharded simulation engine. Client-region lanes
  /// are spread across this many shards (clamped to the lane count);
  /// results are byte-identical for any value — 1 runs the engine inline.
  std::size_t shards = 1;

  [[nodiscard]] std::vector<RegionId> effective_client_regions() const {
    return client_regions.empty() ? std::vector<RegionId>{client_region}
                                  : client_regions;
  }
};

/// One fixed time window of a run's time series — the unit adaptation is
/// measured in. The last window ends at the run's last completion
/// (duration_ms), not a whole window later. Latency stats cover successful
/// reads only; failed reads are counted, not averaged in.
struct WindowStats {
  SimTimeMs start_ms = 0.0;
  SimTimeMs end_ms = 0.0;
  std::uint64_t ops = 0;          ///< completions in the window (incl. failed)
  std::uint64_t full_hits = 0;
  std::uint64_t partial_hits = 0;
  std::uint64_t failed_reads = 0;
  std::uint64_t degraded_reads = 0;  ///< succeeded off the fallback path
  double mean_ms = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  /// Cooperative tier (collab=broadcast only; zero otherwise): chunk
  /// fetches served by a peer cache, and reads issued while this region's
  /// learned config epoch was ahead of the applied one.
  std::uint64_t collab_peer_hits = 0;
  std::uint64_t collab_stale_reads = 0;

  [[nodiscard]] double hit_ratio() const {
    return ops == 0 ? 0.0
                    : static_cast<double>(full_hits + partial_hits) /
                          static_cast<double>(ops);
  }
};

/// Outcome of one run.
struct RunResult {
  stats::Histogram latencies;  ///< successful reads only
  std::uint64_t ops = 0;       ///< completed reads, including failed ones
  std::uint64_t full_hits = 0;
  std::uint64_t partial_hits = 0;  ///< at least one chunk from cache
  std::uint64_t verified = 0;
  /// Reads that completed with fewer than k chunks (outage exhausted every
  /// fallback). Not latency samples — the object was unreadable.
  std::uint64_t failed_reads = 0;
  /// Reads that assembled k chunks but not the planned k (a fallback chunk
  /// substituted for a failed arm). Successes, counted in the latency
  /// stats, surfaced separately — graceful degradation at work.
  std::uint64_t degraded_reads = 0;
  cache::CacheStats cache_stats;
  std::size_t cache_used_bytes = 0;
  /// Agar and LFU-c: configured objects per option weight (Fig. 10 data),
  /// sorted by weight so consumers iterate deterministically.
  std::map<std::size_t, std::size_t> weight_histogram;
  /// Decode-plan cache of the deployment's codec: reconstructions that
  /// found their inverted decode matrix memoized vs had to invert.
  std::uint64_t decode_plan_hits = 0;
  std::uint64_t decode_plan_misses = 0;

  // ------------------------- async pipeline observability (all regions)
  SimTimeMs duration_ms = 0.0;        ///< virtual time of the last completion
  std::uint64_t wire_fetches = 0;     ///< transfers actually put on the wire
  std::uint64_t coalesced_fetches = 0;///< requests joined to in-flight ones
  std::uint64_t queued_fetches = 0;   ///< fetches that waited in a region FIFO
  std::size_t max_queue_depth = 0;    ///< deepest per-region FIFO observed
  std::size_t max_net_in_flight = 0;  ///< peak concurrent wire transfers
  std::size_t max_reads_in_flight = 0;///< peak concurrent reads (open loop)
  std::uint64_t scenario_events_fired = 0;  ///< scripted events applied
  /// Failed wire fetches by mode (all lanes): aborted on the wire by an
  /// outage, failed while queued in a region FIFO, or timed out (gray
  /// drop — the response was lost and discovery took drop_latency_mult×).
  std::uint64_t aborted_on_wire = 0;
  std::uint64_t failed_in_queue = 0;
  std::uint64_t timed_out_fetches = 0;

  // ------------------------- fetch-policy telemetry (zero when fetch=none)
  std::uint64_t fetch_attempts = 0;  ///< wire attempts incl. retries/hedges
  std::uint64_t fetch_timeouts = 0;
  std::uint64_t fetch_retries = 0;
  std::uint64_t hedges_issued = 0;
  std::uint64_t hedges_won = 0;
  std::uint64_t hedges_wasted = 0;
  std::uint64_t fetch_exhausted = 0;  ///< fetches that gave up after retries
  /// Per-destination-region fetch success EWMA (1 = healthy), merged
  /// across lanes weighted by sample count. Empty when no policy ran.
  std::vector<double> region_success_ewma;

  // ------------------------- control-plane observability (all regions)
  std::uint64_t reconfigurations = 0;  ///< completed reconfigurations
  double planning_ms = 0.0;            ///< wall-clock spent in the planner
  /// Config churn: configured chunks added / dropped across all
  /// reconfigurations (a stable control plane installs and evicts little).
  std::uint64_t config_chunks_installed = 0;
  std::uint64_t config_chunks_evicted = 0;

  // ------------------------- cooperative cache tier (collab=broadcast)
  /// True when a CollabRuntime ran; all fields below stay zero otherwise
  /// (and the report elides the block, keeping collab=none byte-identical).
  bool collab_active = false;
  std::uint64_t collab_peer_hits = 0;    ///< chunk fetches served by a peer
  std::uint64_t collab_peer_misses = 0;  ///< peer lookups that fell through
  std::uint64_t collab_bytes_from_peers = 0;
  std::uint64_t collab_bytes_from_backend = 0;
  /// Reads issued while a region had learned a newer config epoch than it
  /// had applied (the stale-configuration window the Paxos log bounds).
  std::uint64_t stale_config_reads = 0;
  std::uint64_t paxos_appends = 0;          ///< config-log append attempts
  std::uint64_t paxos_append_failures = 0;  ///< partition/quorum losses
  double paxos_append_p50_ms = 0.0;
  double paxos_append_p99_ms = 0.0;
  std::uint64_t config_epochs = 0;  ///< decided prefix of the config log
  /// Mean pairwise cache-content overlap across regions at run end
  /// (collab::OverlapReport::shared_fraction).
  double config_overlap = 0.0;

  /// Windowed time series (metric_window_ms > 0), windows with no
  /// completions included so indices line up with virtual time.
  std::vector<WindowStats> windows;

  [[nodiscard]] double mean_latency_ms() const { return latencies.mean(); }
  [[nodiscard]] double hit_ratio() const {
    return ops == 0 ? 0.0
                    : static_cast<double>(full_hits + partial_hits) /
                          static_cast<double>(ops);
  }
  /// Completed reads per second of virtual time.
  [[nodiscard]] double throughput_ops_per_s() const {
    return duration_ms <= 0.0
               ? 0.0
               : static_cast<double>(ops) / (duration_ms / 1000.0);
  }
};

/// Aggregate over runs.
struct ExperimentResult {
  /// Display label of the system under test. Derived in exactly one place
  /// (the api registries) so tables, bench legends and JSON reports can
  /// never disagree.
  std::string label;
  std::vector<RunResult> runs;

  [[nodiscard]] double mean_latency_ms() const;
  [[nodiscard]] double stddev_of_means() const;
  [[nodiscard]] double hit_ratio() const;       ///< full + partial
  [[nodiscard]] double full_hit_ratio() const;
  [[nodiscard]] double percentile_ms(double q) const;  ///< merged runs
  [[nodiscard]] std::uint64_t total_ops() const;
  [[nodiscard]] double mean_throughput_ops_per_s() const;
  [[nodiscard]] std::uint64_t total_coalesced_fetches() const;
  [[nodiscard]] std::uint64_t total_wire_fetches() const;
};

/// Builds one strategy instance per client region. The runner owns no
/// knowledge of concrete systems — api::make_strategy_factory turns a
/// declarative ExperimentSpec into one of these via the registries, and
/// tests can hand-roll them. `loop` is the lane's loop, already bound to the
/// region's network; the config passed at call time is the experiment
/// being run.
using StrategyFactory = std::function<std::unique_ptr<ReadStrategy>(
    const ExperimentConfig& config, Deployment& deployment,
    RegionId client_region, sim::EventLoop* loop)>;

/// Width of the engine's run windows: a run advances in whole windows and
/// ends at the first boundary at or after its last completion.
/// daemon::ServiceInstance::drain runs to that same boundary, which the
/// daemon's equivalence with an in-process run depends on.
inline constexpr SimTimeMs kRunWindowMs = 1000.0;

/// One client region of a run: the only code that sets up a client region,
/// counts its reads and (through merge_lanes) turns lanes into a RunResult.
/// run_experiment drives one lane per client region; daemon::ServiceInstance
/// drives one lane request by request, so a daemon route is a runner lane.
/// Callbacks on the loop hold its address, hence neither copyable nor
/// movable.
class Lane {
 public:
  /// The lane set-up: this lane's ordering key and a reserved event queue
  /// on `loop`, the per-region fetch cap on the lane's network partition,
  /// bound to `loop`, then the strategy `factory` builds for the lane's
  /// client region, warmed up. The control plane is left to the caller, so
  /// the collab tier can attach first.
  Lane(const ExperimentConfig& config, const StrategyFactory& factory,
       Deployment& deployment, std::size_t index, sim::EventLoop& loop);

  Lane(const Lane&) = delete;
  Lane& operator=(const Lane&) = delete;

  [[nodiscard]] ReadStrategy& strategy() { return *strategy_; }
  [[nodiscard]] std::size_t issued() const { return issued_; }
  [[nodiscard]] std::size_t completed() const { return completed_; }

  /// Also account each completed read with the cooperative tier.
  void set_collab(collab::CollabRuntime* collab) { collab_ = collab; }

  /// Count one read as issued (the reads-in-flight gauge).
  void begin_read();
  /// Count one read as completed at the loop's current time.
  void record(const ReadResult& r);

 private:
  friend RunResult merge_lanes(std::span<const std::unique_ptr<Lane>> lanes,
                               Deployment& deployment);

  /// One metric window of this lane: the reads that completed in it and
  /// the latencies of the successful ones.
  struct Window {
    std::uint64_t ops = 0, full = 0, partial = 0, failed = 0, degraded = 0;
    std::uint64_t peer_hits = 0, stale = 0;  // collab tier only
    stats::Histogram latencies;
  };

  std::size_t index_;
  sim::EventLoop* loop_;
  std::unique_ptr<ReadStrategy> strategy_;
  collab::CollabRuntime* collab_ = nullptr;
  RunResult counts_;  ///< read counters; merge_lanes adds the rest
  std::size_t issued_ = 0;
  std::size_t completed_ = 0;
  std::size_t reads_in_flight_ = 0;
  SimTimeMs window_ms_;  ///< 0 = no windows
  /// Window i covers [i, i + 1) * window_ms_; windows with no completion
  /// are kept, so indices map to virtual time.
  std::vector<Window> windows_;
  /// The collab tier's cumulative peer hits and stale reads of this lane
  /// at its previous completion.
  std::uint64_t peer_hits_seen_ = 0;
  std::uint64_t stale_reads_seen_ = 0;
};

/// The run's result so far: lanes merged in lane order (float accumulation
/// order is part of the determinism contract) with their windows, network,
/// fetch-policy and control-plane telemetry, lane 0's cache snapshot and
/// every lane's decode-plan counters. Run-wide parts (scenario, collab
/// summary) are the caller's.
[[nodiscard]] RunResult merge_lanes(
    std::span<const std::unique_ptr<Lane>> lanes, Deployment& deployment);

/// Run the full experiment (all runs) for one system.
[[nodiscard]] ExperimentResult run_experiment(const ExperimentConfig& config,
                                              const StrategyFactory& factory,
                                              std::string label = {});

}  // namespace agar::client
