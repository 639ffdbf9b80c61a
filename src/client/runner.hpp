// Experiment runner: wires a full deployment (topology, network, backend,
// working set) to a read strategy and replays the paper's evaluation
// methodology — N runs x M reads issued by closed-loop clients on the
// discrete-event simulator, with Agar/periodic reconfiguration running on
// the same virtual timeline (paper §V-A: 5 runs, 1,000 reads per run, 2
// YCSB clients per instance, 30 s reconfiguration period).
#pragma once

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "api/param_map.hpp"
#include "cache/cache.hpp"
#include "client/strategy.hpp"
#include "client/workload.hpp"
#include "collab/peer_info.hpp"
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

  /// The id of working-set object `index`, "object<index>", which a
  /// workload's next_object() names: the constructor registered each
  /// object as its index and checked it.
  [[nodiscard]] ObjectId object_id(std::size_t index) const {
    return static_cast<ObjectId>(index);
  }

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

/// The read counters. One function classifies a completed read (`add`)
/// and one merges (`merge`); each lane's total, each of its metric windows
/// and the run all keep them. Latency stats cover successful reads only:
/// failed reads are counted, not averaged in.
struct ReadStats {
  std::uint64_t ops = 0;  ///< completed reads, including failed ones
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
  stats::Histogram latencies;  ///< successful reads only

  /// Count one completed read.
  void add(const ReadResult& r);
  /// Add another's counts; its latency samples follow this one's.
  void merge(const ReadStats& other);

  [[nodiscard]] double mean_latency_ms() const { return latencies.mean(); }
  /// Nearest-rank latency percentile, 0 with no successful read.
  [[nodiscard]] double percentile_ms(double q) const {
    return latencies.count() == 0 ? 0.0 : latencies.percentile(q);
  }
  [[nodiscard]] double hit_ratio() const {
    return ops == 0 ? 0.0
                    : static_cast<double>(full_hits + partial_hits) /
                          static_cast<double>(ops);
  }
};

/// One fixed time window of a run's time series — the unit adaptation is
/// measured in: the reads that completed in it. The last window ends at
/// the run's last completion (duration_ms), not a whole window later.
struct WindowStats : ReadStats {
  SimTimeMs start_ms = 0.0;
  SimTimeMs end_ms = 0.0;
  /// Cooperative tier (collab=broadcast only; zero otherwise): chunk
  /// fetches served by a peer cache, and reads issued while this region's
  /// learned config epoch was ahead of the applied one.
  std::uint64_t collab_peer_hits = 0;
  std::uint64_t collab_stale_reads = 0;

  /// Add another lane's window of the same span.
  void merge(const WindowStats& other) {
    ReadStats::merge(other);
    collab_peer_hits += other.collab_peer_hits;
    collab_stale_reads += other.collab_stale_reads;
  }
};

/// Outcome of one run: its read counters plus each subsystem's own stats,
/// merged across lanes.
struct RunResult : ReadStats {
  SimTimeMs duration_ms = 0.0;          ///< virtual time of the last completion
  std::size_t max_reads_in_flight = 0;  ///< per-lane peaks, summed
  std::uint64_t coalesced_fetches = 0;  ///< requests joined to in-flight ones
  std::uint64_t scenario_events_fired = 0;  ///< scripted events applied
  cache::CacheStats cache_stats;            ///< lane 0's cache
  std::size_t cache_used_bytes = 0;
  /// Agar and LFU-c: configured objects per option weight (Fig. 10 data),
  /// sorted by weight so consumers iterate deterministically.
  std::map<std::size_t, std::size_t> weight_histogram;
  /// Decode-plan caches of every lane's codec: reconstructions that found
  /// their inverted decode matrix memoized vs had to invert.
  std::uint64_t decode_plan_hits = 0;
  std::uint64_t decode_plan_misses = 0;
  sim::NetworkStats network;
  FetchPolicyStats fetch;  ///< zero when fetch=none
  /// Per-destination-region fetch success EWMA (1 = healthy), merged
  /// across lanes weighted by sample count. Empty when no policy ran.
  std::vector<double> region_success_ewma;
  core::ControlPlaneStats control_plane;
  /// Set only when a cooperative tier ran (collab=broadcast), so the
  /// report can leave the block out and keep collab=none byte-identical.
  std::optional<collab::CollabStats> collab;
  /// Windowed time series (metric_window_ms > 0), windows with no
  /// completions included so indices line up with virtual time.
  std::vector<WindowStats> windows;

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
  [[nodiscard]] std::size_t completed() const { return reads_.ops; }

  /// Also account each completed read with the cooperative tier.
  void set_collab(collab::CollabRuntime* collab) { collab_ = collab; }

  /// Count one read as issued (the reads-in-flight gauge).
  void begin_read();
  /// Count one read as completed at the loop's current time.
  void record(const ReadResult& r);

 private:
  friend RunResult merge_lanes(std::span<const std::unique_ptr<Lane>> lanes,
                               Deployment& deployment);

  std::size_t index_;
  sim::EventLoop* loop_;
  std::unique_ptr<ReadStrategy> strategy_;
  collab::CollabRuntime* collab_ = nullptr;
  ReadStats reads_;
  std::size_t issued_ = 0;
  std::size_t reads_in_flight_ = 0;
  std::size_t max_reads_in_flight_ = 0;
  SimTimeMs last_completion_ms_ = 0.0;
  SimTimeMs window_ms_;  ///< 0 = no windows
  /// Window i covers [i, i + 1) * window_ms_; windows with no completion
  /// are kept, so indices map to virtual time. merge_lanes sets the spans.
  std::vector<WindowStats> windows_;
  /// The collab tier's cumulative peer hits and stale reads of this lane
  /// at its previous completion.
  std::uint64_t peer_hits_seen_ = 0;
  std::uint64_t stale_reads_seen_ = 0;
};

/// The run's result so far: lanes merged in lane order (float accumulation
/// order is part of the determinism contract) with their windows, network,
/// fetch-policy and control-plane stats, lane 0's cache snapshot and every
/// lane's decode-plan counters. Run-wide parts (scenario, collab summary)
/// are the caller's.
[[nodiscard]] RunResult merge_lanes(
    std::span<const std::unique_ptr<Lane>> lanes, Deployment& deployment);

/// Run the full experiment (all runs) for one system.
[[nodiscard]] ExperimentResult run_experiment(const ExperimentConfig& config,
                                              const StrategyFactory& factory,
                                              std::string label = {});

}  // namespace agar::client
