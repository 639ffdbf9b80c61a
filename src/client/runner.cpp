#include "client/runner.hpp"

#include <cmath>
#include <memory>
#include <stdexcept>

#include "api/registry.hpp"
#include "collab/collab.hpp"
#include "scenario/engine.hpp"
#include "sim/event_loop.hpp"
#include "sim/sharded_engine.hpp"

namespace agar::client {

Deployment::Deployment(const DeploymentConfig& config) : config_(config) {
  topology_ = std::make_unique<sim::Topology>(sim::aws_six_regions());
  network_ = std::make_unique<sim::Network>(
      sim::LatencyModel(topology_.get(), config.latency, config.seed));
  backend_ = std::make_unique<store::BackendCluster>(
      topology_->num_regions(), config.codec,
      ec::RoundRobinPlacement(config.per_key_placement_offset));
  if (config.store_payloads) {
    store::populate_working_set(*backend_, config.num_objects,
                                config.object_size_bytes);
  } else {
    backend_->reserve(config.num_objects);
    for (std::size_t i = 0; i < config.num_objects; ++i) {
      (void)backend_->register_object("object" + std::to_string(i),
                                      config.object_size_bytes);
    }
  }
  // "object<i>" must register as id i (see object_id): the empty backend
  // gives each new key the next id.
  if (backend_->num_objects() != config.num_objects) {
    throw std::logic_error("Deployment: working-set keys collided");
  }
}

void Deployment::bind_lanes(const std::vector<RegionId>& lane_regions) {
  lane_regions_ = lane_regions;
  lane_networks_.clear();
  lane_codecs_.clear();
  for (std::size_t lane = 1; lane < lane_regions_.size(); ++lane) {
    // Each extra lane draws from its own deterministic latency RNG stream.
    const std::uint64_t lane_seed =
        config_.seed + 0x9E3779B97F4A7C15ULL * lane;
    lane_networks_.push_back(std::make_unique<sim::Network>(
        sim::LatencyModel(topology_.get(), config_.latency, lane_seed)));
    lane_codecs_.push_back(std::make_unique<ec::ObjectCodec>(config_.codec));
  }
}

// ------------------------------------------------------------------ lanes

Lane::Lane(const ExperimentConfig& config, const StrategyFactory& factory,
           Deployment& deployment, std::size_t index, sim::EventLoop& loop)
    : index_(index), loop_(&loop), window_ms_(config.metric_window_ms) {
  // Events scheduled during this lane's setup — and everything causally
  // derived from them at run time — carry this lane's ordering key.
  loop.set_scheduling_lane(static_cast<sim::EventLoop::LaneId>(index));
  loop.reserve(1024);

  sim::Network& network = deployment.lane_network(index);
  network.set_max_outstanding_per_region(config.max_outstanding_per_region);
  network.bind_loop(&loop);

  // One strategy instance (for Agar: one cache + control plane) per
  // client region.
  strategy_ = factory(config, deployment,
                      config.effective_client_regions()[index], &loop);
  strategy_->warm_up();
}

void Lane::begin_read() {
  ++issued_;
  ++reads_in_flight_;
  max_reads_in_flight_ = std::max(max_reads_in_flight_, reads_in_flight_);
}

void ReadStats::add(const ReadResult& r) {
  ++ops;
  if (r.failed) {
    ++failed_reads;
    return;
  }
  latencies.add(r.latency_ms);
  if (r.full_hit) ++full_hits;
  if (r.partial_hit && !r.full_hit) ++partial_hits;
  if (r.verified) ++verified;
  if (r.degraded) ++degraded_reads;
}

void ReadStats::merge(const ReadStats& other) {
  ops += other.ops;
  full_hits += other.full_hits;
  partial_hits += other.partial_hits;
  verified += other.verified;
  failed_reads += other.failed_reads;
  degraded_reads += other.degraded_reads;
  latencies.merge(other.latencies);
}

void Lane::record(const ReadResult& r) {
  const SimTimeMs now = loop_->now();
  reads_.add(r);
  if (collab_ != nullptr) collab_->note_read(index_);
  if (window_ms_ > 0.0) {
    const std::size_t w =
        now > 0.0 ? static_cast<std::size_t>(std::floor(now / window_ms_))
                  : 0;
    if (windows_.size() <= w) windows_.resize(w + 1);
    WindowStats& win = windows_[w];
    win.add(r);
    if (collab_ != nullptr) {
      // The window this completion lands in takes what the collab tier
      // counted for this lane since the lane's previous completion.
      const collab::CollabStats& cs = collab_->lane_stats(index_);
      win.collab_peer_hits += cs.peer_hits - peer_hits_seen_;
      win.collab_stale_reads += cs.stale_config_reads - stale_reads_seen_;
      peer_hits_seen_ = cs.peer_hits;
      stale_reads_seen_ = cs.stale_config_reads;
    }
  }
  --reads_in_flight_;
  last_completion_ms_ = std::max(last_completion_ms_, now);
}

RunResult merge_lanes(std::span<const std::unique_ptr<Lane>> lanes,
                      Deployment& deployment) {
  // Lanes merge in lane order: latency samples, float sums and window
  // histograms accumulate in that order. In-flight peaks add across lanes,
  // which run side by side.
  RunResult result;
  std::vector<double> ewma_sum, ewma_weight;  // per region, across lanes
  bool any_policy = false;
  for (const auto& lane : lanes) {
    result.merge(lane->reads_);
    if (result.windows.size() < lane->windows_.size()) {
      result.windows.resize(lane->windows_.size());
    }
    for (std::size_t w = 0; w < lane->windows_.size(); ++w) {
      result.windows[w].merge(lane->windows_[w]);
    }
    result.duration_ms =
        std::max(result.duration_ms, lane->last_completion_ms_);
    result.max_reads_in_flight += lane->max_reads_in_flight_;
    result.network.merge(deployment.lane_network(lane->index_).stats());

    ReadStrategy& strategy = *lane->strategy_;
    result.coalesced_fetches += strategy.fetch_coordinator().coalesced();
    result.control_plane.merge(strategy.control_plane_stats());
    if (const FetchPolicy* policy = strategy.fetch_policy()) {
      any_policy = true;
      result.fetch.merge(policy->stats());
      if (ewma_sum.size() < policy->num_regions()) {
        ewma_sum.resize(policy->num_regions(), 0.0);
        ewma_weight.resize(policy->num_regions(), 0.0);
      }
      // Sample-weighted merge, in lane order: a lane that fetched more from
      // a region moves that region's merged health estimate more.
      for (RegionId r = 0; r < policy->num_regions(); ++r) {
        const auto w = static_cast<double>(policy->region_samples(r));
        ewma_sum[r] += w * policy->region_success_ewma(r);
        ewma_weight[r] += w;
      }
    }
    // Lane 0 decodes on the backend's codec, further lanes on their
    // clones; the report is the sum over all decode-plan caches.
    const ec::ReedSolomon& rs = deployment.lane_codec(lane->index_).rs();
    result.decode_plan_hits += rs.decode_plan_hits();
    result.decode_plan_misses += rs.decode_plan_misses();
  }
  // Window w spans [w, w + 1) * window_ms; the last one holds the run's
  // last completion and ends with it.
  const SimTimeMs window_ms = lanes.front()->window_ms_;
  for (std::size_t w = 0; w < result.windows.size(); ++w) {
    result.windows[w].start_ms = static_cast<double>(w) * window_ms;
    result.windows[w].end_ms = result.windows[w].start_ms + window_ms;
  }
  if (!result.windows.empty()) {
    result.windows.back().end_ms = result.duration_ms;
  }
  if (any_policy) {
    result.region_success_ewma.reserve(ewma_sum.size());
    for (std::size_t r = 0; r < ewma_sum.size(); ++r) {
      // No samples anywhere: report the EWMA's healthy prior.
      result.region_success_ewma.push_back(
          ewma_weight[r] > 0.0 ? ewma_sum[r] / ewma_weight[r] : 1.0);
    }
  }

  // Final snapshots through the observability hooks every strategy
  // exposes (primary region's strategy) — no knowledge of concrete
  // strategy types needed.
  const ReadStrategy& primary = *lanes.front()->strategy_;
  if (const cache::CacheEngine* cache_engine = primary.cache_engine()) {
    result.cache_stats = cache_engine->stats();
    result.cache_used_bytes = cache_engine->used_bytes();
  }
  result.weight_histogram = primary.config_weight_histogram();
  return result;
}

// ------------------------------------------------------------------- runs

namespace {

RunResult run_once(const ExperimentConfig& config,
                   const StrategyFactory& factory, std::uint64_t run_seed) {
  DeploymentConfig dep_config = config.deployment;
  dep_config.seed = run_seed;
  // Latency-only experiments skip payload materialization entirely.
  dep_config.store_payloads = config.verify_data;
  Deployment deployment(dep_config);

  // One lane per client region. Lanes share no mutable simulation state
  // (own network partition, own RNG streams, own strategy/clients/stats),
  // so the sharded engine can execute them on any number of worker threads
  // and the merged event order — hence every result byte — is identical.
  const std::vector<RegionId> regions = config.effective_client_regions();
  const std::size_t num_lanes = regions.size();
  deployment.bind_lanes(regions);
  sim::ShardedEngine engine(config.shards, num_lanes);

  // Cooperative cache tier: one runtime per run, spanning every lane.
  // collab=none yields no settings and builds nothing — the historical
  // isolated-cache path, with byte-identical output.
  std::unique_ptr<collab::CollabRuntime> collab_rt;
  if (const auto settings = api::CollabRegistry::instance().create(
          config.collab, api::CollabContext{}, config.collab_params)) {
    std::vector<sim::Network*> lane_nets;
    lane_nets.reserve(num_lanes);
    for (std::size_t i = 0; i < num_lanes; ++i) {
      lane_nets.push_back(&deployment.lane_network(i));
    }
    collab_rt = std::make_unique<collab::CollabRuntime>(
        *settings, &engine, &deployment.topology(), regions,
        std::move(lane_nets));
  }
  collab::CollabRuntime* const crt = collab_rt.get();

  const std::size_t ops_total = config.ops_per_run;

  // Client state is heap-held and owns its own issue/arrival closure: the
  // closures re-schedule themselves, so they must outlive the setup scope
  // and have a stable address for the events already in the queue.
  struct ClientState {
    Workload workload;
    Rng gaps;                   // open loop: inter-arrival draws
    std::size_t remaining = 0;  // open loop: arrivals left for this region
    std::function<void()> next;
  };
  std::vector<std::unique_ptr<Lane>> lanes;
  lanes.reserve(num_lanes);
  // Per lane, touched only by the shard thread that owns the lane: its
  // scenario engine and its clients. Never resized: stable refs.
  std::vector<std::unique_ptr<scenario::ScenarioEngine>> scenarios(num_lanes);
  std::vector<std::vector<std::unique_ptr<ClientState>>> clients(num_lanes);

  for (std::size_t ri = 0; ri < num_lanes; ++ri) {
    sim::EventLoop& loop = engine.loop_of_lane(ri);
    Lane& lane = *lanes.emplace_back(
        std::make_unique<Lane>(config, factory, deployment, ri, loop));
    // The collab tier hooks in between warm-up and the control plane's
    // start: the peer-fetch transport and reconfigure observer must be
    // installed before the first reconfiguration, and the broadcast timer
    // is scheduled here so it carries this lane's ordering key.
    if (crt != nullptr) {
      lane.set_collab(crt);
      crt->attach(ri, lane.strategy());
    }
    lane.strategy().start_control_plane();

    // Split the op budget across lanes; lane 0 absorbs the remainder so
    // totals always match ops_per_run.
    const std::size_t budget =
        ops_total / num_lanes + (ri == 0 ? ops_total % num_lanes : 0);
    std::vector<std::unique_ptr<ClientState>>& lane_clients = clients[ri];

    // Scenario engine, one per lane: scripted network events apply to this
    // lane's network partition, popularity shifts rewrite this lane's
    // clients, arrival modulation is sampled when gaps are drawn. The hook
    // captures the lane's client vector — it fills in just below, before
    // any event can fire.
    if (!config.scenario.empty()) {
      scenarios[ri] = std::make_unique<scenario::ScenarioEngine>(
          config.scenario, &deployment.lane_network(ri),
          [&lane_clients](const scenario::PopularityShift& shift) {
            for (auto& client : lane_clients) client->workload.apply(shift);
          });
      if (crt != nullptr) {
        // Partitions cut collab traffic only, so the hook targets the
        // collab runtime; each lane's engine fires the same script, giving
        // every lane its own consistent copy of the partition state.
        scenarios[ri]->set_partition_hook(
            [crt, ri](const std::vector<RegionId>& group) {
              if (group.empty()) {
                crt->heal_partition(ri);
              } else {
                crt->set_partition(ri, group);
              }
            });
      }
      scenarios[ri]->schedule(loop);
    }
    scenario::ScenarioEngine* const scenario_engine = scenarios[ri].get();

    auto record = [&lane](const ReadResult& r) { lane.record(r); };
    auto begin_read = [&lane, &deployment](Workload& workload,
                                           ReadStrategy::ReadCallback done) {
      lane.begin_read();
      lane.strategy().start_read(
          deployment.object_id(workload.next_object()), std::move(done));
    };

    if (config.arrival_rate_per_s > 0.0) {
      // Open-loop mode: one Poisson arrival process per region; reads
      // start at exponentially distributed instants regardless of
      // completions, so load is applied even while earlier reads are
      // still in flight.
      const SimTimeMs mean_gap_ms = 1000.0 / config.arrival_rate_per_s;
      lane_clients.push_back(std::make_unique<ClientState>(ClientState{
          Workload(config.workload, config.deployment.num_objects,
                   workload_stream_seed(run_seed, ri, 0)),
          Rng(workload_stream_seed(run_seed, ri, 7777)), budget, {}}));
      ClientState* state = lane_clients.back().get();
      state->next = [state, begin_read, record, mean_gap_ms, scenario_engine,
                     &loop]() {
        if (state->remaining == 0) return;
        --state->remaining;
        begin_read(state->workload, record);
        if (state->remaining > 0) {
          const double u = state->gaps.next_double();
          // Scenario arrival modulation scales the instantaneous rate:
          // the mean gap shrinks (surge) or stretches (lull) by the
          // multiplier in force when this gap is drawn.
          const double rate_mult =
              scenario_engine != nullptr
                  ? scenario_engine->arrival_multiplier(loop.now())
                  : 1.0;
          const SimTimeMs gap = -mean_gap_ms * std::log(1.0 - u) / rate_mult;
          loop.schedule_in(gap, state->next);
        }
      };
      loop.schedule_in(0.0, state->next);
    } else {
      // Closed-loop clients: each issues its next read when the previous
      // one completes (the paper's YCSB clients are closed-loop).
      const std::size_t per_region =
          std::max<std::size_t>(1, config.num_clients);
      for (std::size_t c = 0; c < per_region; ++c) {
        lane_clients.push_back(std::make_unique<ClientState>(ClientState{
            Workload(config.workload, config.deployment.num_objects,
                     workload_stream_seed(run_seed, ri, c)),
            Rng(0), 0, {}}));
        ClientState* state = lane_clients.back().get();
        state->next = [&lane, state, budget, begin_read, record]() {
          if (lane.issued() >= budget) return;
          begin_read(state->workload,
                     [state, record](const ReadResult& r) {
                       record(r);
                       state->next();
                     });
        };
        loop.schedule_in(0.0, state->next);
      }
    }
  }

  // Drive the engine in whole run windows until every read has completed
  // (the periodic reconfiguration re-arms forever, so idleness alone never
  // ends a run). The stop predicate runs at window boundaries while all
  // shards are quiescent at the barrier.
  engine.run_windows(kRunWindowMs, [&lanes, ops_total] {
    std::size_t completed = 0;
    for (const auto& lane : lanes) completed += lane->completed();
    return completed >= ops_total;
  });

  RunResult result = merge_lanes(lanes, deployment);
  // Every lane's engine fires the same script; report one copy, as before.
  if (scenarios.front() != nullptr) {
    result.scenario_events_fired = scenarios.front()->fired();
  }

  // Cooperative-tier summary: lane-order merge of the per-lane counters
  // plus the config log / overlap state that exists once per run.
  if (crt != nullptr) {
    std::vector<ReadStrategy*> strategies;
    strategies.reserve(num_lanes);
    for (const auto& lane : lanes) strategies.push_back(&lane->strategy());
    result.collab = crt->summarize(strategies);
  }
  return result;
}

}  // namespace

double ExperimentResult::mean_latency_ms() const {
  if (runs.empty()) return 0.0;
  double acc = 0.0;
  for (const auto& r : runs) acc += r.mean_latency_ms();
  return acc / static_cast<double>(runs.size());
}

double ExperimentResult::stddev_of_means() const {
  if (runs.size() < 2) return 0.0;
  const double m = mean_latency_ms();
  double acc = 0.0;
  for (const auto& r : runs) {
    const double d = r.mean_latency_ms() - m;
    acc += d * d;
  }
  return std::sqrt(acc / static_cast<double>(runs.size() - 1));
}

double ExperimentResult::hit_ratio() const {
  std::uint64_t hits = 0, ops = 0;
  for (const auto& r : runs) {
    hits += r.full_hits + r.partial_hits;
    ops += r.ops;
  }
  return ops == 0 ? 0.0
                  : static_cast<double>(hits) / static_cast<double>(ops);
}

double ExperimentResult::full_hit_ratio() const {
  std::uint64_t hits = 0, ops = 0;
  for (const auto& r : runs) {
    hits += r.full_hits;
    ops += r.ops;
  }
  return ops == 0 ? 0.0
                  : static_cast<double>(hits) / static_cast<double>(ops);
}

double ExperimentResult::percentile_ms(double q) const {
  stats::Histogram merged;
  for (const auto& r : runs) merged.merge(r.latencies);
  // No completed reads (e.g. a daemon route that never saw traffic):
  // report 0 rather than throwing, matching mean_latency_ms.
  if (merged.count() == 0) return 0.0;
  return merged.percentile(q);
}

std::uint64_t ExperimentResult::total_ops() const {
  std::uint64_t ops = 0;
  for (const auto& r : runs) ops += r.ops;
  return ops;
}

double ExperimentResult::mean_throughput_ops_per_s() const {
  if (runs.empty()) return 0.0;
  double acc = 0.0;
  for (const auto& r : runs) acc += r.throughput_ops_per_s();
  return acc / static_cast<double>(runs.size());
}

std::uint64_t ExperimentResult::total_coalesced_fetches() const {
  std::uint64_t acc = 0;
  for (const auto& r : runs) acc += r.coalesced_fetches;
  return acc;
}

std::uint64_t ExperimentResult::total_wire_fetches() const {
  std::uint64_t acc = 0;
  for (const auto& r : runs) acc += r.network.wire_fetches;
  return acc;
}

ExperimentResult run_experiment(const ExperimentConfig& config,
                                const StrategyFactory& factory,
                                std::string label) {
  if (!factory) {
    throw std::invalid_argument("run_experiment: null strategy factory");
  }
  ExperimentResult result;
  // Reports print/serialize the label verbatim; never leave it blank.
  result.label = label.empty() ? "experiment" : std::move(label);
  result.runs.reserve(config.runs);
  for (std::size_t r = 0; r < config.runs; ++r) {
    const std::uint64_t run_seed =
        config.deployment.seed + r * 1000003ULL;
    result.runs.push_back(run_once(config, factory, run_seed));
  }
  return result;
}

}  // namespace agar::client
