#include "client/runner.hpp"

#include <cmath>
#include <memory>
#include <stdexcept>

#include "api/registry.hpp"
#include "collab/collab.hpp"
#include "scenario/engine.hpp"
#include "sim/event_loop.hpp"
#include "sim/sharded_engine.hpp"
#include "stats/windowed.hpp"

namespace agar::client {

Deployment::Deployment(const DeploymentConfig& config) : config_(config) {
  topology_ = std::make_unique<sim::Topology>(sim::aws_six_regions());
  network_ = std::make_unique<sim::Network>(
      sim::LatencyModel(topology_.get(), config.latency, config.seed));
  backend_ = std::make_unique<store::BackendCluster>(
      topology_->num_regions(), config.codec,
      std::make_shared<ec::RoundRobinPlacement>(
          config.per_key_placement_offset));
  if (config.store_payloads) {
    store::populate_working_set(*backend_, config.num_objects,
                                config.object_size_bytes);
  } else {
    for (std::size_t i = 0; i < config.num_objects; ++i) {
      backend_->register_object("object" + std::to_string(i),
                                config.object_size_bytes);
    }
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

namespace {

/// Per-(run, region, client) workload seed — the exported mixing formula,
/// aliased so the call sites below read as before.
std::uint64_t workload_seed(std::uint64_t run_seed, std::size_t region_index,
                            std::size_t client) {
  return workload_stream_seed(run_seed, region_index, client);
}

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
  // collab=none builds nothing — the historical isolated-cache path, with
  // byte-identical output.
  std::unique_ptr<collab::CollabRuntime> collab_rt;
  if (config.collab != "none") {
    const auto settings = api::CollabRegistry::instance().create(
        config.collab, api::CollabContext{}, config.collab_params);
    if (settings != nullptr && settings->enabled) {
      std::vector<sim::Network*> lane_nets;
      lane_nets.reserve(num_lanes);
      for (std::size_t i = 0; i < num_lanes; ++i) {
        lane_nets.push_back(&deployment.lane_network(i));
      }
      collab_rt = std::make_unique<collab::CollabRuntime>(
          *settings, &engine, &deployment.topology(), regions,
          std::move(lane_nets));
    }
  }
  collab::CollabRuntime* const crt = collab_rt.get();

  const std::size_t ops_total = config.ops_per_run;
  const SimTimeMs window_ms = config.metric_window_ms;

  struct WindowCounters {
    std::uint64_t ops = 0, full = 0, partial = 0, failed = 0, degraded = 0;
    std::uint64_t peer_hits = 0, stale = 0;  // collab tier only
  };
  // Client state is heap-held and owns its own issue/arrival closure: the
  // closures re-schedule themselves, so they must outlive the setup scope
  // and have a stable address for the events already in the queue.
  struct ClientState {
    Workload workload;
    Rng gaps;                   // open loop: inter-arrival draws
    std::size_t remaining = 0;  // open loop: arrivals left for this region
    std::function<void()> next;
  };
  /// Everything one lane mutates while it runs — touched only by the shard
  /// thread that owns the lane, then merged in lane order afterwards.
  struct LaneState {
    RunResult partial;
    std::size_t issued = 0;
    std::size_t completed = 0;
    std::size_t reads_in_flight = 0;
    std::size_t budget = 0;  // closed-loop op cap for this lane
    std::unique_ptr<stats::WindowedHistogram> window_latencies;
    std::vector<WindowCounters> window_counters;
    std::unique_ptr<scenario::ScenarioEngine> scenario;
    std::vector<std::unique_ptr<ClientState>> clients;
    std::unique_ptr<ReadStrategy> strategy;
  };
  std::vector<LaneState> lanes(num_lanes);  // never resized: stable refs

  for (std::size_t ri = 0; ri < num_lanes; ++ri) {
    LaneState& lane = lanes[ri];
    sim::EventLoop& loop = engine.loop_of_lane(ri);
    // Events scheduled during this lane's setup — and everything causally
    // derived from them at run time — carry this lane's ordering key.
    loop.set_scheduling_lane(static_cast<sim::EventLoop::LaneId>(ri));
    loop.reserve(1024);

    sim::Network& network = deployment.lane_network(ri);
    network.set_max_outstanding_per_region(config.max_outstanding_per_region);
    network.bind_loop(&loop);

    // Split the op budget across lanes; lane 0 absorbs the remainder so
    // totals always match ops_per_run.
    lane.budget =
        ops_total / num_lanes + (ri == 0 ? ops_total % num_lanes : 0);
    if (window_ms > 0.0) {
      lane.window_latencies =
          std::make_unique<stats::WindowedHistogram>(window_ms);
    }

    // One strategy instance (for Agar: one cache + control plane) per
    // client region.
    auto strategy = factory(config, deployment, regions[ri], &loop);
    strategy->warm_up();
    // The collab tier hooks in between warm-up and the control plane's
    // start: the peer-fetch transport and planner hooks must be installed
    // before the first reconfiguration, and the broadcast timer is
    // scheduled here so it carries this lane's ordering key.
    if (crt != nullptr) crt->attach(ri, *strategy);
    strategy->start_control_plane();
    lane.strategy = std::move(strategy);

    // Scenario engine, one per lane: scripted network events apply to this
    // lane's network partition, popularity shifts rewrite this lane's
    // clients, arrival modulation is sampled when gaps are drawn. The hook
    // captures the lane — its client vector fills in just below, before
    // any event can fire.
    if (!config.scenario.empty()) {
      lane.scenario = std::make_unique<scenario::ScenarioEngine>(
          config.scenario, &network,
          [&lane](const scenario::PopularityShift& shift) {
            for (auto& client : lane.clients) client->workload.apply(shift);
          });
      if (crt != nullptr) {
        // Partitions cut collab traffic only, so the hook targets the
        // collab runtime; each lane's engine fires the same script, giving
        // every lane its own consistent copy of the partition state.
        lane.scenario->set_partition_hook(
            [crt, ri](const std::vector<RegionId>& group) {
              if (group.empty()) {
                crt->heal_partition(ri);
              } else {
                crt->set_partition(ri, group);
              }
            });
      }
      lane.scenario->schedule(loop);
    }
    scenario::ScenarioEngine* const scenario_engine = lane.scenario.get();

    auto record = [&lane, &loop, crt, ri](const ReadResult& r) {
      RunResult& res = lane.partial;
      ++res.ops;
      if (crt != nullptr) crt->note_read(ri);
      if (r.failed) {
        ++res.failed_reads;
      } else {
        res.latencies.add(r.latency_ms);
        if (r.full_hit) ++res.full_hits;
        if (r.partial_hit && !r.full_hit) ++res.partial_hits;
        if (r.verified) ++res.verified;
        if (r.degraded) ++res.degraded_reads;
      }
      if (lane.window_latencies != nullptr) {
        const std::size_t w = lane.window_latencies->index_of(loop.now());
        lane.window_latencies->ensure(w);
        if (lane.window_counters.size() <= w) {
          lane.window_counters.resize(w + 1);
        }
        WindowCounters& wc = lane.window_counters[w];
        ++wc.ops;
        if (r.failed) {
          ++wc.failed;
        } else {
          lane.window_latencies->add(loop.now(), r.latency_ms);
          if (r.full_hit) ++wc.full;
          if (r.partial_hit && !r.full_hit) ++wc.partial;
          if (r.degraded) ++wc.degraded;
        }
        if (crt != nullptr) {
          // Drain the collab slice accumulated since the last completion
          // into the window this completion lands in.
          wc.peer_hits += crt->take_window_peer_hits(ri);
          wc.stale += crt->take_window_stale_reads(ri);
        }
      }
      ++lane.completed;
      --lane.reads_in_flight;
      res.duration_ms = std::max(res.duration_ms, loop.now());
    };
    auto begin_read = [&lane](Workload& workload,
                              ReadStrategy::ReadCallback done) {
      ++lane.issued;
      ++lane.reads_in_flight;
      lane.partial.max_reads_in_flight =
          std::max(lane.partial.max_reads_in_flight, lane.reads_in_flight);
      lane.strategy->start_read(workload.next_key(), std::move(done));
    };

    if (config.arrival_rate_per_s > 0.0) {
      // Open-loop mode: one Poisson arrival process per region; reads
      // start at exponentially distributed instants regardless of
      // completions, so load is applied even while earlier reads are
      // still in flight.
      const SimTimeMs mean_gap_ms = 1000.0 / config.arrival_rate_per_s;
      lane.clients.push_back(std::make_unique<ClientState>(ClientState{
          Workload(config.workload, config.deployment.num_objects,
                   workload_seed(run_seed, ri, 0)),
          Rng(workload_seed(run_seed, ri, 7777)), lane.budget, {}}));
      ClientState* state = lane.clients.back().get();
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
        lane.clients.push_back(std::make_unique<ClientState>(ClientState{
            Workload(config.workload, config.deployment.num_objects,
                     workload_seed(run_seed, ri, c)),
            Rng(0), 0, {}}));
        ClientState* state = lane.clients.back().get();
        state->next = [&lane, state, begin_read, record]() {
          if (lane.issued >= lane.budget) return;
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

  // Drive the engine in whole 1 s windows until every read has completed
  // (the periodic reconfiguration re-arms forever, so idleness alone never
  // ends a run). The stop predicate runs at window boundaries while all
  // shards are quiescent at the barrier.
  engine.run_windows(1000.0, [&lanes, ops_total] {
    std::size_t completed = 0;
    for (const LaneState& lane : lanes) completed += lane.completed;
    return completed >= ops_total;
  });

  RunResult result;

  // Materialize the windowed time series: per-window histograms merged
  // across lanes in lane order, counters alongside, empty windows kept so
  // indices map to virtual time.
  if (window_ms > 0.0) {
    std::size_t n = 0;
    for (const LaneState& lane : lanes) {
      if (lane.window_latencies != nullptr) {
        n = std::max(n, lane.window_latencies->size());
      }
      n = std::max(n, lane.window_counters.size());
    }
    result.windows.reserve(n);
    for (std::size_t w = 0; w < n; ++w) {
      WindowStats ws;
      ws.start_ms = static_cast<double>(w) * window_ms;
      ws.end_ms = ws.start_ms + window_ms;
      stats::Histogram merged;
      for (const LaneState& lane : lanes) {
        if (w < lane.window_counters.size()) {
          const WindowCounters& wc = lane.window_counters[w];
          ws.ops += wc.ops;
          ws.full_hits += wc.full;
          ws.partial_hits += wc.partial;
          ws.failed_reads += wc.failed;
          ws.degraded_reads += wc.degraded;
          ws.collab_peer_hits += wc.peer_hits;
          ws.collab_stale_reads += wc.stale;
        }
        if (lane.window_latencies != nullptr &&
            w < lane.window_latencies->size()) {
          merged.merge(lane.window_latencies->window(w));
        }
      }
      if (merged.count() > 0) {
        ws.mean_ms = merged.mean();
        ws.p50_ms = merged.percentile(50);
        ws.p99_ms = merged.percentile(99);
      }
      result.windows.push_back(ws);
    }
  }
  // Every lane's engine fires the same script; report one copy, as before.
  if (lanes.front().scenario != nullptr) {
    result.scenario_events_fired = lanes.front().scenario->fired();
  }

  // Merge lane results in lane order (float accumulation order is part of
  // the determinism contract), then the per-lane pipeline gauges: peaks
  // that were per-region stay maxima, per-lane concurrency peaks sum.
  std::vector<double> ewma_sum, ewma_weight;  // per region, across lanes
  bool any_policy = false;
  for (std::size_t ri = 0; ri < num_lanes; ++ri) {
    LaneState& lane = lanes[ri];
    const RunResult& p = lane.partial;
    result.latencies.merge(p.latencies);
    result.ops += p.ops;
    result.full_hits += p.full_hits;
    result.partial_hits += p.partial_hits;
    result.verified += p.verified;
    result.failed_reads += p.failed_reads;
    result.degraded_reads += p.degraded_reads;
    result.duration_ms = std::max(result.duration_ms, p.duration_ms);
    result.max_reads_in_flight += p.max_reads_in_flight;

    sim::Network& network = deployment.lane_network(ri);
    result.wire_fetches += network.wire_fetches();
    result.queued_fetches += network.queued_fetches();
    result.max_queue_depth =
        std::max(result.max_queue_depth, network.max_queue_depth());
    result.max_net_in_flight += network.max_in_flight();
    result.aborted_on_wire += network.aborted_on_wire();
    result.failed_in_queue += network.failed_in_queue();
    result.timed_out_fetches += network.timed_out();

    result.coalesced_fetches += lane.strategy->fetch_coordinator().coalesced();
    const core::ControlPlaneStats cp = lane.strategy->control_plane_stats();
    result.reconfigurations += cp.reconfigurations;
    result.planning_ms += cp.planning_ms;
    result.config_chunks_installed += cp.chunks_installed;
    result.config_chunks_evicted += cp.chunks_evicted;

    if (const FetchPolicy* policy = lane.strategy->fetch_policy()) {
      any_policy = true;
      const FetchPolicyStats& fs = policy->stats();
      result.fetch_attempts += fs.attempts;
      result.fetch_timeouts += fs.timeouts;
      result.fetch_retries += fs.retries;
      result.hedges_issued += fs.hedges_issued;
      result.hedges_won += fs.hedges_won;
      result.hedges_wasted += fs.hedges_wasted;
      result.fetch_exhausted += fs.exhausted;
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
  }
  if (any_policy) {
    result.region_success_ewma.reserve(ewma_sum.size());
    for (std::size_t r = 0; r < ewma_sum.size(); ++r) {
      // No samples anywhere: report the EWMA's healthy prior.
      result.region_success_ewma.push_back(
          ewma_weight[r] > 0.0 ? ewma_sum[r] / ewma_weight[r] : 1.0);
    }
  }

  // Cooperative-tier summary: lane-order merge of the per-lane counters
  // plus the config log / overlap state that exists once per run.
  if (crt != nullptr) {
    std::vector<ReadStrategy*> strategies;
    strategies.reserve(num_lanes);
    for (LaneState& lane : lanes) strategies.push_back(lane.strategy.get());
    const collab::CollabRuntime::Summary s = crt->summarize(strategies);
    result.collab_active = true;
    result.collab_peer_hits = s.peer_hits;
    result.collab_peer_misses = s.peer_misses;
    result.collab_bytes_from_peers = s.bytes_from_peers;
    result.collab_bytes_from_backend = s.bytes_from_backend;
    result.stale_config_reads = s.stale_config_reads;
    result.paxos_appends = s.paxos_appends;
    result.paxos_append_failures = s.paxos_append_failures;
    result.paxos_append_p50_ms = s.paxos_append_p50_ms;
    result.paxos_append_p99_ms = s.paxos_append_p99_ms;
    result.config_epochs = s.config_epochs;
    result.config_overlap = s.config_overlap;
  }

  // Final snapshots through the observability hooks every strategy
  // exposes (primary region's strategy, as before) — the runner needs no
  // knowledge of concrete strategy types.
  ReadStrategy* primary = lanes.front().strategy.get();
  if (const cache::CacheEngine* cache_engine = primary->cache_engine()) {
    result.cache_stats = cache_engine->stats();
    result.cache_used_bytes = cache_engine->used_bytes();
  }
  result.weight_histogram = primary->config_weight_histogram();
  // Lane 0 decodes on the backend's codec, further lanes on their clones;
  // the report is the sum over all decode-plan caches.
  result.decode_plan_hits =
      deployment.backend().codec().rs().decode_plan_hits();
  result.decode_plan_misses =
      deployment.backend().codec().rs().decode_plan_misses();
  for (std::size_t ri = 1; ri < num_lanes; ++ri) {
    result.decode_plan_hits += deployment.lane_codec(ri).rs().decode_plan_hits();
    result.decode_plan_misses +=
        deployment.lane_codec(ri).rs().decode_plan_misses();
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
  for (const auto& r : runs) acc += r.wire_fetches;
  return acc;
}

std::uint64_t ExperimentResult::total_reconfigurations() const {
  std::uint64_t acc = 0;
  for (const auto& r : runs) acc += r.reconfigurations;
  return acc;
}

double ExperimentResult::total_planning_ms() const {
  double acc = 0.0;
  for (const auto& r : runs) acc += r.planning_ms;
  return acc;
}

std::uint64_t ExperimentResult::total_config_churn() const {
  std::uint64_t acc = 0;
  for (const auto& r : runs) {
    acc += r.config_chunks_installed + r.config_chunks_evicted;
  }
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
