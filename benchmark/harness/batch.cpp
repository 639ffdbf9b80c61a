// Batch workloads: the experiment runner driven through the program's own
// spec API. One process measures set-ups or runs of one spec; run.py
// starts a fresh process per run.
#include "batch.hpp"

#include <cstdint>
#include <cstring>
#include <iostream>
#include <stdexcept>

#include "api/run.hpp"
#include "client/report.hpp"
#include "common.hpp"
#include "common/bytes.hpp"
#include "ec/object_codec.hpp"
#include "ec/placement.hpp"
#include "sim/sharded_engine.hpp"
#include "sim/topology.hpp"
#include "tracing.hpp"

namespace bench {

using namespace agar;

namespace {

struct SetupSample {
  double deployment_s = 0.0;  ///< client::Deployment construction
  double strategy_s = 0.0;    ///< lanes bound + strategies built and warmed
  std::uint64_t stored_bytes = 0;  ///< payload bytes encoded into the store
};

struct EcReplay {
  std::vector<double> decode_us;
  std::vector<double> check_us;
};

SetupSample measure_setup(const api::ExperimentSpec& spec) {
  // The runner's set-up for run 0, step by step: deployment and working
  // set, then per lane the strategy build through the registry factory
  // plus its warm-up probes.
  const client::ExperimentConfig& config = spec.experiment;
  client::DeploymentConfig dep_config = config.deployment;
  dep_config.store_payloads = config.verify_data;

  SetupSample sample;
  const double t0 = now_s();
  client::Deployment deployment(dep_config);
  const double t1 = now_s();
  const std::vector<RegionId> regions = config.effective_client_regions();
  deployment.bind_lanes(regions);
  sim::ShardedEngine engine(config.shards, regions.size());
  const client::StrategyFactory factory = api::make_strategy_factory(spec);
  std::vector<std::unique_ptr<client::ReadStrategy>> strategies;
  for (std::size_t lane = 0; lane < regions.size(); ++lane) {
    const auto lane_id = static_cast<sim::EventLoop::LaneId>(lane);
    sim::EventLoop& loop = engine.loop_of_lane(lane_id);
    loop.set_scheduling_lane(lane_id);
    sim::Network& network = deployment.lane_network(lane);
    network.set_max_outstanding_per_region(config.max_outstanding_per_region);
    network.bind_loop(&loop);
    auto strategy = factory(config, deployment, regions[lane], &loop);
    strategy->warm_up();
    strategies.push_back(std::move(strategy));
  }
  const double t2 = now_s();
  sample.deployment_s = t1 - t0;
  sample.strategy_s = t2 - t1;
  sample.stored_bytes = config.verify_data
                            ? dep_config.num_objects *
                                  dep_config.object_size_bytes
                            : 0;
  return sample;
}

EcReplay replay_ec(const client::ExperimentConfig& config,
                   double budget_s) {
  // One object of the working set, decoded from the k chunks nearest the
  // client region, as a verify-mode read with every chunk on the wire
  // does; then the payload check the read path runs on the result.
  const std::string key = "object0";
  const std::size_t size = config.deployment.object_size_bytes;
  const ec::ObjectCodec codec(config.deployment.codec);
  const Bytes payload = deterministic_payload(key, size);
  const ec::EncodedObject encoded = codec.encode(BytesView(payload));

  const sim::Topology topology = sim::aws_six_regions();
  const ec::RoundRobinPlacement placement(
      config.deployment.per_key_placement_offset);
  std::vector<ec::Chunk> nearest;
  for (const RegionId region :
       topology.regions_by_distance(config.client_region)) {
    for (const ChunkIndex index : placement.chunks_in_region(
             key, codec.k() + codec.m(), region, topology.num_regions())) {
      if (nearest.size() < codec.k()) nearest.push_back(encoded.chunks[index]);
    }
  }

  EcReplay replay;
  const double start = now_s();
  while (replay.decode_us.size() < 20 ||
         (now_s() - start < budget_s && replay.decode_us.size() < 2000)) {
    const double t0 = now_s();
    const Bytes decoded = codec.decode(size, nearest);
    const double t1 = now_s();
    const Bytes expected = deterministic_payload(key, size);
    const bool same = decoded.size() == expected.size() &&
                      std::memcmp(decoded.data(), expected.data(),
                                  decoded.size()) == 0;
    const double t2 = now_s();
    if (!same) throw std::runtime_error("ec replay: decoded object differs");
    replay.decode_us.push_back((t1 - t0) * 1e6);
    replay.check_us.push_back((t2 - t1) * 1e6);
  }
  return replay;
}

/// Traced-entry totals since the last reset plus the ec replay.
JsonObject trace_object(const client::ExperimentConfig& config) {
  const PlanTrace plan = take_plan_trace();
  const MonitorTrace monitor = take_monitor_trace();
  const EcReplay ec = replay_ec(config, 0.3);
  return JsonObject()
      .count("empty_plans", plan.empty_plans)
      .num("plan_s", plan.plan_s)
      .num("plan_max_s", plan.plan_max_s)
      .count("plan_units_max", plan.units_max)
      .num("monitor_s", monitor.total_s())
      .raw("ec_decode_us", json_array(ec.decode_us))
      .raw("ec_check_us", json_array(ec.check_us));
}

}  // namespace

int run_batch(const BatchOptions& options) {
  api::ExperimentSpec spec = api::ExperimentSpec::from_pairs(options.sets);
  spec.validate();
  const client::ExperimentConfig& config = spec.experiment;
  const std::size_t lanes = config.effective_client_regions().size();

  std::vector<double> deployment_s, strategy_s;
  std::uint64_t stored_bytes = 0;
  for (std::size_t i = 0; i < options.setups; ++i) {
    const SetupSample s = measure_setup(spec);
    deployment_s.push_back(s.deployment_s);
    strategy_s.push_back(s.strategy_s);
    stored_bytes = s.stored_bytes;
  }
  // Traced entries built by the set-ups above are not part of the runs.
  (void)take_plan_trace();
  (void)take_monitor_trace();

  // The read phase starts when the runner's last lane has its strategy:
  // the factory below is api::run's, with one clock read on that call.
  const client::StrategyFactory inner = api::make_strategy_factory(spec);
  std::size_t built = 0;
  double ready_s = 0.0;
  CpuTimes ready_cpu;
  const client::StrategyFactory factory =
      [&](const client::ExperimentConfig& c, client::Deployment& d,
          RegionId region, sim::EventLoop* loop) {
        auto strategy = inner(c, d, region, loop);
        if (++built == lanes) {
          ready_s = now_s();
          ready_cpu = cpu_times();
        }
        return strategy;
      };

  std::string runs;
  for (std::size_t i = 0; i < options.runs; ++i) {
    built = 0;
    const client::ExperimentResult result =
        client::run_experiment(config, factory, spec.label());
    const double t1 = now_s();
    const CpuTimes cpu = cpu_times();
    std::uint64_t ops = 0, verified = 0, failed = 0;
    for (const client::RunResult& run : result.runs) {
      ops += run.ops;
      verified += run.verified;
      failed += run.failed_reads;
    }
    if (!runs.empty()) runs += ", ";
    runs += JsonObject()
                .num("read_s", t1 - ready_s)
                .num("user_s", cpu.user_s - ready_cpu.user_s)
                .num("sys_s", cpu.sys_s - ready_cpu.sys_s)
                .count("ops", ops)
                .count("verified", verified)
                .count("failed_reads", failed)
                .str("results_json", client::results_json({result}))
                .dump();
  }

  JsonObject out;
  out.raw("setup", JsonObject()
                        .raw("deployment_s", json_array(deployment_s))
                        .raw("strategy_s", json_array(strategy_s))
                        .count("stored_bytes", stored_bytes)
                        .dump())
      .raw("runs", "[" + runs + "]")
      .num("peak_rss_mb", peak_rss_mb());
  if (options.traced && options.runs > 0) {
    out.raw("trace", trace_object(config).dump());
  }
  std::cout << out.dump() << "\n";
  return 0;
}

}  // namespace bench
