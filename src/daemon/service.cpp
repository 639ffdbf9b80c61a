#include "daemon/service.hpp"

#include <algorithm>
#include <cmath>

#include "common/bytes.hpp"

namespace agar::daemon {

ServiceInstance::ServiceInstance(const RouteRule& rule) : rule_(rule) {
  const client::ExperimentConfig& config = rule_.spec.experiment;
  // Mirror the runner's single-lane deployment: run seed = base seed (run
  // 0), payloads materialized only in verify mode (a GET's payload is
  // regenerated from the key instead — same deterministic bytes).
  client::DeploymentConfig dep_config = config.deployment;
  dep_config.store_payloads = config.verify_data;
  deployment_ = std::make_unique<client::Deployment>(dep_config);
  deployment_->bind_lanes({config.client_region});

  loop_.set_scheduling_lane(0);
  loop_.reserve(1024);
  sim::Network& network = deployment_->lane_network(0);
  network.set_max_outstanding_per_region(config.max_outstanding_per_region);
  network.bind_loop(&loop_);

  const client::StrategyFactory factory =
      api::make_strategy_factory(rule_.spec);
  strategy_ = factory(config, *deployment_, config.client_region, &loop_);
  strategy_->warm_up();
  strategy_->start_control_plane();
}

GetResponse ServiceInstance::serve_get(const std::string& key,
                                       bool want_payload) {
  const std::lock_guard<std::mutex> lock(mutex_);
  GetResponse response;
  if (!deployment_->backend().has_object(key)) {
    response.status = Status::kUnknownKey;
    return response;
  }
  // The sync wrapper drives the shared loop until this read completes —
  // the read starts at the previous completion's virtual time, which is
  // exactly the closed-loop single-client schedule the runner replays.
  // One read in flight at a time, so the runner's concurrency gauge pins
  // at 1 once anything was issued.
  partial_.max_reads_in_flight = std::max<std::size_t>(
      partial_.max_reads_in_flight, 1);
  const client::ReadResult result = strategy_->read(key);

  // Record as the runner's completion closure does, so snapshot() merges
  // into a RunResult byte-identical to a batch run of the same stream.
  ++partial_.ops;
  if (result.failed) {
    ++partial_.failed_reads;
    response.status = Status::kFailedRead;
  } else {
    partial_.latencies.add(result.latency_ms);
    if (result.full_hit) ++partial_.full_hits;
    if (result.partial_hit && !result.full_hit) ++partial_.partial_hits;
    if (result.verified) ++partial_.verified;
    if (result.degraded) ++partial_.degraded_reads;
  }
  partial_.duration_ms = std::max(partial_.duration_ms, loop_.now());

  response.hit = result.full_hit
                     ? HitKind::kFull
                     : (result.partial_hit ? HitKind::kPartial : HitKind::kMiss);
  response.degraded = result.degraded;
  response.virtual_ms = result.latency_ms;
  if (want_payload && !result.failed) {
    const store::ObjectInfo info = deployment_->backend().object_info(key);
    // The working set is deterministic-by-key, so the payload can be
    // regenerated instead of threaded through the strategies (which only
    // move bytes in verify mode).
    const Bytes payload = deterministic_payload(key, info.object_size);
    response.payload.assign(payload.begin(), payload.end());
  }
  return response;
}

void ServiceInstance::drain() {
  const std::lock_guard<std::mutex> lock(mutex_);
  // The windowed engine runs whole 1 s windows and stops at the first
  // boundary at or after the last completion — run the same boundary so
  // trailing populations and control-plane timers fire identically.
  const double window_ms = 1000.0;
  const double boundary = std::ceil(loop_.now() / window_ms) * window_ms;
  loop_.run_until(boundary);
}

void ServiceInstance::advance_idle(double ms) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (ms > 0.0) loop_.run_until(loop_.now() + ms);
}

store::RepairReport ServiceInstance::repair() {
  const std::lock_guard<std::mutex> lock(mutex_);
  // The repair scan reads chunk bytes out of the buckets; a metadata-only
  // deployment (store_payloads off) would misreport every object as
  // unrecoverable.
  if (!rule_.spec.experiment.verify_data) {
    throw std::runtime_error(
        "route '" + rule_.name +
        "' serves a metadata-only backend; set verify=true in its spec to "
        "materialize chunks and enable repair");
  }
  return store::repair_all(deployment_->backend());
}

client::RunResult ServiceInstance::snapshot() {
  const std::lock_guard<std::mutex> lock(mutex_);
  client::RunResult result = partial_;

  // End-of-run merge, single lane — field for field the runner's version.
  sim::Network& network = deployment_->lane_network(0);
  result.wire_fetches = network.wire_fetches();
  result.queued_fetches = network.queued_fetches();
  result.max_queue_depth = network.max_queue_depth();
  result.max_net_in_flight = network.max_in_flight();
  result.aborted_on_wire = network.aborted_on_wire();
  result.failed_in_queue = network.failed_in_queue();
  result.timed_out_fetches = network.timed_out();

  result.coalesced_fetches = strategy_->fetch_coordinator().coalesced();
  const core::ControlPlaneStats cp = strategy_->control_plane_stats();
  result.reconfigurations = cp.reconfigurations;
  result.planning_ms = cp.planning_ms;
  result.config_chunks_installed = cp.chunks_installed;
  result.config_chunks_evicted = cp.chunks_evicted;

  if (const client::FetchPolicy* policy = strategy_->fetch_policy()) {
    const client::FetchPolicyStats& fs = policy->stats();
    result.fetch_attempts = fs.attempts;
    result.fetch_timeouts = fs.timeouts;
    result.fetch_retries = fs.retries;
    result.hedges_issued = fs.hedges_issued;
    result.hedges_won = fs.hedges_won;
    result.hedges_wasted = fs.hedges_wasted;
    result.fetch_exhausted = fs.exhausted;
    result.region_success_ewma.clear();
    result.region_success_ewma.reserve(policy->num_regions());
    for (RegionId r = 0; r < policy->num_regions(); ++r) {
      result.region_success_ewma.push_back(policy->region_success_ewma(r));
    }
  }

  if (const cache::CacheEngine* cache_engine = strategy_->cache_engine()) {
    result.cache_stats = cache_engine->stats();
    result.cache_used_bytes = cache_engine->used_bytes();
  }
  result.weight_histogram = strategy_->config_weight_histogram();
  result.decode_plan_hits =
      deployment_->backend().codec().rs().decode_plan_hits();
  result.decode_plan_misses =
      deployment_->backend().codec().rs().decode_plan_misses();
  return result;
}

std::uint64_t ServiceInstance::ops_served() {
  const std::lock_guard<std::mutex> lock(mutex_);
  return partial_.ops;
}

}  // namespace agar::daemon
