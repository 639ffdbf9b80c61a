#include "daemon/service.hpp"

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
  deployment_->bind_lanes(config.effective_client_regions());
  lane_ = std::make_unique<client::Lane>(
      config, api::make_strategy_factory(rule_.spec), *deployment_, 0, loop_);
  lane_->strategy().start_control_plane();
}

GetResponse ServiceInstance::serve_get(const std::string& key,
                                       bool want_payload) {
  GetResponse response;
  if (!deployment_->backend().has_object(key)) {
    response.status = Status::kUnknownKey;
    return response;
  }
  // The sync wrapper drives the shared loop until this read completes —
  // the read starts at the previous completion's virtual time, which is
  // exactly the closed-loop single-client schedule the runner replays.
  // One read in flight at a time, so the concurrency gauge pins at 1.
  lane_->begin_read();
  const client::ReadResult result = lane_->strategy().read(key);
  lane_->record(result);
  if (result.failed) response.status = Status::kFailedRead;

  response.hit = result.full_hit
                     ? HitKind::kFull
                     : (result.partial_hit ? HitKind::kPartial : HitKind::kMiss);
  response.degraded = result.degraded;
  response.virtual_ms = result.latency_ms;
  if (want_payload && !result.failed) {
    // The working set is deterministic-by-key, so the payload can be
    // regenerated instead of threaded through the strategies (which only
    // move bytes in verify mode), straight into the response.
    const std::size_t size =
        deployment_->backend().object_info(key).object_size;
    response.payload.resize(size);
    auto* bytes = reinterpret_cast<std::uint8_t*>(response.payload.data());
    fill_deterministic_payload(key, BytesSpan(bytes, size));
  }
  return response;
}

void ServiceInstance::drain() {
  // The windowed engine runs whole run windows and stops at the first
  // boundary at or after the last completion — run the same boundary so
  // trailing populations and control-plane timers fire identically.
  const double boundary =
      std::ceil(loop_.now() / client::kRunWindowMs) * client::kRunWindowMs;
  loop_.run_until(boundary);
}

store::RepairReport ServiceInstance::repair() {
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
  return client::merge_lanes({&lane_, 1}, *deployment_);
}

std::uint64_t ServiceInstance::ops_served() {
  return lane_->completed();
}

}  // namespace agar::daemon
