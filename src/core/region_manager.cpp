#include "core/region_manager.hpp"

#include <functional>
#include <memory>
#include <stdexcept>

namespace agar::core {

RegionManager::RegionManager(const store::BackendCluster* backend,
                             sim::Network* network,
                             RegionManagerParams params)
    : backend_(backend),
      network_(network),
      params_(params),
      estimator_(network ? network->topology().num_regions() : 0,
                 params.estimator_alpha) {
  if (backend_ == nullptr || network_ == nullptr) {
    throw std::invalid_argument("RegionManager: null backend/network");
  }
  if (params_.local_region >= network_->topology().num_regions()) {
    throw std::invalid_argument("RegionManager: local region out of range");
  }
}

void RegionManager::probe() {
  ++probe_rounds_;
  const std::size_t regions = network_->topology().num_regions();
  for (RegionId r = 0; r < regions; ++r) {
    for (std::size_t i = 0; i < params_.probes_per_region; ++i) {
      const auto latency = network_->backend_fetch(
          params_.local_region, r, params_.probe_chunk_bytes);
      if (latency.has_value()) estimator_.record(r, *latency);
    }
  }
}

void RegionManager::start_probe(std::function<void()> done) {
  sim::EventLoop* const loop = network_->loop();
  if (loop == nullptr) {
    throw std::logic_error("RegionManager: start_probe requires a bound loop");
  }
  ++probe_rounds_;
  // Issuing is synchronous, completions are events — `remaining` is fully
  // counted before the first completion can fire.
  auto remaining = std::make_shared<std::size_t>(0);
  auto on_done = std::make_shared<std::function<void()>>(std::move(done));
  const std::size_t regions = network_->topology().num_regions();
  for (RegionId r = 0; r < regions; ++r) {
    for (std::size_t i = 0; i < params_.probes_per_region; ++i) {
      const SimTimeMs issued_at = loop->now();
      const bool accepted = network_->begin_fetch(
          params_.local_region, r, params_.probe_chunk_bytes,
          [this, r, loop, issued_at, remaining,
           on_done](std::optional<SimTimeMs> latency) {
            if (latency.has_value()) {
              // Observed latency includes time queued behind other
              // fetches — congestion feeds back into the estimates.
              estimator_.record(r, loop->now() - issued_at);
            } else if (!network_->is_down(r)) {
              // A failed probe against an *up* region is a gray loss
              // (dropped response): the wait until discovery is the cost
              // a retrying client pays, so fold it in — drop-sick regions
              // estimate slow and the planner routes around them. Aborts
              // from an outage are skipped (the region is down when the
              // abort fires), matching the sync path's stale-estimate
              // behavior.
              estimator_.record(r, loop->now() - issued_at);
            }
            if (--*remaining == 0 && *on_done) (*on_done)();
          });
      if (accepted) ++*remaining;
    }
  }
  if (*remaining == 0 && *on_done) {
    loop->schedule_in(0.0, [on_done] { (*on_done)(); });
  }
}

double RegionManager::estimate_ms(RegionId region) const {
  return estimator_.estimate_ms(region);
}

RegionId RegionManager::region_of(const ObjectKey& key,
                                  ChunkIndex index) const {
  return backend_->placement().region_of(key, index, backend_->num_regions());
}

std::vector<ChunkCost> RegionManager::chunk_costs(const ObjectKey& key) const {
  const store::ObjectInfo info = backend_->object_info(key);
  std::vector<ChunkCost> out;
  out.reserve(info.locations.size());
  for (const auto& loc : info.locations) {
    out.push_back(
        ChunkCost{loc.index, loc.region, estimate_ms(loc.region)});
  }
  return out;
}

}  // namespace agar::core
