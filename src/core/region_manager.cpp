#include "core/region_manager.hpp"

#include <functional>
#include <stdexcept>
#include <utility>

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
  const std::uint32_t round = rounds_.acquire();
  // Issuing is synchronous, completions are events — `remaining` is fully
  // counted before the first completion can fire.
  rounds_[round] = ProbeRound{std::move(done), loop->now(), 0};
  const std::size_t regions = network_->topology().num_regions();
  for (RegionId r = 0; r < regions; ++r) {
    for (std::size_t i = 0; i < params_.probes_per_region; ++i) {
      const bool accepted = network_->begin_fetch(
          params_.local_region, r, params_.probe_chunk_bytes,
          [this, round, r](std::optional<SimTimeMs> latency) {
            probe_landed(round, r, latency.has_value());
          });
      if (accepted) ++rounds_[round].remaining;
    }
  }
  if (rounds_[round].remaining == 0) {
    if (rounds_[round].done) {
      loop->schedule_in(0.0, [this, round] { finish_round(round); });
    } else {
      finish_round(round);
    }
  }
}

void RegionManager::probe_landed(std::uint32_t round, RegionId r, bool ok) {
  const SimTimeMs waited = network_->loop()->now() - rounds_[round].issued_at;
  if (ok) {
    // Observed latency includes time queued behind other fetches —
    // congestion feeds back into the estimates.
    estimator_.record(r, waited);
  } else if (!network_->is_down(r)) {
    // A failed probe against an *up* region is a gray loss (dropped
    // response): the wait until discovery is the cost a retrying client
    // pays, so fold it in — drop-sick regions estimate slow and the
    // planner routes around them. Aborts from an outage are skipped (the
    // region is down when the abort fires), matching the sync path's
    // stale-estimate behavior.
    estimator_.record(r, waited);
  }
  if (--rounds_[round].remaining == 0) finish_round(round);
}

void RegionManager::finish_round(std::uint32_t round) {
  // The observer may start the next round, which may reuse this slot.
  std::function<void()> done = std::move(rounds_[round].done);
  rounds_.release(round);
  if (done) done();
}

double RegionManager::estimate_ms(RegionId region) const {
  return estimator_.estimate_ms(region);
}

void RegionManager::chunk_costs(
    std::span<const store::ChunkLocation> locations,
    std::vector<ChunkCost>& out) const {
  out.clear();
  for (const auto& loc : locations) {
    out.push_back(
        ChunkCost{loc.index, loc.region, estimate_ms(loc.region)});
  }
}

}  // namespace agar::core
