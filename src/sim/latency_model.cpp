#include "sim/latency_model.hpp"

#include <stdexcept>

namespace agar::sim {

LatencyModel::LatencyModel(const Topology* topology, LatencyModelParams params,
                           std::uint64_t seed)
    : topology_(topology), params_(params), rng_(seed) {
  if (topology_ == nullptr) {
    throw std::invalid_argument("LatencyModel: null topology");
  }
  if (params_.jitter_fraction < 0 || params_.jitter_fraction >= 1) {
    throw std::invalid_argument("LatencyModel: jitter must be in [0, 1)");
  }
  slowdown_.assign(topology_->num_regions(), 1.0);
  gray_.assign(topology_->num_regions(), GrayParams{});
}

void LatencyModel::set_region_drop(RegionId r, double p, double latency_mult) {
  if (p < 0.0 || p >= 1.0) {
    throw std::invalid_argument("LatencyModel: drop p must be in [0, 1)");
  }
  if (latency_mult <= 0.0) {
    throw std::invalid_argument("LatencyModel: drop latency mult must be > 0");
  }
  gray_.at(r).drop_p = p;
  gray_.at(r).drop_latency_mult = latency_mult;
}

void LatencyModel::set_region_straggle(RegionId r, double frac, double mult) {
  if (frac < 0.0 || frac > 1.0) {
    throw std::invalid_argument(
        "LatencyModel: straggle frac must be in [0, 1]");
  }
  if (mult <= 0.0) {
    throw std::invalid_argument("LatencyModel: straggle mult must be > 0");
  }
  gray_.at(r).straggle_frac = frac;
  gray_.at(r).straggle_mult = mult;
}

double LatencyModel::expected_gray_factor(RegionId r) const {
  const GrayParams& g = gray_[r];
  double factor = 1.0;
  if (g.straggle_frac > 0.0) {
    factor *= 1.0 + g.straggle_frac * (g.straggle_mult - 1.0);
  }
  if (g.drop_p > 0.0) {
    // Attempts until success are geometric: E[cost] = L·(1−p+p·mult)/(1−p)
    // — every lost attempt costs mult·L of discovery before the next try.
    factor *= (1.0 - g.drop_p + g.drop_p * g.drop_latency_mult) /
              (1.0 - g.drop_p);
  }
  return factor;
}

void LatencyModel::set_region_slowdown(RegionId r, double factor) {
  if (factor <= 0.0) {
    throw std::invalid_argument("LatencyModel: slowdown factor must be > 0");
  }
  slowdown_.at(r) = factor;
}

double LatencyModel::jitter() {
  const double j = params_.jitter_fraction;
  return rng_.uniform(1.0 - j, 1.0 + j);
}

double LatencyModel::transfer_ms(std::size_t bytes, double mbps) {
  // mbps is megabits/s; bytes * 8 bits / (mbps * 1e6 bits/s) * 1e3 ms.
  return static_cast<double>(bytes) * 8.0 / (mbps * 1000.0);
}

SimTimeMs LatencyModel::backend_fetch_ms(RegionId from, RegionId to,
                                         std::size_t bytes) {
  SimTimeMs latency = (topology_->base_latency_ms(from, to) * jitter() +
                       transfer_ms(bytes, params_.wan_bandwidth_mbps)) *
                      slowdown_[to];
  // Gray draws only while the knob is armed: an all-healthy run consumes
  // the exact jitter stream it always did (byte-identical results).
  const GrayParams& g = gray_[to];
  if (g.straggle_frac > 0.0 && rng_.next_double() < g.straggle_frac) {
    latency *= g.straggle_mult;
  }
  return latency;
}

FetchSample LatencyModel::sample_backend_fetch(RegionId from, RegionId to,
                                               std::size_t bytes) {
  FetchSample sample;
  sample.latency_ms = backend_fetch_ms(from, to, bytes);
  const GrayParams& g = gray_[to];
  if (g.drop_p > 0.0 && rng_.next_double() < g.drop_p) {
    sample.dropped = true;
    // The requester hears nothing until well past a healthy completion —
    // failure discovery is priced, unlike a clean outage's refusal.
    sample.latency_ms *= g.drop_latency_mult;
  }
  return sample;
}

SimTimeMs LatencyModel::expected_backend_fetch_ms(RegionId from, RegionId to,
                                                  std::size_t bytes) const {
  return (topology_->base_latency_ms(from, to) +
          transfer_ms(bytes, params_.wan_bandwidth_mbps)) *
         slowdown_[to] * expected_gray_factor(to);
}

SimTimeMs LatencyModel::cache_fetch_ms(std::size_t bytes) {
  return params_.cache_base_ms * jitter() +
         transfer_ms(bytes, params_.cache_bandwidth_mbps);
}

}  // namespace agar::sim
