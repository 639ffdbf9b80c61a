#include "stats/latency_estimator.hpp"

#include <limits>
#include <stdexcept>

namespace agar::stats {

LatencyEstimator::LatencyEstimator(std::size_t num_regions, double alpha)
    : alpha_(alpha) {
  if (num_regions == 0) {
    throw std::invalid_argument("LatencyEstimator: no regions");
  }
  entries_.reserve(num_regions);
  for (std::size_t i = 0; i < num_regions; ++i) {
    entries_.push_back(Entry{Ewma(alpha_), 0});
  }
}

void LatencyEstimator::record(RegionId region, double latency_ms) {
  Entry& e = entries_.at(region);
  if (e.samples == 0) {
    // Seed with the first observation instead of decaying from zero.
    e.ewma = Ewma(alpha_, latency_ms);
  } else {
    e.ewma.update(latency_ms);
  }
  ++e.samples;
}

double LatencyEstimator::estimate_ms(RegionId region) const {
  const Entry& e = entries_.at(region);
  if (e.samples == 0) return std::numeric_limits<double>::infinity();
  return e.ewma.value();
}

bool LatencyEstimator::has_sample(RegionId region) const {
  return entries_.at(region).samples > 0;
}

std::uint64_t LatencyEstimator::samples(RegionId region) const {
  return entries_.at(region).samples;
}

}  // namespace agar::stats
