// Per-region latency estimation — the state behind Agar's region manager.
//
// The region manager "periodically measures how much it takes to read a data
// chunk from each region" (paper §III-a). Samples are folded into an EWMA
// per region so estimates track network drift without being whipsawed by
// single slow fetches.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "stats/ewma.hpp"

namespace agar::stats {

class LatencyEstimator {
 public:
  explicit LatencyEstimator(std::size_t num_regions, double alpha = 0.5);

  /// Fold one measured chunk-fetch latency for `region`.
  void record(RegionId region, double latency_ms);

  /// Current estimate; returns +inf for regions never sampled so planners
  /// deprioritize them until probed.
  [[nodiscard]] double estimate_ms(RegionId region) const;

  [[nodiscard]] bool has_sample(RegionId region) const;
  [[nodiscard]] std::size_t num_regions() const { return entries_.size(); }
  [[nodiscard]] std::uint64_t samples(RegionId region) const;

 private:
  struct Entry {
    Ewma ewma;
    std::uint64_t samples = 0;
  };
  double alpha_;
  std::vector<Entry> entries_;
};

}  // namespace agar::stats
