// Caching options — the unit of Agar's optimization (paper §IV-A).
//
// A caching option is a hypothetical configuration for ONE object: cache
// this specific set of chunks, pay `weight` chunks of cache space, gain
// `value` = popularity x latency improvement. The knapsack solver then picks
// at most one option per object.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"

namespace agar::core {

struct CachingOption {
  /// The object the option caches chunks of: its one identity.
  ObjectId object = 0;

  /// The exact chunk indices to cache (most distant first, paper §IV-A).
  std::vector<ChunkIndex> chunks;

  /// Cache space in chunks of this object (== chunks.size()).
  std::size_t weight = 0;

  /// Cache space in *quantized units* used by the knapsack DP; equals
  /// weight for uniform objects, scaled for mixed-size working sets.
  std::size_t weight_units = 0;

  /// popularity x estimated latency improvement (paper's value function).
  double value = 0.0;

  /// Expected read latency (ms) if this option is installed; kept for
  /// reports and the Fig. 10 cache-contents analysis.
  double expected_latency_ms = 0.0;

  bool operator==(const CachingOption&) const = default;
};

}  // namespace agar::core
