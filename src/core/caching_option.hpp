// Caching options — the unit of Agar's optimization (paper §IV-A).
//
// A caching option is a hypothetical configuration for ONE object: cache
// the `weight` most distant of its k needed chunks, pay `weight` chunks of
// cache space, gain `value` = popularity x latency improvement. The
// knapsack solver then picks at most one option per object. Which chunks
// those are depends only on the object's stripe layout, so they are
// recorded once per layout (LayoutOptions::chunks) and an option is plain
// data.
#pragma once

#include <cstddef>

#include "common/types.hpp"

namespace agar::core {

struct CachingOption {
  /// The object the option caches chunks of: its one identity.
  ObjectId object = 0;

  /// Cache space in chunks of this object: the option caches the first
  /// `weight` of its layout's needed chunks, most distant first.
  std::size_t weight = 0;

  /// Cache space in *quantized units* used by the knapsack DP; equals
  /// weight for uniform objects, scaled for mixed-size working sets.
  std::size_t weight_units = 0;

  /// popularity x estimated latency improvement (paper's value function).
  double value = 0.0;

  bool operator==(const CachingOption&) const = default;
};

}  // namespace agar::core
