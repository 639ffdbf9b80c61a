#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace bench {

struct BatchOptions {
  std::vector<std::string> sets;  ///< spec key=value pairs
  std::size_t setups = 0;         ///< set-up measurements, before any run
  std::size_t runs = 0;           ///< timed runs of the spec
  bool traced = false;
};

/// Measure set-ups and runs of a batch workload; print the raw
/// measurements as one JSON object.
int run_batch(const BatchOptions& options);

}  // namespace bench
