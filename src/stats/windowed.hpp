// Windowed latency statistics: one exact Histogram per fixed-width time
// window, indexed by virtual time.
//
// The scenario engine makes workloads non-stationary (popularity shifts,
// outages, rate surges), so a single whole-run histogram averages away the
// very transient the experiment exists to show. A WindowedHistogram slices
// the run into fixed windows so adaptation — the latency spike at the shift
// and its decay over the following reconfiguration periods — is measurable.
#pragma once

#include <cstdint>
#include <vector>

#include "stats/histogram.hpp"

namespace agar::stats {

class WindowedHistogram {
 public:
  /// `window_ms` must be > 0.
  explicit WindowedHistogram(double window_ms);

  /// Record `value` at time `t` (ms); windows extend on demand, so gaps
  /// with no samples still occupy an (empty) window.
  void add(double t, double value);

  /// Window index covering time `t`.
  [[nodiscard]] std::size_t index_of(double t) const;

  /// Extend to cover `index` (inclusive) with empty windows.
  void ensure(std::size_t index);

  [[nodiscard]] std::size_t size() const { return windows_.size(); }
  [[nodiscard]] const Histogram& window(std::size_t i) const {
    return windows_.at(i);
  }
  [[nodiscard]] double window_ms() const { return window_ms_; }

 private:
  double window_ms_;
  std::vector<Histogram> windows_;
};

}  // namespace agar::stats
