// Count-min sketch with periodic halving ("aging"), the frequency estimator
// behind the TinyLFU admission extension (paper §VII discusses TinyLFU as a
// scalability avenue for the request monitor).
//
// The sketch over-estimates but never under-estimates frequencies; halving
// every `aging_window` increments keeps estimates fresh under drift.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace agar::stats {

class CountMinSketch {
 public:
  /// width: counters per row (power of two recommended); depth: hash rows.
  CountMinSketch(std::size_t width, std::size_t depth,
                 std::uint64_t aging_window = 0);

  /// Increment the estimated count for `key`.
  void add(const std::string& key);

  /// Estimated count (upper bound with high probability).
  [[nodiscard]] std::uint64_t estimate(const std::string& key) const;

  /// The same, for a key already hashed to 64 bits (the string forms
  /// hash with fnv1a).
  void add_hash(std::uint64_t key_hash);
  [[nodiscard]] std::uint64_t estimate_hash(std::uint64_t key_hash) const;

  /// Total increments folded in since construction (monotonic, not halved).
  [[nodiscard]] std::uint64_t total_adds() const { return adds_; }

  /// Halve all counters (aging). Called automatically per aging_window.
  void halve();

  /// Zero all counters (a fresh period for per-period users like the
  /// count-min popularity estimator). `total_adds` stays monotonic.
  void reset();

  [[nodiscard]] std::size_t width() const { return width_; }
  [[nodiscard]] std::size_t depth() const { return rows_.size(); }

 private:
  [[nodiscard]] std::size_t cell(std::size_t row,
                                 std::uint64_t key_hash) const;

  std::size_t width_;
  std::uint64_t aging_window_;
  std::uint64_t adds_ = 0;
  std::uint64_t adds_since_halve_ = 0;
  std::vector<std::vector<std::uint32_t>> rows_;
  std::vector<std::uint64_t> seeds_;
};

}  // namespace agar::stats
