// Geographic topology: named regions plus a base latency matrix.
//
// aws_six_regions() reproduces the paper's Fig. 1 deployment: Frankfurt,
// Dublin, N. Virginia, Sao Paulo, Tokyo, Sydney. The base latencies are a
// synthetic symmetric matrix calibrated so that (a) the ordering seen from
// Frankfurt matches the paper's Table I (FRA < DUB < NVA < SAO < TYO < SYD)
// and (b) the latency-vs-cached-chunks curves are non-linear, as in the
// paper's Fig. 2, and differ by vantage point. The Fig. 2 spec
// (examples/specs/paper/fig2_chunk_count.json) measures, for 0/1/3/5/7/9
// cached chunks: from Frankfurt 1124.5 / 618.5 / 412.5 / 313.1 / 296.4 /
// 271.7 ms, the first chunk (the Tokyo one) gaining most; from Sydney
// 1555.8 / 1485.5 / 748.4 / 696.7 / 375.4 / 350.0 ms, one chunk gaining
// little and the drops coming at 3 and 7.
// Absolute values are not the paper's measurements: the AWS deployment is
// simulated (PAPER.md, "This reproduction").
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace agar::sim {

class Topology {
 public:
  Topology() = default;

  /// Build from names and a square base-latency matrix (ms per chunk fetch,
  /// including service overhead). Throws std::invalid_argument on shape
  /// mismatch or asymmetry.
  Topology(std::vector<std::string> names,
           std::vector<std::vector<double>> base_latency_ms);

  [[nodiscard]] std::size_t num_regions() const { return names_.size(); }
  [[nodiscard]] const std::string& name(RegionId r) const {
    return names_.at(r);
  }
  [[nodiscard]] RegionId id_of(const std::string& name) const;

  /// Base chunk-fetch latency between two regions in ms.
  [[nodiscard]] double base_latency_ms(RegionId from, RegionId to) const {
    return latency_.at(from).at(to);
  }

  /// Region ids sorted by base latency from `from`, nearest first.
  [[nodiscard]] std::vector<RegionId> regions_by_distance(RegionId from) const;

 private:
  std::vector<std::string> names_;
  std::vector<std::vector<double>> latency_;
};

/// The paper's six-region deployment (Fig. 1).
[[nodiscard]] Topology aws_six_regions();

/// Region indices of aws_six_regions(), for readable test/bench code.
namespace region {
inline constexpr RegionId kFrankfurt = 0;
inline constexpr RegionId kDublin = 1;
inline constexpr RegionId kVirginia = 2;
inline constexpr RegionId kSaoPaulo = 3;
inline constexpr RegionId kTokyo = 4;
inline constexpr RegionId kSydney = 5;
}  // namespace region

}  // namespace agar::sim
