#include "sim/topology.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <numeric>
#include <sstream>
#include <stdexcept>

namespace agar::sim {

Topology::Topology(std::vector<std::string> names,
                   std::vector<std::vector<double>> base_latency_ms)
    : names_(std::move(names)), latency_(std::move(base_latency_ms)) {
  if (latency_.size() != names_.size()) {
    throw std::invalid_argument("Topology: matrix rows != region count");
  }
  for (std::size_t i = 0; i < latency_.size(); ++i) {
    if (latency_[i].size() != names_.size()) {
      throw std::invalid_argument("Topology: matrix not square");
    }
    for (std::size_t j = 0; j < latency_.size(); ++j) {
      if (latency_[i][j] < 0) {
        throw std::invalid_argument("Topology: negative latency");
      }
      if (std::abs(latency_[i][j] - latency_[j][i]) > 1e-9) {
        throw std::invalid_argument("Topology: matrix not symmetric");
      }
    }
  }
}

RegionId Topology::id_of(const std::string& name) const {
  const auto it = std::find(names_.begin(), names_.end(), name);
  if (it == names_.end()) {
    throw std::out_of_range("Topology: unknown region " + name);
  }
  return static_cast<RegionId>(it - names_.begin());
}

std::vector<RegionId> Topology::regions_by_distance(RegionId from) const {
  std::vector<RegionId> ids(num_regions());
  std::iota(ids.begin(), ids.end(), RegionId{0});
  std::stable_sort(ids.begin(), ids.end(), [&](RegionId a, RegionId b) {
    return base_latency_ms(from, a) < base_latency_ms(from, b);
  });
  return ids;
}

Topology aws_six_regions() {
  // Order: Frankfurt, Dublin, N. Virginia, Sao Paulo, Tokyo, Sydney.
  //
  // Calibration: the Frankfurt row preserves the paper's Table I *ordering
  // and relative gaps* (80 / 200 / 600 / 1400 / 3400 / 4600 ms) scaled by
  // ~1/3 so that absolute end-to-end read latencies land where the paper's
  // *measured* figures do (Fig. 2: backend reads ~1.1 s; Table I's raw
  // values are from a different measurement epoch than the evaluation
  // runs). Two properties matter and are preserved:
  //   * the steeply increasing far tail — the latency gaps between the
  //     furthest regions are what give partial-caching options their value
  //     (caching one Tokyo chunk alone saves Tokyo - SaoPaulo, the paper's
  //     §IV worked example), so a compressed tail would flatten the
  //     knapsack's trade-off space;
  //   * the absolute scale sets the closed-loop request rate and thereby
  //     how many samples each 30 s popularity period sees.
  // Symmetric; diagonal 80 ms models an in-region S3-like chunk fetch.
  return Topology(
      {"frankfurt", "dublin", "virginia", "saopaulo", "tokyo", "sydney"},
      {
          {80, 100, 220, 470, 1130, 1530},
          {100, 80, 180, 500, 1200, 1600},
          {220, 180, 80, 300, 900, 530},
          {470, 500, 300, 80, 1370, 1430},
          {1130, 1200, 900, 1370, 80, 470},
          {1530, 1600, 530, 1430, 470, 80},
      });
}

RegionId resolve_region(const std::string& text) {
  const auto first = text.find_first_not_of(" \t");
  const std::string name =
      first == std::string::npos
          ? std::string()
          : text.substr(first, text.find_last_not_of(" \t") - first + 1);
  const Topology topology = aws_six_regions();
  std::size_t id = 0;
  const char* const end = name.data() + name.size();
  const auto [stop, error] = std::from_chars(name.data(), end, id);
  if (error == std::errc{} && stop == end && id < topology.num_regions()) {
    return static_cast<RegionId>(id);
  }
  std::string known;
  for (RegionId r = 0; r < topology.num_regions(); ++r) {
    if (topology.name(r) == name) return r;
    known += (known.empty() ? "" : " ") + topology.name(r);
  }
  throw std::invalid_argument("unknown region '" + name + "' (known: " +
                              known + ", or an id below " +
                              std::to_string(topology.num_regions()) + ")");
}

std::vector<RegionId> resolve_region_list(const std::string& text) {
  std::vector<RegionId> out;
  std::stringstream items(text);
  std::string item;
  while (std::getline(items, item, ',')) {
    if (item.find_first_not_of(" \t") == std::string::npos) continue;
    out.push_back(resolve_region(item));
  }
  return out;
}

}  // namespace agar::sim
