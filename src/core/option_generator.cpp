#include "core/option_generator.hpp"

#include <algorithm>
#include <span>
#include <stdexcept>

namespace agar::core {

OptionGenerator::OptionGenerator(OptionGeneratorParams params)
    : params_(std::move(params)) {
  if (params_.k == 0) {
    throw std::invalid_argument("OptionGenerator: k must be positive");
  }
  if (params_.candidate_weights.empty()) {
    for (std::size_t w = 1; w <= params_.k; ++w) {
      params_.candidate_weights.push_back(w);
    }
  }
  for (const std::size_t w : params_.candidate_weights) {
    if (w == 0 || w > params_.k) {
      throw std::invalid_argument(
          "OptionGenerator: candidate weight out of [1, k]");
    }
  }
}

void OptionGenerator::value_layout(std::vector<ChunkCost>& chunk_costs,
                                   LayoutOptions& out) const {
  if (chunk_costs.size() != params_.k + params_.m) {
    throw std::invalid_argument(
        "OptionGenerator: need exactly k + m chunk costs");
  }

  // Sort most distant first; break latency ties by (region, index) so the
  // generated options are deterministic.
  std::sort(chunk_costs.begin(), chunk_costs.end(),
            [](const ChunkCost& a, const ChunkCost& b) {
              if (a.latency_ms != b.latency_ms) {
                return a.latency_ms > b.latency_ms;
              }
              if (a.region != b.region) return a.region > b.region;
              return a.index < b.index;
            });

  // Step 2: drop the m furthest — never fetched in the failure-free case.
  const auto needed =
      std::span<const ChunkCost>(chunk_costs).subspan(params_.m);
  out.chunks.clear();
  for (const ChunkCost& c : needed) out.chunks.push_back(c.index);

  // Latency with no chunks cached: the furthest needed chunk dominates
  // (the client fetches all k in parallel).
  const double uncached_ms = needed.front().latency_ms;

  out.gain_ms.clear();
  for (const std::size_t w : params_.candidate_weights) {
    // Furthest region still contacted once the w most distant chunks are
    // cached; the local cache when everything needed is cached. A cache
    // fetch also happens for the cached chunks, so the floor is the cache
    // latency itself.
    const double residual_backend_ms =
        w < needed.size() ? needed[w].latency_ms : 0.0;
    const double after_ms =
        std::max(residual_backend_ms, params_.cache_latency_ms);
    out.gain_ms.push_back(std::max(0.0, uncached_ms - after_ms));
  }
}

void OptionGenerator::write_options(const LayoutOptions& layout,
                                    ObjectId object, double popularity,
                                    std::vector<CachingOption>& out) const {
  const auto& weights = params_.candidate_weights;
  out.resize(weights.size());
  for (std::size_t i = 0; i < weights.size(); ++i) {
    out[i] = CachingOption{object, weights[i], weights[i],
                           popularity * layout.gain_ms[i]};
  }
}

std::vector<CachingOption> OptionGenerator::generate(
    std::vector<ChunkCost> chunk_costs, double popularity) const {
  LayoutOptions layout;
  value_layout(chunk_costs, layout);
  std::vector<CachingOption> out;
  write_options(layout, 0, popularity, out);
  return out;
}

}  // namespace agar::core
