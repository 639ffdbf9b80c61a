// Generates the caching options for one object (paper §IV-A).
//
// Procedure (quoting the paper's steps):
//   1. take all k+m chunks with their storage regions and the estimated
//      latency of fetching each from the client's region;
//   2. discard the m chunks furthest away — in the common (failure-free)
//      case the client never fetches them, and not caching them minimizes
//      the a-priori download cost of populating the cache;
//   3. for each candidate weight w, cache the w most distant remaining
//      chunks;
//   4. value(w) = popularity x (latency of the furthest region contacted
//      with nothing cached - latency of the furthest region still
//      contacted once the w chunks are cached). For w == k the remaining
//      "region" is the local cache itself.
//
// Steps 1-3 and the latency half of step 4 depend only on where the
// object's chunks live, and every object shares one of the backend's few
// stripe layouts. So a reconfiguration values each layout once
// (value_layout) and then writes each object's options from it
// (write_options), which costs one multiplication per option.
#pragma once

#include <vector>

#include "core/caching_option.hpp"

namespace agar::core {

/// One chunk as seen by the planner: where it lives and what fetching it
/// is expected to cost.
struct ChunkCost {
  ChunkIndex index = 0;
  RegionId region = kInvalidRegion;
  double latency_ms = 0.0;
};

/// One stripe layout, valued: what every object on the layout would cache
/// at each candidate weight and what that saves, before popularity.
struct LayoutOptions {
  /// The k needed chunks (the m furthest dropped), most distant first: the
  /// option of weight w caches the first w. The one record of an option's
  /// chunks.
  std::vector<ChunkIndex> chunks;
  /// Per candidate weight, in the generator's candidate order: the latency
  /// the option saves (never negative).
  std::vector<double> gain_ms;
};

struct OptionGeneratorParams {
  std::size_t k = 9;
  std::size_t m = 3;
  /// Expected latency of a region-local cache fetch (the "region" the
  /// client contacts when everything needed is cached).
  double cache_latency_ms = 55.0;
  /// Candidate weights; empty means every weight in [1, k].
  std::vector<std::size_t> candidate_weights;
};

class OptionGenerator {
 public:
  explicit OptionGenerator(OptionGeneratorParams params);

  /// Value one stripe layout into `out`, reusing its buffers.
  /// `chunk_costs` must list all k+m chunks; it is sorted in place, most
  /// distant first (latency ties broken by region, then index).
  void value_layout(std::vector<ChunkCost>& chunk_costs,
                    LayoutOptions& out) const;

  /// One object's options on a valued layout into `out`, one per candidate
  /// weight: value = popularity x gain. `popularity`
  /// is the request monitor's EWMA for this object. Options with no gain
  /// are still produced (value 0) so the solver can reason uniformly; the
  /// solver skips zero-value options. weight_units is the chunk count,
  /// which the cache manager rescales for mixed object sizes.
  void write_options(const LayoutOptions& layout, ObjectId object,
                     double popularity, std::vector<CachingOption>& out) const;

  /// Options for one object (object 0): value_layout, then write_options.
  [[nodiscard]] std::vector<CachingOption> generate(
      std::vector<ChunkCost> chunk_costs, double popularity) const;

  [[nodiscard]] const OptionGeneratorParams& params() const { return params_; }

 private:
  OptionGeneratorParams params_;
};

}  // namespace agar::core
