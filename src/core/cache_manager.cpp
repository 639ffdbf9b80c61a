#include "core/cache_manager.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "api/registry.hpp"

namespace agar::core {

const CachingOption* CacheConfiguration::find(ObjectId object) const {
  const auto it = std::find_if(
      entries.begin(), entries.end(),
      [object](const CachingOption& o) { return o.object == object; });
  return it != entries.end() ? &*it : nullptr;
}

std::map<std::size_t, std::size_t> CacheConfiguration::weight_histogram()
    const {
  std::map<std::size_t, std::size_t> hist;
  for (const auto& opt : entries) ++hist[opt.weight];
  return hist;
}

namespace {

OptionGeneratorParams generator_params(const store::BackendCluster* backend,
                                       const CacheManagerParams& params) {
  if (backend == nullptr) {
    throw std::invalid_argument("CacheManager: null dependency");
  }
  OptionGeneratorParams out;
  out.k = backend->codec().k();
  out.m = backend->codec().m();
  out.cache_latency_ms = params.cache_latency_ms;
  out.candidate_weights = params.candidate_weights;
  return out;
}

}  // namespace

CacheManager::CacheManager(const store::BackendCluster* backend,
                           RegionManager* region_manager,
                           PopularityEstimator* estimator,
                           cache::StaticConfigCache* cache,
                           CacheManagerParams params)
    : backend_(backend),
      region_manager_(region_manager),
      estimator_(estimator),
      cache_(cache),
      params_(std::move(params)),
      generator_(generator_params(backend_, params_)) {
  if (region_manager_ == nullptr || estimator_ == nullptr ||
      cache_ == nullptr) {
    throw std::invalid_argument("CacheManager: null dependency");
  }
  planner_ = api::PlannerRegistry::instance().create(
      params_.planner, api::PlannerContext{}, params_.planner_params);
}

void CacheManager::generate_options(
    const std::vector<std::pair<ObjectKey, double>>& snapshot,
    std::size_t quantum) {
  // Value each stripe layout at most once per reconfiguration, the first
  // time one of its objects needs options.
  layouts_.resize(backend_->num_layouts());
  layout_valued_.assign(backend_->num_layouts(), false);
  std::size_t used = 0;
  for (std::size_t i = 0; i < snapshot.size(); ++i) {
    const double popularity = snapshot[i].second;
    if (popularity <= 0.0 || ids_[i] == kNoObject) continue;
    const store::ObjectInfo& info = backend_->object_info(ids_[i]);
    LayoutOptions& layout = layouts_[info.layout];
    if (!layout_valued_[info.layout]) {
      region_manager_->chunk_costs(info.locations, costs_);
      generator_.value_layout(costs_, layout);
      layout_valued_[info.layout] = true;
    }
    if (used == groups_.size()) groups_.emplace_back();
    auto& group = groups_[used++];
    generator_.write_options(layout, ids_[i], popularity, group);
    for (auto& opt : group) {
      const double bytes = static_cast<double>(opt.weight) *
                           static_cast<double>(info.chunk_size);
      opt.weight_units = static_cast<std::size_t>(
          std::ceil(bytes / static_cast<double>(quantum)));
    }
  }
  groups_.resize(used);
}

const CacheConfiguration& CacheManager::reconfigure() {
  // Close the popularity period first so the snapshot reflects the EWMA
  // including the period that just ended (paper: the algorithm runs on the
  // statistics gathered over the last interval).
  estimator_->roll_period();

  // One snapshot per reconfiguration. It is sorted by key (the estimator
  // contract), so the option groups — and thus the planner's input — are
  // deterministic.
  const auto snapshot = estimator_->snapshot();

  // Resolve each key's id once. The weight quantum is the smallest chunk
  // size among the known objects, so every option's byte footprint maps to
  // an integer number of units; with the paper's uniform 1 MB objects it is
  // exactly one chunk.
  ids_.clear();
  std::size_t quantum = std::numeric_limits<std::size_t>::max();
  for (const auto& [key, popularity] : snapshot) {
    const auto id = backend_->find_id(key);
    ids_.push_back(id.value_or(kNoObject));
    if (id.has_value()) {
      quantum = std::min(quantum, backend_->object_info(*id).chunk_size);
    }
  }
  quantum = std::max<std::size_t>(quantum, 1);

  generate_options(snapshot, quantum);
  // With no option to plan there is no quantum to measure the cache in:
  // the planner gets the empty input at zero units.
  const std::size_t capacity_units =
      groups_.empty() ? 0 : cache_->capacity_bytes() / quantum;
  const auto plan_start = std::chrono::steady_clock::now();
  KnapsackResult result = planner_->plan(groups_, capacity_units);
  const double plan_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - plan_start)
          .count();

  // The chosen list is the configuration: the population fetches walk it,
  // so it must come back in the groups' (key) order, at most one option
  // per group.
  std::size_t g = 0;
  for (const CachingOption& opt : result.chosen) {
    while (g < groups_.size() && groups_[g].front().object != opt.object) ++g;
    if (g == groups_.size()) {
      throw std::logic_error("CacheManager: planner " + planner_->name() +
                             " chose " + backend_->key_of(opt.object) +
                             " out of key order");
    }
    ++g;
  }

  // Each chosen option caches the first `weight` chunks of its object's
  // layout, which this reconfiguration valued.
  config_.total_bytes = 0;
  config_.chunks.clear();
  for (const auto& opt : result.chosen) {
    const store::ObjectInfo& info = backend_->object_info(opt.object);
    config_.total_bytes += opt.weight * info.chunk_size;
    const auto& chunks = layouts_[info.layout].chunks;
    for (std::size_t i = 0; i < opt.weight; ++i) {
      config_.chunks.push_back(ChunkId{opt.object, chunks[i]}.key());
    }
  }
  config_.entries = std::move(result.chosen);
  config_.total_value = result.total_value;

  // Configuration churn relative to the previous installation: chunks the
  // new plan adds (a-priori downloads ahead) and chunks it drops.
  const auto churn = cache_->install_configuration(config_.chunks);
  ++stats_.reconfigurations;
  stats_.planning_ms += plan_ms;
  stats_.chunks_installed += churn.added;
  stats_.chunks_evicted += churn.dropped;
  return config_;
}

}  // namespace agar::core
