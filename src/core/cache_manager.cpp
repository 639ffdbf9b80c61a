#include "core/cache_manager.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "api/registry.hpp"

namespace agar::core {

std::map<std::size_t, std::size_t> CacheConfiguration::weight_histogram()
    const {
  std::map<std::size_t, std::size_t> hist;
  for (const auto& [key, opt] : entries) ++hist[opt.weight];
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

/// The smallest chunk size among the tracked objects, so every option's
/// byte footprint maps to an integer number of units. With the paper's
/// uniform 1 MB objects this is exactly one chunk; with no tracked object
/// it is one byte.
std::size_t weight_quantum_bytes(
    const store::BackendCluster& backend,
    const std::vector<std::pair<ObjectKey, double>>& snapshot) {
  std::size_t quantum = std::numeric_limits<std::size_t>::max();
  for (const auto& [key, pop] : snapshot) {
    const auto id = backend.find_id(key);
    if (!id.has_value()) continue;
    quantum = std::min(quantum, backend.object_info(*id).chunk_size);
  }
  if (quantum == std::numeric_limits<std::size_t>::max()) quantum = 1;
  return std::max<std::size_t>(quantum, 1);
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

std::vector<std::vector<CachingOption>> CacheManager::generate_options(
    const std::vector<std::pair<ObjectKey, double>>& snapshot,
    std::size_t quantum) const {
  std::vector<std::vector<CachingOption>> groups;
  groups.reserve(snapshot.size());
  std::vector<ChunkCost> costs;
  for (const auto& [key, popularity] : snapshot) {
    if (popularity <= 0.0) continue;
    const auto id = backend_->find_id(key);
    if (!id.has_value()) continue;
    region_manager_->chunk_costs(*id, costs);
    auto options = generator_.generate(key, costs, popularity);
    const std::size_t chunk_bytes = backend_->object_info(*id).chunk_size;
    for (auto& opt : options) {
      opt.object = *id;
      const double bytes =
          static_cast<double>(opt.weight) * static_cast<double>(chunk_bytes);
      opt.weight_units = static_cast<std::size_t>(
          std::ceil(bytes / static_cast<double>(quantum)));
    }
    groups.push_back(std::move(options));
  }
  return groups;
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
  const std::size_t quantum = weight_quantum_bytes(*backend_, snapshot);
  const std::size_t capacity_units = cache_->capacity_bytes() / quantum;

  const auto groups = generate_options(snapshot, quantum);
  const auto plan_start = std::chrono::steady_clock::now();
  KnapsackResult result = planner_->plan(groups, capacity_units);
  const double plan_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - plan_start)
          .count();

  CacheConfiguration next;
  configured_keys_.clear();
  for (auto& opt : result.chosen) {
    const std::size_t chunk_bytes =
        backend_->object_info(opt.object).chunk_size;
    next.total_chunks += opt.weight;
    next.total_bytes += opt.weight * chunk_bytes;
    for (const ChunkIndex idx : opt.chunks) {
      configured_keys_.push_back(ChunkId{opt.object, idx}.key());
    }
    next.entries.emplace(opt.key, std::move(opt));
  }
  next.total_value = result.total_value;
  config_ = std::move(next);

  // Configuration churn relative to the previous installation: chunks the
  // new plan adds (a-priori downloads ahead) and chunks it drops.
  const auto churn = cache_->install_configuration(configured_keys_);
  ++stats_.reconfigurations;
  stats_.planning_ms += plan_ms;
  stats_.chunks_installed += churn.added;
  stats_.chunks_evicted += churn.dropped;
  return config_;
}

}  // namespace agar::core
