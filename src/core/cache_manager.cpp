#include "core/cache_manager.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "api/registry.hpp"

namespace agar::core {

bool CacheConfiguration::contains_chunk(const ObjectKey& key,
                                        ChunkIndex index) const {
  const auto it = entries.find(key);
  if (it == entries.end()) return false;
  const auto& chunks = it->second.chunks;
  return std::find(chunks.begin(), chunks.end(), index) != chunks.end();
}

std::map<std::size_t, std::size_t> CacheConfiguration::weight_histogram()
    const {
  std::map<std::size_t, std::size_t> hist;
  for (const auto& [key, opt] : entries) ++hist[opt.weight];
  return hist;
}

CacheManager::CacheManager(const store::BackendCluster* backend,
                           RegionManager* region_manager,
                           RequestMonitor* request_monitor,
                           cache::StaticConfigCache* cache,
                           CacheManagerParams params)
    : backend_(backend),
      region_manager_(region_manager),
      request_monitor_(request_monitor),
      cache_(cache),
      params_(std::move(params)) {
  if (backend_ == nullptr || region_manager_ == nullptr ||
      request_monitor_ == nullptr || cache_ == nullptr) {
    throw std::invalid_argument("CacheManager: null dependency");
  }
  planner_ = api::PlannerRegistry::instance().create(
      params_.planner, api::PlannerContext{}, params_.planner_params);
}

namespace {

/// The smallest chunk size among the tracked objects, so every option's
/// byte footprint maps to an integer number of units. With the paper's
/// uniform 1 MB objects this is exactly one chunk; with no tracked object
/// it is one byte.
std::size_t weight_quantum_bytes(
    const store::BackendCluster& backend,
    const std::vector<std::pair<ObjectKey, double>>& snapshot) {
  std::size_t quantum = std::numeric_limits<std::size_t>::max();
  for (const auto& [key, pop] : snapshot) {
    if (!backend.has_object(key)) continue;
    quantum = std::min(quantum, backend.object_info(key).chunk_size);
  }
  if (quantum == std::numeric_limits<std::size_t>::max()) quantum = 1;
  return std::max<std::size_t>(quantum, 1);
}

}  // namespace

std::vector<std::vector<CachingOption>> CacheManager::generate_options(
    const std::vector<std::pair<ObjectKey, double>>& snapshot,
    std::size_t quantum) const {
  OptionGeneratorParams gen_params;
  gen_params.k = backend_->codec().k();
  gen_params.m = backend_->codec().m();
  gen_params.cache_latency_ms = params_.cache_latency_ms;
  gen_params.candidate_weights = params_.candidate_weights;
  const OptionGenerator generator(gen_params);

  std::vector<std::vector<CachingOption>> groups;
  groups.reserve(snapshot.size());
  for (const auto& [key, popularity] : snapshot) {
    if (popularity <= 0.0) continue;
    if (!backend_->has_object(key)) continue;
    const auto costs = region_manager_->chunk_costs(key);
    auto options = generator.generate(key, costs, popularity);
    const std::size_t chunk_bytes = backend_->object_info(key).chunk_size;
    for (auto& opt : options) {
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
  ++reconfigs_;
  // Close the popularity period first so the snapshot reflects the EWMA
  // including the period that just ended (paper: the algorithm runs on the
  // statistics gathered over the last interval).
  request_monitor_->roll_period();

  // One snapshot per reconfiguration. It is sorted by key (the estimator
  // contract), so the option groups — and thus the planner's input — are
  // deterministic.
  const auto snapshot = request_monitor_->snapshot();
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
  std::set<std::string> configured_keys;
  for (auto& opt : result.chosen) {
    const std::size_t chunk_bytes =
        backend_->object_info(opt.key).chunk_size;
    next.total_chunks += opt.weight;
    next.total_bytes += opt.weight * chunk_bytes;
    for (const ChunkIndex idx : opt.chunks) {
      configured_keys.insert(ChunkId{opt.key, idx}.cache_key());
    }
    next.entries.emplace(opt.key, std::move(opt));
  }
  next.total_value = result.total_value;

  // Configuration churn relative to the previous installation: chunks the
  // new plan adds (a-priori downloads ahead) and chunks it drops.
  std::uint64_t installed = 0;
  for (const auto& key : configured_keys) {
    if (installed_chunk_keys_.count(key) == 0) ++installed;
  }
  std::uint64_t evicted = 0;
  for (const auto& key : installed_chunk_keys_) {
    if (configured_keys.count(key) == 0) ++evicted;
  }
  stats_.reconfigurations = reconfigs_;
  stats_.planning_ms += plan_ms;
  stats_.chunks_installed += installed;
  stats_.chunks_evicted += evicted;

  config_ = std::move(next);
  // The cache's admission set stays a hash set (contains() on the read
  // path); the ordered master copy lives here for the churn sweep.
  cache_->install_configuration(
      {configured_keys.begin(), configured_keys.end()});
  installed_chunk_keys_ = std::move(configured_keys);
  return config_;
}

}  // namespace agar::core
