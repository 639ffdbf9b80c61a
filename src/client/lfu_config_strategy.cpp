#include "client/lfu_config_strategy.hpp"

#include <algorithm>
#include <memory>

#include "api/registry.hpp"
#include "client/runner.hpp"

namespace agar::client {

namespace {

const api::StrategyRegistration kLfuConfig{{
    "lfu",
    "LFU",
    "the paper's LFU baseline: frequency proxy + periodic static "
    "configuration of c chunks per object",
    api::ParamSchema{{
        {"chunks", api::ParamType::kSize, "9", "chunks cached per object"},
        {"cache_bytes", api::ParamType::kSize, "10MB", "cache capacity"},
        {"ewma_alpha", api::ParamType::kDouble, "0.8",
         "request-frequency EWMA smoothing"},
        {"proxy_ms", api::ParamType::kDouble, "0.5",
         "frequency-tracking proxy cost on the read path"},
    }},
    [](const api::StrategyContext& ctx, const api::ParamMap& params) {
      LfuConfigParams p;
      p.chunks_per_object = params.get_size("chunks", 9);
      p.cache_capacity_bytes = params.get_size("cache_bytes", 10_MB);
      p.reconfig_period_ms = ctx.experiment->reconfig_period_ms;
      p.ewma_alpha = params.get_double("ewma_alpha", p.ewma_alpha);
      p.proxy_overhead_ms = params.get_double("proxy_ms", p.proxy_overhead_ms);
      return std::make_unique<LfuConfigStrategy>(*ctx.client, p);
    },
    [](const api::ParamMap& params) {
      return "LFU-" + std::to_string(params.get_size("chunks", 9));
    }}};

core::RegionManagerParams region_params(const ClientContext& ctx) {
  core::RegionManagerParams p;
  p.local_region = ctx.region;
  return p;
}

core::RequestMonitorParams monitor_params(const LfuConfigParams& p) {
  core::RequestMonitorParams mp;
  mp.ewma_alpha = p.ewma_alpha;
  mp.processing_ms = p.proxy_overhead_ms;
  return mp;
}

}  // namespace

LfuConfigStrategy::LfuConfigStrategy(ClientContext ctx, LfuConfigParams params)
    : ReadStrategy(ctx),
      params_(params),
      cache_(params.cache_capacity_bytes),
      region_manager_(ctx.backend, ctx.network, region_params(ctx)),
      monitor_(monitor_params(params)) {
  if (params_.chunks_per_object == 0) {
    throw std::invalid_argument(
        "LfuConfigStrategy: chunks_per_object must be >= 1");
  }
}

std::string LfuConfigStrategy::name() const {
  return "LFU-" + std::to_string(params_.chunks_per_object);
}

void LfuConfigStrategy::warm_up() { region_manager_.probe(); }

void LfuConfigStrategy::start_control_plane() {
  // Same event-driven pipeline as Agar: async probe round, then apply the
  // configuration once the probes have landed.
  region_manager_.schedule_probe_pipeline(*ctx_.loop,
                                          params_.reconfig_period_ms,
                                          [this] { apply_configuration(); });
}

void LfuConfigStrategy::start_reconfiguration() {
  region_manager_.start_probe([this] { apply_configuration(); });
}

std::vector<ChunkIndex> LfuConfigStrategy::designated_chunks(
    const ObjectKey& key) const {
  auto costs = region_manager_.chunk_costs(key);
  // Most distant first; deterministic tie-break (same ordering the option
  // generator uses).
  std::sort(costs.begin(), costs.end(),
            [](const core::ChunkCost& a, const core::ChunkCost& b) {
              if (a.latency_ms != b.latency_ms) {
                return a.latency_ms > b.latency_ms;
              }
              if (a.region != b.region) return a.region > b.region;
              return a.index < b.index;
            });
  const std::size_t k = ctx_.backend->codec().k();
  const std::size_t m = ctx_.backend->codec().m();
  const std::size_t c = std::min(params_.chunks_per_object, k);
  // Discard the m furthest (never fetched in the failure-free case), then
  // take the c most distant of the k needed.
  std::vector<ChunkIndex> out;
  out.reserve(c);
  for (std::size_t i = m; i < m + c && i < costs.size(); ++i) {
    out.push_back(costs[i].index);
  }
  return out;
}

void LfuConfigStrategy::apply_configuration() {
  monitor_.roll_period();

  // Rank by popularity, most frequent first; deterministic tie-break.
  auto ranked = monitor_.snapshot();
  std::sort(ranked.begin(), ranked.end(),
            [](const auto& a, const auto& b) {
              if (a.second != b.second) return a.second > b.second;
              return a.first < b.first;
            });

  std::unordered_set<std::string> configured_keys;
  std::map<ObjectKey, std::vector<ChunkIndex>> next;
  std::size_t used = 0;
  for (const auto& [key, popularity] : ranked) {
    if (popularity <= 0.0) break;
    if (!ctx_.backend->has_object(key)) continue;
    const std::size_t chunk_bytes =
        ctx_.backend->object_info(key).chunk_size;
    auto chunks = designated_chunks(key);
    const std::size_t cost = chunks.size() * chunk_bytes;
    if (used + cost > cache_.capacity_bytes()) break;  // strict ranking
    used += cost;
    for (const ChunkIndex idx : chunks) {
      configured_keys.insert(ChunkId{key, idx}.cache_key());
    }
    next.emplace(key, std::move(chunks));
  }
  configured_ = std::move(next);
  cache_.install_configuration(std::move(configured_keys));

  // Same a-priori population downloads as Agar (paper §IV-A): the proxy's
  // thread pool fills the configured chunks off the read path. Keeping the
  // population mechanism identical across systems isolates the
  // configuration policy (knapsack vs fixed-c) in comparisons.
  for (const auto& [key, chunks] : configured_) {
    for (const ChunkIndex idx : chunks) populate_chunk_async(key, idx, cache_);
  }
}

void LfuConfigStrategy::start_read(const ObjectKey& key, ReadCallback done) {
  const double overhead = monitor_.record_access(key);
  core::ReadPlan plan = core::plan_chunk_sources(
      *ctx_.backend, region_manager_, cache_,
      [this](const ObjectKey& k, ChunkIndex idx) {
        const auto it = configured_.find(k);
        if (it == configured_.end()) return false;
        return std::find(it->second.begin(), it->second.end(), idx) !=
               it->second.end();
      },
      key);
  plan.monitor_overhead_ms = overhead;
  start_plan(key, std::move(plan), &cache_, std::move(done));
}

}  // namespace agar::client
