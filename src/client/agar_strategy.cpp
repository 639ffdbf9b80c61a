#include "client/agar_strategy.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <utility>

#include "api/registry.hpp"
#include "client/runner.hpp"

namespace agar::client {

namespace {

/// What both registrations share: the cache, the reconfiguration period and
/// the local-cache latency every caching option is valued against.
AgarParams registered_params(const api::StrategyContext& ctx,
                             const api::ParamMap& params) {
  AgarParams p;
  p.cache_capacity_bytes = params.get_size("cache_bytes");
  p.reconfig_period_ms = ctx.experiment->reconfig_period_ms;
  p.cache_manager.cache_latency_ms =
      ctx.client->network->model().params().cache_base_ms;
  return p;
}

const api::ParamSchema kAgarSchema{{
    {"cache_bytes", api::ParamType::kSize, "10MB", "cache capacity"},
    {"probes_per_region", api::ParamType::kSize, "6",
     "latency probes per region per warm-up/reconfiguration"},
    {"planner", api::ParamType::kString, "knapsack-dp",
     "planner registry entry solving each reconfiguration "
     "(planner.<param> passes planner-specific knobs)"},
    {"monitor", api::ParamType::kString, "exact-ewma",
     "popularity-estimator registry entry behind the request monitor "
     "(monitor.<param> passes estimator-specific knobs)"},
}};

const api::StrategyRegistration kAgar{{
    "agar",
    "Agar",
    "knapsack-optimized chunk caching with periodic reconfiguration "
    "(the paper's system)",
    kAgarSchema,
    [](const api::StrategyContext& ctx, const api::ParamMap& params) {
      AgarParams p = registered_params(ctx, params);
      p.probes_per_region = params.get_size("probes_per_region");
      p.cache_manager.candidate_weights =
          ctx.experiment->agar_candidate_weights;
      p.cache_manager.planner = params.get_string("planner");
      p.cache_manager.planner_params = params.scoped("planner.");
      p.estimator = params.get_string("monitor");
      p.estimator_params = params.scoped("monitor.");
      return std::make_unique<AgarStrategy>(*ctx.client, p);
    },
    [](const api::ParamMap& params) {
      // Non-default control-plane picks show up in the label so planner /
      // estimator sweeps stay distinguishable in tables and JSON reports.
      std::string tags;
      for (const char* key : {"planner", "monitor"}) {
        const std::string pick = params.get_string(key);
        if (pick != kAgarSchema.find(key)->default_value) {
          tags += (tags.empty() ? "" : ",") + pick;
        }
      }
      return tags.empty() ? std::string("Agar") : "Agar[" + tags + "]";
    }}};

// The paper's LFU-c client (§V-A): Agar's request-frequency proxy, probes
// and periodic reconfiguration, caching c chunks of the most frequent
// objects. That is Agar with the one candidate weight c under the greedy
// planner, which admits objects by value density while they fit. Density
// is popularity order when every object's c chunks save the same positive
// latency, as with RS(9,3) over the six regions; docs/api.md lists the
// geometries where it is not.
const api::StrategyRegistration kLfu{{
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
      const std::size_t chunks = params.get_size("chunks");
      if (chunks == 0) {
        throw std::invalid_argument("lfu: chunks must be >= 1");
      }
      AgarParams p = registered_params(ctx, params);
      p.cache_manager.candidate_weights = {
          std::min(chunks, ctx.client->backend->codec().k())};
      p.cache_manager.planner = "greedy";
      p.ewma_alpha = params.get_double("ewma_alpha");
      p.processing_ms = params.get_double("proxy_ms");
      return std::make_unique<AgarStrategy>(*ctx.client, p);
    },
    [](const api::ParamMap& params) {
      return "LFU-" + std::to_string(params.get_size("chunks"));
    }}};

core::RegionManagerParams region_manager_params(const ClientContext& ctx,
                                                const AgarParams& p) {
  core::RegionManagerParams out;
  out.local_region = ctx.region;
  out.probes_per_region = p.probes_per_region;
  return out;
}

std::unique_ptr<core::PopularityEstimator> make_estimator(const AgarParams& p) {
  api::EstimatorContext ctx;
  ctx.ewma_alpha = p.ewma_alpha;
  return api::EstimatorRegistry::instance().create(p.estimator, ctx,
                                                   p.estimator_params);
}

}  // namespace

AgarStrategy::AgarStrategy(ClientContext ctx, AgarParams params)
    : ReadStrategy(ctx),
      params_(std::move(params)),
      cache_(params_.cache_capacity_bytes),
      region_manager_(ctx.backend, ctx.network,
                      region_manager_params(ctx, params_)),
      estimator_(make_estimator(params_)),
      cache_manager_(ctx.backend, &region_manager_, estimator_.get(), &cache_,
                     params_.cache_manager) {
  engine_ = &cache_;
}

void AgarStrategy::warm_up() { region_manager_.probe(); }

void AgarStrategy::start_control_plane() {
  reconfig_timer_ =
      ctx_.loop->schedule_periodic(params_.reconfig_period_ms, [this] {
        start_reconfiguration();
        return true;
      });
}

void AgarStrategy::start_reconfiguration() {
  region_manager_.start_probe([this] { apply_reconfiguration(); });
}

void AgarStrategy::apply_reconfiguration() {
  // Population fetches start in the configuration's key order.
  for (const ChunkKey key : cache_manager_.reconfigure().chunks) {
    populate_chunk_async(ChunkId::of(key));
  }
  if (on_reconfigure_) on_reconfigure_();
}

collab::PeerInfo AgarStrategy::collab_info() {
  collab::PeerInfo info;
  info.region = ctx_.region;
  info.configured_chunks = cache_manager_.current().chunks;
  std::sort(info.configured_chunks.begin(), info.configured_chunks.end());
  return info;
}

ReadPlan AgarStrategy::plan_read(const ObjectKey& key) {
  ReadPlan out;
  plan(ctx_.backend->id_of(key), out);
  return out;
}

void AgarStrategy::plan(ObjectId object, ReadPlan& out) {
  estimator_->record(ctx_.backend->key_of(object));
  out.monitor_overhead_ms = params_.processing_ms;

  region_manager_.chunk_costs(object, costs_);
  // Cheapest-first order; deterministic tie-break.
  std::sort(costs_.begin(), costs_.end(),
            [](const core::ChunkCost& a, const core::ChunkCost& b) {
              if (a.latency_ms != b.latency_ms) {
                return a.latency_ms < b.latency_ms;
              }
              if (a.region != b.region) return a.region < b.region;
              return a.index < b.index;
            });
  const std::size_t k = ctx_.backend->codec().k();

  // Resident chunks come from the cache; every other chunk is looked up in
  // the installed configuration once.
  not_resident_.clear();
  for (const auto& c : costs_) {
    const ChunkKey ck = ChunkId{object, c.index}.key();
    if (out.from_cache.size() < k && cache_.contains(ck)) {
      out.from_cache.push_back(c.index);
    } else {
      not_resident_.push_back({c, cache_.is_configured(ck)});
    }
  }

  // Fill to k chunks with the cheapest backend fetches. A fetched chunk the
  // configuration wants cached is written back after the read
  // (asynchronously, off the latency path).
  for (const auto& [c, configured] : not_resident_) {
    if (out.chunks_on_path() >= k) break;
    out.from_backend.emplace_back(c.index, c.region);
    if (configured) out.populate_after_read.push_back(c.index);
  }

  // Every entry past the ones just planned is neither resident nor fetched
  // on-path: the population thread pool downloads it a-priori if the
  // configuration wants it, and it is a fallback.
  for (std::size_t i = out.from_backend.size(); i < not_resident_.size();
       ++i) {
    const auto& [c, configured] = not_resident_[i];
    if (configured) out.async_populate.push_back(c.index);
    out.fallbacks.emplace_back(c.index, c.region);
  }
  // The fallbacks go in the network's expected-latency order, like every
  // strategy's.
  sort_by_expected_latency(object, out.fallbacks);
}

}  // namespace agar::client
