#include "client/fixed_chunks_strategy.hpp"

#include <algorithm>
#include <stdexcept>

#include "api/registry.hpp"

namespace agar::client {

FixedChunksStrategy::FixedChunksStrategy(
    ClientContext ctx, FixedChunksParams params,
    std::unique_ptr<cache::CacheEngine> engine)
    : ReadStrategy(ctx), params_(std::move(params)), cache_(std::move(engine)) {
  if (params_.chunks_per_object == 0) {
    throw std::invalid_argument(
        "FixedChunksStrategy: chunks_per_object must be >= 1");
  }
  if (cache_ == nullptr) {
    throw std::invalid_argument("FixedChunksStrategy: null cache engine");
  }
  engine_ = cache_.get();
}

void FixedChunksStrategy::plan(ObjectId object, ReadPlan& out) {
  const std::size_t k = ctx_.backend->codec().k();
  const std::size_t c = std::min(params_.chunks_per_object, k);

  // Candidates cheapest-first; the k cheapest are the needed set, of which
  // the c most distant (the tail) are the designated cache-resident chunks.
  const auto& candidates = chunks_by_expected_latency(object);
  out.from_backend.assign(
      candidates.begin(),
      candidates.begin() + static_cast<std::ptrdiff_t>(k - c));
  for (std::size_t i = k - c; i < k; ++i) {
    out.from_cache.push_back(candidates[i].first);
  }
  out.fallbacks.assign(
      candidates.begin() + static_cast<std::ptrdiff_t>(k), candidates.end());
  // After the read, (re-)insert the designated chunks the engine does not
  // hold. Writes happen on a separate thread pool in the paper's client —
  // no latency charged.
  out.populate_after_read.assign(out.from_cache.begin(), out.from_cache.end());
  out.populate_resident = false;
  out.monitor_overhead_ms = params_.proxy_overhead_ms;
}

// ----------------------------------------------------------- registration

namespace {

/// The fixed-chunks label of both registrations below: engine display
/// stem + "-" + c.
std::string fixed_chunks_label(const std::string& engine_name,
                               std::size_t chunks) {
  const auto& engines = api::EngineRegistry::instance();
  const std::string stem = engines.contains(engine_name)
                               ? engines.at(engine_name).display
                               : engine_name;
  return stem + "-" + std::to_string(chunks);
}

/// Shared factory body: build the named engine through the engine registry
/// and wrap it in a fixed-chunks strategy. The on-path proxy cost defaults
/// to what the engine's registration declares (0 for plain LRU, 0.5 ms for
/// the frequency-tracking policies, per §V-A).
std::unique_ptr<ReadStrategy> make_fixed_chunks(
    const api::StrategyContext& ctx, const api::ParamMap& params,
    const std::string& engine_name) {
  const auto& engines = api::EngineRegistry::instance();
  const auto& entry = engines.at(engine_name);

  FixedChunksParams p;
  p.engine = engine_name;
  p.chunks_per_object = params.get_size("chunks");
  p.cache_capacity_bytes = params.get_size("cache_bytes");
  // The spec's proxy_ms, else the engine's declared cost, else none.
  const api::ParamMap engine_params = params.with_defaults(entry.schema);
  p.proxy_overhead_ms = engine_params.has("proxy_ms")
                            ? engine_params.get_double("proxy_ms")
                            : 0.0;

  auto engine = engines.create(
      engine_name,
      api::EngineContext{p.cache_capacity_bytes, &ctx.client->backend->keys()},
      engine_params);
  return std::make_unique<FixedChunksStrategy>(*ctx.client, std::move(p),
                                               std::move(engine));
}

const api::ParamSchema kFixedChunksSchema{{
    {"engine", api::ParamType::kString, "lru", "cache-engine registry name"},
    {"chunks", api::ParamType::kSize, "9",
     "chunks cached per object (the c in LRU-c)"},
    {"cache_bytes", api::ParamType::kSize, "10MB", "cache capacity"},
    {"proxy_ms", api::ParamType::kDouble, "",
     "on-path proxy cost in ms (default: the engine's declared cost)"},
}};

const api::StrategyRegistration kFixedChunks{{
    "fixed-chunks",
    "FixedChunks",
    "cache c designated chunks per object under any registered engine",
    kFixedChunksSchema,
    [](const api::StrategyContext& ctx, const api::ParamMap& params) {
      return make_fixed_chunks(ctx, params, params.get_string("engine"));
    },
    [](const api::ParamMap& params) {
      return fixed_chunks_label(params.get_string("engine"),
                                params.get_size("chunks"));
    }}};

// The baseline-strength ablation's eviction-driven LFU: the plain LFU
// *engine* under fixed-chunks semantics. ("lfu" the *system* is the
// paper's LFU-c, a periodically configured cache registered beside Agar
// in agar_strategy.cpp.)
const api::StrategyRegistration kLfuEviction{{
    "lfu-eviction",
    "LFUev",
    "fixed-chunks cache with eviction-driven (instant-adaptation) LFU",
    api::ParamSchema{{
        {"chunks", api::ParamType::kSize, "9", "chunks cached per object"},
        {"cache_bytes", api::ParamType::kSize, "10MB", "cache capacity"},
        {"proxy_ms", api::ParamType::kDouble, "0.5",
         "frequency-tracking proxy cost on the read path"},
    }},
    [](const api::StrategyContext& ctx, const api::ParamMap& params) {
      return make_fixed_chunks(ctx, params, "lfu");
    },
    [](const api::ParamMap& params) {
      return fixed_chunks_label("lfu", params.get_size("chunks"));
    }}};

}  // namespace

}  // namespace agar::client
