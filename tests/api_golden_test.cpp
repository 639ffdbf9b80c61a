// Determinism goldens for the api redesign: every configuration the old
// StrategySpec::Kind enum could express maps to a declarative spec whose
// seeded RunResults are byte-identical to a hand-rolled construction of
// the same strategy (the exact wiring the pre-redesign make_strategy
// switch performed). If a registration drifts from the old defaults —
// proxy costs, periods, weights — these tests catch it sample-by-sample.
#include <gtest/gtest.h>

#include "api/api.hpp"
#include "client/agar_strategy.hpp"
#include "client/backend_strategy.hpp"
#include "client/fixed_chunks_strategy.hpp"
#include "client/report.hpp"

namespace agar {
namespace {

client::ExperimentConfig golden_config() {
  client::ExperimentConfig c;
  c.deployment.num_objects = 25;
  c.deployment.object_size_bytes = 16_KB;
  c.deployment.seed = 31337;
  c.ops_per_run = 150;
  c.runs = 2;
  c.num_clients = 2;
  c.reconfig_period_ms = 10'000.0;
  return c;
}

constexpr std::size_t kChunks = 5;
constexpr std::size_t kCacheBytes = 1_MB;

/// The pre-redesign construction, reproduced verbatim: a ClientContext
/// filled from the config plus the per-kind parameter wiring the old
/// make_strategy switch hardcoded.
client::ClientContext legacy_ctx(const client::ExperimentConfig& config,
                                 client::Deployment& deployment,
                                 RegionId region, sim::EventLoop* loop) {
  client::ClientContext ctx;
  ctx.backend = &deployment.backend();
  ctx.network = &deployment.network();
  ctx.loop = loop;
  ctx.region = region;
  ctx.decode_ms_per_mb = config.decode_ms_per_mb;
  ctx.verify_data = config.verify_data;
  return ctx;
}

std::unique_ptr<cache::CacheEngine> engine_of(
    const std::string& name, std::size_t capacity,
    const client::ClientContext& ctx) {
  return api::EngineRegistry::instance().create(
      name, api::EngineContext{capacity, &ctx.backend->keys()},
      api::ParamMap{});
}

client::StrategyFactory legacy_factory(const std::string& kind) {
  return [kind](const client::ExperimentConfig& config,
                client::Deployment& deployment, RegionId region,
                sim::EventLoop* loop) -> std::unique_ptr<client::ReadStrategy> {
    const auto ctx = legacy_ctx(config, deployment, region, loop);
    if (kind == "backend") {
      return std::make_unique<client::BackendStrategy>(ctx);
    }
    if (kind == "lru") {
      client::FixedChunksParams p;
      p.engine = "lru";
      p.chunks_per_object = kChunks;
      p.cache_capacity_bytes = kCacheBytes;
      return std::make_unique<client::FixedChunksStrategy>(
          ctx, p, engine_of("lru", kCacheBytes, ctx));
    }
    if (kind == "lfu") {
      // LFU-c: Agar with the one candidate weight c under the greedy
      // planner, its frequency proxy at the monitor's 0.5 ms default.
      client::AgarParams p;
      p.cache_capacity_bytes = kCacheBytes;
      p.reconfig_period_ms = config.reconfig_period_ms;
      p.cache_manager.candidate_weights = {kChunks};
      p.cache_manager.planner = "greedy";
      p.cache_manager.cache_latency_ms =
          deployment.network().model().params().cache_base_ms;
      return std::make_unique<client::AgarStrategy>(ctx, p);
    }
    if (kind == "lfu-eviction") {
      client::FixedChunksParams p;
      p.engine = "lfu";
      p.chunks_per_object = kChunks;
      p.cache_capacity_bytes = kCacheBytes;
      p.proxy_overhead_ms = 0.5;  // frequency-tracking proxy (paper §V-A)
      return std::make_unique<client::FixedChunksStrategy>(
          ctx, p, engine_of("lfu", kCacheBytes, ctx));
    }
    if (kind == "tinylfu") {
      client::FixedChunksParams p;
      p.engine = "tinylfu";
      p.chunks_per_object = kChunks;
      p.cache_capacity_bytes = kCacheBytes;
      p.proxy_overhead_ms = 0.5;
      return std::make_unique<client::FixedChunksStrategy>(
          ctx, p, engine_of("tinylfu", kCacheBytes, ctx));
    }
    // agar
    client::AgarParams p;
    p.cache_capacity_bytes = kCacheBytes;
    p.reconfig_period_ms = config.reconfig_period_ms;
    p.cache_manager.candidate_weights = config.agar_candidate_weights;
    p.cache_manager.cache_latency_ms =
        deployment.network().model().params().cache_base_ms;
    return std::make_unique<client::AgarStrategy>(ctx, p);
  };
}

/// Spec equivalent of each legacy kind, via the string front end.
api::ExperimentSpec spec_of(const std::string& kind,
                            const client::ExperimentConfig& config) {
  api::ExperimentSpec spec;
  spec.experiment = config;
  spec.set("system", kind);
  if (kind != "backend") {
    spec.set("cache_bytes", std::to_string(kCacheBytes));
    if (kind != "agar") spec.set("chunks", std::to_string(kChunks));
  }
  return spec;
}

void expect_byte_identical(const client::RunResult& a,
                           const client::RunResult& b,
                           const std::string& kind) {
  EXPECT_EQ(a.ops, b.ops) << kind;
  EXPECT_EQ(a.full_hits, b.full_hits) << kind;
  EXPECT_EQ(a.partial_hits, b.partial_hits) << kind;
  EXPECT_EQ(a.network.wire_fetches, b.network.wire_fetches) << kind;
  EXPECT_EQ(a.coalesced_fetches, b.coalesced_fetches) << kind;
  EXPECT_EQ(a.cache_stats.hits, b.cache_stats.hits) << kind;
  EXPECT_EQ(a.cache_stats.evictions, b.cache_stats.evictions) << kind;
  EXPECT_EQ(a.cache_used_bytes, b.cache_used_bytes) << kind;
  EXPECT_EQ(a.duration_ms, b.duration_ms) << kind;
  // Control-plane counters are deterministic (only planning_ms is wall
  // clock): the installed configurations themselves must match, not just
  // the latencies they produce.
  EXPECT_EQ(a.control_plane.reconfigurations,
            b.control_plane.reconfigurations)
      << kind;
  EXPECT_EQ(a.control_plane.chunks_installed,
            b.control_plane.chunks_installed)
      << kind;
  EXPECT_EQ(a.control_plane.chunks_evicted, b.control_plane.chunks_evicted)
      << kind;
  EXPECT_EQ(a.weight_histogram, b.weight_histogram) << kind;
  const auto& sa = a.latencies.sorted_samples();
  const auto& sb = b.latencies.sorted_samples();
  ASSERT_EQ(sa.size(), sb.size()) << kind;
  for (std::size_t i = 0; i < sa.size(); ++i) {
    // Bitwise-equal doubles, not approximately equal.
    EXPECT_EQ(sa[i], sb[i]) << kind << " sample " << i;
  }
}

class ApiGolden : public ::testing::TestWithParam<std::string> {};

TEST_P(ApiGolden, SpecMatchesLegacyConstructionByteForByte) {
  const std::string kind = GetParam();
  const auto config = golden_config();

  const auto via_spec = api::run(spec_of(kind, config)).result;
  const auto via_legacy =
      client::run_experiment(config, legacy_factory(kind), kind);

  ASSERT_EQ(via_spec.runs.size(), via_legacy.runs.size());
  for (std::size_t r = 0; r < via_spec.runs.size(); ++r) {
    expect_byte_identical(via_spec.runs[r], via_legacy.runs[r], kind);
  }
}

TEST_P(ApiGolden, SpecRunsAreRepeatable) {
  const std::string kind = GetParam();
  const auto spec = spec_of(kind, golden_config());
  const auto a = api::run(spec).result;
  const auto b = api::run(spec).result;
  for (std::size_t r = 0; r < a.runs.size(); ++r) {
    expect_byte_identical(a.runs[r], b.runs[r], kind);
  }
}

INSTANTIATE_TEST_SUITE_P(
    LegacyKinds, ApiGolden,
    ::testing::Values("backend", "lru", "lfu", "lfu-eviction", "tinylfu",
                      "agar"),
    [](const ::testing::TestParamInfo<std::string>& param_info) {
      std::string name = param_info.param;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// ---------------------------------------------------------------------------
// Control-plane goldens: the planner/estimator registries must not move the
// default path by a single byte, and the non-default entries must run end
// to end through the same spec surface.

TEST(ApiGoldenControlPlane, ExplicitDefaultsMatchImplicitDefaultsByteForByte) {
  // `planner=knapsack-dp monitor=exact-ewma` spelled out must reproduce
  // the spec that says nothing — proving the registry decomposition left
  // the pre-refactor control plane byte-identical.
  const auto config = golden_config();
  const auto implicit = api::run(spec_of("agar", config)).result;
  auto spec = spec_of("agar", config);
  spec.set("planner", "knapsack-dp");
  spec.set("monitor", "exact-ewma");
  const auto explicit_run = api::run(spec).result;
  ASSERT_EQ(implicit.runs.size(), explicit_run.runs.size());
  for (std::size_t r = 0; r < implicit.runs.size(); ++r) {
    expect_byte_identical(implicit.runs[r], explicit_run.runs[r],
                          "explicit-defaults");
  }
  // The registry-derived label must not change for the default picks.
  EXPECT_EQ(spec.label(), "Agar");
}

TEST(ApiGoldenControlPlane, DefaultRunReportsControlPlaneTelemetry) {
  const auto result = api::run(spec_of("agar", golden_config())).result;
  for (const auto& run : result.runs) {
    EXPECT_GT(run.control_plane.reconfigurations, 0u);
    EXPECT_GT(run.control_plane.chunks_installed, 0u);
    EXPECT_GE(run.control_plane.planning_ms, 0.0);
  }
}

TEST(ApiGoldenControlPlane, IncrementalCountMinRunsEndToEnd) {
  auto spec = spec_of("agar", golden_config());
  spec.set("planner", "incremental");
  spec.set("planner.threshold", "0.2");
  spec.set("monitor", "count-min");
  spec.set("monitor.width", "512");
  const auto result = api::run(spec).result;
  ASSERT_EQ(result.runs.size(), 2u);
  for (const auto& run : result.runs) {
    EXPECT_EQ(run.ops, 150u);
    EXPECT_EQ(run.failed_reads, 0u);
    EXPECT_GT(run.control_plane.reconfigurations, 0u);
  }
  EXPECT_EQ(result.label, "Agar[incremental,count-min]");
}

TEST(ApiGoldenControlPlane, LfuIsAgarWithOneWeightUnderGreedy) {
  // examples/specs/agar_vs_lfu.json's configuration.
  const auto base = api::ExperimentSpec::from_pairs(
      {"workload=zipf:1.1", "region=frankfurt", "objects=40",
       "object_bytes=32KB", "ops=300", "runs=2", "clients=2", "period_s=10",
       "seed=7", "cache_bytes=1MB"});
  auto lfu = api::run(base.with({"system=lfu", "chunks=5"})).result;
  auto agar = api::run(base.with({"system=agar", "planner=greedy",
                                  "weights=5"}))
                  .result;
  EXPECT_EQ(lfu.label, "LFU-5");
  EXPECT_EQ(agar.label, "Agar[greedy]");
  // Apart from the label, and planning_ms (wall clock), every byte.
  for (client::ExperimentResult* result : {&lfu, &agar}) {
    result->label.clear();
    for (auto& run : result->runs) run.control_plane.planning_ms = 0.0;
  }
  EXPECT_GT(lfu.runs.front().control_plane.reconfigurations, 0u);
  EXPECT_EQ(client::results_json({lfu}), client::results_json({agar}));
}

TEST(ApiGoldenControlPlane, NonDefaultPlannerRunsAreRepeatable) {
  auto spec = spec_of("agar", golden_config());
  spec.set("planner", "incremental");
  const auto a = api::run(spec).result;
  const auto b = api::run(spec).result;
  ASSERT_EQ(a.runs.size(), b.runs.size());
  for (std::size_t r = 0; r < a.runs.size(); ++r) {
    expect_byte_identical(a.runs[r], b.runs[r], "incremental");
  }
}

// ---------------------------------------------------------------------------
// Fetch-policy golden: `fetch=none` spelled out must not create a policy
// object at all — the coordinator keeps the raw-network wire path and the
// results match the say-nothing spec byte for byte.

TEST(ApiGoldenFetchPolicy, ExplicitNoneMatchesDefaultByteForByte) {
  const auto config = golden_config();
  const auto implicit = api::run(spec_of("agar", config)).result;
  auto spec = spec_of("agar", config);
  spec.set("fetch", "none");
  const auto explicit_run = api::run(spec).result;
  ASSERT_EQ(implicit.runs.size(), explicit_run.runs.size());
  for (std::size_t r = 0; r < implicit.runs.size(); ++r) {
    expect_byte_identical(implicit.runs[r], explicit_run.runs[r],
                          "fetch-none");
    // No policy ran: the telemetry block stays absent, not zero-filled.
    EXPECT_TRUE(explicit_run.runs[r].region_success_ewma.empty());
    EXPECT_EQ(explicit_run.runs[r].fetch.attempts, 0u);
  }
  EXPECT_EQ(spec.label(), "Agar");
}

// ---------------------------------------------------------------------------
// Documented defaults: a default declared in a schema is the default a run
// uses. Spelling out every non-empty default a system's schema declares
// (and its engine's, planner's and monitor's), or a fetch policy's or
// collab tier's, moves no result byte.

/// `spec` with every non-empty default of `schema` set as `prefix<name>`.
void spell_out(api::ExperimentSpec& spec, const api::ParamSchema& schema,
               const std::string& prefix = "") {
  for (const auto& p : schema.params) {
    if (!p.default_value.empty()) spec.set(prefix + p.name, p.default_value);
  }
}

/// The run's results JSON, planning_ms (wall clock) zeroed.
std::string result_bytes(const api::ExperimentSpec& spec) {
  auto result = api::run(spec).result;
  for (auto& run : result.runs) run.control_plane.planning_ms = 0.0;
  return client::results_json({result});
}

TEST(ApiGoldenDefaults, SpelledOutDefaultsMoveNoByteOfAnySystem) {
  for (const auto& system : api::runnable_systems()) {
    api::ExperimentSpec implicit;
    implicit.experiment = golden_config();
    implicit.set("system", system);
    auto spelled = implicit;
    const auto [name, effective] = api::resolve_system(system, {});
    const auto& schema = api::StrategyRegistry::instance().at(name).schema;
    spell_out(spelled, schema);
    if (const auto engine = effective.raw("engine")) {
      spell_out(spelled, api::EngineRegistry::instance().at(*engine).schema);
    }
    if (const auto* planner = schema.find("planner")) {
      spell_out(spelled,
                api::PlannerRegistry::instance()
                    .at(planner->default_value)
                    .schema,
                "planner.");
    }
    if (const auto* monitor = schema.find("monitor")) {
      spell_out(spelled,
                api::EstimatorRegistry::instance()
                    .at(monitor->default_value)
                    .schema,
                "monitor.");
    }
    if (spelled.params.empty()) continue;  // declares none (backend)
    EXPECT_EQ(result_bytes(spelled), result_bytes(implicit)) << system;
    EXPECT_EQ(spelled.label(), implicit.label()) << system;
  }
}

TEST(ApiGoldenDefaults, SpelledOutDefaultsMoveNoByteOfAnyFetchOrCollab) {
  auto base = spec_of("agar", golden_config());
  base.set("regions", "frankfurt,tokyo");
  for (const auto& policy : api::FetchPolicyRegistry::instance().names()) {
    auto implicit = base;
    implicit.set("fetch", policy);
    auto spelled = implicit;
    spell_out(spelled,
              api::FetchPolicyRegistry::instance().at(policy).schema,
              "fetch.");
    EXPECT_EQ(result_bytes(spelled), result_bytes(implicit)) << policy;
    EXPECT_EQ(spelled.label(), implicit.label()) << policy;
  }
  for (const auto& tier : api::CollabRegistry::instance().names()) {
    auto implicit = base;
    implicit.set("collab", tier);
    auto spelled = implicit;
    spell_out(spelled, api::CollabRegistry::instance().at(tier).schema,
              "collab.");
    EXPECT_EQ(result_bytes(spelled), result_bytes(implicit)) << tier;
    EXPECT_EQ(spelled.label(), implicit.label()) << tier;
  }
}

}  // namespace
}  // namespace agar
