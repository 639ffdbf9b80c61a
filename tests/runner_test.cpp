// Experiment runner: deployment construction, closed-loop clients,
// aggregation, determinism — driven through the declarative api layer.
#include "client/runner.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "api/api.hpp"
#include "client/backend_strategy.hpp"

namespace agar::client {
namespace {

ExperimentConfig small_config() {
  ExperimentConfig c;
  c.deployment.num_objects = 20;
  c.deployment.object_size_bytes = 9000;
  c.deployment.seed = 7;
  c.ops_per_run = 120;
  c.runs = 2;
  c.num_clients = 2;
  c.reconfig_period_ms = 5000.0;
  return c;
}

/// One spec = the shared config plus system/params pairs.
api::ExperimentSpec spec_for(const ExperimentConfig& config,
                             const std::vector<std::string>& pairs) {
  api::ExperimentSpec spec;
  spec.experiment = config;
  for (const auto& pair : pairs) spec.set_pair(pair);
  return spec;
}

ExperimentResult run_system(const ExperimentConfig& config,
                            const std::vector<std::string>& pairs) {
  return api::run(spec_for(config, pairs)).result;
}

TEST(Deployment, BuildsSixRegionCluster) {
  DeploymentConfig c;
  c.num_objects = 3;
  c.object_size_bytes = 900;
  Deployment d(c);
  EXPECT_EQ(d.topology().num_regions(), 6u);
  EXPECT_EQ(d.backend().num_objects(), 3u);
  EXPECT_TRUE(d.backend().has_object("object0"));
  // The workload's object i is the object registered as "object<i>".
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(d.backend().key_of(d.object_id(i)),
              "object" + std::to_string(i));
  }
}

TEST(Deployment, MetadataOnlyModeSkipsPayloads) {
  DeploymentConfig c;
  c.num_objects = 3;
  c.store_payloads = false;
  Deployment d(c);
  EXPECT_TRUE(d.backend().has_object("object0"));
  EXPECT_FALSE(d.backend().get_chunk({d.backend().id_of("object0"), 0})
                   .has_value());
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(d.backend().key_of(d.object_id(i)),
              "object" + std::to_string(i));
  }
}

TEST(SpecLabels, DerivedFromRegistryInOnePlace) {
  // The same derivation feeds bench legends, --list and JSON reports.
  EXPECT_EQ(api::ExperimentSpec::from_pairs({"system=backend"}).label(),
            "Backend");
  EXPECT_EQ(api::ExperimentSpec::from_pairs({"system=lru", "chunks=3"})
                .label(),
            "LRU-3");
  EXPECT_EQ(api::ExperimentSpec::from_pairs({"system=lfu", "chunks=9"})
                .label(),
            "LFU-9");
  EXPECT_EQ(api::ExperimentSpec::from_pairs({"system=tinylfu", "chunks=5"})
                .label(),
            "TinyLFU-5");
  EXPECT_EQ(api::ExperimentSpec::from_pairs(
                {"system=lfu-eviction", "chunks=5"})
                .label(),
            "LFUev-5");
  EXPECT_EQ(api::ExperimentSpec::from_pairs({"system=arc", "chunks=7"})
                .label(),
            "ARC-7");
  EXPECT_EQ(api::ExperimentSpec::from_pairs(
                {"system=fixed-chunks", "engine=lfu", "chunks=3"})
                .label(),
            "LFUev-3");
  EXPECT_EQ(api::ExperimentSpec::from_pairs({"system=agar"}).label(), "Agar");
  // And the label the runner attaches to results is the same string.
  auto config = small_config();
  config.runs = 1;
  config.ops_per_run = 10;
  const auto report = api::run(spec_for(config, {"system=lru", "chunks=3",
                                                 "cache_bytes=64KB"}));
  EXPECT_EQ(report.label(), "LRU-3");
  EXPECT_EQ(report.result.label, "LRU-3");
}

TEST(Runner, BackendExperimentProducesAllOps) {
  const auto config = small_config();
  const auto result = run_system(config, {"system=backend"});
  EXPECT_EQ(result.runs.size(), 2u);
  EXPECT_EQ(result.total_ops(), 240u);
  EXPECT_GT(result.mean_latency_ms(), 0.0);
  EXPECT_DOUBLE_EQ(result.hit_ratio(), 0.0);
}

TEST(Runner, LruWithInfiniteCacheHitsAfterColdStart) {
  auto config = small_config();
  config.ops_per_run = 300;
  const auto result =
      run_system(config, {"system=lru", "chunks=9", "cache_bytes=500MB"});
  // 20 objects, 300 zipf reads: nearly everything after the first touch of
  // each object is a full hit.
  EXPECT_GT(result.hit_ratio(), 0.8);
  EXPECT_GT(result.full_hit_ratio(), 0.8);
  // And the average latency is far below backend-only.
  const auto backend = run_system(config, {"system=backend"});
  EXPECT_LT(result.mean_latency_ms(), backend.mean_latency_ms() * 0.5);
}

TEST(Runner, AgarRunsAndBeatsBackend) {
  auto config = small_config();
  config.ops_per_run = 400;
  const auto agar = run_system(config, {"system=agar", "cache_bytes=10MB"});
  const auto backend = run_system(config, {"system=backend"});
  EXPECT_GT(agar.hit_ratio(), 0.0);
  EXPECT_LT(agar.mean_latency_ms(), backend.mean_latency_ms());
  // Agar's final configuration must respect the cache budget.
  for (const auto& run : agar.runs) {
    EXPECT_LE(run.cache_used_bytes, 10_MB);
  }
}

TEST(Runner, ResultsAreDeterministic) {
  const auto config = small_config();
  const auto a =
      run_system(config, {"system=lfu", "chunks=5", "cache_bytes=5MB"});
  const auto b =
      run_system(config, {"system=lfu", "chunks=5", "cache_bytes=5MB"});
  EXPECT_DOUBLE_EQ(a.mean_latency_ms(), b.mean_latency_ms());
  EXPECT_DOUBLE_EQ(a.hit_ratio(), b.hit_ratio());
}

TEST(Runner, DifferentSeedsChangeResults) {
  auto config = small_config();
  const auto a =
      run_system(config, {"system=lru", "chunks=5", "cache_bytes=5MB"});
  config.deployment.seed = 12345;
  const auto b =
      run_system(config, {"system=lru", "chunks=5", "cache_bytes=5MB"});
  EXPECT_NE(a.mean_latency_ms(), b.mean_latency_ms());
}

TEST(Runner, PercentilesAreOrdered) {
  const auto config = small_config();
  const auto r =
      run_system(config, {"system=lru", "chunks=9", "cache_bytes=10MB"});
  EXPECT_LE(r.percentile_ms(50), r.percentile_ms(95));
  EXPECT_LE(r.percentile_ms(95), r.percentile_ms(99));
}

TEST(Runner, RunAllRunsEverySpec) {
  const auto config = small_config();
  const auto reports = api::run_all({
      spec_for(config, {"system=backend"}),
      spec_for(config, {"system=lru", "chunks=5", "cache_bytes=5MB"}),
      spec_for(config, {"system=agar", "cache_bytes=5MB"}),
  });
  ASSERT_EQ(reports.size(), 3u);
  EXPECT_EQ(reports[0].label(), "Backend");
  EXPECT_EQ(reports[2].label(), "Agar");
}

TEST(Runner, VerifyModeDecodesEveryRead) {
  auto config = small_config();
  config.verify_data = true;
  config.ops_per_run = 60;
  config.runs = 1;
  // Every runnable system, strategies and engines alike, straight from
  // registry introspection.
  for (const std::string& system : api::runnable_systems()) {
    std::vector<std::string> pairs{"system=" + system};
    const auto& schema =
        api::StrategyRegistry::instance()
            .at(api::resolve_system(system, api::ParamMap{}).first)
            .schema;
    if (schema.has("chunks")) pairs.push_back("chunks=5");
    if (schema.has("cache_bytes")) pairs.push_back("cache_bytes=5MB");
    const auto result = run_system(config, pairs);
    EXPECT_EQ(result.runs[0].verified, result.runs[0].ops) << result.label;
  }
}

TEST(Runner, AgarWeightHistogramPopulated) {
  auto config = small_config();
  config.ops_per_run = 500;
  config.runs = 1;
  config.reconfig_period_ms = 2000.0;
  const auto result = run_system(config, {"system=agar", "cache_bytes=5MB"});
  std::size_t total = 0;
  for (const auto& [w, count] : result.runs[0].weight_histogram) {
    EXPECT_GE(w, 1u);
    EXPECT_LE(w, 9u);
    total += count;
  }
  EXPECT_GT(total, 0u);
}

TEST(Runner, UniformWorkloadMakesCachingUseless) {
  auto config = small_config();
  config.deployment.num_objects = 100;
  config.workload = WorkloadSpec::uniform();
  config.ops_per_run = 200;
  // 100 KB cache holds ~11 of the 100 objects (9 x 1000-byte chunks each);
  // under uniform access the hit ratio collapses toward that fraction.
  const auto lru =
      run_system(config, {"system=lru", "chunks=9", "cache_bytes=100KB"});
  EXPECT_LT(lru.hit_ratio(), 0.2);
}

TEST(Runner, CustomFactoriesRunWithoutRegistry) {
  // The runner itself stays registry-agnostic: any StrategyFactory works.
  auto config = small_config();
  config.runs = 1;
  const StrategyFactory factory =
      [](const ExperimentConfig&, Deployment& deployment, RegionId region,
         sim::EventLoop* loop) -> std::unique_ptr<ReadStrategy> {
        ClientContext ctx;
        ctx.backend = &deployment.backend();
        ctx.network = &deployment.network_for(region);
        ctx.loop = loop;
        ctx.region = region;
        return std::make_unique<BackendStrategy>(ctx);
      };
  const auto result = run_experiment(config, factory, "hand-rolled");
  EXPECT_EQ(result.label, "hand-rolled");
  EXPECT_EQ(result.total_ops(), 120u);
}

}  // namespace
}  // namespace agar::client
