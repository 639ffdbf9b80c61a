// End-to-end integration: the full paper deployment exercised through the
// public API (declarative specs + registries), with real payload
// verification, reconfiguration over simulated time, failure injection,
// and the headline Agar-vs-static-policy ordering on a scaled-down
// working set.
#include <gtest/gtest.h>

#include "api/api.hpp"
#include "client/report.hpp"
#include "client/runner.hpp"

namespace agar::client {
namespace {

ExperimentConfig paper_mini() {
  // A scaled-down §V-A setup: fewer/smaller objects so verify-mode tests
  // stay fast, same structure (RS(9,3), six regions, zipf 1.1, 2 clients).
  ExperimentConfig c;
  c.deployment.num_objects = 40;
  c.deployment.object_size_bytes = 18_KB;
  c.deployment.seed = 2026;
  c.workload = WorkloadSpec::zipfian(1.1);
  c.ops_per_run = 1500;
  c.runs = 2;
  c.num_clients = 2;
  // The paper's 30 s period matters: shorter periods see too few samples
  // per period at this scale, the EWMA gets noisy, and configuration churn
  // erodes Agar's advantage (see EXPERIMENTS.md notes).
  c.reconfig_period_ms = 30'000.0;
  return c;
}

std::size_t cache_for_objects(const ExperimentConfig& c, double objects) {
  // Capacity equivalent to `objects` full 9-chunk replicas.
  const std::size_t chunk = (c.deployment.object_size_bytes + 8) / 9;
  return static_cast<std::size_t>(9.0 * objects * static_cast<double>(chunk));
}

api::ExperimentSpec spec_for(const ExperimentConfig& config,
                             const std::vector<std::string>& pairs) {
  api::ExperimentSpec spec;
  spec.experiment = config;
  for (const auto& pair : pairs) spec.set_pair(pair);
  return spec;
}

TEST(Integration, AgarBeatsStaticPoliciesOnSkewedWorkload) {
  auto config = paper_mini();
  // ~10% of the data set.
  const std::string cache =
      "cache_bytes=" + std::to_string(cache_for_objects(config, 4.0));

  const auto reports = api::run_all({
      spec_for(config, {"system=agar", cache}),
      spec_for(config, {"system=lru", "chunks=1", cache}),
      spec_for(config, {"system=lru", "chunks=9", cache}),
      spec_for(config, {"system=lfu", "chunks=5", cache}),
      spec_for(config, {"system=lfu", "chunks=9", cache}),
      spec_for(config, {"system=backend"}),
  });

  const double agar = reports[0].result.mean_latency_ms();
  const double backend = reports.back().result.mean_latency_ms();
  // Agar must beat the backend massively and every static policy we ran
  // (the paper reports 16-41% over the best static policy; we only assert
  // the ordering, not the magnitude).
  EXPECT_LT(agar, backend);
  for (std::size_t i = 1; i + 1 < reports.size(); ++i) {
    EXPECT_LT(agar, reports[i].result.mean_latency_ms() * 1.02)
        << "vs " << reports[i].label();
  }
}

TEST(Integration, HitRatioOrderingMatchesFig7) {
  auto config = paper_mini();
  const std::string cache =
      "cache_bytes=" + std::to_string(cache_for_objects(config, 4.0));
  const auto lru1 =
      api::run(spec_for(config, {"system=lru", "chunks=1", cache})).result;
  const auto lru9 =
      api::run(spec_for(config, {"system=lru", "chunks=9", cache})).result;
  // Fewer chunks per object -> more objects fit -> higher hit ratio.
  EXPECT_GT(lru1.hit_ratio(), lru9.hit_ratio());
}

TEST(Integration, VerifiedEndToEndWithRealPayloads) {
  auto config = paper_mini();
  config.verify_data = true;
  config.ops_per_run = 200;
  config.runs = 1;
  const auto agar =
      api::run(spec_for(config,
                        {"system=agar",
                         "cache_bytes=" +
                             std::to_string(cache_for_objects(config, 4))}))
          .result;
  EXPECT_EQ(agar.runs[0].verified, agar.runs[0].ops);
}

TEST(Integration, CacheSizeSweepIsMonotoneForLru) {
  auto config = paper_mini();
  config.ops_per_run = 400;
  double prev = std::numeric_limits<double>::infinity();
  for (const double objects : {1.0, 4.0, 16.0, 40.0}) {
    const auto r =
        api::run(spec_for(config,
                          {"system=lru", "chunks=9",
                           "cache_bytes=" + std::to_string(cache_for_objects(
                                                config, objects))}))
            .result;
    // Larger caches can only help (tolerate small jitter noise).
    EXPECT_LE(r.mean_latency_ms(), prev * 1.05);
    prev = r.mean_latency_ms();
  }
}

TEST(Integration, SkewSweepHelpsCachingSystems) {
  auto config = paper_mini();
  config.ops_per_run = 400;
  const std::string cache =
      "cache_bytes=" + std::to_string(cache_for_objects(config, 4.0));
  const auto base = spec_for(config, {"system=lfu", "chunks=9", cache});
  const auto uniform = api::run(base.with({"workload=uniform"})).result;
  const auto skewed = api::run(base.with({"workload=zipf:1.4"})).result;
  EXPECT_LT(skewed.mean_latency_ms(), uniform.mean_latency_ms());
  EXPECT_GT(skewed.hit_ratio(), uniform.hit_ratio());
}

TEST(Integration, FrankfurtVsSydneyGeographyMatters) {
  auto config = paper_mini();
  config.ops_per_run = 300;
  const auto base = spec_for(config, {"system=backend"});
  const auto fra = api::run(base.with({"region=frankfurt"})).result;
  const auto syd = api::run(base.with({"region=sydney"})).result;
  // Both dominated by their furthest needed chunk; Sydney's is further.
  EXPECT_GT(syd.mean_latency_ms(), fra.mean_latency_ms() * 0.9);
}

TEST(Integration, AgarSurvivesRegionOutageMidRun) {
  // Fail a region before the run; every read must still assemble k chunks
  // (fallback to parity) and verify, while the control plane keeps
  // reconfiguring around the outage.
  auto config = paper_mini();
  config.verify_data = true;
  config.ops_per_run = 150;
  config.runs = 1;

  DeploymentConfig dep = config.deployment;
  Deployment deployment(dep);
  sim::EventLoop loop;
  deployment.network().bind_loop(&loop);
  deployment.network().fail_region(sim::region::kVirginia);

  const auto spec = spec_for(
      config, {"system=agar",
               "cache_bytes=" + std::to_string(cache_for_objects(config, 4))});
  const auto strategy = api::make_strategy_factory(spec)(
      config, deployment, config.client_region, &loop);
  strategy->warm_up();
  strategy->start_control_plane();
  Workload workload(config.workload, dep.num_objects, 99);
  for (int i = 0; i < 150; ++i) {
    const auto r = strategy->read(workload.next_key());
    EXPECT_TRUE(r.verified);
  }
  EXPECT_GT(strategy->control_plane_stats().reconfigurations, 0u);
}

TEST(Integration, ReportFormattingSmoke) {
  auto config = paper_mini();
  config.ops_per_run = 100;
  config.runs = 1;
  const auto reports = api::run_all(
      {spec_for(config, {"system=backend"}),
       spec_for(config,
                {"system=agar",
                 "cache_bytes=" +
                     std::to_string(cache_for_objects(config, 4))})});
  const std::string table = format_table(
      {"system", "latency"},
      {{reports[0].label(), fmt_ms(reports[0].result.mean_latency_ms())},
       {reports[1].label(), fmt_ms(reports[1].result.mean_latency_ms())}});
  EXPECT_NE(table.find("Backend"), std::string::npos);
  EXPECT_NE(table.find("Agar"), std::string::npos);
  EXPECT_EQ(fmt_pct(0.5), "50.0%");
}

}  // namespace
}  // namespace agar::client
