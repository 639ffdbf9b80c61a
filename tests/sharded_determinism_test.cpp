// Shard-count invariance: the sharded simulation engine must produce the
// SAME bytes for any worker-thread count. Every runnable system from the
// registry runs a seeded multi-region experiment — windows, a scripted
// scenario and the periodic control plane all active — at shards=1 (the
// inline serial engine) and shards=4 (real threads, cross-shard rings),
// and the full results_json reports are compared as strings. Only
// planning_ms is wall clock; it is normalized exactly the way the
// spec_goldens check normalizes it.
#include <gtest/gtest.h>

#include <regex>
#include <string>

#include "api/api.hpp"
#include "client/report.hpp"

namespace agar {
namespace {

/// planning_ms is the one wall-clock field in the report; everything else
/// is virtual time or counters.
std::string normalize(std::string json) {
  static const std::regex planning("\"planning_ms\": [^,}\n]*");
  return std::regex_replace(json, planning, "\"planning_ms\": 0");
}

api::ExperimentSpec sharded_spec(const std::string& system,
                                 std::size_t shards) {
  api::ExperimentSpec spec;
  spec.experiment.deployment.num_objects = 25;
  spec.experiment.deployment.object_size_bytes = 9000;
  spec.experiment.deployment.seed = 31337;
  spec.experiment.ops_per_run = 200;
  spec.experiment.runs = 2;
  spec.experiment.num_clients = 2;
  spec.experiment.reconfig_period_ms = 10'000.0;
  spec.set("regions", "frankfurt,dublin,virginia,tokyo");
  spec.set("window_ms", "5000");
  spec.set("scenario",
           "1000 fail_region region=sydney; 2500 popularity_rotate by=7; "
           "6000 restore_region region=sydney");
  spec.set("shards", std::to_string(shards));

  spec.system = system;
  const auto& schema =
      api::StrategyRegistry::instance()
          .at(api::resolve_system(spec.system, spec.params).first)
          .schema;
  if (schema.has("chunks")) spec.params.set("chunks", "5");
  if (schema.has("cache_bytes")) spec.params.set("cache_bytes", "64KB");
  return spec;
}

class ShardedDeterminism : public ::testing::TestWithParam<std::string> {};

TEST_P(ShardedDeterminism, FourShardsMatchSerialByteForByte) {
  const auto serial = api::run(sharded_spec(GetParam(), 1)).result;
  const auto sharded = api::run(sharded_spec(GetParam(), 4)).result;

  // The whole report — per-run latencies, windows, hit counters, pipeline
  // gauges, control-plane telemetry — compared as rendered bytes.
  EXPECT_EQ(normalize(client::results_json({serial})),
            normalize(client::results_json({sharded})));

  // The interesting parts really were exercised.
  ASSERT_FALSE(serial.runs.empty());
  EXPECT_GT(serial.runs[0].ops, 0u);
  EXPECT_FALSE(serial.runs[0].windows.empty());
  EXPECT_GT(serial.runs[0].scenario_events_fired, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllSystems, ShardedDeterminism,
    ::testing::ValuesIn(api::runnable_systems()),
    [](const ::testing::TestParamInfo<std::string>& param_info) {
      std::string name = param_info.param;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// Odd shard counts that do not divide the lane count, and shard counts
// beyond the lane count (clamped), must also be invariant.
TEST(ShardedDeterminismEdge, UnevenAndOversizedShardCounts) {
  const auto base =
      normalize(client::results_json({api::run(sharded_spec("agar", 1)).result}));
  for (const std::size_t shards : {2u, 3u, 8u}) {
    EXPECT_EQ(base, normalize(client::results_json(
                        {api::run(sharded_spec("agar", shards)).result})))
        << "shards=" << shards;
  }
}

// Gray-failure chaos plus hedging must stay shard-invariant: drop and
// straggle draws come from per-lane latency-model streams, the flap cycle
// re-arms itself through the loop, and the fetch policy's backoff jitter
// is seeded per (run, region) — none of it may depend on shard packing.
api::ExperimentSpec gray_spec(std::size_t shards) {
  auto spec = sharded_spec("agar", shards);
  spec.set("scenario",
           "500 straggle_region region=tokyo frac=0.3 mult=12; "
           "800 drop_region region=dublin p=0.2; "
           "1500 flap_region region=sydney period_ms=3000 down_ms=1000 "
           "until_ms=9000; "
           "7000 straggle_region region=tokyo frac=0; "
           "7000 drop_region region=dublin p=0");
  spec.set("fetch", "hedge");
  spec.set("fetch.retries", "1");
  spec.set("fetch.hedge_after_mult", "1.5");
  return spec;
}

TEST(ShardedDeterminismEdge, GrayFailureChaosWithHedgingIsShardInvariant) {
  const auto serial = api::run(gray_spec(1)).result;
  const auto sharded = api::run(gray_spec(4)).result;
  EXPECT_EQ(normalize(client::results_json({serial})),
            normalize(client::results_json({sharded})));

  ASSERT_FALSE(serial.runs.empty());
  EXPECT_GT(serial.runs[0].scenario_events_fired, 0u);
  EXPECT_GT(serial.runs[0].fetch.attempts, 0u);
  EXPECT_FALSE(serial.runs[0].region_success_ewma.empty());
}

// The cooperative cache tier adds cross-lane traffic everywhere at once:
// directory broadcasts, peer fetches, Paxos config appends, decided-epoch
// notifications — all riding post()/SPSC rings — plus a partition/heal
// script cutting and restoring the mesh mid-run. All of it must stay
// byte-identical for any shard count.
api::ExperimentSpec collab_spec(std::size_t shards) {
  auto spec = sharded_spec("agar", shards);
  spec.set("collab", "broadcast");
  spec.set("collab.period_s", "2");
  spec.set("collab.apply_ms", "500");
  spec.set("scenario",
           "1500 partition_regions regions=frankfurt,dublin; "
           "4000 heal_partition; "
           "6000 fail_region region=virginia");
  return spec;
}

TEST(ShardedDeterminismEdge, CollabBroadcastWithPartitionIsShardInvariant) {
  const auto serial = api::run(collab_spec(1)).result;
  const auto base = normalize(client::results_json({serial}));
  for (const std::size_t shards : {2u, 4u}) {
    EXPECT_EQ(base, normalize(client::results_json(
                        {api::run(collab_spec(shards)).result})))
        << "shards=" << shards;
  }

  ASSERT_FALSE(serial.runs.empty());
  ASSERT_TRUE(serial.runs[0].collab.has_value());
  EXPECT_GT(serial.runs[0].collab->paxos_appends, 0u);
  EXPECT_GT(serial.runs[0].scenario_events_fired, 0u);
}

// The spec surface round-trips the key and rejects nonsense.
TEST(ShardedDeterminismEdge, SpecSurface) {
  api::ExperimentSpec spec;
  spec.set("shards", "4");
  EXPECT_EQ(spec.experiment.shards, 4u);
  EXPECT_NE(spec.to_json().find("\"shards\": 4"), std::string::npos);
  // Default stays out of the JSON so existing goldens never change.
  EXPECT_EQ(api::ExperimentSpec{}.to_json().find("shards"), std::string::npos);
  spec.set("shards", "0");
  EXPECT_THROW(spec.validate(), std::invalid_argument);
}

}  // namespace
}  // namespace agar
