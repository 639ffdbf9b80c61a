// Cooperative cache tier, end to end: spec surface, peer-fetch traffic,
// Paxos config appends, partition semantics, stale-config accounting, and
// the collab=none inertness guarantee.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "api/api.hpp"
#include "client/report.hpp"

namespace agar {
namespace {

/// Skewed multi-region spec where peer caches are worth consulting:
/// frankfurt/dublin/virginia sit within the 400 ms peer threshold of each
/// other while most chunk homes are farther away.
api::ExperimentSpec collab_spec() {
  api::ExperimentSpec spec;
  spec.system = "agar";
  spec.experiment.deployment.num_objects = 25;
  spec.experiment.deployment.object_size_bytes = 9000;
  spec.experiment.deployment.seed = 4242;
  spec.experiment.ops_per_run = 400;
  spec.experiment.runs = 1;
  spec.experiment.num_clients = 2;
  spec.experiment.reconfig_period_ms = 8'000.0;
  spec.set("regions", "frankfurt,dublin,virginia");
  spec.set("workload", "zipf:1.2");
  spec.params.set("cache_bytes", "64KB");
  spec.set("collab", "broadcast");
  spec.set("collab.period_s", "2");
  return spec;
}

TEST(CollabSpec, RegistryListsTiers) {
  const auto names = api::CollabRegistry::instance().names();
  EXPECT_NE(std::find(names.begin(), names.end(), "none"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "broadcast"), names.end());
}

TEST(CollabSpec, RoundTripsAndElidesDefault) {
  api::ExperimentSpec spec;
  spec.set("collab", "broadcast");
  spec.set("collab.period_s", "2");
  const std::string json = spec.to_json();
  EXPECT_NE(json.find("\"collab\": \"broadcast\""), std::string::npos);
  EXPECT_NE(json.find("\"collab.period_s\""), std::string::npos);
  EXPECT_NE(spec.label().find("+collab"), std::string::npos);
  // The default tier stays out of JSON and labels so every pre-collab
  // golden remains byte-identical.
  EXPECT_EQ(api::ExperimentSpec{}.to_json().find("collab"), std::string::npos);
  EXPECT_EQ(api::ExperimentSpec{}.label().find("collab"), std::string::npos);
}

TEST(CollabSpec, RejectsUnknownTierAndParams) {
  api::ExperimentSpec unknown;
  unknown.set("collab", "gossip");
  EXPECT_THROW(unknown.validate(), std::exception);

  api::ExperimentSpec bad_param;
  bad_param.set("collab", "broadcast");
  bad_param.set("collab.bogus", "1");
  EXPECT_THROW(bad_param.validate(), std::exception);
}

TEST(CollabSpec, PlannersTakeNoScope) {
  // The tier shares chunks at read time only; every region plans on its
  // own popularity, so `scope` is an unknown planner parameter.
  api::ExperimentSpec spec = collab_spec();
  spec.set("planner.scope", "global");
  EXPECT_THROW(spec.validate(), std::invalid_argument);
}

TEST(CollabRun, BroadcastTierProducesPeerTraffic) {
  const auto result = api::run(collab_spec()).result;
  ASSERT_FALSE(result.runs.empty());
  const auto& run = result.runs[0];
  ASSERT_TRUE(run.collab_active);
  EXPECT_GT(run.collab_peer_hits, 0u);
  EXPECT_GT(run.collab_bytes_from_peers, 0u);
  EXPECT_GT(run.collab_bytes_from_backend, 0u);
  EXPECT_GT(run.paxos_appends, 0u);
  EXPECT_GT(run.config_epochs, 0u);
  EXPECT_GE(run.config_overlap, 0.0);
  EXPECT_LE(run.config_overlap, 1.0);
  EXPECT_GT(run.paxos_append_p50_ms, 0.0);
  EXPECT_GE(run.paxos_append_p99_ms, run.paxos_append_p50_ms);
}

TEST(CollabRun, AppendP99IsTheSlowestOfAFewAppends) {
  // Nearest rank, like every other percentile in the report: under 100
  // appends p99 is the slowest one. Of three appends it is not the median
  // unless the two slowest tie.
  auto spec = collab_spec();
  spec.experiment.reconfig_period_ms = 20'000.0;
  const auto result = api::run(spec).result;
  ASSERT_FALSE(result.runs.empty());
  const auto& run = result.runs[0];
  ASSERT_EQ(run.paxos_appends, 3u);
  ASSERT_EQ(run.paxos_append_failures, 0u);
  EXPECT_GT(run.paxos_append_p99_ms, run.paxos_append_p50_ms);
}

TEST(CollabRun, PartitionCutsPeersButNotBackend) {
  // Two client regions split from t=0: no peer is ever reachable, appends
  // from the non-leader lane fail locally, yet every read still completes
  // against the (untouched) backend.
  auto spec = collab_spec();
  spec.set("regions", "frankfurt,dublin");
  spec.set("scenario", "0 partition_regions regions=frankfurt");
  const auto result = api::run(spec).result;
  ASSERT_FALSE(result.runs.empty());
  const auto& run = result.runs[0];
  ASSERT_TRUE(run.collab_active);
  EXPECT_EQ(run.collab_peer_hits, 0u);
  EXPECT_EQ(run.collab_bytes_from_peers, 0u);
  EXPECT_GT(run.paxos_append_failures, 0u);
  EXPECT_GT(run.ops, 0u);
  EXPECT_EQ(run.failed_reads, 0u);
}

TEST(CollabRun, HealRestoresPeerTraffic) {
  auto spec = collab_spec();
  spec.set("scenario",
           "0 partition_regions regions=frankfurt; 3000 heal_partition");
  const auto result = api::run(spec).result;
  ASSERT_FALSE(result.runs.empty());
  EXPECT_GT(result.runs[0].collab_peer_hits, 0u);
}

TEST(CollabRun, SlowApplyCountsStaleConfigReads) {
  auto spec = collab_spec();
  spec.set("collab.apply_ms", "5000");
  const auto result = api::run(spec).result;
  ASSERT_FALSE(result.runs.empty());
  EXPECT_GT(result.runs[0].stale_config_reads, 0u);
}

TEST(CollabRun, NoneTierStaysInert) {
  auto spec = collab_spec();
  spec.set("collab", "none");
  spec.set("collab.period_s", "");  // "key=" clears a namespaced param
  const auto result = api::run(spec).result;
  ASSERT_FALSE(result.runs.empty());
  EXPECT_FALSE(result.runs[0].collab_active);
  // Not a single "collab" byte in the report: pre-collab goldens cannot
  // drift.
  EXPECT_EQ(client::results_json({result}).find("collab"), std::string::npos);
}

}  // namespace
}  // namespace agar
