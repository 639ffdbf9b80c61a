// Scenario engine: script parsing/validation, popularity shifts on the
// workload, latency degradation overlays, arrival modulation, and runner
// integration — windowed metrics, counted failed reads, determinism, and
// the adaptivity headline (Agar recovers from a popularity shift within two
// reconfiguration periods; a fixed-c baseline stays on its worse plateau).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>

#include "api/api.hpp"
#include "client/runner.hpp"
#include "client/workload.hpp"
#include "scenario/engine.hpp"
#include "scenario/scenario.hpp"
#include "sim/event_loop.hpp"
#include "sim/network.hpp"

namespace agar {
namespace {

using client::Workload;
using client::WorkloadSpec;
using scenario::PopularityShift;
using scenario::Scenario;

// ------------------------------------------------------------- parsing

TEST(ScenarioParse, CompactTextFormRoundTrips) {
  const Scenario s = scenario::parse_scenario_text(
      "1000 fail_region region=tokyo; 2500 popularity_rotate by=20; "
      "4000 restore_region region=tokyo");
  ASSERT_EQ(s.size(), 3u);
  EXPECT_DOUBLE_EQ(s.events[0].at_ms, 1000.0);
  EXPECT_EQ(s.events[0].event, "fail_region");
  EXPECT_EQ(s.events[0].params.get_string("region"), "tokyo");
  EXPECT_EQ(s.events[1].params.get_size("by"), 20u);
  s.validate();
  EXPECT_EQ(scenario::parse_scenario_text(s.to_text()).to_text(), s.to_text());
}

TEST(ScenarioParse, EmptyTextIsEmptyScenario) {
  EXPECT_TRUE(scenario::parse_scenario_text("").empty());
  EXPECT_TRUE(scenario::parse_scenario_text("  ").empty());
}

TEST(ScenarioParse, RejectsMalformedEventTimes) {
  EXPECT_THROW((void)scenario::parse_scenario_text("nan fail_region region=tokyo"),
               std::invalid_argument);
  EXPECT_THROW((void)scenario::parse_scenario_text("inf flash_crowd count=1"),
               std::invalid_argument);
  EXPECT_THROW((void)scenario::parse_scenario_text("10abc fail_region region=0"),
               std::invalid_argument);
  EXPECT_THROW((void)api::parse_spec_json(R"({"system": "backend", "scenario":
                   [{"at_ms": "nan", "event": "fail_region",
                     "region": "tokyo"}]})"),
               std::invalid_argument);
}

TEST(ScenarioParse, ValidationRejectsBadScripts) {
  EXPECT_THROW(scenario::parse_scenario_text("0 explode").validate(),
               std::invalid_argument);
  EXPECT_THROW(
      scenario::parse_scenario_text("0 fail_region region=atlantis")
          .validate(),
      std::invalid_argument);
  EXPECT_THROW(
      scenario::parse_scenario_text("0 fail_region chunks=2").validate(),
      std::invalid_argument);
  EXPECT_THROW(
      scenario::parse_scenario_text("0 arrival_sine amplitude=1.5")
          .validate(),
      std::invalid_argument);
  EXPECT_THROW(
      scenario::parse_scenario_text("0 slow_region region=tokyo factor=0")
          .validate(),
      std::invalid_argument);
  // A required param left out (it has no default) is a named error.
  for (const auto& [script, message] :
       std::map<std::string, std::string>{
           {"0 fail_region", "needs a 'region' param"},
           {"0 partition_regions",
            "event 0 ('partition_regions'): 'regions' must list"}}) {
    try {
      scenario::parse_scenario_text(script).validate();
      ADD_FAILURE() << script << ": expected a throw";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(message), std::string::npos)
          << e.what();
    }
  }
}

TEST(ScenarioParse, PartitionGroupDropsARepeat) {
  // Six names with one repeat (by id) leave Sydney on the other side.
  EXPECT_NO_THROW(
      scenario::parse_scenario_text(
          "0 partition_regions regions=frankfurt,dublin,virginia,saopaulo,"
          "tokyo,1")
          .validate());
  EXPECT_THROW(scenario::parse_scenario_text(
                   "0 partition_regions regions=frankfurt,dublin,virginia,"
                   "saopaulo,tokyo,5")
                   .validate(),
               std::invalid_argument);
  // A bad name is named with its event.
  try {
    scenario::parse_scenario_text("0 partition_regions regions=dublin,mars")
        .validate();
    ADD_FAILURE() << "expected a throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "event 0 ('partition_regions'): unknown region 'mars'"),
              std::string::npos)
        << e.what();
  }
}

TEST(ScenarioParse, SpecJsonArrayAndTextFormsAgree) {
  const auto from_json = api::parse_spec_json(R"({
    "system": "backend", "ops": 10, "runs": 1, "window_ms": 500,
    "scenario": [
      {"at_ms": 1000, "event": "fail_region", "region": "tokyo"},
      {"at_ms": 2000, "event": "flash_crowd", "count": 5}
    ]
  })");
  ASSERT_EQ(from_json.size(), 1u);
  const auto& spec = from_json[0];
  EXPECT_DOUBLE_EQ(spec.experiment.metric_window_ms, 500.0);
  ASSERT_EQ(spec.experiment.scenario.size(), 2u);
  EXPECT_EQ(spec.experiment.scenario.events[1].event, "flash_crowd");

  api::ExperimentSpec via_set;
  via_set.set("system", "backend");
  via_set.set("scenario",
              "1000 fail_region region=tokyo; 2000 flash_crowd count=5");
  EXPECT_EQ(via_set.experiment.scenario.to_text(),
            spec.experiment.scenario.to_text());

  // to_json round-trips the scenario through the array form.
  const auto reparsed = api::parse_spec_json(spec.to_json());
  ASSERT_EQ(reparsed.size(), 1u);
  EXPECT_EQ(reparsed[0].experiment.scenario.to_text(),
            spec.experiment.scenario.to_text());
  EXPECT_DOUBLE_EQ(reparsed[0].experiment.metric_window_ms, 500.0);
}

// ------------------------------------------------- popularity shifts

TEST(PopularityShifts, RotateMovesTheHotSet) {
  Workload w(WorkloadSpec::zipfian(2.0), 10, 42);
  EXPECT_EQ(w.object_at_rank(0), 0u);
  PopularityShift shift;
  shift.kind = PopularityShift::Kind::kRotate;
  shift.rotate_by = 5;
  w.apply(shift);
  EXPECT_EQ(w.object_at_rank(0), 5u);
  EXPECT_EQ(w.object_at_rank(5), 0u);
  // The hottest key drawn is now object5's.
  std::map<std::string, int> counts;
  for (int i = 0; i < 500; ++i) ++counts[w.next_key()];
  const auto hottest = std::max_element(
      counts.begin(), counts.end(),
      [](const auto& a, const auto& b) { return a.second < b.second; });
  EXPECT_EQ(hottest->first, "object5");
}

TEST(PopularityShifts, FlashCrowdPromotesTheColdTail) {
  Workload w(WorkloadSpec::zipfian(2.0), 10, 42);
  PopularityShift shift;
  shift.kind = PopularityShift::Kind::kFlashCrowd;
  shift.crowd_count = 2;
  w.apply(shift);  // default block: the coldest tail {8, 9}
  EXPECT_EQ(w.object_at_rank(0), 8u);
  EXPECT_EQ(w.object_at_rank(1), 9u);
  EXPECT_EQ(w.object_at_rank(2), 0u);  // everyone else shifted back in order
}

TEST(PopularityShifts, ReseedIsDeterministic) {
  Workload a(WorkloadSpec::zipfian(1.1), 50, 1);
  Workload b(WorkloadSpec::zipfian(1.1), 50, 2);  // different key streams
  PopularityShift shift;
  shift.kind = PopularityShift::Kind::kReseed;
  shift.seed = 99;
  a.apply(shift);
  b.apply(shift);
  bool moved = false;
  for (std::size_t r = 0; r < 50; ++r) {
    EXPECT_EQ(a.object_at_rank(r), b.object_at_rank(r));
    moved |= a.object_at_rank(r) != r;
  }
  EXPECT_TRUE(moved);
}

// ------------------------------------------- engine + network overlays

TEST(ScenarioEngineTest, AppliesNetworkEventsOnTheLoop) {
  const auto topology = sim::aws_six_regions();
  sim::LatencyModelParams params;
  params.jitter_fraction = 0.0;
  sim::Network network(sim::LatencyModel(&topology, params, 7));
  sim::EventLoop loop;
  network.bind_loop(&loop);

  const double nominal = network.model().expected_backend_fetch_ms(
      sim::region::kFrankfurt, sim::region::kTokyo, 1000);

  scenario::ScenarioEngine engine(
      scenario::parse_scenario_text(
          "100 fail_region region=dublin; "
          "200 slow_region region=tokyo factor=3; "
          "300 restore_region region=dublin"),
      &network, {});
  engine.schedule(loop);

  loop.run_until(150.0);
  EXPECT_TRUE(network.is_down(sim::region::kDublin));
  loop.run_until(250.0);
  EXPECT_DOUBLE_EQ(network.model().expected_backend_fetch_ms(
                       sim::region::kFrankfurt, sim::region::kTokyo, 1000),
                   3.0 * nominal);
  loop.run();
  EXPECT_FALSE(network.is_down(sim::region::kDublin));
  EXPECT_EQ(engine.fired(), 3u);
}

TEST(ScenarioEngineTest, PopularityEventWithoutHookFailsAtConstruction) {
  const auto topology = sim::aws_six_regions();
  sim::Network network(sim::LatencyModel(&topology, {}, 7));
  EXPECT_THROW(
      scenario::ScenarioEngine(
          scenario::parse_scenario_text("100 flash_crowd count=3"), &network,
          {}),
      std::invalid_argument);
}

TEST(ScenarioEngineTest, ArrivalModulationStepAndSine) {
  const auto topology = sim::aws_six_regions();
  sim::Network network(sim::LatencyModel(&topology, {}, 7));
  sim::EventLoop loop;
  network.bind_loop(&loop);
  scenario::ScenarioEngine engine(
      scenario::parse_scenario_text(
          "100 arrival_factor factor=2; "
          "200 arrival_sine period_s=1 amplitude=0.5"),
      &network, {});
  engine.schedule(loop);
  EXPECT_DOUBLE_EQ(engine.arrival_multiplier(0.0), 1.0);
  loop.run();
  // Step factor alone at the sine's zero crossing; peak a quarter period
  // after the sine started.
  EXPECT_DOUBLE_EQ(engine.arrival_multiplier(200.0), 2.0);
  EXPECT_NEAR(engine.arrival_multiplier(450.0), 3.0, 1e-9);
  EXPECT_NEAR(engine.arrival_multiplier(950.0), 1.0, 1e-9);
}

// ------------------------------------------------------ runner integration

client::ExperimentConfig small_config() {
  client::ExperimentConfig config;
  config.deployment.num_objects = 20;
  config.deployment.object_size_bytes = 9000;
  config.deployment.seed = 11;
  config.client_regions = {sim::region::kFrankfurt};
  config.ops_per_run = 200;
  config.runs = 1;
  config.arrival_rate_per_s = 50.0;
  config.reconfig_period_ms = 2000.0;
  config.metric_window_ms = 1000.0;
  return config;
}

client::ExperimentResult run_system(const client::ExperimentConfig& config,
                                    const std::vector<std::string>& pairs) {
  api::ExperimentSpec spec;
  spec.experiment = config;
  for (const auto& pair : pairs) spec.set_pair(pair);
  return api::run(spec).result;
}

// Every completion lands in exactly one window, so a run's windows sum to
// the run in every read count and in latency samples.
void expect_windows_sum_to_run(const client::RunResult& run) {
  ASSERT_FALSE(run.windows.empty());
  std::uint64_t ops = 0, full = 0, partial = 0, failed = 0, degraded = 0;
  std::uint64_t samples = 0;
  for (const auto& w : run.windows) {
    ops += w.ops;
    full += w.full_hits;
    partial += w.partial_hits;
    failed += w.failed_reads;
    degraded += w.degraded_reads;
    samples += w.latencies.count();
  }
  EXPECT_EQ(ops, run.ops);
  EXPECT_EQ(full, run.full_hits);
  EXPECT_EQ(partial, run.partial_hits);
  EXPECT_EQ(failed, run.failed_reads);
  EXPECT_EQ(degraded, run.degraded_reads);
  EXPECT_EQ(samples, run.latencies.count());
  EXPECT_EQ(run.latencies.count(), run.ops - run.failed_reads);
}

TEST(ScenarioRunner, OutageProducesCountedFailedReadsNotCrashes) {
  auto config = small_config();
  // Two regions down simultaneously leaves only 8 of 12 chunks — every
  // read in that span must fail (counted), then service recovers.
  config.scenario = scenario::parse_scenario_text(
      "500 fail_region region=tokyo; 1000 fail_region region=sydney; "
      "2000 restore_region region=tokyo; 2000 restore_region region=sydney");
  const auto result = run_system(config, {"system=backend"});
  const auto& run = result.runs[0];
  EXPECT_EQ(run.ops, 200u);
  EXPECT_GT(run.failed_reads, 0u);
  EXPECT_LT(run.failed_reads, 200u);
  EXPECT_EQ(run.scenario_events_fired, 4u);
  // Windowed series: every completion landed in a window; failures
  // cluster in the outage windows, none after recovery.
  expect_windows_sum_to_run(run);
  EXPECT_EQ(run.windows.back().failed_reads, 0u);

  // Two caching lanes under the same outage, long enough for Agar to
  // reconfigure: the windows of both lanes merge into the run's.
  config.client_regions = {sim::region::kFrankfurt, sim::region::kTokyo};
  config.ops_per_run = 600;
  const auto cached = run_system(
      config, {"system=agar", "cache_bytes=64KB", "period_s=1"});
  const auto& crun = cached.runs[0];
  EXPECT_EQ(crun.ops, 600u);
  EXPECT_GT(crun.full_hits, 0u);
  EXPECT_GT(crun.partial_hits, 0u);
  EXPECT_GT(crun.failed_reads, 0u);
  EXPECT_GT(crun.degraded_reads, 0u);
  expect_windows_sum_to_run(crun);
}

TEST(ScenarioRunner, LastWindowEndsWithTheRun) {
  // Two lanes: the last window ends at the later lane's last completion.
  auto config = small_config();
  config.client_regions = {sim::region::kFrankfurt, sim::region::kTokyo};
  const auto result = run_system(config, {"system=backend"});
  const auto& run = result.runs[0];
  ASSERT_GE(run.windows.size(), 2u);
  for (std::size_t w = 0; w + 1 < run.windows.size(); ++w) {
    EXPECT_DOUBLE_EQ(run.windows[w].start_ms, static_cast<double>(w) * 1000.0);
    EXPECT_DOUBLE_EQ(run.windows[w].end_ms, run.windows[w].start_ms + 1000.0);
  }
  const auto& last = run.windows.back();
  EXPECT_DOUBLE_EQ(last.end_ms, run.duration_ms);
  EXPECT_GE(last.end_ms, last.start_ms);
  EXPECT_LT(last.end_ms, last.start_ms + 1000.0);
}

TEST(ScenarioRunner, ScenarioRunsAreDeterministic) {
  auto config = small_config();
  config.scenario = scenario::parse_scenario_text(
      "400 flash_crowd count=5; 800 arrival_factor factor=2; "
      "1200 slow_region region=tokyo factor=2");
  const auto a = run_system(config, {"system=agar", "cache_bytes=64KB"});
  const auto b = run_system(config, {"system=agar", "cache_bytes=64KB"});
  ASSERT_EQ(a.runs.size(), b.runs.size());
  const auto& ra = a.runs[0];
  const auto& rb = b.runs[0];
  EXPECT_EQ(ra.ops, rb.ops);
  EXPECT_EQ(ra.failed_reads, rb.failed_reads);
  EXPECT_EQ(ra.network.wire_fetches, rb.network.wire_fetches);
  ASSERT_EQ(ra.windows.size(), rb.windows.size());
  for (std::size_t w = 0; w < ra.windows.size(); ++w) {
    EXPECT_EQ(ra.windows[w].ops, rb.windows[w].ops);
    EXPECT_DOUBLE_EQ(ra.windows[w].mean_latency_ms(),
                     rb.windows[w].mean_latency_ms());
  }
}

TEST(ScenarioRunner, ArrivalSurgeCompressesTheRun) {
  auto base = small_config();
  base.scenario = Scenario{};
  const auto steady = run_system(base, {"system=backend"});
  auto surged = small_config();
  surged.scenario =
      scenario::parse_scenario_text("500 arrival_factor factor=4");
  const auto surge = run_system(surged, {"system=backend"});
  // Same op budget arrives in less virtual time once the surge kicks in.
  EXPECT_LT(surge.runs[0].duration_ms, steady.runs[0].duration_ms);
}

// The headline acceptance check: under a popularity shift plus an outage,
// Agar's windowed mean latency spikes and then recovers within two
// reconfiguration periods, while the best fixed-c baseline stays on its
// (worse) backend-bound plateau.
TEST(ScenarioRunner, AgarRecoversFromPopularityShiftWithinTwoPeriods) {
  client::ExperimentConfig config;
  config.deployment.num_objects = 40;
  config.deployment.object_size_bytes = 9000;
  config.deployment.seed = 9;
  config.client_regions = {sim::region::kSydney};
  config.ops_per_run = 1600;
  config.runs = 1;
  config.arrival_rate_per_s = 20.0;
  config.reconfig_period_ms = 10'000.0;   // reconfigure every 10 s
  config.metric_window_ms = 10'000.0;     // windows aligned with periods
  // At t=30 s the popularity order rotates by half the universe (the hot
  // set changes completely) and the nearest backend region browns out.
  config.scenario = scenario::parse_scenario_text(
      "30000 popularity_rotate by=20; "
      "30000 slow_region region=tokyo factor=2; "
      "60000 slow_region region=tokyo factor=1");

  const auto agar =
      run_system(config, {"system=agar", "cache_bytes=120KB"});
  const auto fixed =
      run_system(config, {"system=lru", "chunks=5", "cache_bytes=120KB"});

  const auto& aw = agar.runs[0].windows;
  ASSERT_GE(aw.size(), 6u);
  const double pre_shift = aw[2].mean_latency_ms();  // 20-30 s: steady state
  const double at_shift = aw[3].mean_latency_ms();   // 30-40 s: spike
  const double recovered = aw[5].mean_latency_ms();  // 50-60 s: two periods
  // The shift hurts, and two reconfigurations later Agar is back within
  // 25% of its pre-shift mean.
  EXPECT_GT(at_shift, pre_shift * 1.1);
  EXPECT_LT(recovered, pre_shift * 1.25);
  // The fixed-c baseline never reaches Agar's recovered level: its c is
  // pinned, so every read keeps paying the backend-bound plateau.
  const auto& fw = fixed.runs[0].windows;
  ASSERT_GE(fw.size(), 6u);
  EXPECT_GT(fw[5].mean_latency_ms(), recovered * 1.1);
}

}  // namespace
}  // namespace agar
