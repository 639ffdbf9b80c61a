// §VI microbenchmarks: the paper reports ~0.5 ms request-monitor handling,
// ~5 ms for the reconfiguration algorithm, and O(C^2) growth in the cache
// size. Measure our implementations directly.
//
// Planner and popularity-estimator benchmarks are registered dynamically
// from api::PlannerRegistry / api::EstimatorRegistry — per-reconfiguration
// planning time for a newly registered planner shows up with no edits.
#include <benchmark/benchmark.h>

#include <cmath>
#include <memory>

#include "api/registry.hpp"
#include "client/agar_strategy.hpp"
#include "client/workload.hpp"
#include "core/knapsack.hpp"
#include "core/option_generator.hpp"
#include "core/planner.hpp"
#include "core/popularity_estimator.hpp"

namespace {

using namespace agar;

// --- request monitor path (every registered estimator) ----------------------

void bm_monitor_record(benchmark::State& state, const std::string& estimator) {
  const auto monitor = api::EstimatorRegistry::instance().create(
      estimator, api::EstimatorContext{}, {});
  std::vector<ObjectKey> keys;
  for (int i = 0; i < 300; ++i) keys.push_back("object" + std::to_string(i));
  std::size_t i = 0;
  for (auto _ : state) {
    monitor->record(keys[i % keys.size()]);
    benchmark::ClobberMemory();
    ++i;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

// --- option generation ------------------------------------------------------

void BM_OptionGeneration(benchmark::State& state) {
  core::OptionGeneratorParams p;
  p.k = 9;
  p.m = 3;
  p.candidate_weights = {1, 3, 5, 7, 9};
  const core::OptionGenerator gen(p);
  std::vector<core::ChunkCost> costs;
  const std::vector<double> latency = {80, 200, 600, 1000, 1100, 1200};
  for (ChunkIndex i = 0; i < 12; ++i) {
    costs.push_back({i, i % 6, latency[i % 6]});
  }
  for (auto _ : state) {
    auto options = gen.generate(costs, 42.0);
    benchmark::DoNotOptimize(options.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_OptionGeneration);

// --- the knapsack DP: O(C^2)-style growth in the cache size -----------------

std::vector<std::vector<core::CachingOption>> make_groups(std::size_t keys) {
  const std::vector<double> improvement = {2000, 2800, 3200, 3320, 3345};
  const std::vector<std::size_t> weights = {1, 3, 5, 7, 9};
  std::vector<std::vector<core::CachingOption>> groups;
  for (std::size_t key = 0; key < keys; ++key) {
    const double popularity =
        100.0 / std::pow(static_cast<double>(key + 1), 1.1);
    std::vector<core::CachingOption> group;
    for (std::size_t i = 0; i < weights.size(); ++i) {
      core::CachingOption o;
      o.object = static_cast<ObjectId>(key);
      o.weight = weights[i];
      o.weight_units = weights[i];
      o.value = popularity * improvement[i];
      group.push_back(std::move(o));
    }
    groups.push_back(std::move(group));
  }
  return groups;
}

// One cold plan per iteration: this IS the per-reconfiguration planning
// time the control plane charges (capacity in chunks: 45 = 5 MB, 90 =
// 10 MB, ... 900 = 100 MB).
void bm_planner_cold(benchmark::State& state, const std::string& planner_name) {
  const auto capacity = static_cast<std::size_t>(state.range(0));
  const auto groups = make_groups(300);
  for (auto _ : state) {
    // Fresh planner per plan: stateful planners must not warm-start here.
    auto planner = api::PlannerRegistry::instance().create(
        planner_name, api::PlannerContext{}, api::ParamMap{});
    auto result = planner->plan(groups, capacity);
    benchmark::DoNotOptimize(result.total_value);
  }
}

// Steady state of the incremental planner: warm re-plans under a small
// per-iteration popularity drift (the EWMA's behavior between shifts).
void bm_planner_warm_replan(benchmark::State& state,
                            const std::string& planner_name) {
  const auto capacity = static_cast<std::size_t>(state.range(0));
  auto groups = make_groups(300);
  auto planner = api::PlannerRegistry::instance().create(
      planner_name, api::PlannerContext{}, api::ParamMap{});
  benchmark::DoNotOptimize(planner->plan(groups, capacity).total_value);
  for (auto _ : state) {
    state.PauseTiming();
    for (auto& group : groups) {
      for (auto& o : group) o.value *= 1.001;
    }
    state.ResumeTiming();
    auto result = planner->plan(groups, capacity);
    benchmark::DoNotOptimize(result.total_value);
  }
}

// --- a full reconfiguration (probe round + roll + solve + install +
// population downloads), through the pipeline the periodic timer runs -----

class ReconfigFixture : public benchmark::Fixture {
 public:
  void SetUp(const benchmark::State&) override {
    topology_ = std::make_unique<sim::Topology>(sim::aws_six_regions());
    network_ = std::make_unique<sim::Network>(
        sim::LatencyModel(topology_.get(), {}, 5));
    backend_ = std::make_unique<store::BackendCluster>(
        6, ec::CodecParams{9, 3}, ec::RoundRobinPlacement(false));
    for (int i = 0; i < 300; ++i) {
      backend_->register_object("object" + std::to_string(i), 1_MB);
    }
    loop_ = std::make_unique<sim::EventLoop>();
    network_->bind_loop(loop_.get());
    client::ClientContext ctx;
    ctx.backend = backend_.get();
    ctx.network = network_.get();
    ctx.loop = loop_.get();
    ctx.region = sim::region::kFrankfurt;
    client::AgarParams p;
    p.cache_capacity_bytes = 10_MB;
    p.cache_manager.candidate_weights = {1, 3, 5, 7, 9};
    agar_ = std::make_unique<client::AgarStrategy>(ctx, p);
    agar_->warm_up();
  }

  void TearDown(const benchmark::State&) override {
    agar_.reset();
    backend_.reset();
    network_.reset();
    loop_.reset();
    topology_.reset();
  }

  std::unique_ptr<sim::Topology> topology_;
  std::unique_ptr<sim::Network> network_;
  std::unique_ptr<store::BackendCluster> backend_;
  std::unique_ptr<sim::EventLoop> loop_;
  std::unique_ptr<client::AgarStrategy> agar_;
};

// One whole CacheManager::reconfigure at the paper configuration: roll and
// snapshot the monitor, generate the options, plan, install (the traced
// benchmark's `core.plan_s` times only the planner). Between plans
// (untimed) the monitor sees a period's worth of Zipf 1.1 reads, 120 as
// in the `paper` workload (100,000 reads over 824 periods), so it tracks
// about the 144 keys that workload's plans cover.
BENCHMARK_F(ReconfigFixture, BM_Reconfigure)(benchmark::State& state) {
  client::Workload workload(client::WorkloadSpec::zipfian(1.1), 300, 42);
  std::vector<ObjectKey> keys;
  for (int i = 0; i < 300; ++i) keys.push_back("object" + std::to_string(i));
  auto& monitor = agar_->popularity_estimator();
  auto& manager = agar_->cache_manager();
  const auto read_one_period = [&] {
    for (int i = 0; i < 120; ++i) monitor.record(keys[workload.next_object()]);
  };
  for (int period = 0; period < 10; ++period) {
    read_one_period();
    (void)manager.reconfigure();
  }
  for (auto _ : state) {
    state.PauseTiming();
    read_one_period();
    state.ResumeTiming();
    benchmark::DoNotOptimize(manager.reconfigure().total_value);
  }
  state.counters["tracked_keys"] =
      static_cast<double>(monitor.tracked_keys());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

BENCHMARK_F(ReconfigFixture, FullReconfiguration)(benchmark::State& state) {
  for (auto _ : state) {
    // Keep the estimator warm so the solver sees a realistic key set.
    for (int i = 0; i < 300; ++i) {
      agar_->popularity_estimator().record("object" + std::to_string(i % 50));
    }
    agar_->start_reconfiguration();
    loop_->run();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

}  // namespace

int main(int argc, char** argv) {
  // Registry-driven registration: every estimator's record path and every
  // planner's per-reconfiguration planning time, no per-entry bench code.
  for (const auto& name : api::EstimatorRegistry::instance().names()) {
    benchmark::RegisterBenchmark(("BM_MonitorRecord/" + name).c_str(),
                                 [name](benchmark::State& state) {
                                   bm_monitor_record(state, name);
                                 });
  }
  for (const auto& name : api::PlannerRegistry::instance().names()) {
    if (name == "brute-force") continue;  // exponential, test-sized only
    auto* bench = benchmark::RegisterBenchmark(
        ("BM_PlannerCold/" + name).c_str(),
        [name](benchmark::State& state) { bm_planner_cold(state, name); });
    for (const int cap : {45, 90, 180, 450, 900}) bench->Arg(cap);
  }
  for (const auto& name : {std::string("knapsack-dp"),
                           std::string("incremental")}) {
    auto* bench = benchmark::RegisterBenchmark(
        ("BM_PlannerWarmReplan/" + name).c_str(),
        [name](benchmark::State& state) {
          bm_planner_warm_replan(state, name);
        });
    bench->Arg(900);
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
