// Adaptation demo: the access pattern shifts mid-run; Agar's EWMA-driven
// reconfiguration follows it, a static LRU-9 cache follows by eviction,
// and the cache contents show the knapsack re-balancing.
//
//   $ ./adaptive_workload
#include <iostream>

#include "api/api.hpp"
#include "client/agar_strategy.hpp"

using namespace agar;

namespace {

void print_config(const core::CacheConfiguration& config,
                  const std::string& when) {
  std::cout << "  [" << when << "] cached objects:";
  if (config.entries.empty()) std::cout << " (none)";
  for (const auto& [key, opt] : config.entries) {
    std::cout << " " << key << "(w=" << opt.weight << ")";
  }
  std::cout << "\n";
}

}  // namespace

int main() {
  std::cout << "Agar adapting to a popularity shift (client: Sydney)\n\n";

  // Latency-only demo: a small working set, cache with room for ~2 full
  // replicas. Declared through the same spec the CLI would build.
  const auto spec = api::ExperimentSpec::from_pairs(
      {"system=agar", "objects=30", "object_bytes=128KB", "seed=3",
       "region=sydney",
       "cache_bytes=" + std::to_string(3 * 128_KB)});
  client::DeploymentConfig dep = spec.experiment.deployment;
  dep.store_payloads = false;
  client::Deployment deployment(dep);
  sim::EventLoop loop;
  deployment.network().bind_loop(&loop);

  const auto strategy = api::make_strategy_factory(spec)(
      spec.experiment, deployment, spec.experiment.client_region, &loop);
  auto& agar = *dynamic_cast<client::AgarStrategy*>(strategy.get());
  agar.warm_up();

  auto run_phase = [&](const std::string& name,
                       const std::vector<std::string>& hot_keys,
                       int rounds) {
    stats::Histogram latencies;
    for (int r = 0; r < rounds; ++r) {
      for (const auto& key : hot_keys) {
        latencies.add(agar.read(key).latency_ms);
      }
      // One reconfiguration every ten rounds of traffic: in the real
      // system the 30 s timer starts it; here we start the same pipeline
      // explicitly and run it to completion.
      if (r % 10 == 9) {
        agar.start_reconfiguration();
        loop.run();
      }
    }
    std::cout << name << ": mean " << latencies.mean() << " ms over "
              << latencies.count() << " reads\n";
    print_config(agar.cache_manager().current(), name);
  };

  run_phase("phase 1 (hot: object0, object1)", {"object0", "object1"}, 40);
  run_phase("phase 2 (hot: object20, object21)", {"object20", "object21"},
            40);

  std::cout << "\nAfter the shift the old darlings decayed out of the "
               "configuration and the new hot objects took their space.\n";
  return 0;
}
