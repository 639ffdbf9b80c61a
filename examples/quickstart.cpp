// Quickstart: stand up the paper's six-region erasure-coded store, read an
// object three ways (backend, LRU cache, Agar), and print what happened.
//
//   $ ./quickstart
//
// Walks the declarative api end to end with real payload verification:
// every client system is created from the string-keyed registry, exactly
// like `agar_cli --set system=<name>` would.
#include <iostream>

#include "api/api.hpp"
#include "client/agar_strategy.hpp"

using namespace agar;

int main() {
  std::cout << "Agar quickstart: RS(9,3) over six regions, client in "
               "Frankfurt\n\n";

  // 1. One spec describes the deployment every system below shares: 20
  //    objects of 90 KB, RS(9, 3), chunks spread round-robin over the six
  //    AWS-like regions, real bytes moved and decoded on every read.
  const auto base = api::ExperimentSpec::from_pairs(
      {"objects=20", "object_bytes=90KB", "seed=1", "verify=true",
       "region=frankfurt"});
  client::Deployment deployment(base.experiment.deployment);
  const RegionId region = base.experiment.client_region;

  // Every system runs on the simulator's event loop: reads, cache
  // population downloads and Agar's reconfigurations are events on it.
  sim::EventLoop loop;
  deployment.network().bind_loop(&loop);
  auto make_system = [&](const std::vector<std::string>& pairs) {
    const auto spec = base.with(pairs);
    return api::make_strategy_factory(spec)(spec.experiment, deployment,
                                            region, &loop);
  };

  // 2. Read straight from the backend: latency is dominated by the most
  //    distant of the k = 9 chunks the client must fetch.
  const auto backend = make_system({"system=backend"});
  const auto cold = backend->read("object0");
  std::cout << "backend read        : " << cold.latency_ms << " ms (decoded "
            << (cold.verified ? "OK" : "FAIL") << ")\n";

  // 3. An LRU cache holding full replicas: second read is a local hit.
  //    ("lru" is a registered cache engine run through the fixed-chunks
  //    adapter — swap the name for "arc" or "tinylfu" and nothing else
  //    changes.)
  const auto lru = make_system({"system=lru", "chunks=9", "cache_bytes=10MB"});
  (void)lru->read("object0");
  const auto lru_hit = lru->read("object0");
  std::cout << "LRU-9 second read   : " << lru_hit.latency_ms
            << " ms (full hit: " << (lru_hit.full_hit ? "yes" : "no")
            << ")\n";

  // 4. Agar: accesses train the request monitor; a reconfiguration installs
  //    the knapsack-optimal mix of chunks and downloads them into the
  //    cache; later reads hit the cache.
  const auto strategy = make_system({"system=agar", "cache_bytes=10MB"});
  auto* agar_strategy = dynamic_cast<client::AgarStrategy*>(strategy.get());
  strategy->warm_up();

  for (int i = 0; i < 30; ++i) (void)strategy->read("object0");
  agar_strategy->start_reconfiguration();  // probe round, plan, population
  loop.run();
  const auto agar_hit = strategy->read("object0");
  std::cout << "Agar after reconfig : " << agar_hit.latency_ms
            << " ms (chunks from cache: " << agar_hit.cache_chunks
            << "/9, decoded " << (agar_hit.verified ? "OK" : "FAIL")
            << ")\n\n";

  // 5. Peek at the configuration the knapsack solver chose.
  const auto& config = agar_strategy->cache_manager().current();
  std::cout << "installed configuration: " << config.entries.size()
            << " object(s), " << config.chunks.size() << " chunks, "
            << format_bytes(config.total_bytes) << "\n";
  for (const auto& opt : config.entries) {
    std::cout << "  " << deployment.backend().key_of(opt.object) << ": "
              << opt.weight << " chunk(s)\n";
  }
  return 0;
}
