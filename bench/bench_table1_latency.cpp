// Table I: per-region chunk read latency as seen from Frankfurt.
//
// The paper measured these with S3 GETs during a warm-up phase; we print
// what the region manager's probe measures against the simulated WAN, for
// both Frankfurt (the paper's table) and Sydney (used throughout §V).
#include <iostream>

#include "client/report.hpp"
#include "client/runner.hpp"
#include "core/region_manager.hpp"

using namespace agar;

int main() {
  client::print_experiment_banner(
      "Table I", "chunk read latency per backend region",
      "region-manager probes, 20 rounds, ~114 KB chunks, simulated WAN");

  client::DeploymentConfig dep;
  dep.num_objects = 1;
  dep.store_payloads = false;
  client::Deployment deployment(dep);
  const auto& topology = deployment.topology();

  for (const RegionId vantage :
       {sim::region::kFrankfurt, sim::region::kSydney}) {
    core::RegionManagerParams params;
    params.local_region = vantage;
    core::RegionManager rm(&deployment.backend(), &deployment.network(),
                           params);
    for (int i = 0; i < 20; ++i) rm.probe();

    std::vector<std::string> headers, row;
    for (RegionId r = 0; r < topology.num_regions(); ++r) {
      headers.push_back(topology.name(r));
      row.push_back(client::fmt_ms(rm.estimate_ms(r)) + " ms");
    }
    std::cout << "from " << topology.name(vantage) << ":\n"
              << client::format_table(headers, {row}) << "\n";
  }

  std::cout << "paper (from Frankfurt): 80 / 200 / 600 / 1400 / 3400 / 4600 "
               "ms -- same ordering, different absolute scale (PAPER.md, "
               "\"This reproduction\").\n";
  return 0;
}
