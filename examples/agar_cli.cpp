// agar_cli — run experiments against the simulated deployment, driven by
// the declarative api layer.
//
//   $ ./agar_cli --set region=sydney --set cache_bytes=20MB --set ops=2000
//   $ ./agar_cli --set system=arc --set chunks=5    # any registered engine
//   $ ./agar_cli --spec examples/specs/agar_vs_lfu.json --json
//   $ ./agar_cli --spec examples/specs/geo_partition.json --shards 4
//   $ ./agar_cli --list
//
// Systems, their parameters and their labels all come from the api
// registries — registering a new cache engine or strategy makes it
// runnable and listable here with no CLI changes.
#include <iostream>
#include <string>
#include <vector>

#include "api/api.hpp"
#include "client/report.hpp"
#include "scenario/scenario.hpp"

using namespace agar;

namespace {

void usage() {
  std::cout <<
      "agar_cli -- run experiments against the simulated deployment\n"
      "\n"
      "spec-driven interface:\n"
      "  --spec <file.json>  load experiment spec(s); 'systems' arrays and\n"
      "                      'sweep' grids expand into comparisons\n"
      "  --set key=value     set any spec key (repeatable; applies to all\n"
      "                      loaded specs, or to one default spec without\n"
      "                      --spec). Keys: see --list\n"
      "  --shards <n>        simulation worker threads (results identical\n"
      "                      for any value; 1 = serial)\n"
      "  --json              emit results as JSON (bench harnesses)\n"
      "  --list              registered systems, engines, parameters,\n"
      "                      scenario events, regions and spec keys\n";
}

int fail(const std::string& message) {
  std::cerr << "agar_cli: " << message << "\n";
  return 2;
}

// In verify mode every read that did not fail must have decoded and
// matched its payload; names each run where one did not.
bool all_reads_verified(const std::vector<api::RunReport>& reports) {
  bool ok = true;
  for (const auto& report : reports) {
    if (!report.spec.experiment.verify_data) continue;
    for (const auto& run : report.result.runs) {
      if (run.verified == run.ops - run.failed_reads) continue;
      std::cerr << "agar_cli: " << report.label() << ": " << run.verified
                << " reads verified, " << run.ops - run.failed_reads
                << " expected\n";
      ok = false;
    }
  }
  return ok;
}

void print_schema(const api::ParamSchema& schema, const std::string& indent,
                  const std::string& name_prefix = "") {
  for (const auto& p : schema.params) {
    std::cout << indent << name_prefix << p.name << " ("
              << api::to_string(p.type);
    if (!p.default_value.empty()) std::cout << ", default " << p.default_value;
    std::cout << "): " << p.description << "\n";
  }
}

/// Registry-derived listing: whatever is registered is what prints.
void list_everything() {
  std::cout << "systems (run with --set system=<name> or a spec's "
               "\"system\"):\n";
  const auto& strategies = api::StrategyRegistry::instance();
  for (const auto& name : strategies.names()) {
    const auto& entry = strategies.at(name);
    std::cout << "  " << name << " -- " << entry.description << "\n";
    print_schema(entry.schema, "      ");
  }
  std::cout << "\ncache engines (each also runs as a fixed-chunks system "
               "under its own name):\n";
  const auto& engines = api::EngineRegistry::instance();
  for (const auto& name : engines.names()) {
    const auto& entry = engines.at(name);
    std::cout << "  " << name << " -- " << entry.description << "\n";
    print_schema(entry.schema, "      ");
  }
  std::cout << "\nplanners (agar control plane, planner=<name>; sub-params "
               "as planner.<param>=<value>):\n";
  const auto& planners = api::PlannerRegistry::instance();
  for (const auto& name : planners.names()) {
    const auto& entry = planners.at(name);
    std::cout << "  " << name << " -- " << entry.description << "\n";
    print_schema(entry.schema, "      ", "planner.");
  }
  std::cout << "\npopularity estimators (request monitor, monitor=<name>; "
               "sub-params as monitor.<param>=<value>):\n";
  const auto& estimators = api::EstimatorRegistry::instance();
  for (const auto& name : estimators.names()) {
    const auto& entry = estimators.at(name);
    std::cout << "  " << name << " -- " << entry.description << "\n";
    print_schema(entry.schema, "      ", "monitor.");
  }
  std::cout << "\nfetch policies (fault-tolerant reads, fetch=<name>; "
               "sub-params as fetch.<param>=<value>):\n";
  const auto& fetches = api::FetchPolicyRegistry::instance();
  for (const auto& name : fetches.names()) {
    const auto& entry = fetches.at(name);
    std::cout << "  " << name << " -- " << entry.description << "\n";
    print_schema(entry.schema, "      ", "fetch.");
  }
  std::cout << "\ncollab tiers (cooperative caching, collab=<name>; "
               "sub-params as collab.<param>=<value>):\n";
  const auto& collabs = api::CollabRegistry::instance();
  for (const auto& name : collabs.names()) {
    const auto& entry = collabs.at(name);
    std::cout << "  " << name << " -- " << entry.description << "\n";
    print_schema(entry.schema, "      ", "collab.");
  }
  std::cout << "\nexperiment keys (--set key=value or JSON spec members):\n";
  print_schema(api::ExperimentSpec::experiment_keys(), "  ");
  std::cout << "\nscenario events (--set scenario=<script> or a spec's "
               "\"scenario\"):\n";
  for (const auto& kind : scenario::event_kinds()) {
    std::cout << "  " << kind.name << " -- " << kind.description << "\n";
    print_schema(kind.schema, "      ");
  }
  std::cout << "\nregions:";
  const auto topology = sim::aws_six_regions();
  for (RegionId r = 0; r < topology.num_regions(); ++r) {
    std::cout << " " << topology.name(r);
  }
  std::cout << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<api::ExperimentSpec> specs;
  std::vector<std::string> sets;  // applied after --spec, in order
  bool json = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* flag) -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "agar_cli: " << flag << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    try {
      if (arg == "--help" || arg == "-h") {
        usage();
        return 0;
      } else if (arg == "--list") {
        list_everything();
        return 0;
      } else if (arg == "--spec") {
        const auto loaded = api::load_spec_file(next("--spec"));
        specs.insert(specs.end(), loaded.begin(), loaded.end());
      } else if (arg == "--set") {
        sets.push_back(next("--set"));
      } else if (arg == "--shards") {
        sets.push_back("shards=" + next("--shards"));
      } else if (arg == "--json") {
        json = true;
      } else {
        usage();
        return fail("unknown flag " + arg);
      }
    } catch (const std::exception& e) {
      return fail(e.what());
    }
  }

  try {
    if (specs.empty()) specs.emplace_back();
    for (auto& spec : specs) {
      for (const auto& pair : sets) spec.set_pair(pair);
      spec.validate();
    }

    if (!json) {
      const auto topology = sim::aws_six_regions();
      for (const auto& spec : specs) {
        const auto& e = spec.experiment;
        std::cout << "system=" << spec.label() << " regions=";
        const auto regions = e.effective_client_regions();
        for (std::size_t i = 0; i < regions.size(); ++i) {
          if (i > 0) std::cout << ",";
          std::cout << topology.name(regions[i]);
        }
        std::cout << " cache="
                  << spec.params.raw("cache_bytes").value_or("(default)")
                  << " workload=" << e.workload.label() << " objects="
                  << e.deployment.num_objects << " ops=" << e.ops_per_run
                  << " x" << e.runs << " runs";
        if (e.arrival_rate_per_s > 0.0) {
          std::cout << " open-loop@" << e.arrival_rate_per_s << "/s";
        }
        if (!e.scenario.empty()) {
          std::cout << " scenario=" << e.scenario.size() << " events";
        }
        std::cout << "\n";
      }
      std::cout << "\n";
    }

    const auto reports = api::run_all(specs);
    const auto results = api::results_of(reports);
    if (json) {
      std::cout << client::results_json(results);
    } else {
      client::print_results_table(results);
      for (const auto& report : reports) {
        if (!report.spec.experiment.verify_data) continue;
        std::uint64_t verified = 0;
        for (const auto& run : report.result.runs) verified += run.verified;
        std::cout << report.label() << " verified reads: " << verified << "/"
                  << report.result.total_ops() << "\n";
      }
    }
    return all_reads_verified(reports) ? 0 : 1;
  } catch (const std::exception& e) {
    return fail(e.what());
  }
}
