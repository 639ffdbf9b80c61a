// agar_cli — run experiments against the simulated deployment, driven by
// the declarative api layer.
//
//   $ ./agar_cli --system agar --region sydney --cache-mb 20 --ops 2000
//   $ ./agar_cli --system arc --chunks 5            # any registered engine
//   $ ./agar_cli --spec examples/specs/agar_vs_lfu.json --json
//   $ ./agar_cli --set workload=zipf:1.4 --set cache_bytes=20MB
//   $ ./agar_cli --list
//
// Systems, their parameters and their labels all come from the api
// registries — registering a new cache engine or strategy makes it
// runnable and listable here with no CLI changes.
#include <iostream>
#include <set>
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
      "                      loaded specs). Keys: see --list\n"
      "  --scenario <file>   scripted mid-run events (outages, popularity\n"
      "                      shifts, rate surges) applied to all specs;\n"
      "                      JSON array of {at_ms, event, ...} objects\n"
      "  --window-ms <n>     windowed time-series metrics of this width\n"
      "  --shards <n>        simulation worker threads (results identical\n"
      "                      for any value; 1 = serial)\n"
      "  --json              emit results as JSON (bench harnesses)\n"
      "  --list              registered systems, engines, parameters,\n"
      "                      scenario events, regions and spec keys\n"
      "\n"
      "shorthand flags (sugar over --set):\n"
      "  --system <name>     system under test (default: agar)\n"
      "  --chunks <1..9>     chunks per object for fixed-chunks systems\n"
      "  --cache-mb <n>      cache capacity in MB\n"
      "  --region <name>     client region\n"
      "  --client-regions <a,b,..>  client populations in several regions\n"
      "  --arrival-rate <r>  open-loop Poisson arrivals (reads/s/region)\n"
      "  --workload <w>      'uniform' or a zipf skew like '1.1'\n"
      "  --objects <n>       working-set size\n"
      "  --object-kb <n>     object size in KB\n"
      "  --ops <n>           reads per run\n"
      "  --runs <n>          independent runs\n"
      "  --period-s <n>      reconfiguration period in seconds\n"
      "  --seed <n>          RNG seed\n"
      "  --max-outstanding <n>  per-region concurrent-fetch cap (0 = off)\n"
      "  --verify            move real bytes and RS-decode every read\n";
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
  std::cout << "systems (run with --system <name> or system=<name>):\n";
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
  std::cout << "\nscenario events (--scenario file or scenario= script):\n";
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
  std::string scenario_file;      // --scenario, applied to all specs
  // Keys set via shorthand flags (--chunks, --cache-mb). Like the old CLI,
  // these are dropped silently for systems that do not declare them
  // (backend takes neither, agar no chunks); --set key=value stays strict.
  std::set<std::string> soft_keys;
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
      } else if (arg == "--scenario") {
        scenario_file = next("--scenario");
      } else if (arg == "--window-ms") {
        sets.push_back("window_ms=" + next("--window-ms"));
      } else if (arg == "--shards") {
        sets.push_back("shards=" + next("--shards"));
      } else if (arg == "--json") {
        json = true;
      } else if (arg == "--verify") {
        sets.push_back("verify=true");
      } else if (arg == "--system") {
        sets.push_back("system=" + next("--system"));
      } else if (arg == "--chunks") {
        sets.push_back("chunks=" + next("--chunks"));
        soft_keys.insert("chunks");
      } else if (arg == "--cache-mb") {
        sets.push_back("cache_bytes=" + next("--cache-mb") + "MB");
        soft_keys.insert("cache_bytes");
      } else if (arg == "--region") {
        sets.push_back("region=" + next("--region"));
      } else if (arg == "--client-regions") {
        sets.push_back("regions=" + next("--client-regions"));
      } else if (arg == "--arrival-rate") {
        sets.push_back("arrival_rate=" + next("--arrival-rate"));
      } else if (arg == "--workload") {
        sets.push_back("workload=" + next("--workload"));
      } else if (arg == "--objects") {
        sets.push_back("objects=" + next("--objects"));
      } else if (arg == "--object-kb") {
        sets.push_back("object_bytes=" + next("--object-kb") + "KB");
      } else if (arg == "--ops") {
        sets.push_back("ops=" + next("--ops"));
      } else if (arg == "--runs") {
        sets.push_back("runs=" + next("--runs"));
      } else if (arg == "--period-s") {
        sets.push_back("period_s=" + next("--period-s"));
      } else if (arg == "--seed") {
        sets.push_back("seed=" + next("--seed"));
      } else if (arg == "--max-outstanding") {
        sets.push_back("max_outstanding=" + next("--max-outstanding"));
      } else {
        usage();
        return fail("unknown flag " + arg);
      }
    } catch (const std::exception& e) {
      return fail(e.what());
    }
  }

  try {
    const bool from_file = !specs.empty();
    if (specs.empty()) specs.emplace_back();
    scenario::Scenario scripted;
    if (!scenario_file.empty()) {
      scripted = scenario::load_scenario_file(scenario_file);
    }
    for (auto& spec : specs) {
      for (const auto& pair : sets) spec.set_pair(pair);
      if (!scripted.empty()) spec.experiment.scenario = scripted;
      const auto [name, effective] =
          api::resolve_system(spec.system, spec.params);
      const auto& schema = api::StrategyRegistry::instance().at(name).schema;
      for (const auto& key : soft_keys) {
        if (!schema.has(key)) spec.params.erase(key);
      }
      if (!from_file) {
        // Historical CLI defaults, applied only where the chosen system
        // declares the parameter (backend takes neither; agar only the
        // cache size). Spec files use the registered schema defaults.
        if (schema.has("chunks") && !spec.params.has("chunks")) {
          spec.set("chunks", "5");
        }
        if (schema.has("cache_bytes") && !spec.params.has("cache_bytes")) {
          spec.set("cache_bytes", "10MB");
        }
      }
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
                  << spec.params.get_string("cache_bytes", "(default)")
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
