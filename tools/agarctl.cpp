// agarctl — control CLI and load generator for a running agard.
//
//   $ ./agarctl --socket /tmp/agard.sock ping
//   $ ./agarctl --socket /tmp/agard.sock get --tag hot object17
//   $ ./agarctl --socket /tmp/agard.sock load --ops 2000 --clients 4 --json
//   $ ./agarctl --socket /tmp/agard.sock load --replay-spec eq_spec.json
//   $ ./agarctl --socket /tmp/agard.sock metrics --results-only
//
// The load is closed-loop: each client sends its next read when the
// previous completes — the paper's YCSB shape. --replay-spec replays the
// exact key stream of a runs=1 clients=1 experiment spec, which is what
// lets CI diff the daemon's metrics dump against an in-process run of the
// same spec.
#include <atomic>
#include <chrono>
#include <iostream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "api/experiment_spec.hpp"
#include "api/param_map.hpp"
#include "client/workload.hpp"
#include "daemon/client.hpp"
#include "stats/histogram.hpp"

using namespace agar;

namespace {

void usage() {
  std::cout <<
      "agarctl -- control CLI and load generator for agard\n"
      "\n"
      "connection (before the command):\n"
      "  --socket <path>       Unix-domain socket (default /tmp/agard.sock)\n"
      "\n"
      "commands:\n"
      "  ping                  liveness probe\n"
      "  get [--tag T] [--payload] <key>   one routed read\n"
      "  load [options]        closed-loop load generator (below)\n"
      "  metrics [--results-only]          JSON metrics dump\n"
      "  reload [path]         reload routing config (empty = start path)\n"
      "  routes                routing-table summary\n"
      "  spec-of <route>       the route's ExperimentSpec JSON\n"
      "  drain                 run each route to its next window boundary\n"
      "  repair [route]        scan-and-repair backend stripes\n"
      "  shutdown              graceful stop\n"
      "\n"
      "load options:\n"
      "  --ops <n>             total requests (default 1000)\n"
      "  --clients <n>         concurrent connections (default 1)\n"
      "  --tag <t>             routing tag on every request\n"
      "  --objects <n>         key universe object0..N-1 (default 300)\n"
      "  --workload <w>        'uniform', 'zipf:<skew>' or a plain skew\n"
      "                        (default zipf:1.1)\n"
      "  --seed <n>            RNG seed (default 42)\n"
      "  --replay-spec <file>  replay the exact key stream of a runs=1\n"
      "                        clients=1 spec (forces 1 client)\n"
      "  --payload             fetch payload bytes, not just telemetry\n"
      "  --json                machine-readable summary\n";
}

/// A count flag's value, parsed as the spec layer parses sizes. A bad
/// value ("-1", "12x", "abc") is an error that names the flag.
std::size_t count_value(const std::string& flag, const std::string& text) {
  try {
    return api::parse_size(text);
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument(flag + ": " + e.what());
  }
}

int fail(const std::string& message) {
  std::cerr << "agarctl: " << message << "\n";
  return 2;
}

/// Print a control reply; nonzero exit on a non-ok status.
int finish(const daemon::ControlReply& reply) {
  if (!reply.text.empty()) {
    std::cout << reply.text;
    if (reply.text.back() != '\n') std::cout << "\n";
  }
  if (reply.status != daemon::Status::kOk) {
    std::cerr << "agarctl: " << daemon::to_string(reply.status) << "\n";
    return 1;
  }
  return 0;
}

struct LoadOptions {
  std::size_t ops = 1000;
  std::size_t clients = 1;
  std::string tag;
  std::size_t objects = 300;
  client::WorkloadSpec workload = client::WorkloadSpec::zipfian(1.1);
  std::uint64_t seed = 42;
  bool payload = false;
  bool json = false;
};

struct LoadTotals {
  std::mutex mutex;
  stats::Histogram wall_ms;
  stats::Histogram virtual_ms;
  std::uint64_t ok = 0;
  std::uint64_t failed_reads = 0;
  std::uint64_t no_route = 0;
  std::uint64_t unknown_key = 0;
  std::uint64_t full_hits = 0;
  std::uint64_t partial_hits = 0;
};

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void account(LoadTotals& totals, const daemon::GetResponse& response,
             double wall_elapsed_ms) {
  const std::lock_guard<std::mutex> lock(totals.mutex);
  totals.wall_ms.add(wall_elapsed_ms);
  switch (response.status) {
    case daemon::Status::kOk:
      ++totals.ok;
      totals.virtual_ms.add(response.virtual_ms);
      if (response.hit == daemon::HitKind::kFull) ++totals.full_hits;
      if (response.hit == daemon::HitKind::kPartial) ++totals.partial_hits;
      break;
    case daemon::Status::kFailedRead:
      ++totals.failed_reads;
      break;
    case daemon::Status::kNoRoute:
      ++totals.no_route;
      break;
    case daemon::Status::kUnknownKey:
      ++totals.unknown_key;
      break;
    default:
      break;
  }
}

void print_summary(const LoadOptions& options, LoadTotals& totals,
                   double wall_s) {
  const std::uint64_t total = totals.ok + totals.failed_reads +
                              totals.no_route + totals.unknown_key;
  const double rps = wall_s > 0.0 ? static_cast<double>(total) / wall_s : 0.0;
  if (options.json) {
    std::cout << "{\"ops\": " << total << ", \"ok\": " << totals.ok
              << ", \"failed_reads\": " << totals.failed_reads
              << ", \"no_route\": " << totals.no_route
              << ", \"unknown_key\": " << totals.unknown_key
              << ", \"full_hits\": " << totals.full_hits
              << ", \"partial_hits\": " << totals.partial_hits
              << ", \"wall_s\": " << wall_s << ", \"requests_per_s\": " << rps
              << ", \"wall_ms\": {\"mean\": " << totals.wall_ms.mean()
              << ", \"p50\": " << totals.wall_ms.percentile(50)
              << ", \"p99\": " << totals.wall_ms.percentile(99)
              << "}, \"virtual_ms\": {\"mean\": " << totals.virtual_ms.mean()
              << ", \"p50\": " << totals.virtual_ms.percentile(50)
              << ", \"p99\": " << totals.virtual_ms.percentile(99) << "}}\n";
    return;
  }
  std::cout << total << " requests in " << wall_s << " s (" << rps
            << " req/s)\n"
            << "  ok " << totals.ok << ", failed " << totals.failed_reads
            << ", no-route " << totals.no_route << ", unknown-key "
            << totals.unknown_key << "\n"
            << "  wall    p50 " << totals.wall_ms.percentile(50) << " ms, p99 "
            << totals.wall_ms.percentile(99) << " ms\n"
            << "  virtual p50 " << totals.virtual_ms.percentile(50)
            << " ms, p99 " << totals.virtual_ms.percentile(99) << " ms\n"
            << "  hits full " << totals.full_hits << ", partial "
            << totals.partial_hits << "\n";
}

int run_closed_loop(const std::string& socket_path,
                    const LoadOptions& options) {
  LoadTotals totals;
  std::atomic<bool> aborted{false};
  std::string first_error;
  std::mutex error_mutex;

  const double t0 = now_s();
  std::vector<std::thread> workers;
  workers.reserve(options.clients);
  for (std::size_t c = 0; c < options.clients; ++c) {
    // Lane split mirrors the runner: client 0 absorbs the remainder.
    const std::size_t budget = options.ops / options.clients +
                               (c == 0 ? options.ops % options.clients : 0);
    workers.emplace_back([&, c, budget] {
      try {
        daemon::DaemonClient connection =
            daemon::DaemonClient::connect_uds(socket_path);
        // Per-client key stream, seeded exactly as the runner seeds its
        // closed-loop clients — one client replays a clients=1 run.
        client::Workload workload(
            options.workload, options.objects,
            client::workload_stream_seed(options.seed, 0, c));
        for (std::size_t i = 0; i < budget && !aborted.load(); ++i) {
          const std::string key = workload.next_key();
          const double start = now_s();
          const daemon::GetResponse response =
              connection.get(options.tag, key, options.payload);
          account(totals, response, (now_s() - start) * 1000.0);
        }
      } catch (const std::exception& e) {
        aborted.store(true);
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (first_error.empty()) first_error = e.what();
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  const double wall_s = now_s() - t0;
  if (aborted.load()) return fail("load aborted: " + first_error);
  print_summary(options, totals, wall_s);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string socket_path = "/tmp/agard.sock";
  auto connect = [&socket_path] {
    return daemon::DaemonClient::connect_uds(socket_path);
  };
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) args.emplace_back(argv[i]);

  std::size_t at = 0;
  auto next_value = [&](const std::string& flag) -> std::string {
    if (at >= args.size()) {
      std::cerr << "agarctl: " << flag << " needs a value\n";
      std::exit(2);
    }
    return args[at++];
  };

  try {
    // Connection flags precede the command.
    while (at < args.size() && args[at].rfind("--", 0) == 0) {
      const std::string arg = args[at++];
      if (arg == "--help" || arg == "-h") {
        usage();
        return 0;
      } else if (arg == "--socket") {
        socket_path = next_value(arg);
      } else {
        usage();
        return fail("unknown flag " + arg + " before the command");
      }
    }
    if (at >= args.size()) {
      usage();
      return fail("missing command");
    }
    const std::string command = args[at++];

    if (command == "ping") {
      return finish(connect().ping());
    } else if (command == "metrics") {
      bool results_only = false;
      while (at < args.size()) {
        if (args[at] == "--results-only") {
          results_only = true;
          ++at;
        } else {
          return fail("unknown metrics flag " + args[at]);
        }
      }
      return finish(connect().metrics(results_only));
    } else if (command == "reload") {
      const std::string path = at < args.size() ? args[at++] : "";
      return finish(connect().reload(path));
    } else if (command == "routes") {
      return finish(connect().routes());
    } else if (command == "spec-of") {
      if (at >= args.size()) return fail("spec-of needs a route name");
      return finish(connect().spec_of(args[at]));
    } else if (command == "drain") {
      return finish(connect().drain());
    } else if (command == "repair") {
      const std::string route = at < args.size() ? args[at++] : "";
      return finish(connect().repair(route));
    } else if (command == "shutdown") {
      return finish(connect().shutdown());
    } else if (command == "get") {
      std::string tag;
      bool payload = false;
      std::string key;
      while (at < args.size()) {
        const std::string arg = args[at++];
        if (arg == "--tag") {
          tag = next_value(arg);
        } else if (arg == "--payload") {
          payload = true;
        } else if (key.empty()) {
          key = arg;
        } else {
          return fail("get takes one key");
        }
      }
      if (key.empty()) return fail("get needs a key");
      daemon::DaemonClient connection = connect();
      const daemon::GetResponse response = connection.get(tag, key, payload);
      std::cout << "status=" << daemon::to_string(response.status)
                << " hit="
                << (response.hit == daemon::HitKind::kFull
                        ? "full"
                        : (response.hit == daemon::HitKind::kPartial
                               ? "partial"
                               : "miss"))
                << " degraded=" << (response.degraded ? "true" : "false")
                << " route=" << response.route
                << " virtual_ms=" << response.virtual_ms
                << " wall_us=" << response.wall_us
                << " payload_bytes=" << response.payload.size() << "\n";
      return response.status == daemon::Status::kOk ? 0 : 1;
    } else if (command == "load") {
      LoadOptions options;
      std::string replay_spec;
      while (at < args.size()) {
        const std::string arg = args[at++];
        if (arg == "--ops") {
          options.ops = count_value(arg, next_value(arg));
        } else if (arg == "--clients") {
          options.clients =
              std::max<std::size_t>(1, count_value(arg, next_value(arg)));
        } else if (arg == "--tag") {
          options.tag = next_value(arg);
        } else if (arg == "--objects") {
          options.objects = count_value(arg, next_value(arg));
        } else if (arg == "--workload") {
          api::ExperimentSpec spec;
          spec.set("workload", next_value(arg));
          options.workload = spec.experiment.workload;
        } else if (arg == "--seed") {
          options.seed = count_value(arg, next_value(arg));
        } else if (arg == "--replay-spec") {
          replay_spec = next_value(arg);
        } else if (arg == "--payload") {
          options.payload = true;
        } else if (arg == "--json") {
          options.json = true;
        } else {
          return fail("unknown load flag " + arg);
        }
      }
      if (!replay_spec.empty()) {
        // Exact replay of a batch run's key stream: the spec must be a
        // single runs=1 clients=1 closed-loop experiment, and the workload
        // shape comes from the spec, not the CLI flags.
        const auto specs = api::load_spec_file(replay_spec);
        if (specs.size() != 1) {
          return fail("--replay-spec needs exactly one spec (got " +
                      std::to_string(specs.size()) + ")");
        }
        const api::ExperimentSpec& spec = specs.front();
        const auto& experiment = spec.experiment;
        if (experiment.runs != 1 || experiment.num_clients != 1 ||
            experiment.arrival_rate_per_s > 0.0) {
          return fail("--replay-spec needs runs=1 clients=1 closed loop");
        }
        options.ops = experiment.ops_per_run;
        options.clients = 1;
        options.objects = experiment.deployment.num_objects;
        options.workload = experiment.workload;
        options.seed = experiment.deployment.seed;
      }
      return run_closed_loop(socket_path, options);
    }
    usage();
    return fail("unknown command " + command);
  } catch (const std::exception& e) {
    return fail(e.what());
  }
}
