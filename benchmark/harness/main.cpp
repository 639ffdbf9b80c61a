// agar_bench — measurement harness behind benchmark/run.py.
//
//   agar_bench context
//   agar_bench batch  --set key=value ... --setups K --runs R [--traced]
//   agar_bench daemon --agard PATH --config FILE --socket PATH ...
//
// Each mode prints one JSON object of raw measurements on stdout and exits
// 0, or prints the error on stderr and exits 1.
#include <cstdint>
#include <functional>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>

#include "batch.hpp"
#include "common.hpp"
#include "daemon_load.hpp"
#include "gf/gf256.hpp"
#include "tracing.hpp"

namespace {

std::uint64_t to_u64(const std::string& s) { return std::stoull(s); }
std::size_t to_size(const std::string& s) { return std::stoul(s); }

int run(int argc, char** argv) {
  if (argc < 2) throw std::invalid_argument("usage: agar_bench MODE [flags]");
  const std::string mode = argv[1];
  bench::BatchOptions batch;
  bench::DaemonOptions daemon;
  bool traced = false;

  using Setter = std::function<void(const std::string&)>;
  const std::map<std::string, Setter> flags = {
      {"--set", [&](const std::string& v) { batch.sets.push_back(v); }},
      {"--runs", [&](const std::string& v) { batch.runs = to_size(v); }},
      {"--setups",
       [&](const std::string& v) { batch.setups = daemon.setups = to_size(v); }},
      {"--agard", [&](const std::string& v) { daemon.agard = v; }},
      {"--config", [&](const std::string& v) { daemon.config = v; }},
      {"--socket", [&](const std::string& v) { daemon.socket = v; }},
      {"--log", [&](const std::string& v) { daemon.log = v; }},
      {"--stream-seed",
       [&](const std::string& v) { daemon.stream_seed = to_u64(v); }},
      {"--open-seed", [&](const std::string& v) { daemon.open_seed = to_u64(v); }},
      {"--arrival-seed",
       [&](const std::string& v) { daemon.arrival_seed = to_u64(v); }},
      {"--keys", [&](const std::string& v) { daemon.keys = to_size(v); }},
      {"--zipf", [&](const std::string& v) { daemon.zipf = std::stod(v); }},
      {"--tag", [&](const std::string& v) { daemon.tag = v; }},
      {"--tag-share",
       [&](const std::string& v) { daemon.tag_share = std::stod(v); }},
      {"--connections",
       [&](const std::string& v) { daemon.connections = to_size(v); }},
      {"--warmup-s", [&](const std::string& v) { daemon.warmup_s = std::stod(v); }},
      {"--closed-s", [&](const std::string& v) { daemon.closed_s = std::stod(v); }},
      {"--open-s", [&](const std::string& v) { daemon.open_s = std::stod(v); }},
      {"--rate", [&](const std::string& v) { daemon.rate = std::stod(v); }},
  };
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--traced") {
      traced = true;
      continue;
    }
    const auto it = flags.find(arg);
    if (it == flags.end() || i + 1 >= argc) {
      throw std::invalid_argument("bad flag or missing value: " + arg);
    }
    it->second(argv[++i]);
  }

  if (mode == "context") {
    std::cout << bench::JsonObject()
                     .str("gf_backend", agar::gf::backend_name(
                                            agar::gf::active_backend()))
                     .str("compiler", __VERSION__)
                     .dump()
              << "\n";
    return 0;
  }
  if (mode == "batch") {
    batch.traced = traced;
    if (traced) bench::register_traced_entries();
    return bench::run_batch(batch);
  }
  if (mode == "daemon") {
    if (daemon.connections == 0 || daemon.rate <= 0.0 || daemon.keys == 0) {
      throw std::invalid_argument("daemon: connections, rate, keys must be > 0");
    }
    return bench::run_daemon(daemon);
  }
  throw std::invalid_argument("unknown mode '" + mode + "'");
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "agar_bench: " << e.what() << "\n";
    return 1;
  }
}
