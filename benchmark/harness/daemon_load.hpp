#pragma once

#include <cstdint>
#include <string>

namespace bench {

struct DaemonOptions {
  std::string agard;          ///< agard binary
  std::string config;         ///< routing config agard serves
  std::string socket;         ///< UDS path agard listens on
  std::string log;            ///< agard stdout/stderr
  std::uint64_t stream_seed = 1;   ///< closed-loop key stream
  std::uint64_t open_seed = 2;     ///< open-loop key stream
  std::uint64_t arrival_seed = 3;  ///< open-loop Poisson schedule
  std::size_t keys = 300;
  double zipf = 1.1;
  std::string tag = "paper";  ///< tag of the telemetry-only requests
  double tag_share = 0.9;     ///< share of requests carrying `tag`
  std::size_t connections = 2;
  double warmup_s = 0.5;
  double closed_s = 3.0;
  double open_s = 3.0;
  double rate = 1000.0;  ///< open-loop offered load, requests/s
  std::size_t setups = 3;
};

/// Start agard `setups` times, then drive it through the closed- and
/// open-loop phases and replay the closed-loop requests in process; print
/// the raw measurements as one JSON object.
int run_daemon(const DaemonOptions& options);

}  // namespace bench
