// One route's serving core: one client::Lane — the experiment runner's own
// lane set-up, read counters and end-of-run merge — driven
// request-by-request from the socket instead of by closed-loop client
// events.
//
// The equivalence contract this file exists for: serving the key stream of
// a clients=1 runs=1 run through `serve_get`, then `drain()`, produces the
// same RunResult — byte for byte, via client::results_json — as
// client::run_experiment on the same spec. Set-up, counting and merge are
// the runner's code, so what is left to hold is the schedule: virtual time
// advances only while a request drives the loop (each read starts at the
// previous read's completion time, which is precisely the closed-loop
// single-client schedule), and `drain()` replays the windowed engine's
// final-boundary semantics. That is what lets CI diff a daemon metrics
// dump against an in-process agar_cli run.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "api/run.hpp"
#include "daemon/protocol.hpp"
#include "daemon/routing.hpp"
#include "sim/event_loop.hpp"
#include "store/repair.hpp"

namespace agar::daemon {

/// A live, warmed strategy instance serving one routing rule. Not
/// thread-safe: the server's one serving thread makes every call, so the
/// simulator advances on one thread.
class ServiceInstance {
 public:
  explicit ServiceInstance(const RouteRule& rule);

  ServiceInstance(const ServiceInstance&) = delete;
  ServiceInstance& operator=(const ServiceInstance&) = delete;

  [[nodiscard]] const RouteRule& rule() const { return rule_; }

  /// Serve one read on the virtual timeline. Fills everything except
  /// `route` and `wall_us` (the server stamps those).
  [[nodiscard]] GetResponse serve_get(const std::string& key,
                                      bool want_payload);

  /// Run the loop to the next whole metric window boundary — the windowed
  /// engine's end-of-run semantics (trailing populations and control-plane
  /// timers at or before the boundary fire; later ones stay queued).
  void drain();

  /// Scan-and-repair this route's backend stripes (the store/repair
  /// operator path, live behind the REPAIR control command).
  [[nodiscard]] store::RepairReport repair();

  /// End-of-run result through the runner's lane merge; the server
  /// serializes it through client::results_json.
  [[nodiscard]] client::RunResult snapshot();

  /// Reads served so far (daemon-level counters).
  [[nodiscard]] std::uint64_t ops_served();

 private:
  RouteRule rule_;
  std::unique_ptr<client::Deployment> deployment_;
  sim::EventLoop loop_;
  std::unique_ptr<client::Lane> lane_;
};

}  // namespace agar::daemon
