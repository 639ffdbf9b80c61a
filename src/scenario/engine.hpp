// ScenarioEngine — executes a Scenario on the simulation's event loop.
//
// Each event fires its kind's action (see event_kinds(), defined with the
// engine). Network-facing events (outages, restores, latency slowdowns)
// act straight on the bound Network / LatencyModel. Popularity shifts are
// delivered through a typed hook the runner registers (it owns the
// workloads). Arrival-rate modulation is kept as engine state — a
// piecewise-constant step factor times an optional diurnal sine — which the
// runner's open-loop arrival process samples via `arrival_multiplier(now)`
// each time it schedules the next arrival.
#pragma once

#include <functional>

#include "scenario/scenario.hpp"
#include "sim/event_loop.hpp"
#include "sim/network.hpp"

namespace agar::scenario {

class ScenarioEngine {
 public:
  using PopularityHook = std::function<void(const PopularityShift&)>;
  /// Partition hook: the listed regions form one side, everyone else the
  /// other (an empty list heals). Registered by the runner when a collab
  /// tier exists; partitions only cut collab traffic, so with no hook the
  /// events are legal no-ops (collab=none runs partition specs unchanged).
  using PartitionHook = std::function<void(const std::vector<RegionId>&)>;

  /// `network` is required; `popularity` may be empty only when the
  /// scenario contains no popularity events (checked at construction, so
  /// a missing hook fails fast instead of throwing mid-run).
  ScenarioEngine(Scenario scenario, sim::Network* network,
                 PopularityHook popularity);

  /// Register the partition hook (optional; see PartitionHook).
  void set_partition_hook(PartitionHook hook) {
    partition_ = std::move(hook);
  }

  /// Schedule every event at its absolute `at_ms`; same-instant events fire
  /// in script order. Call once, before driving the loop.
  void schedule(sim::EventLoop& loop);

  /// Current arrival-rate multiplier (step factor x sine), clamped away
  /// from zero so an inter-arrival gap can always be drawn.
  [[nodiscard]] double arrival_multiplier(SimTimeMs now) const;

  /// Events applied so far (observability for tests).
  [[nodiscard]] std::size_t fired() const { return fired_; }

 private:
  friend const std::vector<EventKind>& event_kinds();
  /// The vocabulary behind event_kinds(): a member, so each kind's action
  /// can reach the engine's state.
  static std::vector<EventKind> vocabulary();

  /// One flap cycle: fail now, restore after `down_ms`, and re-arm the
  /// next cycle `period_ms` from now unless it would start at/after
  /// `until_ms` (a non-positive `until_ms` means flap forever). Cycle
  /// continuations are internal events — `fired()` counts only the
  /// scripted flap_region entry itself.
  void flap_cycle(sim::EventLoop& loop, RegionId region, SimTimeMs period_ms,
                  SimTimeMs down_ms, SimTimeMs until_ms);

  Scenario scenario_;
  sim::Network* network_;  // non-owning
  PopularityHook popularity_;
  PartitionHook partition_;
  std::size_t fired_ = 0;
  // Arrival modulation state.
  double step_factor_ = 1.0;
  double sine_amplitude_ = 0.0;
  SimTimeMs sine_period_ms_ = 0.0;
  SimTimeMs sine_start_ms_ = 0.0;
};

}  // namespace agar::scenario
