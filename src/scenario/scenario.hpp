// Scenario scripts — a declarative timeline of mid-run events that make a
// workload non-stationary: popularity shifts, arrival-rate modulation,
// region outages/restores, and latency degradation.
//
// The paper's headline claim (§IV–V) is that periodic knapsack
// reconfiguration *adapts*; a stationary Zipfian run against a healthy
// network never exercises that. A scenario is a sorted list of
// `{at_ms, event, params}` entries parsed from the spec layer (JSON array,
// or the compact one-line text form "at_ms event k=v ...; ...") and
// executed by the ScenarioEngine on the simulation's event loop.
//
// Layering: scenario sits on api (ParamMap/json) and sim (topology names);
// it knows nothing about clients. The runner applies popularity shifts to
// its workloads through a typed hook, so workload internals stay in
// client/.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "api/param_map.hpp"
#include "common/types.hpp"

namespace agar::api {
class JsonValue;
}
namespace agar::sim {
class EventLoop;
}

namespace agar::scenario {

class ScenarioEngine;

/// One scripted event: what fires, when, with which parameters.
struct ScenarioEvent {
  SimTimeMs at_ms = 0.0;
  std::string event;      ///< kind name, see `event_kinds()`
  api::ParamMap params;   ///< validated against the kind's schema
};

/// A popularity shift, pre-parsed for the runner's workload hook.
struct PopularityShift {
  enum class Kind { kRotate, kReseed, kFlashCrowd };
  Kind kind = Kind::kRotate;
  std::size_t rotate_by = 0;   ///< kRotate: ranks to rotate the mapping by
  std::uint64_t seed = 0;      ///< kReseed: permutation shuffle seed
  std::size_t crowd_count = 0; ///< kFlashCrowd: keys promoted to the top
  /// kFlashCrowd: rank the promoted block starts at (default: the least
  /// popular tail, the classic "cold content goes viral" shape).
  std::optional<std::size_t> crowd_from;
};

/// One event kind: its name, parameter schema, doc line, checks and
/// action. Validation, `agar_cli --list` and the engine all read this
/// entry; its checks and action see the event's params with the schema's
/// defaults filled in.
struct EventKind {
  std::string name;
  api::ParamSchema schema;
  std::string description;
  /// The requirement the params break ("factor must be > 0"), or null.
  /// Null function: the schema's types are the whole check.
  const char* (*check)(const api::ParamMap& params) = nullptr;
  /// What firing the event does; null for a popularity shift.
  void (*apply)(ScenarioEngine& engine, const api::ParamMap& params,
                sim::EventLoop& loop) = nullptr;
  /// The popularity shift the event fires through the runner's workload
  /// hook; null for every other kind.
  PopularityShift (*shift)(const api::ParamMap& params) = nullptr;
};

/// The event vocabulary. Defined beside ScenarioEngine, whose state the
/// actions change.
[[nodiscard]] const std::vector<EventKind>& event_kinds();
[[nodiscard]] const EventKind* find_event_kind(const std::string& name);

struct Scenario {
  std::vector<ScenarioEvent> events;

  [[nodiscard]] bool empty() const { return events.empty(); }
  [[nodiscard]] std::size_t size() const { return events.size(); }

  /// Every event must name a known kind, carry only that kind's declared
  /// params (each parsing as its declared type), resolve any region name,
  /// pass the kind's checks, and fire at a non-negative time. Throws
  /// std::invalid_argument with the offending entry.
  void validate() const;

  /// Events sorted by (at_ms, original position) — the engine schedules in
  /// this order so same-instant events fire in script order.
  [[nodiscard]] std::vector<ScenarioEvent> sorted() const;

  /// Compact one-line form: "at_ms event k=v k=v; at_ms event ...".
  [[nodiscard]] std::string to_text() const;
  /// JSON array of {"at_ms": .., "event": "..", <params>} objects,
  /// indented for embedding in ExperimentSpec::to_json.
  [[nodiscard]] std::string to_json(const std::string& indent) const;
};

/// Parse the compact text form. Empty/whitespace text is an empty scenario.
[[nodiscard]] Scenario parse_scenario_text(const std::string& text);

/// Parse a JSON array of event objects (the "scenario" spec member).
[[nodiscard]] Scenario scenario_from_json(const api::JsonValue& value);

}  // namespace agar::scenario
