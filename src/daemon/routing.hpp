// Declarative request routing for agard — the halmap idea from the GAPS
// HAL exemplar applied to the Agar data plane: a config file is the only
// thing that decides which registered strategy/engine/planner serves a
// request. Adding a route is a config edit; adding a routable system is a
// registry registration. No enum, no daemon code change.
//
// Config grammar (JSON):
//
//   {
//     "listen": "/tmp/agard.sock",      // UDS path (server may override)
//     "routes": [
//       {
//         "name": "hot",                // unique handle (control commands)
//         "tag": "hot",                 // request tag to match ("" = any)
//         "prefix": "object",           // key prefix to match ("" = any)
//         "spec": { "system": "agar", "objects": 300, ... }  // ExperimentSpec
//       }
//     ]
//   }
//
// Other top-level members are ignored.
//
// Matching is first-match-wins in file order: a request (tag, key) matches
// a rule when the rule's tag is empty or equal to the request tag, AND the
// rule's prefix is empty or a prefix of the key. Route specs are full
// ExperimentSpec objects validated against the registries at load time, so
// a typo fails the reload, never a request.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "api/experiment_spec.hpp"

namespace agar::daemon {

struct RouteRule {
  std::string name;    ///< unique handle, used by control commands
  std::string tag;     ///< request tag to match; empty matches any
  std::string prefix;  ///< key prefix to match; empty matches any
  api::ExperimentSpec spec;
  /// The spec's JSON sub-document, re-serialized canonically
  /// (ExperimentSpec::to_json). Route identity across reloads: a reload
  /// whose rule has the same name/tag/prefix/spec_json keeps the warm
  /// serving instance.
  std::string spec_json;
};

struct DaemonConfig {
  std::string listen = "/tmp/agard.sock";
  std::vector<RouteRule> routes;
};

/// Parse a routing config document. Throws std::invalid_argument with the
/// offending key/route on any malformed or non-routable entry (duplicate
/// route names, multi-region/sharded/scenario specs, unknown systems).
[[nodiscard]] DaemonConfig parse_daemon_config(const std::string& text);

/// `parse_daemon_config` over a file. Throws std::invalid_argument naming
/// the path on read failure.
[[nodiscard]] DaemonConfig load_daemon_config(const std::string& path);

/// First rule matching (tag, key) in file order, or nullopt.
[[nodiscard]] std::optional<std::size_t> match_route(
    const std::vector<RouteRule>& routes, const std::string& tag,
    const std::string& key);

}  // namespace agar::daemon
