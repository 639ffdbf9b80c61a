#include "daemon/routing.hpp"

#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>

#include "api/json.hpp"

namespace agar::daemon {
namespace {

RouteRule parse_route(const api::JsonValue& entry, std::size_t index) {
  const std::string where = "daemon config: routes[" + std::to_string(index) +
                            "]";
  if (!entry.is_object()) {
    throw std::invalid_argument(where + " must be an object");
  }
  RouteRule rule;
  if (const api::JsonValue* name = entry.find("name")) {
    rule.name = name->as_param_text();
  }
  if (rule.name.empty()) {
    throw std::invalid_argument(where + " needs a non-empty 'name'");
  }
  if (const api::JsonValue* tag = entry.find("tag")) {
    rule.tag = tag->as_param_text();
  }
  if (const api::JsonValue* prefix = entry.find("prefix")) {
    rule.prefix = prefix->as_param_text();
  }
  const api::JsonValue* spec = entry.find("spec");
  if (spec == nullptr || !spec->is_object()) {
    throw std::invalid_argument(where + " needs a 'spec' object");
  }
  try {
    rule.spec = api::spec_from_json_object(*spec);
  } catch (const std::exception& e) {
    throw std::invalid_argument(where + " ('" + rule.name +
                                "'): " + e.what());
  }

  // The daemon serves each route on one event loop with one strategy
  // instance; spec shapes that only make sense as multi-lane batch runs
  // are rejected at load time so a reload can never wedge the data plane.
  const auto& experiment = rule.spec.experiment;
  if (experiment.effective_client_regions().size() != 1) {
    throw std::invalid_argument(where + " ('" + rule.name +
                                "'): route specs serve one region (use "
                                "'region', not a 'regions' list)");
  }
  if (experiment.shards != 1) {
    throw std::invalid_argument(where + " ('" + rule.name +
                                "'): route specs must use shards=1");
  }
  if (!experiment.scenario.empty()) {
    throw std::invalid_argument(where + " ('" + rule.name +
                                "'): scripted scenarios are a batch-run "
                                "feature; route specs must omit 'scenario'");
  }
  if (experiment.metric_window_ms > 0.0) {
    throw std::invalid_argument(where + " ('" + rule.name +
                                "'): windowed time-series metrics are a "
                                "batch-run feature; route specs must omit "
                                "'window_ms'");
  }
  if (experiment.collab != "none") {
    throw std::invalid_argument(where + " ('" + rule.name +
                                "'): the cooperative tier spans multiple "
                                "lanes; route specs must use collab=none");
  }
  rule.spec_json = rule.spec.to_json();
  return rule;
}

}  // namespace

DaemonConfig parse_daemon_config(const std::string& text) {
  const api::JsonValue doc = api::parse_json(text);
  if (!doc.is_object()) {
    throw std::invalid_argument(
        "daemon config: top level must be a JSON object");
  }
  DaemonConfig config;
  if (const api::JsonValue* listen = doc.find("listen")) {
    config.listen = listen->as_param_text();
  }
  const api::JsonValue* routes = doc.find("routes");
  if (routes == nullptr || !routes->is_array() || routes->array.empty()) {
    throw std::invalid_argument(
        "daemon config: needs a non-empty 'routes' array");
  }
  std::set<std::string> names;
  for (std::size_t i = 0; i < routes->array.size(); ++i) {
    RouteRule rule = parse_route(routes->array[i], i);
    if (!names.insert(rule.name).second) {
      throw std::invalid_argument("daemon config: duplicate route name '" +
                                  rule.name + "'");
    }
    config.routes.push_back(std::move(rule));
  }
  return config;
}

DaemonConfig load_daemon_config(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::invalid_argument("cannot read daemon config '" + path + "'");
  }
  std::ostringstream text;
  text << in.rdbuf();
  try {
    return parse_daemon_config(text.str());
  } catch (const std::exception& e) {
    throw std::invalid_argument(path + ": " + e.what());
  }
}

std::optional<std::size_t> match_route(const std::vector<RouteRule>& routes,
                                       const std::string& tag,
                                       const std::string& key) {
  for (std::size_t i = 0; i < routes.size(); ++i) {
    const RouteRule& rule = routes[i];
    if (!rule.tag.empty() && rule.tag != tag) continue;
    if (!rule.prefix.empty() && key.rfind(rule.prefix, 0) != 0) continue;
    return i;
  }
  return std::nullopt;
}

}  // namespace agar::daemon
