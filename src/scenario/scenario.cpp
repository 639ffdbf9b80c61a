#include "scenario/scenario.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "api/json.hpp"
#include "sim/topology.hpp"

namespace agar::scenario {

namespace {

/// Parse an event time. "nan"/"inf" and trailing garbage ("10abc") are
/// rejected here, not at schedule time where a NaN would silently corrupt
/// the event-queue ordering.
SimTimeMs parse_at_ms(const std::string& text) {
  try {
    return api::parse_double(text);
  } catch (const std::exception&) {
    throw std::invalid_argument("scenario: '" + text +
                                "' is not a finite time in ms");
  }
}

}  // namespace

const EventKind* find_event_kind(const std::string& name) {
  for (const auto& kind : event_kinds()) {
    if (kind.name == name) return &kind;
  }
  return nullptr;
}

void Scenario::validate() const {
  for (std::size_t i = 0; i < events.size(); ++i) {
    const ScenarioEvent& e = events[i];
    const std::string context =
        "scenario event " + std::to_string(i) + " ('" + e.event + "')";
    const EventKind* kind = find_event_kind(e.event);
    if (kind == nullptr) {
      std::string known;
      for (const auto& k : event_kinds()) {
        known += (known.empty() ? "" : " ") + k.name;
      }
      throw std::invalid_argument(context + ": unknown event (known: " +
                                  known + ")");
    }
    // NaN compares false against everything, so reject non-finite
    // explicitly: directly-constructed scenarios bypass parse_at_ms.
    if (!std::isfinite(e.at_ms) || e.at_ms < 0.0) {
      throw std::invalid_argument(context +
                                  ": at_ms must be finite and >= 0");
    }
    e.params.validate(kind->schema, context);
    const api::ParamMap params = e.params.with_defaults(kind->schema);
    const bool needs_region = kind->schema.has("region");
    if (needs_region && !params.has("region")) {
      throw std::invalid_argument(context + ": needs a 'region' param");
    }
    const char* broken = nullptr;
    try {
      if (needs_region) (void)sim::resolve_region(params.get_string("region"));
      if (kind->check) broken = kind->check(params);
    } catch (const std::invalid_argument& error) {
      throw std::invalid_argument(context + ": " + error.what());
    }
    if (broken != nullptr) {
      throw std::invalid_argument(context + ": " + broken);
    }
  }
}

std::vector<ScenarioEvent> Scenario::sorted() const {
  std::vector<ScenarioEvent> out = events;
  std::stable_sort(out.begin(), out.end(),
                   [](const ScenarioEvent& a, const ScenarioEvent& b) {
                     return a.at_ms < b.at_ms;
                   });
  return out;
}

std::string Scenario::to_text() const {
  std::string out;
  for (const auto& e : events) {
    if (!out.empty()) out += "; ";
    out += api::format_double(e.at_ms) + " " + e.event;
    for (const auto& [k, v] : e.params.entries()) out += " " + k + "=" + v;
  }
  return out;
}

std::string Scenario::to_json(const std::string& indent) const {
  std::ostringstream out;
  out << "[";
  for (std::size_t i = 0; i < events.size(); ++i) {
    const auto& e = events[i];
    out << (i > 0 ? "," : "") << "\n" << indent << "  {\"at_ms\": "
        << api::format_double(e.at_ms) << ", \"event\": \""
        << api::json_escape(e.event) << "\"";
    for (const auto& [k, v] : e.params.entries()) {
      out << ", \"" << api::json_escape(k) << "\": \"" << api::json_escape(v)
          << "\"";
    }
    out << "}";
  }
  out << "\n" << indent << "]";
  return out.str();
}

Scenario parse_scenario_text(const std::string& text) {
  Scenario scenario;
  std::stringstream entries(text);
  std::string entry;
  while (std::getline(entries, entry, ';')) {
    std::stringstream words(entry);
    std::string word;
    ScenarioEvent e;
    bool have_time = false;
    while (words >> word) {
      if (!have_time) {
        e.at_ms = parse_at_ms(word);
        have_time = true;
      } else if (e.event.empty()) {
        e.event = word;
      } else {
        e.params.set_pair(word);
      }
    }
    if (!have_time) continue;  // empty segment (trailing ';')
    if (e.event.empty()) {
      throw std::invalid_argument("scenario: entry '" + entry +
                                  "' names no event");
    }
    scenario.events.push_back(std::move(e));
  }
  return scenario;
}

Scenario scenario_from_json(const api::JsonValue& value) {
  if (!value.is_array()) {
    throw std::invalid_argument("scenario: must be an array of event objects");
  }
  Scenario scenario;
  for (const auto& item : value.array) {
    if (!item.is_object()) {
      throw std::invalid_argument(
          "scenario: each entry must be an object with at_ms and event");
    }
    ScenarioEvent e;
    bool have_time = false;
    for (const auto& [key, member] : item.object) {
      if (key == "at_ms") {
        e.at_ms = parse_at_ms(member.as_param_text());
        have_time = true;
      } else if (key == "event") {
        e.event = member.as_param_text();
      } else {
        e.params.set(key, member.as_param_text());
      }
    }
    if (!have_time || e.event.empty()) {
      throw std::invalid_argument(
          "scenario: each entry needs both 'at_ms' and 'event'");
    }
    scenario.events.push_back(std::move(e));
  }
  return scenario;
}

}  // namespace agar::scenario
