#include "scenario/scenario.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "api/json.hpp"
#include "sim/topology.hpp"

namespace agar::scenario {

namespace {

std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

api::ParamInfo region_param() {
  return {"region", api::ParamType::kString, "",
          "target region (name like 'tokyo', or numeric id)"};
}

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

const std::vector<EventKind>& event_kinds() {
  static const std::vector<EventKind> kinds = {
      {"fail_region", api::ParamSchema{{region_param()}},
       "region outage: refuse new fetches, abort in-flight and queued ones"},
      {"restore_region", api::ParamSchema{{region_param()}},
       "bring a failed region back (aborted fetches stay failed)"},
      {"slow_region",
       api::ParamSchema{{region_param(),
                         {"factor", api::ParamType::kDouble, "1",
                          "multiplicative latency slowdown (1 clears)"}}},
       "latency degradation: scale fetches served by a region"},
      {"drop_region",
       api::ParamSchema{{region_param(),
                         {"p", api::ParamType::kDouble, "0",
                          "response-loss probability in [0, 1) (0 clears)"},
                         {"mult", api::ParamType::kDouble, "3",
                          "failure-discovery delay as a multiple of the "
                          "sampled transfer latency"}}},
       "gray failure: lose responses; the loss surfaces only after mult x "
       "the transfer time"},
      {"straggle_region",
       api::ParamSchema{{region_param(),
                         {"frac", api::ParamType::kDouble, "0",
                          "fraction of fetches hitting the slow tail "
                          "(0 clears)"},
                         {"mult", api::ParamType::kDouble, "10",
                          "latency multiplier for straggling fetches"}}},
       "gray failure: a sampled fraction of a region's fetches straggles"},
      {"flap_region",
       api::ParamSchema{{region_param(),
                         {"period_ms", api::ParamType::kDouble, "10000",
                          "full up/down cycle length in ms"},
                         {"down_ms", api::ParamType::kDouble, "",
                          "down time per cycle (default: period_ms / 2)"},
                         {"until_ms", api::ParamType::kDouble, "",
                          "no new cycle starts at/after this time "
                          "(default: flap forever)"}}},
       "gray failure: the region fails and recovers periodically"},
      {"partition_regions",
       api::ParamSchema{{{"regions", api::ParamType::kString, "",
                          "comma-separated region names/ids forming one "
                          "side of the partition"}}},
       "network partition: the listed regions and the rest can no longer "
       "exchange collab traffic (peer fetches, broadcasts, config appends); "
       "backend fetches keep flowing"},
      {"heal_partition", api::ParamSchema{},
       "heal the network partition: collab traffic flows everywhere again"},
      {"popularity_rotate",
       api::ParamSchema{{{"by", api::ParamType::kSize, "0",
                          "ranks to rotate the rank->object mapping by"}}},
       "popularity shift: rotate which objects are hot"},
      {"popularity_reseed",
       api::ParamSchema{{{"seed", api::ParamType::kSize, "1",
                          "shuffle seed for the rank->object mapping"}}},
       "popularity shift: reshuffle the rank->object mapping"},
      {"flash_crowd",
       api::ParamSchema{
           {{"count", api::ParamType::kSize, "1",
             "number of keys promoted to the most popular ranks"},
            {"from_rank", api::ParamType::kSize, "",
             "rank the promoted block starts at (default: coldest tail)"}}},
       "popularity shift: a key subset jumps to the top ranks"},
      {"arrival_factor",
       api::ParamSchema{{{"factor", api::ParamType::kDouble, "1",
                          "step multiplier on open-loop arrival rate"}}},
       "arrival modulation: step the Poisson rate up or down"},
      {"arrival_sine",
       api::ParamSchema{
           {{"period_s", api::ParamType::kDouble, "60",
             "sine period in seconds"},
            {"amplitude", api::ParamType::kDouble, "0.5",
             "relative amplitude in [0, 1) (0 turns the sine off)"}}},
       "arrival modulation: diurnal-sine rate multiplier from now on"},
  };
  return kinds;
}

const EventKind* find_event_kind(const std::string& name) {
  for (const auto& kind : event_kinds()) {
    if (kind.name == name) return &kind;
  }
  return nullptr;
}

bool is_popularity_event(const std::string& name) {
  return name == "popularity_rotate" || name == "popularity_reseed" ||
         name == "flash_crowd";
}

RegionId resolve_region(const std::string& text) {
  if (text.empty()) {
    throw std::invalid_argument("scenario: event needs a 'region' param");
  }
  if (std::all_of(text.begin(), text.end(),
                  [](char c) { return c >= '0' && c <= '9'; })) {
    std::size_t id = 0;
    try {
      id = std::stoul(text);
    } catch (const std::out_of_range&) {
      id = std::numeric_limits<std::size_t>::max();  // fails the range check
    }
    if (id >= sim::aws_six_regions().num_regions()) {
      throw std::invalid_argument("scenario: region id '" + text +
                                  "' out of range");
    }
    return static_cast<RegionId>(id);
  }
  const auto topology = sim::aws_six_regions();
  try {
    return topology.id_of(text);
  } catch (const std::exception&) {
    std::string known;
    for (RegionId r = 0; r < topology.num_regions(); ++r) {
      known += (known.empty() ? "" : " ") + topology.name(r);
    }
    throw std::invalid_argument("scenario: unknown region '" + text +
                                "' (known: " + known + ")");
  }
}

std::vector<RegionId> resolve_region_list(const std::string& text) {
  std::vector<RegionId> out;
  std::stringstream parts(text);
  std::string part;
  while (std::getline(parts, part, ',')) {
    // Trim surrounding whitespace so "dublin, tokyo" works.
    const auto begin = part.find_first_not_of(" \t");
    if (begin == std::string::npos) continue;
    const auto end = part.find_last_not_of(" \t");
    const RegionId r = resolve_region(part.substr(begin, end - begin + 1));
    if (std::find(out.begin(), out.end(), r) == out.end()) out.push_back(r);
  }
  return out;
}

PopularityShift popularity_shift_of(const ScenarioEvent& e) {
  PopularityShift shift;
  if (e.event == "popularity_rotate") {
    shift.kind = PopularityShift::Kind::kRotate;
    shift.rotate_by = e.params.get_size("by", 0);
  } else if (e.event == "popularity_reseed") {
    shift.kind = PopularityShift::Kind::kReseed;
    shift.seed = e.params.get_size("seed", 1);
  } else if (e.event == "flash_crowd") {
    shift.kind = PopularityShift::Kind::kFlashCrowd;
    shift.crowd_count = e.params.get_size("count", 1);
    if (e.params.has("from_rank")) {
      shift.crowd_from = e.params.get_size("from_rank", 0);
    }
  } else {
    throw std::logic_error("popularity_shift_of: '" + e.event +
                           "' is not a popularity event");
  }
  return shift;
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
    if (kind->schema.has("region")) {
      (void)resolve_region(e.params.get_string("region", ""));
    }
    if (e.event == "partition_regions") {
      const auto group =
          resolve_region_list(e.params.get_string("regions", ""));
      if (group.empty()) {
        throw std::invalid_argument(context +
                                    ": 'regions' must list >= 1 region");
      }
      if (group.size() >= sim::aws_six_regions().num_regions()) {
        throw std::invalid_argument(
            context + ": 'regions' must leave at least one region on the "
                      "other side");
      }
    }
    if (e.event == "arrival_factor" &&
        e.params.get_double("factor", 1.0) <= 0.0) {
      throw std::invalid_argument(context + ": factor must be > 0");
    }
    if (e.event == "arrival_sine") {
      const double amp = e.params.get_double("amplitude", 0.5);
      if (amp < 0.0 || amp >= 1.0) {
        throw std::invalid_argument(context + ": amplitude must be in [0, 1)");
      }
      if (e.params.get_double("period_s", 60.0) <= 0.0) {
        throw std::invalid_argument(context + ": period_s must be > 0");
      }
    }
    if (e.event == "slow_region" &&
        e.params.get_double("factor", 1.0) <= 0.0) {
      throw std::invalid_argument(context + ": factor must be > 0");
    }
    if (e.event == "drop_region") {
      const double p = e.params.get_double("p", 0.0);
      if (p < 0.0 || p >= 1.0) {
        throw std::invalid_argument(context + ": p must be in [0, 1)");
      }
      if (e.params.get_double("mult", 3.0) <= 0.0) {
        throw std::invalid_argument(context + ": mult must be > 0");
      }
    }
    if (e.event == "straggle_region") {
      const double frac = e.params.get_double("frac", 0.0);
      if (frac < 0.0 || frac > 1.0) {
        throw std::invalid_argument(context + ": frac must be in [0, 1]");
      }
      if (e.params.get_double("mult", 10.0) <= 0.0) {
        throw std::invalid_argument(context + ": mult must be > 0");
      }
    }
    if (e.event == "flap_region") {
      const double period = e.params.get_double("period_ms", 10'000.0);
      if (period <= 0.0) {
        throw std::invalid_argument(context + ": period_ms must be > 0");
      }
      const double down = e.params.get_double("down_ms", period / 2.0);
      if (down <= 0.0 || down >= period) {
        throw std::invalid_argument(context +
                                    ": down_ms must be in (0, period_ms)");
      }
      if (e.params.has("until_ms") &&
          e.params.get_double("until_ms", 0.0) < 0.0) {
        throw std::invalid_argument(context + ": until_ms must be >= 0");
      }
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
    out += fmt_double(e.at_ms) + " " + e.event;
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
        << fmt_double(e.at_ms) << ", \"event\": \""
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
