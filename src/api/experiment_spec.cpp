#include "api/experiment_spec.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "api/json.hpp"
#include "api/registry.hpp"
#include "collab/collab.hpp"
#include "scenario/scenario.hpp"
#include "sim/topology.hpp"

namespace agar::api {

namespace {

std::string join(const std::vector<std::string>& names) {
  std::string out;
  for (const auto& n : names) out += (out.empty() ? "" : " ") + n;
  return out;
}

/// The `regions` key: one lane per client region, so a repeat would bind
/// two lanes to the first lane's network.
std::vector<RegionId> client_regions(const std::string& text) {
  const std::vector<RegionId> regions = sim::resolve_region_list(text);
  if (regions.empty()) {
    throw std::invalid_argument("'regions' needs at least one region name");
  }
  for (auto it = regions.begin(); it != regions.end(); ++it) {
    if (std::find(regions.begin(), it, *it) != it) {
      throw std::invalid_argument("'regions' lists '" +
                                  sim::aws_six_regions().name(*it) +
                                  "' twice");
    }
  }
  return regions;
}

client::WorkloadSpec parse_workload(const std::string& text) {
  if (text == "uniform") return client::WorkloadSpec::uniform();
  std::string skew = text;
  if (skew.rfind("zipf:", 0) == 0) skew = skew.substr(5);
  try {
    const double s = parse_double(skew);
    if (s < 0.0) throw std::invalid_argument("");
    return client::WorkloadSpec::zipfian(s);
  } catch (const std::exception&) {
    throw std::invalid_argument("workload '" + text +
                                "' is not 'uniform', 'zipf:<skew>' or a "
                                "plain skew value");
  }
}

std::string quoted(const std::string& text) {
  std::string out = "\"";
  out += json_escape(text);
  out += '"';
  return out;
}

std::string region_name(RegionId region) {
  return quoted(sim::aws_six_regions().name(region));
}

std::string flag(bool value) { return value ? "true" : "false"; }

/// The members a namespaced sub-map ("fetch.retries") adds after its key.
std::string namespaced(const std::string& prefix, const ParamMap& params) {
  std::string out;
  for (const auto& [k, v] : params.entries()) {
    out += ",\n  " + quoted(prefix + k) + ": " + quoted(v);
  }
  return out;
}

using Config = client::ExperimentConfig;
using Text = std::string;

/// One experiment key: its schema entry, how `set` writes a value into the
/// config (after checking that it parses as `info.type`), how the config
/// writes the value back for `to_json`, and its check on the typed value.
/// `system` alone has no config functions: the spec holds it itself.
struct ExperimentKey {
  ParamInfo info;
  void (*set)(Config& config, const Text& value) = nullptr;
  /// The member's JSON value, or "" to leave the key out. fetch and collab
  /// follow theirs with their namespaced members.
  Text (*json)(const Config& config) = nullptr;
  /// The requirement the value breaks ("must be > 0"), or null. Negated
  /// comparisons, so a NaN set through the typed fields fails too.
  const char* (*check)(const Config& config) = nullptr;
};

/// Every experiment key, in `--list` and `to_json` order.
const std::vector<ExperimentKey>& experiment_key_rows() {
  static const std::vector<ExperimentKey> rows = {
      {{"system", ParamType::kString, "agar",
        "system under test (any registered strategy or cache engine)"}},
      {{"workload", ParamType::kString, "zipf:1.1",
        "'uniform', 'zipf:<skew>' or a plain Zipf skew"},
       [](Config& c, const Text& v) { c.workload = parse_workload(v); },
       [](const Config& c) {
         return quoted(c.workload.kind == client::WorkloadSpec::Kind::kUniform
                           ? Text("uniform")
                           : "zipf:" + format_double(c.workload.zipf_skew));
       }},
      {{"region", ParamType::kString, "frankfurt", "primary client region"},
       [](Config& c, const Text& v) {
         c.client_region = sim::resolve_region(v);
         // Last writer wins: a multi-region list set earlier would
         // otherwise silently override this (effective_client_regions
         // prefers the list).
         c.client_regions.clear();
       },
       [](const Config& c) {
         return c.client_regions.empty() ? region_name(c.client_region) : "";
       }},
      {{"regions", ParamType::kString, "",
        "comma-separated client regions (one cache node per region)"},
       [](Config& c, const Text& v) {
         c.client_regions = client_regions(v);
         c.client_region = c.client_regions.front();
       },
       [](const Config& c) {
         Text out;
         for (const RegionId r : c.client_regions) {
           out += (out.empty() ? "[" : ", ") + region_name(r);
         }
         return out.empty() ? out : out + "]";
       }},
      {{"objects", ParamType::kSize, "300", "working-set size"},
       [](Config& c, const Text& v) {
         c.deployment.num_objects = parse_size(v);
       },
       [](const Config& c) {
         return std::to_string(c.deployment.num_objects);
       }},
      {{"object_bytes", ParamType::kSize, "1MB", "object size"},
       [](Config& c, const Text& v) {
         c.deployment.object_size_bytes = parse_size(v);
       },
       [](const Config& c) {
         return std::to_string(c.deployment.object_size_bytes);
       }},
      {{"ops", ParamType::kSize, "1000", "reads per run (all regions)"},
       [](Config& c, const Text& v) { c.ops_per_run = parse_size(v); },
       [](const Config& c) { return std::to_string(c.ops_per_run); }},
      {{"runs", ParamType::kSize, "5", "independent runs"},
       [](Config& c, const Text& v) { c.runs = parse_size(v); },
       [](const Config& c) { return std::to_string(c.runs); }},
      {{"clients", ParamType::kSize, "2", "closed-loop clients per region"},
       [](Config& c, const Text& v) { c.num_clients = parse_size(v); },
       [](const Config& c) { return std::to_string(c.num_clients); }},
      {{"arrival_rate", ParamType::kDouble, "0",
        "open-loop Poisson reads/s per region (0 = closed loop)"},
       [](Config& c, const Text& v) { c.arrival_rate_per_s = parse_double(v); },
       [](const Config& c) { return format_double(c.arrival_rate_per_s); },
       [](const Config& c) {
         return c.arrival_rate_per_s >= 0.0 ? nullptr : "must be >= 0";
       }},
      {{"period_s", ParamType::kDouble, "30",
        "reconfiguration period in seconds (agar, lfu)"},
       [](Config& c, const Text& v) {
         c.reconfig_period_ms = parse_double(v) * 1000.0;
       },
       [](const Config& c) {
         return format_double(c.reconfig_period_ms / 1000.0);
       },
       [](const Config& c) {
         return c.reconfig_period_ms > 0.0 ? nullptr : "must be > 0";
       }},
      {{"seed", ParamType::kSize, "42", "RNG seed"},
       [](Config& c, const Text& v) { c.deployment.seed = parse_size(v); },
       [](const Config& c) { return std::to_string(c.deployment.seed); }},
      {{"verify", ParamType::kBool, "false",
        "move real bytes and RS-decode every read"},
       [](Config& c, const Text& v) { c.verify_data = parse_bool(v); },
       [](const Config& c) { return flag(c.verify_data); }},
      {{"max_outstanding", ParamType::kSize, "64",
        "per-region concurrent-fetch cap (0 = unlimited)"},
       [](Config& c, const Text& v) {
         c.max_outstanding_per_region = parse_size(v);
       },
       [](const Config& c) {
         return std::to_string(c.max_outstanding_per_region);
       }},
      {{"decode_ms_per_mb", ParamType::kDouble, "10",
        "client decode cost per MB"},
       [](Config& c, const Text& v) { c.decode_ms_per_mb = parse_double(v); },
       [](const Config& c) { return format_double(c.decode_ms_per_mb); },
       [](const Config& c) {
         return c.decode_ms_per_mb >= 0.0 ? nullptr : "must be >= 0";
       }},
      {{"weights", ParamType::kSizeList, "1,3,5,7,9",
        "candidate option weights for agar"},
       [](Config& c, const Text& v) {
         c.agar_candidate_weights = parse_size_list(v);
       },
       [](const Config& c) {
         Text out = "[";
         for (const std::size_t w : c.agar_candidate_weights) {
           out += (out.size() > 1 ? ", " : "") + std::to_string(w);
         }
         return out + "]";
       }},
      {{"rs_k", ParamType::kSize, "9", "Reed-Solomon data chunks"},
       [](Config& c, const Text& v) { c.deployment.codec.k = parse_size(v); },
       [](const Config& c) { return std::to_string(c.deployment.codec.k); },
       [](const Config& c) {
         return c.deployment.codec.k >= 1 ? nullptr : "must be >= 1";
       }},
      {{"rs_m", ParamType::kSize, "3", "Reed-Solomon parity chunks"},
       [](Config& c, const Text& v) { c.deployment.codec.m = parse_size(v); },
       [](const Config& c) { return std::to_string(c.deployment.codec.m); },
       [](const Config& c) {
         return c.deployment.codec.m >= 1 ? nullptr : "must be >= 1";
       }},
      {{"placement_offset", ParamType::kBool, "false",
        "rotate chunk placement per key"},
       [](Config& c, const Text& v) {
         c.deployment.per_key_placement_offset = parse_bool(v);
       },
       [](const Config& c) {
         return flag(c.deployment.per_key_placement_offset);
       }},
      // Left out when off, as are the keys below at their defaults: specs
      // that do not use them serialize as they did before the keys existed.
      {{"window_ms", ParamType::kDouble, "0",
        "windowed time-series metric width in ms (0 = off)"},
       [](Config& c, const Text& v) { c.metric_window_ms = parse_double(v); },
       [](const Config& c) {
         return c.metric_window_ms > 0.0 ? format_double(c.metric_window_ms)
                                         : "";
       },
       // A read lands in window floor(now / window_ms): below 1 ms the
       // window count outgrows memory, and the index its size_t.
       [](const Config& c) {
         const double ms = c.metric_window_ms;
         return ms == 0.0 || ms >= 1.0 ? nullptr : "must be 0 (off) or >= 1";
       }},
      {{"shards", ParamType::kSize, "1",
        "simulation worker threads (results identical for any value)"},
       [](Config& c, const Text& v) { c.shards = parse_size(v); },
       [](const Config& c) {
         return c.shards != 1 ? std::to_string(c.shards) : "";
       },
       [](const Config& c) {
         return c.shards >= 1 ? nullptr : "must be >= 1";
       }},
      {{"fetch", ParamType::kString, "none",
        "fault-tolerant fetch policy (none, retry, hedge); parameters "
        "arrive namespaced as fetch.<param>"},
       [](Config& c, const Text& v) {
         c.fetch_policy = v.empty() ? "none" : v;
       },
       [](const Config& c) {
         return c.fetch_policy == "none"
                    ? ""
                    : quoted(c.fetch_policy) +
                          namespaced("fetch.", c.fetch_params);
       }},
      {{"collab", ParamType::kString, "none",
        "cooperative cache tier (none, broadcast); parameters arrive "
        "namespaced as collab.<param>"},
       [](Config& c, const Text& v) { c.collab = v.empty() ? "none" : v; },
       [](const Config& c) {
         return c.collab == "none"
                    ? ""
                    : quoted(c.collab) + namespaced("collab.", c.collab_params);
       }},
      {{"scenario", ParamType::kString, "",
        "mid-run event script: \"at_ms event k=v ...; ...\" (JSON specs "
        "may use an array of {at_ms, event, ...} objects)"},
       // "scenario=" clears. JSON spec files may instead carry an array,
       // which parse_spec_json routes around this setter.
       [](Config& c, const Text& v) {
         c.scenario = scenario::parse_scenario_text(v);
       },
       [](const Config& c) {
         return c.scenario.empty() ? "" : c.scenario.to_json("  ");
       }},
  };
  return rows;
}

const ExperimentKey* find_experiment_key(const std::string& name) {
  for (const ExperimentKey& key : experiment_key_rows()) {
    if (key.info.name == name) return &key;
  }
  return nullptr;
}

}  // namespace

const ParamSchema& ExperimentSpec::experiment_keys() {
  static const ParamSchema schema = [] {
    ParamSchema out;
    for (const ExperimentKey& key : experiment_key_rows()) {
      out.params.push_back(key.info);
    }
    return out;
  }();
  return schema;
}

void ExperimentSpec::set(const std::string& key, const std::string& value) {
  if (const ExperimentKey* row = find_experiment_key(key)) {
    check_value(row->info, value);  // the parse error names the key
    if (row->set != nullptr) {
      row->set(experiment, value);
    } else {
      system = value;
    }
    return;
  }
  // Namespaced fetch-policy and collab parameters ("fetch.retries=3") land
  // in their own maps with the prefix stripped; every other key is a
  // strategy/engine parameter. All are schema-checked in validate().
  ParamMap* target = &params;
  std::string name = key;
  if (key.rfind("fetch.", 0) == 0) {
    target = &experiment.fetch_params;
    name = key.substr(6);
  } else if (key.rfind("collab.", 0) == 0) {
    target = &experiment.collab_params;
    name = key.substr(7);
  }
  // "key=" clears a parameter — lets a sweep/base spec drop one for
  // systems that do not take it ("cache_bytes=" for backend).
  if (value.empty()) {
    target->erase(name);
  } else {
    target->set(name, value);
  }
}

void ExperimentSpec::set_pair(const std::string& pair) {
  auto [key, value] = split_pair(pair);
  set(key, value);
}

ExperimentSpec ExperimentSpec::from_pairs(
    const std::vector<std::string>& pairs) {
  ExperimentSpec spec;
  for (const auto& pair : pairs) spec.set_pair(pair);
  return spec;
}

ExperimentSpec ExperimentSpec::with(
    const std::vector<std::string>& pairs) const {
  ExperimentSpec spec = *this;
  for (const auto& pair : pairs) spec.set_pair(pair);
  return spec;
}

std::pair<std::string, ParamMap> resolve_system(const std::string& system,
                                                const ParamMap& params) {
  const auto& strategies = StrategyRegistry::instance();
  if (strategies.contains(system)) return {system, params};
  const auto& engines = EngineRegistry::instance();
  if (engines.contains(system) && strategies.contains("fixed-chunks")) {
    // An engine-only name runs as a fixed-chunks system over that engine —
    // registering a cache engine is all it takes to stand up a baseline.
    ParamMap effective = params;
    effective.set("engine", system);
    return {"fixed-chunks", effective};
  }
  throw UnknownNameError(
      "unknown system '" + system + "' (known: " + join(runnable_systems()) +
          ")",
      runnable_systems());
}

std::vector<std::string> runnable_systems() {
  std::vector<std::string> out = StrategyRegistry::instance().names();
  if (StrategyRegistry::instance().contains("fixed-chunks")) {
    for (const auto& engine : EngineRegistry::instance().names()) {
      if (std::find(out.begin(), out.end(), engine) == out.end()) {
        out.push_back(engine);
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

namespace {

/// The `what` named `name` in `registry` (an UnknownNameError listing the
/// registered names otherwise), with `params` checked against its schema.
template <typename Registry>
const typename Registry::Entry& checked_entry(const Registry& registry,
                                              const std::string& what,
                                              const std::string& name,
                                              const ParamMap& params) {
  if (!registry.contains(name)) {
    throw UnknownNameError("unknown " + what + " '" + name +
                               "' (known: " + join(registry.names()) + ")",
                           registry.names());
  }
  const auto& entry = registry.at(name);
  params.validate(entry.schema, what + " '" + name + "'");
  return entry;
}

}  // namespace

void ExperimentSpec::validate() const {
  const auto [name, effective] = resolve_system(system, params);
  const auto& entry = StrategyRegistry::instance().at(name);
  // The params as the system's factory will see them.
  const ParamMap resolved = effective.with_defaults(entry.schema);
  std::vector<std::string> extra;
  // Systems that declare a planner/monitor parameter (Agar's control
  // plane) get those names resolved against the planner / estimator
  // registries, with typed validation of the namespaced sub-params
  // ("planner.threshold"), which the system's own check then accepts.
  const auto control_plane_pick = [&](const auto& registry,
                                      const std::string& key) {
    if (!entry.schema.has(key)) return;
    const auto& pick = checked_entry(registry, key, resolved.get_string(key),
                                     resolved.scoped(key + "."));
    for (const auto& p : pick.schema.params) {
      extra.push_back(key + "." + p.name);
    }
  };
  control_plane_pick(PlannerRegistry::instance(), "planner");
  control_plane_pick(EstimatorRegistry::instance(), "monitor");
  if (const auto engine = resolved.raw("engine")) {
    // Fail at spec time, not mid-comparison: an explicit
    // system=fixed-chunks engine=<typo> reaches here unresolved.
    // Engine-specific params (sketch_width, ...) ride along with the
    // adapter's own schema.
    const auto& engine_entry = checked_entry(EngineRegistry::instance(),
                                             "cache engine", *engine, {});
    for (const auto& p : engine_entry.schema.params) extra.push_back(p.name);
  }
  effective.validate(entry.schema, "system '" + system + "'", extra);
  (void)checked_entry(FetchPolicyRegistry::instance(), "fetch policy",
                      experiment.fetch_policy, experiment.fetch_params);
  (void)checked_entry(CollabRegistry::instance(), "collab tier",
                      experiment.collab, experiment.collab_params);
  // Building the tier's settings runs its own range checks now, not after
  // the deployment is built.
  (void)CollabRegistry::instance().create(experiment.collab, CollabContext{},
                                          experiment.collab_params);
  for (const ExperimentKey& key : experiment_key_rows()) {
    const char* broken = key.check ? key.check(experiment) : nullptr;
    if (broken != nullptr) {
      throw std::invalid_argument(key.info.name + " " + broken);
    }
  }
  experiment.scenario.validate();
}

std::string ExperimentSpec::label() const {
  const auto [name, effective] = resolve_system(system, params);
  std::string out = StrategyRegistry::instance().label(name, effective);
  // The fetch policy changes what is measured; surface it in every legend.
  if (experiment.fetch_policy != "none") {
    out += '+';
    out += FetchPolicyRegistry::instance().label(experiment.fetch_policy,
                                                 experiment.fetch_params);
  }
  // Same rule for the cooperative tier.
  if (experiment.collab != "none") {
    out += '+';
    out += CollabRegistry::instance().label(experiment.collab,
                                            experiment.collab_params);
  }
  return out;
}

std::string ExperimentSpec::to_json() const {
  std::string out = "{";
  for (const ExperimentKey& key : experiment_key_rows()) {
    const std::string value =
        key.json != nullptr ? key.json(experiment) : quoted(system);
    if (value.empty()) continue;
    out += (out.size() > 1 ? ",\n  " : "\n  ") + quoted(key.info.name) + ": " +
           value;
  }
  if (!params.empty()) {
    std::string members;
    for (const auto& [k, v] : params.entries()) {
      members += (members.empty() ? "" : ", ") + quoted(k) + ": " + quoted(v);
    }
    out += ",\n  \"params\": {" + members + "}";
  }
  return out + "\n}\n";
}

namespace {

/// A scalar, or an array of scalars joined with commas ("weights": [1,3,5]).
std::string value_text(const JsonValue& value) {
  if (value.is_array()) {
    std::string out;
    for (const auto& item : value.array) {
      if (!out.empty()) out += ',';
      out += item.as_param_text();
    }
    return out;
  }
  return value.as_param_text();
}

/// Route one JSON member onto a spec: "params" objects and "scenario"
/// arrays get structured handling, everything else goes through set().
void apply_member(ExperimentSpec& spec, const std::string& key,
                  const JsonValue& value) {
  if (key == "params" && value.is_object()) {
    for (const auto& [pk, pv] : value.object) {
      spec.params.set(pk, value_text(pv));
    }
    return;
  }
  if (key == "scenario" && value.is_array()) {
    spec.experiment.scenario = scenario::scenario_from_json(value);
    return;
  }
  spec.set(key, value_text(value));
}

void apply_members(ExperimentSpec& spec, const JsonValue& object) {
  for (const auto& [key, value] : object.object) {
    apply_member(spec, key, value);
  }
}

}  // namespace

ExperimentSpec spec_from_json_object(const JsonValue& object) {
  if (!object.is_object()) {
    throw std::invalid_argument("spec must be a JSON object");
  }
  ExperimentSpec spec;
  apply_members(spec, object);
  spec.validate();
  return spec;
}

std::vector<ExperimentSpec> parse_spec_json(const std::string& text) {
  const JsonValue doc = parse_json(text);
  if (!doc.is_object()) {
    throw std::invalid_argument("spec file: top level must be a JSON object");
  }

  ExperimentSpec base;
  for (const auto& [key, value] : doc.object) {
    if (key == "systems" || key == "sweep") continue;
    apply_member(base, key, value);
  }

  std::vector<ExperimentSpec> specs;
  const JsonValue* systems = doc.find("systems");
  if (systems != nullptr) {
    if (!systems->is_array()) {
      throw std::invalid_argument("spec file: 'systems' must be an array");
    }
    for (const auto& entry : systems->array) {
      ExperimentSpec spec = base;
      if (entry.kind == JsonValue::Kind::kString) {
        spec.set("system", entry.text);
      } else if (entry.is_object()) {
        apply_members(spec, entry);
      } else {
        throw std::invalid_argument(
            "spec file: 'systems' entries must be objects or system names");
      }
      specs.push_back(std::move(spec));
    }
  } else {
    specs.push_back(std::move(base));
  }

  const JsonValue* grid = doc.find("sweep");
  if (grid != nullptr) {
    if (!grid->is_object()) {
      throw std::invalid_argument("spec file: 'sweep' must be an object");
    }
    std::vector<std::pair<std::string, std::vector<std::string>>> dims;
    for (const auto& [key, values] : grid->object) {
      if (!values.is_array() || values.array.empty()) {
        throw std::invalid_argument("spec file: sweep '" + key +
                                    "' must be a non-empty array");
      }
      std::vector<std::string> texts;
      for (const auto& v : values.array) texts.push_back(value_text(v));
      dims.emplace_back(key, std::move(texts));
    }
    std::vector<ExperimentSpec> expanded;
    for (const auto& spec : specs) {
      auto grid_specs = sweep(spec, dims);
      expanded.insert(expanded.end(), grid_specs.begin(), grid_specs.end());
    }
    specs = std::move(expanded);
  }

  for (const auto& spec : specs) spec.validate();
  return specs;
}

std::vector<ExperimentSpec> load_spec_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::invalid_argument("cannot read spec file '" + path + "'");
  }
  std::ostringstream text;
  text << in.rdbuf();
  try {
    return parse_spec_json(text.str());
  } catch (const std::exception& e) {
    throw std::invalid_argument(path + ": " + e.what());
  }
}

std::vector<ExperimentSpec> sweep(
    const ExperimentSpec& base,
    const std::vector<std::pair<std::string, std::vector<std::string>>>&
        grid) {
  std::vector<ExperimentSpec> specs = {base};
  for (const auto& [key, values] : grid) {
    if (values.empty()) {
      throw std::invalid_argument("sweep dimension '" + key + "' is empty");
    }
    std::vector<ExperimentSpec> next;
    next.reserve(specs.size() * values.size());
    for (const auto& spec : specs) {
      for (const auto& value : values) {
        ExperimentSpec expanded = spec;
        expanded.set(key, value);
        next.push_back(std::move(expanded));
      }
    }
    specs = std::move(next);
  }
  return specs;
}

}  // namespace agar::api
