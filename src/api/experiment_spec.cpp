#include "api/experiment_spec.hpp"

#include <algorithm>
#include <cstdio>
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

std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

std::string join(const std::vector<std::string>& names) {
  std::string out;
  for (const auto& n : names) out += (out.empty() ? "" : " ") + n;
  return out;
}

RegionId region_id(const std::string& name) {
  const auto topology = sim::aws_six_regions();
  try {
    return topology.id_of(name);
  } catch (const std::exception&) {
    std::string known;
    for (RegionId r = 0; r < topology.num_regions(); ++r) {
      known += (known.empty() ? "" : " ") + topology.name(r);
    }
    throw std::invalid_argument("unknown region '" + name +
                                "' (known: " + known + ")");
  }
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

}  // namespace

const ParamSchema& ExperimentSpec::experiment_keys() {
  static const ParamSchema schema{{
      {"system", ParamType::kString, "agar",
       "system under test (any registered strategy or cache engine)"},
      {"workload", ParamType::kString, "zipf:1.1",
       "'uniform', 'zipf:<skew>' or a plain Zipf skew"},
      {"region", ParamType::kString, "frankfurt", "primary client region"},
      {"regions", ParamType::kString, "",
       "comma-separated client regions (one cache node per region)"},
      {"objects", ParamType::kSize, "300", "working-set size"},
      {"object_bytes", ParamType::kSize, "1MB", "object size"},
      {"ops", ParamType::kSize, "1000", "reads per run (all regions)"},
      {"runs", ParamType::kSize, "5", "independent runs"},
      {"clients", ParamType::kSize, "2", "closed-loop clients per region"},
      {"arrival_rate", ParamType::kDouble, "0",
       "open-loop Poisson reads/s per region (0 = closed loop)"},
      {"period_s", ParamType::kDouble, "30",
       "reconfiguration period in seconds (agar, lfu)"},
      {"seed", ParamType::kSize, "42", "RNG seed"},
      {"verify", ParamType::kBool, "false",
       "move real bytes and RS-decode every read"},
      {"max_outstanding", ParamType::kSize, "64",
       "per-region concurrent-fetch cap (0 = unlimited)"},
      {"decode_ms_per_mb", ParamType::kDouble, "10",
       "client decode cost per MB"},
      {"weights", ParamType::kSizeList, "1,3,5,7,9",
       "candidate option weights for agar"},
      {"rs_k", ParamType::kSize, "9", "Reed-Solomon data chunks"},
      {"rs_m", ParamType::kSize, "3", "Reed-Solomon parity chunks"},
      {"placement_offset", ParamType::kBool, "false",
       "rotate chunk placement per key"},
      {"window_ms", ParamType::kDouble, "0",
       "windowed time-series metric width in ms (0 = off)"},
      {"shards", ParamType::kSize, "1",
       "simulation worker threads (results identical for any value)"},
      {"fetch", ParamType::kString, "none",
       "fault-tolerant fetch policy (none, retry, hedge); parameters "
       "arrive namespaced as fetch.<param>"},
      {"collab", ParamType::kString, "none",
       "cooperative cache tier (none, broadcast); parameters arrive "
       "namespaced as collab.<param>"},
      {"scenario", ParamType::kString, "",
       "mid-run event script: \"at_ms event k=v ...; ...\" (JSON specs "
       "may use an array of {at_ms, event, ...} objects)"},
  }};
  return schema;
}

void ExperimentSpec::set(const std::string& key, const std::string& value) {
  // One-entry map so typed parses reuse the ParamMap diagnostics (the error
  // names the key and the offending value).
  ParamMap one;
  one.set(key, value);

  if (key == "system") {
    system = value;
  } else if (key == "workload") {
    experiment.workload = parse_workload(value);
  } else if (key == "region") {
    experiment.client_region = region_id(value);
    // Last writer wins: a multi-region list set earlier would otherwise
    // silently override this (effective_client_regions prefers the list).
    experiment.client_regions.clear();
  } else if (key == "regions") {
    std::vector<RegionId> regions;
    std::stringstream names(value);
    std::string name;
    while (std::getline(names, name, ',')) {
      if (name.empty()) continue;
      const RegionId region = region_id(name);
      // One lane per client region: a repeat would bind two lanes to the
      // first lane's network.
      if (std::find(regions.begin(), regions.end(), region) != regions.end()) {
        throw std::invalid_argument("'regions' lists '" + name + "' twice");
      }
      regions.push_back(region);
    }
    if (regions.empty()) {
      throw std::invalid_argument("'regions' needs at least one region name");
    }
    experiment.client_regions = regions;
    experiment.client_region = regions.front();
  } else if (key == "objects") {
    experiment.deployment.num_objects = one.get_size(key, 0);
  } else if (key == "object_bytes") {
    experiment.deployment.object_size_bytes = one.get_size(key, 0);
  } else if (key == "ops") {
    experiment.ops_per_run = one.get_size(key, 0);
  } else if (key == "runs") {
    experiment.runs = one.get_size(key, 0);
  } else if (key == "clients") {
    experiment.num_clients = one.get_size(key, 0);
  } else if (key == "arrival_rate") {
    experiment.arrival_rate_per_s = one.get_double(key, 0.0);
  } else if (key == "period_s") {
    experiment.reconfig_period_ms = one.get_double(key, 0.0) * 1000.0;
  } else if (key == "seed") {
    experiment.deployment.seed = one.get_size(key, 0);
  } else if (key == "verify") {
    experiment.verify_data = one.get_bool(key, false);
  } else if (key == "max_outstanding") {
    experiment.max_outstanding_per_region = one.get_size(key, 0);
  } else if (key == "decode_ms_per_mb") {
    experiment.decode_ms_per_mb = one.get_double(key, 0.0);
  } else if (key == "weights") {
    experiment.agar_candidate_weights = one.get_size_list(key, {});
  } else if (key == "rs_k") {
    experiment.deployment.codec.k = one.get_size(key, 0);
  } else if (key == "rs_m") {
    experiment.deployment.codec.m = one.get_size(key, 0);
  } else if (key == "placement_offset") {
    experiment.deployment.per_key_placement_offset = one.get_bool(key, false);
  } else if (key == "window_ms") {
    experiment.metric_window_ms = one.get_double(key, 0.0);
  } else if (key == "shards") {
    experiment.shards = one.get_size(key, 0);
  } else if (key == "scenario") {
    // Compact text form; "scenario=" clears. JSON spec files may instead
    // carry an array, which parse_spec_json routes around this setter.
    experiment.scenario = scenario::parse_scenario_text(value);
  } else if (key == "fetch") {
    experiment.fetch_policy = value.empty() ? "none" : value;
  } else if (key.rfind("fetch.", 0) == 0) {
    // Namespaced fetch-policy parameter ("fetch.retries=3"), prefix
    // stripped; schema-checked against the policy's entry in validate().
    const std::string sub = key.substr(6);
    if (value.empty()) {
      experiment.fetch_params.erase(sub);
    } else {
      experiment.fetch_params.set(sub, value);
    }
  } else if (key == "collab") {
    experiment.collab = value.empty() ? "none" : value;
  } else if (key.rfind("collab.", 0) == 0) {
    // Namespaced collab parameter ("collab.period_s=5"), prefix stripped;
    // schema-checked against the tier's registry entry in validate().
    const std::string sub = key.substr(7);
    if (value.empty()) {
      experiment.collab_params.erase(sub);
    } else {
      experiment.collab_params.set(sub, value);
    }
  } else if (value.empty()) {
    // "key=" clears a strategy param — lets a sweep/base spec drop a
    // parameter for systems that do not take it ("cache_bytes=" for
    // backend).
    params.erase(key);
  } else {
    // Strategy/engine parameter; schema-checked in validate().
    params.set(key, value);
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

/// Validate a control-plane selection (planner= / monitor=) against its
/// registry: the name must be registered, and the namespaced sub-params
/// ("planner.threshold") must match the entry's schema. The prefixed names
/// are appended to `extra` so the strategy-level validation accepts them.
template <typename Registry>
void validate_control_plane_pick(const Registry& registry,
                                 const ParamMap& effective,
                                 const std::string& key,
                                 const std::string& default_name,
                                 std::vector<std::string>& extra) {
  const std::string name = effective.get_string(key, default_name);
  if (!registry.contains(name)) {
    throw UnknownNameError("unknown " + key + " '" + name +
                               "' (known: " + join(registry.names()) + ")",
                           registry.names());
  }
  const auto& schema = registry.at(name).schema;
  effective.scoped(key + ".").validate(schema, key + " '" + name + "'");
  for (const auto& p : schema.params) extra.push_back(key + "." + p.name);
}

}  // namespace

void ExperimentSpec::validate() const {
  const auto [name, effective] = resolve_system(system, params);
  const auto& entry = StrategyRegistry::instance().at(name);
  std::vector<std::string> extra;
  // Systems that declare a planner/monitor parameter (Agar's control
  // plane) get those names resolved against the planner / estimator
  // registries, with typed validation of the namespaced sub-params.
  if (const ParamInfo* planner = entry.schema.find("planner")) {
    validate_control_plane_pick(PlannerRegistry::instance(), effective,
                                "planner", planner->default_value, extra);
  }
  if (const ParamInfo* monitor = entry.schema.find("monitor")) {
    validate_control_plane_pick(EstimatorRegistry::instance(), effective,
                                "monitor", monitor->default_value, extra);
  }
  const auto engine = effective.raw("engine");
  if (engine.has_value()) {
    // Fail at spec time, not mid-comparison: an explicit
    // system=fixed-chunks engine=<typo> reaches here unresolved.
    const auto& engines = EngineRegistry::instance();
    if (!engines.contains(*engine)) {
      throw UnknownNameError("unknown cache engine '" + *engine +
                                 "' (known: " + join(engines.names()) + ")",
                             engines.names());
    }
    // Engine-specific params (sketch_width, ...) ride along with the
    // adapter's own schema.
    for (const auto& p : engines.at(*engine).schema.params) {
      extra.push_back(p.name);
    }
  }
  effective.validate(entry.schema, "system '" + system + "'", extra);
  {
    const auto& fetches = FetchPolicyRegistry::instance();
    if (!fetches.contains(experiment.fetch_policy)) {
      throw UnknownNameError("unknown fetch policy '" +
                                 experiment.fetch_policy +
                                 "' (known: " + join(fetches.names()) + ")",
                             fetches.names());
    }
    experiment.fetch_params.validate(
        fetches.at(experiment.fetch_policy).schema,
        "fetch policy '" + experiment.fetch_policy + "'");
  }
  {
    const auto& collabs = CollabRegistry::instance();
    if (!collabs.contains(experiment.collab)) {
      throw UnknownNameError("unknown collab tier '" + experiment.collab +
                                 "' (known: " + join(collabs.names()) + ")",
                             collabs.names());
    }
    experiment.collab_params.validate(
        collabs.at(experiment.collab).schema,
        "collab tier '" + experiment.collab + "'");
    // Building the tier's settings runs its own range checks now, not
    // after the deployment is built.
    (void)collabs.create(experiment.collab, CollabContext{},
                         experiment.collab_params);
  }
  if (experiment.deployment.codec.k == 0 ||
      experiment.deployment.codec.m == 0) {
    throw std::invalid_argument("rs_k and rs_m must be >= 1");
  }
  // Negated comparisons so a NaN set through the typed fields fails too.
  if (!(experiment.reconfig_period_ms > 0.0)) {
    throw std::invalid_argument("period_s must be > 0");
  }
  if (!(experiment.decode_ms_per_mb >= 0.0)) {
    throw std::invalid_argument("decode_ms_per_mb must be >= 0");
  }
  if (!(experiment.arrival_rate_per_s >= 0.0)) {
    throw std::invalid_argument("arrival_rate must be >= 0");
  }
  if (experiment.metric_window_ms < 0.0) {
    throw std::invalid_argument("window_ms must be >= 0");
  }
  if (experiment.shards < 1) {
    throw std::invalid_argument("shards must be >= 1");
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
  const auto topology = sim::aws_six_regions();
  std::ostringstream out;
  out << "{\n  \"system\": \"" << json_escape(system) << "\",\n";
  const auto& e = experiment;
  out << "  \"workload\": \""
      << (e.workload.kind == client::WorkloadSpec::Kind::kUniform
              ? std::string("uniform")
              : "zipf:" + fmt_double(e.workload.zipf_skew))
      << "\",\n";
  if (e.client_regions.empty()) {
    out << "  \"region\": \"" << topology.name(e.client_region) << "\",\n";
  } else {
    out << "  \"regions\": [";
    for (std::size_t i = 0; i < e.client_regions.size(); ++i) {
      out << (i > 0 ? ", " : "") << "\"" << topology.name(e.client_regions[i])
          << "\"";
    }
    out << "],\n";
  }
  out << "  \"objects\": " << e.deployment.num_objects << ",\n"
      << "  \"object_bytes\": " << e.deployment.object_size_bytes << ",\n"
      << "  \"ops\": " << e.ops_per_run << ",\n"
      << "  \"runs\": " << e.runs << ",\n"
      << "  \"clients\": " << e.num_clients << ",\n"
      << "  \"arrival_rate\": " << fmt_double(e.arrival_rate_per_s) << ",\n"
      << "  \"period_s\": " << fmt_double(e.reconfig_period_ms / 1000.0)
      << ",\n"
      << "  \"seed\": " << e.deployment.seed << ",\n"
      << "  \"verify\": " << (e.verify_data ? "true" : "false") << ",\n"
      << "  \"max_outstanding\": " << e.max_outstanding_per_region << ",\n"
      << "  \"decode_ms_per_mb\": " << fmt_double(e.decode_ms_per_mb) << ",\n"
      << "  \"weights\": [";
  for (std::size_t i = 0; i < e.agar_candidate_weights.size(); ++i) {
    out << (i > 0 ? ", " : "") << e.agar_candidate_weights[i];
  }
  out << "],\n"
      << "  \"rs_k\": " << e.deployment.codec.k << ",\n"
      << "  \"rs_m\": " << e.deployment.codec.m << ",\n"
      << "  \"placement_offset\": "
      << (e.deployment.per_key_placement_offset ? "true" : "false");
  if (e.metric_window_ms > 0.0) {
    out << ",\n  \"window_ms\": " << fmt_double(e.metric_window_ms);
  }
  // Emitted only when sharded: the default spec JSON (and its goldens)
  // stays unchanged, and shards never affect results anyway.
  if (e.shards != 1) {
    out << ",\n  \"shards\": " << e.shards;
  }
  // Same default-elision as shards: fetch=none specs serialize exactly as
  // they did before the knob existed.
  if (e.fetch_policy != "none") {
    out << ",\n  \"fetch\": \"" << json_escape(e.fetch_policy) << "\"";
    for (const auto& [k, v] : e.fetch_params.entries()) {
      out << ",\n  \"fetch." << json_escape(k) << "\": \"" << json_escape(v)
          << "\"";
    }
  }
  if (e.collab != "none") {
    out << ",\n  \"collab\": \"" << json_escape(e.collab) << "\"";
    for (const auto& [k, v] : e.collab_params.entries()) {
      out << ",\n  \"collab." << json_escape(k) << "\": \"" << json_escape(v)
          << "\"";
    }
  }
  if (!e.scenario.empty()) {
    out << ",\n  \"scenario\": " << e.scenario.to_json("  ");
  }
  if (!params.empty()) {
    out << ",\n  \"params\": {";
    const auto& entries = params.entries();
    for (std::size_t i = 0; i < entries.size(); ++i) {
      out << (i > 0 ? ", " : "") << "\"" << json_escape(entries[i].first)
          << "\": \"" << json_escape(entries[i].second) << "\"";
    }
    out << "}";
  }
  out << "\n}\n";
  return out.str();
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
