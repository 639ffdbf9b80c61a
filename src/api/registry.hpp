// String-keyed, self-registering factories — the open replacement for the
// old closed `StrategySpec::Kind` enum.
//
// Six registries exist, each an api::Registry<Product, Context>:
//   * api::EngineRegistry — replacement/admission policies
//     ("lru", "lfu", "tinylfu", "arc", ...), built against a byte capacity;
//   * api::StrategyRegistry — whole client systems
//     ("backend", "lfu", "agar", "fixed-chunks", ...), built against one
//     region's client wiring;
//   * api::PlannerRegistry — reconfiguration solvers
//     ("knapsack-dp", "greedy", "brute-force", "incremental"), selected
//     with the `planner=` spec key;
//   * api::EstimatorRegistry — popularity tracking behind
//     the request monitor ("exact-ewma", "count-min"), selected with the
//     `monitor=` spec key;
//   * api::FetchPolicyRegistry — fault-tolerant fetch wrappers
//     ("none", "retry", "hedge"), selected with the `fetch=` spec key;
//   * api::CollabRegistry — cooperative cache tier modes
//     ("none", "broadcast"), selected with the `collab=` spec key.
//
// Each entry carries a factory, a one-line description, a self-describing
// ParamSchema, and a label formatter, so `--list` output, bench legends and
// JSON report labels all derive from the same registration. A default is
// written once, in the schema: `create` and `label` fill it in before the
// factory or label formatter reads the params. A factory may return null:
// the "none" fetch policy and the "none" collab tier build nothing, and
// their callers take a null product to mean "off". Entries register
// themselves from their own translation unit at static-init time:
//
//   namespace {
//   const api::EngineRegistration kArc{{
//       "arc", "ARC", "adaptive replacement cache (recency+frequency)",
//       {{"..."}, ...},
//       [](const api::EngineContext& ctx, const api::ParamMap&) {
//         return std::make_unique<ArcCache>(ctx.capacity_bytes);
//       }}};
//   }  // namespace
//
// — no enum to extend, no switch to edit, no CLI/bench plumbing to touch.
// (The library is linked as a CMake OBJECT library so registration objects
// in otherwise-unreferenced translation units are never stripped.)
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/param_map.hpp"
#include "common/types.hpp"

namespace agar::cache {
class CacheEngine;
}
namespace agar::client {
class ReadStrategy;
class FetchPolicy;
struct ClientContext;
struct ExperimentConfig;
}  // namespace agar::client
namespace agar::collab {
struct CollabSettings;
}
namespace agar::core {
class Planner;
class PopularityEstimator;
}  // namespace agar::core
namespace agar::sim {
class EventLoop;
class Network;
}  // namespace agar::sim

namespace agar::api {

/// Lookup of a name nobody registered. Carries the sorted known names so
/// callers (CLI, spec validation) print actionable diagnostics.
class UnknownNameError : public std::invalid_argument {
 public:
  UnknownNameError(const std::string& what, std::vector<std::string> known)
      : std::invalid_argument(what), known_(std::move(known)) {}
  [[nodiscard]] const std::vector<std::string>& known_names() const {
    return known_;
  }

 private:
  std::vector<std::string> known_;
};

/// What an engine factory gets to work with.
struct EngineContext {
  std::size_t capacity_bytes = 0;
  /// The deployment's object keys by id (BackendCluster::keys()), for an
  /// engine that hashes chunks by name; it must outlive the engine. Only
  /// tinylfu needs them.
  const std::vector<ObjectKey>* object_keys = nullptr;
};

/// What a strategy factory gets to work with: the per-region client wiring
/// plus the experiment-level knobs (reconfiguration period, candidate
/// weights, ...).
struct StrategyContext {
  const client::ClientContext* client = nullptr;
  const client::ExperimentConfig* experiment = nullptr;
};

/// What a planner factory gets to work with. Planners are pure solvers —
/// everything problem-specific arrives with each plan() call — so the
/// context is empty today; it exists so new wiring (e.g. a time source)
/// never changes factory signatures.
struct PlannerContext {};

/// What a popularity-estimator factory gets to work with: the monitor's
/// EWMA weighting (an experiment-level knob, not an estimator param).
struct EstimatorContext {
  double ewma_alpha = 0.8;
};

/// What a fetch-policy factory gets to work with: the region's network (the
/// policy wraps its begin_fetch and reads its latency model for timeout
/// sizing) and a seed for the policy's own deterministic jitter stream
/// (already mixed per region by the caller, so shard packing cannot change
/// the draws).
struct FetchPolicyContext {
  sim::Network* network = nullptr;
  std::uint64_t seed = 0;
};

/// What a collab factory gets to work with. The product is a parsed
/// settings struct, not a live object — the runner builds the per-run
/// collab::CollabRuntime itself (it needs the engine and lane wiring that
/// only exist mid-run) — so the context is empty today.
struct CollabContext {};

/// The registry of `Product` factories that receive a `Context`.
template <typename Product, typename Context>
class Registry {
 public:
  using Factory =
      std::function<std::unique_ptr<Product>(const Context&, const ParamMap&)>;
  using LabelFn = std::function<std::string(const ParamMap&)>;

  struct Entry {
    std::string name;         ///< registry key ("lru", "agar", ...)
    std::string display;      ///< label stem ("LRU", "Agar", ...)
    std::string description;  ///< one line for --list
    ParamSchema schema;
    Factory factory;
    /// Full label for a parameterization; null means `display` alone.
    LabelFn label_fn;
  };

  /// The process-wide registry (construct-on-first-use, so registrations
  /// from any translation unit's static initializers are safe).
  static Registry& instance() {
    // agar-lint: global-ok(process-wide registry; mutated only by static
    // registration objects before main, read-only afterwards)
    static Registry registry;
    return registry;
  }

  /// Register an entry. Throws on a duplicate name — two policies silently
  /// shadowing each other is exactly the drift this layer exists to kill.
  void add(Entry entry) {
    if (entry.name.empty()) {
      throw std::invalid_argument("registry: empty name");
    }
    if (!entry.factory) {
      throw std::invalid_argument("registry: '" + entry.name +
                                  "' has no factory");
    }
    const auto [it, inserted] = entries_.emplace(entry.name, std::move(entry));
    if (!inserted) {
      throw std::invalid_argument("registry: duplicate registration of '" +
                                  it->first + "'");
    }
  }

  [[nodiscard]] bool contains(const std::string& name) const {
    return entries_.count(name) != 0;
  }

  [[nodiscard]] const Entry& at(const std::string& name) const {
    const auto it = entries_.find(name);
    if (it == entries_.end()) {
      std::string list;
      for (const auto& [n, e] : entries_) list += (list.empty() ? "" : " ") + n;
      throw UnknownNameError("unknown name '" + name + "' (known: " + list +
                             ")",
                             names());
    }
    return it->second;
  }

  /// Build `name`'s product from `params` plus the schema's defaults.
  [[nodiscard]] std::unique_ptr<Product> create(const std::string& name,
                                                const Context& context,
                                                const ParamMap& params) const {
    const Entry& entry = at(name);
    return entry.factory(context, params.with_defaults(entry.schema));
  }

  /// Label for one parameterization — THE single source every legend, CLI
  /// listing and JSON report goes through; it sees the factory's params.
  [[nodiscard]] std::string label(const std::string& name,
                                  const ParamMap& params) const {
    const Entry& entry = at(name);
    if (entry.label_fn) {
      return entry.label_fn(params.with_defaults(entry.schema));
    }
    return entry.display.empty() ? entry.name : entry.display;
  }

  /// Registered names, sorted.
  [[nodiscard]] std::vector<std::string> names() const {
    std::vector<std::string> out;
    out.reserve(entries_.size());
    for (const auto& [name, entry] : entries_) out.push_back(name);
    return out;
  }

 private:
  std::map<std::string, Entry> entries_;
};

using EngineRegistry = Registry<cache::CacheEngine, EngineContext>;
using StrategyRegistry = Registry<client::ReadStrategy, StrategyContext>;
using PlannerRegistry = Registry<core::Planner, PlannerContext>;
using EstimatorRegistry = Registry<core::PopularityEstimator, EstimatorContext>;
using FetchPolicyRegistry = Registry<client::FetchPolicy, FetchPolicyContext>;
using CollabRegistry = Registry<collab::CollabSettings, CollabContext>;

/// Static-init registration helper:
///   namespace { const api::EngineRegistration kReg{{...}}; }
template <typename R>
struct Registration {
  explicit Registration(typename R::Entry entry) {
    R::instance().add(std::move(entry));
  }
};
using EngineRegistration = Registration<EngineRegistry>;
using StrategyRegistration = Registration<StrategyRegistry>;
using PlannerRegistration = Registration<PlannerRegistry>;
using EstimatorRegistration = Registration<EstimatorRegistry>;
using FetchPolicyRegistration = Registration<FetchPolicyRegistry>;
using CollabRegistration = Registration<CollabRegistry>;

}  // namespace agar::api
