// Spec-driven experiment execution: turn a declarative ExperimentSpec into
// a strategy factory via the registries, run it on the simulator, and hand
// back the results with a registry-derived label attached.
#pragma once

#include <string>
#include <vector>

#include "api/experiment_spec.hpp"
#include "client/runner.hpp"

namespace agar::api {

/// Outcome of one spec: the spec as run plus the aggregated result (the
/// result's `label` is the registry-derived display name).
struct RunReport {
  ExperimentSpec spec;
  client::ExperimentResult result;

  [[nodiscard]] const std::string& label() const { return result.label; }
};

/// Build the strategy factory a spec describes. The returned callable keeps
/// a copy of the spec's system/params and reads experiment-level knobs from
/// the config passed at call time, so it can outlive the spec.
[[nodiscard]] client::StrategyFactory make_strategy_factory(
    const ExperimentSpec& spec);

/// Validate and run one spec (all runs).
[[nodiscard]] RunReport run(const ExperimentSpec& spec);

/// Run several specs; identical experiment shapes replay identical seeds,
/// so reports are directly comparable.
[[nodiscard]] std::vector<RunReport> run_all(
    const std::vector<ExperimentSpec>& specs);

/// The results of several reports (for client::print_results_table /
/// client::results_json).
[[nodiscard]] std::vector<client::ExperimentResult> results_of(
    const std::vector<RunReport>& reports);

}  // namespace agar::api
