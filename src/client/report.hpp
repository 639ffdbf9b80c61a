// Plain-text reporting for the benchmark harness: aligned tables plus the
// paper-figure framing (experiment id, workload, expected shape).
#pragma once

#include <string>
#include <vector>

#include "client/runner.hpp"

namespace agar::client {

/// Render an aligned table. `rows` are already-formatted cells.
[[nodiscard]] std::string format_table(
    const std::vector<std::string>& headers,
    const std::vector<std::vector<std::string>>& rows);

/// One row per strategy: label, mean latency, stddev, p50/p95, hit ratios,
/// throughput and coalescing counters.
void print_results_table(const std::vector<ExperimentResult>& results);

/// Machine-readable variant for bench harnesses: a JSON array with one
/// object per strategy, per-run results nested inside.
[[nodiscard]] std::string results_json(
    const std::vector<ExperimentResult>& results);

/// Format helpers.
[[nodiscard]] std::string fmt_ms(double ms);
[[nodiscard]] std::string fmt_pct(double fraction);

}  // namespace agar::client
