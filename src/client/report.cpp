#include "client/report.hpp"

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <sstream>

namespace agar::client {

std::string format_table(const std::vector<std::string>& headers,
                         const std::vector<std::vector<std::string>>& rows) {
  std::vector<std::size_t> widths(headers.size());
  for (std::size_t i = 0; i < headers.size(); ++i) {
    widths[i] = headers[i].size();
  }
  for (const auto& row : rows) {
    for (std::size_t i = 0; i < row.size() && i < widths.size(); ++i) {
      widths[i] = std::max(widths[i], row[i].size());
    }
  }

  std::ostringstream out;
  auto emit_row = [&](const std::vector<std::string>& cells) {
    for (std::size_t i = 0; i < widths.size(); ++i) {
      const std::string& cell = i < cells.size() ? cells[i] : "";
      out << "| " << cell << std::string(widths[i] - cell.size() + 1, ' ');
    }
    out << "|\n";
  };
  auto emit_rule = [&] {
    for (const std::size_t w : widths) {
      out << "+" << std::string(w + 2, '-');
    }
    out << "+\n";
  };

  emit_rule();
  emit_row(headers);
  emit_rule();
  for (const auto& row : rows) emit_row(row);
  emit_rule();
  return out.str();
}

std::string fmt_ms(double ms) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f", ms);
  return buf;
}

std::string fmt_pct(double fraction) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f%%", fraction * 100.0);
  return buf;
}

void print_results_table(const std::vector<ExperimentResult>& results) {
  std::vector<std::vector<std::string>> rows;
  rows.reserve(results.size());
  for (const auto& r : results) {
    rows.push_back({
        r.label,
        fmt_ms(r.mean_latency_ms()),
        fmt_ms(r.stddev_of_means()),
        fmt_ms(r.percentile_ms(50)),
        fmt_ms(r.percentile_ms(95)),
        fmt_pct(r.hit_ratio()),
        fmt_pct(r.full_hit_ratio()),
        fmt_ms(r.mean_throughput_ops_per_s()),
        std::to_string(r.total_coalesced_fetches()),
    });
  }
  std::cout << format_table({"system", "avg latency (ms)", "stddev", "p50",
                             "p95", "hit ratio", "full hits", "ops/s",
                             "coalesced"},
                            rows);
}

std::string results_json(const std::vector<ExperimentResult>& results) {
  std::ostringstream out;
  auto num = [](double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    return std::string(buf);
  };
  out << "[";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    if (i > 0) out << ",";
    out << "\n  {\"system\": \"" << r.label << "\""
        << ", \"mean_latency_ms\": " << num(r.mean_latency_ms())
        << ", \"stddev_ms\": " << num(r.stddev_of_means())
        << ", \"p50_ms\": " << num(r.percentile_ms(50))
        << ", \"p95_ms\": " << num(r.percentile_ms(95))
        << ", \"p99_ms\": " << num(r.percentile_ms(99))
        << ", \"hit_ratio\": " << num(r.hit_ratio())
        << ", \"full_hit_ratio\": " << num(r.full_hit_ratio())
        << ", \"throughput_ops_per_s\": " << num(r.mean_throughput_ops_per_s())
        << ", \"total_ops\": " << r.total_ops()
        << ", \"wire_fetches\": " << r.total_wire_fetches()
        << ", \"coalesced_fetches\": " << r.total_coalesced_fetches()
        << ", \"runs\": [";
    for (std::size_t j = 0; j < r.runs.size(); ++j) {
      const auto& run = r.runs[j];
      if (j > 0) out << ",";
      out << "\n    {\"ops\": " << run.ops
          << ", \"mean_latency_ms\": " << num(run.mean_latency_ms())
          << ", \"duration_ms\": " << num(run.duration_ms)
          << ", \"throughput_ops_per_s\": " << num(run.throughput_ops_per_s())
          << ", \"full_hits\": " << run.full_hits
          << ", \"partial_hits\": " << run.partial_hits
          << ", \"failed_reads\": " << run.failed_reads
          << ", \"degraded_reads\": " << run.degraded_reads
          << ", \"scenario_events\": " << run.scenario_events_fired
          << ", \"wire_fetches\": " << run.wire_fetches
          << ", \"coalesced_fetches\": " << run.coalesced_fetches
          << ", \"queued_fetches\": " << run.queued_fetches
          << ", \"max_queue_depth\": " << run.max_queue_depth
          << ", \"max_net_in_flight\": " << run.max_net_in_flight
          << ", \"max_reads_in_flight\": " << run.max_reads_in_flight
          // Failed wire fetches split by mode: outage aborts, FIFO kills,
          // gray-drop timeouts.
          << ", \"fetch_failures\": {\"aborted_on_wire\": "
          << run.aborted_on_wire
          << ", \"failed_in_queue\": " << run.failed_in_queue
          << ", \"timed_out\": " << run.timed_out_fetches << "}"
          // Full cache counter set (admission/rejection/eviction telemetry)
          // plus the codec's decode-plan cache, so bench JSON captures the
          // whole instrumented data plane.
          << ", \"cache\": {\"hits\": " << run.cache_stats.hits
          << ", \"misses\": " << run.cache_stats.misses
          << ", \"puts\": " << run.cache_stats.puts
          << ", \"admissions\": " << run.cache_stats.admissions
          << ", \"rejections\": " << run.cache_stats.rejections
          << ", \"evictions\": " << run.cache_stats.evictions
          << ", \"used_bytes\": " << run.cache_used_bytes << "}"
          << ", \"decode_plan\": {\"hits\": " << run.decode_plan_hits
          << ", \"misses\": " << run.decode_plan_misses << "}"
          // Control-plane telemetry: planner timing (wall clock — the
          // golden diffs normalize it) and config churn.
          << ", \"control_plane\": {\"reconfigurations\": "
          << run.reconfigurations
          << ", \"planning_ms\": " << num(run.planning_ms)
          << ", \"chunks_installed\": " << run.config_chunks_installed
          << ", \"chunks_evicted\": " << run.config_chunks_evicted << "}";
      // Configured objects per option weight (Fig. 10): present only for
      // systems that hold a configuration (Agar, LFU-c).
      if (!run.weight_histogram.empty()) {
        out << ", \"weight_histogram\": {";
        bool first = true;
        for (const auto& [weight, objects] : run.weight_histogram) {
          out << (first ? "" : ", ") << "\"" << weight << "\": " << objects;
          first = false;
        }
        out << "}";
      }
      // Fetch-policy telemetry: present only when a policy ran (the
      // region_success_ewma vector is empty under fetch=none).
      if (!run.region_success_ewma.empty()) {
        out << ", \"fetch\": {\"attempts\": " << run.fetch_attempts
            << ", \"timeouts\": " << run.fetch_timeouts
            << ", \"retries\": " << run.fetch_retries
            << ", \"hedges_issued\": " << run.hedges_issued
            << ", \"hedges_won\": " << run.hedges_won
            << ", \"hedges_wasted\": " << run.hedges_wasted
            << ", \"exhausted\": " << run.fetch_exhausted
            << ", \"region_success_ewma\": [";
        for (std::size_t e = 0; e < run.region_success_ewma.size(); ++e) {
          out << (e > 0 ? ", " : "") << num(run.region_success_ewma[e]);
        }
        out << "]}";
      }
      // Cooperative-tier telemetry: present only when a CollabRuntime ran
      // (collab=none stays byte-identical to the pre-collab format).
      if (run.collab_active) {
        out << ", \"collab\": {\"peer_hits\": " << run.collab_peer_hits
            << ", \"peer_misses\": " << run.collab_peer_misses
            << ", \"bytes_from_peers\": " << run.collab_bytes_from_peers
            << ", \"bytes_from_backend\": " << run.collab_bytes_from_backend
            << ", \"stale_config_reads\": " << run.stale_config_reads
            << ", \"paxos_appends\": " << run.paxos_appends
            << ", \"paxos_append_failures\": " << run.paxos_append_failures
            << ", \"paxos_append_p50_ms\": " << num(run.paxos_append_p50_ms)
            << ", \"paxos_append_p99_ms\": " << num(run.paxos_append_p99_ms)
            << ", \"config_epochs\": " << run.config_epochs
            << ", \"config_overlap\": " << num(run.config_overlap) << "}";
      }
      // Windowed time series (scenario runs with window_ms set): the
      // per-window latency/hit/failure shape adaptation is judged by.
      if (!run.windows.empty()) {
        out << ", \"windows\": [";
        for (std::size_t w = 0; w < run.windows.size(); ++w) {
          const auto& win = run.windows[w];
          if (w > 0) out << ",";
          out << "\n      {\"start_ms\": " << num(win.start_ms)
              << ", \"end_ms\": " << num(win.end_ms)
              << ", \"ops\": " << win.ops
              << ", \"mean_ms\": " << num(win.mean_ms)
              << ", \"p50_ms\": " << num(win.p50_ms)
              << ", \"p99_ms\": " << num(win.p99_ms)
              << ", \"hit_ratio\": " << num(win.hit_ratio())
              << ", \"full_hits\": " << win.full_hits
              << ", \"partial_hits\": " << win.partial_hits
              << ", \"failed_reads\": " << win.failed_reads
              << ", \"degraded_reads\": " << win.degraded_reads;
          if (run.collab_active) {
            out << ", \"collab_peer_hits\": " << win.collab_peer_hits
                << ", \"collab_stale_reads\": " << win.collab_stale_reads;
          }
          out << "}";
        }
        out << "\n    ]";
      }
      out << "}";
    }
    out << "\n  ]}";
  }
  out << "\n]\n";
  return out.str();
}

}  // namespace agar::client
