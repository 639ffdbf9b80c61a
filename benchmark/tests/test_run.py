"""Self-tests for the benchmark's own logic (benchmark/run.py).

    python3 -m unittest discover -s benchmark/tests
"""

import importlib.util
import json
import math
import os
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
_spec = importlib.util.spec_from_file_location(
    "bench_run", os.path.join(HERE, os.pardir, "run.py"))
run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run)


def results_json(label="Agar", planning_ms=12.5, mean=400.0, ops=2000,
                 collab=False, fetch=False):
    """A results_json document shaped like client::results_json's."""
    one = {
        "ops": ops, "mean_latency_ms": mean, "duration_ms": 1e5,
        "throughput_ops_per_s": 20.0, "full_hits": 300, "partial_hits": 900,
        "failed_reads": 0, "degraded_reads": 0, "scenario_events": 0,
        "wire_fetches": 9000, "coalesced_fetches": 40, "queued_fetches": 0,
        "max_queue_depth": 0, "max_net_in_flight": 9,
        "max_reads_in_flight": 2,
        "fetch_failures": {"aborted_on_wire": 0, "failed_in_queue": 0,
                           "timed_out": 0},
        "cache": {"hits": 6000, "misses": 9000, "puts": 10, "admissions": 10,
                  "rejections": 0, "evictions": 5, "used_bytes": 10 << 20},
        "decode_plan": {"hits": 0, "misses": 0},
        "control_plane": {"reconfigurations": 30, "planning_ms": planning_ms,
                          "chunks_installed": 100, "chunks_evicted": 90},
    }
    if fetch:
        one["fetch"] = {"attempts": 9100, "timeouts": 3, "retries": 3,
                        "hedges_issued": 10, "hedges_won": 7,
                        "hedges_wasted": 0, "exhausted": 0,
                        "region_success_ewma": [1, 1, 1, 1, 1, 1]}
    if collab:
        one["collab"] = {"peer_hits": 5, "peer_misses": 95,
                         "bytes_from_peers": 50, "bytes_from_backend": 950,
                         "stale_config_reads": 1, "paxos_appends": 30,
                         "paxos_append_failures": 0,
                         "paxos_append_p50_ms": 400.0,
                         "paxos_append_p99_ms": 900.0, "config_epochs": 30,
                         "config_overlap": 0.1}
    return json.dumps([{
        "system": label, "mean_latency_ms": mean, "stddev_ms": 0,
        "p50_ms": 300.0, "p95_ms": 1100.0, "p99_ms": 1250.0,
        "hit_ratio": 0.6, "full_hit_ratio": 0.15,
        "throughput_ops_per_s": 20.0, "total_ops": ops, "wire_fetches": 9000,
        "coalesced_fetches": 40, "runs": [one]}])


def batch_measurement(traced, geo=False):
    runs = [{"read_s": 1.0 + i / 10, "user_s": 0.9,
             "sys_s": 0.1, "ops": 2000, "verified": 0, "failed_reads": 0,
             "results_json": results_json(planning_ms=10 + i, collab=geo,
                                          fetch=geo)}
            for i in range(3)]
    trace = {"empty_plans": 0, "plan_s": 0.1, "plan_max_s": 0.01,
             "plan_units_max": 89, "monitor_s": 0.05,
             "ec_decode_us": [300.0, 310.0], "ec_check_us": [200.0, 210.0]}
    return {"setup": {"deployment_s": [0.1, 0.2, 0.3],
                      "strategy_s": [0.01, 0.02, 0.03], "stored_bytes": 0},
            "runs": runs, "peak_rss_mb": 20.0,
            "traces": [trace] * 3 if traced else []}


def daemon_raw(n_open=2000, failed_open=0):
    def stats(sent, tagged):
        return {"sent": sent, "tagged": tagged, "ok": sent, "not_ok": 0,
                "transport_errors": 0, "payload_bytes": 65536 * 10,
                "payload_mismatch": 0, "first_error": ""}
    due = [i * 100.0 for i in range(n_open)]
    return {
        "start_s": [0.003, 0.002, 0.004],
        "warm": stats(100, 90),
        "closed": {"wall_s": 1.0, "stats": stats(1500, 1350),
                   "rtt_us": [40.0] * 1500, "service_us": [18.0] * 1500},
        "open": {"seconds": n_open * 100e-6,
                 "scheduled": n_open, "stats": stats(n_open, n_open - 200),
                 "due_us": due, "picked_us": due,
                 "send_us": [d + 0.5 for d in due],
                 "reply_us": [d + 60.0 for d in due],
                 "ok": [1.0] * (n_open - failed_open) + [0.0] * failed_open},
        "metrics": {
            "daemon": {"gets": 100 + 1500 + n_open, "no_route": 0,
                       "unknown_key": 0, "failed_reads": 0,
                       "protocol_errors": 0},
            "results": [
                json.loads(results_json(ops=90 + 1350 + n_open - 200))[0],
                json.loads(results_json(label="LRU-5", ops=10 + 150 + 200))[0],
            ],
        },
        "replay": {"inproc_us": [12.0] * 1500, "codec_ns": 2000.0,
                   "match_ns": 20.0, "codec_bytes": 1},
    }


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(100, 0, -1))  # unsorted input
        self.assertEqual(run.percentile(values, 50), 50)
        self.assertEqual(run.percentile(values, 99), 99)
        self.assertEqual(run.percentile(values, 100), 100)
        self.assertEqual(run.percentile([7.0], 99), 7.0)

    def test_ten_samples_beyond_rule(self):
        self.assertEqual(run.samples_beyond(1000, 99), 10)
        self.assertEqual(run.samples_beyond(999, 99), 9)
        self.assertEqual(run.samples_beyond(100, 90), 10)
        self.assertEqual(run.tail_percentile(list(range(1000)), 99, "x"), 989)
        with self.assertRaises(run.CheckFailed):
            run.tail_percentile(list(range(999)), 99, "x")

    def test_percentile_of_nothing_is_an_error(self):
        with self.assertRaises(ValueError):
            run.percentile([], 50)


class OpenLoopTest(unittest.TestCase):
    def test_latency_runs_from_due_time(self):
        lat = run.due_time_latencies_us([100.0, 200.0], [150.0, 400.0],
                                        [1.0, 1.0])
        self.assertEqual(lat, [50.0, 200.0])

    def test_failed_request_is_beyond_any_limit(self):
        lat = run.due_time_latencies_us([0.0] * 1000, [10.0] * 1000,
                                        [1.0] * 980 + [0.0] * 20)
        self.assertTrue(math.isinf(run.percentile(lat, 99)))
        self.assertEqual(run.percentile(lat, 50), 10.0)

    def test_generator_lag_excludes_waiting_for_a_busy_connection(self):
        # Due at 100, connection free at 50, sent at 120: 20 us late.
        # Due at 100, connection free only at 150, sent at 151: 1 us late.
        self.assertEqual(run.generator_lag_us([100.0, 100.0], [50.0, 150.0],
                                              [120.0, 151.0]), [20.0, 1.0])

    def test_backlog_counts_due_but_unsent(self):
        due = [0.0, 10.0, 20.0, 30.0]
        sent = [1.0, 25.0, 26.0, 31.0]
        self.assertEqual(run.backlogs([22.0, 40.0], due, sent), [2, 0])

    def test_failed_open_loop_requests_push_p99_to_infinity(self):
        raw = daemon_raw(failed_open=30)
        layers, _ = run.daemon_layers(raw)
        self.assertTrue(math.isinf(layers["daemon.wall_us.p99"]))

    def test_generator_lag_past_limit_invalidates_phase(self):
        raw = daemon_raw()
        late = run.GEN_LAG_P99_LIMIT_US + 500.0
        raw["open"]["send_us"] = [d + late for d in raw["open"]["due_us"]]
        with self.assertRaises(run.CheckFailed):
            run.daemon_layers(raw)

    def test_backlog_that_drains_is_valid_and_one_that_grows_is_not(self):
        raw = daemon_raw()
        o = raw["open"]
        # A 100-request queue early on that drains by the last quarter.
        o["send_us"] = [max(d, 20000.0) if d < 20000.0 else d
                        for d in o["due_us"]]
        o["picked_us"] = list(o["send_us"])
        run.daemon_layers(raw)
        # Every send from the middle on 30 ms late: the queue never drains.
        o["send_us"] = [d + 30000.0 if d > 100000.0 else d
                        for d in o["due_us"]]
        o["picked_us"] = list(o["send_us"])
        with self.assertRaises(run.CheckFailed):
            run.daemon_layers(raw)


class NormalizationTest(unittest.TestCase):
    def test_label_and_planning_time_are_ignored(self):
        a = results_json(label="Agar", planning_ms=10.0)
        b = results_json(label="Agar[traced-knapsack-dp,traced-exact-ewma]",
                         planning_ms=99.0)
        self.assertEqual(run.normalize_results(a), run.normalize_results(b))

    def test_virtual_time_results_are_compared(self):
        a = results_json(mean=400.0)
        b = results_json(mean=400.5)
        self.assertNotEqual(run.normalize_results(a),
                            run.normalize_results(b))


class ChecksTest(unittest.TestCase):
    def test_verify_requires_every_read_decoded(self):
        workload = dict(run.WORKLOADS["verify"], ops=2000)
        measured = batch_measurement(traced=False)
        for r in measured["runs"]:
            r["verified"] = 2000
        run.check_batch("verify", workload, measured)
        measured["runs"][1]["verified"] = 1999
        with self.assertRaises(run.CheckFailed):
            run.check_batch("verify", workload, measured)

    def test_runs_at_one_seed_must_agree(self):
        workload = dict(run.WORKLOADS["paper"], ops=2000)
        measured = batch_measurement(traced=False)
        measured["runs"][2]["results_json"] = results_json(mean=401.0)
        with self.assertRaises(run.CheckFailed):
            run.check_batch("paper", workload, measured)

    def test_daemon_counts_must_match_agard(self):
        raw = daemon_raw()
        self.assertEqual(run.check_daemon(raw), 100 + 1500 + 2000)
        raw["metrics"]["daemon"]["gets"] += 1
        with self.assertRaises(run.CheckFailed):
            run.check_daemon(raw)


class MetricNamesTest(unittest.TestCase):
    """Every metric the benchmark prints is declared in BENCHMARK.json,
    with nothing missing, in both trace modes."""

    @classmethod
    def setUpClass(cls):
        cls.end_to_end, cls.per_layer = run.declared()

    def test_end_to_end(self):
        e2e, _ = run.batch_end_to_end(batch_measurement(False), 2000)
        self.assertEqual(set(e2e), set(self.end_to_end))

    def test_per_layer(self):
        layers = run.batch_layers(batch_measurement(True), 2000.0, 1900.0)
        geo = run.geo_layers_of(batch_measurement(True, geo=True))
        daemon, _ = run.daemon_layers(daemon_raw())
        self.assertEqual(set(geo), set(run.GEO_LAYERS))
        self.assertEqual(set(daemon), set(run.DAEMON_LAYERS))
        parts = [set(layers), set(geo), set(daemon)]
        self.assertEqual(sum(len(p) for p in parts), len(self.per_layer))
        self.assertEqual(set.union(*parts), set(self.per_layer))

    def test_geo_counters_come_from_the_geo_run(self):
        geo = run.geo_layers_of(batch_measurement(True, geo=True))
        self.assertEqual(geo["geo.collab.peer_hit_ratio"], 0.05)
        self.assertEqual(geo["geo.fetch.hedge_win_ratio"], 0.7)


class DeclarationTest(unittest.TestCase):
    def setUp(self):
        with open(run.BENCHMARK_JSON) as f:
            self.doc = json.load(f)

    def test_workloads_match(self):
        names = [w["name"] for w in self.doc["workloads"]]
        self.assertEqual(names, list(run.WORKLOADS))

    def test_sizes_in_declaration_match_the_code(self):
        why = {w["name"]: w["why"] for w in self.doc["workloads"]}
        for name, workload in run.WORKLOADS.items():
            self.assertIn(f"{workload['ops']} reads", why[name])
        self.assertIn("geo", why["paper"])
        self.assertIn("agard", why["paper"])

    def test_bounds_and_setup_metric(self):
        setup = [m for m in self.doc["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup, [{"name": "setup_s", "unit": "s",
                                  "better": "lower",
                                  "bound": max(m["bound"] for m in
                                               self.doc["end_to_end"])}])
        for metric in self.doc["end_to_end"]:
            self.assertLessEqual(metric["bound"], 0.25)


class SeedTest(unittest.TestCase):
    def test_derived_seeds_are_stable_and_distinct(self):
        self.assertEqual(run.derive_seed(1, "paper"),
                         run.derive_seed(1, "paper"))
        self.assertNotEqual(run.derive_seed(1, "paper"),
                            run.derive_seed(2, "paper"))
        self.assertNotEqual(run.derive_seed(1, "daemon.open"),
                            run.derive_seed(1, "daemon.closed"))
        self.assertLess(run.derive_seed(123, "geo"), 2**31)


if __name__ == "__main__":
    unittest.main()
