#!/usr/bin/env python3
"""The repository benchmark: one workload per invocation, checked outputs.

    python3 benchmark/run.py --workload paper --seed 1 --seconds 20 --trace 0

Builds the program and the measurement harness from source (into
$CARGO_TARGET_DIR, default .bench_build), runs the workload, checks its
outputs and prints the metrics declared in BENCHMARK.json. The last line
of stdout is one JSON object with the keys correct, attempted, failed and
metrics; the line before it is the run context. `--trace 0` prints the
end-to-end metrics of a timed run; `--trace 1` repeats the timed run, adds
a traced run of the same seed and size, and prints the per-layer metrics.

A failed output check prints the failure on stderr, no numbers, and exits
with status 1. Run the benchmark's self-tests with

    python3 -m unittest discover -s benchmark/tests
"""

import argparse
import bisect
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")

# The seed later claims are confirmed on, in addition to the seeds they
# were developed on.
CONFIRM_SEED = 90210

REGIONS = "frankfurt,dublin,virginia,saopaulo,tokyo,sydney"

# The paper's section V configuration: six regions, 300 x 1 MB objects,
# RS(9,3), Zipf 1.1, Agar with the default 10 MB cache and a 30 s period,
# two closed-loop clients in Frankfurt.
PAPER_SPEC = [
    "system=agar", "planner=knapsack-dp", "monitor=exact-ewma",
    "objects=300", "object_bytes=1MB", "rs_k=9", "rs_m=3",
    "workload=zipf:1.1", "cache_bytes=10MB", "period_s=30",
    "region=frankfurt", "clients=2", "shards=1", "runs=1",
]

WORKLOADS = {
    "paper": {
        "why": ("the single-lane read path (sim dispatch and network, client "
                "fetch batches and coalescing, core monitor and a cheap 30 s "
                "plan) does nearly all the work: no payload bytes, no socket, "
                "no idle lanes"),
        "ops": 100000,
        "setups": 51,
        "spec": PAPER_SPEC + ["verify=false"],
        # The traced run also measures the layers only the geo
        # configuration and the daemon exercise (see GEO and DAEMON).
        "extra_layers": True,
    },
    "verify": {
        "why": ("the data plane dominates: ec/gf decode, the payload check and "
                "SharedBytes buffers on every read, store encoding at set-up; "
                "the control plane is a rounding error"),
        "ops": 1200,
        "setups": 5,
        "spec": PAPER_SPEC + ["verify=true"],
    },
}

# The geo configuration, measured in paper's traced run: two closed-loop
# clients in each of the six regions on three shards, the cooperative tier,
# hedged fetches, and from t=0 stragglers on Virginia and lost responses
# from Tokyo. It is the only configuration with sharded worker threads,
# cross-lane messages (peer directories, the Paxos log), fetch timeouts and
# hedges, and control planes that keep planning after their lane's reads
# are done. How much of that idle planning a run does depends on the seed
# and on thread timing (peak memory 9, 168 or 322 MB), so its throughput
# and memory are per-layer figures, not end-to-end metrics with a bound.
GEO = {
    "ops": 6000,
    "setups": 5,
    "seconds": 4.0,
    "spec": [p for p in PAPER_SPEC
             if not p.startswith(("region=", "shards="))] + [
        "regions=" + REGIONS, "shards=3", "collab=broadcast", "fetch=hedge",
        "verify=false",
        "scenario=0 straggle_region region=virginia frac=0.2 mult=10; "
        "0 drop_region region=tokyo p=0.05",
    ],
}

# The daemon layer, measured in paper's traced run: agard serves two routes
# over a Unix socket to a load generator in this process with two
# connections. Tagged requests (9 in 10) go to the paper configuration and
# return telemetry only; untagged ones go to an LRU route over 64 KB objects
# and return payloads. A closed-loop phase, then Poisson arrivals at a
# fixed rate. Its figures spread too widely between runs on a shared VM to
# be end-to-end metrics with a bound, so they are per-layer only.
DAEMON = {
    "connections": 2,
    "keys": 300,
    "zipf": 1.1,
    "tag": "paper",
    "tag_share": 0.9,
    "warmup_s": 0.5,
    "closed_s": 3.0,
    "open_s": 4.0,
    # About a quarter of the closed-loop capacity on a 4-vCPU x86-64 VM
    # (about 20,000 req/s); at half of it, host stalls left a growing
    # backlog in 2 of 5 runs.
    "rate": 5000.0,
    "setups": 4,
}
# The open-loop phase is invalid, and the run fails, when the generator
# itself sends late (not counting waits for a busy connection) or the
# backlog never falls to the limit in the phase's last quarter.
GEN_LAG_P99_LIMIT_US = 2000.0
GEN_BACKLOG_LIMIT = 64
# Fewest runs a batch measurement takes, however short --seconds is.
MIN_RUNS = 3


def daemon_routes(spec_seed):
    common = {"workload": "zipf:1.1", "region": "frankfurt", "objects": 300,
              "ops": 1000, "runs": 1, "clients": 1, "seed": spec_seed}
    return {
        "listen": "agard.sock", "tcp_port": 0, "idle_tick_ms": 0,
        "routes": [
            {"name": "paper", "tag": DAEMON["tag"], "prefix": "",
             "spec": dict(common, system="agar", planner="knapsack-dp",
                          monitor="exact-ewma", cache_bytes="10MB",
                          object_bytes="1MB", period_s=30)},
            {"name": "default", "tag": "", "prefix": "",
             "spec": dict(common, system="lru", chunks=5, cache_bytes="1MB",
                          object_bytes="64KB")},
        ],
    }


class CheckFailed(Exception):
    pass


def check(condition, message):
    if not condition:
        raise CheckFailed(message)


# ------------------------------------------------------------ statistics

def derive_seed(seed, purpose):
    """A 31-bit seed for one input stream, fixed by (seed, purpose)."""
    digest = hashlib.sha256(f"{seed}:{purpose}".encode()).digest()
    return int.from_bytes(digest[:8], "little") & 0x7FFFFFFF or 1


def percentile(values, q):
    """Nearest-rank percentile (as stats::Histogram computes it)."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(n, q):
    """Samples strictly above the nearest-rank q-th percentile of n."""
    return n - max(1, math.ceil(q / 100.0 * n))


def tail_percentile(values, q, what):
    """The q-th percentile, refused unless ten samples lie beyond it."""
    check(samples_beyond(len(values), q) >= 10,
          f"{what}: {len(values)} samples leave fewer than 10 beyond p{q:g}")
    return percentile(values, q)


def median(values):
    return statistics.median(values)


def ratio(num, den):
    return num / den if den else 0.0


def due_time_latencies_us(due_us, reply_us, ok):
    """Open-loop latency of each request from its due time; a request
    that failed counts as beyond any limit."""
    return [r - d if good else math.inf
            for d, r, good in zip(due_us, reply_us, ok)]


def generator_lag_us(due_us, picked_us, send_us):
    """How late the generator sent each request once both the request was
    due and a connection was free to take it."""
    return [s - max(d, p) for d, p, s in zip(due_us, picked_us, send_us)]


def backlogs(times_us, due_us, send_us):
    """Requests due but not yet sent, at each of `times_us`."""
    due, sent = sorted(due_us), sorted(send_us)
    return [bisect.bisect_right(due, t) - bisect.bisect_right(sent, t)
            for t in times_us]


def normalize_results(text):
    """results_json with the label and the wall-clock planning time taken
    out: what must match between the traced and the timed run."""
    doc = json.loads(text)
    for system in doc:
        system["system"] = ""
        for run in system.get("runs", []):
            if "control_plane" in run:
                run["control_plane"]["planning_ms"] = 0
    return json.dumps(doc, sort_keys=True)


# ------------------------------------------------------------------ build

def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def run_logged(cmd):
    result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if result.returncode != 0:
        raise CheckFailed("command failed: " + " ".join(cmd))


def build(out):
    if shutil.which("cmake") is None:
        raise CheckFailed("cmake not found")
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        run_logged(["cmake", "-S", HERE, "-B", out,
                    "-DCMAKE_BUILD_TYPE=Release"] + generator)
    run_logged(["cmake", "--build", out, "--target", "agar_bench", "agard",
                "-j", str(os.cpu_count() or 1)])


def cmake_cache(out):
    values = {}
    with open(os.path.join(out, "CMakeCache.txt")) as f:
        for line in f:
            if "=" in line and ":" in line.split("=", 1)[0]:
                key, value = line.rstrip("\n").split("=", 1)
                values[key.split(":", 1)[0]] = value
    return values


def harness(out, args, timeout=170):
    """Run agar_bench in its own process group and parse its JSON."""
    cmd = [os.path.join(out, "agar_bench")] + args
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise CheckFailed(f"harness timed out: {args[0]}")
    if proc.returncode != 0:
        raise CheckFailed(f"harness failed ({proc.returncode}): {args[0]}")
    return json.loads(stdout)


def source_ids():
    """The git commit when the sources are a git work tree of their own,
    and a digest of the sources the benchmark builds from."""
    commit = None
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel",
                              "HEAD"], capture_output=True, text=True,
                             timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and os.path.samefile(lines[0], ROOT):
            commit = lines[1]
    except (OSError, subprocess.TimeoutExpired, IndexError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "tools", "benchmark"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return commit, digest.hexdigest()[:16]


# -------------------------------------------------------- batch workloads

def batch_args(workload, seed, traced, setups, runs):
    spec = list(workload["spec"])
    if traced:
        spec = [p for p in spec if not p.startswith(("planner=", "monitor="))]
        spec += ["planner=traced-knapsack-dp", "monitor=traced-exact-ewma"]
    spec += [f"ops={workload['ops']}", f"seed={seed}"]
    args = ["batch", "--setups", str(setups), "--runs", str(runs)]
    for pair in spec:
        args += ["--set", pair]
    return args + (["--traced"] if traced else [])


def measure_batch(workload, seed, seconds, traced, out):
    """Set-ups in one process, then one fresh process per run until the
    measuring time is used up, so every run pays what a user's run pays
    (a warm allocator hides most of verify's kernel time)."""
    setup = harness(out, batch_args(workload, seed, traced,
                                    workload["setups"], 0))["setup"]
    runs, traces, rss = [], [], []
    start = time.monotonic()
    while len(runs) < MIN_RUNS or time.monotonic() - start < seconds:
        raw = harness(out, batch_args(workload, seed, traced, 0, 1))
        runs += raw["runs"]
        rss.append(raw["peak_rss_mb"])
        if traced:
            traces.append(raw["trace"])
    return {"setup": setup, "runs": runs, "peak_rss_mb": median(rss),
            "traces": traces}


def check_batch(name, workload, measured):
    verify = "verify=true" in workload["spec"]
    normalized = [normalize_results(r["results_json"])
                  for r in measured["runs"]]
    check(all(n == normalized[0] for n in normalized),
          f"{name}: runs at one seed gave different results_json")
    for run in measured["runs"]:
        check(run["ops"] == workload["ops"],
              f"{name}: {run['ops']} reads completed, "
              f"{workload['ops']} issued")
        expected = run["ops"] - run["failed_reads"] if verify else 0
        check(run["verified"] == expected,
              f"{name}: verified {run['verified']} != {expected}")


def batch_end_to_end(measured, ops):
    runs = measured["runs"]
    results = json.loads(runs[0]["results_json"])[0]
    setup = measured["setup"]
    setups = [d + s for d, s in zip(setup["deployment_s"],
                                    setup["strategy_s"])]
    successes = results["total_ops"] - sum(
        run["failed_reads"] for run in results["runs"])
    check(samples_beyond(successes, 99) >= 10,
          f"{successes} successful reads leave fewer than 10 beyond p99")
    return {
        "setup_s": median(setups),
        "reads_per_s": median(ops / r["read_s"] for r in runs),
        "virt_ms.mean": results["mean_latency_ms"],
        "virt_ms.p99": results["p99_ms"],
        "hit_ratio": results["hit_ratio"],
        "peak_rss_mb": measured["peak_rss_mb"],
    }, {"runs": len(runs), "setups": len(setups),
        "virt_ms.samples": successes}


def result_layers(runs):
    """Per-layer metrics read from the program's own results_json runs."""
    def total(*path):
        acc = 0
        for run in runs:
            value = run
            for key in path:
                value = value.get(key, 0) if isinstance(value, dict) else 0
            acc += value
        return acc

    ops = total("ops")
    peers = total("collab", "peer_hits") + total("collab", "peer_misses")
    collab_bytes = (total("collab", "bytes_from_peers") +
                    total("collab", "bytes_from_backend"))
    plans = total("decode_plan", "hits") + total("decode_plan", "misses")
    return {
        "core.reconfigs": total("control_plane", "reconfigurations"),
        "core.churn_chunks": total("control_plane", "chunks_installed") +
        total("control_plane", "chunks_evicted"),
        "sim.wire_fetches_per_read": ratio(total("wire_fetches"), ops),
        "sim.queued_fetches": total("queued_fetches"),
        "sim.fetch_failures": total("fetch_failures", "aborted_on_wire") +
        total("fetch_failures", "failed_in_queue") +
        total("fetch_failures", "timed_out"),
        "client.coalesced_ratio": ratio(
            total("coalesced_fetches"),
            total("wire_fetches") + total("coalesced_fetches")),
        "client.degraded_ratio": ratio(total("degraded_reads"), ops),
        "fetch.attempts_per_read": ratio(total("fetch", "attempts"), ops),
        "fetch.timeouts": total("fetch", "timeouts"),
        "fetch.retries": total("fetch", "retries"),
        "fetch.hedge_win_ratio": ratio(total("fetch", "hedges_won"),
                                       total("fetch", "hedges_issued")),
        "fetch.hedges_wasted": total("fetch", "hedges_wasted"),
        "cache.hits_per_read": ratio(total("cache", "hits"), ops),
        "cache.admissions": total("cache", "admissions"),
        "cache.evictions": total("cache", "evictions"),
        "cache.used_mb": total("cache", "used_bytes") / 2**20,
        "ec.decode_plan_hit_ratio": ratio(total("decode_plan", "hits"), plans),
        "collab.peer_hit_ratio": ratio(total("collab", "peer_hits"), peers),
        "collab.peer_bytes_share": ratio(total("collab", "bytes_from_peers"),
                                         collab_bytes),
        "collab.stale_reads": total("collab", "stale_config_reads"),
        "paxos.appends": total("collab", "paxos_appends"),
        "paxos.append_failures": total("collab", "paxos_append_failures"),
        "paxos.append_p99_ms": max(
            run.get("collab", {}).get("paxos_append_p99_ms", 0.0)
            for run in runs),
        "scenario.events_fired": total("scenario_events"),
        "failed_ratio": ratio(total("failed_reads"), ops),
    }


def batch_layers(measured, timed_rps, traced_rps):
    runs, traces = measured["runs"], measured["traces"]
    run = json.loads(runs[0]["results_json"])[0]["runs"][0]
    read_s = [r["read_s"] for r in runs]
    plan_s = [t["plan_s"] for t in traces]
    monitor_s = [t["monitor_s"] for t in traces]
    setup = measured["setup"]
    deployment_s = median(setup["deployment_s"])
    decodes = runs[0]["verified"]
    decode_us = median([v for t in traces for v in t["ec_decode_us"]])
    check_us = median([v for t in traces for v in t["ec_check_us"]])
    layers = {k: v for k, v in result_layers([run]).items()
              if k not in GEO_RESULT_KEYS}
    layers.update({
        "setup.deployment_s": deployment_s,
        "store.encode_mb_per_s": ratio(setup["stored_bytes"] / 2**20,
                                       deployment_s),
        "setup.strategy_s": median(setup["strategy_s"]),
        "core.plan_s": median(plan_s),
        "core.plan_share": median(p / r for p, r in zip(plan_s, read_s)),
        "core.plan_ms.max": max(t["plan_max_s"] for t in traces) * 1e3,
        "core.plan_units.max": max(t["plan_units_max"] for t in traces),
        "core.empty_plans": median(t["empty_plans"] for t in traces),
        "core.monitor_s": median(monitor_s),
        "run.read_s": median(read_s),
        "run.self_s": median(r - p - m for r, p, m in
                             zip(read_s, plan_s, monitor_s)),
        "proc.sys_share": median(ratio(r["sys_s"], r["user_s"] + r["sys_s"])
                                 for r in runs),
        "ec.decodes": decodes,
        "ec.decode_us": decode_us,
        "ec.check_us": check_us,
        "ec.data_plane_share": ratio(decodes * (decode_us + check_us) * 1e-6,
                                     median(read_s)),
        "trace.overhead_pct": (timed_rps - traced_rps) / timed_rps * 100.0,
    })
    return layers


def run_batch(name, seed, seconds, trace, out):
    workload = WORKLOADS[name]
    spec_seed = derive_seed(seed, name)
    timed = measure_batch(workload, spec_seed, seconds, False, out)
    check_batch(name, workload, timed)
    e2e, samples = batch_end_to_end(timed, workload["ops"])
    attempted = sum(r["ops"] for r in timed["runs"])
    failed = sum(r["failed_reads"] for r in timed["runs"])
    context = {"ops_per_run": workload["ops"], "spec_seed": spec_seed,
               **samples}
    if not trace:
        return e2e, context, attempted, failed
    traced = measure_batch(workload, spec_seed, seconds, True, out)
    check_batch(name, workload, traced)
    check(normalize_results(traced["runs"][0]["results_json"]) ==
          normalize_results(timed["runs"][0]["results_json"]),
          f"{name}: traced results_json differs from the timed run's")
    traced_e2e, _ = batch_end_to_end(traced, workload["ops"])
    layers = batch_layers(traced, e2e["reads_per_s"], traced_e2e["reads_per_s"])
    attempted += sum(r["ops"] for r in traced["runs"])
    failed += sum(r["failed_reads"] for r in traced["runs"])
    if workload.get("extra_layers"):
        geo, geo_context = geo_layers(seed, out)
        layers.update(geo)
        attempted += geo_context["reads"]
        failed += geo_context["failed_reads"]
        raw = harness(out, daemon_args(out, seed))
        daemon, sent = daemon_layers(raw)
        layers.update(daemon)
        attempted += sent
        context["geo"] = geo_context
        context["daemon"] = {"offered_rate_per_s": DAEMON["rate"],
                             "connections": DAEMON["connections"],
                             "open_samples": daemon["daemon.wall_us.samples"]}
    else:
        layers.update({metric: 0.0 for metric in GEO_LAYERS + DAEMON_LAYERS})
    return layers, context, attempted, failed


# -------------------------------------------------------------- geo layers

# Result counters only the geo configuration moves.
GEO_RESULT_KEYS = [
    "sim.fetch_failures", "fetch.attempts_per_read", "fetch.timeouts",
    "fetch.retries", "fetch.hedge_win_ratio", "fetch.hedges_wasted",
    "collab.peer_hit_ratio", "collab.peer_bytes_share", "collab.stale_reads",
    "paxos.appends", "paxos.append_failures", "paxos.append_p99_ms",
    "scenario.events_fired",
]
GEO_LAYERS = [
    "geo.reads_per_s", "geo.peak_rss_mb", "geo.virt_ms.mean",
    "geo.virt_ms.p99", "geo.hit_ratio", "geo.core.plan_share",
    "geo.core.plan_ms.max", "geo.core.plan_units.max",
    "geo.core.empty_plans", "geo.proc.sys_share", "geo.failed_ratio",
] + ["geo." + k for k in GEO_RESULT_KEYS]


def geo_layers(seed, out):
    spec_seed = derive_seed(seed, "geo")
    measured = measure_batch(GEO, spec_seed, GEO["seconds"], True, out)
    check_batch("geo", GEO, measured)
    runs = measured["runs"]
    context = {"ops_per_run": GEO["ops"], "spec_seed": spec_seed,
               "runs": len(runs), "reads": sum(r["ops"] for r in runs),
               "failed_reads": sum(r["failed_reads"] for r in runs)}
    return geo_layers_of(measured), context


def geo_layers_of(measured):
    runs, traces = measured["runs"], measured["traces"]
    results = json.loads(runs[0]["results_json"])[0]
    counters = result_layers(results["runs"])
    read_s = [r["read_s"] for r in runs]
    layers = {
        "geo.reads_per_s": median(GEO["ops"] / r for r in read_s),
        "geo.peak_rss_mb": measured["peak_rss_mb"],
        "geo.virt_ms.mean": results["mean_latency_ms"],
        "geo.virt_ms.p99": results["p99_ms"],
        "geo.hit_ratio": results["hit_ratio"],
        "geo.core.plan_share": median(t["plan_s"] / r
                                      for t, r in zip(traces, read_s)),
        "geo.core.plan_ms.max": max(t["plan_max_s"] for t in traces) * 1e3,
        "geo.core.plan_units.max": max(t["plan_units_max"] for t in traces),
        "geo.core.empty_plans": median(t["empty_plans"] for t in traces),
        "geo.proc.sys_share": median(ratio(r["sys_s"], r["user_s"] + r["sys_s"])
                                     for r in runs),
        "geo.failed_ratio": counters["failed_ratio"],
    }
    layers.update({"geo." + k: counters[k] for k in GEO_RESULT_KEYS})
    return layers


# ----------------------------------------------------------- daemon layer

DAEMON_LAYERS = [
    "daemon.start_s", "daemon.reads_per_s", "daemon.wall_us.p50",
    "daemon.wall_us.p99", "daemon.wall_us.samples", "daemon.rtt_us.p50",
    "daemon.rtt_us.p99", "daemon.service_us.p50", "daemon.service_us.p99",
    "daemon.transport_us.p50", "daemon.inproc_us.p50",
    "daemon.inproc_us.p99", "daemon.lock_wait_us.p50",
    "daemon.frame_codec_ns", "daemon.route_match_ns",
    "daemon.payload_mb_per_s", "daemon.protocol_errors", "daemon.no_route",
    "gen.lag_us.p99", "gen.lag_us.max", "gen.backlog_end",
]


def daemon_args(out, seed):
    path = os.path.join(out, "daemon_routes.json")
    with open(path, "w") as f:
        json.dump(daemon_routes(derive_seed(seed, "daemon.spec")), f, indent=1)
    return [
        "daemon", "--agard", os.path.join(out, "agar", "agard"),
        "--config", path,
        # Relative to the working directory: a UDS path must stay short.
        "--socket", os.path.relpath(os.path.join(out, "agard.sock")),
        "--log", os.path.join(out, "agard.log"),
        "--stream-seed", str(derive_seed(seed, "daemon.closed")),
        "--open-seed", str(derive_seed(seed, "daemon.open")),
        "--arrival-seed", str(derive_seed(seed, "daemon.arrivals")),
        "--keys", str(DAEMON["keys"]), "--zipf", str(DAEMON["zipf"]),
        "--tag", DAEMON["tag"], "--tag-share", str(DAEMON["tag_share"]),
        "--connections", str(DAEMON["connections"]),
        "--warmup-s", str(DAEMON["warmup_s"]),
        "--closed-s", str(DAEMON["closed_s"]),
        "--open-s", str(DAEMON["open_s"]),
        "--rate", str(DAEMON["rate"]),
        "--setups", str(DAEMON["setups"]),
    ]


def open_phase(raw):
    """Due-time latencies and generator validity of the open-loop phase."""
    o = raw["open"]
    check(len(o["due_us"]) == o["scheduled"],
          f"open loop sent {len(o['due_us'])} of {o['scheduled']} requests")
    latencies = due_time_latencies_us(o["due_us"], o["reply_us"], o["ok"])
    lag = generator_lag_us(o["due_us"], o["picked_us"], o["send_us"])
    end_us = o["seconds"] * 1e6
    last_quarter = backlogs([end_us * (0.75 + i / 100.0) for i in range(26)],
                            o["due_us"], o["send_us"])
    gen = {
        "gen.lag_us.p99": percentile(lag, 99),
        "gen.lag_us.max": max(lag),
        "gen.backlog_end": last_quarter[-1],
    }
    check(gen["gen.lag_us.p99"] <= GEN_LAG_P99_LIMIT_US,
          f"open loop invalid: generator lag p99 {gen['gen.lag_us.p99']:.1f}"
          f" us > {GEN_LAG_P99_LIMIT_US} us")
    check(min(last_quarter) <= GEN_BACKLOG_LIMIT,
          f"open loop invalid: backlog above {GEN_BACKLOG_LIMIT} requests "
          f"through the last quarter (growing)")
    return latencies, gen


def check_daemon(raw):
    phases = [raw["warm"], raw["closed"]["stats"], raw["open"]["stats"]]
    sent = sum(p["sent"] for p in phases)
    tagged = sum(p["tagged"] for p in phases)
    for key in ("not_ok", "transport_errors", "payload_mismatch"):
        total = sum(p[key] for p in phases)
        first = next((p["first_error"] for p in phases if p["first_error"]),
                     "")
        check(total == 0, f"daemon: {total} replies with {key} ({first})")
    counters = raw["metrics"]["daemon"]
    check(counters["gets"] == sent,
          f"daemon: agard counted {counters['gets']} GETs, {sent} sent")
    for key in ("no_route", "unknown_key", "failed_reads", "protocol_errors"):
        check(counters[key] == 0, f"daemon: agard reports {key}={counters[key]}")
    per_route = [r["total_ops"] for r in raw["metrics"]["results"]]
    check(per_route == [tagged, sent - tagged],
          f"daemon: per-route reads {per_route} != sent "
          f"{[tagged, sent - tagged]}")
    return sent


def daemon_layers(raw):
    sent = check_daemon(raw)
    latencies, gen = open_phase(raw)
    closed = raw["closed"]
    rtt, service = closed["rtt_us"], closed["service_us"]
    inproc = raw["replay"]["inproc_us"]
    layers = {
        "daemon.start_s": median(raw["start_s"]),
        "daemon.reads_per_s": closed["stats"]["sent"] / closed["wall_s"],
        "daemon.wall_us.p50": percentile(latencies, 50),
        "daemon.wall_us.p99": tail_percentile(latencies, 99, "wall_us"),
        "daemon.wall_us.samples": len(latencies),
        "daemon.rtt_us.p50": percentile(rtt, 50),
        "daemon.rtt_us.p99": tail_percentile(rtt, 99, "rtt"),
        "daemon.service_us.p50": percentile(service, 50),
        "daemon.service_us.p99": tail_percentile(service, 99, "service"),
        "daemon.transport_us.p50": percentile(
            [r - s for r, s in zip(rtt, service)], 50),
        "daemon.inproc_us.p50": percentile(inproc, 50),
        "daemon.inproc_us.p99": tail_percentile(inproc, 99, "inproc"),
        "daemon.lock_wait_us.p50": percentile(service, 50) -
        percentile(inproc, 50),
        "daemon.frame_codec_ns": raw["replay"]["codec_ns"],
        "daemon.route_match_ns": raw["replay"]["match_ns"],
        "daemon.payload_mb_per_s": closed["stats"]["payload_bytes"] / 2**20 /
        closed["wall_s"],
        "daemon.protocol_errors": raw["metrics"]["daemon"]["protocol_errors"],
        "daemon.no_route": raw["metrics"]["daemon"]["no_route"],
        **gen,
    }
    return layers, sent


# ------------------------------------------------------------------- main

def declared():
    with open(BENCHMARK_JSON) as f:
        spec = json.load(f)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")

    try:
        end_to_end, per_layer = declared()
        out = build_dir()
        build(out)
        metrics, context, attempted, failed = run_batch(
            args.workload, args.seed, args.seconds, args.trace, out)
        units = per_layer if args.trace else end_to_end
        check(set(metrics) == set(units),
              "metric names differ from BENCHMARK.json: " +
              ", ".join(sorted(set(metrics) ^ set(units))))
        check(all(math.isfinite(v) for v in metrics.values()),
              "a metric is not finite")
        cache = cmake_cache(out)
        program = harness(out, ["context"])
        commit, sources = source_ids()
    except CheckFailed as e:
        print(f"benchmark: check failed: {e}", file=sys.stderr)
        return 1
    except (OSError, ValueError, KeyError) as e:
        print(f"benchmark: error: {e!r}", file=sys.stderr)
        return 1

    run_context = {
        "commit": commit,
        "sources_sha256": sources,
        "build_type": cache.get("CMAKE_BUILD_TYPE", ""),
        "simd": cache.get("AGAR_ENABLE_SIMD", ""),
        "gf_backend": program["gf_backend"],
        "compiler": program["compiler"],
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "why": WORKLOADS[args.workload]["why"],
        "seed": args.seed,
        "confirm_seed": CONFIRM_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        **context,
    }
    print(json.dumps({"context": run_context}))
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
