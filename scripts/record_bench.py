#!/usr/bin/env python3
"""Append one benchmark entry for this tree to BENCH_core.json.

    scripts/record_bench.py

Runs `python3 benchmark/run.py` on the paper and verify workloads with
seed 1 and BENCHMARK.json's run_seconds, each timed (--trace 0: the
end-to-end metrics) and traced (--trace 1: the per-layer metrics), and
appends one entry

    {"version": 2, "label": ..., "date": ..., "runs": [
        {"context": {...}, "result": {...}}, ...]}

to BENCH_core.json, a JSON array with one entry per recording, labelled
with the short commit hash. Each run keeps run.py's context object
(commit, source digest, build, host, seed, seconds) and result object as
printed. The entries without a "version" key are the earlier records of
bench_micro_eventloop. Nothing is written unless all four runs succeed.
"""

import argparse
import datetime
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, "BENCH_core.json")
VERSION = 2
SEED = 1


def run_benchmark(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(ROOT, "benchmark", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd[1:])} exited {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    return {"context": json.loads(lines[-2])["context"],
            "result": json.loads(lines[-1])}


def append_entry(entry):
    """Append to the array textually, so earlier entries keep their bytes;
    each run's context and result take one line each."""
    with open(OUT) as f:
        text = f.read()
    if not isinstance(json.loads(text), list):
        raise ValueError(f"{OUT} is not a JSON array")
    body = text.rstrip()[:-1].rstrip()  # drop the closing bracket
    sep = ",\n" if body != "[" else "\n"
    head = json.dumps({k: v for k, v in entry.items() if k != "runs"})
    runs = ",\n".join(f' {{"context": {json.dumps(r["context"])},\n'
                      f'  "result": {json.dumps(r["result"])}}}'
                      for r in entry["runs"])
    with open(OUT, "w") as f:
        f.write(f'{body}{sep}{head[:-1]}, "runs": [\n{runs}\n]}}\n]\n')


def main():
    argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter).parse_args()
    label = subprocess.run(
        ["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
        capture_output=True, text=True).stdout.strip() or "unknown"
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            seconds = json.load(f)["run_seconds"]
        runs = [run_benchmark(workload, SEED, seconds, trace)
                for workload in ("paper", "verify") for trace in (0, 1)]
        entry = {"version": VERSION, "label": label,
                 "date": datetime.datetime.now(datetime.timezone.utc)
                 .strftime("%Y-%m-%dT%H:%M:%SZ"),
                 "runs": runs}
        append_entry(entry)
    except (OSError, ValueError, KeyError, RuntimeError, IndexError) as e:
        print(f"record_bench: {e}", file=sys.stderr)
        return 1
    print(f"record_bench: recorded {label} -> {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
