#!/usr/bin/env python3
"""Compare benchmark runs of a parent commit and a change.

    scripts/bench_compare.py PARENT CHANGE

PARENT and CHANGE each hold the standard output of
`python3 benchmark/run.py --trace 0` invocations, appended in the order
they ran, from alternating pairs: the parent ran first in one pair and the
change first in the next, with the same --seconds on both sides. Every
result line follows the context line of its run, which names the workload;
other lines are ignored. The i-th parent run of a workload pairs with the
i-th change run of that workload.

For each workload and each end-to-end metric of BENCHMARK.json this prints
both medians, the parent's quartiles, the change's share of pair wins (ties
count for neither), the metric's bound and a verdict:

  better        the change wins at least 9 in 10 pairs and the medians
                differ by more than the parent's interquartile range;
  unresolved    the parent's interquartile range, relative to its median,
                is wider than the bound, and not every change run reads
                better than every parent run;
  worse         the change's median is worse than the parent's by more
                than the bound, relative to the parent's median;
  within bound  otherwise.

Each workload also prints the share of operations that failed on each
side. The exit status is 1 when a metric is worse or the change fails a
larger share of operations, 2 on unusable input, and 0 otherwise.
"""

import argparse
import json
import os
import statistics
import sys

BENCHMARK_JSON = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCHMARK.json")


def read_runs(lines):
    """{workload: [result object, ...]} in run order."""
    runs = {}
    workload = None
    for line in lines:
        line = line.strip()
        if not line.startswith("{"):
            continue
        obj = json.loads(line)
        if "context" in obj:
            workload = obj["context"]["workload"]
        elif "metrics" in obj:
            if workload is None:
                raise ValueError("a result line has no context line before it")
            runs.setdefault(workload, []).append(obj)
            workload = None
    return runs


def verdict(parent, change, better, bound):
    """One metric's row: the values of each side in pair order."""
    sign = 1.0 if better == "higher" else -1.0
    p_q1, p_med, p_q3 = statistics.quantiles(parent, n=4, method="inclusive")
    c_med = statistics.median(change)
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    gain = sign * (c_med - p_med)
    scale = abs(p_med)
    iqr = p_q3 - p_q1
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if wins >= 0.9 * len(parent) and gain > iqr:
        result = "better"
    elif (iqr > bound * scale if scale else iqr > 0) and not all_better:
        result = "unresolved"
    elif -gain > bound * scale:
        result = "worse"
    else:
        result = "within bound"
    return {"parent_median": p_med, "parent_q1": p_q1, "parent_q3": p_q3,
            "change_median": c_med, "wins": wins, "pairs": len(parent),
            "verdict": result}


def failed_share(results):
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    return failed, attempted


def compare(parent_runs, change_runs, end_to_end):
    """Rows per workload; raises ValueError when the runs do not pair."""
    if sorted(parent_runs) != sorted(change_runs):
        raise ValueError("the two sides ran different workloads: "
                         f"{sorted(parent_runs)} vs {sorted(change_runs)}")
    report = {}
    for workload in sorted(parent_runs):
        parent, change = parent_runs[workload], change_runs[workload]
        if len(parent) != len(change):
            raise ValueError(f"{workload}: {len(parent)} parent runs but "
                             f"{len(change)} change runs")
        if len(parent) < 2:
            raise ValueError(f"{workload}: fewer than two pairs")
        rows = []
        for metric in end_to_end:
            name = metric["name"]
            row = verdict([r["metrics"][name]["value"] for r in parent],
                          [r["metrics"][name]["value"] for r in change],
                          metric["better"], metric["bound"])
            row.update(name=name, unit=metric["unit"], bound=metric["bound"])
            rows.append(row)
        report[workload] = {"rows": rows,
                            "parent_failed": failed_share(parent),
                            "change_failed": failed_share(change)}
    return report


def share(failed):
    return failed[0] / failed[1] if failed[1] else 0.0


def print_report(report, out):
    header = (f"{'metric':<14} {'unit':<8} {'parent median':>14} "
              f"{'parent q1-q3':>23} {'change median':>14} {'wins':>6} "
              f"{'bound':>6}  verdict")
    for workload, entry in report.items():
        pf, cf = entry["parent_failed"], entry["change_failed"]
        pairs = entry["rows"][0]["pairs"] if entry["rows"] else 0
        print(f"workload {workload}: {pairs} pairs; failed {pf[0]}/{pf[1]} "
              f"(parent) vs {cf[0]}/{cf[1]} (change)", file=out)
        print(header, file=out)
        for r in entry["rows"]:
            quart = f"{r['parent_q1']:.6g}-{r['parent_q3']:.6g}"
            print(f"{r['name']:<14} {r['unit']:<8} "
                  f"{r['parent_median']:>14.6g} {quart:>23} "
                  f"{r['change_median']:>14.6g} "
                  f"{r['wins']:>3}/{r['pairs']:<2} {r['bound']:>6.0%}  "
                  f"{r['verdict']}", file=out)
        if share(cf) > share(pf):
            print(f"{workload}: the change fails a larger share of "
                  "operations", file=out)
        print(file=out)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", help="run.py output of the parent commit")
    parser.add_argument("change", help="run.py output of the change")
    args = parser.parse_args(argv)
    try:
        with open(BENCHMARK_JSON) as f:
            end_to_end = json.load(f)["end_to_end"]
        with open(args.parent) as f:
            parent_runs = read_runs(f)
        with open(args.change) as f:
            change_runs = read_runs(f)
        report = compare(parent_runs, change_runs, end_to_end)
    except (OSError, ValueError, KeyError) as e:
        print(f"bench_compare: {e}", file=sys.stderr)
        return 2
    print_report(report, sys.stdout)
    worse = any(r["verdict"] == "worse"
                for entry in report.values() for r in entry["rows"])
    more_failures = any(share(e["change_failed"]) > share(e["parent_failed"])
                        for e in report.values())
    return 1 if worse or more_failures else 0


if __name__ == "__main__":
    sys.exit(main())
