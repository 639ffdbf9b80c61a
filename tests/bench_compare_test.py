"""Self-test of scripts/bench_compare.py on fixture run.py output lines,
and of scripts/record_bench.py's argument handling.

    python3 tests/bench_compare_test.py
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
SCRIPT = os.path.join(HERE, os.pardir, "scripts", "bench_compare.py")
RECORD = os.path.join(HERE, os.pardir, "scripts", "record_bench.py")
BENCHMARK = os.path.join(HERE, os.pardir, "BENCHMARK.json")
BENCH_CORE = os.path.join(HERE, os.pardir, "BENCH_core.json")

with open(BENCHMARK) as f:
    END_TO_END = json.load(f)["end_to_end"]

# Ten parent runs of each metric, with their spread, and the values the
# change's runs take in the same pairs.
PARENT = {
    "setup_s": [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00],
    "reads_per_s": [100, 102, 98, 101, 99, 100, 103, 97, 100, 100],
    "virt_ms.mean": [500.0] * 10,
    "virt_ms.p99": [1000, 1400, 700, 1200, 900, 1300, 800, 1100, 950, 1050],
    "hit_ratio": [0.40, 0.41, 0.39, 0.40, 0.40, 0.41, 0.39, 0.40, 0.40, 0.40],
    "peak_rss_mb": [50.0, 50.5, 49.5, 50.0, 50.2, 49.8, 50.0, 50.1, 49.9,
                    50.0],
}
CHANGE = {
    "setup_s": [v * 1.5 for v in PARENT["setup_s"]],           # worse
    "reads_per_s": [v * 1.3 for v in PARENT["reads_per_s"]],   # better
    "virt_ms.mean": [500.0] * 10,                               # ties
    "virt_ms.p99": [1300, 900, 1100, 800, 1250, 1000, 1150, 950, 1050, 1000],
    "hit_ratio": [0.41, 0.39, 0.40, 0.40, 0.41, 0.40, 0.40, 0.39, 0.40, 0.41],
    "peak_rss_mb": [50.0, 50.4, 49.6, 50.1, 50.2, 49.9, 50.0, 50.0, 49.9,
                    50.0],
}
EXPECTED = {
    "setup_s": "worse",
    "reads_per_s": "better",
    "virt_ms.mean": "within bound",
    "virt_ms.p99": "unresolved",
    "hit_ratio": "within bound",
    "peak_rss_mb": "within bound",
}


def run_lines(values, failed=0):
    """The stdout of ten run.py invocations: a context line, then a
    result line, per run."""
    lines = ["building...\n"]
    for i in range(10):
        lines.append(json.dumps({"context": {"workload": "paper"}}) + "\n")
        lines.append(json.dumps({
            "correct": True, "attempted": 1000,
            "failed": failed if i == 0 else 0,
            "metrics": {m["name"]: {"value": values[m["name"]][i],
                                    "unit": m["unit"]} for m in END_TO_END},
        }) + "\n")
    return lines


class BenchCompareTest(unittest.TestCase):
    def compare(self, parent_lines, change_lines):
        with tempfile.TemporaryDirectory() as tmp:
            paths = []
            for name, lines in (("parent", parent_lines),
                                ("change", change_lines)):
                paths.append(os.path.join(tmp, name))
                with open(paths[-1], "w") as f:
                    f.writelines(lines)
            proc = subprocess.run([sys.executable, SCRIPT] + paths,
                                  capture_output=True, text=True)
        return proc.returncode, proc.stdout, proc.stderr

    def test_verdicts(self):
        self.assertEqual(set(EXPECTED), {m["name"] for m in END_TO_END})
        status, out, _ = self.compare(run_lines(PARENT), run_lines(CHANGE))
        self.assertEqual(status, 1)  # setup_s is worse
        verdicts = {}
        for line in out.splitlines():
            for name in EXPECTED:
                if line.startswith(name + " "):
                    verdicts[name] = line.split("  ")[-1].strip()
        self.assertEqual(verdicts, EXPECTED)
        self.assertIn("workload paper: 10 pairs; failed 0/10000 (parent) "
                      "vs 0/10000 (change)", out)
        self.assertIn(" 10/10 ", [l for l in out.splitlines()
                                  if l.startswith("reads_per_s")][0])

    def test_identical_runs_pass(self):
        status, out, _ = self.compare(run_lines(PARENT), run_lines(PARENT))
        self.assertEqual(status, 0, out)
        self.assertNotIn("worse", out)
        self.assertNotIn("better", out)

    def test_more_failures_fail(self):
        status, out, _ = self.compare(run_lines(PARENT),
                                      run_lines(PARENT, failed=3))
        self.assertEqual(status, 1)
        self.assertIn("the change fails a larger share of operations", out)

    def test_unpaired_runs_are_refused(self):
        status, _, err = self.compare(run_lines(PARENT),
                                      run_lines(PARENT)[:-2])
        self.assertEqual(status, 2)
        self.assertIn("10 parent runs but 9 change runs", err)


class RecordBenchArgsTest(unittest.TestCase):
    """record_bench.py takes no options: --help prints its usage and any
    other argument is refused, and neither starts a benchmark run or
    touches BENCH_core.json. A run would take minutes, so the timeout
    catches one that starts."""

    def record(self, *args):
        with open(BENCH_CORE, "rb") as f:
            before = f.read()
        proc = subprocess.run([sys.executable, RECORD, *args],
                              capture_output=True, text=True, timeout=60)
        with open(BENCH_CORE, "rb") as f:
            self.assertEqual(f.read(), before)
        return proc

    def test_help_prints_usage(self):
        proc = self.record("--help")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("usage: record_bench.py", proc.stdout)
        self.assertIn("BENCH_core.json", proc.stdout)

    def test_other_arguments_are_refused(self):
        for args in (["--seconds", "1"], ["paper"], ["-x"]):
            proc = self.record(*args)
            self.assertEqual(proc.returncode, 2, args)
            self.assertIn("usage: record_bench.py", proc.stderr)
            self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
