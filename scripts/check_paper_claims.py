#!/usr/bin/env python3
"""The paper's evaluation (Halalai et al., ICDCS 2017, section V) and the
reproduction's extensions as checked claims.

    python3 scripts/check_paper_claims.py

Reads each experiment spec in examples/specs/paper/ and examples/specs/ext/
and the report pinned for it in tests/golden/paper/ or tests/golden/ext/
(spec_goldens keeps every golden equal to what `example_agar_cli --spec
<file> --json` prints). A spec's `systems` entries
(or its one top-level `system`) are crossed with its `sweep` grid in the
order parse_spec_json runs them, first sweep key outermost, and each report
row must carry the label of its entry, so every number is read from the run
it belongs to.

Exits 1 if a row and its entry disagree, or if one of these claims fails
(Figs. 2, 6 and 7 in each client region):
  - Fig. 2: mean latency never rises as the cached chunks c go 0 -> 9;
  - Fig. 6: Agar's mean latency is below every LRU-c's, LFU-c's and
    Backend's;
  - Fig. 7: LRU-c's and LFU-c's hit ratios fall as c grows, and Agar's is
    above every 7- and 9-chunk policy's;
  - Fig. 10: every scenario installs at least two distinct option weights,
    which no fixed-c policy can, and the figure at least three;
  - every row of the Extensions table (tail latency under gray failure,
    adaptivity to a popularity shift, the cooperative tier).

It prints the numbers of Figs. 2, 6-8 and 10, of the two ablations and of
the three extensions, then one row per statement the paper makes about its
figures, reproduction against paper, and one row per extension takeaway. A
paper figure agrees when the reproduction has its sign and lies within a
factor of two of it; "all systems equal" agrees when Agar's lead is under
2% either way. A paper row that disagrees is marked as a gap and still
printed: gaps are results, not failures.
"""

import json
import os
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
SPECS = os.path.join(ROOT, "examples", "specs")
GOLDENS = os.path.join(ROOT, "tests", "golden")

REGIONS = ("frankfurt", "sydney")
CHUNKS = (1, 3, 5, 7, 9)
WEIGHTS = (9, 7, 5, 3, 1)
# Display names of the fixed-chunks systems; each row is "<name>-<chunks>".
FIXED_CHUNKS = {"lru": "LRU", "lfu": "LFU", "lfu-eviction": "LFUev",
                "tinylfu": "TinyLFU", "arc": "ARC"}
OTHER_LABELS = {"agar": "Agar", "backend": "Backend"}
# What a fetch policy or a cooperative tier other than "none" appends to
# the label, after a "+".
SUFFIXES = {"fetch": {"retry": "retry", "hedge": "hedge"},
            "collab": {"broadcast": "collab"}}


class SpecMismatch(Exception):
    pass


def expand(spec):
    """The spec's entries in the order parse_spec_json runs them."""
    base = {k: v for k, v in spec.items() if k not in ("systems", "sweep")}
    base.setdefault("system", "agar")
    entries = []
    for system in spec.get("systems", [{}]):
        entries.append({**base, **({"system": system}
                                   if isinstance(system, str) else system)})
    for key, values in spec.get("sweep", {}).items():
        entries = [{**entry, key: value}
                   for entry in entries for value in values]
    return entries


def label(entry):
    system = entry["system"]
    if system in FIXED_CHUNKS:
        name = "%s-%s" % (FIXED_CHUNKS[system], entry["chunks"])
    else:
        name = OTHER_LABELS[system]
    for key, suffixes in SUFFIXES.items():
        if entry.get(key, "none") != "none":
            name += "+" + suffixes[entry[key]]
    return name


class Figure:
    """One spec's runs: (entry, report row) pairs, found by entry fields.
    `name` is the spec's path under examples/specs/ without ".json"."""

    def __init__(self, name):
        self.name = name
        with open(os.path.join(SPECS, name + ".json")) as f:
            entries = expand(json.load(f))
        with open(os.path.join(GOLDENS, name + ".json")) as f:
            rows = json.load(f)
        if len(rows) != len(entries):
            raise SpecMismatch("%s: %d report rows for %d spec entries"
                               % (name, len(rows), len(entries)))
        for i, (entry, row) in enumerate(zip(entries, rows)):
            if row["system"] != label(entry):
                raise SpecMismatch("%s: row %d is %s, its entry %s"
                                   % (name, i, row["system"], label(entry)))
        self.runs = list(zip(entries, rows))

    def rows(self, **where):
        return [row for entry, row in self.runs
                if all(entry.get(k) == v for k, v in where.items())]

    def row(self, **where):
        found = self.rows(**where)
        if len(found) != 1:
            raise SpecMismatch("%s: %d rows match %s"
                               % (self.name, len(found), where))
        return found[0]


def ms(row):
    return row["mean_latency_ms"]


def lead(agar, other):
    """Agar's latency lead over `other` (positive: Agar is faster)."""
    return 1.0 - ms(agar) / ms(other)


def best(rows):
    """The fastest row; the first of equals, as the figures pick it."""
    return min(rows, key=ms)


def fmt_ms(value):
    """One decimal, as the figures print. A golden value that sits exactly
    on a tie at that digit (results_json's %.6g cut 1519.2503 to 1519.25)
    keeps its second decimal: which way the run rounded is lost."""
    two = "%.2f" % value
    if two.endswith("5") and float(two) == value:
        return two
    return "%.1f" % value


def fmt_pct(fraction):
    return "%.1f%%" % (fraction * 100.0)


def table(headers, rows):
    lines = ["| " + " | ".join(headers) + " |",
             "|" + "|".join(" --- " for _ in headers) + "|"]
    lines += ["| " + " | ".join(str(cell) for cell in row) + " |"
              for row in rows]
    print("\n".join(lines) + "\n")


def results_table(rows):
    table(["system", "avg latency (ms)", "stddev", "p50", "p95", "hit ratio",
           "full hits", "ops/s", "coalesced"],
          [[r["system"], fmt_ms(ms(r)), fmt_ms(r["stddev_ms"]),
            fmt_ms(r["p50_ms"]), fmt_ms(r["p95_ms"]), fmt_pct(r["hit_ratio"]),
            fmt_pct(r["full_hit_ratio"]),
            fmt_ms(r["throughput_ops_per_s"]), r["coalesced_fetches"]]
           for r in rows])


def near(repro, paper):
    """The paper's sign, and within a factor of two of its figure."""
    return repro * paper > 0 and 0.5 <= repro / paper <= 2.0


class Claims:
    def __init__(self):
        self.failed = []
        self.statements = []
        self.extensions = []

    def compare(self, figure, statement, paper, repro, agrees,
                required=False):
        """One paper statement against the reproduction; a required one
        that disagrees fails the check."""
        self.statements.append([figure, statement, paper, repro,
                                "agrees" if agrees else "**gap**"])
        if required and not agrees:
            self.failed.append("%s: %s" % (figure, statement))

    def check(self, extension, statement, measured, holds):
        """One extension takeaway, stated as what its row measures; every
        one is required."""
        self.extensions.append([extension, statement, measured,
                                "holds" if holds else "**fails**"])
        if not holds:
            self.failed.append("%s: %s" % (extension, statement))


def fig2(claims):
    fig = Figure("paper/fig2_chunk_count")
    print("### Fig. 2: latency vs chunks cached (500 MB cache)\n")
    curves = {region: [fig.row(system="backend", region=region)] +
              [fig.row(system="lru", chunks=c, region=region)
               for c in CHUNKS] for region in REGIONS}
    rows = [[c] for c in (0,) + CHUNKS]
    for curve in curves.values():
        for cells, row in zip(rows, curve):
            cells += [fmt_ms(ms(row)), fmt_pct(row["hit_ratio"])]
    table(["chunks cached"] + ["%s %s" % (region, what) for region in REGIONS
                               for what in ("avg ms", "hit ratio")], rows)
    for region, curve in curves.items():
        latencies = [ms(row) for row in curve]
        claims.compare("Fig. 2", "latency never rises as chunks are cached, "
                       "%s" % region, "non-linear fall",
                       " / ".join(fmt_ms(v) for v in latencies) + " ms",
                       all(b <= a for a, b in zip(latencies, latencies[1:])),
                       required=True)
        # A linear curve would gain 2/9 of the 0 -> 9 drop on the last step.
        last = (latencies[-2] - latencies[-1]) / (latencies[0] - latencies[-1])
        claims.compare("Fig. 2", "plateau once nearby chunks dominate, %s"
                       % region, "7->9 gains little",
                       "7->9 gains %s of the 0->9 drop" % fmt_pct(last),
                       last < 0.1)


def policies(fig, region):
    """Agar, LRU-c and LFU-c by c, and Backend, in one region of Fig. 6."""
    fixed = {system: [fig.row(system=system, chunks=c, region=region)
                      for c in CHUNKS] for system in ("lru", "lfu")}
    return (fig.row(system="agar", region=region), fixed,
            fig.row(system="backend", region=region))


def fig6(claims):
    fig = Figure("paper/fig6_policies")
    print("### Figs. 6 and 7: Agar vs LRU-c, LFU-c and Backend "
          "(10 MB cache)\n")
    paper_best = {"frankfurt": ("LFU-7", 0.15), "sydney": ("LFU-9", 0.085)}
    for region in REGIONS:
        agar, fixed, backend = policies(fig, region)
        static = fixed["lru"] + fixed["lfu"]
        top = best(static)
        print("clients in %s:\n" % region)
        results_table(fig.rows(region=region))
        print("Agar vs best static (%s): %s lower latency\n"
              % (top["system"], fmt_pct(lead(agar, top))))

        paper_top, paper_lead = paper_best[region]
        claims.compare("Fig. 6", "Agar vs the best static policy, %s" % region,
                       "%s lower (vs %s)" % (fmt_pct(paper_lead), paper_top),
                       "%s lower (vs %s)" % (fmt_pct(lead(agar, top)),
                                             top["system"]),
                       near(lead(agar, top), paper_lead))
        lru1 = fixed["lru"][0]
        claims.compare("Fig. 6", "Agar vs LRU-1, %s" % region,
                       "41% lower (region not named)",
                       "%s lower" % fmt_pct(lead(agar, lru1)),
                       near(lead(agar, lru1), 0.41))
        claims.compare("Fig. 6", "Agar below every LRU-c, LFU-c and Backend, "
                       "%s" % region, "yes",
                       "%s ms vs best other %s ms" % (fmt_ms(ms(agar)),
                                                      fmt_ms(ms(top))),
                       all(ms(agar) < ms(r) for r in static + [backend]),
                       required=True)
    return fig


def fig7(claims, fig):
    for region in REGIONS:
        agar, fixed, _ = policies(fig, region)
        for system, rows in fixed.items():
            hits = [r["hit_ratio"] for r in rows]
            claims.compare("Fig. 7", "%s-c hit ratio falls as c grows, %s"
                           % (FIXED_CHUNKS[system], region), "yes",
                           " / ".join(fmt_pct(h) for h in hits),
                           all(b < a for a, b in zip(hits, hits[1:])),
                           required=True)
        slowest = [max(rows, key=ms) for rows in fixed.values()]
        claims.compare("Fig. 7", "1-chunk policies are the slowest of their "
                       "family, %s" % region, "yes",
                       "slowest: %s" % ", ".join(r["system"] for r in slowest),
                       all(r is rows[0]
                           for r, rows in zip(slowest, fixed.values())))
        static = fixed["lru"] + fixed["lfu"]
        top = max(static, key=lambda r: r["hit_ratio"])
        claims.compare("Fig. 7", "highest fixed-c hit ratio, %s" % region,
                       "~76%", "%s (%s)" % (fmt_pct(top["hit_ratio"]),
                                            top["system"]),
                       near(top["hit_ratio"], 0.76))
        big = [rows[CHUNKS.index(c)] for rows in fixed.values()
               for c in (7, 9)]
        claims.compare("Fig. 7", "Agar's hit ratio above every 7- and "
                       "9-chunk policy's, %s" % region, "yes",
                       "%s vs at most %s" % (
                           fmt_pct(agar["hit_ratio"]),
                           fmt_pct(max(r["hit_ratio"] for r in big))),
                       all(agar["hit_ratio"] > r["hit_ratio"] for r in big),
                       required=True)


def static_grid(fig, dimension, values, title, backend):
    """Figs. 8a/8b: Agar and LRU/LFU-5/9 per value of one swept key; returns
    Agar's lead over the best static policy per value."""
    statics = [("lru", 5), ("lru", 9), ("lfu", 5), ("lfu", 9)]
    print("### %s\n" % title)
    print("Backend (0 MB, zipf 1.1): %s ms\n" % fmt_ms(ms(backend)))
    leads, rows = {}, []
    for value in values:
        agar = fig.row(system="agar", **{dimension: value})
        others = [fig.row(system=s, chunks=c, **{dimension: value})
                  for s, c in statics]
        top = best(others)
        leads[value] = lead(agar, top)
        rows.append([value, fmt_ms(ms(agar))] +
                    [fmt_ms(ms(r)) for r in others] +
                    [top["system"], fmt_pct(leads[value])])
    table([dimension, "Agar", "LRU-5", "LRU-9", "LFU-5", "LFU-9",
           "best static", "Agar lead"], rows)
    return leads


def fig8(claims, backend):
    sizes = ["5MB", "10MB", "20MB", "50MB", "100MB"]
    leads = static_grid(Figure("paper/fig8a_cache_size"), "cache_bytes",
                        sizes, "Fig. 8a: cache size (Frankfurt)", backend)
    paper = {"5MB": 0.065, "10MB": 0.15, "20MB": 0.16, "50MB": 0.12,
             "100MB": 0.01}
    for size in sizes:
        claims.compare("Fig. 8a", "Agar's lead over the best static policy "
                       "at %s" % size, fmt_pct(paper[size]),
                       fmt_pct(leads[size]), near(leads[size], paper[size]))
    peak = max(sizes, key=lambda size: leads[size])
    claims.compare("Fig. 8a", "Agar's lead peaks at 10-20 MB", "10-20 MB",
                   peak, peak in ("10MB", "20MB"))

    workloads = ["uniform", "zipf:0.2", "zipf:0.5", "zipf:0.8", "zipf:0.9",
                 "zipf:1.0", "zipf:1.1", "zipf:1.4"]
    leads = static_grid(Figure("paper/fig8b_workloads"), "workload",
                        workloads, "Fig. 8b: workload (Frankfurt, 10 MB "
                        "cache)", backend)
    for workload in workloads[:3]:
        claims.compare("Fig. 8b", "all systems equal under %s" % workload,
                       "equal", "Agar leads by %s" % fmt_pct(leads[workload]),
                       abs(leads[workload]) < 0.02)
    for workload, paper_lead in (("zipf:0.8", 0.058), ("zipf:1.1", 0.15)):
        claims.compare("Fig. 8b", "Agar's lead under %s" % workload,
                       fmt_pct(paper_lead), fmt_pct(leads[workload]),
                       near(leads[workload], paper_lead))
    claims.compare("Fig. 8b", "the lead narrows from zipf 1.1 to 1.4",
                   "yes", "%s -> %s" % (fmt_pct(leads["zipf:1.1"]),
                                        fmt_pct(leads["zipf:1.4"])),
                   leads["zipf:1.4"] < leads["zipf:1.1"])


def fig10(claims):
    fig = Figure("paper/fig10_cache_contents")
    print("### Fig. 10: Agar's cache contents by option weight "
          "(share of cached chunks)\n")
    rows, installed = [], set()
    for entry, row in fig.runs:
        chunks = dict.fromkeys(WEIGHTS, 0)
        for run in row["runs"]:
            for weight, objects in run.get("weight_histogram", {}).items():
                chunks[int(weight)] += int(weight) * objects
        total = sum(chunks.values())
        shares = {w: chunks[w] / total if total else 0.0 for w in WEIGHTS}
        weights = sorted(w for w in WEIGHTS if chunks[w])
        installed.update(weights)
        scenario = "%s %s" % (entry["region"], entry["cache_bytes"])
        rows.append([scenario] + [fmt_pct(shares[w]) for w in WEIGHTS])
        claims.compare("Fig. 10", "at least two weights, %s" % scenario,
                       "a mix of weights", "weights %s" % weights,
                       len(weights) >= 2, required=True)
        claims.compare("Fig. 10", "a significant share goes to full "
                       "replicas, %s" % scenario, "yes",
                       "%s in 9-chunk options" % fmt_pct(shares[9]),
                       shares[9] >= 0.05)
    table(["scenario"] + ["weight %d" % w for w in WEIGHTS], rows)
    claims.compare("Fig. 10", "at least three weights across the figure",
                   "a mix of weights", "weights %s" % sorted(installed),
                   len(installed) >= 3, required=True)


def ablations():
    fig = Figure("paper/ablation_baselines")
    print("### Ablation: baseline strength (Frankfurt, 10 MB cache)\n")
    rows = [row for _, row in fig.runs]
    results_table(rows)
    agar, others = rows[0], rows[1:]
    top = best(others)
    print("Agar vs strongest baseline (%s): %s lower latency\n"
          % (top["system"], fmt_pct(lead(agar, top))))

    fig = Figure("paper/ablation_period")
    print("### Ablation: Agar's reconfiguration period "
          "(Frankfurt, 10 MB cache)\n")
    table(["period", "avg latency (ms)", "hit ratio", "evictions/run"],
          [["%s s" % fmt_ms(entry["period_s"]), fmt_ms(ms(row)),
            fmt_pct(row["hit_ratio"]),
            sum(run["cache"]["evictions"] for run in row["runs"]) //
            len(row["runs"])]
           for entry, row in fig.runs])


def p99(row):
    return row["p99_ms"]


def tail(claims):
    fig = Figure("ext/tail")
    print("### Extension: tail latency under gray failure (Frankfurt and "
          "Dublin clients, open loop 4/s; Virginia straggles 20% of fetches "
          "at 30x)\n")
    healthy = fig.row(scenario="")
    none, retry, hedge = (fig.row(fetch=policy)
                          for policy in ("none", "retry", "hedge"))
    rows = []
    for name, row in (("healthy", healthy), ("none", none), ("retry", retry),
                      ("hedge", hedge)):
        run = row["runs"][0]
        fetch = run.get("fetch", {})
        rows.append([name, fmt_ms(ms(row)), fmt_ms(row["p50_ms"]),
                     fmt_ms(row["p95_ms"]), fmt_ms(p99(row)),
                     run["degraded_reads"], fetch.get("timeouts", 0),
                     fetch.get("retries", 0), fetch.get("hedges_won", 0)])
    table(["fetch policy", "mean (ms)", "p50", "p95", "p99", "degraded",
           "timeouts", "retries", "hedges won"], rows)

    claims.check("Tail", "the straggler field at least doubles p99",
                 "p99 %s -> %s ms (x%.1f); the mean x%.1f"
                 % (fmt_ms(p99(healthy)), fmt_ms(p99(none)),
                    p99(none) / p99(healthy), ms(none) / ms(healthy)),
                 p99(none) >= 2.0 * p99(healthy))
    claims.check("Tail", "retry's p99 is above none's",
                 "%s vs %s ms" % (fmt_ms(p99(retry)), fmt_ms(p99(none))),
                 p99(retry) > p99(none))
    recovered = (p99(none) - p99(hedge)) / (p99(none) - p99(healthy))
    claims.check("Tail", "hedge's p99 is below none's",
                 "%s vs %s ms: recovers %s of the p99 stragglers add"
                 % (fmt_ms(p99(hedge)), fmt_ms(p99(none)),
                    fmt_pct(recovered)),
                 p99(hedge) < p99(none))


def adaptivity(claims):
    fig = Figure("ext/adaptivity")
    print("### Extension: adaptivity to a popularity shift (Sydney clients, "
          "open loop 20/s; at 30 s the hot set rotates by 20 and Tokyo "
          "fails, restored at 45 s; 10 s windows)\n")
    entry = fig.runs[0][0]
    events = {event["event"]: event["at_ms"] for event in entry["scenario"]}
    shift, restored = events["popularity_rotate"], events["restore_region"]
    width, period = entry["window_ms"], entry["period_s"] * 1000
    # A window that ends past the arrivals' span holds only the reads still
    # in flight.
    span = entry["ops"] / entry["arrival_rate"] * 1000

    def windows(row):
        """Mean latency by window start, whole windows only."""
        return {w["start_ms"]: w["mean_ms"] for w in row["runs"][0]["windows"]
                if w["end_ms"] <= span}

    def periods_to_recover(means):
        """Periods from the shift to the first window within 15% of the
        pre-shift one; None if no window is."""
        for start in sorted(t for t in means if t >= shift):
            if means[start] <= 1.15 * means[shift - width]:
                return (start - shift) // period
        return None

    means = [(row["system"], windows(row)) for _, row in fig.runs]
    table(["window"] + [system for system, _ in means],
          [["%d-%d s" % (start // 1000, (start + width) // 1000)] +
           [fmt_ms(by_start[start]) for _, by_start in means]
           for start in sorted(means[0][1])])
    print("Recovery to within 15% of each system's own pre-shift mean "
          "(0: never left it; -: not within the run):\n")
    rows = []
    for system, by_start in means:
        periods = periods_to_recover(by_start)
        rows.append([system, fmt_ms(by_start[shift - width]),
                     fmt_ms(by_start[shift]),
                     "-" if periods is None else periods])
    table(["system", "pre-shift (ms)", "at the shift", "periods to recover"],
          rows)

    agar = windows(fig.row(system="agar"))
    periods = periods_to_recover(agar)
    claims.check("Adaptivity", "Agar is back within 15% of its pre-shift "
                 "mean within two periods",
                 "%s ms before, %s at the shift, back after %s periods"
                 % (fmt_ms(agar[shift - width]), fmt_ms(agar[shift]),
                    periods),
                 periods is not None and periods <= 2)
    agar_after = [mean for start, mean in agar.items() if start >= restored]
    lru_after = [mean for row in fig.rows(system="lru")
                 for start, mean in windows(row).items() if start >= restored]
    claims.check("Adaptivity", "once Tokyo is back, every whole window of "
                 "Agar's is below every LRU-c's",
                 "Agar %s-%s ms vs LRU-c %s-%s ms"
                 % (fmt_ms(min(agar_after)), fmt_ms(max(agar_after)),
                    fmt_ms(min(lru_after)), fmt_ms(max(lru_after))),
                 max(agar_after) < min(lru_after))


def collab(claims):
    fig = Figure("ext/collab")
    print("### Extension: the cooperative cache tier (Frankfurt, Dublin and "
          "Virginia clients, Zipf 1.2; peers broadcast every 2 s)\n")
    none, broadcast = (fig.row(collab=tier) for tier in ("none", "broadcast"))
    peer_hits = [run["collab"]["peer_hits"] for run in broadcast["runs"]]
    table(["tier", "mean (ms)", "p50", "p99", "peer hits per run",
           "appends per run", "stale reads per run"],
          [[row["system"], fmt_ms(ms(row)), fmt_ms(row["p50_ms"]),
            fmt_ms(p99(row))] +
           [", ".join(str(run.get("collab", {}).get(key, 0))
                      for run in row["runs"])
            for key in ("peer_hits", "paxos_appends", "stale_config_reads")]
           for row in (none, broadcast)])

    claims.check("Collab", "broadcast lowers the mean",
                 "%s -> %s ms" % (fmt_ms(ms(none)), fmt_ms(ms(broadcast))),
                 ms(broadcast) < ms(none))
    change = p99(broadcast) / p99(none) - 1.0
    claims.check("Collab", "broadcast keeps p99 within 2%",
                 "%s -> %s ms (%+.1f%%)" % (fmt_ms(p99(none)),
                                            fmt_ms(p99(broadcast)),
                                            change * 100.0),
                 abs(change) < 0.02)
    claims.check("Collab", "every broadcast run has peer hits",
                 ", ".join(str(hits) for hits in peer_hits),
                 all(hits > 0 for hits in peer_hits))


def main():
    claims = Claims()
    try:
        fig2(claims)
        policies_fig = fig6(claims)
        fig7(claims, policies_fig)
        fig8(claims, policies_fig.row(system="backend", region="frankfurt"))
        fig10(claims)
        ablations()
        tail(claims)
        adaptivity(claims)
        collab(claims)
    except SpecMismatch as e:
        print("paper_claims: %s" % e, file=sys.stderr)
        return 1

    print("### Reproduction against the paper\n")
    table(["figure", "statement", "paper", "reproduction", "status"],
          claims.statements)
    print("### Extensions\n")
    table(["extension", "statement", "measured", "status"],
          claims.extensions)
    gaps = sum(1 for row in claims.statements if row[-1] != "agrees")
    print("paper_claims: %d of %d paper statements are gaps"
          % (gaps, len(claims.statements)))
    holds = sum(1 for row in claims.extensions if row[-1] == "holds")
    print("paper_claims: %d of %d extension rows hold"
          % (holds, len(claims.extensions)))
    for text in claims.failed:
        print("paper_claims: FAILED: %s" % text, file=sys.stderr)
    return 1 if claims.failed else 0


if __name__ == "__main__":
    sys.exit(main())
