"""Summarise run records written by run.py into one baseline file.

    python3 benchmarks/summarize.py --label NAME OUT_JSON RECORD.json...

For each workload it keeps the per-layer metric -> end-to-end metric map
from workload.py, every run's raw samples and machine facts, and
gives each end-to-end metric's values over the untraced runs with their
median, quartiles (`statistics.quantiles(values, n=4)`) and spread, the
quartile distance as a share of the median, and the same for the measured
seconds before speed normalisation.  The spread is compared with a
third of the metric's bound in BENCHMARK.json.  Traced runs give the median
of every per-layer metric and the tracing overhead: the traced runs'
median `wall_s` minus the untraced runs' median `wall_s`.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

from workload import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent


def quartiles(values) -> dict:
    values = list(values)
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return {"n": len(values), "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None}


def summarize(records: list[dict], bench: dict) -> dict:
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    out: dict = {}
    for name in sorted({r["workload"] for r in records}):
        plain = [r for r in records if r["workload"] == name and not r["trace"]]
        traced = [r for r in records if r["workload"] == name and r["trace"]]
        wl: dict = {"moves": WORKLOADS[name].moves,
                    "runs": [{k: r[k] for k in
                              ("seed", "trace", "setup_samples", "samples",
                               "raw_seconds", "end_to_end", "facts")}
                             for r in plain + traced]}
        if plain:
            wl["end_to_end"] = {}
            for metric, bound in bounds.items():
                q = quartiles(r["end_to_end"][metric] for r in plain)
                q["bound"] = bound
                q["steady"] = q["spread"] is not None and q["spread"] < bound / 3
                wl["end_to_end"][metric] = q
            wl["raw_seconds"] = {
                metric: quartiles(r["raw_seconds"][metric] for r in plain)
                for metric in plain[0]["raw_seconds"]}
            wl["checks_failed"] = sum(s["checks_failed"]
                                      for r in plain for s in r["samples"])
        if traced:
            keys = traced[0]["layer"]
            wl["per_layer"] = {
                k: {"median": statistics.median(r["layer"][k]["value"]
                                                for r in traced),
                    "unit": keys[k]["unit"]}
                for k in keys}
        if plain and traced:
            untraced = wl["end_to_end"]["wall_s"]["median"]
            timed = statistics.median(r["end_to_end"]["wall_s"] for r in traced)
            wl["tracing_overhead_s"] = timed - untraced
            wl["tracing_overhead_share"] = (timed - untraced) / untraced
        out[name] = wl
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True)
    ap.add_argument("output")
    ap.add_argument("records", nargs="+")
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    records = [json.loads(Path(p).read_text()) for p in args.records]
    summary = summarize(records, bench)
    doc = {"label": args.label, "run_seconds": bench["run_seconds"],
           "workloads": summary}
    Path(args.output).write_text(json.dumps(doc, indent=1) + "\n")
    for name, wl in summary.items():
        for metric, q in wl.get("end_to_end", {}).items():
            print(f"{name:<14}{metric:<13} n={q['n']:<3} median={q['median']:.4f}"
                  f" q1={q['q1']:.4f} q3={q['q3']:.4f} spread={q['spread']:.4f}"
                  f" bound/3={q['bound'] / 3:.4f} {'ok' if q['steady'] else 'WIDE'}")
        for metric, q in wl.get("raw_seconds", {}).items():
            print(f"{name:<14}{metric:<13} measured, not speed-normalised:"
                  f" median={q['median']:.4f} spread={q['spread']:.4f}")
        if "tracing_overhead_s" in wl:
            print(f"{name:<14}tracing overhead {wl['tracing_overhead_s']:+.4f} s"
                  f" ({wl['tracing_overhead_share']:+.2%})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
