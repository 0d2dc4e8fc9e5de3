#!/usr/bin/env python3
"""Summarise the run records in .bench_build/records/ as markdown tables.

    python3 benchmark/report.py

For each workload: the median over its untraced runs of every end-to-end
figure and operation rate, and the per-layer table of its latest traced
run (layers that were called, by self time), with the tracing overhead:
the traced run's wall_ref over the untraced median, minus one.
"""

import glob
import json
import os
import statistics

RECORDS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       ".bench_build", "records")


def load():
    runs = {}
    for path in sorted(glob.glob(os.path.join(RECORDS, "*.json")), key=os.path.getmtime):
        with open(path) as fh:
            rec = json.load(fh)
        runs.setdefault(rec["workload"], {0: [], 1: []})[rec["trace"]].append(rec)
    return runs


def main() -> int:
    runs = load()
    for workload, by_trace in runs.items():
        plain, traced = by_trace[0], by_trace[1]
        print(f"### {workload}\n")
        if plain:
            figures = {}
            for rec in plain:
                for name, m in rec["metrics"].items():
                    figures.setdefault((name, m["unit"]), []).append(m["value"])
                figures.setdefault(("wall_s (best op times)", "s"), []).append(
                    rec["summary"]["wall_s"])
                for name, m in rec["operation_rates"].items():
                    figures.setdefault((name, m["unit"]), []).append(m["value"])
            print(f"Untraced runs: {len(plain)}, seeds "
                  f"{sorted(r['seed'] for r in plain)}, failed/attempted "
                  f"{sorted({(r['failed'], r['attempted']) for r in plain})}\n")
            print("| figure | unit | median | min | max |\n|---|---|---|---|---|")
            for (name, unit), vals in figures.items():
                print(f"| {name} | {unit} | {statistics.median(vals):.4g} "
                      f"| {min(vals):.4g} | {max(vals):.4g} |")
            print()
        if traced:
            rec = traced[-1]
            wall = rec["metrics"]["trace.wall_s"]["value"]
            line = f"Traced run (seed {rec['seed']}), fastest round: {wall:.3f} s"
            if plain:
                base = statistics.median(r["summary"]["wall_ref"] for r in plain)
                line += (f"; tracing overhead {rec['summary']['wall_ref'] / base - 1:+.1%}"
                         f" (wall_ref {rec['summary']['wall_ref']:.0f} traced, "
                         f"{base:.0f} untraced median)")
            print(line + "\n\n| layer | calls | self s | share |\n|---|---|---|---|")
            layers = {}
            for name, m in rec["metrics"].items():
                base_name, _, kind = name.rpartition(".")
                if kind in ("calls", "self_s"):
                    layers.setdefault(base_name, {})[kind] = m["value"]
            total = 0.0
            for name, v in sorted(layers.items(), key=lambda kv: -kv[1]["self_s"]):
                if v["calls"]:
                    total += v["self_s"]
                    print(f"| {name} | {v['calls']} | {v['self_s']:.4f} "
                          f"| {v['self_s'] / wall:.1%} |")
            print(f"| (sum) | | {total:.4f} | {total / wall:.1%} |\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
