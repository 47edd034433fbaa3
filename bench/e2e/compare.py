#!/usr/bin/env python3
"""Compare two result files written by `run.exe --out FILE`.

    python3 bench/e2e/compare.py BASE.json NEW.json [--manifest BENCHMARK.json]

Exact metrics (clock "sim": simulated quantities and counts) must be
identical.  Host metrics compare medians: an end-to-end metric regresses
when the new median is worse than the base median by more than its bound
in BENCHMARK.json, and is "unresolved" when either side's quartile spread
is wider than that bound, unless every new value beats every base value.
Per-layer host metrics have no bound; a change beyond LAYER_NOTE is shown
for reading.

Prints one row per workload, then a line for every metric that changed,
regressed or could not be resolved.  Exits 1 on a regression or a changed
exact metric, 0 otherwise.  Uses only the Python standard library.
"""

import argparse
import json
import statistics
import sys

LAYER_NOTE = 0.10


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base")
    ap.add_argument("new")
    ap.add_argument("--manifest", default="BENCHMARK.json")
    args = ap.parse_args()

    with open(args.manifest) as f:
        manifest = json.load(f)
    bounds = {m["name"]: m for m in manifest["end_to_end"]}
    better = {m["name"]: m["better"] for m in manifest["end_to_end"] + manifest["per_layer"]}
    with open(args.base) as f:
        base = json.load(f)["workloads"]
    with open(args.new) as f:
        new = json.load(f)["workloads"]

    bad = False
    for wname in base:
        if wname not in new:
            print(f"{wname}: missing from {args.new}")
            continue
        bm, nm = base[wname]["metrics"], new[wname]["metrics"]
        cells, notes = [], []
        same = changed = 0
        for name in bm:
            if name not in nm:
                notes.append(f"  {name}: missing from {args.new}")
                continue
            b, n = bm[name], nm[name]
            if b["clock"] == "sim":
                if b["values"] == n["values"]:
                    same += 1
                else:
                    changed += 1
                    bad = True
                    notes.append(f"  {name}: CHANGED {b['median']:.6g} -> {n['median']:.6g} {b['unit']}")
                continue
            bq1, bmed, bq3 = quartiles(b["values"])
            nq1, nmed, nq3 = quartiles(n["values"])
            lower = better.get(name, "lower") == "lower"
            worse = ((nmed - bmed) if lower else (bmed - nmed)) / bmed if bmed else 0.0
            change = f"{(nmed - bmed) / bmed:+.1%}" if bmed else "n/a"
            if name not in bounds:
                if abs(worse) > LAYER_NOTE:
                    notes.append(f"  {name}: {bmed:.6g} -> {nmed:.6g} {b['unit']} ({change}, per-layer)")
                continue
            bound = bounds[name]["bound"]
            spread = max((bq3 - bq1) / bmed if bmed else 0.0, (nq3 - nq1) / nmed if nmed else 0.0)
            new_wins = (max(n["values"]) < min(b["values"])) if lower else (min(n["values"]) > max(b["values"]))
            if spread > bound and not new_wins:
                verdict = "unresolved"
            elif worse > bound:
                verdict = "REGRESSION"
                bad = True
            else:
                verdict = "ok"
            cells.append(f"{name} {change} {verdict}")
            if verdict != "ok":
                notes.append(
                    f"  {name}: median {bmed:.6g} -> {nmed:.6g} {b['unit']} ({change}), "
                    f"spread {spread:.1%}, bound {bound:.0%}: {verdict}"
                )
        cells.append(f"exact {same} same, {changed} changed")
        print(f"{wname:15s} | " + " | ".join(cells))
        for line in notes:
            print(line)
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
