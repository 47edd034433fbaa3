#!/usr/bin/env python3
"""Alternating (ABBA) pairs of two bench/e2e run.exe builds on one workload.

    python3 scripts/ab_pairs.py PARENT_RUN_EXE CHANGE_RUN_EXE --workload W \\
        [--pairs 10] [--seconds 15] [--seed N]

Each pair runs both executables once, one process at a time, as

    EXE --workload W --seed N --seconds S --trace 0

Odd pairs run the parent first, even pairs the change first, so neither
side always gets the warmer (or cooler) machine.  Each run's last stdout
line is its JSON result.  Prints every pair's host_s, setup_s and
peak_heap_mb, then per metric each side's median and quartiles (or its
one value, when every run of that side gave the same), the change in
percent, the pairs the change won, tied and lost (lower is better for
all three), and whether the claim rule holds: the change won at least
9 of every 10 pairs (a tie counts for neither side), and its median is
better than the parent's by more than the parent's interquartile range.

This is the way to measure a host-clock claim: two builds run back to
back (first all of one, then all of the other) drift apart with the
machine's load, by more than the effects being measured.

The header names each executable with its size and SHA-256, and every
pair re-checks both: a build that rewrites one mid-run (`dune runtest`
rebuilds _build/default/bench/e2e/run.exe in the dev profile) would
compare build profiles, not changes.  So pass copies taken out of
_build, not _build paths.

Exits 1 if any run is not `correct` or has `failed` > 0, a run fails, or
either executable changes while the pairs run; 2 on bad arguments.  Uses
only the Python standard library.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

METRICS = ("host_s", "setup_s", "peak_heap_mb")


def quartiles(xs):
    """(q1, median, q3), by the method bench/e2e/compare.py uses."""
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return q1, statistics.median(xs), q3


def spread(xs):
    """A side's median and quartiles, or its one value if every run gave it."""
    if min(xs) == max(xs):
        return f"{xs[0]:.4f} (every run)"
    q1, med, q3 = quartiles(xs)
    return f"{med:.4f} [{q1:.4f}, {q3:.4f}]"


def claim_rule(parent, change):
    """(holds, reason) for a claimed gain (lower is better) of change over parent."""
    pairs = len(parent)
    won = sum(1 for a, b in zip(parent, change) if b < a)
    p1, mp, p3 = quartiles(parent)
    gain, iqr = mp - statistics.median(change), p3 - p1
    misses = []
    if won * 10 < pairs * 9:
        misses.append(f"won {won} of {pairs} pairs, under 9 in 10")
    if gain <= iqr:
        misses.append(f"median gain {gain:.4f} not above the parent's IQR {iqr:.4f}")
    return not misses, "; ".join(misses)


def identity(path):
    """(size in bytes, SHA-256 hex digest) of a file."""
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            digest.update(block)
    return os.path.getsize(path), digest.hexdigest()


def run_once(exe, args):
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = [ln for ln in proc.stdout.splitlines() if ln.strip()]
    if proc.returncode not in (0, 1) or not lines:
        sys.stderr.write(proc.stderr)
        sys.exit(f"ab_pairs: {' '.join(cmd)} exited {proc.returncode}")
    try:
        result = json.loads(lines[-1])
        values = {m: float(result["metrics"][m]["value"]) for m in METRICS}
        ok = result["correct"] is True and result["failed"] == 0
    except (ValueError, KeyError, TypeError) as e:
        sys.exit(f"ab_pairs: {exe}: cannot read the last output line ({e}): {lines[-1]!r}")
    return values, ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", metavar="PARENT_RUN_EXE")
    ap.add_argument("change", metavar="CHANGE_RUN_EXE")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--seed", type=int, default=42)
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    if args.seconds < 0:
        ap.error("--seconds must not be negative")

    print(f"ab_pairs: {args.workload}, {args.pairs} pairs, --seconds {args.seconds:g} "
          f"--seed {args.seed}")
    ids = {}
    for side in ("parent", "change"):
        path = os.path.abspath(getattr(args, side))
        setattr(args, side, path)
        try:
            ids[side] = identity(path)
        except OSError as e:
            ap.error(f"cannot read the {side} executable: {e}")
        print(f"  {side}: {path} ({ids[side][0]} bytes, sha256 {ids[side][1]})")
    header = ["pair", "first"] + [f"{side} {m}" for m in METRICS for side in ("parent", "change")]
    print("  ".join(f"{h:>19}" if i > 1 else f"{h:>6}" for i, h in enumerate(header)))

    samples = {"parent": {m: [] for m in METRICS}, "change": {m: [] for m in METRICS}}
    all_ok = True
    for pair in range(1, args.pairs + 1):
        order = ("parent", "change") if pair % 2 == 1 else ("change", "parent")
        got = {}
        for side in order:
            values, ok = run_once(getattr(args, side), args)
            got[side] = values
            if not ok:
                all_ok = False
                print(f"ab_pairs: pair {pair}: the {side} run is not correct or has failed "
                      "operations")
        for side in ("parent", "change"):
            for m in METRICS:
                samples[side][m].append(got[side][m])
        cells = [f"{pair:>6}", f"{order[0]:>6}"]
        cells += [f"{got[side][m]:>19.4f}" for m in METRICS for side in ("parent", "change")]
        print("  ".join(cells))
        for side in ("parent", "change"):
            path = getattr(args, side)
            now = identity(path) if os.path.exists(path) else None
            if now != ids[side]:
                sys.exit(f"ab_pairs: the {side} executable {path} changed during pair {pair}; "
                         "the pairs no longer compare the builds they were given")

    for m in METRICS:
        p, c = samples["parent"][m], samples["change"][m]
        mp, mc = statistics.median(p), statistics.median(c)
        pct = (mc - mp) / mp * 100 if mp else float("nan")
        won = sum(1 for a, b in zip(p, c) if b < a)
        lost = sum(1 for a, b in zip(p, c) if b > a)
        holds, why = claim_rule(p, c)
        print(f"{m}: median parent {spread(p)}, change {spread(c)} ({pct:+.1f}%); "
              f"won {won}, tied {args.pairs - won - lost}, lost {lost} of {args.pairs} pairs; "
              f"claim rule {'holds' if holds else 'fails: ' + why}")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
