#!/usr/bin/env python3
"""Allocation-regression guard for the host bench.

Compares every `minor_words_per_event`, `minor_collections` and
`major_words` cell and the promoted words per event (`promoted_words /
events`) of every engine cell, and every `minor_words_per_instr` cell
(the Racket VM), in a fresh BENCH_host.json against the committed
baseline (bench/host_alloc_baseline.json) and fails if any cell grew more
than the tolerance.  Wall-clock and events/sec are machine-dependent noise
and are deliberately not checked; words per event or instruction,
promoted and major words and the minor collection count are deterministic
for a fixed workload and build, so a >20% jump means a real regression on
the host hot path, not a slow runner.  Minor collections catch what words
cannot: a pointer stored into an old array fills the remembered set and
forces a collection at the same allocation.  Promoted words catch
retention: state kept alive across a minor collection, such as a closure
or box that a parked simulated thread holds, survives into the major heap
even when the words allocated per event do not move.  Major words catch
storage that is not recycled: the racket cell runs two programs, and the
second one's collector heap reuses the first's segment storage, so
without that reuse the figure about doubles.  A cell more than 20% below
its baseline gets a non-failing `stale` note: the baseline then lets the
figure drift back up unchecked, so re-take it.

Usage: check_alloc_regression.py BASELINE.json CURRENT.json
"""
import json
import sys

TOLERANCE = 1.20  # fail when current > baseline * TOLERANCE
STALE = 0.80  # note when current < baseline * STALE
UNITS = {
    "minor_words_per_event": "w/event",
    "minor_words_per_instr": "w/instr",
    "minor_collections": "minor GCs",
    "major_words": "major words",
}
PROMOTED = "promoted w/event"


def cells(doc, path=""):
    """Yield (path, unit, words) for every guarded figure of every bench cell."""
    if isinstance(doc, dict):
        for key, unit in UNITS.items():
            if key in doc:
                yield path, unit, float(doc[key])
        if "promoted_words" in doc and doc.get("events"):
            yield path, PROMOTED, float(doc["promoted_words"]) / float(doc["events"])
        for key, value in doc.items():
            yield from cells(value, f"{path}/{key}" if path else key)


def main(baseline_path, current_path):
    with open(baseline_path) as f:
        baseline = {(path, unit): words for path, unit, words in cells(json.load(f))}
    with open(current_path) as f:
        current = {(path, unit): words for path, unit, words in cells(json.load(f))}
    if not current:
        print(f"{current_path}: no guarded cells found", file=sys.stderr)
        return 1
    failed = False
    for (path, unit), words in sorted(current.items()):
        ref = baseline.get((path, unit))
        if ref is None:
            print(f"note {path}: {words:.2f} {unit} (no baseline; add one)")
            continue
        limit = ref * TOLERANCE
        if ref > 0 and words > limit:
            failed = True
            print(f"FAIL {path}: {words:.2f} {unit} > limit {limit:.2f} (baseline {ref:.2f})")
        elif words < ref * STALE:
            print(
                f"stale {path}: {words:.2f} {unit} is more than 20% below baseline {ref:.2f}; "
                "re-take bench/host_alloc_baseline.json"
            )
        else:
            print(f"ok   {path}: {words:.2f} {unit} (baseline {ref:.2f}, limit {limit:.2f})")
    if failed:
        print(
            "allocation regression: minor or promoted words per event, minor words per "
            "instruction, major words or minor collections grew >20% vs the committed "
            "baseline; if "
            "intentional, regenerate "
            "bench/host_alloc_baseline.json from a release-profile `bench host --json` run",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    sys.exit(main(sys.argv[1], sys.argv[2]))
