#!/usr/bin/env python3
"""Noise-aware regression gate over the newest entry of BENCH_e2e.json.

    python3 scripts/bench_gate.py [BENCH_e2e.json]

Runs nothing: it reads the last entry that scripts/bench.sh appended and
fails (exit 1) only when, on some workload, an end-to-end metric of
BENCHMARK.json has a change median worse than the parent median by more
than that metric's bound AND the two interquartile ranges do not overlap.
A median that moved past its bound inside overlapping spreads is noise on
this kind of VM, not a regression; it is printed but does not fail.
Exit 2 when the file holds no entry or the entry lacks a metric.
"""

import json
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def worse_fraction(better, parent, change):
    """How much worse change is than parent, as a fraction of parent."""
    delta = change - parent if better == "lower" else parent - change
    if parent == 0:
        return math.inf if delta > 0 else 0.0
    return delta / abs(parent)


def main():
    path = Path(sys.argv[1]) if len(sys.argv) > 1 else ROOT / "BENCH_e2e.json"
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    history = json.loads(path.read_text()) if path.is_file() else []
    if not history:
        print(f"bench gate: no entry in {path}", file=sys.stderr)
        return 2
    entry = history[-1]
    print(f"bench gate: {path.name} entry {entry['parent'][:12]} -> "
          f"{entry['change'][:12]} ({entry['pairs']} pairs, "
          f"tile {entry['host'].get('tile', 'unrecorded')})")
    failures = []
    for workload in manifest["workloads"]:
        name = workload["name"]
        for spec in manifest["end_to_end"]:
            key = spec["name"]
            try:
                m = entry["workloads"][name][key]
            except KeyError:
                print(f"bench gate: {name} {key} missing", file=sys.stderr)
                return 2
            p, c = m["parent"], m["change"]
            worse = worse_fraction(spec["better"], p["median"], c["median"])
            overlap = max(p["q1"], c["q1"]) <= min(p["q3"], c["q3"])
            past_bound = worse > spec["bound"]
            verdict = "FAIL" if past_bound and not overlap else \
                      "noise" if past_bound else "ok"
            print(f"  {name:28s} {key:12s} {p['median']:11.4g} -> "
                  f"{c['median']:11.4g}  worse {100 * worse:+7.1f}% "
                  f"(bound {100 * spec['bound']:.0f}%)  "
                  f"IQRs {'overlap' if overlap else 'apart'}  {verdict}")
            if verdict == "FAIL":
                failures.append(f"{name} {key}")
    if failures:
        print("bench gate: FAILED on " + ", ".join(failures), file=sys.stderr)
        return 1
    print("bench gate: passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
