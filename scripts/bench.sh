#!/usr/bin/env bash
# Records the end-to-end perf trajectory of one change against its parent.
#
#   scripts/bench.sh PARENT_REF
#
# Extracts PARENT_REF (any git revision) into .bench_build/parent-<sha>/ with
# `git archive`, then runs `perfbench/run.py` on every workload listed in
# BENCHMARK.json, for the parent and for this checkout's working tree, in 10
# alternating parent/change pairs of BENCHMARK.json's run_seconds each. The
# VM this repository is measured on drifts between fast and slow phases, so
# only pairs run back to back are compared. Every run must report
# "correct": true, or the script stops without writing anything.
#
# Appends one entry to BENCH_e2e.json at the repo root: per workload and
# end-to-end metric, the median and interquartile range of each side, the
# median change in percent and the number of pairs the change won. After the
# pairs, one `--trace 1` run per side and workload records the per-layer
# figures that show where a gain landed (ml.fit_rows_per_s, ml.fit_share,
# pool.utilization) under "traced". The same commit runs a different matmul
# tile on different CPUs, so the entry's "host" block names the tile width
# each side dispatched to on this host, as bench/micro_mlp_fit reports it;
# entries from different hosts compare only at equal widths. The block also
# names the C library ("libc", e.g. "glibc 2.36"): exp comes from libm, so
# its bits, and every result that uses them, depend on it.
# Each build goes to the .bench_build/ of its own checkout.
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ $# -ne 1 ]]; then
  echo "usage: scripts/bench.sh PARENT_REF" >&2
  exit 2
fi
parent_sha="$(git rev-parse --verify "$1^{commit}")"
change_sha="$(git rev-parse HEAD)"
if ! git diff --quiet HEAD --; then change_sha="$change_sha+dirty"; fi
pairs=10

parent_dir=".bench_build/parent-$parent_sha"
if [[ ! -f "$parent_dir/CMakeLists.txt" ]]; then
  rm -rf "$parent_dir"
  mkdir -p "$parent_dir"
  git archive "$parent_sha" | tar -x -C "$parent_dir"
fi

runs_dir="$(mktemp -d .bench_build/runs.XXXXXX)"
trap 'rm -rf "$runs_dir"' EXIT

seconds="$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')"
workloads="$(python3 -c 'import json
for w in json.load(open("BENCHMARK.json"))["workloads"]: print(w["name"])')"

run() {  # run SIDE CHECKOUT WORKLOAD PAIR
  local out="$runs_dir/$3.$1.$4.json" code=0
  # The full stdout goes to the .log: its CHECK FAILED and per-search
  # checks=FAILED lines say which check broke. The JSON summary is its last
  # line.
  (cd "$2" && python3 perfbench/run.py --workload "$3" --seed 42 \
      --seconds "$seconds") >"$out.log" 2>"$out.err" || code=$?
  tail -n 1 "$out.log" >"$out"
  if ((code != 0)) || ! python3 -c 'import json, sys
sys.exit(0 if json.load(open(sys.argv[1]))["correct"] else 1)' "$out" \
      2>/dev/null; then
    echo "bench: $1 run of $3, pair $4, failed its output checks:" \
      "run.py exited $code" >&2
    grep -E 'CHECK FAILED|checks=FAILED' "$out.log" >&2 || true
    echo "bench: full output kept in $out.log and $out.err" >&2
    trap - EXIT
    exit 1
  fi
  echo "bench: $3 pair $4 $1 done" >&2
}

tile() {  # tile CHECKOUT: the matmul tile width the checkout dispatches to
  local dir="$1/.bench_build/micro"
  { cmake -S "$1" -B "$dir" -DCMAKE_BUILD_TYPE=Release \
        -DBHPO_BUILD_TESTS=OFF -DBHPO_BUILD_EXAMPLES=OFF >&2 &&
      cmake --build "$dir" --target micro_mlp_fit -j4 >&2 &&
      "$dir/bench/micro_mlp_fit" --reps 1 --max-iter 1 --out /dev/null \
        2>/dev/null | python3 -c 'import json, sys
print(json.load(sys.stdin).get("tile", "unknown"))'; } || echo unknown
}
parent_tile="$(tile "$parent_dir")"
change_tile="$(tile .)"
echo "bench: tile $parent_tile (parent), $change_tile (change)" >&2

for workload in $workloads; do
  for ((pair = 0; pair < pairs; ++pair)); do
    # Alternate which side goes first, so neither always runs warm.
    if ((pair % 2 == 0)); then
      run parent "$parent_dir" "$workload" "$pair"
      run change . "$workload" "$pair"
    else
      run change . "$workload" "$pair"
      run parent "$parent_dir" "$workload" "$pair"
    fi
  done
done

traced() {  # traced SIDE CHECKOUT WORKLOAD
  local out="$runs_dir/$3.$1.traced.json" code=0
  (cd "$2" && python3 perfbench/run.py --workload "$3" --seed 42 \
      --seconds "$seconds" --trace 1) >"$out.log" 2>"$out.err" || code=$?
  tail -n 1 "$out.log" >"$out"
  if ((code != 0)); then
    echo "bench: traced $1 run of $3 failed: run.py exited $code" >&2
    echo "bench: full output kept in $out.log and $out.err" >&2
    trap - EXIT
    exit 1
  fi
  echo "bench: $3 traced $1 done" >&2
}

for workload in $workloads; do
  traced parent "$parent_dir" "$workload"
  traced change . "$workload"
done

python3 - "$runs_dir" "$parent_sha" "$change_sha" "$pairs" "$seconds" \
    "$parent_tile" "$change_tile" <<'EOF'
import datetime, json, os, platform, statistics, sys
from pathlib import Path

runs, parent, change, pairs, seconds, parent_tile, change_tile = sys.argv[1:8]
pairs = int(pairs)
manifest = json.load(open("BENCHMARK.json"))

def quartiles(xs):
    q1, median, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}

workloads = {}
for w in manifest["workloads"]:
    name = w["name"]
    side = {s: [json.load(open(Path(runs) / f"{name}.{s}.{p}.json"))["metrics"]
                for p in range(pairs)] for s in ("parent", "change")}
    metrics = {}
    for m in manifest["end_to_end"]:
        key = m["name"]
        before = [r[key]["value"] for r in side["parent"]]
        after = [r[key]["value"] for r in side["change"]]
        better = (lambda b, a: a < b) if m["better"] == "lower" else \
                 (lambda b, a: a > b)
        p, c = quartiles(before), quartiles(after)
        metrics[key] = {
            "unit": m["unit"], "better": m["better"],
            "parent": p, "change": c,
            "change_pct": 100.0 * (c["median"] - p["median"]) / p["median"]
                          if p["median"] else None,
            "wins": sum(better(b, a) for b, a in zip(before, after)),
        }
    workloads[name] = metrics

# The per-layer figures of one traced run per side.
TRACED = ("ml.fit_rows_per_s", "ml.fit_share", "pool.utilization")
traced = {}
for w in manifest["workloads"]:
    name = w["name"]
    traced[name] = {}
    for s in ("parent", "change"):
        result = json.load(open(Path(runs) / f"{name}.{s}.traced.json"))
        if not result["correct"]:
            sys.exit(f"bench: the traced {s} run of {name} failed its checks")
        traced[name][s] = {k: result["metrics"][k]["value"] for k in TRACED}

cpu = next((line.split(":", 1)[1].strip()
            for line in open("/proc/cpuinfo") if line.startswith("model name")),
           "unknown")
entry = {
    "date": datetime.datetime.now(datetime.timezone.utc).isoformat(
        timespec="seconds"),
    "parent": parent, "change": change,
    "pairs": pairs, "seconds": float(seconds), "seed": 42,
    "host": {"cpu": cpu, "nproc": os.cpu_count(),
             "libc": " ".join(filter(None, platform.libc_ver())) or "unknown",
             "tile": change_tile, "parent_tile": parent_tile},
    "workloads": workloads,
    "traced": traced,
}
path = Path("BENCH_e2e.json")
history = json.loads(path.read_text()) if path.is_file() else []
history.append(entry)
path.write_text(json.dumps(history, indent=1) + "\n")
for name, metrics in workloads.items():
    for key, m in metrics.items():
        pct = "n/a" if m["change_pct"] is None else f"{m['change_pct']:+.1f}%"
        print(f"{name:28s} {key:12s} {m['parent']['median']:12.4g} -> "
              f"{m['change']['median']:12.4g} {pct:>8s}  "
              f"wins {m['wins']}/{pairs}")
for name, sides in traced.items():
    for key in TRACED:
        print(f"{name:28s} {key:18s} traced {sides['parent'][key]:10.4g} -> "
              f"{sides['change'][key]:10.4g}")
EOF
