#!/usr/bin/env bash
# Evidence for the benchmark's agreement criterion.
#
# Builds the harness once, runs the full benchmark (all workloads, untraced)
# twice with the same seed, and prints, per (metric, workload), both values,
# their relative gap and the metric's bound. Deterministic metrics (virt_*,
# f1_mean, recall_at_10) must agree exactly. A third run with a second seed
# shows that nothing is tuned to the default seed.
#
#   perf/repeat.sh                 # default seed twice, then seed 7
#   SEED=3 SEED2=11 perf/repeat.sh
set -euo pipefail
cd "$(dirname "$0")/.."

SEED="${SEED:-20241016}"
SEED2="${SEED2:-7}"
SECS="${SECS:-10}"
OUT="perf/out"
mkdir -p "$OUT"

cargo build --release --quiet --manifest-path perf/Cargo.toml
BIN="${CARGO_TARGET_DIR:-perf/target}/release/metis-perf"

"$BIN" --seed "$SEED" --seconds "$SECS" --trace 0 >"$OUT/repeat-1.txt"
"$BIN" --seed "$SEED" --seconds "$SECS" --trace 0 >"$OUT/repeat-2.txt"
"$BIN" --seed "$SEED2" --seconds "$SECS" --trace 0 >"$OUT/repeat-3.txt"

python3 - "$OUT" "$SEED" "$SEED2" <<'PY'
import json, sys

out, seed, seed2 = sys.argv[1:4]
spec = json.load(open("BENCHMARK.json"))
exact = {"virt_delay_p50_s", "virt_delay_p90_s", "virt_slo_met_share", "f1_mean", "recall_at_10"}

def results(path):
    """workload name -> parsed result line, in file order."""
    found, name = {}, None
    for line in open(path):
        if line.startswith("== "):
            name = line.split()[1]
        elif line.startswith('{"correct"'):
            found[name] = json.loads(line)
    return found

a, b, c = (results(f"{out}/repeat-{i}.txt") for i in (1, 2, 3))
print(f"{'metric':<22} {'workload':<18} {'run 1':>14} {'run 2':>14} {'gap':>8} {'bound':>7}  {'verdict':<10} {'seed ' + seed2:>14}")
bad = 0
for m in spec["end_to_end"]:
    for w in spec["workloads"]:
        x, y, z = (r[w["name"]]["metrics"][m["name"]]["value"] for r in (a, b, c))
        worse = (y - x) / x if m["better"] == "lower" else (x - y) / x
        gap = abs(y - x) / abs(x)
        if m["name"] in exact:
            ok = x == y
            verdict = "exact" if ok else "DIFFERS"
        else:
            ok = worse <= m["bound"]
            verdict = "within" if ok else "OUTSIDE"
        bad += not ok
        print(f"{m['name']:<22} {w['name']:<18} {x:>14.6g} {y:>14.6g} {gap:>7.2%} {m['bound']:>7.0%}  {verdict:<10} {z:>14.6g}")
for r, label in ((a, "run 1"), (b, "run 2"), (c, f"seed {seed2}")):
    for w, d in r.items():
        if not d["correct"] or d["failed"]:
            bad += 1
            print(f"{label}: {w} reported correct={d['correct']} failed={d['failed']}")
print("all pairs agree within their bounds" if not bad else f"{bad} pair(s) disagree")
sys.exit(1 if bad else 0)
PY
