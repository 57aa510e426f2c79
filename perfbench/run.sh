#!/usr/bin/env bash
# Self-check: build offline, then run every workload N times in each of
# two interleaved sets of the same commit, alternating which set and
# which workload goes first, so that drift on the box hits both alike.
#
#   perfbench/run.sh [N=10] [SECONDS=run_seconds] [OUT=perfbench/out]
#
# Writes OUT/set_a.jsonl and OUT/set_b.jsonl (one result line per run,
# tagged with workload and seed) and prints
#   perfbench/compare.py OUT/set_a.jsonl OUT/set_b.jsonl
# which applies BENCHMARK.json's own bounds to the two sets.
set -euo pipefail
cd "$(dirname "$0")/.."

n="${1:-10}"
seconds="${2:-$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')}"
out="${3:-perfbench/out}"
mkdir -p "$out"
: >"$out/set_a.jsonl"
: >"$out/set_b.jsonl"

cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml
bin="${CARGO_TARGET_DIR:-perfbench/target}/release/perfbench"
workloads=(wire_sat wire_paced sim_scale sim_figures)

for ((i = 0; i < n; i++)); do
    if ((i % 2 == 0)); then sets=(a b); else sets=(b a); fi
    for set in "${sets[@]}"; do
        for ((k = 0; k < ${#workloads[@]}; k++)); do
            w="${workloads[$(((k + i) % ${#workloads[@]}))]}"
            seed=$((101 + i))
            echo "run $((i + 1))/$n set $set $w seed $seed" >&2
            line="$("$bin" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 2>/dev/null | tail -n 1)"
            printf '{"workload": "%s", "seed": %d, "result": %s}\n' "$w" "$seed" "$line" >>"$out/set_$set.jsonl"
        done
    done
done
python3 perfbench/compare.py "$out/set_a.jsonl" "$out/set_b.jsonl"
