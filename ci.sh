#!/usr/bin/env bash
# Local CI entrypoint — runs the exact same gate as
# .github/workflows/ci.yml so a green `./ci.sh` means a green PR.
#
# The build is fully offline: every third-party dependency is a local
# path shim under crates/shims/, so no registry access is required.
set -euo pipefail
cd "$(dirname "$0")"

run() {
    echo
    echo "==> $*"
    "$@"
}

metric() { # metric <file> <gauge-name> -> value
    local v
    v=$(grep -o "\"$2\":{\"value\":[0-9-]*" "$1" | grep -o '[0-9-]*$' || true)
    if [ -z "$v" ]; then
        echo "FAIL: gauge \"$2\" not found in $1 — the run did not" >&2
        echo "      record it (renamed metric, or the phase never ran)" >&2
        return 1
    fi
    echo "$v"
}

run cargo fmt --all -- --check
run cargo clippy --workspace --all-targets -- -D warnings
run cargo build --release --workspace
run cargo test -q --workspace

# The examples are part of the claim: `broker_server` is the one
# end-to-end check that a broker is the shared core behind `serve` on a
# UDP socket, serving one attach over loopback; `quickstart` drives the
# core with a batch of one. Both assert their own outcome.
run cargo run --release -q --example broker_server
run cargo run --release -q --example quickstart

# Crypto op-count gate: signature verification through the precomputed
# tables must spend at least 5x fewer field multiplications than the
# seed double-and-add path it replaced. The tally (a thread-local
# Fe::mul/Fe::square counter behind the `op-count` feature) is exact and
# deterministic, so — unlike wall-clock — this is a hard gate.
run cargo test --release -q -p cellbricks-crypto --features op-count \
    op_count_gate -- --nocapture

# Scale smoke: the attach-burst table (every UE must attach) and one
# mega row (at least 99 % of the ticks the UEs sent must reach the
# sinks); the run asserts both. Wall-clock rates are perfbench's to
# measure, not this step's.
scratch=$(mktemp -d)
run env CELLBRICKS_RESULTS_DIR="$scratch" \
    cargo run --release -q -p cellbricks-bench --bin exp_scale -- --smoke
rm -rf "$scratch"

# brokerd wire-service smoke: the real server on loopback UDP, at one
# and four clients. The run asserts that every request is answered and
# that no frame is malformed.
wscratch=$(mktemp -d)
run env CELLBRICKS_RESULTS_DIR="$wscratch" \
    cargo run --release -q -p cellbricks-bench --bin exp_brokerd -- --smoke
rm -rf "$wscratch"

# Multi-core brokerd scaling gate: with >= 2 cores, splitting each
# batch's crypto across W = nproc threads (capped at 8, the I/O thread
# running one range itself) must serve at least 1.15x the inline W=0
# rate at C=16. Three pairs of fresh full runs, back to back, the side
# going first alternating by pair; the gate reads the median of the
# three paired ratios, so box speed and a single slow minute cancel.
# Replies are byte-identical at any W (pinned by
# crates/core/tests/broker_pipeline.rs), so the comparison is apples to
# apples. Skipped on one core: there is nothing to split across.
if [ "$(nproc)" -ge 2 ]; then
    brokerd_rate() { # brokerd_rate <workers> -> C=16 served-auth/s
        local d rate
        d=$(mktemp -d)
        env CELLBRICKS_RESULTS_DIR="$d" \
            cargo run --release -q -p cellbricks-bench --bin exp_brokerd -- \
            --workers "$1" >/dev/null
        rate=$(metric "$d/exp_brokerd.metrics.json" "exp_brokerd.c16.served_per_sec")
        rm -rf "$d"
        echo "$rate"
    }
    split_w=$(( $(nproc) < 8 ? $(nproc) : 8 ))
    ratios=""
    for pair in 0 1 2; do
        if [ $((pair % 2)) -eq 0 ]; then
            b0=$(brokerd_rate 0)
            bw=$(brokerd_rate "$split_w")
        else
            bw=$(brokerd_rate "$split_w")
            b0=$(brokerd_rate 0)
        fi
        echo "==> brokerd pair $pair: W=0 $b0 au/s, W=$split_w $bw au/s"
        ratios="$ratios $((bw * 1000 / b0))"
    done
    ratio_med=$(printf '%s\n' $ratios | sort -n | sed -n 2p)
    if [ "$ratio_med" -lt 1150 ]; then
        echo "FAIL: brokerd W=$split_w/W=0 median paired ratio x$ratio_med/1000 < x1.15 (pairs:$ratios)"
        exit 1
    fi
    echo "==> brokerd multi-core scaling OK (W=$split_w over W=0: median x$ratio_med/1000, pairs:$ratios)"
else
    echo "==> brokerd multi-core scaling gate skipped ($(nproc) core < 2)"
fi

# Figure-replay gate, long half: the committed results/*.txt are claims
# this tree must keep reproducing bit-for-bit, and tier-1
# (tests/figure_replay.rs) replays six of the eight — with the fig7
# histogram and cc counter checks — in its debug build. `table1` and
# `quic_ablation` drive too long for that, so they are regenerated here
# in release and diffed against the committed copies.
replay=$(mktemp -d)
for fig in table1 quic_ablation; do
    run env CELLBRICKS_RESULTS_DIR="$replay" \
        cargo run --release -q -p cellbricks-bench --bin repro -- --figure "$fig"
    if ! diff -u "results/$fig.txt" "$replay/$fig.txt"; then
        echo "FAIL: repro no longer reproduces results/$fig.txt byte-identically"
        exit 1
    fi
    echo "==> results/$fig.txt replays byte-identically"
done
# The workflow uploads fig7's snapshot as an artifact; results/ is
# where it looks (the files are gitignored). tier-1 already diffed fig7.
run env CELLBRICKS_RESULTS_DIR="$replay" \
    cargo run --release -q -p cellbricks-bench --bin repro -- --figure fig7
for f in fig7.metrics.json fig7.trace.json; do
    cp "$replay/$f" "results/$f"
    test -s "results/$f"
done
rm -rf "$replay"
echo
echo "==> table1 + quic_ablation replay OK"

# perfbench (the repository's benchmark, BENCHMARK.json): its own unit
# tests — estimators, failure accounting, catalogue ↔ BENCHMARK.json —
# and four short runs that must each check their own outputs and lose
# nothing: the saturated wire, the wire at batches of one (the path the
# simulated broker runs), the mega world (wheel, engine and world:
# every packet a UE sent must have reached its sink), and the figure
# cells (3 s is two full passes, so the pass-to-pass replay-mismatch
# check and the sanity bands on every cell run here too). The numbers
# of a 3 s run are not read; the ten-pair comparison the benchmark
# exists for is `perfbench/run.sh`. `--locked` checks the frozen
# `perfbench/Cargo.lock` instead of rewriting it.
run cargo test -q --offline --locked --manifest-path perfbench/Cargo.toml
for workload in wire_sat wire_paced sim_scale sim_figures; do
    echo
    echo "==> perfbench $workload smoke"
    pb_line=$(cargo run --release --offline --locked --quiet --manifest-path perfbench/Cargo.toml -- \
        --workload "$workload" --seed 7 --seconds 3 --trace 0 | tail -n 1)
    case "$pb_line" in
        *'"correct": true'*'"failed": 0,'*) ;;
        *)
            echo "FAIL: perfbench $workload smoke: $pb_line"
            exit 1
            ;;
    esac
    echo "==> perfbench $workload smoke OK ($pb_line)"
done

echo
echo "CI gate passed."
