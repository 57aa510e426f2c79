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
# end-to-end check that a broker is the shared core plus ~20 lines over
# `serve_tcp`; `quickstart` drives the core with a batch of one. Both
# assert their own outcome.
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

# Chaos gate: every scripted fault class (link flap, burst loss, bTelco
# crash+restart, broker outage) must converge — the run itself asserts,
# and the exported metrics must record zero unrecovered phases.
run cargo run --release -q -p cellbricks-bench --bin exp_chaos -- --smoke
test -s results/exp_chaos.metrics.json
grep -q '"fault.unrecovered":0' results/exp_chaos.metrics.json
echo
echo "==> results/exp_chaos.metrics.json OK"

# Broker failover gate: the broker is one primary/standby replica pair
# over a shared store, and a mid-burst primary kill must cost zero
# failed attaches (the UE retry timer fails over to the standby). The
# run is measured in simulated time, so the count is a pure function of
# the seed.
bscratch=$(mktemp -d)
run env CELLBRICKS_RESULTS_DIR="$bscratch" \
    cargo run --release -q -p cellbricks-bench --bin exp_broker
bfail=$(metric "$bscratch/exp_broker.metrics.json" "exp_broker.kill.failed_attaches")
if [ "$bfail" -ne 0 ]; then
    echo "FAIL: exp_broker kill phase recorded $bfail failed attaches (want 0)"
    exit 1
fi
rm -rf "$bscratch"
echo
echo "==> exp_broker gate OK (kill failed_attaches 0)"

# brokerd wire-service smoke: the real server on loopback UDP, then the
# TCP transport with a report larger than any datagram. The run asserts
# that every request is answered and that no frame is malformed.
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

# Figure-replay gate: the committed results/*.txt are claims this tree
# must keep reproducing bit-for-bit. Every figure cell is a pure function
# of its seed (no wall clock, no ambient RNG), so `repro` regenerates all
# eight figures into a scratch dir and each is diffed against the
# committed copy — any drift in the simulation, transport, or
# congestion-control hot paths (deliberate or accidental) turns the gate
# red until the figures are regenerated and re-reviewed.
replay=$(mktemp -d)
run env CELLBRICKS_RESULTS_DIR="$replay" \
    cargo run --release -q -p cellbricks-bench --bin repro -- --figure all
for fig in fig7 table1 fig8 fig9 fig10 cc quic_ablation reputation; do
    if ! diff -u "results/$fig.txt" "$replay/$fig.txt"; then
        echo "FAIL: repro no longer reproduces results/$fig.txt byte-identically"
        exit 1
    fi
    echo "==> results/$fig.txt replays byte-identically"
done

# The replay's metrics snapshots double as the telemetry smoke: fig7's
# must carry the per-phase attach histograms, and cc's the
# per-algorithm cc.* counters, proving each algorithm actually ran behind
# the trait (not silently defaulted).
for check in "fig7 fig7.us-east-1.CB.total_ns" "cc cc.cubic.loss_events" \
    "cc cc.reno.loss_events" "cc cc.bbr.probe_rtt_entries"; do
    set -- $check
    if ! grep -q "\"$2\"" "$replay/$1.metrics.json"; then
        echo "FAIL: \"$2\" missing from $1.metrics.json"
        exit 1
    fi
done
# The workflow uploads fig7's snapshot as an artifact; results/ is
# where it looks (the files are gitignored).
for f in fig7.metrics.json fig7.trace.json; do
    cp "$replay/$f" "results/$f"
    test -s "results/$f"
done
rm -rf "$replay"
echo
echo "==> figure replay + fig7 histograms + cc counters OK"

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
