#!/usr/bin/env bash
# Local CI entrypoint — runs the exact same gate as
# .github/workflows/ci.yml so a green `./ci.sh` means a green PR.
#
# The build is fully offline: every third-party dependency is a local
# path shim under crates/shims/, so no registry access is required.
set -euo pipefail
cd "$(dirname "$0")"

# CI_QUICK=1 (the default here and in the workflow) runs the fresh
# exp_brokerd wire-service check as its --smoke (C in {1,4}, small
# burst); CI_QUICK=0 runs the full sweep and holds it to the C=16 floor.
export CI_QUICK="${CI_QUICK:-1}"

run() {
    echo
    echo "==> $*"
    "$@"
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

# Smoke-check the engine-scale sweep: a reduced run must report the
# scheduler events/sec gauges for each swept endpoint count.
#
# results/exp_scale.metrics.json is the *committed* perf/alloc baseline
# (the one .gitignore exception), written by the last full sweep. Two
# gates against it:
#   1. the committed N=10k steady-state events/sec must stay above the
#      recorded floor — a PR can only re-commit the file from a run that
#      still clears it;
#   2. the fresh smoke run's steady-state alloc.count at N=1k must not
#      regress vs the committed baseline (alloc counts are deterministic
#      in the single-threaded sim; 10% headroom for allocator jitter).
# The smoke run writes to a scratch dir so the committed baseline stays
# untouched (re-commit it only from a deliberate full sweep).
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
ENGINE_N10K_FLOOR=5000000
committed_eps=$(metric results/exp_scale.metrics.json "exp_scale.engine.n10000.events_per_sec")
if [ "$committed_eps" -lt "$ENGINE_N10K_FLOOR" ]; then
    echo "FAIL: committed exp_scale.engine.n10000.events_per_sec=$committed_eps < floor $ENGINE_N10K_FLOOR"
    exit 1
fi
baseline_alloc=$(metric results/exp_scale.metrics.json "exp_scale.engine.n1000.alloc.count")

scratch=$(mktemp -d)
run env CELLBRICKS_RESULTS_DIR="$scratch" \
    cargo run --release -q -p cellbricks-bench --bin exp_scale -- --smoke
test -s "$scratch/exp_scale.metrics.json"
grep -q '"exp_scale.engine.n1000.events_per_sec"' "$scratch/exp_scale.metrics.json"
fresh_alloc=$(metric "$scratch/exp_scale.metrics.json" "exp_scale.engine.n1000.alloc.count")
alloc_cap=$((baseline_alloc + baseline_alloc / 10 + 8))
if [ "$fresh_alloc" -gt "$alloc_cap" ]; then
    echo "FAIL: steady-state alloc.count regressed: $fresh_alloc > cap $alloc_cap (baseline $baseline_alloc)"
    exit 1
fi
rm -rf "$scratch"
echo
echo "==> exp_scale gates OK (committed n10k ${committed_eps} ev/s >= ${ENGINE_N10K_FLOOR}; n1k alloc.count $fresh_alloc <= $alloc_cap)"

# Mega-fleet gates. Floor protocol, documented here
# because every number below depends on it:
#
#   * Wall-clock throughput on a shared box is noisy in one direction
#     only — interference makes a run slower, never faster — so each
#     fresh gate takes the BEST of N=3 runs as the box's capability.
#   * Floors are set at roughly 1/3 of the dev-box best-of-3 (n100k
#     measured ~3.9M ev/s), so a modest CI box still
#     clears them; the gate exists to catch multiplicative regressions
#     (an accidental O(N) scan, a lost early-out), not 10% drift.
#   * The committed baseline (results/exp_scale.metrics.json, written
#     by the last full sweep) must itself clear the floors — a PR can
#     only re-commit it from a run that does.
MEGA_N100K_FLOOR=1300000
MEGA_N1M_FLOOR=1000000
for gate in "n100000 $MEGA_N100K_FLOOR" "n1000000 $MEGA_N1M_FLOOR"; do
    set -- $gate
    v=$(metric results/exp_scale.metrics.json "exp_scale.mega.$1.events_per_sec")
    if [ "$v" -lt "$2" ]; then
        echo "FAIL: committed exp_scale.mega.$1.events_per_sec=$v < floor $2"
        exit 1
    fi
done

mega_best() { # mega_best <n> <runs> -> best ev/s over <runs> runs
    local n=$1 runs=$2 best=0 d eps
    for _ in $(seq "$runs"); do
        d=$(mktemp -d)
        env CELLBRICKS_RESULTS_DIR="$d" \
            cargo run --release -q -p cellbricks-bench --bin exp_scale -- \
            --mega-only "$n" >/dev/null
        eps=$(metric "$d/exp_scale.metrics.json" "exp_scale.mega.n$n.events_per_sec")
        rm -rf "$d"
        if [ "$eps" -gt "$best" ]; then best=$eps; fi
    done
    echo "$best"
}

echo
echo "==> mega n100k fresh best-of-3"
fresh_mega=$(mega_best 100000 3)
if [ "$fresh_mega" -lt "$MEGA_N100K_FLOOR" ]; then
    echo "FAIL: fresh mega n100k best-of-3 $fresh_mega ev/s < floor $MEGA_N100K_FLOOR"
    exit 1
fi
echo "==> mega gates OK (committed floors; fresh n100k best-of-3 $fresh_mega ev/s)"

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

# brokerd wire-service gate (the wire adapter over real sockets). Two layers:
#
#   1. The *committed* results/exp_brokerd.metrics.json — written by the
#      last full run — must itself record a served-auth/s at C=16 above
#      the floor, a cross-connection batching win >= 1.5x over the
#      single-request-per-batch baseline, and zero bad frames / lost
#      requests. A PR can only re-commit it from a run that clears this.
#   2. A fresh run reproduces the service end to end on this box. This
#      is wall-clock on a shared machine, so the fresh floor sits at
#      ~1/3 of the dev-box best (same protocol as the mega gates) and
#      only the correctness counters (bad_frames, lost) are exact.
#      CI_QUICK=1 runs --smoke (C in {1,4}, small burst); CI_QUICK=0
#      runs the full sweep and holds the fresh run to the C=16 floor.
BROKERD_C16_FLOOR=1600
BROKERD_WIN_X100_FLOOR=150
BROKERD_SMOKE_FLOOR=1000
wk=$(metric results/exp_brokerd.metrics.json "exp_brokerd.c16.served_per_sec")
ww=$(metric results/exp_brokerd.metrics.json "exp_brokerd.batch_win_x100")
wb=$(metric results/exp_brokerd.metrics.json "exp_brokerd.bad_frames")
wl=$(metric results/exp_brokerd.metrics.json "exp_brokerd.lost")
if [ "$wk" -lt "$BROKERD_C16_FLOOR" ]; then
    echo "FAIL: committed exp_brokerd.c16.served_per_sec=$wk < floor $BROKERD_C16_FLOOR"
    exit 1
fi
if [ "$ww" -lt "$BROKERD_WIN_X100_FLOOR" ]; then
    echo "FAIL: committed exp_brokerd.batch_win_x100=$ww < floor $BROKERD_WIN_X100_FLOOR"
    exit 1
fi
if [ "$wb" -ne 0 ] || [ "$wl" -ne 0 ]; then
    echo "FAIL: committed exp_brokerd recorded bad_frames=$wb lost=$wl (want 0/0)"
    exit 1
fi
wscratch=$(mktemp -d)
if [ "$CI_QUICK" = "1" ]; then
    run env CELLBRICKS_RESULTS_DIR="$wscratch" \
        cargo run --release -q -p cellbricks-bench --bin exp_brokerd -- --smoke
    fresh_wire=$(metric "$wscratch/exp_brokerd.metrics.json" "exp_brokerd.c4.served_per_sec")
    wire_floor=$BROKERD_SMOKE_FLOOR
else
    run env CELLBRICKS_RESULTS_DIR="$wscratch" \
        cargo run --release -q -p cellbricks-bench --bin exp_brokerd
    fresh_wire=$(metric "$wscratch/exp_brokerd.metrics.json" "exp_brokerd.c16.served_per_sec")
    wire_floor=$BROKERD_C16_FLOOR
fi
fresh_wb=$(metric "$wscratch/exp_brokerd.metrics.json" "exp_brokerd.bad_frames")
fresh_wl=$(metric "$wscratch/exp_brokerd.metrics.json" "exp_brokerd.lost")
if [ "$fresh_wire" -lt "$wire_floor" ]; then
    echo "FAIL: fresh exp_brokerd served/s $fresh_wire < floor $wire_floor"
    exit 1
fi
if [ "$fresh_wb" -ne 0 ] || [ "$fresh_wl" -ne 0 ]; then
    echo "FAIL: fresh exp_brokerd recorded bad_frames=$fresh_wb lost=$fresh_wl (want 0/0)"
    exit 1
fi
rm -rf "$wscratch"
echo
echo "==> exp_brokerd gates OK (committed c16 $wk au/s, win ${ww}x100; fresh $fresh_wire au/s, bad_frames 0, lost 0)"

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
