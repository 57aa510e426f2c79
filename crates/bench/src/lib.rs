//! Experiment harness for the paper's tables and figures. Every figure
//! cell is defined once, in [`figures`]; the `repro` binary regenerates
//! them:
//!
//! | `repro --figure` | reproduces |
//! |--------|------------|
//! | `fig7` | Fig. 7 — attach latency breakdown, BL vs CB |
//! | `table1` | Table 1 — application performance matrix |
//! | `fig8` | Fig. 8 — throughput timeseries across a handover |
//! | `fig9` | Fig. 9 — attach-latency factor analysis |
//! | `fig10` | Fig. 10 — day vs night rate policing |
//! | `cc` | congestion-control ablation — CUBIC vs Reno vs BBR |
//! | `quic_ablation` | §4.2 future work — MPTCP vs QUIC migration |
//! | `reputation` | §4.3 extension — cheating-bTelco detection |
//! | `all` (default) | every row above, in this order |
//!
//! Run with `--release`; the Table 1 matrix simulates hours of drive time.
//! The other binaries (`exp_scale`, `exp_brokerd`, `brokerd`) measure
//! scale and the wire service; faults and broker failover are root
//! integration tests (`tests/chaos.rs`, `tests/broker_plane.rs`).

// `deny` rather than the workspace-wide `forbid`: the alloc-counting
// global allocator below is the one sanctioned unsafe block in the
// benchmark harness (GlobalAlloc is an unsafe trait by definition).
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod alloc_count;
pub mod figures;

/// Every binary and test that links this crate allocates through the
/// counting allocator, so an experiment can report `alloc.count` /
/// `alloc.bytes` per phase and `tests/alloc_guards.rs` can bound a hot
/// path's allocations (see [`alloc_count`]). Overhead is two relaxed
/// atomic adds per allocation — invisible next to the allocation itself.
#[global_allocator]
static GLOBAL_ALLOC: alloc_count::CountingAllocator = alloc_count::CountingAllocator;

/// Parse a `--seed <n>` style flag from argv, with a default.
#[must_use]
pub fn arg_u64(flag: &str, default: u64) -> u64 {
    arg_str(flag)
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Parse a `--listen <addr>` style flag with a string value.
#[must_use]
pub fn arg_str(flag: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

/// True when a bare `--flag` is present in argv.
#[must_use]
pub fn arg_flag(flag: &str) -> bool {
    std::env::args().any(|a| a == flag)
}

/// Render one horizontal rule matching a header width.
#[must_use]
pub fn rule(width: usize) -> String {
    "-".repeat(width)
}

/// Switch the global telemetry registry on; every binary calls this first.
pub fn telemetry_init() {
    cellbricks_telemetry::enable();
}

/// Where experiments write their outputs: `CELLBRICKS_RESULTS_DIR`,
/// default `results`.
#[must_use]
pub fn results_dir() -> String {
    std::env::var("CELLBRICKS_RESULTS_DIR").unwrap_or_else(|_| "results".into())
}

/// Export the experiment's telemetry: `<results_dir>/<exp>.metrics.json`
/// (flat counters/gauges/histogram summaries) and
/// `<results_dir>/<exp>.trace.json` (chrome://tracing).
pub fn telemetry_finish(exp: &str) {
    let dir = results_dir();
    let reg = cellbricks_telemetry::global();
    let metrics = format!("{dir}/{exp}.metrics.json");
    let trace = format!("{dir}/{exp}.trace.json");
    match reg.write_metrics_json(&metrics) {
        Ok(()) => eprintln!("{exp}: wrote {metrics}"),
        Err(e) => eprintln!("{exp}: failed to write {metrics}: {e}"),
    }
    match reg.write_chrome_trace(&trace) {
        Ok(()) => eprintln!("{exp}: wrote {trace}"),
        Err(e) => eprintln!("{exp}: failed to write {trace}: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arg_parser_defaults() {
        assert_eq!(arg_u64("--nope", 77), 77);
    }
}
