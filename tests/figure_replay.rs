//! Figure replay: each committed figure under `results/` must be exactly
//! what its seed-42 cells render today. Every cell is a pure function of
//! its seed, so any drift in the simulation, transport or
//! congestion-control paths — deliberate or not — fails here until the
//! figure is regenerated with `repro` and re-reviewed.
//!
//! `table1` and `quic_ablation` are replayed by `ci.sh` only: their
//! drives are too long for a debug-build test.
//!
//! The registry snapshot taken right after a replay doubles as the
//! telemetry smoke: fig7's must carry the per-phase attach histograms,
//! and cc's the per-algorithm `cc.*` counters, proving each algorithm
//! actually ran behind the trait (not silently defaulted).

use cellbricks_bench::figures::{self, Family};
use cellbricks_telemetry as telemetry;

/// Fig. 7 reads its percentiles back from the process-global registry,
/// so each figure runs alone on a registry reset for it, as `repro` does.
static REGISTRY_IN_USE: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Replay `family` and return the registry snapshot it left.
fn replay(family: Family) -> telemetry::MetricsSnapshot {
    let (rendered, snapshot) = {
        // A panicking holder leaves the `()` as valid as ever.
        let _exclusive = REGISTRY_IN_USE
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        telemetry::enable();
        telemetry::global().reset();
        let outs: Vec<_> = figures::cells(family, 42)
            .iter()
            .map(figures::run)
            .collect();
        (
            figures::render(family, &outs),
            telemetry::global().snapshot(),
        )
    };
    let path = format!(
        "{}/results/{}",
        env!("CARGO_MANIFEST_DIR"),
        family.results_file()
    );
    let committed = std::fs::read_to_string(&path).expect("committed figure");
    assert!(
        rendered == committed,
        "{path} no longer replays byte-identically; rendered:\n{rendered}"
    );
    snapshot
}

#[test]
fn fig7_replays() {
    let snapshot = replay(Family::Fig7);
    let name = "fig7.us-east-1.CB.total_ns";
    let recorded = snapshot.histograms.get(name).map_or(0, |h| h.count);
    assert!(recorded > 0, "{name} recorded nothing");
}

#[test]
fn fig8_replays() {
    replay(Family::Fig8);
}

#[test]
fn fig9_replays() {
    replay(Family::Fig9);
}

#[test]
fn fig10_replays() {
    replay(Family::Fig10);
}

#[test]
fn cc_replays() {
    let snapshot = replay(Family::Cc);
    for name in [
        "cc.cubic.loss_events",
        "cc.reno.loss_events",
        "cc.bbr.probe_rtt_entries",
    ] {
        let counted = snapshot.counters.get(name).copied().unwrap_or(0);
        assert!(counted > 0, "{name} counted nothing");
    }
}

#[test]
fn reputation_replays() {
    replay(Family::Reputation);
}

#[test]
fn scale_replays() {
    replay(Family::Scale);
}
