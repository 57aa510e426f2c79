//! Determinism regression for the indexed simulation engine.
//!
//! Runs the Fig. 7 local-placement benchmark twice with the same seed,
//! entirely through [`cellbricks::net::Driver`], and asserts that the
//! resulting rows are byte-identical (`f64::to_bits`, not approximate)
//! and that the engine processed exactly the same number of arrival and
//! poll events and sent exactly the same number of packets. Any change
//! to event ordering — a different heap tie-break, a stale timer entry
//! dispatched twice, a dirty endpoint re-queried at the wrong instant —
//! shows up here as a counter or bit mismatch.

use cellbricks::core::attach_bench::{
    run_baseline, run_cellbricks, Fig7Row, ProcProfile, PLACEMENTS,
};
use cellbricks_telemetry as telemetry;

/// Counters that must advance identically across the two runs.
const COUNTERS: [&str; 3] = [
    "net.world.packets_sent",
    "sim.scheduler.events.arrival",
    "sim.scheduler.events.poll",
];

fn counter_values() -> [u64; 3] {
    COUNTERS.map(|name| telemetry::counter(name).get())
}

/// The counters are process-global and `cargo test` runs this file's
/// tests on parallel threads: without this, one test's packets land in
/// the other's delta.
static COUNTERS_IN_USE: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn fig7_local() -> (Fig7Row, Fig7Row, [u64; 3]) {
    // A panicking holder leaves the `()` as valid as ever.
    let _exclusive = COUNTERS_IN_USE
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let before = counter_values();
    let profile = ProcProfile::default();
    let bl = run_baseline(PLACEMENTS[0], &profile, 5, 42);
    let cb = run_cellbricks(PLACEMENTS[0], &profile, 5, 42);
    let after = counter_values();
    let deltas = [
        after[0] - before[0],
        after[1] - before[1],
        after[2] - before[2],
    ];
    (bl, cb, deltas)
}

fn bits(row: &Fig7Row) -> [u64; 5] {
    [
        row.total_ms.to_bits(),
        row.ue_ms.to_bits(),
        row.enb_ms.to_bits(),
        row.agw_cloud_ms.to_bits(),
        row.other_ms.to_bits(),
    ]
}

/// Golden bit patterns for the fig7-local rows (5 trials, seed 42),
/// recorded with the heap-backed scheduler before the timer-wheel
/// migration. The wheel-backed `Driver` must reproduce them exactly:
/// the wheel's `(deadline, seq)` dispatch order is contractually
/// identical to `EventQueue`'s, so any divergence here means the
/// scheduler reordered events, not that the model changed.
const FIG7_LOCAL_BL_BITS: [u64; 5] = [
    0x403d4ccccccccccd, // total = 29.3 ms
    0x4012000000000000, // ue = 4.5 ms
    0x400c000000000000, // enb = 3.5 ms
    0x4034000000000000, // agw+cloud = 20 ms
    0x3ff4ccccccccccd0, // other
];
const FIG7_LOCAL_CB_BITS: [u64; 5] = [
    0x403b000000000000, // total = 27 ms
    0x4014000000000000, // ue = 5 ms
    0x3ff0000000000000, // enb = 1 ms
    0x40344ccccccccccd, // agw+cloud = 20.3 ms
    0x3fe6666666666660, // other
];

/// The wheel-backed engine replays fig7-local onto the exact bit
/// patterns recorded under the pre-wheel heap scheduler.
#[test]
fn fig7_wheel_replay_matches_heap_era_golden_bits() {
    telemetry::enable();
    let (bl, cb, _) = fig7_local();
    assert_eq!(
        bits(&bl),
        FIG7_LOCAL_BL_BITS,
        "BL row diverged from the recorded heap-scheduler golden: {bl:?}"
    );
    assert_eq!(
        bits(&cb),
        FIG7_LOCAL_CB_BITS,
        "CB row diverged from the recorded heap-scheduler golden: {cb:?}"
    );
}

#[test]
fn fig7_replays_bit_identically() {
    // Telemetry must be on so the scheduler counters actually advance.
    telemetry::enable();

    let (bl1, cb1, ev1) = fig7_local();
    let (bl2, cb2, ev2) = fig7_local();

    assert_eq!(bits(&bl1), bits(&bl2), "BL row drifted: {bl1:?} vs {bl2:?}");
    assert_eq!(bits(&cb1), bits(&cb2), "CB row drifted: {cb1:?} vs {cb2:?}");
    for (i, name) in COUNTERS.iter().enumerate() {
        assert_eq!(
            ev1[i], ev2[i],
            "{name} delta differs between identical runs"
        );
        assert!(ev1[i] > 0, "{name} never advanced — engine not counting");
    }
}
