//! Cross-crate guards on the *shape* of every paper result: these are the
//! claims EXPERIMENTS.md reports, pinned as tests so regressions in any
//! substrate (transport, policer, RAN, SAP) show up immediately.
//!
//! The cells are the figure registry's own (`cellbricks_bench::figures`),
//! with drives cut shorter than the committed figures run them; the
//! assertions check orderings and coarse magnitudes, not exact values.

use cellbricks::apps::emulation::{Arch, DriveOutcome, EmulationConfig, Workload};
use cellbricks::net::TimeOfDay;
use cellbricks::ran::RouteKind;
use cellbricks::sim::SimDuration;
use cellbricks_bench::figures::{self, Apps, Cell, CellOutput, Family};

/// Run the seed-42 `family` drive that `pick` selects, cut to `secs`:
/// forced handovers that would leave under 10 s of drive after them are
/// dropped. Returns the output and the handovers the cut drive kept.
fn drive(
    family: Family,
    secs: u64,
    pick: impl Fn(&EmulationConfig, Apps) -> bool,
) -> (CellOutput, Vec<f64>) {
    let mut cell = figures::cells(family, 42)
        .into_iter()
        .find(|c| matches!(c, Cell::Drive(cfg, apps) if pick(cfg, *apps)))
        .expect("the registry has the cell");
    let Cell::Drive(cfg, _) = &mut cell else {
        unreachable!()
    };
    cfg.duration = SimDuration::from_secs(secs);
    if let Some(handovers) = &mut cfg.forced_handovers_s {
        handovers.retain(|&h| h + 10.0 <= secs as f64);
    }
    let handovers = cfg.forced_handovers_s.clone().unwrap_or_default();
    (figures::run(&cell), handovers)
}

/// Table 1's `(route, tod, arch, workload)` cell on a 150 s drive.
fn table1(route: RouteKind, tod: TimeOfDay, arch: Arch, workload: Workload) -> DriveOutcome {
    let (out, _) = drive(Family::Table1, 150, |c, _| {
        c.route == route && c.tod == tod && c.arch == arch && c.workload == workload
    });
    out.drive().clone()
}

/// Bytes delivered in the two seconds after each handover.
fn post_handover_bytes(out: &CellOutput, handovers: &[f64]) -> f64 {
    let sums = out.series().sums();
    handovers
        .iter()
        .map(|&h| sums[h as usize] + sums[h as usize + 1])
        .sum()
}

// --- Fig. 7 shape: CB saves exactly the S6A round trips. ---

#[test]
fn fig7_cb_saving_grows_with_cloud_distance() {
    let mut cell = figures::cells(Family::Fig7, 7).remove(0);
    if let Cell::Fig7 { trials, .. } = &mut cell {
        *trials = 5;
    }
    let CellOutput::Fig7 { rows, .. } = figures::run(&cell) else {
        unreachable!()
    };
    let savings: Vec<f64> = rows
        .chunks(2)
        .map(|p| (p[0].total_ms - p[1].total_ms) / p[0].total_ms)
        .collect();
    // local < us-west < us-east (paper: ~0%, 14.0%, 40.8%).
    assert!(
        savings[0] < savings[1] && savings[1] < savings[2],
        "{savings:?}"
    );
    assert!(
        (savings[2] - 0.408).abs() < 0.1,
        "us-east saving {}",
        savings[2]
    );
}

// --- Table 1 shape: CB within a few percent of MNO. ---

#[test]
fn table1_iperf_slowdown_within_paper_band() {
    let mno = table1(
        RouteKind::Downtown,
        TimeOfDay::Day,
        Arch::Mno,
        Workload::Iperf,
    );
    let cb = table1(
        RouteKind::Downtown,
        TimeOfDay::Day,
        Arch::CellBricks,
        Workload::Iperf,
    );
    let slowdown = (mno.iperf_mbps.unwrap() - cb.iperf_mbps.unwrap()) / mno.iperf_mbps.unwrap();
    // Paper: −1.61% … +3.06%; allow a wider CI for the short run.
    assert!(slowdown.abs() < 0.08, "slowdown {slowdown:.3}");
}

#[test]
fn table1_day_night_throughput_regimes() {
    let day = table1(
        RouteKind::Downtown,
        TimeOfDay::Day,
        Arch::Mno,
        Workload::Iperf,
    );
    let night = table1(
        RouteKind::Downtown,
        TimeOfDay::Night,
        Arch::Mno,
        Workload::Iperf,
    );
    let d = day.iperf_mbps.unwrap();
    let n = night.iperf_mbps.unwrap();
    assert!((0.6..1.6).contains(&d), "day {d} Mbps");
    assert!(n > 6.0, "night {n} Mbps");
    assert!(n / d > 5.0, "bimodal policing ratio {:.1}", n / d);
}

#[test]
fn table1_voip_mos_unaffected_by_architecture() {
    let mno = table1(RouteKind::Suburb, TimeOfDay::Day, Arch::Mno, Workload::Voip);
    let cb = table1(
        RouteKind::Suburb,
        TimeOfDay::Day,
        Arch::CellBricks,
        Workload::Voip,
    );
    let (m, c) = (mno.mos.unwrap(), cb.mos.unwrap());
    assert!((4.0..4.5).contains(&m), "MNO MOS {m}");
    assert!((m - c).abs() < 0.1, "MOS {m} vs {c}");
}

#[test]
fn table1_video_levels_track_time_of_day() {
    let day = table1(
        RouteKind::Downtown,
        TimeOfDay::Day,
        Arch::CellBricks,
        Workload::Video,
    );
    let night = table1(
        RouteKind::Downtown,
        TimeOfDay::Night,
        Arch::CellBricks,
        Workload::Video,
    );
    let d = day.video_level.unwrap();
    let n = night.video_level.unwrap();
    assert!((1.2..2.6).contains(&d), "day level {d} (paper ≈2)");
    assert!(n > 4.4, "night level {n} (paper ≈4.9)");
}

#[test]
fn table1_mttho_ordering_matches_paper() {
    // Highway < Suburb MTTHO; night < day per route.
    let get = |route, tod| table1(route, tod, Arch::Mno, Workload::Ping).mttho_s;
    let suburb_d = get(RouteKind::Suburb, TimeOfDay::Day);
    let highway_d = get(RouteKind::Highway, TimeOfDay::Day);
    let highway_n = get(RouteKind::Highway, TimeOfDay::Night);
    assert!(
        highway_d < suburb_d,
        "highway {highway_d} vs suburb {suburb_d}"
    );
    assert!(
        highway_n < highway_d,
        "night {highway_n} vs day {highway_d}"
    );
}

// --- Fig. 8/9 shape: the dip exists; lower attach latency is better. ---

#[test]
fn fig8_cb_dips_then_recovers_around_handover() {
    let (out, _) = drive(Family::Fig8, 50, |c, _| c.arch == Arch::CellBricks);
    let rates = out.series().rates_per_sec();
    let steady: f64 = rates[10..20].iter().sum::<f64>() / 10.0;
    let dip = rates[23].min(rates[24]);
    let recovered: f64 = rates[30..40].iter().sum::<f64>() / 10.0;
    // With 1 s bins the 500 ms dark period plus the token-bucket catch-up
    // burst partially cancel within the handover bin; the dip is visible
    // but modest (the paper's Fig. 8 plots the same 1 s granularity).
    assert!(dip < steady * 0.95, "dip {dip} vs steady {steady}");
    assert!(
        recovered > steady * 0.6,
        "recovered {recovered} vs {steady}"
    );
}

#[test]
fn fig9_unmodified_wait_hurts_first_second() {
    // Fig. 9's d = 32 ms arms: modified (no wait) and unmodified.
    let mk = |wait_ms: u64| {
        let (out, handovers) = drive(Family::Fig9, 110, |c, _| {
            c.arch == Arch::CellBricks
                && c.attach_delay == SimDuration::from_millis(32)
                && c.mptcp_wait == SimDuration::from_millis(wait_ms)
        });
        assert_eq!(handovers, [30.0, 60.0, 90.0]);
        post_handover_bytes(&out, &handovers)
    };
    let no_wait = mk(0);
    let full_wait = mk(500);
    assert!(
        no_wait > full_wait,
        "removing the 500 ms wait must help right after handovers: {no_wait} vs {full_wait}"
    );
}

// --- QUIC-migration ablation shape (§4.2 future work). ---

#[test]
fn quic_migration_recovers_at_least_as_fast_as_patched_mptcp() {
    let (mptcp, handovers) = drive(Family::QuicAblation, 110, |c, apps| {
        apps == Apps::MptcpIperf && c.mptcp_wait == SimDuration::ZERO
    });
    let (quic, _) = drive(Family::QuicAblation, 110, |_, apps| apps == Apps::QuicIperf);
    let CellOutput::Iperf { migrations, .. } = quic else {
        unreachable!()
    };
    assert_eq!(
        migrations,
        handovers.len() as u32,
        "every handover migrated the path"
    );
    // Post-handover bytes in the 2 s after each handover: migration must
    // not lose to the patched (no-wait) MPTCP.
    let quic_bytes = post_handover_bytes(&quic, &handovers);
    let mptcp_bytes = post_handover_bytes(&mptcp, &handovers);
    assert!(
        quic_bytes > mptcp_bytes * 0.8,
        "QUIC {quic_bytes} vs MPTCP {mptcp_bytes} post-handover bytes"
    );
}
