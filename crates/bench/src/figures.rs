//! Every figure of the evaluation, each cell defined once.
//!
//! A figure is a [`Family`] of cells. [`cells`] lists them in the order
//! the figure runs them, [`run`] runs one (its output is a function of the
//! cell alone), and [`render`] turns a family's outputs into the text
//! committed under `results/` ([`Family::results_file`]). The `repro`
//! binary drives all three; `tests/figure_replay.rs` replays seven
//! families against their committed text, and
//! `tests/evaluation_shapes.rs` runs the same cells on shorter drives.
//!
//! `perfbench/src/figures.rs` keeps a frozen copy of the seed-42 grid of
//! the first six families (79 cells); a test below pins the counts to it.

use crate::rule;
use bytes::Bytes;
use cellbricks_apps::emulation::{
    self, run_with_apps, Arch, DriveOutcome, EmulationConfig, RadioFlaps, Workload,
};
use cellbricks_apps::iperf::{IperfClient, IperfServer, Transport};
use cellbricks_apps::quic_app::{QuicIperfClient, QuicIperfServer};
use cellbricks_core::attach_bench::{fig7_table, Fig7Row};
use cellbricks_core::billing::TrafficReport;
use cellbricks_core::brokerd::{BrokerWire, Brokerd, BrokerdConfig};
use cellbricks_core::principal::{BrokerKeys, TelcoKeys, UeKeys};
use cellbricks_core::sap::{self, QosCap};
use cellbricks_core::scenario::{telco_name, telco_sig, Scenario};
use cellbricks_crypto::cert::CertificateAuthority;
use cellbricks_net::{
    BurstLoss, ControlEndpoint, Endpoint, EndpointAddr, NodeId, Packet, TimeOfDay,
};
use cellbricks_ran::RouteKind;
use cellbricks_sim::{percentile, SimDuration, SimRng, SimTime, TimeSeries};
use cellbricks_transport::CcAlgo;
use std::fmt::{self, Write};
use std::net::Ipv4Addr;

/// One committed figure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Family {
    /// Fig. 7: attach latency breakdown, BL vs CB.
    Fig7,
    /// Table 1: application performance matrix.
    Table1,
    /// Fig. 8: throughput across one handover.
    Fig8,
    /// Fig. 9: attach-latency factor analysis.
    Fig9,
    /// Fig. 10: day vs night rate policing.
    Fig10,
    /// Congestion-control ablation: algorithm × stressor.
    Cc,
    /// §4.2 future work: MPTCP subflow replacement vs QUIC migration.
    QuicAblation,
    /// §4.3 extension: cycles until a cheating bTelco is refused.
    Reputation,
    /// §1 scale claim: N UEs attaching at once through one bTelco and
    /// one broker.
    Scale,
}

impl Family {
    /// Every family, in the order `repro --figure all` runs them.
    pub const ALL: [Family; 9] = [
        Family::Fig7,
        Family::Table1,
        Family::Fig8,
        Family::Fig9,
        Family::Fig10,
        Family::Cc,
        Family::QuicAblation,
        Family::Reputation,
        Family::Scale,
    ];

    /// The `--figure` value, and the stem of its telemetry exports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Family::Fig7 => "fig7",
            Family::Table1 => "table1",
            Family::Fig8 => "fig8",
            Family::Fig9 => "fig9",
            Family::Fig10 => "fig10",
            Family::Cc => "cc",
            Family::QuicAblation => "quic_ablation",
            Family::Reputation => "reputation",
            Family::Scale => "scale",
        }
    }

    /// The committed text's file under `results/`: `<name>.txt`, except
    /// that `scale.txt` is `exp_scale`'s wall-clock mega table, so the
    /// scale figure is `scale_attach.txt`.
    #[must_use]
    pub fn results_file(self) -> String {
        match self {
            Family::Scale => "scale_attach.txt".to_string(),
            _ => format!("{}.txt", self.name()),
        }
    }

    /// The family whose [`name`](Self::name) is `name`.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Family> {
        Family::ALL.into_iter().find(|f| f.name() == name)
    }
}

/// Which apps a drive cell runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Apps {
    /// The config's own workload, through `emulation::run`.
    Workload,
    /// An MPTCP iperf pair, through `emulation::run_with_apps`.
    MptcpIperf,
    /// A QUIC iperf pair (migration instead of rejoin), through
    /// `emulation::run_with_apps`.
    QuicIperf,
}

/// One figure cell: everything its output depends on.
#[derive(Clone)]
pub enum Cell {
    /// One emulated drive.
    Drive(Box<EmulationConfig>, Apps),
    /// Fig. 7's attach table, `fig7_table(trials, seed)`.
    Fig7 {
        /// Attach trials per (placement, architecture).
        trials: u32,
        /// Experiment seed.
        seed: u64,
    },
    /// One reputation run: a bTelco inflating its downlink reports by
    /// `overcount`, judged at tolerance `epsilon`.
    Reputation {
        /// Factor the bTelco multiplies the true downlink bytes by.
        overcount: f64,
        /// The broker's discrepancy tolerance ε.
        epsilon: f64,
        /// Experiment seed.
        seed: u64,
    },
    /// One attach burst: `n` UEs starting their attach at once.
    Scale {
        /// UEs in the burst.
        n: usize,
        /// Experiment seed.
        seed: u64,
    },
}

/// What one cell produced.
#[derive(Clone, Debug)]
pub enum CellOutput {
    /// `emulation::run`'s outcome, with the seed and drive length it ran at.
    Drive {
        /// Experiment seed.
        seed: u64,
        /// Drive length, seconds.
        secs: u64,
        /// The outcome.
        out: DriveOutcome,
    },
    /// An MPTCP or QUIC iperf drive.
    Iperf {
        /// Delivered bytes per second.
        series: TimeSeries,
        /// Path migrations the QUIC server validated (0 under MPTCP).
        migrations: u32,
    },
    /// Fig. 7's rows.
    Fig7 {
        /// Attach trials per row.
        trials: u32,
        /// BL and CB at each placement.
        rows: Vec<Fig7Row>,
        /// Per row, p50 / p95 / p99 of its `fig7.*.total_ns` histogram on
        /// the global telemetry registry (`None` while recording is off).
        total_ns: Vec<Option<[u64; 3]>>,
    },
    /// The billing cycle at which the cheating bTelco was first refused
    /// (`None`: never, within the run).
    Refused(Option<u32>),
    /// An attach burst's row.
    Burst {
        /// UEs in the burst.
        n: usize,
        /// UEs attached at the end of the run.
        attached: usize,
        /// Mean, p95 and max attach latency over the UEs, milliseconds.
        latency_ms: [f64; 3],
    },
}

impl CellOutput {
    /// The outcome of an `emulation::run` cell.
    ///
    /// # Panics
    /// On any other output.
    #[must_use]
    pub fn drive(&self) -> &DriveOutcome {
        match self {
            CellOutput::Drive { out, .. } => out,
            other => panic!("not a workload drive: {other:?}"),
        }
    }

    /// Delivered bytes per second of an iperf drive, either kind.
    ///
    /// # Panics
    /// On any other output.
    #[must_use]
    pub fn series(&self) -> &TimeSeries {
        match self {
            CellOutput::Iperf { series, .. } => series,
            other => other.drive().iperf_series.as_ref().expect("iperf series"),
        }
    }
}

/// Fig. 9 variant description.
struct Fig9Variant {
    /// Display label matching the paper's legend.
    label: &'static str,
    /// Attach latency `d`, milliseconds.
    attach_ms: u64,
    /// MPTCP address-worker wait, milliseconds.
    wait_ms: u64,
}

/// The paper's Fig. 9 variants: modified MPTCP (no wait) at three attach
/// latencies, plus unmodified (500 ms wait).
const FIG9_VARIANTS: [Fig9Variant; 4] = [
    Fig9Variant {
        label: "mod. 32ms",
        attach_ms: 32,
        wait_ms: 0,
    },
    Fig9Variant {
        label: "mod. 64ms",
        attach_ms: 64,
        wait_ms: 0,
    },
    Fig9Variant {
        label: "mod. 128ms",
        attach_ms: 128,
        wait_ms: 0,
    },
    Fig9Variant {
        label: "unmod.",
        attach_ms: 32,
        wait_ms: 500,
    },
];

const TODS: [TimeOfDay; 2] = [TimeOfDay::Day, TimeOfDay::Night];
const ARCHS: [Arch; 2] = [Arch::Mno, Arch::CellBricks];
const TABLE1_WORKLOADS: [Workload; 5] = [
    Workload::Iperf,
    Workload::Ping,
    Workload::Voip,
    Workload::Video,
    Workload::Web,
];
const CC_ALGOS: [CcAlgo; 3] = [CcAlgo::Cubic, CcAlgo::Reno, CcAlgo::Bbr];

/// One congestion-control stressor column: a named change to the base
/// config.
struct Stressor {
    name: &'static str,
    apply: fn(&mut EmulationConfig),
}

const STRESSORS: [Stressor; 3] = [
    // The day regime's token-bucket policer: ~1 Mbit/s committed rate
    // with a deep bucket, no handovers — pure policer dynamics.
    Stressor {
        name: "policer",
        apply: |_cfg| {},
    },
    // Flaky small cell: Gilbert–Elliott burst loss on the radio link,
    // night rates so loss (not the policer) is the bottleneck.
    Stressor {
        name: "burstloss",
        apply: |cfg| {
            cfg.tod = TimeOfDay::Night;
            cfg.radio_burst = Some(BurstLoss::flaky_cell());
        },
    },
    // Handover storm: a bTelco switch every 15 s composed with a
    // scripted radio flap train from the fault planner.
    Stressor {
        name: "ho-storm",
        apply: |cfg| {
            cfg.tod = TimeOfDay::Night;
            cfg.forced_handovers_s = Some((1..8).map(|i| f64::from(i * 15)).collect());
            cfg.radio_flaps = Some(RadioFlaps {
                from_s: 5.0,
                count: 8,
                down: SimDuration::from_millis(120),
                up: SimDuration::from_secs(10),
            });
        },
    },
];

const REPUTATION_OVERCOUNTS: [f64; 6] = [1.0, 1.02, 1.05, 1.2, 1.5, 2.0];
const REPUTATION_EPSILONS: [f64; 4] = [0.002, 0.005, 0.01, 0.05];
const REPUTATION_CYCLES: u32 = 200;
const SCALE_NS: [usize; 5] = [1, 5, 25, 100, 250];

/// `n` forced handovers 30 s apart, and a drive that ends 40 s after
/// the last: Fig. 9's and the QUIC ablation's schedule.
fn every_30s(n: u32) -> (Vec<f64>, u64) {
    (
        (1..=n).map(|i| f64::from(i * 30)).collect(),
        u64::from(n + 1) * 30 + 10,
    )
}

/// The cells of `family` at experiment seed `seed`, in run order.
#[must_use]
pub fn cells(family: Family, seed: u64) -> Vec<Cell> {
    let base = |route, tod, arch, secs| {
        let mut cfg = EmulationConfig::new(route, tod, arch, Workload::Iperf);
        cfg.duration = SimDuration::from_secs(secs);
        cfg.seed = seed;
        cfg
    };
    let drive = |cfg, apps| Cell::Drive(Box::new(cfg), apps);
    let mut out = Vec::new();
    match family {
        Family::Fig7 => out.push(Cell::Fig7 { trials: 100, seed }),
        Family::Table1 => {
            for route in RouteKind::ALL {
                for tod in TODS {
                    for arch in ARCHS {
                        for workload in TABLE1_WORKLOADS {
                            let mut cfg = base(route, tod, arch, 600);
                            cfg.workload = workload;
                            out.push(drive(cfg, Apps::Workload));
                        }
                    }
                }
            }
        }
        Family::Fig8 => {
            for arch in ARCHS {
                let mut cfg = base(RouteKind::Downtown, TimeOfDay::Day, arch, 50);
                cfg.forced_handovers_s = Some(vec![23.5]);
                out.push(drive(cfg, Apps::Workload));
            }
        }
        Family::Fig9 => {
            let (handovers, secs) = every_30s(8);
            let arm = |arch, attach_ms, wait_ms| {
                let mut cfg = base(RouteKind::Downtown, TimeOfDay::Night, arch, secs);
                cfg.forced_handovers_s = Some(handovers.clone());
                cfg.attach_delay = SimDuration::from_millis(attach_ms);
                cfg.mptcp_wait = SimDuration::from_millis(wait_ms);
                drive(cfg, Apps::Workload)
            };
            // The paired TCP baseline shares the seed, hence the rate trace.
            out.push(arm(Arch::Mno, 32, 0));
            for v in FIG9_VARIANTS {
                out.push(arm(Arch::CellBricks, v.attach_ms, v.wait_ms));
            }
        }
        Family::Fig10 => {
            for tod in TODS {
                out.push(drive(
                    base(RouteKind::Downtown, tod, Arch::Mno, 500),
                    Apps::Workload,
                ));
            }
        }
        Family::Cc => {
            for algo in CC_ALGOS {
                for s in &STRESSORS {
                    let mut cfg = base(RouteKind::Downtown, TimeOfDay::Day, Arch::CellBricks, 120);
                    cfg.attach_delay = SimDuration::from_millis(32);
                    cfg.forced_handovers_s = Some(Vec::new()); // Stressors opt back in.
                    cfg.tcp_cc = algo;
                    (s.apply)(&mut cfg);
                    out.push(drive(cfg, Apps::Workload));
                }
            }
        }
        Family::QuicAblation => {
            let (handovers, secs) = every_30s(10);
            let mut cfg = base(
                RouteKind::Downtown,
                TimeOfDay::Night,
                Arch::CellBricks,
                secs,
            );
            cfg.forced_handovers_s = Some(handovers);
            cfg.attach_delay = SimDuration::from_millis(32);
            // TCP baseline (the denominator; its IP never changes), then
            // the QUIC arm, then MPTCP with and without the 500 ms wait.
            let mut tcp = cfg.clone();
            tcp.arch = Arch::Mno;
            out.push(drive(tcp, Apps::Workload));
            out.push(drive(cfg.clone(), Apps::QuicIperf));
            for wait_ms in [500, 0] {
                let mut mptcp = cfg.clone();
                mptcp.mptcp_wait = SimDuration::from_millis(wait_ms);
                out.push(drive(mptcp, Apps::MptcpIperf));
            }
        }
        Family::Reputation => {
            for overcount in REPUTATION_OVERCOUNTS {
                for epsilon in REPUTATION_EPSILONS {
                    out.push(Cell::Reputation {
                        overcount,
                        epsilon,
                        seed,
                    });
                }
            }
        }
        Family::Scale => out.extend(SCALE_NS.map(|n| Cell::Scale { n, seed })),
    }
    out
}

const SRV_IP: Ipv4Addr = Ipv4Addr::new(52, 9, 1, 1);

/// Run one cell. Fig. 7's percentiles are read back from the global
/// telemetry registry, so they need recording on and a registry that
/// holds only this cell's attaches (`repro` resets it per figure).
#[must_use]
pub fn run(cell: &Cell) -> CellOutput {
    match cell {
        Cell::Drive(cfg, Apps::Workload) => CellOutput::Drive {
            seed: cfg.seed,
            secs: cfg.duration.as_secs_f64() as u64,
            out: emulation::run(cfg),
        },
        Cell::Drive(cfg, Apps::MptcpIperf) => {
            let (client, _server, _) = run_with_apps(
                cfg,
                IperfClient::new(
                    EndpointAddr::new(SRV_IP, 5001),
                    Transport::Mptcp,
                    SimDuration::from_secs(1),
                ),
                IperfServer::new(5001),
            );
            CellOutput::Iperf {
                series: client.series,
                migrations: 0,
            }
        }
        Cell::Drive(cfg, Apps::QuicIperf) => {
            let (client, server, _) = run_with_apps(
                cfg,
                QuicIperfClient::new(EndpointAddr::new(SRV_IP, 8443), SimDuration::from_secs(1)),
                QuicIperfServer::new(),
            );
            CellOutput::Iperf {
                series: client.series,
                migrations: server.migrations,
            }
        }
        Cell::Fig7 { trials, seed } => {
            let rows = fig7_table(*trials, *seed);
            let total_ns = rows
                .iter()
                .map(|r| {
                    let name = format!("fig7.{}.{}.total_ns", r.placement, r.variant);
                    let h = cellbricks_telemetry::histogram(name).snapshot();
                    (h.count() > 0).then(|| [0.50, 0.95, 0.99].map(|q| h.value_at_quantile(q)))
                })
                .collect();
            CellOutput::Fig7 {
                trials: *trials,
                rows,
                total_ns,
            }
        }
        Cell::Reputation {
            overcount,
            epsilon,
            seed,
        } => CellOutput::Refused(detect_cycles(
            *overcount,
            *epsilon,
            REPUTATION_CYCLES,
            *seed,
        )),
        Cell::Scale { n, seed } => attach_burst(*n, *seed),
    }
}

/// The text of `family`'s figure from its cells' outputs, in [`cells`]
/// order.
///
/// # Panics
/// If `outs` is not the output of `family`'s cells.
#[must_use]
pub fn render(family: Family, outs: &[CellOutput]) -> String {
    let mut w = String::new();
    match family {
        Family::Fig7 => render_fig7(&mut w, outs),
        Family::Table1 => render_table1(&mut w, outs),
        Family::Fig8 => render_fig8(&mut w, outs),
        Family::Fig9 => render_fig9(&mut w, outs),
        Family::Fig10 => render_fig10(&mut w, outs),
        Family::Cc => render_cc(&mut w, outs),
        Family::QuicAblation => render_quic(&mut w, outs),
        Family::Reputation => render_reputation(&mut w, outs),
        Family::Scale => render_scale(&mut w, outs),
    }
    .expect("writing to a String cannot fail");
    w
}

/// Milliseconds represented by a `*_ns` histogram value.
fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn render_fig7(w: &mut String, outs: &[CellOutput]) -> fmt::Result {
    let [CellOutput::Fig7 {
        trials,
        rows,
        total_ns,
    }] = outs
    else {
        panic!("fig7 has one Fig7 cell");
    };
    writeln!(
        w,
        "Fig. 7 — Attachment latency breakdown (ms, mean of {trials} trials)"
    )?;
    writeln!(w, "{}", rule(88))?;
    writeln!(
        w,
        "{:<11} {:<4} {:>9} {:>9} {:>9} {:>14} {:>9}",
        "placement", "arch", "total", "UE proc", "eNB proc", "AGW+SDB/Brkr", "other"
    )?;
    writeln!(w, "{}", rule(88))?;
    for row in rows {
        writeln!(
            w,
            "{:<11} {:<4} {:>9.2} {:>9.2} {:>9.2} {:>14.2} {:>9.2}",
            row.placement,
            row.variant,
            row.total_ms,
            row.ue_ms,
            row.enb_ms,
            row.agw_cloud_ms,
            row.other_ms
        )?;
    }
    writeln!(w, "{}", rule(88))?;
    for pair in rows.chunks(2) {
        let [bl, cb] = pair else { continue };
        let saving = (bl.total_ms - cb.total_ms) / bl.total_ms * 100.0;
        writeln!(
            w,
            "{:<11} CB vs BL: {:+.1}%  (paper: local ≈0%, us-west −14.0%, us-east −40.8%)",
            bl.placement, -saving
        )?;
    }
    // The percentile view comes from the same telemetry histograms that
    // `fig7.metrics.json` serializes.
    writeln!(w)?;
    writeln!(
        w,
        "Attach latency percentiles (ms, from telemetry histograms)"
    )?;
    writeln!(w, "{}", rule(60))?;
    writeln!(
        w,
        "{:<11} {:<4} {:>9} {:>9} {:>9}",
        "placement", "arch", "p50", "p95", "p99"
    )?;
    writeln!(w, "{}", rule(60))?;
    for (row, p) in rows.iter().zip(total_ns) {
        let Some([p50, p95, p99]) = p else { continue };
        writeln!(
            w,
            "{:<11} {:<4} {:>9.2} {:>9.2} {:>9.2}",
            row.placement,
            row.variant,
            ms(*p50),
            ms(*p95),
            ms(*p99)
        )?;
    }
    writeln!(w, "{}", rule(60))?;
    writeln!(w)?;
    writeln!(
        w,
        "paper reference: us-west BL 36.85 / CB 31.68; us-east BL 166.48 / CB 98.62"
    )
}

/// One Table 1 row: an architecture's five workload drives.
struct Table1Row {
    mttho: f64,
    ping: f64,
    iperf: f64,
    mos: f64,
    video: f64,
    web: f64,
}

impl Table1Row {
    fn of(arm: &[CellOutput]) -> Self {
        let [ip, pg, vo, vi, we] = arm else {
            panic!("a Table 1 arm is five drives");
        };
        Table1Row {
            mttho: ip.drive().mttho_s,
            ping: pg.drive().ping_p50_ms.unwrap_or(f64::NAN),
            iperf: ip.drive().iperf_mbps.unwrap_or(f64::NAN),
            mos: vo.drive().mos.unwrap_or(f64::NAN),
            video: vi.drive().video_level.unwrap_or(f64::NAN),
            web: we.drive().web_load_s.unwrap_or(f64::NAN),
        }
    }
}

fn render_table1(w: &mut String, outs: &[CellOutput]) -> fmt::Result {
    let CellOutput::Drive { seed, secs, .. } = &outs[0] else {
        panic!("table1 cells are drives");
    };
    writeln!(
        w,
        "Table 1 — Application performance, CellBricks vs MNO ({secs}s drives, seed {seed})"
    )?;
    writeln!(w, "{}", rule(108))?;
    writeln!(
        w,
        "{:<9} {:<3} {:<10} {:>8} {:>10} {:>12} {:>8} {:>12} {:>10}",
        "route", "tod", "arch", "MTTHO s", "ping p50", "iperf Mbps", "MOS", "video lvl", "web s"
    )?;
    writeln!(w, "{}", rule(108))?;

    // Accumulate the paper's "Overall Perf. Slowdown" row: mean relative
    // CB-vs-MNO slowdown per metric, across routes, split by time of day.
    let mut slow: [[Vec<f64>; 4]; 2] = Default::default();
    let mut arms = outs.chunks(TABLE1_WORKLOADS.len()).map(Table1Row::of);
    for route in RouteKind::ALL {
        for (ti, tod) in TODS.into_iter().enumerate() {
            let tod_s = match tod {
                TimeOfDay::Day => "D",
                TimeOfDay::Night => "N",
            };
            let [mno, cb] = [(); 2].map(|()| arms.next().expect("one arm per architecture"));
            for (arch_s, c) in [("MNO", &mno), ("CellBricks", &cb)] {
                writeln!(
                    w,
                    "{:<9} {:<3} {:<10} {:>8.2} {:>10.2} {:>12.2} {:>8.2} {:>12.2} {:>10.2}",
                    route.name(),
                    tod_s,
                    arch_s,
                    c.mttho,
                    c.ping,
                    c.iperf,
                    c.mos,
                    c.video,
                    c.web
                )?;
            }
            // Slowdowns: throughput/MOS/video higher-better; web lower-better.
            slow[ti][0].push((mno.iperf - cb.iperf) / mno.iperf * 100.0);
            slow[ti][1].push((mno.mos - cb.mos) / mno.mos * 100.0);
            slow[ti][2].push((mno.video - cb.video) / mno.video * 100.0);
            slow[ti][3].push((cb.web - mno.web) / mno.web * 100.0);
        }
    }
    writeln!(w, "{}", rule(108))?;
    let mean = |v: &Vec<f64>| v.iter().sum::<f64>() / v.len() as f64;
    for (ti, tod_s) in ["D", "N"].iter().enumerate() {
        writeln!(
            w,
            "Overall Perf. Slowdown ({tod_s}): iperf {:+.2}%  MOS {:+.2}%  video {:+.2}%  web {:+.2}%",
            mean(&slow[ti][0]),
            mean(&slow[ti][1]),
            mean(&slow[ti][2]),
            mean(&slow[ti][3]),
        )?;
    }
    writeln!(
        w,
        "paper reference: overall slowdown −1.61% … +3.06% across metrics"
    )
}

/// An iperf drive's per-second throughput, Mbit/s.
fn mbps(out: &CellOutput) -> Vec<f64> {
    out.series()
        .rates_per_sec()
        .iter()
        .map(|r| r * 8.0 / 1e6)
        .collect()
}

fn render_fig8(w: &mut String, outs: &[CellOutput]) -> fmt::Result {
    let [mno_out, cb_out @ CellOutput::Drive { secs, out, .. }] = outs else {
        panic!("fig8 is an MNO and a CB drive");
    };
    let (mno, cb) = (mbps(mno_out), mbps(cb_out));
    let handover = out.handover_times_s[0];
    let h = handover as usize;
    writeln!(
        w,
        "Fig. 8 — Throughput across a handover (Mbps per 1 s bin, day)"
    )?;
    writeln!(w, "{}", rule(44))?;
    writeln!(w, "{:>4} {:>12} {:>14}", "t(s)", "MNO (TCP)", "CB (MPTCP)")?;
    writeln!(w, "{}", rule(44))?;
    for t in 0..*secs as usize {
        let marker = if t == h {
            format!("  <-- handover ({handover}s)")
        } else {
            String::new()
        };
        writeln!(
            w,
            "{:>4} {:>12.2} {:>14.2}{}",
            t,
            mno.get(t).copied().unwrap_or(0.0),
            cb.get(t).copied().unwrap_or(0.0),
            marker
        )?;
    }
    writeln!(w, "{}", rule(44))?;
    // Quantify the paper's two observations.
    let dip = cb[h + 1].min(cb[h]);
    let cb_peak_after = cb[h + 2..(h + 8).min(cb.len())]
        .iter()
        .copied()
        .fold(0.0f64, f64::max);
    let mno_steady = mno[10..20].iter().sum::<f64>() / 10.0;
    writeln!(
        w,
        "CB dip around handover: {dip:.2} Mbps (paper: ≈0 during the 500 ms wait)"
    )?;
    writeln!(
        w,
        "CB peak in the 6 s after: {cb_peak_after:.2} Mbps vs MNO steady {mno_steady:.2} Mbps \
         (paper: brief overshoot above the TCP line)"
    )
}

/// Post-handover relative performance: for each window length `n` in
/// `1..=max_n` seconds, the mean over handovers of
/// `Σ bytes_cb[h..h+n] / Σ bytes_tcp[h..h+n]`, in percent.
fn relative_after_handover(
    cb: &TimeSeries,
    tcp: &TimeSeries,
    handovers_s: &[f64],
    max_n: usize,
) -> Vec<f64> {
    let cb_sums = cb.sums();
    let tcp_sums = tcp.sums();
    let mut out = Vec::with_capacity(max_n);
    for n in 1..=max_n {
        let mut ratios = Vec::new();
        for &h in handovers_s {
            let start = h as usize;
            let end = start + n;
            if end > cb_sums.len() || end > tcp_sums.len() {
                continue;
            }
            let cb_bytes: f64 = cb_sums[start..end].iter().sum();
            let tcp_bytes: f64 = tcp_sums[start..end].iter().sum();
            if tcp_bytes > 0.0 {
                ratios.push(cb_bytes / tcp_bytes * 100.0);
            }
        }
        out.push(if ratios.is_empty() {
            f64::NAN
        } else {
            ratios.iter().sum::<f64>() / ratios.len() as f64
        });
    }
    out
}

/// The n = 1..9 s table Fig. 9 and the QUIC ablation print: one row per
/// arm, each relative to the paired TCP baseline `tcp`.
fn relative_table(
    w: &mut String,
    head: &str,
    label_w: usize,
    rule_w: usize,
    arms: &[(&str, &CellOutput)],
    tcp: &CellOutput,
) -> fmt::Result {
    let handovers = &tcp.drive().handover_times_s;
    writeln!(w, "{}", rule(rule_w))?;
    write!(w, "{head:>label_w$}")?;
    for n in 1..=9 {
        write!(w, "{n:>6}")?;
    }
    writeln!(w)?;
    writeln!(w, "{}", rule(rule_w))?;
    for (label, arm) in arms {
        write!(w, "{label:>label_w$}")?;
        for r in relative_after_handover(arm.series(), tcp.series(), handovers, 9) {
            write!(w, "{r:>6.0}")?;
        }
        writeln!(w)?;
    }
    writeln!(w, "{}", rule(rule_w))
}

fn render_fig9(w: &mut String, outs: &[CellOutput]) -> fmt::Result {
    let (tcp, variants) = outs.split_first().expect("fig9 has a TCP baseline");
    let arms: Vec<(&str, &CellOutput)> = FIG9_VARIANTS
        .iter()
        .map(|v| v.label)
        .zip(variants)
        .collect();
    writeln!(
        w,
        "Fig. 9 — Relative perf (%) in the n seconds after a handover (night)"
    )?;
    relative_table(w, "n (s)", 12, 70, &arms, tcp)?;
    writeln!(
        w,
        "paper reference: mod. variants overshoot (110–130%) early and converge to 100%;\n\
         lower attach latency is uniformly better; unmod. (500 ms wait) starts lowest"
    )
}

fn render_fig10(w: &mut String, outs: &[CellOutput]) -> fmt::Result {
    let [day, night] = outs else {
        panic!("fig10 is a day and a night drive");
    };
    let (day, night) = (mbps(day), mbps(night));
    let stats = |v: &[f64]| {
        let mean = v.iter().sum::<f64>() / v.len() as f64;
        let var = v.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / v.len() as f64;
        let peak = v.iter().copied().fold(0.0f64, f64::max);
        (mean, var.sqrt(), peak)
    };
    writeln!(
        w,
        "Fig. 10 — iperf throughput over time, day vs night (Mbps, downtown)"
    )?;
    writeln!(w, "{}", rule(40))?;
    writeln!(w, "{:>5} {:>10} {:>10}", "t(s)", "day", "night")?;
    writeln!(w, "{}", rule(40))?;
    for t in (0..day.len().min(night.len())).step_by(10) {
        writeln!(w, "{:>5} {:>10.2} {:>10.2}", t, day[t], night[t])?;
    }
    writeln!(w, "{}", rule(40))?;
    // Skip the first 2 s of slow start in the stats.
    let (dm, ds, dp) = stats(&day[2..]);
    let (nm, ns, np) = stats(&night[2..]);
    writeln!(w, "day:   avg {dm:.2} Mbps  std {ds:.2}  peak {dp:.2}")?;
    writeln!(w, "night: avg {nm:.2} Mbps  std {ns:.2}  peak {np:.2}")?;
    writeln!(w, "night/day avg ratio: {:.1}x", nm / dm)?;
    writeln!(
        w,
        "paper reference: day avg 1.03 / std 0.32 / peak 1.75; \
         night avg 14.95 / std 8.94 / peak 52.5; ratio 14.5x"
    )
}

fn render_cc(w: &mut String, outs: &[CellOutput]) -> fmt::Result {
    let CellOutput::Drive { seed, secs, .. } = &outs[0] else {
        panic!("cc cells are drives");
    };
    writeln!(
        w,
        "Congestion-control ablation — iperf mean throughput (Mbit/s),"
    )?;
    writeln!(w, "CellBricks arm (MPTCP), {secs} s drives, seed {seed}")?;
    writeln!(w, "{}", rule(58))?;
    write!(w, "{:>10}", "algorithm")?;
    for s in &STRESSORS {
        write!(w, "{:>12}", s.name)?;
    }
    writeln!(w)?;
    writeln!(w, "{}", rule(58))?;
    for (algo, row) in CC_ALGOS.iter().zip(outs.chunks(STRESSORS.len())) {
        write!(w, "{:>10}", algo.name())?;
        for out in row {
            write!(w, "{:>12.3}", out.drive().iperf_mbps.expect("iperf cell"))?;
        }
        writeln!(w)?;
    }
    writeln!(w, "{}", rule(58))?;
    writeln!(
        w,
        "reading: under the policer all three settle near the committed rate.\n\
         Burst loss is where they separate — loss-driven CUBIC and Reno keep\n\
         collapsing cwnd on bursts that carry no congestion signal, while BBR's\n\
         bandwidth filter rides through them. The handover storm compresses the\n\
         gap again: every bTelco switch resets the path (fresh subflow, fresh\n\
         CC state), so convergence speed from a cold window dominates."
    )
}

fn render_quic(w: &mut String, outs: &[CellOutput]) -> fmt::Result {
    let [tcp, quic @ CellOutput::Iperf { migrations, .. }, wait, no_wait] = outs else {
        panic!("quic_ablation is TCP, QUIC, MPTCP with and without the wait");
    };
    writeln!(
        w,
        "Host-mobility ablation — relative perf (%) vs TCP baseline,"
    )?;
    writeln!(w, "in the n seconds after a handover (night, d = 32 ms)")?;
    relative_table(
        w,
        "mechanism",
        18,
        72,
        &[
            ("MPTCP (500ms)", wait),
            ("MPTCP (no wait)", no_wait),
            ("QUIC migration", quic),
        ],
        tcp,
    )?;
    writeln!(
        w,
        "server validated {migrations} QUIC path migrations across {} handovers",
        tcp.drive().handover_times_s.len()
    )?;
    writeln!(
        w,
        "reading: QUIC's in-place migration needs no address-worker wait and no\n\
         join handshake — recovery right after the handover is at least as fast\n\
         as the modified (no-wait) MPTCP, without patching the transport."
    )
}

fn render_reputation(w: &mut String, outs: &[CellOutput]) -> fmt::Result {
    writeln!(
        w,
        "Reputation ablation — cycles until a cheating bTelco is refused"
    )?;
    writeln!(
        w,
        "(30 s reporting cycles; UE reports truthfully; threshold per Fig. 5)"
    )?;
    writeln!(w, "{}", rule(64))?;
    writeln!(
        w,
        "{:<12} {:>10} {:>10} {:>10} {:>10}",
        "overcount", "eps=0.2%", "eps=0.5%", "eps=1%", "eps=5%"
    )?;
    writeln!(w, "{}", rule(64))?;
    for (overcount, row) in REPUTATION_OVERCOUNTS
        .iter()
        .zip(outs.chunks(REPUTATION_EPSILONS.len()))
    {
        write!(w, "{overcount:<12.2}")?;
        for out in row {
            match out {
                CellOutput::Refused(Some(c)) => write!(w, " {c:>9}")?,
                CellOutput::Refused(None) => write!(w, " {:>9}", "never")?,
                other => panic!("not a reputation output: {other:?}"),
            }
        }
        writeln!(w)?;
    }
    writeln!(w, "{}", rule(64))?;
    writeln!(
        w,
        "reading: honest (1.00) and within-tolerance reporting are never refused;\n\
         large inflation is caught in a handful of cycles — the degree-weighted\n\
         score drops faster for bigger lies (paper §4.3's intended incentive)."
    )
}

/// Attach `n` UEs in one burst — a cell powering up, a stadium
/// emptying — through one bTelco to one broker, and read the latencies.
/// The broker's 2 ms per authorization is a modelling choice with no
/// measured source (EXPERIMENTS, *Scale*).
fn attach_burst(n: usize, seed: u64) -> CellOutput {
    let us = SimDuration::from_micros;
    let mut w = Scenario {
        seed,
        ues: n,
        backhaul: us(200),
        enb_delay: us(100),
        epsilon: 0.01,
        ..Scenario::default()
    }
    .build();
    for ue in &mut w.ues {
        ue.start_attach(SimTime::ZERO, &telco_name(0), telco_sig(0));
    }
    w.run_to(SimTime::from_secs(60));
    let latencies: Vec<f64> = w
        .ues
        .iter()
        .filter(|u| u.attach_latency_ms.count() > 0)
        .map(|u| u.attach_latency_ms.mean())
        .collect();
    let attached = w.ues.iter().filter(|u| u.is_attached()).count();
    assert_eq!(attached, n, "all UEs must attach");
    let mean = latencies.iter().sum::<f64>() / latencies.len().max(1) as f64;
    let max = latencies.iter().copied().fold(0.0, f64::max);
    CellOutput::Burst {
        n,
        attached,
        latency_ms: [mean, percentile(&latencies, 95.0), max],
    }
}

fn render_scale(w: &mut String, outs: &[CellOutput]) -> fmt::Result {
    writeln!(
        w,
        "Scale — N UEs attaching simultaneously through one bTelco + broker"
    )?;
    writeln!(w, "{}", rule(68))?;
    writeln!(
        w,
        "{:>6} {:>9} {:>12} {:>12} {:>12} {:>12}",
        "N", "attached", "mean (ms)", "p95 (ms)", "max (ms)", "auth/s"
    )?;
    writeln!(w, "{}", rule(68))?;
    for out in outs {
        let CellOutput::Burst {
            n,
            attached,
            latency_ms: [mean, p95, max],
        } = out
        else {
            panic!("not an attach burst: {out:?}");
        };
        // The burst completes when the slowest attach finishes.
        let auths_per_sec = *attached as f64 / (max / 1e3);
        writeln!(
            w,
            "{n:>6} {attached:>9} {mean:>12.1} {p95:>12.1} {max:>12.1} {auths_per_sec:>12.0}"
        )?;
    }
    writeln!(w, "{}", rule(68))?;
    writeln!(
        w,
        "reading: every UE attaches; latency grows linearly once the burst\n\
         saturates the broker's single service queue (~2 ms/authorization\n\
         here), i.e. the broker — an ordinary web service — is the scaling\n\
         bottleneck, exactly the architecture's intent (paper §3: brokers\n\
         need no cellular infrastructure and shard like any online service)."
    )
}

const BROKER_IP: Ipv4Addr = Ipv4Addr::new(172, 16, 0, 1);
const TELCO_IP: Ipv4Addr = Ipv4Addr::new(172, 16, 1, 1);

/// Exercise the full reputation path — SAP authorization, sealed traffic
/// reports from both sides, the Fig. 5 discrepancy check — for a bTelco
/// that inflates its downlink usage by `overcount`; returns the cycle at
/// which the broker first refuses it (`None` if never within `cycles`).
fn detect_cycles(overcount: f64, epsilon: f64, cycles: u32, seed: u64) -> Option<u32> {
    let mut rng = SimRng::new(seed);
    let ca = CertificateAuthority::from_seed([0xCA; 32]);
    let broker_keys = BrokerKeys::generate("broker.example", &ca, &mut rng);
    let telco_keys = TelcoKeys::generate("tower-1.example", &ca, &mut rng);
    let ue_keys = UeKeys::generate(&mut rng);

    let mut brokerd = Brokerd::new(
        NodeId(0),
        BrokerdConfig {
            ip: BROKER_IP,
            keys: broker_keys.clone(),
            ca: ca.public_key(),
            proc_delay: SimDuration::ZERO,
            epsilon,
            session_retention: SimDuration::from_secs(86_400),
        },
        rng.fork(),
    );
    let (sign_pk, encrypt_pk) = ue_keys.public();
    brokerd.provision(ue_keys.identity(), sign_pk, encrypt_pk, 50_000_000);

    // One SAP authorization to open the billing session.
    let (req_u, _nonce) = sap::ue_build_request(
        &ue_keys,
        "broker.example",
        &broker_keys.encrypt.public_key(),
        telco_keys.identity(),
        &mut rng,
    );
    let req_t = sap::telco_wrap_request(
        &telco_keys,
        req_u,
        QosCap {
            max_mbr_bps: 100_000_000,
            qci_supported: vec![9],
            li_capable: true,
        },
    );
    let mut sink = Vec::new();
    brokerd.handle_packet(
        SimTime::ZERO,
        Packet::control(
            TELCO_IP,
            BROKER_IP,
            BrokerWire::AuthReq {
                req_id: 1,
                req_t: req_t.encode(),
            }
            .encode(),
        ),
        &mut sink,
    );
    assert_eq!(brokerd.auth_ok, 1, "authorization should succeed");
    let session_id = 1u64;

    // Billing cycles: the UE truthfully reports ~10 MB per cycle; the
    // bTelco inflates by `overcount`.
    let deliver = |brokerd: &mut ControlEndpoint<Brokerd>, from_ue: bool, sealed: Bytes| {
        let mut sink = Vec::new();
        brokerd.handle_packet(
            SimTime::ZERO,
            Packet::control(
                TELCO_IP,
                BROKER_IP,
                BrokerWire::Report {
                    session_id,
                    from_ue,
                    sealed,
                }
                .encode(),
            ),
            &mut sink,
        );
    };
    for cycle in 0..cycles {
        let true_dl = 10_000_000 + u64::from(cycle) * 1000;
        let base = TrafficReport {
            session_id,
            seq: cycle,
            ul_bytes: 100_000,
            dl_bytes: true_dl,
            duration_ms: 30_000,
            dl_loss_ppm: 2_000,
            ul_loss_ppm: 0,
            avg_dl_kbps: 2_600,
            avg_ul_kbps: 26,
            delay_ms: 46,
        };
        let ue_sealed =
            base.sign_and_seal(&ue_keys.sign, &broker_keys.encrypt.public_key(), &mut rng);
        let mut telco_report = base.clone();
        telco_report.dl_bytes = (true_dl as f64 * overcount) as u64;
        let telco_sealed = telco_report.sign_and_seal(
            &telco_keys.sign,
            &broker_keys.encrypt.public_key(),
            &mut rng,
        );
        deliver(&mut brokerd, true, ue_sealed);
        deliver(&mut brokerd, false, telco_sealed);
        if !brokerd.reputation().admit(telco_keys.identity()) {
            return Some(cycle + 1);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed42_cell_counts_match_the_frozen_perfbench_grid() {
        // perfbench/src/figures.rs documents 79 cells over the first six
        // families; the last three are not in its grid.
        let counts: Vec<(Family, usize)> = Family::ALL
            .into_iter()
            .map(|f| (f, cells(f, 42).len()))
            .collect();
        assert_eq!(
            counts,
            [
                (Family::Fig7, 1),
                (Family::Table1, 60),
                (Family::Fig8, 2),
                (Family::Fig9, 5),
                (Family::Fig10, 2),
                (Family::Cc, 9),
                (Family::QuicAblation, 4),
                (Family::Reputation, 24),
                (Family::Scale, 5),
            ]
        );
        assert_eq!(counts[..6].iter().map(|(_, n)| n).sum::<usize>(), 79);
    }

    #[test]
    fn family_names_round_trip() {
        for f in Family::ALL {
            assert_eq!(Family::from_name(f.name()), Some(f));
        }
        assert_eq!(Family::from_name("exp_fig7"), None);
    }

    #[test]
    fn a_cell_is_a_function_of_itself() {
        let cell = &cells(Family::Fig8, 42)[1];
        // Debug text rather than `==`: the outcome carries NaN (a single
        // forced handover has no mean time between handovers).
        assert_eq!(format!("{:?}", run(cell)), format!("{:?}", run(cell)));
    }

    #[test]
    fn relative_windows_compute() {
        let mut cb = TimeSeries::new(SimDuration::from_secs(1));
        let mut tcp = TimeSeries::new(SimDuration::from_secs(1));
        for i in 0..20 {
            tcp.record(SimTime::from_secs(i), 100.0);
            cb.record(SimTime::from_secs(i), if i == 10 { 50.0 } else { 120.0 });
        }
        let rel = relative_after_handover(&cb, &tcp, &[10.0], 3);
        assert!((rel[0] - 50.0).abs() < 1e-9);
        assert!((rel[1] - 85.0).abs() < 1e-9);
        assert!(rel[2] > rel[0]);
    }
}
