//! `sim_figures`: every cell the committed figures run, at their
//! committed parameters, called through `apps::emulation::run` and
//! `core::attach_bench::fig7_table`.
//!
//! This is the only workload where `transport` (TCP / MPTCP / CUBIC /
//! Reno / BBR), `apps`, `ran`, `epc` and the legacy-mode engine do the
//! work. The worlds are tiny (one UE, one server), so cache and memory
//! pressure from neighbours barely reaches it: it is the stable
//! counterweight to `sim_scale`. The headline time is the sum over
//! cells of each cell's fastest pass; pass 2 must reproduce pass 1 bit
//! for bit.

use crate::scale::sched_events;
use crate::stats;
use crate::trace::Tracer;
use crate::{Budget, Headline};
use cellbricks_apps::emulation::{run, Arch, EmulationConfig, RadioFlaps, Workload};
use cellbricks_core::attach_bench::fig7_table;
use cellbricks_net::{BurstLoss, TimeOfDay};
use cellbricks_ran::RouteKind;
use cellbricks_sim::{SimDuration, SimRng};
use cellbricks_transport::CcAlgo;
use std::time::Instant;

/// Which committed figure a cell belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Family {
    /// Table 1: 3 routes × day/night × MNO/CellBricks × 5 apps.
    Table1,
    /// Fig. 8: one handover, TCP vs MPTCP.
    Fig8,
    /// Fig. 9: attach-latency variants.
    Fig9,
    /// Fig. 10: day vs night.
    Fig10,
    /// exp_cc: algorithm × stressor.
    Cc,
    /// Fig. 7: attach latency breakdown.
    Fig7,
}

impl Family {
    /// The span recorded around each of the family's cells.
    #[must_use]
    pub fn span_name(self) -> &'static str {
        match self {
            Family::Table1 => "apps.table1",
            Family::Fig8 => "apps.fig8",
            Family::Fig9 => "apps.fig9",
            Family::Fig10 => "apps.fig10",
            Family::Cc => "transport.cc",
            Family::Fig7 => "core.attach_bench.fig7",
        }
    }
}

/// What a cell runs.
enum Job {
    Emulation(Box<EmulationConfig>),
    Fig7 { trials: u32, seed: u64 },
}

/// One figure cell.
pub struct Cell {
    /// Its figure.
    pub family: Family,
    /// The app, for the per-app split of table1.
    pub app: Option<Workload>,
    job: Job,
}

fn emu(family: Family, cfg: EmulationConfig) -> Cell {
    Cell {
        family,
        app: (family == Family::Table1).then_some(cfg.workload),
        job: Job::Emulation(Box::new(cfg)),
    }
}

/// The experiment seed of every committed figure.
const COMMITTED_SEED: u64 = 42;

/// Every cell of every committed figure at its committed parameters —
/// experiment seed included, so a pass is the same simulated work on
/// every run — in an order shuffled by `seed`. (With the run's seed as
/// the experiment seed the simulated work itself moved: 38.8 M events
/// at one seed, 43.4 M at the next, and the headline with it.)
#[must_use]
pub fn cells(seed: u64) -> Vec<Cell> {
    let mut out = ordered_cells(COMMITTED_SEED);
    let mut rng = SimRng::new(seed);
    for i in (1..out.len()).rev() {
        out.swap(i, rng.uniform_u64(0, i as u64 + 1) as usize);
    }
    out
}

fn ordered_cells(seed: u64) -> Vec<Cell> {
    let mut out = Vec::new();
    let base = |route, tod, arch, workload| {
        let mut cfg = EmulationConfig::new(route, tod, arch, workload);
        cfg.seed = seed;
        cfg
    };

    // Table 1 (exp_table1: 600 s drives).
    for route in RouteKind::ALL {
        for tod in [TimeOfDay::Day, TimeOfDay::Night] {
            for arch in [Arch::Mno, Arch::CellBricks] {
                for workload in [
                    Workload::Iperf,
                    Workload::Ping,
                    Workload::Voip,
                    Workload::Video,
                    Workload::Web,
                ] {
                    out.push(emu(Family::Table1, base(route, tod, arch, workload)));
                }
            }
        }
    }

    // Fig. 8 (exp_fig8: 50 s, one handover at 23.5 s).
    for arch in [Arch::Mno, Arch::CellBricks] {
        let mut cfg = base(RouteKind::Downtown, TimeOfDay::Day, arch, Workload::Iperf);
        cfg.duration = SimDuration::from_secs(50);
        cfg.forced_handovers_s = Some(vec![23.5]);
        out.push(emu(Family::Fig8, cfg));
    }

    // Fig. 9 (exp_fig9: 8 handovers 30 s apart; TCP baseline + variants).
    let handovers: Vec<f64> = (1..=8).map(|i| f64::from(i * 30)).collect();
    let fig9 = |arch, attach_ms, wait_ms| {
        let mut cfg = base(RouteKind::Downtown, TimeOfDay::Night, arch, Workload::Iperf);
        cfg.duration = SimDuration::from_secs(9 * 30 + 10);
        cfg.forced_handovers_s = Some(handovers.clone());
        cfg.attach_delay = SimDuration::from_millis(attach_ms);
        cfg.mptcp_wait = SimDuration::from_millis(wait_ms);
        emu(Family::Fig9, cfg)
    };
    out.push(fig9(Arch::Mno, 32, 0));
    for (attach_ms, wait_ms) in [(32, 0), (64, 0), (128, 0), (32, 500)] {
        out.push(fig9(Arch::CellBricks, attach_ms, wait_ms));
    }

    // Fig. 10 (exp_fig10: 500 s downtown, day and night).
    for tod in [TimeOfDay::Day, TimeOfDay::Night] {
        let mut cfg = base(RouteKind::Downtown, tod, Arch::Mno, Workload::Iperf);
        cfg.duration = SimDuration::from_secs(500);
        out.push(emu(Family::Fig10, cfg));
    }

    // exp_cc: 3 algorithms × 3 stressors, 120 s drives.
    for algo in [CcAlgo::Cubic, CcAlgo::Reno, CcAlgo::Bbr] {
        for stressor in 0..3 {
            let mut cfg = base(
                RouteKind::Downtown,
                TimeOfDay::Day,
                Arch::CellBricks,
                Workload::Iperf,
            );
            cfg.duration = SimDuration::from_secs(120);
            cfg.attach_delay = SimDuration::from_millis(32);
            cfg.forced_handovers_s = Some(Vec::new());
            cfg.tcp_cc = algo;
            match stressor {
                0 => {} // the day policer alone
                1 => {
                    cfg.tod = TimeOfDay::Night;
                    cfg.radio_burst = Some(BurstLoss::flaky_cell());
                }
                _ => {
                    cfg.tod = TimeOfDay::Night;
                    cfg.forced_handovers_s = Some((1..8).map(|i| f64::from(i * 15)).collect());
                    cfg.radio_flaps = Some(RadioFlaps {
                        from_s: 5.0,
                        count: 8,
                        down: SimDuration::from_millis(120),
                        up: SimDuration::from_secs(10),
                    });
                }
            }
            out.push(emu(Family::Cc, cfg));
        }
    }

    // Fig. 7 (exp_fig7: 100 trials per cell).
    out.push(Cell {
        family: Family::Fig7,
        app: None,
        job: Job::Fig7 { trials: 100, seed },
    });
    out
}

impl Cell {
    /// Run the cell; returns its full output rendered as text (the
    /// bit-for-bit replay check compares these) and whether a table1
    /// cell's headline number sits inside its day/night sanity band.
    fn run(&self) -> (String, bool) {
        match &self.job {
            Job::Fig7 { trials, seed } => (format!("{:?}", fig7_table(*trials, *seed)), true),
            Job::Emulation(cfg) => {
                let out = run(cfg);
                let sane = self.family != Family::Table1 || {
                    let day = cfg.tod == TimeOfDay::Day;
                    let within = |v: Option<f64>, lo: f64, hi: f64| {
                        v.is_some_and(|v| (lo..=hi).contains(&v))
                    };
                    // Wide bands around the paper's Table 1 (day ≈ 1 Mbit/s
                    // policed, night ≈ 11–17 Mbit/s): they catch a broken
                    // run, not a shifted figure.
                    match cfg.workload {
                        Workload::Iperf if day => within(out.iperf_mbps, 0.3, 3.0),
                        Workload::Iperf => within(out.iperf_mbps, 4.0, 40.0),
                        Workload::Ping => within(out.ping_p50_ms, 30.0, 120.0),
                        Workload::Voip => within(out.mos, 2.5, 4.6),
                        Workload::Video if day => within(out.video_level, 0.0, 4.0),
                        Workload::Video => within(out.video_level, 2.5, 5.0),
                        Workload::Web if day => within(out.web_load_s, 1.5, 20.0),
                        Workload::Web => within(out.web_load_s, 0.3, 8.0),
                    }
                };
                (format!("{out:?}"), sane)
            }
        }
    }
}

/// What `sim_figures` measured.
pub struct FigData {
    /// The cells, in run order.
    pub cells: Vec<Cell>,
    /// `pass_s[p][c]`: wall time of cell `c` in pass `p`, seconds.
    pub pass_s: Vec<Vec<f64>>,
    /// Warm-up time (median of the repeats), seconds.
    pub warmup_s: f64,
    /// Cells whose later-pass output differed from pass 1.
    pub replay_mismatches: u64,
    /// Table 1 cells outside their sanity band (pass 1).
    pub out_of_band: u64,
    /// Scheduler events of pass 1 (repeats exactly for a seed).
    pub events_pass1: u64,
    /// Per pass: recorded with spans on.
    pub traced: Vec<bool>,
}

impl FigData {
    /// Σ over cells of the fastest pass, seconds.
    #[must_use]
    pub fn pass_s(&self) -> f64 {
        stats::sum_of_min(&self.pass_s)
    }

    /// Σ of the fastest pass over the cells selected by `pick`.
    #[must_use]
    pub fn part_s(&self, pick: impl Fn(&Cell) -> bool) -> f64 {
        stats::best_per_cell(&self.pass_s)
            .iter()
            .zip(&self.cells)
            .filter(|(_, c)| pick(c))
            .map(|(t, _)| t)
            .sum()
    }

    /// Cell-runs attempted.
    #[must_use]
    pub fn attempted(&self) -> u64 {
        (self.pass_s.len() * self.cells.len()) as u64
    }
}

impl FigData {
    /// The headline numbers: cell-runs per second of figure time; the
    /// mean wall time of a cell; the p90 over cells of a cell's fastest
    /// pass. The cells are deterministic jobs of very different sizes, so
    /// a median over them would only name one job — and in this box's
    /// noisy half hours the ≈ 68 ms cell at the median slowed 22 % where
    /// the whole pass slowed 6 % (short cells are mostly world set-up,
    /// which is page faults). The unit latency here is the mean cell.
    #[must_use]
    pub fn headline(&self) -> Headline {
        let mut best: Vec<f64> = stats::best_per_cell(&self.pass_s)
            .iter()
            .map(|s| s * 1e6)
            .collect();
        let mean = best.iter().sum::<f64>() / best.len().max(1) as f64;
        let [p90] = stats::sample_percentiles(&mut best, [0.9]);
        let per_pass = |f: &dyn Fn(&mut Vec<f64>) -> f64| -> Vec<f64> {
            self.pass_s
                .iter()
                .map(|p| f(&mut p.iter().map(|s| s * 1e6).collect()))
                .collect()
        };
        let total = |want: bool| -> f64 {
            self.pass_s
                .iter()
                .zip(&self.traced)
                .filter(|(_, &t)| t == want)
                .map(|(p, _)| p.iter().sum::<f64>())
                .fold(f64::INFINITY, f64::min)
        };
        let (on, off) = (total(true), total(false));
        Headline {
            setup_s: self.warmup_s,
            work_per_s: self.cells.len() as f64 / self.pass_s().max(1e-9),
            lat_p50_us: mean,
            lat_p90_us: p90,
            seg_work: self
                .pass_s
                .iter()
                .map(|p| p.len() as f64 / p.iter().sum::<f64>().max(1e-9))
                .collect(),
            seg_p50: per_pass(&|t| t.iter().sum::<f64>() / t.len().max(1) as f64),
            seg_p90: per_pass(&|t| stats::sample_percentiles(t, [0.9])[0]),
            trace_overhead: if on.is_finite() && off.is_finite() {
                on / off - 1.0
            } else {
                0.0
            },
        }
    }
}

/// Warm up (the two quickest families, `warm_repeats` times), then run
/// full passes until the budget is spent — never fewer than two under a
/// time budget, so every cell has a replay to compare against.
pub fn measure(
    seed: u64,
    budget: Budget,
    warm_repeats: usize,
    alternate_tracing: bool,
    deadline: Instant,
    tr: &mut Tracer,
) -> FigData {
    let cells = cells(seed);

    // Page in the code and grow the allocator's arenas on the two
    // cheapest families.
    let span = tr.begin("warmup");
    let mut warm = Vec::new();
    for _ in 0..warm_repeats.max(1) {
        let t = Instant::now();
        for c in cells
            .iter()
            .filter(|c| matches!(c.family, Family::Fig7 | Family::Fig8))
        {
            std::hint::black_box(c.run());
        }
        warm.push(t.elapsed().as_secs_f64());
    }
    tr.end(span);

    let mut first: Vec<String> = Vec::new();
    let mut pass_s: Vec<Vec<f64>> = Vec::new();
    let mut traced = Vec::new();
    let (mut replay_mismatches, mut out_of_band, mut events_pass1) = (0, 0, 0);
    let start = Instant::now();
    loop {
        let p = pass_s.len();
        let spent = match budget {
            Budget::Seconds(s) => p >= 2 && start.elapsed().as_secs_f64() >= s,
            Budget::Count(k) => p >= k,
        };
        if spent || Instant::now() >= deadline {
            break;
        }
        let on = alternate_tracing && p % 2 == 1;
        if alternate_tracing {
            tr.set_recording(on);
        }
        let seg = tr.begin("segment");
        let ev0 = sched_events();
        let mut times = Vec::with_capacity(cells.len());
        for (c, cell) in cells.iter().enumerate() {
            let drive = tr.begin(cell.family.span_name());
            let t = Instant::now();
            let (text, sane) = cell.run();
            times.push(t.elapsed().as_secs_f64());
            tr.end(drive);
            if p == 0 {
                out_of_band += u64::from(!sane);
                first.push(text);
            } else {
                replay_mismatches += u64::from(text != first[c]);
            }
        }
        if p == 0 {
            events_pass1 = sched_events() - ev0;
        }
        tr.end(seg);
        pass_s.push(times);
        traced.push(on);
    }
    if alternate_tracing {
        tr.set_recording(true);
    }
    FigData {
        cells,
        pass_s,
        warmup_s: stats::seg_median(&warm),
        replay_mismatches,
        out_of_band,
        events_pass1,
        traced,
    }
}
