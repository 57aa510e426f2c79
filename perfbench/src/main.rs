//! `perfbench` — this repository's benchmark.
//!
//! One process per run:
//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`.
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: every end-to-end metric with
//! `--trace 0`, every per-layer metric with `--trace 1`. Everything
//! else — the environment, the human-readable table, the plain segment
//! medians — goes to standard error; a traced run also writes
//! `perfbench/out/<workload>.trace.json` and `.layers.json`.
//!
//! Every layer is measured from outside, by timing calls into its public
//! functions; the program under test is not modified. See `README.md`
//! for the metric catalogue and the estimator definitions.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod figures;
mod report;
mod scale;
mod sheet;
mod stages;
mod stats;
mod trace;
mod wire;

use report::{Outcome, Values, END_TO_END, PER_LAYER};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Tracer;

/// How long to measure.
#[derive(Clone, Copy, Debug)]
pub enum Budget {
    /// Until this much wall time has passed (and a minimum of work).
    Seconds(f64),
    /// Exactly this many segments / block pairs / passes.
    Count(usize),
}

/// The headline numbers of one workload and the segment series behind
/// them (see `stats` for the estimators).
pub struct Headline {
    /// Set-up time, seconds.
    pub setup_s: f64,
    /// Work per second.
    pub work_per_s: f64,
    /// Median time of one unit of work, µs.
    pub lat_p50_us: f64,
    /// p90 time of one unit of work, µs.
    pub lat_p90_us: f64,
    /// Per-segment work rates.
    pub seg_work: Vec<f64>,
    /// Per-segment medians.
    pub seg_p50: Vec<f64>,
    /// Per-segment p90s.
    pub seg_p90: Vec<f64>,
    /// Headline metric with spans on vs off, as a share (traced runs).
    pub trace_overhead: f64,
}

/// The four workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Saturated closed loop over the wire.
    WireSat,
    /// Paced open loop over the wire.
    WirePaced,
    /// The mega world at two sizes.
    SimScale,
    /// Every committed figure cell.
    SimFigures,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        Some(match name {
            "wire_sat" => Self::WireSat,
            "wire_paced" => Self::WirePaced,
            "sim_scale" => Self::SimScale,
            "sim_figures" => Self::SimFigures,
            _ => return None,
        })
    }

    fn name(self) -> &'static str {
        match self {
            Self::WireSat => "wire_sat",
            Self::WirePaced => "wire_paced",
            Self::SimScale => "sim_scale",
            Self::SimFigures => "sim_figures",
        }
    }
}

/// One run's command line.
#[derive(Clone, Copy, Debug)]
pub struct Args {
    /// `--workload`.
    pub workload: Workload,
    /// `--seed`.
    pub seed: u64,
    /// `--seconds`.
    pub seconds: f64,
    /// `--trace`.
    pub trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let value = |flag: &str| -> Result<&str, String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag} <value>"))
    };
    let workload = value("--workload")?;
    Ok(Args {
        workload: Workload::parse(workload)
            .ok_or_else(|| format!("unknown workload {workload}"))?,
        seed: value("--seed")?
            .parse()
            .map_err(|e| format!("--seed: {e}"))?,
        seconds: value("--seconds")?
            .parse::<f64>()
            .ok()
            .filter(|s| *s > 0.0 && *s <= 60.0)
            .ok_or("--seconds must be in (0, 60]")?,
        trace: match value("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other}")),
        },
    })
}

/// `VmHWM` of this process, MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Cores this process may use (reported with every result: the wire
/// workloads size their thread count by it).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

/// The environment line (standard error and `layers.json`).
fn env_json(args: &Args) -> String {
    let rustc = env!("PERFBENCH_RUSTC");
    let commit = env!("PERFBENCH_COMMIT");
    format!(
        "{{\"nproc\": {}, \"commit\": \"{commit}\", \"rustc\": \"{rustc}\", \"workload\": \"{}\", \
         \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"workers\": {}, \"shards\": 1, \
         \"telemetry\": \"enabled\", \"transport\": \"loopback UDP\"}}",
        nproc(),
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        wire::workers_for(nproc()),
    )
}

/// Run the workload itself; in a traced run its odd segments record
/// spans. Returns the outcome with the end-to-end values filled in and,
/// for the sheet, what the workload itself measured.
fn run_workload(
    args: &Args,
    deadline: Instant,
    tr: &mut Tracer,
) -> Result<(Outcome, Headline, sheet::Own), String> {
    let budget = Budget::Seconds(args.seconds);
    // Repeatable set-up steps run three times and report their median.
    let repeats = 3;
    let (attempted, failed, correct, headline, own) = match args.workload {
        Workload::WireSat | Workload::WirePaced => {
            let spec = if args.workload == Workload::WireSat {
                wire::SAT
            } else {
                wire::PACED
            };
            let nproc = nproc();
            let d = wire::run(
                spec, args.seed, budget, repeats, args.trace, nproc, deadline, tr,
            )?;
            (
                d.attempted(),
                d.failed(),
                d.correct(),
                d.headline(),
                sheet::Own::Wire(Box::new(d)),
            )
        }
        Workload::SimScale => {
            let d = scale::measure(args.seed, budget, repeats, args.trace, deadline, tr);
            let failed = d.sent - d.received.min(d.sent);
            (
                d.sent,
                failed,
                d.received == d.sent,
                d.headline(),
                sheet::Own::Scale(Box::new(d)),
            )
        }
        Workload::SimFigures => {
            let d = figures::measure(args.seed, budget, repeats, args.trace, deadline, tr);
            let correct = d.replay_mismatches == 0 && d.out_of_band == 0 && d.pass_s.len() >= 2;
            (
                d.attempted(),
                d.replay_mismatches,
                correct,
                d.headline(),
                sheet::Own::Figures(Box::new(d)),
            )
        }
    };
    let mut values = Values::new();
    values.insert("setup_s", headline.setup_s);
    values.insert("work_per_s", headline.work_per_s);
    values.insert("lat_p50_us", headline.lat_p50_us);
    Ok((
        Outcome {
            correct,
            attempted,
            failed,
            values,
        },
        headline,
        own,
    ))
}

fn run(args: &Args) -> Result<(Outcome, bool), String> {
    let started = Instant::now();
    // Hard wall deadline: set-up plus twice the measuring time, and in
    // any case inside the 180 s a run is allowed.
    let allowance = 45.0 + 2.0 * args.seconds + if args.trace { 45.0 } else { 0.0 };
    let deadline = started + Duration::from_secs_f64(allowance.min(170.0));
    eprintln!("perfbench env: {}", env_json(args));

    // What brokerd and every exp_* binary ship with — and where event
    // counts come from.
    cellbricks_telemetry::enable();
    let mut tr = Tracer::new(args.trace);
    let run_span = tr.begin("run");
    let (mut outcome, headline, own) = run_workload(args, deadline, &mut tr)?;
    outcome.values.insert("peak_rss_mb", peak_rss_mb());

    if args.trace {
        let v = &mut outcome.values;
        v.insert("trace.overhead_share", headline.trace_overhead);
        v.insert("lat_p90_us", headline.lat_p90_us);
        v.insert(
            "work_per_s.seg_median",
            stats::seg_median(&headline.seg_work),
        );
        v.insert(
            "work_per_s.seg_spread",
            stats::seg_spread(&headline.seg_work),
        );
        v.insert(
            "lat_p50_us.seg_median",
            stats::seg_median(&headline.seg_p50),
        );
        v.insert(
            "lat_p50_us.seg_spread",
            stats::seg_spread(&headline.seg_p50),
        );
        v.insert(
            "lat_p90_us.seg_median",
            stats::seg_median(&headline.seg_p90),
        );
        v.insert(
            "lat_p90_us.seg_spread",
            stats::seg_spread(&headline.seg_p90),
        );
        let sheet_ok = sheet::fill(args, own, deadline, &mut tr, v)?;
        outcome.correct &= sheet_ok;
    }
    tr.end(run_span);

    for (name, value) in &outcome.values {
        eprintln!("  {name:<44} {value:>16.4}");
    }
    eprintln!(
        "  segments: work_per_s median {:.1} spread {:.3} · lat_p50_us median {:.1} spread {:.3} \
         · lat_p90_us median {:.1} spread {:.3}",
        stats::seg_median(&headline.seg_work),
        stats::seg_spread(&headline.seg_work),
        stats::seg_median(&headline.seg_p50),
        stats::seg_spread(&headline.seg_p50),
        stats::seg_median(&headline.seg_p90),
        stats::seg_spread(&headline.seg_p90),
    );
    if args.trace {
        sheet::write_out(args, &tr, &outcome.values, &env_json(args))?;
    }
    let in_time = Instant::now() < deadline;
    if !in_time {
        eprintln!("perfbench: the run hit its wall deadline");
    }
    Ok((outcome, in_time))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("catalogue") {
        println!("{}", report::benchmark_json());
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <wire_sat|wire_paced|sim_scale|sim_figures> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let defs = if args.trace { PER_LAYER } else { END_TO_END };
    match run(&args) {
        Ok((mut outcome, in_time)) => {
            outcome.correct &= in_time;
            match report::result_line(&outcome, defs) {
                Ok(line) => {
                    println!("{line}");
                    if outcome.correct {
                        ExitCode::SUCCESS
                    } else {
                        ExitCode::from(1)
                    }
                }
                Err(e) => {
                    eprintln!("perfbench: {e}");
                    ExitCode::from(1)
                }
            }
        }
        Err(e) => {
            // Every server thread has been joined by now (see `wire`).
            eprintln!("perfbench: {e}");
            println!("{{\"correct\": false, \"attempted\": 1, \"failed\": 1, \"metrics\": {{}}}}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let a = parse_args(&argv(
            "--workload wire_paced --seed 7 --seconds 20 --trace 1",
        ))
        .expect("valid");
        assert_eq!(a.workload, Workload::WirePaced);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 20.0, true));
        for (name, _) in report::WORKLOADS {
            let w = Workload::parse(name).expect("every catalogue workload runs");
            assert_eq!(w.name(), *name);
        }
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for bad in [
            "",
            "--workload nope --seed 1 --seconds 5 --trace 0",
            "--workload wire_sat --seed x --seconds 5 --trace 0",
            "--workload wire_sat --seed 1 --seconds 0 --trace 0",
            "--workload wire_sat --seed 1 --seconds 61 --trace 0",
            "--workload wire_sat --seed 1 --seconds 5 --trace 2",
            "--workload wire_sat --seed 1 --seconds 5",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad:?} accepted");
        }
    }
}
