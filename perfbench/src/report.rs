//! The metric catalogue and the result line.
//!
//! `BENCHMARK.json` at the repository root is generated from this
//! catalogue (`perfbench catalogue`) and a unit test keeps the two in
//! step. Every `--trace 0` run prints every end-to-end metric and every
//! `--trace 1` run every per-layer metric, by name, with its unit.

use cellbricks_telemetry::json::{push_f64, push_str_lit};
use std::collections::BTreeMap;

/// Measured values by catalogue name.
pub type Values = BTreeMap<&'static str, f64>;

/// Which way is better.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

/// One catalogue entry.
#[derive(Clone, Copy, Debug)]
pub struct Def {
    /// Metric name (`[A-Za-z0-9_.-]+`).
    pub name: &'static str,
    /// Unit (`s`, `us`, `ns`, `1/s`, `MB`, `B`, `share`, `count`).
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// End-to-end metrics only: the share of the parent's median by
    /// which the metric may worsen before it counts as a regression.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Def {
    Def {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn lo(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        better: Better::Lower,
        bound: None,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        better: Better::Higher,
        bound: None,
    }
}

/// The end-to-end metrics, printed by every `--trace 0` run. What each
/// means on each workload is in `perfbench/README.md`.
///
/// The bounds are sized to this box's noisy hours, not its quiet ones.
/// Quiet, two interleaved sets of ten runs of one commit spread (inter-
/// quartile, as a share of the median) at most 0.04 on every metric but
/// `setup_s`; in the noisiest hour measured the same protocol spread 0.19
/// on `work_per_s`@wire_sat and 0.24 / 0.28 on `lat_p50_us`@wire_sat /
/// @wire_paced (a one-thread arithmetic loop drifted 15 % that hour),
/// while the set medians still agreed within 0.04. So the rate and the
/// latency take the widest bound the contract allows. The p90 latency
/// and the N = 100k engine rate are not here: their same-commit spreads
/// reached 0.25 and 0.21, which no allowed bound can gate. They are
/// reported per layer (`lat_p90_us`, `sim.events_per_s_n100k`) instead.
pub const END_TO_END: &[Def] = &[
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.15),
    e2e("work_per_s", "1/s", Better::Higher, 0.25),
    e2e("lat_p50_us", "us", Better::Lower, 0.25),
];

/// The per-layer metrics, printed by every `--trace 1` run.
pub const PER_LAYER: &[Def] = &[
    // crypto: ed25519, sealed boxes, x25519.
    lo("crypto.sign_ns", "ns"),
    lo("crypto.verify_ns", "ns"),
    lo("crypto.verify_batch96_ns_per_sig", "ns"),
    lo("crypto.open_cold_ns", "ns"),
    lo("crypto.open_batch32_ns_per_item", "ns"),
    lo("crypto.seal_cold_ns", "ns"),
    lo("crypto.seal_hot_ns", "ns"),
    lo("crypto.keygen_ue_ns", "ns"),
    // crypto::precomp caches, over the server's drives.
    hi("crypto.keycache.hit_share", "share"),
    hi("crypto.dhcache.hit_share", "share"),
    hi("crypto.sigmemo.hit_share", "share"),
    lo("crypto.dhcache.built_per_kauth", "count"),
    lo("crypto.dhcache.promote", "count"),
    // core::sap stage budget, per auth over a 32-batch.
    lo("core.sap.decode_ns", "ns"),
    lo("core.sap.pre_open_ns", "ns"),
    lo("core.sap.open_ns", "ns"),
    lo("core.sap.post_open_ns", "ns"),
    lo("core.sap.verify_ns", "ns"),
    lo("core.sap.grant_ns", "ns"),
    lo("core.sap.encode_ns", "ns"),
    lo("core.sap.build_request_ns", "ns"),
    // core::broker_server, in process and live.
    lo("core.broker_server.b1_hot_ns_per_auth", "ns"),
    lo("core.broker_server.b32_hot_ns_per_auth", "ns"),
    lo("core.broker_server.b1_cold_ns_per_auth", "ns"),
    lo("core.broker_server.b32_cold_ns_per_auth", "ns"),
    lo("core.broker_server.unaccounted_share", "share"),
    lo("core.broker_server.allocs_per_auth", "count"),
    lo("core.broker_server.hostile_b32_ns_per_frame", "ns"),
    hi("core.broker_server.batch_size_p50", "count"),
    hi("core.broker_server.batch_size_p99", "count"),
    lo("core.broker_server.batch_wait_p50_ns", "ns"),
    lo("core.broker_server.batch_wait_p99_ns", "ns"),
    lo("core.broker_server.window_ns", "ns"),
    lo("core.broker_server.batches", "count"),
    lo("core.broker_server.auth_errs", "count"),
    lo("core.broker_server.bad_frames", "count"),
    // net::wire framing, the serve loop's sockets, the polling shim.
    lo("net.wire.pingpong_rtt_us", "us"),
    lo("net.wire.io_ns_per_auth", "ns"),
    lo("net.wire.frame_ns", "ns"),
    lo("net.wire.lat_p99_us", "us"),
    lo("net.wire.lat_p999_us", "us"),
    lo("net.wire.lat_max_us", "us"),
    hi("net.wire.lat_samples", "count"),
    lo("loadgen.late_p99_us", "us"),
    lo("loadgen.late_max_us", "us"),
    hi("loadgen.within_limit_share", "share"),
    // sim::wheel, net::engine, net::world, sim::arena.
    lo("sim.wheel.insert_pop_ns", "ns"),
    hi("sim.events_per_s_n10k", "1/s"),
    hi("sim.events_per_s_n100k", "1/s"),
    lo("net.engine.ns_per_event_n10k", "ns"),
    lo("net.engine.ns_per_event_n100k", "ns"),
    lo("net.engine.events_per_pkt", "count"),
    lo("net.engine.allocs_per_event", "count"),
    lo("net.world.send_drain_ns_per_pkt", "ns"),
    lo("net.world.build_s_n100k", "s"),
    lo("net.world.bytes_per_ue_n100k", "B"),
    lo("sim.events_total", "count"),
    // apps, transport, ran, epc through the figure cells.
    lo("sim.figures.pass_s", "s"),
    lo("apps.table1_s", "s"),
    lo("apps.fig8_s", "s"),
    lo("apps.fig9_s", "s"),
    lo("apps.fig10_s", "s"),
    lo("transport.cc_s", "s"),
    lo("core.attach_bench.fig7_s", "s"),
    lo("apps.iperf_cells_s", "s"),
    lo("apps.ping_cells_s", "s"),
    lo("apps.voip_cells_s", "s"),
    lo("apps.video_cells_s", "s"),
    lo("apps.web_cells_s", "s"),
    hi("sim.figures.events_per_s", "1/s"),
    lo("sim.figures.events_total", "count"),
    // What the instruments themselves cost.
    lo("telemetry.overhead_share_wire", "share"),
    lo("telemetry.overhead_share_sim", "share"),
    lo("trace.overhead_share", "share"),
    // The tail of the unit latency (same estimator as `lat_p50_us`),
    // and the plain view of the segments behind the headline estimators.
    lo("lat_p90_us", "us"),
    hi("work_per_s.seg_median", "1/s"),
    lo("work_per_s.seg_spread", "share"),
    lo("lat_p50_us.seg_median", "us"),
    lo("lat_p50_us.seg_spread", "share"),
    lo("lat_p90_us.seg_median", "us"),
    lo("lat_p90_us.seg_spread", "share"),
];

/// The four workloads and why each exists.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "wire_sat",
        "closed loop, 32 in flight over 16384 UEs: full batches, so pooled open/verify/grant and the FIFO caches do the work",
    ),
    (
        "wire_paced",
        "open loop at 1500 req/s over 64 hot UEs: batches of one, caches hit, so the per-request path is timed and batching is bypassed",
    ),
    (
        "sim_scale",
        "mega world at N=10k and N=100k UEs, no crypto or transport: wheel, engine and world; per-event CPU cost vs memory-bound",
    ),
    (
        "sim_figures",
        "every committed figure cell at its committed parameters: transport, apps, ran, epc; tiny worlds, the stable counterweight",
    ),
];

/// Seconds one run measures (the `run_seconds` of `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 20;

/// True for names made of letters, digits, `_`, `.` and `-` that start
/// with a letter or digit and are at most 64 long.
#[must_use]
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// True for units made of letters, digits, `_ / % . -`, at most 16 long.
#[must_use]
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// One run's outcome.
pub struct Outcome {
    /// Outputs were checked and are right.
    pub correct: bool,
    /// Requests sent / packets sent / cell-runs.
    pub attempted: u64,
    /// Of those, lost, refused, undelivered or not reproduced.
    pub failed: u64,
    /// Everything measured, by name.
    pub values: Values,
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`,
/// the metrics being every entry of `defs`.
///
/// # Errors
/// Names a catalogue metric that was not measured or is not finite.
pub fn result_line(outcome: &Outcome, defs: &[Def]) -> Result<String, String> {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.correct,
        outcome.attempted.max(1),
        outcome.failed
    );
    for (i, d) in defs.iter().enumerate() {
        if !valid_name(d.name) || !valid_unit(d.unit) {
            return Err(format!("metric {} ({}) is not printable", d.name, d.unit));
        }
        let v = outcome
            .values
            .get(d.name)
            .copied()
            .filter(|v| v.is_finite())
            .ok_or_else(|| format!("metric {} was not measured", d.name))?;
        if i > 0 {
            out.push_str(", ");
        }
        push_str_lit(&mut out, d.name);
        out.push_str(": {\"value\": ");
        push_f64(&mut out, v);
        out.push_str(", \"unit\": ");
        push_str_lit(&mut out, d.unit);
        out.push('}');
    }
    out.push_str("}}");
    Ok(out)
}

/// `BENCHMARK.json`, generated from the catalogue above.
#[must_use]
pub fn benchmark_json() -> String {
    let better = |b: Better| match b {
        Better::Lower => "lower",
        Better::Higher => "higher",
    };
    let mut out = String::from("{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \"--manifest-path\", \"perfbench/Cargo.toml\", \"--\"],\n  \"paths\": [\"perfbench\"],\n");
    out.push_str(&format!(
        "  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n"
    ));
    for (i, (name, why)) in WORKLOADS.iter().enumerate() {
        let sep = if i + 1 < WORKLOADS.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": \"{name}\", \"why\": \"{why}\"}}{sep}\n"
        ));
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, d) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 < END_TO_END.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{sep}\n",
            d.name,
            d.unit,
            better(d.better),
            d.bound.unwrap_or(0.0)
        ));
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, d) in PER_LAYER.iter().enumerate() {
        let sep = if i + 1 < PER_LAYER.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{sep}\n",
            d.name,
            d.unit,
            better(d.better)
        ));
    }
    out.push_str("  ]\n}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn filled(defs: &[Def]) -> Outcome {
        Outcome {
            correct: true,
            attempted: 10,
            failed: 0,
            values: defs.iter().map(|d| (d.name, 1.5)).collect(),
        }
    }

    #[test]
    fn every_catalogue_entry_is_inside_the_contracts_limits() {
        let mut seen = BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(d.name), "bad metric name {:?}", d.name);
            assert!(valid_unit(d.unit), "bad unit {:?} on {}", d.unit, d.name);
            assert!(seen.insert(d.name), "{} is listed twice", d.name);
        }
        for (name, why) in WORKLOADS {
            assert!(valid_name(name) && seen.insert(name), "workload {name}");
            assert!(why.len() <= 200 && !why.contains('\n'), "why of {name}");
        }
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        for d in END_TO_END {
            let bound = d.bound.expect("end-to-end metrics carry a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}: bound {bound}", d.name);
        }
        // Set-up time is a metric of its own, with the largest bound.
        let setup = END_TO_END
            .iter()
            .find(|d| d.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|d| d.bound <= setup.bound));
        assert!(PER_LAYER.iter().all(|d| d.bound.is_none()));
    }

    #[test]
    fn names_and_units_reject_what_the_contract_rejects() {
        assert!(valid_name("core.broker_server.b32_hot_ns_per_auth"));
        assert!(valid_name("1st-try"));
        for bad in ["", ".hidden", "-x", "with space", "µs", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad:?} accepted");
        }
        assert!(valid_unit("1/s") && valid_unit("%") && valid_unit("MB"));
        for bad in ["", "µs", "per second", &"u".repeat(17)] {
            assert!(!valid_unit(bad), "{bad:?} accepted");
        }
    }

    #[test]
    fn the_result_line_carries_exactly_the_catalogue_with_units() {
        for defs in [END_TO_END, PER_LAYER] {
            let line = result_line(&filled(defs), defs).expect("all measured");
            assert!(line.starts_with(
                "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {"
            ));
            assert!(!line.contains('\n'));
            for d in defs {
                let entry = format!(
                    "\"{}\": {{\"value\": 1.5, \"unit\": \"{}\"}}",
                    d.name, d.unit
                );
                assert!(line.contains(&entry), "{entry} missing");
            }
            assert_eq!(line.matches("\"unit\"").count(), defs.len());
        }
    }

    #[test]
    fn an_unmeasured_or_non_finite_metric_is_an_error_not_a_gap() {
        let mut o = filled(END_TO_END);
        o.values.remove("work_per_s");
        assert!(result_line(&o, END_TO_END)
            .unwrap_err()
            .contains("work_per_s"));
        o.values.insert("work_per_s", f64::NAN);
        assert!(result_line(&o, END_TO_END).is_err());
    }

    #[test]
    fn benchmark_json_is_generated_from_this_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            on_disk.trim_end(),
            benchmark_json(),
            "regenerate with `perfbench catalogue > BENCHMARK.json`"
        );
        assert!(on_disk.len() <= 64 * 1024);
    }
}
