//! One Table-1 cell from the paper's §6.2 drive emulation: iperf over the
//! downtown route by day, today's MNO vs CellBricks, paired on the same
//! carrier rate-policy trace.
//!
//! Run with: `cargo run --release --example drive_emulation`

use cellbricks::apps::emulation::{run, Arch, EmulationConfig, Workload};
use cellbricks::net::TimeOfDay;
use cellbricks::ran::RouteKind;
use cellbricks::sim::SimDuration;

fn main() {
    let duration = SimDuration::from_secs(300);
    println!("Downtown drive, daytime, 300 s, iperf downlink.\n");

    let mut results = Vec::new();
    for arch in [Arch::Mno, Arch::CellBricks] {
        let mut cfg =
            EmulationConfig::new(RouteKind::Downtown, TimeOfDay::Day, arch, Workload::Iperf);
        cfg.duration = duration;
        let out = run(&cfg);
        println!(
            "{:>10?}: {:.2} Mbps mean, {} handovers (MTTHO {:.1} s)",
            arch,
            out.iperf_mbps.unwrap(),
            out.handovers,
            out.mttho_s
        );
        results.push(out.iperf_mbps.unwrap());
    }
    let slowdown = (results[0] - results[1]) / results[0] * 100.0;
    println!("\nCellBricks slowdown vs MNO: {slowdown:+.2}%  (paper Table 1: −1.61% … +3.06%)");
    println!("Swap RouteKind / TimeOfDay / Workload to regenerate any Table 1 cell,");
    println!(
        "or run `cargo run --release -p cellbricks-bench --bin repro -- --figure table1` for all of them."
    );
}
