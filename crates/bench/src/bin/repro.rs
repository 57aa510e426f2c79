//! Regenerate the paper's figures from the cell registry
//! (`cellbricks_bench::figures`). For each figure: run its cells, write
//! `<dir>/<figure>.txt`, and export `<figure>.metrics.json` and
//! `<figure>.trace.json` beside it. `<dir>` is `CELLBRICKS_RESULTS_DIR`,
//! default `results`, so a bare run regenerates the committed figures.
//! The global telemetry registry is reset before each figure.
//!
//! Usage: `cargo run --release -p cellbricks-bench --bin repro --
//!         [--figure fig7|table1|fig8|fig9|fig10|cc|quic_ablation|reputation|all]
//!         [--seed S]` (defaults: `all`, 42)

use cellbricks_bench::figures::{self, Family};
use cellbricks_bench::{arg_str, arg_u64, results_dir, telemetry_finish, telemetry_init};

fn main() {
    telemetry_init();
    let seed = arg_u64("--seed", 42);
    let figure = arg_str("--figure").unwrap_or_else(|| "all".into());
    let families = match (figure.as_str(), Family::from_name(&figure)) {
        ("all", _) => Family::ALL.to_vec(),
        (_, Some(family)) => vec![family],
        (name, None) => {
            let names: Vec<&str> = Family::ALL.iter().map(|f| f.name()).collect();
            eprintln!(
                "repro: unknown figure {name:?}; expected all or one of {}",
                names.join(", ")
            );
            std::process::exit(2);
        }
    };
    let dir = results_dir();
    if let Err(e) = std::fs::create_dir_all(&dir) {
        panic!("repro: cannot create {dir}: {e}");
    }
    for family in families {
        let name = family.name();
        cellbricks_telemetry::global().reset();
        let cells = figures::cells(family, seed);
        eprintln!("{name}: {} cells (seed {seed})...", cells.len());
        let outs: Vec<_> = cells.iter().map(figures::run).collect();
        let path = format!("{dir}/{name}.txt");
        if let Err(e) = std::fs::write(&path, figures::render(family, &outs)) {
            panic!("repro: cannot write {path}: {e}");
        }
        eprintln!("{name}: wrote {path}");
        telemetry_finish(name);
    }
}
