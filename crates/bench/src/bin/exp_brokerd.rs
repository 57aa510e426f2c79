//! `exp_brokerd` — served-auth/s of the real `brokerd` wire service.
//!
//! Unlike the simulated-time experiments (the figures, `exp_scale`), this
//! one measures the **wall clock**: a real server thread runs the staged
//! pipeline of [`cellbricks_core::broker_server`] — adaptive batch
//! window on the I/O stage, each batch's crypto split across `--workers`
//! threads, the I/O thread included (default: cores, at most 8) — on a
//! loopback UDP socket while C load-generator
//! clients pump pre-built `AuthReq` frames at it. The
//! quantity under test is the cross-connection batch-verify fast path:
//! at C=1 the client runs strict ping-pong (window 1), so every batch
//! holds one request and verification is per-request; at higher C the
//! batch window accumulates requests from many clients per wakeup and
//! one pooled Ed25519 batch spans all of them. Served-auth/s should
//! therefore *rise* with C on the same I/O thread.
//!
//! Protocol (EXPERIMENTS.md `exp_brokerd`): reps are **rep-major** —
//! every rep visits every concurrency level, then each level reports its
//! best rep over fresh nonces. Best-of-reps reads the machine's
//! capability rather than its worst scheduling accident, and rep-major
//! ordering keeps slow minutes on a shared box from landing on a single
//! level. Latency histograms accumulate across reps.
//!
//! Multi-process runs: `--client-only --connect A` runs just the
//! measurement protocol against a server started apart, `brokerd
//! --listen A --n 64 --duration D` (the same seed path provisions the
//! same 64 subscribers); its metrics land under `exp_brokerd_client`,
//! beside the combined run's file, not over it.
//!
//! Gauges land in `results/exp_brokerd.metrics.json`:
//! `exp_brokerd.c<C>.served_per_sec`, `.p50_us`, `.p99_us`,
//! `exp_brokerd.batch_win_x100` (highest-C rate over C=1 rate, ×100),
//! `exp_brokerd.bad_frames`, `exp_brokerd.workers`. The run itself
//! asserts that no frame was bad and no request went unanswered.
//!
//! `ci.sh` runs `--smoke`, and on two or more cores compares the C=16
//! rate of full runs at W = 0 and W = nproc. How fast the wire service
//! runs is otherwise `perfbench`'s question (`wire_sat`, `wire_paced`).
//!
//! Usage: `cargo run --release -p cellbricks-bench --bin exp_brokerd
//!         [--seed S] [--burst B] [--reps R] [--smoke] [--workers W]
//!         [--client-only --connect ADDR]`

use cellbricks_bench::{arg_flag, arg_str, arg_u64};
use cellbricks_core::broker_server::{
    self, build_requests, population, run_client, ClientConfig, Population, ServeConfig,
};
use cellbricks_sim::SimRng;
use cellbricks_telemetry as telemetry;
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Default)]
struct Level {
    window: usize,
    best_rate: f64,
    refused: u64,
    retransmits: u64,
}

/// One rep of one concurrency level: C clients pump `burst` requests
/// each; the rate is total served / wall time of the slowest client.
fn run_once(
    pop: &Arc<Population>,
    server: SocketAddr,
    clients: usize,
    burst: usize,
    rep: usize,
    seed: u64,
    acc: &mut Level,
) {
    // C=1 is the single-request-per-batch baseline the batching win is
    // measured against: strict ping-pong, one request per readiness batch.
    let window = if clients == 1 { 1 } else { 8 };
    let hist_name = format!("exp_brokerd.rtt_us.c{clients}");
    // Build outside the timed window; fresh nonces every rep.
    let built: Vec<Vec<Vec<u8>>> = (0..clients)
        .map(|c| {
            let ues: Vec<usize> = (c..pop.ues.len()).step_by(clients).collect();
            // Mix in the level, rep and client: the server's anti-replay
            // window spans the whole experiment, so every build must
            // draw a nonce stream no other (level, rep, client) drew.
            let mut rng = SimRng::new(
                seed ^ ((clients as u64) << 48) ^ ((rep as u64) << 40) ^ ((c as u64) << 8) ^ 0xb0,
            );
            build_requests(pop, &ues, burst, &mut rng)
        })
        .collect();
    let start = Instant::now();
    let runners: Vec<_> = built
        .into_iter()
        .map(|requests| {
            let hist_name = hist_name.clone();
            std::thread::spawn(move || {
                run_client(
                    &ClientConfig {
                        server,
                        window,
                        retransmit_after: Duration::from_millis(500),
                        deadline: Duration::from_secs(120),
                        rtt_hist: hist_name,
                    },
                    &requests,
                )
                .expect("client socket")
            })
        })
        .collect();
    let mut served = 0u64;
    for r in runners {
        let o = r.join().expect("client thread");
        assert_eq!(o.lost, 0, "C={clients}: every request must be answered");
        served += o.ok + o.refused;
        acc.refused += o.refused;
        acc.retransmits += o.retransmits;
    }
    let secs = start.elapsed().as_secs_f64();
    assert_eq!(served as usize, clients * burst);
    acc.window = window;
    acc.best_rate = acc.best_rate.max(served as f64 / secs);
}

/// The rep-major measurement protocol against a serving address: prints
/// the per-level table and sets the `exp_brokerd.c<C>.*` gauges. Returns
/// the batching win (highest-C rate over C=1 rate).
fn measure(
    pop: &Arc<Population>,
    addr: SocketAddr,
    levels: &[usize],
    reps: usize,
    burst: usize,
    seed: u64,
) -> f64 {
    println!(
        "brokerd wire service — served-auth/s vs client concurrency \
         (burst {burst}/client, best of {reps})"
    );
    println!("{}", cellbricks_bench::rule(78));
    println!(
        "{:<9} {:>7} {:>13} {:>10} {:>10} {:>9} {:>8}",
        "clients", "window", "served/s", "p50 us", "p99 us", "refused", "rexmit"
    );
    println!("{}", cellbricks_bench::rule(78));
    // Rep-major: every rep visits every level, so slow minutes on a
    // shared box penalize all levels alike instead of whichever level
    // happened to run then; best-of-reps per level then compares like
    // with like.
    let mut rows: Vec<Level> = levels.iter().map(|_| Level::default()).collect();
    for rep in 0..reps {
        for (&clients, acc) in levels.iter().zip(rows.iter_mut()) {
            run_once(pop, addr, clients, burst, rep, seed, acc);
        }
    }
    let mut base = 0.0_f64;
    let mut top = 0.0_f64;
    for (&clients, row) in levels.iter().zip(&rows) {
        let h = telemetry::histogram(format!("exp_brokerd.rtt_us.c{clients}")).snapshot();
        let (p50, p99) = (h.value_at_quantile(0.50), h.value_at_quantile(0.99));
        if clients == 1 {
            base = row.best_rate;
        }
        top = row.best_rate; // last level = highest concurrency
        telemetry::gauge(format!("exp_brokerd.c{clients}.served_per_sec"))
            .set(row.best_rate as i64);
        telemetry::gauge(format!("exp_brokerd.c{clients}.p50_us")).set(p50 as i64);
        telemetry::gauge(format!("exp_brokerd.c{clients}.p99_us")).set(p99 as i64);
        println!(
            "{:<9} {:>7} {:>13.0} {:>10} {:>10} {:>9} {:>8}",
            clients, row.window, row.best_rate, p50, p99, row.refused, row.retransmits
        );
    }
    println!("{}", cellbricks_bench::rule(78));
    let win = top / base.max(1e-9);
    println!(
        "cross-connection batching win: {win:.2}x over the \
         single-request-per-batch baseline"
    );
    telemetry::gauge("exp_brokerd.batch_win_x100").set((win * 100.0) as i64);
    win
}

fn print_server_stats(server: &cellbricks_core::BrokerServer) {
    let c = server.counters;
    let batch = telemetry::histogram("brokerd.batch_size").snapshot();
    println!(
        "server: {} served · {} refused · {} bad frames · batch size \
         p50 {} p99 {} max {}",
        c.served_auths,
        c.auth_errs,
        c.bad_frames,
        batch.value_at_quantile(0.50),
        batch.value_at_quantile(0.99),
        batch.max()
    );
    // The batch-window controller next to the rate it produces: how
    // long batches waited to close, and how many threads split them.
    let wait = telemetry::histogram("brokerd.batch_wait_ns").snapshot();
    println!(
        "pipeline: batch wait p50 {} us p99 {} us · window {} us · {} workers",
        wait.value_at_quantile(0.50) / 1000,
        wait.value_at_quantile(0.99) / 1000,
        telemetry::gauge("brokerd.batch_window_ns").get() / 1000,
        server.workers(),
    );
    // The process-global verifier/DH caches are what the wire server
    // shares across connections; their hit rates belong next to the
    // served-auth/s they explain.
    let cache = |name: &str| telemetry::counter(format!("crypto.{name}")).get();
    println!(
        "caches: keycache {}/{} hit/miss · sigmemo {}/{} · dhcache {}/{} \
         ({} built, {} promoted)",
        cache("keycache.hit"),
        cache("keycache.miss"),
        cache("sigmemo.hit"),
        cache("sigmemo.miss"),
        cache("dhcache.hit"),
        cache("dhcache.miss"),
        cache("dhcache.build"),
        cache("dhcache.promote"),
    );
}

fn main() {
    cellbricks_bench::telemetry_init();
    let seed = arg_u64("--seed", 42);
    let smoke = arg_flag("--smoke");
    let reps = arg_u64("--reps", if smoke { 1 } else { 3 }) as usize;
    let burst = arg_u64("--burst", if smoke { 24 } else { 96 }) as usize;
    let levels: &[usize] = if smoke { &[1, 4] } else { &[1, 4, 16] };
    let n_ues = levels.iter().copied().max().unwrap_or(1) * 4;
    let workers = arg_u64("--workers", broker_server::default_workers() as u64) as usize;
    telemetry::gauge("exp_brokerd.workers").set(workers as i64);

    if arg_flag("--client-only") {
        let addr: SocketAddr = arg_str("--connect")
            .expect("--client-only needs --connect ADDR")
            .parse()
            .expect("server address");
        let pop = Arc::new(population(seed, n_ues));
        measure(&pop, addr, levels, reps, burst, seed);
        // Its own metrics file, beside the combined run's `exp_brokerd`.
        cellbricks_bench::telemetry_finish("exp_brokerd_client");
        return;
    }

    // Combined mode: one server thread for the whole experiment, like a
    // real daemon — the verifier-key caches and nonce window stay warm
    // across levels.
    let pop = Arc::new(population(seed, n_ues));
    let mut server = pop.server_with_workers(SimRng::new(seed ^ 0x6b72_6f6b), workers);
    let sock = UdpSocket::bind("127.0.0.1:0").expect("bind loopback");
    let addr = sock.local_addr().expect("local addr");
    let stop = Arc::new(AtomicBool::new(false));
    let stop_server = Arc::clone(&stop);
    let server_thread = std::thread::spawn(move || {
        broker_server::serve(&mut server, &sock, &stop_server, &ServeConfig::default())
            .expect("serve loop");
        server
    });

    let _win = measure(&pop, addr, levels, reps, burst, seed);

    stop.store(true, Ordering::Relaxed);
    let server = server_thread.join().expect("server thread");
    print_server_stats(&server);
    let c = server.counters;
    telemetry::gauge("exp_brokerd.bad_frames").set(c.bad_frames as i64);
    telemetry::gauge("exp_brokerd.served_total").set(c.served_auths as i64);
    assert_eq!(c.bad_frames, 0, "load generator sends only valid frames");

    cellbricks_bench::telemetry_finish("exp_brokerd");
}
