//! `brokerd` — the CellBricks broker as a real wire service.
//!
//! The paper's broker is "an ordinary online service" (§3): no cellular
//! infrastructure, just a daemon behind a socket. This binary runs the
//! [`cellbricks_core::broker_server`] pipeline in one of two modes with
//! length-prefixed [`BrokerWire`] frames over UDP, one frame per
//! datagram:
//!
//! * **Server** (default): bind `--listen`, provision the deterministic
//!   `--seed`/`--n` population, and serve the staged pipeline — adaptive
//!   batch window on the I/O stage, each batch's crypto split across
//!   `--workers` threads, the I/O thread included (default: cores, at
//!   most 8) — for `--duration` seconds (0 = forever). Counters print on
//!   exit.
//! * **Load generator** (`--connect`): `--clients C` sender threads,
//!   each with its own socket, disjoint UE identities from the *same*
//!   seed path, and `--burst N` pre-built requests pumped through a
//!   `--window W` pipeline, re-sending a request unanswered after 500 ms.
//!
//! Both sides derive every key from (`--seed`, `--n`), so no state is
//! exchanged out of band — start a server in one terminal and point the
//! load generator at it from another:
//!
//! ```text
//! brokerd --listen 127.0.0.1:7701 --n 64 --duration 30 --workers 4
//! brokerd --connect 127.0.0.1:7701 --n 64 --clients 4 --burst 100
//! ```

use cellbricks_bench::{arg_str, arg_u64};
use cellbricks_core::broker_server::{
    self, build_requests, population, run_client, ClientConfig, ServeConfig,
};
use cellbricks_sim::SimRng;
use cellbricks_telemetry as telemetry;
use std::net::UdpSocket;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn serve_mode(listen: &str, seed: u64, n_ues: usize, duration_s: u64, workers: usize) {
    let pop = population(seed, n_ues);
    // Grant rng, not key material.
    let mut server = pop.server_with_workers(SimRng::new(seed ^ 0x6b72_6f6b), workers);
    let stop = Arc::new(AtomicBool::new(false));
    if duration_s > 0 {
        let stop_timer = Arc::clone(&stop);
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_secs(duration_s));
            stop_timer.store(true, Ordering::Relaxed);
        });
    }
    let sock = UdpSocket::bind(listen).expect("bind listen address");
    println!(
        "brokerd: serving {} subscribers on udp {} (seed {seed}, {} workers)",
        server.subscriber_count(),
        sock.local_addr().expect("local addr"),
        server.workers(),
    );
    broker_server::serve(&mut server, &sock, &stop, &ServeConfig::default()).expect("serve loop");
    let c = server.counters;
    println!(
        "brokerd: served {} auths · {} refused · {} bad frames · {} reports · {} batches",
        c.served_auths, c.auth_errs, c.bad_frames, c.wire_reports, c.batches
    );
    let batch = telemetry::histogram("brokerd.batch_size").snapshot();
    if batch.count() > 0 {
        println!(
            "brokerd: batch size p50 {} p99 {} max {}",
            batch.value_at_quantile(0.50),
            batch.value_at_quantile(0.99),
            batch.max()
        );
    }
    let wait = telemetry::histogram("brokerd.batch_wait_ns").snapshot();
    if wait.count() > 0 {
        println!(
            "brokerd: batch wait p50 {} us p99 {} us · window {} us",
            wait.value_at_quantile(0.50) / 1000,
            wait.value_at_quantile(0.99) / 1000,
            telemetry::gauge("brokerd.batch_window_ns").get() / 1000,
        );
    }
}

fn loadgen_mode(
    connect: &str,
    seed: u64,
    n_ues: usize,
    clients: usize,
    burst: usize,
    window: usize,
) {
    let server_addr = connect.parse().expect("server address");
    let pop = Arc::new(population(seed, n_ues));
    assert!(
        clients <= n_ues,
        "need at least one UE identity per client (--n >= --clients)"
    );
    println!(
        "brokerd loadgen: {clients} clients x {burst} requests, window {window}, -> udp {server_addr}"
    );
    // Pre-build every request before the timed window opens: request
    // construction is real crypto and must not dilute the server rate.
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            let pop = Arc::clone(&pop);
            std::thread::spawn(move || {
                let ues: Vec<usize> = (c..pop.ues.len()).step_by(clients).collect();
                let mut rng = SimRng::new(seed ^ 0xc11e_0000 ^ c as u64);
                let requests = build_requests(&pop, &ues, burst, &mut rng);
                (c, requests)
            })
        })
        .collect();
    let built: Vec<(usize, Vec<Vec<u8>>)> = handles
        .into_iter()
        .map(|h| h.join().expect("builder thread"))
        .collect();

    let start = Instant::now();
    let runners: Vec<_> = built
        .into_iter()
        .map(|(c, requests)| {
            std::thread::spawn(move || {
                let cfg = ClientConfig {
                    server: server_addr,
                    window,
                    retransmit_after: Duration::from_millis(500),
                    deadline: Duration::from_secs(120),
                    rtt_hist: format!("brokerd.loadgen.rtt_us.c{c}"),
                };
                run_client(&cfg, &requests).expect("client socket")
            })
        })
        .collect();
    let mut ok = 0u64;
    let mut refused = 0u64;
    let mut retransmits = 0u64;
    let mut lost = 0u64;
    for r in runners {
        let o = r.join().expect("client thread");
        ok += o.ok;
        refused += o.refused;
        retransmits += o.retransmits;
        lost += o.lost;
    }
    let secs = start.elapsed().as_secs_f64();
    let served = ok + refused;
    println!(
        "brokerd loadgen: {served} served in {secs:.3}s = {:.0} auth/s \
         (ok {ok}, refused {refused}, retransmits {retransmits}, lost {lost})",
        served as f64 / secs
    );
    assert_eq!(lost, 0, "server must answer every request");
}

fn main() {
    cellbricks_bench::telemetry_init();
    let seed = arg_u64("--seed", 42);
    let n_ues = arg_u64("--n", 64) as usize;
    if let Some(connect) = arg_str("--connect") {
        let clients = arg_u64("--clients", 4) as usize;
        let burst = arg_u64("--burst", 100) as usize;
        let window = arg_u64("--window", 8) as usize;
        loadgen_mode(&connect, seed, n_ues, clients, burst, window);
    } else {
        let listen = arg_str("--listen").unwrap_or_else(|| "127.0.0.1:7701".to_string());
        let duration_s = arg_u64("--duration", 0);
        let workers = arg_u64("--workers", broker_server::default_workers() as u64) as usize;
        serve_mode(&listen, seed, n_ues, duration_s, workers);
    }
}
