//! Scale: many UEs attaching through one bTelco and one broker, plus an
//! engine-throughput sweep.
//!
//! The paper claims CellBricks "scales to a large number of users under
//! different radio conditions" (§1). This experiment has two parts:
//!
//! 1. **Attach burst** — attaches N UEs (each a full [`UeDevice`] with
//!    its own keys and SAP state) through a single bTelco gateway to a
//!    single `brokerd`, with all N requests arriving in one burst — the
//!    worst case for the broker's single-threaded service queue — and
//!    reports the attach-latency distribution and the effective
//!    authorization throughput.
//! 2. **Engine sweep** — the same world at N ∈ {100, 1k, 10k} UEs, with
//!    scheduler events/sec measured (a) across the attach burst and
//!    (b) in steady state, where all N UEs sit idle on long report
//!    timers and a single busy flow ticks every 100 µs. Steady state
//!    isolates the event engine: with a per-event endpoint scan the cost
//!    is O(events × N); with the indexed driver it is O(events × log N).
//!
//! Per-N results land in `results/exp_scale.metrics.json` as
//! `exp_scale.attach.n<N>.events_per_sec` and
//! `exp_scale.engine.n<N>.events_per_sec` gauges, plus per-phase
//! allocator pressure (`….alloc.count` / `….alloc.bytes` — see
//! [`cellbricks_bench::alloc_count`]) so allocation regressions in the
//! hot path are as visible as throughput regressions.
//!
//! Usage: `cargo run --release -p cellbricks-bench --bin exp_scale
//!         [--seed S] [--smoke] [--engine-only N] [--mega-only N]`
//!
//! `--engine-only` / `--mega-only` run a single row of the respective
//! table — what CI's best-of-N floor protocol re-runs to take the
//! fastest of several attempts.

use bytes::Bytes;
use cellbricks_core::brokerd::{Brokerd, BrokerdConfig};
use cellbricks_core::btelco::{BTelcoGateway, BTelcoGatewayConfig, BrokerContact};
use cellbricks_core::principal::{BrokerKeys, TelcoKeys, UeKeys};
use cellbricks_core::sap::QosCap;
use cellbricks_core::ue::{BrokerReplica, UeDevice, UeDeviceConfig};
use cellbricks_crypto::cert::CertificateAuthority;
use cellbricks_epc::enb::Enb;
use cellbricks_net::{Driver, Endpoint, LinkConfig, NetWorld, NodeId, Packet, Router, Topology};
use cellbricks_sim::{percentile, Arena, SimDuration, SimRng, SimTime};
use cellbricks_telemetry as telemetry;
use std::collections::HashMap;
use std::net::Ipv4Addr;

const AGW_SIG: Ipv4Addr = Ipv4Addr::new(172, 16, 1, 1);
const BROKER_IP: Ipv4Addr = Ipv4Addr::new(172, 16, 0, 1);
const TICK_A_IP: Ipv4Addr = Ipv4Addr::new(192, 168, 9, 1);
const TICK_B_IP: Ipv4Addr = Ipv4Addr::new(192, 168, 9, 2);

/// The busy flow of the steady-state phase: sends one small control
/// packet to `dst` every `interval` between `start` and `stop`.
struct Ticker {
    node: NodeId,
    dst: Ipv4Addr,
    next: SimTime,
    stop: SimTime,
    interval: SimDuration,
}

impl Endpoint for Ticker {
    fn node(&self) -> NodeId {
        self.node
    }
    fn handle_packet(&mut self, _now: SimTime, _pkt: Packet, _out: &mut Vec<Packet>) {}
    fn poll_at(&self) -> Option<SimTime> {
        (self.next < self.stop).then_some(self.next)
    }
    fn poll(&mut self, now: SimTime, out: &mut Vec<Packet>) {
        while self.next <= now && self.next < self.stop {
            out.push(Packet::control(
                TICK_A_IP,
                self.dst,
                Bytes::from_static(b"t"),
            ));
            self.next += self.interval;
        }
    }
}

/// The far end of the busy flow: counts receptions, never wakes itself.
struct Sink {
    node: NodeId,
    received: u64,
}

impl Endpoint for Sink {
    fn node(&self) -> NodeId {
        self.node
    }
    fn handle_packet(&mut self, _now: SimTime, _pkt: Packet, _out: &mut Vec<Packet>) {
        self.received += 1;
    }
    fn poll_at(&self) -> Option<SimTime> {
        None
    }
    fn poll(&mut self, _now: SimTime, _out: &mut Vec<Packet>) {}
}

// ----- Mega sweep: 100k–1M lightweight UEs in a SoA arena -----

/// Regions in the mega topology (each a bTelco: gateway router + sink).
const MEGA_REGIONS: u32 = 8;

/// The source address mega UEs stamp on their uplink ticks (routing and
/// sink accounting ignore it, so one shared constant keeps the per-UE
/// state to the hot fields below).
const MEGA_SRC: Ipv4Addr = Ipv4Addr::new(172, 20, 0, 1);

/// The sink address of region `r`.
fn mega_sink_ip(r: u32) -> Ipv4Addr {
    Ipv4Addr::new(10, r as u8, 0, 1)
}

/// A mega-scale UE: a timer and a destination — nothing else. A full
/// [`UeDevice`] carries keys, SAP state and a host stack (hundreds of
/// bytes plus heap); at N=1M only this dense hot state is affordable,
/// and the whole fleet lives in one [`Arena`].
struct MegaUe {
    node: NodeId,
    dst: Ipv4Addr,
    next: SimTime,
    stop: SimTime,
    interval: SimDuration,
    sent: u64,
}

impl Endpoint for MegaUe {
    fn node(&self) -> NodeId {
        self.node
    }
    fn handle_packet(&mut self, _now: SimTime, _pkt: Packet, _out: &mut Vec<Packet>) {}
    fn poll_at(&self) -> Option<SimTime> {
        (self.next < self.stop).then_some(self.next)
    }
    fn poll(&mut self, now: SimTime, out: &mut Vec<Packet>) {
        while self.next <= now && self.next < self.stop {
            out.push(Packet::control(
                MEGA_SRC,
                self.dst,
                Bytes::from_static(b"m"),
            ));
            self.next += self.interval;
            self.sent += 1;
        }
    }
}

struct MegaWorld {
    world: NetWorld,
    hub: Router,
    gws: Vec<Router>,
    sinks: Vec<Sink>,
    ues: Arena<MegaUe>,
}

struct MegaResult {
    n: usize,
    events_per_sec: f64,
    bytes_per_ue: f64,
    sent: u64,
    received: u64,
}

/// Build the mega world: `MEGA_REGIONS` bTelco regions (gateway router +
/// sink each) hanging off a hub, and `n` [`MegaUe`]s round-robined
/// across the regions. Every UE ticks once per `n` µs (≈1M packets/s
/// fleet-wide at any N) staggered by its index; every 16th UE targets
/// the *next* region's sink, so the inter-region fabric (the 2 ms
/// gateway↔hub links) carries steady traffic.
fn build_mega(n: usize, seed: u64, duration: SimDuration) -> MegaWorld {
    let mut t = Topology::new();
    let hub_node = t.add_node_in_region("hub", 0);
    let hub = Router::new(hub_node, SimDuration::from_micros(1));
    let mut gws = Vec::with_capacity(MEGA_REGIONS as usize);
    let mut sinks = Vec::with_capacity(MEGA_REGIONS as usize);
    let mut gw_nodes = Vec::with_capacity(MEGA_REGIONS as usize);
    for r in 0..MEGA_REGIONS {
        let gw_node = t.add_node_in_region(&format!("gw{r}"), r);
        let sink_node = t.add_node_in_region(&format!("sink{r}"), r);
        let up = t.add_symmetric_link(
            gw_node,
            hub_node,
            LinkConfig::delay_only(SimDuration::from_millis(2)),
        );
        let down = t.add_symmetric_link(
            gw_node,
            sink_node,
            LinkConfig::delay_only(SimDuration::from_micros(100)),
        );
        t.add_route(gw_node, mega_sink_ip(r), 32, down);
        t.add_default_route(gw_node, up);
        t.add_route(hub_node, Ipv4Addr::new(10, r as u8, 0, 0), 16, up);
        gws.push(Router::new(gw_node, SimDuration::from_micros(1)));
        sinks.push(Sink {
            node: sink_node,
            received: 0,
        });
        gw_nodes.push(gw_node);
    }

    let interval = SimDuration::from_micros(n as u64);
    let mut ues = Arena::with_capacity(n);
    for i in 0..n {
        let r = (i as u32) % MEGA_REGIONS;
        let ue_node = t.add_node_in_region(&format!("u{i}"), r);
        let radio = t.add_symmetric_link(
            ue_node,
            gw_nodes[r as usize],
            LinkConfig::delay_only(SimDuration::from_micros(500)),
        );
        t.add_default_route(ue_node, radio);
        // Every 16th UE exercises the inter-region fabric.
        let dst_region = if i % 16 == 0 {
            (r + 1) % MEGA_REGIONS
        } else {
            r
        };
        ues.push(MegaUe {
            node: ue_node,
            dst: mega_sink_ip(dst_region),
            next: SimTime::ZERO + SimDuration::from_micros(i as u64 % n as u64),
            stop: SimTime::ZERO + duration,
            interval,
            sent: 0,
        });
    }

    MegaWorld {
        world: NetWorld::new(t, SimRng::new(seed)),
        hub,
        gws,
        sinks,
        ues,
    }
}

fn run_mega(n: usize, seed: u64, duration: SimDuration) -> MegaResult {
    let build_phase = cellbricks_bench::alloc_count::Phase::start();
    let mut mw = build_mega(n, seed, duration);
    let (_, build_bytes) = build_phase.export(&format!("exp_scale.mega.n{n}.build"));
    let bytes_per_ue = build_bytes as f64 / n as f64;
    telemetry::gauge(format!("exp_scale.mega.n{n}.bytes_per_ue")).set(bytes_per_ue as i64);
    telemetry::gauge("sim.arena.mega_ue.capacity").set(mw.ues.capacity() as i64);
    telemetry::gauge("sim.arena.mega_ue.occupancy").set(mw.ues.len() as i64);
    telemetry::gauge("sim.arena.mega_ue.bytes_peak").set(mw.ues.bytes_capacity() as i64);

    // Drain the fleet: past `stop` plus the longest path (2×2 ms
    // hub hops + slack) every tick has landed.
    let until = SimTime::ZERO + duration + SimDuration::from_millis(20);
    let ev0 = sched_events();
    let run_phase = cellbricks_bench::alloc_count::Phase::start();
    let t0 = std::time::Instant::now();
    let mut endpoints: Vec<&mut dyn Endpoint> =
        Vec::with_capacity(mw.ues.len() + 2 * MEGA_REGIONS as usize + 1);
    endpoints.push(&mut mw.hub);
    for gw in &mut mw.gws {
        endpoints.push(gw);
    }
    for sink in &mut mw.sinks {
        endpoints.push(sink);
    }
    for ue in mw.ues.iter_mut() {
        endpoints.push(ue);
    }
    Driver::new().run_to(&mut mw.world, &mut endpoints, until);
    let wall = t0.elapsed();
    run_phase.export(&format!("exp_scale.mega.n{n}.run"));
    let events = sched_events() - ev0;
    let eps = events_per_sec(events, wall);
    telemetry::gauge(format!("exp_scale.mega.n{n}.events_per_sec")).set(eps as i64);

    let sent: u64 = mw.ues.iter().map(|u| u.sent).sum();
    let received: u64 = mw.sinks.iter().map(|s| s.received).sum();
    assert!(
        received * 100 >= sent * 99,
        "mega ticks lost: sent {sent}, received {received}"
    );
    MegaResult {
        n,
        events_per_sec: eps,
        bytes_per_ue,
        sent,
        received,
    }
}

struct ScaleResult {
    n: usize,
    attached: usize,
    mean_ms: f64,
    p95_ms: f64,
    max_ms: f64,
    auths_per_sec: f64,
    /// Authorizations per wall-clock second: the host-side cost of the
    /// burst (dominated by the broker's SAP crypto), as opposed to
    /// `auths_per_sec` which is paced by simulated service delays.
    auths_per_sec_wall: f64,
}

struct EngineResult {
    n: usize,
    attach_events_per_sec: f64,
    engine_events_per_sec: f64,
    /// Allocator calls per scheduler event in the steady-state phase.
    engine_allocs_per_event: f64,
    ticks: u64,
}

struct ScaleWorld {
    world: NetWorld,
    enb: Enb,
    telco: BTelcoGateway,
    brokerd: Brokerd,
    ues: Vec<UeDevice>,
    ticker: Ticker,
    sink: Sink,
}

impl ScaleWorld {
    /// Build the N-UE scale world. `patient` raises the UE attach-retry
    /// timer so a 10k burst queued behind one broker never gives up.
    fn build(n: usize, seed: u64, patient: bool) -> Self {
        let mut rng = SimRng::new(seed);
        let ca = CertificateAuthority::from_seed([0xCA; 32]);
        let broker_keys = BrokerKeys::generate("broker.example", &ca, &mut rng);
        let telco_keys = TelcoKeys::generate("tower-1.example", &ca, &mut rng);

        // Topology: N UE nodes — one eNB — AGW — cloud, plus the
        // self-contained ticker pair for the steady-state phase.
        let mut t = Topology::new();
        let enb_node = t.add_node("enb");
        let agw_node = t.add_node("agw");
        let cloud_node = t.add_node("cloud");
        let back = t.add_symmetric_link(
            enb_node,
            agw_node,
            LinkConfig::delay_only(SimDuration::from_micros(200)),
        );
        let core = t.add_symmetric_link(
            agw_node,
            cloud_node,
            LinkConfig::delay_only(SimDuration::from_millis(2)),
        );
        t.add_default_route(enb_node, back);
        t.add_default_route(agw_node, core);
        t.add_default_route(cloud_node, core);

        let tick_a = t.add_node("tick_a");
        let tick_b = t.add_node("tick_b");
        let tick_link = t.add_symmetric_link(
            tick_a,
            tick_b,
            LinkConfig::delay_only(SimDuration::from_micros(50)),
        );
        t.add_default_route(tick_a, tick_link);
        t.add_default_route(tick_b, tick_link);

        let mut brokerd = Brokerd::new(
            cloud_node,
            BrokerdConfig {
                ip: BROKER_IP,
                keys: broker_keys.clone(),
                ca: ca.public_key(),
                // A faster service time than the Fig. 7 calibration: the
                // broker here models only the authorization work.
                proc_delay: SimDuration::from_millis(2),
                epsilon: 0.01,
                session_retention: SimDuration::from_secs(86_400),
            },
            rng.fork(),
        );
        let mut brokers = HashMap::new();
        brokers.insert(
            "broker.example".to_string(),
            BrokerContact {
                ctrl_ip: BROKER_IP,
                encrypt_pk: broker_keys.encrypt.public_key(),
            },
        );
        let telco = BTelcoGateway::new(
            agw_node,
            BTelcoGatewayConfig {
                sig_ip: AGW_SIG,
                pool_base: Ipv4Addr::new(10, 1, 0, 0),
                keys: telco_keys,
                ca: ca.public_key(),
                brokers,
                qos_cap: QosCap {
                    max_mbr_bps: 100_000_000,
                    qci_supported: vec![9],
                    li_capable: true,
                },
                proc_delay: SimDuration::from_micros(500),
                report_interval: SimDuration::from_secs(3_600),
                overcount_factor: 1.0,
            },
            rng.fork(),
        );
        let enb = Enb::new(enb_node, SimDuration::from_micros(100));

        // N UEs, each on its own node with a radio link to the shared eNB.
        let mut ues: Vec<UeDevice> = Vec::with_capacity(n);
        for i in 0..n {
            let ue_sig = Ipv4Addr::new(169, 254, (i / 250) as u8 + 1, (i % 250) as u8 + 1);
            let ue_node = t.add_node(&format!("ue{i}"));
            let radio = t.add_symmetric_link(
                ue_node,
                enb_node,
                LinkConfig::delay_only(SimDuration::from_millis(4)),
            );
            t.add_default_route(ue_node, radio);
            t.add_route(enb_node, ue_sig, 32, radio);
            t.add_route(agw_node, ue_sig, 32, back);

            let keys = UeKeys::generate(&mut rng);
            let (sign_pk, encrypt_pk) = keys.public();
            brokerd.provision(keys.identity(), sign_pk, encrypt_pk, 50_000_000);
            ues.push(UeDevice::new(
                ue_node,
                UeDeviceConfig {
                    ue_sig,
                    keys,
                    broker_name: "broker.example".to_string(),
                    broker_sign_pk: broker_keys.sign.verifying_key(),
                    broker_encrypt_pk: broker_keys.encrypt.public_key(),
                    brokers: vec![BrokerReplica {
                        name: "broker.example".to_string(),
                        ctrl_ip: BROKER_IP,
                        rtt: SimDuration::ZERO,
                    }],
                    proc_delay: SimDuration::from_millis(1),
                    verify_delay: SimDuration::from_millis(1),
                    report_interval: SimDuration::from_secs(3_600),
                    attach_retry_after: if patient {
                        SimDuration::from_secs(600)
                    } else {
                        SimDuration::from_secs(2)
                    },
                    attach_max_tries: 3,
                    recovery: cellbricks_core::ue::RecoveryConfig::default(),
                },
                rng.fork(),
            ));
        }

        let ticker = Ticker {
            node: tick_a,
            dst: TICK_B_IP,
            next: SimTime::from_secs(u64::MAX / 2),
            stop: SimTime::from_secs(u64::MAX / 2),
            interval: SimDuration::from_micros(100),
        };
        let sink = Sink {
            node: tick_b,
            received: 0,
        };

        Self {
            world: NetWorld::new(t, rng.fork()),
            enb,
            telco,
            brokerd,
            ues,
            ticker,
            sink,
        }
    }

    /// Drive everything to `until` on `driver`.
    fn run_to(&mut self, driver: &mut Driver, until: SimTime) {
        let mut endpoints: Vec<&mut dyn Endpoint> = Vec::with_capacity(self.ues.len() + 5);
        endpoints.push(&mut self.enb);
        endpoints.push(&mut self.telco);
        endpoints.push(&mut self.brokerd);
        endpoints.push(&mut self.ticker);
        endpoints.push(&mut self.sink);
        for ue in &mut self.ues {
            endpoints.push(ue);
        }
        driver.run_to(&mut self.world, &mut endpoints, until);
    }
}

/// Total scheduler events dispatched so far (arrivals + polls).
fn sched_events() -> u64 {
    telemetry::counter("sim.scheduler.events.arrival").get()
        + telemetry::counter("sim.scheduler.events.poll").get()
}

fn run_scale(n: usize, seed: u64) -> ScaleResult {
    let mut sw = ScaleWorld::build(n, seed, false);
    // Everyone attaches at once (a cell powering up / a stadium emptying).
    for ue in &mut sw.ues {
        ue.start_attach(SimTime::ZERO, "tower-1.example", AGW_SIG);
    }
    let mut driver = Driver::new();
    let t0 = std::time::Instant::now();
    sw.run_to(&mut driver, SimTime::from_secs(60));
    let wall = t0.elapsed();

    let latencies: Vec<f64> = sw
        .ues
        .iter()
        .filter(|u| u.attach_latency_ms.count() > 0)
        .map(|u| u.attach_latency_ms.mean())
        .collect();
    let attached = sw.ues.iter().filter(|u| u.is_attached()).count();
    let max_ms = latencies.iter().cloned().fold(0.0, f64::max);
    let auths_per_sec_wall = attached as f64 / wall.as_secs_f64().max(1e-9);
    telemetry::gauge(format!("exp_scale.attach.n{n}.auths_per_sec_wall"))
        .set(auths_per_sec_wall as i64);
    ScaleResult {
        n,
        attached,
        mean_ms: latencies.iter().sum::<f64>() / latencies.len().max(1) as f64,
        p95_ms: percentile(&latencies, 95.0),
        max_ms,
        // The burst completes when the slowest attach finishes.
        auths_per_sec: attached as f64 / (max_ms / 1e3),
        auths_per_sec_wall,
    }
}

fn events_per_sec(events: u64, wall: std::time::Duration) -> f64 {
    events as f64 / wall.as_secs_f64().max(1e-9)
}

fn run_engine_sweep(n: usize, seed: u64) -> EngineResult {
    let mut sw = ScaleWorld::build(n, seed, true);
    for ue in &mut sw.ues {
        ue.start_attach(SimTime::ZERO, "tower-1.example", AGW_SIG);
    }
    let mut driver = Driver::new();

    // Phase A: the attach burst (heavy per-event work — real SAP crypto).
    let ev0 = sched_events();
    let alloc0 = cellbricks_bench::alloc_count::Phase::start();
    let t0 = std::time::Instant::now();
    sw.run_to(&mut driver, SimTime::from_secs(60));
    let attach_wall = t0.elapsed();
    alloc0.export(&format!("exp_scale.attach.n{n}"));
    let attach_events = sched_events() - ev0;
    let attached = sw.ues.iter().filter(|u| u.is_attached()).count();
    assert_eq!(attached, n, "all UEs must attach in the engine sweep");

    // Phase B: steady state — N idle UEs, one 100 µs busy flow.
    // Measured best-of-6: six identical 10 s windows, keeping the
    // fastest — wall-clock interference on a shared box only ever slows
    // a window down, so the max estimates the machine's true rate (the
    // same protocol ci.sh applies across whole runs). Event and alloc
    // counts are deterministic and identical per window; the gauges
    // carry the last window's.
    sw.ticker.next = SimTime::from_secs(60);
    sw.ticker.stop = SimTime::from_secs(120);
    let mut engine_eps = 0.0_f64;
    let mut engine_events = 0;
    let mut engine_allocs = 0;
    for window in 0..6_u64 {
        let ev1 = sched_events();
        let alloc1 = cellbricks_bench::alloc_count::Phase::start();
        let t1 = std::time::Instant::now();
        sw.run_to(&mut driver, SimTime::from_secs(70 + 10 * window));
        let engine_wall = t1.elapsed();
        (engine_allocs, _) = alloc1.export(&format!("exp_scale.engine.n{n}"));
        engine_events = sched_events() - ev1;
        engine_eps = engine_eps.max(events_per_sec(engine_events, engine_wall));
    }

    let attach_eps = events_per_sec(attach_events, attach_wall);
    telemetry::gauge(format!("exp_scale.attach.n{n}.events_per_sec")).set(attach_eps as i64);
    telemetry::gauge(format!("exp_scale.engine.n{n}.events_per_sec")).set(engine_eps as i64);
    EngineResult {
        n,
        attach_events_per_sec: attach_eps,
        engine_events_per_sec: engine_eps,
        engine_allocs_per_event: engine_allocs as f64 / engine_events.max(1) as f64,
        ticks: sw.sink.received,
    }
}

fn print_mega_header() {
    println!();
    println!("Mega — SoA arena UEs, {MEGA_REGIONS} regions");
    println!("{}", "-".repeat(70));
    println!(
        "{:>9} {:>14} {:>10} {:>12} {:>12}",
        "N", "ev/s", "bytes/UE", "sent", "received"
    );
    println!("{}", "-".repeat(70));
}

fn print_mega_row(r: &MegaResult) {
    println!(
        "{:>9} {:>14.0} {:>10.0} {:>12} {:>12}",
        r.n, r.events_per_sec, r.bytes_per_ue, r.sent, r.received
    );
}

fn main() {
    cellbricks_bench::telemetry_init();
    let seed = cellbricks_bench::arg_u64("--seed", 42);
    let smoke = std::env::args().any(|a| a == "--smoke");

    // `--engine-only N` / `--mega-only N`: one row of one table (CI's
    // best-of-N floor protocol re-runs these to take the fastest of
    // several attempts).
    let engine_only = cellbricks_bench::arg_u64("--engine-only", 0) as usize;
    if engine_only > 0 {
        let r = run_engine_sweep(engine_only, seed);
        println!(
            "engine n{}: steady-state {:.0} ev/s ({:.3} alloc/ev)",
            r.n, r.engine_events_per_sec, r.engine_allocs_per_event
        );
        cellbricks_bench::telemetry_finish("exp_scale");
        return;
    }
    let mega_only = cellbricks_bench::arg_u64("--mega-only", 0) as usize;
    if mega_only > 0 {
        print_mega_header();
        let r = run_mega(mega_only, seed, SimDuration::from_secs(3));
        print_mega_row(&r);
        println!("{}", "-".repeat(70));
        cellbricks_bench::telemetry_finish("exp_scale");
        return;
    }

    println!("Scale — N UEs attaching simultaneously through one bTelco + broker");
    println!("{}", "-".repeat(86));
    println!(
        "{:>6} {:>9} {:>12} {:>12} {:>12} {:>12} {:>14}",
        "N", "attached", "mean (ms)", "p95 (ms)", "max (ms)", "auth/s", "auth/s (wall)"
    );
    println!("{}", "-".repeat(86));
    let table_ns: &[usize] = if smoke {
        &[1, 5, 25]
    } else {
        &[1, 5, 25, 100, 250]
    };
    for &n in table_ns {
        let r = run_scale(n, seed);
        println!(
            "{:>6} {:>9} {:>12.1} {:>12.1} {:>12.1} {:>12.0} {:>14.0}",
            r.n, r.attached, r.mean_ms, r.p95_ms, r.max_ms, r.auths_per_sec, r.auths_per_sec_wall
        );
        assert_eq!(r.attached, r.n, "all UEs must attach");
    }
    println!("{}", "-".repeat(86));
    println!(
        "reading: every UE attaches; latency grows linearly once the burst\n\
         saturates the broker's single service queue (~2 ms/authorization\n\
         here), i.e. the broker — an ordinary web service — is the scaling\n\
         bottleneck, exactly the architecture's intent (paper §3: brokers\n\
         need no cellular infrastructure and shard like any online service).\n\
         auth/s (wall) is the host-side rate of the same burst — the real\n\
         Ed25519/sealed-box bill, dominated by the broker's batched SAP\n\
         verify — as opposed to auth/s, which is paced by simulated delays."
    );

    println!();
    println!("Engine — scheduler events/sec vs endpoint count");
    println!("{}", "-".repeat(72));
    println!(
        "{:>6} {:>20} {:>20} {:>10} {:>10}",
        "N", "attach-burst (ev/s)", "steady-state (ev/s)", "alloc/ev", "ticks"
    );
    println!("{}", "-".repeat(72));
    let sweep_ns: &[usize] = if smoke {
        &[100, 1_000]
    } else {
        &[100, 1_000, 10_000]
    };
    for &n in sweep_ns {
        let r = run_engine_sweep(n, seed);
        println!(
            "{:>6} {:>20.0} {:>20.0} {:>10.3} {:>10}",
            r.n,
            r.attach_events_per_sec,
            r.engine_events_per_sec,
            r.engine_allocs_per_event,
            r.ticks
        );
    }
    println!("{}", "-".repeat(72));
    println!(
        "reading: steady-state events/sec is the pure engine rate — N idle\n\
         UEs on hour-long report timers plus one 100 µs flow — so it falls\n\
         off a cliff if waking an endpoint costs a scan of all N."
    );

    print_mega_header();
    let mega_ns: &[usize] = if smoke {
        &[10_000]
    } else {
        &[100_000, 1_000_000]
    };
    let mega_dur = SimDuration::from_secs(if smoke { 3 } else { 10 });
    for &n in mega_ns {
        let r = run_mega(n, seed, mega_dur);
        print_mega_row(&r);
    }
    println!("{}", "-".repeat(70));
    println!(
        "reading: a mega UE is a timer and a destination in a dense SoA\n\
         arena — the per-UE attach machinery is measured above; this row\n\
         measures whether the *engine* (arrival FIFOs, timing wheel, dense\n\
         node map) sustains a million endpoints. bytes/UE is the\n\
         allocator bill of building the world, divided by N."
    );
    cellbricks_bench::telemetry_finish("exp_scale");
}
