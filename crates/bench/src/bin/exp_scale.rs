//! Scale: a million-endpoint engine run.
//!
//! The paper claims CellBricks "scales to a large number of users under
//! different radio conditions" (§1). The attach half of that claim — N
//! full UEs bursting through one bTelco to one broker — is a figure
//! (`repro --figure scale`, replayed byte for byte by the tests). This
//! binary is the other half, **mega**: N ∈ {100k, 1M} lightweight UEs in
//! an [`Arena`] over 8 regional gateways — whether the one sequential
//! engine carries a million endpoints, and what each costs in allocator
//! bytes.
//!
//! How fast the host runs it is `perfbench`'s question (`BENCHMARK.json`:
//! `sim_scale` runs the mega world); the mega row's ev/s is a single
//! wall-clock reading.
//! Gauges land in `results/exp_scale.metrics.json`:
//! `exp_scale.mega.n<N>.events_per_sec`, `.bytes_per_ue`, and per-phase
//! allocator pressure (`….build.alloc.count` / `….run.alloc.bytes` —
//! see [`cellbricks_bench::alloc_count`]).
//!
//! Usage: `cargo run --release -p cellbricks-bench --bin exp_scale
//!         [--seed S] [--smoke]`

use bytes::Bytes;
use cellbricks_net::{Driver, Endpoint, LinkConfig, NetWorld, NodeId, Packet, Router, Topology};
use cellbricks_sim::{Arena, SimDuration, SimRng, SimTime};
use cellbricks_telemetry as telemetry;
use std::net::Ipv4Addr;

/// A region's sink: counts the ticks it receives, never wakes itself.
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
/// `UeDevice` carries keys, SAP state and a host stack (hundreds of
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

/// Run the mega world of `n` UEs for `duration` and print its row.
fn run_mega(n: usize, seed: u64, duration: SimDuration) {
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
    let eps = events as f64 / wall.as_secs_f64().max(1e-9);
    telemetry::gauge(format!("exp_scale.mega.n{n}.events_per_sec")).set(eps as i64);

    let sent: u64 = mw.ues.iter().map(|u| u.sent).sum();
    let received: u64 = mw.sinks.iter().map(|s| s.received).sum();
    assert!(
        received * 100 >= sent * 99,
        "mega ticks lost: sent {sent}, received {received}"
    );
    println!("{n:>9} {eps:>14.0} {bytes_per_ue:>10.0} {sent:>12} {received:>12}");
}

/// Total scheduler events dispatched so far (arrivals + polls).
fn sched_events() -> u64 {
    telemetry::counter("sim.scheduler.events.arrival").get()
        + telemetry::counter("sim.scheduler.events.poll").get()
}

fn main() {
    cellbricks_bench::telemetry_init();
    let seed = cellbricks_bench::arg_u64("--seed", 42);
    let smoke = std::env::args().any(|a| a == "--smoke");

    println!("Mega — SoA arena UEs, {MEGA_REGIONS} regions");
    println!("{}", "-".repeat(70));
    println!(
        "{:>9} {:>14} {:>10} {:>12} {:>12}",
        "N", "ev/s", "bytes/UE", "sent", "received"
    );
    println!("{}", "-".repeat(70));
    let mega_ns: &[usize] = if smoke {
        &[10_000]
    } else {
        &[100_000, 1_000_000]
    };
    let mega_dur = SimDuration::from_secs(if smoke { 3 } else { 10 });
    for &n in mega_ns {
        run_mega(n, seed, mega_dur);
    }
    println!("{}", "-".repeat(70));
    println!(
        "reading: a mega UE is a timer and a destination in a dense SoA\n\
         arena — the per-UE attach machinery is `repro --figure scale`'s;\n\
         this row measures whether the *engine* (arrival FIFOs, timing\n\
         wheel, dense node map) sustains a million endpoints. bytes/UE is\n\
         the allocator bill of building the world, divided by N; ev/s is one\n\
         wall-clock reading (perfbench's sim_scale is the measurement)."
    );
    cellbricks_bench::telemetry_finish("exp_scale");
}
