//! `sim_scale`: the `exp_scale` mega world, rebuilt here from public API
//! only (`Topology`, `NetWorld`, `Router`, `Driver::run_to`,
//! `sim::Arena`) and driven continuously in 100 ms-simulated slices.
//!
//! Eight regions (gateway router + sink each) hang off a hub; N
//! lightweight UEs tick once per N µs each — about one million simulated
//! packets per second fleet-wide at any N — and every 16th UE targets the
//! next region's sink, so the inter-region fabric carries steady traffic.
//! No crypto and no transport run here: the time goes to `sim::wheel`,
//! `net::engine` and `net::world`/`link`. Two sizes share each run in
//! alternating blocks so that drift on the box hits both alike: N = 10k
//! (≈ 15 MB) prices the per-event CPU cost and carries both headline
//! numbers; N = 100k (≈ 120 MB) is memory-bound and reported per layer.

use crate::stats;
use crate::trace::Tracer;
use crate::{Budget, Headline};
use bytes::Bytes;
use cellbricks_bench::alloc_count;
use cellbricks_net::{Driver, Endpoint, LinkConfig, NetWorld, NodeId, Packet, Router, Topology};
use cellbricks_sim::{Arena, SimDuration, SimRng, SimTime};
use cellbricks_telemetry as telemetry;
use std::net::Ipv4Addr;
use std::time::Instant;

/// Regions in the mega topology.
const REGIONS: u32 = 8;
/// Source address every UE stamps (routing ignores it).
const UE_SRC: Ipv4Addr = Ipv4Addr::new(172, 20, 0, 1);
/// One measured slice of simulated time.
pub const SLICE: SimDuration = SimDuration::from_millis(100);
/// Slices per block (blocks of the two sizes alternate).
pub const BLOCK_SLICES: usize = 5;
/// The two world sizes.
pub const SIZES: [usize; 2] = [10_000, 100_000];

fn sink_ip(region: u32) -> Ipv4Addr {
    Ipv4Addr::new(10, region as u8, 0, 1)
}

/// A mega-scale UE: a timer and a destination, nothing else.
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
            out.push(Packet::control(UE_SRC, self.dst, Bytes::from_static(b"m")));
            self.next += self.interval;
            self.sent += 1;
        }
    }
}

/// Counts receptions, never wakes itself.
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

/// One wall-timed slice.
#[derive(Clone, Copy, Debug)]
pub struct Slice {
    /// Scheduler events dispatched (arrivals + polls).
    pub events: u64,
    /// Wall time, seconds.
    pub wall_s: f64,
    /// Allocator calls.
    pub allocs: u64,
}

/// A built mega world and its engine.
pub struct World {
    world: NetWorld,
    hub: Router,
    gws: Vec<Router>,
    sinks: Vec<Sink>,
    ues: Arena<MegaUe>,
    driver: Driver,
    now: SimTime,
    /// Bytes requested from the allocator while building, ÷ N.
    pub bytes_per_ue: f64,
}

/// Scheduler events so far, from the telemetry registry (which is why
/// the registry stays enabled — as in every shipped `exp_*` binary).
#[must_use]
pub fn sched_events() -> u64 {
    telemetry::counter("sim.scheduler.events.arrival").get()
        + telemetry::counter("sim.scheduler.events.poll").get()
}

impl World {
    /// Build the world for `n` UEs. Each UE's first tick is drawn from
    /// the seeded RNG inside its period.
    #[must_use]
    pub fn build(n: usize, seed: u64) -> Self {
        let phase = alloc_count::Phase::start();
        let mut rng = SimRng::new(seed ^ n as u64);
        let mut t = Topology::new();
        let hub_node = t.add_node_in_region("hub", 0);
        let hub = Router::new(hub_node, SimDuration::from_micros(1));
        let mut gws = Vec::new();
        let mut sinks = Vec::new();
        let mut gw_nodes = Vec::new();
        for r in 0..REGIONS {
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
            t.add_route(gw_node, sink_ip(r), 32, down);
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
            let r = (i as u32) % REGIONS;
            let ue_node = t.add_node_in_region(&format!("u{i}"), r);
            let radio = t.add_symmetric_link(
                ue_node,
                gw_nodes[r as usize],
                LinkConfig::delay_only(SimDuration::from_micros(500)),
            );
            t.add_default_route(ue_node, radio);
            // Every 16th UE exercises the inter-region fabric.
            let dst_region = if i % 16 == 0 { (r + 1) % REGIONS } else { r };
            ues.push(MegaUe {
                node: ue_node,
                dst: sink_ip(dst_region),
                next: SimTime::ZERO + SimDuration::from_micros(rng.uniform_u64(0, n as u64)),
                stop: SimTime::from_secs(1_000_000),
                interval,
                sent: 0,
            });
        }
        let world = NetWorld::new(t, SimRng::new(seed));
        let (_, bytes) = phase.finish();
        Self {
            world,
            hub,
            gws,
            sinks,
            ues,
            driver: Driver::new(),
            now: SimTime::ZERO,
            bytes_per_ue: bytes as f64 / n as f64,
        }
    }

    fn run_to(&mut self, until: SimTime, slices: Option<&mut Vec<Slice>>) {
        let mut endpoints: Vec<&mut dyn Endpoint> = Vec::with_capacity(self.ues.len() + 17);
        endpoints.push(&mut self.hub);
        for gw in &mut self.gws {
            endpoints.push(gw);
        }
        for sink in &mut self.sinks {
            endpoints.push(sink);
        }
        for ue in self.ues.iter_mut() {
            endpoints.push(ue);
        }
        match slices {
            None => {
                self.driver.run_to(&mut self.world, &mut endpoints, until);
                self.now = until;
            }
            Some(out) => {
                while self.now < until {
                    let next = self.now + SLICE;
                    let ev0 = sched_events();
                    let allocs = alloc_count::Phase::start();
                    let t0 = Instant::now();
                    self.driver.run_to(&mut self.world, &mut endpoints, next);
                    let wall_s = t0.elapsed().as_secs_f64();
                    // Before the registry lookup below, which allocates.
                    let allocs = allocs.finish().0;
                    out.push(Slice {
                        events: sched_events() - ev0,
                        wall_s,
                        allocs,
                    });
                    self.now = next;
                }
            }
        }
    }

    /// Drive one block of [`BLOCK_SLICES`] wall-timed slices.
    pub fn run_block(&mut self, out: &mut Vec<Slice>) {
        let until = self.now + SimDuration::from_millis(100 * BLOCK_SLICES as u64);
        self.run_to(until, Some(out));
    }

    /// Stop every UE and let what is in flight land (longest path: two
    /// 2 ms hub hops plus access links). Returns `(sent, received)`.
    pub fn drain(&mut self) -> (u64, u64) {
        let now = self.now;
        for ue in self.ues.iter_mut() {
            ue.stop = now;
        }
        self.run_to(now + SimDuration::from_millis(20), None);
        let sent = self.ues.iter().map(|u| u.sent).sum();
        let received = self.sinks.iter().map(|s| s.received).sum();
        (sent, received)
    }
}

/// What `sim_scale` measured.
pub struct ScaleData {
    /// Median world-build time per size (N = 10k, 100k), seconds.
    pub build_s: [f64; 2],
    /// Warm-up (first block of each world), seconds.
    pub warmup_s: f64,
    /// Allocator bytes per UE per size.
    pub bytes_per_ue: [f64; 2],
    /// Slices per size, in order.
    pub slices: [Vec<Slice>; 2],
    /// Per block pair: recorded with spans on.
    pub traced: Vec<bool>,
    /// Packets sent / received after the final drain, both worlds.
    pub sent: u64,
    /// See `sent`.
    pub received: u64,
    /// Events in the first measured block of each world, summed:
    /// repeats exactly for a seed however long the run is.
    pub events_first_blocks: u64,
}

impl ScaleData {
    /// The workload's `setup_s`.
    #[must_use]
    pub fn setup_s(&self) -> f64 {
        self.build_s[0] + self.build_s[1] + self.warmup_s
    }

    /// Events/s of each slice of size `k`.
    #[must_use]
    pub fn rates(&self, k: usize) -> Vec<f64> {
        self.slices[k]
            .iter()
            .map(|s| s.events as f64 / s.wall_s.max(1e-9))
            .collect()
    }

    /// Per block of size `k`: the median and the p90 slice wall time, µs.
    #[must_use]
    pub fn block_slice_times_us(&self, k: usize) -> (Vec<f64>, Vec<f64>) {
        self.slices[k]
            .chunks(BLOCK_SLICES)
            .map(|block| {
                let mut t: Vec<f64> = block.iter().map(|s| s.wall_s * 1e6).collect();
                let [p50, p90] = stats::sample_percentiles(&mut t, [0.5, 0.9]);
                (p50, p90)
            })
            .unzip()
    }
}

impl ScaleData {
    /// The headline numbers, both at N = 10k: events/s (p90 across
    /// slices) and the wall time of one 100 ms-simulated slice (quiet
    /// decile across blocks of the block's median and p90). N = 100k is
    /// reported per layer only: it is memory-bound, and on a shared host
    /// its level drifts by a fifth over minutes with the neighbours' use
    /// of the last-level cache, which no estimator inside a run can see
    /// through and no bound can gate.
    #[must_use]
    pub fn headline(&self) -> Headline {
        let rates = self.rates(0);
        let (p50, p90) = self.block_slice_times_us(0);
        let half = |want: bool| -> f64 {
            let picked: Vec<f64> = rates
                .chunks(BLOCK_SLICES)
                .zip(&self.traced)
                .filter(|(_, &t)| t == want)
                .flat_map(|(block, _)| block.iter().copied())
                .collect();
            stats::rate_p90(&picked)
        };
        let (on, off) = (half(true), half(false));
        Headline {
            setup_s: self.setup_s(),
            work_per_s: stats::rate_p90(&rates),
            lat_p50_us: stats::quiet_decile(&p50),
            lat_p90_us: stats::quiet_decile(&p90),
            seg_work: rates,
            seg_p50: p50,
            seg_p90: p90,
            trace_overhead: if on > 0.0 && off > 0.0 {
                1.0 - on / off
            } else {
                0.0
            },
        }
    }
}

/// Build both worlds (`build_repeats` times each, keeping the last and
/// reporting the median build time), warm each with one block, then
/// alternate measured blocks until the budget is spent.
pub fn measure(
    seed: u64,
    budget: Budget,
    build_repeats: usize,
    alternate_tracing: bool,
    deadline: Instant,
    tr: &mut Tracer,
) -> ScaleData {
    let span = tr.begin("world_build");
    let mut build_s = [0.0; 2];
    let mut worlds = Vec::new();
    for (k, &n) in SIZES.iter().enumerate() {
        let mut times = Vec::new();
        let mut kept = None;
        for _ in 0..build_repeats.max(1) {
            drop(kept.take()); // one world of a size resident at a time
            let t = Instant::now();
            kept = Some(World::build(n, seed));
            times.push(t.elapsed().as_secs_f64());
        }
        build_s[k] = stats::seg_median(&times);
        worlds.push(kept.expect("at least one build"));
    }
    tr.end(span);

    // The first block fills the links and grows the wheel and arrival
    // buffers to their steady size: that is set-up, not steady state.
    let span = tr.begin("warmup");
    let t = Instant::now();
    let mut scratch = Vec::new();
    for w in &mut worlds {
        w.run_block(&mut scratch);
    }
    let warmup_s = t.elapsed().as_secs_f64();
    tr.end(span);

    let mut slices = [Vec::new(), Vec::new()];
    let mut traced = Vec::new();
    let mut events_first_blocks = 0;
    let start = Instant::now();
    loop {
        let pairs = traced.len();
        let spent = match budget {
            Budget::Seconds(s) => pairs >= 2 && start.elapsed().as_secs_f64() >= s,
            Budget::Count(k) => pairs >= k,
        };
        if spent || Instant::now() >= deadline {
            break;
        }
        let on = alternate_tracing && pairs % 2 == 1;
        if alternate_tracing {
            tr.set_recording(on);
        }
        let seg = tr.begin("segment");
        for (k, w) in worlds.iter_mut().enumerate() {
            let drive = tr.begin("drive");
            let before = slices[k].len();
            w.run_block(&mut slices[k]);
            if pairs == 0 {
                events_first_blocks += slices[k][before..].iter().map(|s| s.events).sum::<u64>();
            }
            tr.end(drive);
        }
        tr.end(seg);
        traced.push(on);
    }
    if alternate_tracing {
        tr.set_recording(true);
    }

    let check = tr.begin("check");
    let (mut sent, mut received) = (0, 0);
    for w in &mut worlds {
        let (s, r) = w.drain();
        sent += s;
        received += r;
    }
    tr.end(check);
    ScaleData {
        build_s,
        warmup_s,
        bytes_per_ue: [worlds[0].bytes_per_ue, worlds[1].bytes_per_ue],
        slices,
        traced,
        sent,
        received,
        events_first_blocks,
    }
}
