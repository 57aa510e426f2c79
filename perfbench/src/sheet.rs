//! The layer sheet of a traced run: every per-layer metric, measured.
//!
//! After its own workload a traced run fills the sheet from two kinds
//! of source:
//!
//! * **Live groups** are read off measured traffic: the serve loop's
//!   batches and the `crypto::precomp` counters, the open loop's latency
//!   tail and generator lateness, the engine's events, the figure
//!   families. A group is read off the run's own workload when that
//!   workload exercises the layer, and otherwise off a short stand-in of
//!   the workload that does (two segments, one block pair, one pass), so
//!   that every name is measured on every traced run. Read a layer's
//!   live numbers on the workload that exercises it.
//! * **Probes** are fixed micro-workloads on one layer through its
//!   public functions — the same procedure on every run. The caches in
//!   `crypto::precomp` are process-global statics, so probes run after
//!   the workload-shaped part and say which cache state they mean:
//!   *hot* is a key seen at least 64 times, *cold* a key never seen.

use crate::figures::{self, Family, FigData};
use crate::report::{Values, PER_LAYER};
use crate::scale::{self, ScaleData, BLOCK_SLICES};
use crate::stages::{self, build_frame};
use crate::stats;
use crate::trace::{totals_by_name, Tracer};
use crate::wire::{self, hit_share, Pace, WireData, WireSpec};
use crate::{Args, Budget};
use cellbricks_apps::emulation::Workload as App;
use cellbricks_bench::alloc_count;
use cellbricks_core::broker_server::{population, Population};
use cellbricks_core::principal::UeKeys;
use cellbricks_core::BrokerServer;
use cellbricks_crypto::ed25519::{verify_batch, BatchItem, SigningKey};
use cellbricks_crypto::sealed::{open, open_batch, seal};
use cellbricks_crypto::x25519::X25519SecretKey;
use cellbricks_net::wire::{frame, unframe};
use cellbricks_net::{LinkConfig, NetWorld, Packet, Topology};
use cellbricks_sim::wheel::TimerWheel;
use cellbricks_sim::{SimDuration, SimRng, SimTime};
use cellbricks_telemetry as telemetry;
use cellbricks_telemetry::json::JsonWriter;
use std::hint::black_box;
use std::net::Ipv4Addr;
use std::time::Instant;

/// What the run's own workload measured.
pub enum Own {
    /// `wire_sat` or `wire_paced` (its `spec.pace` says which).
    Wire(Box<WireData>),
    /// `sim_scale`.
    Scale(Box<ScaleData>),
    /// `sim_figures`.
    Figures(Box<FigData>),
}

/// A short stand-in for `wire_sat`: the same code paths on a fixture
/// small enough to set up in about a second.
const MINI_SAT: WireSpec = WireSpec {
    population: 2048,
    warm_sightings: 8,
    warm_turnover: false,
    ..wire::SAT
};

/// Strict ping-pong over 32 hot UEs: one request per batch, every cache
/// hit — the bare round trip through the sockets and the serve loop.
const PINGPONG: WireSpec = WireSpec {
    population: 32,
    hot: 32,
    uniform_half: false,
    socks: 1,
    pace: Pace::Closed { window: 1 },
    seg_len: 1024,
    warm_sightings: 64,
    warm_turnover: false,
};

/// Median over `reps` timings of `iters` calls, ns per call.
fn median_ns<T>(reps: usize, iters: usize, mut f: impl FnMut() -> T) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            t.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    stats::seg_median(&times)
}

// ----- live groups -----

/// The serve loop and the caches under it, over a wire workload's drives.
fn server_values(d: &WireData, v: &mut Values) {
    let served: u64 = d.segments.iter().map(|s| s.acct.ok).sum();
    v.insert("crypto.keycache.hit_share", hit_share(d.caches.key));
    v.insert("crypto.dhcache.hit_share", hit_share(d.caches.dh));
    v.insert("crypto.sigmemo.hit_share", hit_share(d.caches.sig));
    v.insert(
        "crypto.dhcache.built_per_kauth",
        d.caches.dh_built as f64 * 1000.0 / served.max(1) as f64,
    );
    v.insert("crypto.dhcache.promote", d.caches.dh_promoted as f64);
    v.insert("core.broker_server.batch_size_p50", d.serve.batch_size.0);
    v.insert("core.broker_server.batch_size_p99", d.serve.batch_size.1);
    v.insert(
        "core.broker_server.batch_wait_p50_ns",
        d.serve.batch_wait_ns.0,
    );
    v.insert(
        "core.broker_server.batch_wait_p99_ns",
        d.serve.batch_wait_ns.1,
    );
    v.insert("core.broker_server.window_ns", d.serve.window_ns);
    v.insert("core.broker_server.batches", d.serve.batches as f64);
    v.insert("core.broker_server.auth_errs", d.counters.auth_errs as f64);
    v.insert(
        "core.broker_server.bad_frames",
        d.counters.bad_frames as f64,
    );
}

/// The open loop's latency tail and the generator's own lateness.
fn open_loop_values(d: &WireData, v: &mut Values) {
    let mut lat: Vec<f64> = d
        .segments
        .iter()
        .flat_map(|s| s.acct.lat_us.clone())
        .collect();
    let mut late: Vec<f64> = d
        .segments
        .iter()
        .flat_map(|s| s.acct.late_us.clone())
        .collect();
    let [p99, p999, max] = stats::sample_percentiles(&mut lat, [0.99, 0.999, 1.0]);
    let [late_p99, late_max] = stats::sample_percentiles(&mut late, [0.99, 1.0]);
    v.insert("net.wire.lat_p99_us", p99);
    v.insert("net.wire.lat_p999_us", p999);
    v.insert("net.wire.lat_max_us", max);
    v.insert("net.wire.lat_samples", lat.len() as f64);
    v.insert("loadgen.late_p99_us", late_p99);
    v.insert("loadgen.late_max_us", late_max);
    let shares: Vec<f64> = d
        .segments
        .iter()
        .map(|s| s.acct.within_limit_share())
        .collect();
    v.insert("loadgen.within_limit_share", stats::share_p75(&shares));
}

/// The engine over the mega world's slices.
fn engine_values(d: &ScaleData, v: &mut Values) {
    let (r10, r100) = (stats::rate_p90(&d.rates(0)), stats::rate_p90(&d.rates(1)));
    v.insert("sim.events_per_s_n10k", r10);
    v.insert("sim.events_per_s_n100k", r100);
    v.insert("net.engine.ns_per_event_n10k", 1e9 / r10.max(1e-9));
    v.insert("net.engine.ns_per_event_n100k", 1e9 / r100.max(1e-9));
    let all = d.slices[0].iter().chain(&d.slices[1]);
    let (events, allocs, slices) = all.fold((0u64, 0u64, 0u64), |(e, a, n), s| {
        (e + s.events, a + s.allocs, n + 1)
    });
    // One million simulated packets a second: 100 000 per slice at any N.
    let packets = slices * 100_000;
    v.insert(
        "net.engine.events_per_pkt",
        events as f64 / packets.max(1) as f64,
    );
    v.insert(
        "net.engine.allocs_per_event",
        allocs as f64 / events.max(1) as f64,
    );
    v.insert("net.world.build_s_n100k", d.build_s[1]);
    v.insert("net.world.bytes_per_ue_n100k", d.bytes_per_ue[1]);
    v.insert("sim.events_total", d.events_first_blocks as f64);
}

/// The figure families and the table1 apps.
fn figure_values(d: &FigData, v: &mut Values) {
    let family = |f: Family| d.part_s(|c| c.family == f);
    let app = |a: App| d.part_s(|c| c.app == Some(a));
    v.insert("sim.figures.pass_s", d.pass_s());
    v.insert("apps.table1_s", family(Family::Table1));
    v.insert("apps.fig8_s", family(Family::Fig8));
    v.insert("apps.fig9_s", family(Family::Fig9));
    v.insert("apps.fig10_s", family(Family::Fig10));
    v.insert("transport.cc_s", family(Family::Cc));
    v.insert("core.attach_bench.fig7_s", family(Family::Fig7));
    v.insert("apps.iperf_cells_s", app(App::Iperf));
    v.insert("apps.ping_cells_s", app(App::Ping));
    v.insert("apps.voip_cells_s", app(App::Voip));
    v.insert("apps.video_cells_s", app(App::Video));
    v.insert("apps.web_cells_s", app(App::Web));
    v.insert(
        "sim.figures.events_per_s",
        d.events_pass1 as f64 / d.pass_s().max(1e-9),
    );
    v.insert("sim.figures.events_total", d.events_pass1 as f64);
}

// ----- probes -----

fn crypto_probes(seed: u64, v: &mut Values) {
    let mut rng = SimRng::new(seed ^ 0x6372_7970);
    let msg = [0x5au8; 200];

    let sk = SigningKey::generate(&mut rng);
    let vk = sk.verifying_key();
    let sig = sk.sign(&msg);
    v.insert("crypto.sign_ns", median_ns(9, 64, || sk.sign(&msg)));
    v.insert(
        "crypto.verify_ns",
        median_ns(9, 64, || vk.verify(&msg, &sig)),
    );

    // 96 signatures shaped like a 32-request batch: per request one by
    // the CA, one by the bTelco (both keys repeat) and one by its own UE.
    // Every repetition verifies fresh signatures — the signature memo
    // would answer a repeated batch without any curve work.
    let (ca, telco) = (
        SigningKey::generate(&mut rng),
        SigningKey::generate(&mut rng),
    );
    let ues: Vec<SigningKey> = (0..32).map(|_| SigningKey::generate(&mut rng)).collect();
    let mut round = 0u8;
    let times: Vec<f64> = (0..9)
        .map(|_| {
            round += 1;
            let msg = [round; 200];
            let signed: Vec<_> = ues
                .iter()
                .flat_map(|ue| [&ca, &telco, ue])
                .map(|k| (k.sign(&msg), k.verifying_key()))
                .collect();
            let items: Vec<BatchItem<'_>> = signed
                .iter()
                .map(|(sig, key)| BatchItem {
                    msg: &msg,
                    sig: *sig,
                    key: *key,
                })
                .collect();
            let t = Instant::now();
            black_box(verify_batch(&items));
            t.elapsed().as_nanos() as f64 / 96.0
        })
        .collect();
    v.insert(
        "crypto.verify_batch96_ns_per_sig",
        stats::seg_median(&times),
    );

    // Sealed boxes: a box's ephemeral key is one-shot, so every open is
    // cold by construction; a seal is cold to a recipient never seen and
    // hot once the recipient sits in the DH cache's radix-256 tier.
    let recipient = X25519SecretKey::generate(&mut rng);
    let recipient_pk = recipient.public_key();
    let boxes: Vec<_> = (0..32)
        .map(|_| seal(&mut rng, &recipient_pk, &msg[..88]))
        .collect();
    let mut i = 0;
    v.insert(
        "crypto.open_cold_ns",
        median_ns(9, 16, || {
            i = (i + 1) % boxes.len();
            open(&recipient, &boxes[i])
        }),
    );
    let refs: Vec<_> = boxes.iter().collect();
    v.insert(
        "crypto.open_batch32_ns_per_item",
        median_ns(9, 2, || open_batch(&recipient, &refs)) / 32.0,
    );
    v.insert(
        "crypto.seal_cold_ns",
        median_ns(9, 8, || {
            let fresh = X25519SecretKey::generate(&mut rng).public_key();
            seal(&mut rng, &fresh, &msg[..88])
        }),
    );
    for _ in 0..64 {
        black_box(seal(&mut rng, &recipient_pk, &msg[..88])); // into the hot tier
    }
    v.insert(
        "crypto.seal_hot_ns",
        median_ns(9, 32, || seal(&mut rng, &recipient_pk, &msg[..88])),
    );
    v.insert(
        "crypto.keygen_ue_ns",
        median_ns(9, 16, || UeKeys::generate(&mut rng)),
    );
}

/// An in-process `BrokerServer` with hot and cold subscribers, and the
/// stage replay's view of the same broker.
struct InProcess {
    pop: Population,
    server: BrokerServer,
    broker: stages::Broker,
    rng: SimRng,
    next_id: u64,
    out: Vec<(usize, Vec<u8>)>,
}

impl InProcess {
    fn new(seed: u64) -> Self {
        // The ping-pong probe ran first over the same 32 keys, so they
        // are already hot in the process-global caches.
        let pop = population(seed, PINGPONG.population);
        Self {
            server: pop.server(SimRng::new(seed ^ 0x696e_7072)),
            broker: stages::Broker::of(&pop),
            pop,
            rng: SimRng::new(seed ^ 0x7368_6565),
            next_id: 1 << 40,
            out: Vec::new(),
        }
    }

    /// `hot` requests from distinct hot UEs followed by `cold` requests
    /// from subscribers generated (and provisioned) just now.
    fn batch(&mut self, hot: usize, cold: usize) -> Vec<Vec<u8>> {
        let mut frames = Vec::with_capacity(hot + cold);
        for i in 0..hot + cold {
            let fresh;
            let ue = if i < hot {
                &self.pop.ues[i % self.pop.ues.len()]
            } else {
                fresh = UeKeys::generate(&mut self.rng);
                let (sign_pk, encrypt_pk) = fresh.public();
                self.server
                    .provision(fresh.identity(), sign_pk, encrypt_pk, 50_000_000);
                self.broker.subscribe(&fresh);
                &fresh
            };
            self.next_id += 1;
            frames.push(build_frame(ue, &self.pop, self.next_id, &mut self.rng).0);
        }
        frames
    }

    /// `process_batch` over `frames`: wall ns and replies produced.
    fn process(&mut self, frames: &[Vec<u8>]) -> (f64, usize) {
        let dgrams: Vec<(usize, &[u8])> = frames.iter().map(|f| (0, f.as_slice())).collect();
        self.out.clear();
        let t = Instant::now();
        self.server.process_batch(&dgrams, &mut self.out);
        (t.elapsed().as_nanos() as f64, self.out.len())
    }

    /// Median ns per auth of `process_batch` over batches of `hot` +
    /// `cold` requests, `per_rep` batches a repetition.
    fn ns_per_auth(&mut self, hot: usize, cold: usize, per_rep: usize, ok: &mut bool) -> f64 {
        let times: Vec<f64> = (0..7)
            .map(|_| {
                let mut ns = 0.0;
                for _ in 0..per_rep {
                    let frames = self.batch(hot, cold);
                    let (t, replies) = self.process(&frames);
                    *ok &= replies == frames.len();
                    ns += t;
                }
                ns / (per_rep * (hot + cold)) as f64
            })
            .collect();
        stats::seg_median(&times)
    }
}

fn broker_probes(seed: u64, tr: &mut Tracer, v: &mut Values) -> bool {
    let mut ok = true;
    let mut ip = InProcess::new(seed);
    for _ in 0..2 {
        let frames = ip.batch(32, 0);
        ok &= ip.process(&frames).1 == 32;
    }

    v.insert(
        "core.broker_server.b1_hot_ns_per_auth",
        ip.ns_per_auth(1, 0, 16, &mut ok),
    );
    v.insert(
        "core.broker_server.b32_hot_ns_per_auth",
        ip.ns_per_auth(32, 0, 1, &mut ok),
    );
    v.insert(
        "core.broker_server.b1_cold_ns_per_auth",
        ip.ns_per_auth(0, 1, 8, &mut ok),
    );
    v.insert(
        "core.broker_server.b32_cold_ns_per_auth",
        ip.ns_per_auth(0, 32, 1, &mut ok),
    );

    // The stage budget and the closure check, on the saturated mix: half
    // the batch commuters, half subscribers the caches have never seen.
    // Stage calls and process_batch alternate on fresh batches of the
    // same mix; what process_batch spends beyond the stages is the
    // unaccounted share.
    let mut stage_sets = Vec::new();
    let mut whole = Vec::new();
    for _ in 0..7 {
        let frames = ip.batch(16, 16);
        match stages::replay(&ip.broker, &frames, &mut ip.rng, tr) {
            Some(ns) => stage_sets.push(ns),
            None => ok = false,
        }
        let frames = ip.batch(16, 16);
        let (ns, replies) = ip.process(&frames);
        ok &= replies == 32;
        whole.push(ns);
    }
    let stage = |pick: fn(&stages::StageNs) -> u64| -> f64 {
        stats::seg_median(
            &stage_sets
                .iter()
                .map(|s| pick(s) as f64)
                .collect::<Vec<_>>(),
        ) / 32.0
    };
    v.insert("core.sap.decode_ns", stage(|s| s.decode));
    v.insert("core.sap.pre_open_ns", stage(|s| s.pre_open));
    v.insert("core.sap.open_ns", stage(|s| s.open));
    v.insert("core.sap.post_open_ns", stage(|s| s.post_open));
    v.insert("core.sap.verify_ns", stage(|s| s.verify));
    v.insert("core.sap.grant_ns", stage(|s| s.grant));
    v.insert("core.sap.encode_ns", stage(|s| s.encode));
    let staged = stage(|s| s.sum());
    let processed = stats::seg_median(&whole) / 32.0;
    v.insert(
        "core.broker_server.unaccounted_share",
        1.0 - staged / processed.max(1e-9),
    );
    v.insert(
        "core.sap.build_request_ns",
        median_ns(7, 32, || ip.batch(1, 0)),
    );

    // Allocator calls per auth: exact, nothing else is running.
    let frames = ip.batch(32, 0);
    let phase = alloc_count::Phase::start();
    ok &= ip.process(&frames).1 == 32;
    v.insert(
        "core.broker_server.allocs_per_auth",
        phase.finish().0 as f64 / 32.0,
    );

    // One frame in eight hostile — truncated, a flipped signature bit, a
    // replay — so the pooled verify fails and the batch takes the
    // per-request fallback path.
    let replayed = ip.batch(1, 0).remove(0);
    ok &= ip.process(std::slice::from_ref(&replayed)).1 == 1;
    let times: Vec<f64> = (0..7)
        .map(|_| {
            let mut frames = ip.batch(32, 0);
            let cut = frames[0].len() / 2;
            frames[0].truncate(cut);
            let last = frames[8].len() - 1;
            frames[8][last] ^= 0x01;
            frames[16] = replayed.clone();
            frames[24].truncate(3);
            ip.process(&frames).0 / 32.0
        })
        .collect();
    v.insert(
        "core.broker_server.hostile_b32_ns_per_frame",
        stats::seg_median(&times),
    );

    // The registry's cost on the wire path: the same hot batches with
    // recording off and on.
    let timed = |on: bool, ip: &mut InProcess| {
        if on {
            telemetry::enable();
        } else {
            telemetry::disable();
        }
        (0..3)
            .map(|_| {
                let frames = ip.batch(32, 0);
                ip.process(&frames).0
            })
            .sum::<f64>()
    };
    let (mut off, mut on) = (Vec::new(), Vec::new());
    for pair in 0..8 {
        // Alternate which goes first, so neither side always runs on the
        // caches the other just warmed.
        for flag in [pair % 2 == 0, pair % 2 != 0] {
            let ns = timed(flag, &mut ip);
            if flag { &mut on } else { &mut off }.push(ns);
        }
    }
    telemetry::enable();
    v.insert(
        "telemetry.overhead_share_wire",
        1.0 - stats::seg_median(&off) / stats::seg_median(&on).max(1e-9),
    );
    ok
}

fn wire_probes(b1_hot_ns: f64, pingpong: &WireData, v: &mut Values) {
    let rtt_us = pingpong.headline().lat_p50_us;
    v.insert("net.wire.pingpong_rtt_us", rtt_us);
    // What the sockets, the readiness wait and the batch window add to a
    // single hot request beyond process_batch itself.
    v.insert("net.wire.io_ns_per_auth", rtt_us * 1e3 - b1_hot_ns);
    let payload = vec![0xa5u8; 600];
    v.insert(
        "net.wire.frame_ns",
        median_ns(9, 256, || {
            let framed = frame(black_box(&payload));
            unframe(&framed).map(<[u8]>::len)
        }),
    );
}

fn sim_probes(seed: u64, v: &mut Values) {
    // The wheel alone at the mega world's timer spacing: 100 000 timers
    // pending 1 µs apart, each pop re-armed one period later.
    let period = SimDuration::from_millis(100);
    let mut wheel: TimerWheel<usize> = TimerWheel::new();
    for i in 0..100_000u64 {
        wheel.insert(SimTime::ZERO + SimDuration::from_micros(i), i as usize);
    }
    v.insert(
        "sim.wheel.insert_pop_ns",
        median_ns(9, 100_000, || {
            if let Some((at, e)) = wheel.pop() {
                wheel.insert(at + period, e);
            }
        }),
    );

    // The world alone: send across one delay-only link, drain arrivals.
    let mut t = Topology::new();
    let (a, b) = (t.add_node("a"), t.add_node("b"));
    let link = t.add_symmetric_link(a, b, LinkConfig::delay_only(SimDuration::from_micros(500)));
    t.add_default_route(a, link);
    t.add_default_route(b, link);
    let mut world = NetWorld::new(t, SimRng::new(seed));
    let (src, dst) = (Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2));
    let mut now = SimTime::ZERO;
    let mut arrivals = Vec::new();
    v.insert(
        "net.world.send_drain_ns_per_pkt",
        median_ns(9, 64, || {
            for _ in 0..256 {
                world.send(
                    now,
                    a,
                    Packet::control(src, dst, bytes::Bytes::from_static(b"m")),
                );
            }
            now += SimDuration::from_millis(1);
            world.drain_arrivals_into(now, &mut arrivals);
            arrivals.clear();
        }) / 256.0,
    );

    // The registry's cost on the engine: the same N = 10k slices with
    // recording off and on (wall time per slice; the simulated work per
    // slice is constant).
    let mut world = scale::World::build(scale::SIZES[0], seed);
    let mut slices = Vec::new();
    world.run_block(&mut slices);
    let (mut off, mut on) = (Vec::new(), Vec::new());
    for _ in 0..2 {
        for (flag, sink) in [(false, &mut off), (true, &mut on)] {
            if flag {
                telemetry::enable();
            } else {
                telemetry::disable();
            }
            slices.clear();
            world.run_block(&mut slices);
            sink.extend(slices.iter().map(|s| s.wall_s));
        }
    }
    telemetry::enable();
    debug_assert_eq!(on.len(), 2 * BLOCK_SLICES);
    v.insert(
        "telemetry.overhead_share_sim",
        1.0 - stats::seg_median(&off) / stats::seg_median(&on).max(1e-9),
    );
}

/// Fill every per-layer metric not already in `v`. Returns whether every
/// stand-in and probe produced correct output.
///
/// # Errors
/// A stand-in that cannot run (socket failure, deadline).
pub fn fill(
    args: &Args,
    own: Own,
    deadline: Instant,
    tr: &mut Tracer,
    v: &mut Values,
) -> Result<bool, String> {
    let span = tr.begin("sheet");
    let nproc = crate::nproc();
    let seed = args.seed;
    let mut ok = true;
    let mut stand_in = |spec: WireSpec, tr: &mut Tracer| -> Result<WireData, String> {
        let d = wire::run(spec, seed, Budget::Count(2), 1, false, nproc, deadline, tr)?;
        ok &= d.correct() && d.failed() == 0;
        Ok(d)
    };

    // Live groups: own traffic where the workload exercises the layer.
    match &own {
        Own::Wire(d) => server_values(d, v),
        _ => server_values(&stand_in(MINI_SAT, tr)?, v),
    }
    match &own {
        Own::Wire(d) if matches!(d.spec.pace, Pace::Open { .. }) => open_loop_values(d, v),
        _ => open_loop_values(&stand_in(wire::PACED, tr)?, v),
    }
    let pingpong = stand_in(PINGPONG, tr)?;
    match &own {
        Own::Scale(d) => engine_values(d, v),
        _ => engine_values(
            &scale::measure(seed, Budget::Count(1), 1, false, deadline, tr),
            v,
        ),
    }
    match &own {
        Own::Figures(d) => figure_values(d, v),
        _ => {
            let d = figures::measure(seed, Budget::Count(1), 1, false, deadline, tr);
            ok &= d.out_of_band == 0;
            figure_values(&d, v);
        }
    }
    drop(own);

    // Probes, the same on every run.
    let probes = tr.begin("probes");
    crypto_probes(seed, v);
    ok &= broker_probes(seed, tr, v);
    wire_probes(v["core.broker_server.b1_hot_ns_per_auth"], &pingpong, v);
    sim_probes(seed, v);
    tr.end(probes);
    tr.end(span);
    Ok(ok)
}

/// Write `perfbench/out/<workload>.trace.json` (chrome trace) and
/// `perfbench/out/<workload>.layers.json` (the per-layer metrics, the
/// environment, and total / self time per span name).
///
/// # Errors
/// Filesystem errors.
pub fn write_out(args: &Args, tr: &Tracer, v: &Values, env: &str) -> Result<(), String> {
    let dir = std::path::Path::new("perfbench").join("out");
    let name = args.workload.name();
    let io = |e: std::io::Error| format!("writing {}: {e}", dir.display());
    std::fs::create_dir_all(&dir).map_err(io)?;
    std::fs::write(dir.join(format!("{name}.trace.json")), tr.chrome_trace()).map_err(io)?;

    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("metrics").begin_object();
    for d in PER_LAYER {
        if let Some(value) = v.get(d.name) {
            w.key(d.name).begin_object();
            w.key("value").f64_value(*value);
            w.key("unit").str_value(d.unit);
            w.end_object();
        }
    }
    w.end_object();
    w.key("spans").begin_object();
    for (span, t) in totals_by_name(tr.spans()) {
        w.key(span).begin_object();
        w.key("count").u64_value(t.count);
        w.key("total_ns").u64_value(t.total_ns);
        w.key("self_ns").u64_value(t.self_ns);
        w.end_object();
    }
    w.end_object().end_object();
    // The environment is already a JSON object: splice it in by hand.
    let body = w.finish();
    let doc = format!("{{\"env\": {env}, {}", &body[1..]);
    std::fs::write(dir.join(format!("{name}.layers.json")), doc).map_err(io)?;
    Ok(())
}
