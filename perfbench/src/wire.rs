//! The two wire workloads: a load generator on the calling thread
//! against `broker_server::serve` on a loopback UDP socket.
//!
//! `wire_sat` and `wire_paced` use the same layer the opposite way:
//! saturation fills the server's batches so the pooled
//! `open_batch`/`verify_batch`/`broker_grant_batch_prepared` path does
//! nearly all the work and per-request overhead is amortised away; the
//! paced open loop keeps batches at size ≈ 1 with every cache hot, so the
//! per-request path (readiness wait, recv/decode, batch-window wait,
//! single verify, flush) is what is timed.
//!
//! Threads: the server's I/O thread plus this generator — never more
//! than `nproc`. Crypto workers are `nproc − 2` (0 = inline on a 2-core
//! box). A lost datagram is a counted failure, never a panic or a hang:
//! every wait in here has a per-request timeout and the run's deadline.

use crate::stages::{self, build_frame};
use crate::stats;
use crate::trace::Tracer;
use crate::{Budget, Headline};
use cellbricks_core::broker_server::{population, serve, Population, ServeConfig, WireCounters};
use cellbricks_core::brokerd::BrokerWire;
use cellbricks_core::sap::{self, BrokerReply};
use cellbricks_core::BrokerServer;
use cellbricks_net::wire::unframe;
use cellbricks_sim::SimRng;
use cellbricks_telemetry as telemetry;
use polling::is_not_ready;
use std::collections::VecDeque;
use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A request unanswered for this long is lost (a counted failure).
pub const REQUEST_TIMEOUT: Duration = Duration::from_secs(2);

/// `wire_paced`'s latency limit, from the instant a request was due:
/// ≈ 5× the median, in the flat part of the tail.
pub const PACED_LIMIT: Duration = Duration::from_millis(2);

/// One in this many replies is kept and verified after the timed part.
const VERIFY_EVERY: usize = 64;

/// The largest FIFO on the server's batch path (`DH_SEEN_CAP` in
/// `crypto::precomp`; `KEY_CACHE_CAP` is 4 096, `DH_TABLE_CAP` 256).
/// Warm-up keeps going until the uniform stream has pushed this many
/// keys through, so every FIFO has turned over once.
const LARGEST_FIFO: u64 = 8192;

/// How requests are released.
#[derive(Clone, Copy, Debug)]
pub enum Pace {
    /// Closed loop: each socket keeps `window` requests in flight.
    Closed {
        /// In-flight cap per socket.
        window: usize,
    },
    /// Open loop: request `i` is due at `i × interval`, whatever the
    /// server is doing, and is timed from that instant. A due request
    /// waits in the generator while `backlog` are unanswered: after a
    /// stall (of either thread) the catch-up burst would otherwise
    /// overflow the server's socket buffer (≈ 160 datagrams at the
    /// default `rmem`) and turn lateness into loss. The wait still counts:
    /// latency runs from the due time, and the hold shows in `late_us`.
    Open {
        /// Gap between due times, ns.
        interval_ns: u64,
        /// Unanswered requests per socket before a due one is held back.
        backlog: usize,
    },
}

/// A wire workload's shape.
#[derive(Clone, Copy, Debug)]
pub struct WireSpec {
    /// Provisioned subscribers.
    pub population: usize,
    /// The first `hot` subscribers are the repeat customers.
    pub hot: usize,
    /// Half the requests draw uniformly over the whole population (so
    /// the FIFO caches churn); otherwise every request is a hot UE.
    pub uniform_half: bool,
    /// Generator sockets (= server-side connections).
    pub socks: usize,
    /// Release policy.
    pub pace: Pace,
    /// Requests per measured segment.
    pub seg_len: usize,
    /// Warm-up runs until every hot UE has been seen this often.
    pub warm_sightings: u32,
    /// ... and, when set, until the FIFO caches have turned over.
    pub warm_turnover: bool,
}

/// `wire_sat`: 2 sockets × window 16 over 16 384 UEs (4× the key cache,
/// 64× the DH table cache), ½ from a 128-UE commuter set.
pub const SAT: WireSpec = WireSpec {
    population: 16_384,
    hot: 128,
    uniform_half: true,
    socks: 2,
    pace: Pace::Closed { window: 16 },
    seg_len: 2048,
    warm_sightings: 64,
    warm_turnover: true,
};

/// `wire_paced`: 1 500 req/s (≈ 30–40 % of hot capacity) over 64 hot UEs
/// (fewer than `DH_R256_CAP` = 96), one-second segments.
pub const PACED: WireSpec = WireSpec {
    population: 64,
    hot: 64,
    uniform_half: false,
    socks: 1,
    pace: Pace::Open {
        interval_ns: 1_000_000_000 / 1500,
        backlog: 64,
    },
    seg_len: 1500,
    warm_sightings: 64,
    warm_turnover: false,
};

/// Per-segment accounting, in nanoseconds on the run's clock. Kept free
/// of sockets so the rules are testable: latency runs from the *due*
/// time, generator lateness is its own series, and a lost or refused
/// request misses every limit and counts as failed.
#[derive(Clone, Debug, Default)]
pub struct SegAccount {
    /// Due → reply, µs, answered requests only.
    pub lat_us: Vec<f64>,
    /// Due → actually sent, µs (always 0 in a closed loop).
    pub late_us: Vec<f64>,
    /// Answered `AuthOk`.
    pub ok: u64,
    /// Answered `AuthErr`.
    pub refused: u64,
    /// Unanswered past the timeout.
    pub lost: u64,
    /// Answered `AuthOk` within the limit of their due time.
    pub in_limit: u64,
}

impl SegAccount {
    /// A request due at `due_ns` left the generator at `sent_ns`.
    pub fn on_send(&mut self, due_ns: u64, sent_ns: u64) {
        self.late_us
            .push(sent_ns.saturating_sub(due_ns) as f64 / 1e3);
    }

    /// Its reply arrived at `now_ns`.
    pub fn on_reply(&mut self, due_ns: u64, now_ns: u64, ok: bool, limit_ns: u64) {
        let lat = now_ns.saturating_sub(due_ns);
        self.lat_us.push(lat as f64 / 1e3);
        if ok {
            self.ok += 1;
            if lat <= limit_ns {
                self.in_limit += 1;
            }
        } else {
            self.refused += 1;
        }
    }

    /// It was never answered.
    pub fn on_lost(&mut self) {
        self.lost += 1;
    }

    /// Requests sent.
    #[must_use]
    pub fn attempted(&self) -> u64 {
        self.ok + self.refused + self.lost
    }

    /// Requests lost or refused.
    #[must_use]
    pub fn failed(&self) -> u64 {
        self.refused + self.lost
    }

    /// `AuthOk` within the limit ÷ attempted.
    #[must_use]
    pub fn within_limit_share(&self) -> f64 {
        self.in_limit as f64 / self.attempted().max(1) as f64
    }
}

/// One measured segment.
#[derive(Clone, Debug, Default)]
pub struct Segment {
    /// The accounting.
    pub acct: SegAccount,
    /// First send → last reply (closed loop) or the scheduled span
    /// `seg_len × interval` (open loop), seconds.
    pub wall_s: f64,
    /// Segment median and p90 of `lat_us`.
    pub lat_p50_us: f64,
    /// See `lat_p50_us`.
    pub lat_p90_us: f64,
    /// Recorded with spans on (traced runs alternate).
    pub traced: bool,
}

/// The server thread and its stop flag. Stopping joins the thread and
/// hands back its counters; dropping stops.
pub struct LiveServer {
    /// Where it listens.
    pub addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<(BrokerServer, io::Result<()>)>>,
}

impl LiveServer {
    /// Provision every UE of `pop` and serve on a fresh loopback port.
    ///
    /// # Errors
    /// Socket setup errors.
    pub fn start(pop: &Population, seed: u64, workers: usize) -> io::Result<Self> {
        let mut server = pop.server_with_workers(SimRng::new(seed ^ 0x6b72_6f6b), workers);
        let sock = UdpSocket::bind("127.0.0.1:0")?;
        let addr = sock.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("brokerd-io".into())
            .spawn(move || {
                let res = serve(&mut server, &sock, &stop2, &ServeConfig::default());
                (server, res)
            })?;
        Ok(Self {
            addr,
            stop,
            handle: Some(handle),
        })
    }

    /// Stop, join, and read the counters.
    ///
    /// # Errors
    /// The serve loop's own error, or a panic on the server thread.
    pub fn shutdown(&mut self) -> Result<WireCounters, String> {
        self.stop.store(true, Ordering::Relaxed);
        let Some(handle) = self.handle.take() else {
            return Err("server already stopped".into());
        };
        match handle.join() {
            Ok((server, Ok(()))) => Ok(server.counters),
            Ok((_, Err(e))) => Err(format!("serve loop: {e}")),
            Err(_) => Err("server thread panicked".into()),
        }
    }
}

impl Drop for LiveServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// Crypto workers for a wire workload: whatever is left after the I/O
/// thread and the generator, so threads never exceed `nproc`.
#[must_use]
pub fn workers_for(nproc: usize) -> usize {
    nproc.saturating_sub(2)
}

/// A batch of pre-built request datagrams.
pub struct Built {
    /// Framed `AuthReq` datagrams; request `i` carries `base_id + i`.
    pub frames: Vec<Vec<u8>>,
    /// First request id.
    pub base_id: u64,
    /// UE index and nonce of each request.
    pub who: Vec<(u32, [u8; 16])>,
}

/// The load generator: its sockets, its clock, what it has sent and the
/// replies it kept for verification.
pub struct Generator {
    socks: Vec<UdpSocket>,
    epoch: Instant,
    /// Saved `(ue, nonce, reply)` triples awaiting verification.
    saved: Vec<(u32, [u8; 16], Vec<u8>)>,
    /// Requests sent, all phases.
    pub sent: u64,
}

/// Everything a wire workload holds between segments.
pub struct Fixture {
    /// The shape being run.
    pub spec: WireSpec,
    /// Keys of every principal.
    pub pop: Population,
    /// The server under test.
    pub server: LiveServer,
    /// The generator talking to it.
    pub gen: Generator,
    draw_rng: SimRng,
    nonce_rng: SimRng,
    next_id: u64,
    /// Requests lost or refused in warm-up (must be 0 too).
    pub warm_failed: u64,
}

impl Fixture {
    /// Draw the next request's UE: seeded, never round-robin — a
    /// round-robin over 64 UEs walks all of them across the radix-256
    /// promotion threshold inside one 64-request stretch.
    fn draw_ue(&mut self) -> u32 {
        let spec = &self.spec;
        let hi = if spec.uniform_half && self.draw_rng.chance(0.5) {
            spec.population
        } else {
            spec.hot
        };
        self.draw_rng.uniform_u64(0, hi as u64) as u32
    }

    /// Build `n` requests with fresh nonces (real crypto: a UE seal and
    /// sign plus a bTelco sign each — always outside the timed part).
    pub fn build(&mut self, n: usize) -> Built {
        let base_id = self.next_id;
        self.next_id += n as u64;
        let mut frames = Vec::with_capacity(n);
        let mut who = Vec::with_capacity(n);
        for i in 0..n {
            let ue = self.draw_ue();
            let (dgram, nonce) = build_frame(
                &self.pop.ues[ue as usize],
                &self.pop,
                base_id + i as u64,
                &mut self.nonce_rng,
            );
            frames.push(dgram);
            who.push((ue, nonce));
        }
        Built {
            frames,
            base_id,
            who,
        }
    }
}

impl Generator {
    /// `socks` nonblocking UDP sockets connected to `server`.
    ///
    /// # Errors
    /// Socket setup errors.
    pub fn connect(server: SocketAddr, socks: usize) -> io::Result<Self> {
        let socks = (0..socks)
            .map(|_| {
                let sock = UdpSocket::bind("127.0.0.1:0")?;
                sock.connect(server)?;
                sock.set_nonblocking(true)?;
                Ok(sock)
            })
            .collect::<io::Result<Vec<_>>>()?;
        Ok(Self {
            socks,
            epoch: Instant::now(),
            saved: Vec::new(),
            sent: 0,
        })
    }

    /// Send `built` under `pace` and collect replies until every request
    /// is answered, timed out, or `deadline` passes (the rest are lost).
    ///
    /// # Errors
    /// Socket errors other than the would-block family.
    pub fn drive(&mut self, built: &Built, pace: Pace, deadline: Instant) -> io::Result<Segment> {
        let n = built.frames.len();
        let limit_ns = match pace {
            Pace::Closed { .. } => REQUEST_TIMEOUT.as_nanos() as u64,
            Pace::Open { .. } => PACED_LIMIT.as_nanos() as u64,
        };
        let timeout_ns = REQUEST_TIMEOUT.as_nanos() as u64;
        let epoch = self.epoch;
        let now_ns = || epoch.elapsed().as_nanos() as u64;

        // Per request: due time once sent, and which socket carries it.
        let mut due = vec![0u64; n];
        let mut sock_of = vec![0u8; n];
        let mut answered = vec![false; n];
        let mut in_flight: VecDeque<usize> = VecDeque::new();
        let mut outstanding = vec![0usize; self.socks.len()];
        let mut acct = SegAccount::default();
        let (mut next, mut done) = (0usize, 0usize);
        let mut buf = vec![0u8; 8 * 1024];
        let start_ns = now_ns();
        let mut last_reply_ns = start_ns;

        while done < n {
            let mut progressed = false;
            // Replies first: their timestamps are what is measured.
            for (s, sock) in self.socks.iter().enumerate() {
                loop {
                    let len = match sock.recv(&mut buf) {
                        Ok(len) => len,
                        Err(e) if is_not_ready(&e) => break,
                        Err(e) => return Err(e),
                    };
                    let t = now_ns();
                    let Ok(payload) = unframe(&buf[..len]) else {
                        continue;
                    };
                    let (req_id, reply) = match BrokerWire::decode(payload) {
                        Some(BrokerWire::AuthOk { req_id, reply }) => (req_id, Some(reply)),
                        Some(BrokerWire::AuthErr { req_id, .. }) => (req_id, None),
                        _ => continue,
                    };
                    let Some(i) = req_id
                        .checked_sub(built.base_id)
                        .map(|i| i as usize)
                        .filter(|&i| i < n && i < next && !answered[i])
                    else {
                        continue; // a reply to a request already given up on
                    };
                    answered[i] = true;
                    outstanding[s] = outstanding[s].saturating_sub(1);
                    acct.on_reply(due[i], t, reply.is_some(), limit_ns);
                    if let Some(reply) = reply.filter(|_| i % VERIFY_EVERY == 0) {
                        let (ue, nonce) = built.who[i];
                        self.saved.push((ue, nonce, reply.to_vec()));
                    }
                    done += 1;
                    last_reply_ns = t;
                    progressed = true;
                }
            }

            // Release what the pace allows.
            let t = now_ns();
            while next < n {
                let (s, due_ns) = match pace {
                    Pace::Closed { window } => match outstanding.iter().position(|&o| o < window) {
                        Some(s) => (s, now_ns()),
                        None => break,
                    },
                    Pace::Open {
                        interval_ns,
                        backlog,
                    } => {
                        let due_ns = start_ns + next as u64 * interval_ns;
                        let s = next % self.socks.len();
                        if t < due_ns || outstanding[s] >= backlog {
                            break;
                        }
                        (s, due_ns)
                    }
                };
                match self.socks[s].send(&built.frames[next]) {
                    Ok(_) => {}
                    Err(e) if is_not_ready(&e) => break, // tx queue full: retry next pass
                    Err(e) => return Err(e),
                }
                due[next] = due_ns;
                sock_of[next] = s as u8;
                outstanding[s] += 1;
                in_flight.push_back(next);
                acct.on_send(due_ns, now_ns());
                self.sent += 1;
                next += 1;
                progressed = true;
            }

            // Give up on requests past the timeout (send order = age order).
            while let Some(&i) = in_flight.front() {
                if !answered[i] {
                    if t.saturating_sub(due[i]) <= timeout_ns {
                        break;
                    }
                    answered[i] = true;
                    let s = sock_of[i] as usize;
                    outstanding[s] = outstanding[s].saturating_sub(1);
                    acct.on_lost();
                    done += 1;
                }
                in_flight.pop_front();
            }

            if Instant::now() >= deadline {
                // Out of time: whatever is unanswered or unsent is lost.
                for _ in done..n {
                    acct.on_lost();
                }
                break;
            }
            if !progressed {
                std::thread::yield_now();
            }
        }

        let wall_ns = match pace {
            Pace::Closed { .. } => last_reply_ns - start_ns,
            Pace::Open { interval_ns, .. } => n as u64 * interval_ns,
        };
        let mut lat = acct.lat_us.clone();
        let [p50, p90] = stats::sample_percentiles(&mut lat, [0.5, 0.9]);
        Ok(Segment {
            acct,
            wall_s: wall_ns as f64 / 1e9,
            lat_p50_us: p50,
            lat_p90_us: p90,
            traced: false,
        })
    }

    /// Check every saved reply end to end: the bTelco verifies and opens
    /// its half, the UE verifies and opens its half and finds its nonce.
    /// Returns `(checked, bad)`.
    pub fn verify_saved(&mut self, pop: &Population) -> (u64, u64) {
        let ca = pop.ca.public_key();
        let broker_pk = pop.broker.sign.verifying_key();
        let telco_id = pop.telco.identity();
        let mut bad = 0u64;
        for (ue, nonce, bytes) in &self.saved {
            let ok = BrokerReply::decode(bytes).is_some_and(|reply| {
                sap::telco_verify_reply(&pop.telco, &ca, &reply).is_ok()
                    && sap::ue_verify_response(
                        &pop.ues[*ue as usize],
                        &broker_pk,
                        nonce,
                        telco_id,
                        &reply.resp_u,
                    )
                    .is_ok()
            });
            bad += u64::from(!ok);
        }
        let checked = self.saved.len() as u64;
        self.saved.clear();
        (checked, bad)
    }
}

/// Set-up times of one fixture, seconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    /// Key generation for the whole population (median of the repeats).
    pub population_s: f64,
    /// Server provisioning, socket bind, thread spawn (median).
    pub provision_s: f64,
    /// Closed-loop warm-up of the process-global caches (once: they
    /// cannot be emptied again).
    pub warmup_s: f64,
}

impl SetupTimes {
    /// The workload's `setup_s`.
    #[must_use]
    pub fn total(&self) -> f64 {
        self.population_s + self.provision_s + self.warmup_s
    }
}

/// Build the population, start the server, warm the caches. The
/// repeatable parts (keys, provisioning) run `repeats` times and report
/// their median; the last instance is the one kept.
///
/// # Errors
/// Socket errors, or a warm-up that cannot finish before `deadline`.
pub fn setup(
    spec: WireSpec,
    seed: u64,
    workers: usize,
    repeats: usize,
    deadline: Instant,
    tr: &mut Tracer,
) -> Result<(Fixture, SetupTimes), String> {
    let mut pop_s = Vec::new();
    let mut prov_s = Vec::new();
    let mut kept = None;
    for _ in 0..repeats.max(1) {
        drop(kept.take()); // stop the previous server before the next binds
        let span = tr.begin("population");
        let t = Instant::now();
        let pop = population(seed, spec.population);
        pop_s.push(t.elapsed().as_secs_f64());
        tr.end(span);

        let span = tr.begin("provision");
        let t = Instant::now();
        let server = LiveServer::start(&pop, seed, workers).map_err(|e| format!("server: {e}"))?;
        let gen = Generator::connect(server.addr, spec.socks)
            .map_err(|e| format!("generator sockets: {e}"))?;
        prov_s.push(t.elapsed().as_secs_f64());
        tr.end(span);
        kept = Some((pop, server, gen));
    }
    let (pop, server, gen) = kept.expect("at least one repeat");
    let mut fx = Fixture {
        spec,
        pop,
        server,
        gen,
        draw_rng: SimRng::new(seed ^ 0x6472_6177),
        nonce_rng: SimRng::new(seed ^ 0x6e6f_6e63),
        next_id: 0,
        warm_failed: 0,
    };

    // Warm-up: the same traffic, closed loop, until every hot UE has
    // been seen often enough to sit in the radix-256 tier and the FIFOs
    // have turned over — the table-build storms all land here.
    let span = tr.begin("warmup");
    let t = Instant::now();
    let mut sightings = vec![0u32; spec.hot];
    let mut uniform_seen = 0u64;
    loop {
        let hot_ok = sightings.iter().all(|&s| s >= spec.warm_sightings);
        let fifo_ok = !spec.warm_turnover || uniform_seen >= LARGEST_FIFO;
        if hot_ok && fifo_ok {
            break;
        }
        if Instant::now() >= deadline {
            return Err("warm-up did not finish before the deadline".into());
        }
        let built = fx.build(1024);
        for &(ue, _) in &built.who {
            match sightings.get_mut(ue as usize) {
                Some(s) => *s += 1,
                None => uniform_seen += 1,
            }
        }
        let seg = fx
            .gen
            .drive(&built, Pace::Closed { window: 16 }, deadline)
            .map_err(|e| format!("warm-up: {e}"))?;
        fx.warm_failed += seg.acct.failed();
    }
    let warmup_s = t.elapsed().as_secs_f64();
    tr.end(span);
    Ok((
        fx,
        SetupTimes {
            population_s: stats::seg_median(&pop_s),
            provision_s: stats::seg_median(&prov_s),
            warmup_s,
        },
    ))
}

/// The process-global cache counters in `crypto::precomp`. Summed over
/// `drive` calls only: request building on the generator side seals to
/// the broker's key and would count as cache hits too.
#[derive(Clone, Copy, Debug, Default)]
pub struct CacheCounts {
    /// `crypto.keycache.hit` / `.miss`.
    pub key: (u64, u64),
    /// `crypto.dhcache.hit` / `.miss`.
    pub dh: (u64, u64),
    /// `crypto.sigmemo.hit` / `.miss`.
    pub sig: (u64, u64),
    /// `crypto.dhcache.build`.
    pub dh_built: u64,
    /// `crypto.dhcache.promote`.
    pub dh_promoted: u64,
}

impl CacheCounts {
    fn read() -> Self {
        let c = |name: &str| telemetry::counter(format!("crypto.{name}")).get();
        Self {
            key: (c("keycache.hit"), c("keycache.miss")),
            dh: (c("dhcache.hit"), c("dhcache.miss")),
            sig: (c("sigmemo.hit"), c("sigmemo.miss")),
            dh_built: c("dhcache.build"),
            dh_promoted: c("dhcache.promote"),
        }
    }

    fn add_since(&mut self, before: &Self) {
        let now = Self::read();
        let pair = |acc: &mut (u64, u64), n: (u64, u64), b: (u64, u64)| {
            acc.0 += n.0 - b.0;
            acc.1 += n.1 - b.1;
        };
        pair(&mut self.key, now.key, before.key);
        pair(&mut self.dh, now.dh, before.dh);
        pair(&mut self.sig, now.sig, before.sig);
        self.dh_built += now.dh_built - before.dh_built;
        self.dh_promoted += now.dh_promoted - before.dh_promoted;
    }
}

/// hits ÷ (hits + misses); 0 when the cache was never consulted.
#[must_use]
pub fn hit_share((hit, miss): (u64, u64)) -> f64 {
    hit as f64 / (hit + miss).max(1) as f64
}

/// The serve loop's own view of the measured segments, read from the
/// telemetry registry (reset when measurement starts).
#[derive(Clone, Copy, Debug, Default)]
pub struct ServeView {
    /// `brokerd.batch_size` p50 / p99.
    pub batch_size: (f64, f64),
    /// `brokerd.batch_wait_ns` p50 / p99.
    pub batch_wait_ns: (f64, f64),
    /// `brokerd.batch_window_ns` as the controller last set it.
    pub window_ns: f64,
    /// Batches processed.
    pub batches: u64,
}

/// What a wire workload measured.
pub struct WireData {
    /// Its shape.
    pub spec: WireSpec,
    /// Set-up times.
    pub setup: SetupTimes,
    /// Measured segments.
    pub segments: Vec<Segment>,
    /// Cache counters over the drives.
    pub caches: CacheCounts,
    /// Batch sizes, waits and window over the measured part.
    pub serve: ServeView,
    /// The server's counters when it stopped (whole process life).
    pub counters: WireCounters,
    /// Requests sent, warm-up included.
    pub sent: u64,
    /// Warm-up requests lost or refused.
    pub warm_failed: u64,
    /// Saved replies verified end to end / of those, bad.
    pub verified: (u64, u64),
}

impl WireData {
    /// Requests in measured segments.
    #[must_use]
    pub fn attempted(&self) -> u64 {
        self.segments.iter().map(|s| s.acct.attempted()).sum()
    }

    /// Requests lost or refused, warm-up included.
    #[must_use]
    pub fn failed(&self) -> u64 {
        self.warm_failed + self.segments.iter().map(|s| s.acct.failed()).sum::<u64>()
    }

    /// The server answered every request it was sent, refused none and
    /// saw no bad frame; every verified reply checked out.
    #[must_use]
    pub fn correct(&self) -> bool {
        let c = &self.counters;
        let all_served = if self.failed() == 0 {
            c.served_auths == self.sent
        } else {
            c.served_auths <= self.sent
        };
        all_served && c.auth_errs == 0 && c.bad_frames == 0 && self.verified.1 == 0
    }

    /// Per-segment work rate: `AuthOk` per second of segment wall time
    /// (closed loop), or `AuthOk` within the limit per scheduled second
    /// (open loop).
    #[must_use]
    pub fn seg_rates(&self, traced: Option<bool>) -> Vec<f64> {
        self.segments
            .iter()
            .filter(|s| traced.is_none_or(|t| s.traced == t))
            .map(|s| {
                let work = match self.spec.pace {
                    Pace::Closed { .. } => s.acct.ok,
                    Pace::Open { .. } => s.acct.in_limit,
                };
                work as f64 / s.wall_s.max(1e-9)
            })
            .collect()
    }

    /// The headline rate. Closed loop: p90 across segments. Open loop:
    /// the offered rate is fixed and most segments answer everything in
    /// time, so any quantile of segments saturates at the offered rate
    /// and says nothing; the goodput is the plain mean over the whole
    /// run, which moves exactly when requests miss the limit.
    #[must_use]
    pub fn work_per_s(&self, traced: Option<bool>) -> f64 {
        let rates = self.seg_rates(traced);
        match self.spec.pace {
            Pace::Closed { .. } => stats::rate_p90(&rates),
            Pace::Open { .. } => rates.iter().sum::<f64>() / rates.len().max(1) as f64,
        }
    }
}

impl WireData {
    /// The headline numbers and the segment series behind them.
    #[must_use]
    pub fn headline(&self) -> Headline {
        let p50: Vec<f64> = self.segments.iter().map(|s| s.lat_p50_us).collect();
        let p90: Vec<f64> = self.segments.iter().map(|s| s.lat_p90_us).collect();
        let (on, off) = (self.work_per_s(Some(true)), self.work_per_s(Some(false)));
        Headline {
            setup_s: self.setup.total(),
            work_per_s: self.work_per_s(None),
            lat_p50_us: stats::quiet_decile(&p50),
            lat_p90_us: stats::quiet_decile(&p90),
            seg_work: self.seg_rates(None),
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

/// Set up, measure until the budget is spent, stop the server, verify.
/// In a traced run's own workload (`alternate_tracing`) odd segments
/// record spans and replay a 32-batch through the stage calls; even
/// segments stay untraced so the run prices its own tracing.
///
/// # Errors
/// Set-up or socket failures. The server thread is always joined.
#[allow(clippy::too_many_arguments)]
pub fn run(
    spec: WireSpec,
    seed: u64,
    budget: Budget,
    setup_repeats: usize,
    alternate_tracing: bool,
    nproc: usize,
    deadline: Instant,
    tr: &mut Tracer,
) -> Result<WireData, String> {
    let span = tr.begin("setup");
    let made = setup(spec, seed, workers_for(nproc), setup_repeats, deadline, tr);
    tr.end(span);
    let (mut fx, setup_times) = made?;
    let broker = tr.enabled().then(|| stages::Broker::of(&fx.pop));
    let mut replay_rng = SimRng::new(seed ^ 0x7265_706c);

    telemetry::global().reset();
    let mut segments: Vec<Segment> = Vec::new();
    let mut caches = CacheCounts::default();
    let mut failure = None;
    let start = Instant::now();
    loop {
        let i = segments.len();
        let spent = match budget {
            Budget::Seconds(s) => i >= 3 && start.elapsed().as_secs_f64() >= s,
            Budget::Count(k) => i >= k,
        };
        if spent || Instant::now() >= deadline {
            break;
        }
        let on = alternate_tracing && i % 2 == 1;
        if alternate_tracing {
            tr.set_recording(on);
        }
        let seg_span = tr.begin("segment");

        let span = tr.begin("build");
        let built = fx.build(spec.seg_len);
        // Requests for the replay come off the same stream but are never
        // sent, so the stage calls meet the cache state the server met.
        let extra = broker.as_ref().map(|_| fx.build(32));
        tr.end(span);

        let span = tr.begin("drive");
        let before = CacheCounts::read();
        let driven = fx.gen.drive(&built, spec.pace, deadline);
        caches.add_since(&before);
        tr.end(span);

        let span = tr.begin("check");
        if let (Some(broker), Some(extra)) = (&broker, &extra) {
            stages::replay(broker, &extra.frames, &mut replay_rng, tr);
        }
        tr.end(span);
        tr.end(seg_span);
        match driven {
            Ok(mut seg) => {
                seg.traced = on;
                segments.push(seg);
            }
            Err(e) => {
                failure = Some(format!("drive: {e}"));
                break;
            }
        }
    }
    if alternate_tracing {
        tr.set_recording(true);
    }

    let hist = |name: &str| {
        let h = telemetry::histogram(name.to_string()).snapshot();
        (
            (
                h.value_at_quantile(0.50) as f64,
                h.value_at_quantile(0.99) as f64,
            ),
            h.count(),
        )
    };
    let (batch_size, batches) = hist("brokerd.batch_size");
    let (batch_wait_ns, _) = hist("brokerd.batch_wait_ns");
    let serve = ServeView {
        batch_size,
        batch_wait_ns,
        window_ns: telemetry::gauge("brokerd.batch_window_ns").get() as f64,
        batches,
    };

    // Every exit path from here on has already joined the server.
    let span = tr.begin("check");
    let counters = fx.server.shutdown();
    let verified = fx.gen.verify_saved(&fx.pop);
    tr.end(span);
    if let Some(e) = failure {
        return Err(e);
    }
    Ok(WireData {
        spec,
        setup: setup_times,
        segments,
        caches,
        serve,
        counters: counters?,
        sent: fx.gen.sent,
        warm_failed: fx.warm_failed,
        verified,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const LIMIT: u64 = 2_000_000;

    #[test]
    fn open_loop_latency_runs_from_the_due_time() {
        let mut a = SegAccount::default();
        // Due at 1 ms, the generator got to it 0.5 ms late, the server
        // took 0.3 ms: the user waited 0.8 ms.
        a.on_send(1_000_000, 1_500_000);
        a.on_reply(1_000_000, 1_800_000, true, LIMIT);
        assert_eq!(a.lat_us, vec![800.0]);
        // The lateness is its own series, so it can be told apart from
        // server time: due→reply minus lateness is what the server took.
        assert_eq!(a.late_us, vec![500.0]);
        assert_eq!(a.lat_us[0] - a.late_us[0], 300.0);
        assert_eq!((a.ok, a.in_limit), (1, 1));
    }

    #[test]
    fn closed_loop_has_no_lateness() {
        let mut a = SegAccount::default();
        a.on_send(5_000, 5_000);
        a.on_reply(5_000, 405_000, true, LIMIT);
        assert_eq!(a.late_us, vec![0.0]);
        assert_eq!(a.lat_us, vec![400.0]);
    }

    #[test]
    fn late_lost_and_refused_all_miss_the_limit() {
        let mut a = SegAccount::default();
        for i in 0..4 {
            a.on_send(i * 1000, i * 1000);
        }
        a.on_reply(0, 1_000_000, true, LIMIT); // in time
        a.on_reply(1000, 3_500_000, true, LIMIT); // answered, but late
        a.on_reply(2000, 500_000, false, LIMIT); // refused quickly
        a.on_lost(); // never answered
        assert_eq!(a.attempted(), 4);
        assert_eq!(a.in_limit, 1);
        assert_eq!(a.within_limit_share(), 0.25);
        // Late is slow, not failed; lost and refused are failed.
        assert_eq!(a.failed(), 2);
        // A lost request has no latency sample to flatter the median.
        assert_eq!(a.lat_us.len(), 3);
    }

    #[test]
    fn threads_never_exceed_nproc() {
        assert_eq!(workers_for(1), 0);
        assert_eq!(workers_for(2), 0);
        assert_eq!(workers_for(4), 2);
    }

    #[test]
    fn paced_rate_is_1500_per_second() {
        let Pace::Open { interval_ns, .. } = PACED.pace else {
            panic!("paced is an open loop");
        };
        let span_s = PACED.seg_len as f64 * interval_ns as f64 / 1e9;
        assert!((span_s - 1.0).abs() < 1e-3, "a segment spans {span_s} s");
    }

    /// A tiny closed-loop shape for the socket tests.
    const TINY: WireSpec = WireSpec {
        population: 8,
        hot: 8,
        uniform_half: false,
        socks: 2,
        pace: Pace::Closed { window: 4 },
        seg_len: 48,
        warm_sightings: 1,
        warm_turnover: false,
    };

    #[test]
    fn a_small_run_is_served_verified_and_joined() {
        let deadline = Instant::now() + Duration::from_secs(60);
        let mut tr = Tracer::new(true);
        let d = run(TINY, 11, Budget::Count(2), 1, false, 2, deadline, &mut tr).expect("runs");
        assert_eq!(d.segments.len(), 2);
        assert_eq!((d.attempted(), d.failed()), (96, 0));
        assert!(d.correct(), "counters {:?}, sent {}", d.counters, d.sent);
        // 1 in 64 replies was kept and checked end to end.
        assert!(d.verified.0 >= 2 && d.verified.1 == 0, "{:?}", d.verified);
        assert!(d.headline().work_per_s > 0.0);
        assert!(tr.spans().iter().any(|s| s.name == "core.sap.verify"));
    }

    #[test]
    fn a_lost_datagram_is_a_counted_failure_not_a_hang() {
        // A socket nobody reads: every request vanishes.
        let hole = UdpSocket::bind("127.0.0.1:0").expect("bind");
        let mut gen = Generator::connect(hole.local_addr().expect("addr"), 1).expect("connect");
        let built = Built {
            frames: vec![vec![0u8; 32]; 3],
            base_id: 0,
            who: vec![(0, [0; 16]); 3],
        };
        let started = Instant::now();
        let seg = gen
            .drive(
                &built,
                Pace::Open {
                    interval_ns: 1_000_000,
                    backlog: 64,
                },
                started + Duration::from_secs(30),
            )
            .expect("a lost request is not an I/O error");
        assert_eq!((seg.acct.lost, seg.acct.ok, seg.acct.in_limit), (3, 0, 0));
        assert_eq!(seg.acct.failed(), 3);
        assert_eq!(seg.acct.within_limit_share(), 0.0);
        let waited = started.elapsed();
        assert!(
            waited >= REQUEST_TIMEOUT && waited < REQUEST_TIMEOUT * 3,
            "{waited:?}"
        );
    }

    #[test]
    fn an_open_loop_holds_due_requests_behind_a_full_backlog() {
        // Nobody answers, so the backlog never drains: of five requests
        // all due within 5 µs only two may leave the generator, and the
        // rest are held (and lost to the deadline), not fired into a
        // socket buffer that a stalled server is not reading.
        let hole = UdpSocket::bind("127.0.0.1:0").expect("bind");
        let mut gen = Generator::connect(hole.local_addr().expect("addr"), 1).expect("connect");
        let built = Built {
            frames: vec![vec![0u8; 32]; 5],
            base_id: 0,
            who: vec![(0, [0; 16]); 5],
        };
        let pace = Pace::Open {
            interval_ns: 1_000,
            backlog: 2,
        };
        let seg = gen
            .drive(&built, pace, Instant::now() + Duration::from_millis(100))
            .expect("ends cleanly");
        assert_eq!(gen.sent, 2);
        assert_eq!((seg.acct.lost, seg.acct.ok), (5, 0));
    }

    #[test]
    fn the_run_deadline_ends_a_stalled_segment() {
        let hole = UdpSocket::bind("127.0.0.1:0").expect("bind");
        let mut gen = Generator::connect(hole.local_addr().expect("addr"), 1).expect("connect");
        let built = Built {
            frames: vec![vec![0u8; 32]; 2],
            base_id: 0,
            who: vec![(0, [0; 16]); 2],
        };
        let started = Instant::now();
        let seg = gen
            .drive(
                &built,
                Pace::Closed { window: 1 },
                started + Duration::from_millis(50),
            )
            .expect("ends cleanly");
        assert_eq!(seg.acct.lost, 2);
        assert!(started.elapsed() < Duration::from_secs(1));
    }
}
