//! `brokerd` as a real wire service: the socket adapters over the
//! shared [`BrokerCore`], behind the `brokerd` daemon binary.
//!
//! The paper's central deployment claim (§3, §5) is that the broker
//! "needs no cellular infrastructure" — it is an ordinary online service
//! behind a socket, deployed like Magma's Orc8r in the cloud, and it
//! scales like one: across cores first, then across machines. This
//! module is that service in miniature:
//!
//! * **I/O stage** ([`serve`], over UDP): drain the socket and flush
//!   replies. Batch boundaries come from an adaptive batch-window
//!   controller: a batch closes when it reaches 64 requests or when its
//!   age exceeds a window that is continuously re-derived from the
//!   measured per-batch service time against a reply-latency SLO —
//!   continuous-batching style, so the window widens when the server is
//!   fast (buying bigger batches) and collapses when service time
//!   already eats the SLO.
//! * **[`BrokerServer::process_batch`]**: unframe + wire decode, hand
//!   the decoded requests to the core as one batch, frame the verdicts
//!   and count every input in exactly one [`WireCounters`] field. The
//!   call is synchronous — when it returns, every reply for the batch
//!   is in `out`, which is what makes shutdown drain-safe.
//!
//! Everything that decides — pooled checks split across threads,
//! arrival-order anti-replay and RNG draws, pooled grants, replies
//! byte-identical at any worker count and batch split — is
//! [`crate::broker_core`]. This adapter admits every bTelco, and keeps a
//! counter per grant rather than a billing session: traffic reports
//! arriving on the wire are counted and dropped (DESIGN §13).
//!
//! UDP is the only transport: every SAP frame (request, verdict, sealed
//! traffic report) fits one datagram of [`RECV_BUF_LEN`] bytes, which
//! `every_wire_frame_fits_one_datagram` pins.

use crate::broker_core::{AuthState, BrokerCore};
use crate::brokerd::BrokerWire;
use crate::principal::{BrokerKeys, Identity, TelcoKeys, UeKeys};
use crate::sap::{self, AuthReqT, QosCap, SapError};
use bytes::Bytes;
use cellbricks_crypto::cert::CertificateAuthority;
use cellbricks_crypto::ed25519::VerifyingKey;
use cellbricks_crypto::x25519::X25519PublicKey;
use cellbricks_net::wire::{frame, unframe};
use cellbricks_sim::SimRng;
use cellbricks_telemetry as telemetry;
use polling::Poller;
use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// The canonical broker name every helper in this module provisions
/// under — the same name the simulated broker plane uses
/// (`tests/broker_plane.rs`), so the deterministic seed path produces
/// interoperable key material.
pub const BROKER_NAME: &str = "broker.example";

/// The bTelco identity the load generator forwards requests as.
pub const TELCO_NAME: &str = "tower-1.example";

/// Plain mirrors of the server-loop telemetry, cheap to read in tests
/// and printed by the daemon on shutdown. The telemetry registry carries
/// the same values under `brokerd.*` / `core.brokerd.bad_frames`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WireCounters {
    /// Authorizations granted and answered with `AuthOk`.
    pub served_auths: u64,
    /// Requests answered with `AuthErr` (bad signature, policy, replay…).
    pub auth_errs: u64,
    /// Datagrams that failed framing or `BrokerWire` decoding.
    pub bad_frames: u64,
    /// Well-formed `Report` frames (counted, then dropped — billing
    /// ingest stays sim-side).
    pub wire_reports: u64,
    /// Well-formed frames that are not requests (`AuthOk`/`AuthErr`
    /// arriving at the server).
    pub unexpected_frames: u64,
    /// Readiness batches processed (including request-free ones).
    pub batches: u64,
}

/// The default worker count (`--workers` overrides it):
/// `available_parallelism`, clamped to 1..=8. The I/O thread runs the
/// first range of every split batch itself, so no core is reserved for
/// it. On a single-core box this is 1, the inline path; replies are
/// byte-identical at any count, so results never depend on the machine.
#[must_use]
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get().clamp(1, 8))
        .unwrap_or(1)
}

/// The wire adapter's request processor: the broker core, the
/// authorization state it decides over, and the per-input counters.
pub struct BrokerServer {
    core: BrokerCore,
    state: AuthState,
    /// Server-loop counters (also exported as telemetry).
    pub counters: WireCounters,
    /// Scratch reused across batches: `(client slot, req_id)` of each
    /// decoded request, and the requests themselves.
    tags: Vec<(usize, u64)>,
    reqs: Vec<AuthReqT>,
}

impl BrokerServer {
    /// A fresh server with an empty subscriber DB whose crypto splits
    /// each batch across `workers` threads, the calling thread included
    /// (0 and 1 = every phase inline). Replies are byte-identical at any
    /// worker count.
    #[must_use]
    pub fn new(keys: BrokerKeys, ca: VerifyingKey, rng: SimRng, workers: usize) -> Self {
        Self {
            core: BrokerCore::new(keys, ca, rng, workers),
            state: AuthState::new(1),
            counters: WireCounters::default(),
            tags: Vec::new(),
            reqs: Vec::new(),
        }
    }

    /// The configured worker count (0 or 1 = inline processing).
    #[must_use]
    pub fn workers(&self) -> usize {
        self.core.workers()
    }

    /// Provision a subscriber (same contract as the simulated broker).
    pub fn provision(
        &mut self,
        id: Identity,
        sign_pk: VerifyingKey,
        encrypt_pk: X25519PublicKey,
        plan_mbr_bps: u64,
    ) {
        self.state.provision(id, sign_pk, encrypt_pk, plan_mbr_bps);
    }

    /// Number of provisioned subscribers.
    #[must_use]
    pub fn subscriber_count(&self) -> usize {
        self.state.subscriber_count()
    }

    fn bad_frame(&mut self) {
        self.counters.bad_frames += 1;
        telemetry::counter("core.brokerd.bad_frames").inc();
    }

    /// Process one readiness batch of raw datagrams. Each entry is
    /// `(client slot, datagram bytes)`; replies are appended to `out` as
    /// `(client slot, framed reply bytes)` for the caller's flush pass,
    /// in arrival order.
    pub fn process_batch(&mut self, datagrams: &[(usize, &[u8])], out: &mut Vec<(usize, Vec<u8>)>) {
        // Touch the error counter so it registers (at 0) in clean runs.
        let _ = telemetry::counter("core.brokerd.bad_frames");
        self.counters.batches += 1;
        let mut tags = std::mem::take(&mut self.tags);
        let mut reqs = std::mem::take(&mut self.reqs);
        tags.clear();
        reqs.clear();

        for &(slot, dgram) in datagrams {
            let Ok(payload) = unframe(dgram) else {
                self.bad_frame();
                continue;
            };
            match BrokerWire::decode(payload) {
                Some(BrokerWire::AuthReq { req_id, req_t }) => match AuthReqT::decode(&req_t) {
                    Some(req) => {
                        tags.push((slot, req_id));
                        reqs.push(req);
                    }
                    None => self.push_err(out, slot, req_id, SapError::Malformed),
                },
                Some(BrokerWire::Report { .. }) => {
                    self.counters.wire_reports += 1;
                    telemetry::counter("brokerd.wire_reports").inc();
                }
                Some(_) => {
                    self.counters.unexpected_frames += 1;
                    telemetry::counter("brokerd.unexpected_frames").inc();
                }
                None => self.bad_frame(),
            }
        }
        telemetry::histogram("brokerd.batch_size").record(reqs.len() as u64);

        let verdicts = self.core.authorize(&mut self.state, &reqs, |_, _| true);
        for (&(slot, req_id), verdict) in tags.iter().zip(verdicts) {
            match verdict {
                Ok(grant) => self.push_ok(out, slot, req_id, grant.reply.encode()),
                Err(e) => self.push_err(out, slot, req_id, e),
            }
        }
        self.tags = tags;
        self.reqs = reqs;
    }

    fn push_ok(&mut self, out: &mut Vec<(usize, Vec<u8>)>, slot: usize, req_id: u64, reply: Bytes) {
        self.counters.served_auths += 1;
        telemetry::counter("brokerd.served_auths").inc();
        out.push((slot, frame(&BrokerWire::AuthOk { req_id, reply }.encode())));
    }

    fn push_err(
        &mut self,
        out: &mut Vec<(usize, Vec<u8>)>,
        slot: usize,
        req_id: u64,
        err: SapError,
    ) {
        self.counters.auth_errs += 1;
        telemetry::counter("brokerd.auth_rejected").inc();
        let code = err as u8;
        out.push((slot, frame(&BrokerWire::AuthErr { req_id, code }.encode())));
    }
}

/// Settings of [`serve`]. It carries none: the batch-window controller
/// runs on the constants below. The type stays so that `serve`'s
/// signature, and every caller passing `&ServeConfig::default()`, is
/// unchanged.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServeConfig {}

// The adaptive batch-window controller. A batch closes when it reaches
// `BATCH_TARGET` requests or when its age exceeds the current window.
// The window is re-derived after every batch as
// `clamp(SLO − service_ewma, WINDOW_MIN, WINDOW_MAX)` — the slack the SLO
// leaves after the (smoothed) measured service time. When the server is
// fast the window widens, buying bigger batches per wakeup (better
// verify amortization); when batches already take the whole SLO to
// serve, the window collapses to `WINDOW_MIN` and the loop degenerates
// to drain-and-go.

/// Readiness-wait slice between checks of the stop flag.
const WAIT_TIMEOUT: Duration = Duration::from_millis(20);

/// Hard cap on datagrams per batch (bounds the receive arena).
const MAX_BATCH: usize = 1024;

/// Close the batch early once it holds this many messages.
const BATCH_TARGET: usize = 64;

/// Reply-latency budget the window controller works against.
const SLO: Duration = Duration::from_micros(600);

/// Window floor: never adapt below this.
const WINDOW_MIN: Duration = Duration::from_micros(20);

/// Window ceiling: never hold a batch open longer than this.
const WINDOW_MAX: Duration = Duration::from_micros(250);

/// EWMA smoothing for the measured per-batch service time.
const SERVICE_EWMA_ALPHA: f64 = 0.25;

/// Consecutive dry gather passes (each separated by a `yield_now`) after
/// which the serve loop closes the batch before the window expires. A dry
/// socket that stays dry across several yields means nothing is in
/// flight — holding the batch open buys no amortization, only latency
/// (continuous batching dispatches when the queue empties). The yields
/// matter on a single core: they are what hand peers the CPU to enqueue
/// the next datagram before the verdict is final.
const DRY_SPINS: u32 = 4;

/// The adaptive batch-window state of [`serve`].
struct BatchWindow {
    service_ewma_ns: f64,
    window: Duration,
}

impl BatchWindow {
    fn new() -> Self {
        Self {
            service_ewma_ns: 0.0,
            window: WINDOW_MAX,
        }
    }

    /// Fold one measured batch service time into the EWMA and re-derive
    /// the window from the SLO slack.
    fn observe(&mut self, service: Duration) {
        let s = service.as_nanos() as f64;
        self.service_ewma_ns = if self.service_ewma_ns == 0.0 {
            s
        } else {
            SERVICE_EWMA_ALPHA * s + (1.0 - SERVICE_EWMA_ALPHA) * self.service_ewma_ns
        };
        let slack = (SLO.as_nanos() as f64 - self.service_ewma_ns).max(0.0);
        self.window = Duration::from_nanos(slack as u64).clamp(WINDOW_MIN, WINDOW_MAX);
        telemetry::gauge("brokerd.batch_window_ns").set(self.window.as_nanos() as i64);
    }
}

/// Per-datagram receive-buffer size. Every frame the SAP encoders
/// produce fits with a wide margin (the largest, an `AuthOk`, is under
/// 1 KiB); a larger datagram is truncated by the kernel and then
/// rejected by [`unframe`] as a bad frame.
pub const RECV_BUF_LEN: usize = 8 * 1024;

/// The UDP I/O stage: wait for readability, gather a batch under the
/// adaptive window (drain until dry, then yield-spin for the window
/// remainder, closing early after [`DRY_SPINS`] consecutive empty
/// passes), process the whole batch through
/// [`BrokerServer::process_batch`], then write every reply in a single
/// flush pass. Runs until `stop` is set; a gathered batch is always
/// fully processed and flushed before the flag is honored.
///
/// The in-window wait is a spin rather than a timed kernel read:
/// `SO_RCVTIMEO` rounds sub-millisecond timeouts up to a scheduler tick
/// (≈4 ms at HZ=250) — an order of magnitude longer than the whole
/// window, which would serialize ping-pong clients at tick granularity.
///
/// # Errors
/// Any socket error other than the would-block/timed-out family.
pub fn serve(
    server: &mut BrokerServer,
    sock: &UdpSocket,
    stop: &AtomicBool,
    _cfg: &ServeConfig,
) -> io::Result<()> {
    sock.set_nonblocking(true)?;
    let poller = Poller::new()?;
    let mut peers: Vec<SocketAddr> = Vec::new();
    let mut peer_index: HashMap<SocketAddr, usize> = HashMap::new();
    let mut arena: Vec<Vec<u8>> = Vec::new();
    let mut meta: Vec<(usize, usize)> = Vec::new(); // (slot, len) per datagram
    let mut replies: Vec<(usize, Vec<u8>)> = Vec::new();
    let mut win = BatchWindow::new();
    let wait_hist = telemetry::histogram("brokerd.batch_wait_ns");

    while !stop.load(Ordering::Relaxed) {
        if !poller.wait_readable(sock, Some(WAIT_TIMEOUT))? {
            continue;
        }
        let opened = Instant::now();
        meta.clear();
        let mut dry_spins = 0u32;
        loop {
            let before = meta.len();
            // Drain until dry or full.
            while meta.len() < MAX_BATCH {
                if arena.len() == meta.len() {
                    arena.push(vec![0u8; RECV_BUF_LEN]);
                }
                let buf = &mut arena[meta.len()];
                match sock.recv_from(buf) {
                    Ok((len, addr)) => {
                        let next_slot = peers.len();
                        let slot = *peer_index.entry(addr).or_insert(next_slot);
                        if slot == next_slot {
                            peers.push(addr);
                        }
                        meta.push((slot, len));
                    }
                    Err(e) if polling::is_not_ready(&e) => break,
                    Err(e) => return Err(e),
                }
            }
            if meta.len() >= BATCH_TARGET || meta.len() >= MAX_BATCH {
                break;
            }
            let age = opened.elapsed();
            if age >= win.window {
                break;
            }
            if meta.len() > before {
                dry_spins = 0; // still arriving — keep gathering
                continue;
            }
            dry_spins += 1;
            if dry_spins >= DRY_SPINS {
                break; // nothing in flight: dispatch what we have
            }
            std::thread::yield_now();
        }
        if meta.is_empty() {
            continue; // spurious wakeup
        }
        wait_hist.record(opened.elapsed().as_nanos() as u64);
        let t0 = Instant::now();
        let datagrams: Vec<(usize, &[u8])> = meta
            .iter()
            .enumerate()
            .map(|(i, &(slot, len))| (slot, &arena[i][..len]))
            .collect();
        replies.clear();
        server.process_batch(&datagrams, &mut replies);
        // Single flush pass.
        for (slot, bytes) in &replies {
            send_all(sock, bytes, peers[*slot])?;
        }
        win.observe(t0.elapsed());
    }
    Ok(())
}

/// `send_to` with a retry on transient tx-queue pressure (rare on
/// loopback; UDP never blocks on the receiver).
fn send_all(sock: &UdpSocket, bytes: &[u8], to: SocketAddr) -> io::Result<()> {
    loop {
        match sock.send_to(bytes, to) {
            Ok(_) => return Ok(()),
            Err(e) if polling::is_not_ready(&e) => std::thread::yield_now(),
            Err(e) => return Err(e),
        }
    }
}

// ----- Deterministic population + load generator -----

/// The deterministic key population shared by the server and every load
/// generator: the same seed path as `tests/broker_plane.rs` (CA from
/// `[0xCA; 32]`, broker keys, telco keys, then one `UeKeys` per
/// subscriber off one `SimRng`), so a server and a client started with
/// the same `--seed` and `--n` agree on every identity without
/// exchanging state.
pub struct Population {
    /// The certificate authority.
    pub ca: CertificateAuthority,
    /// Broker keys (name [`BROKER_NAME`]).
    pub broker: BrokerKeys,
    /// The forwarding bTelco's keys (name [`TELCO_NAME`]).
    pub telco: TelcoKeys,
    /// Subscriber UE keys, in provisioning order.
    pub ues: Vec<UeKeys>,
}

/// Build the deterministic population for `seed` with `n_ues` subscribers.
#[must_use]
pub fn population(seed: u64, n_ues: usize) -> Population {
    let mut rng = SimRng::new(seed);
    let ca = CertificateAuthority::from_seed([0xCA; 32]);
    let broker = BrokerKeys::generate(BROKER_NAME, &ca, &mut rng);
    let telco = TelcoKeys::generate(TELCO_NAME, &ca, &mut rng);
    let ues = (0..n_ues).map(|_| UeKeys::generate(&mut rng)).collect();
    Population {
        ca,
        broker,
        telco,
        ues,
    }
}

impl Population {
    /// An inline server over this population, with every UE
    /// provisioned.
    #[must_use]
    pub fn server(&self, rng: SimRng) -> BrokerServer {
        self.server_with_workers(rng, 0)
    }

    /// A server over this population whose crypto splits each batch
    /// across `workers` threads (0 and 1 = inline), with every UE
    /// provisioned.
    #[must_use]
    pub fn server_with_workers(&self, rng: SimRng, workers: usize) -> BrokerServer {
        let mut server = BrokerServer::new(self.broker.clone(), self.ca.public_key(), rng, workers);
        for ue in &self.ues {
            let (sign_pk, encrypt_pk) = ue.public();
            server.provision(ue.identity(), sign_pk, encrypt_pk, 50_000_000);
        }
        server
    }
}

/// Pre-build `burst` framed `AuthReq` datagrams round-robining over the
/// given UEs (each request carries a fresh nonce, so every one is
/// accepted exactly once). Building costs real crypto (a UE seal+sign
/// and a bTelco sign per request), which is why the load generator
/// builds *before* the timed window opens.
#[must_use]
pub fn build_requests(
    pop: &Population,
    ues: &[usize],
    burst: usize,
    rng: &mut SimRng,
) -> Vec<Vec<u8>> {
    let broker_epk = pop.broker.encrypt.public_key();
    (0..burst)
        .map(|i| {
            let ue = &pop.ues[ues[i % ues.len()]];
            let (req_u, _nonce) =
                sap::ue_build_request(ue, BROKER_NAME, &broker_epk, pop.telco.identity(), rng);
            let req_t = sap::telco_wrap_request(
                &pop.telco,
                req_u,
                QosCap {
                    max_mbr_bps: 100_000_000,
                    qci_supported: vec![9],
                    li_capable: true,
                },
            );
            frame(
                &BrokerWire::AuthReq {
                    req_id: i as u64,
                    req_t: req_t.encode(),
                }
                .encode(),
            )
        })
        .collect()
}

/// Load-generator client configuration.
pub struct ClientConfig {
    /// Server address.
    pub server: SocketAddr,
    /// Maximum requests in flight. `1` is strict ping-pong — the
    /// single-request-per-batch baseline the batching win is measured
    /// against.
    pub window: usize,
    /// Re-send a request with no reply after this long.
    pub retransmit_after: Duration,
    /// Give up entirely after this long.
    pub deadline: Duration,
    /// Telemetry histogram receiving per-request latency, microseconds.
    pub rtt_hist: String,
}

/// What one load-generator client observed.
#[derive(Clone, Copy, Debug, Default)]
pub struct ClientOutcome {
    /// Requests answered `AuthOk`.
    pub ok: u64,
    /// Requests answered `AuthErr` (e.g. a retransmit racing its own
    /// original reply gets refused as a replay — the auth was served).
    pub refused: u64,
    /// Datagrams re-sent after the retransmit timeout.
    pub retransmits: u64,
    /// Requests still unanswered at the deadline.
    pub lost: u64,
}

/// Drive one client: pump `requests` through a bounded window over its
/// own UDP socket, retransmitting on timeout, until every request is
/// answered or the deadline passes.
///
/// # Errors
/// Socket setup or I/O errors other than the would-block family.
pub fn run_client(cfg: &ClientConfig, requests: &[Vec<u8>]) -> io::Result<ClientOutcome> {
    let sock = UdpSocket::bind(("127.0.0.1", 0))?;
    sock.connect(cfg.server)?;
    // Blocking socket with a short read timeout: the timeout bounds how
    // stale the retransmit scan can get.
    sock.set_read_timeout(Some(cfg.retransmit_after.min(Duration::from_millis(5))))?;
    let hist = telemetry::histogram(cfg.rtt_hist.clone());

    let mut outcome = ClientOutcome::default();
    let mut outstanding: HashMap<u64, (usize, Instant)> = HashMap::new();
    let mut next = 0usize;
    let mut done = 0usize;
    let mut buf = vec![0u8; RECV_BUF_LEN];
    let start = Instant::now();
    while done < requests.len() {
        if start.elapsed() > cfg.deadline {
            outcome.lost = (requests.len() - done) as u64;
            break;
        }
        // Top up the window.
        while outstanding.len() < cfg.window && next < requests.len() {
            sock.send(&requests[next])?;
            outstanding.insert(next as u64, (next, Instant::now()));
            next += 1;
        }
        match sock.recv(&mut buf) {
            Ok(n) => {
                let Ok(payload) = unframe(&buf[..n]) else {
                    continue;
                };
                let (req_id, ok) = match BrokerWire::decode(payload) {
                    Some(BrokerWire::AuthOk { req_id, .. }) => (req_id, true),
                    Some(BrokerWire::AuthErr { req_id, .. }) => (req_id, false),
                    _ => continue,
                };
                if let Some((_, sent)) = outstanding.remove(&req_id) {
                    hist.record(sent.elapsed().as_micros() as u64);
                    if ok {
                        outcome.ok += 1;
                    } else {
                        outcome.refused += 1;
                    }
                    done += 1;
                }
            }
            Err(e) if polling::is_not_ready(&e) => {}
            Err(e) => return Err(e),
        }
        // Retransmit anything stale.
        let now = Instant::now();
        for (idx, sent) in outstanding.values_mut() {
            if now.duration_since(*sent) >= cfg.retransmit_after {
                sock.send(&requests[*idx])?;
                *sent = now;
                outcome.retransmits += 1;
            }
        }
    }
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn served_world(n_ues: usize) -> (Population, BrokerServer) {
        let pop = population(7, n_ues);
        let server = pop.server(SimRng::new(99));
        (pop, server)
    }

    #[test]
    fn single_request_roundtrips_through_process_batch() {
        let (pop, mut server) = served_world(1);
        let mut rng = SimRng::new(11);
        let reqs = build_requests(&pop, &[0], 1, &mut rng);
        let mut out = Vec::new();
        server.process_batch(&[(0, &reqs[0])], &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(server.counters.served_auths, 1);
        let payload = unframe(&out[0].1).expect("framed reply");
        let Some(BrokerWire::AuthOk { req_id: 0, reply }) = BrokerWire::decode(payload) else {
            panic!("expected AuthOk");
        };
        let reply = sap::BrokerReply::decode(&reply).expect("reply decodes");
        let t_body = sap::telco_verify_reply(&pop.telco, &pop.ca.public_key(), &reply)
            .expect("telco verifies");
        assert_eq!(t_body.session_id, 1);
    }

    #[test]
    fn cross_connection_batch_serves_every_client() {
        let (pop, mut server) = served_world(8);
        let mut rng = SimRng::new(12);
        // 4 "connections", 2 requests each, pooled into one batch.
        let per_client: Vec<Vec<Vec<u8>>> = (0..4)
            .map(|c| build_requests(&pop, &[2 * c, 2 * c + 1], 2, &mut rng))
            .collect();
        let mut datagrams = Vec::new();
        for (c, reqs) in per_client.iter().enumerate() {
            for r in reqs {
                datagrams.push((c, r.as_slice()));
            }
        }
        let mut out = Vec::new();
        server.process_batch(&datagrams, &mut out);
        assert_eq!(server.counters.served_auths, 8);
        assert_eq!(server.counters.auth_errs, 0);
        assert_eq!(out.len(), 8);
        // Replies are routed back to the right client slots.
        let mut per_slot = [0u32; 4];
        for (slot, _) in &out {
            per_slot[*slot] += 1;
        }
        assert_eq!(per_slot, [2, 2, 2, 2]);
    }

    #[test]
    fn replayed_datagram_refused_with_nonce_mismatch() {
        let (pop, mut server) = served_world(1);
        let mut rng = SimRng::new(13);
        let reqs = build_requests(&pop, &[0], 1, &mut rng);
        let mut out = Vec::new();
        server.process_batch(&[(0, &reqs[0]), (0, &reqs[0])], &mut out);
        assert_eq!(server.counters.served_auths, 1);
        assert_eq!(server.counters.auth_errs, 1);
        let payload = unframe(&out[1].1).unwrap();
        let Some(BrokerWire::AuthErr { code, .. }) = BrokerWire::decode(payload) else {
            panic!("replay must be refused");
        };
        assert_eq!(code, sap::SapError::NonceMismatch as u8);
    }

    #[test]
    fn one_bad_signature_does_not_poison_the_pooled_batch() {
        let (pop, mut server) = served_world(3);
        let mut rng = SimRng::new(14);
        let good = build_requests(&pop, &[0, 1], 2, &mut rng);
        // Corrupt the UE signature inside a third request: flip a byte
        // in the framed bytes past the headers. Decode still succeeds,
        // signature verification must not.
        let mut evil = build_requests(&pop, &[2], 1, &mut rng).remove(0);
        let idx = evil.len() - 100;
        evil[idx] ^= 0x40;
        let mut out = Vec::new();
        server.process_batch(&[(0, &good[0]), (1, &evil), (2, &good[1])], &mut out);
        // The two good requests are served despite the pooled batch
        // failing; the bad one gets an attributed error.
        assert_eq!(server.counters.served_auths, 2);
        assert_eq!(server.counters.auth_errs, 1);
    }

    #[test]
    fn unknown_subscriber_attributed_exactly() {
        let (pop, server) = served_world(2);
        // Provision only UE 0 on a fresh server: requests from UE 1 are
        // structurally fine but unknown.
        let mut server2 = {
            let mut s =
                BrokerServer::new(pop.broker.clone(), pop.ca.public_key(), SimRng::new(98), 0);
            let (spk, epk) = pop.ues[0].public();
            s.provision(pop.ues[0].identity(), spk, epk, 50_000_000);
            s
        };
        let mut rng = SimRng::new(15);
        let reqs = build_requests(&pop, &[1], 1, &mut rng);
        let mut out = Vec::new();
        server2.process_batch(&[(0, &reqs[0])], &mut out);
        let payload = unframe(&out[0].1).unwrap();
        let Some(BrokerWire::AuthErr { code, .. }) = BrokerWire::decode(payload) else {
            panic!("unknown subscriber must be refused");
        };
        assert_eq!(code, sap::SapError::UnknownUser as u8);
        drop(server);
    }

    #[test]
    fn garbage_and_reports_counted_not_served() {
        let (pop, mut server) = served_world(1);
        let report = frame(
            &BrokerWire::Report {
                session_id: 1,
                from_ue: true,
                sealed: Bytes::from_static(b"sealed"),
            }
            .encode(),
        );
        let mut out = Vec::new();
        server.process_batch(&[(0, b"not a frame".as_slice()), (0, &report)], &mut out);
        assert!(out.is_empty());
        assert_eq!(server.counters.bad_frames, 1);
        assert_eq!(server.counters.wire_reports, 1);
        drop(pop);
    }

    /// UDP is the only transport because every frame the encoders
    /// produce fits one receive buffer: a request, both verdicts, and a
    /// report carrying a real sealed `TrafficReport`.
    #[test]
    fn every_wire_frame_fits_one_datagram() {
        let (pop, mut server) = served_world(1);
        let mut rng = SimRng::new(16);
        let req = build_requests(&pop, &[0], 1, &mut rng).remove(0);
        let mut out = Vec::new();
        server.process_batch(&[(0, &req), (0, &req)], &mut out);
        let kinds: Vec<_> = out
            .iter()
            .map(|(_, f)| BrokerWire::decode(unframe(f).expect("framed reply")))
            .collect();
        assert!(matches!(
            kinds[..],
            [
                Some(BrokerWire::AuthOk { .. }),
                Some(BrokerWire::AuthErr { .. })
            ]
        ));

        let sealed = crate::billing::TrafficReport {
            session_id: u64::MAX,
            seq: u32::MAX,
            ul_bytes: u64::MAX,
            dl_bytes: u64::MAX,
            duration_ms: u64::MAX,
            dl_loss_ppm: u32::MAX,
            ul_loss_ppm: u32::MAX,
            avg_dl_kbps: u32::MAX,
            avg_ul_kbps: u32::MAX,
            delay_ms: u32::MAX,
        }
        .sign_and_seal(&pop.ues[0].sign, &pop.broker.encrypt.public_key(), &mut rng);
        let report = frame(
            &BrokerWire::Report {
                session_id: u64::MAX,
                from_ue: true,
                sealed,
            }
            .encode(),
        );

        let frames = [&req, &out[0].1, &out[1].1, &report];
        for f in frames {
            assert!(
                f.len() <= RECV_BUF_LEN,
                "{} B frame > {RECV_BUF_LEN} B",
                f.len()
            );
        }
        server.process_batch(&[(0, &report)], &mut out);
        assert_eq!(server.counters.wire_reports, 1);
    }

    /// End-to-end over a real loopback UDP socket: serve loop thread +
    /// one pipelined client.
    #[test]
    fn serve_loop_end_to_end_over_loopback() {
        let pop = population(21, 4);
        let mut server = pop.server(SimRng::new(97));
        let sock = UdpSocket::bind("127.0.0.1:0").expect("bind");
        let addr = sock.local_addr().unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            serve(&mut server, &sock, &stop2, &ServeConfig::default()).expect("serve");
            server
        });

        let mut rng = SimRng::new(22);
        let requests = build_requests(&pop, &[0, 1, 2, 3], 24, &mut rng);
        let outcome = run_client(
            &ClientConfig {
                server: addr,
                window: 8,
                retransmit_after: Duration::from_millis(250),
                deadline: Duration::from_secs(30),
                rtt_hist: "test.brokerd.rtt_us".to_string(),
            },
            &requests,
        )
        .expect("client");
        stop.store(true, Ordering::Relaxed);
        let server = handle.join().expect("server thread");
        assert_eq!(outcome.lost, 0, "no request may go unanswered");
        assert_eq!(outcome.ok + outcome.refused, 24);
        assert!(outcome.ok >= 1);
        assert_eq!(server.counters.bad_frames, 0);
        assert_eq!(
            server.counters.served_auths, 24,
            "every distinct nonce authorizes exactly once"
        );
    }
}
