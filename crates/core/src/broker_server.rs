//! `brokerd` as a real wire service: the socket adapters over the
//! shared [`BrokerCore`], behind the `brokerd` daemon binary.
//!
//! The paper's central deployment claim (§3, §5) is that the broker
//! "needs no cellular infrastructure" — it is an ordinary online service
//! behind a socket, deployed like Magma's Orc8r in the cloud, and it
//! scales like one: across cores first, then across machines. This
//! module is that service in miniature:
//!
//! * **I/O stage** ([`serve`] over UDP, [`serve_tcp`] over TCP): drain
//!   the transport and flush replies. Batch boundaries come from an
//!   adaptive batch-window controller ([`ServeConfig`]): a batch closes
//!   when it reaches `batch_target` requests or when its age exceeds a
//!   window that is continuously re-derived from the measured per-batch
//!   service time against a reply-latency SLO — continuous-batching
//!   style, so the window widens when the server is fast (buying bigger
//!   batches) and collapses when service time already eats the SLO.
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

use crate::broker_core::{AuthState, BrokerCore};
use crate::brokerd::BrokerWire;
use crate::principal::{BrokerKeys, Identity, TelcoKeys, UeKeys};
use crate::sap::{self, AuthReqT, QosCap, SapError};
use bytes::Bytes;
use cellbricks_crypto::cert::CertificateAuthority;
use cellbricks_crypto::ed25519::VerifyingKey;
use cellbricks_crypto::x25519::X25519PublicKey;
use cellbricks_net::wire::{frame, read_frame, unframe, write_frame};
use cellbricks_sim::SimRng;
use cellbricks_telemetry as telemetry;
use polling::Poller;
use std::collections::HashMap;
use std::io;
use std::io::Write;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// The canonical broker name every helper in this module provisions
/// under — the same name `exp_broker` uses, so the deterministic seed
/// path produces interoperable key material.
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

/// Tuning for the serve loops ([`serve`], [`serve_tcp`]): the adaptive
/// batch-window controller.
///
/// A batch closes when it reaches `batch_target` requests or when its
/// age exceeds the current window. The window is re-derived after every
/// batch as `clamp(slo − service_ewma, window_min, window_max)` — the
/// slack the SLO leaves after the (smoothed) measured service time. When
/// the server is fast the window widens, buying bigger batches per
/// wakeup (better verify amortization); when batches already take the
/// whole SLO to serve, the window collapses to `window_min` and the loop
/// degenerates to drain-and-go.
pub struct ServeConfig {
    /// Readiness-wait slice between checks of the stop flag.
    pub wait_timeout: Duration,
    /// Hard cap on datagrams per batch (bounds the receive arena).
    pub max_batch: usize,
    /// Close the batch early once it holds this many messages.
    pub batch_target: usize,
    /// Reply-latency budget the window controller works against.
    pub slo: Duration,
    /// Window floor: never adapt below this.
    pub window_min: Duration,
    /// Window ceiling: never hold a batch open longer than this.
    pub window_max: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            wait_timeout: Duration::from_millis(20),
            max_batch: 1024,
            batch_target: 64,
            slo: Duration::from_micros(600),
            window_min: Duration::from_micros(20),
            window_max: Duration::from_micros(250),
        }
    }
}

/// EWMA smoothing for the measured per-batch service time.
const SERVICE_EWMA_ALPHA: f64 = 0.25;

/// Shortest kernel wait the gather loop will request: sub-microsecond
/// read timeouts risk truncating to a zero timeval (= block forever).
const MIN_POLL: Duration = Duration::from_micros(10);

/// Consecutive dry gather passes (each separated by a `yield_now`) after
/// which the UDP loop closes the batch before the window expires. A dry
/// socket that stays dry across several yields means nothing is in
/// flight — holding the batch open buys no amortization, only latency
/// (continuous batching dispatches when the queue empties). The yields
/// matter on a single core: they are what hand peers the CPU to enqueue
/// the next datagram before the verdict is final.
const DRY_SPINS: u32 = 4;

/// The adaptive batch-window state shared by both serve loops.
struct BatchWindow {
    service_ewma_ns: f64,
    window: Duration,
}

impl BatchWindow {
    fn new(cfg: &ServeConfig) -> Self {
        Self {
            service_ewma_ns: 0.0,
            window: cfg.window_max,
        }
    }

    /// Fold one measured batch service time into the EWMA and re-derive
    /// the window from the SLO slack.
    fn observe(&mut self, service: Duration, cfg: &ServeConfig) {
        let s = service.as_nanos() as f64;
        self.service_ewma_ns = if self.service_ewma_ns == 0.0 {
            s
        } else {
            SERVICE_EWMA_ALPHA * s + (1.0 - SERVICE_EWMA_ALPHA) * self.service_ewma_ns
        };
        let slack = (cfg.slo.as_nanos() as f64 - self.service_ewma_ns).max(0.0);
        self.window = Duration::from_nanos(slack as u64).clamp(cfg.window_min, cfg.window_max);
        telemetry::gauge("brokerd.batch_window_ns").set(self.window.as_nanos() as i64);
    }
}

/// Per-datagram receive-buffer size. Any legitimate control-plane frame
/// fits with a wide margin; a larger datagram is truncated by the kernel
/// and then rejected by [`unframe`] as a bad frame. (The TCP transport
/// has no such cap — frames up to `MAX_FRAME_LEN` stream through
/// [`read_frame`].)
const RECV_BUF_LEN: usize = 8 * 1024;

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
    cfg: &ServeConfig,
) -> io::Result<()> {
    sock.set_nonblocking(true)?;
    let poller = Poller::new()?;
    let mut peers: Vec<SocketAddr> = Vec::new();
    let mut peer_index: HashMap<SocketAddr, usize> = HashMap::new();
    let mut arena: Vec<Vec<u8>> = Vec::new();
    let mut meta: Vec<(usize, usize)> = Vec::new(); // (slot, len) per datagram
    let mut replies: Vec<(usize, Vec<u8>)> = Vec::new();
    let mut win = BatchWindow::new(cfg);
    let wait_hist = telemetry::histogram("brokerd.batch_wait_ns");

    while !stop.load(Ordering::Relaxed) {
        if !poller.wait_readable(sock, Some(cfg.wait_timeout))? {
            continue;
        }
        let opened = Instant::now();
        meta.clear();
        let mut dry_spins = 0u32;
        loop {
            let before = meta.len();
            // Drain until dry or full.
            while meta.len() < cfg.max_batch {
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
            if meta.len() >= cfg.batch_target || meta.len() >= cfg.max_batch {
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
        win.observe(t0.elapsed(), cfg);
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

// ----- TCP stream transport -----

/// What a TCP connection's reader thread reports to the serve loop.
enum TcpEvent {
    /// One complete frame, re-framed to the same bytes a datagram would
    /// carry, so [`BrokerServer::process_batch`] runs one decode path.
    Frame(usize, Vec<u8>),
    /// The peer sent an oversized length prefix — protocol error; the
    /// connection is dropped and the frame counted against `bad_frames`.
    /// The reader's last event.
    Bad(usize),
    /// EOF or a transport error; the connection is gone. The reader's
    /// last event.
    Closed(usize),
}

/// Bound on buffered frames between the reader threads and the serve
/// loop — backpressure: readers stop pulling from their sockets when the
/// serve loop falls this far behind.
const TCP_EVENT_BOUND: usize = 4096;

/// Most TCP connections held open at once; one past it is accepted and
/// closed at once (counted in `brokerd.tcp_refused_conns`). Each live
/// connection costs a reader thread and two descriptors, so the cap sits
/// well inside a default 1024-descriptor limit.
const MAX_TCP_CONNS: usize = 256;

/// One live TCP connection: the write half and its reader thread.
struct TcpConn {
    stream: TcpStream,
    reader: std::thread::JoinHandle<()>,
}

/// The connection table of [`serve_tcp`]. A slot is held from accept
/// until its reader's last event ([`TcpEvent::Bad`] / [`TcpEvent::Closed`])
/// — never freed earlier, so a reused slot cannot receive a previous
/// connection's events — then the reader is joined and the slot reused:
/// the table and the thread count are bounded by `cap` live connections
/// however many come and go.
struct TcpConns {
    slots: Vec<Option<TcpConn>>,
    cap: usize,
    refused: u64,
}

impl TcpConns {
    fn new(cap: usize) -> Self {
        Self {
            slots: Vec::new(),
            cap,
            refused: 0,
        }
    }

    /// Accept every connection currently queued on the (nonblocking)
    /// listener, spawning a blocking reader thread per connection.
    fn accept_pending(
        &mut self,
        listener: &TcpListener,
        tx: &mpsc::SyncSender<TcpEvent>,
    ) -> io::Result<()> {
        loop {
            let stream = match listener.accept() {
                Ok((stream, _addr)) => stream,
                Err(e) if polling::is_not_ready(&e) => return Ok(()),
                Err(e) => return Err(e),
            };
            let id = match self.slots.iter().position(Option::is_none) {
                Some(free) => free,
                None if self.slots.len() < self.cap => {
                    self.slots.push(None);
                    self.slots.len() - 1
                }
                None => {
                    self.refused += 1;
                    telemetry::counter("brokerd.tcp_refused_conns").inc();
                    continue; // dropping the stream closes it
                }
            };
            stream.set_nodelay(true).ok();
            let mut read_half = stream.try_clone()?;
            let tx = tx.clone();
            let reader = std::thread::Builder::new()
                .name(format!("brokerd-tcp-{id}"))
                .spawn(move || loop {
                    match read_frame(&mut read_half) {
                        Ok(payload) => {
                            if tx.send(TcpEvent::Frame(id, frame(&payload))).is_err() {
                                break;
                            }
                        }
                        Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                            let _ = tx.send(TcpEvent::Bad(id));
                            break;
                        }
                        Err(_) => {
                            let _ = tx.send(TcpEvent::Closed(id));
                            break;
                        }
                    }
                })
                .expect("spawn tcp reader");
            self.slots[id] = Some(TcpConn { stream, reader });
        }
    }

    /// The reader of slot `id` sent its last event: close the stream,
    /// reap the (exiting) thread and free the slot.
    fn release(&mut self, id: usize) {
        if let Some(conn) = self.slots[id].take() {
            let _ = conn.stream.shutdown(Shutdown::Both);
            let _ = conn.reader.join();
        }
    }

    /// Write one framed reply. A failed write shuts the stream down; the
    /// reader then sees the error and reports [`TcpEvent::Closed`],
    /// which is what frees the slot.
    fn send(&mut self, id: usize, bytes: &[u8]) {
        if let Some(conn) = &mut self.slots[id] {
            if conn.stream.write_all(bytes).is_err() {
                let _ = conn.stream.shutdown(Shutdown::Both);
            }
        }
    }

    fn handle(
        &mut self,
        ev: TcpEvent,
        server: &mut BrokerServer,
        batch: &mut Vec<(usize, Vec<u8>)>,
    ) {
        match ev {
            TcpEvent::Frame(id, bytes) => batch.push((id, bytes)),
            TcpEvent::Bad(id) => {
                server.bad_frame();
                self.release(id);
            }
            TcpEvent::Closed(id) => self.release(id),
        }
    }
}

/// The TCP I/O stage behind the same [`BrokerServer`] state machine:
/// one blocking reader thread per accepted connection turns the byte
/// stream into frames via [`read_frame`] (so requests bigger than any
/// UDP datagram work end-to-end — the stream transport's whole point),
/// the serve loop gathers frames across connections under the same
/// adaptive batch window as [`serve`], and replies flush back on the
/// accepting thread in arrival order. At most [`MAX_TCP_CONNS`]
/// connections are live at once.
///
/// An oversized length prefix surfaces as `InvalidData` in the reader,
/// counts one bad frame, and drops the connection — the stream cannot be
/// resynchronized after a framing violation.
///
/// # Errors
/// Listener errors other than the would-block family.
pub fn serve_tcp(
    server: &mut BrokerServer,
    listener: &TcpListener,
    stop: &AtomicBool,
    cfg: &ServeConfig,
) -> io::Result<()> {
    listener.set_nonblocking(true)?;
    let (tx, rx) = mpsc::sync_channel::<TcpEvent>(TCP_EVENT_BOUND);
    let mut conns = TcpConns::new(MAX_TCP_CONNS);
    let mut batch: Vec<(usize, Vec<u8>)> = Vec::new();
    let mut replies: Vec<(usize, Vec<u8>)> = Vec::new();
    let mut win = BatchWindow::new(cfg);
    let wait_hist = telemetry::histogram("brokerd.batch_wait_ns");

    while !stop.load(Ordering::Relaxed) {
        conns.accept_pending(listener, &tx)?;
        // Wait for the first frame of the next batch.
        let first = match rx.recv_timeout(cfg.wait_timeout) {
            Ok(ev) => ev,
            Err(mpsc::RecvTimeoutError::Timeout) => continue,
            Err(mpsc::RecvTimeoutError::Disconnected) => break, // unreachable: tx held
        };
        let opened = Instant::now();
        batch.clear();
        conns.handle(first, server, &mut batch);
        loop {
            // Drain whatever the readers already queued.
            while batch.len() < cfg.max_batch {
                match rx.try_recv() {
                    Ok(ev) => conns.handle(ev, server, &mut batch),
                    Err(_) => break,
                }
            }
            if batch.len() >= cfg.batch_target || batch.len() >= cfg.max_batch {
                break;
            }
            let age = opened.elapsed();
            if age >= win.window {
                break;
            }
            match rx.recv_timeout((win.window - age).max(MIN_POLL)) {
                Ok(ev) => conns.handle(ev, server, &mut batch),
                Err(mpsc::RecvTimeoutError::Timeout) => break,
                Err(mpsc::RecvTimeoutError::Disconnected) => break,
            }
        }
        if batch.is_empty() {
            continue; // only control events (bad frame / close) arrived
        }
        wait_hist.record(opened.elapsed().as_nanos() as u64);
        let t0 = Instant::now();
        let datagrams: Vec<(usize, &[u8])> = batch
            .iter()
            .map(|(slot, b)| (*slot, b.as_slice()))
            .collect();
        replies.clear();
        server.process_batch(&datagrams, &mut replies);
        for (slot, bytes) in &replies {
            // Reply bytes are already length-prefixed frames (the exact
            // bytes `write_frame` would emit — one framing for datagram
            // and stream transports).
            conns.send(*slot, bytes);
        }
        win.observe(t0.elapsed(), cfg);
    }
    // Unblock the reader threads (they sit in blocking reads, or in a
    // send on the full event channel), then reap.
    drop(rx);
    for id in 0..conns.slots.len() {
        conns.release(id);
    }
    Ok(())
}

// ----- Deterministic population + load generator -----

/// The deterministic key population shared by the server and every load
/// generator: the same seed path as `exp_broker` (CA from `[0xCA; 32]`,
/// broker keys, telco keys, then one `UeKeys` per subscriber off one
/// `SimRng`), so a server and a client started with the same `--seed`
/// and `--n` agree on every identity without exchanging state.
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
    /// Re-send a request with no reply after this long (UDP only; the
    /// stream transport is reliable and never retransmits).
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

/// Drive one client over a TCP stream: pump `requests` through a bounded
/// window, reading replies with [`read_frame`]. The transport is
/// reliable, so there is no retransmit path — an unanswered request past
/// the deadline counts as lost.
///
/// # Errors
/// Connection setup or I/O errors other than the timeout family.
pub fn run_client_tcp(cfg: &ClientConfig, requests: &[Vec<u8>]) -> io::Result<ClientOutcome> {
    let mut stream = TcpStream::connect(cfg.server)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(cfg.deadline.max(Duration::from_millis(1))))?;
    let hist = telemetry::histogram(cfg.rtt_hist.clone());

    let mut outcome = ClientOutcome::default();
    let mut outstanding: HashMap<u64, Instant> = HashMap::new();
    let mut next = 0usize;
    let mut done = 0usize;
    let start = Instant::now();
    while done < requests.len() {
        if start.elapsed() > cfg.deadline {
            outcome.lost = (requests.len() - done) as u64;
            break;
        }
        // Top up the window. The pre-built request buffers are already
        // length-prefixed frames — the same bytes `write_frame` emits.
        while outstanding.len() < cfg.window && next < requests.len() {
            stream.write_all(&requests[next])?;
            outstanding.insert(next as u64, Instant::now());
            next += 1;
        }
        match read_frame(&mut stream) {
            Ok(payload) => {
                let (req_id, ok) = match BrokerWire::decode(&payload) {
                    Some(BrokerWire::AuthOk { req_id, .. }) => (req_id, true),
                    Some(BrokerWire::AuthErr { req_id, .. }) => (req_id, false),
                    _ => continue,
                };
                if let Some(sent) = outstanding.remove(&req_id) {
                    hist.record(sent.elapsed().as_micros() as u64);
                    if ok {
                        outcome.ok += 1;
                    } else {
                        outcome.refused += 1;
                    }
                    done += 1;
                }
            }
            Err(e) if polling::is_not_ready(&e) => {
                outcome.lost = (requests.len() - done) as u64;
                break;
            }
            Err(e) => return Err(e),
        }
    }
    Ok(outcome)
}

/// Send one `Report` frame over an existing framed byte stream — used by
/// the TCP smoke test to prove frames far larger than any UDP datagram
/// survive the stream transport end-to-end.
///
/// # Errors
/// Underlying stream write errors.
pub fn send_report_tcp(stream: &mut TcpStream, session_id: u64, sealed: &[u8]) -> io::Result<()> {
    let payload = BrokerWire::Report {
        session_id,
        from_ue: true,
        sealed: Bytes::copy_from_slice(sealed),
    }
    .encode();
    write_frame(stream, &payload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;
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

    /// End-to-end over a real loopback TCP stream with a W = 2 server:
    /// windowed client, plus a Report frame far larger than the UDP
    /// receive buffer to prove the stream transport's point.
    #[test]
    fn serve_tcp_end_to_end_over_loopback() {
        let pop = population(23, 4);
        let mut server = pop.server_with_workers(SimRng::new(96), 2);
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            serve_tcp(&mut server, &listener, &stop2, &ServeConfig::default()).expect("serve_tcp");
            server
        });

        // A huge Report first: 3x the UDP receive buffer, impossible to
        // carry in one datagram of the UDP transport.
        let mut reporter = TcpStream::connect(addr).expect("connect");
        let big = vec![0x5a_u8; 3 * RECV_BUF_LEN];
        send_report_tcp(&mut reporter, 1, &big).expect("report");

        let mut rng = SimRng::new(24);
        let requests = build_requests(&pop, &[0, 1, 2, 3], 24, &mut rng);
        let outcome = run_client_tcp(
            &ClientConfig {
                server: addr,
                window: 8,
                retransmit_after: Duration::from_millis(250),
                deadline: Duration::from_secs(30),
                rtt_hist: "test.brokerd.tcp_rtt_us".to_string(),
            },
            &requests,
        )
        .expect("tcp client");
        // The report has no reply, so follow it down the same stream with
        // a frame that has one — a replay of an already-granted request.
        // A connection's frames are handled in order: once the refusal
        // is back, the report has been counted.
        reporter
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("read timeout");
        reporter.write_all(&requests[0]).expect("replay");
        let refusal = read_frame(&mut reporter).expect("reply to the replay");
        assert!(matches!(
            BrokerWire::decode(&refusal),
            Some(BrokerWire::AuthErr { req_id: 0, .. })
        ));
        stop.store(true, Ordering::Relaxed);
        let server = handle.join().expect("server thread");
        assert_eq!(outcome.lost, 0, "no request may go unanswered");
        assert_eq!(outcome.ok, 24, "fresh nonces all authorize over TCP");
        assert_eq!(server.counters.bad_frames, 0);
        assert_eq!(server.counters.served_auths, 24);
        assert_eq!(server.counters.auth_errs, 1, "the replay is refused");
        assert_eq!(
            server.counters.wire_reports, 1,
            "the oversized-for-UDP report frame must arrive intact"
        );
    }

    /// Connection churn reuses slots and reaps readers: 3× cap sequential
    /// connect/close cycles never grow the table past the cap, a
    /// connection past the cap is refused (closed at once, counted), and
    /// the freed table accepts — and serves — again.
    #[test]
    fn tcp_connection_table_is_bounded_under_churn() {
        const CAP: usize = 4;
        let pop = population(27, 1);
        let mut server = pop.server(SimRng::new(94));
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        listener.set_nonblocking(true).expect("nonblocking");
        let addr = listener.local_addr().unwrap();
        let (tx, rx) = mpsc::sync_channel(TCP_EVENT_BOUND);
        let mut conns = TcpConns::new(CAP);
        let mut batch = Vec::new();
        // Accept until `want` connections are live (the listener is
        // nonblocking, so a just-connected peer may not be queued yet).
        let accept = |conns: &mut TcpConns, want: usize| {
            let live = |c: &TcpConns| c.slots.iter().flatten().count();
            while live(conns) < want {
                conns.accept_pending(&listener, &tx).expect("accept");
                std::thread::yield_now();
            }
        };

        for _ in 0..3 * CAP {
            let client = TcpStream::connect(addr).expect("connect");
            accept(&mut conns, 1);
            drop(client);
            let closed = rx
                .recv_timeout(Duration::from_secs(10))
                .expect("reader reports EOF");
            conns.handle(closed, &mut server, &mut batch);
            assert!(conns.slots.len() <= CAP);
            assert!(
                conns.slots.iter().all(Option::is_none),
                "slot freed, reader reaped"
            );
        }
        assert_eq!(conns.slots.len(), 1, "sequential churn reuses one slot");

        // Fill to the cap; one more is accepted-then-closed.
        let mut clients: Vec<TcpStream> = (0..CAP)
            .map(|_| TcpStream::connect(addr).expect("connect"))
            .collect();
        accept(&mut conns, CAP);
        let mut refused = TcpStream::connect(addr).expect("connect");
        while conns.refused == 0 {
            conns.accept_pending(&listener, &tx).expect("accept");
            std::thread::yield_now();
        }
        assert_eq!(conns.slots.len(), CAP);
        refused
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        assert_eq!(
            refused.read(&mut [0u8; 1]).ok(),
            Some(0),
            "refused peer sees EOF"
        );

        // Close one, and the table accepts and serves a new client.
        drop(clients.pop());
        let closed = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("reader reports EOF");
        conns.handle(closed, &mut server, &mut batch);
        let mut fresh = TcpStream::connect(addr).expect("connect");
        accept(&mut conns, CAP);
        let request = build_requests(&pop, &[0], 1, &mut SimRng::new(28)).remove(0);
        fresh.write_all(&request).expect("send");
        let frame_ev = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("reader frames it");
        conns.handle(frame_ev, &mut server, &mut batch);
        let mut replies = Vec::new();
        let datagrams: Vec<(usize, &[u8])> = batch.iter().map(|(s, b)| (*s, &b[..])).collect();
        server.process_batch(&datagrams, &mut replies);
        for (slot, bytes) in &replies {
            conns.send(*slot, bytes);
        }
        let reply = read_frame(&mut fresh).expect("reply on the reused slot");
        assert!(matches!(
            BrokerWire::decode(&reply),
            Some(BrokerWire::AuthOk { .. })
        ));
        for id in 0..conns.slots.len() {
            conns.release(id);
        }
    }

    /// An oversized length prefix on a TCP stream counts one bad frame
    /// and drops only that connection; the server keeps serving.
    #[test]
    fn tcp_oversized_prefix_drops_connection_not_server() {
        let pop = population(25, 1);
        let mut server = pop.server(SimRng::new(95));
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            serve_tcp(&mut server, &listener, &stop2, &ServeConfig::default()).expect("serve_tcp");
            server
        });

        let mut evil = TcpStream::connect(addr).expect("connect");
        evil.write_all(&u32::MAX.to_be_bytes())
            .expect("evil prefix");
        // A well-behaved client on its own connection is unaffected.
        let mut rng = SimRng::new(26);
        let requests = build_requests(&pop, &[0], 4, &mut rng);
        let outcome = run_client_tcp(
            &ClientConfig {
                server: addr,
                window: 2,
                retransmit_after: Duration::from_millis(250),
                deadline: Duration::from_secs(30),
                rtt_hist: "test.brokerd.tcp_evil_rtt_us".to_string(),
            },
            &requests,
        )
        .expect("tcp client");
        stop.store(true, Ordering::Relaxed);
        let server = handle.join().expect("server thread");
        assert_eq!(outcome.ok, 4);
        assert_eq!(outcome.lost, 0);
        assert_eq!(server.counters.bad_frames, 1, "hostile prefix counted");
        drop(evil);
    }
}
