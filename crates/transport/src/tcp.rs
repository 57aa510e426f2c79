//! A content-free Reno TCP.
//!
//! Sequence numbers are 64-bit (no wraparound) and payloads carry only
//! their length. The congestion-control behaviour that matters for the
//! CellBricks evaluation — slow start from a fresh subflow, fast
//! retransmit on triple duplicate ACKs, RTO with go-back-N and backoff —
//! follows RFC 5681/6298/6582 closely enough to reproduce the dynamics of
//! Fig. 8 and Fig. 9.
//!
//! Congestion-control *policy* is pluggable: the datapath reports ACK /
//! loss / RTO events to a [`crate::cc::CongestionControl`] implementation
//! (selected by [`TcpConfig::cc`]) and reads the window back, so CUBIC,
//! Reno and BBR swap without touching the mechanism below.

use crate::cc::{self, AckKind, CcAlgo, CongestionControl, LossKind};
use crate::ranges::RangeSet;
use cellbricks_net::{EndpointAddr, MpSignal, Packet, TcpFlags, TcpSegment, MAX_SACK_BLOCKS};
use cellbricks_sim::{SimDuration, SimTime};
use cellbricks_telemetry as telemetry;

/// Telemetry handles shared by every connection (registered per `Tcp`;
/// the cells are process-global, so the histograms aggregate across
/// connections).
#[derive(Debug)]
struct TcpMetrics {
    cwnd_bytes: telemetry::Histogram,
    srtt_ns: telemetry::Histogram,
    fast_retx: telemetry::Counter,
    rto_fired: telemetry::Counter,
}

impl TcpMetrics {
    fn register() -> Self {
        Self {
            cwnd_bytes: telemetry::histogram("transport.tcp.cwnd_bytes"),
            srtt_ns: telemetry::histogram("transport.tcp.srtt_ns"),
            fast_retx: telemetry::counter("transport.tcp.fast_retransmits"),
            rto_fired: telemetry::counter("transport.tcp.rto_events"),
        }
    }
}

/// TCP tuning parameters.
#[derive(Clone, Debug)]
pub struct TcpConfig {
    /// Maximum segment size (payload bytes).
    pub mss: u32,
    /// Initial congestion window in MSS (RFC 6928: 10).
    pub init_cwnd_mss: u32,
    /// Advertised receive window (bytes).
    pub rwnd: u32,
    /// Lower bound on the retransmission timeout.
    pub min_rto: SimDuration,
    /// Upper bound on the retransmission timeout.
    pub max_rto: SimDuration,
    /// Initial RTO before any RTT sample (RFC 6298: 1 s).
    pub initial_rto: SimDuration,
    /// Give up (reset) after this many consecutive RTOs on one segment.
    pub max_rto_retries: u32,
    /// Congestion-control algorithm (default CUBIC).
    pub cc: CcAlgo,
}

impl Default for TcpConfig {
    fn default() -> Self {
        Self {
            mss: 1460,
            init_cwnd_mss: 10,
            rwnd: 4 << 20,
            min_rto: SimDuration::from_millis(200),
            max_rto: SimDuration::from_secs(60),
            initial_rto: SimDuration::from_secs(1),
            max_rto_retries: 8,
            cc: CcAlgo::default(),
        }
    }
}

/// Connection phase.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TcpState {
    /// Client sent SYN, awaiting SYN-ACK.
    SynSent,
    /// Server received SYN, sent SYN-ACK, awaiting ACK.
    SynReceived,
    /// Data transfer.
    Established,
    /// Connection finished or aborted.
    Closed,
}

/// A TCP connection endpoint (either side).
///
/// Poll discipline: after feeding a segment with [`Tcp::on_segment`] or
/// mutating application state, call [`Tcp::poll`] to emit due segments.
/// [`Tcp::poll_at`] reports only *timer* deadlines (RTO); immediate work
/// is flushed synchronously by `poll`.
#[derive(Debug)]
pub struct Tcp {
    // Layout note: the demux fields (`local`, `remote`, `state`) lead —
    // the host scans every socket's 4-tuple for every arriving segment —
    // and the cold tuning/telemetry handles trail the struct so a dense
    // fleet of connections keeps its per-segment working set compact.
    /// Local address/port (source of emitted segments).
    pub local: EndpointAddr,
    /// Remote address/port.
    pub remote: EndpointAddr,
    state: TcpState,

    // --- Sender ---
    /// Oldest unacknowledged sequence.
    snd_una: u64,
    /// Next sequence to send.
    snd_nxt: u64,
    /// Highest sequence ever sent (go-back-N rewinds `snd_nxt`, not this).
    snd_max: u64,
    /// Emit a SYN / SYN-ACK on the next poll.
    syn_pending: bool,
    /// Congestion-control policy (owns cwnd/ssthresh and all algorithm
    /// state; the datapath feeds it events and reads the window back).
    cc: Box<dyn CongestionControl>,
    /// Peer's advertised window.
    peer_rwnd: u32,
    dup_acks: u32,
    /// NewReno: recovery ends when snd_una passes this point.
    recover: u64,
    in_recovery: bool,
    /// Retransmit the segment at `snd_una` on the next poll (fast
    /// retransmit or SACK partial-ACK hole fill).
    force_retransmit_head: bool,
    /// Receiver-reported SACK ranges (merged), i.e. bytes the peer holds
    /// above the cumulative ACK.
    sacked: RangeSet,
    /// Hole-scan cursor for SACK-based retransmission.
    retx_next: u64,
    /// Total bytes the application has written (None = unbounded bulk).
    app_written: Option<u64>,
    /// Application requested close once all data is sent.
    fin_requested: bool,
    fin_sent: bool,
    fin_acked: bool,

    // --- Timers / RTT ---
    srtt: Option<SimDuration>,
    rttvar: SimDuration,
    rto: SimDuration,
    rto_deadline: Option<SimTime>,
    rto_retries: u32,
    /// One outstanding RTT sample: (sequence that acks it, send time).
    rtt_sample: Option<(u64, SimTime)>,

    // --- Receiver ---
    rcv_nxt: u64,
    /// Out-of-order segments keyed by start (not merged: each is
    /// advertised as its own SACK block).
    ooo: RangeSet,
    /// Start of the most recently updated out-of-order range (advertised
    /// first, per RFC 2018).
    ooo_recent: Option<u64>,
    /// Rotation cursor so successive ACKs advertise different blocks.
    sack_rotate: usize,
    /// In-order payload bytes delivered but not yet read by the app.
    delivered_unread: u64,
    peer_fin_seq: Option<u64>,
    ack_pending: bool,

    // --- MPTCP hooks (used by the mptcp module) ---
    /// Option to attach to the SYN (MP_CAPABLE / MP_JOIN).
    pub(crate) syn_mp: Option<MpSignal>,
    /// One-shot option to attach to the next emitted segment.
    pub(crate) pending_mp: Option<MpSignal>,
    /// If set, emitted payload segments carry `data_seq = data_base + seq`.
    pub(crate) data_base: Option<u64>,
    /// Data-level cumulative ACK to piggyback on emitted segments.
    pub(crate) data_ack_out: Option<u64>,
    /// Set when the connection aborted after too many RTOs.
    aborted: bool,
    /// Fast-retransmit episodes entered (diagnostics).
    pub fast_retx_events: u64,
    /// Retransmission timeouts fired (diagnostics).
    pub rto_events: u64,

    // --- Cold: construction-time tuning and telemetry handles ---
    cfg: TcpConfig,
    metrics: TcpMetrics,
}

/// Events surfaced to the caller by `on_segment`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TcpEvents {
    /// The connection just became established.
    pub connected: bool,
    /// New in-order payload bytes became available.
    pub delivered: u64,
    /// Data-level ACK carried by the segment (MPTCP).
    pub data_ack: Option<u64>,
}

impl Tcp {
    /// Active open: returns a connection in `SynSent`; `poll` emits the SYN.
    #[must_use]
    pub fn connect(
        cfg: TcpConfig,
        local: EndpointAddr,
        remote: EndpointAddr,
        now: SimTime,
        syn_mp: Option<MpSignal>,
    ) -> Tcp {
        let mut tcp = Tcp::new(cfg, local, remote, TcpState::SynSent);
        tcp.syn_mp = syn_mp;
        tcp.arm_rto(now);
        tcp
    }

    /// Passive open: accept `syn` and return a connection in
    /// `SynReceived`; `poll` emits the SYN-ACK.
    #[must_use]
    pub fn accept(
        cfg: TcpConfig,
        local: EndpointAddr,
        remote: EndpointAddr,
        syn: &TcpSegment,
        now: SimTime,
    ) -> Tcp {
        debug_assert!(syn.flags.syn() && !syn.flags.ack());
        let mut tcp = Tcp::new(cfg, local, remote, TcpState::SynReceived);
        tcp.rcv_nxt = syn.seq + 1;
        tcp.peer_rwnd = syn.window;
        tcp.ack_pending = true; // The SYN-ACK.
        tcp.arm_rto(now);
        tcp
    }

    fn new(cfg: TcpConfig, local: EndpointAddr, remote: EndpointAddr, state: TcpState) -> Tcp {
        let cc = cc::build(cfg.cc, &cfg);
        Tcp {
            rto: cfg.initial_rto,
            cfg,
            metrics: TcpMetrics::register(),
            local,
            remote,
            state,
            snd_una: 0,
            snd_nxt: 0,
            snd_max: 0,
            syn_pending: true,
            cc,
            peer_rwnd: u32::MAX,
            dup_acks: 0,
            recover: 0,
            in_recovery: false,
            force_retransmit_head: false,
            sacked: RangeSet::default(),
            retx_next: 0,
            app_written: Some(0),
            fin_requested: false,
            fin_sent: false,
            fin_acked: false,
            srtt: None,
            rttvar: SimDuration::ZERO,
            rto_deadline: None,
            rto_retries: 0,
            rtt_sample: None,
            rcv_nxt: 0,
            ooo: RangeSet::default(),
            ooo_recent: None,
            sack_rotate: 0,
            delivered_unread: 0,
            peer_fin_seq: None,
            ack_pending: false,
            syn_mp: None,
            pending_mp: None,
            data_base: None,
            data_ack_out: None,
            aborted: false,
            fast_retx_events: 0,
            rto_events: 0,
        }
    }

    // ----- Application surface -----

    /// Queue `bytes` more application data for transmission.
    pub fn write(&mut self, bytes: u64) {
        if let Some(total) = &mut self.app_written {
            *total += bytes;
        }
    }

    /// Switch to an unbounded data source (iperf-style bulk sender).
    pub fn set_bulk(&mut self) {
        self.app_written = None;
    }

    /// Request an orderly close once all queued data is delivered.
    pub fn close(&mut self) {
        self.fin_requested = true;
    }

    /// Take (and reset) the count of in-order bytes delivered to the app.
    pub fn take_delivered(&mut self) -> u64 {
        std::mem::take(&mut self.delivered_unread)
    }

    /// Current state.
    #[must_use]
    pub fn state(&self) -> TcpState {
        self.state
    }

    /// True once the three-way handshake completed.
    #[must_use]
    pub fn is_established(&self) -> bool {
        self.state == TcpState::Established
    }

    /// True if the connection was aborted by retransmission failure.
    #[must_use]
    pub fn is_aborted(&self) -> bool {
        self.aborted
    }

    /// Congestion window in bytes.
    #[must_use]
    pub fn cwnd(&self) -> u64 {
        self.cc.cwnd() as u64
    }

    /// Reset congestion-control state to a fresh connection's: used when
    /// the path under this connection changed (CellBricks re-attach
    /// reassigned the local address), so learned epochs/w_max/bandwidth
    /// estimates describe a path that no longer exists.
    pub fn reset_cc(&mut self) {
        self.cc.reset();
    }

    /// Smoothed RTT, if sampled.
    #[must_use]
    pub fn srtt(&self) -> Option<SimDuration> {
        self.srtt
    }

    /// Diagnostic snapshot: (in_recovery, dup_acks, sacked_bytes, ssthresh).
    #[must_use]
    pub fn debug_cc(&self) -> (bool, u32, u64, f64) {
        (
            self.in_recovery,
            self.dup_acks,
            self.sacked.total(),
            self.cc.ssthresh(),
        )
    }

    /// Diagnostic snapshot: (snd_una, snd_nxt, snd_max, rto_deadline, rto).
    #[must_use]
    pub fn debug_seq(&self) -> (u64, u64, u64, Option<SimTime>, SimDuration) {
        (
            self.snd_una,
            self.snd_nxt,
            self.snd_max,
            self.rto_deadline,
            self.rto,
        )
    }

    /// Cumulative bytes acknowledged by the peer.
    #[must_use]
    pub fn bytes_acked(&self) -> u64 {
        // Subtract the virtual SYN byte once the handshake completed.
        self.snd_una.saturating_sub(1)
    }

    /// Abort immediately (used when a subflow's address disappears).
    pub fn abort(&mut self) {
        self.state = TcpState::Closed;
        self.aborted = true;
        self.rto_deadline = None;
        self.ack_pending = false;
    }

    // ----- Segment input -----

    /// Process an incoming segment addressed to this connection.
    /// Follow with [`Tcp::poll`] to flush responses.
    pub fn on_segment(&mut self, now: SimTime, seg: &TcpSegment) -> TcpEvents {
        let mut ev = TcpEvents {
            data_ack: seg.data_ack(),
            ..TcpEvents::default()
        };
        if self.state == TcpState::Closed {
            return ev;
        }
        if seg.flags.rst() {
            self.abort();
            return ev;
        }
        self.peer_rwnd = seg.window;

        match self.state {
            TcpState::SynSent => {
                if seg.flags.syn() && seg.flags.ack() && seg.ack == 1 {
                    self.snd_una = 1;
                    self.snd_nxt = self.snd_nxt.max(1);
                    self.rcv_nxt = seg.seq + 1;
                    self.state = TcpState::Established;
                    self.rto_retries = 0;
                    self.rto_deadline = None;
                    let _ = self.take_rtt_sample_on_ack(now, seg.ack);
                    self.ack_pending = true;
                    ev.connected = true;
                }
                return ev;
            }
            TcpState::SynReceived => {
                if seg.flags.ack() && seg.ack >= 1 {
                    self.snd_una = self.snd_una.max(1);
                    self.state = TcpState::Established;
                    self.rto_retries = 0;
                    self.rto_deadline = None;
                    let _ = self.take_rtt_sample_on_ack(now, seg.ack);
                    ev.connected = true;
                    // Fall through: the ACK may carry data.
                } else if seg.flags.syn() && !seg.flags.ack() {
                    // Duplicate SYN: re-send the SYN-ACK.
                    self.ack_pending = true;
                    return ev;
                } else {
                    return ev;
                }
            }
            TcpState::Established => {}
            TcpState::Closed => return ev,
        }

        // --- Established processing ---
        if seg.flags.ack() {
            self.process_ack(now, seg);
        }
        if seg.payload_len > 0 {
            ev.delivered = self.process_payload(seg);
        }
        if seg.flags.fin() {
            let fin_seq = seg.seq + u64::from(seg.payload_len);
            self.peer_fin_seq = Some(fin_seq);
            self.ack_pending = true;
        }
        // Consume a peer FIN that is now in order.
        if let Some(fin_seq) = self.peer_fin_seq {
            if self.rcv_nxt == fin_seq {
                self.rcv_nxt = fin_seq + 1;
                self.ack_pending = true;
            }
        }
        self.maybe_close();
        ev
    }

    fn process_ack(&mut self, now: SimTime, seg: &TcpSegment) {
        let ack = seg.ack;
        if ack > self.snd_max.max(1) {
            return; // Acks data never sent; ignore.
        }
        // Merge the receiver's SACK blocks into the scoreboard. Fresh
        // SACK information permits another round of hole retransmission.
        let before = self.sacked.total();
        for (start, end) in seg.sack_blocks() {
            if end <= start || end > self.snd_max {
                continue; // Malformed or beyond anything sent.
            }
            if end > self.snd_una {
                self.sacked.merge(start.max(self.snd_una), end);
            }
        }
        if self.in_recovery && self.sacked.total() != before {
            self.force_retransmit_head = true;
        }
        if ack > self.snd_una {
            // After a go-back-N rewind the cumulative ACK may be ahead of
            // the resend position; skip what the receiver already has.
            self.snd_nxt = self.snd_nxt.max(ack);
            let newly = ack - self.snd_una;
            self.snd_una = ack;
            self.rto_retries = 0;
            self.sacked.trim_below(ack);
            self.retx_next = self.snd_una;
            let rtt = self.take_rtt_sample_on_ack(now, ack);
            let flight = self.effective_flight();

            if self.in_recovery {
                if ack >= self.recover {
                    // Full ACK: leave recovery.
                    self.in_recovery = false;
                    self.force_retransmit_head = false;
                    self.cc
                        .on_ack(now, newly, rtt, AckKind::RecoveryFull, flight);
                    self.dup_acks = 0;
                } else {
                    // Partial ACK (NewReno): retransmit next hole.
                    self.cc
                        .on_ack(now, newly, rtt, AckKind::RecoveryPartial, flight);
                    self.force_retransmit_head = true;
                }
            } else {
                self.dup_acks = 0;
                self.cc.on_ack(now, newly, rtt, AckKind::Open, flight);
            }
            // Restart the RTO for remaining flight.
            self.rto_deadline = if self.outstanding() {
                Some(now + self.rto)
            } else {
                None
            };
            if self.fin_sent && ack > self.fin_seq() {
                self.fin_acked = true;
            }
        } else if ack == self.snd_una
            && seg.payload_len == 0
            && !seg.flags.syn()
            && !seg.flags.fin()
            && self.snd_max > self.snd_una
        {
            // Duplicate ACK. (No window inflation: with SACK, sending
            // during recovery is pipe-limited per RFC 6675 — the
            // selectively-acked credit in the window check plays the
            // role NewReno's inflation did.)
            self.dup_acks += 1;
            if self.in_recovery {
                // Scoreboard updates above may have exposed new holes.
            } else if self.dup_acks >= 3 && !self.sacked.is_empty() {
                // Fast retransmit / SACK-based loss recovery: duplicate
                // ACKs alone are not loss evidence (our own spurious
                // retransmissions also produce them) — a real hole shows
                // up as SACKed data above snd_una (RFC 6675 spirit).
                self.fast_retx_events += 1;
                self.metrics.fast_retx.inc();
                telemetry::trace_instant("tcp.fast_retransmit", "tcp", now.as_nanos());
                let flight = self.effective_flight();
                self.cc.on_loss(now, LossKind::FastRetransmit, flight);
                self.in_recovery = true;
                self.recover = self.snd_nxt;
                self.force_retransmit_head = true;
                self.retx_next = self.snd_una;
                self.rtt_sample = None; // Karn.
            }
        }
    }

    fn process_payload(&mut self, seg: &TcpSegment) -> u64 {
        let start = seg.seq;
        let end = seg.seq + u64::from(seg.payload_len);
        self.ack_pending = true;
        if end <= self.rcv_nxt {
            return 0; // Entirely duplicate.
        }
        let before = self.rcv_nxt;
        if start <= self.rcv_nxt {
            // Absorb any now-contiguous out-of-order ranges.
            self.rcv_nxt = self.ooo.absorb(end);
        } else {
            self.ooo.insert_max(start, end);
            self.ooo_recent = Some(start);
        }
        let delivered = self.rcv_nxt - before;
        self.delivered_unread += delivered;
        delivered
    }

    fn maybe_close(&mut self) {
        let peer_done = self.peer_fin_seq.is_some_and(|fin| self.rcv_nxt > fin);
        if self.fin_acked && peer_done {
            self.state = TcpState::Closed;
            self.rto_deadline = None;
        }
    }

    // ----- Output -----

    /// Emit all segments that are due at `now`, as packets from the
    /// local to the remote address.
    pub fn poll(&mut self, now: SimTime, out: &mut Vec<Packet>) {
        // Discard a stale RTT sample (its segment was probably lost);
        // otherwise a single loss freezes RTT estimation forever.
        if let Some((_, sent_at)) = self.rtt_sample {
            if now.saturating_since(sent_at) > self.rto * 2 {
                self.rtt_sample = None;
            }
        }
        // RTO expiry.
        if let Some(deadline) = self.rto_deadline {
            if now >= deadline {
                self.on_rto(now);
            }
        }
        match self.state {
            TcpState::SynSent => {
                if self.syn_pending {
                    out.push(self.make_syn());
                    self.syn_pending = false;
                    self.ack_pending = false;
                }
            }
            TcpState::SynReceived => {
                if self.syn_pending || self.ack_pending {
                    out.push(self.make_syn_ack());
                    self.syn_pending = false;
                    self.ack_pending = false;
                }
            }
            TcpState::Established => {
                self.emit_data(now, out);
                if self.ack_pending {
                    out.push(self.make_ack());
                    self.ack_pending = false;
                }
            }
            TcpState::Closed => {}
        }
        if self.outstanding() && self.rto_deadline.is_none() {
            self.rto_deadline = Some(now + self.rto);
        }
    }

    /// The earliest timer deadline (RTO only; immediate work is flushed
    /// synchronously by `poll`).
    #[must_use]
    #[inline]
    pub fn poll_at(&self) -> Option<SimTime> {
        self.rto_deadline
    }

    fn emit_data(&mut self, now: SimTime, out: &mut Vec<Packet>) {
        // Loss recovery: fill holes the SACK scoreboard exposes, lowest
        // first. Armed once per ACK/SACK event (never per poll) so
        // retransmissions stay ACK-clocked like RFC 6675's pipe rule.
        if self.in_recovery && self.force_retransmit_head {
            self.force_retransmit_head = false;
            let mut quota = 2u32;
            let mut seq = self.retx_next.max(self.snd_una);
            while quota > 0 && seq < self.snd_max.min(self.app_limit()) {
                if let Some((_, covered_to)) = self.sacked.covering(seq) {
                    seq = covered_to;
                    continue;
                }
                let hole_end = self.sacked.next_start(seq).unwrap_or(self.snd_max);
                let len = self.sendable_at(seq).min((hole_end - seq) as u32);
                if len == 0 {
                    break;
                }
                out.push(self.make_data(seq, len));
                self.rtt_sample = None; // Karn: no sampling over retransmits.
                seq += u64::from(len);
                quota -= 1;
            }
            self.retx_next = seq;
        }
        // Fresh data within the window; selectively-acked bytes don't
        // count against the congestion window (pipe accounting).
        loop {
            let window = (self.cc.cwnd() as u64)
                .min(u64::from(self.peer_rwnd))
                .saturating_add(self.sacked.total());
            let limit = self.snd_una + window;
            if self.snd_nxt >= limit {
                break;
            }
            let available = self.app_limit().saturating_sub(self.snd_nxt);
            if available == 0 {
                break;
            }
            let window_room = limit - self.snd_nxt;
            let len = available.min(u64::from(self.cfg.mss)).min(window_room) as u32;
            if len == 0 {
                break;
            }
            // Sender-side silly-window avoidance (RFC 1122 §4.2.3.4):
            // never emit a sub-MSS segment unless it carries the final
            // bytes of application data.
            if u64::from(len) < u64::from(self.cfg.mss).min(available) {
                break;
            }
            out.push(self.make_data(self.snd_nxt, len));
            // Only fresh (never-sent) data is eligible for RTT sampling.
            if self.rtt_sample.is_none() && self.snd_nxt == self.snd_max {
                self.rtt_sample = Some((self.snd_nxt + u64::from(len), now));
            }
            self.snd_nxt += u64::from(len);
            self.snd_max = self.snd_max.max(self.snd_nxt);
        }
        // FIN when everything is sent.
        if self.fin_requested && !self.fin_sent && self.snd_nxt == self.app_limit() {
            self.fin_sent = true;
            let mut seg = self.base_segment();
            seg.seq = self.snd_nxt;
            seg.flags = TcpFlags::FIN_ACK;
            self.snd_nxt += 1; // FIN occupies one sequence number.
            self.snd_max = self.snd_max.max(self.snd_nxt);
            out.push(self.packet(seg));
            self.ack_pending = false;
        }
    }

    /// How many payload bytes can be (re)sent starting at `seq`.
    fn sendable_at(&self, seq: u64) -> u32 {
        let end = self.snd_max.min(self.app_limit());
        end.saturating_sub(seq).min(u64::from(self.cfg.mss)) as u32
    }

    fn on_rto(&mut self, now: SimTime) {
        self.rto_deadline = None;
        if !self.outstanding() {
            return;
        }
        self.rto_retries += 1;
        if self.rto_retries > self.cfg.max_rto_retries {
            self.abort();
            return;
        }
        match self.state {
            TcpState::SynSent | TcpState::SynReceived => {
                self.syn_pending = true;
            }
            TcpState::Established => {
                // Go-back-N from snd_una (SACKed ranges are skipped by
                // the hole filler once recovery re-enters).
                self.rto_events += 1;
                self.metrics.rto_fired.inc();
                telemetry::trace_instant("tcp.rto", "tcp", now.as_nanos());
                self.cc.on_rto(now);
                self.in_recovery = false;
                self.dup_acks = 0;
                self.retx_next = self.snd_una;
                self.snd_nxt = self.snd_una;
                if self.fin_sent && !self.fin_acked {
                    self.fin_sent = false; // Will be re-emitted after data.
                }
                self.rtt_sample = None;
            }
            TcpState::Closed => return,
        }
        self.rto = (self.rto * 2).min(self.cfg.max_rto);
        self.rto_deadline = Some(now + self.rto);
    }

    /// Arm the retransmission timer (handshake phase).
    fn arm_rto(&mut self, now: SimTime) {
        self.rto_deadline = Some(now + self.rto);
    }

    /// Outstanding bytes actually believed in flight (RFC 6675 pipe-ish):
    /// sent minus cumulative-acked minus selectively-acked.
    fn effective_flight(&self) -> u64 {
        (self.snd_max - self.snd_una).saturating_sub(self.sacked.total())
    }

    fn outstanding(&self) -> bool {
        match self.state {
            TcpState::SynSent | TcpState::SynReceived => true,
            TcpState::Established => self.snd_max > self.snd_una,
            TcpState::Closed => false,
        }
    }

    fn app_limit(&self) -> u64 {
        // Sequence space: SYN occupies byte 0; app data starts at 1.
        match self.app_written {
            Some(total) => total + 1,
            None => u64::MAX / 2,
        }
    }

    fn fin_seq(&self) -> u64 {
        self.app_limit()
    }

    /// Complete a pending RTT measurement if `ack` covers it: update
    /// srtt/rttvar/RTO (RFC 6298) and return the raw sample so the
    /// caller can report it to congestion control.
    fn take_rtt_sample_on_ack(&mut self, now: SimTime, ack: u64) -> Option<SimDuration> {
        let sample = match self.state {
            // Handshake ACK samples the SYN round trip.
            TcpState::Established if self.srtt.is_none() && self.rtt_sample.is_none() => {
                // SYN was sent at connection creation; approximate with the
                // configured initial RTO start (no stored timestamp) — skip.
                None
            }
            _ => self.rtt_sample,
        };
        if let Some((seq_end, sent_at)) = sample {
            if ack >= seq_end {
                let r = now.since(sent_at);
                match self.srtt {
                    None => {
                        self.srtt = Some(r);
                        self.rttvar = r / 2;
                    }
                    Some(srtt) => {
                        // RFC 6298: beta=1/4, alpha=1/8.
                        let delta = if r > srtt { r - srtt } else { srtt - r };
                        self.rttvar = (self.rttvar * 3 + delta) / 4;
                        self.srtt = Some((srtt * 7 + r) / 8);
                    }
                }
                let srtt = self.srtt.unwrap();
                self.metrics.srtt_ns.record(srtt.as_nanos());
                self.metrics.cwnd_bytes.record(self.cc.cwnd() as u64);
                let var4 = self.rttvar * 4;
                let floor = SimDuration::from_millis(1);
                self.rto = (srtt + var4.max(floor))
                    .max(self.cfg.min_rto)
                    .min(self.cfg.max_rto);
                self.rtt_sample = None;
                return Some(r);
            }
        }
        None
    }

    // ----- Segment construction -----

    fn packet(&self, seg: TcpSegment) -> Packet {
        Packet::tcp(self.local.ip, self.remote.ip, seg)
    }

    fn base_segment(&mut self) -> TcpSegment {
        let mut seg = TcpSegment::new(self.local.port, self.remote.port, TcpFlags::ACK);
        seg.ack = self.rcv_nxt;
        seg.window = self.cfg.rwnd;
        seg.set_mp(self.pending_mp.take());
        seg.set_data_ack(self.data_ack_out);
        push_sack_blocks(&mut seg, &self.ooo, self.ooo_recent, &mut self.sack_rotate);
        seg
    }

    fn make_syn(&mut self) -> Packet {
        let mut seg = self.base_segment();
        // Nothing is received before the handshake, so no SACK block
        // hangs off the `ack` this rewrites.
        debug_assert_eq!(seg.sack_len(), 0);
        seg.ack = 0;
        seg.flags = TcpFlags::SYN;
        seg.set_mp(self.syn_mp);
        seg.set_data_ack(None);
        self.snd_nxt = self.snd_nxt.max(1);
        self.snd_max = self.snd_max.max(1);
        self.packet(seg)
    }

    fn make_syn_ack(&mut self) -> Packet {
        let mut seg = self.base_segment();
        seg.flags = TcpFlags::SYN_ACK;
        seg.set_mp(self.syn_mp);
        self.snd_nxt = self.snd_nxt.max(1);
        self.snd_max = self.snd_max.max(1);
        self.packet(seg)
    }

    fn make_ack(&mut self) -> Packet {
        let seg = self.base_segment();
        self.packet(seg)
    }

    fn make_data(&mut self, seq: u64, len: u32) -> Packet {
        let mut seg = self.base_segment();
        seg.seq = seq;
        seg.payload_len = len;
        if let Some(base) = self.data_base {
            // Data bytes start at subflow seq 1 (0 is the SYN).
            seg.set_data_seq(Some(base + (seq - 1)));
        }
        self.ack_pending = false; // Data segments carry the ACK.
        self.packet(seg)
    }
}

/// Advertise up to [`MAX_SACK_BLOCKS`] out-of-order ranges (RFC 2018):
/// the one holding the most recently received segment first, then the
/// queue's entries by index from `rotate` on, so the sender's scoreboard
/// converges on the full picture across successive ACKs.
pub(crate) fn push_sack_blocks(
    seg: &mut TcpSegment,
    ooo: &RangeSet,
    recent: Option<u64>,
    rotate: &mut usize,
) {
    if let Some((start, end)) = recent.and_then(|r| ooo.covering(r)) {
        seg.push_sack(start, end);
    }
    let blocks = ooo.as_slice();
    let n = blocks.len();
    if n == 0 {
        return;
    }
    let mut idx = *rotate;
    for _ in 0..n {
        if seg.sack_len() >= MAX_SACK_BLOCKS {
            break;
        }
        let block = blocks[idx % n];
        if !seg.sack_blocks().any(|b| b == block) {
            seg.push_sack(block.0, block.1);
        }
        idx += 1;
    }
    *rotate = idx % n;
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use cellbricks_net::PacketKind;
    use cellbricks_sim::SimRng;
    use std::net::Ipv4Addr;

    pub(crate) fn ep(last: u8, port: u16) -> EndpointAddr {
        EndpointAddr::new(Ipv4Addr::new(10, 0, 0, last), port)
    }

    /// The segment of a packet `Tcp::poll` emitted.
    pub(crate) fn seg_of(pkt: Packet) -> TcpSegment {
        match pkt.kind {
            PacketKind::Tcp(seg) => seg,
            other => panic!("Tcp emitted {other:?}"),
        }
    }

    /// Drive two Tcp endpoints through an in-memory, fixed-delay channel
    /// (lossless unless told otherwise) until quiescent or `steps`
    /// exhausted.
    pub(crate) struct Loopback {
        pub(crate) a: Tcp,
        pub(crate) b: Tcp,
        pub(crate) now: SimTime,
        pub(crate) delay: SimDuration,
        /// In-flight segments: (deliver_at, to_b?, segment).
        pub(crate) wire: Vec<(SimTime, bool, TcpSegment)>,
        /// Segments to drop (by global emission index), for loss tests.
        pub(crate) drop_indices: Vec<usize>,
        /// Payload-bearing segments to drop (by data-emission index);
        /// pure ACKs always pass.
        pub(crate) drop_data_indices: Vec<usize>,
        /// Seeded loss and extra delay for every segment, both ways.
        pub(crate) perturb: Option<Perturb>,
        pub(crate) emitted: usize,
        pub(crate) data_emitted: usize,
    }

    /// Each segment is dropped with probability `loss`, else delayed by
    /// an extra uniform draw below `max_extra`, so segments overtake one
    /// another.
    pub(crate) struct Perturb {
        pub(crate) rng: SimRng,
        pub(crate) loss: f64,
        pub(crate) max_extra: SimDuration,
    }

    impl Loopback {
        fn new(a: Tcp, b: Tcp) -> Self {
            Self {
                a,
                b,
                now: SimTime::ZERO,
                delay: SimDuration::from_millis(10),
                wire: Vec::new(),
                drop_indices: Vec::new(),
                drop_data_indices: Vec::new(),
                perturb: None,
                emitted: 0,
                data_emitted: 0,
            }
        }

        fn offer(&mut self, to_b: bool, seg: TcpSegment) {
            let idx = self.emitted;
            self.emitted += 1;
            let mut drop = self.drop_indices.contains(&idx);
            if seg.payload_len > 0 {
                let didx = self.data_emitted;
                self.data_emitted += 1;
                drop |= self.drop_data_indices.contains(&didx);
            }
            let mut at = self.now + self.delay;
            if let Some(p) = &mut self.perturb {
                drop |= p.rng.chance(p.loss);
                at += SimDuration::from_nanos(p.rng.uniform_u64(0, p.max_extra.as_nanos()));
            }
            if !drop {
                self.wire.push((at, to_b, seg));
            }
        }

        fn flush(&mut self) {
            let mut out = Vec::new();
            self.a.poll(self.now, &mut out);
            for pkt in out.drain(..) {
                self.offer(true, seg_of(pkt));
            }
            self.b.poll(self.now, &mut out);
            for pkt in out.drain(..) {
                self.offer(false, seg_of(pkt));
            }
        }

        /// Advance to the next wire delivery or timer; returns false when idle.
        pub(crate) fn step(&mut self) -> bool {
            self.flush();
            let next_wire = self.wire.iter().map(|(t, ..)| *t).min();
            let next_timer = [self.a.poll_at(), self.b.poll_at()]
                .into_iter()
                .flatten()
                .min();
            let next = match (next_wire, next_timer) {
                (Some(w), Some(t)) => w.min(t),
                (Some(w), None) => w,
                (None, Some(t)) => t,
                (None, None) => return false,
            };
            self.now = self.now.max(next);
            let due: Vec<_> = {
                let now = self.now;
                let mut due = Vec::new();
                self.wire.retain(|(t, to_b, seg)| {
                    if *t <= now {
                        due.push((*to_b, seg.clone()));
                        false
                    } else {
                        true
                    }
                });
                due
            };
            for (to_b, seg) in due {
                if to_b {
                    self.b.on_segment(self.now, &seg);
                } else {
                    self.a.on_segment(self.now, &seg);
                }
            }
            self.flush();
            true
        }

        pub(crate) fn run(&mut self, steps: usize) {
            for _ in 0..steps {
                if !self.step() {
                    break;
                }
            }
        }
    }

    pub(crate) fn pair() -> Loopback {
        let now = SimTime::ZERO;
        let client = Tcp::connect(TcpConfig::default(), ep(1, 4000), ep(2, 80), now, None);
        // Simulate the listener: build the SYN by polling the client once.
        let mut out = Vec::new();
        let mut client = client;
        client.poll(now, &mut out);
        let syn = seg_of(out.pop().unwrap());
        assert_eq!(
            syn.sack_len(),
            0,
            "a SYN rewrites `ack`: no block may hang off it"
        );
        let server = Tcp::accept(TcpConfig::default(), ep(2, 80), ep(1, 4000), &syn, now);
        Loopback::new(client, server)
    }

    #[test]
    fn handshake_establishes_both_sides() {
        let mut lb = pair();
        lb.run(10);
        assert!(lb.a.is_established());
        assert!(lb.b.is_established());
    }

    #[test]
    fn data_transfer_completes() {
        let mut lb = pair();
        lb.a.write(100_000);
        lb.run(500);
        assert_eq!(lb.b.take_delivered(), 100_000);
        assert_eq!(lb.a.bytes_acked(), 100_000);
    }

    #[test]
    fn bidirectional_transfer() {
        let mut lb = pair();
        lb.a.write(40_000);
        lb.b.write(25_000);
        lb.run(500);
        assert_eq!(lb.b.take_delivered(), 40_000);
        assert_eq!(lb.a.take_delivered(), 25_000);
    }

    #[test]
    fn slow_start_doubles_cwnd() {
        let mut lb = pair();
        lb.a.set_bulk();
        let init = lb.a.cwnd();
        // One RTT of acks should roughly double cwnd in slow start.
        for _ in 0..6 {
            lb.step();
        }
        assert!(
            lb.a.cwnd() >= init * 2 - 1460,
            "cwnd {} not doubled from {init}",
            lb.a.cwnd()
        );
    }

    #[test]
    fn lost_data_segment_recovered_by_fast_retransmit() {
        let mut lb = pair();
        // Drop the 4th data segment of the first burst; ACKs still flow,
        // so triple duplicate ACKs trigger fast retransmit.
        lb.drop_data_indices = vec![3];
        lb.a.write(60_000);
        lb.run(800);
        assert_eq!(lb.b.take_delivered(), 60_000, "receiver got all data");
        assert_eq!(lb.a.bytes_acked(), 60_000);
    }

    #[test]
    fn lost_syn_retried_by_rto() {
        let mut lb = pair();
        lb.drop_indices = vec![0]; // The first SYN... already captured in pair();
                                   // pair() already consumed the first SYN to build the server, so drop
                                   // the retransmitted one instead and ensure we still establish.
        lb.run(50);
        assert!(lb.a.is_established());
        assert!(lb.b.is_established());
    }

    #[test]
    fn rto_recovers_from_burst_loss() {
        let mut lb = pair();
        // Drop a long run of data segments (ACKs still flow); recovery
        // must eventually come from RTOs / NewReno hole-filling.
        lb.drop_data_indices = (5..15).collect();
        lb.a.write(30_000);
        lb.run(2000);
        assert_eq!(lb.b.take_delivered(), 30_000);
    }

    #[test]
    fn srtt_converges_to_path_rtt() {
        let mut lb = pair();
        lb.a.write(200_000);
        lb.run(1000);
        let srtt = lb.a.srtt().expect("sampled");
        let rtt_ms = srtt.as_millis_f64();
        assert!((rtt_ms - 20.0).abs() < 10.0, "srtt {rtt_ms} ms");
    }

    #[test]
    fn fin_closes_both_sides() {
        let mut lb = pair();
        lb.a.write(5_000);
        lb.a.close();
        lb.b.close();
        lb.run(500);
        assert_eq!(lb.a.state(), TcpState::Closed);
        assert_eq!(lb.b.state(), TcpState::Closed);
        assert!(!lb.a.is_aborted());
    }

    #[test]
    fn abort_after_max_retries() {
        let now = SimTime::ZERO;
        let mut client = Tcp::connect(TcpConfig::default(), ep(1, 1), ep(2, 2), now, None);
        // Never deliver anything; just fire timers until abort.
        let mut out = Vec::new();
        let mut now = now;
        for _ in 0..64 {
            client.poll(now, &mut out);
            out.clear();
            match client.poll_at() {
                Some(t) => now = t,
                None => break,
            }
        }
        assert!(client.is_aborted());
    }

    #[test]
    fn rst_aborts() {
        let mut lb = pair();
        lb.run(5);
        let rst = TcpSegment::new(80, 4000, TcpFlags::RST);
        lb.a.on_segment(lb.now, &rst);
        assert!(lb.a.is_aborted());
    }

    #[test]
    fn out_of_order_delivery_counts_once() {
        let mut lb = pair();
        lb.a.write(14_600); // Exactly 10 MSS.
        lb.run(500);
        assert_eq!(lb.b.take_delivered(), 14_600);
        // A second read returns nothing.
        assert_eq!(lb.b.take_delivered(), 0);
    }

    #[test]
    fn mp_syn_option_carried() {
        let now = SimTime::ZERO;
        let mut client = Tcp::connect(
            TcpConfig::default(),
            ep(1, 1),
            ep(2, 2),
            now,
            Some(MpSignal::Capable { token: 99 }),
        );
        let mut out = Vec::new();
        client.poll(now, &mut out);
        let syn = seg_of(out.remove(0));
        assert_eq!(syn.mp(), Some(MpSignal::Capable { token: 99 }));
    }

    #[test]
    fn data_base_stamps_dss() {
        // Drive the handshake by hand so we can observe the first data
        // segment directly.
        let now = SimTime::ZERO;
        let mut client = Tcp::connect(TcpConfig::default(), ep(1, 4000), ep(2, 80), now, None);
        let mut out = Vec::new();
        client.poll(now, &mut out);
        let syn = seg_of(out.pop().unwrap());
        let mut server = Tcp::accept(TcpConfig::default(), ep(2, 80), ep(1, 4000), &syn, now);
        server.poll(now, &mut out);
        let syn_ack = seg_of(out.pop().unwrap());
        client.on_segment(now, &syn_ack);
        assert!(client.is_established());
        client.data_base = Some(1000);
        client.write(1460);
        client.poll(now, &mut out);
        let data_seg = (out.into_iter().map(seg_of))
            .find(|s| s.payload_len > 0)
            .expect("data");
        // First app byte is subflow seq 1 -> data_seq = 1000.
        assert_eq!(data_seg.data_seq(), Some(1000));
    }
}

#[cfg(test)]
mod proptests {
    use super::tests::*;
    use cellbricks_sim::{SimDuration, SimRng};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Exactly-once in-order delivery under arbitrary data-segment
        /// loss patterns: whatever is dropped, the receiver ends up with
        /// exactly the bytes written, and the sender knows it.
        #[test]
        fn prop_delivery_exact_under_loss(
            bytes in 1_000u64..120_000,
            drops in proptest::collection::btree_set(0usize..60, 0..12),
        ) {
            let mut lb = pair();
            lb.drop_data_indices = drops.into_iter().collect();
            lb.a.write(bytes);
            lb.run(4000);
            prop_assert_eq!(lb.b.take_delivered(), bytes);
            prop_assert_eq!(lb.a.bytes_acked(), bytes);
        }

        /// cwnd never collapses below one MSS and flight never exceeds
        /// what was actually sent.
        #[test]
        fn prop_cwnd_and_flight_invariants(
            bytes in 10_000u64..80_000,
            drops in proptest::collection::btree_set(0usize..40, 0..8),
        ) {
            let mut lb = pair();
            lb.drop_data_indices = drops.into_iter().collect();
            lb.a.write(bytes);
            for _ in 0..2000 {
                if !lb.step() {
                    break;
                }
                prop_assert!(lb.a.cwnd() >= 1460);
                prop_assert!(lb.a.snd_max - lb.a.snd_una <= bytes + 2);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Exactly-once in-order delivery both ways when every segment,
        /// ACKs and handshake included, may be lost or overtaken (extra
        /// delay up to 5× the path's 20 ms RTT): the exchange goes quiet
        /// within the step budget, and after every step each sender's
        /// running SACK total equals a recount. (Loss stays below 15 %:
        /// past that, nine straight losses of one segment or its ACK —
        /// the connection's abort rule — stop being rare.)
        #[test]
        fn prop_delivery_exact_under_loss_and_reordering(
            seed in any::<u64>(),
            bytes in (1_000u64..150_000, 0u64..30_000),
            loss_pct in 0u32..15,
            max_extra_ms in 1u64..100,
        ) {
            let mut lb = pair();
            lb.perturb = Some(Perturb {
                rng: SimRng::new(seed),
                loss: f64::from(loss_pct) / 100.0,
                max_extra: SimDuration::from_millis(max_extra_ms),
            });
            lb.a.write(bytes.0);
            lb.b.write(bytes.1);
            let mut quiet = false;
            for _ in 0..20_000 {
                if !lb.step() {
                    quiet = true;
                    break;
                }
                for tcp in [&lb.a, &lb.b] {
                    let recount: u64 = tcp.sacked.as_slice().iter().map(|&(s, e)| e - s).sum();
                    prop_assert_eq!(tcp.sacked.total(), recount);
                }
            }
            prop_assert!(quiet, "still busy after the step budget at {}", lb.now);
            prop_assert_eq!(lb.b.take_delivered(), bytes.0);
            prop_assert_eq!(lb.a.take_delivered(), bytes.1);
            prop_assert_eq!(lb.a.bytes_acked(), bytes.0);
            prop_assert_eq!(lb.b.bytes_acked(), bytes.1);
        }
    }
}
