//! A QUIC-style datagram transport with connection migration.
//!
//! The paper names QUIC as the other standardized transport whose explicit
//! connection identifiers make host-driven mobility work ("These protocols
//! have explicit connection identifiers within their L4 header and use IP
//! addresses only for packet delivery", §4.2) and leaves exploring it to
//! future work. This module is that exploration: a minimal QUIC-like
//! protocol — connection IDs, packet-number-based ACK ranges, RFC 9002
//! NewReno congestion control with a probe timeout, and **path migration**
//! (the client simply continues from its new address; the server validates
//! the new path with PATH_CHALLENGE/RESPONSE and re-targets, RFC 9000 §9).
//!
//! Unlike MPTCP's break-before-make subflow replacement, migration needs
//! no new handshake and no address-worker delay, which is exactly the
//! difference the `quic_ablation` figure (`repro --figure quic_ablation`)
//! measures.
//!
//! Sans-IO design: the connection consumes datagrams and emits datagrams;
//! the caller moves them (over a [`crate::Host`] UDP socket or anything
//! else). Headers are real encoded bytes; stream payload is content-free
//! padding, like the TCP model.

use crate::ranges::RangeSet;
use bytes::Bytes;
use cellbricks_net::EndpointAddr;
use cellbricks_sim::{SimDuration, SimTime};
use std::collections::BTreeMap;

const MAX_DATAGRAM_PAYLOAD: u32 = 1200;
/// Connection flow-control limit (the `max_data` credit a real QUIC peer
/// would advertise): caps how far the window can grow.
const MAX_WINDOW: f64 = 4.0 * 1024.0 * 1024.0;

/// Wire frames (encoded into the datagram's real-bytes header).
#[derive(Clone, Debug, PartialEq, Eq)]
enum Frame {
    /// Client hello / server hello (the 1-RTT-ish handshake).
    Hello { is_server: bool },
    /// Stream data: `[offset, offset + len)` of the single stream
    /// (content-free; `len` is carried as datagram padding).
    Stream { offset: u64, len: u32 },
    /// Cumulative + ranged acknowledgement of packet numbers.
    Ack {
        /// All packet numbers below this are received.
        cumulative: u64,
        /// Up to 3 additional received ranges `[start, end)`.
        ranges: Vec<(u64, u64)>,
    },
    /// Path validation challenge (server → client on a new path).
    PathChallenge { token: u64 },
    /// Path validation response.
    PathResponse { token: u64 },
}

fn encode_header(conn_id: u64, pkt_num: u64, frames: &[Frame]) -> Bytes {
    use cellbricks_net::wire::Writer;
    let mut w = Writer::new();
    w.put_u64(conn_id)
        .put_u64(pkt_num)
        .put_u8(frames.len() as u8);
    for f in frames {
        match f {
            Frame::Hello { is_server } => {
                w.put_u8(1).put_u8(u8::from(*is_server));
            }
            Frame::Stream { offset, len } => {
                w.put_u8(2).put_u64(*offset).put_u32(*len);
            }
            Frame::Ack { cumulative, ranges } => {
                w.put_u8(3).put_u64(*cumulative).put_u8(ranges.len() as u8);
                for (s, e) in ranges {
                    w.put_u64(*s).put_u64(*e);
                }
            }
            Frame::PathChallenge { token } => {
                w.put_u8(4).put_u64(*token);
            }
            Frame::PathResponse { token } => {
                w.put_u8(5).put_u64(*token);
            }
        }
    }
    w.finish()
}

fn decode_header(bytes: &[u8]) -> Option<(u64, u64, Vec<Frame>)> {
    use cellbricks_net::wire::Reader;
    let mut r = Reader::new(bytes);
    let conn_id = r.get_u64()?;
    let pkt_num = r.get_u64()?;
    let n = r.get_u8()?;
    let mut frames = Vec::with_capacity(usize::from(n));
    for _ in 0..n {
        let f = match r.get_u8()? {
            1 => Frame::Hello {
                is_server: r.get_u8()? != 0,
            },
            2 => Frame::Stream {
                offset: r.get_u64()?,
                len: r.get_u32()?,
            },
            3 => {
                let cumulative = r.get_u64()?;
                let k = r.get_u8()?;
                let mut ranges = Vec::with_capacity(usize::from(k));
                for _ in 0..k {
                    ranges.push((r.get_u64()?, r.get_u64()?));
                }
                Frame::Ack { cumulative, ranges }
            }
            4 => Frame::PathChallenge {
                token: r.get_u64()?,
            },
            5 => Frame::PathResponse {
                token: r.get_u64()?,
            },
            _ => return None,
        };
        frames.push(f);
    }
    if !r.is_empty() {
        return None;
    }
    Some((conn_id, pkt_num, frames))
}

/// A datagram to put on the wire: `(destination, header bytes, padding)`.
pub type OutDatagram = (EndpointAddr, Bytes, u32);

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Role {
    Client,
    Server,
}

/// In-flight packet metadata for loss detection.
#[derive(Clone, Debug)]
struct Sent {
    at: SimTime,
    /// Stream range carried, if any.
    stream: Option<(u64, u32)>,
    size: u32,
}

/// A QUIC-like connection endpoint.
pub struct QuicConn {
    /// The connection identifier (chosen by the client).
    pub conn_id: u64,
    role: Role,
    /// Where we currently send (the peer's address; for the server this
    /// follows validated path migrations).
    peer: EndpointAddr,
    established: bool,

    // --- Send side ---
    next_pkt_num: u64,
    sent: BTreeMap<u64, Sent>,
    /// Total stream bytes the app wrote (None = unbounded bulk).
    app_written: Option<u64>,
    /// Next fresh stream offset to send.
    send_next: u64,
    /// Ranges needing retransmission.
    lost: RangeSet,
    // Congestion control (RFC 9002 NewReno).
    cwnd: f64,
    ssthresh: f64,
    in_flight: u64,
    recovery_start: Option<u64>,
    // Timers / RTT.
    srtt: Option<SimDuration>,
    rttvar: SimDuration,
    pto_deadline: Option<SimTime>,
    pto_count: u32,

    // --- Receive side ---
    rcv: RangeSet, // received stream ranges
    delivered_unread: u64,
    rcv_contig: u64,
    /// Received packet numbers (for ACK generation).
    rcv_pkts_cumulative: u64,
    rcv_pkts: RangeSet,
    ack_pending: bool,

    // --- Path management ---
    /// Last address the peer was seen from (server side migration cue).
    last_seen_from: Option<EndpointAddr>,
    /// Outstanding path challenge (token, candidate address).
    challenge: Option<(u64, EndpointAddr)>,
    next_token: u64,
    /// Token echoed on the next poll (client side of path validation).
    pending_path_response: Option<u64>,
    /// Server hello owed to the client.
    hello_pending: bool,
    /// Challenge token already transmitted (avoid re-sending every poll).
    challenge_sent: Option<u64>,
    /// Completed path migrations (diagnostics).
    pub migrations: u32,
}

impl QuicConn {
    /// Client side: open a connection to `server`.
    #[must_use]
    pub fn client(conn_id: u64, server: EndpointAddr, now: SimTime) -> QuicConn {
        let mut c = QuicConn::new(conn_id, Role::Client, server);
        c.pto_deadline = Some(now + c.pto());
        c
    }

    /// Server side: accept a connection first seen from `client`.
    #[must_use]
    pub fn server(conn_id: u64, client: EndpointAddr) -> QuicConn {
        QuicConn::new(conn_id, Role::Server, client)
    }

    fn new(conn_id: u64, role: Role, peer: EndpointAddr) -> QuicConn {
        QuicConn {
            conn_id,
            role,
            peer,
            established: false,
            next_pkt_num: 0,
            sent: BTreeMap::new(),
            app_written: Some(0),
            send_next: 0,
            lost: RangeSet::default(),
            cwnd: 10.0 * f64::from(MAX_DATAGRAM_PAYLOAD),
            ssthresh: f64::INFINITY,
            in_flight: 0,
            recovery_start: None,
            srtt: None,
            rttvar: SimDuration::ZERO,
            pto_deadline: None,
            pto_count: 0,
            rcv: RangeSet::default(),
            delivered_unread: 0,
            rcv_contig: 0,
            rcv_pkts_cumulative: 0,
            rcv_pkts: RangeSet::default(),
            ack_pending: false,
            last_seen_from: None,
            challenge: None,
            next_token: 1,
            pending_path_response: None,
            hello_pending: false,
            challenge_sent: None,
            migrations: 0,
        }
    }

    // ----- Application surface -----

    /// Queue `bytes` more stream data.
    pub fn write(&mut self, bytes: u64) {
        if let Some(total) = &mut self.app_written {
            *total += bytes;
        }
    }

    /// Unbounded data source.
    pub fn set_bulk(&mut self) {
        self.app_written = None;
    }

    /// Take the count of newly delivered in-order stream bytes.
    pub fn take_delivered(&mut self) -> u64 {
        std::mem::take(&mut self.delivered_unread)
    }

    /// Cumulative in-order stream bytes received.
    #[must_use]
    pub fn stream_received(&self) -> u64 {
        self.rcv_contig
    }

    /// True once the hello exchange completed.
    #[must_use]
    pub fn is_established(&self) -> bool {
        self.established
    }

    /// The validated peer address we currently send to.
    #[must_use]
    pub fn peer(&self) -> EndpointAddr {
        self.peer
    }

    /// Diagnostics: (cwnd, in_flight, unacked pkts, lost ranges, send_next, pto_deadline).
    #[must_use]
    pub fn debug_state(&self) -> (f64, u64, usize, usize, u64, Option<SimTime>) {
        (
            self.cwnd,
            self.in_flight,
            self.sent.len(),
            self.lost.as_slice().len(),
            self.send_next,
            self.pto_deadline,
        )
    }

    /// Diagnostics: (pkt cumulative, pkt ranges, unacked pkt numbers).
    #[must_use]
    pub fn debug_rcv(&self) -> (u64, Vec<(u64, u64)>, Vec<u64>) {
        (
            self.rcv_pkts_cumulative,
            self.rcv_pkts.as_slice().to_vec(),
            self.sent.keys().copied().collect(),
        )
    }

    // ----- Input -----

    /// Consume a datagram addressed to this connection.
    pub fn on_datagram(&mut self, now: SimTime, from: EndpointAddr, header: &[u8]) {
        let Some((conn_id, pkt_num, frames)) = decode_header(header) else {
            return;
        };
        if conn_id != self.conn_id {
            return;
        }
        // Record receipt; only ack-eliciting frames (anything but a pure
        // ACK) trigger an acknowledgement, or ACKs would ping-pong forever.
        self.note_received_pkt(pkt_num);
        if frames.iter().any(|f| !matches!(f, Frame::Ack { .. })) {
            self.ack_pending = true;
        }

        // Path migration (server side): data from an unvalidated address
        // triggers a challenge; we keep sending to the validated path
        // until the response arrives (RFC 9000 §9).
        if self.role == Role::Server
            && from != self.peer
            && self
                .challenge
                .is_none_or(|(_, candidate)| candidate != from)
        {
            let token = self.next_token;
            self.next_token += 1;
            self.challenge = Some((token, from));
        }
        self.last_seen_from = Some(from);

        for frame in frames {
            match frame {
                Frame::Hello { is_server } => {
                    if self.role == Role::Client && is_server {
                        self.established = true;
                    }
                    if self.role == Role::Server && !is_server && !self.established {
                        self.established = true;
                        self.hello_pending = true;
                    }
                }
                Frame::Stream { offset, len } => {
                    self.on_stream(offset, u64::from(len));
                }
                Frame::Ack { cumulative, ranges } => {
                    self.on_ack(now, cumulative, &ranges);
                }
                Frame::PathChallenge { token } => {
                    // Client echoes immediately (from its current address).
                    if self.role == Role::Client {
                        self.pending_path_response = Some(token);
                    }
                }
                Frame::PathResponse { token } => {
                    if let Some((expected, candidate)) = self.challenge {
                        if token == expected {
                            self.peer = candidate;
                            self.challenge = None;
                            self.migrations += 1;
                        }
                    }
                }
            }
        }
    }

    /// The client's local address changed (CellBricks attach): nothing to
    /// tear down — subsequent datagrams simply leave from the new address
    /// and the server validates the new path.
    pub fn on_local_addr_change(&mut self) {
        // Trigger an immediate packet so the server learns the new path
        // without waiting for application data.
        self.ack_pending = true;
        self.pto_count = 0;
    }

    fn note_received_pkt(&mut self, pkt_num: u64) {
        if pkt_num < self.rcv_pkts_cumulative {
            return;
        }
        // Coalesce with adjacent ranges so a single hole leaves a single
        // range above it (ACK frames carry at most 3 ranges).
        self.rcv_pkts.merge(pkt_num, pkt_num + 1);
        self.rcv_pkts_cumulative = self.rcv_pkts.absorb(self.rcv_pkts_cumulative);
    }

    fn on_stream(&mut self, offset: u64, len: u64) {
        let end = offset + len;
        if end <= self.rcv_contig {
            return;
        }
        self.rcv.merge(offset.max(self.rcv_contig), end);
        let before = self.rcv_contig;
        self.rcv_contig = self.rcv.absorb(self.rcv_contig);
        self.delivered_unread += self.rcv_contig - before;
    }

    fn on_ack(&mut self, now: SimTime, cumulative: u64, ranges: &[(u64, u64)]) {
        let mut newly_acked_bytes = 0u64;
        let mut latest_acked_at = None;
        let acked: Vec<u64> = self
            .sent
            .keys()
            .copied()
            .filter(|&p| p < cumulative || ranges.iter().any(|&(s, e)| p >= s && p < e))
            .collect();
        for p in acked {
            if let Some(meta) = self.sent.remove(&p) {
                newly_acked_bytes += u64::from(meta.size);
                self.in_flight = self.in_flight.saturating_sub(u64::from(meta.size));
                latest_acked_at = Some(meta.at);
            }
        }
        if newly_acked_bytes > 0 {
            self.pto_count = 0;
            // RTT sample from the newest acked packet.
            if let Some(at) = latest_acked_at {
                let r = now.saturating_since(at);
                match self.srtt {
                    None => {
                        self.srtt = Some(r);
                        self.rttvar = r / 2;
                    }
                    Some(srtt) => {
                        let delta = if r > srtt { r - srtt } else { srtt - r };
                        self.rttvar = (self.rttvar * 3 + delta) / 4;
                        self.srtt = Some((srtt * 7 + r) / 8);
                    }
                }
            }
            // Congestion: slow start or avoidance.
            if self.recovery_start.is_none_or(|r| cumulative > r) {
                self.recovery_start = None;
                if self.cwnd < self.ssthresh {
                    self.cwnd += newly_acked_bytes as f64;
                } else {
                    self.cwnd +=
                        f64::from(MAX_DATAGRAM_PAYLOAD) * (newly_acked_bytes as f64 / self.cwnd);
                }
                self.cwnd = self.cwnd.min(MAX_WINDOW);
            }
        }
        // Packet-threshold loss detection (RFC 9002 §6.1): a packet is
        // deemed lost once one sent 3+ packet numbers later is acked.
        let largest_acked = ranges
            .iter()
            .map(|&(_, e)| e)
            .max()
            .unwrap_or(0)
            .max(cumulative);
        let threshold = largest_acked.saturating_sub(3);
        let lost_pkts: Vec<u64> = self.sent.range(..threshold).map(|(&p, _)| p).collect();
        if !lost_pkts.is_empty() {
            for p in lost_pkts {
                if let Some(meta) = self.sent.remove(&p) {
                    self.in_flight = self.in_flight.saturating_sub(u64::from(meta.size));
                    if let Some((off, len)) = meta.stream {
                        self.lost.merge(off, off + u64::from(len));
                    }
                }
            }
            // One congestion reduction per recovery period.
            if self.recovery_start.is_none() {
                self.recovery_start = Some(self.next_pkt_num);
                self.ssthresh = (self.cwnd / 2.0).max(2.0 * f64::from(MAX_DATAGRAM_PAYLOAD));
                self.cwnd = self.ssthresh;
            }
        }
        self.pto_deadline = if self.sent.is_empty() {
            None
        } else {
            Some(now + self.pto())
        };
    }

    fn pto(&self) -> SimDuration {
        match self.srtt {
            Some(srtt) => {
                let base = srtt + (self.rttvar * 4).max(SimDuration::from_millis(1));
                base * 2u64.saturating_pow(self.pto_count).min(64)
            }
            None => SimDuration::from_millis(500) * 2u64.saturating_pow(self.pto_count).min(8),
        }
    }

    // ----- Output -----

    /// Emit all due datagrams at `now`.
    pub fn poll(&mut self, now: SimTime, out: &mut Vec<OutDatagram>) {
        // Probe timeout.
        if let Some(deadline) = self.pto_deadline {
            if now >= deadline {
                self.pto_count += 1;
                // Declare the oldest unacked packet lost: release its
                // congestion credit and queue its stream range for
                // retransmission (tail-loss probe, RFC 9002 §6.2).
                let oldest = self.sent.keys().next().copied();
                if let Some(p) = oldest {
                    if let Some(meta) = self.sent.remove(&p) {
                        self.in_flight = self.in_flight.saturating_sub(u64::from(meta.size));
                        if let Some((off, len)) = meta.stream {
                            self.lost.merge(off, off + u64::from(len));
                        }
                    }
                }
                self.pto_deadline = Some(now + self.pto());
            }
        }
        // Handshake.
        if !self.established && self.role == Role::Client {
            let frames = vec![Frame::Hello { is_server: false }];
            self.emit(now, frames, None, out);
        }
        if self.role == Role::Server && self.established && self.hello_pending {
            self.hello_pending = false;
            let frames = vec![Frame::Hello { is_server: true }];
            self.emit(now, frames, None, out);
        }
        // Path response (client side).
        if let Some(token) = self.pending_path_response.take() {
            self.emit(now, vec![Frame::PathResponse { token }], None, out);
        }
        // Path challenge (server side) — sent to the *candidate* address.
        if let Some((token, candidate)) = self.challenge {
            if self.challenge_sent != Some(token) {
                self.challenge_sent = Some(token);
                let header = encode_header(
                    self.conn_id,
                    self.next_pkt_num,
                    &[Frame::PathChallenge { token }],
                );
                self.next_pkt_num += 1;
                out.push((candidate, header, 0));
            }
        }
        // Stream data: retransmissions first, then fresh, within cwnd.
        if self.established {
            while (self.in_flight as f64) < self.cwnd {
                if let Some((s, e)) = self.lost.pop_front(u64::from(MAX_DATAGRAM_PAYLOAD)) {
                    self.emit(now, vec![], Some((s, (e - s) as u32)), out);
                    continue;
                }
                let limit = self.app_written.unwrap_or(u64::MAX / 2);
                let available = limit.saturating_sub(self.send_next);
                if available == 0 {
                    break;
                }
                let len = available.min(u64::from(MAX_DATAGRAM_PAYLOAD)) as u32;
                let off = self.send_next;
                self.send_next += u64::from(len);
                self.emit(now, vec![], Some((off, len)), out);
            }
        }
        // Standalone ACK if nothing else carried it.
        if self.ack_pending {
            self.ack_pending = false;
            let ack = self.make_ack();
            self.emit_unreliable(vec![ack], out);
        }
    }

    /// Earliest timer deadline.
    #[must_use]
    pub fn poll_at(&self) -> Option<SimTime> {
        self.pto_deadline
    }

    fn make_ack(&self) -> Frame {
        // RFC 9000 ACK frames describe ranges from the *largest* packet
        // number downward; reporting the newest ranges keeps the sender's
        // loss-detection threshold advancing (older unreported holes are
        // then declared lost by the packet threshold).
        let ranges: Vec<(u64, u64)> = self
            .rcv_pkts
            .as_slice()
            .iter()
            .rev()
            .take(3)
            .copied()
            .collect();
        Frame::Ack {
            cumulative: self.rcv_pkts_cumulative,
            ranges,
        }
    }

    fn emit(
        &mut self,
        now: SimTime,
        mut frames: Vec<Frame>,
        stream: Option<(u64, u32)>,
        out: &mut Vec<OutDatagram>,
    ) {
        let mut padding = 0;
        if let Some((off, len)) = stream {
            frames.push(Frame::Stream { offset: off, len });
            padding = len;
        }
        // Piggyback an ACK on every packet.
        if self.ack_pending {
            self.ack_pending = false;
            frames.push(self.make_ack());
        }
        let pkt_num = self.next_pkt_num;
        self.next_pkt_num += 1;
        let header = encode_header(self.conn_id, pkt_num, &frames);
        let size = header.len() as u32 + padding + 28;
        self.sent.insert(
            pkt_num,
            Sent {
                at: now,
                stream,
                size,
            },
        );
        self.in_flight += u64::from(size);
        if self.pto_deadline.is_none() {
            self.pto_deadline = Some(now + self.pto());
        }
        out.push((self.peer, header, padding));
    }

    fn emit_unreliable(&mut self, frames: Vec<Frame>, out: &mut Vec<OutDatagram>) {
        let pkt_num = self.next_pkt_num;
        self.next_pkt_num += 1;
        let header = encode_header(self.conn_id, pkt_num, &frames);
        out.push((self.peer, header, 0));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn ep(a: [u8; 4], port: u16) -> EndpointAddr {
        EndpointAddr::new(Ipv4Addr::new(a[0], a[1], a[2], a[3]), port)
    }

    const CLIENT: [u8; 4] = [10, 0, 0, 1];
    const CLIENT2: [u8; 4] = [10, 9, 0, 1];
    const SERVER: [u8; 4] = [1, 1, 1, 1];

    /// An ideal wire between a QUIC client and server with per-address
    /// blackholing (IP-change emulation) and indexed datagram dropping.
    struct QuicLoop {
        client: QuicConn,
        server: QuicConn,
        /// The client's current source address.
        client_addr: EndpointAddr,
        now: SimTime,
        delay: SimDuration,
        wire: Vec<(SimTime, bool, EndpointAddr, Bytes)>, // (at, to_server, from, hdr)
        dead_addrs: Vec<Ipv4Addr>,
        drop_indices: Vec<usize>,
        emitted: usize,
    }

    impl QuicLoop {
        fn new() -> Self {
            let now = SimTime::ZERO;
            Self {
                client: QuicConn::client(77, ep(SERVER, 443), now),
                server: QuicConn::server(77, ep(CLIENT, 40_000)),
                client_addr: ep(CLIENT, 40_000),
                now,
                delay: SimDuration::from_millis(10),
                wire: Vec::new(),
                dead_addrs: Vec::new(),
                drop_indices: Vec::new(),
                emitted: 0,
            }
        }

        fn flush(&mut self) {
            let mut out = Vec::new();
            self.client.poll(self.now, &mut out);
            for (_, hdr, _) in out.drain(..) {
                let idx = self.emitted;
                self.emitted += 1;
                if self.dead_addrs.contains(&self.client_addr.ip)
                    || self.drop_indices.contains(&idx)
                {
                    continue;
                }
                self.wire
                    .push((self.now + self.delay, true, self.client_addr, hdr));
            }
            self.server.poll(self.now, &mut out);
            for (to, hdr, _) in out.drain(..) {
                let idx = self.emitted;
                self.emitted += 1;
                // Only datagrams addressed to the client's *current*
                // address arrive (dead/spoofed addresses blackhole).
                if to != self.client_addr
                    || self.dead_addrs.contains(&to.ip)
                    || self.drop_indices.contains(&idx)
                {
                    continue;
                }
                self.wire
                    .push((self.now + self.delay, false, ep(SERVER, 443), hdr));
            }
        }

        fn step(&mut self) -> bool {
            self.flush();
            let next_wire = self.wire.iter().map(|w| w.0).min();
            let next_timer = [self.client.poll_at(), self.server.poll_at()]
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
            let now = self.now;
            let mut due = Vec::new();
            self.wire.retain(|(t, to_server, from, hdr)| {
                if *t <= now {
                    due.push((*to_server, *from, hdr.clone()));
                    false
                } else {
                    true
                }
            });
            for (to_server, from, hdr) in due {
                if to_server {
                    self.server.on_datagram(now, from, &hdr);
                } else {
                    self.client.on_datagram(now, from, &hdr);
                }
            }
            self.flush();
            true
        }

        fn run_for(&mut self, d: SimDuration) {
            let deadline = self.now + d;
            while self.now < deadline {
                if !self.step() {
                    break;
                }
            }
        }
    }

    #[test]
    fn header_codec_roundtrip() {
        let frames = vec![
            Frame::Hello { is_server: false },
            Frame::Stream {
                offset: 7,
                len: 1200,
            },
            Frame::Ack {
                cumulative: 10,
                ranges: vec![(12, 15), (20, 21)],
            },
            Frame::PathChallenge { token: 9 },
            Frame::PathResponse { token: 9 },
        ];
        let hdr = encode_header(77, 3, &frames);
        let (cid, pn, decoded) = decode_header(&hdr).unwrap();
        assert_eq!(cid, 77);
        assert_eq!(pn, 3);
        assert_eq!(decoded, frames);
        assert!(decode_header(&hdr[..5]).is_none());
    }

    #[test]
    fn handshake_establishes() {
        let mut l = QuicLoop::new();
        l.run_for(SimDuration::from_millis(100));
        assert!(l.client.is_established());
        assert!(l.server.is_established());
    }

    #[test]
    fn bulk_transfer_flows() {
        let mut l = QuicLoop::new();
        l.run_for(SimDuration::from_millis(100));
        l.server.set_bulk();
        l.run_for(SimDuration::from_secs(2));
        assert!(
            l.client.stream_received() > 1_000_000,
            "received {}",
            l.client.stream_received()
        );
    }

    #[test]
    fn finite_write_delivered_exactly() {
        let mut l = QuicLoop::new();
        l.run_for(SimDuration::from_millis(100));
        l.client.write(123_456);
        l.run_for(SimDuration::from_secs(3));
        assert_eq!(l.server.stream_received(), 123_456);
        assert_eq!(l.server.take_delivered(), 123_456);
    }

    #[test]
    fn lost_datagrams_recovered() {
        let mut l = QuicLoop::new();
        l.run_for(SimDuration::from_millis(100));
        l.drop_indices = (10..14).collect();
        l.server.write(500_000);
        l.run_for(SimDuration::from_secs(5));
        let dbg = l.server.debug_state();
        let rcv = l.client.debug_rcv();
        let snt = l.server.debug_rcv();
        assert_eq!(
            l.client.stream_received(),
            500_000,
            "sender {dbg:?} / client rcv {rcv:?} / server unacked {:?} at {}",
            snt.2,
            l.now
        );
    }

    #[test]
    fn migration_survives_ip_change_without_handshake() {
        let mut l = QuicLoop::new();
        l.run_for(SimDuration::from_millis(100));
        l.server.set_bulk();
        l.run_for(SimDuration::from_secs(1));
        let before = l.client.stream_received();
        assert!(before > 0);

        // IP change: old address dies, client continues from the new one.
        l.dead_addrs.push(Ipv4Addr::from(CLIENT));
        l.client_addr = ep(CLIENT2, 40_000);
        l.client.on_local_addr_change();
        l.run_for(SimDuration::from_secs(4));

        let after = l.client.stream_received();
        assert!(
            after > before + 500_000,
            "transfer resumed after migration: {before} -> {after}"
        );
        assert_eq!(l.server.migrations, 1, "server validated the new path");
        assert_eq!(l.server.peer(), ep(CLIENT2, 40_000));
    }

    #[test]
    fn migration_validates_path_before_switching() {
        // The server must not redirect traffic to an address that never
        // answers the challenge (an off-path attacker spoofing packets).
        let mut l = QuicLoop::new();
        l.run_for(SimDuration::from_millis(100));
        let spoofed = ep([66, 6, 6, 6], 1);
        let hdr = encode_header(77, 1000, &[Frame::Stream { offset: 0, len: 1 }]);
        l.server.on_datagram(l.now, spoofed, &hdr);
        // The challenge goes to the spoofed address; no response comes
        // back, so the validated peer must remain the true client.
        l.run_for(SimDuration::from_millis(200));
        assert_eq!(l.server.migrations, 0);
        assert_eq!(l.server.peer(), ep(CLIENT, 40_000));
    }

    #[test]
    fn wrong_connection_id_ignored() {
        let mut l = QuicLoop::new();
        l.run_for(SimDuration::from_millis(100));
        let before = l.server.stream_received();
        let hdr = encode_header(
            999,
            0,
            &[Frame::Stream {
                offset: 0,
                len: 100,
            }],
        );
        l.server.on_datagram(l.now, ep(CLIENT, 40_000), &hdr);
        assert_eq!(l.server.stream_received(), before);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_frame() -> impl Strategy<Value = Frame> {
        prop_oneof![
            any::<bool>().prop_map(|is_server| Frame::Hello { is_server }),
            (any::<u64>(), any::<u32>()).prop_map(|(offset, len)| Frame::Stream { offset, len }),
            (
                any::<u64>(),
                proptest::collection::vec((any::<u64>(), any::<u64>()), 0..3)
            )
                .prop_map(|(cumulative, ranges)| Frame::Ack { cumulative, ranges }),
            any::<u64>().prop_map(|token| Frame::PathChallenge { token }),
            any::<u64>().prop_map(|token| Frame::PathResponse { token }),
        ]
    }

    proptest! {
        #[test]
        fn prop_header_roundtrip(
            conn_id in any::<u64>(),
            pkt_num in any::<u64>(),
            frames in proptest::collection::vec(arb_frame(), 0..6),
        ) {
            let hdr = encode_header(conn_id, pkt_num, &frames);
            let (c, p, f) = decode_header(&hdr).expect("round trip");
            prop_assert_eq!(c, conn_id);
            prop_assert_eq!(p, pkt_num);
            prop_assert_eq!(f, frames);
        }

        #[test]
        fn prop_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
            let _ = decode_header(&bytes);
        }
    }
}
