//! Wire representations.
//!
//! Data-plane payloads are content-free (only byte counts are simulated,
//! as in most packet-level simulators), while control-plane payloads (NAS
//! messages, SAP, traffic reports) carry real encoded bytes because their
//! cryptographic content matters.

use bytes::Bytes;
use std::net::Ipv4Addr;

/// RFC 2018 option-space limit: at most 3 SACK blocks fit in the TCP
/// option field alongside a timestamp option, and real stacks send the
/// blocks nearest the cumulative ACK first.
/// [`TcpSegment::push_sack`] refuses a fourth.
pub const MAX_SACK_BLOCKS: usize = 3;

/// A transport endpoint address (IP + port).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct Endpoint {
    /// IPv4 address.
    pub ip: Ipv4Addr,
    /// Port number.
    pub port: u16,
}

impl Endpoint {
    /// Construct an endpoint.
    #[must_use]
    pub fn new(ip: Ipv4Addr, port: u16) -> Self {
        Self { ip, port }
    }
}

impl core::fmt::Display for Endpoint {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}:{}", self.ip, self.port)
    }
}

/// TCP header flags (only those the simulation uses), one bit each.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct TcpFlags(u8);

impl TcpFlags {
    /// SYN only.
    pub const SYN: TcpFlags = TcpFlags(1);
    /// ACK only.
    pub const ACK: TcpFlags = TcpFlags(2);
    /// SYN+ACK.
    pub const SYN_ACK: TcpFlags = TcpFlags(1 | 2);
    /// FIN+ACK.
    pub const FIN_ACK: TcpFlags = TcpFlags(4 | 2);
    /// RST.
    pub const RST: TcpFlags = TcpFlags(8);

    /// Synchronize (connection setup).
    #[must_use]
    pub const fn syn(self) -> bool {
        self.0 & 1 != 0
    }
    /// Acknowledgement field is valid.
    #[must_use]
    pub const fn ack(self) -> bool {
        self.0 & 2 != 0
    }
    /// Finish (orderly close).
    #[must_use]
    pub const fn fin(self) -> bool {
        self.0 & 4 != 0
    }
    /// Reset.
    #[must_use]
    pub const fn rst(self) -> bool {
        self.0 & 8 != 0
    }
}

/// MPTCP signalling carried in TCP options (RFC 6824 semantics, abstracted).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MpSignal {
    /// `MP_CAPABLE`: the initial subflow of an MPTCP connection, carrying
    /// the connection token that later `MP_JOIN`s reference.
    Capable {
        /// Connection token.
        token: u64,
    },
    /// `MP_JOIN`: attach a new subflow to the connection with this token.
    Join {
        /// Connection token.
        token: u64,
    },
    /// `REMOVE_ADDR`: the peer should drop subflows using this address.
    RemoveAddr {
        /// The address being withdrawn.
        addr: Ipv4Addr,
    },
}

// `TcpSegment::tags`: which options the segment carries.
const MP_KIND: u8 = 0b11; // 0 none, 1 Capable, 2 Join, 3 RemoveAddr.
const HAS_DATA_SEQ: u8 = 1 << 2;
const HAS_DATA_ACK: u8 = 1 << 3;
const SACK_SHIFT: u32 = 4; // Two bits: the block count.

/// A simulated TCP segment.
///
/// Sequence numbers are 64-bit and data is content-free: only
/// `payload_len` is carried. The options sit behind accessors over a
/// fixed 80-byte layout (DESIGN §5): an unused option slot is zero, so
/// derived equality is equality of what the segment says.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TcpSegment {
    /// Subflow-level sequence number of the first payload byte.
    pub seq: u64,
    /// Cumulative acknowledgement (valid if `flags.ack()`). The SACK
    /// blocks are stored relative to it: set it before the first
    /// [`push_sack`](Self::push_sack) and leave it alone afterwards.
    pub ack: u64,
    /// MPTCP option payload: the token, or the withdrawn address.
    mp: u64,
    data_seq: u64,
    data_ack: u64,
    /// SACK blocks as `(start - ack, end - start)`.
    sack: [(u32, u32); MAX_SACK_BLOCKS],
    /// Payload length in bytes (content-free).
    pub payload_len: u32,
    /// Receive window in bytes.
    pub window: u32,
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Header flags.
    pub flags: TcpFlags,
    tags: u8,
}

const _: () = assert!(std::mem::size_of::<TcpSegment>() <= 80);

impl TcpSegment {
    /// A segment between two ports with no payload, options or window.
    #[must_use]
    pub fn new(src_port: u16, dst_port: u16, flags: TcpFlags) -> Self {
        Self {
            src_port,
            dst_port,
            flags,
            ..Self::default()
        }
    }

    /// MPTCP option, if any.
    #[must_use]
    pub fn mp(&self) -> Option<MpSignal> {
        match self.tags & MP_KIND {
            0 => None,
            1 => Some(MpSignal::Capable { token: self.mp }),
            2 => Some(MpSignal::Join { token: self.mp }),
            _ => Some(MpSignal::RemoveAddr {
                addr: Ipv4Addr::from(self.mp as u32),
            }),
        }
    }

    /// Set or clear the MPTCP option.
    pub fn set_mp(&mut self, mp: Option<MpSignal>) {
        let (kind, payload) = match mp {
            None => (0, 0),
            Some(MpSignal::Capable { token }) => (1, token),
            Some(MpSignal::Join { token }) => (2, token),
            Some(MpSignal::RemoveAddr { addr }) => (3, u64::from(u32::from(addr))),
        };
        self.tags = self.tags & !MP_KIND | kind;
        self.mp = payload;
    }

    /// MPTCP DSS mapping: connection-level sequence of the payload.
    #[must_use]
    pub fn data_seq(&self) -> Option<u64> {
        (self.tags & HAS_DATA_SEQ != 0).then_some(self.data_seq)
    }

    /// Set or clear the DSS mapping.
    pub fn set_data_seq(&mut self, v: Option<u64>) {
        self.data_seq = v.unwrap_or(0);
        self.tags = self.tags & !HAS_DATA_SEQ | if v.is_some() { HAS_DATA_SEQ } else { 0 };
    }

    /// MPTCP connection-level cumulative data ACK.
    #[must_use]
    pub fn data_ack(&self) -> Option<u64> {
        (self.tags & HAS_DATA_ACK != 0).then_some(self.data_ack)
    }

    /// Set or clear the data ACK.
    pub fn set_data_ack(&mut self, v: Option<u64>) {
        self.data_ack = v.unwrap_or(0);
        self.tags = self.tags & !HAS_DATA_ACK | if v.is_some() { HAS_DATA_ACK } else { 0 };
    }

    /// Number of SACK blocks carried.
    #[must_use]
    pub fn sack_len(&self) -> usize {
        usize::from(self.tags >> SACK_SHIFT)
    }

    /// SACK blocks: out-of-order `[start, end)` ranges the receiver
    /// holds, in the order they were pushed.
    pub fn sack_blocks(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.sack[..self.sack_len()].iter().map(|&(off, len)| {
            let start = self.ack + u64::from(off);
            (start, start + u64::from(len))
        })
    }

    /// Append the SACK block `[start, end)`; `false` (and no change) if
    /// the segment already carries [`MAX_SACK_BLOCKS`].
    ///
    /// # Panics
    /// Panics if the block starts below `ack`, or if its offset from
    /// `ack` or its length does not fit 32 bits — a receiver only holds
    /// ranges above its cumulative ACK and inside its window.
    pub fn push_sack(&mut self, start: u64, end: u64) -> bool {
        let n = self.sack_len();
        if n == MAX_SACK_BLOCKS {
            return false;
        }
        let narrow = |hi: u64, lo: u64| hi.checked_sub(lo).and_then(|d| u32::try_from(d).ok());
        let off = narrow(start, self.ack).expect("SACK block not within u32 above ack");
        let len = narrow(end, start).expect("SACK block length not a u32");
        self.sack[n] = (off, len);
        self.tags += 1 << SACK_SHIFT;
        true
    }

    /// Header bytes on the wire (IP + TCP + options, approximate).
    #[must_use]
    pub fn header_len(&self) -> u32 {
        let mut len = 40; // IPv4 + TCP base headers.
        if self.tags & MP_KIND != 0 {
            len += 12;
        }
        if self.tags & (HAS_DATA_SEQ | HAS_DATA_ACK) != 0 {
            len += 20; // DSS option.
        }
        if self.sack_len() > 0 {
            len += 2 + 8 * self.sack_len() as u32;
        }
        len
    }
}

/// What a packet carries.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PacketKind {
    /// A TCP segment (content-free payload).
    Tcp(TcpSegment),
    /// A UDP datagram with real payload bytes plus optional padding that
    /// counts toward the wire size but carries no content (e.g. RTP media).
    Udp {
        /// Source port.
        src_port: u16,
        /// Destination port.
        dst_port: u16,
        /// Real payload bytes (control traffic) — may be empty.
        payload: Bytes,
        /// Additional content-free payload bytes.
        padding: u32,
    },
    /// Link-layer / signalling control message with real bytes (NAS, S1AP,
    /// SAP transport between infrastructure nodes).
    Control(Bytes),
}

/// A packet in flight.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Packet {
    /// Source IP address.
    pub src: Ipv4Addr,
    /// Destination IP address.
    pub dst: Ipv4Addr,
    /// Payload.
    pub kind: PacketKind,
}

// Every struct that carries a `Packet` by value must stay inside the
// 128 bytes LLVM copies inline instead of through `memcpy` (DESIGN §5).
const _: () = assert!(std::mem::size_of::<Packet>() <= 96);

impl Packet {
    /// A TCP packet.
    #[must_use]
    pub fn tcp(src: Ipv4Addr, dst: Ipv4Addr, seg: TcpSegment) -> Packet {
        Packet {
            src,
            dst,
            kind: PacketKind::Tcp(seg),
        }
    }

    /// A UDP packet with real payload bytes.
    #[must_use]
    pub fn udp(src: Endpoint, dst: Endpoint, payload: Bytes) -> Packet {
        Packet {
            src: src.ip,
            dst: dst.ip,
            kind: PacketKind::Udp {
                src_port: src.port,
                dst_port: dst.port,
                payload,
                padding: 0,
            },
        }
    }

    /// A control-plane packet.
    #[must_use]
    pub fn control(src: Ipv4Addr, dst: Ipv4Addr, payload: Bytes) -> Packet {
        Packet {
            src,
            dst,
            kind: PacketKind::Control(payload),
        }
    }

    /// Total bytes this packet occupies on the wire.
    #[must_use]
    pub fn wire_size(&self) -> u32 {
        match &self.kind {
            PacketKind::Tcp(seg) => seg.header_len() + seg.payload_len,
            PacketKind::Udp {
                payload, padding, ..
            } => 28 + payload.len() as u32 + padding,
            PacketKind::Control(payload) => 28 + payload.len() as u32,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn ip(last: u8) -> Ipv4Addr {
        Ipv4Addr::new(10, 0, 0, last)
    }

    fn ack_seg(payload_len: u32) -> TcpSegment {
        let mut seg = TcpSegment::new(1, 2, TcpFlags::ACK);
        seg.payload_len = payload_len;
        seg.window = 65535;
        seg
    }

    #[test]
    fn tcp_wire_size_includes_options() {
        let mut seg = ack_seg(1000);
        let base = Packet::tcp(ip(1), ip(2), seg.clone()).wire_size();
        assert_eq!(base, 1040);
        seg.set_mp(Some(MpSignal::Capable { token: 7 }));
        let with_mp = Packet::tcp(ip(1), ip(2), seg.clone()).wire_size();
        assert_eq!(with_mp, 1052);
        seg.set_data_seq(Some(0));
        let with_dss = Packet::tcp(ip(1), ip(2), seg).wire_size();
        assert_eq!(with_dss, 1072);
    }

    #[test]
    fn sack_option_capped_at_three_blocks() {
        let mut seg = ack_seg(0);
        assert!(seg.push_sack(100, 200));
        assert_eq!(seg.header_len(), 40 + 2 + 8);
        assert!(seg.push_sack(300, 400));
        assert!(seg.push_sack(500, 600));
        assert_eq!(seg.header_len(), 40 + 2 + 24);
        // A producer pushing a fourth block is refused: the header cannot
        // grow past the RFC 2018 option-space limit.
        let three = seg.clone();
        assert!(!seg.push_sack(700, 800));
        assert_eq!(seg, three);
        assert_eq!(seg.header_len(), 40 + 2 + 24);
        assert_eq!(
            seg.sack_blocks().collect::<Vec<_>>(),
            vec![(100, 200), (300, 400), (500, 600)]
        );
    }

    #[test]
    fn sack_blocks_span_the_u32_range_above_ack() {
        let mut seg = ack_seg(0);
        seg.ack = 1 << 40;
        let far = seg.ack + u64::from(u32::MAX);
        assert!(seg.push_sack(seg.ack, seg.ack + 1)); // Starts exactly at ack.
        assert!(seg.push_sack(seg.ack + 5, far)); // Ends at ack + u32::MAX.
        assert!(seg.push_sack(far, far + u64::from(u32::MAX)));
        assert_eq!(
            seg.sack_blocks().collect::<Vec<_>>(),
            vec![
                (seg.ack, seg.ack + 1),
                (seg.ack + 5, far),
                (far, far + u64::from(u32::MAX))
            ]
        );
    }

    #[test]
    #[should_panic(expected = "above ack")]
    fn sack_block_below_ack_is_rejected() {
        let mut seg = ack_seg(0);
        seg.ack = 1000;
        seg.push_sack(999, 1200);
    }

    #[test]
    #[should_panic(expected = "above ack")]
    fn sack_block_past_u32_above_ack_is_rejected() {
        let mut seg = ack_seg(0);
        seg.push_sack(1 << 32, (1 << 32) + 10);
    }

    #[test]
    #[should_panic(expected = "length")]
    fn sack_block_longer_than_u32_is_rejected() {
        let mut seg = ack_seg(0);
        seg.push_sack(10, 10 + (1 << 32));
    }

    #[test]
    #[should_panic(expected = "length")]
    fn sack_block_ending_before_its_start_is_rejected() {
        let mut seg = ack_seg(0);
        seg.push_sack(200, 100);
    }

    #[test]
    fn udp_wire_size() {
        let p = Packet::udp(
            Endpoint::new(ip(1), 10),
            Endpoint::new(ip(2), 20),
            Bytes::from_static(b"hello"),
        );
        assert_eq!(p.wire_size(), 33);
        let mut m = Packet::udp(
            Endpoint::new(ip(1), 10),
            Endpoint::new(ip(2), 20),
            Bytes::new(),
        );
        if let PacketKind::Udp { padding, .. } = &mut m.kind {
            *padding = 160;
        }
        assert_eq!(m.wire_size(), 188);
    }

    #[test]
    fn control_wire_size() {
        let p = Packet::control(ip(1), ip(2), Bytes::from_static(&[0u8; 100]));
        assert_eq!(p.wire_size(), 128);
    }

    #[test]
    fn endpoint_display() {
        let e = Endpoint::new(ip(9), 443);
        assert_eq!(e.to_string(), "10.0.0.9:443");
    }

    /// The header length as the pre-compaction `TcpSegment` (an
    /// `Option` per option, a `SmallVec` of blocks) computed it.
    fn header_len_oracle(
        mp: Option<MpSignal>,
        data_seq: Option<u64>,
        data_ack: Option<u64>,
        sack: &[(u64, u64)],
    ) -> u32 {
        let mut len = 40;
        if mp.is_some() {
            len += 12;
        }
        if data_seq.is_some() || data_ack.is_some() {
            len += 20;
        }
        if !sack.is_empty() {
            len += 2 + 8 * sack.len().min(MAX_SACK_BLOCKS) as u32;
        }
        len
    }

    fn mp_signal(kind: u8, payload: u64) -> Option<MpSignal> {
        match kind {
            0 => None,
            1 => Some(MpSignal::Capable { token: payload }),
            2 => Some(MpSignal::Join { token: payload }),
            _ => Some(MpSignal::RemoveAddr {
                addr: Ipv4Addr::from(payload as u32),
            }),
        }
    }

    proptest! {
        /// Every option combination — {no MPTCP option, Capable, Join,
        /// RemoveAddr} × {DSS mapping or not} × {data ACK or not} × {0–3
        /// SACK blocks} — round-trips through the accessors, prices its
        /// header as the old layout did, and compares equal to a segment
        /// that reached the same state by another route (blocks pushed
        /// first, options set to something else, then overwritten or
        /// cleared).
        #[test]
        fn prop_options_round_trip(
            mp_payload in any::<u64>(),
            dseq in any::<u64>(),
            dack in any::<u64>(),
            ack in 0u64..(1 << 62),
            spans in proptest::collection::vec((any::<u32>(), any::<u32>()), 3..4),
            detour_kind in 0u8..4,
            detour in any::<u64>(),
        ) {
            for combo in 0u8..64 {
                let mp = mp_signal(combo & 3, mp_payload);
                let data_seq = (combo & 4 != 0).then_some(dseq);
                let data_ack = (combo & 8 != 0).then_some(dack);
                let blocks: Vec<(u64, u64)> = spans[..usize::from(combo >> 4)]
                    .iter()
                    .map(|&(off, len)| (ack + u64::from(off), ack + u64::from(off) + u64::from(len)))
                    .collect();

                let mut direct = ack_seg(100);
                direct.ack = ack;
                direct.set_mp(mp);
                direct.set_data_seq(data_seq);
                direct.set_data_ack(data_ack);
                for &(s, e) in &blocks {
                    prop_assert!(direct.push_sack(s, e));
                }
                prop_assert_eq!(direct.mp(), mp);
                prop_assert_eq!(direct.data_seq(), data_seq);
                prop_assert_eq!(direct.data_ack(), data_ack);
                prop_assert_eq!(direct.sack_len(), blocks.len());
                prop_assert_eq!(direct.sack_blocks().collect::<Vec<_>>(), blocks.clone());
                prop_assert_eq!(
                    direct.header_len(),
                    header_len_oracle(mp, data_seq, data_ack, &blocks)
                );
                prop_assert_eq!(
                    Packet::tcp(ip(1), ip(2), direct.clone()).wire_size(),
                    direct.header_len() + 100
                );

                let mut detoured = ack_seg(100);
                detoured.ack = ack;
                for &(s, e) in &blocks {
                    prop_assert!(detoured.push_sack(s, e));
                }
                detoured.set_data_ack(Some(detour));
                detoured.set_data_seq(Some(!detour));
                detoured.set_mp(mp_signal(detour_kind, detour));
                detoured.set_mp(None);
                detoured.set_data_seq(None);
                detoured.set_data_ack(data_ack);
                detoured.set_mp(mp);
                detoured.set_data_seq(data_seq);
                prop_assert_eq!(&detoured, &direct);
            }
        }
    }
}
