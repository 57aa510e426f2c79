//! The eNodeB: a relay between UE and core with explicit processing cost.
//!
//! CellBricks reuses commodity eNodeBs unmodified (paper §5); in both the
//! baseline and CellBricks the eNB contributes the "eNB Proc" slice of
//! the Fig. 7 latency breakdown. Data-plane packets are forwarded with
//! the same per-packet delay.

use cellbricks_net::{Endpoint, NodeId, Packet, PacketKind};
use cellbricks_sim::{EventQueue, SimDuration, SimTime};

/// An eNodeB relay endpoint.
pub struct Enb {
    node: NodeId,
    /// Per-packet processing delay.
    pub proc_delay: SimDuration,
    pending: EventQueue<Packet>,
    /// Accumulated processing time spent on control-plane messages
    /// (the Fig. 7 "eNB Proc" bucket).
    pub control_proc_time: SimDuration,
    /// Count of control messages relayed.
    pub control_relays: u64,
}

impl Enb {
    /// An eNodeB on `node` with the given per-packet processing delay.
    #[must_use]
    pub fn new(node: NodeId, proc_delay: SimDuration) -> Self {
        Self {
            node,
            proc_delay,
            pending: EventQueue::new(),
            control_proc_time: SimDuration::ZERO,
            control_relays: 0,
        }
    }
}

impl Endpoint for Enb {
    fn node(&self) -> NodeId {
        self.node
    }

    fn handle_packet(&mut self, now: SimTime, pkt: Packet, out: &mut Vec<Packet>) {
        if matches!(pkt.kind, PacketKind::Control(_)) {
            self.control_proc_time = self.control_proc_time + self.proc_delay;
            self.control_relays += 1;
            self.pending.push(now + self.proc_delay, pkt);
        } else if self.proc_delay == SimDuration::ZERO {
            out.push(pkt);
        } else {
            // Forward data with the same store-and-forward cost.
            self.pending.push(now + self.proc_delay, pkt);
        }
    }

    fn poll_at(&self) -> Option<SimTime> {
        self.pending.peek_time()
    }

    fn poll(&mut self, now: SimTime, out: &mut Vec<Packet>) {
        while let Some((_, pkt)) = self.pending.pop_due(now) {
            out.push(pkt);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use std::net::Ipv4Addr;

    #[test]
    fn control_relay_accumulates_proc_time() {
        let mut enb = Enb::new(NodeId(0), SimDuration::from_millis(2));
        let mut out = Vec::new();
        let pkt = Packet::control(
            Ipv4Addr::new(1, 1, 1, 1),
            Ipv4Addr::new(2, 2, 2, 2),
            Bytes::from_static(b"nas"),
        );
        enb.handle_packet(SimTime::ZERO, pkt, &mut out);
        assert!(out.is_empty(), "held for processing");
        assert_eq!(enb.poll_at(), Some(SimTime::from_millis(2)));
        enb.poll(SimTime::from_millis(2), &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(enb.control_proc_time, SimDuration::from_millis(2));
        assert_eq!(enb.control_relays, 1);
    }
}
