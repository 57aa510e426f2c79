//! The eNodeB: a relay between UE and core with explicit processing cost.
//!
//! CellBricks reuses commodity eNodeBs unmodified (paper §5); in both the
//! baseline and CellBricks the eNB contributes the "eNB Proc" slice of
//! the Fig. 7 latency breakdown. Data-plane packets are forwarded with
//! the same per-packet delay.

use cellbricks_net::{ControlEndpoint, ControlParty, ControlPort, NodeId, Packet, PacketKind};
use cellbricks_sim::{SimDuration, SimTime};

/// An eNodeB relay: its port's ledger is the Fig. 7 "eNB Proc" bucket,
/// billed for control messages only.
pub struct Enb {
    port: ControlPort,
    /// Whether data waits out the processing delay too (it is
    /// forwarded at once when the delay is zero).
    delay_data: bool,
}

impl Enb {
    /// An eNodeB on `node` with the given per-packet processing delay.
    #[must_use]
    pub fn new(node: NodeId, proc_delay: SimDuration) -> ControlEndpoint<Self> {
        ControlEndpoint::new(Self {
            port: ControlPort::new(node, proc_delay),
            delay_data: proc_delay > SimDuration::ZERO,
        })
    }
}

impl ControlParty for Enb {
    cellbricks_net::port_field!();

    fn on_packet(&mut self, now: SimTime, pkt: Packet, out: &mut Vec<Packet>) {
        if matches!(pkt.kind, PacketKind::Control(_)) {
            self.port.send(now, pkt);
        } else if self.delay_data {
            // Forward data with the same store-and-forward cost.
            self.port.send_unbilled(now, pkt);
        } else {
            out.push(pkt);
        }
    }
}
