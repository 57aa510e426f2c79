//! Simulated packet network substrate.
//!
//! This crate stands in for the physical networks of the CellBricks
//! evaluation: the srsLTE radio link, the operator backhaul, the wide-area
//! path to EC2, and — crucially — the T-Mobile access network whose
//! day/night token-bucket rate policing shapes every result in the paper's
//! §6.2 (see Appendix A). It is deliberately smoltcp-like: a passive,
//! poll-based packet mover on the virtual clock with no threads and no
//! wall-clock time.
//!
//! * [`packet`] — wire representations ([`Packet`], [`TcpSegment`], …),
//! * [`link`] — point-to-point links with latency, loss, drop-tail queueing
//!   and token-bucket shaping,
//! * [`policy`] — carrier rate-policy traces (day vs. night, Appendix A),
//! * [`topology`] — nodes, links and longest-prefix routes,
//! * [`world`] — the packet mover: [`NetWorld`] and the [`Endpoint`]
//!   trait,
//! * [`control`] — the control-plane adapter: [`ControlEndpoint`] runs
//!   a [`ControlParty`]'s processing-delay line, ledger, serial service
//!   and outage gate,
//! * [`engine`] — the indexed simulation engine: the [`Driver`] that
//!   wakes endpoints through a timer index instead of a per-event scan,
//! * [`fault`] — deterministic fault injection: the [`FaultPlan`]
//!   scripting link outages, burst-loss windows and endpoint
//!   crash/unavailability on the virtual clock.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod control;
pub mod engine;
pub mod fault;
pub mod link;
pub mod packet;
pub mod policy;
pub mod topology;
pub mod wire;
pub mod world;

pub use control::{ControlEndpoint, ControlParty, ControlPort};
pub use engine::{run_between, run_until, Driver};
pub use fault::{BurstLoss, EndpointFault, FaultAction, FaultPlan};
pub use link::{LinkConfig, RateSchedule, Shaper};
pub use packet::{
    Endpoint as EndpointAddr, MpSignal, Packet, PacketKind, TcpFlags, TcpSegment, MAX_SACK_BLOCKS,
};
pub use policy::{CarrierPolicy, TimeOfDay};
pub use topology::{LinkId, NodeId, Topology};
pub use world::{Endpoint, LinkStats, NetWorld, Router};
