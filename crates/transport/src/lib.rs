//! Host transport stacks over the simulated network.
//!
//! CellBricks (paper §4.2) moves mobility out of the network and into the
//! transport layer: when a UE switches bTelcos its IP address changes, and
//! MPTCP (RFC 6824) re-establishes connectivity by opening a new subflow
//! from the new address while the connection — identified by its token,
//! not its addresses — survives. This crate implements, from scratch and
//! content-free (only byte counts are simulated):
//!
//! * [`tcp`] — a Reno TCP: three-way handshake, slow start, congestion
//!   avoidance, fast retransmit/recovery (NewReno-style), RTO with
//!   exponential backoff, FIN teardown,
//! * [`mptcp`] — MPTCP connections over Tcp subflows: `MP_CAPABLE` /
//!   `MP_JOIN` / `REMOVE_ADDR`, DSS data-level sequencing, break-before-
//!   make subflow replacement with the mainline kernel's 500 ms address
//!   worker wait (configurable — the knob the paper sweeps in Fig. 9),
//! * [`quic`] — a QUIC-style datagram transport with connection-ID path
//!   migration (the paper's named "future work" alternative to MPTCP),
//! * [`host`] — a smoltcp-style host: one interface whose address can be
//!   invalidated and reassigned (the CellBricks detach/attach cycle),
//!   socket demux, listeners, UDP.
//!
//! Scope note: the MPTCP implementation targets CellBricks' break-before-
//! make mobility (at most one *active* subflow at a time, each subflow
//! carrying a contiguous data-level byte range). Concurrent multipath
//! striping — MPTCP's original use case — is out of scope.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cc;
pub mod host;
pub mod mptcp;
pub mod quic;
mod ranges;
pub mod tcp;

pub use cc::{Bbr, CcAlgo, CongestionControl, Cubic, Reno};
pub use host::{Host, MpId, SockId, UdpId};
pub use mptcp::{MpConfig, MpConn};
pub use tcp::{Tcp, TcpConfig};
