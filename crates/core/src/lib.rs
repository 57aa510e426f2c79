//! CellBricks: the paper's contribution.
//!
//! CellBricks (SIGCOMM '21) democratizes cellular access by removing the
//! requirement of pre-established trust between users and access
//! networks. Three mechanisms make that possible, and this crate
//! implements all of them:
//!
//! * **Secure attachment (SAP, §4.1)** — [`sap`]: public-key mutual
//!   authentication between UE, broker and bTelco in a single
//!   UE→bTelco→broker round trip, with the UE identity sealed against
//!   IMSI catchers. [`principal`] holds the key bundles; [`broker_core`]
//!   is the broker's one authorization state machine, with [`brokerd`]
//!   (simulated endpoint) and [`broker_server`] (real sockets) as its
//!   adapters; [`btelco`] the bTelco gateway (reusing the EPC
//!   bearer/pool/accounting substrate).
//! * **Host-driven mobility (§4.2)** — [`ue::UeDevice`] detaches and
//!   re-attaches across bTelcos on its own, letting MPTCP (in
//!   `cellbricks-transport`) carry connections across the IP change.
//! * **Verifiable billing (§4.3)** — [`billing`]: tamper-evident traffic
//!   reports sealed on the UE baseband and at the bTelco PGW, the
//!   broker-side Fig. 5 discrepancy check, and the [`reputation`] system.
//!
//! The [`attach_bench`] harness builds the paper's §6.1 testbed
//! (baseline vs. CellBricks attach latency, Fig. 7). The §6.2 drive-test
//! emulation (Table 1, Figs. 8–10) lives in `cellbricks-apps`, which
//! supplies the application workloads it measures.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attach_bench;
pub mod billing;
pub mod broker_core;
pub mod broker_plane;
pub mod broker_server;
pub mod brokerd;
pub mod btelco;
pub mod principal;
pub mod reputation;
pub mod sap;
pub mod ue;

pub use broker_core::{AuthState, BrokerCore};
pub use broker_server::{BrokerServer, ServeConfig};
