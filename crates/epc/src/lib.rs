//! Baseline LTE evolved packet core (the paper's comparison point).
//!
//! This crate reproduces the parts of a Magma-like access gateway that the
//! CellBricks evaluation measures against (paper §2.1, §5, §6.1): the NAS
//! signalling used during attachment, EPS-AKA mutual authentication
//! against a SubscriberDB over the S6A interface — whose **two** AGW↔cloud
//! round trips (Authentication Information Request + Update Location
//! Request) are exactly why baseline attach is slower than CellBricks'
//! single-round-trip SAP in Fig. 7 — plus bearer management, UE IP
//! allocation, and PGW-style usage accounting.
//!
//! Components ([`enb::Enb`], [`agw::Agw`], [`subscriber_db::SubscriberDb`],
//! [`ue_nas::UeNas`]) are [`cellbricks_net::Endpoint`]s wired onto
//! topology nodes; processing costs are explicit per-message delays so
//! the Fig. 7 latency breakdown can be instrumented faithfully.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod agw;
pub mod aka;
pub mod enb;
pub mod gateway;
pub mod nas;
pub mod s6a;
pub mod subscriber_db;
pub mod ue_nas;
pub mod wire;
