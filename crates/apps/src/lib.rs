//! Application workloads and the drive-test emulation harness.
//!
//! The paper's §6.2 evaluation (Table 1, Figs. 8–10) measures four
//! application classes over emulated CellBricks mobility versus the MNO
//! baseline. This crate implements each workload against the
//! `cellbricks-transport` host stack, with the same metrics the paper
//! reports:
//!
//! * [`iperf`] — bulk downlink transfer; average and per-second throughput,
//! * [`ping`] — UDP echo round trips; p50 latency,
//! * [`voip`] — 50 pps RTP-like media with an E-model MOS score,
//! * [`video`] — HLS-style ABR streaming over a 6-level ladder
//!   (144p–720p); average quality level,
//! * [`web`] — batched multi-object page loads; average load time,
//! * [`quic_app`] — QUIC-based bulk transfer (the §4.2 "future work"
//!   transport) for the migration-vs-MPTCP ablation,
//! * [`harness`] — the [`harness::AppHost`] endpoint wrapper
//!   shared by all workloads,
//! * [`emulation`] — the §6.2 drive emulation: a policed access path,
//!   RAN-derived handover schedules, and the MNO/CellBricks arms.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod emulation;
pub mod harness;
pub mod iperf;
pub mod metrics;
pub mod ping;
pub mod quic_app;
pub mod video;
pub mod voip;
pub mod web;
