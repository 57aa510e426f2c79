//! Radio access network model.
//!
//! CellBricks leaves the RAN unmodified (paper §2.1), so this crate models
//! only what the evaluation needs: where towers are, which tower a moving
//! UE selects, and *when handovers happen* — the mean-time-to-handover
//! (MTTHO) column of Table 1 is the calibration target. The model is
//! geometric rather than trace-driven: towers sit along a drive route,
//! received power follows a log-distance pathloss law with shadow fading,
//! and the UE runs strongest-cell selection with hysteresis, exactly the
//! UE-driven "network-assisted" selection the paper sketches in §4.2.
//!
//! In CellBricks mode every tower belongs to a distinct bTelco (the
//! paper's "extreme scenario in which each provider operates only a
//! single tower", §6.2); in MNO mode all towers belong to one operator.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod mobility;
pub mod radio;
pub mod routes;

pub use mobility::{CellSelector, DriveSim, HandoverEvent};
pub use routes::{mttho, DriveProfile, RouteKind};
