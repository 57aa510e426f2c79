//! Deterministic fault injection: the [`FaultPlan`].
//!
//! CellBricks assumes bTelcos are small, flaky and untrusted — attach,
//! handover and billing must all survive lost signalling, crashed
//! gateways and unreachable brokers (paper §4.2, §4.3). A [`FaultPlan`]
//! scripts those failures on the virtual clock:
//!
//! * **link faults** — outage windows / flap trains on any link, and
//!   Gilbert–Elliott burst-loss windows ([`BurstLoss`]) that replace the
//!   uniform loss model while active;
//! * **endpoint faults** — delivered to the afflicted endpoint through
//!   [`Endpoint::inject_fault`](crate::world::Endpoint::inject_fault):
//!   crash+restart (state is wiped — in-flight SAP sessions and metering
//!   state are lost) and unavailability windows (state survives, but the
//!   process neither receives nor sends).
//!
//! Determinism: a plan is fully materialized when it is built, so two
//! runs execute the byte-identical fault schedule. Events at equal instants apply in
//! insertion order ([`EventQueue`] FIFO tie-break). The
//! [`Driver`](crate::engine::Driver) owns the installed plan and applies
//! due faults before dispatching the events of each instant.

use crate::topology::{LinkId, NodeId};
use cellbricks_sim::{EventQueue, SimDuration, SimTime};

/// A Gilbert–Elliott burst-loss model: a two-state Markov chain stepped
/// once per offered packet. In the *good* state packets drop with
/// `loss_good`; in the *bad* state with `loss_bad`. While installed it
/// replaces the link's uniform `loss` probability.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BurstLoss {
    /// Per-packet probability of entering the bad state from good.
    pub p_enter: f64,
    /// Per-packet probability of leaving the bad state back to good.
    pub p_exit: f64,
    /// Loss probability while in the good state.
    pub loss_good: f64,
    /// Loss probability while in the bad state.
    pub loss_bad: f64,
}

impl BurstLoss {
    /// A typical flaky-small-cell profile: rare, sticky bad states that
    /// drop most packets, near-clean good states.
    #[must_use]
    pub fn flaky_cell() -> Self {
        Self {
            p_enter: 0.02,
            p_exit: 0.25,
            loss_good: 0.001,
            loss_bad: 0.6,
        }
    }
}

/// A fault delivered to one endpoint (keyed by its topology node).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EndpointFault {
    /// The process crashes now and restarts at `restart_at`: volatile
    /// state (sessions, bearers, meters, queued output) is lost, and
    /// everything arriving before `restart_at` is dropped.
    CrashRestart {
        /// When the process is back up.
        restart_at: SimTime,
    },
    /// The process is unreachable until `until`: state survives, but
    /// nothing is received and nothing is emitted during the window.
    Unavailable {
        /// When the process is reachable again.
        until: SimTime,
    },
}

/// One scheduled fault action.
#[derive(Clone, Debug, PartialEq)]
pub enum FaultAction {
    /// Blackhole both directions of `link` until `until`.
    LinkOutage {
        /// The afflicted link.
        link: LinkId,
        /// End of the outage window.
        until: SimTime,
    },
    /// Install (`Some`) or remove (`None`) a burst-loss model on `link`.
    SetBurstLoss {
        /// The afflicted link.
        link: LinkId,
        /// The model, or `None` to restore uniform loss.
        model: Option<BurstLoss>,
    },
    /// Deliver `fault` to the endpoint registered at `node`.
    Endpoint {
        /// The afflicted endpoint's node.
        node: NodeId,
        /// The fault to deliver.
        fault: EndpointFault,
    },
}

/// A scripted, deterministic schedule of faults, installed into a
/// [`Driver`](crate::engine::Driver) with
/// [`set_fault_plan`](crate::engine::Driver::set_fault_plan).
#[derive(Default)]
pub struct FaultPlan {
    events: EventQueue<FaultAction>,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedule `action` at `at`.
    pub fn at(&mut self, at: SimTime, action: FaultAction) -> &mut Self {
        self.events.push(at, action);
        self
    }

    /// One link outage: `link` is dark over `[at, at + down)`.
    pub fn link_outage(&mut self, link: LinkId, at: SimTime, down: SimDuration) -> &mut Self {
        self.at(
            at,
            FaultAction::LinkOutage {
                link,
                until: at + down,
            },
        )
    }

    /// A train of `count` evenly spaced outages: dark for `down`, then up
    /// for `up`, starting at `from`.
    pub fn link_flaps(
        &mut self,
        link: LinkId,
        from: SimTime,
        count: u32,
        down: SimDuration,
        up: SimDuration,
    ) -> &mut Self {
        let mut t = from;
        for _ in 0..count {
            self.link_outage(link, t, down);
            t = t + down + up;
        }
        self
    }

    /// A burst-loss window: `model` governs `link` over `[from, until)`,
    /// after which the uniform loss model is restored.
    pub fn burst_loss_window(
        &mut self,
        link: LinkId,
        from: SimTime,
        until: SimTime,
        model: BurstLoss,
    ) -> &mut Self {
        self.at(
            from,
            FaultAction::SetBurstLoss {
                link,
                model: Some(model),
            },
        );
        self.at(until, FaultAction::SetBurstLoss { link, model: None })
    }

    /// Crash the endpoint at `node` at `at`; it restarts `down` later
    /// with all volatile state lost.
    pub fn crash_restart(&mut self, node: NodeId, at: SimTime, down: SimDuration) -> &mut Self {
        self.at(
            at,
            FaultAction::Endpoint {
                node,
                fault: EndpointFault::CrashRestart {
                    restart_at: at + down,
                },
            },
        )
    }

    /// Make the endpoint at `node` unreachable over `[at, at + down)`,
    /// state intact.
    pub fn unavailable(&mut self, node: NodeId, at: SimTime, down: SimDuration) -> &mut Self {
        self.at(
            at,
            FaultAction::Endpoint {
                node,
                fault: EndpointFault::Unavailable { until: at + down },
            },
        )
    }

    /// The instant of the next scheduled fault.
    #[must_use]
    pub fn next_at(&self) -> Option<SimTime> {
        self.events.peek_time()
    }

    /// Pop the next fault due at or before `now`.
    pub fn pop_due(&mut self, now: SimTime) -> Option<(SimTime, FaultAction)> {
        self.events.pop_due(now)
    }

    /// Number of scheduled (not yet applied) fault actions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if nothing is scheduled.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flap_train_schedules_count_outages() {
        let mut plan = FaultPlan::new();
        plan.link_flaps(
            LinkId(3),
            SimTime::from_secs(1),
            4,
            SimDuration::from_millis(200),
            SimDuration::from_millis(800),
        );
        assert_eq!(plan.len(), 4);
        let (t0, a0) = plan.pop_due(SimTime::from_secs(100)).unwrap();
        assert_eq!(t0, SimTime::from_secs(1));
        assert_eq!(
            a0,
            FaultAction::LinkOutage {
                link: LinkId(3),
                until: SimTime::from_secs(1) + SimDuration::from_millis(200),
            }
        );
        let (t1, _) = plan.pop_due(SimTime::from_secs(100)).unwrap();
        assert_eq!(t1, SimTime::from_secs(2));
    }

    #[test]
    fn burst_window_installs_and_removes() {
        let mut plan = FaultPlan::new();
        plan.burst_loss_window(
            LinkId(1),
            SimTime::from_secs(2),
            SimTime::from_secs(5),
            BurstLoss::flaky_cell(),
        );
        assert_eq!(plan.next_at(), Some(SimTime::from_secs(2)));
        let (_, on) = plan.pop_due(SimTime::from_secs(10)).unwrap();
        assert!(matches!(
            on,
            FaultAction::SetBurstLoss { model: Some(_), .. }
        ));
        let (t, off) = plan.pop_due(SimTime::from_secs(10)).unwrap();
        assert_eq!(t, SimTime::from_secs(5));
        assert!(matches!(off, FaultAction::SetBurstLoss { model: None, .. }));
    }
}
