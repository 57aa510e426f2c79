//! Broker replica pair integration: a primary/standby `Brokerd` pair
//! over a shared store, driven through the real network with real SAP
//! crypto.
//!
//! Covered here:
//! - latency-aware selection: with both replicas reachable, every auth
//!   lands on the (lower-RTT) primary;
//! - deterministic failover: the primary killed mid-attach-burst
//!   costs retries, never failures — the retry quarantines the dark
//!   replica and re-resolves on the standby, whose shared store already
//!   holds the subscriber and nonce state;
//! - leak hygiene through the pair: attach/detach churn holds the live
//!   session count at a steady state bounded by the retention window,
//!   not by run length.

use cellbricks::core::broker_plane::BrokerPair;
use cellbricks::core::btelco::BTelcoGateway;
use cellbricks::core::scenario::{telco_sig, Brokers, Scenario, World};
use cellbricks::core::ue::UeDevice;
use cellbricks::epc::enb::Enb;
use cellbricks::net::{ControlEndpoint, Driver, Endpoint, FaultPlan, NetWorld, NodeId, Router};
use cellbricks::sim::{SimDuration, SimTime};
use std::net::Ipv4Addr;

const AGW_SIG: Ipv4Addr = telco_sig(0);
const TELCO: &str = "tower-1.example";

struct PlaneWorld {
    world: NetWorld,
    enb: ControlEndpoint<Enb>,
    telco: ControlEndpoint<BTelcoGateway>,
    internet: Router,
    pair: BrokerPair,
    ues: Vec<ControlEndpoint<UeDevice>>,
    driver: Driver,
    primary_node: NodeId,
}

/// N UEs — one eNB/AGW — internet — {primary, standby}. The primary
/// sits behind a 2 ms cloud link, the standby behind 5 ms, so lowest-RTT
/// selection has a right answer.
fn build(n: usize, seed: u64, retention: SimDuration) -> PlaneWorld {
    let ms = SimDuration::from_millis;
    let World {
        net,
        driver,
        ues,
        mut enbs,
        mut telcos,
        pair,
        internet,
        ..
    } = Scenario {
        seed,
        ues: n,
        brokers: Brokers::Pair(ms(2), ms(5)),
        core: Some(ms(2)),
        enb_delay: SimDuration::from_micros(100),
        session_retention: retention,
        attach_max_tries: 5,
        ..Scenario::default()
    }
    .build();
    let pair = pair.expect("a replica pair");
    PlaneWorld {
        world: net,
        enb: enbs.remove(0),
        telco: telcos.remove(0),
        internet: internet.expect("internet router"),
        primary_node: pair.primary.node(),
        pair,
        ues,
        driver,
    }
}

impl PlaneWorld {
    /// Advance to `until`, in `core::scenario`'s endpoint order.
    fn run_to(&mut self, until: SimTime) {
        let mut endpoints: Vec<&mut dyn Endpoint> = Vec::new();
        for ue in &mut self.ues {
            endpoints.push(ue);
        }
        endpoints.push(&mut self.enb);
        endpoints.push(&mut self.telco);
        for b in self.pair.endpoints_mut() {
            endpoints.push(b);
        }
        endpoints.push(&mut self.internet);
        self.driver.run_to(&mut self.world, &mut endpoints, until);
    }

    fn attach_all(&mut self) {
        for ue in &mut self.ues {
            ue.start_attach(SimTime::ZERO, TELCO, AGW_SIG);
        }
    }

    fn attached(&self) -> usize {
        self.ues.iter().filter(|u| u.is_attached()).count()
    }

    fn failures(&self) -> u64 {
        self.ues.iter().map(|u| u.failures).sum()
    }
}

#[test]
fn burst_lands_on_lowest_rtt_primaries_only() {
    let mut w = build(12, 42, SimDuration::from_secs(86_400));
    w.attach_all();
    w.run_to(SimTime::from_secs(5));
    assert_eq!(w.attached(), 12, "whole burst attached");
    assert_eq!(w.failures(), 0);
    assert_eq!(
        w.pair.primary.auth_ok, 12,
        "the primary authorized every UE"
    );
    assert_eq!(
        w.pair.standby.auth_ok, 0,
        "standby idle while the primary answers"
    );
}

/// One primary kill: `n` UEs burst at 0 s, the primary goes dark at
/// `kill_at` for `dark_for` (past every retry, so only standby failover
/// can finish the burst), and the world runs to `run_to`.
struct KillCase {
    n: usize,
    kill_at: SimTime,
    dark_for: SimDuration,
    run_to: SimTime,
    /// Auths the standby must serve: the UEs whose requests had not
    /// been answered by the primary when it went dark.
    standby_auths: u64,
}

#[test]
fn mid_burst_primary_kill_fails_over_with_zero_failed_attaches() {
    let cases = [
        // Killed 5 ms into the burst: every request is in flight, no
        // reply is out, so every UE re-resolves on the standby.
        KillCase {
            n: 12,
            kill_at: SimTime::from_millis(5),
            dark_for: SimDuration::from_secs(60),
            run_to: SimTime::from_secs(20),
            standby_auths: 12,
        },
        // EXPERIMENTS' broker-failover run: killed 50 ms into a 240-UE
        // burst, after the first requests are committed to the primary
        // and before their replies escape.
        KillCase {
            n: 240,
            kill_at: SimTime::from_millis(50),
            dark_for: SimDuration::from_secs(120),
            run_to: SimTime::from_secs(30),
            standby_auths: 221,
        },
    ];
    for case in cases {
        let n = case.n;
        let mut w = build(n, 42, SimDuration::from_secs(86_400));
        let mut plan = FaultPlan::new();
        plan.unavailable(w.primary_node, case.kill_at, case.dark_for);
        w.driver.set_fault_plan(plan);
        w.attach_all();
        w.run_to(case.run_to);

        assert_eq!(w.attached(), n, "N={n}: burst completed through the kill");
        assert_eq!(
            w.failures(),
            0,
            "N={n}: failover must not cost a failed attach"
        );
        assert_eq!(
            w.pair.standby.auth_ok, case.standby_auths,
            "N={n}: every UE still in flight re-resolved on the standby"
        );
        assert!(
            w.pair.primary.auth_ok + w.pair.standby.auth_ok >= n as u64,
            "N={n}: every UE authorized on one of the replicas"
        );
        let stale: u64 = w.ues.iter().map(|u| u.stale_accepts).sum();
        assert_eq!(stale, 0, "N={n}: no reply escaped the dark primary");
        let retried = w.ues.iter().filter(|u| u.attach_retries >= 1).count();
        assert!(
            retried as u64 >= case.standby_auths,
            "N={n}: failover rode the retry timer ({retried} retried)"
        );
    }
}

#[test]
fn reattach_churn_holds_sessions_at_steady_state() {
    // 5 s retention against 60 s of detach/re-attach churn: the live
    // session count must track the retention window, not total churn.
    let mut w = build(8, 42, SimDuration::from_secs(5));
    w.attach_all();
    w.run_to(SimTime::from_secs(2));
    assert_eq!(w.attached(), 8);

    let mut created = 8u64;
    for cycle in 1..=15u64 {
        let at = SimTime::from_secs(2 + cycle * 4);
        for ue in &mut w.ues {
            ue.detach(at);
            ue.start_attach(at, TELCO, AGW_SIG);
        }
        created += 8;
        w.run_to(SimTime::from_secs(2 + cycle * 4 + 2));
        assert_eq!(w.attached(), 8, "cycle {cycle} re-attached");
    }

    let live = w.pair.sessions_live();
    let reclaimed = w.pair.primary.sessions_reclaimed();
    assert!(
        live <= 3 * 8,
        "live sessions bounded by the retention window, got {live} of {created} created"
    );
    assert_eq!(
        reclaimed + live as u64,
        created,
        "every settled session is either live-in-window or reclaimed"
    );
}
