//! A complete two-bTelco CellBricks world for integration tests: UE —
//! {eNB₁—AGW₁, eNB₂—AGW₂} — internet — {broker, server}, a
//! `core::scenario` with its parties named. Every control message and
//! data packet crosses the simulated network; all SAP cryptography is
//! real.

// Different test binaries use different subsets of the harness.
#![allow(dead_code)]

use cellbricks::core::brokerd::Brokerd;
use cellbricks::core::btelco::BTelcoGateway;
use cellbricks::core::scenario::{self, Brokers, Scenario, World};
use cellbricks::core::ue::{RecoveryConfig, UeDevice};
use cellbricks::epc::enb::Enb;
use cellbricks::net::{
    ControlEndpoint, Driver, Endpoint, LinkConfig, LinkId, NetWorld, NodeId, Router,
};
use cellbricks::sim::{SimDuration, SimTime};
use cellbricks::transport::Host;
use std::net::Ipv4Addr;

pub const UE_SIG: Ipv4Addr = scenario::ue_sig(0);
pub const AGW1_SIG: Ipv4Addr = scenario::telco_sig(0);
pub const AGW2_SIG: Ipv4Addr = scenario::telco_sig(1);
pub const BROKER_IP: Ipv4Addr = scenario::broker_ip(0);
pub const SERVER_IP: Ipv4Addr = scenario::SERVER_IP;

pub const TELCO1: &str = "tower-1.example";
pub const TELCO2: &str = "tower-2.example";

pub struct CellBricksWorld {
    pub world: NetWorld,
    pub ue: ControlEndpoint<UeDevice>,
    pub ue_identity: cellbricks::core::principal::Identity,
    pub enb1: ControlEndpoint<Enb>,
    pub enb2: ControlEndpoint<Enb>,
    pub telco1: ControlEndpoint<BTelcoGateway>,
    pub telco2: ControlEndpoint<BTelcoGateway>,
    pub brokerd: ControlEndpoint<Brokerd>,
    pub internet: Router,
    pub server: Host,
    pub radio1: LinkId,
    pub radio2: LinkId,
    pub cloud: LinkId,
    pub ue_node: NodeId,
    pub agw1_node: NodeId,
    pub broker_node: NodeId,
    pub cursor: SimTime,
    pub driver: Driver,
}

impl CellBricksWorld {
    pub fn build(seed: u64) -> CellBricksWorld {
        Self::build_with_plan(seed, 50_000_000)
    }

    /// A world tuned for chaos testing: the UE recovers on its own —
    /// jittered capped exponential backoff on attach retries, more
    /// retries, and the inactivity watchdog armed so a crashed bTelco is
    /// detected and re-attached without harness help.
    pub fn build_chaos(seed: u64) -> CellBricksWorld {
        let mut w = Self::build(seed);
        w.ue.set_recovery(RecoveryConfig {
            backoff_factor: 2.0,
            backoff_cap: SimDuration::from_secs(8),
            jitter: 0.1,
            reattach_after: Some(SimDuration::from_secs(2)),
        });
        w
    }

    /// Build with a specific subscriber plan MBR (bits/s).
    pub fn build_with_plan(seed: u64, plan_mbr_bps: u64) -> CellBricksWorld {
        let ms = SimDuration::from_millis;
        let World {
            net,
            driver,
            ues,
            enbs,
            telcos,
            brokers,
            internet,
            server,
            principals,
            radios,
            clouds,
            ..
        } = Scenario {
            seed,
            telcos: 2,
            brokers: Brokers::Each(vec![ms(4)]),
            // 30 Mbit/s LTE-like cells.
            radio: LinkConfig::fixed_rate(ms(8), 30.0e6, ms(150)),
            backhaul: ms(2),
            core: Some(ms(5)),
            server: Some(ms(3)),
            ue_request: ms(3),
            ue_verify: ms(2),
            telco_delay: ms(2),
            // Paper §4.3: ε is "derived from the acceptable link loss
            // rate". The PGW meters bytes *before* the radio link, so
            // slow-start overshoot dropped at the radio queue shows up
            // as UE-vs-bTelco discrepancy; 5% covers it.
            epsilon: 0.05,
            report_interval: SimDuration::from_secs(5),
            plan_mbr_bps,
            ..Scenario::default()
        }
        .build();
        let [ue] = <[_; 1]>::try_from(ues).ok().expect("one UE");
        let [enb1, enb2] = <[_; 2]>::try_from(enbs).ok().expect("two eNBs");
        let [telco1, telco2] = <[_; 2]>::try_from(telcos).ok().expect("two bTelcos");
        let [brokerd] = <[_; 1]>::try_from(brokers).ok().expect("one broker");
        CellBricksWorld {
            world: net,
            ue_identity: principals.ues[0],
            ue_node: ue.node(),
            agw1_node: telco1.node(),
            broker_node: brokerd.node(),
            ue,
            enb1,
            enb2,
            telco1,
            telco2,
            brokerd,
            internet: internet.expect("internet router"),
            server: server.expect("server"),
            radio1: radios[0],
            radio2: radios[1],
            cloud: clouds[0],
            cursor: SimTime::ZERO,
            driver,
        }
    }

    /// Advance the whole world to `until`, in `core::scenario`'s
    /// endpoint order.
    pub fn run_to(&mut self, until: SimTime) {
        self.driver.run_to(
            &mut self.world,
            &mut [
                &mut self.ue,
                &mut self.enb1,
                &mut self.enb2,
                &mut self.telco1,
                &mut self.telco2,
                &mut self.brokerd,
                &mut self.internet,
                &mut self.server,
            ],
            until,
        );
        self.cursor = until;
    }

    /// The provisioned subscriber's identity.
    pub fn ue_identity(&self) -> cellbricks::core::principal::Identity {
        self.ue_identity
    }

    /// Point the UE's radio at bTelco 1 or 2 (cell selection outcome).
    pub fn select_radio(&mut self, telco: u8) {
        let link = if telco == 1 { self.radio1 } else { self.radio2 };
        self.world
            .topology_mut()
            .replace_default_route(self.ue_node, link);
    }
}
