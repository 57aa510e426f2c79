//! The Fig. 7 attachment-latency benchmark (paper §6.1).
//!
//! Builds two testbeds on the simulated network and measures end-to-end
//! attach latency with a per-module breakdown, for three placements of
//! the SubscriberDB/brokerd (local, us-west-1, us-east-1):
//!
//! * **Baseline (BL)** — UE → eNB → AGW with EPS-AKA against the
//!   SubscriberDB: **two** AGW↔cloud round trips (AIR + ULR).
//! * **CellBricks (CB)** — UE → eNB → bTelco gateway with SAP against
//!   brokerd: **one** round trip.
//!
//! Processing delays are calibrated so the local testbed reproduces the
//! paper's ~70%-processing observation (AGW+Brokerd ≈ 20 ms of ≈ 28 ms),
//! and the cloud one-way latencies are calibrated from the paper's
//! us-west/us-east totals. The *shape* — CB beating BL by one cloud RTT —
//! is the reproduction target.

use crate::brokerd::{Brokerd, BrokerdConfig};
use crate::btelco::{BTelcoGateway, BTelcoGatewayConfig, BrokerContact};
use crate::principal::{BrokerKeys, TelcoKeys, UeKeys};
use crate::sap::QosCap;
use crate::ue::{BrokerReplica, UeDevice, UeDeviceConfig};
use cellbricks_crypto::cert::CertificateAuthority;
use cellbricks_epc::agw::{Agw, AgwConfig};
use cellbricks_epc::aka::SharedKey;
use cellbricks_epc::enb::Enb;
use cellbricks_epc::subscriber_db::SubscriberDb;
use cellbricks_epc::ue_nas::{UeNas, UeNasConfig};
use cellbricks_net::{Driver, LinkConfig, NetWorld, Topology};
use cellbricks_sim::{SimDuration, SimRng, SimTime};
use cellbricks_telemetry as telemetry;
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// Where the SubscriberDB / brokerd runs (paper: local testbed or EC2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Placement {
    /// Display name.
    pub name: &'static str,
    /// One-way AGW↔cloud latency.
    pub one_way: SimDuration,
}

/// The three placements of Fig. 7, with one-way latencies calibrated
/// from the paper's measured totals.
pub const PLACEMENTS: [Placement; 3] = [
    Placement {
        name: "local",
        one_way: SimDuration::from_micros(150),
    },
    Placement {
        name: "us-west-1",
        one_way: SimDuration::from_micros(2100),
    },
    Placement {
        name: "us-east-1",
        one_way: SimDuration::from_micros(34_500),
    },
];

/// Calibrated per-module processing delays.
#[derive(Clone, Debug)]
pub struct ProcProfile {
    /// Baseline UE per-NAS-message cost.
    pub bl_ue: SimDuration,
    /// Baseline AGW per-message cost.
    pub bl_agw: SimDuration,
    /// SubscriberDB per-request cost.
    pub bl_sdb: SimDuration,
    /// CellBricks UE request-build cost (seal + sign).
    pub cb_ue_request: SimDuration,
    /// CellBricks UE response-verify cost.
    pub cb_ue_verify: SimDuration,
    /// CellBricks bTelco gateway per-message cost (incl. signatures).
    pub cb_agw: SimDuration,
    /// brokerd per-request cost (certificate checks, unsealing, sealing).
    pub cb_brokerd: SimDuration,
    /// eNB per-relay cost (same in both architectures).
    pub enb: SimDuration,
}

impl Default for ProcProfile {
    fn default() -> Self {
        Self {
            bl_ue: SimDuration::from_micros(1_500),
            bl_agw: SimDuration::from_micros(3_000),
            bl_sdb: SimDuration::from_micros(2_500),
            cb_ue_request: SimDuration::from_micros(3_000),
            cb_ue_verify: SimDuration::from_micros(2_000),
            cb_agw: SimDuration::from_micros(4_500),
            cb_brokerd: SimDuration::from_micros(11_300),
            enb: SimDuration::from_micros(500),
        }
    }
}

/// One row of the Fig. 7 data: a (placement, architecture) cell with the
/// mean attach latency and its per-module breakdown, all in milliseconds.
#[derive(Clone, Debug)]
pub struct Fig7Row {
    /// Placement name.
    pub placement: &'static str,
    /// `"BL"` (unmodified Magma) or `"CB"` (CellBricks).
    pub variant: &'static str,
    /// Mean end-to-end attach latency.
    pub total_ms: f64,
    /// Mean UE processing per attach.
    pub ue_ms: f64,
    /// Mean eNB processing per attach.
    pub enb_ms: f64,
    /// Mean AGW + SubscriberDB/brokerd processing per attach.
    pub agw_cloud_ms: f64,
    /// Leftover (network) time per attach.
    pub other_ms: f64,
}

/// One Fig. 7 cell's accounting. Per-phase attach-latency histograms
/// named `fig7.<placement>.<variant>.<phase>_ns` are recorded once per
/// trial, so the exported percentiles mirror the figure's breakdown
/// (total / UE / eNB / AGW+cloud); the processing buckets are summed for
/// the row. A bucket's processing is its parties' ledger delta across
/// the attach window only (detach signalling afterwards is not part of
/// Fig. 7).
struct Cell {
    placement: &'static str,
    variant: &'static str,
    /// Total, UE, eNB, AGW + cloud.
    hists: [telemetry::Histogram; 4],
    track: u32,
    /// Summed processing: UE, eNB, AGW + cloud.
    proc: [SimDuration; 3],
}

impl Cell {
    fn register(placement: &'static str, variant: &'static str, track: u32) -> Self {
        let hist = |phase| telemetry::histogram(format!("fig7.{placement}.{variant}.{phase}_ns"));
        Self {
            placement,
            variant,
            hists: ["total", "ue_proc", "enb_proc", "agw_cloud_proc"].map(hist),
            track,
            proc: [SimDuration::ZERO; 3],
        }
    }

    /// Book one trial from the (UE, eNB, AGW + cloud) ledgers read
    /// `before` and `after` its attach window.
    fn record_trial(
        &mut self,
        started: SimTime,
        total: Option<SimDuration>,
        before: [SimDuration; 3],
        after: [SimDuration; 3],
    ) {
        let d: [SimDuration; 3] = std::array::from_fn(|i| after[i] - before[i]);
        for (sum, d) in self.proc.iter_mut().zip(d) {
            *sum = *sum + d;
        }
        let Some(total) = total else { return };
        for (h, v) in self.hists.iter().zip([total, d[0], d[1], d[2]]) {
            h.record(v.as_nanos());
        }
        telemetry::trace_span(
            format!("attach.{}.{}", self.variant, self.placement),
            "fig7",
            started.as_nanos(),
            (started + total).as_nanos(),
            self.track,
        );
    }

    /// The cell's row, at mean attach latency `total_ms`.
    fn row(&self, total_ms: f64, trials: u32) -> Fig7Row {
        let [ue_ms, enb_ms, agw_cloud_ms] =
            self.proc.map(|d| d.as_millis_f64() / f64::from(trials));
        Fig7Row {
            placement: self.placement,
            variant: self.variant,
            total_ms,
            ue_ms,
            enb_ms,
            agw_cloud_ms,
            other_ms: total_ms - ue_ms - enb_ms - agw_cloud_ms,
        }
    }
}

const UE_SIG: Ipv4Addr = Ipv4Addr::new(169, 254, 0, 1);
const AGW_SIG: Ipv4Addr = Ipv4Addr::new(172, 16, 1, 1);
const CLOUD_IP: Ipv4Addr = Ipv4Addr::new(172, 16, 0, 1);

fn build_topology(placement: Placement) -> (Topology, [cellbricks_net::NodeId; 4]) {
    let mut t = Topology::new();
    let ue = t.add_node("ue");
    let enb = t.add_node("enb");
    let agw = t.add_node("agw");
    let cloud = t.add_node("cloud");
    let l_radio = t.add_symmetric_link(
        ue,
        enb,
        LinkConfig::delay_only(SimDuration::from_micros(100)),
    );
    let l_back = t.add_symmetric_link(
        enb,
        agw,
        LinkConfig::delay_only(SimDuration::from_micros(100)),
    );
    let l_cloud = t.add_symmetric_link(agw, cloud, LinkConfig::delay_only(placement.one_way));
    t.add_default_route(ue, l_radio);
    t.add_route(enb, UE_SIG, 32, l_radio);
    t.add_default_route(enb, l_back);
    t.add_route(agw, UE_SIG, 32, l_back);
    t.add_default_route(agw, l_cloud);
    t.add_default_route(cloud, l_cloud);
    (t, [ue, enb, agw, cloud])
}

/// Run `trials` baseline attaches and report the breakdown.
#[must_use]
pub fn run_baseline(
    placement: Placement,
    profile: &ProcProfile,
    trials: u32,
    seed: u64,
) -> Fig7Row {
    let (topology, [ue_node, enb_node, agw_node, cloud_node]) = build_topology(placement);
    let mut world = NetWorld::new(topology, SimRng::new(seed));
    let mut ue = UeNas::new(
        ue_node,
        UeNasConfig {
            imsi: 42,
            key: SharedKey([7; 16]),
            ue_sig: UE_SIG,
            agw_sig: AGW_SIG,
            proc_delay: profile.bl_ue,
        },
    );
    let mut enb = Enb::new(enb_node, profile.enb);
    let mut agw = Agw::new(
        agw_node,
        AgwConfig {
            sig_ip: AGW_SIG,
            sdb_ip: CLOUD_IP,
            pool_base: Ipv4Addr::new(10, 1, 0, 0),
            proc_delay: profile.bl_agw,
        },
    );
    let mut sdb = SubscriberDb::new(cloud_node, CLOUD_IP, profile.bl_sdb, SimRng::new(seed + 1));
    sdb.provision(42, SharedKey([7; 16]));

    let mut cursor = SimTime::ZERO;
    let mut driver = Driver::new();
    let mut cell = Cell::register(placement.name, "BL", 0);
    for i in 0..trials {
        let before = [
            ue.proc_time(),
            enb.proc_time(),
            agw.proc_time() + sdb.proc_time(),
        ];
        ue.start_attach(cursor);
        let until = cursor + SimDuration::from_secs(2);
        driver.run_to(
            &mut world,
            &mut [&mut ue, &mut enb, &mut agw, &mut sdb],
            until,
        );
        assert!(ue.is_attached(), "baseline attach {i} failed");
        let after = [
            ue.proc_time(),
            enb.proc_time(),
            agw.proc_time() + sdb.proc_time(),
        ];
        cell.record_trial(cursor, ue.last_attach_latency, before, after);
        ue.start_detach(until);
        cursor = until + SimDuration::from_secs(1);
        driver.run_to(
            &mut world,
            &mut [&mut ue, &mut enb, &mut agw, &mut sdb],
            cursor,
        );
    }
    cell.row(ue.attach_latency_ms.mean(), trials)
}

/// Run `trials` CellBricks attaches and report the breakdown.
#[must_use]
pub fn run_cellbricks(
    placement: Placement,
    profile: &ProcProfile,
    trials: u32,
    seed: u64,
) -> Fig7Row {
    let (topology, [ue_node, enb_node, agw_node, cloud_node]) = build_topology(placement);
    let mut world = NetWorld::new(topology, SimRng::new(seed));
    let mut rng = SimRng::new(seed + 10);

    let ca = CertificateAuthority::from_seed([0xCA; 32]);
    let broker_keys = BrokerKeys::generate("broker.example", &ca, &mut rng);
    let telco_keys = TelcoKeys::generate("tower-1.example", &ca, &mut rng);
    let ue_keys = UeKeys::generate(&mut rng);

    let mut brokerd = Brokerd::new(
        cloud_node,
        BrokerdConfig {
            ip: CLOUD_IP,
            keys: broker_keys.clone(),
            ca: ca.public_key(),
            proc_delay: profile.cb_brokerd,
            epsilon: 0.005,
            session_retention: SimDuration::from_secs(86_400),
        },
        rng.fork(),
    );
    let (sign_pk, encrypt_pk) = ue_keys.public();
    brokerd.provision(ue_keys.identity(), sign_pk, encrypt_pk, 50_000_000);

    let mut brokers = HashMap::new();
    brokers.insert(
        "broker.example".to_string(),
        BrokerContact {
            ctrl_ip: CLOUD_IP,
            encrypt_pk: broker_keys.encrypt.public_key(),
        },
    );
    let mut telco = BTelcoGateway::new(
        agw_node,
        BTelcoGatewayConfig {
            sig_ip: AGW_SIG,
            pool_base: Ipv4Addr::new(10, 1, 0, 0),
            keys: telco_keys,
            ca: ca.public_key(),
            brokers,
            qos_cap: QosCap {
                max_mbr_bps: 100_000_000,
                qci_supported: vec![9],
                li_capable: true,
            },
            proc_delay: profile.cb_agw,
            report_interval: SimDuration::from_secs(3_600),
        },
        rng.fork(),
    );
    let mut enb = Enb::new(enb_node, profile.enb);
    let mut ue = UeDevice::new(
        ue_node,
        UeDeviceConfig {
            ue_sig: UE_SIG,
            keys: ue_keys,
            broker_name: "broker.example".to_string(),
            broker_sign_pk: broker_keys.sign.verifying_key(),
            broker_encrypt_pk: broker_keys.encrypt.public_key(),
            brokers: vec![BrokerReplica {
                name: "broker.example".to_string(),
                ctrl_ip: CLOUD_IP,
                rtt: SimDuration::ZERO,
            }],
            proc_delay: profile.cb_ue_request,
            verify_delay: profile.cb_ue_verify,
            report_interval: SimDuration::from_secs(3_600),
            attach_max_tries: 3,
        },
        rng.fork(),
    );

    let mut cursor = SimTime::ZERO;
    let mut driver = Driver::new();
    let mut cell = Cell::register(placement.name, "CB", 1);
    for i in 0..trials {
        let before = [
            ue.proc_time(),
            enb.proc_time(),
            telco.proc_time() + brokerd.proc_time(),
        ];
        ue.start_attach(cursor, "tower-1.example", AGW_SIG);
        let until = cursor + SimDuration::from_secs(2);
        // Step, and read the ledgers when the attach window closes.
        let mut t = cursor;
        while !ue.is_attached() && t < until {
            let next = t + SimDuration::from_millis(1);
            driver.run_to(
                &mut world,
                &mut [&mut ue, &mut enb, &mut telco, &mut brokerd],
                next,
            );
            t = next;
        }
        assert!(ue.is_attached(), "cellbricks attach {i} failed");
        let after = [
            ue.proc_time(),
            enb.proc_time(),
            telco.proc_time() + brokerd.proc_time(),
        ];
        cell.record_trial(cursor, ue.last_attach_latency, before, after);
        driver.run_to(
            &mut world,
            &mut [&mut ue, &mut enb, &mut telco, &mut brokerd],
            until,
        );
        ue.detach(until);
        cursor = until + SimDuration::from_secs(1);
        driver.run_to(
            &mut world,
            &mut [&mut ue, &mut enb, &mut telco, &mut brokerd],
            cursor,
        );
    }
    cell.row(ue.attach_latency_ms.mean(), trials)
}

/// Produce the full Fig. 7 data set: BL and CB at each placement.
#[must_use]
pub fn fig7_table(trials: u32, seed: u64) -> Vec<Fig7Row> {
    let profile = ProcProfile::default();
    let mut rows = Vec::new();
    for placement in PLACEMENTS {
        rows.push(run_baseline(placement, &profile, trials, seed));
        rows.push(run_cellbricks(placement, &profile, trials, seed));
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile() -> ProcProfile {
        ProcProfile::default()
    }

    #[test]
    fn baseline_local_matches_paper_magnitude() {
        let row = run_baseline(PLACEMENTS[0], &profile(), 10, 1);
        // Paper Fig. 7 local: ≈ 28–30 ms with processing dominating.
        assert!(
            (25.0..35.0).contains(&row.total_ms),
            "BL local {} ms",
            row.total_ms
        );
        let proc = row.ue_ms + row.enb_ms + row.agw_cloud_ms;
        assert!(proc / row.total_ms > 0.85, "processing dominates locally");
    }

    #[test]
    fn cellbricks_beats_baseline_in_cloud_placements() {
        let p = profile();
        for placement in [PLACEMENTS[1], PLACEMENTS[2]] {
            let bl = run_baseline(placement, &p, 10, 2);
            let cb = run_cellbricks(placement, &p, 10, 2);
            assert!(
                cb.total_ms < bl.total_ms,
                "{}: CB {} vs BL {}",
                placement.name,
                cb.total_ms,
                bl.total_ms
            );
        }
    }

    #[test]
    fn us_west_matches_paper_numbers() {
        let p = profile();
        let bl = run_baseline(PLACEMENTS[1], &p, 20, 3);
        let cb = run_cellbricks(PLACEMENTS[1], &p, 20, 3);
        // Paper: BL 36.85 ms, CB 31.68 ms (−14.0%).
        assert!((bl.total_ms - 36.85).abs() < 4.0, "BL west {}", bl.total_ms);
        assert!((cb.total_ms - 31.68).abs() < 4.0, "CB west {}", cb.total_ms);
        let saving = (bl.total_ms - cb.total_ms) / bl.total_ms;
        assert!(saving > 0.05 && saving < 0.30, "saving {saving}");
    }

    #[test]
    fn us_east_saving_near_40_percent() {
        let p = profile();
        let bl = run_baseline(PLACEMENTS[2], &p, 10, 4);
        let cb = run_cellbricks(PLACEMENTS[2], &p, 10, 4);
        // Paper: BL 166.48 ms, CB 98.62 ms (−40.8%).
        assert!(
            (bl.total_ms - 166.48).abs() < 12.0,
            "BL east {}",
            bl.total_ms
        );
        assert!(
            (cb.total_ms - 98.62).abs() < 10.0,
            "CB east {}",
            cb.total_ms
        );
        let saving = (bl.total_ms - cb.total_ms) / bl.total_ms;
        assert!((saving - 0.408).abs() < 0.08, "saving {saving}");
    }

    #[test]
    fn breakdown_sums_to_total() {
        let row = run_cellbricks(PLACEMENTS[0], &profile(), 5, 5);
        let sum = row.ue_ms + row.enb_ms + row.agw_cloud_ms + row.other_ms;
        assert!((sum - row.total_ms).abs() < 1e-6);
        assert!(row.other_ms >= 0.0);
    }
}
