//! Chaos suite: every fault class the `FaultPlan` can script — link
//! flaps, Gilbert–Elliott burst loss, bTelco crash+restart, broker
//! unavailability — followed by the system converging back to steady
//! state: the UE re-attached and the bulk transfer moving again. Plus the
//! recovery-hardening properties themselves: capped exponential backoff
//! on attach retries, detach clearing pending-attach state, and
//! bit-identical replays per seed.

mod common;

use cellbricks::core::scenario::Scenario;
use cellbricks::core::ue::{RecoveryConfig, UeDevice};
use cellbricks::epc::nas::NasMessage;
use cellbricks::net::{
    BurstLoss, ControlEndpoint, Endpoint, EndpointAddr, FaultPlan, Packet, PacketKind,
};
use cellbricks::sim::{SimDuration, SimTime};
use cellbricks::transport::MpId;
use common::{CellBricksWorld, AGW1_SIG, SERVER_IP, TELCO1};

const SECS: fn(u64) -> SimTime = SimTime::from_secs;

/// Attach via bTelco 1 and start a server→UE bulk download.
fn chaos_world_with_traffic(seed: u64) -> (CellBricksWorld, MpId) {
    let mut w = CellBricksWorld::build_chaos(seed);
    w.ue.start_attach(SimTime::ZERO, TELCO1, AGW1_SIG);
    w.run_to(SECS(1));
    assert!(w.ue.is_attached());
    w.server.mp_listen(5001);
    let conn =
        w.ue.host
            .mp_connect(w.cursor, EndpointAddr::new(SERVER_IP, 5001));
    w.run_to(SECS(2));
    let sc = w.server.take_accepted_mp()[0];
    w.server.mp_set_bulk(w.cursor, sc);
    (w, conn)
}

#[test]
fn link_flap_recovers() {
    let (mut w, conn) = chaos_world_with_traffic(21);
    w.run_to(SECS(5));
    let before = w.ue.host.mp(conn).data_received();
    assert!(before > 100_000, "flowing before faults: {before}");

    // Three 400 ms outages, 600 ms apart, on the serving radio.
    let mut plan = FaultPlan::new();
    plan.link_flaps(
        w.radio1,
        SECS(5),
        3,
        SimDuration::from_millis(400),
        SimDuration::from_millis(600),
    );
    w.driver.set_fault_plan(plan);
    w.run_to(SECS(9));
    assert_eq!(w.driver.pending_faults(), 0, "all flaps applied");

    // Convergence: still attached, transfer moving again after the train.
    let mid = w.ue.host.mp(conn).data_received();
    w.run_to(SECS(14));
    let after = w.ue.host.mp(conn).data_received();
    assert!(w.ue.is_attached(), "UE survived the flap train");
    assert!(
        after > mid + 500_000,
        "transfer resumed after flaps: {mid} -> {after}"
    );
}

#[test]
fn burst_loss_recovers() {
    let (mut w, conn) = chaos_world_with_traffic(22);
    w.run_to(SECS(5));
    let drops_before = w.world.link_stats(w.radio1).ba_dropped;

    // A flaky-cell burst-loss window over [5 s, 10 s) on the radio.
    let mut plan = FaultPlan::new();
    plan.burst_loss_window(w.radio1, SECS(5), SECS(10), BurstLoss::flaky_cell());
    w.driver.set_fault_plan(plan);
    w.run_to(SECS(10));

    // The bad states actually bit (downlink = b→a on the UE-eNB link).
    let drops_during = w.world.link_stats(w.radio1).ba_dropped - drops_before;
    assert!(drops_during > 20, "burst losses observed: {drops_during}");

    // Model removed at window end; the transfer converges back.
    let mid = w.ue.host.mp(conn).data_received();
    w.run_to(SECS(16));
    let after = w.ue.host.mp(conn).data_received();
    assert!(w.ue.is_attached());
    assert!(
        after > mid + 500_000,
        "transfer recovered after the burst window: {mid} -> {after}"
    );
}

#[test]
fn telco_crash_restart_reattaches_and_resumes() {
    let (mut w, conn) = chaos_world_with_traffic(23);
    w.run_to(SECS(5));
    let session_before = w.ue.session_id().unwrap();

    // bTelco 1 crashes at 5 s, back up at 6 s, all volatile state gone.
    let mut plan = FaultPlan::new();
    plan.crash_restart(w.agw1_node, SECS(5), SimDuration::from_secs(1));
    w.driver.set_fault_plan(plan);
    w.run_to(SECS(6));
    assert_eq!(w.telco1.crashes, 1);
    assert_eq!(w.telco1.session_count(), 0, "crash wiped the session");

    // The inactivity watchdog notices the dead downlink and re-attaches;
    // the broker issues a *new* session (the old one died with the telco's
    // meters — its UE-side reports still settle via the Fig. 5 fallback).
    w.run_to(SECS(20));
    assert!(w.ue.watchdog_reattaches >= 1, "watchdog fired");
    assert!(w.ue.is_attached(), "re-attached after restart");
    let session_after = w.ue.session_id().unwrap();
    assert_ne!(session_before, session_after, "fresh SAP session");
    assert!(w.telco1.attach_count >= 2, "post-restart attach counted");

    let mid = w.ue.host.mp(conn).data_received();
    w.run_to(SECS(28));
    let after = w.ue.host.mp(conn).data_received();
    assert!(
        after > mid + 200_000,
        "transfer resumed on the new session: {mid} -> {after}"
    );
}

#[test]
fn broker_outage_delays_but_not_denies_attach() {
    let mut w = CellBricksWorld::build_chaos(24);
    // Broker dark over [0 s, 6 s): every authReqT relay is dropped, so the
    // attach must ride the UE's retry machinery until the window ends.
    let mut plan = FaultPlan::new();
    plan.unavailable(w.broker_node, SimTime::ZERO, SimDuration::from_secs(6));
    w.driver.set_fault_plan(plan);

    w.ue.start_attach(SimTime::ZERO, TELCO1, AGW1_SIG);
    w.run_to(SECS(5));
    assert!(
        !w.ue.is_attached(),
        "cannot attach while the broker is dark"
    );
    assert!(w.ue.attach_retries >= 1, "retries fired during the outage");
    assert!(w.brokerd.dropped_while_down() > 0);

    w.run_to(SECS(30));
    assert!(
        w.ue.is_attached(),
        "attach converged once the broker returned (retries {}, failures {})",
        w.ue.attach_retries,
        w.ue.failures
    );
    // And traffic actually flows on the session born from recovery.
    w.server.mp_listen(5001);
    let conn =
        w.ue.host
            .mp_connect(w.cursor, EndpointAddr::new(SERVER_IP, 5001));
    w.run_to(SECS(32));
    let sc = w.server.take_accepted_mp()[0];
    w.server.mp_set_bulk(w.cursor, sc);
    w.run_to(SECS(36));
    let resumed = w.ue.host.mp(conn).data_received();
    assert!(
        resumed > 200_000,
        "transfer moving on the recovered session: {resumed}"
    );
}

/// Pins `ControlEndpoint`'s outage gate (`net::control`: the serial
/// service's delay line under an `Unavailable` window): a request that
/// *arrived* before the outage may have its reply staged inside the
/// window, but nothing leaves the broker until recovery — and the late
/// reply, whose nonce belongs to an attempt the
/// UE has already given up on, must be discarded as stale rather than
/// destroying the in-flight retry.
///
/// The timing is cut deliberately fine. The SAP request reaches the
/// broker at ≈24.5 ms (UE proc 3 + radio 8 + eNB 0.5 + back 2 + AGW
/// proc 2 + core 5 + cloud 4) and the reply is staged for ≈26.5 ms
/// (proc 2 ms); the outage window [25 ms, 3 s) opens between the two.
#[test]
fn reply_staged_before_outage_flushes_at_recovery_as_stale() {
    let mut w = CellBricksWorld::build_chaos(26);
    let mut plan = FaultPlan::new();
    plan.unavailable(
        w.broker_node,
        SimTime::from_millis(25),
        SimDuration::from_millis(2_975),
    );
    w.driver.set_fault_plan(plan);
    w.ue.start_attach(SimTime::ZERO, TELCO1, AGW1_SIG);

    // Precondition for the scenario: the broker authorized the request
    // before going dark, so the reply is sitting in its egress queue.
    w.run_to(SimTime::from_millis(25));
    assert_eq!(w.brokerd.auth_ok, 1, "request processed before outage");
    assert_eq!(
        w.world.link_stats(w.cloud).ba_delivered,
        0,
        "reply not yet on the wire"
    );

    // Deep inside the window: the staged reply must NOT have been
    // emitted (broker→internet stays silent), and the ~2 s retry that
    // landed mid-outage must have been dropped, not queued.
    w.run_to(SimTime::from_millis(2_900));
    assert_eq!(
        w.world.link_stats(w.cloud).ba_delivered,
        0,
        "nothing leaves the broker mid-outage"
    );
    assert!(w.ue.attach_retries >= 1, "retry fired during the window");
    assert!(
        w.brokerd.dropped_while_down() >= 1,
        "mid-outage request dropped"
    );

    // Recovery: the stale reply flushes, fails nonce verification
    // against the newer in-flight attempt, and is counted — without
    // killing the pending attach or booking a failure.
    w.run_to(SECS(4));
    assert!(
        w.world.link_stats(w.cloud).ba_delivered >= 1,
        "staged reply flushed at recovery"
    );
    assert_eq!(w.ue.stale_accepts, 1, "late reply discarded as stale");
    assert_eq!(w.ue.failures, 0, "stale reply must not book a failure");

    // The retry machinery, still alive, converges on the next attempt
    // (checked at 7 s, before the idle watchdog re-attaches on its own).
    w.run_to(SECS(7));
    assert!(w.ue.is_attached(), "attach survived the stale reply");
    assert_eq!(w.ue.attaches, 1);
    assert_eq!(w.ue.failures, 0);
    assert_eq!(w.brokerd.auth_ok, 2, "one pre-outage auth, one converging");
}

#[test]
fn mptcp_fails_over_under_scripted_flaps() {
    let (mut w, conn) = chaos_world_with_traffic(25);
    w.run_to(SECS(5));
    let before = w.ue.host.mp(conn).data_received();

    // Radio 1 starts flapping hard; the host gives up on bTelco 1 and
    // hands over to bTelco 2 mid-train (break-before-make, §4.2).
    let mut plan = FaultPlan::new();
    plan.link_flaps(
        w.radio1,
        SECS(5),
        10,
        SimDuration::from_millis(500),
        SimDuration::from_millis(500),
    );
    w.driver.set_fault_plan(plan);
    w.run_to(SECS(6));
    let ho_at = w.cursor;
    w.select_radio(2);
    w.ue.handover(ho_at, common::TELCO2, common::AGW2_SIG);
    w.run_to(SECS(8));
    assert!(w.ue.is_attached(), "attached to bTelco 2");
    assert_eq!(
        w.ue.host.addr().unwrap().octets()[..2],
        [10, 2],
        "bTelco 2's pool"
    );

    // The same MPTCP connection keeps delivering over the new subflow
    // while radio 1 is still flapping.
    w.run_to(SECS(15));
    let after = w.ue.host.mp(conn).data_received();
    assert!(
        after > before + 500_000,
        "connection failed over and kept moving: {before} -> {after}"
    );
}

/// A UE polled by hand with no network around it: its world is
/// dropped, so every request it sends is lost.
fn lone_ue(seed: u64, attach_max_tries: u32) -> ControlEndpoint<UeDevice> {
    let mut w = Scenario {
        seed,
        ue_request: SimDuration::ZERO,
        ue_verify: SimDuration::ZERO,
        report_interval: SimDuration::from_secs(5),
        attach_max_tries,
        ..Scenario::default()
    }
    .build();
    w.ues.remove(0)
}

/// Drive a UE with no network at all: every request is lost, so each
/// retry fires on deadline — the emission times expose the backoff shape.
fn attach_request_times(recovery: RecoveryConfig, max_tries: u32) -> Vec<SimTime> {
    let mut ue = lone_ue(77, max_tries);
    ue.set_recovery(recovery);
    ue.start_attach(SimTime::ZERO, TELCO1, AGW1_SIG);
    let mut times = Vec::new();
    let horizon = SECS(200);
    while let Some(at) = ue.poll_at() {
        if at > horizon {
            break;
        }
        let mut out = Vec::new();
        ue.poll(at, &mut out);
        for pkt in out {
            if let PacketKind::Control(bytes) = &pkt.kind {
                if matches!(
                    NasMessage::decode(bytes),
                    Some(NasMessage::SapAttachRequest { .. })
                ) {
                    times.push(at);
                }
            }
        }
    }
    times
}

#[test]
fn attach_retry_spacing_grows_exponentially_to_cap() {
    let recovery = RecoveryConfig {
        backoff_factor: 2.0,
        backoff_cap: SimDuration::from_secs(16),
        jitter: 0.0,
        reattach_after: None,
    };
    let times = attach_request_times(recovery, 7);
    assert_eq!(times.len(), 7, "all tries issued: {times:?}");
    let gaps: Vec<f64> = times
        .windows(2)
        .map(|p| p[1].since(p[0]).as_secs_f64())
        .collect();
    // base 2 s, doubling, capped at 16 s: 2, 4, 8, 16, 16, 16.
    for (i, pair) in gaps.windows(2).enumerate() {
        assert!(
            pair[1] >= pair[0],
            "spacing must never shrink at step {i}: {gaps:?}"
        );
    }
    assert!(
        (gaps[0] - 2.0).abs() < 1e-9,
        "first gap is the base: {gaps:?}"
    );
    assert!(gaps[1] > gaps[0] * 1.9, "second gap ~doubled: {gaps:?}");
    assert!(gaps[2] > gaps[1] * 1.9, "third gap ~doubled: {gaps:?}");
    assert!((gaps[4] - 16.0).abs() < 1e-9, "capped at 16 s: {gaps:?}");
    assert!((gaps[5] - 16.0).abs() < 1e-9, "stays at the cap: {gaps:?}");
}

#[test]
fn attach_retry_jitter_spreads_but_respects_shape() {
    let recovery = RecoveryConfig {
        backoff_factor: 2.0,
        backoff_cap: SimDuration::from_secs(16),
        jitter: 0.2,
        reattach_after: None,
    };
    let times = attach_request_times(recovery, 6);
    assert_eq!(times.len(), 6);
    let gaps: Vec<f64> = times
        .windows(2)
        .map(|p| p[1].since(p[0]).as_secs_f64())
        .collect();
    // Each gap stays within ±20% of its nominal 2·2^i, and the overall
    // trend still grows: jitter desynchronizes, it does not destroy shape.
    for (i, g) in gaps.iter().enumerate() {
        let nominal = (2.0 * 2f64.powi(i32::try_from(i).unwrap())).min(16.0);
        assert!(
            (*g - nominal).abs() <= nominal * 0.2 + 1e-9,
            "gap {i} = {g} outside ±20% of {nominal}"
        );
    }
    assert!(
        gaps[3] > gaps[0],
        "later gaps dominate earlier ones: {gaps:?}"
    );
}

#[test]
fn detach_during_pending_attach_clears_retry_state() {
    // The satellite bugfix: detaching mid-attach used to leave the retry
    // timer armed, so the UE kept signing fresh SAP requests at a telco it
    // deliberately left.
    let mut ue = lone_ue(78, 5);
    ue.start_attach(SimTime::ZERO, TELCO1, AGW1_SIG);
    // Drain the initial request.
    let mut out = Vec::new();
    ue.poll(SimTime::ZERO, &mut out);
    assert_eq!(out.len(), 1, "initial SAP request issued");

    // Abandon the attach before any answer arrives.
    ue.detach(SimTime::from_millis(500));
    let mut after: Vec<Packet> = Vec::new();
    let mut guard = 0;
    while let Some(at) = ue.poll_at() {
        guard += 1;
        assert!(guard < 10, "no livelock");
        let mut o = Vec::new();
        ue.poll(at, &mut o);
        after.extend(o);
        if at > SECS(60) {
            break;
        }
    }
    let stray_saps = after
        .iter()
        .filter(|p| {
            matches!(&p.kind, PacketKind::Control(b)
                if matches!(NasMessage::decode(b), Some(NasMessage::SapAttachRequest { .. })))
        })
        .count();
    assert_eq!(stray_saps, 0, "no SAP retries after a deliberate detach");
    assert_eq!(ue.attach_retries, 0);
}

#[test]
fn telco_crash_reattach_resets_cc_state() {
    // Regression for the CC-reset fix: a bTelco crash+restart wipes the
    // IpPool, so the watchdog re-attach leases the SAME first address
    // again and an established plain-TCP connection stays addressable —
    // but its CUBIC epoch/w_max describe the pre-crash path. The host
    // must reset per-connection CC state through the trait on re-attach.
    let mut w = CellBricksWorld::build_chaos(26);
    w.ue.start_attach(SimTime::ZERO, TELCO1, AGW1_SIG);
    w.run_to(SECS(1));
    assert!(w.ue.is_attached());
    let addr = w.ue.host.addr().unwrap();

    // Bulk upload FROM the UE so the UE-side sender CC is under test.
    w.server.tcp_listen(5002);
    let c =
        w.ue.host
            .tcp_connect(w.cursor, EndpointAddr::new(SERVER_IP, 5002));
    w.run_to(SECS(2));
    assert_eq!(w.server.take_accepted_tcp().len(), 1, "upload accepted");
    w.ue.host.tcp_set_bulk(w.cursor, c);
    w.run_to(SECS(8));

    // By now the radio queue has bitten (Hystart exit or loss), so the
    // sender carries learned path state: a finite ssthresh.
    let ssthresh_before = w.ue.host.tcp(c).debug_cc().3;
    assert!(
        ssthresh_before.is_finite(),
        "sender learned the path before the crash: {ssthresh_before}"
    );

    // bTelco 1 crashes at 8 s, restarts 1 s later, volatile state gone.
    let mut plan = FaultPlan::new();
    plan.crash_restart(w.agw1_node, SECS(8), SimDuration::from_secs(1));
    w.driver.set_fault_plan(plan);

    // Step in 100 ms increments until the watchdog re-attaches with the
    // same address, then inspect CC state right at the re-attach edge —
    // before post-recovery acks or timers can move it again.
    let mut t = SECS(9);
    loop {
        w.run_to(t);
        if w.ue.watchdog_reattaches >= 1 && w.ue.is_attached() && w.ue.host.addr() == Some(addr) {
            break;
        }
        assert!(t < SECS(40), "re-attach converged within the horizon");
        t += SimDuration::from_millis(100);
    }
    let (cwnd, ssthresh_after) = {
        let tcp = w.ue.host.tcp(c);
        (tcp.cwnd(), tcp.debug_cc().3)
    };
    assert!(
        ssthresh_after.is_infinite(),
        "re-attach reset CC: no w_max/ssthresh leak ({ssthresh_after})"
    );
    assert!(cwnd >= 14_600, "cwnd back at the initial window: {cwnd}");

    // And the reset connection actually resumes moving data.
    let una_mid = w.ue.host.tcp(c).debug_seq().0;
    w.run_to(t + SimDuration::from_secs(10));
    let una_after = w.ue.host.tcp(c).debug_seq().0;
    assert!(
        una_after > una_mid + 200_000,
        "upload resumed after the reset: {una_mid} -> {una_after}"
    );
}

/// One composite chaos run; returns every world-local metric worth
/// comparing, floats captured bit-exactly.
fn composite_chaos_fingerprint(seed: u64) -> Vec<u64> {
    let (mut w, conn) = chaos_world_with_traffic(seed);
    let mut plan = FaultPlan::new();
    plan.link_flaps(
        w.radio1,
        SECS(4),
        2,
        SimDuration::from_millis(300),
        SimDuration::from_millis(700),
    );
    plan.burst_loss_window(w.radio1, SECS(7), SECS(9), BurstLoss::flaky_cell());
    plan.crash_restart(w.agw1_node, SECS(10), SimDuration::from_secs(1));
    plan.unavailable(w.broker_node, SECS(12), SimDuration::from_secs(2));
    w.driver.set_fault_plan(plan);
    w.run_to(SECS(30));

    let r1 = w.world.link_stats(w.radio1);
    vec![
        w.ue.attaches,
        w.ue.failures,
        w.ue.attach_retries,
        w.ue.watchdog_reattaches,
        w.ue.host.mp(conn).data_received(),
        w.telco1.crashes,
        w.telco1.dropped_while_down(),
        w.telco1.attach_count,
        w.telco1.no_bearer_drops,
        w.brokerd.dropped_while_down(),
        w.brokerd.auth_ok,
        w.brokerd.cycles_checked,
        r1.ab_delivered,
        r1.ab_dropped,
        r1.ba_delivered,
        r1.ba_dropped,
        w.ue.attach_latency_ms.mean().to_bits(),
        w.ue.attach_latency_ms.max().to_bits(),
    ]
}

#[test]
fn composite_chaos_replays_bit_identically() {
    let a = composite_chaos_fingerprint(42);
    let b = composite_chaos_fingerprint(42);
    assert_eq!(a, b, "same seed, same faults, same world — bit for bit");
    // And the run exercised real faults, not a quiet world.
    assert!(a[0] >= 2, "re-attached at least once: {a:?}");
    let c = composite_chaos_fingerprint(43);
    assert_ne!(a, c, "a different seed takes a different trajectory");
}
