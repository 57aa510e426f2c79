//! Verifiable billing: tamper-evident traffic reports (paper §4.3).
//!
//! The UE (in its baseband, assumed tamper-resilient) and the bTelco (at
//! its PGW) independently measure each session's traffic and periodically
//! send signed, sealed reports to the broker. The broker aligns the two
//! report streams and flags discrepancies beyond the Fig. 5 threshold
//! `max(lossᵈˡ·dlᵀ, ε·dlᵀ)` as mismatches feeding the reputation system.

use bytes::Bytes;
use cellbricks_crypto::ed25519::{Signature, SigningKey, VerifyingKey};
use cellbricks_crypto::sealed::{open, seal, SealedBox};
use cellbricks_crypto::x25519::{X25519PublicKey, X25519SecretKey};
use cellbricks_epc::wire::{Reader, Writer};
use cellbricks_sim::{SimDuration, SimRng, SimTime};

/// One usage report for one reporting cycle of a session (paper §4.3:
/// session id, relative timestamp, usage, duration, QoS metrics).
#[derive(Clone, Debug, PartialEq)]
pub struct TrafficReport {
    /// Billing session (assigned by the broker at authorization).
    pub session_id: u64,
    /// Reporting cycle number within the session (the "relative
    /// timestamp" used by the broker to align U and T reports).
    pub seq: u32,
    /// Uplink bytes this cycle.
    pub ul_bytes: u64,
    /// Downlink bytes this cycle.
    pub dl_bytes: u64,
    /// Connection/call duration this cycle, milliseconds.
    pub duration_ms: u64,
    /// Observed downlink loss ratio in parts-per-million.
    pub dl_loss_ppm: u32,
    /// Observed uplink loss ratio in parts-per-million.
    pub ul_loss_ppm: u32,
    /// Average downlink rate, kbit/s (QoS metric).
    pub avg_dl_kbps: u32,
    /// Average uplink rate, kbit/s (QoS metric).
    pub avg_ul_kbps: u32,
    /// Average packet delay, milliseconds (QoS metric).
    pub delay_ms: u32,
}

impl TrafficReport {
    /// Encode to wire bytes.
    #[must_use]
    pub fn encode(&self) -> Bytes {
        let mut w = Writer::new();
        w.put_u64(self.session_id)
            .put_u32(self.seq)
            .put_u64(self.ul_bytes)
            .put_u64(self.dl_bytes)
            .put_u64(self.duration_ms)
            .put_u32(self.dl_loss_ppm)
            .put_u32(self.ul_loss_ppm)
            .put_u32(self.avg_dl_kbps)
            .put_u32(self.avg_ul_kbps)
            .put_u32(self.delay_ms);
        w.finish()
    }

    /// Decode from wire bytes.
    #[must_use]
    pub fn decode(bytes: &[u8]) -> Option<TrafficReport> {
        let mut r = Reader::new(bytes);
        let report = TrafficReport {
            session_id: r.get_u64()?,
            seq: r.get_u32()?,
            ul_bytes: r.get_u64()?,
            dl_bytes: r.get_u64()?,
            duration_ms: r.get_u64()?,
            dl_loss_ppm: r.get_u32()?,
            ul_loss_ppm: r.get_u32()?,
            avg_dl_kbps: r.get_u32()?,
            avg_ul_kbps: r.get_u32()?,
            delay_ms: r.get_u32()?,
        };
        if !r.is_empty() {
            return None;
        }
        Some(report)
    }

    /// Sign and seal for transmission to the broker: the signature makes
    /// the report tamper-evident, the sealing hides usage data in transit.
    #[must_use]
    pub fn sign_and_seal(
        &self,
        signer: &SigningKey,
        broker_pk: &X25519PublicKey,
        rng: &mut SimRng,
    ) -> Bytes {
        let body = self.encode();
        let sig = signer.sign(&body);
        let mut w = Writer::new();
        w.put_bytes(&body).put_fixed(&sig.0);
        let sealed = seal(rng, broker_pk, &w.finish());
        Bytes::from(sealed.to_bytes())
    }

    /// Broker side: open and verify a sealed report against the expected
    /// reporter key. `None` on any tampering or key mismatch.
    ///
    /// Goes through the verifier-key cache: the broker checks every
    /// report from a subscriber or bTelco against the same long-lived
    /// key, so the point decompression and odd-multiple table amortize
    /// across the session.
    #[must_use]
    pub fn open_and_verify(
        bytes: &[u8],
        broker_sk: &X25519SecretKey,
        reporter_pk: &VerifyingKey,
    ) -> Option<TrafficReport> {
        let sealed = SealedBox::from_bytes(bytes)?;
        let plain = open(broker_sk, &sealed).ok()?;
        let mut r = Reader::new(&plain);
        let body = r.get_bytes()?;
        let sig = Signature(r.get_fixed::<64>()?);
        if !r.is_empty() {
            return None;
        }
        let report = TrafficReport::decode(&body)?;
        if !reporter_pk.verify_cached(&body, &sig) {
            return None;
        }
        Some(report)
    }
}

/// The UE-side sealed measurement function (paper §4.3: "embed the
/// measurement function in the UE's baseband, which ... is assumed to be
/// tamper-resilient"). Counters are private; application code can only
/// feed observations in and extract signed, sealed reports.
pub struct BasebandMeter {
    session_id: u64,
    seq: u32,
    signer: SigningKey,
    broker_pk: X25519PublicKey,
    cycle_started: SimTime,
    ul_bytes: u64,
    dl_bytes: u64,
}

impl BasebandMeter {
    /// Start metering a session. The signing key is the UE key the broker
    /// issued (it reviews the baseband firmware carrying it, §4.3).
    #[must_use]
    pub fn new(
        session_id: u64,
        signer: SigningKey,
        broker_pk: X25519PublicKey,
        now: SimTime,
    ) -> Self {
        Self {
            session_id,
            seq: 0,
            signer,
            broker_pk,
            cycle_started: now,
            ul_bytes: 0,
            dl_bytes: 0,
        }
    }

    /// The session being metered.
    #[must_use]
    pub fn session_id(&self) -> u64 {
        self.session_id
    }

    /// Record received downlink bytes (PDCP counters in a real baseband).
    pub fn account_dl(&mut self, bytes: u64) {
        self.dl_bytes += bytes;
    }

    /// Record transmitted uplink bytes.
    pub fn account_ul(&mut self, bytes: u64) {
        self.ul_bytes += bytes;
    }

    /// Close the reporting cycle: emit the signed, sealed report and
    /// reset the counters.
    pub fn emit_report(&mut self, now: SimTime, rng: &mut SimRng) -> Bytes {
        let elapsed = now.saturating_since(self.cycle_started);
        let report = self.build_report(elapsed);
        self.seq += 1;
        self.cycle_started = now;
        self.ul_bytes = 0;
        self.dl_bytes = 0;
        report.sign_and_seal(&self.signer, &self.broker_pk, rng)
    }

    /// The meter counts bytes only: the loss and delay fields go out as
    /// 0, so Fig. 5 tolerates the fixed ε alone.
    fn build_report(&self, elapsed: SimDuration) -> TrafficReport {
        let secs = elapsed.as_secs_f64().max(1e-9);
        TrafficReport {
            session_id: self.session_id,
            seq: self.seq,
            ul_bytes: self.ul_bytes,
            dl_bytes: self.dl_bytes,
            duration_ms: (secs * 1e3) as u64,
            dl_loss_ppm: 0,
            ul_loss_ppm: 0,
            avg_dl_kbps: (self.dl_bytes as f64 * 8.0 / secs / 1e3) as u32,
            avg_ul_kbps: (self.ul_bytes as f64 * 8.0 / secs / 1e3) as u32,
            delay_ms: 0,
        }
    }
}

/// Outcome of the broker's Fig. 5 discrepancy check for one cycle.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum CycleVerdict {
    /// Reports agree within the threshold.
    Consistent,
    /// Mismatch; the weight is `|dlᵀ − dlᵁ| / dlᵁ` — the degree of the
    /// discrepancy relative to the trusted (UE) figure, so a 2× inflation
    /// weighs 1.0 regardless of how big the claim is.
    Mismatch {
        /// Relative degree of the discrepancy.
        weight: f64,
    },
}

/// The Fig. 5 check: compare the bTelco's and UE's downlink usage for one
/// aligned cycle, tolerating the UE-observed loss plus a fixed ratio ε.
///
/// Everything is scaled by the *trusted* UE figure `dl_u` — never by the
/// telco's own claim, which would let an inflating telco widen its own
/// tolerance. The loss allowance is the estimated bytes lost in flight:
/// the UE received `dl_u` after fraction `loss` was dropped, so the telco
/// legitimately sent up to `dl_u / (1 − loss)`, i.e. `loss·dl_u/(1−loss)`
/// more. Under-reporting — including a zero claim from a telco that
/// crashed and lost its metering state — is symmetric and flagged the
/// same way as inflation.
#[must_use]
pub fn verify_cycle(ue: &TrafficReport, telco: &TrafficReport, epsilon: f64) -> CycleVerdict {
    let dl_t = telco.dl_bytes as f64;
    let dl_u = ue.dl_bytes as f64;
    let loss = f64::from(ue.dl_loss_ppm) / 1e6;
    let lost_est = if loss < 1.0 {
        loss * dl_u / (1.0 - loss)
    } else {
        f64::INFINITY
    };
    let threshold = lost_est.max(epsilon * dl_u);
    let diff = (dl_t - dl_u).abs();
    if diff > threshold {
        CycleVerdict::Mismatch {
            weight: if dl_u > 0.0 { diff / dl_u } else { 1.0 },
        }
    } else {
        CycleVerdict::Consistent
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cellbricks_crypto::x25519::X25519SecretKey;

    fn keys() -> (SigningKey, X25519SecretKey) {
        (SigningKey::from_seed([1; 32]), X25519SecretKey([2; 32]))
    }

    fn sample_report() -> TrafficReport {
        TrafficReport {
            session_id: 99,
            seq: 3,
            ul_bytes: 10_000,
            dl_bytes: 1_000_000,
            duration_ms: 30_000,
            dl_loss_ppm: 5_000,
            ul_loss_ppm: 100,
            avg_dl_kbps: 266,
            avg_ul_kbps: 2,
            delay_ms: 46,
        }
    }

    #[test]
    fn wire_roundtrip() {
        let r = sample_report();
        assert_eq!(TrafficReport::decode(&r.encode()), Some(r));
    }

    #[test]
    fn sign_seal_open_verify() {
        let (sk, broker_sk) = keys();
        let mut rng = SimRng::new(1);
        let r = sample_report();
        let sealed = r.sign_and_seal(&sk, &broker_sk.public_key(), &mut rng);
        let opened =
            TrafficReport::open_and_verify(&sealed, &broker_sk, &sk.verifying_key()).unwrap();
        assert_eq!(opened, r);
    }

    #[test]
    fn tampered_sealed_report_rejected() {
        let (sk, broker_sk) = keys();
        let mut rng = SimRng::new(1);
        let mut sealed = sample_report()
            .sign_and_seal(&sk, &broker_sk.public_key(), &mut rng)
            .to_vec();
        let last = sealed.len() - 1;
        sealed[last] ^= 1;
        assert!(TrafficReport::open_and_verify(&sealed, &broker_sk, &sk.verifying_key()).is_none());
    }

    #[test]
    fn report_signed_by_wrong_key_rejected() {
        let (_, broker_sk) = keys();
        let forger = SigningKey::from_seed([9; 32]);
        let genuine = SigningKey::from_seed([1; 32]);
        let mut rng = SimRng::new(1);
        let sealed = sample_report().sign_and_seal(&forger, &broker_sk.public_key(), &mut rng);
        // The broker checks against the key it issued to this user.
        assert!(
            TrafficReport::open_and_verify(&sealed, &broker_sk, &genuine.verifying_key()).is_none()
        );
    }

    #[test]
    fn meter_counts_and_resets() {
        let (sk, broker_sk) = keys();
        let mut rng = SimRng::new(2);
        let mut meter = BasebandMeter::new(5, sk.clone(), broker_sk.public_key(), SimTime::ZERO);
        meter.account_dl(500_000);
        meter.account_ul(1_000);
        let sealed = meter.emit_report(SimTime::from_secs(30), &mut rng);
        let r = TrafficReport::open_and_verify(&sealed, &broker_sk, &sk.verifying_key()).unwrap();
        assert_eq!(r.seq, 0);
        assert_eq!(r.dl_bytes, 500_000);
        assert_eq!(r.ul_bytes, 1_000);
        assert_eq!(r.duration_ms, 30_000);
        assert_eq!((r.dl_loss_ppm, r.delay_ms), (0, 0));
        // Second cycle starts clean with the next seq.
        let sealed2 = meter.emit_report(SimTime::from_secs(60), &mut rng);
        let r2 = TrafficReport::open_and_verify(&sealed2, &broker_sk, &sk.verifying_key()).unwrap();
        assert_eq!(r2.seq, 1);
        assert_eq!(r2.dl_bytes, 0);
    }

    #[test]
    fn fig5_consistent_within_epsilon() {
        let mut ue = sample_report();
        let mut telco = sample_report();
        ue.dl_bytes = 1_000_000;
        ue.dl_loss_ppm = 0;
        telco.dl_bytes = 1_004_000; // 0.4% over.
        assert_eq!(verify_cycle(&ue, &telco, 0.005), CycleVerdict::Consistent);
    }

    #[test]
    fn fig5_loss_raises_tolerance() {
        let mut ue = sample_report();
        let mut telco = sample_report();
        ue.dl_bytes = 950_000;
        ue.dl_loss_ppm = 60_000; // UE saw 6% loss.
        telco.dl_bytes = 1_000_000; // 5% over what the UE got.
                                    // Within the loss-derived threshold: consistent.
        assert_eq!(verify_cycle(&ue, &telco, 0.005), CycleVerdict::Consistent);
    }

    #[test]
    fn fig5_inflation_detected() {
        let mut ue = sample_report();
        let mut telco = sample_report();
        ue.dl_bytes = 1_000_000;
        ue.dl_loss_ppm = 0;
        telco.dl_bytes = 1_300_000; // 30% inflation.
        match verify_cycle(&ue, &telco, 0.005) {
            CycleVerdict::Mismatch { weight } => {
                assert!((weight - 0.30).abs() < 0.01, "weight {weight}");
            }
            CycleVerdict::Consistent => panic!("should flag inflation"),
        }
    }

    #[test]
    fn fig5_deflating_ue_detected() {
        let mut ue = sample_report();
        let mut telco = sample_report();
        ue.dl_bytes = 500_000; // UE under-reports.
        ue.dl_loss_ppm = 0;
        telco.dl_bytes = 1_000_000;
        assert!(matches!(
            verify_cycle(&ue, &telco, 0.005),
            CycleVerdict::Mismatch { .. }
        ));
    }

    #[test]
    fn fig5_under_reporting_telco_detected() {
        let mut ue = sample_report();
        let mut telco = sample_report();
        ue.dl_bytes = 1_000_000;
        ue.dl_loss_ppm = 0;
        telco.dl_bytes = 600_000; // Telco claims 40% less than delivered.
        match verify_cycle(&ue, &telco, 0.005) {
            CycleVerdict::Mismatch { weight } => {
                assert!((weight - 0.40).abs() < 0.01, "weight {weight}");
            }
            CycleVerdict::Consistent => panic!("should flag under-reporting"),
        }
    }

    #[test]
    fn fig5_zero_report_after_metering_loss_detected() {
        // A telco that crashed and lost its meters reports zero downlink
        // while the UE observed a megabyte: must mismatch, not slip
        // through a dl_t-scaled guard.
        let mut ue = sample_report();
        let mut telco = sample_report();
        ue.dl_bytes = 1_000_000;
        ue.dl_loss_ppm = 0;
        telco.dl_bytes = 0;
        assert!(matches!(
            verify_cycle(&ue, &telco, 0.005),
            CycleVerdict::Mismatch { .. }
        ));
    }

    #[test]
    fn fig5_both_zero_is_consistent() {
        let mut ue = sample_report();
        let mut telco = sample_report();
        ue.dl_bytes = 0;
        ue.dl_loss_ppm = 0;
        telco.dl_bytes = 0;
        assert_eq!(verify_cycle(&ue, &telco, 0.005), CycleVerdict::Consistent);
    }

    #[test]
    fn identity_type_is_usable_in_maps() {
        use crate::principal::Identity;
        use std::collections::HashMap;
        let mut m: HashMap<Identity, u32> = HashMap::new();
        m.insert(Identity([1; 16]), 7);
        assert_eq!(m[&Identity([1; 16])], 7);
    }
}
