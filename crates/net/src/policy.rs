//! Carrier rate-policy traces (paper Appendix A).
//!
//! The paper's drive tests found T-Mobile enforcing starkly different rate
//! limits by time of day: roughly 1 Mbps average during the day and
//! ~15 Mbps (with much higher variance) after ~12:30 am. This module
//! generates deterministic, AR(1)-smoothed rate traces matching the
//! measured moments, which feed the access link's token-bucket shaper:
//!
//! | regime | mean | std dev | peak |
//! |--------|------|---------|------|
//! | day    | ≈1.16 Mbps (Table 1: 1.03–1.16) | 0.32 | 1.75 |
//! | night  | ≈15.46 Mbps (Fig. 10: 14.95)    | 8.94 | 52.5 |

use crate::link::RateSchedule;
use cellbricks_sim::{SimDuration, SimRng};

/// Which rate-limiting regime the carrier applies.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TimeOfDay {
    /// Daytime: aggressive rate limiting, low variance.
    Day,
    /// Night (after ~12:30 am): relaxed limiting, high variance.
    Night,
}

/// Parameters of one regime's rate distribution.
#[derive(Clone, Copy, Debug)]
pub struct RegimeParams {
    /// Mean of the per-bin rate, bits/s.
    pub mean_bps: f64,
    /// Standard deviation of the per-bin rate, bits/s.
    pub std_bps: f64,
    /// Hard floor, bits/s.
    pub floor_bps: f64,
    /// Hard ceiling, bits/s.
    pub ceil_bps: f64,
    /// AR(1) smoothing coefficient in `[0, 1)`; higher = smoother.
    pub smoothing: f64,
}

/// A carrier rate policy: the regimes plus bucket/trace parameters.
#[derive(Clone, Debug)]
pub struct CarrierPolicy {
    /// Day regime parameters.
    pub day: RegimeParams,
    /// Night regime parameters.
    pub night: RegimeParams,
    /// Trace bin width.
    pub step: SimDuration,
    /// Token-bucket depth as seconds of mean-rate traffic: the burst the
    /// policer tolerates after idle periods.
    pub burst_secs: f64,
}

impl Default for CarrierPolicy {
    fn default() -> Self {
        Self {
            day: RegimeParams {
                mean_bps: 1.16e6,
                std_bps: 0.32e6,
                floor_bps: 0.30e6,
                ceil_bps: 1.75e6,
                smoothing: 0.6,
            },
            night: RegimeParams {
                mean_bps: 15.46e6,
                std_bps: 8.94e6,
                floor_bps: 1.0e6,
                ceil_bps: 52.5e6,
                smoothing: 0.85,
            },
            step: SimDuration::from_secs(1),
            burst_secs: 0.5,
        }
    }
}

impl CarrierPolicy {
    fn params(&self, tod: TimeOfDay) -> &RegimeParams {
        match tod {
            TimeOfDay::Day => &self.day,
            TimeOfDay::Night => &self.night,
        }
    }

    /// Generate a rate trace for `duration` under the given regime.
    ///
    /// The trace is an AR(1) process around the regime mean, clamped to
    /// `[floor, ceil]`, sampled once per [`CarrierPolicy::step`].
    #[must_use]
    pub fn trace(&self, tod: TimeOfDay, duration: SimDuration, rng: &mut SimRng) -> RateSchedule {
        let p = self.params(tod);
        let bins = (duration.as_nanos() / self.step.as_nanos()).max(1) as usize + 1;
        // AR(1): x_{t+1} = ρ·x_t + (1-ρ)·mean + innovation.
        // Innovation variance chosen so the stationary std matches std_bps.
        let rho = p.smoothing;
        let innov_std = p.std_bps * (1.0 - rho * rho).sqrt();
        let mut samples = Vec::with_capacity(bins);
        let mut x = p.mean_bps;
        for _ in 0..bins {
            x = rho * x + (1.0 - rho) * p.mean_bps + rng.normal(0.0, innov_std);
            samples.push(x.clamp(p.floor_bps, p.ceil_bps));
        }
        RateSchedule::Trace {
            step: self.step,
            samples,
        }
    }

    /// The token-bucket depth (bytes) to pair with a trace of this regime.
    #[must_use]
    pub fn burst_bytes(&self, tod: TimeOfDay) -> f64 {
        self.params(tod).mean_bps / 8.0 * self.burst_secs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn moments(schedule: &RateSchedule) -> (f64, f64, f64) {
        let RateSchedule::Trace { samples, .. } = schedule else {
            panic!("expected trace");
        };
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
        let max = samples.iter().cloned().fold(0.0, f64::max);
        (mean, var.sqrt(), max)
    }

    #[test]
    fn day_trace_matches_paper_moments() {
        let mut rng = SimRng::new(1);
        let policy = CarrierPolicy::default();
        let trace = policy.trace(TimeOfDay::Day, SimDuration::from_secs(5000), &mut rng);
        let (mean, std, max) = moments(&trace);
        assert!((mean - 1.16e6).abs() < 0.15e6, "day mean {mean}");
        assert!(std < 0.5e6, "day std {std}");
        assert!(max <= 1.75e6 + 1.0, "day peak {max}");
    }

    #[test]
    fn night_trace_matches_paper_moments() {
        let mut rng = SimRng::new(2);
        let policy = CarrierPolicy::default();
        let trace = policy.trace(TimeOfDay::Night, SimDuration::from_secs(5000), &mut rng);
        let (mean, std, max) = moments(&trace);
        assert!((mean - 15.46e6).abs() < 2.0e6, "night mean {mean}");
        assert!(std > 4.0e6 && std < 12.0e6, "night std {std}");
        assert!(max <= 52.5e6 + 1.0 && max > 25.0e6, "night peak {max}");
    }

    #[test]
    fn night_much_faster_than_day() {
        let mut rng = SimRng::new(3);
        let policy = CarrierPolicy::default();
        let (day_mean, ..) =
            moments(&policy.trace(TimeOfDay::Day, SimDuration::from_secs(2000), &mut rng));
        let (night_mean, ..) =
            moments(&policy.trace(TimeOfDay::Night, SimDuration::from_secs(2000), &mut rng));
        // Appendix A: ~14.5x difference.
        let ratio = night_mean / day_mean;
        assert!(ratio > 8.0 && ratio < 25.0, "ratio {ratio}");
    }

    #[test]
    fn trace_is_deterministic_per_seed() {
        let policy = CarrierPolicy::default();
        let t1 = policy.trace(
            TimeOfDay::Day,
            SimDuration::from_secs(100),
            &mut SimRng::new(9),
        );
        let t2 = policy.trace(
            TimeOfDay::Day,
            SimDuration::from_secs(100),
            &mut SimRng::new(9),
        );
        let (RateSchedule::Trace { samples: a, .. }, RateSchedule::Trace { samples: b, .. }) =
            (&t1, &t2)
        else {
            panic!()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn burst_scales_with_regime() {
        let policy = CarrierPolicy::default();
        assert!(policy.burst_bytes(TimeOfDay::Night) > policy.burst_bytes(TimeOfDay::Day));
        // 0.5 seconds of day-mean traffic ≈ 72.5 kB.
        assert!((policy.burst_bytes(TimeOfDay::Day) - 72_500.0).abs() < 5_000.0);
    }
}
