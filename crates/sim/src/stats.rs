//! Statistics helpers used by the benchmark harness.

use crate::time::{SimDuration, SimTime};

/// An online mean/max accumulator.
#[derive(Clone, Debug, Default)]
pub struct Summary {
    count: u64,
    mean: f64,
    max: f64,
}

impl Summary {
    /// An empty summary.
    #[must_use]
    pub fn new() -> Self {
        Self {
            count: 0,
            mean: 0.0,
            max: f64::NEG_INFINITY,
        }
    }

    /// Record one observation.
    pub fn record(&mut self, value: f64) {
        self.count += 1;
        let delta = value - self.mean;
        self.mean += delta / self.count as f64;
        self.max = self.max.max(value);
    }

    /// Number of observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean (0 if empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Maximum observation (NaN if empty).
    #[must_use]
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.max
        }
    }
}

/// Percentile of a sample set via linear interpolation (`p` in `[0, 100]`).
///
/// Returns NaN for an empty sample set.
#[must_use]
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted: Vec<f64> = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    let p = p.clamp(0.0, 100.0);
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = rank - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// A time series binned at a fixed interval: each bin accumulates a sum
/// (e.g. bytes delivered per second → throughput series).
#[derive(Clone, Debug)]
pub struct TimeSeries {
    bin: SimDuration,
    sums: Vec<f64>,
}

impl TimeSeries {
    /// Create a series with the given bin width.
    ///
    /// # Panics
    /// Panics if the bin width is zero.
    #[must_use]
    pub fn new(bin: SimDuration) -> Self {
        assert!(bin > SimDuration::ZERO, "bin width must be positive");
        Self {
            bin,
            sums: Vec::new(),
        }
    }

    /// Add `value` to the bin containing `at`.
    pub fn record(&mut self, at: SimTime, value: f64) {
        let idx = (at.as_nanos() / self.bin.as_nanos()) as usize;
        if idx >= self.sums.len() {
            self.sums.resize(idx + 1, 0.0);
        }
        self.sums[idx] += value;
    }

    /// Per-bin sums.
    #[must_use]
    pub fn sums(&self) -> &[f64] {
        &self.sums
    }

    /// Per-bin rate: sum divided by bin width in seconds.
    #[must_use]
    pub fn rates_per_sec(&self) -> Vec<f64> {
        let w = self.bin.as_secs_f64();
        self.sums.iter().map(|s| s / w).collect()
    }

    /// Mean of per-bin rates over bins `[from, to)` (NaN if empty).
    #[must_use]
    pub fn mean_rate(&self, from_bin: usize, to_bin: usize) -> f64 {
        let rates = self.rates_per_sec();
        let to = to_bin.min(rates.len());
        if from_bin >= to {
            return f64::NAN;
        }
        let slice = &rates[from_bin..to];
        slice.iter().sum::<f64>() / slice.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_basic_moments() {
        let mut s = Summary::new();
        for v in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.record(v);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn summary_empty() {
        let s = Summary::new();
        assert_eq!(s.mean(), 0.0);
        assert!(s.max().is_nan());
    }

    #[test]
    fn percentile_interpolates() {
        let samples = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&samples, 0.0), 1.0);
        assert_eq!(percentile(&samples, 100.0), 4.0);
        assert_eq!(percentile(&samples, 50.0), 2.5);
    }

    #[test]
    fn percentile_single_sample() {
        assert_eq!(percentile(&[42.0], 99.0), 42.0);
    }

    #[test]
    fn percentile_empty_is_nan() {
        assert!(percentile(&[], 50.0).is_nan());
    }

    #[test]
    fn timeseries_bins_and_rates() {
        let mut ts = TimeSeries::new(SimDuration::from_secs(1));
        ts.record(SimTime::from_secs_f64(0.25), 100.0);
        ts.record(SimTime::from_secs_f64(0.75), 100.0);
        ts.record(SimTime::from_secs_f64(1.5), 300.0);
        assert_eq!(ts.sums(), &[200.0, 300.0]);
        assert_eq!(ts.rates_per_sec(), vec![200.0, 300.0]);
        assert!((ts.mean_rate(0, 2) - 250.0).abs() < 1e-12);
    }

    #[test]
    fn timeseries_sparse_fills_zero() {
        let mut ts = TimeSeries::new(SimDuration::from_secs(1));
        ts.record(SimTime::from_secs(3), 5.0);
        assert_eq!(ts.sums(), &[0.0, 0.0, 0.0, 5.0]);
    }
}
