//! The estimators that turn per-segment measurements into one number.
//!
//! Interference on a small shared box is one-sided (a noisy neighbour
//! only ever slows a segment down) and lasts seconds, so a plain median
//! of segments moves with how many segments the neighbour happened to
//! hit. Each headline metric therefore reads the *quiet* end of its
//! segment distribution:
//!
//! * a **rate** is the 90th percentile across segments ([`rate_p90`]),
//! * a **latency** is the 10th percentile across segments of the
//!   segment's own percentile ([`quiet_decile`]) — the mirror image of
//!   the rate's p90; measured here, the 25th percentile of seven blocks'
//!   p90 ranged 10 % over six runs where the 10th ranged 4 %,
//! * a **figure time** is the sum over cells of each cell's fastest pass
//!   ([`sum_of_min`]).
//!
//! The plain median and the inter-quartile spread of the same segments
//! are reported next to each ([`seg_median`], [`seg_spread`]) so that a
//! change which makes the system bimodal cannot hide behind the quiet
//! end.

/// The `q`-quantile (0 ≤ q ≤ 1) of `values` by linear interpolation
/// between order statistics. Empty input reads 0.
#[must_use]
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile_sorted(&sorted, q)
}

/// [`quantile`] over already-sorted values.
#[must_use]
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    match sorted {
        [] => 0.0,
        [only] => *only,
        _ => {
            let h = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
            let lo = h.floor() as usize;
            let hi = (lo + 1).min(sorted.len() - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (h - lo as f64)
        }
    }
}

/// A rate (work per second, higher is better) from per-segment rates:
/// the 90th percentile, i.e. what the system sustains when the box is
/// quiet, robust to up to nine tenths of the segments being disturbed.
#[must_use]
pub fn rate_p90(segment_rates: &[f64]) -> f64 {
    quantile(segment_rates, 0.90)
}

/// A share (higher is better) from per-segment shares: the 75th
/// percentile — the quiet quartile of a quantity that saturates at 1.
#[must_use]
pub fn share_p75(segment_shares: &[f64]) -> f64 {
    quantile(segment_shares, 0.75)
}

/// A latency (lower is better) from per-segment percentiles: the 10th
/// percentile across segments, i.e. the quiet decile.
#[must_use]
pub fn quiet_decile(segment_values: &[f64]) -> f64 {
    quantile(segment_values, 0.10)
}

/// Figure time: `passes[p][c]` is the wall time of cell `c` in pass `p`;
/// the result is Σ over cells of the cell's fastest pass. Passes must
/// all have the same length.
#[must_use]
pub fn sum_of_min(passes: &[Vec<f64>]) -> f64 {
    best_per_cell(passes).iter().sum()
}

/// The per-cell minimum over passes (see [`sum_of_min`]).
#[must_use]
pub fn best_per_cell(passes: &[Vec<f64>]) -> Vec<f64> {
    let Some(first) = passes.first() else {
        return Vec::new();
    };
    (0..first.len())
        .map(|c| passes.iter().map(|p| p[c]).fold(f64::INFINITY, f64::min))
        .collect()
}

/// The plain median of the segments behind a headline metric.
#[must_use]
pub fn seg_median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Inter-quartile range of the segments as a share of their median.
#[must_use]
pub fn seg_spread(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let median = quantile_sorted(&sorted, 0.5);
    if median == 0.0 {
        return 0.0;
    }
    (quantile_sorted(&sorted, 0.75) - quantile_sorted(&sorted, 0.25)) / median
}

/// Nearest-rank percentiles of one segment's raw samples (latencies).
/// Sorts in place; returns the values at each requested quantile.
pub fn sample_percentiles<const N: usize>(samples: &mut [f64], qs: [f64; N]) -> [f64; N] {
    samples.sort_by(f64::total_cmp);
    qs.map(|q| quantile_sorted(samples, q))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 20 segments at `base`, with the given index range multiplied.
    fn segments(base: f64, slow: std::ops::Range<usize>, factor: f64) -> Vec<f64> {
        (0..20)
            .map(|i| {
                // A little deterministic jitter so quantiles interpolate.
                let jitter = 1.0 + (i % 5) as f64 * 0.002;
                let v = base * jitter;
                if slow.contains(&i) {
                    v * factor
                } else {
                    v
                }
            })
            .collect()
    }

    #[test]
    fn quantile_interpolates_and_handles_edges() {
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(quantile(&[7.0], 0.9), 7.0);
        assert_eq!(quantile(&[1.0, 3.0], 0.5), 2.0);
        assert_eq!(quantile(&[4.0, 1.0, 3.0, 2.0], 0.0), 1.0);
        assert_eq!(quantile(&[4.0, 1.0, 3.0, 2.0], 1.0), 4.0);
    }

    #[test]
    fn slow_stretch_does_not_move_the_p90_rate() {
        let quiet = segments(5000.0, 0..0, 1.0);
        // 8 of 20 segments (40 %) run at 60 % of the rate.
        let disturbed = segments(5000.0, 6..14, 0.6);
        let (a, b) = (rate_p90(&quiet), rate_p90(&disturbed));
        assert!((a - b).abs() / a < 0.005, "p90 moved: {a} vs {b}");
        // ... where the plain median does move, and says so.
        assert!(seg_median(&disturbed) < seg_median(&quiet));
        assert!(seg_spread(&disturbed) > 0.2);
    }

    #[test]
    fn uniformly_slower_run_moves_the_p90_rate() {
        let quiet = segments(5000.0, 0..0, 1.0);
        let slower = segments(5000.0, 0..20, 0.9);
        let ratio = rate_p90(&slower) / rate_p90(&quiet);
        assert!((ratio - 0.9).abs() < 1e-9, "ratio {ratio}");
    }

    #[test]
    fn slow_stretch_does_not_move_the_quiet_decile_latency() {
        let quiet = segments(400.0, 0..0, 1.0);
        let disturbed = segments(400.0, 6..14, 1.7);
        let (a, b) = (quiet_decile(&quiet), quiet_decile(&disturbed));
        assert!((a - b).abs() / a < 0.005, "quiet decile moved: {a} vs {b}");
        assert!(seg_median(&disturbed) > seg_median(&quiet) * 0.999);
    }

    #[test]
    fn uniformly_slower_run_moves_the_quiet_decile_latency() {
        let quiet = segments(400.0, 0..0, 1.0);
        let slower = segments(400.0, 0..20, 1.1);
        let ratio = quiet_decile(&slower) / quiet_decile(&quiet);
        assert!((ratio - 1.1).abs() < 1e-9, "ratio {ratio}");
    }

    #[test]
    fn share_p75_ignores_a_bad_minority() {
        let mut shares = vec![0.97; 20];
        for s in shares.iter_mut().take(8) {
            *s = 0.5;
        }
        assert_eq!(share_p75(&shares), 0.97);
        assert!(share_p75(&[0.9; 20]) < 0.97);
    }

    #[test]
    fn figure_time_takes_each_cells_fastest_pass() {
        // Pass 1 is disturbed on cell 1, pass 2 on cell 2.
        let passes = vec![vec![1.0, 5.0, 2.0], vec![1.1, 3.0, 4.0]];
        assert_eq!(best_per_cell(&passes), vec![1.0, 3.0, 2.0]);
        assert_eq!(sum_of_min(&passes), 6.0);
        // A uniformly slower program is slower in every pass.
        let slower: Vec<Vec<f64>> = passes
            .iter()
            .map(|p| p.iter().map(|t| t * 1.2).collect())
            .collect();
        assert!((sum_of_min(&slower) - 7.2).abs() < 1e-12);
        assert_eq!(sum_of_min(&[]), 0.0);
    }

    #[test]
    fn sample_percentiles_sorts_and_reads() {
        let mut s = vec![5.0, 1.0, 4.0, 2.0, 3.0];
        let [p50, max] = sample_percentiles(&mut s, [0.5, 1.0]);
        assert_eq!((p50, max), (3.0, 5.0));
    }
}
