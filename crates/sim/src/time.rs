//! The virtual clock: instants and durations in nanosecond ticks.

use core::fmt;
use core::ops::{Add, AddAssign, Sub};

/// A duration on the virtual clock, in nanoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimDuration {
    /// The zero duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// From nanoseconds.
    #[must_use]
    pub const fn from_nanos(ns: u64) -> Self {
        Self(ns)
    }
    /// From microseconds.
    #[must_use]
    pub const fn from_micros(us: u64) -> Self {
        Self(us * 1_000)
    }
    /// From milliseconds.
    #[must_use]
    pub const fn from_millis(ms: u64) -> Self {
        Self(ms * 1_000_000)
    }
    /// From whole seconds.
    #[must_use]
    pub const fn from_secs(s: u64) -> Self {
        Self(s * 1_000_000_000)
    }
    /// From fractional seconds. Saturates at zero for negative input.
    #[must_use]
    pub fn from_secs_f64(s: f64) -> Self {
        Self((s.max(0.0) * 1e9).round() as u64)
    }

    /// Nanosecond count.
    #[must_use]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }
    /// As fractional milliseconds.
    #[must_use]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }
    /// As fractional seconds.
    #[must_use]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_sub(rhs.0).expect("negative SimDuration"))
    }
}

impl core::ops::Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl core::ops::Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}us", self.0 as f64 / 1e3)
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

/// An instant on the virtual clock. Instants start at [`SimTime::ZERO`]
/// when an experiment begins.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The experiment epoch.
    pub const ZERO: SimTime = SimTime(0);
    /// A sentinel far in the future (useful as "no deadline").
    pub const FAR_FUTURE: SimTime = SimTime(u64::MAX);

    /// Construct from nanoseconds since the epoch.
    #[must_use]
    pub const fn from_nanos(ns: u64) -> Self {
        Self(ns)
    }
    /// Construct from seconds since the epoch.
    #[must_use]
    pub const fn from_secs(s: u64) -> Self {
        Self(s * 1_000_000_000)
    }
    /// Construct from fractional seconds since the epoch.
    #[must_use]
    pub fn from_secs_f64(s: f64) -> Self {
        Self((s.max(0.0) * 1e9).round() as u64)
    }
    /// Construct from milliseconds since the epoch.
    #[must_use]
    pub const fn from_millis(ms: u64) -> Self {
        Self(ms * 1_000_000)
    }

    /// Nanoseconds since the epoch.
    #[must_use]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }
    /// Fractional seconds since the epoch.
    #[must_use]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Elapsed duration since `earlier`.
    ///
    /// # Panics
    /// Panics if `earlier` is later than `self` (a causality bug).
    #[must_use]
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(earlier.0)
                .expect("SimTime::since: earlier is in the future"),
        )
    }

    /// Saturating elapsed duration since `earlier` (zero if earlier is
    /// actually later).
    #[must_use]
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.as_nanos()))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 == u64::MAX {
            write!(f, "t=∞")
        } else {
            write!(f, "t={:.6}s", self.as_secs_f64())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_constructors_agree() {
        assert_eq!(SimDuration::from_secs(1), SimDuration::from_millis(1000));
        assert_eq!(SimDuration::from_millis(1), SimDuration::from_micros(1000));
        assert_eq!(SimDuration::from_micros(1), SimDuration::from_nanos(1000));
        assert_eq!(
            SimDuration::from_secs_f64(0.5),
            SimDuration::from_millis(500)
        );
    }

    #[test]
    fn time_add_and_since() {
        let t0 = SimTime::ZERO;
        let t1 = t0 + SimDuration::from_millis(1500);
        assert_eq!(t1.since(t0), SimDuration::from_millis(1500));
        assert_eq!(t1.as_secs_f64(), 1.5);
    }

    #[test]
    #[should_panic(expected = "earlier is in the future")]
    fn since_panics_on_causality_violation() {
        let t0 = SimTime::from_secs(1);
        let t1 = SimTime::from_secs(2);
        let _ = t0.since(t1);
    }

    #[test]
    fn saturating_since_clamps() {
        let t0 = SimTime::from_secs(1);
        let t1 = SimTime::from_secs(2);
        assert_eq!(t0.saturating_since(t1), SimDuration::ZERO);
    }

    #[test]
    fn far_future_ordering() {
        assert!(SimTime::FAR_FUTURE > SimTime::from_secs(1_000_000));
    }

    #[test]
    fn negative_secs_f64_saturates() {
        assert_eq!(SimDuration::from_secs_f64(-2.0), SimDuration::ZERO);
    }

    #[test]
    fn display_scales() {
        assert_eq!(SimDuration::from_nanos(12).to_string(), "12ns");
        assert_eq!(SimDuration::from_micros(12).to_string(), "12.000us");
        assert_eq!(SimDuration::from_millis(12).to_string(), "12.000ms");
        assert_eq!(SimDuration::from_secs(12).to_string(), "12.000s");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// `from_secs_f64` rounds to the nearest nanosecond and never
        /// drifts by more than half a tick.
        #[test]
        fn prop_from_secs_f64_rounds_to_nearest(ns in 0u64..1_000_000_000_000) {
            let d = SimDuration::from_secs_f64(ns as f64 / 1e9);
            // f64 has 52 mantissa bits: below 2^52 ns the conversion is
            // exact except for the final rounding step.
            let err = d.as_nanos().abs_diff(ns);
            prop_assert!(err <= 1, "{ns} ns roundtripped to {} ns", d.as_nanos());
        }

        /// Negative and NaN-free inputs saturate at zero, never panic.
        #[test]
        fn prop_from_secs_f64_saturates_negative(s in -1.0e12f64..0.0) {
            prop_assert_eq!(SimDuration::from_secs_f64(s), SimDuration::ZERO);
        }

        /// Instant + duration saturates at FAR_FUTURE instead of
        /// wrapping, and ordering is preserved.
        #[test]
        fn prop_time_add_saturates(t in any::<u64>(), d in any::<u64>()) {
            let sum = SimTime::from_nanos(t) + SimDuration::from_nanos(d);
            prop_assert_eq!(sum.as_nanos(), t.saturating_add(d));
            prop_assert!(sum >= SimTime::from_nanos(t));
        }

        /// `saturating_since` is `since` when causal and zero otherwise.
        #[test]
        fn prop_saturating_since(a in any::<u64>(), b in any::<u64>()) {
            let (ta, tb) = (SimTime::from_nanos(a), SimTime::from_nanos(b));
            let d = ta.saturating_since(tb);
            if a >= b {
                prop_assert_eq!(d, ta.since(tb));
            } else {
                prop_assert_eq!(d, SimDuration::ZERO);
            }
        }

        /// (t + d1) + d2 == (t + d2) + d1 when no saturation occurs:
        /// event scheduling is order-insensitive.
        #[test]
        fn prop_time_add_commutes(
            t in 0u64..1_000_000_000_000,
            d1 in 0u64..1_000_000_000_000,
            d2 in 0u64..1_000_000_000_000,
        ) {
            let t = SimTime::from_nanos(t);
            let (d1, d2) = (SimDuration::from_nanos(d1), SimDuration::from_nanos(d2));
            prop_assert_eq!((t + d1) + d2, (t + d2) + d1);
        }
    }
}
