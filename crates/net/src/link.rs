//! Point-to-point links: latency, loss, drop-tail queueing and
//! token-bucket rate shaping.
//!
//! The shaper is the heart of the Table 1 / Fig. 8–10 reproduction: the
//! carrier's rate limiter is modelled as a token bucket whose fill rate
//! follows a (possibly time-varying) [`RateSchedule`]. The bucket's burst
//! capacity is what lets a freshly started MPTCP subflow briefly exceed
//! the steady-state rate right after a handover — the "spike" the paper
//! observes in Fig. 8 and the >100% relative performance in Fig. 9.

use crate::fault::BurstLoss;
use cellbricks_sim::{SimDuration, SimTime};

/// The service rate of a shaper as a function of time.
#[derive(Clone, Debug, PartialEq)]
pub enum RateSchedule {
    /// A constant rate in bits/s.
    Constant(f64),
    /// A piecewise-constant trace: `samples[i]` holds for
    /// `[i*step, (i+1)*step)`; the last sample extends forever.
    Trace {
        /// Bin width.
        step: SimDuration,
        /// Rate samples in bits/s (must be non-empty).
        samples: Vec<f64>,
    },
}

impl RateSchedule {
    /// Bytes of tokens accrued over `[t0, t1]`.
    #[must_use]
    pub fn integral_bytes(&self, t0: SimTime, t1: SimTime) -> f64 {
        debug_assert!(t1 >= t0);
        match self {
            RateSchedule::Constant(r) => r / 8.0 * t1.since(t0).as_secs_f64(),
            RateSchedule::Trace { step, samples } => {
                let mut total = 0.0;
                let mut cur = t0;
                while cur < t1 {
                    let idx = (cur.as_nanos() / step.as_nanos()) as usize;
                    let bin_end = SimTime::from_nanos(
                        (cur.as_nanos() / step.as_nanos() + 1) * step.as_nanos(),
                    );
                    let seg_end = bin_end.min(t1);
                    let rate = samples[idx.min(samples.len() - 1)];
                    total += rate / 8.0 * seg_end.since(cur).as_secs_f64();
                    cur = seg_end;
                }
                total
            }
        }
    }

    /// Earliest time `T ≥ t0` such that `integral_bytes(t0, T) ≥ need`.
    #[must_use]
    pub fn time_to_accrue(&self, t0: SimTime, need: f64) -> SimTime {
        if need <= 0.0 {
            return t0;
        }
        match self {
            RateSchedule::Constant(r) => {
                if *r <= 0.0 {
                    return SimTime::FAR_FUTURE;
                }
                t0 + SimDuration::from_secs_f64(need * 8.0 / r)
            }
            RateSchedule::Trace { step, samples } => {
                let mut remaining = need;
                let mut cur = t0;
                // Walk bins; the final bin's rate extends forever.
                loop {
                    let idx = (cur.as_nanos() / step.as_nanos()) as usize;
                    let rate = samples[idx.min(samples.len() - 1)];
                    let last_bin = idx >= samples.len() - 1;
                    let bin_end = SimTime::from_nanos(
                        (cur.as_nanos() / step.as_nanos() + 1) * step.as_nanos(),
                    );
                    if rate > 0.0 {
                        let bytes_in_bin = if last_bin {
                            f64::INFINITY
                        } else {
                            rate / 8.0 * bin_end.since(cur).as_secs_f64()
                        };
                        if bytes_in_bin >= remaining {
                            return cur + SimDuration::from_secs_f64(remaining * 8.0 / rate);
                        }
                        remaining -= bytes_in_bin;
                    } else if last_bin {
                        return SimTime::FAR_FUTURE;
                    }
                    cur = bin_end;
                }
            }
        }
    }
}

/// Rate-limiting behaviour of a link direction.
#[derive(Clone, Debug, PartialEq)]
pub enum Shaper {
    /// No rate limit: packets only incur latency.
    None,
    /// Fixed serialization rate (bits/s) with FIFO queueing.
    FixedRate(f64),
    /// Token bucket: tokens accrue per `schedule` up to `burst_bytes`;
    /// packets are delayed until tokens are available (FIFO).
    TokenBucket {
        /// Fill-rate schedule.
        schedule: RateSchedule,
        /// Bucket depth in bytes.
        burst_bytes: f64,
    },
}

/// Configuration of one link direction. A [`Topology`](crate::Topology)
/// keeps one copy of each distinct configuration, shared by every
/// direction configured with it.
#[derive(Clone, Debug, PartialEq)]
pub struct LinkConfig {
    /// Propagation delay.
    pub latency: SimDuration,
    /// Random packet loss probability in `[0, 1]`.
    pub loss: f64,
    /// Rate limiting.
    pub shaper: Shaper,
    /// Drop packets that would wait longer than this in the queue
    /// (drop-tail expressed as a sojourn cap).
    pub queue_cap: SimDuration,
    /// Optional Gilbert–Elliott burst-loss model; while installed it
    /// replaces the uniform `loss` probability. Fault plans install and
    /// remove it at runtime via
    /// [`NetWorld::set_burst_loss`](crate::world::NetWorld::set_burst_loss).
    pub burst: Option<BurstLoss>,
}

impl LinkConfig {
    /// A latency-only link (no loss, no rate limit).
    #[must_use]
    pub fn delay_only(latency: SimDuration) -> Self {
        Self {
            latency,
            loss: 0.0,
            shaper: Shaper::None,
            queue_cap: SimDuration::from_secs(10),
            burst: None,
        }
    }

    /// A fixed-rate link.
    #[must_use]
    pub fn fixed_rate(latency: SimDuration, rate_bps: f64, queue_cap: SimDuration) -> Self {
        Self {
            latency,
            loss: 0.0,
            shaper: Shaper::FixedRate(rate_bps),
            queue_cap,
            burst: None,
        }
    }

    /// Set the loss probability.
    #[must_use]
    pub fn with_loss(mut self, loss: f64) -> Self {
        self.loss = loss;
        self
    }
}

/// Mutable state of one link direction. Its configuration stays in the
/// topology's table; [`offer`](Direction::offer) is handed it.
#[derive(Clone, Debug)]
pub(crate) struct Direction {
    /// Index of this direction's [`LinkConfig`] in the topology's table.
    pub(crate) config: u32,
    /// When the previous packet finishes service (FIFO ordering point).
    busy_until: SimTime,
    /// Newest in-flight cell of this direction's arrival FIFO in the
    /// world's slab, or `u32::MAX` when none is in flight. Shaped
    /// directions only: a delay-only one files into the FIFO its
    /// configuration shares.
    pub(crate) fifo_tail: u32,
    /// Token-bucket level at `bucket_at` (bytes).
    bucket_level: f64,
    bucket_at: SimTime,
    /// Packets enqueued before this instant are dropped (radio outage).
    pub(crate) outage_until: SimTime,
    /// Gilbert–Elliott chain state: currently in the bad state.
    burst_bad: bool,
    /// Counters.
    pub(crate) delivered: u64,
    pub(crate) dropped: u64,
    /// Packets the token-bucket shaper held back (served later than
    /// offered): the carrier policer biting.
    pub(crate) policer_hits: u64,
}

/// Why a link direction refused a packet.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum DropCause {
    /// The link was in a radio outage window.
    Outage,
    /// Random loss.
    Loss,
    /// Loss while the Gilbert–Elliott chain was in its bad state.
    Burst,
    /// Sojourn would exceed the drop-tail queue cap.
    QueueCap,
    /// The shaper can never serve the packet (zero rate).
    Policer,
}

/// Result of offering a packet to a link direction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Offer {
    /// The packet will arrive at the far end at this instant.
    Deliver(SimTime),
    /// The packet was dropped.
    Drop(DropCause),
}

impl Direction {
    /// A direction configured with `cfg`, entry `config` of the table.
    pub(crate) fn new(config: u32, cfg: &LinkConfig) -> Self {
        let initial_level = match &cfg.shaper {
            Shaper::TokenBucket { burst_bytes, .. } => *burst_bytes,
            _ => 0.0,
        };
        Self {
            config,
            busy_until: SimTime::ZERO,
            fifo_tail: u32::MAX,
            bucket_level: initial_level,
            bucket_at: SimTime::ZERO,
            outage_until: SimTime::ZERO,
            burst_bad: false,
            delivered: 0,
            dropped: 0,
            policer_hits: 0,
        }
    }

    /// Switch to entry `config`, which differs from the current one at
    /// most in its burst-loss model; the chain restarts in the good
    /// state.
    pub(crate) fn set_burst_config(&mut self, config: u32) {
        self.config = config;
        self.burst_bad = false;
    }

    /// Offer a packet of `size` bytes at `now` to this direction, whose
    /// configuration is `cfg`; `loss_draw` is a uniform [0,1) sample used
    /// for the loss decision, and `burst_draw` a second sample stepping
    /// the Gilbert–Elliott chain (required iff `cfg` has a burst model —
    /// drawn separately so links without one consume exactly one sample
    /// per offer, keeping no-fault runs byte-identical).
    pub(crate) fn offer(
        &mut self,
        cfg: &LinkConfig,
        now: SimTime,
        size: u32,
        loss_draw: f64,
        burst_draw: Option<f64>,
    ) -> Offer {
        if now < self.outage_until {
            self.dropped += 1;
            return Offer::Drop(DropCause::Outage);
        }
        let loss_p = match (&cfg.burst, burst_draw) {
            (Some(m), Some(step)) => {
                self.burst_bad = if self.burst_bad {
                    step >= m.p_exit
                } else {
                    step < m.p_enter
                };
                if self.burst_bad {
                    m.loss_bad
                } else {
                    m.loss_good
                }
            }
            _ => cfg.loss,
        };
        if loss_draw < loss_p {
            self.dropped += 1;
            return Offer::Drop(if cfg.burst.is_some() && self.burst_bad {
                DropCause::Burst
            } else {
                DropCause::Loss
            });
        }
        let start = self.busy_until.max(now);
        // Compute the service-completion time without committing any
        // state, so a queue-cap drop leaves the shaper untouched.
        let (done, bucket_commit) = match &cfg.shaper {
            Shaper::None => (start, None),
            Shaper::FixedRate(rate) => {
                if *rate <= 0.0 {
                    self.dropped += 1;
                    return Offer::Drop(DropCause::Policer);
                }
                (
                    start + SimDuration::from_secs_f64(f64::from(size) * 8.0 / rate),
                    None,
                )
            }
            Shaper::TokenBucket {
                schedule,
                burst_bytes,
            } => {
                // Refill from bucket_at to start, capped at the burst depth.
                let accrued = schedule.integral_bytes(self.bucket_at, start);
                let level = (self.bucket_level + accrued).min(*burst_bytes);
                let need = f64::from(size);
                let (eligible, new_level) = if level >= need {
                    (start, level - need)
                } else {
                    (schedule.time_to_accrue(start, need - level), 0.0)
                };
                if eligible == SimTime::FAR_FUTURE {
                    self.dropped += 1;
                    return Offer::Drop(DropCause::Policer);
                }
                if eligible > start {
                    self.policer_hits += 1;
                }
                (eligible, Some((new_level, eligible)))
            }
        };
        if done.saturating_since(now) > cfg.queue_cap {
            self.dropped += 1;
            return Offer::Drop(DropCause::QueueCap);
        }
        if let Some((level, at)) = bucket_commit {
            self.bucket_level = level;
            self.bucket_at = at;
        }
        // `done ≥ start ≥` every earlier `done`, and nothing changes the
        // latency after construction: a direction delivers in the order
        // it accepts, which a shaped direction's own FIFO relies on.
        // Unshaped, `done = now` under a monotone clock, which the FIFO
        // one delay-only configuration's directions share relies on.
        self.busy_until = done;
        self.delivered += 1;
        Offer::Deliver(done + cfg.latency)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A direction paired with its own configuration, as a topology's
    /// table pairs them.
    pub(super) struct Lone {
        pub(super) cfg: LinkConfig,
        pub(super) d: Direction,
    }

    impl Lone {
        pub(super) fn new(cfg: LinkConfig) -> Self {
            let d = Direction::new(0, &cfg);
            Self { cfg, d }
        }

        pub(super) fn offer(
            &mut self,
            now: SimTime,
            size: u32,
            loss_draw: f64,
            burst_draw: Option<f64>,
        ) -> Offer {
            self.d.offer(&self.cfg, now, size, loss_draw, burst_draw)
        }
    }

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    #[test]
    fn schedule_constant_integral() {
        let s = RateSchedule::Constant(8_000_000.0); // 1 MB/s
        let bytes = s.integral_bytes(SimTime::ZERO, SimTime::from_secs(2));
        assert!((bytes - 2_000_000.0).abs() < 1.0);
    }

    #[test]
    fn schedule_trace_integral_piecewise() {
        let s = RateSchedule::Trace {
            step: SimDuration::from_secs(1),
            samples: vec![8.0e6, 16.0e6],
        };
        // 0.5s at 1 MB/s + 1s at 2MB/s (trace extends past end).
        let bytes = s.integral_bytes(SimTime::from_secs_f64(0.5), SimTime::from_secs_f64(2.5));
        assert!(
            (bytes - (500_000.0 + 2_000_000.0 + 1_000_000.0)).abs() < 1.0,
            "{bytes}"
        );
    }

    #[test]
    fn schedule_time_to_accrue_constant() {
        let s = RateSchedule::Constant(8_000.0); // 1 kB/s
        let t = s.time_to_accrue(SimTime::ZERO, 500.0);
        assert_eq!(t, SimTime::from_secs_f64(0.5));
    }

    #[test]
    fn schedule_time_to_accrue_across_bins() {
        let s = RateSchedule::Trace {
            step: SimDuration::from_secs(1),
            samples: vec![8_000.0, 80_000.0], // 1 kB/s then 10 kB/s
        };
        // Need 2 kB from t=0: 1 kB in first second, 1 kB = 0.1s in second bin.
        let t = s.time_to_accrue(SimTime::ZERO, 2_000.0);
        assert_eq!(t, SimTime::from_secs_f64(1.1));
    }

    #[test]
    fn schedule_zero_rate_never_accrues() {
        let s = RateSchedule::Constant(0.0);
        assert_eq!(s.time_to_accrue(SimTime::ZERO, 1.0), SimTime::FAR_FUTURE);
    }

    #[test]
    fn delay_only_link_adds_latency() {
        let mut d = Lone::new(LinkConfig::delay_only(ms(10)));
        match d.offer(SimTime::from_secs(1), 1500, 0.9, None) {
            Offer::Deliver(t) => assert_eq!(t, SimTime::from_secs(1) + ms(10)),
            Offer::Drop(_) => panic!("dropped"),
        }
    }

    #[test]
    fn fixed_rate_serializes_fifo() {
        // 8 kbit/s -> 1000-byte packet takes 1 s.
        let mut d = Lone::new(LinkConfig::fixed_rate(
            ms(0),
            8_000.0,
            SimDuration::from_secs(100),
        ));
        let t0 = SimTime::ZERO;
        let a = d.offer(t0, 1000, 0.9, None);
        let b = d.offer(t0, 1000, 0.9, None);
        assert_eq!(a, Offer::Deliver(SimTime::from_secs(1)));
        assert_eq!(b, Offer::Deliver(SimTime::from_secs(2)));
    }

    #[test]
    fn queue_cap_drops() {
        let mut d = Lone::new(LinkConfig::fixed_rate(
            ms(0),
            8_000.0,
            SimDuration::from_secs(1),
        ));
        assert!(matches!(
            d.offer(SimTime::ZERO, 1000, 0.9, None),
            Offer::Deliver(_)
        ));
        // Second packet would wait 1s then serialize 1s -> sojourn 2s > cap.
        assert_eq!(
            d.offer(SimTime::ZERO, 1000, 0.9, None),
            Offer::Drop(DropCause::QueueCap)
        );
        assert_eq!(d.d.dropped, 1);
    }

    #[test]
    fn loss_draw_applies() {
        let mut d = Lone::new(LinkConfig::delay_only(ms(1)).with_loss(0.5));
        assert_eq!(
            d.offer(SimTime::ZERO, 100, 0.4, None),
            Offer::Drop(DropCause::Loss)
        );
        assert!(matches!(
            d.offer(SimTime::ZERO, 100, 0.6, None),
            Offer::Deliver(_)
        ));
    }

    #[test]
    fn outage_drops_until() {
        let mut d = Lone::new(LinkConfig::delay_only(ms(1)));
        d.d.outage_until = SimTime::from_secs(5);
        assert_eq!(
            d.offer(SimTime::from_secs(4), 100, 0.9, None),
            Offer::Drop(DropCause::Outage)
        );
        assert!(matches!(
            d.offer(SimTime::from_secs(5), 100, 0.9, None),
            Offer::Deliver(_)
        ));
    }

    #[test]
    fn burst_model_replaces_uniform_loss() {
        let model = BurstLoss {
            p_enter: 0.5,
            p_exit: 0.5,
            loss_good: 0.0,
            loss_bad: 1.0,
        };
        let mut d = Lone::new(LinkConfig {
            burst: Some(model),
            ..LinkConfig::delay_only(ms(1))
        });
        // step 0.9 >= p_enter: stay good, loss_good = 0 -> deliver.
        assert!(matches!(
            d.offer(SimTime::ZERO, 100, 0.0, Some(0.9)),
            Offer::Deliver(_)
        ));
        // step 0.1 < p_enter: enter bad, loss_bad = 1 -> burst drop.
        assert_eq!(
            d.offer(SimTime::ZERO, 100, 0.0, Some(0.1)),
            Offer::Drop(DropCause::Burst)
        );
        // step 0.9 >= p_exit: stay bad -> still dropping.
        assert_eq!(
            d.offer(SimTime::ZERO, 100, 0.0, Some(0.9)),
            Offer::Drop(DropCause::Burst)
        );
        // step 0.1 < p_exit: leave bad -> deliver again.
        assert!(matches!(
            d.offer(SimTime::ZERO, 100, 0.0, Some(0.1)),
            Offer::Deliver(_)
        ));
        // Removing the model resets the chain and restores uniform loss.
        d.cfg.burst = None;
        d.d.set_burst_config(0);
        assert!(!d.d.burst_bad);
        assert!(matches!(
            d.offer(SimTime::ZERO, 100, 0.0, None),
            Offer::Deliver(_)
        ));
    }

    #[test]
    fn token_bucket_burst_then_rate() {
        // 1 kB/s fill, 2 kB burst: first 2 kB pass immediately, then paced.
        let cfg = LinkConfig {
            latency: SimDuration::ZERO,
            loss: 0.0,
            shaper: Shaper::TokenBucket {
                schedule: RateSchedule::Constant(8_000.0),
                burst_bytes: 2_000.0,
            },
            queue_cap: SimDuration::from_secs(100),
            burst: None,
        };
        let mut d = Lone::new(cfg);
        let t0 = SimTime::ZERO;
        assert_eq!(d.offer(t0, 1000, 0.9, None), Offer::Deliver(t0));
        assert_eq!(d.offer(t0, 1000, 0.9, None), Offer::Deliver(t0));
        // Bucket empty: third packet waits a full second of refill.
        assert_eq!(
            d.offer(t0, 1000, 0.9, None),
            Offer::Deliver(SimTime::from_secs(1))
        );
        // Fourth waits behind the third.
        assert_eq!(
            d.offer(t0, 1000, 0.9, None),
            Offer::Deliver(SimTime::from_secs(2))
        );
    }

    #[test]
    fn token_bucket_refills_during_idle() {
        let cfg = LinkConfig {
            latency: SimDuration::ZERO,
            loss: 0.0,
            shaper: Shaper::TokenBucket {
                schedule: RateSchedule::Constant(8_000.0),
                burst_bytes: 1_500.0,
            },
            queue_cap: SimDuration::from_secs(100),
            burst: None,
        };
        let mut d = Lone::new(cfg);
        assert_eq!(
            d.offer(SimTime::ZERO, 1500, 0.9, None),
            Offer::Deliver(SimTime::ZERO)
        );
        // After 1.5s idle the bucket is full again (capped at burst).
        let t = SimTime::from_secs_f64(2.0);
        assert_eq!(d.offer(t, 1500, 0.9, None), Offer::Deliver(t));
    }
}

#[cfg(test)]
mod proptests {
    use super::tests::Lone;
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Conservation: a token-bucket shaper never schedules more bytes
        /// into any interval than the schedule's integral plus the burst.
        #[test]
        fn prop_token_bucket_conserves(
            rate_kbps in 100u64..20_000,
            burst_kb in 1u64..200,
            offers in proptest::collection::vec((0u64..2_000u64, 100u32..1500), 1..60),
        ) {
            let rate = rate_kbps as f64 * 1000.0;
            let burst = burst_kb as f64 * 1000.0;
            let cfg = LinkConfig {
                latency: SimDuration::ZERO,
                loss: 0.0,
                shaper: Shaper::TokenBucket {
                    schedule: RateSchedule::Constant(rate),
                    burst_bytes: burst,
                },
                queue_cap: SimDuration::from_secs(1000),
                burst: None,
            };
            let mut d = Lone::new(cfg);
            // Offers must be time-ordered.
            let mut offers = offers;
            offers.sort_by_key(|&(t, _)| t);
            let mut delivered_bytes = 0f64;
            let mut last_delivery = SimTime::ZERO;
            for (t_ms, size) in offers {
                let now = SimTime::from_nanos(t_ms * 1_000_000);
                if let Offer::Deliver(at) = d.offer(now, size, 0.9, None) {
                    delivered_bytes += f64::from(size);
                    prop_assert!(at >= now, "no time travel");
                    prop_assert!(at >= last_delivery, "FIFO order");
                    last_delivery = at;
                    // Everything scheduled up to `at` fits in the
                    // schedule's integral plus one burst.
                    let cap = rate / 8.0 * at.as_secs_f64() + burst;
                    prop_assert!(
                        delivered_bytes <= cap + 1.0,
                        "delivered {delivered_bytes} > cap {cap} at {at}"
                    );
                }
            }
        }

        /// A fixed-rate link serializes back-to-back packets at exactly
        /// the line rate.
        #[test]
        fn prop_fixed_rate_serialization(
            rate_kbps in 100u64..50_000,
            sizes in proptest::collection::vec(40u32..1500, 1..40),
        ) {
            let rate = rate_kbps as f64 * 1000.0;
            let mut d = Lone::new(LinkConfig::fixed_rate(
                SimDuration::ZERO,
                rate,
                SimDuration::from_secs(1000),
            ));
            let mut expected = 0.0f64;
            for size in sizes {
                expected += f64::from(size) * 8.0 / rate;
                match d.offer(SimTime::ZERO, size, 0.9, None) {
                    Offer::Deliver(at) => {
                        let err = (at.as_secs_f64() - expected).abs();
                        prop_assert!(err < 1e-6, "at {at}, expected {expected}");
                    }
                    Offer::Drop(_) => prop_assert!(false, "no drops expected"),
                }
            }
        }
    }
}
