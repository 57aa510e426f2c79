//! Pluggable congestion control behind a narrow trait.
//!
//! The CCP/portus idiom: congestion-control *policy* (what the window
//! should be) lives behind an `on_ack` / `on_loss` / `on_rto` API, while
//! the datapath *mechanism* (scoreboards, retransmission, RTO timers)
//! stays in [`crate::tcp`]. The datapath reports events; the algorithm
//! answers with [`CongestionControl::cwnd`] and, for rate-based
//! algorithms, [`CongestionControl::pacing_rate`].
//!
//! Three algorithms ship:
//!
//! * [`Cubic`] — RFC 8312 with a Hystart-style delay-increase slow-start
//!   exit. This is a field-for-field, operation-for-operation extraction
//!   of the CUBIC logic that used to be inlined in `Tcp`; with the
//!   default configuration every figure in `results/` replays
//!   byte-identically (CI enforces this).
//! * [`Reno`] — classic NewReno AIMD (RFC 5681): β = ½, no Hystart.
//! * [`Bbr`] — a model-faithful BBR v1: max-filtered bottleneck
//!   bandwidth × min-filtered round-trip propagation delay, driving the
//!   Startup → Drain → ProbeBw → ProbeRtt state machine. The datapath is
//!   window-driven, so the pacing-gain cycle is applied to the window
//!   target (the exported [`CongestionControl::pacing_rate`] is
//!   informational).
//!
//! Everything here is deterministic: no RNG, no wall clock — state
//! advances only on the simulated-time events the datapath reports, so
//! same seed ⇒ same trajectory, bit for bit.

use crate::tcp::TcpConfig;
use cellbricks_sim::{SimDuration, SimTime};
use cellbricks_telemetry as telemetry;

/// Which congestion-control algorithm a connection runs.
///
/// Selected via [`TcpConfig::cc`]; MPTCP subflows inherit the choice
/// from their connection's `MpConfig::tcp`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CcAlgo {
    /// CUBIC (RFC 8312) + Hystart — the default, and the algorithm every
    /// committed figure was produced with.
    #[default]
    Cubic,
    /// NewReno-style AIMD (RFC 5681).
    Reno,
    /// BBR v1 model (bandwidth-delay product driven).
    Bbr,
}

impl CcAlgo {
    /// Short lowercase name (CLI flags, telemetry keys, bench tables).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            CcAlgo::Cubic => "cubic",
            CcAlgo::Reno => "reno",
            CcAlgo::Bbr => "bbr",
        }
    }
}

/// How an ACK that advanced `snd_una` is classified by the datapath
/// (which NewReno rule applies).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AckKind {
    /// Not in loss recovery: slow start / congestion avoidance.
    Open,
    /// Full ACK: the ACK covers `recover`, loss recovery ends.
    RecoveryFull,
    /// Partial ACK: still in recovery, another hole was filled.
    RecoveryPartial,
}

/// What loss evidence triggered [`CongestionControl::on_loss`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LossKind {
    /// Triple-duplicate-ACK / SACK-hole fast retransmit.
    FastRetransmit,
}

/// Congestion-control policy for one connection (or MPTCP subflow).
///
/// The datapath calls the `on_*` hooks in the exact order the
/// corresponding events occur and reads back [`cwnd`](Self::cwnd) when
/// deciding how much to put on the wire. Implementations must be
/// deterministic functions of the reported events.
pub trait CongestionControl: std::fmt::Debug + Send {
    /// An ACK advanced `snd_una` by `newly_acked` bytes. `rtt_sample` is
    /// the RTT measured by this ACK, when it completed one (Karn's rule
    /// applies upstream). `flight` is the datapath's post-ACK estimate
    /// of bytes still in the pipe (sent − acked − SACKed).
    fn on_ack(
        &mut self,
        now: SimTime,
        newly_acked: u64,
        rtt_sample: Option<SimDuration>,
        kind: AckKind,
        flight: u64,
    );

    /// Loss detected without an RTO (fast retransmit). `flight` as in
    /// [`on_ack`](Self::on_ack), measured at detection time.
    fn on_loss(&mut self, now: SimTime, kind: LossKind, flight: u64);

    /// The retransmission timer fired.
    fn on_rto(&mut self, now: SimTime);

    /// Current congestion window, bytes.
    fn cwnd(&self) -> f64;

    /// Slow-start threshold, bytes (`f64::INFINITY` when the algorithm
    /// has none, e.g. BBR).
    fn ssthresh(&self) -> f64;

    /// Target send rate in bytes/sec, for rate-based algorithms.
    fn pacing_rate(&self) -> Option<f64>;

    /// Forget all learned path state and return to the initial window:
    /// the connection survived an address/path change (CellBricks
    /// re-attach), so epochs, `w_max`, RTT baselines and bandwidth
    /// estimates no longer describe the path in use.
    fn reset(&mut self);

    /// Algorithm name (matches [`CcAlgo::name`]).
    fn name(&self) -> &'static str;
}

/// Build the algorithm selected by `algo` for a connection using `cfg`.
#[must_use]
pub fn build(algo: CcAlgo, cfg: &TcpConfig) -> Box<dyn CongestionControl> {
    match algo {
        CcAlgo::Cubic => Box::new(Cubic::new(cfg)),
        CcAlgo::Reno => Box::new(Reno::new(cfg)),
        CcAlgo::Bbr => Box::new(Bbr::new(cfg)),
    }
}

/// Telemetry shared by all algorithms (process-global cells).
#[derive(Debug)]
struct CcMetrics {
    /// Multiplicative decreases (fast retransmit) for this algorithm.
    losses: telemetry::Counter,
    /// RTO-driven collapses for this algorithm.
    rtos: telemetry::Counter,
    /// `reset()` calls (re-attach / address-change hygiene).
    resets: telemetry::Counter,
}

impl CcMetrics {
    fn register(algo: &'static str) -> Self {
        Self {
            losses: telemetry::counter(format!("cc.{algo}.loss_events")),
            rtos: telemetry::counter(format!("cc.{algo}.rto_events")),
            resets: telemetry::counter(format!("cc.{algo}.resets")),
        }
    }
}

// ---------------------------------------------------------------------------
// CUBIC
// ---------------------------------------------------------------------------

/// CUBIC (RFC 8312) with a Hystart-style slow-start exit.
///
/// The arithmetic — every constant, every `max`, the order of the
/// Hystart check relative to the window update — is a verbatim
/// extraction of the logic that previously lived inline in `Tcp`, so
/// trajectories are bit-identical to the pre-trait code (the proptest
/// below and the CI figure-replay gate both enforce this).
#[derive(Debug)]
pub struct Cubic {
    mss: f64,
    init_cwnd: f64,
    /// Congestion window, bytes.
    cwnd: f64,
    /// Slow-start threshold, bytes.
    ssthresh: f64,
    /// Window size (bytes) just before the last reduction.
    wmax: f64,
    /// Start of the current congestion-avoidance epoch.
    epoch: Option<SimTime>,
    /// Time (seconds) to climb back to `wmax`.
    k: f64,
    /// Lowest RTT ever sampled (Hystart delay baseline).
    min_rtt: Option<SimDuration>,
    metrics: CcMetrics,
}

impl Cubic {
    /// Fresh CUBIC state for a connection using `cfg`.
    #[must_use]
    pub fn new(cfg: &TcpConfig) -> Self {
        let init_cwnd = f64::from(cfg.init_cwnd_mss * cfg.mss);
        Self {
            mss: f64::from(cfg.mss),
            init_cwnd,
            cwnd: init_cwnd,
            ssthresh: f64::INFINITY,
            wmax: 0.0,
            epoch: None,
            k: 0.0,
            min_rtt: None,
            metrics: CcMetrics::register("cubic"),
        }
    }

    /// Hystart-style delay-increase exit from slow start: when queueing
    /// pushes the RTT well above the propagation baseline, stop doubling
    /// (mirrors Linux, which the paper's testbed runs).
    fn hystart(&mut self, r: SimDuration) {
        self.min_rtt = Some(match self.min_rtt {
            Some(m) => m.min(r),
            None => r,
        });
        if self.cwnd < self.ssthresh {
            let base = self.min_rtt.unwrap();
            let threshold = base + (base / 4).max(SimDuration::from_millis(4));
            if r > threshold {
                self.ssthresh = self.cwnd;
                self.wmax = self.cwnd;
                self.epoch = None;
            }
        }
    }

    /// CUBIC window growth (RFC 8312): in congestion avoidance, grow the
    /// window toward `W(t) = C·(t−K)³ + Wmax` where t is the time since
    /// the epoch started and K = ∛(Wmax·(1−β)/C). Windows are in MSS
    /// units for the cubic function, per the RFC.
    fn cubic_update(&mut self, now: SimTime, newly_acked: u64) {
        const C: f64 = 0.4;
        const BETA: f64 = 0.7;
        let mss = self.mss;
        let epoch = match self.epoch {
            Some(e) => e,
            None => {
                let wmax_mss = (self.wmax / mss).max(1.0);
                let cur_mss = self.cwnd / mss;
                // If we start below Wmax, K is the climb time; otherwise
                // probe immediately (K = 0).
                self.k = if cur_mss < wmax_mss {
                    ((wmax_mss - cur_mss) / C).cbrt()
                } else {
                    0.0
                };
                self.epoch = Some(now);
                now
            }
        };
        let t = now.since(epoch).as_secs_f64();
        let wmax_mss = (self.wmax / mss).max(1.0);
        let target_mss = C * (t - self.k).powi(3) + wmax_mss;
        let target = (target_mss * mss).max(2.0 * mss);
        if target > self.cwnd {
            // Spread the climb over roughly one RTT of ACKs.
            let step = (target - self.cwnd) * (newly_acked as f64 / self.cwnd).min(1.0);
            self.cwnd += step;
        } else {
            // TCP-friendly floor: at least Reno-style additive increase.
            self.cwnd += mss * mss / self.cwnd * (newly_acked as f64 / mss).min(1.0);
        }
        let _ = BETA;
    }
}

impl CongestionControl for Cubic {
    fn on_ack(
        &mut self,
        now: SimTime,
        newly_acked: u64,
        rtt_sample: Option<SimDuration>,
        kind: AckKind,
        _flight: u64,
    ) {
        // Hystart ran inside the RTT sampler in the pre-trait code, i.e.
        // before the recovery branch touched the window — keep that order.
        if let Some(r) = rtt_sample {
            self.hystart(r);
        }
        match kind {
            AckKind::RecoveryFull => {
                // Full ACK: leave recovery, deflate to ssthresh.
                self.cwnd = self.ssthresh;
            }
            AckKind::RecoveryPartial => {
                // Partial ACK (NewReno): deflate by what was retired.
                self.cwnd = (self.cwnd - newly_acked as f64 + self.mss).max(self.mss);
            }
            AckKind::Open => {
                if self.cwnd < self.ssthresh {
                    // Slow start: cwnd grows by bytes acked.
                    self.cwnd += newly_acked as f64;
                } else {
                    self.cubic_update(now, newly_acked);
                }
            }
        }
    }

    fn on_loss(&mut self, _now: SimTime, kind: LossKind, flight: u64) {
        let LossKind::FastRetransmit = kind;
        // CUBIC-style multiplicative decrease (β = 0.7, Linux).
        self.metrics.losses.inc();
        self.wmax = self.cwnd.max(flight as f64);
        self.ssthresh = (self.wmax * 0.7).max(2.0 * self.mss);
        self.cwnd = self.ssthresh;
        self.epoch = None;
    }

    fn on_rto(&mut self, _now: SimTime) {
        self.metrics.rtos.inc();
        self.wmax = self.wmax.max(self.cwnd);
        self.ssthresh = (self.wmax * 0.7).max(2.0 * self.mss);
        self.cwnd = self.mss;
        self.epoch = None;
    }

    fn cwnd(&self) -> f64 {
        self.cwnd
    }

    fn ssthresh(&self) -> f64 {
        self.ssthresh
    }

    fn pacing_rate(&self) -> Option<f64> {
        None
    }

    fn reset(&mut self) {
        self.metrics.resets.inc();
        self.cwnd = self.init_cwnd;
        self.ssthresh = f64::INFINITY;
        self.wmax = 0.0;
        self.epoch = None;
        self.k = 0.0;
        self.min_rtt = None;
    }

    fn name(&self) -> &'static str {
        "cubic"
    }
}

// ---------------------------------------------------------------------------
// Reno
// ---------------------------------------------------------------------------

/// Classic NewReno AIMD (RFC 5681): additive increase of one MSS per
/// RTT in congestion avoidance, β = ½ on loss, no Hystart (slow start
/// runs until the first loss event).
#[derive(Debug)]
pub struct Reno {
    mss: f64,
    init_cwnd: f64,
    cwnd: f64,
    ssthresh: f64,
    metrics: CcMetrics,
}

impl Reno {
    /// Fresh Reno state for a connection using `cfg`.
    #[must_use]
    pub fn new(cfg: &TcpConfig) -> Self {
        let init_cwnd = f64::from(cfg.init_cwnd_mss * cfg.mss);
        Self {
            mss: f64::from(cfg.mss),
            init_cwnd,
            cwnd: init_cwnd,
            ssthresh: f64::INFINITY,
            metrics: CcMetrics::register("reno"),
        }
    }
}

impl CongestionControl for Reno {
    fn on_ack(
        &mut self,
        _now: SimTime,
        newly_acked: u64,
        _rtt_sample: Option<SimDuration>,
        kind: AckKind,
        _flight: u64,
    ) {
        match kind {
            AckKind::RecoveryFull => {
                self.cwnd = self.ssthresh;
            }
            AckKind::RecoveryPartial => {
                self.cwnd = (self.cwnd - newly_acked as f64 + self.mss).max(self.mss);
            }
            AckKind::Open => {
                if self.cwnd < self.ssthresh {
                    self.cwnd += newly_acked as f64;
                } else {
                    // One MSS per cwnd of acked data ≈ one MSS per RTT.
                    self.cwnd +=
                        self.mss * self.mss / self.cwnd * (newly_acked as f64 / self.mss).min(1.0);
                }
            }
        }
    }

    fn on_loss(&mut self, _now: SimTime, kind: LossKind, flight: u64) {
        let LossKind::FastRetransmit = kind;
        self.metrics.losses.inc();
        self.ssthresh = (self.cwnd.max(flight as f64) * 0.5).max(2.0 * self.mss);
        self.cwnd = self.ssthresh;
    }

    fn on_rto(&mut self, _now: SimTime) {
        self.metrics.rtos.inc();
        self.ssthresh = (self.cwnd * 0.5).max(2.0 * self.mss);
        self.cwnd = self.mss;
    }

    fn cwnd(&self) -> f64 {
        self.cwnd
    }

    fn ssthresh(&self) -> f64 {
        self.ssthresh
    }

    fn pacing_rate(&self) -> Option<f64> {
        None
    }

    fn reset(&mut self) {
        self.metrics.resets.inc();
        self.cwnd = self.init_cwnd;
        self.ssthresh = f64::INFINITY;
    }

    fn name(&self) -> &'static str {
        "reno"
    }
}

// ---------------------------------------------------------------------------
// BBR
// ---------------------------------------------------------------------------

/// BBR state machine phases (v1 paper, Cardwell et al. 2016).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum BbrState {
    /// Exponential search for the bottleneck bandwidth (gain 2/ln 2).
    Startup,
    /// Drain the queue Startup built (inverse gain) until
    /// `inflight ≤ BDP`.
    Drain,
    /// Steady state: cycle gains `[1.25, 0.75, 1, 1, 1, 1, 1, 1]` to
    /// probe for more bandwidth, then yield the queue back.
    ProbeBw,
    /// Periodically shrink to 4·MSS to re-measure the propagation RTT.
    ProbeRtt,
}

/// 2 / ln 2 — fills the pipe in the same number of round trips as slow
/// start.
const BBR_HIGH_GAIN: f64 = 2.885;
/// ProbeBw pacing-gain cycle; each phase lasts one RTprop.
const BBR_CYCLE: [f64; 8] = [1.25, 0.75, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0];
/// BtlBw max-filter window, in closed delivery rounds.
const BBR_BW_WINDOW_ROUNDS: u64 = 10;
/// RTprop min-filter window.
const BBR_RTPROP_WINDOW: SimDuration = SimDuration::from_secs(10);
/// Minimum time spent at the ProbeRtt floor.
const BBR_PROBE_RTT_TIME: SimDuration = SimDuration::from_millis(200);
/// Round length used for bandwidth sampling before any RTT sample.
const BBR_FALLBACK_ROUND: SimDuration = SimDuration::from_millis(100);

/// A model-faithful BBR v1.
///
/// The two estimators and the four-state machine follow the BBR paper;
/// the deviation (documented in DESIGN.md) is that this datapath is
/// window-clocked, so the per-state *pacing* gain is applied to the
/// window target `gain × BtlBw × RTprop` instead of to a packet release
/// timer. [`pacing_rate`](CongestionControl::pacing_rate) still reports
/// `gain × BtlBw` for pacing-aware consumers. Fully deterministic: both
/// filters and all phase transitions advance on ACK events only.
#[derive(Debug)]
pub struct Bbr {
    mss: f64,
    init_cwnd: f64,
    cwnd: f64,
    state: BbrState,
    /// Cumulative bytes retired by ACKs (the delivery counter).
    delivered: u64,
    /// Delivery-round bookkeeping for bandwidth sampling.
    round_start: Option<SimTime>,
    round_start_delivered: u64,
    /// Closed rounds so far (the max-filter's clock).
    round: u64,
    /// Windowed BtlBw samples: `(round_closed, bytes_per_sec)`.
    bw_samples: Vec<(u64, f64)>,
    /// Cached max over `bw_samples`.
    btl_bw: f64,
    /// Min-filtered propagation RTT and when it was last updated.
    rt_prop: Option<SimDuration>,
    rt_prop_stamp: SimTime,
    /// Startup full-pipe detection (three rounds < 25% growth).
    full_bw: f64,
    full_bw_count: u32,
    filled_pipe: bool,
    /// ProbeBw gain-cycle position and phase start.
    cycle_index: usize,
    cycle_stamp: SimTime,
    /// ProbeRtt: when the floor dwell completes, and the window to
    /// restore afterwards.
    probe_rtt_done: Option<SimTime>,
    prior_cwnd: f64,
    /// ProbeRtt entries (telemetry; also handy in tests).
    probe_rtt_count: u64,
    metrics: CcMetrics,
    probe_rtt_metric: telemetry::Counter,
}

impl Bbr {
    /// Fresh BBR state for a connection using `cfg`.
    #[must_use]
    pub fn new(cfg: &TcpConfig) -> Self {
        let init_cwnd = f64::from(cfg.init_cwnd_mss * cfg.mss);
        Self {
            mss: f64::from(cfg.mss),
            init_cwnd,
            cwnd: init_cwnd,
            state: BbrState::Startup,
            delivered: 0,
            round_start: None,
            round_start_delivered: 0,
            round: 0,
            bw_samples: Vec::new(),
            btl_bw: 0.0,
            rt_prop: None,
            rt_prop_stamp: SimTime::ZERO,
            full_bw: 0.0,
            full_bw_count: 0,
            filled_pipe: false,
            cycle_index: 0,
            cycle_stamp: SimTime::ZERO,
            probe_rtt_done: None,
            prior_cwnd: init_cwnd,
            probe_rtt_count: 0,
            metrics: CcMetrics::register("bbr"),
            probe_rtt_metric: telemetry::counter("cc.bbr.probe_rtt_entries"),
        }
    }

    /// Which state the machine is in, as a stable label (tests/debug).
    #[must_use]
    pub fn state_name(&self) -> &'static str {
        match self.state {
            BbrState::Startup => "startup",
            BbrState::Drain => "drain",
            BbrState::ProbeBw => "probe_bw",
            BbrState::ProbeRtt => "probe_rtt",
        }
    }

    /// Times ProbeRtt has been entered.
    #[must_use]
    pub fn probe_rtt_entries(&self) -> u64 {
        self.probe_rtt_count
    }

    fn min_cwnd(&self) -> f64 {
        4.0 * self.mss
    }

    /// Estimated bandwidth-delay product at `gain`, or the initial
    /// window while the estimators are still empty.
    fn bdp(&self, gain: f64) -> f64 {
        match (self.rt_prop, self.btl_bw > 0.0) {
            (Some(rt), true) => gain * self.btl_bw * rt.as_secs_f64(),
            _ => self.init_cwnd,
        }
    }

    fn record_bw(&mut self, bw: f64) {
        self.bw_samples.push((self.round, bw));
        let horizon = self.round.saturating_sub(BBR_BW_WINDOW_ROUNDS);
        self.bw_samples.retain(|&(r, _)| r > horizon);
        self.btl_bw = self.bw_samples.iter().map(|&(_, b)| b).fold(0.0, f64::max);
    }

    /// Close the current delivery round if one RTprop has elapsed, and
    /// feed the max filter + Startup pipe-full detector.
    fn advance_round(&mut self, now: SimTime) {
        let Some(start) = self.round_start else {
            self.round_start = Some(now);
            self.round_start_delivered = self.delivered;
            return;
        };
        let round_len = self.rt_prop.unwrap_or(BBR_FALLBACK_ROUND);
        let elapsed = now.saturating_since(start);
        if elapsed < round_len || elapsed == SimDuration::ZERO {
            return;
        }
        let bytes = (self.delivered - self.round_start_delivered) as f64;
        self.round += 1;
        self.record_bw(bytes / elapsed.as_secs_f64());
        self.round_start = Some(now);
        self.round_start_delivered = self.delivered;

        if self.state == BbrState::Startup {
            // Pipe full when three consecutive rounds grow < 25%.
            if self.btl_bw > self.full_bw * 1.25 {
                self.full_bw = self.btl_bw;
                self.full_bw_count = 0;
            } else {
                self.full_bw_count += 1;
                if self.full_bw_count >= 3 {
                    self.filled_pipe = true;
                    self.state = BbrState::Drain;
                }
            }
        }
    }

    fn enter_probe_bw(&mut self, now: SimTime) {
        self.state = BbrState::ProbeBw;
        // Start after the 1.25 probe phase so entry is not a rate spike.
        self.cycle_index = 2;
        self.cycle_stamp = now;
    }

    fn enter_probe_rtt(&mut self) {
        self.state = BbrState::ProbeRtt;
        self.prior_cwnd = self.cwnd;
        self.probe_rtt_done = None;
        self.probe_rtt_count += 1;
        self.probe_rtt_metric.inc();
    }

    /// Per-state gain applied to the window target (and reported as the
    /// pacing gain).
    fn gain(&self) -> f64 {
        match self.state {
            BbrState::Startup => BBR_HIGH_GAIN,
            BbrState::Drain => 1.0 / BBR_HIGH_GAIN,
            BbrState::ProbeBw => BBR_CYCLE[self.cycle_index],
            BbrState::ProbeRtt => 1.0,
        }
    }
}

impl CongestionControl for Bbr {
    fn on_ack(
        &mut self,
        now: SimTime,
        newly_acked: u64,
        rtt_sample: Option<SimDuration>,
        _kind: AckKind,
        flight: u64,
    ) {
        self.delivered += newly_acked;

        // RTprop min filter. Expiry is computed *before* the update and
        // reused for the ProbeRtt entry decision below (as in the
        // reference implementation): the ACK that finds the filter stale
        // both refreshes it and triggers the ProbeRtt dip.
        let filter_expired = now.saturating_since(self.rt_prop_stamp) > BBR_RTPROP_WINDOW;
        if let Some(r) = rtt_sample {
            // Adopt lower samples immediately, or any sample once the
            // window expired (the path may have lengthened).
            if filter_expired || self.rt_prop.is_none_or(|m| r <= m) {
                self.rt_prop = Some(r);
                self.rt_prop_stamp = now;
            }
        }

        self.advance_round(now);

        // State transitions.
        match self.state {
            BbrState::Startup => {} // advance_round() handles the exit.
            BbrState::Drain => {
                // Floor at min_cwnd: the window never shrinks below it,
                // so neither can inflight — without the floor a sub-4-MSS
                // BDP would pin the machine in Drain forever.
                if (flight as f64) <= self.bdp(1.0).max(self.min_cwnd()) {
                    self.enter_probe_bw(now);
                }
            }
            BbrState::ProbeBw => {
                let phase_len = self.rt_prop.unwrap_or(BBR_FALLBACK_ROUND);
                if now.saturating_since(self.cycle_stamp) >= phase_len {
                    self.cycle_index = (self.cycle_index + 1) % BBR_CYCLE.len();
                    self.cycle_stamp = now;
                }
            }
            BbrState::ProbeRtt => {
                // Dwell at the floor once inflight actually reached it.
                if self.probe_rtt_done.is_none() && (flight as f64) <= self.min_cwnd() {
                    let dwell = BBR_PROBE_RTT_TIME.max(self.rt_prop.unwrap_or(SimDuration::ZERO));
                    self.probe_rtt_done = Some(now + dwell);
                }
                if let Some(done) = self.probe_rtt_done {
                    if now >= done {
                        self.rt_prop_stamp = now; // Filter freshly validated.
                        self.cwnd = self.prior_cwnd;
                        if self.filled_pipe {
                            self.enter_probe_bw(now);
                        } else {
                            self.state = BbrState::Startup;
                        }
                    }
                }
            }
        }

        // Enter ProbeRtt when the RTprop filter went stale (even if this
        // very ACK just refreshed it — see `filter_expired` above).
        if self.state != BbrState::ProbeRtt
            && self.filled_pipe
            && self.rt_prop.is_some()
            && filter_expired
        {
            self.enter_probe_rtt();
        }

        // Window update.
        if self.state == BbrState::ProbeRtt {
            self.cwnd = self.cwnd.min(self.min_cwnd());
        } else {
            let target = self.bdp(self.gain()).max(self.min_cwnd());
            if self.cwnd < target {
                // Grow at most by what was delivered (ACK clocking).
                self.cwnd = (self.cwnd + newly_acked as f64).min(target);
            } else {
                self.cwnd = target;
            }
        }
    }

    fn on_loss(&mut self, _now: SimTime, kind: LossKind, _flight: u64) {
        // BBR v1 is not loss-driven: isolated losses don't move the
        // model (the bandwidth filter already reflects delivery).
        let LossKind::FastRetransmit = kind;
        self.metrics.losses.inc();
    }

    fn on_rto(&mut self, _now: SimTime) {
        // Conservative collapse like the reference implementation: one
        // packet in flight until delivery resumes; the estimators are
        // kept (the path did not necessarily change).
        self.metrics.rtos.inc();
        self.prior_cwnd = self.cwnd.max(self.prior_cwnd);
        self.cwnd = self.mss;
    }

    fn cwnd(&self) -> f64 {
        self.cwnd
    }

    fn ssthresh(&self) -> f64 {
        f64::INFINITY
    }

    fn pacing_rate(&self) -> Option<f64> {
        if self.btl_bw > 0.0 {
            Some(self.gain() * self.btl_bw)
        } else {
            None
        }
    }

    fn reset(&mut self) {
        self.metrics.resets.inc();
        self.cwnd = self.init_cwnd;
        self.state = BbrState::Startup;
        self.delivered = 0;
        self.round_start = None;
        self.round_start_delivered = 0;
        self.round = 0;
        self.bw_samples.clear();
        self.btl_bw = 0.0;
        self.rt_prop = None;
        self.rt_prop_stamp = SimTime::ZERO;
        self.full_bw = 0.0;
        self.full_bw_count = 0;
        self.filled_pipe = false;
        self.cycle_index = 0;
        self.cycle_stamp = SimTime::ZERO;
        self.probe_rtt_done = None;
        self.prior_cwnd = self.init_cwnd;
    }

    fn name(&self) -> &'static str {
        "bbr"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> TcpConfig {
        TcpConfig::default()
    }

    const MSS: f64 = 1460.0;

    #[test]
    fn built_algo_reports_its_name() {
        for algo in [CcAlgo::Cubic, CcAlgo::Reno, CcAlgo::Bbr] {
            assert_eq!(build(algo, &cfg()).name(), algo.name());
        }
    }

    #[test]
    fn cubic_initial_window_matches_config() {
        let c = Cubic::new(&cfg());
        assert_eq!(c.cwnd(), 14_600.0);
        assert!(c.ssthresh().is_infinite());
    }

    #[test]
    fn reno_halves_on_loss_and_resets() {
        let mut r = Reno::new(&cfg());
        // Grow past the initial window in slow start.
        r.on_ack(SimTime::ZERO, 14_600, None, AckKind::Open, 14_600);
        let grown = r.cwnd();
        assert_eq!(grown, 29_200.0);
        r.on_loss(SimTime::ZERO, LossKind::FastRetransmit, 29_200);
        assert_eq!(r.cwnd(), 14_600.0, "β = ½");
        assert_eq!(r.ssthresh(), 14_600.0);
        r.reset();
        assert_eq!(r.cwnd(), 14_600.0);
        assert!(r.ssthresh().is_infinite());
    }

    #[test]
    fn reno_rto_collapses_to_one_mss() {
        let mut r = Reno::new(&cfg());
        r.on_rto(SimTime::ZERO);
        assert_eq!(r.cwnd(), MSS);
        assert_eq!(r.ssthresh(), 7_300.0);
    }

    /// Drive BBR with a synthetic steady ACK clock: 100 kB/s delivery,
    /// 50 ms RTT. The machine must leave Startup (via Drain) for ProbeBw,
    /// converge its window near the BDP, and dip into ProbeRtt on the
    /// 10-second filter schedule.
    #[test]
    fn bbr_reaches_probe_bw_and_probes_rtt() {
        let mut b = Bbr::new(&cfg());
        let mut now = SimTime::ZERO;
        let mut probe_bw_seen = false;
        // 30 simulated seconds of one-ACK-per-10ms, 1 kB each. The RTT
        // starts at the 50 ms propagation floor, then rides 1 ms above
        // it (standing queue): the min filter's stamp goes stale and
        // ProbeRtt must fire on the 10 s schedule.
        for i in 0..3000 {
            now += SimDuration::from_millis(10);
            let rtt = SimDuration::from_millis(if i < 100 { 50 } else { 51 });
            let flight = (b.cwnd() * 0.9) as u64;
            b.on_ack(now, 1_000, Some(rtt), AckKind::Open, flight);
            if b.state_name() == "probe_bw" {
                probe_bw_seen = true;
            }
        }
        assert!(probe_bw_seen, "reached steady state: {}", b.state_name());
        assert!(
            b.probe_rtt_entries() >= 1,
            "ProbeRtt on the 10 s schedule (entries {})",
            b.probe_rtt_entries()
        );
        // 100 kB/s × 50 ms = 5 kB BDP; window stays within gain bounds.
        let bdp = 100_000.0 * 0.050;
        assert!(
            b.cwnd() <= 2.0 * 1.25 * bdp + b.min_cwnd(),
            "cwnd {} vs bdp {bdp}",
            b.cwnd()
        );
        assert!(b.pacing_rate().is_some());
    }

    #[test]
    fn bbr_is_deterministic() {
        let run = || {
            let mut b = Bbr::new(&cfg());
            let mut now = SimTime::ZERO;
            let mut trace = Vec::new();
            for i in 0..2000u64 {
                now += SimDuration::from_millis(7);
                let rtt = SimDuration::from_millis(40 + (i % 13));
                b.on_ack(
                    now,
                    700 + i % 400,
                    Some(rtt),
                    AckKind::Open,
                    b.cwnd() as u64,
                );
                if i % 100 == 0 {
                    b.on_loss(now, LossKind::FastRetransmit, b.cwnd() as u64);
                }
                trace.push(b.cwnd().to_bits());
            }
            trace
        };
        assert_eq!(run(), run(), "same inputs, same trajectory, bit for bit");
    }

    #[test]
    fn bbr_rto_collapses_then_recovers() {
        let mut b = Bbr::new(&cfg());
        let mut now = SimTime::ZERO;
        for _ in 0..200 {
            now += SimDuration::from_millis(10);
            b.on_ack(
                now,
                2_000,
                Some(SimDuration::from_millis(50)),
                AckKind::Open,
                b.cwnd() as u64,
            );
        }
        b.on_rto(now);
        assert_eq!(b.cwnd(), MSS);
        for _ in 0..50 {
            now += SimDuration::from_millis(10);
            b.on_ack(
                now,
                2_000,
                Some(SimDuration::from_millis(50)),
                AckKind::Open,
                1_000,
            );
        }
        assert!(b.cwnd() > 4.0 * MSS, "re-grew after RTO: {}", b.cwnd());
    }

    #[test]
    fn reset_restores_initial_state_for_all_algorithms() {
        for algo in [CcAlgo::Cubic, CcAlgo::Reno, CcAlgo::Bbr] {
            let mut cc = build(algo, &cfg());
            let mut now = SimTime::ZERO;
            for _ in 0..300 {
                now += SimDuration::from_millis(11);
                cc.on_ack(
                    now,
                    1_500,
                    Some(SimDuration::from_millis(60)),
                    AckKind::Open,
                    cc.cwnd() as u64,
                );
            }
            cc.on_loss(now, LossKind::FastRetransmit, cc.cwnd() as u64);
            cc.on_rto(now);
            cc.reset();
            assert_eq!(cc.cwnd(), 14_600.0, "{algo:?} cwnd restored");
            assert!(cc.ssthresh().is_infinite(), "{algo:?} ssthresh restored");
            assert!(cc.pacing_rate().is_none(), "{algo:?} estimators cleared");
        }
    }
}

/// Refactor-equivalence proptest: the retained inline-CUBIC oracle (a
/// line-for-line transcript of the pre-trait `Tcp` congestion logic,
/// kept only for tests) must match [`Cubic`]-via-trait bit for bit on
/// arbitrary ack/loss/RTO/RTT-sample sequences.
#[cfg(test)]
mod cubic_oracle {
    use super::*;
    use proptest::prelude::*;

    /// The pre-trait implementation, verbatim: same field set, same
    /// expressions, same order (Hystart inside the RTT sampler, then the
    /// NewReno branch), as `crates/transport/src/tcp.rs` carried inline
    /// before the `CongestionControl` extraction.
    struct InlineCubicOracle {
        cfg: TcpConfig,
        cwnd: f64,
        ssthresh: f64,
        min_rtt: Option<SimDuration>,
        cubic_wmax: f64,
        cubic_epoch: Option<SimTime>,
        cubic_k: f64,
    }

    impl InlineCubicOracle {
        fn new(cfg: TcpConfig) -> Self {
            let cwnd = f64::from(cfg.init_cwnd_mss * cfg.mss);
            Self {
                cfg,
                cwnd,
                ssthresh: f64::INFINITY,
                min_rtt: None,
                cubic_wmax: 0.0,
                cubic_epoch: None,
                cubic_k: 0.0,
            }
        }

        fn rtt_block(&mut self, r: SimDuration) {
            self.min_rtt = Some(match self.min_rtt {
                Some(m) => m.min(r),
                None => r,
            });
            if self.cwnd < self.ssthresh {
                let base = self.min_rtt.unwrap();
                let threshold = base + (base / 4).max(SimDuration::from_millis(4));
                if r > threshold {
                    self.ssthresh = self.cwnd;
                    self.cubic_wmax = self.cwnd;
                    self.cubic_epoch = None;
                }
            }
        }

        fn ack(&mut self, now: SimTime, newly: u64, rtt: Option<SimDuration>, kind: AckKind) {
            if let Some(r) = rtt {
                self.rtt_block(r);
            }
            match kind {
                AckKind::RecoveryFull => self.cwnd = self.ssthresh,
                AckKind::RecoveryPartial => {
                    self.cwnd = (self.cwnd - newly as f64 + f64::from(self.cfg.mss))
                        .max(f64::from(self.cfg.mss));
                }
                AckKind::Open => {
                    if self.cwnd < self.ssthresh {
                        self.cwnd += newly as f64;
                    } else {
                        self.cubic_update(now, newly);
                    }
                }
            }
        }

        fn fast_retransmit(&mut self, flight: u64) {
            self.cubic_wmax = self.cwnd.max(flight as f64);
            self.ssthresh = (self.cubic_wmax * 0.7).max(2.0 * f64::from(self.cfg.mss));
            self.cwnd = self.ssthresh;
            self.cubic_epoch = None;
        }

        fn rto(&mut self) {
            self.cubic_wmax = self.cubic_wmax.max(self.cwnd);
            self.ssthresh = (self.cubic_wmax * 0.7).max(2.0 * f64::from(self.cfg.mss));
            self.cwnd = f64::from(self.cfg.mss);
            self.cubic_epoch = None;
        }

        fn cubic_update(&mut self, now: SimTime, newly_acked: u64) {
            const C: f64 = 0.4;
            let mss = f64::from(self.cfg.mss);
            let epoch = match self.cubic_epoch {
                Some(e) => e,
                None => {
                    let wmax_mss = (self.cubic_wmax / mss).max(1.0);
                    let cur_mss = self.cwnd / mss;
                    self.cubic_k = if cur_mss < wmax_mss {
                        ((wmax_mss - cur_mss) / C).cbrt()
                    } else {
                        0.0
                    };
                    self.cubic_epoch = Some(now);
                    now
                }
            };
            let t = now.since(epoch).as_secs_f64();
            let wmax_mss = (self.cubic_wmax / mss).max(1.0);
            let target_mss = C * (t - self.cubic_k).powi(3) + wmax_mss;
            let target = (target_mss * mss).max(2.0 * mss);
            if target > self.cwnd {
                let step = (target - self.cwnd) * (newly_acked as f64 / self.cwnd).min(1.0);
                self.cwnd += step;
            } else {
                self.cwnd += mss * mss / self.cwnd * (newly_acked as f64 / mss).min(1.0);
            }
        }
    }

    /// One randomized congestion event.
    #[derive(Clone, Debug)]
    enum Op {
        /// (advance µs, newly acked, rtt sample µs, kind selector)
        Ack(u32, u32, Option<u32>, u8),
        /// (advance µs, flight)
        Loss(u32, u32),
        /// (advance µs)
        Rto(u32),
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        // (selector, Δt µs, newly acked, raw rtt µs, kind selector):
        // selectors 0–7 are ACKs (raw rtt 0 ⇒ no sample), 8–9 fast
        // retransmits (newly reused as flight), 10 an RTO — ACK-heavy,
        // as a real trace is.
        (0u8..11, 0u32..500_000, 1u32..100_000, 0u32..400_000, 0u8..3).prop_map(
            |(sel, dt, newly, rtt_raw, kind)| match sel {
                0..=7 => {
                    let rtt = if rtt_raw < 1_000 { None } else { Some(rtt_raw) };
                    Op::Ack(dt, newly, rtt, kind)
                }
                8 | 9 => Op::Loss(dt, newly * 3),
                _ => Op::Rto(dt),
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn cubic_via_trait_matches_inline_oracle(
            ops in proptest::collection::vec(op_strategy(), 1..120),
        ) {
            let cfg = TcpConfig::default();
            let mut oracle = InlineCubicOracle::new(cfg.clone());
            let mut cubic = Cubic::new(&cfg);
            let mut now = SimTime::ZERO;
            for op in &ops {
                match *op {
                    Op::Ack(dt, newly, rtt_us, k) => {
                        now += SimDuration::from_micros(u64::from(dt));
                        let rtt = rtt_us.map(|us| SimDuration::from_micros(u64::from(us)));
                        let kind = match k {
                            0 => AckKind::Open,
                            1 => AckKind::RecoveryFull,
                            _ => AckKind::RecoveryPartial,
                        };
                        oracle.ack(now, u64::from(newly), rtt, kind);
                        cubic.on_ack(now, u64::from(newly), rtt, kind, 0);
                    }
                    Op::Loss(dt, flight) => {
                        now += SimDuration::from_micros(u64::from(dt));
                        oracle.fast_retransmit(u64::from(flight));
                        cubic.on_loss(now, LossKind::FastRetransmit, u64::from(flight));
                    }
                    Op::Rto(dt) => {
                        now += SimDuration::from_micros(u64::from(dt));
                        oracle.rto();
                        cubic.on_rto(now);
                    }
                }
                prop_assert_eq!(
                    oracle.cwnd.to_bits(),
                    cubic.cwnd().to_bits(),
                    "cwnd diverged: oracle {} vs trait {}",
                    oracle.cwnd,
                    cubic.cwnd()
                );
                prop_assert_eq!(
                    oracle.ssthresh.to_bits(),
                    cubic.ssthresh().to_bits(),
                    "ssthresh diverged: oracle {} vs trait {}",
                    oracle.ssthresh,
                    cubic.ssthresh()
                );
            }
        }
    }
}
