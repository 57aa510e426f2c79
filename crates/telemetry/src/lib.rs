//! Observability substrate for the CellBricks reproduction.
//!
//! The paper's evaluation is built from latency and throughput
//! measurements taken *inside* the system; this crate is the one place
//! those measurements live. It provides:
//!
//! * [`Counter`] / [`Gauge`] — monotone and instantaneous scalars,
//! * [`Histogram`] — fixed-precision log-linear latency histograms
//!   ([`hist::LogLinearHist`], HdrHistogram-style, < 0.8% relative
//!   quantization error),
//! * [`trace::TraceBuffer`] — a bounded event-trace ring stamped with
//!   virtual (`SimTime`) nanoseconds, exportable as chrome://tracing
//!   JSON,
//! * a [`Registry`] keyed by metric name, exportable as a flat,
//!   byte-stable `metrics.json`.
//!
//! # Naming convention
//!
//! `<layer>.<component>.<metric>[_<unit>]`, e.g.
//! `transport.tcp.retransmits`, `core.sap.attach_total_ns`,
//! `net.link.policer_drops`. Histogram samples are raw `u64`s; the
//! `_ns`, `_bytes`, `_ms` suffix names the unit. Dynamic label values
//! (placement, variant) are dot-appended: `bench.fig7.us-west-1.CB.total_ns`.
//!
//! # Cost model
//!
//! Recording through a handle is one relaxed atomic load (the enabled
//! flag) plus, when enabled, an atomic add or an uncontended mutex'd
//! histogram insert. When disabled — the default — every record path
//! returns after the flag check, so instrumented code measures within
//! noise of uninstrumented code. Handles are cheap `Arc` clones meant
//! to be captured once at construction time, not looked up per event.
//!
//! An enabled atomic add is still a lock-prefixed read-modify-write, and
//! a loop that runs millions of times a second should not execute
//! several per iteration. The simulation engine (`cellbricks-net`'s
//! `Driver` and `NetWorld`) therefore tallies its per-event counters in
//! plain integers and publishes them once per run window — with
//! [`Gauge::add_with_peak`] carrying the window's high-water mark for
//! gauges — so those metrics are **exact at every window boundary and
//! at most one window stale in between**, and the enabled flag is
//! sampled when the tally is published, not when the event happened.
//!
//! # Determinism
//!
//! Nothing here reads the wall clock or ambient randomness. Exports
//! iterate name-sorted maps, so two identically-seeded runs produce
//! byte-identical `metrics.json` and trace JSON.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod hist;
pub mod json;
pub mod trace;

use hist::LogLinearHist;
use json::JsonWriter;
use parking_lot::Mutex;
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use trace::{TraceBuffer, TraceEvent, TracePhase};

/// Metric names: usually `&'static str`, owned only for label-suffixed
/// names built at setup time.
pub type MetricName = Cow<'static, str>;

struct CounterCell {
    enabled: Arc<AtomicBool>,
    value: AtomicU64,
}

/// A monotone counter. Saturates at `u64::MAX` instead of wrapping.
#[derive(Clone)]
pub struct Counter(Arc<CounterCell>);

impl Counter {
    /// Add 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n` (saturating).
    #[inline]
    pub fn add(&self, n: u64) {
        if !self.0.enabled.load(Ordering::Relaxed) {
            return;
        }
        let _ = self
            .0
            .value
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_add(n))
            });
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.value.load(Ordering::Relaxed)
    }
}

impl fmt::Debug for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("Counter").field(&self.get()).finish()
    }
}

struct GaugeCell {
    enabled: Arc<AtomicBool>,
    value: AtomicI64,
    max: AtomicI64,
}

/// An instantaneous value (e.g. queue depth) with a high-water mark.
#[derive(Clone)]
pub struct Gauge(Arc<GaugeCell>);

impl Gauge {
    /// Set the current value (updates the high-water mark).
    #[inline]
    pub fn set(&self, v: i64) {
        if !self.0.enabled.load(Ordering::Relaxed) {
            return;
        }
        self.0.value.store(v, Ordering::Relaxed);
        self.0.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Adjust the current value by `delta`.
    #[inline]
    pub fn add(&self, delta: i64) {
        if !self.0.enabled.load(Ordering::Relaxed) {
            return;
        }
        let v = self.0.value.fetch_add(delta, Ordering::Relaxed) + delta;
        self.0.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Adjust the current value by `delta`, having stood `peak` above
    /// its starting point on the way there — one publish for a caller
    /// that kept the running value (and its high-water mark) locally.
    #[inline]
    pub fn add_with_peak(&self, delta: i64, peak: i64) {
        if !self.0.enabled.load(Ordering::Relaxed) {
            return;
        }
        let before = self.0.value.fetch_add(delta, Ordering::Relaxed);
        self.0
            .max
            .fetch_max(before + peak.max(delta), Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> i64 {
        self.0.value.load(Ordering::Relaxed)
    }

    /// Highest value ever set.
    #[must_use]
    pub fn max(&self) -> i64 {
        self.0.max.load(Ordering::Relaxed)
    }
}

impl fmt::Debug for Gauge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("Gauge").field(&self.get()).finish()
    }
}

struct HistogramCell {
    enabled: Arc<AtomicBool>,
    inner: Mutex<LogLinearHist>,
}

/// A log-linear histogram handle (samples are raw `u64`s; see the
/// crate-level naming convention for units).
#[derive(Clone)]
pub struct Histogram(Arc<HistogramCell>);

impl Histogram {
    /// Record one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        if !self.0.enabled.load(Ordering::Relaxed) {
            return;
        }
        self.0.inner.lock().record(v);
    }

    /// A point-in-time copy of the underlying histogram.
    #[must_use]
    pub fn snapshot(&self) -> LogLinearHist {
        self.0.inner.lock().clone()
    }
}

impl fmt::Debug for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let h = self.snapshot();
        f.debug_struct("Histogram")
            .field("count", &h.count())
            .finish_non_exhaustive()
    }
}

/// Summary of one histogram, as exported into `metrics.json`.
#[derive(Clone, Debug, PartialEq)]
pub struct HistSummary {
    /// Sample count.
    pub count: u64,
    /// Exact minimum.
    pub min: u64,
    /// Exact maximum.
    pub max: u64,
    /// Exact mean.
    pub mean: f64,
    /// 50th percentile (within one bucket width).
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 95th percentile.
    pub p95: u64,
    /// 99th percentile.
    pub p99: u64,
    /// 99.9th percentile.
    pub p999: u64,
}

impl HistSummary {
    /// Summarize a histogram.
    #[must_use]
    pub fn of(h: &LogLinearHist) -> Self {
        Self {
            count: h.count(),
            min: h.min(),
            max: h.max(),
            mean: h.mean(),
            p50: h.value_at_quantile(0.50),
            p90: h.value_at_quantile(0.90),
            p95: h.value_at_quantile(0.95),
            p99: h.value_at_quantile(0.99),
            p999: h.value_at_quantile(0.999),
        }
    }
}

/// A point-in-time, name-sorted copy of every metric in a registry.
#[derive(Default)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge `(value, max)` by name.
    pub gauges: BTreeMap<String, (i64, i64)>,
    /// Histogram summaries by name.
    pub histograms: BTreeMap<String, HistSummary>,
}

impl MetricsSnapshot {
    /// Serialize as the flat `metrics.json` document.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("counters").begin_object();
        for (name, v) in &self.counters {
            w.key(name).u64_value(*v);
        }
        w.end_object();
        w.key("gauges").begin_object();
        for (name, (v, max)) in &self.gauges {
            w.key(name).begin_object();
            w.key("value").i64_value(*v);
            w.key("max").i64_value(*max);
            w.end_object();
        }
        w.end_object();
        w.key("histograms").begin_object();
        for (name, h) in &self.histograms {
            w.key(name).begin_object();
            w.key("count").u64_value(h.count);
            w.key("min").u64_value(h.min);
            w.key("max").u64_value(h.max);
            w.key("mean").f64_value(h.mean);
            w.key("p50").u64_value(h.p50);
            w.key("p90").u64_value(h.p90);
            w.key("p95").u64_value(h.p95);
            w.key("p99").u64_value(h.p99);
            w.key("p999").u64_value(h.p999);
            w.end_object();
        }
        w.end_object();
        w.end_object();
        w.finish()
    }
}

/// A metric registry: the unit of export and of enable/disable.
///
/// There is one process-global registry (see [`global`]) used by the
/// instrumented crates; tests construct private registries so parallel
/// test threads never observe each other's metrics.
pub struct Registry {
    enabled: Arc<AtomicBool>,
    counters: Mutex<BTreeMap<String, Counter>>,
    gauges: Mutex<BTreeMap<String, Gauge>>,
    histograms: Mutex<BTreeMap<String, Histogram>>,
    trace: TraceBuffer,
}

/// Default trace ring capacity (events).
pub const DEFAULT_TRACE_CAPACITY: usize = 65_536;

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

impl Registry {
    /// A registry with recording **enabled** and the default trace
    /// capacity. (The process-global registry instead starts disabled;
    /// see [`enable`].)
    #[must_use]
    pub fn new() -> Self {
        Self::with_state(true, DEFAULT_TRACE_CAPACITY)
    }

    /// A registry with explicit initial state.
    #[must_use]
    pub fn with_state(enabled: bool, trace_capacity: usize) -> Self {
        Self {
            enabled: Arc::new(AtomicBool::new(enabled)),
            counters: Mutex::new(BTreeMap::new()),
            gauges: Mutex::new(BTreeMap::new()),
            histograms: Mutex::new(BTreeMap::new()),
            trace: TraceBuffer::new(trace_capacity),
        }
    }

    /// Turn recording on or off. Handles already handed out observe the
    /// change immediately (they share the flag).
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// True if recording is on.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// The counter named `name` (registering it on first use).
    pub fn counter(&self, name: impl Into<MetricName>) -> Counter {
        let name = name.into();
        let mut map = self.counters.lock();
        if let Some(c) = map.get(name.as_ref()) {
            return c.clone();
        }
        let c = Counter(Arc::new(CounterCell {
            enabled: Arc::clone(&self.enabled),
            value: AtomicU64::new(0),
        }));
        map.insert(name.into_owned(), c.clone());
        c
    }

    /// The gauge named `name` (registering it on first use).
    pub fn gauge(&self, name: impl Into<MetricName>) -> Gauge {
        let name = name.into();
        let mut map = self.gauges.lock();
        if let Some(g) = map.get(name.as_ref()) {
            return g.clone();
        }
        let g = Gauge(Arc::new(GaugeCell {
            enabled: Arc::clone(&self.enabled),
            value: AtomicI64::new(0),
            max: AtomicI64::new(i64::MIN),
        }));
        map.insert(name.into_owned(), g.clone());
        g
    }

    /// The histogram named `name` (registering it on first use).
    pub fn histogram(&self, name: impl Into<MetricName>) -> Histogram {
        let name = name.into();
        let mut map = self.histograms.lock();
        if let Some(h) = map.get(name.as_ref()) {
            return h.clone();
        }
        let h = Histogram(Arc::new(HistogramCell {
            enabled: Arc::clone(&self.enabled),
            inner: Mutex::new(LogLinearHist::new()),
        }));
        map.insert(name.into_owned(), h.clone());
        h
    }

    /// The event-trace ring buffer.
    #[must_use]
    pub fn trace(&self) -> &TraceBuffer {
        &self.trace
    }

    /// Record a completed span on the trace (no-op when disabled).
    pub fn trace_span(
        &self,
        name: impl Into<MetricName>,
        cat: &'static str,
        start_ns: u64,
        end_ns: u64,
        track: u32,
    ) {
        if !self.enabled() {
            return;
        }
        self.trace.push(TraceEvent {
            ts_ns: start_ns,
            dur_ns: end_ns.saturating_sub(start_ns),
            name: name.into(),
            cat,
            phase: TracePhase::Complete,
            track,
        });
    }

    /// Record an instantaneous trace event (no-op when disabled).
    pub fn trace_instant(&self, name: impl Into<MetricName>, cat: &'static str, ts_ns: u64) {
        if !self.enabled() {
            return;
        }
        self.trace.push(TraceEvent {
            ts_ns,
            dur_ns: 0,
            name: name.into(),
            cat,
            phase: TracePhase::Instant,
            track: 0,
        });
    }

    /// Snapshot every metric, name-sorted.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::default();
        for (name, c) in self.counters.lock().iter() {
            snap.counters.insert(name.clone(), c.get());
        }
        for (name, g) in self.gauges.lock().iter() {
            let max = g.max();
            let max = if max == i64::MIN { g.get() } else { max };
            snap.gauges.insert(name.clone(), (g.get(), max));
        }
        for (name, h) in self.histograms.lock().iter() {
            snap.histograms
                .insert(name.clone(), HistSummary::of(&h.snapshot()));
        }
        snap
    }

    /// Reset every metric to zero and clear the trace. Registered
    /// handles stay valid (they keep recording into the same cells).
    pub fn reset(&self) {
        for c in self.counters.lock().values() {
            c.0.value.store(0, Ordering::Relaxed);
        }
        for g in self.gauges.lock().values() {
            g.0.value.store(0, Ordering::Relaxed);
            g.0.max.store(i64::MIN, Ordering::Relaxed);
        }
        for h in self.histograms.lock().values() {
            h.0.inner.lock().clear();
        }
        self.trace.clear();
    }

    /// Write `metrics.json` to `path` (creating parent directories).
    ///
    /// # Errors
    /// Propagates filesystem errors.
    pub fn write_metrics_json(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(path, self.snapshot().to_json())
    }

    /// Write the chrome://tracing export to `path`.
    ///
    /// # Errors
    /// Propagates filesystem errors.
    pub fn write_chrome_trace(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(path, self.trace.to_chrome_json())
    }
}

/// The process-global registry the instrumented crates record into.
///
/// Starts **disabled**: library code can register handles eagerly and
/// pay only an atomic load per event until a binary opts in via
/// [`enable`] (every bench harness binary does this at startup).
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(|| Registry::with_state(false, DEFAULT_TRACE_CAPACITY))
}

/// Enable recording on the global registry.
pub fn enable() {
    global().set_enabled(true);
}

/// Disable recording on the global registry.
pub fn disable() {
    global().set_enabled(false);
}

/// True if the global registry is recording.
#[must_use]
pub fn is_enabled() -> bool {
    global().enabled()
}

/// Global-registry counter (see [`Registry::counter`]).
pub fn counter(name: impl Into<MetricName>) -> Counter {
    global().counter(name)
}

/// Global-registry gauge (see [`Registry::gauge`]).
pub fn gauge(name: impl Into<MetricName>) -> Gauge {
    global().gauge(name)
}

/// Global-registry histogram (see [`Registry::histogram`]).
pub fn histogram(name: impl Into<MetricName>) -> Histogram {
    global().histogram(name)
}

/// Record a span on the global trace (see [`Registry::trace_span`]).
pub fn trace_span(
    name: impl Into<MetricName>,
    cat: &'static str,
    start_ns: u64,
    end_ns: u64,
    track: u32,
) {
    global().trace_span(name, cat, start_ns, end_ns, track);
}

/// Record an instant on the global trace (see
/// [`Registry::trace_instant`]).
pub fn trace_instant(name: impl Into<MetricName>, cat: &'static str, ts_ns: u64) {
    global().trace_instant(name, cat, ts_ns);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_counts_and_saturates() {
        let r = Registry::new();
        let c = r.counter("t.count");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // Overflow behaviour: saturation, not wraparound.
        c.add(u64::MAX);
        assert_eq!(c.get(), u64::MAX);
        c.inc();
        assert_eq!(c.get(), u64::MAX);
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let r = Registry::with_state(false, 16);
        let c = r.counter("t.count");
        let g = r.gauge("t.depth");
        let h = r.histogram("t.lat_ns");
        c.inc();
        g.set(9);
        h.record(100);
        r.trace_span("span", "test", 0, 10, 0);
        assert_eq!(c.get(), 0);
        assert_eq!(g.get(), 0);
        assert_eq!(h.snapshot().count(), 0);
        assert!(r.trace().is_empty());
        // Flipping the shared flag revives existing handles.
        r.set_enabled(true);
        c.inc();
        assert_eq!(c.get(), 1);
    }

    #[test]
    fn same_name_same_cell() {
        let r = Registry::new();
        let a = r.counter("dup");
        let b = r.counter("dup");
        a.inc();
        b.inc();
        assert_eq!(a.get(), 2);
        assert_eq!(r.snapshot().counters["dup"], 2);
    }

    #[test]
    fn gauge_tracks_high_water_mark() {
        let r = Registry::new();
        let g = r.gauge("t.depth");
        g.set(3);
        g.set(10);
        g.set(2);
        g.add(1);
        assert_eq!(g.get(), 3);
        assert_eq!(g.max(), 10);
    }

    #[test]
    fn owned_names_for_labelled_metrics() {
        let r = Registry::new();
        for placement in ["local", "us-west-1"] {
            r.counter(format!("bench.fig7.{placement}.trials")).add(7);
        }
        let snap = r.snapshot();
        assert_eq!(snap.counters["bench.fig7.local.trials"], 7);
        assert_eq!(snap.counters["bench.fig7.us-west-1.trials"], 7);
    }

    #[test]
    fn snapshot_json_is_deterministic_across_seeded_runs() {
        // Two identical "runs" (same seed => same recorded values) must
        // serialize byte-identically, regardless of insertion order.
        let run = |names_reversed: bool| {
            let r = Registry::new();
            let mut names = vec!["b.lat_ns", "a.lat_ns", "c.lat_ns"];
            if names_reversed {
                names.reverse();
            }
            for n in names {
                let h = r.histogram(n);
                for v in [10u64, 20, 30, 1000] {
                    h.record(v);
                }
            }
            r.counter("z.count").add(3);
            r.counter("a.count").add(1);
            r.gauge("m.depth").set(5);
            r.trace_span("attach", "sap", 100, 900, 1);
            (r.snapshot().to_json(), r.trace().to_chrome_json())
        };
        let (m1, t1) = run(false);
        let (m2, t2) = run(true);
        assert_eq!(m1, m2, "metrics.json must be byte-stable");
        assert_eq!(t1, t2, "trace export must be byte-stable");
        assert!(m1.contains(r#""a.count":1"#));
        assert!(m1.contains(r#""p99":"#));
    }

    #[test]
    fn reset_zeroes_but_keeps_handles() {
        let r = Registry::new();
        let c = r.counter("x");
        let h = r.histogram("y");
        c.inc();
        h.record(5);
        r.trace_instant("i", "t", 1);
        r.reset();
        assert_eq!(c.get(), 0);
        assert_eq!(h.snapshot().count(), 0);
        assert!(r.trace().is_empty());
        c.inc();
        assert_eq!(r.snapshot().counters["x"], 1);
    }

    #[test]
    fn histogram_percentiles_in_export() {
        let r = Registry::new();
        let h = r.histogram("lat_ns");
        for v in 1..=1000u64 {
            h.record(v);
        }
        let snap = r.snapshot();
        let s = &snap.histograms["lat_ns"];
        assert_eq!(s.count, 1000);
        let within = |got: u64, want: u64| got.abs_diff(want) as f64 / (want as f64) < 0.01;
        assert!(within(s.p50, 500), "p50 {}", s.p50);
        assert!(within(s.p99, 990), "p99 {}", s.p99);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 1000);
    }
}
