//! In-memory spans around each call into a layer, recorded by the
//! benchmark's own files (the program under test is not instrumented).
//!
//! A span has a name, a start, an end, an id and the id of the span that
//! was open when it began. Spans are kept in memory and written when the
//! run ends: a chrome trace (`chrome://tracing`, Perfetto) and a
//! per-name table of total and *self* time — a span's duration minus the
//! part of it its children cover.

use cellbricks_telemetry::json::JsonWriter;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer was made.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Index into the tracer's span list.
    pub id: usize,
    /// The span that was open when this one began.
    pub parent: Option<usize>,
    /// `run`, `setup`, `segment`, `drive`, `core.sap.open`, ...
    pub name: &'static str,
    /// Start, ns.
    pub start_ns: u64,
    /// End, ns (equal to start until [`Tracer::end`]).
    pub end_ns: u64,
}

/// Handle returned by [`Tracer::begin`]; `None` while not recording.
#[derive(Clone, Copy)]
pub struct SpanId(Option<usize>);

/// The span recorder. When recording is off (`--trace 0`, or the
/// untraced half of a traced run's segments) `begin`/`end` do nothing.
pub struct Tracer {
    t0: Instant,
    enabled: bool,
    recording: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer whose clock starts now; `enabled` is `--trace 1`.
    #[must_use]
    pub fn new(enabled: bool) -> Self {
        Self {
            t0: Instant::now(),
            enabled,
            recording: enabled,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Pause or resume recording (a disabled tracer never records).
    /// Only call between segments: a span begun while recording must
    /// end while recording.
    pub fn set_recording(&mut self, on: bool) {
        self.recording = self.enabled && on;
    }

    /// Whether this is a traced run.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Open a span as a child of the innermost open span.
    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.recording {
            return SpanId(None);
        }
        let now = self.t0.elapsed().as_nanos() as u64;
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name,
            start_ns: now,
            end_ns: now,
        });
        self.open.push(id);
        SpanId(Some(id))
    }

    /// Close a span (and any span still open inside it).
    pub fn end(&mut self, span: SpanId) {
        let Some(id) = span.0 else { return };
        let now = self.t0.elapsed().as_nanos() as u64;
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = now;
            if top == id {
                break;
            }
        }
    }

    /// Every span recorded so far.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The chrome-trace document for the recorded spans.
    #[must_use]
    pub fn chrome_trace(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object().key("traceEvents").begin_array();
        for s in &self.spans {
            w.begin_object();
            w.key("name").str_value(s.name);
            w.key("ph").str_value("X");
            w.key("pid").u64_value(1);
            w.key("tid").u64_value(1);
            w.key("ts").f64_value(s.start_ns as f64 / 1e3);
            w.key("dur").f64_value((s.end_ns - s.start_ns) as f64 / 1e3);
            w.key("args").begin_object();
            w.key("id").u64_value(s.id as u64);
            match s.parent {
                Some(p) => w.key("parent").u64_value(p as u64),
                None => w.key("parent").i64_value(-1),
            };
            w.end_object();
            w.end_object();
        }
        w.end_array().end_object();
        w.finish()
    }
}

/// Count, total time and self time of every span name.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NameTotals {
    /// Spans recorded under the name.
    pub count: u64,
    /// Σ duration, ns.
    pub total_ns: u64,
    /// Σ (duration − time covered by direct children), ns.
    pub self_ns: u64,
}

/// Aggregate spans by name. A span's self time is its duration minus
/// the durations of its direct children (children never overlap: the
/// recorder is single-threaded and strictly nested).
#[must_use]
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns - s.start_ns;
        }
    }
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for s in spans {
        let dur = s.end_ns - s.start_ns;
        let e = out.entry(s.name).or_default();
        e.count += 1;
        e.total_ns += dur;
        e.self_ns += dur.saturating_sub(child_ns[s.id]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, name: &'static str, a: u64, b: u64) -> Span {
        Span {
            id,
            parent,
            name,
            start_ns: a,
            end_ns: b,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = [
            span(0, None, "run", 0, 100),
            span(1, Some(0), "segment", 10, 90),
            span(2, Some(1), "build", 10, 30),
            span(3, Some(1), "drive", 30, 80),
        ];
        let t = totals_by_name(&spans);
        assert_eq!(t["run"].self_ns, 20);
        assert_eq!(t["segment"].total_ns, 80);
        assert_eq!(t["segment"].self_ns, 10);
        assert_eq!(t["drive"].self_ns, 50);
    }

    #[test]
    fn spans_nest_and_stop_when_not_recording() {
        let mut tr = Tracer::new(true);
        let run = tr.begin("run");
        let seg = tr.begin("segment");
        tr.end(seg);
        tr.set_recording(false);
        let ghost = tr.begin("segment");
        tr.end(ghost);
        tr.set_recording(true);
        tr.end(run);
        let spans = tr.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].end_ns >= spans[1].end_ns);
        assert!(tr.chrome_trace().contains("\"traceEvents\""));
    }
}
