//! The traced run: benchmark-side spans around every call into a layer.
//!
//! The benchmark owns one [`Registry`]. In the traced pass tracing is on
//! and every layer boundary the benchmark crosses records a span (name,
//! start, end, id, parent, workload); the program's own trace events —
//! `bucket_train`, `swap_wait`, `rpc`, … — land in the same registry
//! because the trainer and the net clients are handed it. Spans stay in
//! memory until the workload ends, then go out as a Chrome/Perfetto
//! trace plus a self-time table. In the untraced pass tracing is off and
//! every call here is a cheap no-op, so end-to-end numbers never pay for
//! the trace.

use pbg_telemetry::export::to_chrome_trace;
use pbg_telemetry::span::{EventKind, FieldValue, SpanEvent};
use pbg_telemetry::trace::{TraceEvent, TraceValue};
use pbg_telemetry::Registry;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// Parent id of a top-level span.
pub const ROOT: u64 = 0;

/// Span recorder for one workload.
pub struct Tracer {
    registry: Registry,
    workload: &'static str,
    next_id: AtomicU64,
}

/// An open benchmark span; records itself when dropped.
pub struct Span<'a> {
    tracer: &'a Tracer,
    name: &'static str,
    id: u64,
    parent: u64,
    start_ns: u64,
}

impl Span<'_> {
    /// This span's id, to hand to child spans as their parent.
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        let end = self.tracer.registry.now_ns();
        self.tracer.record_with_id(
            self.name,
            self.id,
            self.parent,
            self.start_ns,
            end.saturating_sub(self.start_ns),
        );
    }
}

impl Tracer {
    /// A tracer for `workload`; spans are recorded only when `enabled`.
    pub fn new(workload: &'static str, enabled: bool) -> Tracer {
        let registry = Registry::new();
        registry.set_tracing(enabled);
        Tracer {
            registry,
            workload,
            next_id: AtomicU64::new(1),
        }
    }

    /// Whether this is the traced pass.
    pub fn enabled(&self) -> bool {
        self.registry.tracing()
    }

    /// The registry spans go to; hand it to the program so its own trace
    /// events join the benchmark's.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Nanoseconds on the trace clock.
    pub fn now_ns(&self) -> u64 {
        self.registry.now_ns()
    }

    /// Opens a span under `parent` ([`ROOT`] for a top-level span).
    pub fn span(&self, name: &'static str, parent: u64) -> Span<'_> {
        Span {
            tracer: self,
            name,
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            start_ns: self.registry.now_ns(),
        }
    }

    /// Runs `f` inside a span and returns its result with the span's
    /// wall time in seconds (measured whether or not tracing is on).
    pub fn timed<T>(&self, name: &'static str, parent: u64, f: impl FnOnce() -> T) -> (T, f64) {
        let span = self.span(name, parent);
        let t0 = span.start_ns;
        let out = f();
        let secs = self.registry.now_ns().saturating_sub(t0) as f64 * 1e-9;
        drop(span);
        (out, secs)
    }

    /// Runs `set_up` `times` times, dropping each result before the next
    /// run (one model resident at a time, so peak RSS stays the
    /// workload's own), and returns the last result with the wall time of
    /// every set-up in seconds: `setup_s` is their median.
    pub fn repeat_set_up<T>(&self, times: usize, mut set_up: impl FnMut() -> T) -> (T, Vec<f64>) {
        let mut ready = None;
        let mut seconds = Vec::with_capacity(times);
        for _ in 0..times.max(1) {
            drop(ready.take());
            let t0 = self.now_ns();
            ready = Some(set_up());
            seconds.push((self.now_ns() - t0) as f64 * 1e-9);
        }
        (ready.expect("at least one set-up"), seconds)
    }

    /// Records a span the caller already timed; returns its id.
    pub fn record(&self, name: &'static str, parent: u64, start_ns: u64, dur_ns: u64) -> u64 {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.record_with_id(name, id, parent, start_ns, dur_ns);
        id
    }

    fn record_with_id(&self, name: &'static str, id: u64, parent: u64, start_ns: u64, dur_ns: u64) {
        if !self.enabled() {
            return;
        }
        self.registry.record_span(
            name,
            start_ns,
            dur_ns,
            vec![
                ("id", FieldValue::U64(id)),
                ("parent", FieldValue::U64(parent)),
                ("workload", FieldValue::Str(self.workload.to_string())),
            ],
        );
    }

    /// Drains every buffered event (benchmark spans and the program's own).
    pub fn drain(&self) -> Vec<SpanEvent> {
        self.registry.drain()
    }
}

/// One benchmark span reduced to what self-time needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    /// Span id (unique, non-zero).
    pub id: u64,
    /// Parent span id, [`ROOT`] for top-level spans.
    pub parent: u64,
    /// Start on the trace clock.
    pub start_ns: u64,
    /// End on the trace clock.
    pub end_ns: u64,
}

/// Self time of every span: its duration minus the part of that interval
/// its direct children cover. Children may overlap each other (parallel
/// ranks, client threads) and may stick out of the parent; only the union
/// of their intervals clipped to the parent is subtracted.
pub fn self_times(spans: &[Interval]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let covered = children
                .get(&s.id)
                .map(|c| union_within(c, s.start_ns, s.end_ns))
                .unwrap_or(0);
            (s.id, (s.end_ns - s.start_ns).saturating_sub(covered))
        })
        .collect()
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
pub fn union_within(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(a, b)| (a.max(lo), b.min(hi)))
        .filter(|&(a, b)| b > a)
        .collect();
    clipped.sort_unstable();
    let mut total = 0u64;
    let mut cursor = lo;
    for (a, b) in clipped {
        let a = a.max(cursor);
        if b > a {
            total += b - a;
            cursor = b;
        }
    }
    total
}

/// One row of the self-time table: all spans of one name.
#[derive(Debug, Clone, PartialEq)]
pub struct SelfTimeRow {
    /// Span name.
    pub name: String,
    /// Spans with this name.
    pub count: usize,
    /// Summed duration, seconds.
    pub total_s: f64,
    /// Summed self time, seconds.
    pub self_s: f64,
}

/// What the traced pass leaves behind.
#[derive(Debug, Clone)]
pub struct TraceReport {
    /// Self-time table, largest self time first.
    pub rows: Vec<SelfTimeRow>,
    /// Share of `[window_start, window_end]` covered by top-level
    /// benchmark spans (equivalently: by the self times of all benchmark
    /// spans nested under them).
    pub coverage: f64,
    /// Events written to the trace file.
    pub events: usize,
}

fn benchmark_interval(e: &SpanEvent) -> Option<Interval> {
    if e.kind != EventKind::Span {
        return None;
    }
    Some(Interval {
        id: e.field_u64("id")?,
        parent: e.field_u64("parent")?,
        start_ns: e.t_ns,
        end_ns: e.t_ns + e.dur_ns,
    })
}

fn to_trace_event(e: &SpanEvent) -> TraceEvent {
    TraceEvent {
        kind: match e.kind {
            EventKind::Span => "span".to_string(),
            EventKind::Point => "point".to_string(),
        },
        name: e.name.to_string(),
        t_ns: e.t_ns,
        dur_ns: e.dur_ns,
        thread: e.thread,
        fields: e
            .fields
            .iter()
            .map(|(k, v)| {
                let value = match v {
                    FieldValue::U64(n) => TraceValue::Int(*n as i64),
                    FieldValue::I64(n) => TraceValue::Int(*n),
                    FieldValue::F64(x) => TraceValue::Float(*x),
                    FieldValue::Str(s) => TraceValue::Str(s.clone()),
                };
                (k.to_string(), value)
            })
            .collect(),
    }
}

/// Builds the self-time table and coverage of `[window_start_ns,
/// window_end_ns]` from drained events, and writes the Chrome trace to
/// `path` when one is given.
pub fn finish(
    events: &[SpanEvent],
    window_start_ns: u64,
    window_end_ns: u64,
    path: Option<&Path>,
) -> std::io::Result<TraceReport> {
    let intervals: Vec<(Interval, &'static str)> = events
        .iter()
        .filter_map(|e| benchmark_interval(e).map(|i| (i, e.name)))
        .collect();
    let plain: Vec<Interval> = intervals.iter().map(|(i, _)| *i).collect();
    let selfs = self_times(&plain);
    let mut by_name: BTreeMap<&str, SelfTimeRow> = BTreeMap::new();
    for (i, name) in &intervals {
        let row = by_name.entry(name).or_insert_with(|| SelfTimeRow {
            name: name.to_string(),
            count: 0,
            total_s: 0.0,
            self_s: 0.0,
        });
        row.count += 1;
        row.total_s += (i.end_ns - i.start_ns) as f64 * 1e-9;
        row.self_s += selfs[&i.id] as f64 * 1e-9;
    }
    let mut rows: Vec<SelfTimeRow> = by_name.into_values().collect();
    rows.sort_by(|a, b| b.self_s.total_cmp(&a.self_s));
    let top: Vec<(u64, u64)> = plain
        .iter()
        .filter(|i| i.parent == ROOT)
        .map(|i| (i.start_ns, i.end_ns))
        .collect();
    let window = window_end_ns.saturating_sub(window_start_ns);
    let coverage = if window == 0 {
        0.0
    } else {
        union_within(&top, window_start_ns, window_end_ns) as f64 / window as f64
    };
    if let Some(path) = path {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let trace: Vec<TraceEvent> = events.iter().map(to_trace_event).collect();
        std::fs::write(path, to_chrome_trace(&trace))?;
    }
    Ok(TraceReport {
        rows,
        coverage,
        events: events.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Interval {
        Interval {
            id,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        // parent 0..100; children 10..30 and 50..70; grandchild 12..20
        let spans = [
            iv(1, ROOT, 0, 100),
            iv(2, 1, 10, 30),
            iv(3, 1, 50, 70),
            iv(4, 2, 12, 20),
        ];
        let s = self_times(&spans);
        assert_eq!(s[&1], 60, "grandchildren do not count against the root");
        assert_eq!(s[&2], 12);
        assert_eq!(s[&3], 20);
        assert_eq!(s[&4], 8);
        // self times of a properly nested tree sum to the root's duration
        assert_eq!(s.values().sum::<u64>(), 100);
    }

    #[test]
    fn self_time_counts_overlapping_children_as_a_union() {
        // two rank threads overlap inside the parent, one sticks out
        let spans = [
            iv(1, ROOT, 100, 200),
            iv(2, 1, 110, 160),
            iv(3, 1, 140, 190),
            iv(4, 1, 180, 260),
        ];
        let s = self_times(&spans);
        // union of children clipped to the parent: 110..200 = 90
        assert_eq!(s[&1], 10);
        // children keep their own full durations
        assert_eq!(s[&4], 80);
    }

    #[test]
    fn union_ignores_intervals_outside_the_window() {
        assert_eq!(union_within(&[(0, 5), (50, 60), (90, 200)], 10, 100), 20);
        assert_eq!(union_within(&[], 10, 100), 0);
    }

    #[test]
    fn tracer_records_parented_spans_and_reports_coverage() {
        let tracer = Tracer::new("unit", true);
        let start = tracer.now_ns();
        {
            let outer = tracer.span("outer", ROOT);
            let _inner = tracer.span("inner", outer.id());
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let end = tracer.now_ns();
        let events = tracer.drain();
        assert_eq!(events.len(), 2);
        let report = finish(&events, start, end, None).unwrap();
        assert_eq!(report.rows.len(), 2);
        assert!(report.coverage > 0.9, "coverage {}", report.coverage);
        let inner = report.rows.iter().find(|r| r.name == "inner").unwrap();
        let outer = report.rows.iter().find(|r| r.name == "outer").unwrap();
        assert!(outer.self_s < outer.total_s);
        assert!((inner.self_s - inner.total_s).abs() < 1e-12);
    }

    #[test]
    fn untraced_tracer_records_nothing() {
        let tracer = Tracer::new("unit", false);
        let (value, secs) = tracer.timed("work", ROOT, || 7);
        assert_eq!(value, 7);
        assert!(secs >= 0.0);
        assert!(tracer.drain().is_empty());
    }
}
