//! `pbg-telemetry` — structured telemetry for the pbg-rs workspace.
//!
//! The paper's headline results are *systems* measurements: peak memory
//! (Tables 1, 3, 4), wall-clock per epoch, and the compute/I-O overlap of
//! the pipelined swap path. This crate provides the instrumentation those
//! numbers flow through:
//!
//! - **Metrics** — named [`Counter`]s, [`Gauge`]s (with high-water marks),
//!   and log-bucketed duration [`Histogram`]s. Metric handles are plain
//!   atomics: incrementing one costs the same as the hand-rolled
//!   `AtomicUsize` counters it replaced, so metrics are *always on* and
//!   epoch aggregates can be derived from [`Registry::snapshot`] deltas.
//! - **Traces** — explicit [`span!`]s and point events recorded into
//!   per-thread buffers and drained to pluggable [`Sink`]s (a JSONL trace
//!   writer ships in [`sink`], a Prometheus-style text dump in
//!   [`snapshot`]). Tracing is *off by default*: a disabled registry
//!   records nothing, reads no clock, and allocates nothing — the only
//!   cost at an instrumentation site is one relaxed atomic load.
//!
//! ```
//! use pbg_telemetry::{span, Registry};
//!
//! let reg = Registry::new();
//! reg.set_tracing(true);
//! let edges = reg.counter("trainer.edges");
//! {
//!     let _span = span!(reg, "bucket_train", src = 0u32, dst = 1u32);
//!     edges.add(128);
//! }
//! let events = reg.drain();
//! assert_eq!(events[0].name, "bucket_train");
//! assert_eq!(reg.snapshot().counter("trainer.edges"), 128);
//! ```

pub mod context;
pub mod export;
pub mod http;
pub mod listener;
pub mod metrics;
pub mod sink;
pub mod snapshot;
pub mod span;
pub mod trace;

pub use context::TraceContext;
pub use http::MetricsServer;
pub use metrics::{Counter, Gauge, Histogram};
pub use sink::{JsonlSink, Sink, VecSink};
pub use snapshot::Snapshot;
pub use span::{EventKind, FieldValue, SpanEvent, SpanGuard};

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Registry identity source; lets thread-local buffer caches tell
/// registries apart without comparing `Arc` pointers.
static NEXT_REGISTRY_ID: AtomicU64 = AtomicU64::new(1);

/// Sentinel for "no rank assigned" in [`Inner::rank`].
const RANK_UNSET: u64 = u64::MAX;

pub(crate) struct Inner {
    pub(crate) id: u64,
    /// All event timestamps are nanosecond offsets from this instant.
    pub(crate) start: Instant,
    tracing: AtomicBool,
    /// Rank of the owning process (`RANK_UNSET` until assigned). When
    /// set, every recorded event is tagged with a `rank` field so
    /// multi-process traces can be merged.
    pub(crate) rank: AtomicU64,
    /// Run-wide trace id shared by all ranks (0 = no trace).
    trace_id: AtomicU64,
    /// Allocator for cross-rank-unique span ids.
    next_span: AtomicU64,
    counters: Mutex<BTreeMap<String, Counter>>,
    gauges: Mutex<BTreeMap<String, Gauge>>,
    histograms: Mutex<BTreeMap<String, Histogram>>,
    /// One buffer per thread that ever recorded into this registry.
    pub(crate) buffers: Mutex<Vec<Arc<span::ThreadBuffer>>>,
}

/// A handle to one telemetry domain: metrics plus an event trace.
///
/// Cloning is cheap (an `Arc` bump); every clone sees the same metrics
/// and trace. The registry is thread-safe throughout: metric updates are
/// relaxed atomics, span recording goes to a per-thread buffer whose lock
/// is only ever contended by [`Registry::drain`].
#[derive(Clone)]
pub struct Registry {
    inner: Arc<Inner>,
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field("id", &self.inner.id)
            .field("tracing", &self.tracing())
            .finish()
    }
}

impl Registry {
    /// Creates a registry with metrics enabled and tracing disabled.
    pub fn new() -> Self {
        Registry {
            inner: Arc::new(Inner {
                id: NEXT_REGISTRY_ID.fetch_add(1, Ordering::Relaxed),
                start: Instant::now(),
                tracing: AtomicBool::new(false),
                rank: AtomicU64::new(RANK_UNSET),
                trace_id: AtomicU64::new(0),
                next_span: AtomicU64::new(1),
                counters: Mutex::new(BTreeMap::new()),
                gauges: Mutex::new(BTreeMap::new()),
                histograms: Mutex::new(BTreeMap::new()),
                buffers: Mutex::new(Vec::new()),
            }),
        }
    }

    /// A shared registry for call sites that do not care about
    /// telemetry. Its metrics still function (they are process-global and
    /// unread); tracing on it is never enabled.
    pub fn disabled() -> &'static Registry {
        static DISABLED: OnceLock<Registry> = OnceLock::new();
        DISABLED.get_or_init(Registry::new)
    }

    /// Whether span/point events are currently recorded.
    #[inline]
    pub fn tracing(&self) -> bool {
        // Relaxed: a stale read only means one extra or one missing event
        // around the enable/disable edge; there is no data guarded by it.
        self.inner.tracing.load(Ordering::Relaxed)
    }

    /// Enables or disables event recording. Metrics are unaffected.
    pub fn set_tracing(&self, on: bool) {
        self.inner.tracing.store(on, Ordering::Relaxed);
    }

    /// Nanoseconds since the registry was created (the trace timebase).
    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.inner.start.elapsed().as_nanos() as u64
    }

    /// Assigns this process's rank. From then on every recorded event
    /// carries a `rank` field, and span ids allocated by
    /// [`Registry::next_span_id`] are disjoint from other ranks'.
    pub fn set_rank(&self, rank: u32) {
        self.inner.rank.store(u64::from(rank), Ordering::Relaxed);
    }

    /// The assigned rank, if any.
    pub fn rank(&self) -> Option<u32> {
        match self.inner.rank.load(Ordering::Relaxed) {
            RANK_UNSET => None,
            r => Some(r as u32),
        }
    }

    /// Sets the run-wide trace id (see [`context::trace_id_from_seed`]).
    pub fn set_trace_id(&self, id: u64) {
        self.inner.trace_id.store(id, Ordering::Relaxed);
    }

    /// The run-wide trace id (0 until set).
    pub fn trace_id(&self) -> u64 {
        self.inner.trace_id.load(Ordering::Relaxed)
    }

    /// Allocates a span id unique across every rank of the run: the rank
    /// (plus one, so rankless processes and rank 0 stay disjoint) in the
    /// high 24 bits, a per-process counter in the low 40. 2^40 spans per
    /// process is far beyond any drain interval.
    pub fn next_span_id(&self) -> u64 {
        let rank = match self.inner.rank.load(Ordering::Relaxed) {
            RANK_UNSET => 0,
            r => r + 1,
        };
        let seq = self.inner.next_span.fetch_add(1, Ordering::Relaxed) & ((1 << 40) - 1);
        (rank << 40) | seq
    }

    /// Returns the named counter, creating it at zero on first use.
    pub fn counter(&self, name: &str) -> Counter {
        let mut map = self.inner.counters.lock().expect("counter registry");
        map.entry(name.to_string()).or_default().clone()
    }

    /// Returns the named gauge, creating it at zero on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut map = self.inner.gauges.lock().expect("gauge registry");
        map.entry(name.to_string()).or_default().clone()
    }

    /// Returns the named histogram, creating it empty on first use.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut map = self.inner.histograms.lock().expect("histogram registry");
        map.entry(name.to_string()).or_default().clone()
    }

    /// Starts a span with no fields. Prefer the [`span!`] macro, which
    /// skips field construction entirely when tracing is off.
    pub fn span(&self, name: &'static str) -> SpanGuard {
        if self.tracing() {
            SpanGuard::begin(self, name, Vec::new())
        } else {
            SpanGuard::noop()
        }
    }

    /// Starts a span with pre-built fields (the [`span!`] macro's slow
    /// path; only reached when tracing is on).
    pub fn span_with(
        &self,
        name: &'static str,
        fields: Vec<(&'static str, FieldValue)>,
    ) -> SpanGuard {
        if self.tracing() {
            SpanGuard::begin(self, name, fields)
        } else {
            SpanGuard::noop()
        }
    }

    /// Records an instantaneous point event (queue-depth samples,
    /// prefetch issues, ...). No-op when tracing is off.
    pub fn point(&self, name: &'static str, fields: Vec<(&'static str, FieldValue)>) {
        if !self.tracing() {
            return;
        }
        let t_ns = self.now_ns();
        self.record(SpanEvent {
            kind: EventKind::Point,
            name,
            t_ns,
            dur_ns: 0,
            thread: span::current_thread_id(),
            fields,
        });
    }

    /// Records a span whose region was already timed by the caller (on
    /// the calling thread). Instrumentation that timed a region for a
    /// metric reuses the *same* measurement here, so counter totals and
    /// trace totals reconcile exactly. No-op when tracing is off.
    pub fn record_span(
        &self,
        name: &'static str,
        t_ns: u64,
        dur_ns: u64,
        fields: Vec<(&'static str, FieldValue)>,
    ) {
        if !self.tracing() {
            return;
        }
        self.record(SpanEvent {
            kind: EventKind::Span,
            name,
            t_ns,
            dur_ns,
            thread: span::current_thread_id(),
            fields,
        });
    }

    /// Records a fully-formed event into this thread's buffer. No-op when
    /// tracing is off. Instrumentation that already timed a region for a
    /// metric can reuse the same measurement here, so counter totals and
    /// trace totals reconcile exactly.
    pub fn record(&self, event: SpanEvent) {
        if !self.tracing() {
            return;
        }
        span::record_in_thread_buffer(self, event);
    }

    /// Takes every buffered event, from all threads, ordered by start
    /// time. Buffers stay registered, so recording can continue.
    pub fn drain(&self) -> Vec<SpanEvent> {
        let buffers = self.inner.buffers.lock().expect("trace buffers");
        let mut events = Vec::new();
        for buf in buffers.iter() {
            events.append(&mut buf.take());
        }
        drop(buffers);
        events.sort_by_key(|e| e.t_ns);
        events
    }

    /// Drains buffered events into `sink` (ordered by start time).
    ///
    /// # Errors
    ///
    /// Propagates the sink's I/O errors; events already handed to the
    /// sink are consumed either way.
    pub fn drain_into(&self, sink: &mut dyn Sink) -> std::io::Result<()> {
        for event in self.drain() {
            sink.record(&event)?;
        }
        sink.flush()
    }

    /// A point-in-time copy of every metric.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot::collect(
            &self.inner.counters.lock().expect("counter registry"),
            &self.inner.gauges.lock().expect("gauge registry"),
            &self.inner.histograms.lock().expect("histogram registry"),
        )
    }

    pub(crate) fn inner(&self) -> &Arc<Inner> {
        &self.inner
    }
}

/// Starts a span on `$reg` named `$name`, with optional `key = value`
/// fields. Returns a [`SpanGuard`] that records the span when dropped.
///
/// Fields are only evaluated and collected when tracing is enabled — the
/// disabled path is a single relaxed load and a `None` guard.
///
/// ```
/// # use pbg_telemetry::{span, Registry};
/// # let reg = Registry::new();
/// let _guard = span!(reg, "bucket_train", src = 2u32, dst = 3u32);
/// ```
#[macro_export]
macro_rules! span {
    ($reg:expr, $name:expr $(,)?) => {
        $reg.span($name)
    };
    ($reg:expr, $name:expr, $($key:ident = $value:expr),+ $(,)?) => {
        if $reg.tracing() {
            $reg.span_with(
                $name,
                vec![$((stringify!($key), $crate::FieldValue::from($value))),+],
            )
        } else {
            $crate::SpanGuard::noop()
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_registry_records_nothing() {
        let reg = Registry::new();
        {
            let _g = span!(reg, "quiet", x = 1u64);
        }
        reg.point("p", vec![]);
        assert!(reg.drain().is_empty());
    }

    #[test]
    fn span_macro_records_fields() {
        let reg = Registry::new();
        reg.set_tracing(true);
        {
            let _g = span!(reg, "work", src = 4u32, label = "abc");
        }
        let events = reg.drain();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].name, "work");
        assert_eq!(events[0].field_u64("src"), Some(4));
        assert_eq!(events[0].kind, EventKind::Span);
    }

    #[test]
    fn drain_is_destructive_but_reusable() {
        let reg = Registry::new();
        reg.set_tracing(true);
        reg.point("a", vec![]);
        assert_eq!(reg.drain().len(), 1);
        assert!(reg.drain().is_empty());
        reg.point("b", vec![]);
        assert_eq!(reg.drain().len(), 1);
    }

    #[test]
    fn rank_tags_every_event_and_partitions_span_ids() {
        let reg = Registry::new();
        reg.set_tracing(true);
        reg.point("before", vec![]);
        reg.set_rank(3);
        reg.point("after", vec![]);
        let events = reg.drain();
        assert_eq!(events[0].field_u64("rank"), None);
        assert_eq!(events[1].field_u64("rank"), Some(3));

        let id = reg.next_span_id();
        assert_eq!(id >> 40, 4, "rank+1 in the high bits");
        assert_ne!(reg.next_span_id(), id);

        let other = Registry::new();
        other.set_rank(0);
        assert_eq!(other.next_span_id() >> 40, 1);
    }

    #[test]
    fn clones_share_state() {
        let reg = Registry::new();
        let clone = reg.clone();
        clone.set_tracing(true);
        assert!(reg.tracing());
        reg.counter("c").add(3);
        assert_eq!(clone.snapshot().counter("c"), 3);
    }
}
