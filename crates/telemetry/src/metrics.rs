//! Metric primitives: counters, gauges, log-bucketed histograms.
//!
//! All three are thin wrappers over shared atomics, so handles can be
//! cloned into hot loops once and updated without touching the registry
//! again. Every operation uses `Relaxed` ordering: each metric is an
//! independent statistic — no other memory access is published or
//! acquired through it, readers only need eventual per-metric totals,
//! and every snapshot happens after the threads that wrote it joined
//! (the join provides the synchronization, not the counter).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Canonical metric names used by the instrumented layers. Centralized
/// (like [`crate::trace::names`]) so producers and snapshot consumers
/// cannot drift apart.
pub mod names {
    /// Counter: partition loads that went to backing storage.
    pub const STORE_SWAP_INS: &str = "store.swap_ins";
    /// Counter: loads served by a completed background prefetch.
    pub const STORE_PREFETCH_HITS: &str = "store.prefetch_hits";
    /// Counter: nanoseconds the hot path blocked on partition I/O.
    pub const STORE_SWAP_WAIT_NS: &str = "store.swap_wait_ns";
    /// Counter: bytes written back to backing storage on release.
    pub const STORE_BYTES_WRITTEN_BACK: &str = "store.bytes_written_back";
    /// Gauge: resident embedding bytes (peak = high-water mark).
    pub const STORE_RESIDENT_BYTES: &str = "store.resident_bytes";
    /// Gauge: requests queued to the background I/O thread.
    pub const STORE_IO_QUEUE_DEPTH: &str = "store.io_queue_depth";
    /// Gauge: resident partitions (peak = high-water mark vs buffer B).
    pub const STORE_RESIDENT_PARTITIONS: &str = "store.resident_partitions";
    /// Counter: partitions evicted from the buffer (released to storage).
    pub const STORE_EVICTIONS: &str = "store.evictions";
    /// Histogram: bucket-steps of lookahead each prefetch was issued with.
    pub const STORE_PREFETCH_DEPTH: &str = "store.prefetch_depth";
    /// Counter: write-back bytes skipped because the partition was clean.
    pub const STORE_WRITEBACK_SKIPPED_BYTES: &str = "store.writeback.skipped_bytes";
    /// Counter: encoded bytes actually moved to/from swap files (equals
    /// written-back + swapped-in f32 bytes at f32 precision; smaller at
    /// f16/int8 — the visible win of a quantized store).
    pub const STORE_SWAP_BYTES: &str = "store.swap.bytes";
    /// Counter: edges trained.
    pub const TRAINER_EDGES: &str = "trainer.edges";
    /// Counter: buckets trained.
    pub const TRAINER_BUCKETS: &str = "trainer.buckets";
    /// Counter: edges trained by cluster ranks (simulated or networked).
    pub const CLUSTER_EDGES: &str = "cluster.edges";
    /// Counter: cluster bucket-acquire attempts that had to wait.
    pub const CLUSTER_LOCK_WAITS: &str = "cluster.lock_waits";
    /// Counter: bytes moved over the simulated network.
    pub const CLUSTER_NET_BYTES: &str = "cluster.net_bytes";
    /// Counter: bytes of shared-parameter sync traffic (relation
    /// operators and unpartitioned entity tables).
    pub const CLUSTER_SYNC_BYTES: &str = "cluster.sync_bytes";
    /// Counter: nanoseconds ranks spent idle waiting for a bucket.
    pub const CLUSTER_IDLE_NS: &str = "cluster.idle_ns";
    /// Histogram: per-acquire lock-server wait, nanoseconds.
    pub const CLUSTER_ACQUIRE_WAIT_NS: &str = "cluster.acquire_wait_ns";
    /// Counter: checkpoints written by the trainer.
    pub const TRAINER_CHECKPOINTS: &str = "trainer.checkpoints";
    /// Counter: training runs restarted from a checkpoint.
    pub const TRAINER_RESUMES: &str = "trainer.resumes";
    /// Counter: bucket-steps skipped on resume (already trained before
    /// the checkpoint being resumed from).
    pub const TRAINER_RESUME_SKIPPED_STEPS: &str = "trainer.resume_skipped_steps";
    /// Counter: cluster buckets reassigned after a lease expired.
    pub const CLUSTER_RECOVERED_BUCKETS: &str = "cluster.recovered_buckets";
    /// Counter: partition check-ins discarded because the holder's lease
    /// was revoked (fencing-token mismatch).
    pub const CLUSTER_STALE_CHECKINS: &str = "cluster.stale_checkins";
    /// Counter: wire bytes written by networked RPC clients (frames
    /// included, `pbg-net`).
    pub const NET_BYTES_SENT: &str = "net.bytes_sent";
    /// Counter: wire bytes read by networked RPC clients.
    pub const NET_BYTES_RECEIVED: &str = "net.bytes_received";
    /// Histogram: networked RPC round-trip latency in nanoseconds.
    pub const NET_RPC_LATENCY_NS: &str = "net.rpc_latency_ns";
    /// Counter: cluster client operations retried (reconnects, failed
    /// partition transfers, timed-out parameter syncs).
    pub const NET_RPC_RETRIES: &str = "net.rpc_retries";
    /// Counter: requests handled by a networked server (all roles).
    pub const NET_REQUESTS_HANDLED: &str = "net.requests_handled";
    /// Gauge: trained edges per second over the last bucket.
    pub const TRAINER_EDGES_PER_SEC: &str = "trainer.edges_per_sec";
    /// Gauge: kernel MFLOP/s over the last bucket (from the process-wide
    /// flop counter in `pbg-tensor`).
    pub const TRAINER_MFLOPS: &str = "trainer.mflops";
    /// Gauge: partition-buffer hit ratio in basis points —
    /// `prefetch_hits / (prefetch_hits + swap_ins) * 10_000` over the
    /// run so far.
    pub const TRAINER_BUFFER_HIT_BP: &str = "trainer.buffer_hit_bp";
    /// Gauge: total kernel flops executed by this process (also the
    /// watermark the per-bucket MFLOP/s delta is taken against).
    pub const TRAINER_FLOPS_TOTAL: &str = "trainer.flops_total";
    /// Gauge: distsim cluster-wide trained edges per second, by machine.
    pub const CLUSTER_EDGES_PER_SEC: &str = "cluster.edges_per_sec";

    /// Counter: HTTP requests handled by the embedding serving tier.
    pub const SERVE_REQUESTS: &str = "serve.requests";
    /// Counter: serving requests rejected by the rate limiter (429).
    pub const SERVE_THROTTLED: &str = "serve.throttled";
    /// Counter: serving requests answered with a client error (4xx).
    pub const SERVE_CLIENT_ERRORS: &str = "serve.client_errors";
    /// Histogram: end-to-end request latency in the serving tier.
    pub const SERVE_REQUEST_LATENCY_NS: &str = "serve.request_latency_ns";
    /// Counter: candidate rows scored by `/topk` and `/score`.
    pub const SERVE_ROWS_SCORED: &str = "serve.rows_scored";
    /// Gauge: bytes of checkpoint shards memory-mapped by the server.
    pub const SERVE_MAPPED_BYTES: &str = "serve.mapped_bytes";

    /// Every canonical metric name with its exposition help text, for
    /// `# HELP` lines and the format-lint test. Dynamic per-rank names
    /// (`rank{N}.*`) are not listed; they get no HELP line, which the
    /// exposition format permits.
    pub const ALL: &[(&str, &str)] = &[
        (
            STORE_SWAP_INS,
            "Partition loads that went to backing storage",
        ),
        (
            STORE_PREFETCH_HITS,
            "Loads served by a completed background prefetch",
        ),
        (
            STORE_SWAP_WAIT_NS,
            "Nanoseconds the hot path blocked on partition I/O",
        ),
        (
            STORE_BYTES_WRITTEN_BACK,
            "Bytes written back to backing storage on release",
        ),
        (STORE_RESIDENT_BYTES, "Resident embedding bytes"),
        (
            STORE_IO_QUEUE_DEPTH,
            "Requests queued to the background I/O thread",
        ),
        (
            STORE_RESIDENT_PARTITIONS,
            "Resident partitions in the buffer",
        ),
        (STORE_EVICTIONS, "Partitions evicted from the buffer"),
        (
            STORE_PREFETCH_DEPTH,
            "Bucket-steps of lookahead per issued prefetch",
        ),
        (
            STORE_WRITEBACK_SKIPPED_BYTES,
            "Write-back bytes skipped (partition clean)",
        ),
        (
            STORE_SWAP_BYTES,
            "Encoded bytes moved to/from partition swap files",
        ),
        (TRAINER_EDGES, "Edges trained"),
        (TRAINER_BUCKETS, "Buckets trained"),
        (CLUSTER_EDGES, "Edges trained by cluster ranks"),
        (
            CLUSTER_LOCK_WAITS,
            "Cluster bucket-acquire attempts that had to wait",
        ),
        (CLUSTER_NET_BYTES, "Bytes moved over the simulated network"),
        (CLUSTER_SYNC_BYTES, "Bytes of shared-parameter sync traffic"),
        (
            CLUSTER_IDLE_NS,
            "Nanoseconds ranks spent idle waiting for a bucket",
        ),
        (
            CLUSTER_ACQUIRE_WAIT_NS,
            "Per-acquire lock-server wait in nanoseconds",
        ),
        (TRAINER_CHECKPOINTS, "Checkpoints written by the trainer"),
        (TRAINER_RESUMES, "Training runs restarted from a checkpoint"),
        (
            TRAINER_RESUME_SKIPPED_STEPS,
            "Bucket-steps skipped on resume",
        ),
        (
            CLUSTER_RECOVERED_BUCKETS,
            "Cluster buckets reassigned after a lease expired",
        ),
        (
            CLUSTER_STALE_CHECKINS,
            "Partition check-ins discarded on fencing mismatch",
        ),
        (
            NET_BYTES_SENT,
            "Wire bytes written by networked RPC clients",
        ),
        (
            NET_BYTES_RECEIVED,
            "Wire bytes read by networked RPC clients",
        ),
        (
            NET_RPC_LATENCY_NS,
            "Networked RPC round-trip latency in nanoseconds",
        ),
        (NET_RPC_RETRIES, "Cluster client operations retried"),
        (
            NET_REQUESTS_HANDLED,
            "Requests handled by a networked server",
        ),
        (
            TRAINER_EDGES_PER_SEC,
            "Trained edges per second over the last bucket",
        ),
        (TRAINER_MFLOPS, "Kernel MFLOP/s over the last bucket"),
        (
            TRAINER_BUFFER_HIT_BP,
            "Partition-buffer hit ratio, basis points",
        ),
        (
            TRAINER_FLOPS_TOTAL,
            "Total kernel flops executed by this process",
        ),
        (CLUSTER_EDGES_PER_SEC, "Distsim cluster edges per second"),
        (SERVE_REQUESTS, "HTTP requests handled by the serving tier"),
        (
            SERVE_THROTTLED,
            "Serving requests rejected by the rate limiter",
        ),
        (
            SERVE_CLIENT_ERRORS,
            "Serving requests answered with a client error",
        ),
        (
            SERVE_REQUEST_LATENCY_NS,
            "Serving request latency in nanoseconds",
        ),
        (
            SERVE_ROWS_SCORED,
            "Candidate rows scored by the serving tier",
        ),
        (
            SERVE_MAPPED_BYTES,
            "Checkpoint shard bytes memory-mapped by the server",
        ),
    ];

    /// Exposition help text for a canonical metric name.
    pub fn help(name: &str) -> Option<&'static str> {
        ALL.iter().find(|(n, _)| *n == name).map(|(_, h)| *h)
    }
}

/// A monotonically increasing counter.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Creates a counter at zero, unattached to any registry.
    pub fn new() -> Self {
        Counter::default()
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A value that moves both ways, with a high-water mark — resident
/// bytes, queue depths.
#[derive(Clone, Debug, Default)]
pub struct Gauge {
    value: Arc<GaugeState>,
}

#[derive(Debug, Default)]
struct GaugeState {
    current: AtomicU64,
    peak: AtomicU64,
}

impl Gauge {
    /// Creates a gauge at zero.
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Raises the gauge by `n`, updating the high-water mark.
    #[inline]
    pub fn add(&self, n: u64) {
        let now = self.value.current.fetch_add(n, Ordering::Relaxed) + n;
        self.value.peak.fetch_max(now, Ordering::Relaxed);
    }

    /// Lowers the gauge by `n`.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) when lowering below zero.
    #[inline]
    pub fn sub(&self, n: u64) {
        let prev = self.value.current.fetch_sub(n, Ordering::Relaxed);
        debug_assert!(prev >= n, "gauge underflow: {prev} - {n}");
    }

    /// Sets the gauge to an absolute value, updating the high-water mark.
    pub fn set(&self, v: u64) {
        self.value.current.store(v, Ordering::Relaxed);
        self.value.peak.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.value.current.load(Ordering::Relaxed)
    }

    /// High-water mark since creation (or the last [`Gauge::reset_peak`]).
    #[inline]
    pub fn peak(&self) -> u64 {
        self.value.peak.load(Ordering::Relaxed)
    }

    /// Restarts the high-water mark from the current value (used by
    /// per-epoch peak accounting over long-lived gauges).
    pub fn reset_peak(&self) {
        self.value.peak.store(
            self.value.current.load(Ordering::Relaxed),
            Ordering::Relaxed,
        );
    }
}

/// Number of histogram buckets: bucket `i` (for `i >= 1`) counts values
/// `v` with `2^(i-1) <= v < 2^i`; bucket 0 counts zeros. u64 values up
/// to `2^63` land in bucket 64.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A log2-bucketed histogram of `u64` samples (typically nanoseconds).
///
/// Power-of-two buckets keep `observe` allocation-free and branch-free
/// (one `leading_zeros`), while still resolving "was this swap-wait 1µs
/// or 1ms" — the question per-bucket timing attribution actually asks.
#[derive(Clone, Debug, Default)]
pub struct Histogram {
    state: Arc<HistogramState>,
}

#[derive(Debug)]
struct HistogramState {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for HistogramState {
    fn default() -> Self {
        HistogramState {
            buckets: [(); HISTOGRAM_BUCKETS].map(|()| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

/// Bucket index for a sample: 0 for 0, else `floor(log2(v)) + 1`.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    (64 - v.leading_zeros()) as usize
}

/// Exclusive upper bound of bucket `i` (`None` for the last, unbounded
/// bucket).
pub fn bucket_upper_bound(i: usize) -> Option<u64> {
    if i + 1 >= HISTOGRAM_BUCKETS {
        None
    } else {
        Some(1u64 << i)
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one sample.
    #[inline]
    pub fn observe(&self, v: u64) {
        self.state.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.state.count.fetch_add(1, Ordering::Relaxed);
        self.state.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.state.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.state.sum.load(Ordering::Relaxed)
    }

    /// Per-bucket counts.
    pub fn buckets(&self) -> Vec<u64> {
        self.state
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_counts() {
        let c = Counter::new();
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
    }

    #[test]
    fn gauge_tracks_peak() {
        let g = Gauge::new();
        g.add(100);
        g.add(50);
        g.sub(120);
        g.add(10);
        assert_eq!(g.get(), 40);
        assert_eq!(g.peak(), 150);
        g.reset_peak();
        assert_eq!(g.peak(), 40);
    }

    #[test]
    fn bucket_index_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), 64);
    }

    #[test]
    fn upper_bounds_cover_the_index_map() {
        // every value below bucket i's upper bound maps to a bucket <= i
        for i in 0..HISTOGRAM_BUCKETS - 1 {
            let ub = bucket_upper_bound(i).unwrap();
            assert_eq!(bucket_index(ub - 1).max(i), i, "bound for bucket {i}");
            assert_eq!(bucket_index(ub), i + 1);
        }
        assert_eq!(bucket_upper_bound(HISTOGRAM_BUCKETS - 1), None);
    }

    #[test]
    fn histogram_totals() {
        let h = Histogram::new();
        for v in [0, 1, 2, 3, 1024] {
            h.observe(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1030);
        let b = h.buckets();
        assert_eq!(b[0], 1); // 0
        assert_eq!(b[1], 1); // 1
        assert_eq!(b[2], 2); // 2, 3
        assert_eq!(b[11], 1); // 1024
    }
}
