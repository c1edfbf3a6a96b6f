//! Training statistics.
//!
//! The paper reports peak memory (Tables 1, 3, 4), wall-clock training
//! time, and loss curves. Stats are collected per bucket and rolled up per
//! epoch. Every storage count in an epoch report is read from the delta
//! of the telemetry registry over the epoch; memory is the
//! resident-partition high-water mark the stores keep in the
//! `store.resident_bytes` gauge (`rank{m}.resident_bytes` on a cluster
//! machine).

use pbg_telemetry::metrics::names;
use pbg_telemetry::Snapshot;
use serde::{Deserialize, Serialize};

/// Statistics for one trained bucket.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BucketStats {
    /// Edges processed.
    pub edges: usize,
    /// Summed loss.
    pub loss: f64,
    /// Wall-clock seconds spent training the bucket.
    pub seconds: f64,
}

impl BucketStats {
    /// Edges per second (0 when no time elapsed).
    pub fn edges_per_second(&self) -> f64 {
        if self.seconds > 0.0 {
            self.edges as f64 / self.seconds
        } else {
            0.0
        }
    }
}

/// Statistics for one epoch.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EpochStats {
    /// Epoch index (1-based).
    pub epoch: usize,
    /// Edges processed.
    pub edges: usize,
    /// Mean loss per edge.
    pub mean_loss: f64,
    /// Wall-clock seconds for the epoch.
    pub seconds: f64,
    /// Buckets trained.
    pub buckets: usize,
    /// Partition loads from backing storage during the epoch.
    pub swap_ins: usize,
    /// Peak resident embedding bytes so far.
    pub peak_bytes: usize,
    /// Loads served by a completed background prefetch (pipelined
    /// stores; 0 for in-memory or synchronous storage).
    pub prefetch_hits: usize,
    /// Seconds the training hot path spent blocked on partition I/O.
    pub swap_wait_seconds: f64,
    /// Bytes written back to backing storage by partition releases.
    pub bytes_written_back: u64,
    /// Partitions evicted from the buffer during the epoch.
    pub evictions: usize,
    /// Write-back bytes skipped because the partition was clean.
    pub writeback_skipped_bytes: u64,
}

/// Aggregates bucket stats into an epoch. It counts every bucket it is
/// given, empty ones too, so `buckets` is the number of bucket-steps.
#[derive(Debug, Default)]
pub struct EpochAccumulator {
    edges: usize,
    loss: f64,
    seconds: f64,
    buckets: usize,
}

impl EpochAccumulator {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        EpochAccumulator::default()
    }

    /// Adds one bucket's stats.
    pub fn add(&mut self, b: &BucketStats) {
        self.edges += b.edges;
        self.loss += b.loss;
        self.seconds += b.seconds;
        self.buckets += 1;
    }

    /// Finalizes the epoch with `delta`, the registry's
    /// [`Snapshot::delta_since`] over the epoch: its counters are the
    /// epoch's, and its gauges are absolute, so `peak_bytes` is the peak
    /// so far.
    pub fn finish(self, epoch: usize, delta: &Snapshot) -> EpochStats {
        let count = |name| delta.counter(name) as usize;
        EpochStats {
            epoch,
            edges: self.edges,
            mean_loss: if self.edges > 0 {
                self.loss / self.edges as f64
            } else {
                0.0
            },
            seconds: self.seconds,
            buckets: self.buckets,
            swap_ins: count(names::STORE_SWAP_INS),
            peak_bytes: delta.gauge(names::STORE_RESIDENT_BYTES).peak as usize,
            prefetch_hits: count(names::STORE_PREFETCH_HITS),
            swap_wait_seconds: delta.counter(names::STORE_SWAP_WAIT_NS) as f64 * 1e-9,
            bytes_written_back: delta.counter(names::STORE_BYTES_WRITTEN_BACK),
            evictions: count(names::STORE_EVICTIONS),
            writeback_skipped_bytes: delta.counter(names::STORE_WRITEBACK_SKIPPED_BYTES),
        }
    }
}

/// Formats bytes with a binary-prefix unit, as the paper's tables do
/// (e.g. `59.6 GB`).
pub fn format_bytes(bytes: usize) -> String {
    const UNITS: [&str; 5] = ["B", "KB", "MB", "GB", "TB"];
    let mut value = bytes as f64;
    let mut unit = 0;
    while value >= 1024.0 && unit < UNITS.len() - 1 {
        value /= 1024.0;
        unit += 1;
    }
    if unit == 0 {
        format!("{bytes} B")
    } else {
        format!("{value:.2} {}", UNITS[unit])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_throughput() {
        let b = BucketStats {
            edges: 1000,
            loss: 5.0,
            seconds: 2.0,
        };
        assert_eq!(b.edges_per_second(), 500.0);
        let z = BucketStats {
            edges: 10,
            loss: 0.0,
            seconds: 0.0,
        };
        assert_eq!(z.edges_per_second(), 0.0);
    }

    /// A registry holding the store counters `finish` reads.
    fn store_registry() -> pbg_telemetry::Registry {
        let reg = pbg_telemetry::Registry::new();
        reg.counter(names::STORE_SWAP_INS).add(4);
        reg.counter(names::STORE_PREFETCH_HITS).add(3);
        reg.counter(names::STORE_SWAP_WAIT_NS).add(250_000_000);
        reg.counter(names::STORE_BYTES_WRITTEN_BACK).add(4096);
        reg.counter(names::STORE_EVICTIONS).add(6);
        reg.counter(names::STORE_WRITEBACK_SKIPPED_BYTES).add(512);
        reg.gauge(names::STORE_RESIDENT_BYTES).add(1234);
        reg.gauge(names::STORE_RESIDENT_BYTES).sub(1234);
        reg
    }

    #[test]
    fn epoch_accumulation() {
        let mut acc = EpochAccumulator::new();
        acc.add(&BucketStats {
            edges: 100,
            loss: 10.0,
            seconds: 1.0,
        });
        acc.add(&BucketStats {
            edges: 300,
            loss: 30.0,
            seconds: 2.0,
        });
        let e = acc.finish(1, &store_registry().snapshot());
        assert_eq!(e.edges, 400);
        assert_eq!(e.buckets, 2);
        assert!((e.mean_loss - 0.1).abs() < 1e-12);
        assert_eq!(e.swap_ins, 4);
        assert_eq!(e.peak_bytes, 1234);
        assert_eq!(e.prefetch_hits, 3);
        assert_eq!(e.swap_wait_seconds, 0.25);
        assert_eq!(e.bytes_written_back, 4096);
        assert_eq!(e.evictions, 6);
        assert_eq!(e.writeback_skipped_bytes, 512);
    }

    #[test]
    fn io_delta_saturates_on_counter_regression() {
        // a store recreated between snapshots restarts its counters; the
        // interval clamps to zero instead of panicking
        let earlier = store_registry().snapshot();
        let fresh = pbg_telemetry::Registry::new();
        fresh.counter(names::STORE_SWAP_INS).inc();
        fresh.gauge(names::STORE_RESIDENT_BYTES).add(50);
        let e = EpochAccumulator::new().finish(1, &fresh.snapshot().delta_since(&earlier));
        assert_eq!(e.swap_ins, 0);
        assert_eq!(e.prefetch_hits, 0);
        assert_eq!(e.swap_wait_seconds, 0.0);
        assert_eq!(e.bytes_written_back, 0);
        assert_eq!(e.peak_bytes, 50, "peak stays absolute");
    }

    #[test]
    fn io_stats_read_back_from_registry_snapshot() {
        let reg = store_registry();
        let before = reg.snapshot();
        reg.counter(names::STORE_SWAP_INS).add(5);
        reg.counter(names::STORE_SWAP_WAIT_NS).add(2_500_000_000);
        reg.gauge(names::STORE_RESIDENT_BYTES).add(4096);
        reg.gauge(names::STORE_RESIDENT_BYTES).sub(4096);
        let e = EpochAccumulator::new().finish(2, &reg.snapshot().delta_since(&before));
        assert_eq!(e.swap_ins, 5);
        assert_eq!(e.prefetch_hits, 0);
        assert!((e.swap_wait_seconds - 2.5).abs() < 1e-12);
        assert_eq!(e.peak_bytes, 4096);
    }

    #[test]
    fn empty_epoch_has_zero_loss() {
        let e = EpochAccumulator::new().finish(1, &Snapshot::default());
        assert_eq!(e.mean_loss, 0.0);
    }

    #[test]
    fn format_bytes_units() {
        assert_eq!(format_bytes(512), "512 B");
        assert_eq!(format_bytes(2048), "2.00 KB");
        assert_eq!(format_bytes(64_000_000_000), "59.60 GB");
    }
}
