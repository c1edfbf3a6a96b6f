//! Training statistics.
//!
//! The paper reports peak memory (Tables 1, 3, 4), wall-clock training
//! time, and loss curves. Stats are collected per bucket and rolled up per
//! epoch. Memory is the resident-partition high-water mark the stores
//! keep in the `store.resident_bytes` gauge (`rank{m}.resident_bytes` on
//! a cluster machine).

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

/// Per-epoch I/O counter deltas, taken from a
/// [`crate::storage::PartitionStore`] before and after the epoch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct IoStats {
    /// Partition loads that went to backing storage.
    pub swap_ins: usize,
    /// Loads served by a completed background prefetch.
    pub prefetch_hits: usize,
    /// Seconds the hot path spent blocked on partition I/O.
    pub swap_wait_seconds: f64,
    /// Bytes written back on release.
    pub bytes_written_back: u64,
    /// Partitions evicted from the buffer.
    pub evictions: usize,
    /// Write-back bytes skipped because the partition was clean.
    pub writeback_skipped_bytes: u64,
    /// Peak resident embedding bytes.
    pub peak_bytes: usize,
}

impl IoStats {
    /// Delta of the monotonic counters relative to an `earlier`
    /// snapshot; `peak_bytes` is a high-water mark and kept absolute.
    ///
    /// Subtraction saturates at zero: a counter that regressed (a store
    /// recreated between snapshots, a restored checkpoint) yields zero
    /// for the interval instead of panicking on underflow.
    pub fn delta_since(&self, earlier: &IoStats) -> IoStats {
        IoStats {
            swap_ins: self.swap_ins.saturating_sub(earlier.swap_ins),
            prefetch_hits: self.prefetch_hits.saturating_sub(earlier.prefetch_hits),
            swap_wait_seconds: (self.swap_wait_seconds - earlier.swap_wait_seconds).max(0.0),
            bytes_written_back: self
                .bytes_written_back
                .saturating_sub(earlier.bytes_written_back),
            evictions: self.evictions.saturating_sub(earlier.evictions),
            writeback_skipped_bytes: self
                .writeback_skipped_bytes
                .saturating_sub(earlier.writeback_skipped_bytes),
            peak_bytes: self.peak_bytes,
        }
    }

    /// Reads the store's I/O counters out of a telemetry snapshot (the
    /// metric names of [`pbg_telemetry::metrics::names`]). [`EpochStats`]
    /// aggregates are derived from deltas of these snapshots, so the
    /// epoch report is a view of the same registry the trace and the
    /// Prometheus dump read.
    pub fn from_snapshot(snap: &pbg_telemetry::Snapshot) -> IoStats {
        use pbg_telemetry::metrics::names;
        IoStats {
            swap_ins: snap.counter(names::STORE_SWAP_INS) as usize,
            prefetch_hits: snap.counter(names::STORE_PREFETCH_HITS) as usize,
            swap_wait_seconds: snap.counter(names::STORE_SWAP_WAIT_NS) as f64 * 1e-9,
            bytes_written_back: snap.counter(names::STORE_BYTES_WRITTEN_BACK),
            evictions: snap.counter(names::STORE_EVICTIONS) as usize,
            writeback_skipped_bytes: snap.counter(names::STORE_WRITEBACK_SKIPPED_BYTES),
            peak_bytes: snap.gauge(names::STORE_RESIDENT_BYTES).peak as usize,
        }
    }
}

/// Aggregates bucket stats into an epoch.
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

    /// Finalizes the epoch with the store's I/O counter deltas.
    pub fn finish(self, epoch: usize, io: IoStats) -> EpochStats {
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
            swap_ins: io.swap_ins,
            peak_bytes: io.peak_bytes,
            prefetch_hits: io.prefetch_hits,
            swap_wait_seconds: io.swap_wait_seconds,
            bytes_written_back: io.bytes_written_back,
            evictions: io.evictions,
            writeback_skipped_bytes: io.writeback_skipped_bytes,
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
        let e = acc.finish(
            1,
            IoStats {
                swap_ins: 4,
                prefetch_hits: 3,
                swap_wait_seconds: 0.25,
                bytes_written_back: 4096,
                evictions: 6,
                writeback_skipped_bytes: 512,
                peak_bytes: 1234,
            },
        );
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
        let fresh = IoStats {
            swap_ins: 1,
            prefetch_hits: 0,
            swap_wait_seconds: 0.1,
            bytes_written_back: 100,
            evictions: 1,
            writeback_skipped_bytes: 10,
            peak_bytes: 50,
        };
        let earlier = IoStats {
            swap_ins: 9,
            prefetch_hits: 4,
            swap_wait_seconds: 2.0,
            bytes_written_back: 900,
            evictions: 7,
            writeback_skipped_bytes: 700,
            peak_bytes: 10,
        };
        // a store recreated between snapshots restarts its counters;
        // the interval clamps to zero instead of panicking
        let d = fresh.delta_since(&earlier);
        assert_eq!(d.swap_ins, 0);
        assert_eq!(d.prefetch_hits, 0);
        assert_eq!(d.swap_wait_seconds, 0.0);
        assert_eq!(d.bytes_written_back, 0);
        assert_eq!(d.peak_bytes, 50, "peak stays absolute");
    }

    #[test]
    fn io_stats_read_back_from_registry_snapshot() {
        use pbg_telemetry::metrics::names;
        let reg = pbg_telemetry::Registry::new();
        reg.counter(names::STORE_SWAP_INS).add(5);
        reg.counter(names::STORE_SWAP_WAIT_NS).add(2_500_000_000);
        reg.gauge(names::STORE_RESIDENT_BYTES).add(4096);
        reg.gauge(names::STORE_RESIDENT_BYTES).sub(4096);
        let io = IoStats::from_snapshot(&reg.snapshot());
        assert_eq!(io.swap_ins, 5);
        assert!((io.swap_wait_seconds - 2.5).abs() < 1e-12);
        assert_eq!(io.peak_bytes, 4096);
    }

    #[test]
    fn empty_epoch_has_zero_loss() {
        let e = EpochAccumulator::new().finish(1, IoStats::default());
        assert_eq!(e.mean_loss, 0.0);
    }

    #[test]
    fn format_bytes_units() {
        assert_eq!(format_bytes(512), "512 B");
        assert_eq!(format_bytes(2048), "2.00 KB");
        assert_eq!(format_bytes(64_000_000_000), "59.60 GB");
    }
}
