//! Partitioned embedding storage: in-memory or swapped to disk.
//!
//! "PBG then either swaps embeddings from each partition to disk to reduce
//! memory usage, or performs distributed execution" (§1). A
//! [`PartitionStore`] hands out one [`PartitionData`] per
//! `(entity type, partition)`; the trainer loads the two partitions a
//! bucket needs and releases the ones it no longer uses.
//! [`DiskStore`] writes released partitions to files and reloads them on
//! demand, tracking resident and peak bytes — the numbers behind the
//! memory columns of Tables 3 and 4. In its default pipelined mode a
//! background I/O thread double-buffers the next bucket's partitions
//! ([`PartitionStore::prefetch`]) and writes released ones back off the
//! hot path, so bucket `k+1`'s swap overlaps bucket `k`'s compute.

use crate::error::{PbgError, Result};
use crossbeam::channel;
use parking_lot::{Condvar, Mutex};
use pbg_graph::ids::{EntityTypeId, Partition};
use pbg_graph::partition::EntityPartitioning;
use pbg_graph::schema::GraphSchema;
use pbg_telemetry::metrics::names as metric;
use pbg_telemetry::trace::names as span_name;
use pbg_telemetry::{Counter, Gauge, Registry};
use pbg_tensor::adagrad::AdagradRow;
use pbg_tensor::hogwild::HogwildArray;
use pbg_tensor::quant::{self, Precision};
use pbg_tensor::rng::Xoshiro256;
use std::borrow::Cow;
use std::collections::{HashMap, HashSet};
use std::path::PathBuf;
use std::sync::Arc;

/// Key of one embedding partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PartitionKey {
    /// The entity type.
    pub entity_type: EntityTypeId,
    /// The partition index within that type.
    pub partition: Partition,
}

impl PartitionKey {
    /// Creates a key.
    pub fn new(entity_type: impl Into<EntityTypeId>, partition: impl Into<Partition>) -> Self {
        PartitionKey {
            entity_type: entity_type.into(),
            partition: partition.into(),
        }
    }
}

/// One partition's embeddings plus its Adagrad state. Shared across
/// HOGWILD threads.
#[derive(Debug)]
pub struct PartitionData {
    /// Embedding rows (`partition size × dim`), offset-indexed.
    pub embeddings: HogwildArray,
    /// Row-wise Adagrad accumulators for those rows.
    pub adagrad: AdagradRow,
}

impl PartitionData {
    /// Creates a freshly initialized partition: embeddings uniform in
    /// `(-init_scale, init_scale)`, zero accumulators.
    pub fn init(rows: usize, dim: usize, lr: f32, init_scale: f32, seed: u64) -> Self {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let data: Vec<f32> = (0..rows * dim)
            .map(|_| (rng.gen_f32() * 2.0 - 1.0) * init_scale)
            .collect();
        PartitionData {
            embeddings: HogwildArray::from_vec(rows, dim, data),
            adagrad: AdagradRow::new(rows, lr),
        }
    }

    /// Rebuilds from checkpointed embeddings + accumulators.
    ///
    /// # Panics
    ///
    /// Panics if lengths disagree with `rows × dim` / `rows`.
    pub fn from_parts(rows: usize, dim: usize, lr: f32, emb: Vec<f32>, acc: &[f32]) -> Self {
        let data = PartitionData {
            embeddings: HogwildArray::from_vec(rows, dim, emb),
            adagrad: AdagradRow::new(rows, lr),
        };
        data.adagrad.restore(acc);
        data
    }

    /// Resident bytes (embeddings + optimizer state).
    pub fn bytes(&self) -> usize {
        self.embeddings.bytes() + self.adagrad.bytes()
    }
}

/// Abstract partition storage.
///
/// `load` must return the same logical data for a key until `release`d;
/// `release` may evict (write back) the partition. Implementations track
/// the resident-byte high-water mark.
pub trait PartitionStore: Send + Sync {
    /// Loads (or returns the resident) partition for `key`.
    fn load(&self, key: PartitionKey) -> Arc<PartitionData>;
    /// Releases `key`, allowing eviction. Callers drop their `Arc` first.
    fn release(&self, key: PartitionKey);
    /// Bytes currently resident.
    fn resident_bytes(&self) -> usize;
    /// High-water mark of resident bytes.
    fn peak_bytes(&self) -> usize;
    /// Number of loads that had to fetch from backing storage.
    fn swap_ins(&self) -> usize;
    /// Forces everything resident (used before evaluation snapshots).
    fn load_all(&self);
    /// Hints that `key` will be loaded soon; implementations may fetch
    /// it in the background so the later [`PartitionStore::load`] does
    /// not block. Callers must not prefetch keys of the bucket currently
    /// training (see [`crate::trainer::plan::EpochPlan`]). Default: no-op.
    fn prefetch(&self, _key: PartitionKey) {}
    /// Loads served by a completed prefetch instead of blocking I/O.
    fn prefetch_hits(&self) -> usize {
        0
    }
    /// Nanoseconds the hot path spent blocked on backing-storage I/O
    /// (synchronous reads plus waits for in-flight prefetches).
    fn swap_wait_nanos(&self) -> u64 {
        0
    }
    /// Bytes written back to backing storage by releases.
    fn bytes_written_back(&self) -> u64 {
        0
    }
    /// Marks `key`'s resident data as mutated, so its eventual
    /// [`PartitionStore::release`] must persist it. Callers that write
    /// into a loaded partition MUST call this before releasing it — a
    /// clean (unmarked) release is allowed to discard the in-memory copy
    /// without touching backing storage, which is what makes read-only
    /// passes (evaluation snapshots, mid-epoch peeks) free of write
    /// traffic. Stores that keep everything resident ignore this.
    /// Default: no-op.
    fn mark_dirty(&self, _key: PartitionKey) {}
    /// Bytes of write-back skipped because the released partition was
    /// never marked dirty.
    fn writeback_skipped_bytes(&self) -> u64 {
        0
    }
}

/// Shape metadata shared by store implementations.
#[derive(Debug, Clone)]
pub struct StoreLayout {
    keys: Vec<(PartitionKey, usize)>, // key -> row count
    dim: usize,
    lr: f32,
    init_scale: f32,
    seed: u64,
    /// Storage precision for swapped embedding bytes. The resident
    /// working set (and the Adagrad accumulators) stay f32 regardless;
    /// this only governs what [`DiskStore`] writes to and reads from
    /// its partition files.
    precision: Precision,
}

impl StoreLayout {
    /// Derives the layout from a schema and training hyperparameters.
    pub fn from_schema(
        schema: &GraphSchema,
        dim: usize,
        lr: f32,
        init_scale: f32,
        seed: u64,
    ) -> Self {
        let mut keys = Vec::new();
        for (t, def) in schema.entity_types().iter().enumerate() {
            let partitioning = EntityPartitioning::new(def.num_entities(), def.num_partitions());
            for p in partitioning.partitions() {
                keys.push((
                    PartitionKey::new(t as u32, p),
                    partitioning.partition_size(p) as usize,
                ));
            }
        }
        StoreLayout {
            keys,
            dim,
            lr,
            init_scale,
            seed,
            precision: Precision::F32,
        }
    }

    /// Sets the swap-file storage precision (default [`Precision::F32`]).
    pub fn with_precision(mut self, precision: Precision) -> Self {
        self.precision = precision;
        self
    }

    /// Storage precision for swapped embedding bytes.
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// All `(key, rows)` pairs.
    pub fn keys(&self) -> &[(PartitionKey, usize)] {
        &self.keys
    }

    /// Embedding dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    fn rows_of(&self, key: PartitionKey) -> usize {
        self.keys
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, rows)| *rows)
            .unwrap_or_else(|| panic!("unknown partition key {key:?}"))
    }

    /// The deterministic initial contents of `key` — every process that
    /// derives the layout from the same schema and config computes the
    /// same floats.
    ///
    /// # Panics
    ///
    /// Panics if the key is not part of this layout.
    pub fn init(&self, key: PartitionKey) -> PartitionData {
        let rows = self.rows_of(key);
        // derive a distinct seed per partition
        let seed = self
            .seed
            .wrapping_mul(0x9E3779B97F4A7C15)
            .wrapping_add(((key.entity_type.0 as u64) << 32) | key.partition.0 as u64);
        PartitionData::init(rows, self.dim, self.lr, self.init_scale, seed)
    }
}

/// Keeps every partition resident — the paper's 1-partition /
/// unpartitioned regime.
#[derive(Debug)]
pub struct InMemoryStore {
    layout: StoreLayout,
    partitions: HashMap<PartitionKey, Arc<PartitionData>>,
    bytes: usize,
}

impl InMemoryStore {
    /// Allocates and initializes all partitions.
    pub fn new(layout: StoreLayout) -> Self {
        Self::with_telemetry(layout, &Registry::new())
    }

    /// Allocates all partitions, publishing resident bytes into
    /// `telemetry` so epoch reports derived from registry snapshots see
    /// this store's footprint.
    pub fn with_telemetry(layout: StoreLayout, telemetry: &Registry) -> Self {
        let mut partitions = HashMap::new();
        let mut bytes = 0;
        for (key, _) in layout.keys().to_vec() {
            let data = Arc::new(layout.init(key));
            bytes += data.bytes();
            partitions.insert(key, data);
        }
        telemetry
            .gauge(metric::STORE_RESIDENT_BYTES)
            .set(bytes as u64);
        telemetry
            .gauge(metric::STORE_RESIDENT_PARTITIONS)
            .set(partitions.len() as u64);
        InMemoryStore {
            layout,
            partitions,
            bytes,
        }
    }

    /// The layout this store was built from.
    pub fn layout(&self) -> &StoreLayout {
        &self.layout
    }
}

impl PartitionStore for InMemoryStore {
    fn load(&self, key: PartitionKey) -> Arc<PartitionData> {
        Arc::clone(
            self.partitions
                .get(&key)
                .unwrap_or_else(|| panic!("unknown partition key {key:?}")),
        )
    }

    fn release(&self, _key: PartitionKey) {}

    fn resident_bytes(&self) -> usize {
        self.bytes
    }

    fn peak_bytes(&self) -> usize {
        self.bytes
    }

    fn swap_ins(&self) -> usize {
        0
    }

    fn load_all(&self) {}
}

/// Requests handled by the [`DiskStore`] background I/O thread.
enum IoMsg {
    /// Read `key` from disk (or initialize it) into the prefetch buffer.
    Prefetch(PartitionKey),
    /// Write a released partition back to its file.
    WriteBack(PartitionKey, Arc<PartitionData>),
    /// Drain remaining messages were already processed (FIFO); exit.
    Shutdown,
}

/// Map state of a [`DiskStore`], guarded by one mutex.
#[derive(Default)]
struct SwapState {
    /// Partitions checked out by the trainer (the logical resident set).
    resident: HashMap<PartitionKey, Arc<PartitionData>>,
    /// Completed prefetches not yet claimed by a `load`.
    prefetched: HashMap<PartitionKey, Arc<PartitionData>>,
    /// Prefetches requested but not yet completed.
    inflight: HashSet<PartitionKey>,
    /// Released partitions whose write-back has not finished; consulted
    /// before any disk read so correctness never depends on flush timing.
    dirty: HashMap<PartitionKey, Arc<PartitionData>>,
    /// Queued-or-in-progress write-backs per key. A file is only read
    /// when its key has no pending writes, so reads never race writes.
    pending_writes: HashMap<PartitionKey, usize>,
    /// Keys whose resident data was mutated since load (the per-partition
    /// dirty bit). Consumed by `release`: set → write back, unset → the
    /// disk copy (or the deterministic init) already matches, skip.
    mutated: HashSet<PartitionKey>,
}

/// State shared between the front end and the background I/O thread.
///
/// The I/O counters are telemetry handles registered under the
/// [`pbg_telemetry::metrics::names`] metric names: the store's own
/// accessors, the trainer's epoch reports, the Prometheus dump, and the
/// JSONL trace all read the same atomics.
struct DiskShared {
    layout: StoreLayout,
    dir: PathBuf,
    state: Mutex<SwapState>,
    /// Signaled by the I/O thread when an in-flight prefetch completes.
    ready: Condvar,
    telemetry: Registry,
    resident_bytes: Gauge,
    resident_partitions: Gauge,
    io_queue_depth: Gauge,
    swap_ins: Counter,
    evictions: Counter,
    prefetch_hits: Counter,
    swap_wait_ns: Counter,
    bytes_written_back: Counter,
    writeback_skipped: Counter,
    /// Encoded bytes actually moved to/from swap files. At f32 this
    /// equals the float traffic; at f16/int8 it is the compressed size,
    /// so the gap to `bytes_written_back` is the quantization win.
    swap_bytes: Counter,
}

impl DiskShared {
    fn path_of(&self, key: PartitionKey) -> PathBuf {
        self.dir
            .join(format!("et{}_p{}.emb", key.entity_type, key.partition))
    }

    fn read_from_disk(&self, key: PartitionKey) -> Result<Option<PartitionData>> {
        let path = self.path_of(key);
        if !path.exists() {
            return Ok(None);
        }
        let bytes = std::fs::read(&path)?;
        let rows = self.layout.rows_of(key);
        let dim = self.layout.dim;
        let precision = self.layout.precision;
        // encoded embedding block (precision-dependent width) followed
        // by the rows f32 Adagrad accumulators, which never quantize
        let emb_bytes = precision
            .payload_bytes(rows, dim)
            .expect("partition shape overflows");
        let expect = emb_bytes + rows * 4;
        if bytes.len() != expect {
            return Err(PbgError::Checkpoint(format!(
                "partition file {} has {} bytes, expected {expect}",
                path.display(),
                bytes.len()
            )));
        }
        self.swap_bytes.add(bytes.len() as u64);
        let emb = quant::decode_rows(precision, &bytes[..emb_bytes], rows, dim)
            .map_err(PbgError::Checkpoint)?;
        let acc: Vec<f32> = bytes[emb_bytes..]
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect();
        Ok(Some(PartitionData::from_parts(
            rows,
            dim,
            self.layout.lr,
            emb,
            &acc,
        )))
    }

    fn read_or_init(&self, key: PartitionKey) -> PartitionData {
        match self
            .read_from_disk(key)
            .expect("disk store read failed; inspect the store directory")
        {
            Some(d) => d,
            None => self.layout.init(key),
        }
    }

    fn write_to_disk(&self, key: PartitionKey, data: &PartitionData) -> Result<()> {
        let rows = self.layout.rows_of(key);
        let dim = self.layout.dim;
        let emb = data.embeddings.to_vec();
        let mut bytes = Vec::new();
        quant::encode_rows(self.layout.precision, &emb, rows, dim, &mut bytes);
        for f in data.adagrad.to_vec() {
            bytes.extend_from_slice(&f.to_le_bytes());
        }
        self.swap_bytes.add(bytes.len() as u64);
        // write-then-rename so a crash mid-swap leaves the old complete
        // partition file, never a torn one (`read_from_disk`'s size check
        // would otherwise abort a restarted run pointed at this dir). No
        // fsync: swap files are scratch state — durability is the
        // checkpoint's job, and syncing every write-back would serialize
        // the pipelined I/O thread on the disk.
        let path = self.path_of(key);
        let tmp = path.with_extension("emb.tmp");
        std::fs::write(&tmp, bytes)?;
        std::fs::rename(&tmp, &path)?;
        Ok(())
    }

    fn track_load(&self, bytes: usize) {
        self.resident_bytes.add(bytes as u64);
        self.resident_partitions.add(1);
    }

    /// Field list identifying a partition in trace events.
    fn key_fields(key: PartitionKey) -> Vec<(&'static str, pbg_telemetry::FieldValue)> {
        vec![
            ("et", key.entity_type.0.into()),
            ("part", key.partition.0.into()),
        ]
    }
}

/// Background loop: prefetch reads and write-backs, strictly FIFO.
///
/// FIFO matters: a `WriteBack(k)` enqueued before a `Prefetch(k)` is
/// always written before the prefetch reads the file, so a prefetch
/// after a release observes the released data.
fn io_loop(shared: Arc<DiskShared>, rx: channel::Receiver<IoMsg>) {
    while let Ok(msg) = rx.recv() {
        match msg {
            IoMsg::Shutdown => break,
            IoMsg::WriteBack(key, data) => {
                let mut span = if shared.telemetry.tracing() {
                    let mut s = shared
                        .telemetry
                        .span_with(span_name::WRITE_BACK, DiskShared::key_fields(key));
                    s.field("queue", shared.io_queue_depth.get());
                    s
                } else {
                    pbg_telemetry::SpanGuard::noop()
                };
                shared
                    .write_to_disk(key, &data)
                    .expect("disk store write failed; inspect the store directory");
                let bytes = data.bytes() as u64;
                span.field("bytes", bytes);
                drop(span);
                shared.bytes_written_back.add(bytes);
                shared.io_queue_depth.sub(1);
                let mut st = shared.state.lock();
                let count = st
                    .pending_writes
                    .get_mut(&key)
                    .expect("write-back without pending counter");
                *count -= 1;
                if *count == 0 {
                    // No newer write-back queued: the file now holds the
                    // latest released contents, the memory copy can go.
                    st.pending_writes.remove(&key);
                    st.dirty.remove(&key);
                }
            }
            IoMsg::Prefetch(key) => {
                if !shared.state.lock().inflight.contains(&key) {
                    shared.io_queue_depth.sub(1);
                    continue; // satisfied or canceled in the meantime
                }
                let mut span = if shared.telemetry.tracing() {
                    shared
                        .telemetry
                        .span_with(span_name::PREFETCH_READ, DiskShared::key_fields(key))
                } else {
                    pbg_telemetry::SpanGuard::noop()
                };
                let data = Arc::new(shared.read_or_init(key));
                span.field("bytes", data.bytes() as u64);
                drop(span);
                shared.io_queue_depth.sub(1);
                let mut st = shared.state.lock();
                if st.inflight.remove(&key) {
                    st.prefetched.insert(key, data);
                }
                drop(st);
                shared.ready.notify_all();
            }
        }
    }
}

/// Swaps partitions to files under a directory, keeping only loaded ones
/// resident.
///
/// In the default *pipelined* mode a background I/O thread serves
/// [`PartitionStore::prefetch`] requests and write-backs, double-buffering
/// the next bucket's partitions while the current one trains. The
/// *synchronous* mode ([`DiskStore::new_sync`]) performs all I/O on the
/// calling thread, exactly like the pre-pipeline implementation; both
/// modes produce bit-identical training results (the only difference is
/// *when* bytes move, never *which* bytes a `load` observes).
///
/// `resident_bytes`/`peak_bytes` gauge the partitions checked out by the
/// trainer; transient double-buffers (completed prefetches, write-back
/// queue) are excluded so the metric keeps meaning "working set of the
/// training loop" across both modes.
pub struct DiskStore {
    shared: Arc<DiskShared>,
    /// `Some` in pipelined mode: request channel + thread handle.
    io: Option<(channel::Sender<IoMsg>, std::thread::JoinHandle<()>)>,
}

impl std::fmt::Debug for DiskStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DiskStore")
            .field("dir", &self.shared.dir)
            .field("pipelined", &self.io.is_some())
            .finish()
    }
}

impl DiskStore {
    /// Creates a pipelined disk-backed store under `dir` (created if
    /// missing), spawning the background I/O thread.
    ///
    /// # Errors
    ///
    /// Returns an error if the directory cannot be created.
    pub fn new(layout: StoreLayout, dir: impl Into<PathBuf>) -> Result<Self> {
        Self::with_telemetry(layout, dir, &Registry::new())
    }

    /// Like [`DiskStore::new`], with I/O counters registered in (and
    /// trace events recorded into) `telemetry`.
    ///
    /// # Errors
    ///
    /// Returns an error if the directory cannot be created.
    pub fn with_telemetry(
        layout: StoreLayout,
        dir: impl Into<PathBuf>,
        telemetry: &Registry,
    ) -> Result<Self> {
        Self::with_telemetry_pinned(layout, dir, telemetry, false)
    }

    /// Like [`DiskStore::with_telemetry`]; when `pin_io` is set, the
    /// background I/O thread pins itself to [`CorePlan::io_core`] (the
    /// last allowed core) so prefetch/write-back never preempts the
    /// HOGWILD workers on the low cores mid-chunk. Best-effort: a
    /// rejected mask logs and runs unpinned.
    ///
    /// [`CorePlan::io_core`]: pbg_tensor::affinity::CorePlan::io_core
    ///
    /// # Errors
    ///
    /// Returns an error if the directory cannot be created.
    pub fn with_telemetry_pinned(
        layout: StoreLayout,
        dir: impl Into<PathBuf>,
        telemetry: &Registry,
        pin_io: bool,
    ) -> Result<Self> {
        let mut store = Self::new_sync_with_telemetry(layout, dir, telemetry)?;
        let (tx, rx) = channel::unbounded();
        let shared = Arc::clone(&store.shared);
        let thread = std::thread::Builder::new()
            .name("pbg-disk-io".into())
            .spawn(move || {
                if pin_io {
                    let plan = pbg_tensor::affinity::CorePlan::detect();
                    if let Err(e) = pbg_tensor::affinity::pin_current_thread(plan.io_core()) {
                        eprintln!("pbg-core: disk I/O thread not pinned: {e}");
                    }
                }
                io_loop(shared, rx)
            })
            .expect("spawn disk I/O thread");
        store.io = Some((tx, thread));
        Ok(store)
    }

    /// Creates a synchronous store: every read and write-back happens on
    /// the calling thread ([`PartitionStore::prefetch`] is a no-op).
    /// Kept as the reference implementation for equivalence tests and
    /// the swap benchmark.
    ///
    /// # Errors
    ///
    /// Returns an error if the directory cannot be created.
    pub fn new_sync(layout: StoreLayout, dir: impl Into<PathBuf>) -> Result<Self> {
        Self::new_sync_with_telemetry(layout, dir, &Registry::new())
    }

    /// Like [`DiskStore::new_sync`], with I/O counters registered in
    /// `telemetry`.
    ///
    /// # Errors
    ///
    /// Returns an error if the directory cannot be created.
    pub fn new_sync_with_telemetry(
        layout: StoreLayout,
        dir: impl Into<PathBuf>,
        telemetry: &Registry,
    ) -> Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(DiskStore {
            shared: Arc::new(DiskShared {
                layout,
                dir,
                state: Mutex::new(SwapState::default()),
                ready: Condvar::new(),
                telemetry: telemetry.clone(),
                resident_bytes: telemetry.gauge(metric::STORE_RESIDENT_BYTES),
                resident_partitions: telemetry.gauge(metric::STORE_RESIDENT_PARTITIONS),
                io_queue_depth: telemetry.gauge(metric::STORE_IO_QUEUE_DEPTH),
                swap_ins: telemetry.counter(metric::STORE_SWAP_INS),
                evictions: telemetry.counter(metric::STORE_EVICTIONS),
                prefetch_hits: telemetry.counter(metric::STORE_PREFETCH_HITS),
                swap_wait_ns: telemetry.counter(metric::STORE_SWAP_WAIT_NS),
                bytes_written_back: telemetry.counter(metric::STORE_BYTES_WRITTEN_BACK),
                writeback_skipped: telemetry.counter(metric::STORE_WRITEBACK_SKIPPED_BYTES),
                swap_bytes: telemetry.counter(metric::STORE_SWAP_BYTES),
            }),
            io: None,
        })
    }

    /// `true` when the background I/O thread is active.
    pub fn is_pipelined(&self) -> bool {
        self.io.is_some()
    }

    /// Encoded bytes actually moved to/from swap files so far (both
    /// directions). At f32 precision this equals the float traffic; at
    /// f16/int8 it is the compressed size.
    pub fn swap_file_bytes(&self) -> u64 {
        self.shared.swap_bytes.get()
    }
}

impl Drop for DiskStore {
    fn drop(&mut self) {
        if let Some((tx, thread)) = self.io.take() {
            // FIFO: all queued write-backs flush before Shutdown lands.
            let _ = tx.send(IoMsg::Shutdown);
            let _ = thread.join();
        }
    }
}

impl PartitionStore for DiskStore {
    fn load(&self, key: PartitionKey) -> Arc<PartitionData> {
        let shared = &self.shared;
        let mut st = shared.state.lock();
        if let Some(data) = st.resident.get(&key) {
            return Arc::clone(data);
        }
        // Not logically resident: a swap-in however it gets served.
        shared.swap_ins.inc();
        if let Some(data) = st.prefetched.remove(&key) {
            shared.prefetch_hits.inc();
            shared.track_load(data.bytes());
            st.resident.insert(key, Arc::clone(&data));
            return data;
        }
        if st.inflight.contains(&key) {
            // The I/O thread is already reading it; waiting beats
            // issuing a duplicate read. One measurement feeds both the
            // counter and the span, so trace and epoch totals reconcile.
            let t0 = shared.telemetry.now_ns();
            while st.inflight.contains(&key) {
                shared.ready.wait(&mut st);
            }
            let waited = shared.telemetry.now_ns().saturating_sub(t0);
            shared.swap_wait_ns.add(waited);
            if shared.telemetry.tracing() {
                shared.telemetry.record_span(
                    span_name::SWAP_WAIT,
                    t0,
                    waited,
                    DiskShared::key_fields(key),
                );
            }
            if let Some(data) = st.prefetched.remove(&key) {
                shared.prefetch_hits.inc();
                shared.track_load(data.bytes());
                st.resident.insert(key, Arc::clone(&data));
                return data;
            }
        }
        if let Some(data) = st.dirty.remove(&key) {
            // Steal back a partition still queued for write-back: its
            // memory copy is authoritative, no disk round-trip needed.
            shared.track_load(data.bytes());
            st.resident.insert(key, Arc::clone(&data));
            return data;
        }
        // Synchronous fallback: the hot path pays for the read.
        let t0 = shared.telemetry.now_ns();
        let data = Arc::new(shared.read_or_init(key));
        let waited = shared.telemetry.now_ns().saturating_sub(t0);
        shared.swap_wait_ns.add(waited);
        if shared.telemetry.tracing() {
            shared.telemetry.record_span(
                span_name::SWAP_WAIT,
                t0,
                waited,
                DiskShared::key_fields(key),
            );
        }
        shared.track_load(data.bytes());
        st.resident.insert(key, Arc::clone(&data));
        data
    }

    fn release(&self, key: PartitionKey) {
        let shared = &self.shared;
        let mut st = shared.state.lock();
        if let Some(data) = st.resident.remove(&key) {
            shared.resident_bytes.sub(data.bytes() as u64);
            shared.resident_partitions.sub(1);
            shared.evictions.inc();
            if !st.mutated.remove(&key) {
                // Clean eviction: nothing wrote into this partition since
                // it was loaded, so the file (or the deterministic init
                // that would recreate it) already matches byte-for-byte.
                // Snapshot and evaluation passes release every partition
                // through here without costing a single disk write.
                shared.writeback_skipped.add(data.bytes() as u64);
                return;
            }
            match &self.io {
                Some((tx, _)) => {
                    st.dirty.insert(key, Arc::clone(&data));
                    *st.pending_writes.entry(key).or_insert(0) += 1;
                    shared.io_queue_depth.add(1);
                    tx.send(IoMsg::WriteBack(key, data))
                        .expect("disk I/O thread alive");
                }
                None => {
                    let mut span = if shared.telemetry.tracing() {
                        shared
                            .telemetry
                            .span_with(span_name::WRITE_BACK, DiskShared::key_fields(key))
                    } else {
                        pbg_telemetry::SpanGuard::noop()
                    };
                    shared
                        .write_to_disk(key, &data)
                        .expect("disk store write failed; inspect the store directory");
                    span.field("bytes", data.bytes() as u64);
                    shared.bytes_written_back.add(data.bytes() as u64);
                }
            }
        }
    }

    fn prefetch(&self, key: PartitionKey) {
        let Some((tx, _)) = &self.io else {
            return; // synchronous mode: loads do the work
        };
        let mut st = self.shared.state.lock();
        if st.resident.contains_key(&key)
            || st.prefetched.contains_key(&key)
            || st.inflight.contains(&key)
        {
            return;
        }
        if let Some(data) = st.dirty.remove(&key) {
            // Still in memory awaiting write-back: claim it directly.
            st.prefetched.insert(key, data);
            return;
        }
        st.inflight.insert(key);
        self.shared.io_queue_depth.add(1);
        if self.shared.telemetry.tracing() {
            self.shared
                .telemetry
                .point(span_name::PREFETCH_ISSUE, DiskShared::key_fields(key));
        }
        tx.send(IoMsg::Prefetch(key))
            .expect("disk I/O thread alive");
    }

    fn resident_bytes(&self) -> usize {
        self.shared.resident_bytes.get() as usize
    }

    fn peak_bytes(&self) -> usize {
        self.shared.resident_bytes.peak() as usize
    }

    fn swap_ins(&self) -> usize {
        self.shared.swap_ins.get() as usize
    }

    fn prefetch_hits(&self) -> usize {
        self.shared.prefetch_hits.get() as usize
    }

    fn swap_wait_nanos(&self) -> u64 {
        self.shared.swap_wait_ns.get()
    }

    fn bytes_written_back(&self) -> u64 {
        self.shared.bytes_written_back.get()
    }

    fn mark_dirty(&self, key: PartitionKey) {
        self.shared.state.lock().mutated.insert(key);
    }

    fn writeback_skipped_bytes(&self) -> u64 {
        self.shared.writeback_skipped.get()
    }

    fn load_all(&self) {
        for (key, _) in self.shared.layout.keys().to_vec() {
            let _ = self.load(key);
        }
    }
}

// ---------------------------------------------------------------------
// Memory-mapped read-only shards (the serving tier's storage)
// ---------------------------------------------------------------------

/// Raw read-only mapping of a whole file. On unix this is a real
/// `mmap(2)` (pages fault in on demand, evictable under memory
/// pressure, shared between server processes); elsewhere it falls back
/// to a heap read so the API stays portable.
#[derive(Debug)]
enum MapBacking {
    #[cfg(unix)]
    Mmap {
        ptr: *const u8,
        len: usize,
    },
    Heap(Vec<u8>),
}

// The mapping is immutable for its whole lifetime (PROT_READ, private),
// so sharing the pointer across serving threads is sound.
unsafe impl Send for MapBacking {}
unsafe impl Sync for MapBacking {}

impl MapBacking {
    #[cfg(unix)]
    fn open(path: &std::path::Path) -> Result<MapBacking> {
        use std::os::unix::io::AsRawFd;
        // values from the Linux ABI (identical on the BSDs/macOS); no
        // libc crate in the dependency tree, so spell them out
        const PROT_READ: i32 = 1;
        const MAP_PRIVATE: i32 = 2;
        extern "C" {
            fn mmap(
                addr: *mut std::ffi::c_void,
                len: usize,
                prot: i32,
                flags: i32,
                fd: i32,
                offset: i64,
            ) -> *mut std::ffi::c_void;
        }
        let file = std::fs::File::open(path)?;
        let len = file.metadata()?.len() as usize;
        if len == 0 {
            // mmap(2) rejects zero-length maps; an empty file is never a
            // valid shard anyway, so surface it as such
            return Ok(MapBacking::Heap(Vec::new()));
        }
        let ptr = unsafe {
            mmap(
                std::ptr::null_mut(),
                len,
                PROT_READ,
                MAP_PRIVATE,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr as isize == -1 {
            return Err(PbgError::Io(std::io::Error::last_os_error()));
        }
        Ok(MapBacking::Mmap {
            ptr: ptr as *const u8,
            len,
        })
    }

    #[cfg(not(unix))]
    fn open(path: &std::path::Path) -> Result<MapBacking> {
        Ok(MapBacking::Heap(std::fs::read(path)?))
    }

    fn bytes(&self) -> &[u8] {
        match self {
            #[cfg(unix)]
            MapBacking::Mmap { ptr, len } => unsafe { std::slice::from_raw_parts(*ptr, *len) },
            MapBacking::Heap(v) => v,
        }
    }
}

impl Drop for MapBacking {
    fn drop(&mut self) {
        #[cfg(unix)]
        if let MapBacking::Mmap { ptr, len } = *self {
            extern "C" {
                fn munmap(addr: *mut std::ffi::c_void, len: usize) -> i32;
            }
            unsafe {
                munmap(ptr as *mut std::ffi::c_void, len);
            }
        }
    }
}

/// A read-only, memory-mapped embedding shard (one checkpoint
/// `embeddings_{t}.bin`). f32 (v2) rows are served straight out of the
/// mapping — no row is ever copied to the heap — so a model larger than
/// RAM serves from one box, paging embeddings in on demand. Quantized
/// (v3) rows decode on access: the *mapping* stays compressed, only the
/// row being scored materializes as f32.
///
/// Checkpoint binary v2 and v3 payloads are little-endian, so the
/// mapped bytes are directly addressable.
#[derive(Debug)]
pub struct MmapPartition {
    backing: MapBacking,
    rows: usize,
    cols: usize,
    precision: Precision,
}

impl MmapPartition {
    /// Maps `path` and validates its header and size: magic, version,
    /// matrix kind, and that the file holds exactly `rows × cols` floats
    /// — a shard shorter than its own header's shape is refused with an
    /// error naming the file.
    ///
    /// # Errors
    ///
    /// Returns [`PbgError::Checkpoint`] for format violations and
    /// propagates I/O failures.
    pub fn open(path: &std::path::Path) -> Result<MmapPartition> {
        let name = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| path.display().to_string());
        let backing = MapBacking::open(path)?;
        let shard = Self::from_backing(backing)
            .map_err(|e| PbgError::Checkpoint(format!("{name}: {e}")))?;
        Ok(shard)
    }

    fn from_backing(backing: MapBacking) -> std::result::Result<MmapPartition, String> {
        let bytes = backing.bytes();
        let header_len = crate::checkpoint::MATRIX_PAYLOAD_OFFSET;
        if bytes.len() < header_len {
            return Err(format!(
                "file truncated: {} bytes, matrix header needs {header_len}",
                bytes.len()
            ));
        }
        let mut head = &bytes[..header_len];
        let header = crate::checkpoint::read_header(&mut head).map_err(|e| e.to_string())?;
        if header.kind != 0 {
            return Err("not a matrix payload".into());
        }
        let rows = u64::from_be_bytes(bytes[8..16].try_into().expect("8 bytes")) as usize;
        let cols = u64::from_be_bytes(bytes[16..24].try_into().expect("8 bytes")) as usize;
        // element width from the header, so v3 shards (2- and 1-byte
        // elements plus the int8 scale block) size-check correctly and
        // shortfalls report true byte counts
        let payload = header
            .precision
            .payload_bytes(rows, cols)
            .ok_or_else(|| "matrix dimensions overflow".to_string())?;
        let expect = header_len + payload;
        if bytes.len() != expect {
            return Err(format!(
                "matrix shape {rows}x{cols} needs {expect} bytes, file has {}",
                bytes.len()
            ));
        }
        Ok(MmapPartition {
            backing,
            rows,
            cols,
            precision: header.precision,
        })
    }

    /// Number of embedding rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Embedding dimension.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Storage precision of the mapped payload.
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// The whole mapped file, for manifest checksum verification —
    /// hashed in place, never copied.
    pub fn file_bytes(&self) -> &[u8] {
        self.backing.bytes()
    }

    /// The encoded payload bytes after the 24-byte header.
    pub fn payload_bytes(&self) -> &[u8] {
        &self.backing.bytes()[crate::checkpoint::MATRIX_PAYLOAD_OFFSET..]
    }

    /// All `rows × cols` floats, row-major, straight from the mapping.
    /// Only f32 (v2) shards expose their payload this way; quantized
    /// shards return an error and decode through [`MmapPartition::row`]
    /// / [`MmapPartition::decode_rows_into`] instead.
    pub fn payload(&self) -> Result<&[f32]> {
        if self.precision != Precision::F32 {
            return Err(PbgError::Checkpoint(format!(
                "cannot reinterpret a {} shard as &[f32]; decode rows instead",
                self.precision
            )));
        }
        let bytes = &self.backing.bytes()[crate::checkpoint::MATRIX_PAYLOAD_OFFSET..];
        // a page-aligned mapping plus the 24-byte header keeps the
        // payload 4-byte aligned; the heap fallback re-checks at runtime
        debug_assert_eq!(bytes.as_ptr() as usize % std::mem::align_of::<f32>(), 0);
        if (bytes.as_ptr() as usize).is_multiple_of(std::mem::align_of::<f32>()) {
            Ok(unsafe {
                std::slice::from_raw_parts(bytes.as_ptr().cast::<f32>(), self.rows * self.cols)
            })
        } else {
            // unreachable on unix (page alignment); on the heap fallback
            // Vec<u8> allocations are 4-aligned in practice, but the
            // format must not depend on that — leak-free fallback would
            // require a decode cache, which the portability shim does
            // not justify. Report instead of UB.
            Err(PbgError::Checkpoint(
                "unaligned embedding payload; cannot reinterpret as f32".to_string(),
            ))
        }
    }

    /// Row `i`: zero-copy (borrowed straight from the mapping) for f32
    /// shards, decoded to an owned f32 buffer for quantized shards.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows()`.
    pub fn row(&self, i: usize) -> Cow<'_, [f32]> {
        assert!(i < self.rows, "row {i} out of range ({} rows)", self.rows);
        if self.precision == Precision::F32 {
            let payload = self.payload().expect("f32 shard payload");
            Cow::Borrowed(&payload[i * self.cols..(i + 1) * self.cols])
        } else {
            let mut out = vec![0.0f32; self.cols];
            quant::decode_row_into(
                self.precision,
                self.payload_bytes(),
                self.rows,
                self.cols,
                i,
                &mut out,
            )
            .expect("shard validated at open");
            Cow::Owned(out)
        }
    }

    /// Decodes rows `[start, start + n)` into `out` (`n * cols` floats),
    /// at any precision. The bulk path for streaming scans
    /// ([`crate::model::MmapEmbeddings::top_destinations`]): one scratch
    /// buffer amortizes across a whole block instead of allocating per
    /// row.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds `rows()` or `out` is misshapen.
    pub fn decode_rows_into(&self, start: usize, n: usize, out: &mut [f32]) {
        assert!(
            start + n <= self.rows,
            "rows {start}..{} out of range",
            start + n
        );
        assert_eq!(out.len(), n * self.cols, "output buffer shape mismatch");
        if self.precision == Precision::F32 {
            let payload = self.payload().expect("f32 shard payload");
            out.copy_from_slice(&payload[start * self.cols..(start + n) * self.cols]);
            return;
        }
        let bytes = self.payload_bytes();
        for (j, row) in out.chunks_exact_mut(self.cols).enumerate() {
            quant::decode_row_into(self.precision, bytes, self.rows, self.cols, start + j, row)
                .expect("shard validated at open");
        }
    }

    /// Bytes of embedding data reachable through this shard (the mapped
    /// payload — resident only as far as the page cache decides).
    pub fn mapped_bytes(&self) -> usize {
        self.backing.bytes().len()
    }
}

/// Quantized shards decode each gathered row on fetch; f32 shards are
/// better read through [`pbg_tensor::kernels::DenseRows`] over
/// [`MmapPartition::payload`], which also prefetches.
impl pbg_tensor::kernels::GatherRows for MmapPartition {
    fn copy_row(&self, id: u32, dst: &mut [f32]) {
        self.decode_rows_into(id as usize, 1, dst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbg_graph::schema::{EntityTypeDef, GraphSchema, RelationTypeDef};

    fn schema(p: u32) -> GraphSchema {
        GraphSchema::builder()
            .entity_type(EntityTypeDef::new("node", 100).with_partitions(p))
            .relation_type(RelationTypeDef::new("edge", 0u32, 0u32))
            .build()
            .unwrap()
    }

    fn layout(p: u32) -> StoreLayout {
        StoreLayout::from_schema(&schema(p), 8, 0.1, 0.1, 42)
    }

    #[test]
    fn layout_covers_all_partitions() {
        let l = layout(4);
        assert_eq!(l.keys().len(), 4);
        let total_rows: usize = l.keys().iter().map(|(_, r)| r).sum();
        assert_eq!(total_rows, 100);
    }

    #[test]
    fn in_memory_load_is_stable() {
        let store = InMemoryStore::new(layout(2));
        let key = PartitionKey::new(0u32, 0u32);
        let a = store.load(key);
        a.embeddings.set(0, 0, 123.0);
        store.release(key);
        let b = store.load(key);
        assert_eq!(b.embeddings.get(0, 0), 123.0);
        assert_eq!(store.swap_ins(), 0);
    }

    #[test]
    fn init_is_deterministic_and_distinct_per_partition() {
        let s1 = InMemoryStore::new(layout(2));
        let s2 = InMemoryStore::new(layout(2));
        let k0 = PartitionKey::new(0u32, 0u32);
        let k1 = PartitionKey::new(0u32, 1u32);
        assert_eq!(
            s1.load(k0).embeddings.to_vec(),
            s2.load(k0).embeddings.to_vec()
        );
        assert_ne!(
            s1.load(k0).embeddings.to_vec(),
            s1.load(k1).embeddings.to_vec()
        );
    }

    #[test]
    fn disk_store_roundtrips_through_release() {
        let dir = std::env::temp_dir().join(format!("pbg_disk_{}", std::process::id()));
        let store = DiskStore::new(layout(2), &dir).unwrap();
        let key = PartitionKey::new(0u32, 1u32);
        let data = store.load(key);
        data.embeddings.set(3, 2, 7.5);
        let _ = data.adagrad.step_size(3, &[1.0; 8]);
        drop(data);
        store.mark_dirty(key);
        store.release(key);
        assert_eq!(store.resident_bytes(), 0);
        let back = store.load(key);
        assert_eq!(back.embeddings.get(3, 2), 7.5);
        assert!(back.adagrad.accumulator(3) > 0.0, "adagrad state persisted");
        assert_eq!(store.swap_ins(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn disk_store_tracks_peak() {
        let dir = std::env::temp_dir().join(format!("pbg_disk_peak_{}", std::process::id()));
        let store = DiskStore::new(layout(4), &dir).unwrap();
        let k0 = PartitionKey::new(0u32, 0u32);
        let k1 = PartitionKey::new(0u32, 1u32);
        let _a = store.load(k0);
        let one = store.resident_bytes();
        let _b = store.load(k1);
        let two = store.resident_bytes();
        assert!(two > one);
        store.release(k0);
        store.release(k1);
        assert_eq!(store.resident_bytes(), 0);
        assert_eq!(store.peak_bytes(), two, "peak is the high-water mark");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_all_brings_everything_in() {
        let dir = std::env::temp_dir().join(format!("pbg_disk_all_{}", std::process::id()));
        let store = DiskStore::new(layout(4), &dir).unwrap();
        store.load_all();
        assert_eq!(store.swap_ins(), 4);
        // idempotent
        store.load_all();
        assert_eq!(store.swap_ins(), 4);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn prefetch_serves_later_load() {
        let dir = std::env::temp_dir().join(format!("pbg_disk_pf_{}", std::process::id()));
        let store = DiskStore::new(layout(4), &dir).unwrap();
        assert!(store.is_pipelined());
        let key = PartitionKey::new(0u32, 2u32);
        store.prefetch(key);
        let data = store.load(key);
        assert_eq!(store.prefetch_hits(), 1, "load served by the prefetch");
        assert_eq!(store.swap_ins(), 1, "prefetch hits still count as swap-ins");
        assert!(data.bytes() > 0);
        // duplicate prefetch of a resident key is a no-op
        store.prefetch(key);
        let again = store.load(key);
        assert!(Arc::ptr_eq(&data, &again));
        assert_eq!(store.swap_ins(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn async_write_back_preserves_data() {
        let dir = std::env::temp_dir().join(format!("pbg_disk_wb_{}", std::process::id()));
        let store = DiskStore::new(layout(2), &dir).unwrap();
        let key = PartitionKey::new(0u32, 0u32);
        let data = store.load(key);
        data.embeddings.set(1, 1, -3.25);
        drop(data);
        store.mark_dirty(key);
        store.release(key);
        assert_eq!(store.resident_bytes(), 0);
        // the released copy is found again whether or not the
        // background write has landed yet
        let back = store.load(key);
        assert_eq!(back.embeddings.get(1, 1), -3.25);
        assert_eq!(store.swap_ins(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn drop_flushes_write_backs_to_disk() {
        let dir = std::env::temp_dir().join(format!("pbg_disk_fl_{}", std::process::id()));
        let key = PartitionKey::new(0u32, 1u32);
        {
            let store = DiskStore::new(layout(2), &dir).unwrap();
            let data = store.load(key);
            data.embeddings.set(0, 3, 9.75);
            drop(data);
            store.mark_dirty(key);
            store.release(key);
        } // drop joins the I/O thread after the queue drains
        let store = DiskStore::new_sync(layout(2), &dir).unwrap();
        assert!(!store.is_pipelined());
        assert_eq!(store.load(key).embeddings.get(0, 3), 9.75);
        assert_eq!(store.prefetch_hits(), 0, "sync mode never prefetches");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn released_then_prefetched_key_keeps_latest_contents() {
        let dir = std::env::temp_dir().join(format!("pbg_disk_st_{}", std::process::id()));
        let store = DiskStore::new(layout(4), &dir).unwrap();
        let key = PartitionKey::new(0u32, 3u32);
        let data = store.load(key);
        data.embeddings.set(2, 0, 1.5);
        drop(data);
        store.mark_dirty(key);
        store.release(key);
        // prefetch immediately after release: claims the in-memory copy
        store.prefetch(key);
        let back = store.load(key);
        assert_eq!(back.embeddings.get(2, 0), 1.5);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn clean_release_skips_write_back() {
        let dir = std::env::temp_dir().join(format!("pbg_disk_clean_{}", std::process::id()));
        let store = DiskStore::new(layout(2), &dir).unwrap();
        let key = PartitionKey::new(0u32, 0u32);
        let data = store.load(key);
        let bytes = data.bytes() as u64;
        drop(data);
        store.release(key); // never marked dirty
        assert_eq!(store.writeback_skipped_bytes(), bytes);
        assert_eq!(store.bytes_written_back(), 0);
        // reload re-derives the identical deterministic init
        let again = store.load(key);
        let reference = layout(2).init(key);
        assert_eq!(again.embeddings.to_vec(), reference.embeddings.to_vec());
        drop(store); // flush: nothing was queued, no file appears
        assert!(
            !dir.join("et0_p0.emb").exists(),
            "clean release must not touch disk"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn dirty_bit_clears_after_release() {
        let dir = std::env::temp_dir().join(format!("pbg_disk_bit_{}", std::process::id()));
        let store = DiskStore::new_sync(layout(2), &dir).unwrap();
        let key = PartitionKey::new(0u32, 0u32);
        let data = store.load(key);
        data.embeddings.set(0, 0, 42.0);
        drop(data);
        store.mark_dirty(key);
        store.release(key); // writes, consuming the dirty bit
        let written = store.bytes_written_back();
        assert!(written > 0);
        // read-only round trip: the mutation survives, no second write
        let back = store.load(key);
        assert_eq!(back.embeddings.get(0, 0), 42.0);
        drop(back);
        store.release(key);
        assert_eq!(
            store.bytes_written_back(),
            written,
            "clean pass wrote nothing"
        );
        assert!(store.writeback_skipped_bytes() > 0);
        assert_eq!(store.load(key).embeddings.get(0, 0), 42.0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resident_partition_gauge_and_evictions() {
        let dir = std::env::temp_dir().join(format!("pbg_disk_gauge_{}", std::process::id()));
        let reg = Registry::new();
        let store = DiskStore::with_telemetry(layout(4), &dir, &reg).unwrap();
        let k0 = PartitionKey::new(0u32, 0u32);
        let k1 = PartitionKey::new(0u32, 1u32);
        let _a = store.load(k0);
        let _b = store.load(k1);
        let gauge = reg.gauge(metric::STORE_RESIDENT_PARTITIONS);
        assert_eq!(gauge.get(), 2);
        store.release(k0);
        assert_eq!(gauge.get(), 1);
        assert_eq!(gauge.peak(), 2);
        store.release(k1);
        assert_eq!(gauge.get(), 0);
        assert_eq!(reg.counter(metric::STORE_EVICTIONS).get(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn multi_entity_type_layout() {
        let schema = GraphSchema::builder()
            .entity_type(EntityTypeDef::new("user", 100).with_partitions(4))
            .entity_type(EntityTypeDef::new("item", 10))
            .relation_type(RelationTypeDef::new("buys", 0u32, 1u32))
            .build()
            .unwrap();
        let l = StoreLayout::from_schema(&schema, 4, 0.1, 0.1, 1);
        assert_eq!(l.keys().len(), 5, "4 user parts + 1 item part");
    }
}
