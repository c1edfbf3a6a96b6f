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
use crate::shard;
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
use std::collections::{HashMap, HashSet, VecDeque};
use std::io::Write;
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

/// Every `(key, rows)` of `schema`: entity types in order, partitions in
/// order within each — the order of [`StoreLayout::keys`] and of a
/// checkpoint's shards.
pub fn partition_keys(schema: &GraphSchema) -> Vec<(PartitionKey, usize)> {
    let mut keys = Vec::new();
    for (t, def) in schema.entity_types().iter().enumerate() {
        let partitioning = EntityPartitioning::new(def.num_entities(), def.num_partitions());
        for p in partitioning.partitions() {
            let rows = partitioning.partition_size(p) as usize;
            keys.push((PartitionKey::new(t as u32, p), rows));
        }
    }
    keys
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
        StoreLayout {
            keys: partition_keys(schema),
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

/// Outcome of one swap read or write; the error names the file and the
/// cause, and is what the store panics with.
type IoResult<T> = std::result::Result<T, String>;

/// Requests handled by the [`DiskStore`] background I/O thread.
enum IoMsg {
    /// Read `key` from disk (or initialize it) into the prefetch buffer.
    Prefetch(PartitionKey),
    /// Write a released partition back to its file.
    WriteBack(PartitionKey, Arc<PartitionData>),
    /// Land every queued write-back, drop queued reads, and exit.
    Shutdown,
}

/// The kind of queued request the I/O thread serves next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum IoJob {
    Read,
    WriteBack,
}

/// The I/O thread's pick rule, given how many reads and write-backs are
/// queued. A read goes first — the next bucket blocks on it, nothing
/// waits on a write-back — but only while at most one write-back is
/// queued; past that, write-backs drain first. So released copies wait in
/// memory for at most one partition more than under FIFO, and a slow disk
/// throttles the trainer instead of growing the queue.
fn next_job(reads: usize, write_backs: usize) -> Option<IoJob> {
    match (reads, write_backs) {
        (0, 0) => None,
        (1.., 0..=1) => Some(IoJob::Read),
        _ => Some(IoJob::WriteBack),
    }
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
    /// Keys whose shard this store has written. Only these are ever read
    /// back; every other key starts from its deterministic init, whatever
    /// an earlier run left in the directory.
    stored: HashSet<PartitionKey>,
    /// The I/O thread's first read or write error. The thread exits on
    /// it, and every later call on the store panics with it.
    failed: Option<String>,
}

impl SwapState {
    /// Panics with the I/O thread's error once it has failed, so the
    /// caller fails on its own thread instead of waiting on a dead one.
    fn check_io(&self) {
        if let Some(e) = &self.failed {
            panic!("{e}");
        }
    }
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

/// File name of `key`'s swap shard: the bytes of [`shard::encode`] under
/// a name no checkpoint uses, so one directory can hold a swap store and
/// checkpoints without a write-back replacing a committed shard.
pub fn swap_file_name(key: PartitionKey) -> String {
    format!("et{}_p{}.swap", key.entity_type, key.partition)
}

impl DiskShared {
    fn path_of(&self, key: PartitionKey) -> PathBuf {
        self.dir.join(swap_file_name(key))
    }

    /// `key`'s partition: its shard if this store wrote one (`stored`),
    /// else the deterministic init. The error names the file and cause.
    fn read_or_init(&self, key: PartitionKey, stored: bool) -> IoResult<PartitionData> {
        if !stored {
            return Ok(self.layout.init(key));
        }
        let path = self.path_of(key);
        let shard = std::fs::read(&path)
            .map_err(PbgError::from)
            .and_then(|bytes| {
                self.swap_bytes.add(bytes.len() as u64);
                shard::decode(&bytes)
            })
            .map_err(|e| format!("swap shard {} unreadable: {e}", path.display()))?;
        let (rows, cols, precision) = (
            self.layout.rows_of(key),
            self.layout.dim,
            self.layout.precision,
        );
        let want = shard::Header {
            rows,
            cols,
            precision,
        };
        if shard.header != want {
            return Err(format!(
                "swap shard {} has another shape: {:?}, want {want:?}",
                path.display(),
                shard.header
            ));
        }
        Ok(PartitionData::from_parts(
            rows,
            cols,
            self.layout.lr,
            shard.embeddings,
            &shard.accumulators,
        ))
    }

    /// Writes a released partition's shard, traced. `first` is the key's
    /// first write-back in this store. The error names the file and cause.
    ///
    /// Swap files are scratch: a store reads back only shards it wrote
    /// itself, and durability is the checkpoint's job. So the shard is
    /// rewritten in place, with no temp file, rename or fsync: the first
    /// write creates or truncates the file, dropping whatever an earlier
    /// run left there, and every later one overwrites it from offset 0 at
    /// the same length. No read overlaps the write: a key's file is read
    /// only while it has no pending write-back.
    fn write_back(&self, key: PartitionKey, data: &PartitionData, first: bool) -> IoResult<()> {
        let mut span = self.span(span_name::WRITE_BACK, key);
        span.field("queue", self.io_queue_depth.get());
        let mut bytes = Vec::new();
        shard::encode_partition(data, self.layout.precision, &mut bytes);
        self.swap_bytes.add(bytes.len() as u64);
        let path = self.path_of(key);
        std::fs::OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(first)
            .open(&path)
            .and_then(|mut file| file.write_all(&bytes))
            .map_err(|e| format!("disk store write of {} failed: {e}", path.display()))?;
        span.field("bytes", data.bytes() as u64);
        Ok(())
    }

    /// Records the I/O thread's first error, clears the in-flight set
    /// and wakes every waiting `load`, which then panics with the error
    /// on its own thread. The I/O thread exits after this.
    fn fail(&self, e: String) {
        let mut st = self.state.lock();
        st.failed = Some(e);
        st.inflight.clear();
        drop(st);
        self.ready.notify_all();
    }

    /// A span over `key`'s I/O while tracing, else a no-op guard.
    fn span(&self, name: &'static str, key: PartitionKey) -> pbg_telemetry::SpanGuard {
        if self.telemetry.tracing() {
            self.telemetry.span_with(name, Self::key_fields(key))
        } else {
            pbg_telemetry::SpanGuard::noop()
        }
    }

    /// Charges the hot path's wait for `key` since `t0` to the swap-wait
    /// counter and, while tracing, a span: one measurement feeds both, so
    /// trace and epoch totals reconcile.
    fn waited(&self, t0: u64, key: PartitionKey) {
        let waited = self.telemetry.now_ns().saturating_sub(t0);
        self.swap_wait_ns.add(waited);
        if self.telemetry.tracing() {
            let fields = Self::key_fields(key);
            self.telemetry
                .record_span(span_name::SWAP_WAIT, t0, waited, fields);
        }
    }

    /// Field list identifying a partition in trace events.
    fn key_fields(key: PartitionKey) -> Vec<(&'static str, pbg_telemetry::FieldValue)> {
        vec![
            ("et", key.entity_type.0.into()),
            ("part", key.partition.0.into()),
        ]
    }
}

/// Requests taken off the channel and not yet served.
#[derive(Default)]
struct IoQueues {
    reads: VecDeque<PartitionKey>,
    write_backs: VecDeque<(PartitionKey, Arc<PartitionData>)>,
    shutdown: bool,
}

impl IoQueues {
    fn push(&mut self, msg: IoMsg) {
        match msg {
            IoMsg::Prefetch(key) => self.reads.push_back(key),
            IoMsg::WriteBack(key, data) => self.write_backs.push_back((key, data)),
            IoMsg::Shutdown => self.shutdown = true,
        }
    }
}

/// Background loop: prefetch reads and write-backs, in the order
/// [`next_job`] picks from everything queued so far.
///
/// A read never overtakes a write-back of its own key: `prefetch` claims
/// a key with a pending write-back from memory instead of queueing a
/// read, and a key being read cannot be released (its `load` waits for
/// the read), so each file is read only once its last write has landed.
///
/// The loop ends at the first read or write error ([`DiskShared::fail`]),
/// or at `Shutdown` once every queued write-back has landed.
fn io_loop(shared: Arc<DiskShared>, rx: channel::Receiver<IoMsg>) {
    let mut queues = IoQueues::default();
    loop {
        if queues.reads.is_empty() && queues.write_backs.is_empty() && !queues.shutdown {
            match rx.recv() {
                Ok(msg) => queues.push(msg),
                Err(_) => return,
            }
        }
        while let Ok(msg) = rx.try_recv() {
            queues.push(msg);
        }
        if queues.shutdown {
            // Nothing loads from a store being dropped.
            shared.io_queue_depth.sub(queues.reads.len() as u64);
            queues.reads.clear();
        }
        match next_job(queues.reads.len(), queues.write_backs.len()) {
            None => return, // shut down, every write-back landed
            Some(IoJob::WriteBack) => {
                let (key, data) = queues.write_backs.pop_front().expect("picked");
                let first = !shared.state.lock().stored.contains(&key);
                if let Err(e) = shared.write_back(key, &data, first) {
                    return shared.fail(e);
                }
                shared.io_queue_depth.sub(1);
                let mut st = shared.state.lock();
                st.stored.insert(key);
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
                // Counted once the state says it landed: a caller that
                // sees the count finds the file, not the memory copy.
                shared.bytes_written_back.add(data.bytes() as u64);
            }
            Some(IoJob::Read) => {
                let key = queues.reads.pop_front().expect("picked");
                let st = shared.state.lock();
                if !st.inflight.contains(&key) {
                    drop(st);
                    shared.io_queue_depth.sub(1);
                    continue; // satisfied or canceled in the meantime
                }
                debug_assert!(
                    !st.pending_writes.contains_key(&key),
                    "read of {key:?} picked while its write-back is pending"
                );
                let stored = st.stored.contains(&key);
                drop(st);
                let mut span = shared.span(span_name::PREFETCH_READ, key);
                let data = match shared.read_or_init(key, stored) {
                    Ok(data) => Arc::new(data),
                    Err(e) => return shared.fail(e),
                };
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
}

impl Drop for DiskStore {
    fn drop(&mut self) {
        if let Some((tx, thread)) = self.io.take() {
            // The I/O thread lands every queued write-back, then exits.
            let _ = tx.send(IoMsg::Shutdown);
            let _ = thread.join();
        }
    }
}

impl PartitionStore for DiskStore {
    fn load(&self, key: PartitionKey) -> Arc<PartitionData> {
        let shared = &self.shared;
        let mut st = shared.state.lock();
        st.check_io();
        if let Some(data) = st.resident.get(&key) {
            return Arc::clone(data);
        }
        // Not logically resident: a swap-in however it gets served.
        shared.swap_ins.inc();
        if st.inflight.contains(&key) {
            // The I/O thread is already reading it; waiting beats
            // issuing a duplicate read.
            let t0 = shared.telemetry.now_ns();
            while st.inflight.contains(&key) {
                shared.ready.wait(&mut st);
            }
            shared.waited(t0, key);
            st.check_io();
        }
        let data = if let Some(data) = st.prefetched.remove(&key) {
            shared.prefetch_hits.inc();
            data
        } else if let Some(data) = st.dirty.remove(&key) {
            // Steal back a partition still queued for write-back: its
            // memory copy is authoritative, no disk round-trip needed.
            data
        } else {
            // Synchronous fallback: the hot path pays for the read.
            let t0 = shared.telemetry.now_ns();
            let data = shared
                .read_or_init(key, st.stored.contains(&key))
                .unwrap_or_else(|e| panic!("{e}"));
            let data = Arc::new(data);
            shared.waited(t0, key);
            data
        };
        shared.resident_bytes.add(data.bytes() as u64);
        shared.resident_partitions.add(1);
        st.resident.insert(key, Arc::clone(&data));
        data
    }

    fn release(&self, key: PartitionKey) {
        let shared = &self.shared;
        let mut st = shared.state.lock();
        st.check_io();
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
                if st.pending_writes.contains_key(&key) {
                    // Loaded back from the write-back queue: the file is
                    // not written yet, so this copy stays the one a later
                    // load claims until the write lands.
                    st.dirty.insert(key, data);
                }
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
                    shared
                        .write_back(key, &data, !st.stored.contains(&key))
                        .unwrap_or_else(|e| panic!("{e}"));
                    st.stored.insert(key);
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
        st.check_io();
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

/// A read-only, memory-mapped partition [`shard`] of a checkpoint. f32
/// rows are served straight out of the mapping — no row is ever copied
/// to the heap — so a model larger than RAM serves from one box, paging
/// embeddings in on demand. Quantized rows decode on access: the
/// *mapping* stays compressed, only the row being scored materializes
/// as f32.
#[derive(Debug)]
pub struct MmapPartition {
    backing: MapBacking,
    header: shard::Header,
}

impl MmapPartition {
    /// Maps `path` and verifies it as a shard — header, exact size, and
    /// checksum, hashed over the mapped bytes in place. Returns the
    /// mapping and its whole-file checksum (what a manifest records).
    ///
    /// # Errors
    ///
    /// Returns [`PbgError::Checkpoint`] naming the file for format
    /// violations and propagates I/O failures.
    pub fn open(path: &std::path::Path) -> Result<(MmapPartition, u64)> {
        let backing = MapBacking::open(path)?;
        let name = path
            .file_name()
            .unwrap_or(path.as_os_str())
            .to_string_lossy();
        let verified = shard::verify(backing.bytes());
        let (header, sum) = verified.map_err(|e| crate::checkpoint::in_file(&name, e))?;
        Ok((MmapPartition { backing, header }, sum))
    }

    /// Number of embedding rows.
    pub fn rows(&self) -> usize {
        self.header.rows
    }

    /// Embedding dimension.
    pub fn cols(&self) -> usize {
        self.header.cols
    }

    /// Storage precision of the mapped payload.
    pub fn precision(&self) -> Precision {
        self.header.precision
    }

    /// The encoded row block after the header.
    pub fn payload_bytes(&self) -> &[u8] {
        let block = self.header.block_bytes();
        &self.backing.bytes()[shard::HEADER_BYTES..shard::HEADER_BYTES + block]
    }

    /// All `rows × cols` floats, row-major, straight from the mapping.
    /// Only f32 shards expose their payload this way; quantized shards
    /// return an error and decode through [`MmapPartition::row`] /
    /// [`MmapPartition::decode_rows_into`] instead.
    pub fn payload(&self) -> Result<&[f32]> {
        let shard::Header {
            rows,
            cols,
            precision,
        } = self.header;
        if precision != Precision::F32 {
            return Err(PbgError::Checkpoint(format!(
                "cannot reinterpret a {precision} shard as &[f32]; decode rows instead"
            )));
        }
        let bytes = self.payload_bytes();
        // a page-aligned mapping plus the 24-byte header keeps the
        // payload 4-byte aligned; the heap fallback re-checks at runtime
        debug_assert_eq!(bytes.as_ptr() as usize % std::mem::align_of::<f32>(), 0);
        if (bytes.as_ptr() as usize).is_multiple_of(std::mem::align_of::<f32>()) {
            // SAFETY: aligned just above, `bytes` holds exactly
            // `rows × cols` f32s (verified at open), and the mapping is
            // immutable for the lifetime of `self`
            Ok(unsafe { std::slice::from_raw_parts(bytes.as_ptr().cast::<f32>(), rows * cols) })
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
        let (rows, cols) = (self.header.rows, self.header.cols);
        assert!(i < rows, "row {i} out of range ({rows} rows)");
        if let Ok(payload) = self.payload() {
            return Cow::Borrowed(&payload[i * cols..(i + 1) * cols]);
        }
        let mut out = vec![0.0f32; cols];
        self.decode_rows_into(i, 1, &mut out);
        Cow::Owned(out)
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
        let shard::Header {
            rows,
            cols,
            precision,
        } = self.header;
        assert!(
            start + n <= rows,
            "rows {start}..{} out of range",
            start + n
        );
        assert_eq!(out.len(), n * cols, "output buffer shape mismatch");
        if let Ok(payload) = self.payload() {
            out.copy_from_slice(&payload[start * cols..(start + n) * cols]);
            return;
        }
        for (j, row) in (start..start + n).zip(out.chunks_mut(cols.max(1))) {
            quant::decode_row_into(precision, self.payload_bytes(), rows, cols, j, row)
                .expect("shard validated at open");
        }
    }

    /// Bytes of the whole mapped shard file.
    pub fn mapped_bytes(&self) -> usize {
        self.backing.bytes().len()
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

    /// Waits until `store` has written back at least `bytes`. A key whose
    /// write-back has landed is read from its file, not from memory.
    fn wait_written_back(store: &DiskStore, bytes: u64) {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while store.bytes_written_back() < bytes {
            assert!(
                std::time::Instant::now() < deadline,
                "write-back did not land"
            );
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    }

    /// Both store flavours over `dir`, each made when the loop reaches
    /// it: synchronous, then pipelined.
    fn both_stores<'a>(
        layout: &'a StoreLayout,
        dir: &'a std::path::Path,
    ) -> impl Iterator<Item = DiskStore> + 'a {
        [false, true].into_iter().map(move |pipelined| {
            let layout = layout.clone();
            if pipelined {
                DiskStore::new(layout, dir).unwrap()
            } else {
                DiskStore::new_sync(layout, dir).unwrap()
            }
        })
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
        let bytes = std::fs::read(dir.join(swap_file_name(key))).unwrap();
        let shard = shard::decode(&bytes).unwrap();
        assert_eq!(
            shard.embeddings[3], 9.75,
            "row 0, col 3 of the flushed shard"
        );
        let store = DiskStore::new_sync(layout(2), &dir).unwrap();
        assert!(!store.is_pipelined());
        store.prefetch(key);
        store.load(key);
        assert_eq!(store.prefetch_hits(), 0, "sync mode never prefetches");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fresh_store_ignores_stale_and_garbage_files() {
        // an earlier run's trained shard, a shard of another shape and
        // plain garbage: a new store reads none of them and starts every
        // key from its init — it reads back only what it wrote itself
        let dir = std::env::temp_dir().join(format!("pbg_disk_stale_{}", std::process::id()));
        let (k0, k1, k2) = (
            PartitionKey::new(0u32, 0u32),
            PartitionKey::new(0u32, 1u32),
            PartitionKey::new(0u32, 2u32),
        );
        {
            let old = DiskStore::new_sync(layout(4), &dir).unwrap();
            old.load(k0).embeddings.set(0, 0, 99.0);
            old.mark_dirty(k0);
            old.release(k0);
        }
        let mut other = Vec::new();
        shard::encode(Precision::F16, 3, 5, |_, _| {}, &[0.0; 3], &mut other);
        std::fs::write(dir.join(swap_file_name(k1)), other).unwrap();
        std::fs::write(dir.join(swap_file_name(k2)), b"garbage").unwrap();
        for store in [
            DiskStore::new_sync(layout(4), &dir).unwrap(),
            DiskStore::new(layout(4), &dir).unwrap(),
        ] {
            for key in [k0, k1, k2] {
                store.prefetch(key);
                let want = layout(4).init(key).embeddings.to_vec();
                assert_eq!(store.load(key).embeddings.to_vec(), want, "{key:?}");
                store.release(key);
            }
            // once it has written a key, that is what it reads back
            store.load(k0).embeddings.set(1, 1, -7.0);
            store.mark_dirty(k0);
            store.release(k0);
            assert_eq!(store.load(k0).embeddings.get(1, 1), -7.0);
            store.release(k0);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn pipelined_read_error_fails_load_instead_of_hanging() {
        let dir = std::env::temp_dir().join(format!("pbg_disk_fail_{}", std::process::id()));
        let (k0, k1) = (PartitionKey::new(0u32, 0u32), PartitionKey::new(0u32, 1u32));
        let worker_dir = dir.clone();
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let store = DiskStore::new(layout(2), &worker_dir).unwrap();
            store.load(k0).embeddings.set(0, 0, 5.0);
            store.mark_dirty(k0);
            store.release(k0);
            store.prefetch(k1);
            store.load(k1);
            // k1's read may overtake k0's write-back: wait for it to land
            wait_written_back(&store, layout(2).init(k0).bytes() as u64);
            let path = worker_dir.join(swap_file_name(k0));
            let mut bytes = std::fs::read(&path).unwrap();
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0xff;
            std::fs::write(&path, bytes).unwrap();
            store.prefetch(k0);
            let load = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| store.load(k0)));
            let after =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| store.release(k1)));
            let message = |p: Box<dyn std::any::Any + Send>| p.downcast::<String>().map(|m| *m);
            let _ = tx.send((load.err().map(message), after.err().map(message)));
        });
        let (load, after) = rx
            .recv_timeout(std::time::Duration::from_secs(20))
            .expect("load returned or panicked instead of hanging");
        let load = load.expect("load of a corrupt shard panics").unwrap();
        assert!(load.contains("checksum"), "{load}");
        assert!(load.contains(&swap_file_name(k0)), "{load}");
        assert_eq!(after.expect("later calls panic too").unwrap(), load);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn clean_release_during_write_back_keeps_the_latest_contents() {
        let dir = std::env::temp_dir().join(format!("pbg_disk_steal_{}", std::process::id()));
        let schema = GraphSchema::builder()
            .entity_type(EntityTypeDef::new("node", 40_000).with_partitions(2))
            .relation_type(RelationTypeDef::new("edge", 0u32, 0u32))
            .build()
            .unwrap();
        let store =
            DiskStore::new(StoreLayout::from_schema(&schema, 32, 0.1, 0.1, 42), &dir).unwrap();
        let (k0, k1) = (PartitionKey::new(0u32, 0u32), PartitionKey::new(0u32, 1u32));
        // a large write-back ahead of k0's keeps the I/O thread busy
        store.load(k1);
        store.mark_dirty(k1);
        store.release(k1);
        store.load(k0).embeddings.set(3, 3, 11.5);
        store.mark_dirty(k0);
        store.release(k0);
        // claimed back from the write-back queue, then released clean
        // before its write-back has landed
        store.load(k0);
        store.release(k0);
        assert_eq!(store.load(k0).embeddings.get(3, 3), 11.5);
        drop(store);
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
            !dir.join(swap_file_name(key)).exists(),
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
    fn first_write_back_truncates_a_longer_stale_file() {
        // an earlier run's valid shard of the same shape with garbage
        // after it: a shard decodes only at its exact length, so the
        // reload finds the written rows only if the first write cut the
        // tail off
        let dir = std::env::temp_dir().join(format!("pbg_disk_trunc_{}", std::process::id()));
        let key = PartitionKey::new(0u32, 1u32);
        let path = dir.join(swap_file_name(key));
        let mut shard_bytes = Vec::new();
        shard::encode_partition(&layout(2).init(key), Precision::F32, &mut shard_bytes);
        for store in both_stores(&layout(2), &dir) {
            let mut stale = shard_bytes.clone();
            stale.extend_from_slice(b"trailing garbage");
            std::fs::write(&path, stale).unwrap();
            let data = store.load(key);
            store.mark_dirty(key);
            data.embeddings.set(2, 5, 4.5);
            let (written, bytes) = (data.embeddings.to_vec(), data.bytes() as u64);
            drop(data);
            store.release(key);
            wait_written_back(&store, bytes);
            assert_eq!(store.load(key).embeddings.to_vec(), written);
            store.release(key);
            drop(store);
            let len = std::fs::metadata(&path).unwrap().len();
            assert_eq!(len, shard_bytes.len() as u64);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[cfg(unix)]
    #[test]
    fn write_backs_rewrite_the_swap_file_in_place() {
        use std::os::unix::fs::MetadataExt;
        let dir = std::env::temp_dir().join(format!("pbg_disk_inplace_{}", std::process::id()));
        let key = PartitionKey::new(0u32, 0u32);
        let path = dir.join(swap_file_name(key));
        for store in both_stores(&layout(2), &dir) {
            let mut inode = None;
            let mut written = 0;
            for round in 0..4 {
                let data = store.load(key);
                store.mark_dirty(key);
                data.embeddings.set(1, 1, round as f32);
                let mut want = Vec::new();
                shard::encode_partition(&data, Precision::F32, &mut want);
                written += data.bytes() as u64;
                drop(data);
                store.release(key);
                wait_written_back(&store, written);
                let meta = std::fs::metadata(&path).unwrap();
                assert_eq!(meta.len(), want.len() as u64, "round {round}");
                assert_eq!(
                    *inode.get_or_insert(meta.ino()),
                    meta.ino(),
                    "round {round}"
                );
                assert_eq!(std::fs::read(&path).unwrap(), want, "round {round}");
                let names: Vec<String> = std::fs::read_dir(&dir)
                    .unwrap()
                    .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
                    .collect();
                assert!(names.iter().all(|n| !n.ends_with(".tmp")), "{names:?}");
            }
            drop(store);
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn reads_overtake_at_most_one_queued_write_back() {
        use IoJob::{Read, WriteBack};
        assert_eq!(next_job(0, 0), None);
        assert_eq!(next_job(0, 1), Some(WriteBack));
        assert_eq!(next_job(1, 0), Some(Read));
        assert_eq!(next_job(2, 1), Some(Read));
        assert_eq!(next_job(1, 2), Some(WriteBack));
        assert_eq!(next_job(3, 5), Some(WriteBack));
        // served to the end: write-backs drain to one, then reads go
        let (mut reads, mut write_backs, mut order) = (2, 3, Vec::new());
        while let Some(job) = next_job(reads, write_backs) {
            match job {
                Read => reads -= 1,
                WriteBack => write_backs -= 1,
            }
            order.push(job);
        }
        assert_eq!(order, [WriteBack, WriteBack, Read, Read, WriteBack]);
    }

    proptest::proptest! {
        /// Random `load`/`set`/`mark_dirty`/`release`/`prefetch` sequences
        /// over four keys against a model of what each key holds. The
        /// `set`s follow the trainer's protocol: only into a resident key
        /// already marked dirty.
        #[test]
        fn disk_stores_agree_with_a_model(
            ops in proptest::collection::vec((0u8..5, 0u32..4, 0usize..200, -4.0f32..4.0), 1..80),
        ) {
            let dir = std::env::temp_dir().join(format!("pbg_disk_model_{}", std::process::id()));
            let keys: Vec<PartitionKey> = (0u32..4).map(|p| PartitionKey::new(0u32, p)).collect();
            for store in both_stores(&layout(4), &dir) {
                // last dirty release per key (init until then), the
                // resident copy, and whether it is marked dirty
                let mut saved: Vec<Vec<f32>> =
                    keys.iter().map(|&k| layout(4).init(k).embeddings.to_vec()).collect();
                let mut resident: Vec<Option<Vec<f32>>> = vec![None; keys.len()];
                let mut marked = vec![false; keys.len()];
                let mut released_dirty = vec![false; keys.len()];
                for &(op, k, index, value) in &ops {
                    let (i, key) = (k as usize, keys[k as usize]);
                    match op {
                        0 => {
                            let want = resident[i].get_or_insert_with(|| saved[i].clone());
                            proptest::prop_assert_eq!(&store.load(key).embeddings.to_vec(), want);
                        }
                        1 if marked[i] => {
                            let data = store.load(key);
                            let (row, col) = (index / 8, index % 8);
                            data.embeddings.set(row, col, value);
                            resident[i].as_mut().unwrap()[index] = value;
                        }
                        2 if resident[i].is_some() => {
                            store.mark_dirty(key);
                            marked[i] = true;
                        }
                        3 => {
                            store.release(key);
                            if let Some(contents) = resident[i].take() {
                                if std::mem::take(&mut marked[i]) {
                                    saved[i] = contents;
                                    released_dirty[i] = true;
                                }
                            }
                        }
                        4 if resident[i].is_none() => store.prefetch(key),
                        _ => {}
                    }
                }
                for (i, &key) in keys.iter().enumerate() {
                    if resident[i].take().is_some() && marked[i] {
                        saved[i] = store.load(key).embeddings.to_vec();
                        released_dirty[i] = true;
                    }
                    store.release(key);
                }
                drop(store);
                for (i, &key) in keys.iter().enumerate() {
                    let file = std::fs::read(dir.join(swap_file_name(key)));
                    if released_dirty[i] {
                        let shard = shard::decode(&file.unwrap()).unwrap();
                        proptest::prop_assert_eq!(&shard.embeddings, &saved[i], "{:?}", key);
                    } else {
                        proptest::prop_assert!(file.is_err(), "{:?} never written", key);
                    }
                }
                std::fs::remove_dir_all(&dir).unwrap();
            }
        }
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
