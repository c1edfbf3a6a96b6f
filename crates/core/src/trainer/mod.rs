//! The training pipeline: bucket scheduling, epochs, and the high-level
//! [`Trainer`] entry point.
//!
//! Each epoch iterates the edge buckets in the configured order (§4.1,
//! Figure 1), loading a bucket's two partitions, training it with HOGWILD
//! threads, and releasing partitions the next bucket does not need — the
//! single-machine "swap to disk" regime when backed by a
//! [`crate::storage::DiskStore`]. The optional stratified sub-epoch scheme
//! (footnote 3) re-visits buckets `N` times on `1/N` of their edges.

pub mod bucket;
pub mod plan;
pub mod step;

use crate::checkpoint::{self, TrainProgress};
use crate::config::PbgConfig;
use crate::error::{PbgError, Result};
use crate::model::{Model, TrainedEmbeddings};
use crate::stats::{EpochAccumulator, EpochStats, IoStats};
use crate::storage::{DiskStore, InMemoryStore, PartitionStore, StoreLayout};
use pbg_graph::bucket::{BucketId, Buckets};
use pbg_graph::edges::EdgeList;
use pbg_graph::partition::EntityPartitioning;
use pbg_graph::schema::GraphSchema;
use pbg_graph::RelationTypeId;
use pbg_telemetry::metrics::names as metric_name;
use pbg_telemetry::trace::names as span_name;
use pbg_telemetry::{span, FieldValue, Registry};
use pbg_tensor::rng::Xoshiro256;
use std::collections::HashMap;
use std::path::Path;

pub use bucket::{needed_keys, train_bucket};
pub use plan::{EpochPlan, EpochStep};

/// Where embedding partitions live during training.
#[derive(Debug)]
pub enum Storage {
    /// Everything resident (paper's unpartitioned / 1-partition regime).
    InMemory,
    /// Partitions swapped to files under the given directory (§4.1),
    /// with a background I/O thread prefetching the next bucket's
    /// partitions while the current one trains.
    Disk(std::path::PathBuf),
    /// Like [`Storage::Disk`] but fully synchronous: every swap blocks
    /// the training loop. The reference path for equivalence tests and
    /// the swap benchmark.
    DiskSync(std::path::PathBuf),
}

/// Where and how often the trainer checkpoints mid-run.
#[derive(Debug, Clone)]
pub struct CheckpointPolicy {
    /// Checkpoint directory (created on first save).
    pub dir: std::path::PathBuf,
    /// Checkpoint after every `N` trained bucket-steps (at bucket
    /// boundaries). 0 disables periodic saves.
    pub every_buckets: usize,
}

/// High-level trainer owning the model, storage, and bucketed edges.
pub struct Trainer {
    model: Model,
    store: Box<dyn PartitionStore>,
    buckets: Buckets,
    epoch: usize,
    telemetry: Registry,
    checkpoint: Option<CheckpointPolicy>,
    checkpoint_error: Option<PbgError>,
    schedule: Schedule,
    /// Bucket-steps of the next epoch already trained before the
    /// checkpoint this trainer resumed from; consumed by `train_epoch`.
    resume_skip: usize,
    /// Injected fault: stop training after this many more bucket-steps.
    crash_after: Option<usize>,
    crashed: bool,
}

impl Trainer {
    /// Builds a trainer with in-memory storage.
    ///
    /// # Errors
    ///
    /// Returns an error for invalid configs or schema/config mismatches.
    pub fn new(schema: GraphSchema, edges: &EdgeList, config: PbgConfig) -> Result<Self> {
        Self::with_storage(schema, edges, config, Storage::InMemory)
    }

    /// Builds a trainer with explicit storage and a private telemetry
    /// registry (tracing off).
    ///
    /// # Errors
    ///
    /// Returns an error for invalid configs, schema/config mismatches, or
    /// an unusable disk directory.
    pub fn with_storage(
        schema: GraphSchema,
        edges: &EdgeList,
        config: PbgConfig,
        storage: Storage,
    ) -> Result<Self> {
        Self::with_telemetry(schema, edges, config, storage, Registry::new())
    }

    /// Builds a trainer recording metrics (and, when enabled, trace
    /// events) into `telemetry`. The store's I/O counters register in the
    /// same registry, so [`Trainer::train_epoch`]'s [`EpochStats`] — and
    /// any Prometheus dump or JSONL trace taken from the registry — are
    /// views of one set of atomics.
    ///
    /// # Errors
    ///
    /// Returns an error for invalid configs, schema/config mismatches, or
    /// an unusable disk directory.
    pub fn with_telemetry(
        schema: GraphSchema,
        edges: &EdgeList,
        config: PbgConfig,
        storage: Storage,
        telemetry: Registry,
    ) -> Result<Self> {
        let model = Model::new(schema, config)?;
        let store = build_store(&model, storage, &telemetry)?;
        let buckets = bucketize(model.schema(), edges);
        Ok(Trainer {
            schedule: Schedule::new(model.config(), &buckets),
            model,
            store,
            buckets,
            epoch: 0,
            telemetry,
            checkpoint: None,
            checkpoint_error: None,
            resume_skip: 0,
            crash_after: None,
            crashed: false,
        })
    }

    /// Rebuilds a trainer from a crash-consistent checkpoint: embeddings,
    /// relation parameters and every Adagrad accumulator are written
    /// back into the new store ([`checkpoint::restore`]), each bucket's
    /// edges are brought to the order the interrupted run left them in
    /// ([`Schedule::replay`]), and the next [`Trainer::train_epoch`]
    /// skips the bucket-steps the manifest records as already trained.
    /// The schedule is a pure function of `(seed, epoch)`, so the
    /// resumed run is bit-identical to the uninterrupted one at
    /// `threads = 1`.
    ///
    /// # Errors
    ///
    /// Returns [`PbgError::Checkpoint`] when the checkpoint is corrupt,
    /// incomplete, or disagrees with `schema`/`config`, and any
    /// constructor error from [`Trainer::with_telemetry`].
    pub fn resume(
        schema: GraphSchema,
        edges: &EdgeList,
        config: PbgConfig,
        storage: Storage,
        telemetry: Registry,
        dir: impl AsRef<Path>,
    ) -> Result<Self> {
        let mut t = Self::with_telemetry(schema, edges, config, storage, telemetry)?;
        let progress = checkpoint::restore(dir, &t.model, t.store.as_ref())?;
        (t.epoch, t.resume_skip) = (progress.epochs_done, progress.steps_done);
        if t.model.config().bucket_passes == 1 {
            // buckets are shuffled in place once per trained step: replay
            // every epoch done, and the steps of the interrupted one
            let next = progress.epochs_done + 1;
            for bucket in t.buckets.ids() {
                let step = t.schedule.step_of(next, bucket);
                let through = next - usize::from(step >= progress.steps_done);
                let edges = t.buckets.bucket_mut(bucket);
                t.schedule.replay(bucket, edges, 0, through);
            }
        }
        t.telemetry.counter(metric_name::TRAINER_RESUMES).inc();
        Ok(t)
    }

    /// Enables periodic mid-run checkpointing at bucket boundaries.
    pub fn set_checkpoint_policy(&mut self, policy: CheckpointPolicy) {
        self.checkpoint = Some(policy);
    }

    /// Injects a simulated crash: training stops (and [`Trainer::crashed`]
    /// reports `true`) after `n` more trained bucket-steps — the hook the
    /// crash-recovery smoke test drives through `pbg train
    /// --inject-crash-after`.
    pub fn inject_crash_after_buckets(&mut self, n: usize) {
        self.crash_after = Some(n);
    }

    /// `true` once an injected crash has stopped training.
    pub fn crashed(&self) -> bool {
        self.crashed
    }

    /// The first error hit by a periodic checkpoint save, if any
    /// (training continues past checkpoint failures; callers that need
    /// durability check this after the run).
    pub fn checkpoint_error(&self) -> Option<&PbgError> {
        self.checkpoint_error.as_ref()
    }

    /// The model (relation parameters, schema, config).
    pub fn model(&self) -> &Model {
        &self.model
    }

    /// The telemetry registry this trainer records into.
    pub fn telemetry(&self) -> &Registry {
        &self.telemetry
    }

    /// The partition store (for memory inspection).
    pub fn store(&self) -> &dyn PartitionStore {
        self.store.as_ref()
    }

    /// The bucketed training edges.
    pub fn buckets(&self) -> &Buckets {
        &self.buckets
    }

    /// Epochs completed so far.
    pub fn epochs_done(&self) -> usize {
        self.epoch
    }

    /// Trains a single epoch and returns its stats.
    ///
    /// The epoch's partition traffic is planned up front
    /// ([`EpochPlan`]): each step's prefetch set is handed to the store
    /// *before* the bucket trains, so a pipelined store loads bucket
    /// `k+1`'s non-resident partitions while bucket `k` computes, and
    /// releases happen after the step. Single-threaded fixed-seed runs
    /// are bit-identical whether or not the store pipelines.
    pub fn train_epoch(&mut self) -> EpochStats {
        self.epoch += 1;
        let _epoch_span = span!(self.telemetry, span_name::EPOCH, epoch = self.epoch as u64);
        let config = self.model.config().clone();
        // bucket order is a pure function of (seed, epoch): a resumed run
        // replays the interrupted epoch's schedule, so skipping the first
        // `resume_skip` steps skips exactly the already-trained buckets
        let order = self.schedule.order(self.epoch);
        let plan =
            EpochPlan::with_capacity(&order, |b| needed_keys(&self.model, b), config.buffer_size);
        let prefetch_depth = self.telemetry.histogram(metric_name::STORE_PREFETCH_DEPTH);
        let mut acc = EpochAccumulator::new();
        let io_before = self.io_counters();
        let passes = config.bucket_passes;
        let total_steps = passes * plan.steps().len();
        let policy = self.checkpoint.clone();
        let skip = std::mem::take(&mut self.resume_skip).min(total_steps);
        if skip > 0 {
            self.telemetry
                .counter(metric_name::TRAINER_RESUME_SKIPPED_STEPS)
                .add(skip as u64);
        }
        'epoch: for pass in 0..passes {
            for (step, plan_step) in plan.steps().iter().enumerate() {
                let flat = pass * plan.steps().len() + step;
                if flat < skip {
                    continue;
                }
                let bucket_id = plan_step.bucket;
                // overlap: partitions needed up to B-1 steps ahead start
                // loading now
                for (i, &key) in plan_step.prefetch.iter().enumerate() {
                    self.store.prefetch(key);
                    prefetch_depth.observe(plan_step.prefetch_depth[i]);
                }
                let seed = self.schedule.step_seed(self.epoch, pass, step);
                let part;
                let edges = if passes == 1 {
                    // shuffle in place: no per-epoch clone of the bucket
                    let edges = self.buckets.bucket_mut(bucket_id);
                    edges.shuffle(&mut shuffle_rng(seed));
                    &*edges
                } else {
                    // stratified sub-epoch: train 1/N of the bucket per
                    // pass (the chunk split is the one unavoidable copy)
                    let mut chunk = self
                        .buckets
                        .bucket(bucket_id)
                        .chunks(passes)
                        .swap_remove(pass);
                    chunk.shuffle(&mut shuffle_rng(seed));
                    part = chunk;
                    &part
                };
                let store = self.store.as_ref();
                let stats =
                    train_bucket(&self.model, store, bucket_id, edges, seed, &self.telemetry);
                acc.add(&stats);
                for &key in &plan_step.release {
                    self.store.release(key);
                }
                let done = flat + 1;
                if let Some(policy) = &policy {
                    if policy.every_buckets > 0 && done.is_multiple_of(policy.every_buckets) {
                        // the epoch's last step is the next one's boundary
                        let steps_done = done % total_steps;
                        let epochs_done = self.epoch - usize::from(steps_done > 0);
                        let progress = TrainProgress {
                            epochs_done,
                            steps_done,
                        };
                        if let Err(e) = self.write_checkpoint(policy, progress) {
                            self.checkpoint_error.get_or_insert(e);
                        }
                    }
                }
                if let Some(n) = self.crash_after.as_mut() {
                    *n = n.saturating_sub(1);
                    if *n == 0 {
                        self.crash_after = None;
                        self.crashed = true;
                        break 'epoch;
                    }
                }
            }
        }
        let stats = acc.finish(self.epoch, self.io_counters().delta_since(&io_before));
        if self.telemetry.tracing() {
            // one point per epoch so `pbg trace summarize` can report the
            // buffer's behavior next to the bucket timeline
            let peak = self.telemetry.gauge(metric_name::STORE_RESIDENT_PARTITIONS);
            let fields: Vec<(&str, FieldValue)> = vec![
                ("capacity", (config.buffer_size as u64).into()),
                ("resident_peak", peak.peak().into()),
                ("evictions", (stats.evictions as u64).into()),
                ("skipped_bytes", stats.writeback_skipped_bytes.into()),
                ("prefetch_hits", (stats.prefetch_hits as u64).into()),
            ];
            self.telemetry.point(span_name::BUFFER_STATS, fields);
        }
        stats
    }

    /// Streams the model from the store into a manifest-committed
    /// checkpoint ([`checkpoint::save_store`]), emitting a
    /// `checkpoint_write` span and bumping the checkpoint counter.
    /// Partitions the save touches are released back to the store (the
    /// next step reloads what it needs — correctness never depends on
    /// residency, only the swap counters do).
    fn write_checkpoint(&self, policy: &CheckpointPolicy, progress: TrainProgress) -> Result<()> {
        let t0 = self.telemetry.now_ns();
        let bytes =
            checkpoint::save_store(&self.model, self.store.as_ref(), &policy.dir, progress)?;
        self.telemetry
            .counter(metric_name::TRAINER_CHECKPOINTS)
            .inc();
        let dur = self.telemetry.now_ns().saturating_sub(t0);
        self.telemetry.record_span(
            span_name::CHECKPOINT_WRITE,
            t0,
            dur,
            vec![
                ("epoch", FieldValue::from(progress.epochs_done as u64)),
                ("step", FieldValue::from(progress.steps_done as u64)),
                ("bytes", FieldValue::from(bytes)),
            ],
        );
        Ok(())
    }

    /// Snapshot of the store's monotonic I/O counters, read from the
    /// telemetry registry: epoch aggregates are a *view* of the same
    /// atomics the trace and the Prometheus dump expose. The in-memory
    /// store registers no counters, so its snapshot reads fall back to
    /// the store's own accessors (its resident gauge is set once at
    /// construction).
    fn io_counters(&self) -> IoStats {
        let io = IoStats::from_snapshot(&self.telemetry.snapshot());
        IoStats {
            // a store built without telemetry (not reachable through the
            // public constructors, but cheap to keep honest) or an
            // InMemoryStore reports its footprint through the trait
            peak_bytes: io.peak_bytes.max(self.store.peak_bytes()),
            ..io
        }
    }

    /// Trains the configured number of epochs, invoking `on_epoch` after
    /// each (for learning curves / early stopping — return `false` to
    /// stop).
    pub fn train_with(
        &mut self,
        mut on_epoch: impl FnMut(&EpochStats, &Trainer) -> bool,
    ) -> Vec<EpochStats> {
        let epochs = self.model.config().epochs;
        let mut all = Vec::with_capacity(epochs.saturating_sub(self.epoch));
        // a resumed trainer starts at the checkpoint's epoch and trains
        // only the remainder
        while self.epoch < epochs {
            let stats = self.train_epoch();
            if self.crashed {
                // partial-epoch stats from an injected crash: report them
                // but skip the callback (the epoch did not complete)
                all.push(stats);
                break;
            }
            let keep_going = on_epoch(&stats, self);
            all.push(stats);
            if !keep_going {
                break;
            }
        }
        all
    }

    /// Trains the configured number of epochs.
    pub fn train(&mut self) -> Vec<EpochStats> {
        self.train_with(|_, _| true)
    }

    /// Snapshots the model for evaluation or checkpointing.
    pub fn snapshot(&self) -> TrainedEmbeddings {
        self.model.snapshot(self.store.as_ref())
    }
}

impl std::fmt::Debug for Trainer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Trainer")
            .field("epoch", &self.epoch)
            .field("buckets", &self.buckets.len())
            .field("config", self.model.config())
            .finish()
    }
}

/// Bucket-order rng for one epoch, derived (not threaded): epoch `k`'s
/// schedule is reproducible in isolation, which is what lets a resumed
/// run replay an interrupted epoch's order — and what lets a networked
/// trainer rank (`pbg-net`) reconstruct the exact single-machine
/// schedule without sharing rng state.
pub fn epoch_rng(seed: u64, epoch: usize) -> Xoshiro256 {
    Xoshiro256::seed_from_u64(
        seed ^ 0xB0C4_E77E ^ (epoch as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
    )
}

/// The rng of the in-place shuffle at the bucket-step seeded `seed`.
fn shuffle_rng(seed: u64) -> Xoshiro256 {
    Xoshiro256::seed_from_u64(seed ^ 0x5EED_CAFE)
}

/// The single-machine training schedule, as pure functions of `(seed,
/// epoch)`: each epoch's bucket order, each bucket-step's train seed,
/// and the in-place shuffle a bucket gets when it trains.
///
/// The trainer shuffles a bucket's edges in place every epoch (one pass
/// per epoch), so epoch `e` trains the composition of `e` shuffles.
/// [`Schedule::replay`] reproduces that composition from pristine edges —
/// for a resumed trainer, and for a cluster rank that trains a bucket in
/// epoch 3 having never touched it before.
#[derive(Debug)]
pub struct Schedule {
    seed: u64,
    ordering: pbg_graph::ordering::BucketOrdering,
    buffer_size: usize,
    grid: (u32, u32),
    /// Each epoch's bucket → step index, computed on first use.
    steps: HashMap<usize, HashMap<BucketId, usize>>,
}

impl Schedule {
    /// The schedule of `config` over the bucket grid of `buckets`.
    pub fn new(config: &PbgConfig, buckets: &Buckets) -> Self {
        Schedule {
            seed: config.seed,
            ordering: config.bucket_ordering,
            buffer_size: config.buffer_size,
            grid: (buckets.src_parts(), buckets.dst_parts()),
            steps: HashMap::new(),
        }
    }

    /// Epoch `epoch`'s bucket order (1-based epochs).
    pub fn order(&self, epoch: usize) -> Vec<BucketId> {
        let mut rng = epoch_rng(self.seed, epoch);
        let (src, dst) = self.grid;
        self.ordering
            .order_with_buffer(src, dst, self.buffer_size, &mut rng)
    }

    /// The train seed of bucket-step `step` of `pass` in `epoch`.
    pub fn step_seed(&self, epoch: usize, pass: usize, step: usize) -> u64 {
        self.seed
            .wrapping_add((epoch as u64) << 32)
            .wrapping_add((pass as u64) << 16)
            .wrapping_add(step as u64)
    }

    /// `bucket`'s step index in epoch `epoch`'s order.
    pub fn step_of(&mut self, epoch: usize, bucket: BucketId) -> usize {
        if !self.steps.contains_key(&epoch) {
            let order = self.order(epoch).into_iter().enumerate();
            self.steps
                .insert(epoch, order.map(|(i, b)| (b, i)).collect());
        }
        self.steps[&epoch][&bucket]
    }

    /// Shuffles `edges` — `bucket`'s edges as the single-machine trainer
    /// held them after epoch `applied` — into its order for epoch
    /// `through`, and returns the bucket's train seed in that epoch.
    pub fn replay(
        &mut self,
        bucket: BucketId,
        edges: &mut EdgeList,
        applied: usize,
        through: usize,
    ) -> u64 {
        for epoch in applied + 1..=through {
            let step = self.step_of(epoch, bucket);
            edges.shuffle(&mut shuffle_rng(self.step_seed(epoch, 0, step)));
        }
        let step = self.step_of(through, bucket);
        self.step_seed(through, 0, step)
    }
}

fn build_store(
    model: &Model,
    storage: Storage,
    telemetry: &Registry,
) -> Result<Box<dyn PartitionStore>> {
    let layout: StoreLayout = model.store_layout();
    Ok(match storage {
        Storage::InMemory => Box::new(InMemoryStore::with_telemetry(layout, telemetry)),
        Storage::Disk(dir) => Box::new(DiskStore::with_telemetry_pinned(
            layout,
            dir.as_path() as &Path,
            telemetry,
            model.config().pin_cores,
        )?),
        Storage::DiskSync(dir) => Box::new(DiskStore::new_sync_with_telemetry(
            layout,
            dir.as_path() as &Path,
            telemetry,
        )?),
    })
}

/// Buckets `edges` using each relation's endpoint entity-type
/// partitionings.
pub fn bucketize(schema: &GraphSchema, edges: &EdgeList) -> Buckets {
    let partitionings: Vec<EntityPartitioning> = schema
        .entity_types()
        .iter()
        .map(|def| EntityPartitioning::new(def.num_entities(), def.num_partitions()))
        .collect();
    Buckets::from_edges_with(edges, |rel| {
        let rdef = schema.relation_type(RelationTypeId(rel));
        (
            partitionings[rdef.source_type().index()],
            partitionings[rdef.dest_type().index()],
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Embeddings;
    use pbg_graph::edges::Edge;

    fn ring(n: u32) -> EdgeList {
        (0..n).map(|i| Edge::new(i, 0u32, (i + 1) % n)).collect()
    }

    fn config(threads: usize, epochs: usize) -> PbgConfig {
        PbgConfig::builder()
            .dim(8)
            .batch_size(32)
            .chunk_size(8)
            .uniform_negatives(8)
            .threads(threads)
            .epochs(epochs)
            .build()
            .unwrap()
    }

    #[test]
    fn single_partition_training_converges() {
        let schema = GraphSchema::homogeneous(64, 1).unwrap();
        let mut t = Trainer::new(schema, &ring(64), config(2, 5)).unwrap();
        let stats = t.train();
        assert_eq!(stats.len(), 5);
        assert!(
            stats.last().unwrap().mean_loss < stats[0].mean_loss,
            "loss: {} -> {}",
            stats[0].mean_loss,
            stats.last().unwrap().mean_loss
        );
    }

    #[test]
    fn partitioned_training_converges() {
        let schema = GraphSchema::homogeneous(64, 4).unwrap();
        let mut t = Trainer::new(schema, &ring(64), config(2, 5)).unwrap();
        assert_eq!(t.buckets().len(), 16);
        let stats = t.train();
        assert!(stats.last().unwrap().mean_loss < stats[0].mean_loss);
    }

    #[test]
    fn disk_storage_swaps_and_converges() {
        let dir = std::env::temp_dir().join(format!("pbg_trainer_{}", std::process::id()));
        let schema = GraphSchema::homogeneous(64, 4).unwrap();
        let mut t =
            Trainer::with_storage(schema, &ring(64), config(2, 3), Storage::Disk(dir.clone()))
                .unwrap();
        let stats = t.train();
        assert!(stats[0].swap_ins > 0, "disk store must swap partitions in");
        // with 4 partitions only 2 are ever resident: peak < full size
        let full_bytes: usize = {
            let schema = GraphSchema::homogeneous(64, 1).unwrap();
            let t_full = Trainer::new(schema, &ring(64), config(1, 1)).unwrap();
            t_full.store().peak_bytes()
        };
        assert!(
            t.store().peak_bytes() < full_bytes,
            "peak {} not below full model {}",
            t.store().peak_bytes(),
            full_bytes
        );
        assert!(stats.last().unwrap().mean_loss < stats[0].mean_loss);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn early_stop_callback() {
        let schema = GraphSchema::homogeneous(32, 1).unwrap();
        let mut t = Trainer::new(schema, &ring(32), config(1, 10)).unwrap();
        let stats = t.train_with(|s, _| s.epoch < 3);
        assert_eq!(stats.len(), 3);
        assert_eq!(t.epochs_done(), 3);
    }

    #[test]
    fn stratified_passes_cover_all_edges() {
        let schema = GraphSchema::homogeneous(32, 2).unwrap();
        let cfg = PbgConfig::builder()
            .dim(8)
            .batch_size(16)
            .chunk_size(4)
            .uniform_negatives(4)
            .threads(1)
            .epochs(1)
            .bucket_passes(3)
            .build()
            .unwrap();
        let mut t = Trainer::new(schema, &ring(32), cfg).unwrap();
        let stats = t.train();
        assert_eq!(stats[0].edges, 32, "every edge trained exactly once");
        // buckets visited N times each
        assert_eq!(stats[0].buckets, 4 * 3);
    }

    #[test]
    fn snapshot_contains_all_entities() {
        let schema = GraphSchema::homogeneous(48, 3).unwrap();
        let mut t = Trainer::new(schema, &ring(48), config(1, 1)).unwrap();
        t.train();
        let snap = t.snapshot();
        assert_eq!(snap.embeddings[0].rows(), 48);
        // trained embeddings should not all be at init scale
        let norms: Vec<f32> = (0..48)
            .map(|i| pbg_tensor::vecmath::norm(&snap.embedding(0, i)))
            .collect();
        assert!(norms.iter().any(|&n| n > 0.0));
    }

    #[test]
    fn deterministic_given_seed_and_single_thread() {
        let schema = GraphSchema::homogeneous(32, 2).unwrap();
        let run = || {
            let mut t = Trainer::new(schema.clone(), &ring(32), config(1, 2)).unwrap();
            t.train();
            t.snapshot().embeddings[0].as_slice().to_vec()
        };
        assert_eq!(run(), run(), "single-thread training must be reproducible");
    }

    #[test]
    fn pipelined_disk_store_is_bit_identical_to_synchronous() {
        let base = std::env::temp_dir().join(format!("pbg_equiv_{}", std::process::id()));
        let schema = GraphSchema::homogeneous(64, 4).unwrap();
        let run = |storage: Storage| {
            let mut t =
                Trainer::with_storage(schema.clone(), &ring(64), config(1, 3), storage).unwrap();
            t.train();
            t.snapshot().embeddings[0].as_slice().to_vec()
        };
        let pipelined = run(Storage::Disk(base.join("pipelined")));
        let synchronous = run(Storage::DiskSync(base.join("sync")));
        assert_eq!(
            pipelined, synchronous,
            "prefetching must only change when bytes move, not the math"
        );
        std::fs::remove_dir_all(&base).ok();
    }

    #[test]
    fn epoch_stats_from_registry_match_store_counters() {
        // fixed-seed disk run: the registry-derived epoch aggregates must
        // agree with the store's own trait accessors — same atomics, two
        // views
        let dir = std::env::temp_dir().join(format!("pbg_reg_equiv_{}", std::process::id()));
        let schema = GraphSchema::homogeneous(64, 4).unwrap();
        let mut t =
            Trainer::with_storage(schema, &ring(64), config(1, 3), Storage::Disk(dir.clone()))
                .unwrap();
        let stats = t.train();
        let swap_ins: usize = stats.iter().map(|e| e.swap_ins).sum();
        let hits: usize = stats.iter().map(|e| e.prefetch_hits).sum();
        assert_eq!(swap_ins, t.store().swap_ins());
        assert_eq!(hits, t.store().prefetch_hits());
        let snap = t.telemetry().snapshot();
        use pbg_telemetry::metrics::names;
        assert_eq!(snap.counter(names::STORE_SWAP_INS) as usize, swap_ins);
        assert_eq!(
            snap.gauge(names::STORE_RESIDENT_BYTES).peak as usize,
            t.store().peak_bytes()
        );
        assert_eq!(
            snap.counter(names::TRAINER_EDGES) as usize,
            stats.iter().map(|e| e.edges).sum::<usize>()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn crash_injection_stops_training_at_a_bucket_boundary() {
        let schema = GraphSchema::homogeneous(32, 2).unwrap();
        let mut t = Trainer::new(schema, &ring(32), config(1, 3)).unwrap();
        t.inject_crash_after_buckets(2);
        let stats = t.train();
        assert!(t.crashed());
        assert_eq!(stats.len(), 1, "crash lands inside the first epoch");
        assert_eq!(stats[0].buckets, 2, "exactly 2 buckets trained");
    }

    #[test]
    fn periodic_checkpoint_records_progress() {
        let dir = std::env::temp_dir().join(format!("pbg_ckpt_prog_{}", std::process::id()));
        let schema = GraphSchema::homogeneous(32, 2).unwrap(); // 4 buckets
        let mut t = Trainer::new(schema, &ring(32), config(1, 1)).unwrap();
        t.set_checkpoint_policy(CheckpointPolicy {
            dir: dir.clone(),
            every_buckets: 3,
        });
        t.train();
        assert!(t.checkpoint_error().is_none());
        let manifest = crate::checkpoint::read_manifest(&dir).unwrap();
        // saved at bucket 3 of 4: mid-epoch progress
        assert_eq!(manifest.progress.epochs_done, 0);
        assert_eq!(manifest.progress.steps_done, 3);
        assert_eq!(
            t.telemetry()
                .snapshot()
                .counter(metric_name::TRAINER_CHECKPOINTS),
            1
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_skips_trained_buckets_and_completes_the_run() {
        let dir = std::env::temp_dir().join(format!("pbg_resume_{}", std::process::id()));
        let schema = GraphSchema::homogeneous(32, 2).unwrap(); // 4 buckets/epoch
        let edges = ring(32);
        // uninterrupted reference: bucket count per epoch
        let mut reference = Trainer::new(schema.clone(), &edges, config(1, 2)).unwrap();
        let ref_stats = reference.train();
        let ref_buckets: usize = ref_stats.iter().map(|s| s.buckets).sum();
        // crashing run: checkpoint every bucket, die 5 buckets in (one
        // bucket into epoch 2)
        let mut t = Trainer::new(schema.clone(), &edges, config(1, 2)).unwrap();
        t.set_checkpoint_policy(CheckpointPolicy {
            dir: dir.clone(),
            every_buckets: 1,
        });
        t.inject_crash_after_buckets(5);
        let crashed_stats = t.train();
        assert!(t.crashed());
        let crashed_buckets: usize = crashed_stats.iter().map(|s| s.buckets).sum();
        assert_eq!(crashed_buckets, 5);
        let manifest = crate::checkpoint::read_manifest(&dir).unwrap();
        assert_eq!(manifest.progress.epochs_done, 1);
        assert_eq!(manifest.progress.steps_done, 1);
        // resume and finish
        let mut r = Trainer::resume(
            schema,
            &edges,
            config(1, 2),
            Storage::InMemory,
            Registry::new(),
            &dir,
        )
        .unwrap();
        assert_eq!(r.epochs_done(), 1);
        let resumed_stats = r.train();
        assert!(!r.crashed());
        let resumed_buckets: usize = resumed_stats.iter().map(|s| s.buckets).sum();
        assert_eq!(
            crashed_buckets + resumed_buckets,
            ref_buckets,
            "crashed + resumed runs together train exactly one run's buckets"
        );
        assert_eq!(r.epochs_done(), 2);
        let snap = r.telemetry().snapshot();
        assert_eq!(snap.counter(metric_name::TRAINER_RESUMES), 1);
        assert_eq!(snap.counter(metric_name::TRAINER_RESUME_SKIPPED_STEPS), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_restores_model_state_exactly() {
        let dir = std::env::temp_dir().join(format!("pbg_resume_state_{}", std::process::id()));
        let schema = GraphSchema::homogeneous(32, 2).unwrap();
        let edges = ring(32);
        let mut t = Trainer::new(schema.clone(), &edges, config(1, 1)).unwrap();
        t.train();
        let snap = t.snapshot();
        crate::checkpoint::save_with_progress(
            &snap,
            &dir,
            TrainProgress {
                epochs_done: 1,
                steps_done: 0,
            },
        )
        .unwrap();
        let r = Trainer::resume(
            schema,
            &edges,
            config(1, 1),
            Storage::InMemory,
            Registry::new(),
            &dir,
        )
        .unwrap();
        let restored = r.snapshot();
        assert_eq!(
            restored.embeddings[0].as_slice(),
            snap.embeddings[0].as_slice(),
            "restored embeddings must be bit-identical"
        );
        assert_eq!(restored.relations, snap.relations);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_rejects_mismatched_schema() {
        let dir = std::env::temp_dir().join(format!("pbg_resume_schema_{}", std::process::id()));
        let schema = GraphSchema::homogeneous(32, 2).unwrap();
        let edges = ring(32);
        let t = Trainer::new(schema, &edges, config(1, 1)).unwrap();
        crate::checkpoint::save(&t.snapshot(), &dir).unwrap();
        let other = GraphSchema::homogeneous(64, 2).unwrap();
        let err = Trainer::resume(
            other,
            &ring(64),
            config(1, 1),
            Storage::InMemory,
            Registry::new(),
            &dir,
        )
        .unwrap_err();
        assert!(matches!(err, crate::error::PbgError::Checkpoint(_)));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn pipelined_epoch_reports_prefetch_traffic() {
        let dir = std::env::temp_dir().join(format!("pbg_pf_stats_{}", std::process::id()));
        let schema = GraphSchema::homogeneous(64, 4).unwrap();
        let mut t =
            Trainer::with_storage(schema, &ring(64), config(1, 2), Storage::Disk(dir.clone()))
                .unwrap();
        let stats = t.train();
        let total_hits: usize = stats.iter().map(|e| e.prefetch_hits).sum();
        let total_written: u64 = stats.iter().map(|e| e.bytes_written_back).sum();
        assert!(total_hits > 0, "plan must route loads through prefetches");
        assert!(total_written > 0, "releases must write back asynchronously");
        let total_swaps: usize = stats.iter().map(|e| e.swap_ins).sum();
        assert!(
            total_hits <= total_swaps,
            "every prefetch hit is also a swap-in"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
