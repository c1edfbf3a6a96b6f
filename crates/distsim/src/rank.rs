//! The trainer rank: the one implementation of the paper's distributed
//! loop (§4.2, Figure 2) — acquire a bucket, swap partitions, train,
//! sync shared parameters, release.
//!
//! A [`Rank`] reaches its three services only through the
//! [`crate::service`] traits, so the same driver runs as a simulated
//! machine over the in-process state machines
//! ([`crate::cluster::ClusterTrainer`]) and as a real process over the
//! `pbg-net` TCP clients ([`train_rank`]).
//!
//! **Seeding** replays the single-machine schedule: the per-bucket train
//! seed and shuffle come from the same [`Schedule`] `Trainer::train_epoch`
//! uses at `threads = 1`, derived from `(seed, epoch, step)` where `step` is
//! the bucket's position in that epoch's deterministic order. Which
//! *rank* trains a bucket therefore does not affect the numbers — on a
//! diagonal (conflict-free) bucket grid a cluster run over either
//! transport is bit-identical to the single-machine run.
//!
//! **Residency** is the paper's swap loop: a fenced checkout is
//! exclusive, so a rank holds exactly the partitions of the bucket it
//! holds. On each grant it checks in what the new bucket does not need,
//! releases the old lock, then checks out what it lacks.
//!
//! **Shared parameters** — relation operators and the embedding tables
//! of unpartitioned entity types — live on the parameter service. Each
//! rank trains a local copy, pushes throttled deltas through
//! [`DeltaTracker`] and keeps the Adagrad accumulators local.

use crate::fault::{backoff, FaultPlan, Faulty};
use crate::lockserver::Acquire;
use crate::paramserver::{checked_len, DeltaTracker, ParamKey};
use crate::service::{LockService, ParamService, PartitionService, ServiceError};
use parking_lot::Mutex;
use pbg_core::config::PbgConfig;
use pbg_core::model::{Model, TrainedEmbeddings};
use pbg_core::optimizer::HogwildAdagradDense;
use pbg_core::storage::{PartitionData, PartitionKey, PartitionStore};
use pbg_core::trainer::{bucketize, needed_keys, train_bucket, Schedule};
use pbg_graph::bucket::{BucketId, Buckets};
use pbg_graph::edges::EdgeList;
use pbg_graph::schema::GraphSchema;
use pbg_graph::RelationTypeId;
use pbg_telemetry::metrics::names as metric;
use pbg_telemetry::trace::names as span_name;
use pbg_telemetry::{Counter, Gauge, Registry};
use pbg_tensor::hogwild::HogwildArray;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;
use std::time::Duration;

/// Attempts a partition RPC gets before the rank gives up on it.
const RPC_ATTEMPTS: u32 = 8;

/// Per-rank run parameters (everything not in the shared [`PbgConfig`]).
#[derive(Debug, Clone)]
pub struct RankConfig {
    /// This rank's id (the lock server's `machine` — unique per rank).
    pub rank: usize,
    /// Injected faults (none in production).
    pub faults: FaultPlan,
    /// Minimum interval between parameter-server syncs of the same key.
    pub param_sync_throttle: Duration,
}

impl RankConfig {
    /// A fault-free rank with no sync throttling.
    pub fn new(rank: usize) -> Self {
        RankConfig {
            rank,
            faults: FaultPlan::none(),
            param_sync_throttle: Duration::ZERO,
        }
    }
}

/// The three services a rank trains against — in-process state machines
/// or TCP clients, anything implementing the `distsim::service` traits.
#[derive(Debug)]
pub struct RankServices<L, P, Q> {
    /// Lock server (epoch-sequencing bucket leases).
    pub lock: L,
    /// Partition server (fenced partition checkout/check-in).
    pub partitions: P,
    /// Parameter server (async shared-parameter push/pull).
    pub params: Q,
}

/// What one rank did during one [`Rank::run`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RankStats {
    /// Buckets this rank trained.
    pub buckets_trained: usize,
    /// Edges this rank trained.
    pub edges: usize,
    /// Summed training loss over this rank's buckets.
    pub loss: f64,
    /// Highest epoch this rank participated in.
    pub epochs_seen: usize,
    /// Buckets whose expired lease this rank reaped (crashed peers).
    pub recovered_buckets: usize,
    /// `true` when an injected crash fault terminated the rank
    /// mid-bucket (nothing was released — the lease reaper cleans up).
    pub crashed: bool,
}

/// Local tables of the unpartitioned entity types, by partition key.
type SharedTables = BTreeMap<PartitionKey, Arc<PartitionData>>;

/// One trainer rank's state across [`Rank::run`] calls: its model (the
/// relation parameters and their Adagrad accumulators), its local
/// copies of the unpartitioned entity tables, the schedule replay and
/// the parameter-sync delta bases.
#[derive(Debug)]
pub struct Rank {
    run: RankConfig,
    model: Model,
    shared: SharedTables,
    schedule: Schedule,
    buckets: Arc<Buckets>,
    /// Each bucket this rank trained, in its last-trained order, with
    /// the epochs of shuffles that order has seen.
    shuffled: HashMap<BucketId, (usize, EdgeList)>,
    tracker: DeltaTracker,
}

impl Rank {
    /// Builds rank `run.rank` over the bucketed training edges. Every
    /// rank of a cluster must be built from the same `schema`, `buckets`
    /// and `config`.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::Protocol`] for an invalid config or
    /// `bucket_passes != 1`.
    pub fn new(
        schema: &GraphSchema,
        buckets: Arc<Buckets>,
        config: PbgConfig,
        run: RankConfig,
    ) -> Result<Rank, ServiceError> {
        if config.bucket_passes != 1 {
            return Err(ServiceError::Protocol(
                "cluster training supports bucket_passes = 1 only".into(),
            ));
        }
        let model = new_model(schema, config)?;
        Ok(Rank {
            shared: shared_tables(&model),
            schedule: Schedule::new(model.config(), &buckets),
            buckets,
            shuffled: HashMap::new(),
            tracker: DeltaTracker::new(run.param_sync_throttle),
            model,
            run,
        })
    }

    /// Registers every shared block with the parameter service and
    /// installs the canonical values locally: a rank joining — fresh, or
    /// rebooted after a crash — starts from the cluster's state, or its
    /// first delta push would revert other ranks' progress.
    pub(crate) fn register<Q: ParamService>(&mut self, params: &Q) -> Result<(), ServiceError> {
        for (key, block) in blocks(&self.model, &self.shared) {
            block.write(&self.tracker.register(params, key, &block.read())?);
        }
        Ok(())
    }

    /// Trains this rank's share of the workload until the lock service
    /// reports `Done` (all scheduled epochs finished) or an injected
    /// crash fires.
    ///
    /// # Errors
    ///
    /// Propagates failures of the lock and parameter services. Partition
    /// transfers retry internally (checkout is idempotent; check-in is
    /// at-most-once thanks to fencing tokens); one that keeps failing is
    /// returned as the error it last met. On `Err` nothing further is
    /// released — like a crash, the lease reaper cleans up.
    pub fn run<L, P, Q>(
        &mut self,
        services: &RankServices<L, P, Q>,
        telemetry: &Registry,
    ) -> Result<RankStats, ServiceError>
    where
        L: LockService,
        P: PartitionService + Sync,
        Q: ParamService,
    {
        let rank = self.run.rank;
        let retries = telemetry.counter(metric::NET_RPC_RETRIES);
        let faults = self.run.faults.clone();
        let partitions = Faulty::new(&services.partitions, &faults, rank, retries.clone());
        let params = Faulty::new(&services.params, &faults, rank, retries.clone());
        self.register(&params)?;
        let (model, shared) = (&self.model, &self.shared);
        let (schedule, tracker) = (&mut self.schedule, &mut self.tracker);
        let (buckets, shuffled) = (&self.buckets, &mut self.shuffled);
        let blocks = blocks(model, shared);
        let store = RankStore::for_training(&partitions, shared, model, rank, telemetry);
        let edges_total = telemetry.counter(metric::CLUSTER_EDGES);
        let lock_waits = telemetry.counter(metric::CLUSTER_LOCK_WAITS);
        let idle_ns = telemetry.counter(metric::CLUSTER_IDLE_NS);
        let recovered = telemetry.counter(metric::CLUSTER_RECOVERED_BUCKETS);
        let acquire_wait = telemetry.histogram(metric::CLUSTER_ACQUIRE_WAIT_NS);
        // partitions this rank swaps: what the bucket needs, less the
        // shared tables it keeps for the whole run
        let swapped = |bucket| -> BTreeSet<PartitionKey> {
            let keys = needed_keys(model, bucket).into_iter();
            keys.filter(|key| !shared.contains_key(key)).collect()
        };

        // the partitions this rank has checked out, iterated in key order
        let mut held = BTreeSet::new();
        let mut stats = RankStats::default();
        let mut prev: Option<BucketId> = None;
        let mut buckets_done_in_epoch = 0usize;
        // start of the oldest unanswered acquire attempt
        let mut wait_start: Option<u64> = None;
        loop {
            let t_req = wait_start.unwrap_or_else(|| telemetry.now_ns());
            match services.lock.acquire(rank, prev)? {
                (epoch, Acquire::Granted(bucket)) => {
                    let waited = telemetry.now_ns().saturating_sub(t_req);
                    acquire_wait.observe(waited);
                    if wait_start.take().is_some() {
                        // only waits that actually idled the rank earn a
                        // span; instant grants would drown the trace
                        telemetry.record_span(
                            span_name::ACQUIRE_WAIT,
                            t_req,
                            waited,
                            vec![("machine", (rank as u64).into())],
                        );
                    }
                    if epoch != stats.epochs_seen {
                        stats.epochs_seen = epoch;
                        buckets_done_in_epoch = 0;
                    }
                    let needed = swapped(bucket);
                    // fenced checkouts cannot cache partitions whose bucket
                    // lock has been released — another rank's checkout would
                    // silently invalidate our token — so check in everything
                    // this bucket does not need before releasing the lock
                    for &key in held.difference(&needed) {
                        store.release(key);
                    }
                    if let Some(p) = prev.take() {
                        services.lock.release_bucket(rank, p)?;
                    }
                    for &key in needed.difference(&held) {
                        store.load(key);
                    }
                    held = needed;
                    store.check()?;
                    if faults.machine_crashes(epoch, rank, buckets_done_in_epoch) {
                        // hard crash at the worst point: bucket locked,
                        // partitions checked out, nothing released — the
                        // lease reaper and fencing tokens must clean up
                        stats.crashed = true;
                        return Ok(stats);
                    }
                    // the single-machine trainer's seed and edge order for
                    // this bucket in this epoch, brought forward from the
                    // order this rank last trained it in
                    let pristine = || (0, buckets.bucket(bucket).clone());
                    let (applied, edges) = shuffled.entry(bucket).or_insert_with(pristine);
                    let seed = schedule.replay(bucket, edges, *applied, epoch);
                    *applied = epoch;
                    let bstats = train_bucket(model, &store, bucket, edges, seed, telemetry);
                    store.check()?;
                    stats.buckets_trained += 1;
                    stats.edges += bstats.edges;
                    stats.loss += bstats.loss;
                    edges_total.add(bstats.edges as u64);
                    buckets_done_in_epoch += 1;
                    sync_blocks(&params, tracker, &blocks, false, telemetry)?;
                    prev = Some(bucket);
                }
                (_, Acquire::Wait) => {
                    wait_start = Some(t_req);
                    // give up held partitions and locks while waiting (the
                    // granted bucket another rank needs may overlap ours)
                    for key in std::mem::take(&mut held) {
                        store.release(key);
                    }
                    store.check()?;
                    let released = prev.take();
                    if let Some(p) = released {
                        services.lock.release_bucket(rank, p)?;
                    }
                    // a crashed rank never releases: reap its lease and
                    // fence its checkouts so the retrainer starts from the
                    // last committed versions
                    for bucket in services.lock.reap_expired()? {
                        stats.recovered_buckets += 1;
                        recovered.inc();
                        for key in swapped(bucket) {
                            services.partitions.revoke(key)?;
                        }
                    }
                    lock_waits.inc();
                    if released.is_some() {
                        // our own bucket may be what held the grant back
                        // (at an epoch end it always is): ask again at once
                        continue;
                    }
                    let sleep_start = telemetry.now_ns();
                    std::thread::sleep(Duration::from_micros(200));
                    idle_ns.add(telemetry.now_ns().saturating_sub(sleep_start));
                }
                (epoch, Acquire::Done) => {
                    stats.epochs_seen = stats.epochs_seen.max(epoch);
                    break;
                }
            }
        }
        for key in held {
            store.release(key);
        }
        store.check()?;
        if let Some(p) = prev {
            services.lock.release_bucket(rank, p)?;
        }
        sync_blocks(&params, tracker, &blocks, true, telemetry)?;
        Ok(stats)
    }
}

/// Trains one process's share of the cluster workload to completion:
/// builds a [`Rank`] and runs it until the lock server reports all
/// epochs done (or an injected crash fires). Every rank must be started
/// with the same `schema`, `edges`, and `config`.
///
/// # Errors
///
/// See [`Rank::new`] and [`Rank::run`].
pub fn train_rank<L, P, Q>(
    schema: &GraphSchema,
    edges: &EdgeList,
    config: PbgConfig,
    services: &RankServices<L, P, Q>,
    run: &RankConfig,
    telemetry: &Registry,
) -> Result<RankStats, ServiceError>
where
    L: LockService,
    P: PartitionService + Sync,
    Q: ParamService,
{
    // Identify this process in telemetry: every event is rank-tagged and
    // outgoing RPCs carry a trace context derived from the shared seed,
    // so multi-rank span files merge into one coherent trace. (Simulated
    // machines share one registry, so this is not part of `Rank::run`.)
    telemetry.set_rank(run.rank as u32);
    telemetry.set_trace_id(pbg_telemetry::context::trace_id_from_seed(config.seed));
    let buckets = Arc::new(bucketize(schema, edges));
    Rank::new(schema, buckets, config, run.clone())?.run(services, telemetry)
}

/// Gathers the trained model from the servers: canonical relation
/// parameters and unpartitioned entity tables from the parameter
/// service, partitioned embeddings peeked from the partition service.
/// Call after every rank finished.
///
/// # Errors
///
/// Propagates service failures and invalid configs.
pub fn snapshot_model<P, Q>(
    schema: &GraphSchema,
    config: PbgConfig,
    partitions: &P,
    params: &Q,
) -> Result<TrainedEmbeddings, ServiceError>
where
    P: PartitionService + Sync,
    Q: ParamService,
{
    let model = new_model(schema, config)?;
    let shared = shared_tables(&model);
    for (key, block) in blocks(&model, &shared) {
        block.write(&checked_len(key, params.pull(key)?, block.len())?);
    }
    let store = RankStore::for_snapshot(partitions, &shared, &model);
    let snapshot = model.snapshot(&store);
    store.check()?;
    Ok(snapshot)
}

fn new_model(schema: &GraphSchema, config: PbgConfig) -> Result<Model, ServiceError> {
    Model::new(schema.clone(), config).map_err(|e| ServiceError::Protocol(e.to_string()))
}

/// Deterministically initialized local tables for every unpartitioned
/// entity type (identical on every rank, like the relation parameters).
fn shared_tables(model: &Model) -> SharedTables {
    let layout = model.store_layout();
    let shared = |key: &PartitionKey| !model.schema().entity_type(key.entity_type).is_partitioned();
    layout
        .keys()
        .iter()
        .filter(|(key, _)| shared(key))
        .map(|&(key, _)| (key, Arc::new(layout.init(key))))
        .collect()
}

/// One non-empty parameter block a rank keeps locally and syncs through
/// the parameter service; Adagrad accumulators never leave the rank.
enum Block<'a> {
    Relation(&'a HogwildAdagradDense),
    Table(&'a HogwildArray),
}

impl Block<'_> {
    fn len(&self) -> usize {
        match self {
            Block::Relation(params) => params.len(),
            Block::Table(table) => table.len(),
        }
    }

    fn read(&self) -> Vec<f32> {
        match self {
            Block::Relation(params) => params.snapshot(),
            Block::Table(table) => table.to_vec(),
        }
    }

    /// Overwrites the local values (`value` has the block's length).
    fn write(&self, value: &[f32]) {
        match self {
            Block::Relation(params) => params.restore(value, &params.accumulator_snapshot()),
            Block::Table(table) => table.copy_from_slice(value),
        }
    }
}

/// Every shared block of `model` with its parameter-service key, in a
/// fixed order: relation operators, then unpartitioned entity tables.
fn blocks<'a>(model: &'a Model, shared: &'a SharedTables) -> Vec<(ParamKey, Block<'a>)> {
    let mut out = Vec::new();
    for r in 0..model.num_relations() {
        let rel = model.relation(RelationTypeId(r as u32));
        let sides = [Some(&rel.forward), rel.reciprocal.as_ref()];
        for (side, params) in sides.into_iter().enumerate() {
            if let Some(params) = params.filter(|p| !p.is_empty()) {
                let key = ParamKey {
                    relation: r as u32,
                    side: side as u8,
                };
                out.push((key, Block::Relation(params)));
            }
        }
    }
    for (key, table) in shared {
        let key = ParamKey {
            relation: key.entity_type.0,
            side: ParamKey::ENTITY_TABLE,
        };
        out.push((key, Block::Table(&table.embeddings)));
    }
    out
}

/// Pushes every block's delta and installs the merged values (`force`
/// overrides the per-key throttle: run boundaries always sync).
fn sync_blocks<Q: ParamService>(
    params: &Q,
    tracker: &mut DeltaTracker,
    blocks: &[(ParamKey, Block<'_>)],
    force: bool,
    telemetry: &Registry,
) -> Result<(), ServiceError> {
    let t0 = telemetry.now_ns();
    let mut bytes = 0u64;
    for (key, block) in blocks {
        if let Some(merged) = tracker.sync(params, *key, force, || block.read())? {
            block.write(&merged);
            // one push (delta) + one pull (merged), 4 bytes per f32
            bytes += 2 * 4 * merged.len() as u64;
        }
    }
    if bytes > 0 {
        telemetry.counter(metric::CLUSTER_SYNC_BYTES).add(bytes);
        telemetry.record_span(
            span_name::PARAM_SYNC,
            t0,
            telemetry.now_ns().saturating_sub(t0),
            vec![("bytes", bytes.into())],
        );
    }
    Ok(())
}

/// One partition resident on a rank.
struct Slot {
    data: Arc<PartitionData>,
    /// Fencing token of the checkout, presented at check-in.
    token: u64,
}

/// Rank-local partition store over a [`PartitionService`]. Shared tables
/// are served from the rank's local copies; partitioned keys are fenced
/// checkouts held until released — or, in peek mode (final snapshots),
/// reads of the last committed version that hold and write back nothing.
///
/// [`PartitionStore`] methods cannot return errors, so a partition RPC
/// that keeps failing is recorded (the load is answered with zeros of
/// the right shape) and surfaced by [`RankStore::check`], which the
/// driver asks before it trains on, or reports, anything loaded.
struct RankStore<'a, P: PartitionService + Sync> {
    service: &'a P,
    shared: &'a SharedTables,
    peek_only: bool,
    resident: Mutex<HashMap<PartitionKey, Slot>>,
    rows: HashMap<PartitionKey, usize>,
    dim: usize,
    lr: f32,
    resident_bytes: Gauge,
    retries: Counter,
    stale_checkins: Counter,
    failed: Mutex<Option<ServiceError>>,
}

impl<'a, P: PartitionService + Sync> RankStore<'a, P> {
    /// The training store of rank `rank`, metered in `telemetry`.
    fn for_training(
        service: &'a P,
        shared: &'a SharedTables,
        model: &Model,
        rank: usize,
        telemetry: &Registry,
    ) -> Self {
        let layout = model.store_layout();
        RankStore {
            service,
            shared,
            peek_only: false,
            resident: Mutex::new(HashMap::new()),
            rows: layout.keys().iter().copied().collect(),
            dim: layout.dim(),
            lr: model.config().learning_rate,
            resident_bytes: telemetry.gauge(&format!("rank{rank}.resident_bytes")),
            retries: telemetry.counter(metric::NET_RPC_RETRIES),
            stale_checkins: telemetry.counter(metric::CLUSTER_STALE_CHECKINS),
            failed: Mutex::new(None),
        }
    }

    /// A read-only store for snapshots; its meters go nowhere, so it
    /// distorts neither a rank's residency peak nor the retry counts.
    fn for_snapshot(service: &'a P, shared: &'a SharedTables, model: &Model) -> Self {
        RankStore {
            peek_only: true,
            ..RankStore::for_training(service, shared, model, 0, &Registry::new())
        }
    }

    /// The first partition RPC failure since the last call, if any.
    fn check(&self) -> Result<(), ServiceError> {
        self.failed.lock().take().map_or(Ok(()), Err)
    }

    /// Retries a failed partition RPC with backoff. Safe for both
    /// directions: checkout is idempotent (a re-checkout fences only our
    /// own previous token), and check-in is at-most-once — if the first
    /// attempt committed and the response was lost, the retry presents a
    /// consumed token and is discarded as stale.
    fn with_retry<T>(
        &self,
        mut f: impl FnMut() -> Result<T, ServiceError>,
    ) -> Result<T, ServiceError> {
        let mut attempt = 1u32;
        loop {
            match f() {
                Err(_) if attempt < RPC_ATTEMPTS => {
                    self.retries.inc();
                    std::thread::sleep(backoff(attempt));
                    attempt += 1;
                }
                result => return result,
            }
        }
    }

    /// Fetches `key` (checkout, or peek in peek mode) and validates its
    /// shape against the layout.
    fn fetch(&self, key: PartitionKey) -> (Arc<PartitionData>, u64) {
        let rows = self.rows[&key];
        let fetched = self
            .with_retry(|| {
                if self.peek_only {
                    let (emb, acc) = self.service.peek(key)?;
                    Ok((emb, acc, u64::MAX))
                } else {
                    self.service.checkout(key)
                }
            })
            .and_then(|(emb, acc, token)| {
                if emb.len() == rows * self.dim && acc.len() == rows {
                    Ok((emb, acc, token))
                } else {
                    Err(ServiceError::Protocol(format!(
                        "partition {key:?}: got {} + {} floats for {rows} rows of dim {}",
                        emb.len(),
                        acc.len(),
                        self.dim
                    )))
                }
            });
        let (emb, acc, token) = fetched.unwrap_or_else(|e| {
            self.failed.lock().get_or_insert(e);
            (vec![0.0; rows * self.dim], vec![0.0; rows], u64::MAX)
        });
        let data = PartitionData::from_parts(rows, self.dim, self.lr, emb, &acc);
        (Arc::new(data), token)
    }
}

impl<P: PartitionService + Sync> PartitionStore for RankStore<'_, P> {
    fn load(&self, key: PartitionKey) -> Arc<PartitionData> {
        if let Some(table) = self.shared.get(&key) {
            return Arc::clone(table);
        }
        if self.peek_only {
            return self.fetch(key).0;
        }
        let mut resident = self.resident.lock();
        let slot = resident.entry(key).or_insert_with(|| {
            let (data, token) = self.fetch(key);
            self.resident_bytes.add(data.bytes() as u64);
            Slot { data, token }
        });
        Arc::clone(&slot.data)
    }

    fn release(&self, key: PartitionKey) {
        let Some(slot) = self.resident.lock().remove(&key) else {
            return;
        };
        let (data, token) = (slot.data, slot.token);
        match self.with_retry(|| {
            self.service
                .checkin(key, data.embeddings.to_vec(), data.adagrad.to_vec(), token)
        }) {
            Ok(true) => {}
            // fenced out: our lease was reaped and someone else owns this
            // partition now — the server kept their version
            Ok(false) => self.stale_checkins.inc(),
            Err(e) => {
                self.failed.lock().get_or_insert(e);
            }
        }
        self.resident_bytes.sub(data.bytes() as u64);
    }
}
