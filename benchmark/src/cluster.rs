//! `train_cluster_loopback`: the three cluster servers on loopback TCP in
//! this process and two `train_rank` threads speaking the wire protocol
//! to them, plus the timing decorators on the `distsim::service` traits
//! that split a rank's wall time into service stalls and compute.

use crate::envelope::peak_rss_mb;
use crate::inputs::{self, GraphKind, GraphSpec, PROGRAM_SEED};
use crate::probes::{self, ChunkShape};
use crate::report::{Outcome, RunOpts};
use crate::stats::median;
use crate::tail::{check_trained, checkpoint_and_eval};
use crate::trace::{Tracer, ROOT};
use pbg_core::config::PbgConfig;
use pbg_core::model::Model;
use pbg_core::storage::{PartitionKey, StoreLayout};
use pbg_distsim::lockserver::{Acquire, LockServer};
use pbg_distsim::paramserver::ParamKey;
use pbg_distsim::service::{LockService, ParamService, PartitionService, ServiceError};
use pbg_distsim::{EpochLock, NetworkModel, ParameterServer, PartitionServer};
use pbg_graph::bucket::BucketId;
use pbg_graph::schema::GraphSchema;
use pbg_graph::split::EdgeSplit;
use pbg_net::{
    snapshot_model, train_rank, NetLock, NetParams, NetPartitions, NetServer, RankConfig,
    RankServices, RankStats,
};
use pbg_telemetry::metrics::names as metric;
use pbg_telemetry::span::SpanEvent;
use pbg_telemetry::Registry;
use pbg_tensor::kernels::flops_executed;
use serde_json::json;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Ranks, each training with one thread: 2 ranks x 1 thread fills the
/// 2-core reference host.
pub const RANKS: usize = 2;

/// Sizing of the cluster workload.
#[derive(Debug, Clone, Copy)]
pub struct ClusterSpec {
    /// The graph.
    pub graph: GraphSpec,
    /// Embedding dimension.
    pub dim: usize,
    /// Entity partitions `P` (a partition is ~13 MB on the wire).
    pub partitions: u32,
    /// Epochs at `--seconds` = `run_seconds`.
    pub epochs: usize,
    /// Held-out edges ranked by the eval tail.
    pub holdout: usize,
    /// Committed floor the filtered MRR must clear.
    pub mrr_floor: f64,
}

/// `train_cluster_loopback` at full size.
pub const LOOPBACK: ClusterSpec = ClusterSpec {
    graph: GraphSpec {
        kind: GraphKind::Social {
            intra_prob: 0.7,
            // a heavier tail (1.15) puts 18 % of all edge endpoints on one
            // hub, and the MRR then follows that hub's community: it moved
            // by 14 % from seed to seed, against 5 % here
            zipf_exponent: 1.0,
        },
        nodes: 200_000,
        edges: 500_000,
        communities: 128,
    },
    dim: 64,
    partitions: 4,
    epochs: 5,
    holdout: 6_000,
    mrr_floor: 0.20,
};

impl ClusterSpec {
    fn quick(mut self) -> ClusterSpec {
        self.graph = self.graph.quick();
        self.epochs = 1;
        self.holdout = 200;
        self.mrr_floor = 0.0;
        self
    }

    fn config(&self, epochs: usize) -> PbgConfig {
        PbgConfig::builder()
            .dim(self.dim)
            .epochs(epochs)
            .threads(1)
            .seed(PROGRAM_SEED)
            .build()
            .expect("benchmark config is valid")
    }
}

/// Calls, nanoseconds and bytes one rank spent in each service, filled
/// by the decorators.
#[derive(Debug, Default)]
pub struct RankMeters {
    acquire_calls: AtomicU64,
    acquire_granted: AtomicU64,
    acquire_ns: AtomicU64,
    lock_other_ns: AtomicU64,
    checkout_ns: AtomicU64,
    checkout_bytes: AtomicU64,
    checkin_ns: AtomicU64,
    checkin_bytes: AtomicU64,
    partitions_other_ns: AtomicU64,
    push_pull_calls: AtomicU64,
    push_pull_ns: AtomicU64,
    params_other_ns: AtomicU64,
    /// Time between an `acquire` answered `Wait` and the next `acquire`,
    /// less the service calls in between: the driver's back-off sleep.
    wait_idle_ns: AtomicU64,
    /// Trace-clock time the last `Wait` was answered (0 = not waiting).
    wait_since_ns: AtomicU64,
    /// `service_ns()` at that moment.
    service_at_wait_ns: AtomicU64,
}

fn get(a: &AtomicU64) -> u64 {
    a.load(Ordering::Relaxed)
}

impl RankMeters {
    /// Nanoseconds inside service calls, all three services.
    fn service_ns(&self) -> u64 {
        [
            &self.acquire_ns,
            &self.lock_other_ns,
            &self.checkout_ns,
            &self.checkin_ns,
            &self.partitions_other_ns,
            &self.push_pull_ns,
            &self.params_other_ns,
        ]
        .iter()
        .map(|a| get(a))
        .sum()
    }

    /// Nanoseconds the rank was not computing: services plus back-off.
    fn stall_ns(&self) -> u64 {
        self.service_ns() + get(&self.wait_idle_ns)
    }
}

/// Timing decorator over any of the three services: forwards every call
/// unchanged, adds its duration (and payload bytes) to the rank's meters
/// and records a span when the pass is traced.
pub struct Timed<'a, S> {
    inner: S,
    meters: &'a RankMeters,
    tracer: &'a Tracer,
    parent: u64,
}

impl<'a, S> Timed<'a, S> {
    /// Wraps `inner`; spans are recorded under `parent`.
    pub fn new(inner: S, meters: &'a RankMeters, tracer: &'a Tracer, parent: u64) -> Self {
        Timed {
            inner,
            meters,
            tracer,
            parent,
        }
    }

    fn call<T>(&self, span: &'static str, ns: &AtomicU64, f: impl FnOnce(&S) -> T) -> T {
        let t0 = self.tracer.now_ns();
        let out = f(&self.inner);
        let dur = self.tracer.now_ns().saturating_sub(t0);
        ns.fetch_add(dur, Ordering::Relaxed);
        self.tracer.record(span, self.parent, t0, dur);
        out
    }
}

impl<S: LockService> LockService for Timed<'_, S> {
    fn acquire(
        &self,
        machine: usize,
        prev: Option<BucketId>,
    ) -> Result<(usize, Acquire), ServiceError> {
        let m = self.meters;
        let since = m.wait_since_ns.swap(0, Ordering::Relaxed);
        if since != 0 {
            let gap = self.tracer.now_ns().saturating_sub(since);
            let served = m.service_ns() - get(&m.service_at_wait_ns);
            m.wait_idle_ns
                .fetch_add(gap.saturating_sub(served), Ordering::Relaxed);
        }
        let out = self.call("net.lock.acquire", &m.acquire_ns, |s| {
            s.acquire(machine, prev)
        });
        m.acquire_calls.fetch_add(1, Ordering::Relaxed);
        match &out {
            Ok((_, Acquire::Granted(_))) => {
                m.acquire_granted.fetch_add(1, Ordering::Relaxed);
            }
            Ok((_, Acquire::Wait)) => {
                m.service_at_wait_ns
                    .store(m.service_ns(), Ordering::Relaxed);
                m.wait_since_ns
                    .store(self.tracer.now_ns().max(1), Ordering::Relaxed);
            }
            _ => {}
        }
        out
    }

    fn release_bucket(&self, machine: usize, bucket: BucketId) -> Result<(), ServiceError> {
        self.call("net.lock.release", &self.meters.lock_other_ns, |s| {
            s.release_bucket(machine, bucket)
        })
    }

    fn reap_expired(&self) -> Result<Vec<BucketId>, ServiceError> {
        self.call("net.lock.reap", &self.meters.lock_other_ns, |s| {
            s.reap_expired()
        })
    }
}

impl<S: PartitionService> PartitionService for Timed<'_, S> {
    fn checkout(&self, key: PartitionKey) -> Result<(Vec<f32>, Vec<f32>, u64), ServiceError> {
        let out = self.call("net.partitions.checkout", &self.meters.checkout_ns, |s| {
            s.checkout(key)
        });
        if let Ok((emb, acc, _)) = &out {
            self.meters
                .checkout_bytes
                .fetch_add(4 * (emb.len() + acc.len()) as u64, Ordering::Relaxed);
        }
        out
    }

    fn checkin(
        &self,
        key: PartitionKey,
        emb: Vec<f32>,
        acc: Vec<f32>,
        token: u64,
    ) -> Result<bool, ServiceError> {
        self.meters
            .checkin_bytes
            .fetch_add(4 * (emb.len() + acc.len()) as u64, Ordering::Relaxed);
        self.call("net.partitions.checkin", &self.meters.checkin_ns, |s| {
            s.checkin(key, emb, acc, token)
        })
    }

    fn revoke(&self, key: PartitionKey) -> Result<(), ServiceError> {
        self.call(
            "net.partitions.revoke",
            &self.meters.partitions_other_ns,
            |s| s.revoke(key),
        )
    }

    fn peek(&self, key: PartitionKey) -> Result<(Vec<f32>, Vec<f32>), ServiceError> {
        self.call(
            "net.partitions.peek",
            &self.meters.partitions_other_ns,
            |s| s.peek(key),
        )
    }
}

impl<S: ParamService> ParamService for Timed<'_, S> {
    fn register(&self, key: ParamKey, init: &[f32]) -> Result<Vec<f32>, ServiceError> {
        self.call("net.params.register", &self.meters.params_other_ns, |s| {
            s.register(key, init)
        })
    }

    fn push_pull(&self, key: ParamKey, delta: &[f32]) -> Result<Vec<f32>, ServiceError> {
        self.meters.push_pull_calls.fetch_add(1, Ordering::Relaxed);
        self.call("net.params.push_pull", &self.meters.push_pull_ns, |s| {
            s.push_pull(key, delta)
        })
    }

    fn pull(&self, key: ParamKey) -> Result<Vec<f32>, ServiceError> {
        self.call("net.params.pull", &self.meters.params_other_ns, |s| {
            s.pull(key)
        })
    }
}

/// The three servers of one cluster, bound to ephemeral loopback ports.
struct Servers {
    lock: NetServer,
    partitions: NetServer,
    params: NetServer,
    network: Arc<NetworkModel>,
}

impl Servers {
    fn start(layout: StoreLayout, epochs: usize, partitions: u32) -> Servers {
        let network = Arc::new(NetworkModel::new(1e9, 0.0));
        // no rank crashes here, so a lease must never expire: reaped = 0
        // is one of the checks
        let lock = Arc::new(EpochLock::new(
            LockServer::with_lease(Duration::from_secs(600)),
            epochs,
            partitions,
            partitions,
        ));
        let part = Arc::new(PartitionServer::new(layout, RANKS, Arc::clone(&network)));
        let params = Arc::new(ParameterServer::new(1, Arc::clone(&network)));
        Servers {
            lock: NetServer::lock("127.0.0.1:0", lock).expect("lock server"),
            partitions: NetServer::partitions("127.0.0.1:0", part).expect("partition server"),
            params: NetServer::params("127.0.0.1:0", params).expect("parameter server"),
            network,
        }
    }
}

struct Ready {
    schema: GraphSchema,
    split: EdgeSplit,
    config: PbgConfig,
    layout: StoreLayout,
    servers: Servers,
    datagen_s: f64,
}

fn set_up(spec: &ClusterSpec, opts: &RunOpts, tracer: &Tracer, epochs: usize) -> Ready {
    let span = tracer.span("setup", ROOT);
    let (edges, datagen_s) = tracer.timed("datagen.generate", span.id(), || {
        spec.graph.generate(opts.seed)
    });
    let (split, _) = tracer.timed("graph.split", span.id(), || {
        inputs::split(&edges, spec.holdout, opts.seed)
    });
    let schema = spec.graph.schema(spec.partitions);
    let config = spec.config(epochs);
    let (layout, _) = tracer.timed("core.model.new", span.id(), || {
        Model::new(schema.clone(), config.clone())
            .expect("cluster model")
            .store_layout()
    });
    let (servers, _) = tracer.timed("net.server.start", span.id(), || {
        Servers::start(layout.clone(), epochs, spec.partitions)
    });
    Ready {
        schema,
        split,
        config,
        layout,
        servers,
        datagen_s,
    }
}

/// What one rank thread hands back.
struct RankRun {
    stats: RankStats,
    wall_s: f64,
    wire_bytes: u64,
    retries: u64,
    resident_peak: u64,
    events: Vec<SpanEvent>,
}

/// Runs the cluster workload.
pub fn run(spec: ClusterSpec, opts: &RunOpts) -> (Outcome, Tracer, Vec<SpanEvent>) {
    let spec = if opts.quick { spec.quick() } else { spec };
    let epochs = if opts.quick {
        spec.epochs
    } else {
        opts.scaled(spec.epochs)
    };
    let tracer = Tracer::new(opts.workload, opts.traced);
    let mut out = Outcome::default();
    let ckpt = opts.out_dir.join(format!("ckpt-{}", opts.workload));

    let (ready, setups) =
        tracer.repeat_set_up(opts.setups(5), || set_up(&spec, opts, &tracer, epochs));
    let Ready {
        schema,
        split,
        config,
        layout,
        servers,
        datagen_s,
    } = ready;
    let addr = |s: &NetServer| s.local_addr().to_string();

    // ---- measured window ----
    let measure = tracer.span("measure", ROOT);
    let train_span = tracer.span("train", measure.id());
    let meters: Vec<RankMeters> = (0..RANKS).map(|_| RankMeters::default()).collect();
    let flops_before = flops_executed();
    let train_t0 = tracer.now_ns();
    let runs: Vec<RankRun> = std::thread::scope(|scope| {
        let handles: Vec<_> = meters
            .iter()
            .enumerate()
            .map(|(rank, meters)| {
                let (schema, edges, config, tracer) =
                    (&schema, &split.train, config.clone(), &tracer);
                let (lock, parts, params) = (
                    addr(&servers.lock),
                    addr(&servers.partitions),
                    addr(&servers.params),
                );
                let parent = train_span.id();
                scope.spawn(move || {
                    // a registry per rank, as separate processes would
                    // have: train_rank tags it with the rank
                    let telemetry = Registry::new();
                    telemetry.set_tracing(tracer.enabled());
                    let clock_offset = tracer.now_ns().saturating_sub(telemetry.now_ns());
                    let (lock, parts, params) = (
                        NetLock::new(lock, &telemetry),
                        NetPartitions::new(parts, &telemetry),
                        NetParams::new(params, &telemetry),
                    );
                    let run = RankConfig::new(rank);
                    let span = tracer.span("net.rank.train_rank", parent);
                    let t0 = tracer.now_ns();
                    // end-to-end numbers come from the bare clients; the
                    // decorators ride along only in the traced pass
                    let stats = if tracer.enabled() {
                        let services = RankServices {
                            lock: Timed::new(lock, meters, tracer, span.id()),
                            partitions: Timed::new(parts, meters, tracer, span.id()),
                            params: Timed::new(params, meters, tracer, span.id()),
                        };
                        train_rank(schema, edges, config, &services, &run, &telemetry)
                    } else {
                        let services = RankServices {
                            lock,
                            partitions: parts,
                            params,
                        };
                        train_rank(schema, edges, config, &services, &run, &telemetry)
                    }
                    .expect("train_rank");
                    let wall_s = (tracer.now_ns() - t0) as f64 * 1e-9;
                    drop(span);
                    let snap = telemetry.snapshot();
                    let mut events = telemetry.drain();
                    for e in &mut events {
                        e.t_ns += clock_offset;
                    }
                    RankRun {
                        stats,
                        wall_s,
                        wire_bytes: snap.counter(metric::NET_BYTES_SENT)
                            + snap.counter(metric::NET_BYTES_RECEIVED),
                        retries: snap.counter(metric::NET_RPC_RETRIES),
                        resident_peak: snap.gauge(&format!("rank{rank}.resident_bytes")).peak,
                        events,
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("rank thread"))
            .collect()
    });
    let train_wall = (tracer.now_ns() - train_t0) as f64 * 1e-9;
    let train_flops = flops_executed() - flops_before;
    drop(train_span);
    let edges_trained: usize = runs.iter().map(|r| r.stats.edges).sum();
    let buckets_trained: usize = runs.iter().map(|r| r.stats.buckets_trained).sum();
    let reaped: usize = runs.iter().map(|r| r.stats.recovered_buckets).sum();

    let tail_span = tracer.span("tail", measure.id());
    let (snapshot, _) = tracer.timed("net.rank.snapshot_model", tail_span.id(), || {
        let telemetry = Registry::new();
        let partitions = NetPartitions::new(addr(&servers.partitions), &telemetry);
        let params = NetParams::new(addr(&servers.params), &telemetry);
        snapshot_model(&schema, config.clone(), &partitions, &params).expect("snapshot_model")
    });
    let tail = checkpoint_and_eval(&tracer, tail_span.id(), &snapshot, &ckpt, &split, &mut out);
    drop(tail_span);
    drop(measure);

    // ---- correctness ----
    let checks = tracer.span("checks", ROOT);
    check_trained(
        &mut out,
        epochs * split.train.len(),
        edges_trained,
        tail.mrr,
        spec.mrr_floor,
    );
    let want_buckets = epochs * (spec.partitions * spec.partitions) as usize;
    out.check(
        "cluster buckets = epochs x P^2",
        buckets_trained == want_buckets,
        format!("{buckets_trained} of {want_buckets}"),
    );
    out.check(
        "distsim.lockserver.reaped = 0 and no rank crashed",
        reaped == 0 && runs.iter().all(|r| !r.stats.crashed),
        format!("{reaped} reaped"),
    );
    drop(checks);

    // ---- report ----
    let rank_walls: Vec<f64> = runs.iter().map(|r| r.wall_s).collect();
    let partition_bytes = layout
        .keys()
        .iter()
        .map(|(_, rows)| rows * (spec.dim + 1) * 4)
        .max()
        .unwrap_or(0);
    out.config("graph", json!(format!("{:?}", spec.graph)));
    out.config("train_edges", json!(split.train.len() as u64));
    out.config("heldout_edges", json!(split.test.len() as u64));
    out.config("partitions", json!(spec.partitions));
    out.config("ranks", json!(RANKS as u64));
    out.config("epochs", json!(epochs as u64));
    out.config(
        "partition_mb_on_the_wire",
        json!(partition_bytes as f64 / 1e6),
    );
    out.config("mrr_floor", json!(spec.mrr_floor));
    out.config("pbg_config", json!(config.to_json()));
    out.notes.push(format!(
        "cluster: {epochs} epochs, {edges_trained} edges in {train_wall:.3} s; rank walls {rank_walls:.3?}; buckets per rank {:?}; resident peaks {:?}; mrr {:.4}",
        runs.iter().map(|r| r.stats.buckets_trained).collect::<Vec<_>>(),
        runs.iter().map(|r| r.resident_peak).collect::<Vec<_>>(),
        tail.mrr
    ));
    tail.report(opts.traced, &mut out);

    let mut events = Vec::new();
    if opts.traced {
        let probe_span = tracer.span("probes", ROOT);
        let rows = (spec.graph.nodes / spec.partitions) as usize;
        let (kernel, _) = tracer.timed("probe.tensor.kernels", probe_span.id(), || {
            probes::kernels(ChunkShape::of(&config, rows))
        });
        let (codec, _) = tracer.timed("probe.net.wire", probe_span.id(), || {
            probes::wire_codec(rows, spec.dim)
        });
        let (roundtrip, _) = tracer.timed("probe.net.partitions", probe_span.id(), || {
            probes::partition_roundtrip(layout.clone())
        });
        drop(probe_span);

        let sum = |f: fn(&RankMeters) -> &AtomicU64| meters.iter().map(|m| get(f(m))).sum::<u64>();
        let secs = |ns: u64| ns as f64 * 1e-9;
        let stall: u64 = meters.iter().map(RankMeters::stall_ns).sum();
        let rank_wall: f64 = rank_walls.iter().sum();
        let achieved = train_flops as f64 / train_wall / 1e9;
        let calls = sum(|m| &m.acquire_calls);
        out.set("datagen.generate_s", datagen_s);
        out.set("tensor.kernels.achieved_gflops", achieved);
        out.set("tensor.kernels.peak_gflops", kernel.peak_gflops);
        out.set(
            "tensor.kernels.efficiency",
            achieved / (RANKS as f64 * kernel.peak_gflops),
        );
        out.set(
            "net.lock.acquire_wait_s",
            secs(sum(|m| &m.acquire_ns) + sum(|m| &m.wait_idle_ns)),
        );
        out.set("net.lock.acquire_calls", calls as f64);
        if calls > 0 {
            out.set(
                "net.lock.acquire_granted_ratio",
                sum(|m| &m.acquire_granted) as f64 / calls as f64,
            );
        }
        out.set("net.partitions.checkout_s", secs(sum(|m| &m.checkout_ns)));
        out.set("net.partitions.checkin_s", secs(sum(|m| &m.checkin_ns)));
        out.set(
            "net.partitions.checkout_mb",
            sum(|m| &m.checkout_bytes) as f64 / 1e6,
        );
        out.set(
            "net.partitions.checkin_mb",
            sum(|m| &m.checkin_bytes) as f64 / 1e6,
        );
        out.set("net.params.push_pull_s", secs(sum(|m| &m.push_pull_ns)));
        out.set(
            "net.params.push_pull_calls",
            sum(|m| &m.push_pull_calls) as f64,
        );
        out.set("net.rank.compute_s", rank_wall - secs(stall));
        out.set("net.rank.stall_share", secs(stall) / rank_wall);
        out.set(
            "net.wire.bytes_per_edge",
            runs.iter().map(|r| r.wire_bytes).sum::<u64>() as f64 / edges_trained.max(1) as f64,
        );
        out.set(
            "net.wire.retries",
            runs.iter().map(|r| r.retries).sum::<u64>() as f64,
        );
        out.set(
            "distsim.partitionserver.transfers",
            servers.network.total_transfers() as f64,
        );
        out.set("distsim.lockserver.reaped", reaped as f64);
        out.set("net.wire.encode_mb_per_s", codec.encode_mb_per_s);
        out.set("net.wire.decode_mb_per_s", codec.decode_mb_per_s);
        out.set("net.partitions.roundtrip_mb_per_s", roundtrip);
        events = tracer.drain();
        for run in runs {
            events.extend(run.events);
        }
        events.sort_by_key(|e| e.t_ns);
    } else {
        out.set("setup_s", median(&setups));
        out.set("throughput_per_s", edges_trained as f64 / train_wall);
        out.set("quality", tail.mrr);
        out.set("latency_p50_ms", median(&rank_walls) * 1e3);
        // a rank may hold the two partitions of its bucket: a count that
        // depends on sizes only, unlike the racy resident-bytes gauge
        out.set("peak_resident_emb_mb", 2.0 * partition_bytes as f64 / 1e6);
        out.set("peak_rss_mb", peak_rss_mb());
    }
    drop(servers);
    std::fs::remove_dir_all(&ckpt).ok();
    (out, tracer, events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    /// A scripted lock service: answers from a queue, records its calls.
    struct Scripted {
        answers: RefCell<Vec<Result<(usize, Acquire), ServiceError>>>,
        released: RefCell<Vec<(usize, BucketId)>>,
    }

    impl LockService for Scripted {
        fn acquire(
            &self,
            _machine: usize,
            _prev: Option<BucketId>,
        ) -> Result<(usize, Acquire), ServiceError> {
            self.answers.borrow_mut().remove(0)
        }

        fn release_bucket(&self, machine: usize, bucket: BucketId) -> Result<(), ServiceError> {
            self.released.borrow_mut().push((machine, bucket));
            Ok(())
        }

        fn reap_expired(&self) -> Result<Vec<BucketId>, ServiceError> {
            Err(ServiceError::Protocol("scripted failure".into()))
        }
    }

    struct Echo;

    impl PartitionService for Echo {
        fn checkout(&self, key: PartitionKey) -> Result<(Vec<f32>, Vec<f32>, u64), ServiceError> {
            Ok((vec![1.0; 8], vec![2.0; 2], u64::from(key.partition.0)))
        }

        fn checkin(
            &self,
            _key: PartitionKey,
            emb: Vec<f32>,
            _acc: Vec<f32>,
            token: u64,
        ) -> Result<bool, ServiceError> {
            Ok(token == emb.len() as u64)
        }

        fn revoke(&self, _key: PartitionKey) -> Result<(), ServiceError> {
            Err(ServiceError::Transport("down".into()))
        }

        fn peek(&self, _key: PartitionKey) -> Result<(Vec<f32>, Vec<f32>), ServiceError> {
            Ok((vec![3.0], vec![4.0]))
        }
    }

    impl ParamService for Echo {
        fn register(&self, _key: ParamKey, init: &[f32]) -> Result<Vec<f32>, ServiceError> {
            Ok(init.to_vec())
        }

        fn push_pull(&self, _key: ParamKey, delta: &[f32]) -> Result<Vec<f32>, ServiceError> {
            Ok(delta.iter().map(|d| d + 1.0).collect())
        }

        fn pull(&self, _key: ParamKey) -> Result<Vec<f32>, ServiceError> {
            Err(ServiceError::Protocol("unregistered".into()))
        }
    }

    #[test]
    fn decorators_forward_results_and_errors_unchanged() {
        let tracer = Tracer::new("unit", true);
        let meters = RankMeters::default();
        let bucket = BucketId::new(1u32, 2u32);
        let lock = Timed::new(
            Scripted {
                answers: RefCell::new(vec![
                    Ok((1, Acquire::Wait)),
                    Ok((1, Acquire::Granted(bucket))),
                    Err(ServiceError::Transport("reset".into())),
                ]),
                released: RefCell::new(Vec::new()),
            },
            &meters,
            &tracer,
            ROOT,
        );
        assert_eq!(lock.acquire(0, None), Ok((1, Acquire::Wait)));
        std::thread::sleep(Duration::from_millis(2));
        assert_eq!(lock.acquire(0, None), Ok((1, Acquire::Granted(bucket))));
        assert_eq!(
            lock.acquire(0, Some(bucket)),
            Err(ServiceError::Transport("reset".into()))
        );
        assert_eq!(lock.release_bucket(3, bucket), Ok(()));
        assert_eq!(lock.inner.released.borrow().as_slice(), &[(3, bucket)]);
        assert_eq!(
            lock.reap_expired(),
            Err(ServiceError::Protocol("scripted failure".into()))
        );
        assert_eq!(get(&meters.acquire_calls), 3);
        assert_eq!(get(&meters.acquire_granted), 1);
        assert!(
            get(&meters.wait_idle_ns) >= 2_000_000,
            "the back-off between Wait and the next acquire is idle time"
        );

        let key = PartitionKey::new(0u32, 8u32);
        let parts = Timed::new(Echo, &meters, &tracer, ROOT);
        assert_eq!(parts.checkout(key), Ok((vec![1.0; 8], vec![2.0; 2], 8)));
        assert_eq!(parts.checkin(key, vec![0.0; 8], vec![0.0; 2], 8), Ok(true));
        assert_eq!(parts.checkin(key, vec![0.0; 8], vec![0.0; 2], 7), Ok(false));
        assert_eq!(
            parts.revoke(key),
            Err(ServiceError::Transport("down".into()))
        );
        assert_eq!(parts.peek(key), Ok((vec![3.0], vec![4.0])));
        assert_eq!(get(&meters.checkout_bytes), 40);
        assert_eq!(get(&meters.checkin_bytes), 80);

        let pkey = ParamKey {
            relation: 0,
            side: 0,
        };
        let params = Timed::new(Echo, &meters, &tracer, ROOT);
        assert_eq!(params.register(pkey, &[1.0, 2.0]), Ok(vec![1.0, 2.0]));
        assert_eq!(params.push_pull(pkey, &[1.0]), Ok(vec![2.0]));
        assert_eq!(
            params.pull(pkey),
            Err(ServiceError::Protocol("unregistered".into()))
        );
        assert_eq!(get(&meters.push_pull_calls), 1);
        // one span per forwarded call
        assert_eq!(tracer.drain().len(), 13);
        assert!(meters.stall_ns() >= meters.service_ns());
    }
}
