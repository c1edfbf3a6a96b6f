//! The simulated cluster: machines as threads, each running the one
//! rank driver ([`crate::rank::Rank`]) over the in-process services.
//!
//! [`ClusterTrainer`] is a harness, not a second driver. It owns the
//! three state machines ([`EpochLock`], [`PartitionServer`],
//! [`ParameterServer`]) and one [`Rank`] per simulated machine, hands
//! every rank the bare state machines, and steps them an epoch at a
//! time so callers can report and evaluate between epochs. The servers'
//! [`NetworkModel`] counts the bytes a TCP cluster would move; the
//! [`crate::fault::FaultPlan`] of [`ClusterConfig`] is injected by the
//! rank driver's own [`crate::fault::Faulty`] wrapper, exactly as on
//! the TCP path. Paper-scale hours come from [`crate::event`], not from
//! this harness.

use crate::fault::FaultPlan;
use crate::lockserver::{EpochLock, LockServer};
use crate::netmodel::NetworkModel;
use crate::paramserver::ParameterServer;
use crate::partitionserver::PartitionServer;
use crate::rank::{snapshot_model, Rank, RankConfig, RankServices, RankStats};
use crate::service::ServiceError;
use pbg_core::config::PbgConfig;
use pbg_core::error::PbgError;
use pbg_core::model::{Model, TrainedEmbeddings};
use pbg_core::trainer::bucketize;
use pbg_graph::edges::EdgeList;
use pbg_graph::schema::GraphSchema;
use pbg_telemetry::metrics::names as metric;
use pbg_telemetry::trace::names as span_name;
use pbg_telemetry::{span, Registry};
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Cluster-level configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterConfig {
    /// Number of training machines (threads).
    pub machines: usize,
    /// Minimum interval between parameter-server syncs per machine.
    pub param_sync_throttle: Duration,
    /// How long a bucket grant stays valid without a release before the
    /// lock server reaps it and hands the bucket to another machine.
    /// Generous by default so fault-free runs never reap a slow but
    /// live trainer.
    pub lease_ttl: Duration,
    /// Injected faults (none by default).
    pub faults: FaultPlan,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            machines: 2,
            param_sync_throttle: Duration::from_millis(10),
            lease_ttl: Duration::from_secs(60),
            faults: FaultPlan::none(),
        }
    }
}

/// Per-epoch statistics for a cluster run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterEpochStats {
    /// Epoch index (1-based).
    pub epoch: usize,
    /// Wall-clock seconds (threads run concurrently, so this reflects the
    /// slowest machine's compute).
    pub seconds: f64,
    /// Edges trained.
    pub edges: usize,
    /// Mean loss per edge.
    pub mean_loss: f64,
    /// Total bytes moved through partition + parameter servers.
    pub network_bytes: u64,
    /// Peak resident bytes on any one machine.
    pub peak_machine_bytes: usize,
    /// Number of times a machine polled the lock server and had to wait.
    pub lock_waits: usize,
    /// Buckets whose lease expired (holder crashed) and were reassigned
    /// to, and retrained by, another machine.
    pub recovered_buckets: usize,
    /// Retries of failed partition transfers and timed-out parameter
    /// syncs (each with exponential backoff).
    pub retries: usize,
}

/// Multi-machine trainer.
pub struct ClusterTrainer {
    schema: GraphSchema,
    config: PbgConfig,
    ranks: Vec<Rank>,
    lock: Arc<EpochLock>,
    partitions: Arc<PartitionServer>,
    params: Arc<ParameterServer>,
    net: Arc<NetworkModel>,
    epoch: usize,
    telemetry: Registry,
}

impl ClusterTrainer {
    /// Builds a cluster trainer.
    ///
    /// # Errors
    ///
    /// Returns an error for invalid configs or when `machines == 0`.
    pub fn new(
        schema: GraphSchema,
        edges: &EdgeList,
        config: PbgConfig,
        cluster: ClusterConfig,
    ) -> Result<Self, PbgError> {
        if cluster.machines == 0 {
            return Err(PbgError::Config("machines must be positive".into()));
        }
        let net = Arc::new(NetworkModel::paper_default());
        let layout = Model::new(schema.clone(), config.clone())?.store_layout();
        let partitions = PartitionServer::new(layout, cluster.machines, Arc::clone(&net));
        let params = Arc::new(ParameterServer::new(cluster.machines, Arc::clone(&net)));
        let buckets = Arc::new(bucketize(&schema, edges));
        // no epoch is scheduled yet: `train_epoch` adds them one by one
        let lock = EpochLock::new(
            LockServer::with_lease(cluster.lease_ttl),
            0,
            buckets.src_parts(),
            buckets.dst_parts(),
        );
        // one rank per machine; deterministic init keeps them identical
        let mut ranks = (0..cluster.machines)
            .map(|rank| {
                let run = RankConfig {
                    rank,
                    faults: cluster.faults.clone(),
                    param_sync_throttle: cluster.param_sync_throttle,
                };
                Rank::new(&schema, Arc::clone(&buckets), config.clone(), run)
            })
            .collect::<Result<Vec<Rank>, ServiceError>>()
            .map_err(|e| PbgError::Config(e.to_string()))?;
        // the shared parameters exist on the server from the start, so a
        // snapshot before the first epoch sees the initial model
        ranks[0]
            .register(&params)
            .expect("in-process registration cannot fail");
        Ok(ClusterTrainer {
            schema,
            config,
            ranks,
            lock: Arc::new(lock),
            partitions: Arc::new(partitions),
            params,
            net,
            epoch: 0,
            telemetry: Registry::new(),
        })
    }

    /// The cluster's telemetry registry: `cluster.*` metrics, per-machine
    /// `rank{m}.resident_bytes` gauges, and (when tracing is enabled via
    /// [`pbg_telemetry::Registry::set_tracing`]) `bucket_train` /
    /// `acquire_wait` / `param_sync` spans.
    pub fn telemetry(&self) -> &Registry {
        &self.telemetry
    }

    /// Epochs completed.
    pub fn epochs_done(&self) -> usize {
        self.epoch
    }

    /// Trains one epoch across all machines: schedules it on the lock
    /// server and runs every machine's [`Rank`] until the server reports
    /// the epoch done.
    ///
    /// Epoch counters (`lock_waits`, `retries`, `network_bytes`,
    /// `peak_machine_bytes`) are derived from
    /// [`Registry::snapshot`] deltas of [`ClusterTrainer::telemetry`] —
    /// the report is a view of the same registry the trace and the
    /// Prometheus dump read.
    ///
    /// # Panics
    ///
    /// Panics if a machine's run fails, which the in-process services
    /// only allow when injected transfer failures outlast the retries.
    pub fn train_epoch(&mut self) -> ClusterEpochStats {
        self.epoch += 1;
        let epoch = self.epoch;
        let bytes_before = self.net.total_bytes();
        self.lock.add_epoch();
        // per-epoch machine peaks restart from the current residency
        for machine in 0..self.ranks.len() {
            self.telemetry
                .gauge(&format!("rank{machine}.resident_bytes"))
                .reset_peak();
        }
        let before = self.telemetry.snapshot();
        let _epoch_span = span!(self.telemetry, span_name::EPOCH, epoch = epoch as u64);
        let start = Instant::now();
        let telemetry = &self.telemetry;
        let runs: Vec<RankStats> = std::thread::scope(|scope| {
            let machines: Vec<_> = self
                .ranks
                .iter_mut()
                .map(|rank| {
                    let services = RankServices {
                        lock: Arc::clone(&self.lock),
                        partitions: Arc::clone(&self.partitions),
                        params: Arc::clone(&self.params),
                    };
                    scope.spawn(move || {
                        rank.run(&services, telemetry)
                            .expect("simulated machine failed")
                    })
                })
                .collect();
            machines
                .into_iter()
                .map(|m| m.join().expect("simulated machine panicked"))
                .collect()
        });
        let seconds = start.elapsed().as_secs_f64();
        self.telemetry
            .counter(metric::CLUSTER_NET_BYTES)
            .add(self.net.total_bytes() - bytes_before);
        let delta = self.telemetry.snapshot().delta_since(&before);
        let edges: usize = runs.iter().map(|stats| stats.edges).sum();
        let loss: f64 = runs.iter().map(|stats| stats.loss).sum();
        if seconds > 0.0 {
            // live cluster-wide throughput, refreshed every epoch
            self.telemetry
                .gauge(metric::CLUSTER_EDGES_PER_SEC)
                .set((edges as f64 / seconds) as u64);
        }
        ClusterEpochStats {
            epoch,
            seconds,
            edges,
            mean_loss: if edges > 0 { loss / edges as f64 } else { 0.0 },
            network_bytes: delta.counter(metric::CLUSTER_NET_BYTES),
            peak_machine_bytes: delta.max_gauge_peak("rank") as usize,
            lock_waits: delta.counter(metric::CLUSTER_LOCK_WAITS) as usize,
            recovered_buckets: runs.iter().map(|s| s.recovered_buckets).sum(),
            retries: delta.counter(metric::NET_RPC_RETRIES) as usize,
        }
    }

    /// Trains the configured number of epochs, with a per-epoch callback
    /// (return `false` to stop early).
    pub fn train_with(
        &mut self,
        mut on_epoch: impl FnMut(&ClusterEpochStats, &ClusterTrainer) -> bool,
    ) -> Vec<ClusterEpochStats> {
        let epochs = self.config.epochs;
        let mut all = Vec::with_capacity(epochs);
        for _ in 0..epochs {
            let stats = self.train_epoch();
            let keep_going = on_epoch(&stats, self);
            all.push(stats);
            if !keep_going {
                break;
            }
        }
        all
    }

    /// Trains the configured number of epochs.
    pub fn train(&mut self) -> Vec<ClusterEpochStats> {
        self.train_with(|_, _| true)
    }

    /// Snapshots the model from the servers, exactly as a networked run
    /// does ([`snapshot_model`]): shared parameters from the parameter
    /// server, partitioned embeddings peeked from the partition server.
    pub fn snapshot(&self) -> TrainedEmbeddings {
        snapshot_model(
            &self.schema,
            self.config.clone(),
            &self.partitions,
            &self.params,
        )
        .expect("in-process snapshot cannot fail")
    }
}

impl std::fmt::Debug for ClusterTrainer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterTrainer")
            .field("machines", &self.ranks.len())
            .field("epoch", &self.epoch)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbg_core::eval::{CandidateSampling, LinkPredictionEval};
    use pbg_datagen::social::SocialGraphConfig;
    use pbg_graph::split::EdgeSplit;

    fn dataset() -> (EdgeList, u32) {
        let cfg = SocialGraphConfig {
            num_nodes: 256,
            num_edges: 6_000,
            num_communities: 24,
            intra_prob: 0.9,
            zipf_exponent: 0.9,
            seed: 11,
        };
        let (edges, _) = cfg.generate();
        (edges, cfg.num_nodes)
    }

    fn config(epochs: usize) -> PbgConfig {
        PbgConfig::builder()
            .dim(16)
            .epochs(epochs)
            .batch_size(128)
            .chunk_size(16)
            .uniform_negatives(16)
            .threads(1)
            .build()
            .unwrap()
    }

    #[test]
    fn cluster_trains_and_reduces_loss() {
        let (edges, n) = dataset();
        let schema = GraphSchema::homogeneous(n, 4).unwrap();
        let mut t = ClusterTrainer::new(
            schema,
            &edges,
            config(4),
            ClusterConfig {
                machines: 2,
                ..Default::default()
            },
        )
        .unwrap();
        let stats = t.train();
        assert_eq!(stats.len(), 4);
        assert!(
            stats.last().unwrap().mean_loss < stats[0].mean_loss,
            "loss: {} -> {}",
            stats[0].mean_loss,
            stats.last().unwrap().mean_loss
        );
        assert!(stats[0].network_bytes > 0, "no network traffic accounted");
    }

    #[test]
    fn cluster_quality_matches_single_machine() {
        let (edges, n) = dataset();
        let split = EdgeSplit::new(&edges, 0.0, 0.25, 2);
        let eval = LinkPredictionEval {
            num_candidates: 64,
            sampling: CandidateSampling::Uniform,
            seed: 9,
            ..Default::default()
        };

        let schema = GraphSchema::homogeneous(n, 4).unwrap();
        let mut cluster = ClusterTrainer::new(
            schema.clone(),
            &split.train,
            config(6),
            ClusterConfig {
                machines: 2,
                ..Default::default()
            },
        )
        .unwrap();
        cluster.train();
        let m_cluster = eval
            .evaluate(&cluster.snapshot(), &split.test, &split.train, &[])
            .mrr;

        let mut single = pbg_core::trainer::Trainer::new(schema, &split.train, config(6)).unwrap();
        single.train();
        let m_single = eval
            .evaluate(&single.snapshot(), &split.test, &split.train, &[])
            .mrr;

        assert!(m_cluster > 0.2, "cluster mrr {m_cluster}");
        assert!(
            (m_single - m_cluster).abs() < 0.4 * m_single.max(m_cluster),
            "cluster {m_cluster} vs single {m_single} diverged"
        );
    }

    #[test]
    fn all_edges_trained_each_epoch() {
        let (edges, n) = dataset();
        let schema = GraphSchema::homogeneous(n, 4).unwrap();
        let mut t = ClusterTrainer::new(
            schema,
            &edges,
            config(1),
            ClusterConfig {
                machines: 2,
                ..Default::default()
            },
        )
        .unwrap();
        let stats = t.train_epoch();
        assert_eq!(stats.edges, edges.len());
    }

    #[test]
    fn single_machine_cluster_is_degenerate_but_works() {
        let (edges, n) = dataset();
        let schema = GraphSchema::homogeneous(n, 2).unwrap();
        let mut t = ClusterTrainer::new(
            schema,
            &edges,
            config(2),
            ClusterConfig {
                machines: 1,
                ..Default::default()
            },
        )
        .unwrap();
        let stats = t.train();
        assert_eq!(stats.len(), 2);
        assert!(stats[1].mean_loss <= stats[0].mean_loss * 1.1);
    }

    #[test]
    fn traced_cluster_epoch_emits_spans_and_counters() {
        use pbg_graph::schema::{EntityTypeDef, OperatorKind, RelationTypeDef};
        let (edges, n) = dataset();
        // a parameterized operator so relation syncs actually move bytes
        let schema = GraphSchema::builder()
            .entity_type(EntityTypeDef::new("node", n).with_partitions(4))
            .relation_type(
                RelationTypeDef::new("edge", 0u32, 0u32).with_operator(OperatorKind::Translation),
            )
            .build()
            .unwrap();
        let mut t = ClusterTrainer::new(
            schema,
            &edges,
            config(1),
            ClusterConfig {
                machines: 2,
                ..Default::default()
            },
        )
        .unwrap();
        t.telemetry().set_tracing(true);
        let stats = t.train_epoch();
        let snap = t.telemetry().snapshot();
        assert_eq!(snap.counter(metric::CLUSTER_EDGES) as usize, stats.edges);
        assert_eq!(
            snap.counter(metric::CLUSTER_NET_BYTES),
            stats.network_bytes,
            "first epoch: counter delta equals the absolute counter"
        );
        assert!(
            snap.counter(metric::CLUSTER_SYNC_BYTES) > 0,
            "param syncs move bytes"
        );
        assert!(
            snap.histogram(metric::CLUSTER_ACQUIRE_WAIT_NS).count >= 16,
            "every granted bucket observes an acquire latency"
        );
        let events = t.telemetry().drain();
        assert!(events.iter().any(|e| e.name == span_name::EPOCH));
        assert!(events.iter().any(|e| e.name == span_name::PARAM_SYNC));
        // per-bucket spans account for every edge the epoch trained
        let span_edges: u64 = events
            .iter()
            .filter(|e| e.name == span_name::BUCKET_TRAIN)
            .filter_map(|e| e.field_u64("edges"))
            .sum();
        assert_eq!(span_edges as usize, stats.edges);
    }

    #[test]
    fn untraced_cluster_epoch_records_no_events() {
        let (edges, n) = dataset();
        let schema = GraphSchema::homogeneous(n, 2).unwrap();
        let mut t =
            ClusterTrainer::new(schema, &edges, config(1), ClusterConfig::default()).unwrap();
        let stats = t.train_epoch();
        assert!(t.telemetry().drain().is_empty());
        // metrics stay on regardless
        assert_eq!(
            t.telemetry().snapshot().counter(metric::CLUSTER_EDGES) as usize,
            stats.edges
        );
    }

    #[test]
    fn machine_crash_is_recovered_via_lease_reassignment() {
        use crate::fault::{CrashFault, FaultPlan};
        let (edges, n) = dataset();
        let schema = GraphSchema::homogeneous(n, 4).unwrap();
        let faulty_cluster = ClusterConfig {
            machines: 2,
            // short lease so the dead machine's bucket comes back fast;
            // live machines release within microseconds of finishing, so
            // 250ms never reaps a healthy trainer on this tiny dataset
            lease_ttl: Duration::from_millis(250),
            faults: FaultPlan {
                seed: 1,
                crash: Some(CrashFault {
                    machine: 1,
                    buckets: 0,
                    epoch: 1,
                }),
                ..FaultPlan::none()
            },
            ..Default::default()
        };
        let mut t = ClusterTrainer::new(schema.clone(), &edges, config(2), faulty_cluster).unwrap();
        let stats = t.train();
        assert_eq!(stats.len(), 2, "both epochs complete despite the crash");
        // the abandoned bucket was reassigned and retrained, so the epoch
        // still covers every edge exactly once
        assert_eq!(stats[0].edges, edges.len());
        assert!(
            stats[0].recovered_buckets >= 1,
            "the crashed machine's bucket must be reaped and recovered"
        );
        assert_eq!(
            stats[1].recovered_buckets, 0,
            "the machine reboots for epoch 2; nothing to recover"
        );
        assert_eq!(stats[1].edges, edges.len());

        // recovery must not wreck the model: loss stays in the same
        // ballpark as an identically-configured fault-free run
        let mut clean = ClusterTrainer::new(
            schema,
            &edges,
            config(2),
            ClusterConfig {
                machines: 2,
                ..Default::default()
            },
        )
        .unwrap();
        let clean_stats = clean.train();
        assert_eq!(clean_stats[1].recovered_buckets, 0);
        let faulty_loss = stats[1].mean_loss;
        let clean_loss = clean_stats[1].mean_loss;
        assert!(
            (faulty_loss - clean_loss).abs() < 0.5 * clean_loss.max(faulty_loss),
            "crash recovery diverged: faulty loss {faulty_loss} vs clean {clean_loss}"
        );
    }

    #[test]
    fn transfer_failures_are_retried_to_completion() {
        use crate::fault::FaultPlan;
        let (edges, n) = dataset();
        let schema = GraphSchema::homogeneous(n, 4).unwrap();
        let mut t = ClusterTrainer::new(
            schema,
            &edges,
            config(1),
            ClusterConfig {
                machines: 2,
                faults: FaultPlan {
                    seed: 9,
                    transfer_failure_rate: 0.3,
                    ..FaultPlan::none()
                },
                ..Default::default()
            },
        )
        .unwrap();
        let stats = t.train_epoch();
        assert_eq!(stats.edges, edges.len(), "every bucket still trains");
        assert!(stats.retries > 0, "a 30% failure rate must force retries");
        assert_eq!(stats.recovered_buckets, 0, "no machine died");
    }

    #[test]
    fn param_sync_timeouts_are_retried_to_completion() {
        use crate::fault::FaultPlan;
        use pbg_graph::schema::{EntityTypeDef, OperatorKind, RelationTypeDef};
        let (edges, n) = dataset();
        // a parameterized operator: only an RPC that is sent can time out
        let schema = GraphSchema::builder()
            .entity_type(EntityTypeDef::new("node", n).with_partitions(4))
            .relation_type(
                RelationTypeDef::new("edge", 0u32, 0u32).with_operator(OperatorKind::Translation),
            )
            .build()
            .unwrap();
        let mut t = ClusterTrainer::new(
            schema,
            &edges,
            config(1),
            ClusterConfig {
                machines: 2,
                faults: FaultPlan {
                    seed: 4,
                    param_timeout_rate: 0.5,
                    ..FaultPlan::none()
                },
                ..Default::default()
            },
        )
        .unwrap();
        let stats = t.train_epoch();
        assert_eq!(stats.edges, edges.len());
        assert!(stats.retries > 0, "timeouts must be retried, not ignored");
    }

    #[test]
    fn peak_machine_memory_is_two_partitions() {
        let (edges, n) = dataset();
        let p = 8u32;
        let schema = GraphSchema::homogeneous(n, p).unwrap();
        let mut t = ClusterTrainer::new(
            schema,
            &edges,
            config(1),
            ClusterConfig {
                machines: 2,
                ..Default::default()
            },
        )
        .unwrap();
        let stats = t.train_epoch();
        // one partition is n/p rows × (dim + 1) floats; a machine holds
        // its bucket's two and checks in the rest before checking out
        let partition_bytes = (n as usize / p as usize) * (16 + 1) * 4;
        assert!(
            stats.peak_machine_bytes <= 2 * partition_bytes,
            "peak {} > 2 partitions ({})",
            stats.peak_machine_bytes,
            2 * partition_bytes
        );
    }
}
