//! Networked distributed training over real loopback TCP.
//!
//! The headline claim (paper §3.3): distributing training across
//! machines does not change what is learned. With a conflict-free
//! bucket grid (every edge's endpoints share a partition, so only
//! diagonal buckets are non-empty and their updates touch disjoint
//! partitions) and paramless identity operators, a 2-rank cluster run
//! over 127.0.0.1 sockets must be **bit-identical** to the
//! single-machine `threads = 1` run — same seeds, same float ops, same
//! order within every partition.
//!
//! The score golden (`tests/golden_scores_net.txt`) pins those numbers
//! the same way `tests/determinism.rs` pins the single-machine ones; to
//! regenerate after an intentional numeric change:
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test --test integration_net
//! ```
//!
//! The fault tests drive a `FaultPlan` over the same sockets: a rank
//! killed mid-bucket (lease held, partitions checked out, connections
//! dropped) must be reaped, its bucket retrained exactly once, and its
//! stale fenced check-ins rejected.

use pbg::core::config::PbgConfig;
use pbg::core::model::{Model, TrainedEmbeddings};
use pbg::core::trainer::Trainer;
use pbg::distsim::fault::{CrashFault, FaultPlan};
use pbg::distsim::lockserver::LockServer;
use pbg::distsim::{EpochLock, NetworkModel, ParameterServer, PartitionServer};
use pbg::graph::edges::{Edge, EdgeList};
use pbg::graph::schema::GraphSchema;
use pbg::net::{
    snapshot_model, train_rank, NetLock, NetParams, NetPartitions, NetServer, RankConfig,
    RankServices, RankStats,
};
use pbg::telemetry::Registry;
use pbg::tensor::kernels::{dispatch, Variant};
use pbg::tensor::rng::Xoshiro256;
use std::sync::Arc;
use std::time::Duration;

/// The golden vectors (and the single-machine ↔ cluster bit-identity
/// claim) were recorded under the scalar kernel path; AVX2's fused
/// multiply-adds differ by ULPs. Every test in this binary pins the
/// dispatcher before any kernel runs — all force the same value, so
/// concurrent test threads can't race.
fn pin_scalar_kernels() {
    let active = dispatch::force(Variant::Scalar);
    assert_eq!(
        active,
        Variant::Scalar,
        "kernel dispatch was already resolved to {active:?}; \
         golden comparisons require the scalar variant"
    );
}

const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/golden_scores_net.txt"
);
const NUM_NODES: u32 = 120;
const NUM_EDGES: usize = 1_200;
const PARTS: u32 = 2;
const SCORED_EDGES: usize = 32;

/// A partitioned graph whose edges all stay inside one partition
/// (`src % PARTS == dst % PARTS`): only diagonal buckets are non-empty,
/// so buckets never share data and rank scheduling cannot affect floats.
fn dataset() -> (GraphSchema, EdgeList) {
    let schema = GraphSchema::homogeneous(NUM_NODES, PARTS).expect("schema");
    let mut rng = Xoshiro256::seed_from_u64(4242);
    let mut edges = EdgeList::new();
    while edges.len() < NUM_EDGES {
        let src = rng.gen_range(NUM_NODES as u64) as u32;
        let mut dst = rng.gen_range(NUM_NODES as u64) as u32;
        // steer dst into src's partition (partition = id % PARTS)
        dst -= dst % PARTS;
        dst += src % PARTS;
        if dst >= NUM_NODES || dst == src {
            continue;
        }
        edges.push(Edge::new(src, 0u32, dst));
    }
    (schema, edges)
}

fn config() -> PbgConfig {
    PbgConfig::builder()
        .dim(16)
        .epochs(2)
        .batch_size(200)
        .chunk_size(25)
        .uniform_negatives(25)
        .threads(1)
        .seed(1234)
        .build()
        .expect("config")
}

/// Flattens an embedding table for bitwise comparison.
fn table(model: &TrainedEmbeddings) -> Vec<f32> {
    let mut out = Vec::new();
    for node in 0..NUM_NODES {
        out.extend_from_slice(model.embedding(0, node));
    }
    out
}

fn scores(model: &TrainedEmbeddings, edges: &EdgeList) -> Vec<f32> {
    (0..SCORED_EDGES.min(edges.len()))
        .map(|i| {
            let src = model.embedding(0, edges.sources()[i]);
            let dst = model.embedding(0, edges.destinations()[i]);
            src.iter().zip(dst).map(|(a, b)| a * b).sum()
        })
        .collect()
}

fn single_machine() -> TrainedEmbeddings {
    let (schema, edges) = dataset();
    let mut trainer = Trainer::new(schema, &edges, config()).expect("trainer");
    trainer.train();
    trainer.snapshot()
}

/// The three servers behind one handle, with ephemeral loopback ports.
struct Servers {
    lock: NetServer,
    partitions: NetServer,
    params: NetServer,
    partition_state: Arc<PartitionServer>,
}

fn spawn_servers(schema: &GraphSchema, config: &PbgConfig, lease: Option<Duration>) -> Servers {
    let model = Model::new(schema.clone(), config.clone()).expect("server model");
    let layout = model.store_layout();
    let inner = match lease {
        Some(ttl) => LockServer::with_lease(ttl),
        None => LockServer::new(),
    };
    let lock = Arc::new(EpochLock::new(inner, config.epochs, PARTS, PARTS));
    let net = Arc::new(NetworkModel::new(1e9, 0.0));
    let partition_state = Arc::new(PartitionServer::new(layout, 2, Arc::clone(&net)));
    let params = Arc::new(ParameterServer::new(1, net));
    Servers {
        lock: NetServer::lock("127.0.0.1:0", lock).expect("bind lock"),
        partitions: NetServer::partitions("127.0.0.1:0", Arc::clone(&partition_state))
            .expect("bind partitions"),
        params: NetServer::params("127.0.0.1:0", params).expect("bind params"),
        partition_state,
    }
}

fn rank_services(
    servers: &Servers,
    telemetry: &Registry,
) -> RankServices<NetLock, NetPartitions, NetParams> {
    RankServices {
        lock: NetLock::new(servers.lock.local_addr().to_string(), telemetry),
        partitions: NetPartitions::new(servers.partitions.local_addr().to_string(), telemetry),
        params: NetParams::new(servers.params.local_addr().to_string(), telemetry),
    }
}

/// Runs `ranks` trainer ranks concurrently against `servers` and
/// returns their stats plus the final snapshot.
fn run_cluster(
    servers: &Servers,
    ranks: usize,
    fault_for: impl Fn(usize) -> FaultPlan + Sync,
) -> (Vec<RankStats>, TrainedEmbeddings) {
    let (schema, edges) = dataset();
    let stats: Vec<RankStats> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..ranks)
            .map(|rank| {
                let schema = &schema;
                let edges = &edges;
                let fault_for = &fault_for;
                scope.spawn(move || {
                    let telemetry = Registry::new();
                    let services = rank_services(servers, &telemetry);
                    let mut run = RankConfig::new(rank);
                    run.faults = fault_for(rank);
                    train_rank(schema, edges, config(), &services, &run, &telemetry)
                        .expect("train_rank")
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("rank"))
            .collect()
    });
    let telemetry = Registry::new();
    let services = rank_services(servers, &telemetry);
    let snapshot = snapshot_model(&schema, config(), &services.partitions, &services.params)
        .expect("snapshot");
    (stats, snapshot)
}

#[test]
fn loopback_two_ranks_bit_identical_to_single_machine() {
    pin_scalar_kernels();
    let (schema, edges) = dataset();
    let servers = spawn_servers(&schema, &config(), None);
    let (stats, net_model) = run_cluster(&servers, 2, |_| FaultPlan::none());

    let total_buckets: usize = stats.iter().map(|s| s.buckets_trained).sum();
    assert_eq!(
        total_buckets,
        config().epochs * (PARTS * PARTS) as usize,
        "every (epoch, bucket) pair trained exactly once across ranks"
    );
    assert!(stats.iter().all(|s| !s.crashed));

    let local_model = single_machine();
    let net_table = table(&net_model);
    let local_table = table(&local_model);
    assert_eq!(net_table.len(), local_table.len());
    for (i, (n, l)) in net_table.iter().zip(&local_table).enumerate() {
        assert_eq!(
            n.to_bits(),
            l.to_bits(),
            "embedding element {i} differs between loopback cluster and \
             single machine: {n:e} vs {l:e}"
        );
    }
    for (i, (n, l)) in scores(&net_model, &edges)
        .iter()
        .zip(&scores(&local_model, &edges))
        .enumerate()
    {
        assert_eq!(
            n.to_bits(),
            l.to_bits(),
            "score {i} differs: {n:e} vs {l:e}"
        );
    }
}

#[test]
fn loopback_scores_match_committed_golden() {
    pin_scalar_kernels();
    let (schema, edges) = dataset();
    let servers = spawn_servers(&schema, &config(), None);
    let (_, net_model) = run_cluster(&servers, 2, |_| FaultPlan::none());
    let scores = scores(&net_model, &edges);
    let rendered: String = scores
        .iter()
        .map(|s| format!("{:08x} # {s:e}\n", s.to_bits()))
        .collect();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(GOLDEN_PATH, &rendered).unwrap();
        eprintln!("golden file updated: {GOLDEN_PATH}");
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN_PATH).unwrap_or_else(|e| {
        panic!("cannot read {GOLDEN_PATH}: {e}; run with UPDATE_GOLDEN=1 to create it")
    });
    let want: Vec<u32> = golden
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| {
            let hex = l.split('#').next().unwrap().trim();
            u32::from_str_radix(hex, 16).unwrap_or_else(|e| panic!("bad golden line {l:?}: {e}"))
        })
        .collect();
    assert_eq!(scores.len(), want.len(), "golden length mismatch");
    for (i, (&got, &bits)) in scores.iter().zip(&want).enumerate() {
        assert_eq!(
            got.to_bits(),
            bits,
            "score {i}: got {got:e} ({:08x}), golden ({bits:08x}) — a wire or \
             rank-driver change altered networked numerics; if intentional, \
             regenerate with UPDATE_GOLDEN=1",
            got.to_bits()
        );
    }
}

#[test]
fn crashed_rank_is_reaped_and_its_bucket_retrained_exactly_once() {
    pin_scalar_kernels();
    let (schema, edges) = dataset();
    let cfg = config();
    let servers = spawn_servers(&schema, &cfg, Some(Duration::from_millis(250)));

    // phase 1: rank 1 runs alone and dies on its very first grant —
    // lease held, partition checked out, sockets dropped mid-protocol
    let telemetry1 = Registry::new();
    let services1 = rank_services(&servers, &telemetry1);
    let mut run1 = RankConfig::new(1);
    run1.faults = FaultPlan {
        crash: Some(CrashFault {
            machine: 1,
            buckets: 0,
            epoch: 1,
        }),
        ..FaultPlan::none()
    };
    let stats1 = train_rank(&schema, &edges, cfg.clone(), &services1, &run1, &telemetry1)
        .expect("crashing rank");
    assert!(stats1.crashed, "the injected crash must fire");
    assert_eq!(stats1.buckets_trained, 0, "rank died before training");
    drop(services1); // the crash: every connection goes away

    // phase 2: rank 0 must wait out the lease, reap it, fence the dead
    // rank's checkout, and train every (epoch, bucket) pair itself
    let telemetry0 = Registry::new();
    let services0 = rank_services(&servers, &telemetry0);
    let run0 = RankConfig::new(0);
    let stats0 =
        train_rank(&schema, &edges, cfg.clone(), &services0, &run0, &telemetry0).expect("survivor");
    assert_eq!(stats0.recovered_buckets, 1, "exactly one lease reaped");
    assert_eq!(
        stats0.buckets_trained,
        cfg.epochs * (PARTS * PARTS) as usize,
        "survivor retrains the reaped bucket and everything else exactly once"
    );
    assert!(!stats0.crashed);

    // the cluster still converges to a usable model
    let snapshot = snapshot_model(&schema, cfg, &services0.partitions, &services0.params)
        .expect("snapshot after recovery");
    assert!(table(&snapshot).iter().all(|v| v.is_finite()));
}

#[test]
fn stale_fenced_checkin_is_rejected_over_tcp() {
    pin_scalar_kernels();
    use pbg::core::storage::PartitionKey;
    use pbg::distsim::service::PartitionService;

    let (schema, _) = dataset();
    let servers = spawn_servers(&schema, &config(), None);
    let telemetry = Registry::new();
    let client = NetPartitions::new(servers.partitions.local_addr().to_string(), &telemetry);

    let key = PartitionKey::new(0u32, 1u32);
    let (emb, acc, stale_token) = client.checkout(key).expect("checkout");
    // a reaper fences the checkout (what a surviving rank does after
    // reaping the holder's lease)
    client.revoke(key).expect("revoke");
    assert!(
        !client
            .checkin(key, emb.clone(), acc.clone(), stale_token)
            .expect("stale checkin must not error, only be discarded"),
        "check-in with a fenced token must be rejected"
    );
    // and the reject really discarded the write
    let fresh = client.checkout(key).expect("checkout after fence");
    assert_eq!(fresh.0, emb, "server kept the last committed version");
    // the state machine behind the socket agrees with the wire result
    assert!(servers.partition_state.stored_bytes() > 0);
}

/// Unpartitioned entity types live on the parameter server (paper
/// §4.2): a user → item graph whose items are one shared table trains
/// across two ranks over real sockets, each rank syncing its local copy
/// of the table through `push_pull` like a relation operator.
#[test]
fn unpartitioned_entity_type_trains_over_tcp_via_the_parameter_server() {
    pin_scalar_kernels();
    use pbg::distsim::paramserver::ParamKey;
    use pbg::graph::schema::{EntityTypeDef, RelationTypeDef};

    const USER_PARTS: u32 = 4;
    let mut rng = Xoshiro256::seed_from_u64(8);
    let mut edges = EdgeList::new();
    for _ in 0..4000 {
        let user = rng.gen_index(200) as u32;
        let item = (user % 20 + (rng.gen_index(3) as u32) * 20) % 40;
        edges.push(Edge::new(user, 0u32, item));
    }
    let schema = GraphSchema::builder()
        .entity_type(EntityTypeDef::new("user", 200).with_partitions(USER_PARTS))
        .entity_type(EntityTypeDef::new("item", 40))
        .relation_type(RelationTypeDef::new("clicks", 0u32, 1u32))
        .build()
        .expect("schema");

    // trains `epochs` epochs on fresh servers; returns the mean loss per
    // edge, the snapshot, and the item table the parameter server holds
    let train = |epochs: usize| {
        let cfg = PbgConfig::builder()
            .dim(16)
            .epochs(epochs)
            .batch_size(250)
            .chunk_size(25)
            .uniform_negatives(25)
            .threads(1)
            .build()
            .expect("config");
        let layout = Model::new(schema.clone(), cfg.clone())
            .expect("model")
            .store_layout();
        let net = Arc::new(NetworkModel::new(1e9, 0.0));
        let lock = Arc::new(EpochLock::new(LockServer::new(), epochs, USER_PARTS, 1));
        let partition_state = Arc::new(PartitionServer::new(layout, 2, Arc::clone(&net)));
        let param_state = Arc::new(ParameterServer::new(1, net));
        let servers = Servers {
            lock: NetServer::lock("127.0.0.1:0", lock).expect("bind lock"),
            partitions: NetServer::partitions("127.0.0.1:0", Arc::clone(&partition_state))
                .expect("bind partitions"),
            params: NetServer::params("127.0.0.1:0", Arc::clone(&param_state))
                .expect("bind params"),
            partition_state,
        };
        let stats: Vec<RankStats> = std::thread::scope(|scope| {
            let ranks: Vec<_> = (0..2)
                .map(|rank| {
                    let (schema, edges, cfg, servers) = (&schema, &edges, cfg.clone(), &servers);
                    scope.spawn(move || {
                        let telemetry = Registry::new();
                        let services = rank_services(servers, &telemetry);
                        let run = RankConfig::new(rank);
                        train_rank(schema, edges, cfg, &services, &run, &telemetry)
                            .expect("train_rank")
                    })
                })
                .collect();
            ranks.into_iter().map(|h| h.join().expect("rank")).collect()
        });
        let trained: usize = stats.iter().map(|s| s.edges).sum();
        assert_eq!(
            trained,
            epochs * edges.len(),
            "every edge counted once per epoch"
        );
        let buckets: usize = stats.iter().map(|s| s.buckets_trained).sum();
        assert_eq!(buckets, epochs * USER_PARTS as usize);
        let telemetry = Registry::new();
        let services = rank_services(&servers, &telemetry);
        let snapshot =
            snapshot_model(&schema, cfg, &services.partitions, &services.params).expect("snapshot");
        let items = param_state.pull(ParamKey {
            relation: 1,
            side: ParamKey::ENTITY_TABLE,
        });
        let loss: f64 = stats.iter().map(|s| s.loss).sum();
        (loss / trained as f64, snapshot, items)
    };

    let (first_epoch_loss, ..) = train(1);
    let (mean_loss, snapshot, items_on_server) = train(3);
    assert!(
        mean_loss < first_epoch_loss,
        "loss must fall: 3-epoch mean {mean_loss} vs first epoch {first_epoch_loss}"
    );
    assert_eq!(snapshot.embeddings.len(), 2);
    assert_eq!(snapshot.embeddings[1].rows(), 40);
    let item_table: Vec<f32> = (0..40)
        .flat_map(|item| snapshot.embedding(1, item).to_vec())
        .collect();
    assert_eq!(
        item_table, items_on_server,
        "the snapshot's item table is the parameter server's"
    );
    assert!(item_table.iter().all(|v| v.is_finite()));
}
