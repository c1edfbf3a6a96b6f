//! Distributed (simulated cluster) training through the public API:
//! Table 3/4 (right) in miniature.

use pbg::core::config::PbgConfig;
use pbg::core::eval::{CandidateSampling, LinkPredictionEval};
use pbg::core::model::Embeddings;
use pbg::core::trainer::Trainer;
use pbg::datagen::presets;
use pbg::distsim::cluster::{ClusterConfig, ClusterTrainer};
use pbg::distsim::event::{simulate, EventSimConfig};
use pbg::graph::edges::{Edge, EdgeList};
use pbg::graph::schema::GraphSchema;
use pbg::graph::split::EdgeSplit;
use pbg::tensor::kernels::{dispatch, Variant};
use pbg::tensor::rng::Xoshiro256;

/// The bit-identity test compares against a golden recorded under the
/// scalar kernels, and the first test to run a kernel fixes the variant
/// for the whole process — so every training test here pins it first.
fn pin_scalar_kernels() {
    assert_eq!(dispatch::force(Variant::Scalar), Variant::Scalar);
}

fn config(epochs: usize) -> PbgConfig {
    PbgConfig::builder()
        .dim(16)
        .epochs(epochs)
        .batch_size(250)
        .chunk_size(25)
        .uniform_negatives(25)
        .threads(1)
        .build()
        .unwrap()
}

#[test]
fn multi_machine_quality_matches_and_uses_network() {
    pin_scalar_kernels();
    let dataset = presets::twitter_like(0.00001, 4); // ~420 nodes
    let split = EdgeSplit::ninety_five_five(&dataset.edges, 4);
    let eval = LinkPredictionEval {
        num_candidates: 100,
        sampling: CandidateSampling::Prevalence,
        ..Default::default()
    };
    let mut mrrs = Vec::new();
    for machines in [1usize, 2, 4] {
        let schema = dataset.schema_with_partitions(2 * machines as u32);
        let mut cluster = ClusterTrainer::new(
            schema,
            &split.train,
            config(5),
            ClusterConfig {
                machines,
                ..Default::default()
            },
        )
        .unwrap();
        let stats = cluster.train();
        assert_eq!(stats[0].edges, split.train.len(), "epoch covers all edges");
        if machines > 1 {
            assert!(stats[0].network_bytes > 0);
        }
        let m = eval
            .evaluate(&cluster.snapshot(), &split.test, &split.train, &[])
            .mrr;
        mrrs.push(m);
    }
    let best = mrrs.iter().cloned().fold(f64::MIN, f64::max);
    for (i, &m) in mrrs.iter().enumerate() {
        assert!(
            m > 0.4 * best,
            "machines={}: MRR {m} collapsed (best {best})",
            [1, 2, 4][i]
        );
    }
}

#[test]
fn event_projection_reproduces_table3_shape() {
    let base = EventSimConfig::default(); // full Freebase numbers
                                          // single machine: time grows mildly with P, memory falls ~linearly
    let t: Vec<_> = [1u32, 4, 8, 16]
        .iter()
        .map(|&p| {
            simulate(&EventSimConfig {
                partitions: p,
                ..base.clone()
            })
        })
        .collect();
    assert!(t[3].total_hours > t[0].total_hours);
    assert!(t[3].peak_memory_bytes < t[0].peak_memory_bytes / 4);
    // distributed: monotone speedup
    let d: Vec<_> = [(1usize, 1u32), (2, 4), (4, 8), (8, 16)]
        .iter()
        .map(|&(m, p)| {
            simulate(&EventSimConfig {
                machines: m,
                partitions: p,
                ..base.clone()
            })
        })
        .collect();
    for w in d.windows(2) {
        assert!(
            w[1].total_hours < w[0].total_hours,
            "{} !< {}",
            w[1].total_hours,
            w[0].total_hours
        );
    }
}

#[test]
fn cluster_handles_unpartitioned_entity_types() {
    pin_scalar_kernels();
    // user -> item graph: items unpartitioned (shared across machines)
    use pbg::graph::schema::{EntityTypeDef, RelationTypeDef};
    let mut rng = Xoshiro256::seed_from_u64(8);
    let mut edges = EdgeList::new();
    for _ in 0..4000 {
        let user = rng.gen_index(200) as u32;
        let item = (user % 20 + (rng.gen_index(3) as u32) * 20) % 40;
        edges.push(Edge::new(user, 0u32, item));
    }
    let schema = GraphSchema::builder()
        .entity_type(EntityTypeDef::new("user", 200).with_partitions(4))
        .entity_type(EntityTypeDef::new("item", 40))
        .relation_type(RelationTypeDef::new("clicks", 0u32, 1u32))
        .build()
        .unwrap();
    let mut cluster = ClusterTrainer::new(
        schema,
        &edges,
        config(3),
        ClusterConfig {
            machines: 2,
            ..Default::default()
        },
    )
    .unwrap();
    let stats = cluster.train();
    assert!(stats.last().unwrap().mean_loss < stats[0].mean_loss);
    let snap = cluster.snapshot();
    assert_eq!(snap.embeddings.len(), 2);
    assert_eq!(snap.embeddings[1].rows(), 40);
}

/// The simulated cluster runs the same rank driver as the TCP cluster,
/// so it inherits the networked guarantee: on `integration_net.rs`'s
/// conflict-free workload (every edge inside one partition, so buckets
/// share no data) a 2-machine run equals the single-machine
/// `threads = 1` run bit for bit, and reproduces the score golden the
/// loopback-TCP run is pinned to.
#[test]
fn simulated_cluster_is_bit_identical_to_single_machine_and_the_net_golden() {
    pin_scalar_kernels();
    const NODES: u32 = 120;
    const PARTS: u32 = 2;
    let schema = GraphSchema::homogeneous(NODES, PARTS).unwrap();
    let mut rng = Xoshiro256::seed_from_u64(4242);
    let mut edges = EdgeList::new();
    while edges.len() < 1_200 {
        let src = rng.gen_range(NODES as u64) as u32;
        let mut dst = rng.gen_range(NODES as u64) as u32;
        // steer dst into src's partition (partition = id % PARTS)
        dst -= dst % PARTS;
        dst += src % PARTS;
        if dst >= NODES || dst == src {
            continue;
        }
        edges.push(Edge::new(src, 0u32, dst));
    }
    let config = PbgConfig::builder()
        .dim(16)
        .epochs(2)
        .batch_size(200)
        .chunk_size(25)
        .uniform_negatives(25)
        .threads(1)
        .seed(1234)
        .build()
        .unwrap();

    let cluster = ClusterConfig {
        machines: 2,
        ..Default::default()
    };
    let mut sim = ClusterTrainer::new(schema.clone(), &edges, config.clone(), cluster).unwrap();
    let stats = sim.train();
    assert!(stats.iter().all(|s| s.edges == edges.len()));
    let sim = sim.snapshot();
    let mut single = Trainer::new(schema, &edges, config).unwrap();
    single.train();
    let single = single.snapshot();
    for node in 0..NODES {
        let (s, l) = (sim.embedding(0, node), single.embedding(0, node));
        assert!(
            s.iter()
                .zip(l.iter())
                .all(|(a, b)| a.to_bits() == b.to_bits()),
            "embedding of node {node} differs: simulated {s:?} vs single machine {l:?}"
        );
    }

    let golden: Vec<u32> = include_str!("golden_scores_net.txt")
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| u32::from_str_radix(l.split('#').next().unwrap().trim(), 16).unwrap())
        .collect();
    assert_eq!(golden.len(), 32);
    for (i, &want) in golden.iter().enumerate() {
        let src = sim.embedding(0, edges.sources()[i]);
        let dst = sim.embedding(0, edges.destinations()[i]);
        let score: f32 = src.iter().zip(dst.iter()).map(|(a, b)| a * b).sum();
        assert_eq!(
            score.to_bits(),
            want,
            "score {i}: simulated {score:e} is not the networked golden"
        );
    }
}
