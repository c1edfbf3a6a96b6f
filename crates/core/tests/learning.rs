//! End-to-end learning tests on synthetic datasets: the core claims of
//! the paper at miniature scale.

use pbg_core::config::{NegativeMode, PbgConfig};
use pbg_core::eval::{CandidateSampling, LinkPredictionEval};
use pbg_core::trainer::{Storage, Trainer};
use pbg_datagen::social::SocialGraphConfig;
use pbg_graph::split::EdgeSplit;

fn dataset() -> (pbg_graph::edges::EdgeList, u32) {
    let cfg = SocialGraphConfig {
        num_nodes: 400,
        num_edges: 8_000,
        num_communities: 40,
        intra_prob: 0.9,
        zipf_exponent: 0.9,
        seed: 42,
    };
    let (edges, _) = cfg.generate();
    (edges, cfg.num_nodes)
}

fn config(partitions: u32) -> PbgConfig {
    let _ = partitions;
    PbgConfig::builder()
        .dim(32)
        .epochs(8)
        .batch_size(200)
        .chunk_size(25)
        .uniform_negatives(25)
        .threads(2)
        .learning_rate(0.1)
        .build()
        .unwrap()
}

fn mrr(model: &pbg_core::TrainedEmbeddings, split: &EdgeSplit) -> f64 {
    LinkPredictionEval {
        num_candidates: 100,
        sampling: CandidateSampling::Uniform,
        seed: 5,
        ..Default::default()
    }
    .evaluate(model, &split.test, &split.train, &[])
    .mrr
}

#[test]
fn unpartitioned_training_learns_link_prediction() {
    let (edges, n) = dataset();
    let split = EdgeSplit::new(&edges, 0.0, 0.25, 1);
    let schema = pbg_graph::schema::GraphSchema::homogeneous(n, 1).unwrap();
    let mut t = Trainer::new(schema, &split.train, config(1)).unwrap();
    t.train();
    let m = mrr(&t.snapshot(), &split);
    // 100 uniform candidates: random guessing gives MRR ≈ 0.05
    assert!(m > 0.3, "MRR {m} barely above chance");
}

#[test]
fn partitioned_training_matches_unpartitioned_quality() {
    // Table 3's core claim: quality is flat in the number of partitions.
    let (edges, n) = dataset();
    let split = EdgeSplit::new(&edges, 0.0, 0.25, 1);
    let mut mrrs = Vec::new();
    for p in [1u32, 4] {
        let schema = pbg_graph::schema::GraphSchema::homogeneous(n, p).unwrap();
        let mut t = Trainer::new(schema, &split.train, config(p)).unwrap();
        t.train();
        mrrs.push(mrr(&t.snapshot(), &split));
    }
    let (m1, m4) = (mrrs[0], mrrs[1]);
    assert!(m4 > 0.25, "P=4 MRR {m4} collapsed");
    assert!(
        (m1 - m4).abs() < 0.35 * m1.max(m4),
        "partitioned quality diverged: P=1 {m1} vs P=4 {m4}"
    );
}

#[test]
fn disk_swapped_training_learns_with_less_memory() {
    let (edges, n) = dataset();
    let split = EdgeSplit::new(&edges, 0.0, 0.25, 1);
    let dir = std::env::temp_dir().join(format!("pbg_learn_disk_{}", std::process::id()));
    let schema = pbg_graph::schema::GraphSchema::homogeneous(n, 8).unwrap();
    let mut t =
        Trainer::with_storage(schema, &split.train, config(8), Storage::Disk(dir.clone())).unwrap();
    let peak = t.train().last().unwrap().peak_bytes;
    let m = mrr(&t.snapshot(), &split);
    std::fs::remove_dir_all(&dir).ok();

    // full model bytes: embeddings + adagrad = n*(dim+1)*4
    let full = 400 * (32 + 1) * 4;
    assert!(
        peak <= full / 2,
        "peak {peak} not well below full model {full}"
    );
    assert!(m > 0.2, "disk-swapped MRR {m} collapsed");
}

#[test]
fn batched_and_unbatched_negatives_reach_similar_quality() {
    let (edges, n) = dataset();
    let split = EdgeSplit::new(&edges, 0.0, 0.25, 1);
    let schema = pbg_graph::schema::GraphSchema::homogeneous(n, 1).unwrap();

    let mut batched = Trainer::new(schema.clone(), &split.train, config(1)).unwrap();
    batched.train();
    let m_batched = mrr(&batched.snapshot(), &split);

    let ub_config = PbgConfig::builder()
        .dim(32)
        .epochs(8)
        .batch_size(200)
        .chunk_size(25)
        .uniform_negatives(50)
        .negative_mode(NegativeMode::Unbatched)
        .threads(2)
        .learning_rate(0.1)
        .build()
        .unwrap();
    let mut unbatched = Trainer::new(schema, &split.train, ub_config).unwrap();
    unbatched.train();
    let m_unbatched = mrr(&unbatched.snapshot(), &split);

    assert!(m_batched > 0.25, "batched {m_batched}");
    assert!(m_unbatched > 0.25, "unbatched {m_unbatched}");
}

#[test]
fn multi_relation_operators_learn_kg() {
    use pbg_datagen::knowledge::KnowledgeGraphConfig;
    use pbg_graph::schema::OperatorKind;
    for op in [OperatorKind::Translation, OperatorKind::ComplexDiagonal] {
        let kg = KnowledgeGraphConfig {
            num_entities: 300,
            num_relations: 6,
            num_edges: 9_000,
            num_communities: 30,
            intra_prob: 0.95,
            operator: op,
            seed: 3,
            ..Default::default()
        };
        let (edges, _) = kg.generate();
        let split = EdgeSplit::new(&edges, 0.0, 0.2, 2);
        let schema = kg.schema(1);
        let cfg = PbgConfig::builder()
            .dim(32)
            .epochs(8)
            .batch_size(200)
            .chunk_size(25)
            .uniform_negatives(25)
            .threads(2)
            .build()
            .unwrap();
        let mut t = Trainer::new(schema, &split.train, cfg).unwrap();
        t.train();
        let m = mrr(&t.snapshot(), &split);
        assert!(m > 0.15, "{op}: MRR {m} too low");
    }
}
