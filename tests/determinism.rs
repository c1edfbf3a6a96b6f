//! Determinism regression tests.
//!
//! With `threads = 1` training is a fixed sequence of float operations:
//! seeded `Xoshiro256` draws, relation-grouped batches in a deterministic
//! order, and kernels whose summation order is a pure function of shape
//! (the scoped-thread row split is bit-identical to the serial kernel and
//! never engages at training-chunk shapes anyway). So two runs must agree
//! *bit for bit* — and any future kernel rewrite that silently changes
//! summation order shows up as a diff against the golden score vector
//! committed in `tests/golden_scores_threads1.txt`.
//!
//! To regenerate the golden file after an intentional numeric change:
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test --test determinism
//! ```

use pbg::core::config::PbgConfig;
use pbg::core::model::Embeddings;
use pbg::core::trainer::Trainer;
use pbg::datagen::social::SocialGraphConfig;
use pbg::graph::edges::EdgeList;
use pbg::graph::schema::GraphSchema;
use pbg::tensor::kernels::{dispatch, Variant};

/// The golden vectors were recorded under the scalar kernel path; the
/// AVX2 variant fuses multiply-adds and differs by ULPs, so every test in
/// this binary pins the dispatcher before any kernel runs. (All tests
/// force the same value, so concurrent test threads can't race.)
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
    "/../../tests/golden_scores_threads1.txt"
);
const NUM_NODES: u32 = 200;
const SCORED_EDGES: usize = 32;

fn dataset() -> (GraphSchema, EdgeList) {
    let graph = SocialGraphConfig {
        num_nodes: NUM_NODES,
        num_edges: 2_000,
        num_communities: 8,
        intra_prob: 0.8,
        zipf_exponent: 1.0,
        seed: 97,
    };
    let (edges, _) = graph.generate();
    (graph.schema(1), edges)
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
        .unwrap()
}

/// Trains once and returns (flat embedding table, scores of the first
/// [`SCORED_EDGES`] edges under the dot similarity).
fn train_and_score() -> (Vec<f32>, Vec<f32>) {
    let (schema, edges) = dataset();
    let mut trainer = Trainer::new(schema, &edges, config()).unwrap();
    trainer.train();
    let model = trainer.snapshot();
    let mut table = Vec::new();
    for node in 0..NUM_NODES {
        table.extend_from_slice(&model.embedding(0, node));
    }
    let scores: Vec<f32> = (0..SCORED_EDGES.min(edges.len()))
        .map(|i| {
            let src = model.embedding(0, edges.sources()[i]);
            let dst = model.embedding(0, edges.destinations()[i]);
            src.iter().zip(dst.iter()).map(|(a, b)| a * b).sum()
        })
        .collect();
    (table, scores)
}

#[test]
fn threads1_training_is_bit_identical_across_runs() {
    pin_scalar_kernels();
    let (table1, scores1) = train_and_score();
    let (table2, scores2) = train_and_score();
    assert_eq!(table1.len(), table2.len());
    for (i, (a, b)) in table1.iter().zip(&table2).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "embedding element {i} differs across identical runs: {a} vs {b}"
        );
    }
    for (i, (a, b)) in scores1.iter().zip(&scores2).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "score {i} differs: {a} vs {b}");
    }
}

#[test]
fn threads1_scores_match_committed_golden() {
    pin_scalar_kernels();
    let (_, scores) = train_and_score();
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
    assert_eq!(
        scores.len(),
        want.len(),
        "golden has {} scores, run produced {}",
        want.len(),
        scores.len()
    );
    for (i, (&got, &bits)) in scores.iter().zip(&want).enumerate() {
        let want_f = f32::from_bits(bits);
        assert_eq!(
            got.to_bits(),
            bits,
            "score {i}: got {got:e} ({:08x}), golden {want_f:e} ({bits:08x}) — \
             a kernel or trainer change altered threads=1 numerics; if \
             intentional, regenerate with UPDATE_GOLDEN=1",
            got.to_bits()
        );
    }
}
