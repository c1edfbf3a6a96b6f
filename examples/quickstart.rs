//! Quickstart: train and evaluate PBG embeddings on a small synthetic
//! social network.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use pbg::core::config::PbgConfig;
use pbg::core::eval::{CandidateSampling, LinkPredictionEval};
use pbg::core::model::Embeddings;
use pbg::core::trainer::Trainer;
use pbg::datagen::social::SocialGraphConfig;
use pbg::graph::split::EdgeSplit;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A LiveJournal-flavored synthetic graph: Zipf degrees, strong
    //    community structure.
    let graph = SocialGraphConfig {
        num_nodes: 2_000,
        num_edges: 40_000,
        num_communities: 80,
        intra_prob: 0.85,
        zipf_exponent: 1.0,
        seed: 42,
    };
    let (edges, _) = graph.generate();
    println!(
        "generated {} edges over {} nodes",
        edges.len(),
        graph.num_nodes
    );

    // 2. 75/25 train/test split (the paper's LiveJournal protocol).
    let split = EdgeSplit::seventy_five_twenty_five(&edges, 7);

    // 3. Train with the paper's default recipe: dot-product similarity,
    //    margin ranking loss, batched negatives, HOGWILD Adagrad.
    let config = PbgConfig::builder()
        .dim(64)
        .epochs(5)
        .batch_size(500)
        .chunk_size(50)
        .uniform_negatives(50)
        .threads(4)
        .learning_rate(0.1)
        .build()?;
    let schema = graph.schema(1);
    let mut trainer = Trainer::new(schema, &split.train, config)?;
    for stats in trainer.train() {
        println!(
            "epoch {:>2}: mean loss {:.4}  ({} edges in {:.2}s, {:.0} edges/s)",
            stats.epoch,
            stats.mean_loss,
            stats.edges,
            stats.seconds,
            stats.edges as f64 / stats.seconds.max(1e-9),
        );
    }

    // 4. Evaluate link prediction: rank true test edges among 100
    //    uniformly sampled corruptions per side.
    let model = trainer.snapshot();
    let metrics = LinkPredictionEval {
        num_candidates: 100,
        sampling: CandidateSampling::Uniform,
        ..Default::default()
    }
    .evaluate(&model, &split.test, &split.train, &[]);
    println!(
        "link prediction: MRR {:.3}  MR {:.1}  Hits@10 {:.3}  ({} ranks)",
        metrics.mrr, metrics.mr, metrics.hits_at_10, metrics.count
    );

    // 5. Embeddings are plain vectors — use them anywhere.
    let v = model.embedding(0, 0);
    println!("node 0 embedding starts with {:?}...", &v[..4.min(v.len())]);
    Ok(())
}
