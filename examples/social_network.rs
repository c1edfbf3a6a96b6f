//! Social-network embedding at (scaled) LiveJournal size with partitioned,
//! disk-swapped training — the paper's §4.1 single-machine regime.
//!
//! Trains the same graph unpartitioned and with 8 disk-swapped
//! partitions, comparing quality, peak memory, and I/O — a miniature of
//! Table 3 (left).
//!
//! ```sh
//! cargo run --release --example social_network
//! ```

use pbg::core::config::PbgConfig;
use pbg::core::eval::{CandidateSampling, LinkPredictionEval};
use pbg::core::stats::format_bytes;
use pbg::core::trainer::{Storage, Trainer};
use pbg::datagen::presets;
use pbg::graph::split::EdgeSplit;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // ~4.8k nodes / ~69k edges: LiveJournal at 1/1000 scale
    let dataset = presets::livejournal_like(0.001, 13);
    println!(
        "{}: {} nodes, {} edges",
        dataset.name,
        dataset.num_nodes(),
        dataset.edges.len()
    );
    let split = EdgeSplit::seventy_five_twenty_five(&dataset.edges, 13);
    let config = PbgConfig::builder()
        .dim(64)
        .epochs(4)
        .batch_size(1000)
        .chunk_size(50)
        .uniform_negatives(50)
        .threads(4)
        .build()?;
    let eval = LinkPredictionEval {
        num_candidates: 200,
        sampling: CandidateSampling::Prevalence,
        ..Default::default()
    };

    for partitions in [1u32, 8] {
        let schema = dataset.schema_with_partitions(partitions);
        let storage = if partitions == 1 {
            Storage::InMemory
        } else {
            Storage::Disk(std::env::temp_dir().join("pbg_social_example"))
        };
        let mut trainer = Trainer::with_storage(schema, &split.train, config.clone(), storage)?;
        let stats = trainer.train();
        let last = stats.last().expect("at least one epoch");
        let model = trainer.snapshot();
        let metrics = eval.evaluate(&model, &split.test, &split.train, &[]);
        println!(
            "P={partitions:>2}: MRR {:.3}  Hits@10 {:.3}  peak memory {:>10}  \
             swaps/epoch {:>3}  {:.1}s/epoch",
            metrics.mrr,
            metrics.hits_at_10,
            format_bytes(last.peak_bytes),
            last.swap_ins,
            last.seconds,
        );
    }
    std::fs::remove_dir_all(std::env::temp_dir().join("pbg_social_example")).ok();
    println!(
        "\nThe paper's Table 3 (left) shape: partitioned quality matches \
         unpartitioned while peak memory drops ~P/2-fold."
    );
    Ok(())
}
