//! Distributed training (§4.2): machines-as-threads, each running the
//! same rank driver a networked cluster runs, against in-process lock /
//! partition / parameter servers — plus the discrete-event projection of
//! the same run at full Freebase scale.
//!
//! ```sh
//! cargo run --release --example distributed_training
//! ```

use pbg::core::config::PbgConfig;
use pbg::core::eval::{CandidateSampling, LinkPredictionEval};
use pbg::core::stats::format_bytes;
use pbg::datagen::presets;
use pbg::distsim::cluster::{ClusterConfig, ClusterTrainer};
use pbg::distsim::event::{simulate, EventSimConfig};
use pbg::graph::split::EdgeSplit;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dataset = presets::twitter_like(0.00002, 21); // ~830 nodes
    let split = EdgeSplit::ninety_five_five(&dataset.edges, 21);
    println!(
        "{}: {} nodes, {} train edges",
        dataset.name,
        dataset.num_nodes(),
        split.train.len()
    );
    let config = PbgConfig::builder()
        .dim(32)
        .epochs(4)
        .batch_size(500)
        .chunk_size(50)
        .uniform_negatives(50)
        .threads(2)
        .build()?;
    let eval = LinkPredictionEval {
        num_candidates: 200,
        sampling: CandidateSampling::Prevalence,
        ..Default::default()
    };

    println!("\n== real runs (machines are threads, transfers accounted) ==");
    for machines in [1usize, 2, 4] {
        let partitions = (2 * machines) as u32;
        let schema = dataset.schema_with_partitions(partitions);
        let mut cluster = ClusterTrainer::new(
            schema,
            &split.train,
            config.clone(),
            ClusterConfig {
                machines,
                ..Default::default()
            },
        )?;
        let stats = cluster.train();
        let last = stats.last().expect("epochs ran");
        let metrics = eval.evaluate(&cluster.snapshot(), &split.test, &split.train, &[]);
        println!(
            "M={machines} P={partitions:>2}: MRR {:.3}  {:.2}s/epoch wall  \
             {} moved  peak/machine {}",
            metrics.mrr,
            last.seconds,
            format_bytes(last.network_bytes as usize),
            format_bytes(last.peak_machine_bytes),
        );
    }

    println!("\n== paper-scale projection (Table 4 shape: full Twitter) ==");
    for (machines, partitions) in [(1usize, 1u32), (2, 4), (4, 8), (8, 16)] {
        let report = simulate(&EventSimConfig {
            nodes: 41_652_230,
            edges: 1_321_528_664, // 90% train split
            dim: 100,
            partitions,
            machines,
            epochs: 10,
            edges_per_sec: 204_000.0, // the paper's implied single-machine rate
            ..Default::default()
        });
        println!(
            "M={machines} P={partitions:>2}: {:>5.1} h  peak {:>9}  occupancy {:.2}",
            report.total_hours,
            format_bytes(report.peak_memory_bytes as usize),
            report.occupancy,
        );
    }
    println!(
        "\nThe projection reproduces Table 4's shape: near-linear speedup \
         with machines and ~1/P peak memory."
    );
    Ok(())
}
