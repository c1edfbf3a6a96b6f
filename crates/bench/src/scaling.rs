//! The paper's scaling protocol, written once for both large graphs:
//! a one-machine partition sweep, a machine sweep at P = 2M, and MRR
//! learning curves by machine count. Freebase (Table 3, Figure 6) and
//! Twitter (Table 4, Figure 7) differ only in their [`Study`].
//!
//! Quality and memory come from real (scaled) runs; the hour columns
//! come from the discrete-event projector at the paper's graph size,
//! calibrated with the edges/second measured at P = 1 (or M = 1).

use crate::harness::{link_prediction, train_pbg};
use crate::report::{save_json, save_text, ExpArgs, Table};
use pbg_core::config::PbgConfig;
use pbg_core::eval::CandidateSampling;
use pbg_core::stats::format_bytes;
use pbg_datagen::presets::Dataset;
use pbg_distsim::cluster::{ClusterConfig, ClusterTrainer};
use pbg_distsim::event::{simulate, EventSimConfig, EventSimReport};
use pbg_eval::curve::LearningCurve;
use pbg_graph::split::EdgeSplit;
use serde_json::json;

/// Everything one scaling bin sets; the sweeps themselves are shared.
#[derive(Debug, Clone, Copy)]
pub struct Study {
    /// Stem of every saved file: `{stem}_partitions.json` and
    /// `{stem}_machines.json` for a table, `{stem}.tsv` for a curve.
    pub stem: &'static str,
    /// The paper's label in table titles, e.g. `"Table 3"`.
    pub label: &'static str,
    /// The graph's name in titles and curve labels, e.g. `"Freebase"`.
    pub graph: &'static str,
    /// The stand-in generator, called with `(scale, seed)`.
    pub preset: fn(f64, u64) -> Dataset,
    /// Seed of the stand-in and of its train/test split.
    pub seed: u64,
    /// Dataset scale under `--quick` and by default.
    pub scale: (f64, f64),
    /// The paper's graph size as printed after the stand-in's.
    pub paper_size: &'static str,
    /// The paper's node count, for the tables' hour projections.
    pub paper_nodes: u64,
    /// The paper's training-edge count, for the tables' hour projections.
    pub paper_train_edges: u64,
    /// What the paper shows for the partition sweep (tables only).
    pub partition_shape: &'static str,
    /// What the paper shows across machine counts: the machine sweep's
    /// or the curves'.
    pub machine_shape: &'static str,
}

/// The stand-in, its 95/5 split and the candidate count, after printing
/// the dataset line.
fn setup(study: &Study, args: &ExpArgs) -> (Dataset, EdgeSplit, usize) {
    let (quick, full) = study.scale;
    let scale = args.scale.unwrap_or(if args.quick { quick } else { full });
    let dataset = (study.preset)(scale, study.seed);
    println!(
        "dataset {}: {} entities, {} relations, {} edges (paper: {})",
        dataset.name,
        dataset.num_nodes(),
        dataset.schema.num_relation_types(),
        dataset.edges.len(),
        study.paper_size,
    );
    let split = EdgeSplit::ninety_five_five(&dataset.edges, study.seed);
    // the paper uses 10,000 prevalence-sampled candidates against tens
    // of millions of nodes; scale the pool with the scaled node count
    let candidates = ((dataset.num_nodes() as usize) / 5).clamp(50, 1000);
    (dataset, split, candidates)
}

fn config(epochs: usize, threads: usize) -> PbgConfig {
    PbgConfig::builder()
        .dim(64)
        .epochs(epochs)
        .batch_size(1000)
        .chunk_size(50)
        .uniform_negatives(50)
        .threads(threads)
        .build()
        .expect("valid config")
}

/// Paper-scale projection; `pipelined: false` reproduces the paper's
/// synchronous swapping (the published hour columns), `true` projects
/// the pipelined swap implementation.
fn project(
    study: &Study,
    partitions: u32,
    machines: usize,
    edges_per_sec: f64,
    pipelined: bool,
) -> EventSimReport {
    simulate(&EventSimConfig {
        nodes: study.paper_nodes,
        edges: study.paper_train_edges,
        dim: 100,
        partitions,
        machines,
        epochs: 10,
        edges_per_sec,
        pipelined,
        ..Default::default()
    })
}

/// Runs the table: the machine sweep under `--distributed`, otherwise
/// the partition sweep.
pub fn table(study: &Study, args: &ExpArgs) {
    match args.distributed {
        false => partition_sweep(study, args),
        true => machine_sweep(study, args),
    }
}

/// The left half of the table: one machine, P ∈ {1, 4, 8, 16}, disk
/// swapped for P > 1.
fn partition_sweep(study: &Study, args: &ExpArgs) {
    let epochs = args.epochs.unwrap_or(if args.quick { 4 } else { 10 });
    let (dataset, split, candidates) = setup(study, args);
    let mut table = Table::new(
        format!(
            "{} (left) — {}, single machine, partition sweep",
            study.label, study.graph
        ),
        &[
            "P",
            "MRR",
            "Hits@10",
            "measured s",
            "peak mem",
            "prefetch hits",
            "swap wait s",
            "projected h (paper scale)",
            "pipelined h",
        ],
    );
    let mut results = Vec::new();
    // calibrated by the P = 1 arm, which runs first
    let mut measured_eps = 0.0;
    for p in [1u32, 4, 8, 16] {
        let dir = (p > 1).then(|| {
            let name = format!("pbg_{}_p{p}_{}", study.stem, std::process::id());
            std::env::temp_dir().join(name)
        });
        let schema = dataset.schema_with_partitions(p);
        let run = train_pbg(schema, &split.train, config(epochs, 4), dir.clone());
        if let Some(d) = dir {
            std::fs::remove_dir_all(&d).ok();
        }
        let sampling = CandidateSampling::Prevalence;
        let m = link_prediction(&run.model, &split, candidates, sampling);
        let total_train_secs: f64 = run.epochs.iter().map(|e| e.seconds).sum();
        if p == 1 {
            measured_eps = split.train.len() as f64 * epochs as f64 / total_train_secs.max(1e-9);
        }
        let projection = project(study, p, 1, measured_eps, false);
        let overlapped = project(study, p, 1, measured_eps, true);
        let prefetch_hits = run.total_prefetch_hits();
        let swap_wait = run.total_swap_wait_seconds();
        table.row(&[
            p.to_string(),
            format!("{:.3}", m.mrr),
            format!("{:.3}", m.hits_at_10),
            format!("{:.1}", run.seconds),
            format_bytes(run.peak_bytes),
            prefetch_hits.to_string(),
            format!("{swap_wait:.3}"),
            format!(
                "{:.0} h / {}",
                projection.total_hours,
                format_bytes(projection.peak_memory_bytes as usize)
            ),
            format!("{:.0}", overlapped.total_hours),
        ]);
        results.push(json!({
            "partitions": p, "mrr": m.mrr, "hits_at_10": m.hits_at_10,
            "measured_seconds": run.seconds, "peak_bytes": run.peak_bytes,
            "prefetch_hits": prefetch_hits,
            "swap_wait_seconds": swap_wait,
            "bytes_written_back": run.total_bytes_written_back(),
            "projected_hours": projection.total_hours,
            "projected_pipelined_hours": overlapped.total_hours,
            "projected_peak_bytes": projection.peak_memory_bytes,
        }));
    }
    table.print();
    println!("paper shape: {}", study.partition_shape);
    save_json(&format!("{}_partitions", study.stem), &results);
}

/// The right half of the table: M ∈ {1, 2, 4, 8} simulated machines at
/// P = 2M.
fn machine_sweep(study: &Study, args: &ExpArgs) {
    let epochs = args.epochs.unwrap_or(if args.quick { 4 } else { 10 });
    let (dataset, split, candidates) = setup(study, args);
    let mut table = Table::new(
        format!(
            "{} (right) — {}, distributed, machine sweep (P = 2M)",
            study.label, study.graph
        ),
        &[
            "M",
            "P",
            "MRR",
            "Hits@10",
            "measured s",
            "peak/machine",
            "prefetch hits",
            "projected h",
            "pipelined h",
        ],
    );
    let mut results = Vec::new();
    // per-machine throughput calibrated once from the M = 1 run: at
    // paper scale each machine trains at the single-machine rate and the
    // event simulator models the scheduling/transfer overheads
    let mut calibrated_eps = 0.0f64;
    for machines in [1usize, 2, 4, 8] {
        let p = (2 * machines) as u32;
        let mut cluster = ClusterTrainer::new(
            dataset.schema_with_partitions(p),
            &split.train,
            config(epochs, 4),
            ClusterConfig {
                machines,
                ..Default::default()
            },
        )
        .expect("valid cluster");
        let start = std::time::Instant::now();
        let stats = cluster.train();
        let seconds = start.elapsed().as_secs_f64();
        let sampling = CandidateSampling::Prevalence;
        let m = link_prediction(&cluster.snapshot(), &split, candidates, sampling);
        if machines == 1 {
            calibrated_eps = split.train.len() as f64 * epochs as f64
                / stats.iter().map(|e| e.seconds).sum::<f64>().max(1e-9);
        }
        let projection = project(study, p, machines, calibrated_eps.max(1.0), false);
        let overlapped = project(study, p, machines, calibrated_eps.max(1.0), true);
        let peak = stats
            .iter()
            .map(|e| e.peak_machine_bytes)
            .max()
            .unwrap_or(0);
        let prefetch_hits: usize = stats.iter().map(|e| e.prefetch_hits).sum();
        let sim_pipelined: f64 = stats.iter().map(|e| e.sim_pipelined_seconds).sum();
        let network_bytes: u64 = stats.iter().map(|e| e.network_bytes).sum();
        table.row(&[
            machines.to_string(),
            p.to_string(),
            format!("{:.3}", m.mrr),
            format!("{:.3}", m.hits_at_10),
            format!("{seconds:.1}"),
            format_bytes(peak),
            prefetch_hits.to_string(),
            format!("{:.0}", projection.total_hours),
            format!("{:.0}", overlapped.total_hours),
        ]);
        results.push(json!({
            "machines": machines, "partitions": p, "mrr": m.mrr,
            "hits_at_10": m.hits_at_10, "measured_seconds": seconds,
            "peak_machine_bytes": peak,
            "prefetch_hits": prefetch_hits,
            "sim_pipelined_seconds": sim_pipelined,
            "network_bytes": network_bytes,
            "projected_hours": projection.total_hours,
            "projected_pipelined_hours": overlapped.total_hours,
        }));
    }
    table.print();
    println!("paper shape: {}", study.machine_shape);
    save_json(&format!("{}_machines", study.stem), &results);
}

/// MRR after every epoch, against the epoch and against wall-clock, for
/// M ∈ {1, 2, 4, 8} (M ∈ {1, 2} under `--quick`) at P = 2M.
pub fn curves(study: &Study, args: &ExpArgs) {
    let epochs = args.epochs.unwrap_or(if args.quick { 4 } else { 8 });
    let (dataset, split, candidates) = setup(study, args);
    let machine_counts: &[usize] = if args.quick { &[1, 2] } else { &[1, 2, 4, 8] };
    let mut out = String::new();
    let mut epoch_seconds = Vec::new();
    for &machines in machine_counts {
        let p = (2 * machines) as u32;
        let mut cluster = ClusterTrainer::new(
            dataset.schema_with_partitions(p),
            &split.train,
            config(epochs, 2),
            ClusterConfig {
                machines,
                ..Default::default()
            },
        )
        .expect("valid cluster");
        let label = format!("{} M={machines}", study.graph.to_lowercase());
        let mut curve = LearningCurve::start(label);
        let mut train_secs = 0.0;
        let start = std::time::Instant::now();
        cluster.train_with(|stats, trainer| {
            train_secs += stats.seconds;
            let sampling = CandidateSampling::Prevalence;
            let m = link_prediction(&trainer.snapshot(), &split, candidates, sampling);
            curve.record_at(start.elapsed().as_secs_f64(), stats.epoch, m.mrr);
            true
        });
        epoch_seconds.push((machines, train_secs / epochs as f64));
        out.push_str(&curve.by_epoch_tsv());
        out.push_str(&curve.by_time_tsv());
        println!("{}", curve.by_epoch_tsv());
        println!("{}", curve.by_time_tsv());
    }
    println!("mean seconds/epoch by machine count:");
    for (m, s) in &epoch_seconds {
        println!("  M={m}: {s:.2}s");
    }
    println!("paper shape: {}", study.machine_shape);
    save_text(&format!("{}.tsv", study.stem), &out);
}
