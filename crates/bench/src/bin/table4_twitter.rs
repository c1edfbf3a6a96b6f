//! Table 4: Twitter partition and machine sweeps.
//!
//! Paper numbers (41.7M nodes / 1.47B edges, single "follow" relation):
//!
//! Left (1 machine):               Right (distributed, P = 2M):
//! | P  | MRR   | H@10 | h    | GB  | | M | P  | MRR   | H@10 | h   | GB  |
//! |----|-------|------|------|-----| |---|----|-------|------|-----|-----|
//! | 1  | 0.136 | .233 | 18.0 | 95.1| | 1 | 1  | 0.136 | .233 | 18.0| 95.1|
//! | 4  | 0.137 | .235 | 16.8 | 43.4| | 2 | 4  | 0.137 | .235 | 9.8 | 79.4|
//! | 8  | 0.137 | .237 | 19.1 | 20.7| | 4 | 8  | 0.137 | .235 | 6.5 | 40.5|
//! | 16 | 0.136 | .235 | 23.8 | 10.2| | 8 | 16 | 0.137 | .235 | 3.4 | 20.4|
//!
//! Shape: quality completely flat in both sweeps (social graph, single
//! relation — more robust than Freebase); memory ~1/P; near-linear
//! machine speedup (18.0 → 3.4 h).
//!
//! ```sh
//! cargo run --release -p pbg-bench --bin table4_twitter [-- --distributed --quick]
//! ```

use pbg_bench::harness::{arm_trace_path, link_prediction, train_pbg_traced};
use pbg_bench::report::{save_json, ExpArgs, Table};
use pbg_core::config::PbgConfig;
use pbg_core::eval::CandidateSampling;
use pbg_core::stats::format_bytes;
use pbg_datagen::presets;
use pbg_distsim::cluster::{ClusterConfig, ClusterTrainer};
use pbg_distsim::event::{simulate, EventSimConfig};
use pbg_graph::split::EdgeSplit;
use serde_json::json;

const PAPER_NODES: u64 = 41_652_230;
const PAPER_TRAIN_EDGES: u64 = 1_321_528_664;

/// Paper-scale projection; `pipelined: false` reproduces the paper's
/// synchronous swapping (the published hour columns), `true` projects
/// the pipelined swap implementation.
fn project(
    partitions: u32,
    machines: usize,
    edges_per_sec: f64,
    pipelined: bool,
) -> pbg_distsim::event::EventSimReport {
    simulate(&EventSimConfig {
        nodes: PAPER_NODES,
        edges: PAPER_TRAIN_EDGES,
        dim: 100,
        partitions,
        machines,
        epochs: 10,
        edges_per_sec,
        pipelined,
        ..Default::default()
    })
}

fn main() {
    let args = ExpArgs::parse();
    let scale = args
        .scale
        .unwrap_or(if args.quick { 0.00001 } else { 0.00003 });
    let epochs = args.epochs.unwrap_or(if args.quick { 4 } else { 10 });
    let dataset = presets::twitter_like(scale, 53);
    println!(
        "dataset {}: {} nodes, {} edges (paper: 41,652,230 / 1,468,365,182)",
        dataset.name,
        dataset.num_nodes(),
        dataset.edges.len(),
    );
    let split = EdgeSplit::ninety_five_five(&dataset.edges, 53);
    // the paper uses 10,000 prevalence-sampled candidates against 41.7M
    // nodes; scale the candidate pool with the scaled node count
    let candidates = ((dataset.num_nodes() as usize) / 5).clamp(50, 1000);
    let config_base = PbgConfig::builder()
        .dim(64)
        .epochs(epochs)
        .batch_size(1000)
        .chunk_size(50)
        .uniform_negatives(50)
        .threads(4)
        .build()
        .expect("valid config");
    let mut results = Vec::new();

    if !args.distributed {
        let mut table = Table::new(
            "Table 4 (left) — Twitter, single machine, partition sweep",
            &[
                "P",
                "MRR",
                "Hits@10",
                "measured s",
                "peak mem",
                "prefetch hits",
                "swap wait s",
                "projected h",
                "pipelined h",
            ],
        );
        let mut measured_eps = 2_000_000.0;
        for p in [1u32, 4, 8, 16] {
            let schema = dataset.schema_with_partitions(p);
            let dir = (p > 1)
                .then(|| std::env::temp_dir().join(format!("pbg_t4_p{p}_{}", std::process::id())));
            let trace = args
                .telemetry
                .as_ref()
                .map(|base| arm_trace_path(base, &format!("p{p}")));
            let run = train_pbg_traced(
                schema,
                &split.train,
                config_base.clone(),
                dir.clone(),
                trace.as_deref(),
            );
            if let Some(d) = dir {
                std::fs::remove_dir_all(&d).ok();
            }
            let m = link_prediction(
                &run.model,
                &split,
                candidates,
                CandidateSampling::Prevalence,
            );
            let total_train_secs: f64 = run.epochs.iter().map(|e| e.seconds).sum();
            let eps = split.train.len() as f64 * epochs as f64 / total_train_secs.max(1e-9);
            if p == 1 {
                measured_eps = eps;
            }
            let projection = project(p, 1, measured_eps, false);
            let overlapped = project(p, 1, measured_eps, true);
            let prefetch_hits: usize = run.epochs.iter().map(|e| e.prefetch_hits).sum();
            let swap_wait: f64 = run.epochs.iter().map(|e| e.swap_wait_seconds).sum();
            let written_back: u64 = run.epochs.iter().map(|e| e.bytes_written_back).sum();
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
                "bytes_written_back": written_back,
                "projected_hours": projection.total_hours,
                "projected_pipelined_hours": overlapped.total_hours,
                "projected_peak_bytes": projection.peak_memory_bytes,
            }));
        }
        table.print();
        println!("paper shape: MRR flat at 0.136–0.137; memory ≈ 1/P (95.1→10.2 GB).");
        save_json("table4_twitter_partitions", &results);
    } else {
        let mut table = Table::new(
            "Table 4 (right) — Twitter, distributed, machine sweep (P = 2M)",
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
        // per-machine throughput calibrated once from the M=1 run: at
        // paper scale each machine trains at the single-machine rate and
        // the event simulator models the scheduling/transfer overheads
        let mut calibrated_eps = 0.0f64;
        for machines in [1usize, 2, 4, 8] {
            let p = (2 * machines) as u32;
            let schema = dataset.schema_with_partitions(p.max(1));
            let mut cluster = ClusterTrainer::new(
                schema,
                &split.train,
                config_base.clone(),
                ClusterConfig {
                    machines,
                    ..Default::default()
                },
            )
            .expect("valid cluster");
            let start = std::time::Instant::now();
            let stats = cluster.train();
            let seconds = start.elapsed().as_secs_f64();
            let m = link_prediction(
                &cluster.snapshot(),
                &split,
                candidates,
                CandidateSampling::Prevalence,
            );
            if machines == 1 {
                calibrated_eps = split.train.len() as f64 * epochs as f64
                    / stats.iter().map(|e| e.seconds).sum::<f64>().max(1e-9);
            }
            let projection = project(p.max(1), machines, calibrated_eps.max(1.0), false);
            let overlapped = project(p.max(1), machines, calibrated_eps.max(1.0), true);
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
        println!(
            "paper shape: MRR flat at 0.136–0.137 through 8 machines; time \
             falls 18.0 → 3.4 h (more linear than Freebase)."
        );
        save_json("table4_twitter_machines", &results);
    }
}
