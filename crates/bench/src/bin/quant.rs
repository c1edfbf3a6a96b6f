//! Quantized-storage sweep: checkpoint bytes, wire bytes, and ranking
//! quality at each storage precision (f32 / f16 / int8).
//!
//! Trains one model, writes it at every precision, and reports:
//!
//! - partition shard bytes on disk per precision (rows plus their f32
//!   accumulator column; and the ratio to f32)
//! - predicted wire bytes for a full checkout+checkin round trip of the
//!   largest partition, from the `wirecost` closed forms (which the
//!   loopback reconciliation tests pin to measured socket bytes)
//! - link-prediction MRR / Hits@10 of the model reloaded from each
//!   checkpoint, against the in-memory f32 baseline
//!
//! Self-asserts the tentpole's size claim — f16 checkpoint and wire
//! bytes are at most 0.55x their f32 size — so CI fails if compression
//! regresses. The committed `BENCH_quant.json` at the repo root is this
//! binary's output from a release run.
//!
//! ```sh
//! cargo run --release -p pbg-bench --bin quant [-- --quick]
//! ```

use pbg_bench::harness::{link_prediction, train_pbg};
use pbg_bench::report::{save_json, ExpArgs, Table};
use pbg_core::checkpoint::{self, TrainProgress};
use pbg_core::config::PbgConfig;
use pbg_core::eval::CandidateSampling;
use pbg_datagen::presets;
use pbg_distsim::netmodel::wirecost;
use pbg_graph::split::EdgeSplit;
use pbg_tensor::Precision;
use serde_json::json;

/// Total size of the partition shards (rows plus their f32 accumulator
/// column) under a checkpoint dir; never zero, so the size bar below
/// cannot pass vacuously.
fn shard_bytes(dir: &std::path::Path) -> u64 {
    let total = std::fs::read_dir(dir)
        .expect("checkpoint dir")
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().ends_with(".shard"))
        .map(|e| e.metadata().expect("metadata").len())
        .sum();
    assert!(total > 0, "no partition shards under {}", dir.display());
    total
}

fn main() {
    let args = ExpArgs::parse();
    let scale = args.scale.unwrap_or(if args.quick { 0.02 } else { 0.05 });
    let epochs = args.epochs.unwrap_or(if args.quick { 2 } else { 4 });
    let dim = 32usize;

    let dataset = presets::fb15k_like(scale, 11);
    let split = EdgeSplit::new(&dataset.edges, 0.05, 0.05, 11);
    let config = PbgConfig::builder()
        .dim(dim)
        .epochs(epochs)
        .batch_size(500)
        .chunk_size(50)
        .uniform_negatives(50)
        .threads(2)
        .build()
        .unwrap();
    println!(
        "dataset {}: {} entities, {} edges, dim {dim}, {epochs} epochs",
        dataset.name,
        dataset.num_nodes(),
        dataset.edges.len()
    );

    let run = train_pbg(dataset.schema.clone(), &split.train, config, None);
    let base = link_prediction(&run.model, &split, 100, CandidateSampling::Prevalence);
    println!(
        "f32 in-memory baseline: MRR {:.4}, Hits@10 {:.4}",
        base.mrr, base.hits_at_10
    );

    // wire cost of one full checkout+checkin of every embedding float —
    // the closed forms are reconciled byte-for-byte against loopback
    // sockets in crates/net/tests/netmodel_recon.rs
    let emb_floats: usize = run
        .model
        .embeddings
        .iter()
        .map(|m| m.rows() * m.cols())
        .sum();
    let acc_floats: usize = run.model.embeddings.iter().map(|m| m.rows()).sum();

    let mut table = Table::new(
        "Quantized storage sweep",
        &[
            "precision",
            "ckpt bytes",
            "ckpt ratio",
            "wire bytes",
            "wire ratio",
            "MRR",
            "Hits@10",
        ],
    );
    let mut arms = Vec::new();
    let mut sizes = std::collections::HashMap::new();
    for precision in [Precision::F32, Precision::F16, Precision::Int8] {
        let dir = std::env::temp_dir().join(format!(
            "pbg_bench_quant_{precision}_{}",
            std::process::id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        checkpoint::save_with_precision(&run.model, &dir, TrainProgress::default(), precision)
            .expect("save checkpoint");
        let ckpt = shard_bytes(&dir);
        let reloaded = checkpoint::load(&dir).expect("reload checkpoint");
        std::fs::remove_dir_all(&dir).ok();
        let metrics = link_prediction(&reloaded, &split, 100, CandidateSampling::Prevalence);

        let wire = wirecost::checkout_rpc_bytes_q(emb_floats, acc_floats, dim, precision)
            + wirecost::checkin_rpc_bytes_q(emb_floats, acc_floats, dim, precision);
        let (f32_ckpt, f32_wire) = *sizes.get(&Precision::F32.tag()).unwrap_or(&(ckpt, wire));
        sizes.insert(precision.tag(), (ckpt, wire));
        let ckpt_ratio = ckpt as f64 / f32_ckpt as f64;
        let wire_ratio = wire as f64 / f32_wire as f64;
        table.row(&[
            precision.to_string(),
            ckpt.to_string(),
            format!("{ckpt_ratio:.3}"),
            wire.to_string(),
            format!("{wire_ratio:.3}"),
            format!("{:.4}", metrics.mrr),
            format!("{:.4}", metrics.hits_at_10),
        ]);
        arms.push(json!({
            "precision": precision.to_string(),
            "checkpoint_bytes": ckpt,
            "checkpoint_ratio_vs_f32": ckpt_ratio,
            "wire_roundtrip_bytes": wire as u64,
            "wire_ratio_vs_f32": wire_ratio,
            "mrr": metrics.mrr,
            "hits_at_10": metrics.hits_at_10,
            "mrr_delta_vs_f32_memory": metrics.mrr - base.mrr,
        }));
    }
    table.print();

    // tentpole self-assert: f16 storage is at most 0.55x f32, on disk
    // and on the wire, and quality stayed inside the noise band
    let (f32_ckpt, f32_wire) = sizes[&Precision::F32.tag()];
    let (f16_ckpt, f16_wire) = sizes[&Precision::F16.tag()];
    assert!(
        f16_ckpt * 100 <= f32_ckpt * 55,
        "f16 checkpoint {f16_ckpt}B exceeds 0.55x f32 {f32_ckpt}B"
    );
    assert!(
        f16_wire * 100 <= f32_wire * 55,
        "f16 wire {f16_wire}B exceeds 0.55x f32 {f32_wire}B"
    );
    let f16_mrr = arms[1]["mrr"].as_f64().unwrap();
    assert!(
        (f16_mrr - base.mrr).abs() <= 0.02,
        "f16 MRR {f16_mrr} drifted from f32 {}",
        base.mrr
    );
    println!(
        "self-assert ok: f16 ckpt {:.3}x, wire {:.3}x, |dMRR| {:.4}",
        f16_ckpt as f64 / f32_ckpt as f64,
        f16_wire as f64 / f32_wire as f64,
        (f16_mrr - base.mrr).abs()
    );

    save_json(
        "quant",
        &json!({
            "bench": "quant",
            "dataset": json!({
                "name": dataset.name,
                "entities": dataset.num_nodes() as u64,
                "edges": dataset.edges.len() as u64,
                "dim": dim as u64,
                "epochs": epochs as u64,
            }),
            "baseline": json!({
                "mrr": base.mrr,
                "hits_at_10": base.hits_at_10,
            }),
            "arms": arms,
        }),
    );
}
