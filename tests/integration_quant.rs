//! End-to-end quantized storage: the eval gate and the serving drill.
//!
//! Storage precision compresses bytes at rest and on the wire; training
//! math and Adagrad state stay f32. So the contract under test is that
//! a model round-tripped through an f16 (or int8) checkpoint ranks the
//! same way the original did — link-prediction MRR and Hits@10 within a
//! small noise band on two preset datasets — and that a server backed
//! by a quantized memory-mapped checkpoint agrees with offline scoring
//! over the same decoded shards.

use pbg::core::checkpoint::{self, TrainProgress};
use pbg::core::config::PbgConfig;
use pbg::core::eval::{CandidateSampling, LinkPredictionEval};
use pbg::core::model::Embeddings;
use pbg::core::trainer::Trainer;
use pbg::datagen::presets;
use pbg::graph::ids::RelationTypeId;
use pbg::graph::split::EdgeSplit;
use pbg::serve::{EmbedServer, ServeConfig};
use pbg::telemetry::Registry;
use pbg::tensor::Precision;
use serde_json::Value;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;

fn tmp(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("pbg_int_quant_{name}_{}", std::process::id()))
}

fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> (String, String) {
    let mut s = TcpStream::connect(addr).unwrap();
    let req = format!(
        "{method} {path} HTTP/1.0\r\nHost: x\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    s.write_all(req.as_bytes()).unwrap();
    let mut response = String::new();
    s.read_to_string(&mut response).unwrap();
    let (head, payload) = response
        .split_once("\r\n\r\n")
        .unwrap_or((response.as_str(), ""));
    (
        head.lines().next().unwrap_or("").to_string(),
        payload.to_string(),
    )
}

/// Trains on `train`, then evaluates the in-memory snapshot and a
/// reload of the same snapshot from a `precision` checkpoint with an
/// identical (seeded, deterministic) eval — returning
/// `(mrr, hits@10)` for both, plus the on-disk embedding bytes.
fn eval_through_checkpoint(
    name: &str,
    dataset: &pbg::datagen::Dataset,
    split: &EdgeSplit,
    config: PbgConfig,
    precision: Precision,
) -> ((f64, f64), (f64, f64), u64) {
    let mut trainer = Trainer::new(dataset.schema.clone(), &split.train, config).unwrap();
    trainer.train();
    let model = trainer.snapshot();

    let eval = LinkPredictionEval {
        num_candidates: 100,
        sampling: CandidateSampling::Prevalence,
        ..Default::default()
    };
    let base = eval.evaluate(&model, &split.test, &split.train, &[]);

    let dir = tmp(name);
    std::fs::remove_dir_all(&dir).ok();
    checkpoint::save_with_precision(&model, &dir, TrainProgress::default(), precision).unwrap();
    let shard_bytes: u64 = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().ends_with(".shard"))
        .map(|e| e.metadata().unwrap().len())
        .sum();
    assert!(
        shard_bytes > 0,
        "no partition shards under {}",
        dir.display()
    );
    let reloaded = checkpoint::load(&dir).unwrap();
    let quant = eval.evaluate(&reloaded, &split.test, &split.train, &[]);
    std::fs::remove_dir_all(&dir).ok();

    (
        (base.mrr, base.hits_at_10),
        (quant.mrr, quant.hits_at_10),
        shard_bytes,
    )
}

#[test]
fn fb15k_f16_checkpoint_evals_within_noise_band_of_f32() {
    let dataset = presets::fb15k_like(0.05, 11); // ~750 entities
    let split = EdgeSplit::new(&dataset.edges, 0.05, 0.05, 11);
    let config = PbgConfig::builder()
        .dim(32)
        .epochs(3)
        .batch_size(500)
        .chunk_size(50)
        .uniform_negatives(50)
        .threads(2)
        .build()
        .unwrap();

    let ((mrr, hits), (qmrr, qhits), f16_bytes) = eval_through_checkpoint(
        "fb15k_f16",
        &dataset,
        &split,
        config.clone(),
        Precision::F16,
    );
    assert!(mrr > 0.05, "base MRR {mrr}");
    assert!(
        (mrr - qmrr).abs() <= 0.02,
        "fb15k f16 MRR drifted: {mrr} vs {qmrr}"
    );
    assert!(
        (hits - qhits).abs() <= 0.02,
        "fb15k f16 Hits@10 drifted: {hits} vs {qhits}"
    );

    // int8 is lossier: allow a wider band but still demand rankings hold
    let ((mrr8, hits8), (q8mrr, q8hits), _) = eval_through_checkpoint(
        "fb15k_int8",
        &dataset,
        &split,
        config.clone(),
        Precision::Int8,
    );
    assert!(
        (mrr8 - q8mrr).abs() <= 0.05,
        "fb15k int8 MRR drifted: {mrr8} vs {q8mrr}"
    );
    assert!(
        (hits8 - q8hits).abs() <= 0.05,
        "fb15k int8 Hits@10 drifted: {hits8} vs {q8hits}"
    );

    // and the tentpole's size claim, on disk rather than in a model:
    // f16 embedding shards are at most 0.55x their f32 size
    let ((_, _), (_, _), f32_bytes) =
        eval_through_checkpoint("fb15k_f32", &dataset, &split, config, Precision::F32);
    assert!(
        f16_bytes * 100 <= f32_bytes * 55,
        "f16 shards {f16_bytes}B vs f32 {f32_bytes}B"
    );
}

#[test]
fn livejournal_f16_checkpoint_evals_within_noise_band_of_f32() {
    let dataset = presets::livejournal_like(0.0002, 3); // ~970 nodes
    let split = EdgeSplit::seventy_five_twenty_five(&dataset.edges, 3);
    let config = PbgConfig::builder()
        .dim(32)
        .epochs(4)
        .batch_size(500)
        .chunk_size(50)
        .uniform_negatives(50)
        .threads(2)
        .build()
        .unwrap();
    let ((mrr, hits), (qmrr, qhits), _) =
        eval_through_checkpoint("lj_f16", &dataset, &split, config, Precision::F16);
    assert!(mrr > 0.05, "base MRR {mrr}");
    assert!(
        (mrr - qmrr).abs() <= 0.02,
        "livejournal f16 MRR drifted: {mrr} vs {qmrr}"
    );
    assert!(
        (hits - qhits).abs() <= 0.02,
        "livejournal f16 Hits@10 drifted: {hits} vs {qhits}"
    );
}

#[test]
fn quantized_checkpoint_serves_topk_agreeing_with_offline_argmax() {
    let dataset = presets::fb15k_like(0.02, 4); // ~300 entities
    let config = PbgConfig::builder()
        .dim(16)
        .epochs(2)
        .batch_size(250)
        .chunk_size(25)
        .uniform_negatives(10)
        .threads(2)
        .build()
        .unwrap();
    let mut trainer = Trainer::new(dataset.schema.clone(), &dataset.edges, config).unwrap();
    trainer.train();
    let model = trainer.snapshot();

    for precision in [Precision::F16, Precision::Int8] {
        let dir = tmp(&format!("serve_{precision}"));
        std::fs::remove_dir_all(&dir).ok();
        checkpoint::save_with_precision(&model, &dir, TrainProgress::default(), precision).unwrap();
        let mmap = Arc::new(checkpoint::open_mmap(&dir).unwrap());
        let server = EmbedServer::serve(
            "127.0.0.1:0",
            Arc::clone(&mmap),
            Registry::new(),
            ServeConfig {
                rate_limit_rps: 0.0,
                ..ServeConfig::default()
            },
        )
        .unwrap();
        let addr = server.local_addr();

        let rel = RelationTypeId(0);
        let dest = model.schema.relation_type(rel).dest_type();
        let n = model.schema.entity_type(dest).num_entities();
        let all: Vec<u32> = (0..n).collect();
        for src in [0u32, 5, 11] {
            // offline reference over the SAME decoded shards the server
            // reads — served /topk must agree exactly with this argmax
            let scores = mmap.score_against_destinations(src, rel, &all);
            let mut best = 0usize;
            for (i, &s) in scores.iter().enumerate() {
                if s > scores[best] {
                    best = i;
                }
            }
            let (status, body) = http(
                addr,
                "POST",
                "/topk",
                &format!("{{\"src\": {src}, \"rel\": 0, \"k\": 5}}"),
            );
            assert!(status.contains("200"), "{precision}: {status} {body}");
            let v: Value = serde_json::from_str(&body).unwrap();
            let results = v.get("results").unwrap().as_array().unwrap();
            assert_eq!(results.len(), 5);
            assert_eq!(
                results[0].get("dst").unwrap().as_u64(),
                Some(best as u64),
                "{precision} src {src}: served top-1 disagrees with offline argmax"
            );
            let served = results[0].get("score").unwrap().as_f64().unwrap();
            assert!(
                (served - f64::from(scores[best])).abs() < 1e-6,
                "{precision} src {src}: {served} vs {}",
                scores[best]
            );
            // and the heap-loaded f32 model agrees up to quantization
            let f32_scores = model.score_against_destinations(src, rel, &all);
            let tol = match precision {
                Precision::F16 => 0.05,
                _ => 0.5,
            };
            assert!(
                (f64::from(f32_scores[best]) - served).abs() < tol,
                "{precision} src {src}: quantized score {served} too far from f32 {}",
                f32_scores[best]
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
