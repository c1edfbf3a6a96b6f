//! End-to-end serving: train a small model, checkpoint it, memory-map
//! the checkpoint, and query it over HTTP — asserting the served top-k
//! agrees with the offline (heap-loaded) scoring path.

use pbg::core::checkpoint;
use pbg::core::config::PbgConfig;
use pbg::core::model::{Embeddings, Model};
use pbg::core::storage::InMemoryStore;
use pbg::core::trainer::Trainer;
use pbg::datagen::presets;
use pbg::graph::ids::RelationTypeId;
use pbg::graph::schema::GraphSchema;
use pbg::serve::{EmbedServer, ServeConfig};
use pbg::telemetry::Registry;
use serde_json::Value;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;

fn tmp(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("pbg_int_serve_{name}_{}", std::process::id()))
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

#[test]
fn served_topk_matches_offline_argmax_after_training() {
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

    let dir = tmp("topk");
    std::fs::remove_dir_all(&dir).ok();
    checkpoint::save(&model, &dir).unwrap();
    let mmap = Arc::new(checkpoint::open_mmap(&dir).unwrap());
    let registry = Registry::new();
    let server = EmbedServer::serve(
        "127.0.0.1:0",
        Arc::clone(&mmap),
        registry.clone(),
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
        // offline reference: the heap-loaded model scored through the
        // batched path, argmax with ties to the lower id
        let scores = model.score_against_destinations(src, rel, &all);
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
        assert!(status.contains("200"), "{status} {body}");
        let v: Value = serde_json::from_str(&body).unwrap();
        let results = v.get("results").unwrap().as_array().unwrap();
        assert_eq!(results.len(), 5);
        assert_eq!(
            results[0].get("dst").unwrap().as_u64(),
            Some(best as u64),
            "src {src}: served top-1 disagrees with offline argmax"
        );
        let served = results[0].get("score").unwrap().as_f64().unwrap();
        assert!(
            (served - f64::from(scores[best])).abs() < 1e-6,
            "src {src}: {served} vs {}",
            scores[best]
        );
    }

    // health and metrics ride along and stay lint-clean under load
    let (status, body) = http(addr, "GET", "/healthz", "");
    assert!(status.contains("200"), "{status}");
    let health: Value = serde_json::from_str(&body).unwrap();
    assert_eq!(health.get("status").unwrap().as_str(), Some("ok"));
    assert_eq!(
        health.get("mapped_bytes").unwrap().as_u64(),
        Some(mmap.mapped_bytes() as u64)
    );
    let (status, text) = http(addr, "GET", "/metrics", "");
    assert!(status.contains("200"), "{status}");
    pbg::telemetry::snapshot::lint_prometheus(&text).unwrap();
    assert!(registry.counter("serve.requests").get() >= 4);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn served_scores_are_bit_identical_to_mmap_model() {
    // the HTTP layer must not perturb floats: serve /score, then compare
    // against the in-process mmap scoring path at f32 precision
    let dataset = presets::fb15k_like(0.01, 9);
    let config = PbgConfig::builder()
        .dim(8)
        .epochs(1)
        .batch_size(100)
        .chunk_size(20)
        .uniform_negatives(5)
        .threads(1)
        .build()
        .unwrap();
    let mut trainer = Trainer::new(dataset.schema.clone(), &dataset.edges, config).unwrap();
    trainer.train();
    let dir = tmp("bits");
    std::fs::remove_dir_all(&dir).ok();
    checkpoint::save(&trainer.snapshot(), &dir).unwrap();
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
    let (status, body) = http(
        server.local_addr(),
        "POST",
        "/score",
        "{\"src\": 3, \"rel\": 0, \"dsts\": [0, 1, 2, 3, 4]}",
    );
    assert!(status.contains("200"), "{status} {body}");
    let v: Value = serde_json::from_str(&body).unwrap();
    let got = v.get("scores").unwrap().as_array().unwrap();
    let want = mmap.score_against_destinations(3, RelationTypeId(0), &[0, 1, 2, 3, 4]);
    for (g, w) in got.iter().zip(&want) {
        // JSON carries f64; the f32 payload must survive the round trip
        assert_eq!(g.as_f64().unwrap() as f32, *w);
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn neighbors_cli_answers_like_topk_and_refuses_bad_input() {
    let schema = GraphSchema::homogeneous(8, 2).unwrap();
    let config = PbgConfig::builder()
        .dim(4)
        .batch_size(4)
        .chunk_size(2)
        .build()
        .unwrap();
    let model = Model::new(schema, config).unwrap();
    let dir = tmp("neighbors_cli");
    std::fs::remove_dir_all(&dir).ok();
    checkpoint::save(
        &model.snapshot(&InMemoryStore::new(model.store_layout())),
        &dir,
    )
    .unwrap();
    let pbg = |args: &[&str]| {
        std::process::Command::new(env!("CARGO_BIN_EXE_pbg"))
            .arg("neighbors")
            .arg("--checkpoint")
            .arg(&dir)
            .args(args)
            .output()
            .unwrap()
    };
    // the CLI prints what `/topk` returns, the source entity included
    let out = pbg(&["--entity", "3", "--relation", "0", "--k", "8"]);
    assert!(out.status.success(), "{out:?}");
    let mmap = checkpoint::open_mmap(&dir).unwrap();
    let want: String = mmap
        .top_destinations(3, RelationTypeId(0), 8)
        .iter()
        .map(|(id, score)| format!("{id}\t{score:.4}\n"))
        .collect();
    assert_eq!(String::from_utf8_lossy(&out.stdout), want);
    // a bad --k, --entity or --relation is a user error, not a panic
    // (exit 101)
    for bad in [
        &["--entity", "3", "--k", "0"][..],
        &["--entity", "3", "--relation", "0", "--k", "0"],
        &["--entity", "8"],
        &["--entity", "8", "--relation", "0"],
        &["--entity", "3", "--relation", "1"],
    ] {
        let out = pbg(bad);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{bad:?}: {stderr}");
        assert!(stderr.starts_with("error: "), "{bad:?}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
