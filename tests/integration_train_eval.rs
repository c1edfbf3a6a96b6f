//! End-to-end: generate a dataset, train, evaluate, use embeddings
//! downstream — the full public-API flow a user follows.

use pbg::core::config::{LossKind, PbgConfig, SimilarityKind};
use pbg::core::eval::{CandidateSampling, LinkPredictionEval};
use pbg::core::model::Embeddings;
use pbg::core::trainer::Trainer;
use pbg::datagen::presets;
use pbg::eval::crossval::k_fold;
use pbg::eval::f1::f1_scores;
use pbg::eval::logreg::OneVsRest;
use pbg::graph::split::EdgeSplit;

#[test]
fn livejournal_like_flow_reaches_useful_mrr() {
    let dataset = presets::livejournal_like(0.0002, 3); // ~970 nodes
    let split = EdgeSplit::seventy_five_twenty_five(&dataset.edges, 3);
    let config = PbgConfig::builder()
        .dim(32)
        .epochs(6)
        .batch_size(500)
        .chunk_size(50)
        .uniform_negatives(50)
        .threads(2)
        .build()
        .unwrap();
    let mut trainer = Trainer::new(dataset.schema.clone(), &split.train, config).unwrap();
    let stats = trainer.train();
    assert!(stats.last().unwrap().mean_loss < stats[0].mean_loss);
    let metrics = LinkPredictionEval {
        num_candidates: 100,
        sampling: CandidateSampling::Prevalence,
        ..Default::default()
    }
    .evaluate(&trainer.snapshot(), &split.test, &split.train, &[]);
    assert!(metrics.mrr > 0.1, "MRR {}", metrics.mrr);
    assert!(metrics.hits_at_10 > metrics.hits_at_1);
}

#[test]
fn youtube_like_downstream_classification_beats_chance() {
    let dataset = presets::youtube_like(0.001, 5); // ~1.1k nodes
    let labels = dataset.labels.as_ref().expect("youtube preset has labels");
    let config = PbgConfig::builder()
        .dim(32)
        .epochs(6)
        .batch_size(500)
        .chunk_size(50)
        .uniform_negatives(50)
        .threads(2)
        .build()
        .unwrap();
    let mut trainer = Trainer::new(dataset.schema.clone(), &dataset.edges, config).unwrap();
    trainer.train();
    let model = trainer.snapshot();

    // one-vs-rest logistic regression on the embeddings, 5-fold CV
    let nodes = labels.labeled_nodes();
    assert!(nodes.len() > 100, "need labeled nodes, got {}", nodes.len());
    let features: Vec<Vec<f32>> = nodes
        .iter()
        .map(|&n| model.embedding(0, n).to_vec())
        .collect();
    let truth: Vec<Vec<u16>> = nodes.iter().map(|&n| labels.of(n).to_vec()).collect();
    let folds = k_fold(nodes.len(), 5, 1);
    let fold = &folds[0];
    let train_x: Vec<Vec<f32>> = fold.train.iter().map(|&i| features[i].clone()).collect();
    let train_y: Vec<Vec<u16>> = fold.train.iter().map(|&i| truth[i].clone()).collect();
    let ovr = OneVsRest::fit(&train_x, &train_y, labels.num_classes(), 7);
    let pred: Vec<Vec<u16>> = fold
        .test
        .iter()
        .map(|&i| ovr.predict(&features[i]))
        .collect();
    let test_y: Vec<Vec<u16>> = fold.test.iter().map(|&i| truth[i].clone()).collect();
    let scores = f1_scores(&test_y, &pred, labels.num_classes());
    // chance micro-F1 with ~33 communities is ~3%
    assert!(scores.micro > 0.15, "micro-F1 {}", scores.micro);
}

#[test]
fn fb15k_like_complex_softmax_flow() {
    let dataset = presets::fb15k_like(0.05, 11); // ~750 entities
    let split = EdgeSplit::new(&dataset.edges, 0.05, 0.05, 11);
    let config = PbgConfig::builder()
        .dim(32)
        .epochs(5)
        .batch_size(500)
        .chunk_size(50)
        .uniform_negatives(50)
        .loss(LossKind::Softmax)
        .similarity(SimilarityKind::Dot)
        .reciprocal_relations(true)
        .threads(2)
        .build()
        .unwrap();
    let mut trainer = Trainer::new(dataset.schema.clone(), &split.train, config).unwrap();
    trainer.train();
    let model = trainer.snapshot();
    let raw = LinkPredictionEval {
        num_candidates: 200,
        sampling: CandidateSampling::Uniform,
        filtered: false,
        ..Default::default()
    }
    .evaluate(&model, &split.test, &split.train, &[]);
    let filtered = LinkPredictionEval {
        num_candidates: 200,
        sampling: CandidateSampling::Uniform,
        filtered: true,
        ..Default::default()
    }
    .evaluate(
        &model,
        &split.test,
        &split.train,
        &[&split.train, &split.valid, &split.test],
    );
    assert!(raw.mrr > 0.05, "raw MRR {}", raw.mrr);
    assert!(
        filtered.mrr >= raw.mrr,
        "filtered {} < raw {}",
        filtered.mrr,
        raw.mrr
    );
}

#[test]
fn cli_rejects_misspelled_flags_and_stray_arguments() {
    let dir = std::env::temp_dir().join(format!("pbg_cli_flags_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let edges = dir.join("ring.tsv");
    std::fs::write(&edges, "0\t0\t1\n1\t0\t2\n2\t0\t3\n3\t0\t0\n").unwrap();
    let out = dir.join("ckpt");
    let edges = edges.to_str().unwrap();
    let ckpt = out.to_str().unwrap();
    for args in [
        &["--edges", edges, "--partitons", "4", "--output", ckpt][..],
        &["--edges", edges, "--output", ckpt, "extra"],
        &["--edges", edges, "--output"],
        &["--edges", edges, "--output", "--threads", "1"],
        // retired: a script that still passes it must not be silently ignored
        &["--edges", edges, "--output", ckpt, "--pin-cores"],
    ] {
        let run = std::process::Command::new(env!("CARGO_BIN_EXE_pbg"))
            .arg("train")
            .args(args)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert!(!run.status.success(), "{args:?} trained: {stderr}");
        assert!(stderr.starts_with("error: "), "{args:?}: {stderr}");
        assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
        assert!(!out.exists(), "{args:?} wrote a checkpoint");
    }
    std::fs::remove_dir_all(&dir).ok();
}
