//! Shared training/evaluation wrappers for the experiment binaries.

use pbg_core::config::PbgConfig;
use pbg_core::eval::{CandidateSampling, LinkPredictionEval};
use pbg_core::model::{RelationSnapshot, TrainedEmbeddings};
use pbg_core::stats::EpochStats;
use pbg_core::trainer::{Storage, Trainer};
use pbg_eval::ranking::RankingMetrics;
use pbg_graph::edges::EdgeList;
use pbg_graph::schema::{GraphSchema, OperatorKind};
use pbg_graph::split::EdgeSplit;
use pbg_tensor::matrix::Matrix;

/// Result of one PBG training run.
#[derive(Debug)]
pub struct PbgRun {
    /// Final model snapshot.
    pub model: TrainedEmbeddings,
    /// Per-epoch stats.
    pub epochs: Vec<EpochStats>,
    /// Peak resident embedding bytes.
    pub peak_bytes: usize,
    /// Total wall-clock training seconds.
    pub seconds: f64,
}

impl PbgRun {
    /// A run's result; its peak is the last epoch's, which reports the
    /// peak so far.
    fn new(model: TrainedEmbeddings, epochs: Vec<EpochStats>, seconds: f64) -> Self {
        let peak_bytes = epochs.last().map_or(0, |e| e.peak_bytes);
        PbgRun {
            model,
            epochs,
            peak_bytes,
            seconds,
        }
    }

    /// Loads served by a completed background prefetch, summed over
    /// epochs (0 for in-memory runs).
    pub fn total_prefetch_hits(&self) -> usize {
        self.epochs.iter().map(|e| e.prefetch_hits).sum()
    }

    /// Seconds the training hot path spent blocked on partition I/O,
    /// summed over epochs.
    pub fn total_swap_wait_seconds(&self) -> f64 {
        self.epochs.iter().map(|e| e.swap_wait_seconds).sum()
    }

    /// Bytes written back to backing storage, summed over epochs.
    pub fn total_bytes_written_back(&self) -> u64 {
        self.epochs.iter().map(|e| e.bytes_written_back).sum()
    }
}

/// Trains PBG on `train` with `partitions` partitions; disk-swapped when
/// `partitions > 1` and `disk` is set.
///
/// # Panics
///
/// Panics on invalid configs (experiment binaries fail fast).
pub fn train_pbg(
    schema: GraphSchema,
    train: &EdgeList,
    config: PbgConfig,
    disk: Option<std::path::PathBuf>,
) -> PbgRun {
    let storage = match disk {
        Some(dir) => Storage::Disk(dir),
        None => Storage::InMemory,
    };
    let mut trainer =
        Trainer::with_storage(schema, train, config, storage).expect("valid experiment config");
    let start = std::time::Instant::now();
    let epochs = trainer.train();
    let seconds = start.elapsed().as_secs_f64();
    PbgRun::new(trainer.snapshot(), epochs, seconds)
}

/// Trains PBG, invoking `on_epoch(epoch, elapsed_secs, &snapshot)` after
/// every epoch (for learning curves).
pub fn train_pbg_with_curve(
    schema: GraphSchema,
    train: &EdgeList,
    config: PbgConfig,
    mut on_epoch: impl FnMut(usize, f64, &TrainedEmbeddings),
) -> PbgRun {
    let mut trainer = Trainer::new(schema, train, config).expect("valid experiment config");
    let start = std::time::Instant::now();
    let epochs = trainer.train_with(|stats, t| {
        on_epoch(stats.epoch, start.elapsed().as_secs_f64(), &t.snapshot());
        true
    });
    let seconds = start.elapsed().as_secs_f64();
    PbgRun::new(trainer.snapshot(), epochs, seconds)
}

/// Wraps a plain embedding matrix (baseline output) as a
/// [`TrainedEmbeddings`] with an identity relation, so every system is
/// evaluated identically. Baselines are scored with cosine similarity —
/// the natural geometry of SGNS embeddings (dot product would conflate
/// norm with frequency).
pub fn wrap_embeddings(embeddings: Matrix, schema: GraphSchema) -> TrainedEmbeddings {
    wrap_embeddings_with(embeddings, schema, pbg_core::config::SimilarityKind::Cosine)
}

/// [`wrap_embeddings`] with an explicit similarity.
pub fn wrap_embeddings_with(
    embeddings: Matrix,
    schema: GraphSchema,
    similarity: pbg_core::config::SimilarityKind,
) -> TrainedEmbeddings {
    let relations = schema
        .relation_types()
        .iter()
        .map(|r| RelationSnapshot {
            op: OperatorKind::Identity,
            weight: r.weight(),
            forward: Vec::new(),
            reciprocal: None,
        })
        .collect();
    TrainedEmbeddings {
        dim: embeddings.cols(),
        similarity,
        schema,
        embeddings: vec![embeddings],
        relations,
    }
}

/// The standard link-prediction evaluation used across experiments.
pub fn link_prediction(
    model: &TrainedEmbeddings,
    split: &EdgeSplit,
    candidates: usize,
    sampling: CandidateSampling,
) -> RankingMetrics {
    LinkPredictionEval {
        num_candidates: candidates,
        sampling,
        seed: 1234,
        ..Default::default()
    }
    .evaluate(model, &split.test, &split.train, &[])
}

/// Filtered-setting link prediction (FB15k protocol).
pub fn link_prediction_filtered(
    model: &TrainedEmbeddings,
    split: &EdgeSplit,
    candidates: usize,
) -> RankingMetrics {
    LinkPredictionEval {
        num_candidates: candidates,
        sampling: CandidateSampling::Uniform,
        filtered: true,
        seed: 1234,
        ..Default::default()
    }
    .evaluate(
        model,
        &split.test,
        &split.train,
        &[&split.train, &split.valid, &split.test],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbg_datagen::presets;

    #[test]
    fn train_and_wrap_share_eval_path() {
        let dataset = presets::livejournal_like(0.00005, 1); // ~240 nodes
        let split = EdgeSplit::seventy_five_twenty_five(&dataset.edges, 1);
        let config = PbgConfig::builder()
            .dim(8)
            .epochs(1)
            .batch_size(100)
            .chunk_size(10)
            .uniform_negatives(10)
            .threads(1)
            .build()
            .unwrap();
        let run = train_pbg(dataset.schema.clone(), &split.train, config, None);
        let m = link_prediction(&run.model, &split, 20, CandidateSampling::Uniform);
        assert!(m.mrr > 0.0);
        // wrap raw embeddings and evaluate through the same path
        let wrapped = wrap_embeddings(run.model.embeddings[0].clone(), dataset.schema.clone());
        let m2 = link_prediction(&wrapped, &split, 20, CandidateSampling::Uniform);
        assert!(m2.mrr > 0.0);
    }

    #[test]
    fn disk_swapped_run_reports_prefetch_traffic() {
        let dataset = presets::livejournal_like(0.00005, 3);
        let split = EdgeSplit::seventy_five_twenty_five(&dataset.edges, 3);
        let config = PbgConfig::builder()
            .dim(8)
            .epochs(2)
            .batch_size(100)
            .chunk_size(10)
            .uniform_negatives(10)
            .threads(1)
            .build()
            .unwrap();
        let dir = std::env::temp_dir().join(format!("pbg_harness_io_{}", std::process::id()));
        let run = train_pbg(
            dataset.schema_with_partitions(4),
            &split.train,
            config,
            Some(dir.clone()),
        );
        std::fs::remove_dir_all(&dir).ok();
        assert!(
            run.total_prefetch_hits() > 0,
            "pipelined store must prefetch"
        );
        assert!(run.total_bytes_written_back() > 0);
        assert!(run.total_swap_wait_seconds() >= 0.0);
    }

    #[test]
    fn curve_callback_fires_per_epoch() {
        let dataset = presets::livejournal_like(0.00005, 2);
        let split = EdgeSplit::seventy_five_twenty_five(&dataset.edges, 2);
        let config = PbgConfig::builder()
            .dim(8)
            .epochs(3)
            .batch_size(100)
            .chunk_size(10)
            .uniform_negatives(10)
            .threads(1)
            .build()
            .unwrap();
        let mut calls = 0;
        train_pbg_with_curve(dataset.schema.clone(), &split.train, config, |_, _, _| {
            calls += 1;
        });
        assert_eq!(calls, 3);
    }
}
