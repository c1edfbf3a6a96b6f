//! Training configuration.
//!
//! Mirrors PBG's config surface: embedding dimension, comparator
//! (similarity), loss, margin, learning rate, batch/chunk geometry,
//! negative sampling counts and mode, HOGWILD thread count, epochs, and
//! bucket ordering. Defaults follow the paper's "typical setup" (§4.3:
//! `B = 1000` positives per batch in chunks of 50, 50 uniform negatives,
//! margin ranking loss with Adagrad).

use crate::error::{PbgError, Result};
use pbg_graph::ordering::BucketOrdering;
use serde::{Deserialize, Serialize};

/// Similarity between transformed source and destination embeddings
/// (§3.1: "PBG uses dot product or cosine similarity scoring functions").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum SimilarityKind {
    /// Inner product `<a, b>`.
    #[default]
    Dot,
    /// Cosine `<a, b> / (|a| |b|)`.
    Cosine,
}

/// Training loss over a positive edge's score and its negatives' scores.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum LossKind {
    /// Margin-based ranking loss (§3.1), the PBG default.
    #[default]
    MarginRanking,
    /// Independent binary cross-entropy on positives vs negatives.
    Logistic,
    /// Softmax cross-entropy of the positive against its negatives —
    /// used by the FB15k ComplEx configuration (§5.4.1).
    Softmax,
}

/// How negatives are produced (§4.3 / Figure 4 ablation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum NegativeMode {
    /// Batched: chunk nodes are reused as data-distributed negatives and
    /// one uniform chunk is shared by the whole chunk; scores form a
    /// matrix multiply. The PBG contribution.
    #[default]
    Batched,
    /// Unbatched: every positive samples its own negatives and scores
    /// them one dot product at a time — the memory-bound baseline whose
    /// speed decays as `1/B_n`.
    Unbatched,
}

/// Complete training configuration (validated; construct via
/// [`PbgConfig::builder`]).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct PbgConfig {
    /// Embedding dimension `d`.
    pub dim: usize,
    /// Adagrad learning rate.
    pub learning_rate: f32,
    /// Ranking margin `λ`.
    pub margin: f32,
    /// Similarity function.
    pub similarity: SimilarityKind,
    /// Loss function.
    pub loss: LossKind,
    /// Positive edges per batch (`B`).
    pub batch_size: usize,
    /// Positives per negative-sampling chunk.
    pub chunk_size: usize,
    /// Uniformly sampled negatives appended per chunk and side. The
    /// chunk's own nodes provide the data-distributed half, so the
    /// effective `α` is `chunk_size / (chunk_size + uniform_negatives)`.
    pub uniform_negatives: usize,
    /// Batched vs unbatched negatives.
    pub negative_mode: NegativeMode,
    /// Corrupt source side too (in addition to destination).
    pub corrupt_sources: bool,
    /// Use separate operator parameters for source-side and
    /// destination-side corruption ("reciprocal predicates", §5.4.1).
    pub reciprocal_relations: bool,
    /// Training epochs.
    pub epochs: usize,
    /// HOGWILD threads per bucket.
    pub threads: usize,
    /// Bucket iteration order.
    pub bucket_ordering: BucketOrdering,
    /// Partition buffer capacity `B`: how many embedding partitions may
    /// be resident at once. 2 is the paper's source/destination pair;
    /// larger buffers trade memory for fewer disk loads, especially
    /// under [`BucketOrdering::GreedyReuse`].
    pub buffer_size: usize,
    /// Sub-epoch stratification: visit each bucket `N` times per epoch on
    /// `1/N` of its edges (§4.1 footnote 3). 1 = off.
    pub bucket_passes: usize,
    /// Scale of uniform embedding initialization (`U(-s, s) / dim`-style).
    pub init_scale: f32,
    /// RNG seed.
    pub seed: u64,
    /// Checkpoint every `N` trained buckets (at bucket boundaries), in
    /// addition to the end-of-run checkpoint. 0 = off.
    pub checkpoint_interval_buckets: usize,
    /// Storage precision for embedding bytes at rest and on the wire
    /// (checkpoint shards, partition swap files, parameter-server
    /// chunks). Training compute and Adagrad state stay f32; anything
    /// non-default is dequantized back to f32 on load.
    pub precision: pbg_tensor::Precision,
    /// Pin HOGWILD workers (round-robin) and the disk I/O thread (last
    /// allowed core) with `sched_setaffinity`. Placement only — results
    /// are bit-identical pinned or not; pinning failures degrade to
    /// unpinned with a logged warning.
    pub pin_cores: bool,
}

// Hand-written (the vendored serde_derive supports no field attributes):
// every field is required except `checkpoint_interval_buckets` (defaults
// to 0), `buffer_size` (defaults to 2), `precision` (defaults to f32),
// and `pin_cores` (defaults to false), so configs saved before those
// fields existed keep loading.
impl serde::Deserialize for PbgConfig {
    fn deserialize(content: &serde::Content) -> std::result::Result<Self, serde::Error> {
        let serde::Content::Map(fields) = content else {
            return Err(serde::Error::custom("expected map for struct PbgConfig"));
        };
        Ok(PbgConfig {
            dim: serde::get_field(fields, "dim")?,
            learning_rate: serde::get_field(fields, "learning_rate")?,
            margin: serde::get_field(fields, "margin")?,
            similarity: serde::get_field(fields, "similarity")?,
            loss: serde::get_field(fields, "loss")?,
            batch_size: serde::get_field(fields, "batch_size")?,
            chunk_size: serde::get_field(fields, "chunk_size")?,
            uniform_negatives: serde::get_field(fields, "uniform_negatives")?,
            negative_mode: serde::get_field(fields, "negative_mode")?,
            corrupt_sources: serde::get_field(fields, "corrupt_sources")?,
            reciprocal_relations: serde::get_field(fields, "reciprocal_relations")?,
            epochs: serde::get_field(fields, "epochs")?,
            threads: serde::get_field(fields, "threads")?,
            bucket_ordering: serde::get_field(fields, "bucket_ordering")?,
            buffer_size: serde::get_field::<Option<usize>>(fields, "buffer_size")?
                .unwrap_or(pbg_graph::buffer::DEFAULT_CAPACITY),
            bucket_passes: serde::get_field(fields, "bucket_passes")?,
            init_scale: serde::get_field(fields, "init_scale")?,
            seed: serde::get_field(fields, "seed")?,
            checkpoint_interval_buckets: serde::get_field::<Option<usize>>(
                fields,
                "checkpoint_interval_buckets",
            )?
            .unwrap_or(0),
            precision: serde::get_field::<Option<pbg_tensor::Precision>>(fields, "precision")?
                .unwrap_or(pbg_tensor::Precision::F32),
            pin_cores: serde::get_field::<Option<bool>>(fields, "pin_cores")?.unwrap_or(false),
        })
    }
}

impl Default for PbgConfig {
    fn default() -> Self {
        PbgConfig {
            dim: 100,
            learning_rate: 0.1,
            margin: 0.1,
            similarity: SimilarityKind::Dot,
            loss: LossKind::MarginRanking,
            batch_size: 1000,
            chunk_size: 50,
            uniform_negatives: 50,
            negative_mode: NegativeMode::Batched,
            corrupt_sources: true,
            reciprocal_relations: false,
            epochs: 10,
            threads: 4,
            bucket_ordering: BucketOrdering::InsideOut,
            buffer_size: pbg_graph::buffer::DEFAULT_CAPACITY,
            bucket_passes: 1,
            init_scale: 0.1,
            seed: 0,
            checkpoint_interval_buckets: 0,
            precision: pbg_tensor::Precision::F32,
            pin_cores: false,
        }
    }
}

impl PbgConfig {
    /// Starts a builder with the paper's defaults.
    pub fn builder() -> PbgConfigBuilder {
        PbgConfigBuilder {
            config: PbgConfig::default(),
        }
    }

    /// Validates field ranges and cross-field constraints.
    ///
    /// # Errors
    ///
    /// Returns [`PbgError::Config`] describing the first invalid field.
    pub fn validate(&self) -> Result<()> {
        if self.dim == 0 {
            return Err(PbgError::Config("dim must be positive".into()));
        }
        if !(self.learning_rate.is_finite() && self.learning_rate > 0.0) {
            return Err(PbgError::Config("learning_rate must be positive".into()));
        }
        if !(self.margin.is_finite() && self.margin >= 0.0) {
            return Err(PbgError::Config("margin must be non-negative".into()));
        }
        if self.batch_size == 0 || self.chunk_size == 0 {
            return Err(PbgError::Config(
                "batch_size and chunk_size must be positive".into(),
            ));
        }
        if self.chunk_size > self.batch_size {
            return Err(PbgError::Config(
                "chunk_size cannot exceed batch_size".into(),
            ));
        }
        if self.epochs == 0 {
            return Err(PbgError::Config("epochs must be positive".into()));
        }
        if self.threads == 0 {
            return Err(PbgError::Config("threads must be positive".into()));
        }
        if self.bucket_passes == 0 {
            return Err(PbgError::Config("bucket_passes must be positive".into()));
        }
        if self.buffer_size < pbg_graph::buffer::DEFAULT_CAPACITY {
            return Err(PbgError::Config(
                "buffer_size must be at least 2 (a bucket needs its source \
                 and destination partitions)"
                    .into(),
            ));
        }
        if !(self.init_scale.is_finite() && self.init_scale > 0.0) {
            return Err(PbgError::Config("init_scale must be positive".into()));
        }
        if self.uniform_negatives == 0 && self.negative_mode == NegativeMode::Unbatched {
            return Err(PbgError::Config(
                "unbatched mode needs uniform_negatives > 0".into(),
            ));
        }
        Ok(())
    }

    /// Negatives per positive per corrupted side under batched sampling:
    /// the chunk's own nodes plus the uniform chunk.
    pub fn negatives_per_positive(&self) -> usize {
        match self.negative_mode {
            NegativeMode::Batched => self.chunk_size + self.uniform_negatives,
            NegativeMode::Unbatched => self.uniform_negatives,
        }
    }

    /// Serializes to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("config serializes")
    }

    /// Parses from JSON.
    ///
    /// # Errors
    ///
    /// Returns [`PbgError::Config`] when the JSON is malformed or the
    /// resulting config is invalid.
    pub fn from_json(json: &str) -> Result<Self> {
        let config: PbgConfig =
            serde_json::from_str(json).map_err(|e| PbgError::Config(e.to_string()))?;
        config.validate()?;
        Ok(config)
    }
}

/// Builder for [`PbgConfig`].
#[derive(Debug, Clone)]
pub struct PbgConfigBuilder {
    config: PbgConfig,
}

impl PbgConfigBuilder {
    /// Sets the embedding dimension.
    pub fn dim(mut self, dim: usize) -> Self {
        self.config.dim = dim;
        self
    }

    /// Sets the Adagrad learning rate.
    pub fn learning_rate(mut self, lr: f32) -> Self {
        self.config.learning_rate = lr;
        self
    }

    /// Sets the ranking margin.
    pub fn margin(mut self, margin: f32) -> Self {
        self.config.margin = margin;
        self
    }

    /// Sets the similarity function.
    pub fn similarity(mut self, s: SimilarityKind) -> Self {
        self.config.similarity = s;
        self
    }

    /// Sets the loss function.
    pub fn loss(mut self, l: LossKind) -> Self {
        self.config.loss = l;
        self
    }

    /// Sets the batch size `B`.
    pub fn batch_size(mut self, b: usize) -> Self {
        self.config.batch_size = b;
        self
    }

    /// Sets the chunk size.
    pub fn chunk_size(mut self, c: usize) -> Self {
        self.config.chunk_size = c;
        self
    }

    /// Sets uniform negatives per chunk.
    pub fn uniform_negatives(mut self, n: usize) -> Self {
        self.config.uniform_negatives = n;
        self
    }

    /// Sets the negative-sampling mode.
    pub fn negative_mode(mut self, m: NegativeMode) -> Self {
        self.config.negative_mode = m;
        self
    }

    /// Enables/disables source-side corruption.
    pub fn corrupt_sources(mut self, yes: bool) -> Self {
        self.config.corrupt_sources = yes;
        self
    }

    /// Enables/disables reciprocal relation parameters.
    pub fn reciprocal_relations(mut self, yes: bool) -> Self {
        self.config.reciprocal_relations = yes;
        self
    }

    /// Sets the number of epochs.
    pub fn epochs(mut self, e: usize) -> Self {
        self.config.epochs = e;
        self
    }

    /// Sets HOGWILD thread count.
    pub fn threads(mut self, t: usize) -> Self {
        self.config.threads = t;
        self
    }

    /// Sets the bucket ordering.
    pub fn bucket_ordering(mut self, o: BucketOrdering) -> Self {
        self.config.bucket_ordering = o;
        self
    }

    /// Sets the partition buffer capacity `B` (minimum 2).
    pub fn buffer_size(mut self, b: usize) -> Self {
        self.config.buffer_size = b;
        self
    }

    /// Sets sub-epoch stratification passes.
    pub fn bucket_passes(mut self, n: usize) -> Self {
        self.config.bucket_passes = n;
        self
    }

    /// Sets the embedding init scale.
    pub fn init_scale(mut self, s: f32) -> Self {
        self.config.init_scale = s;
        self
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Sets the mid-epoch checkpoint interval in buckets (0 = off).
    pub fn checkpoint_interval_buckets(mut self, n: usize) -> Self {
        self.config.checkpoint_interval_buckets = n;
        self
    }

    /// Sets the storage precision for embedding bytes at rest and on
    /// the wire (compute stays f32).
    pub fn precision(mut self, p: pbg_tensor::Precision) -> Self {
        self.config.precision = p;
        self
    }

    /// Pins HOGWILD workers and the disk I/O thread with core affinity.
    pub fn pin_cores(mut self, yes: bool) -> Self {
        self.config.pin_cores = yes;
        self
    }

    /// Validates and returns the config.
    ///
    /// # Errors
    ///
    /// See [`PbgConfig::validate`].
    pub fn build(self) -> Result<PbgConfig> {
        self.config.validate()?;
        Ok(self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_typical_setup() {
        let c = PbgConfig::default();
        assert_eq!(c.dim, 100);
        assert_eq!(c.batch_size, 1000);
        assert_eq!(c.chunk_size, 50);
        assert_eq!(c.uniform_negatives, 50);
        assert_eq!(c.loss, LossKind::MarginRanking);
        assert_eq!(c.negative_mode, NegativeMode::Batched);
        assert!(c.validate().is_ok());
        // per side: 50 chunk + 50 uniform = 100 candidates -> ~2*50*100
        // scores per chunk of 50, i.e. the paper's "9900 negatives"
        assert_eq!(c.negatives_per_positive(), 100);
    }

    #[test]
    fn builder_sets_fields() {
        let c = PbgConfig::builder()
            .dim(16)
            .learning_rate(0.05)
            .loss(LossKind::Softmax)
            .epochs(3)
            .build()
            .unwrap();
        assert_eq!(c.dim, 16);
        assert_eq!(c.loss, LossKind::Softmax);
    }

    #[test]
    fn invalid_configs_rejected() {
        assert!(PbgConfig::builder().dim(0).build().is_err());
        assert!(PbgConfig::builder().learning_rate(-1.0).build().is_err());
        assert!(PbgConfig::builder().margin(f32::NAN).build().is_err());
        assert!(PbgConfig::builder()
            .batch_size(10)
            .chunk_size(20)
            .build()
            .is_err());
        assert!(PbgConfig::builder().chunk_size(0).build().is_err());
        assert!(PbgConfig::builder().batch_size(0).build().is_err());
        assert!(PbgConfig::builder().epochs(0).build().is_err());
        assert!(PbgConfig::builder().threads(0).build().is_err());
        assert!(PbgConfig::builder()
            .negative_mode(NegativeMode::Unbatched)
            .uniform_negatives(0)
            .build()
            .is_err());
    }

    #[test]
    fn json_roundtrip() {
        let c = PbgConfig::builder().dim(32).seed(7).build().unwrap();
        let back = PbgConfig::from_json(&c.to_json()).unwrap();
        assert_eq!(c, back);
    }

    #[test]
    fn config_json_without_checkpoint_interval_still_loads() {
        // configs saved before the field existed must keep parsing
        let mut v: serde_json::Value =
            serde_json::from_str(&PbgConfig::default().to_json()).unwrap();
        if let serde_json::Value::Map(fields) = &mut v {
            fields.retain(|(k, _)| k != "checkpoint_interval_buckets");
        }
        let c = PbgConfig::from_json(&serde_json::to_string(&v).unwrap()).unwrap();
        assert_eq!(c.checkpoint_interval_buckets, 0);
    }

    #[test]
    fn config_json_without_buffer_size_still_loads() {
        // configs saved before the field existed must keep parsing
        let mut v: serde_json::Value =
            serde_json::from_str(&PbgConfig::default().to_json()).unwrap();
        if let serde_json::Value::Map(fields) = &mut v {
            fields.retain(|(k, _)| k != "buffer_size");
        }
        let c = PbgConfig::from_json(&serde_json::to_string(&v).unwrap()).unwrap();
        assert_eq!(c.buffer_size, 2);
    }

    #[test]
    fn config_json_without_precision_still_loads() {
        // configs saved before the field existed must keep parsing
        let mut v: serde_json::Value =
            serde_json::from_str(&PbgConfig::default().to_json()).unwrap();
        if let serde_json::Value::Map(fields) = &mut v {
            fields.retain(|(k, _)| k != "precision");
        }
        let c = PbgConfig::from_json(&serde_json::to_string(&v).unwrap()).unwrap();
        assert_eq!(c.precision, pbg_tensor::Precision::F32);
    }

    #[test]
    fn precision_roundtrips_through_json() {
        for p in [
            pbg_tensor::Precision::F32,
            pbg_tensor::Precision::F16,
            pbg_tensor::Precision::Int8,
        ] {
            let c = PbgConfig::builder().precision(p).build().unwrap();
            let back = PbgConfig::from_json(&c.to_json()).unwrap();
            assert_eq!(back.precision, p);
        }
    }

    #[test]
    fn undersized_buffer_rejected() {
        assert!(PbgConfig::builder().buffer_size(1).build().is_err());
        assert!(PbgConfig::builder().buffer_size(0).build().is_err());
        assert!(PbgConfig::builder().buffer_size(4).build().is_ok());
    }

    #[test]
    fn bad_json_rejected() {
        assert!(PbgConfig::from_json("{").is_err());
        // valid JSON but invalid config
        let c = PbgConfig {
            dim: 0,
            ..Default::default()
        };
        let json = serde_json::to_string(&c).unwrap();
        assert!(PbgConfig::from_json(&json).is_err());
    }
}
