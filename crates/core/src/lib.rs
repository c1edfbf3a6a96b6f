//! `pbg-core` — the PyTorch-BigGraph system, reimplemented in Rust.
//!
//! PBG (Lerer et al., SysML 2019) trains embeddings of multi-entity,
//! multi-relation graphs with billions of nodes by (1) partitioning
//! entities and bucketing edges so only two embedding partitions are ever
//! resident, (2) reusing a chunk's own nodes as data-distributed negatives
//! so negative scoring becomes a batched matrix product, and (3) training
//! each bucket HOGWILD-style with per-row Adagrad.
//!
//! # Quickstart
//!
//! ```
//! use pbg_core::config::PbgConfig;
//! use pbg_core::eval::{CandidateSampling, LinkPredictionEval};
//! use pbg_core::trainer::Trainer;
//! use pbg_graph::edges::{Edge, EdgeList};
//! use pbg_graph::schema::GraphSchema;
//! use pbg_graph::split::EdgeSplit;
//!
//! # fn main() -> Result<(), pbg_core::error::PbgError> {
//! // a ring graph over 64 nodes, 2 partitions
//! let edges: EdgeList = (0..64u32).map(|i| Edge::new(i, 0u32, (i + 1) % 64)).collect();
//! let split = EdgeSplit::new(&edges, 0.0, 0.2, 7);
//! let schema = GraphSchema::homogeneous(64, 2)?;
//! let config = PbgConfig::builder()
//!     .dim(16)
//!     .epochs(2)
//!     .batch_size(32)
//!     .chunk_size(8)
//!     .threads(2)
//!     .build()?;
//! let mut trainer = Trainer::new(schema, &split.train, config)?;
//! trainer.train();
//! let model = trainer.snapshot();
//! let metrics = LinkPredictionEval {
//!     num_candidates: 20,
//!     sampling: CandidateSampling::Uniform,
//!     ..Default::default()
//! }
//! .evaluate(&model, &split.test, &split.train, &[]);
//! assert!(metrics.mrr > 0.0);
//! # Ok(())
//! # }
//! ```
//!
//! # Module map
//!
//! | paper section | module |
//! |---|---|
//! | §3.1 models & losses | [`operator`], [`similarity`], [`loss`] |
//! | §3.1 Adagrad | [`optimizer`] + `pbg_tensor::adagrad` |
//! | §4.1 partitioning | [`storage`], `pbg_graph::{partition, bucket, ordering}` |
//! | §4.3 batched negatives | [`negatives`], [`batch`], [`trainer::step`] |
//! | §4.1/4.2 training | [`trainer`] |
//! | §5 evaluation | [`eval`] |
//! | trained-model queries (score, top-k, neighbors) | [`model`] |
//! | Figure 2 checkpoints | [`checkpoint`], [`shard`] |

pub mod batch;
pub mod buffer;
pub mod checkpoint;
pub mod config;
pub mod error;
pub mod eval;
pub mod loss;
pub mod model;
pub mod negatives;
pub mod operator;
pub mod optimizer;
pub mod shard;
pub mod similarity;
pub mod stats;
pub mod storage;
pub mod trainer;

pub use buffer::{BufferTransition, PartitionBuffer};
pub use config::{LossKind, NegativeMode, PbgConfig, SimilarityKind};
pub use error::PbgError;
pub use eval::{CandidateSampling, LinkPredictionEval};
pub use model::{Embeddings, Model, TrainedEmbeddings};
pub use stats::{BucketStats, EpochStats, MemoryTracker};
pub use storage::{DiskStore, InMemoryStore, PartitionStore};
pub use trainer::{CheckpointPolicy, Storage, Trainer};
