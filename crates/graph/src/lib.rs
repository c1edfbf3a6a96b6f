//! Graph substrate for `pbg-rs`, a Rust reproduction of PyTorch-BigGraph.
//!
//! PBG's input is a *multi-entity, multi-relation* graph: a set of entity
//! types (each with its own node count and optional partitioning), a set of
//! relation types (each naming its source/destination entity type, a
//! relation operator, and an edge weight), and a list of positive edges.
//! This crate provides those structures plus the partitioning machinery at
//! the heart of the system (§4.1 of the paper):
//!
//! - [`ids`]: newtype identifiers ([`ids::EntityId`], [`ids::Partition`], …).
//! - [`schema`]: [`schema::GraphSchema`] — entity types, relation types,
//!   per-relation operator and weight configuration.
//! - [`edges`]: [`edges::EdgeList`] — a struct-of-arrays edge store.
//! - [`partition`]: [`partition::EntityPartitioning`] — the
//!   global-id ↔ (partition, offset) mapping.
//! - [`bucket`]: grouping edges into `P²` (or `P`) buckets by the
//!   partitions of their endpoints.
//! - [`ordering`]: bucket iteration orders (inside-out, row-major, random,
//!   chained, Hilbert, greedy reuse) with the "at least one
//!   previously-trained partition" invariant checker and load counting.
//! - [`buffer`]: [`buffer::PartitionBuffer`] — the capacity-`B` LRU
//!   residency model every load count and plan replays.
//! - [`split`]: train/validation/test edge splits.
//! - [`io`]: binary and TSV edge-list serialization.
//! - [`snap`]: SNAP edge-list import (the paper's LiveJournal/Twitter
//!   distribution format) with id densification.
//!
//! # Example
//!
//! ```
//! use pbg_graph::schema::{EntityTypeDef, GraphSchema, OperatorKind, RelationTypeDef};
//!
//! let schema = GraphSchema::builder()
//!     .entity_type(EntityTypeDef::new("user", 1000).with_partitions(4))
//!     .relation_type(RelationTypeDef::new("follows", 0u32, 0u32))
//!     .build()?;
//! assert_eq!(schema.entity_type(0u32.into()).num_partitions(), 4);
//! assert_eq!(schema.relation_type(0u32.into()).operator(), OperatorKind::Identity);
//! # Ok::<(), pbg_graph::schema::SchemaError>(())
//! ```

pub mod bucket;
pub mod buffer;
pub mod edges;
pub mod ids;
pub mod io;
pub mod ordering;
pub mod partition;
pub mod schema;
pub mod snap;
pub mod split;

pub use bucket::{BucketId, Buckets};
pub use edges::{Edge, EdgeList};
pub use ids::{EntityId, EntityTypeId, Partition, RelationTypeId};
pub use ordering::BucketOrdering;
pub use partition::EntityPartitioning;
pub use schema::{EntityTypeDef, GraphSchema, OperatorKind, RelationTypeDef};
