//! Multi-entity, multi-relation graph schemas.
//!
//! A [`GraphSchema`] declares the entity types and relation types of a
//! graph, matching PBG's config: each entity type is either partitioned
//! into `P` parts or unpartitioned; each relation type names its source and
//! destination entity types, a relation operator (§3.1), and an edge weight
//! used to scale its loss.

use crate::ids::{EntityTypeId, RelationTypeId};
use serde::{Deserialize, Serialize};
use std::fmt;

/// The relation operator `g(x, θ_r)` applied to entity embeddings before
/// similarity (table in §3.1 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum OperatorKind {
    /// `g(x) = x` — untransformed embeddings predict edges directly.
    #[default]
    Identity,
    /// `g(x) = x + θ_r` — TransE (Bordes et al., 2013).
    Translation,
    /// `g(x) = x ⊙ θ_r` — DistMult (Yang et al., 2014).
    Diagonal,
    /// `g(x) = A_r x` — RESCAL (Nickel et al., 2011); `θ_r` is a `d × d`
    /// matrix applied as one matmul per relation-grouped batch.
    Linear,
    /// Complex Hadamard `g(x) = x ⊙ θ_r` over interleaved `[re, im]`
    /// layout — ComplEx (Trouillon et al., 2016).
    ComplexDiagonal,
}

impl OperatorKind {
    /// Number of operator parameters for embedding dimension `dim`.
    pub fn param_count(self, dim: usize) -> usize {
        match self {
            OperatorKind::Identity => 0,
            OperatorKind::Translation | OperatorKind::Diagonal | OperatorKind::ComplexDiagonal => {
                dim
            }
            OperatorKind::Linear => dim * dim,
        }
    }
}

impl fmt::Display for OperatorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            OperatorKind::Identity => "identity",
            OperatorKind::Translation => "translation",
            OperatorKind::Diagonal => "diagonal",
            OperatorKind::Linear => "linear",
            OperatorKind::ComplexDiagonal => "complex_diagonal",
        };
        f.write_str(name)
    }
}

/// Declaration of one entity type.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EntityTypeDef {
    name: String,
    num_entities: u32,
    num_partitions: u32,
}

impl EntityTypeDef {
    /// Creates an unpartitioned entity type with `num_entities` nodes.
    pub fn new(name: impl Into<String>, num_entities: u32) -> Self {
        EntityTypeDef {
            name: name.into(),
            num_entities,
            num_partitions: 1,
        }
    }

    /// Splits this entity type into `p` partitions.
    pub fn with_partitions(mut self, p: u32) -> Self {
        self.num_partitions = p;
        self
    }

    /// The entity type's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Total entity count.
    pub fn num_entities(&self) -> u32 {
        self.num_entities
    }

    /// Number of partitions (1 = unpartitioned).
    pub fn num_partitions(&self) -> u32 {
        self.num_partitions
    }

    /// `true` if this type is partitioned into more than one part.
    pub fn is_partitioned(&self) -> bool {
        self.num_partitions > 1
    }
}

/// Declaration of one relation type.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RelationTypeDef {
    name: String,
    source_type: EntityTypeId,
    dest_type: EntityTypeId,
    operator: OperatorKind,
    weight: f32,
}

impl RelationTypeDef {
    /// Creates a relation from entity type `source_type` to `dest_type`
    /// with the identity operator and weight 1.0.
    pub fn new(
        name: impl Into<String>,
        source_type: impl Into<EntityTypeId>,
        dest_type: impl Into<EntityTypeId>,
    ) -> Self {
        RelationTypeDef {
            name: name.into(),
            source_type: source_type.into(),
            dest_type: dest_type.into(),
            operator: OperatorKind::Identity,
            weight: 1.0,
        }
    }

    /// Sets the relation operator.
    pub fn with_operator(mut self, op: OperatorKind) -> Self {
        self.operator = op;
        self
    }

    /// Sets the per-relation edge weight (loss scale).
    pub fn with_weight(mut self, weight: f32) -> Self {
        self.weight = weight;
        self
    }

    /// The relation's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Entity type of source nodes.
    pub fn source_type(&self) -> EntityTypeId {
        self.source_type
    }

    /// Entity type of destination nodes.
    pub fn dest_type(&self) -> EntityTypeId {
        self.dest_type
    }

    /// The configured relation operator.
    pub fn operator(&self) -> OperatorKind {
        self.operator
    }

    /// The per-relation edge weight.
    pub fn weight(&self) -> f32 {
        self.weight
    }
}

/// Errors produced by [`GraphSchema`] validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchemaError {
    /// No entity types declared.
    NoEntityTypes,
    /// No relation types declared.
    NoRelationTypes,
    /// A relation references an entity type index that does not exist.
    UnknownEntityType {
        /// The offending relation.
        relation: String,
        /// The missing entity-type index.
        entity_type: EntityTypeId,
    },
    /// An entity type has zero partitions.
    ZeroPartitions(String),
    /// Partitioned entity types disagree on partition count. PBG requires
    /// one global `P` so buckets line up across types.
    PartitionCountMismatch {
        /// First partitioned type seen.
        first: String,
        /// Conflicting type.
        second: String,
    },
    /// A relation weight is not finite and positive.
    BadWeight(String),
}

impl fmt::Display for SchemaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchemaError::NoEntityTypes => write!(f, "schema declares no entity types"),
            SchemaError::NoRelationTypes => write!(f, "schema declares no relation types"),
            SchemaError::UnknownEntityType {
                relation,
                entity_type,
            } => write!(
                f,
                "relation `{relation}` references unknown entity type {entity_type}"
            ),
            SchemaError::ZeroPartitions(name) => {
                write!(f, "entity type `{name}` has zero partitions")
            }
            SchemaError::PartitionCountMismatch { first, second } => write!(
                f,
                "partitioned entity types `{first}` and `{second}` disagree on partition count"
            ),
            SchemaError::BadWeight(name) => {
                write!(
                    f,
                    "relation `{name}` has a non-positive or non-finite weight"
                )
            }
        }
    }
}

impl std::error::Error for SchemaError {}

/// A validated multi-entity, multi-relation graph schema.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GraphSchema {
    entity_types: Vec<EntityTypeDef>,
    relation_types: Vec<RelationTypeDef>,
}

impl GraphSchema {
    /// Starts building a schema.
    pub fn builder() -> GraphSchemaBuilder {
        GraphSchemaBuilder::default()
    }

    /// Convenience: a single-entity-type, single-relation schema — the
    /// shape of the paper's social-network experiments (§5.2, §5.5).
    ///
    /// # Errors
    ///
    /// Returns an error if `num_entities` or `num_partitions` is zero.
    pub fn homogeneous(num_entities: u32, num_partitions: u32) -> Result<Self, SchemaError> {
        GraphSchema::builder()
            .entity_type(EntityTypeDef::new("node", num_entities).with_partitions(num_partitions))
            .relation_type(RelationTypeDef::new("edge", 0u32, 0u32))
            .build()
    }

    /// All entity types.
    pub fn entity_types(&self) -> &[EntityTypeDef] {
        &self.entity_types
    }

    /// All relation types.
    pub fn relation_types(&self) -> &[RelationTypeDef] {
        &self.relation_types
    }

    /// The entity type with index `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn entity_type(&self, id: EntityTypeId) -> &EntityTypeDef {
        &self.entity_types[id.index()]
    }

    /// The relation type with index `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn relation_type(&self, id: RelationTypeId) -> &RelationTypeDef {
        &self.relation_types[id.index()]
    }

    /// Number of entity types.
    pub fn num_entity_types(&self) -> usize {
        self.entity_types.len()
    }

    /// Number of relation types.
    pub fn num_relation_types(&self) -> usize {
        self.relation_types.len()
    }

    /// The shared partition count `P` across partitioned entity types
    /// (1 when nothing is partitioned).
    pub fn num_partitions(&self) -> u32 {
        self.entity_types
            .iter()
            .map(|t| t.num_partitions)
            .max()
            .unwrap_or(1)
    }

    /// `true` when all entity types used as edge *destinations* are
    /// unpartitioned — in that case edges bucket only by source partition
    /// and there are `P` buckets instead of `P²` (Figure 1, center).
    pub fn tail_unpartitioned(&self) -> bool {
        self.relation_types
            .iter()
            .all(|r| !self.entity_type(r.dest_type).is_partitioned())
    }

    /// Total number of entities across all types.
    pub fn total_entities(&self) -> u64 {
        self.entity_types
            .iter()
            .map(|t| t.num_entities as u64)
            .sum()
    }
}

/// Builder for [`GraphSchema`].
#[derive(Debug, Default)]
pub struct GraphSchemaBuilder {
    entity_types: Vec<EntityTypeDef>,
    relation_types: Vec<RelationTypeDef>,
}

impl GraphSchemaBuilder {
    /// Adds an entity type; its index is its insertion order.
    pub fn entity_type(mut self, def: EntityTypeDef) -> Self {
        self.entity_types.push(def);
        self
    }

    /// Adds a relation type; its index is its insertion order.
    pub fn relation_type(mut self, def: RelationTypeDef) -> Self {
        self.relation_types.push(def);
        self
    }

    /// Validates and produces the schema.
    ///
    /// # Errors
    ///
    /// Returns a [`SchemaError`] describing the first validation failure:
    /// missing entity/relation types, dangling entity-type references,
    /// zero or mismatched partition counts, or bad relation weights.
    pub fn build(self) -> Result<GraphSchema, SchemaError> {
        if self.entity_types.is_empty() {
            return Err(SchemaError::NoEntityTypes);
        }
        if self.relation_types.is_empty() {
            return Err(SchemaError::NoRelationTypes);
        }
        let mut first_partitioned: Option<&EntityTypeDef> = None;
        for t in &self.entity_types {
            if t.num_partitions == 0 {
                return Err(SchemaError::ZeroPartitions(t.name.clone()));
            }
            if t.is_partitioned() {
                match first_partitioned {
                    None => first_partitioned = Some(t),
                    Some(first) if first.num_partitions != t.num_partitions => {
                        return Err(SchemaError::PartitionCountMismatch {
                            first: first.name.clone(),
                            second: t.name.clone(),
                        });
                    }
                    Some(_) => {}
                }
            }
        }
        for r in &self.relation_types {
            for et in [r.source_type, r.dest_type] {
                if et.index() >= self.entity_types.len() {
                    return Err(SchemaError::UnknownEntityType {
                        relation: r.name.clone(),
                        entity_type: et,
                    });
                }
            }
            if !r.weight.is_finite() || r.weight <= 0.0 {
                return Err(SchemaError::BadWeight(r.name.clone()));
            }
        }
        Ok(GraphSchema {
            entity_types: self.entity_types,
            relation_types: self.relation_types,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn homogeneous_schema_builds() {
        let s = GraphSchema::homogeneous(100, 4).unwrap();
        assert_eq!(s.num_entity_types(), 1);
        assert_eq!(s.num_relation_types(), 1);
        assert_eq!(s.num_partitions(), 4);
        assert!(!s.tail_unpartitioned());
        assert_eq!(s.total_entities(), 100);
    }

    #[test]
    fn multi_entity_schema() {
        let s = GraphSchema::builder()
            .entity_type(EntityTypeDef::new("user", 1_000_000).with_partitions(8))
            .entity_type(EntityTypeDef::new("product", 1_000))
            .relation_type(
                RelationTypeDef::new("bought", 0u32, 1u32)
                    .with_operator(OperatorKind::Translation)
                    .with_weight(2.0),
            )
            .build()
            .unwrap();
        assert!(s.tail_unpartitioned(), "product side is unpartitioned");
        let r = s.relation_type(RelationTypeId(0));
        assert_eq!(r.operator(), OperatorKind::Translation);
        assert_eq!(r.weight(), 2.0);
    }

    #[test]
    fn unknown_entity_type_rejected() {
        let err = GraphSchema::builder()
            .entity_type(EntityTypeDef::new("user", 10))
            .relation_type(RelationTypeDef::new("r", 0u32, 5u32))
            .build()
            .unwrap_err();
        assert!(matches!(err, SchemaError::UnknownEntityType { .. }));
    }

    #[test]
    fn partition_mismatch_rejected() {
        let err = GraphSchema::builder()
            .entity_type(EntityTypeDef::new("a", 10).with_partitions(2))
            .entity_type(EntityTypeDef::new("b", 10).with_partitions(4))
            .relation_type(RelationTypeDef::new("r", 0u32, 1u32))
            .build()
            .unwrap_err();
        assert!(matches!(err, SchemaError::PartitionCountMismatch { .. }));
    }

    #[test]
    fn bad_weight_rejected() {
        let err = GraphSchema::builder()
            .entity_type(EntityTypeDef::new("a", 10))
            .relation_type(RelationTypeDef::new("r", 0u32, 0u32).with_weight(0.0))
            .build()
            .unwrap_err();
        assert_eq!(err, SchemaError::BadWeight("r".to_string()));
    }

    #[test]
    fn empty_schema_rejected() {
        assert_eq!(
            GraphSchema::builder().build().unwrap_err(),
            SchemaError::NoEntityTypes
        );
    }

    #[test]
    fn operator_param_counts() {
        assert_eq!(OperatorKind::Identity.param_count(100), 0);
        assert_eq!(OperatorKind::Translation.param_count(100), 100);
        assert_eq!(OperatorKind::Diagonal.param_count(100), 100);
        assert_eq!(OperatorKind::ComplexDiagonal.param_count(100), 100);
        assert_eq!(OperatorKind::Linear.param_count(100), 10_000);
    }

    #[test]
    fn serde_roundtrip() {
        let s = GraphSchema::homogeneous(10, 2).unwrap();
        let json = serde_json::to_string(&s).unwrap();
        let back: GraphSchema = serde_json::from_str(&json).unwrap();
        assert_eq!(s, back);
    }

    #[test]
    fn schema_with_retired_featurized_flag_still_loads() {
        // a checkpoint's schema.json from before featurized types were
        // removed carries `"featurized": false` on every entity type
        let old = r#"{
  "entity_types": [
    {
      "name": "node",
      "num_entities": 10,
      "num_partitions": 2,
      "featurized": false
    }
  ],
  "relation_types": [
    {
      "name": "edge",
      "source_type": 0,
      "dest_type": 0,
      "operator": "Identity",
      "weight": 1.0
    }
  ]
}"#;
        let back: GraphSchema = serde_json::from_str(old).unwrap();
        assert_eq!(back, GraphSchema::homogeneous(10, 2).unwrap());
    }
}
