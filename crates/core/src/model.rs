//! The multi-relation embedding model: relation parameters and trained
//! snapshots.
//!
//! A model pairs the schema's relation types with live, shared operator
//! parameters ([`RelationParams`]) updated HOGWILD-style, and optional
//! *reciprocal* parameters used when ranking corrupted sources (§5.4.1's
//! "separate relation embeddings for source negatives and destination
//! negatives"). Entity embeddings live in a
//! [`crate::storage::PartitionStore`], not here — that separation is what
//! lets the same model run in-memory, disk-swapped, or distributed.

use crate::config::{PbgConfig, SimilarityKind};
use crate::error::{PbgError, Result};
use crate::operator::{self, RowOperator};
use crate::optimizer::HogwildAdagradDense;
use crate::storage::{PartitionStore, StoreLayout};
use pbg_graph::ids::RelationTypeId;
use pbg_graph::schema::{GraphSchema, OperatorKind};
use pbg_tensor::kernels::{self, DenseRows, GatherRows};
use pbg_tensor::matrix::Matrix;
use pbg_tensor::vecmath;

/// Live (shared, lock-free) parameters of one relation type.
#[derive(Debug)]
pub struct RelationParams {
    op: OperatorKind,
    weight: f32,
    /// Operator parameters applied to the source embedding.
    pub forward: HogwildAdagradDense,
    /// Reciprocal parameters (applied to the destination embedding when
    /// ranking corrupted sources); `None` unless
    /// [`PbgConfig::reciprocal_relations`] is set.
    pub reciprocal: Option<HogwildAdagradDense>,
}

impl RelationParams {
    /// The relation operator.
    pub fn op(&self) -> OperatorKind {
        self.op
    }

    /// The per-relation edge weight.
    pub fn weight(&self) -> f32 {
        self.weight
    }
}

/// A multi-relation embedding model (relation side only; see module docs).
#[derive(Debug)]
pub struct Model {
    config: PbgConfig,
    schema: GraphSchema,
    relations: Vec<RelationParams>,
}

impl Model {
    /// Builds a model, validating config/schema compatibility.
    ///
    /// # Errors
    ///
    /// Returns [`PbgError::Config`] when a relation uses the complex
    /// operator with an odd embedding dimension, or when the config
    /// itself is invalid.
    pub fn new(schema: GraphSchema, config: PbgConfig) -> Result<Self> {
        config.validate()?;
        for r in schema.relation_types() {
            if r.operator() == OperatorKind::ComplexDiagonal && !config.dim.is_multiple_of(2) {
                return Err(PbgError::Config(format!(
                    "relation `{}` uses the complex operator; dim must be even, got {}",
                    r.name(),
                    config.dim
                )));
            }
        }
        let relations = schema
            .relation_types()
            .iter()
            .map(|r| {
                let init = operator::init_params(r.operator(), config.dim);
                RelationParams {
                    op: r.operator(),
                    weight: r.weight(),
                    forward: HogwildAdagradDense::new(init.clone(), config.learning_rate),
                    reciprocal: config
                        .reciprocal_relations
                        .then(|| HogwildAdagradDense::new(init, config.learning_rate)),
                }
            })
            .collect();
        Ok(Model {
            config,
            schema,
            relations,
        })
    }

    /// The training configuration.
    pub fn config(&self) -> &PbgConfig {
        &self.config
    }

    /// The graph schema.
    pub fn schema(&self) -> &GraphSchema {
        &self.schema
    }

    /// Live parameters of relation `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    pub fn relation(&self, r: RelationTypeId) -> &RelationParams {
        &self.relations[r.index()]
    }

    /// Number of relation types.
    pub fn num_relations(&self) -> usize {
        self.relations.len()
    }

    /// Total bytes of relation parameters + their optimizer state.
    pub fn relation_bytes(&self) -> usize {
        self.relations
            .iter()
            .map(|r| r.forward.bytes() + r.reciprocal.as_ref().map_or(0, |p| p.bytes()))
            .sum()
    }

    /// The storage layout implied by this model's schema and config,
    /// including the configured swap precision.
    pub fn store_layout(&self) -> StoreLayout {
        StoreLayout::from_schema(
            &self.schema,
            self.config.dim,
            self.config.learning_rate,
            self.config.init_scale,
            self.config.seed,
        )
        .with_precision(self.config.precision)
    }

    /// Snapshots the full model (entity embeddings gathered from `store`
    /// into dense per-type matrices, plus relation parameters) for
    /// evaluation or checkpointing.
    ///
    /// Partitions are streamed one at a time (load, copy, release) so a
    /// disk-swapped or remote store's peak-memory accounting reflects
    /// training, not the snapshot.
    pub fn snapshot(&self, store: &dyn PartitionStore) -> TrainedEmbeddings {
        let dim = self.config.dim;
        let mut embeddings = Vec::new();
        for (t, def) in self.schema.entity_types().iter().enumerate() {
            let partitioning = pbg_graph::partition::EntityPartitioning::new(
                def.num_entities(),
                def.num_partitions(),
            );
            let mut m = Matrix::zeros(def.num_entities() as usize, dim);
            for p in partitioning.partitions() {
                let key = crate::storage::PartitionKey::new(t as u32, p);
                let data = store.load(key);
                let size = partitioning.partition_size(p);
                let mut buf = vec![0.0f32; dim];
                for off in 0..size {
                    data.embeddings.read_row_into(off as usize, &mut buf);
                    let global = partitioning.global_of(p, off);
                    m.row_mut(global.index()).copy_from_slice(&buf);
                }
                drop(data);
                store.release(key);
            }
            embeddings.push(m);
        }
        let relations = self
            .relations
            .iter()
            .map(|r| RelationSnapshot {
                op: r.op,
                weight: r.weight,
                forward: r.forward.snapshot(),
                reciprocal: r.reciprocal.as_ref().map(|p| p.snapshot()),
            })
            .collect();
        TrainedEmbeddings {
            dim,
            similarity: self.config.similarity,
            schema: self.schema.clone(),
            embeddings,
            relations,
        }
    }

    /// Restores a trained snapshot into this model and `store` — the
    /// inverse of [`Model::snapshot`], used by checkpoint resume. Entity
    /// embeddings are scattered back to their partitions one at a time
    /// (load, overwrite, release); relation parameters overwrite the live
    /// values. Adagrad accumulators are not part of the snapshot format
    /// and keep whatever values they currently have.
    ///
    /// # Errors
    ///
    /// Returns [`PbgError::Checkpoint`] when the snapshot's schema or
    /// shapes disagree with this model.
    pub fn restore(&self, snap: &TrainedEmbeddings, store: &dyn PartitionStore) -> Result<()> {
        if snap.schema != self.schema {
            return Err(PbgError::Checkpoint(
                "checkpoint schema does not match the model schema".into(),
            ));
        }
        if snap.dim != self.config.dim {
            return Err(PbgError::Checkpoint(format!(
                "checkpoint dim {} != config dim {}",
                snap.dim, self.config.dim
            )));
        }
        if snap.relations.len() != self.relations.len() {
            return Err(PbgError::Checkpoint(format!(
                "checkpoint has {} relations, model has {}",
                snap.relations.len(),
                self.relations.len()
            )));
        }
        for (t, def) in self.schema.entity_types().iter().enumerate() {
            let m = &snap.embeddings[t];
            if m.rows() != def.num_entities() as usize || m.cols() != snap.dim {
                return Err(PbgError::Checkpoint(format!(
                    "checkpoint embeddings for type {t} are {}x{}, expected {}x{}",
                    m.rows(),
                    m.cols(),
                    def.num_entities(),
                    snap.dim
                )));
            }
            let partitioning = pbg_graph::partition::EntityPartitioning::new(
                def.num_entities(),
                def.num_partitions(),
            );
            for p in partitioning.partitions() {
                let key = crate::storage::PartitionKey::new(t as u32, p);
                let data = store.load(key);
                for off in 0..partitioning.partition_size(p) {
                    let global = partitioning.global_of(p, off);
                    data.embeddings
                        .write_row(off as usize, m.row(global.index()));
                }
                drop(data);
                store.mark_dirty(key);
                store.release(key);
            }
        }
        for (r, rs) in self.relations.iter().zip(&snap.relations) {
            if rs.forward.len() != r.forward.len() {
                return Err(PbgError::Checkpoint(
                    "relation parameter length mismatch".into(),
                ));
            }
            r.forward
                .restore(&rs.forward, &r.forward.accumulator_snapshot());
            match (&r.reciprocal, &rs.reciprocal) {
                (Some(live), Some(saved)) => {
                    if saved.len() != live.len() {
                        return Err(PbgError::Checkpoint(
                            "reciprocal parameter length mismatch".into(),
                        ));
                    }
                    live.restore(saved, &live.accumulator_snapshot());
                }
                (None, None) => {}
                _ => {
                    return Err(PbgError::Checkpoint(
                        "reciprocal parameter presence mismatch".into(),
                    ));
                }
            }
        }
        Ok(())
    }
}

/// Immutable snapshot of one relation's parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct RelationSnapshot {
    /// Operator kind.
    pub op: OperatorKind,
    /// Edge weight.
    pub weight: f32,
    /// Forward operator parameters.
    pub forward: Vec<f32>,
    /// Reciprocal parameters, when trained.
    pub reciprocal: Option<Vec<f32>>,
}

/// A fully materialized trained model: dense embeddings per entity type
/// plus relation parameters. This is what evaluation and downstream tasks
/// consume.
#[derive(Debug, Clone)]
pub struct TrainedEmbeddings {
    /// Embedding dimension.
    pub dim: usize,
    /// Similarity the model was trained with (used for scoring).
    pub similarity: SimilarityKind,
    /// The schema.
    pub schema: GraphSchema,
    /// One `num_entities × dim` matrix per entity type, global-id indexed.
    pub embeddings: Vec<Matrix>,
    /// Relation parameter snapshots.
    pub relations: Vec<RelationSnapshot>,
}

impl TrainedEmbeddings {
    /// The embedding of entity `id` of type `entity_type`.
    ///
    /// # Panics
    ///
    /// Panics if indices are out of range.
    pub fn embedding(&self, entity_type: usize, id: u32) -> &[f32] {
        self.embeddings[entity_type].row(id as usize)
    }

    /// Scores the edge `(src, rel, dst)`: `sim(g(θ_src, θ_rel), θ_dst)`
    /// through the same gathered path as every batched score, so it is
    /// bit-identical to [`MmapEmbeddings::score`] and to an eval rank.
    ///
    /// # Panics
    ///
    /// Panics if indices are out of range.
    pub fn score(&self, src: u32, rel: RelationTypeId, dst: u32) -> f32 {
        self.score_against_destinations(src, rel, &[dst])[0]
    }

    /// Rows of entity type `t` as a gather source.
    fn rows(&self, t: usize) -> DenseRows<'_> {
        DenseRows::new(self.embeddings[t].as_slice(), self.dim, self.dim)
    }

    /// Scores one source against many destination candidates (the
    /// evaluation hot path).
    ///
    /// # Panics
    ///
    /// Panics if indices are out of range.
    pub fn score_against_destinations(
        &self,
        src: u32,
        rel: RelationTypeId,
        dst_candidates: &[u32],
    ) -> Vec<f32> {
        let r = &self.relations[rel.index()];
        let rdef = self.schema.relation_type(rel);
        let query = transformed(
            r.op,
            &r.forward,
            self.embedding(rdef.source_type().index(), src),
        );
        let rows = self.rows(rdef.dest_type().index());
        gathered_scores(self.similarity, query, &rows, dst_candidates, None)
    }

    /// Scores entity `entity` of type `entity_type` against candidates of
    /// the same type by the model's similarity alone (no relation
    /// operator) — what nearest-neighbor queries rank by.
    ///
    /// # Panics
    ///
    /// Panics if indices are out of range.
    pub(crate) fn score_against_entities(
        &self,
        entity_type: usize,
        entity: u32,
        candidates: &[u32],
    ) -> Vec<f32> {
        let query = self.embedding(entity_type, entity).to_vec();
        let rows = self.rows(entity_type);
        gathered_scores(self.similarity, query, &rows, candidates, None)
    }

    /// Scores one destination against many source candidates. Uses the
    /// reciprocal parameters when present (matching training), otherwise
    /// transforms every candidate source as it is staged.
    ///
    /// # Panics
    ///
    /// Panics if indices are out of range.
    pub fn score_against_sources(
        &self,
        dst: u32,
        rel: RelationTypeId,
        src_candidates: &[u32],
    ) -> Vec<f32> {
        let r = &self.relations[rel.index()];
        let rdef = self.schema.relation_type(rel);
        let dst_row = self.embedding(rdef.dest_type().index(), dst);
        let rows = self.rows(rdef.source_type().index());
        match &r.reciprocal {
            Some(recip) => {
                let query = transformed(r.op, recip, dst_row);
                gathered_scores(self.similarity, query, &rows, src_candidates, None)
            }
            None => {
                let op = RowOperator::new(r.op, &r.forward, self.dim);
                gathered_scores(
                    self.similarity,
                    dst_row.to_vec(),
                    &rows,
                    src_candidates,
                    Some(op),
                )
            }
        }
    }

    /// Total bytes of the dense snapshot.
    pub fn bytes(&self) -> usize {
        let emb: usize = self.embeddings.iter().map(|m| m.as_slice().len() * 4).sum();
        let rel: usize = self
            .relations
            .iter()
            .map(|r| (r.forward.len() + r.reciprocal.as_ref().map_or(0, |p| p.len())) * 4)
            .sum();
        emb + rel
    }
}

/// A trained model served straight from a memory-mapped checkpoint:
/// relation parameters and schema on the heap, embedding rows read in
/// place from [`crate::storage::MmapPartition`] shards. The scoring API
/// mirrors [`TrainedEmbeddings`] and routes through the same kernels,
/// so a served score is bit-identical to the offline one.
#[derive(Debug)]
pub struct MmapEmbeddings {
    /// Embedding dimension.
    pub dim: usize,
    /// Similarity the model was trained with.
    pub similarity: SimilarityKind,
    /// The schema.
    pub schema: GraphSchema,
    /// One mapped shard per entity type, global-id indexed.
    pub shards: Vec<crate::storage::MmapPartition>,
    /// Relation parameter snapshots.
    pub relations: Vec<RelationSnapshot>,
}

impl MmapEmbeddings {
    /// The embedding of entity `id` of type `entity_type`: borrowed
    /// zero-copy from the mapping for f32 shards, decoded to an owned
    /// f32 row for quantized shards.
    ///
    /// # Panics
    ///
    /// Panics if indices are out of range.
    pub fn embedding(&self, entity_type: usize, id: u32) -> std::borrow::Cow<'_, [f32]> {
        self.shards[entity_type].row(id as usize)
    }

    /// The operator-transformed query row `g(θ_src, θ_rel)`.
    fn transformed_query(&self, src: u32, rel: RelationTypeId) -> Vec<f32> {
        let r = &self.relations[rel.index()];
        let rdef = self.schema.relation_type(rel);
        let src_row = self.embedding(rdef.source_type().index(), src);
        transformed(r.op, &r.forward, &src_row)
    }

    /// Scores the edge `(src, rel, dst)` through the batched path.
    ///
    /// # Panics
    ///
    /// Panics if indices are out of range.
    pub fn score(&self, src: u32, rel: RelationTypeId, dst: u32) -> f32 {
        self.score_against_destinations(src, rel, &[dst])[0]
    }

    /// Scores one source against the given destination candidates,
    /// fetching only the requested rows (identical float path to
    /// [`TrainedEmbeddings::score_against_destinations`]).
    ///
    /// # Panics
    ///
    /// Panics if indices are out of range.
    pub fn score_against_destinations(
        &self,
        src: u32,
        rel: RelationTypeId,
        dst_candidates: &[u32],
    ) -> Vec<f32> {
        let query = self.transformed_query(src, rel);
        let shard = &self.shards[self.schema.relation_type(rel).dest_type().index()];
        match shard.payload() {
            Ok(payload) => {
                let rows = DenseRows::new(payload, self.dim, self.dim);
                gathered_scores(self.similarity, query, &rows, dst_candidates, None)
            }
            Err(_) => gathered_scores(self.similarity, query, shard, dst_candidates, None),
        }
    }

    /// The `k` best destinations for `(src, rel)` over the *entire*
    /// destination shard, streamed block-by-block through the score-only
    /// top-k kernel — the shard is scored in place, never copied, and
    /// only a k-entry heap is kept. Ties resolve to the lower entity id,
    /// matching the offline argmax.
    ///
    /// # Panics
    ///
    /// Panics if indices are out of range.
    pub fn top_destinations(&self, src: u32, rel: RelationTypeId, k: usize) -> Vec<(u32, f32)> {
        use pbg_tensor::topk;
        let transformed = self.transformed_query(src, rel);
        let shard = &self.shards[self.schema.relation_type(rel).dest_type().index()];
        let mut acc = topk::TopK::new(k);
        let cosine_q = match self.similarity {
            SimilarityKind::Dot => None,
            SimilarityKind::Cosine => {
                let mut q = transformed.clone();
                vecmath::normalize(&mut q);
                Some(q)
            }
        };
        let score_block = |block: &[f32], base: usize, acc: &mut topk::TopK| match &cosine_q {
            None => topk::accumulate_dot(&transformed, block, self.dim, base, acc),
            Some(q) => topk::accumulate_cosine(q, block, self.dim, base, acc),
        };
        if shard.precision() == pbg_tensor::Precision::F32 {
            score_block(shard.payload().expect("f32 shard payload"), 0, &mut acc);
        } else {
            // quantized shard: decode fixed-size row blocks into one
            // scratch buffer and stream them through the same kernel,
            // so only `QUANT_SCAN_ROWS × dim` floats are ever live
            const QUANT_SCAN_ROWS: usize = 256;
            let mut scratch = vec![0.0f32; QUANT_SCAN_ROWS.min(shard.rows().max(1)) * self.dim];
            let mut base = 0;
            while base < shard.rows() {
                let n = QUANT_SCAN_ROWS.min(shard.rows() - base);
                shard.decode_rows_into(base, n, &mut scratch[..n * self.dim]);
                score_block(&scratch[..n * self.dim], base, &mut acc);
                base += n;
            }
        }
        acc.into_sorted()
            .into_iter()
            .map(|s| (s.index as u32, s.score))
            .collect()
    }

    /// Total bytes of mapped shard files (resident only as far as the
    /// page cache decides) — the number `/healthz` reports.
    pub fn mapped_bytes(&self) -> usize {
        self.shards.iter().map(|s| s.mapped_bytes()).sum()
    }
}

/// `g(row, params)` as an owned query vector.
fn transformed(op: OperatorKind, params: &[f32], row: &[f32]) -> Vec<f32> {
    let mut query = row.to_vec();
    RowOperator::new(op, params, row.len()).apply_in_place(&mut query);
    query
}

/// The one scoring path behind both model types: `query` against the
/// candidate rows `ids` of `rows`, gathered through
/// [`kernels::gathered_nt`] with `cand_op` applied to each staged block
/// and, under cosine, both sides normalized — bit-identical to gathering
/// the candidates into a matrix and calling
/// [`crate::similarity::score_matrix`].
fn gathered_scores<R: GatherRows + ?Sized>(
    sim: SimilarityKind,
    mut query: Vec<f32>,
    rows: &R,
    ids: &[u32],
    mut cand_op: Option<RowOperator<'_>>,
) -> Vec<f32> {
    let cosine = sim == SimilarityKind::Cosine;
    if cosine {
        vecmath::normalize(&mut query);
    }
    let dim = query.len().max(1);
    let mut out = vec![0.0f32; ids.len()];
    let stage = |block: &mut [f32]| {
        if let Some(op) = cand_op.as_mut() {
            op.apply_in_place(block);
        }
        if cosine {
            block.chunks_exact_mut(dim).for_each(vecmath::normalize);
        }
    };
    kernels::gathered_nt(&query, rows, ids, stage, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::InMemoryStore;
    use pbg_graph::schema::{EntityTypeDef, RelationTypeDef};

    fn schema(op: OperatorKind) -> GraphSchema {
        GraphSchema::builder()
            .entity_type(EntityTypeDef::new("node", 20).with_partitions(2))
            .relation_type(RelationTypeDef::new("r", 0u32, 0u32).with_operator(op))
            .build()
            .unwrap()
    }

    fn config(dim: usize) -> PbgConfig {
        PbgConfig::builder()
            .dim(dim)
            .batch_size(8)
            .chunk_size(4)
            .build()
            .unwrap()
    }

    #[test]
    fn model_builds_and_exposes_relations() {
        let m = Model::new(schema(OperatorKind::Translation), config(8)).unwrap();
        assert_eq!(m.num_relations(), 1);
        assert_eq!(
            m.relation(RelationTypeId(0)).op(),
            OperatorKind::Translation
        );
        assert_eq!(m.relation(RelationTypeId(0)).forward.len(), 8);
        assert!(m.relation(RelationTypeId(0)).reciprocal.is_none());
    }

    #[test]
    fn complex_odd_dim_rejected() {
        let err = Model::new(schema(OperatorKind::ComplexDiagonal), config(7)).unwrap_err();
        assert!(matches!(err, PbgError::Config(_)));
    }

    #[test]
    fn reciprocal_params_created_when_configured() {
        let cfg = PbgConfig::builder()
            .dim(8)
            .batch_size(8)
            .chunk_size(4)
            .reciprocal_relations(true)
            .build()
            .unwrap();
        let m = Model::new(schema(OperatorKind::Diagonal), cfg).unwrap();
        assert!(m.relation(RelationTypeId(0)).reciprocal.is_some());
    }

    #[test]
    fn snapshot_gathers_partitions_by_global_id() {
        let m = Model::new(schema(OperatorKind::Identity), config(4)).unwrap();
        let store = InMemoryStore::new(m.store_layout());
        // mark entity 7 (partition 1, offset 3 under id%2 mapping)
        let key = crate::storage::PartitionKey::new(0u32, 1u32);
        let data = store.load(key);
        data.embeddings.write_row(3, &[1.0, 2.0, 3.0, 4.0]);
        let snap = m.snapshot(&store);
        assert_eq!(snap.embedding(0, 7), &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn score_matches_batched_scores() {
        let m = Model::new(schema(OperatorKind::Translation), config(4)).unwrap();
        let store = InMemoryStore::new(m.store_layout());
        let snap = m.snapshot(&store);
        let single = snap.score(1, RelationTypeId(0), 5);
        let batch = snap.score_against_destinations(1, RelationTypeId(0), &[4, 5, 6]);
        assert!((single - batch[1]).abs() < 1e-5);
        let batch_src = snap.score_against_sources(5, RelationTypeId(0), &[0, 1]);
        assert!((single - batch_src[1]).abs() < 1e-5);
    }

    #[test]
    fn cosine_scores_are_bounded_in_snapshot() {
        let cfg = PbgConfig::builder()
            .dim(4)
            .batch_size(8)
            .chunk_size(4)
            .similarity(SimilarityKind::Cosine)
            .build()
            .unwrap();
        let m = Model::new(schema(OperatorKind::Identity), cfg).unwrap();
        let store = InMemoryStore::new(m.store_layout());
        let snap = m.snapshot(&store);
        for d in 0..20u32 {
            assert!(snap.score(0, RelationTypeId(0), d).abs() <= 1.0 + 1e-5);
        }
    }

    #[test]
    fn snapshot_bytes_accounting() {
        let m = Model::new(schema(OperatorKind::Translation), config(4)).unwrap();
        let store = InMemoryStore::new(m.store_layout());
        let snap = m.snapshot(&store);
        // 20 entities * 4 dims * 4 bytes + 4 relation params * 4 bytes
        assert_eq!(snap.bytes(), 20 * 4 * 4 + 4 * 4);
    }
}
