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
//!
//! A trained model is read through one set of queries, [`Embeddings`]:
//! the heap snapshot ([`TrainedEmbeddings`]) and the memory-mapped
//! checkpoint ([`MmapEmbeddings`]) differ only in how they hand out their
//! rows, so eval, `pbg neighbors` and the server give one answer.

use crate::config::{PbgConfig, SimilarityKind};
use crate::error::{PbgError, Result};
use crate::operator::{self, RowOperator};
use crate::optimizer::HogwildAdagradDense;
use crate::storage::{partition_keys, MmapPartition, PartitionKey, PartitionStore, StoreLayout};
use pbg_graph::ids::{EntityTypeId, RelationTypeId};
use pbg_graph::partition::EntityPartitioning;
use pbg_graph::schema::{GraphSchema, OperatorKind};
use pbg_tensor::kernels::{self, GatherRows};
use pbg_tensor::matrix::Matrix;
use pbg_tensor::vecmath;
use pbg_tensor::Precision;
use std::borrow::Cow;

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

    /// The current parameter values.
    pub(crate) fn snapshot(&self) -> RelationSnapshot {
        RelationSnapshot {
            op: self.op,
            weight: self.weight,
            forward: self.forward.snapshot(),
            reciprocal: self.reciprocal.as_ref().map(|p| p.snapshot()),
        }
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

    /// Live parameters of every relation, in schema order.
    pub(crate) fn relations(&self) -> &[RelationParams] {
        &self.relations
    }

    /// Number of relation types.
    pub fn num_relations(&self) -> usize {
        self.relations.len()
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
        let embeddings = dense_tables(&self.schema, dim, |key, _| {
            let data = store.load(key);
            let rows = data.embeddings.to_vec();
            drop(data);
            store.release(key);
            Ok(rows)
        })
        .expect("a store always yields its partitions");
        let relations = self
            .relations
            .iter()
            .map(RelationParams::snapshot)
            .collect();
        TrainedEmbeddings {
            dim,
            similarity: self.config.similarity,
            schema: self.schema.clone(),
            embeddings,
            relations,
        }
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
/// consume, through the [`Embeddings`] queries.
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

/// One part per entity type: its whole global-id-ordered table.
impl Embeddings for TrainedEmbeddings {
    fn model_ref(&self) -> ModelRef<'_> {
        (self.dim, self.similarity, &self.schema, &self.relations)
    }

    fn parts(&self, entity_type: usize) -> RowParts<'_> {
        RowParts::Table(self.embeddings[entity_type].as_slice())
    }
}

/// A trained model served straight from a memory-mapped checkpoint:
/// relation parameters and schema on the heap, embedding rows read in
/// place from [`MmapPartition`] shards. Its queries are the
/// [`Embeddings`] ones, so a served answer is bit-identical to the
/// offline one.
#[derive(Debug)]
pub struct MmapEmbeddings {
    /// Embedding dimension.
    pub dim: usize,
    /// Similarity the model was trained with.
    pub similarity: SimilarityKind,
    /// The schema.
    pub schema: GraphSchema,
    /// One mapped shard per `(entity type, partition)`, in
    /// [`crate::storage::StoreLayout::keys`] order; an unpartitioned
    /// type's single shard is its whole table in global-id order.
    pub shards: Vec<MmapPartition>,
    /// Relation parameter snapshots.
    pub relations: Vec<RelationSnapshot>,
}

impl MmapEmbeddings {
    /// [`Embeddings::embedding`], callable without the trait in scope.
    pub fn embedding(&self, entity_type: usize, id: u32) -> Cow<'_, [f32]> {
        Embeddings::embedding(self, entity_type, id)
    }

    /// [`Embeddings::score`], callable without the trait in scope.
    pub fn score(&self, src: u32, rel: RelationTypeId, dst: u32) -> f32 {
        Embeddings::score(self, src, rel, dst)
    }

    /// [`Embeddings::top_destinations`], callable without the trait in
    /// scope.
    pub fn top_destinations(&self, src: u32, rel: RelationTypeId, k: usize) -> Vec<(u32, f32)> {
        Embeddings::top_destinations(self, src, rel, k)
    }

    /// Bytes of embedding rows reachable through the mapped shards
    /// (resident only as far as the page cache decides; the accumulator
    /// column each shard also holds is never read when serving) — the
    /// number `/healthz` reports.
    pub fn mapped_bytes(&self) -> usize {
        self.shards.iter().map(|s| s.payload_bytes().len()).sum()
    }
}

/// One part per shard of the type: f32 shards read in place, quantized
/// ones decoded on read.
impl Embeddings for MmapEmbeddings {
    fn model_ref(&self) -> ModelRef<'_> {
        (self.dim, self.similarity, &self.schema, &self.relations)
    }

    fn parts(&self, entity_type: usize) -> RowParts<'_> {
        let types = self.schema.entity_types();
        let before = &types[..entity_type];
        let start: u32 = before.iter().map(|t| t.num_partitions()).sum();
        let n = types[entity_type].num_partitions() as usize;
        RowParts::Shards(&self.shards[start as usize..][..n])
    }
}

/// What every read query needs of a model besides its rows: its
/// dimension, similarity, schema and relation parameters.
pub type ModelRef<'a> = (
    usize,
    SimilarityKind,
    &'a GraphSchema,
    &'a [RelationSnapshot],
);

/// One run of an entity type's rows, in offset order.
#[derive(Debug, Clone, Copy)]
pub enum RowPart<'a> {
    /// `rows × dim` floats read in place: a heap table or a mapped f32
    /// shard.
    F32(&'a [f32]),
    /// A quantized mapped shard, decoded row by row as it is read.
    Quantized(&'a MmapPartition),
}

/// An entity type's [`RowPart`]s in partition order, borrowed from the
/// model without building a list.
#[derive(Debug, Clone, Copy)]
pub enum RowParts<'a> {
    /// A single part: the whole table in global-id order.
    Table(&'a [f32]),
    /// One part per mapped shard.
    Shards(&'a [MmapPartition]),
}

impl<'a> RowParts<'a> {
    /// Number of parts.
    pub(crate) fn len(&self) -> usize {
        match self {
            RowParts::Table(_) => 1,
            RowParts::Shards(shards) => shards.len(),
        }
    }

    /// Part `i`: f32 rows read in place, or a quantized shard.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub(crate) fn get(&self, i: usize) -> RowPart<'a> {
        match *self {
            RowParts::Table(table) => RowPart::F32(table),
            RowParts::Shards(shards) => {
                let shard = &shards[i];
                match shard.precision() {
                    Precision::F32 => shard
                        .payload()
                        .map_or(RowPart::Quantized(shard), RowPart::F32),
                    _ => RowPart::Quantized(shard),
                }
            }
        }
    }
}

/// The read queries of a trained model, written once for every model
/// type: an implementor hands out its [`ModelRef`] and, per entity type,
/// its [`RowPart`]s in partition order. Rows named by id are routed to
/// their part as they are gathered and scored by one gathered scorer, and
/// whole tables are streamed through one top-k scan — so the heap and the
/// mapped model give one answer, bit for bit.
pub trait Embeddings {
    /// Dimension, similarity, schema and relation parameters, in that
    /// order.
    fn model_ref(&self) -> ModelRef<'_>;

    /// The rows of entity type `entity_type`: one part per partition,
    /// global id `i` of a type split `p` ways at row `i / p` of part
    /// `i % p` — or a single part holding the whole table.
    ///
    /// # Panics
    ///
    /// Panics if `entity_type` is out of range.
    fn parts(&self, entity_type: usize) -> RowParts<'_>;

    /// The embedding of entity `id` of type `entity_type`: borrowed in
    /// place from an f32 part, decoded to an owned row from a quantized
    /// one.
    ///
    /// # Panics
    ///
    /// Panics if indices are out of range.
    fn embedding(&self, entity_type: usize, id: u32) -> Cow<'_, [f32]> {
        match TypeRows::new(self, entity_type).row(id) {
            Row::F32(row) => Cow::Borrowed(row),
            Row::Quantized(shard, row) => shard.row(row),
        }
    }

    /// Scores the edge `(src, rel, dst)`: `sim(g(θ_src, θ_rel), θ_dst)`
    /// through the same gathered path as every batched score and eval
    /// rank.
    ///
    /// # Panics
    ///
    /// Panics if indices are out of range.
    fn score(&self, src: u32, rel: RelationTypeId, dst: u32) -> f32 {
        self.score_against_destinations(src, rel, &[dst])[0]
    }

    /// Scores one source against many destination candidates (the
    /// evaluation hot path), fetching only the requested rows.
    ///
    /// # Panics
    ///
    /// Panics if indices are out of range.
    fn score_against_destinations(&self, src: u32, rel: RelationTypeId, dsts: &[u32]) -> Vec<f32> {
        let (_, sim, schema, _) = self.model_ref();
        let rows = TypeRows::new(self, schema.relation_type(rel).dest_type().index());
        gathered_scores(sim, source_query(self, src, rel), &rows, dsts, None)
    }

    /// Scores one destination against many source candidates. Uses the
    /// reciprocal parameters when present (matching training), otherwise
    /// transforms every candidate source as it is staged.
    ///
    /// # Panics
    ///
    /// Panics if indices are out of range.
    fn score_against_sources(&self, dst: u32, rel: RelationTypeId, srcs: &[u32]) -> Vec<f32> {
        let (dim, sim, schema, relations) = self.model_ref();
        let (r, rdef) = (&relations[rel.index()], schema.relation_type(rel));
        let dst_row = self.embedding(rdef.dest_type().index(), dst);
        let rows = TypeRows::new(self, rdef.source_type().index());
        let op = || RowOperator::new(r.op, &r.forward, dim);
        let (query, cand_op) = match &r.reciprocal {
            Some(recip) => (transformed(r.op, recip, &dst_row), None),
            None => (dst_row.into_owned(), Some(op())),
        };
        gathered_scores(sim, query, &rows, srcs, cand_op)
    }

    /// The `k` best destinations for `(src, rel)` over the *entire*
    /// destination table, best first, ties to the lower global id —
    /// streamed part by part through the score-only top-k kernel, so only
    /// k-entry heaps are kept. The source itself is a candidate like any
    /// other.
    ///
    /// # Panics
    ///
    /// Panics if indices are out of range.
    fn top_destinations(&self, src: u32, rel: RelationTypeId, k: usize) -> Vec<(u32, f32)> {
        let (_, _, schema, _) = self.model_ref();
        let dest = schema.relation_type(rel).dest_type().index();
        top_k(self, dest, source_query(self, src, rel), k)
    }

    /// The `k` entities of type `entity_type` most similar to `entity`
    /// by the model's similarity alone (no relation operator), best
    /// first, ties to the lower id. The query entity itself is excluded.
    ///
    /// # Panics
    ///
    /// Panics if indices are out of range.
    fn nearest_entities(&self, entity_type: usize, entity: u32, k: usize) -> Vec<(u32, f32)> {
        let query = self.embedding(entity_type, entity).into_owned();
        let mut best = top_k(self, entity_type, query, k.saturating_add(1));
        best.retain(|&(id, _)| id != entity);
        best.truncate(k);
        best
    }

    /// Relation index `rel` as a relation id, checked against the schema.
    ///
    /// # Errors
    ///
    /// Returns [`PbgError::OutOfRange`] if the model has no relation
    /// `rel`.
    fn relation_id(&self, rel: u64) -> Result<RelationTypeId> {
        let (_, _, schema, _) = self.model_ref();
        let n = schema.num_relation_types();
        if rel < n as u64 {
            return Ok(RelationTypeId(rel as u32));
        }
        let msg = format!("relation index {rel}: model has {n} relations");
        Err(PbgError::OutOfRange(msg))
    }

    /// Checks that `id` is an entity of `entity_type`; `what` names the
    /// id in the error.
    ///
    /// # Errors
    ///
    /// Returns [`PbgError::OutOfRange`] if it is not.
    ///
    /// # Panics
    ///
    /// Panics if `entity_type` is out of range.
    fn check_entity(&self, entity_type: EntityTypeId, id: u32, what: &str) -> Result<()> {
        let (_, _, schema, _) = self.model_ref();
        let def = schema.entity_type(entity_type);
        let (name, n) = (def.name(), def.num_entities());
        if id < n {
            return Ok(());
        }
        let msg = format!("{what} {id}: entity type \"{name}\" has {n} entities");
        Err(PbgError::OutOfRange(msg))
    }
}

/// Global id `i` of a type split `p` ways is row `i / p` of partition
/// `i % p`: `(partition, row)`.
fn locate(p: usize, id: u32) -> (usize, usize) {
    match p as u32 {
        1 => (0, id as usize),
        p => ((id % p) as usize, (id / p) as usize),
    }
}

/// One row, found in its part: an f32 row read in place, or a quantized
/// shard and the row to decode.
enum Row<'a> {
    F32(&'a [f32]),
    Quantized(&'a MmapPartition, usize),
}

/// The rows of one entity type by global id: the one gather source of
/// every by-id query, whatever the parts. Each id is routed to its part
/// by [`locate`] as it is fetched, so a query builds no candidate list.
struct TypeRows<'a> {
    parts: RowParts<'a>,
    dim: usize,
}

impl<'a> TypeRows<'a> {
    fn new<E: Embeddings + ?Sized>(model: &'a E, entity_type: usize) -> Self {
        let (dim, ..) = model.model_ref();
        let parts = model.parts(entity_type);
        TypeRows { parts, dim }
    }

    // `row`, `copy_row` and `prefetch` run once per candidate row and
    // must inline into the gather loop: out of line they cost eval ~20 %
    #[inline]
    fn row(&self, id: u32) -> Row<'a> {
        let (part, row) = locate(self.parts.len(), id);
        match self.parts.get(part) {
            RowPart::F32(table) => Row::F32(&table[row * self.dim..(row + 1) * self.dim]),
            RowPart::Quantized(shard) => Row::Quantized(shard, row),
        }
    }
}

impl GatherRows for TypeRows<'_> {
    #[inline]
    fn copy_row(&self, id: u32, dst: &mut [f32]) {
        match self.row(id) {
            Row::F32(row) => dst.copy_from_slice(row),
            Row::Quantized(shard, row) => shard.decode_rows_into(row, 1, dst),
        }
    }

    #[inline]
    fn prefetch(&self, id: u32) {
        if let Row::F32(row) = self.row(id) {
            kernels::prefetch_row(row);
        }
    }
}

/// `g(θ_src, θ_rel)`: the query row of the edge `(src, rel, ?)`.
fn source_query<E: Embeddings + ?Sized>(model: &E, src: u32, rel: RelationTypeId) -> Vec<f32> {
    let (_, _, schema, relations) = model.model_ref();
    let r = &relations[rel.index()];
    let src_row = model.embedding(schema.relation_type(rel).source_type().index(), src);
    transformed(r.op, &r.forward, &src_row)
}

/// The `k` rows of entity type `t` scoring best against query row `q`, best
/// first, ties to the lower global id. Each part is streamed through the
/// top-k kernel in place — a quantized one decoded block by block into
/// one scratch buffer — and its own top `k`, which holds every global
/// top-k row of it, is merged with offsets mapped back to global ids;
/// offsets order like global ids within one part, so ties stay exact.
fn top_k<E: Embeddings + ?Sized>(m: &E, t: usize, mut q: Vec<f32>, k: usize) -> Vec<(u32, f32)> {
    use pbg_tensor::topk::{self, TopK, BLOCK_ROWS};
    let (dim, sim, schema, _) = m.model_ref();
    let k = k.min(schema.entity_types()[t].num_entities() as usize);
    let cosine = sim == SimilarityKind::Cosine;
    if cosine {
        vecmath::normalize(&mut q);
    }
    let score_block = |block: &[f32], base: usize, acc: &mut TopK| match cosine {
        false => topk::accumulate_dot(&q, block, dim, base, acc),
        true => topk::accumulate_cosine(&q, block, dim, base, acc),
    };
    let parts = m.parts(t);
    let mut acc = TopK::new(k);
    for p in 0..parts.len() {
        let mut best = TopK::new(k);
        match parts.get(p) {
            RowPart::F32(table) => score_block(table, 0, &mut best),
            RowPart::Quantized(shard) => {
                let mut scratch = vec![0.0f32; BLOCK_ROWS.min(shard.rows()) * dim];
                for base in (0..shard.rows()).step_by(BLOCK_ROWS) {
                    let n = BLOCK_ROWS.min(shard.rows() - base);
                    shard.decode_rows_into(base, n, &mut scratch[..n * dim]);
                    score_block(&scratch[..n * dim], base, &mut best);
                }
            }
        }
        for s in best.into_sorted() {
            acc.push(s.index * parts.len() + p, s.score);
        }
    }
    let ranked = acc.into_sorted();
    ranked.iter().map(|s| (s.index as u32, s.score)).collect()
}

/// Dense per-type tables in global-id order, gathered one partition at a
/// time: `rows(key, n)` yields partition `key`'s `n` rows in offset order.
pub(crate) fn dense_tables(
    schema: &GraphSchema,
    dim: usize,
    mut rows: impl FnMut(PartitionKey, usize) -> Result<Vec<f32>>,
) -> Result<Vec<Matrix>> {
    let keys = partition_keys(schema);
    let mut tables = Vec::new();
    for (t, def) in schema.entity_types().iter().enumerate() {
        let parts = EntityPartitioning::new(def.num_entities(), def.num_partitions());
        let mut table = Matrix::zeros(def.num_entities() as usize, dim);
        for &(key, n) in keys.iter().filter(|(key, _)| key.entity_type.index() == t) {
            for (off, row) in rows(key, n)?.chunks_exact(dim.max(1)).enumerate() {
                let global = parts.global_of(key.partition, off as u32);
                table.row_mut(global.index()).copy_from_slice(row);
            }
        }
        tables.push(table);
    }
    Ok(tables)
}

/// `g(row, params)` as an owned query vector.
fn transformed(op: OperatorKind, params: &[f32], row: &[f32]) -> Vec<f32> {
    let mut query = row.to_vec();
    RowOperator::new(op, params, row.len()).apply_in_place(&mut query);
    query
}

/// The one scoring path behind every model type: `query` against rows
/// `ids` of `rows`, gathered through [`kernels::gathered_nt`] with
/// `cand_op` applied to each staged block and, under cosine, both sides
/// normalized — bit-identical to gathering the candidates into a matrix
/// and calling [`crate::similarity::score_matrix`].
fn gathered_scores(
    sim: SimilarityKind,
    mut query: Vec<f32>,
    rows: &TypeRows<'_>,
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
        assert_eq!(*snap.embedding(0, 7), [1.0, 2.0, 3.0, 4.0]);
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

    fn trained_ring(n: u32) -> TrainedEmbeddings {
        let edges: pbg_graph::edges::EdgeList = (0..8 * n)
            .map(|i| {
                let v = i % n;
                pbg_graph::edges::Edge::new(v, 0u32, (v + 1 + i % 3) % n)
            })
            .collect();
        let schema = GraphSchema::homogeneous(n, 1).unwrap();
        let config = PbgConfig::builder()
            .dim(16)
            .epochs(6)
            .batch_size(64)
            .chunk_size(16)
            .uniform_negatives(16)
            .threads(1)
            .build()
            .unwrap();
        let mut t = crate::trainer::Trainer::new(schema, &edges, config).unwrap();
        t.train();
        t.snapshot()
    }

    #[test]
    fn nearest_excludes_self_and_returns_k() {
        let model = trained_ring(32);
        let nn = model.nearest_entities(0, 5, 4);
        assert_eq!(nn.len(), 4);
        assert!(nn.iter().all(|&(id, _)| id != 5));
        for w in nn.windows(2) {
            assert!(w[0].1 >= w[1].1, "descending scores");
        }
    }

    #[test]
    fn ring_neighbors_rank_graph_neighbors_high() {
        let model = trained_ring(32);
        // true destinations of node 10 are {11, 12, 13}
        let top = model.top_destinations(10, RelationTypeId(0), 5);
        let top_ids: Vec<u32> = top.iter().map(|&(id, _)| id).collect();
        let hits = [11u32, 12, 13]
            .iter()
            .filter(|d| top_ids.contains(d))
            .count();
        assert!(hits >= 2, "top-5 {top_ids:?} misses ring successors");
    }

    #[test]
    fn k_larger_than_graph_is_clamped() {
        let model = trained_ring(8);
        let nn = model.nearest_entities(0, 3, 100);
        assert_eq!(nn.len(), 7, "everything except the query itself");
        let top = model.top_destinations(3, RelationTypeId(0), usize::MAX);
        assert_eq!(top.len(), 8, "every destination, the source included");
        assert!(model.top_destinations(3, RelationTypeId(0), 0).is_empty());
    }

    #[test]
    fn a_nan_row_orders_like_topk_instead_of_panicking() {
        let mut model = trained_ring(16);
        model.embeddings[0].row_mut(9).fill(f32::NAN);
        for sim in [SimilarityKind::Dot, SimilarityKind::Cosine] {
            model.similarity = sim;
            let all: Vec<u32> = (0..16).collect();
            let scores = model.score_against_destinations(4, RelationTypeId(0), &all);
            let mut want = pbg_tensor::topk::TopK::new(5);
            for (&d, &s) in all.iter().zip(&scores) {
                want.push(d as usize, s);
            }
            let want: Vec<(u32, u32)> = want
                .into_sorted()
                .iter()
                .map(|s| (s.index as u32, s.score.to_bits()))
                .collect();
            let got: Vec<(u32, u32)> = model
                .top_destinations(4, RelationTypeId(0), 5)
                .iter()
                .map(|&(id, s)| (id, s.to_bits()))
                .collect();
            assert_eq!(got, want, "{sim:?}");
            // the NaN query itself: every score is NaN, ties go to the lower id
            let nn = model.nearest_entities(0, 9, 3);
            assert!(nn.iter().all(|(_, s)| s.is_nan()), "{nn:?}");
            assert_eq!(nn.iter().map(|&(id, _)| id).collect::<Vec<_>>(), [0, 1, 2]);
        }
    }

    #[test]
    fn query_checks_name_the_bad_id() {
        let m = Model::new(schema(OperatorKind::Identity), config(4)).unwrap();
        let snap = m.snapshot(&InMemoryStore::new(m.store_layout()));
        assert_eq!(snap.relation_id(0).unwrap(), RelationTypeId(0));
        let err = snap.relation_id(1).unwrap_err().to_string();
        assert!(
            err.contains("relation index 1") && err.contains("1 relations"),
            "{err}"
        );
        let node = pbg_graph::EntityTypeId(0);
        assert!(snap.check_entity(node, 19, "src").is_ok());
        let err = snap.check_entity(node, 20, "src").unwrap_err().to_string();
        assert!(
            err.contains("src 20") && err.contains("has 20 entities"),
            "{err}"
        );
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
