//! Link-prediction evaluation: rank true edges among sampled corruptions.
//!
//! Follows the paper's protocol: for each test edge, sample `K` candidate
//! negative nodes — uniformly, or "according to their prevalence in the
//! training data" for large graphs (§5.4.2) — score the corrupted edges,
//! and rank the true edge. Both sides are corrupted (source and
//! destination) and ranks pooled. *Filtered* metrics remove candidates
//! that form true edges in any split (§5.4.1, footnote 8); *raw* metrics
//! keep them.
//!
//! Held-out edges are taken in blocks: the calling thread draws every
//! candidate of a block in edge order from one seeded RNG, the block's
//! edges are split over `available_parallelism()` scoped threads, and the
//! ranks are pushed in edge order — so the metrics are bit-identical for
//! every thread count. Each side is one call to the model's gathered
//! scorer with the positive in slot 0, and the filter is a [`FilterIndex`]
//! built once per call.

use crate::model::TrainedEmbeddings;
use pbg_eval::ranking::{RankingAccumulator, RankingMetrics};
use pbg_graph::edges::EdgeList;
use pbg_tensor::alias::AliasTable;
use pbg_tensor::rng::Xoshiro256;

/// Held-out edges whose candidates are drawn at once: bounds the id
/// buffer at `BLOCK_EDGES × 2 × (K + 1)` while giving every thread
/// enough edges to amortize its spawn.
const BLOCK_EDGES: usize = 256;

/// How candidate corruption nodes are drawn.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CandidateSampling {
    /// Uniform over the entity type (used for small graphs / FB15k).
    Uniform,
    /// By prevalence in the training data (§5.4.2's protocol for
    /// Freebase/Twitter, avoiding degree-distribution shortcuts).
    Prevalence,
}

/// Link-prediction evaluator configuration.
#[derive(Debug, Clone)]
pub struct LinkPredictionEval {
    /// Candidates per test edge and side.
    pub num_candidates: usize,
    /// Candidate distribution.
    pub sampling: CandidateSampling,
    /// Remove candidates that form known true edges.
    pub filtered: bool,
    /// Corrupt sources as well as destinations.
    pub both_sides: bool,
    /// RNG seed.
    pub seed: u64,
}

impl Default for LinkPredictionEval {
    fn default() -> Self {
        LinkPredictionEval {
            num_candidates: 1000,
            sampling: CandidateSampling::Prevalence,
            filtered: false,
            both_sides: true,
            seed: 17,
        }
    }
}

impl LinkPredictionEval {
    /// Evaluates `model` on `test` edges. `train` supplies the prevalence
    /// distribution; `filter_edges` (all splits concatenated) supplies the
    /// filtered-setting exclusions and may be empty when `filtered` is
    /// off.
    ///
    /// # Panics
    ///
    /// Panics if `test` is empty or `num_candidates == 0`.
    pub fn evaluate(
        &self,
        model: &TrainedEmbeddings,
        test: &EdgeList,
        train: &EdgeList,
        filter_edges: &[&EdgeList],
    ) -> RankingMetrics {
        let threads = std::thread::available_parallelism().map_or(1, |c| c.get());
        self.evaluate_threads(model, test, train, filter_edges, threads)
    }

    /// [`LinkPredictionEval::evaluate`] on `threads` threads; the result
    /// does not depend on `threads`.
    pub(crate) fn evaluate_threads(
        &self,
        model: &TrainedEmbeddings,
        test: &EdgeList,
        train: &EdgeList,
        filter_edges: &[&EdgeList],
        threads: usize,
    ) -> RankingMetrics {
        assert!(!test.is_empty(), "cannot evaluate on an empty test set");
        assert!(self.num_candidates > 0, "need at least one candidate");
        let mut rng = Xoshiro256::seed_from_u64(self.seed);
        let samplers = self.build_samplers(model, train);
        let filter = self.filtered.then(|| FilterIndex::new(filter_edges));
        let sides = 1 + usize::from(self.both_sides);
        let per_edge = sides * (1 + self.num_candidates);
        let mut ids = Vec::with_capacity(BLOCK_EDGES.min(test.len()) * per_edge);
        let mut ranks = Vec::with_capacity(BLOCK_EDGES.min(test.len()) * sides);
        let mut draw = |t: usize, ids: &mut Vec<u32>| {
            self.draw_into(&samplers, model, t, &mut rng, ids);
        };
        let mut acc = RankingAccumulator::new();
        let mut start = 0;
        while start < test.len() {
            let end = (start + BLOCK_EDGES).min(test.len());
            // draw in the per-edge order: destination side, then source
            // side, each slot 0 holding the true endpoint
            ids.clear();
            for e in (start..end).map(|i| test.get(i)) {
                let rdef = model.schema.relation_type(e.rel);
                ids.push(e.dst.0);
                draw(rdef.dest_type().index(), &mut ids);
                if self.both_sides {
                    ids.push(e.src.0);
                    draw(rdef.source_type().index(), &mut ids);
                }
            }
            ranks.clear();
            ranks.resize((end - start) * sides, 0.0);
            let per = (end - start).div_ceil(threads.max(1));
            let rank_share = |w: usize, ids: &[u32], ranks: &mut [f64]| {
                self.rank_edges(model, test, start + w * per, ids, filter.as_ref(), ranks)
            };
            std::thread::scope(|scope| {
                let mut shares = ids
                    .chunks(per * per_edge)
                    .zip(ranks.chunks_mut(per * sides))
                    .enumerate();
                let first = shares.next();
                for (w, (ids, ranks)) in shares {
                    scope.spawn(move || rank_share(w, ids, ranks));
                }
                if let Some((w, (ids, ranks))) = first {
                    rank_share(w, ids, ranks);
                }
            });
            ranks.iter().for_each(|&r| acc.push(r));
            start = end;
        }
        acc.finish()
    }

    /// Ranks the edges `test[first..]` whose candidate ids are `ids`
    /// (`1 + K` per side, true endpoint first) into `ranks` (one per
    /// side).
    fn rank_edges(
        &self,
        model: &TrainedEmbeddings,
        test: &EdgeList,
        first: usize,
        ids: &[u32],
        filter: Option<&FilterIndex>,
        ranks: &mut [f64],
    ) {
        let slot = 1 + self.num_candidates;
        let sides = 1 + usize::from(self.both_sides);
        for (i, (edge_ids, edge_ranks)) in ids
            .chunks(sides * slot)
            .zip(ranks.chunks_mut(sides))
            .enumerate()
        {
            let e = test.get(first + i);
            let (src, rel, dst) = (e.src.0, e.rel, e.dst.0);
            let dst_ids = &edge_ids[..slot];
            let mut scores = model.score_against_destinations(src, rel, dst_ids);
            if let Some(f) = filter {
                mask_known(&mut scores[1..], &dst_ids[1..], |d| {
                    f.contains_by_src(src, rel.0, d)
                });
            }
            edge_ranks[0] = RankingAccumulator::rank_of(scores[0], &scores[1..]);
            if self.both_sides {
                let src_ids = &edge_ids[slot..];
                let mut scores = model.score_against_sources(dst, rel, src_ids);
                if let Some(f) = filter {
                    mask_known(&mut scores[1..], &src_ids[1..], |s| {
                        f.contains_by_dst(s, rel.0, dst)
                    });
                }
                edge_ranks[1] = RankingAccumulator::rank_of(scores[0], &scores[1..]);
            }
        }
    }

    fn build_samplers(
        &self,
        model: &TrainedEmbeddings,
        train: &EdgeList,
    ) -> Vec<Option<AliasTable>> {
        match self.sampling {
            CandidateSampling::Uniform => {
                vec![None; model.schema.num_entity_types()]
            }
            CandidateSampling::Prevalence => {
                // count appearances per entity type across both endpoints
                let mut counts: Vec<Vec<f32>> = model
                    .schema
                    .entity_types()
                    .iter()
                    .map(|t| vec![0.0f32; t.num_entities() as usize])
                    .collect();
                for e in train.iter() {
                    let rdef = model.schema.relation_type(e.rel);
                    counts[rdef.source_type().index()][e.src.index()] += 1.0;
                    counts[rdef.dest_type().index()][e.dst.index()] += 1.0;
                }
                counts
                    .into_iter()
                    .map(|c| Some(AliasTable::new(&c)))
                    .collect()
            }
        }
    }

    /// Appends `num_candidates` draws of entity type `entity_type` to
    /// `out`.
    fn draw_into(
        &self,
        samplers: &[Option<AliasTable>],
        model: &TrainedEmbeddings,
        entity_type: usize,
        rng: &mut Xoshiro256,
        out: &mut Vec<u32>,
    ) {
        let n = model.schema.entity_types()[entity_type].num_entities() as usize;
        out.extend(
            (0..self.num_candidates).map(|_| match &samplers[entity_type] {
                Some(table) => table.sample(rng) as u32,
                None => rng.gen_index(n) as u32,
            }),
        );
    }
}

/// Sets the score of every candidate that forms a known edge to −∞.
fn mask_known(scores: &mut [f32], ids: &[u32], known: impl Fn(u32) -> bool) {
    for (s, &id) in scores.iter_mut().zip(ids) {
        if known(id) {
            *s = f32::NEG_INFINITY;
        }
    }
}

/// Every known `(src, rel, dst)` edge as sorted per-entity adjacency in
/// both directions, keyed by `(rel, other endpoint)`: a filtered lookup is
/// a binary search in one entity's list. Each direction is built on its
/// own thread in two linear passes plus one small sort per entity, at 8
/// bytes per edge.
#[derive(Debug)]
pub(crate) struct FilterIndex {
    /// By source: `(rel, dst)` keys.
    out: Adjacency,
    /// By destination: `(rel, src)` keys.
    inc: Adjacency,
}

impl FilterIndex {
    pub(crate) fn new(lists: &[&EdgeList]) -> Self {
        let by_src = lists
            .iter()
            .map(|l| (l.sources(), l.relations(), l.destinations()));
        let by_dst = by_src.clone().map(|(s, r, d)| (d, r, s));
        std::thread::scope(|scope| {
            let inc = scope.spawn(|| Adjacency::new(by_dst));
            FilterIndex {
                out: Adjacency::new(by_src),
                inc: inc.join().expect("filter index thread"),
            }
        })
    }

    /// Whether `(src, rel, dst)` is a known edge, searched in `src`'s
    /// list — the one list destination corruption keeps hitting.
    pub(crate) fn contains_by_src(&self, src: u32, rel: u32, dst: u32) -> bool {
        self.out.contains(src, rel, dst)
    }

    /// Whether `(src, rel, dst)` is a known edge, searched in `dst`'s
    /// list — the one list source corruption keeps hitting.
    pub(crate) fn contains_by_dst(&self, src: u32, rel: u32, dst: u32) -> bool {
        self.inc.contains(dst, rel, src)
    }
}

/// Compressed per-entity lists of `rel << 32 | other` keys, each sorted.
#[derive(Debug)]
struct Adjacency {
    offsets: Vec<usize>,
    keys: Vec<u64>,
}

impl Adjacency {
    /// Indexes the edges of `(entity, rel, other)` column triples.
    fn new<'a, I>(columns: I) -> Self
    where
        I: Iterator<Item = (&'a [u32], &'a [u32], &'a [u32])> + Clone,
    {
        let nodes = columns
            .clone()
            .flat_map(|(e, _, _)| e.iter().copied())
            .max()
            .map_or(0, |m| m as usize + 1);
        let mut offsets = vec![0usize; nodes + 1];
        for (ents, _, _) in columns.clone() {
            for &e in ents {
                offsets[e as usize + 1] += 1;
            }
        }
        for i in 0..nodes {
            offsets[i + 1] += offsets[i];
        }
        let mut cursor = offsets[..nodes].to_vec();
        let mut keys = vec![0u64; offsets[nodes]];
        for (ents, rels, others) in columns {
            for ((&e, &r), &o) in ents.iter().zip(rels).zip(others) {
                keys[cursor[e as usize]] = key(r, o);
                cursor[e as usize] += 1;
            }
        }
        for w in offsets.windows(2) {
            keys[w[0]..w[1]].sort_unstable();
        }
        Adjacency { offsets, keys }
    }

    fn contains(&self, entity: u32, rel: u32, other: u32) -> bool {
        let e = entity as usize;
        e + 1 < self.offsets.len()
            && self.keys[self.offsets[e]..self.offsets[e + 1]]
                .binary_search(&key(rel, other))
                .is_ok()
    }
}

fn key(rel: u32, other: u32) -> u64 {
    (u64::from(rel) << 32) | u64::from(other)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PbgConfig;
    use crate::trainer::Trainer;
    use pbg_graph::edges::Edge;
    use pbg_graph::schema::GraphSchema;
    use pbg_graph::split::EdgeSplit;

    /// Structured graph: each node links to its 3 successors on a ring,
    /// repeated so training sees each true edge several times.
    fn community_edges(n: u32) -> EdgeList {
        let mut edges = EdgeList::new();
        for _ in 0..8 {
            for i in 0..n {
                for k in 1..=3u32 {
                    edges.push(Edge::new(i, 0u32, (i + k) % n));
                }
            }
        }
        edges
    }

    fn train_model(edges: &EdgeList, n: u32, epochs: usize) -> TrainedEmbeddings {
        let schema = GraphSchema::homogeneous(n, 1).unwrap();
        let config = PbgConfig::builder()
            .dim(16)
            .batch_size(64)
            .chunk_size(16)
            .uniform_negatives(16)
            .threads(2)
            .epochs(epochs)
            .build()
            .unwrap();
        let mut t = Trainer::new(schema, edges, config).unwrap();
        t.train();
        t.snapshot()
    }

    fn untrained_model(n: u32) -> TrainedEmbeddings {
        let schema = GraphSchema::homogeneous(n, 1).unwrap();
        let config = PbgConfig::builder()
            .dim(16)
            .batch_size(64)
            .chunk_size(16)
            .build()
            .unwrap();
        let t = Trainer::new(schema, &EdgeList::new(), config).unwrap();
        t.snapshot()
    }

    #[test]
    fn trained_model_beats_untrained_mrr() {
        let edges = community_edges(64);
        let split = EdgeSplit::new(&edges, 0.0, 0.2, 3);
        let trained = train_model(&split.train, 64, 8);
        let untrained = untrained_model(64);
        let eval = LinkPredictionEval {
            num_candidates: 50,
            sampling: CandidateSampling::Uniform,
            ..Default::default()
        };
        let m_trained = eval.evaluate(&trained, &split.test, &split.train, &[]);
        let m_untrained = eval.evaluate(&untrained, &split.test, &split.train, &[]);
        assert!(
            m_trained.mrr > 2.0 * m_untrained.mrr,
            "trained {} not well above untrained {}",
            m_trained.mrr,
            m_untrained.mrr
        );
        assert!(m_trained.mrr > 0.3, "mrr {}", m_trained.mrr);
    }

    #[test]
    fn filtered_metrics_at_least_as_good_as_raw() {
        let edges = community_edges(64);
        let split = EdgeSplit::new(&edges, 0.0, 0.2, 4);
        let model = train_model(&split.train, 64, 5);
        let raw = LinkPredictionEval {
            num_candidates: 100,
            sampling: CandidateSampling::Uniform,
            filtered: false,
            ..Default::default()
        };
        let filtered = LinkPredictionEval {
            filtered: true,
            ..raw.clone()
        };
        let m_raw = raw.evaluate(&model, &split.test, &split.train, &[]);
        let m_filt = filtered.evaluate(
            &model,
            &split.test,
            &split.train,
            &[&split.train, &split.test],
        );
        assert!(
            m_filt.mrr >= m_raw.mrr - 1e-9,
            "filtered {} < raw {}",
            m_filt.mrr,
            m_raw.mrr
        );
    }

    #[test]
    fn prevalence_sampling_draws_frequent_nodes() {
        let edges = community_edges(64);
        let model = train_model(&edges, 64, 1);
        let eval = LinkPredictionEval {
            num_candidates: 30,
            sampling: CandidateSampling::Prevalence,
            ..Default::default()
        };
        // must run without panicking and produce sane metrics
        let split = EdgeSplit::new(&edges, 0.0, 0.1, 5);
        let m = eval.evaluate(&model, &split.test, &split.train, &[]);
        assert!(m.mrr > 0.0 && m.mrr <= 1.0);
        assert!(m.mr >= 1.0);
    }

    /// A model in which every entity shares one embedding: every candidate
    /// ties exactly with the positive, the worst case for tie handling.
    fn all_tied_model(n: u32, dim: usize) -> TrainedEmbeddings {
        let schema = GraphSchema::homogeneous(n, 1).unwrap();
        let mut m = pbg_tensor::matrix::Matrix::zeros(n as usize, dim);
        m.fill_with(|_, j| 0.25 + j as f32 * 0.125);
        TrainedEmbeddings {
            dim,
            similarity: crate::config::SimilarityKind::Dot,
            schema,
            embeddings: vec![m],
            relations: vec![crate::model::RelationSnapshot {
                op: pbg_graph::schema::OperatorKind::Identity,
                weight: 1.0,
                forward: Vec::new(),
                reciprocal: None,
            }],
        }
    }

    #[test]
    fn all_tied_scores_take_average_rank_on_both_sides() {
        // with K candidates all tied with the positive, the average-tie
        // convention puts the positive at exactly rank 1 + K/2 — and the
        // positive must be scored through the same batched float path as
        // the candidates, or rounding differences break the tie and the
        // rank collapses to 1 or K+1 depending on draw order
        let model = all_tied_model(32, 16);
        let mut test = EdgeList::new();
        for i in 0..8u32 {
            test.push(Edge::new(i, 0u32, (i + 5) % 32));
        }
        let k = 20usize;
        let eval = LinkPredictionEval {
            num_candidates: k,
            sampling: CandidateSampling::Uniform,
            both_sides: true,
            ..Default::default()
        };
        let m = eval.evaluate(&model, &test, &test, &[]);
        let expect = 1.0 + k as f64 / 2.0;
        assert!(
            (m.mr - expect).abs() < 1e-9,
            "tied mean rank {} != {expect}",
            m.mr
        );
    }

    #[test]
    fn tied_metrics_identical_across_candidate_seeds() {
        // which candidates get drawn must not matter when all scores tie:
        // any seed produces the same MRR/MR/Hits@K
        let model = all_tied_model(48, 8);
        let mut test = EdgeList::new();
        for i in 0..6u32 {
            test.push(Edge::new(i, 0u32, i + 7));
        }
        let base = LinkPredictionEval {
            num_candidates: 25,
            sampling: CandidateSampling::Uniform,
            seed: 1,
            ..Default::default()
        };
        let first = base.evaluate(&model, &test, &test, &[]);
        for seed in [2, 17, 9999] {
            let m = LinkPredictionEval {
                seed,
                ..base.clone()
            }
            .evaluate(&model, &test, &test, &[]);
            assert_eq!(m.mrr, first.mrr, "seed {seed} changed MRR");
            assert_eq!(m.mr, first.mr, "seed {seed} changed MR");
            assert_eq!(m.hits_at_1, first.hits_at_1, "seed {seed} changed Hits@1");
            assert_eq!(
                m.hits_at_10, first.hits_at_10,
                "seed {seed} changed Hits@10"
            );
        }
    }

    #[test]
    fn single_side_eval_halves_rank_count() {
        let edges = community_edges(32);
        let split = EdgeSplit::new(&edges, 0.0, 0.2, 6);
        let model = train_model(&split.train, 32, 2);
        let both = LinkPredictionEval {
            num_candidates: 20,
            sampling: CandidateSampling::Uniform,
            both_sides: true,
            ..Default::default()
        };
        let one = LinkPredictionEval {
            both_sides: false,
            ..both.clone()
        };
        let m_both = both.evaluate(&model, &split.test, &split.train, &[]);
        let m_one = one.evaluate(&model, &split.test, &split.train, &[]);
        assert_eq!(m_both.count, 2 * m_one.count);
    }

    // -----------------------------------------------------------------
    // The per-edge oracle
    // -----------------------------------------------------------------

    use crate::config::SimilarityKind;
    use crate::model::RelationSnapshot;
    use crate::operator;
    use crate::similarity::score_matrix;
    use pbg_graph::schema::{EntityTypeDef, OperatorKind, RelationTypeDef};
    use pbg_graph::RelationTypeId;
    use pbg_tensor::matrix::Matrix;
    use std::collections::HashSet;

    /// Rows `ids` of entity type `t`, gathered into a matrix.
    fn gather(model: &TrainedEmbeddings, t: usize, ids: &[u32]) -> Matrix {
        let rows: Vec<&[f32]> = ids.iter().map(|&i| model.embedding(t, i)).collect();
        let mut m = Matrix::zeros(ids.len(), model.dim);
        for (i, row) in rows.iter().enumerate() {
            m.row_mut(i).copy_from_slice(row);
        }
        m
    }

    /// Destination-side scores the way they were computed before the
    /// gathered scorer: candidate matrix, `score_matrix`.
    fn matrix_scores_dst(
        m: &TrainedEmbeddings,
        src: u32,
        rel: RelationTypeId,
        ids: &[u32],
    ) -> Vec<f32> {
        let r = &m.relations[rel.index()];
        let rdef = m.schema.relation_type(rel);
        let src_m = Matrix::from_rows(&[m.embedding(rdef.source_type().index(), src)]);
        let query = operator::apply(r.op, &r.forward, &src_m);
        let cands = gather(m, rdef.dest_type().index(), ids);
        score_matrix(m.similarity, &query, &cands).row(0).to_vec()
    }

    /// Source-side scores the way they were computed before the gathered
    /// scorer: the operator applied to the whole candidate matrix when
    /// there are no reciprocal parameters.
    fn matrix_scores_src(
        m: &TrainedEmbeddings,
        dst: u32,
        rel: RelationTypeId,
        ids: &[u32],
    ) -> Vec<f32> {
        let r = &m.relations[rel.index()];
        let rdef = m.schema.relation_type(rel);
        let cands = gather(m, rdef.source_type().index(), ids);
        let dst_m = Matrix::from_rows(&[m.embedding(rdef.dest_type().index(), dst)]);
        let scores = match &r.reciprocal {
            Some(recip) => {
                score_matrix(m.similarity, &operator::apply(r.op, recip, &dst_m), &cands)
            }
            None => score_matrix(
                m.similarity,
                &dst_m,
                &operator::apply(r.op, &r.forward, &cands),
            ),
        };
        scores.row(0).to_vec()
    }

    /// The per-edge loop the blocked, threaded evaluation replaced: one
    /// draw per side in edge order, a `HashSet` filter, matrix scoring,
    /// and the positive scored in a separate call.
    fn oracle(
        eval: &LinkPredictionEval,
        model: &TrainedEmbeddings,
        test: &EdgeList,
        train: &EdgeList,
        filter_edges: &[&EdgeList],
    ) -> RankingMetrics {
        let mut rng = Xoshiro256::seed_from_u64(eval.seed);
        let samplers = eval.build_samplers(model, train);
        let known: HashSet<(u32, u32, u32)> = filter_edges
            .iter()
            .flat_map(|list| list.iter())
            .filter(|_| eval.filtered)
            .map(|e| (e.src.0, e.rel.0, e.dst.0))
            .collect();
        let draw = |t: usize, rng: &mut Xoshiro256| {
            let mut ids = Vec::new();
            eval.draw_into(&samplers, model, t, rng, &mut ids);
            ids
        };
        let mut acc = RankingAccumulator::new();
        for e in test.iter() {
            let rdef = model.schema.relation_type(e.rel);
            let cands = draw(rdef.dest_type().index(), &mut rng);
            let mut scores = matrix_scores_dst(model, e.src.0, e.rel, &cands);
            for (s, &d) in scores.iter_mut().zip(&cands) {
                if known.contains(&(e.src.0, e.rel.0, d)) {
                    *s = f32::NEG_INFINITY;
                }
            }
            let pos = matrix_scores_dst(model, e.src.0, e.rel, &[e.dst.0])[0];
            acc.push_scores(pos, &scores);
            if eval.both_sides {
                let cands = draw(rdef.source_type().index(), &mut rng);
                let mut scores = matrix_scores_src(model, e.dst.0, e.rel, &cands);
                for (s, &c) in scores.iter_mut().zip(&cands) {
                    if known.contains(&(c, e.rel.0, e.dst.0)) {
                        *s = f32::NEG_INFINITY;
                    }
                }
                let pos = matrix_scores_src(model, e.dst.0, e.rel, &[e.src.0])[0];
                acc.push_scores(pos, &scores);
            }
        }
        acc.finish()
    }

    const OPS: [OperatorKind; 5] = [
        OperatorKind::Identity,
        OperatorKind::Translation,
        OperatorKind::Diagonal,
        OperatorKind::ComplexDiagonal,
        OperatorKind::Linear,
    ];

    /// Two entity types of unequal size and four relations covering every
    /// type pair, all with operator `op` and random parameters.
    fn random_model(
        op: OperatorKind,
        similarity: SimilarityKind,
        reciprocal: bool,
        seed: u64,
    ) -> TrainedEmbeddings {
        let dim = 6;
        let schema = GraphSchema::builder()
            .entity_type(EntityTypeDef::new("a", 37))
            .entity_type(EntityTypeDef::new("b", 23))
            .relation_type(RelationTypeDef::new("ab", 0u32, 1u32).with_operator(op))
            .relation_type(RelationTypeDef::new("ba", 1u32, 0u32).with_operator(op))
            .relation_type(RelationTypeDef::new("aa", 0u32, 0u32).with_operator(op))
            .relation_type(RelationTypeDef::new("bb", 1u32, 1u32).with_operator(op))
            .build()
            .unwrap();
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let mut normal =
            |n: usize| -> Vec<f32> { (0..n).map(|_| rng.gen_normal() * 0.7).collect() };
        let embeddings = schema
            .entity_types()
            .iter()
            .map(|t| {
                Matrix::from_vec(
                    t.num_entities() as usize,
                    dim,
                    normal(t.num_entities() as usize * dim),
                )
            })
            .collect();
        let relations = (0..schema.num_relation_types())
            .map(|_| RelationSnapshot {
                op,
                weight: 1.0,
                forward: normal(op.param_count(dim)),
                reciprocal: reciprocal.then(|| normal(op.param_count(dim))),
            })
            .collect();
        TrainedEmbeddings {
            dim,
            similarity,
            schema,
            embeddings,
            relations,
        }
    }

    /// `n` random edges over `model`'s relations, every tenth one a
    /// repeat of its predecessor.
    fn random_edges(model: &TrainedEmbeddings, n: usize, seed: u64) -> EdgeList {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let mut edges = EdgeList::new();
        while edges.len() < n {
            if edges.len() % 10 == 9 {
                edges.push(edges.get(edges.len() - 1));
                continue;
            }
            let rel = rng.gen_index(model.relations.len()) as u32;
            let rdef = model.schema.relation_type(RelationTypeId(rel));
            let ns = model.schema.entity_type(rdef.source_type()).num_entities() as usize;
            let nd = model.schema.entity_type(rdef.dest_type()).num_entities() as usize;
            edges.push(Edge::new(
                rng.gen_index(ns) as u32,
                rel,
                rng.gen_index(nd) as u32,
            ));
        }
        edges
    }

    fn bits(m: &RankingMetrics) -> [u64; 6] {
        [
            m.mrr.to_bits(),
            m.mr.to_bits(),
            m.hits_at_1.to_bits(),
            m.hits_at_10.to_bits(),
            m.hits_at_50.to_bits(),
            m.count as u64,
        ]
    }

    #[test]
    fn parallel_eval_is_bit_identical_to_the_per_edge_oracle() {
        for (oi, op) in OPS.into_iter().enumerate() {
            for similarity in [SimilarityKind::Dot, SimilarityKind::Cosine] {
                for reciprocal in [false, true] {
                    let model = random_model(op, similarity, reciprocal, 100 + oi as u64);
                    // more held-out edges than one block, so the last
                    // block splits unevenly over the threads
                    let test = random_edges(&model, BLOCK_EDGES + 14, 1);
                    let train = random_edges(&model, 400, 2);
                    let filter = [&train, &test];
                    for sampling in [CandidateSampling::Uniform, CandidateSampling::Prevalence] {
                        for filtered in [false, true] {
                            for both_sides in [false, true] {
                                let eval = LinkPredictionEval {
                                    num_candidates: 25,
                                    sampling,
                                    filtered,
                                    both_sides,
                                    seed: 5,
                                };
                                let want = bits(&oracle(&eval, &model, &test, &train, &filter));
                                for threads in [1, 2, 3] {
                                    let got = eval
                                        .evaluate_threads(&model, &test, &train, &filter, threads);
                                    assert_eq!(
                                        bits(&got),
                                        want,
                                        "{op:?} {similarity:?} reciprocal={reciprocal} {sampling:?} \
                                         filtered={filtered} both_sides={both_sides} threads={threads}"
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    proptest::proptest! {
        #[test]
        fn filter_index_agrees_with_a_hash_set(
            a in proptest::collection::vec((0u32..12, 0u32..3, 0u32..12), 0..120),
            b in proptest::collection::vec((0u32..12, 0u32..3, 0u32..12), 0..40),
        ) {
            let lists: Vec<EdgeList> = [&a, &b]
                .iter()
                .map(|l| l.iter().map(|&(s, r, d)| Edge::new(s, r, d)).collect())
                .collect();
            let index = FilterIndex::new(&[&lists[0], &lists[1]]);
            let set: HashSet<(u32, u32, u32)> = a.iter().chain(&b).copied().collect();
            // ids past the largest indexed one must read as unknown too
            for s in 0..14 {
                for r in 0..4 {
                    for d in 0..14 {
                        let want = set.contains(&(s, r, d));
                        proptest::prop_assert_eq!(index.contains_by_src(s, r, d), want, "({s},{r},{d})");
                        proptest::prop_assert_eq!(index.contains_by_dst(s, r, d), want, "({s},{r},{d})");
                    }
                }
            }
        }
    }
}
