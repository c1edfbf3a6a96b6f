//! Nearest-neighbor queries over trained embeddings.
//!
//! The paper's released Freebase embeddings are consumed this way:
//! given an entity (or an `(entity, relation)` pair), find the top-k
//! closest entities. Scoring goes through the same operator + similarity
//! as training, so "neighbors under relation r" means "most likely
//! destinations of an r-edge".

use crate::model::TrainedEmbeddings;
use pbg_graph::RelationTypeId;
use pbg_tensor::topk::TopK;

/// A scored neighbor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Neighbor {
    /// Entity id (within the queried entity type).
    pub entity: u32,
    /// Model score (higher = closer).
    pub score: f32,
}

/// Top-k most similar entities to `entity` within its own entity type,
/// by the model's similarity on untransformed embeddings (no relation).
///
/// The query entity itself is excluded.
///
/// # Panics
///
/// Panics if indices are out of range or `k == 0`.
pub fn nearest_entities(
    model: &TrainedEmbeddings,
    entity_type: usize,
    entity: u32,
    k: usize,
) -> Vec<Neighbor> {
    assert!(k > 0, "k must be positive");
    let n = model.embeddings[entity_type].rows() as u32;
    let candidates: Vec<u32> = (0..n).filter(|&e| e != entity).collect();
    let scores = model.score_against_entities(entity_type, entity, &candidates);
    top_k(&candidates, &scores, k)
}

/// Top-k most likely destinations of an edge `(source, relation, ?)` —
/// ranked by the full trained score `sim(g(θ_src, θ_rel), θ_dst)`.
///
/// The source entity is excluded when source and destination types match.
///
/// # Panics
///
/// Panics if indices are out of range or `k == 0`.
pub fn top_destinations(
    model: &TrainedEmbeddings,
    source: u32,
    relation: RelationTypeId,
    k: usize,
) -> Vec<Neighbor> {
    assert!(k > 0, "k must be positive");
    let rdef = model.schema.relation_type(relation);
    let n = model.schema.entity_type(rdef.dest_type()).num_entities();
    let same_type = rdef.source_type() == rdef.dest_type();
    let candidates: Vec<u32> = (0..n).filter(|&d| !(same_type && d == source)).collect();
    let scores = model.score_against_destinations(source, relation, &candidates);
    top_k(&candidates, &scores, k)
}

/// The k highest-scoring candidates, best first, in [`TopK`]'s order:
/// `total_cmp` on the score, ties to the lower id — so a NaN score sorts
/// deterministically instead of panicking.
fn top_k(ids: &[u32], scores: &[f32], k: usize) -> Vec<Neighbor> {
    let mut acc = TopK::new(k);
    for (&id, &score) in ids.iter().zip(scores) {
        acc.push(id as usize, score);
    }
    acc.into_sorted()
        .into_iter()
        .map(|s| Neighbor {
            entity: s.index as u32,
            score: s.score,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{PbgConfig, SimilarityKind};
    use crate::trainer::Trainer;
    use pbg_graph::edges::{Edge, EdgeList};
    use pbg_graph::schema::GraphSchema;

    fn trained_ring(n: u32) -> TrainedEmbeddings {
        let edges: EdgeList = (0..8 * n)
            .map(|i| {
                let v = i % n;
                Edge::new(v, 0u32, (v + 1 + i % 3) % n)
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
        let mut t = Trainer::new(schema, &edges, config).unwrap();
        t.train();
        t.snapshot()
    }

    #[test]
    fn nearest_excludes_self_and_returns_k() {
        let model = trained_ring(32);
        let nn = nearest_entities(&model, 0, 5, 4);
        assert_eq!(nn.len(), 4);
        assert!(nn.iter().all(|n| n.entity != 5));
        // descending scores
        for w in nn.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
    }

    #[test]
    fn ring_neighbors_rank_graph_neighbors_high() {
        let model = trained_ring(32);
        // true destinations of node 10 are {11, 12, 13}
        let top = top_destinations(&model, 10, RelationTypeId(0), 5);
        let top_ids: Vec<u32> = top.iter().map(|n| n.entity).collect();
        let hits = [11u32, 12, 13]
            .iter()
            .filter(|d| top_ids.contains(d))
            .count();
        assert!(hits >= 2, "top-5 {top_ids:?} misses ring successors");
    }

    #[test]
    fn k_larger_than_graph_is_clamped() {
        let model = trained_ring(8);
        let nn = nearest_entities(&model, 0, 3, 100);
        assert_eq!(nn.len(), 7, "everything except the query itself");
    }

    #[test]
    fn top_destinations_excludes_source() {
        let model = trained_ring(16);
        let top = top_destinations(&model, 4, RelationTypeId(0), 15);
        assert!(top.iter().all(|n| n.entity != 4));
    }

    #[test]
    fn a_nan_row_orders_like_topk_instead_of_panicking() {
        let mut model = trained_ring(16);
        model.embeddings[0].row_mut(9).fill(f32::NAN);
        for sim in [SimilarityKind::Dot, SimilarityKind::Cosine] {
            model.similarity = sim;
            let all: Vec<u32> = (0..16).filter(|&d| d != 4).collect();
            let scores = model.score_against_destinations(4, RelationTypeId(0), &all);
            let mut want = TopK::new(5);
            for (&d, &s) in all.iter().zip(&scores) {
                want.push(d as usize, s);
            }
            let want: Vec<(u32, u32)> = want
                .into_sorted()
                .iter()
                .map(|s| (s.index as u32, s.score.to_bits()))
                .collect();
            let got: Vec<(u32, u32)> = top_destinations(&model, 4, RelationTypeId(0), 5)
                .iter()
                .map(|n| (n.entity, n.score.to_bits()))
                .collect();
            assert_eq!(got, want, "{sim:?}");
            // the NaN query itself: every score is NaN, ties go to the lower id
            let nn = nearest_entities(&model, 0, 9, 3);
            assert!(nn.iter().all(|n| n.score.is_nan()), "{nn:?}");
            assert_eq!(nn.iter().map(|n| n.entity).collect::<Vec<_>>(), [0, 1, 2]);
        }
    }
}
