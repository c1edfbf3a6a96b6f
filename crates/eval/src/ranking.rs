//! Ranking metrics: MRR, mean rank, Hits@K.
//!
//! A link-prediction evaluation produces, per test edge, the *rank* of the
//! true edge's score among candidate corruptions (rank 1 = best). The
//! accumulator aggregates ranks into the metrics the paper reports.
//! Ties are handled with the standard "average of optimistic and
//! pessimistic rank" convention used by the knowledge-graph literature.

use serde::{Deserialize, Serialize};

/// Aggregated ranking metrics.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RankingMetrics {
    /// Mean reciprocal rank, in `(0, 1]`.
    pub mrr: f64,
    /// Mean rank, `>= 1`.
    pub mr: f64,
    /// Fraction of ranks `<= 10`.
    pub hits_at_10: f64,
    /// Fraction of ranks `== 1`.
    pub hits_at_1: f64,
    /// Fraction of ranks `<= 50`.
    pub hits_at_50: f64,
    /// Number of ranked edges.
    pub count: usize,
}

/// Streaming accumulator of ranks.
#[derive(Debug, Clone, Default)]
pub struct RankingAccumulator {
    sum_rr: f64,
    sum_rank: f64,
    hits1: usize,
    hits10: usize,
    hits50: usize,
    count: usize,
}

impl RankingAccumulator {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        RankingAccumulator::default()
    }

    /// Records one rank (1-based; may be fractional for ties).
    ///
    /// # Panics
    ///
    /// Panics if `rank < 1`.
    pub fn push(&mut self, rank: f64) {
        assert!(rank >= 1.0, "ranks are 1-based, got {rank}");
        self.sum_rr += 1.0 / rank;
        self.sum_rank += rank;
        if rank <= 1.0 {
            self.hits1 += 1;
        }
        if rank <= 10.0 {
            self.hits10 += 1;
        }
        if rank <= 50.0 {
            self.hits50 += 1;
        }
        self.count += 1;
    }

    /// Computes the rank of `positive_score` among `candidate_scores`
    /// (higher score = better) and records it. Ties take the average rank.
    pub fn push_scores(&mut self, positive_score: f32, candidate_scores: &[f32]) {
        self.push(Self::rank_of(positive_score, candidate_scores));
    }

    /// The rank [`RankingAccumulator::push_scores`] records, for callers
    /// that rank in parallel and push in order.
    pub fn rank_of(positive_score: f32, candidate_scores: &[f32]) -> f64 {
        let (mut better, mut ties) = (0usize, 0usize);
        for &s in candidate_scores {
            better += usize::from(s > positive_score);
            ties += usize::from(s == positive_score);
        }
        better as f64 + 1.0 + ties as f64 / 2.0
    }

    /// Number of recorded ranks.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Merges another accumulator (for per-thread evaluation).
    pub fn merge(&mut self, other: &RankingAccumulator) {
        self.sum_rr += other.sum_rr;
        self.sum_rank += other.sum_rank;
        self.hits1 += other.hits1;
        self.hits10 += other.hits10;
        self.hits50 += other.hits50;
        self.count += other.count;
    }

    /// Finalizes into metrics.
    ///
    /// # Panics
    ///
    /// Panics if no ranks were recorded.
    pub fn finish(&self) -> RankingMetrics {
        assert!(self.count > 0, "no ranks recorded");
        let n = self.count as f64;
        RankingMetrics {
            mrr: self.sum_rr / n,
            mr: self.sum_rank / n,
            hits_at_1: self.hits1 as f64 / n,
            hits_at_10: self.hits10 as f64 / n,
            hits_at_50: self.hits50 as f64 / n,
            count: self.count,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_ranks_give_mrr_one() {
        let mut acc = RankingAccumulator::new();
        for _ in 0..5 {
            acc.push(1.0);
        }
        let m = acc.finish();
        assert_eq!(m.mrr, 1.0);
        assert_eq!(m.mr, 1.0);
        assert_eq!(m.hits_at_10, 1.0);
        assert_eq!(m.hits_at_1, 1.0);
    }

    #[test]
    fn known_mixture() {
        let mut acc = RankingAccumulator::new();
        acc.push(1.0);
        acc.push(4.0);
        let m = acc.finish();
        assert!((m.mrr - (1.0 + 0.25) / 2.0).abs() < 1e-12);
        assert!((m.mr - 2.5).abs() < 1e-12);
        assert_eq!(m.hits_at_10, 1.0);
        assert_eq!(m.hits_at_1, 0.5);
    }

    #[test]
    fn push_scores_counts_better_candidates() {
        let mut acc = RankingAccumulator::new();
        // two candidates beat 0.5 -> rank 3
        acc.push_scores(0.5, &[0.9, 0.7, 0.1, 0.2]);
        let m = acc.finish();
        assert_eq!(m.mr, 3.0);
    }

    #[test]
    fn ties_take_average_rank() {
        let mut acc = RankingAccumulator::new();
        // one better, two tied -> rank = 2 + 1 = 3? avg convention:
        // better(1) + 1 + ties(2)/2 = 3.0
        acc.push_scores(0.5, &[0.9, 0.5, 0.5]);
        assert_eq!(acc.finish().mr, 3.0);
    }

    #[test]
    fn merge_equals_sequential() {
        let mut a = RankingAccumulator::new();
        a.push(2.0);
        let mut b = RankingAccumulator::new();
        b.push(5.0);
        a.merge(&b);
        let m = a.finish();
        assert_eq!(m.count, 2);
        assert!((m.mr - 3.5).abs() < 1e-12);
    }

    #[test]
    fn hits_at_50_boundary() {
        let mut acc = RankingAccumulator::new();
        acc.push(50.0);
        acc.push(51.0);
        let m = acc.finish();
        assert_eq!(m.hits_at_50, 0.5);
        assert_eq!(m.hits_at_10, 0.0);
    }

    #[test]
    #[should_panic(expected = "no ranks")]
    fn empty_finish_panics() {
        let _ = RankingAccumulator::new().finish();
    }

    #[test]
    #[should_panic(expected = "1-based")]
    fn zero_rank_panics() {
        RankingAccumulator::new().push(0.5);
    }
}
