//! Bucket iteration orders.
//!
//! "For each edge bucket `(p1, p2)` except the first, it is important that
//! an edge bucket `(p1, *)` or `(*, p2)` was trained in a previous
//! iteration" (§4.1) — otherwise embeddings in different partitions are
//! not aligned in the same space. The paper's *inside-out* ordering
//! satisfies this invariant while also minimizing partition swaps to disk
//! under an implicit two-slot buffer. Marius (arXiv:2101.08358) showed
//! that with a capacity-`B` partition buffer, an ordering optimized for
//! *cache reuse* loads fewer partitions than one optimized for swap
//! count, so this module is trait-shaped: every ordering is an
//! [`OrderingStrategy`] that produces the epoch sequence for a given
//! `(grid, buffer capacity)` pair. Implemented strategies are inside-out
//! plus the ablation alternatives (random, row-major, swap-greedy
//! chained), a Hilbert space-filling curve, and a BETA-like greedy-reuse
//! order that scores candidate buckets by how many of their partitions
//! are already resident in the simulated buffer. An invariant checker,
//! the classic two-slot swap counter, and a capacity-aware load counter
//! round out the module.

use crate::bucket::BucketId;
use crate::ids::Partition;
use pbg_tensor::rng::Xoshiro256;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;

/// Buffer capacity assumed by the classic pairwise-swap training loop:
/// one source slot, one destination slot.
pub const DEFAULT_BUFFER_PARTITIONS: usize = 2;

/// Strategy for ordering the `P_src × P_dst` bucket grid within an epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum BucketOrdering {
    /// The paper's ordering (Figure 1, right): start at `(0, 0)` and grow
    /// the trained-partition set one partition at a time, sweeping each
    /// new partition's row and column. Always satisfies the invariant and
    /// reuses one resident partition between consecutive buckets.
    #[default]
    InsideOut,
    /// Row-major `(0,0), (0,1), …` — satisfies the invariant but swaps
    /// more.
    RowMajor,
    /// Uniformly random permutation — violates the invariant with high
    /// probability; the "bad" arm of the ordering ablation.
    Random,
    /// Greedy chain: each next bucket shares a partition with the previous
    /// one when possible — satisfies the invariant, used to separate
    /// "invariant satisfied" from "inside-out specifically" in ablations.
    Chained,
    /// Hilbert space-filling curve over the bucket grid: consecutive
    /// buckets on the curve differ in exactly one coordinate, so the walk
    /// is local in both partitions at once. Ignores buffer capacity.
    Hilbert,
    /// BETA-like greedy reuse (Marius, arXiv:2101.08358): each next
    /// bucket is the one needing the fewest partition loads given a
    /// simulated LRU buffer of capacity `B`, preferring
    /// invariant-satisfying candidates. The only buffer-aware ordering.
    GreedyReuse,
}

impl BucketOrdering {
    /// Produces the epoch's bucket sequence for a `src_parts × dst_parts`
    /// grid, assuming the classic two-slot buffer
    /// ([`DEFAULT_BUFFER_PARTITIONS`]).
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn order(self, src_parts: u32, dst_parts: u32, rng: &mut Xoshiro256) -> Vec<BucketId> {
        self.order_with_buffer(src_parts, dst_parts, DEFAULT_BUFFER_PARTITIONS, rng)
    }

    /// Produces the epoch's bucket sequence for a `src_parts × dst_parts`
    /// grid against a partition buffer of capacity `buffer` (only
    /// [`BucketOrdering::GreedyReuse`] is buffer-aware; the rest ignore
    /// it).
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn order_with_buffer(
        self,
        src_parts: u32,
        dst_parts: u32,
        buffer: usize,
        rng: &mut Xoshiro256,
    ) -> Vec<BucketId> {
        assert!(src_parts > 0 && dst_parts > 0, "empty bucket grid");
        self.strategy().order(src_parts, dst_parts, buffer, rng)
    }

    /// The strategy object implementing this ordering.
    pub fn strategy(self) -> &'static dyn OrderingStrategy {
        match self {
            BucketOrdering::InsideOut => &InsideOutOrder,
            BucketOrdering::RowMajor => &RowMajorOrder,
            BucketOrdering::Random => &RandomOrder,
            BucketOrdering::Chained => &ChainedOrder,
            BucketOrdering::Hilbert => &HilbertOrder,
            BucketOrdering::GreedyReuse => &GreedyReuseOrder,
        }
    }

    /// All orderings, for ablations and exhaustive tests.
    pub fn all() -> [BucketOrdering; 6] {
        [
            BucketOrdering::InsideOut,
            BucketOrdering::RowMajor,
            BucketOrdering::Random,
            BucketOrdering::Chained,
            BucketOrdering::Hilbert,
            BucketOrdering::GreedyReuse,
        ]
    }

    /// Kebab-case name used by CLI flags and reports.
    pub fn name(self) -> &'static str {
        match self {
            BucketOrdering::InsideOut => "inside-out",
            BucketOrdering::RowMajor => "row-major",
            BucketOrdering::Random => "random",
            BucketOrdering::Chained => "chained",
            BucketOrdering::Hilbert => "hilbert",
            BucketOrdering::GreedyReuse => "greedy-reuse",
        }
    }
}

impl std::str::FromStr for BucketOrdering {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().replace('_', "-").as_str() {
            "inside-out" | "insideout" => Ok(BucketOrdering::InsideOut),
            "row-major" | "rowmajor" => Ok(BucketOrdering::RowMajor),
            "random" => Ok(BucketOrdering::Random),
            "chained" => Ok(BucketOrdering::Chained),
            "hilbert" => Ok(BucketOrdering::Hilbert),
            "greedy-reuse" | "greedyreuse" | "beta" => Ok(BucketOrdering::GreedyReuse),
            other => Err(format!(
                "unknown bucket ordering {other:?} (expected one of: inside-out, \
                 row-major, random, chained, hilbert, greedy-reuse)"
            )),
        }
    }
}

/// One bucket-ordering policy: maps a grid plus a buffer capacity to the
/// epoch's bucket sequence. Implementations must emit every bucket of the
/// grid exactly once.
pub trait OrderingStrategy {
    /// Produces the epoch's bucket sequence. `buffer` is the partition
    /// buffer capacity the trainer will run with; orderings that do not
    /// model residency may ignore it. `rng` is consumed only by
    /// randomized orderings.
    fn order(
        &self,
        src_parts: u32,
        dst_parts: u32,
        buffer: usize,
        rng: &mut Xoshiro256,
    ) -> Vec<BucketId>;
}

/// [`BucketOrdering::InsideOut`] as a strategy object.
pub struct InsideOutOrder;

impl OrderingStrategy for InsideOutOrder {
    fn order(&self, src_parts: u32, dst_parts: u32, _: usize, _: &mut Xoshiro256) -> Vec<BucketId> {
        inside_out(src_parts, dst_parts)
    }
}

/// [`BucketOrdering::RowMajor`] as a strategy object.
pub struct RowMajorOrder;

impl OrderingStrategy for RowMajorOrder {
    fn order(&self, src_parts: u32, dst_parts: u32, _: usize, _: &mut Xoshiro256) -> Vec<BucketId> {
        row_major(src_parts, dst_parts)
    }
}

/// [`BucketOrdering::Random`] as a strategy object.
pub struct RandomOrder;

impl OrderingStrategy for RandomOrder {
    fn order(
        &self,
        src_parts: u32,
        dst_parts: u32,
        _: usize,
        rng: &mut Xoshiro256,
    ) -> Vec<BucketId> {
        let mut ids = row_major(src_parts, dst_parts);
        for i in (1..ids.len()).rev() {
            let j = rng.gen_index(i + 1);
            ids.swap(i, j);
        }
        ids
    }
}

/// [`BucketOrdering::Chained`] as a strategy object.
pub struct ChainedOrder;

impl OrderingStrategy for ChainedOrder {
    fn order(&self, src_parts: u32, dst_parts: u32, _: usize, _: &mut Xoshiro256) -> Vec<BucketId> {
        chained(src_parts, dst_parts)
    }
}

/// [`BucketOrdering::Hilbert`] as a strategy object.
pub struct HilbertOrder;

impl OrderingStrategy for HilbertOrder {
    fn order(&self, src_parts: u32, dst_parts: u32, _: usize, _: &mut Xoshiro256) -> Vec<BucketId> {
        hilbert(src_parts, dst_parts)
    }
}

/// [`BucketOrdering::GreedyReuse`] as a strategy object.
pub struct GreedyReuseOrder;

impl OrderingStrategy for GreedyReuseOrder {
    fn order(
        &self,
        src_parts: u32,
        dst_parts: u32,
        buffer: usize,
        _: &mut Xoshiro256,
    ) -> Vec<BucketId> {
        greedy_reuse(src_parts, dst_parts, buffer)
    }
}

fn row_major(src_parts: u32, dst_parts: u32) -> Vec<BucketId> {
    let mut out = Vec::with_capacity((src_parts * dst_parts) as usize);
    for s in 0..src_parts {
        for d in 0..dst_parts {
            out.push(BucketId::new(s, d));
        }
    }
    out
}

/// Inside-out: for k = 0..max(P_s, P_d), visit the new column top-to-bottom
/// then the new row right-to-left:
/// `(0,0); (0,1),(1,1),(1,0); (0,2),(1,2),(2,2),(2,1),(2,0); …`
/// Every bucket (after the first) shares a partition index with an earlier
/// bucket, and consecutive buckets share a partition (minimal swapping).
fn inside_out(src_parts: u32, dst_parts: u32) -> Vec<BucketId> {
    let k_max = src_parts.max(dst_parts);
    let mut out = Vec::with_capacity((src_parts * dst_parts) as usize);
    for k in 0..k_max {
        // new column k (if it exists): rows 0..=k top-down
        if k < dst_parts {
            for s in 0..=k.min(src_parts - 1) {
                out.push(BucketId::new(s, k));
            }
        }
        // new row k (if it exists): columns k-1..0 right-to-left
        if k < src_parts {
            for d in (0..k.min(dst_parts)).rev() {
                out.push(BucketId::new(k, d));
            }
        }
    }
    out
}

/// Greedy chain: repeatedly pick an unvisited bucket sharing a partition
/// with the previous bucket (preferring ones that keep one side fixed);
/// fall back to any bucket sharing a partition with the *trained set* to
/// preserve the invariant.
fn chained(src_parts: u32, dst_parts: u32) -> Vec<BucketId> {
    let all = row_major(src_parts, dst_parts);
    let mut remaining: HashSet<BucketId> = all.iter().copied().collect();
    let mut out = Vec::with_capacity(all.len());
    let mut trained_src: HashSet<Partition> = HashSet::new();
    let mut trained_dst: HashSet<Partition> = HashSet::new();
    let mut current = BucketId::new(0u32, 0u32);
    while !remaining.is_empty() {
        let next = if out.is_empty() {
            BucketId::new(0u32, 0u32)
        } else {
            // prefer: share a partition with `current`; fallback: share
            // with trained set; last resort: lexicographically smallest.
            let mut candidates: Vec<BucketId> = remaining
                .iter()
                .copied()
                .filter(|b| b.conflicts_with(&current))
                .collect();
            if candidates.is_empty() {
                candidates = remaining
                    .iter()
                    .copied()
                    .filter(|b| trained_src.contains(&b.src) || trained_dst.contains(&b.dst))
                    .collect();
            }
            if candidates.is_empty() {
                candidates = remaining.iter().copied().collect();
            }
            candidates.sort();
            candidates[0]
        };
        remaining.remove(&next);
        trained_src.insert(next.src);
        trained_dst.insert(next.dst);
        out.push(next);
        current = next;
    }
    out
}

/// Hilbert curve over the bucket grid: pad the grid to the enclosing
/// power-of-two square, walk the curve from `(0, 0)`, and keep the cells
/// that fall inside the real grid. Consecutive cells on the full curve
/// differ in one coordinate, so the order is local in both partition
/// dimensions — a buffer-oblivious locality heuristic between row-major
/// and greedy reuse.
fn hilbert(src_parts: u32, dst_parts: u32) -> Vec<BucketId> {
    let side = src_parts.max(dst_parts).next_power_of_two() as u64;
    let mut out = Vec::with_capacity((src_parts * dst_parts) as usize);
    for d in 0..side * side {
        let (s, t) = hilbert_d2xy(side, d);
        if s < src_parts && t < dst_parts {
            out.push(BucketId::new(s, t));
        }
    }
    out
}

/// Curve distance → `(x, y)` on a `side × side` Hilbert curve
/// (`side` must be a power of two). Standard bit-twiddling construction.
fn hilbert_d2xy(side: u64, d: u64) -> (u32, u32) {
    let (mut x, mut y) = (0u64, 0u64);
    let mut t = d;
    let mut s = 1u64;
    while s < side {
        let rx = 1 & (t / 2);
        let ry = 1 & (t ^ rx);
        if ry == 0 {
            if rx == 1 {
                x = s - 1 - x;
                y = s - 1 - y;
            }
            std::mem::swap(&mut x, &mut y);
        }
        x += s * rx;
        y += s * ry;
        t /= 4;
        s *= 2;
    }
    (x as u32, y as u32)
}

/// BETA-like greedy reuse: simulate an LRU partition buffer of capacity
/// `buffer` while building the order; each next bucket is the unvisited
/// one needing the fewest loads (most resident partitions), restricted to
/// invariant-satisfying candidates whenever any exist. Ties break to the
/// smallest bucket id, so the order is deterministic.
fn greedy_reuse(src_parts: u32, dst_parts: u32, buffer: usize) -> Vec<BucketId> {
    let capacity = buffer.max(DEFAULT_BUFFER_PARTITIONS);
    let all = row_major(src_parts, dst_parts);
    let mut remaining: Vec<BucketId> = all.clone();
    let mut out = Vec::with_capacity(all.len());
    let mut trained_src: HashSet<Partition> = HashSet::new();
    let mut trained_dst: HashSet<Partition> = HashSet::new();
    // LRU queue: least recently used at the front.
    let mut lru: Vec<Partition> = Vec::new();
    while !remaining.is_empty() {
        let resident: HashSet<Partition> = lru.iter().copied().collect();
        let next = if out.is_empty() {
            BucketId::new(0u32, 0u32)
        } else {
            let invariant_ok: Vec<BucketId> = remaining
                .iter()
                .copied()
                .filter(|b| trained_src.contains(&b.src) || trained_dst.contains(&b.dst))
                .collect();
            let pool = if invariant_ok.is_empty() {
                &remaining
            } else {
                &invariant_ok
            };
            pick_most_resident(pool, &resident).expect("pool is non-empty")
        };
        remaining.retain(|&b| b != next);
        trained_src.insert(next.src);
        trained_dst.insert(next.dst);
        for p in next.partitions() {
            lru.retain(|&q| q != p);
            lru.push(p);
        }
        while lru.len() > capacity {
            lru.remove(0);
        }
        out.push(next);
    }
    out
}

/// Picks the candidate with the most partitions already in `resident`
/// (fewest loads), ties broken by the smallest bucket id. The scoring
/// core of [`BucketOrdering::GreedyReuse`], shared with distsim's
/// lock-server scheduling. Returns `None` only for an empty slice.
pub fn pick_most_resident(
    candidates: &[BucketId],
    resident: &HashSet<Partition>,
) -> Option<BucketId> {
    candidates
        .iter()
        .copied()
        .map(|b| {
            let hits = b.partitions().filter(|p| resident.contains(p)).count();
            (std::cmp::Reverse(hits), b)
        })
        .min()
        .map(|(_, b)| b)
}

/// Picks the first candidate whose source partition matches `prev`'s
/// source or whose destination matches `prev`'s destination, else the
/// first candidate — the classic pairwise-swap affinity rule used by the
/// lock server and the single-machine chained walk. `candidates` should
/// be sorted. Returns `None` only for an empty slice.
pub fn pick_shared_side(candidates: &[BucketId], prev: Option<BucketId>) -> Option<BucketId> {
    match prev {
        Some(p) => candidates
            .iter()
            .copied()
            .find(|b| b.src == p.src || b.dst == p.dst)
            .or_else(|| candidates.first().copied()),
        None => candidates.first().copied(),
    }
}

/// Counts buckets (beyond the first) violating the alignment invariant:
/// neither their source partition has appeared as a source, nor their
/// destination partition as a destination, in any earlier bucket.
pub fn invariant_violations(order: &[BucketId]) -> usize {
    let mut seen_src: HashSet<Partition> = HashSet::new();
    let mut seen_dst: HashSet<Partition> = HashSet::new();
    let mut violations = 0;
    for (i, b) in order.iter().enumerate() {
        if i > 0 && !seen_src.contains(&b.src) && !seen_dst.contains(&b.dst) {
            violations += 1;
        }
        seen_src.insert(b.src);
        seen_dst.insert(b.dst);
    }
    violations
}

/// Counts partition loads ("swaps from disk") for an order, assuming two
/// resident partition slots: one for the source side, one for the
/// destination side. A load is counted whenever the needed partition is
/// not already resident on its side.
pub fn swap_count(order: &[BucketId]) -> usize {
    let mut resident_src: Option<Partition> = None;
    let mut resident_dst: Option<Partition> = None;
    let mut swaps = 0;
    for b in order {
        if resident_src != Some(b.src) {
            swaps += 1;
            resident_src = Some(b.src);
        }
        if resident_dst != Some(b.dst) {
            swaps += 1;
            resident_dst = Some(b.dst);
        }
    }
    swaps
}

/// Counts partition loads for an order under an LRU buffer of `capacity`
/// partitions (side-agnostic: any resident partition serves either side
/// of a bucket). This is the generalization of [`swap_count`] to a
/// capacity-`B` buffer and the figure of merit for buffer-aware
/// orderings.
pub fn load_count(order: &[BucketId], capacity: usize) -> usize {
    let capacity = capacity.max(DEFAULT_BUFFER_PARTITIONS);
    let mut lru: Vec<Partition> = Vec::new();
    let mut loads = 0;
    for b in order {
        for p in b.partitions() {
            if let Some(i) = lru.iter().position(|&q| q == p) {
                lru.remove(i);
            } else {
                loads += 1;
            }
            lru.push(p);
        }
        while lru.len() > capacity {
            lru.remove(0);
        }
    }
    loads
}

#[cfg(test)]
mod tests {
    use super::*;

    fn covers_grid(order: &[BucketId], p: u32) -> bool {
        let set: HashSet<BucketId> = order.iter().copied().collect();
        set.len() == (p * p) as usize && order.len() == (p * p) as usize
    }

    #[test]
    fn inside_out_small_sequence_matches_figure() {
        let mut rng = Xoshiro256::seed_from_u64(0);
        let order = BucketOrdering::InsideOut.order(3, 3, &mut rng);
        let expect: Vec<BucketId> = [
            (0, 0),
            (0, 1),
            (1, 1),
            (1, 0),
            (0, 2),
            (1, 2),
            (2, 2),
            (2, 1),
            (2, 0),
        ]
        .iter()
        .map(|&(s, d)| BucketId::new(s as u32, d as u32))
        .collect();
        assert_eq!(order, expect);
    }

    #[test]
    fn all_orderings_cover_grid() {
        let mut rng = Xoshiro256::seed_from_u64(1);
        for p in [1u32, 2, 3, 4, 7] {
            for ord in BucketOrdering::all() {
                let order = ord.order(p, p, &mut rng);
                assert!(covers_grid(&order, p), "{ord:?} P={p} misses buckets");
            }
        }
    }

    #[test]
    fn all_orderings_cover_grid_at_larger_buffers() {
        let mut rng = Xoshiro256::seed_from_u64(6);
        for p in [2u32, 4, 8] {
            for b in [2usize, 3, 4, 8] {
                for ord in BucketOrdering::all() {
                    let order = ord.order_with_buffer(p, p, b, &mut rng);
                    assert!(covers_grid(&order, p), "{ord:?} P={p} B={b} misses buckets");
                }
            }
        }
    }

    #[test]
    fn inside_out_satisfies_invariant() {
        let mut rng = Xoshiro256::seed_from_u64(2);
        for p in [2u32, 4, 8, 16] {
            let order = BucketOrdering::InsideOut.order(p, p, &mut rng);
            assert_eq!(invariant_violations(&order), 0, "P={p}");
        }
    }

    #[test]
    fn row_major_and_chained_satisfy_invariant() {
        let mut rng = Xoshiro256::seed_from_u64(3);
        for p in [2u32, 4, 8] {
            for ord in [BucketOrdering::RowMajor, BucketOrdering::Chained] {
                let order = ord.order(p, p, &mut rng);
                assert_eq!(invariant_violations(&order), 0, "{ord:?} P={p}");
            }
        }
    }

    #[test]
    fn greedy_reuse_satisfies_invariant() {
        let mut rng = Xoshiro256::seed_from_u64(7);
        for p in [2u32, 4, 8, 16] {
            for b in [2usize, 4, 8] {
                let order = BucketOrdering::GreedyReuse.order_with_buffer(p, p, b, &mut rng);
                assert_eq!(invariant_violations(&order), 0, "P={p} B={b}");
            }
        }
    }

    #[test]
    fn random_usually_violates_invariant() {
        // Over several seeds and P=8, a random order should violate at
        // least once (probability of accidental validity is tiny).
        let mut total = 0;
        for seed in 0..10 {
            let mut rng = Xoshiro256::seed_from_u64(seed);
            let order = BucketOrdering::Random.order(8, 8, &mut rng);
            total += invariant_violations(&order);
        }
        assert!(total > 0, "random ordering never violated the invariant");
    }

    #[test]
    fn inside_out_swaps_fewer_than_row_major() {
        let mut rng = Xoshiro256::seed_from_u64(4);
        for p in [4u32, 8, 16] {
            let io = swap_count(&BucketOrdering::InsideOut.order(p, p, &mut rng));
            let rm = swap_count(&BucketOrdering::RowMajor.order(p, p, &mut rng));
            assert!(io < rm, "P={p}: inside-out {io} vs row-major {rm}");
        }
    }

    #[test]
    fn greedy_reuse_loads_fewer_with_bigger_buffer() {
        let mut rng = Xoshiro256::seed_from_u64(8);
        for p in [8u32, 16] {
            let base = load_count(
                &BucketOrdering::InsideOut.order(p, p, &mut rng),
                DEFAULT_BUFFER_PARTITIONS,
            );
            let big = load_count(
                &BucketOrdering::GreedyReuse.order_with_buffer(p, p, 4, &mut rng),
                4,
            );
            assert!(
                (big as f64) < 0.8 * base as f64,
                "P={p}: greedy-reuse B=4 loads {big}, inside-out B=2 loads {base}"
            );
        }
    }

    #[test]
    fn load_count_at_capacity_two_matches_lru_swaps() {
        // At B=2 the LRU buffer holds exactly the previous bucket's
        // partitions, so inside-out (which chains consecutive buckets)
        // reloads only what the two-slot counter would for P=1.
        let order = [BucketId::new(0u32, 0u32)];
        assert_eq!(load_count(&order, 2), 1, "diagonal bucket is one partition");
        let chain = [BucketId::new(0u32, 0u32), BucketId::new(0u32, 1u32)];
        assert_eq!(load_count(&chain, 2), 2);
    }

    #[test]
    fn rectangular_grids_covered() {
        let mut rng = Xoshiro256::seed_from_u64(5);
        // P buckets when tail is unpartitioned: 4x1 grid
        for ord in BucketOrdering::all() {
            let order = ord.order(4, 1, &mut rng);
            assert_eq!(order.len(), 4, "{ord:?}");
            let set: HashSet<BucketId> = order.iter().copied().collect();
            assert_eq!(set.len(), 4, "{ord:?}");

            let order = ord.order(2, 5, &mut rng);
            assert_eq!(order.len(), 10, "{ord:?}");
            let set: HashSet<BucketId> = order.iter().copied().collect();
            assert_eq!(set.len(), 10, "{ord:?}");
        }
        let order = BucketOrdering::InsideOut.order(4, 1, &mut rng);
        assert_eq!(invariant_violations(&order), 0);
    }

    #[test]
    fn swap_count_single_bucket() {
        let order = [BucketId::new(0u32, 0u32)];
        assert_eq!(swap_count(&order), 2, "initial loads count");
    }

    #[test]
    fn first_bucket_never_violates() {
        assert_eq!(invariant_violations(&[BucketId::new(3u32, 4u32)]), 0);
    }

    #[test]
    fn hilbert_first_bucket_is_origin() {
        let mut rng = Xoshiro256::seed_from_u64(9);
        for p in [2u32, 3, 4, 8] {
            let order = BucketOrdering::Hilbert.order(p, p, &mut rng);
            assert_eq!(order[0], BucketId::new(0u32, 0u32), "P={p}");
        }
    }

    #[test]
    fn hilbert_consecutive_cells_adjacent_on_pow2_grid() {
        let mut rng = Xoshiro256::seed_from_u64(10);
        let order = BucketOrdering::Hilbert.order(8, 8, &mut rng);
        for pair in order.windows(2) {
            let ds = pair[0].src.0.abs_diff(pair[1].src.0);
            let dd = pair[0].dst.0.abs_diff(pair[1].dst.0);
            assert_eq!(ds + dd, 1, "{} -> {} is not a unit step", pair[0], pair[1]);
        }
    }

    #[test]
    fn ordering_names_parse_back() {
        for ord in BucketOrdering::all() {
            let parsed: BucketOrdering = ord.name().parse().unwrap();
            assert_eq!(parsed, ord);
        }
        assert!("nonsense".parse::<BucketOrdering>().is_err());
    }

    #[test]
    fn pick_shared_side_matches_lockserver_rule() {
        let eligible = [
            BucketId::new(1u32, 2u32),
            BucketId::new(2u32, 3u32),
            BucketId::new(3u32, 1u32),
        ];
        // prev (2, 1): shares src with (2,3)
        let prev = Some(BucketId::new(2u32, 1u32));
        assert_eq!(
            pick_shared_side(&eligible, prev),
            Some(BucketId::new(2u32, 3u32))
        );
        // prev (5, 6): nothing shared, falls back to first
        let prev = Some(BucketId::new(5u32, 6u32));
        assert_eq!(
            pick_shared_side(&eligible, prev),
            Some(BucketId::new(1u32, 2u32))
        );
        assert_eq!(
            pick_shared_side(&eligible, None),
            Some(BucketId::new(1u32, 2u32))
        );
        assert_eq!(pick_shared_side(&[], None), None);
    }

    #[test]
    fn pick_most_resident_prefers_cached_partitions() {
        let eligible = [
            BucketId::new(1u32, 2u32),
            BucketId::new(3u32, 4u32),
            BucketId::new(4u32, 3u32),
        ];
        let resident: HashSet<Partition> = [Partition(3), Partition(4)].into_iter().collect();
        assert_eq!(
            pick_most_resident(&eligible, &resident),
            Some(BucketId::new(3u32, 4u32)),
            "fully-resident bucket wins; smallest id breaks the tie"
        );
        assert_eq!(pick_most_resident(&[], &resident), None);
    }
}
