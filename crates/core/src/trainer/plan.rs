//! Epoch swap planning: precomputed acquire / prefetch / release sets.
//!
//! The bucket order for an epoch is known up front, so the partition
//! traffic it implies can be planned before any training happens instead
//! of being re-derived ad hoc with set differences inside the epoch loop.
//! [`EpochPlan`] replays the order through a [`PartitionBuffer`] of
//! capacity `B` and emits one [`EpochStep`] per bucket: which partitions
//! must be acquired before training, which can be prefetched *during*
//! training (the buffer looks up to `B - 1` buckets ahead, so I/O
//! overlaps compute — §4.1's swap pipeline), and which the buffer evicts
//! afterwards. At the default `B = 2` this degenerates to the paper's
//! pairwise swap schedule.
//!
//! The incremental flavor of the same bookkeeping is [`SwapPlanner`],
//! used where the bucket sequence is not known in advance (the cluster
//! simulator's machines discover their next bucket from the lock
//! server). Both the single-machine [`crate::trainer::Trainer`] and
//! `distsim`'s cluster run on this module, so swap planning lives in
//! exactly one place.

use crate::buffer::{PartitionBuffer, DEFAULT_CAPACITY};
use crate::storage::PartitionKey;
use pbg_graph::bucket::BucketId;
use std::collections::{HashMap, HashSet};

/// One step of an [`EpochPlan`]: a bucket plus its partition traffic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EpochStep {
    /// The bucket trained at this step.
    pub bucket: BucketId,
    /// Every partition this bucket touches (sorted).
    pub needed: Vec<PartitionKey>,
    /// Partitions not resident before this step; they must be loaded
    /// before training starts (sorted).
    pub acquire: Vec<PartitionKey>,
    /// Partitions a later step acquires: safe to load in the background
    /// while this bucket trains (sorted, disjoint from `needed` by
    /// construction). With a capacity-`B` buffer the plan announces each
    /// future acquire up to `B - 1` steps early.
    pub prefetch: Vec<PartitionKey>,
    /// How many steps ahead of its acquire each `prefetch` entry is
    /// issued (parallel to `prefetch`, each `>= 1`) — the prefetch-depth
    /// telemetry histogram observes these.
    pub prefetch_depth: Vec<u64>,
    /// Partitions the buffer evicts after this step trains: written back
    /// (if dirty) and dropped from residency (sorted).
    pub release: Vec<PartitionKey>,
}

/// A full epoch's worth of [`EpochStep`]s for a fixed bucket order and
/// buffer capacity.
///
/// Invariants (checked by the property tests in `tests/properties.rs`):
///
/// - `prefetch ∩ needed = ∅` at every step, so background I/O never
///   touches a partition the current bucket is training;
/// - the resident set after the final step is empty (every acquired
///   partition is eventually released);
/// - replaying the plan's acquires and releases against a fresh
///   [`PartitionBuffer`] of the same capacity reproduces the plan's load
///   count exactly — the plan *is* the buffer, unrolled.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EpochPlan {
    steps: Vec<EpochStep>,
}

impl EpochPlan {
    /// Plans the epoch for `order` under the paper's two-slot buffer,
    /// with `needed` mapping each bucket to the partitions it touches
    /// (see [`crate::trainer::bucket::needed_keys`]).
    pub fn new(order: &[BucketId], needed: impl Fn(BucketId) -> HashSet<PartitionKey>) -> Self {
        EpochPlan::with_capacity(order, needed, DEFAULT_CAPACITY)
    }

    /// Plans the epoch for `order` against a [`PartitionBuffer`] of
    /// `capacity` partition slots. Evictions are lazy LRU (the buffer
    /// decides), and prefetches are announced up to `capacity - 1` steps
    /// before their acquire — never earlier than the step after the
    /// key's previous eviction, so a prefetch can never race its own
    /// write-back.
    pub fn with_capacity(
        order: &[BucketId],
        needed: impl Fn(BucketId) -> HashSet<PartitionKey>,
        capacity: usize,
    ) -> Self {
        let needed_sets: Vec<HashSet<PartitionKey>> = order.iter().map(|&b| needed(b)).collect();
        let n = order.len();
        let mut buffer = PartitionBuffer::new(capacity);
        let mut acquires: Vec<Vec<PartitionKey>> = vec![Vec::new(); n];
        let mut releases: Vec<Vec<PartitionKey>> = vec![Vec::new(); n];
        for i in 0..n {
            let t = buffer.request(&needed_sets[i]);
            acquires[i] = t.load;
            if i > 0 {
                // evictions requested to fit bucket i execute after
                // bucket i-1 trains
                releases[i - 1] = t.evict;
            } else {
                debug_assert!(t.evict.is_empty(), "first request cannot evict");
            }
        }
        if n > 0 {
            releases[n - 1] = buffer.flush();
        }
        let lookahead = buffer.capacity() - 1;
        let mut prefetches: Vec<Vec<(PartitionKey, u64)>> = vec![Vec::new(); n];
        let mut last_release: HashMap<PartitionKey, usize> = HashMap::new();
        for k in 0..n {
            for &key in &acquires[k] {
                if k > 0 {
                    let earliest = last_release.get(&key).map_or(0, |&j| j + 1);
                    let issue = earliest.max(k.saturating_sub(lookahead));
                    if issue < k {
                        prefetches[issue].push((key, (k - issue) as u64));
                    }
                }
            }
            for &key in &releases[k] {
                last_release.insert(key, k);
            }
        }
        let steps = order
            .iter()
            .enumerate()
            .map(|(i, &bucket)| {
                let mut pf = std::mem::take(&mut prefetches[i]);
                pf.sort_unstable();
                EpochStep {
                    bucket,
                    needed: sorted(needed_sets[i].iter().copied()),
                    acquire: std::mem::take(&mut acquires[i]),
                    prefetch: pf.iter().map(|&(k, _)| k).collect(),
                    prefetch_depth: pf.iter().map(|&(_, d)| d).collect(),
                    release: std::mem::take(&mut releases[i]),
                }
            })
            .collect();
        EpochPlan { steps }
    }

    /// The planned steps, in training order.
    pub fn steps(&self) -> &[EpochStep] {
        &self.steps
    }

    /// Number of steps (buckets) in the plan.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// `true` for an empty plan.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Total partition loads the plan implies (acquires across all
    /// steps) — the swap-in count a cold store will observe.
    pub fn total_acquires(&self) -> usize {
        self.steps.iter().map(|s| s.acquire.len()).sum()
    }
}

/// The acquire/release delta for one step of a [`SwapPlanner`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SwapTransition {
    /// Partitions to load: needed now, not resident (sorted).
    pub acquire: Vec<PartitionKey>,
    /// Partitions the buffer evicts: resident, not needed, over
    /// capacity (sorted).
    pub release: Vec<PartitionKey>,
}

/// Incremental swap planning over an evolving resident set — a
/// [`PartitionBuffer`] fed one bucket at a time.
///
/// Feed it each bucket's needed set as the bucket is discovered;
/// [`SwapPlanner::step`] returns what to load and what the buffer
/// evicts. This is the online counterpart of [`EpochPlan`] for consumers
/// that learn their bucket sequence one step at a time (the cluster
/// simulator's machines).
///
/// Residency is lazy: partitions stay buffered until capacity forces
/// them out. Callers whose residency implies *exclusive ownership* of
/// unlocked state (the networked rank's fenced checkouts) must call
/// [`SwapPlanner::evict_unneeded`] after each step to restore the
/// classic swap-everything-unneeded behavior.
#[derive(Debug, Clone)]
pub struct SwapPlanner {
    buffer: PartitionBuffer,
}

impl SwapPlanner {
    /// Creates a planner with the paper's two-slot buffer.
    pub fn new() -> Self {
        SwapPlanner::with_capacity(DEFAULT_CAPACITY)
    }

    /// Creates a planner over a buffer of `capacity` partition slots.
    pub fn with_capacity(capacity: usize) -> Self {
        SwapPlanner {
            buffer: PartitionBuffer::new(capacity),
        }
    }

    /// The underlying buffer capacity.
    pub fn capacity(&self) -> usize {
        self.buffer.capacity()
    }

    /// The partitions currently planned as resident (LRU first).
    pub fn resident(&self) -> &[PartitionKey] {
        self.buffer.resident()
    }

    /// Total loads planned since creation.
    pub fn loads(&self) -> u64 {
        self.buffer.loads()
    }

    /// Advances to a bucket needing `needed`; returns the load/evict
    /// delta decided by the buffer.
    pub fn step(&mut self, needed: &HashSet<PartitionKey>) -> SwapTransition {
        let t = self.buffer.request(needed);
        SwapTransition {
            acquire: t.load,
            release: t.evict,
        }
    }

    /// Evicts every resident partition not in `needed`, regardless of
    /// capacity; returns them sorted. Restores eager pairwise-swap
    /// semantics for callers that cannot cache partitions they do not
    /// hold locks on.
    pub fn evict_unneeded(&mut self, needed: &HashSet<PartitionKey>) -> Vec<PartitionKey> {
        let extra: Vec<PartitionKey> = self
            .buffer
            .resident()
            .iter()
            .copied()
            .filter(|k| !needed.contains(k))
            .collect();
        self.buffer.forget(&extra);
        sorted(extra)
    }

    /// Drops `keys` from the resident set without a full transition
    /// (used when a caller releases early, e.g. at the end of a pass).
    pub fn forget(&mut self, keys: &[PartitionKey]) {
        self.buffer.forget(keys);
    }

    /// Releases everything still resident (end of epoch / lock wait).
    pub fn finish(&mut self) -> Vec<PartitionKey> {
        self.buffer.flush()
    }
}

impl Default for SwapPlanner {
    fn default() -> Self {
        SwapPlanner::new()
    }
}

fn sorted(keys: impl IntoIterator<Item = PartitionKey>) -> Vec<PartitionKey> {
    let mut v: Vec<PartitionKey> = keys.into_iter().collect();
    v.sort_unstable();
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(p: u32) -> PartitionKey {
        PartitionKey::new(0u32, p)
    }

    /// needed-set function for a homogeneous P×P grid: {src, dst}.
    fn grid_needed(b: BucketId) -> HashSet<PartitionKey> {
        [key(b.src.0), key(b.dst.0)].into_iter().collect()
    }

    fn row_major(p: u32) -> Vec<BucketId> {
        (0..p)
            .flat_map(|s| (0..p).map(move |d| BucketId::new(s, d)))
            .collect()
    }

    #[test]
    fn plan_first_step_acquires_everything_it_needs() {
        let plan = EpochPlan::new(&row_major(3), grid_needed);
        let first = &plan.steps()[0];
        assert_eq!(first.acquire, first.needed);
    }

    #[test]
    fn plan_prefetch_is_disjoint_from_current_bucket() {
        for capacity in [2, 3, 4, 8] {
            let plan = EpochPlan::with_capacity(&row_major(4), grid_needed, capacity);
            for step in plan.steps() {
                for k in &step.prefetch {
                    assert!(
                        !step.needed.contains(k),
                        "B={capacity}: prefetch {k:?} collides with bucket {} partitions",
                        step.bucket
                    );
                }
            }
        }
    }

    #[test]
    fn plan_releases_everything_by_the_end() {
        for capacity in [2, 3, 4, 8] {
            let plan = EpochPlan::with_capacity(&row_major(3), grid_needed, capacity);
            let mut resident: HashSet<PartitionKey> = HashSet::new();
            for step in plan.steps() {
                for &k in &step.acquire {
                    assert!(resident.insert(k), "{k:?} acquired while resident");
                }
                for &k in &step.needed {
                    assert!(resident.contains(&k), "{k:?} needed but not resident");
                }
                for &k in &step.release {
                    assert!(resident.remove(&k), "{k:?} released but not resident");
                }
            }
            assert!(resident.is_empty(), "B={capacity} leaked: {resident:?}");
        }
    }

    #[test]
    fn plan_prefetch_matches_next_acquire() {
        // at B=2 the lookahead is one bucket: whatever step i prefetches
        // is exactly what step i+1 acquires
        let plan = EpochPlan::new(&row_major(4), grid_needed);
        for pair in plan.steps().windows(2) {
            assert_eq!(
                pair[0].prefetch, pair[1].acquire,
                "prefetch at step for {} must equal acquire at {}",
                pair[0].bucket, pair[1].bucket
            );
            assert!(pair[0].prefetch_depth.iter().all(|&d| d == 1));
        }
    }

    #[test]
    fn plan_on_diagonal_reuses_partitions() {
        // order (0,0) -> (0,1): partition 0 stays resident
        let order = vec![BucketId::new(0u32, 0u32), BucketId::new(0u32, 1u32)];
        let plan = EpochPlan::new(&order, grid_needed);
        assert_eq!(plan.steps()[0].release, vec![]);
        assert_eq!(plan.steps()[0].prefetch, vec![key(1)]);
        assert_eq!(plan.steps()[1].acquire, vec![key(1)]);
        assert_eq!(plan.steps()[1].release, vec![key(0), key(1)]);
    }

    #[test]
    fn bigger_buffer_plans_fewer_acquires() {
        // inside-out revisits partitions; a B=4 buffer keeps them
        let order: Vec<BucketId> = pbg_graph::ordering::BucketOrdering::InsideOut.order(
            6,
            6,
            &mut pbg_tensor::rng::Xoshiro256::seed_from_u64(0),
        );
        let small = EpochPlan::with_capacity(&order, grid_needed, 2);
        let big = EpochPlan::with_capacity(&order, grid_needed, 4);
        assert!(
            big.total_acquires() < small.total_acquires(),
            "B=4 {} vs B=2 {}",
            big.total_acquires(),
            small.total_acquires()
        );
    }

    #[test]
    fn deep_prefetch_never_precedes_eviction() {
        for capacity in [2, 4, 8] {
            let plan = EpochPlan::with_capacity(&row_major(5), grid_needed, capacity);
            let mut released: HashMap<PartitionKey, usize> = HashMap::new();
            let mut announced: HashMap<PartitionKey, usize> = HashMap::new();
            for (i, step) in plan.steps().iter().enumerate() {
                for (&k, &d) in step.prefetch.iter().zip(&step.prefetch_depth) {
                    assert!(d >= 1 && (d as usize) < capacity.max(2), "depth {d}");
                    if let Some(&j) = released.get(&k) {
                        assert!(i > j, "prefetch of {k:?} at {i} races release at {j}");
                    }
                    announced.insert(k, i + d as usize);
                }
                for &k in &step.acquire {
                    if let Some(&at) = announced.get(&k) {
                        assert_eq!(at, i, "{k:?} acquired at {i}, announced for {at}");
                    }
                }
                for &k in &step.release {
                    released.insert(k, i);
                }
            }
        }
    }

    #[test]
    fn swap_planner_tracks_resident_set() {
        let mut p = SwapPlanner::new();
        let t1 = p.step(&[key(0), key(1)].into_iter().collect());
        assert_eq!(t1.acquire, vec![key(0), key(1)]);
        assert_eq!(t1.release, vec![]);
        let t2 = p.step(&[key(1), key(2)].into_iter().collect());
        assert_eq!(t2.acquire, vec![key(2)]);
        assert_eq!(t2.release, vec![key(0)]);
        assert_eq!(p.finish(), vec![key(1), key(2)]);
        assert!(p.resident().is_empty());
    }

    #[test]
    fn swap_planner_with_capacity_keeps_extra_partitions() {
        let mut p = SwapPlanner::with_capacity(3);
        p.step(&[key(0), key(1)].into_iter().collect());
        let t = p.step(&[key(1), key(2)].into_iter().collect());
        assert_eq!(t.acquire, vec![key(2)]);
        assert_eq!(t.release, vec![], "B=3 keeps partition 0");
        assert_eq!(p.loads(), 3);
    }

    #[test]
    fn evict_unneeded_restores_eager_semantics() {
        let mut p = SwapPlanner::new();
        p.step(&[key(0), key(1)].into_iter().collect());
        // diagonal bucket: lazy residency would keep partition 0
        let needed: HashSet<PartitionKey> = [key(1)].into_iter().collect();
        let t = p.step(&needed);
        assert_eq!(t.acquire, vec![]);
        assert_eq!(t.release, vec![], "lazy buffer keeps partition 0");
        assert_eq!(p.evict_unneeded(&needed), vec![key(0)]);
        assert_eq!(p.resident(), &[key(1)]);
    }

    #[test]
    fn empty_plan() {
        let plan = EpochPlan::new(&[], grid_needed);
        assert!(plan.is_empty());
        assert_eq!(plan.total_acquires(), 0);
    }
}
