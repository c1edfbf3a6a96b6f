//! The capacity-`B` partition buffer: residency and eviction bookkeeping.
//!
//! The paper's training loop keeps exactly the two partitions of the
//! current bucket resident and swaps on every bucket boundary. Marius
//! (arXiv:2101.08358) generalizes this to a buffer of `B` partition
//! slots with lazy eviction, which loads strictly less when the bucket
//! order revisits partitions. [`PartitionBuffer`] is that abstraction:
//! it decides *which* partitions are resident and *which* to evict,
//! while the storage layer underneath does the actual I/O.
//!
//! It is the only residency model in the workspace, generic over the key
//! so every caller replays the same policy: the trainer's `EpochPlan`
//! (keyed by entity type and partition), and, keyed by bare
//! [`crate::ids::Partition`], [`crate::ordering::load_count`], the
//! greedy-reuse ordering, and the discrete-event projector's machines.
//! A `distsim` rank needs no buffer: a fenced checkout cannot outlive
//! its bucket lock, so the rank holds exactly its bucket's partitions.
//!
//! Eviction is least-recently-used over bucket steps, never evicting a
//! partition the current bucket needs. When a bucket needs more keys
//! than `capacity` (multi-entity-type schemas can exceed `B`), residency
//! temporarily overflows and shrinks back at the next request — the
//! buffer is a target, not a hard cap, exactly like Marius's.
//!
//! Everything here is deterministic: a bucket's keys are touched in key
//! order, so ties in eviction order break on the LRU stamp first and the
//! key order second, and a plan computed ahead of time replays
//! bit-for-bit against a live buffer.

use std::collections::HashSet;
use std::hash::Hash;

/// Default buffer capacity: the paper's two-slot source/destination pair.
pub const DEFAULT_CAPACITY: usize = 2;

/// What a [`PartitionBuffer::request`] decided: partitions to load
/// (missing but needed) and partitions to evict (resident, not needed,
/// over capacity). Both are sorted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BufferTransition<K> {
    /// Keys to load before the bucket can train.
    pub load: Vec<K>,
    /// Keys to evict (write back if dirty) to get back under capacity.
    pub evict: Vec<K>,
}

/// A capacity-`B` partition buffer with lazy LRU eviction.
///
/// Owns the residency decision only — callers translate `load` into
/// store loads and `evict` into store releases, or just count them.
#[derive(Debug, Clone)]
pub struct PartitionBuffer<K> {
    capacity: usize,
    /// Resident keys, least recently used first.
    lru: Vec<K>,
    loads: u64,
    evictions: u64,
}

impl<K: Copy + Ord + Hash> PartitionBuffer<K> {
    /// Creates an empty buffer with `capacity` partition slots (clamped
    /// up to [`DEFAULT_CAPACITY`] — a bucket needs two partitions).
    pub fn new(capacity: usize) -> Self {
        PartitionBuffer {
            capacity: capacity.max(DEFAULT_CAPACITY),
            lru: Vec::new(),
            loads: 0,
            evictions: 0,
        }
    }

    /// The buffer's capacity in partition slots.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Resident keys, least recently used first.
    pub fn resident(&self) -> &[K] {
        &self.lru
    }

    /// `true` when `key` is resident.
    pub fn contains(&self, key: K) -> bool {
        self.lru.contains(&key)
    }

    /// Number of resident keys.
    pub fn len(&self) -> usize {
        self.lru.len()
    }

    /// `true` when nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.lru.is_empty()
    }

    /// Total loads decided since creation.
    pub fn loads(&self) -> u64 {
        self.loads
    }

    /// Total evictions decided since creation.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Advances to a bucket needing `needed`: marks every needed key
    /// most-recently-used, returns the keys to load (needed, not
    /// resident) and to evict (LRU residents beyond capacity, never a
    /// needed key). Needed keys are touched in sorted order so the
    /// outcome is independent of `HashSet` iteration order.
    pub fn request(&mut self, needed: &HashSet<K>) -> BufferTransition<K> {
        let mut wanted: Vec<K> = needed.iter().copied().collect();
        wanted.sort_unstable();
        let mut load = Vec::new();
        for &key in &wanted {
            if let Some(i) = self.lru.iter().position(|&k| k == key) {
                self.lru.remove(i);
            } else {
                load.push(key);
            }
            self.lru.push(key);
        }
        self.loads += load.len() as u64;
        let mut evict = Vec::new();
        while self.lru.len() > self.capacity {
            // the LRU queue ends with `wanted` (just touched), so the
            // front is evictable unless everything resident is needed
            if needed.contains(&self.lru[0]) {
                break;
            }
            evict.push(self.lru.remove(0));
        }
        self.evictions += evict.len() as u64;
        evict.sort_unstable();
        BufferTransition { load, evict }
    }

    /// Evicts everything (end of epoch, lock wait, shutdown); returns
    /// the keys that were resident, sorted.
    pub fn flush(&mut self) -> Vec<K> {
        self.evictions += self.lru.len() as u64;
        let mut out = std::mem::take(&mut self.lru);
        out.sort_unstable();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An (entity type, partition) key, as the trainer's buffer holds.
    type Key = (u32, u32);

    fn key(p: u32) -> Key {
        (0, p)
    }

    fn set(ps: &[u32]) -> HashSet<Key> {
        ps.iter().map(|&p| key(p)).collect()
    }

    #[test]
    fn capacity_two_swaps_like_the_paper() {
        let mut buf = PartitionBuffer::new(2);
        let t = buf.request(&set(&[0, 1]));
        assert_eq!(t.load, vec![key(0), key(1)]);
        assert_eq!(t.evict, vec![]);
        // (0,1) -> (1,2): evict 0, load 2
        let t = buf.request(&set(&[1, 2]));
        assert_eq!(t.load, vec![key(2)]);
        assert_eq!(t.evict, vec![key(0)]);
        assert_eq!(buf.flush(), vec![key(1), key(2)]);
        assert!(buf.is_empty());
    }

    #[test]
    fn larger_buffer_keeps_partitions_a_small_one_evicts() {
        // (0,1),(1,2),(2,0): at B=2 partition 0 is evicted to fit 2 and
        // reloaded for the last bucket; at B=3 every partition loads once.
        let mut small = PartitionBuffer::new(2);
        let mut big = PartitionBuffer::new(3);
        for needed in [set(&[0, 1]), set(&[1, 2]), set(&[2, 0])] {
            small.request(&needed);
            big.request(&needed);
        }
        assert_eq!(small.loads(), 4, "B=2 reloads partition 0");
        assert_eq!(big.loads(), 3, "B=3 keeps partition 0 resident");
    }

    #[test]
    fn eviction_is_least_recently_used() {
        let mut buf = PartitionBuffer::new(3);
        buf.request(&set(&[0, 1]));
        buf.request(&set(&[1, 2]));
        // 0 is LRU; requesting {3} must evict 0, not 1 or 2
        let t = buf.request(&set(&[2, 3]));
        assert_eq!(t.evict, vec![key(0)]);
        assert!(buf.contains(key(1)) && buf.contains(key(2)) && buf.contains(key(3)));
    }

    #[test]
    fn never_evicts_needed_keys_even_over_capacity() {
        let mut buf = PartitionBuffer::new(2);
        let needed: HashSet<Key> = [key(0), key(1), (1, 0)].into_iter().collect();
        let t = buf.request(&needed);
        assert_eq!(t.load.len(), 3);
        assert_eq!(t.evict, vec![], "needed keys are not evictable");
        assert_eq!(buf.len(), 3, "residency overflows transiently");
        // next bucket shrinks residency back to capacity
        let t = buf.request(&set(&[0]));
        assert_eq!(t.evict.len(), 1);
        assert_eq!(buf.len(), 2);
    }

    #[test]
    fn repeat_requests_load_nothing() {
        let mut buf = PartitionBuffer::new(2);
        buf.request(&set(&[0, 1]));
        let t = buf.request(&set(&[0, 1]));
        assert_eq!(t.load, vec![]);
        assert_eq!(t.evict, vec![]);
        assert_eq!(buf.loads(), 2);
    }

    #[test]
    fn capacity_clamps_to_two() {
        let buf = PartitionBuffer::<Key>::new(0);
        assert_eq!(buf.capacity(), 2);
    }
}
