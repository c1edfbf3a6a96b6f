//! The centralized bucket lock server (§4.2).
//!
//! "The locking of partitions is handled by a centralized lock server on
//! one machine, which parcels out buckets to the workers in order to
//! minimize communication (i.e. favors re-using a partition). The lock
//! server also maintains the invariant ... that only the first bucket
//! should operate on two uninitialized partitions."
//!
//! Grants are *leases*: a bucket granted to a machine that never
//! releases it (a crash) expires after the configured TTL and
//! [`LockServer::reap_expired`] returns it to the pending pool so
//! another machine can retrain it. Without a TTL (the default) leases
//! never expire and the behavior is the original blocking protocol.

use parking_lot::Mutex;
use pbg_graph::bucket::BucketId;
use pbg_graph::ids::Partition;
use std::collections::{HashMap, HashSet};
use std::time::{Duration, Instant};

/// One granted bucket and when its lease lapses (`None` = never).
#[derive(Debug, Clone, Copy)]
struct Lease {
    bucket: BucketId,
    expires: Option<Instant>,
}

#[derive(Debug, Default)]
struct LockState {
    pending: HashSet<BucketId>,
    /// Partitions held by in-flight buckets.
    locked: HashSet<Partition>,
    /// Leases held per machine. A machine may briefly hold two: the
    /// paper's trainers acquire the next bucket, save/load partitions,
    /// and only then "release [their] old partitions on the lock server"
    /// (Figure 2).
    active: HashMap<usize, Vec<Lease>>,
    /// Partitions whose embeddings have been trained at least once, by
    /// side (persists across epochs).
    init_src: HashSet<Partition>,
    init_dst: HashSet<Partition>,
    anything_initialized: bool,
}

impl LockState {
    /// Drops `locked` entries for `bucket`'s partitions unless another
    /// active lease still covers them.
    fn unlock_partitions(&mut self, bucket: BucketId) {
        let still_held: HashSet<Partition> = self
            .active
            .values()
            .flatten()
            .flat_map(|l| l.bucket.partitions())
            .collect();
        for p in bucket.partitions() {
            if !still_held.contains(&p) {
                self.locked.remove(&p);
            }
        }
    }
}

/// Centralized bucket lock server.
#[derive(Debug, Default)]
pub struct LockServer {
    state: Mutex<LockState>,
    lease_ttl: Option<Duration>,
}

/// Result of an acquire attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Acquire {
    /// A bucket was granted.
    Granted(BucketId),
    /// Buckets remain but all eligible ones conflict with active locks —
    /// the worker should retry after someone releases.
    Wait,
    /// The epoch is finished.
    Done,
}

impl LockServer {
    /// Creates a lock server with no pending buckets and no lease expiry.
    pub fn new() -> Self {
        LockServer::default()
    }

    /// Creates a lock server whose grants expire `ttl` after being made
    /// unless released; expired leases are reclaimed by
    /// [`LockServer::reap_expired`].
    pub fn with_lease(ttl: Duration) -> Self {
        LockServer {
            state: Mutex::new(LockState::default()),
            lease_ttl: Some(ttl),
        }
    }

    /// Starts an epoch over the full `src_parts × dst_parts` grid.
    pub fn start_epoch(&self, src_parts: u32, dst_parts: u32) {
        let mut s = self.state.lock();
        s.pending.clear();
        for src in 0..src_parts {
            for dst in 0..dst_parts {
                s.pending.insert(BucketId::new(src, dst));
            }
        }
        assert!(
            s.active.is_empty(),
            "start_epoch called while buckets are still locked"
        );
        s.locked.clear();
    }

    /// Number of buckets not yet granted this epoch.
    pub fn remaining(&self) -> usize {
        self.state.lock().pending.len()
    }

    /// Requests a bucket for `machine`; `prev` is the machine's previous
    /// bucket (for partition-affinity).
    pub fn acquire(&self, machine: usize, prev: Option<BucketId>) -> Acquire {
        let mut s = self.state.lock();
        if s.pending.is_empty() {
            return if s.active.is_empty() {
                Acquire::Done
            } else {
                // buckets are still out: a straggler may finish them, or
                // a crashed machine's lease may expire and return them to
                // pending — either way the epoch is not over yet, so the
                // worker must keep polling (and reaping)
                Acquire::Wait
            };
        }
        // a machine's own held partitions do not conflict with its next
        // bucket (it can keep reusing them); everyone else's do
        let own: HashSet<Partition> = s
            .active
            .get(&machine)
            .map(|leases| leases.iter().flat_map(|l| l.bucket.partitions()).collect())
            .unwrap_or_default();
        // eligible: no partition conflict + invariant
        let mut eligible: Vec<BucketId> = s
            .pending
            .iter()
            .copied()
            .filter(|b| {
                !b.partitions()
                    .any(|p| s.locked.contains(&p) && !own.contains(&p))
            })
            .filter(|b| {
                !s.anything_initialized
                    || s.init_src.contains(&b.src)
                    || s.init_dst.contains(&b.dst)
            })
            .collect();
        if eligible.is_empty() {
            return Acquire::Wait;
        }
        // prefer buckets sharing a partition with the machine's previous
        // bucket (minimizes partition-server traffic), then smallest id
        // for determinism — the same affinity rule every bucket ordering
        // uses (see `pbg_graph::ordering`).
        eligible.sort();
        let chosen =
            pbg_graph::ordering::pick_shared_side(&eligible, prev).expect("eligible is non-empty");
        s.pending.remove(&chosen);
        for p in chosen.partitions() {
            s.locked.insert(p);
        }
        let expires = self.lease_ttl.map(|ttl| Instant::now() + ttl);
        s.active.entry(machine).or_default().push(Lease {
            bucket: chosen,
            expires,
        });
        // the very first grant unblocks the invariant for everyone else
        s.anything_initialized = true;
        s.init_src.insert(chosen.src);
        s.init_dst.insert(chosen.dst);
        Acquire::Granted(chosen)
    }

    /// Releases one specific bucket held by `machine`. A no-op when the
    /// machine no longer holds it — its lease may have expired and been
    /// reaped while it was working, in which case the bucket is someone
    /// else's problem now and the late release must not corrupt their
    /// lock.
    pub fn release_bucket(&self, machine: usize, bucket: BucketId) {
        let mut s = self.state.lock();
        let Some(held) = s.active.get_mut(&machine) else {
            return;
        };
        let Some(pos) = held.iter().position(|l| l.bucket == bucket) else {
            return;
        };
        held.remove(pos);
        if held.is_empty() {
            s.active.remove(&machine);
        }
        s.unlock_partitions(bucket);
    }

    /// Releases the single bucket held by `machine` (convenience for
    /// workers that never overlap buckets).
    ///
    /// # Panics
    ///
    /// Panics if the machine holds zero or multiple buckets.
    pub fn release(&self, machine: usize) {
        let bucket = {
            let s = self.state.lock();
            let held = s
                .active
                .get(&machine)
                .unwrap_or_else(|| panic!("machine {machine} holds no bucket"));
            assert_eq!(held.len(), 1, "machine {machine} holds multiple buckets");
            held[0].bucket
        };
        self.release_bucket(machine, bucket);
    }

    /// Reclaims every lease past its expiry: the bucket returns to the
    /// pending pool (its partitions unlock) and is reported so the
    /// caller can fence out the dead holder's state elsewhere. Returns
    /// an empty vec when leases are disabled or nothing has expired.
    pub fn reap_expired(&self) -> Vec<BucketId> {
        let now = Instant::now();
        let mut s = self.state.lock();
        let mut reaped = Vec::new();
        let machines: Vec<usize> = s.active.keys().copied().collect();
        for m in machines {
            let held = s.active.get_mut(&m).unwrap();
            let mut i = 0;
            while i < held.len() {
                match held[i].expires {
                    Some(deadline) if deadline <= now => {
                        reaped.push(held.remove(i).bucket);
                    }
                    _ => i += 1,
                }
            }
            if s.active.get(&m).is_some_and(|h| h.is_empty()) {
                s.active.remove(&m);
            }
        }
        for &bucket in &reaped {
            s.unlock_partitions(bucket);
            s.pending.insert(bucket);
        }
        reaped
    }

    /// Buckets currently being trained.
    pub fn active_count(&self) -> usize {
        self.state.lock().active.values().map(|v| v.len()).sum()
    }
}

#[derive(Debug)]
struct EpochState {
    /// Current epoch being granted, 1-based (0 until the first epoch
    /// starts, which only happens when `total_epochs == 0`).
    epoch: usize,
    total_epochs: usize,
    src_parts: u32,
    dst_parts: u32,
}

/// A [`LockServer`] that also sequences epochs, so independent trainer
/// processes need no out-of-band barrier: whichever rank drains the last
/// bucket of an epoch rolls the server over to the next one, and every
/// grant is labeled with the epoch it belongs to (ranks need the epoch to
/// derive deterministic shuffle seeds).
///
/// Networked ranks run straight through the scheduled epochs; the
/// simulated cluster, which reports and evaluates between epochs,
/// schedules them one at a time with [`EpochLock::add_epoch`].
#[derive(Debug)]
pub struct EpochLock {
    inner: LockServer,
    state: Mutex<EpochState>,
}

impl EpochLock {
    /// Wraps `inner`, scheduling `total_epochs` epochs over the
    /// `src_parts × dst_parts` grid. Starts the first epoch immediately
    /// (unless `total_epochs == 0`, in which case every acquire reports
    /// `Done`).
    pub fn new(inner: LockServer, total_epochs: usize, src_parts: u32, dst_parts: u32) -> Self {
        let epoch = if total_epochs > 0 {
            inner.start_epoch(src_parts, dst_parts);
            1
        } else {
            0
        };
        EpochLock {
            inner,
            state: Mutex::new(EpochState {
                epoch,
                total_epochs,
                src_parts,
                dst_parts,
            }),
        }
    }

    /// Requests a bucket, returning the epoch the result belongs to.
    ///
    /// Epoch labeling is race-free for grants: the epoch cannot advance
    /// while any lease is active (advance requires the inner server to
    /// report `Done`, which requires an empty active set), so reading the
    /// counter after a `Granted` result always observes the epoch the
    /// grant was made in. `Done` means all epochs are finished.
    pub fn acquire(&self, machine: usize, prev: Option<BucketId>) -> (usize, Acquire) {
        loop {
            match self.inner.acquire(machine, prev) {
                result @ (Acquire::Granted(_) | Acquire::Wait) => {
                    return (self.state.lock().epoch, result);
                }
                Acquire::Done => {
                    let mut st = self.state.lock();
                    if st.epoch >= st.total_epochs {
                        return (st.epoch, Acquire::Done);
                    }
                    // Double-check under the state lock: another rank may
                    // have rolled the epoch over between our two calls,
                    // in which case the fresh epoch has pending buckets.
                    match self.inner.acquire(machine, prev) {
                        Acquire::Done => {
                            st.epoch += 1;
                            self.inner.start_epoch(st.src_parts, st.dst_parts);
                            // loop: acquire from the fresh epoch
                        }
                        result => return (st.epoch, result),
                    }
                }
            }
        }
    }

    /// Schedules one more epoch after the ones already scheduled: ranks
    /// that were told `Done` are granted its buckets when they next ask.
    pub fn add_epoch(&self) {
        self.state.lock().total_epochs += 1;
    }

    /// See [`LockServer::release_bucket`].
    pub fn release_bucket(&self, machine: usize, bucket: BucketId) {
        self.inner.release_bucket(machine, bucket);
    }

    /// See [`LockServer::reap_expired`].
    pub fn reap_expired(&self) -> Vec<BucketId> {
        self.inner.reap_expired()
    }

    /// The epoch currently being granted (1-based; 0 when scheduled for
    /// zero epochs).
    pub fn current_epoch(&self) -> usize {
        self.state.lock().epoch
    }

    /// Buckets currently being trained.
    pub fn active_count(&self) -> usize {
        self.inner.active_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grants_cover_all_buckets_once() {
        let ls = LockServer::new();
        ls.start_epoch(4, 4);
        let mut granted = Vec::new();
        loop {
            match ls.acquire(0, granted.last().copied()) {
                Acquire::Granted(b) => {
                    granted.push(b);
                    ls.release(0);
                }
                Acquire::Wait => unreachable!("single machine never waits"),
                Acquire::Done => break,
            }
        }
        assert_eq!(granted.len(), 16);
        let set: HashSet<BucketId> = granted.iter().copied().collect();
        assert_eq!(set.len(), 16);
    }

    #[test]
    fn concurrent_grants_have_disjoint_partitions() {
        let ls = LockServer::new();
        ls.start_epoch(8, 8);
        let a = match ls.acquire(0, None) {
            Acquire::Granted(b) => b,
            other => panic!("{other:?}"),
        };
        // machine 1 must wait until something is initialized... a is
        // released? No: invariant allows buckets sharing a partition with
        // an *initialized* side, and `a` initialized its partitions at
        // grant time — but those partitions are locked. Machine 1 may get
        // a bucket sharing a's src as... conflicts. It must Wait.
        match ls.acquire(1, None) {
            Acquire::Wait => {}
            Acquire::Granted(b) => {
                assert!(!a.conflicts_with(&b), "granted conflicting bucket {b}");
                // and the invariant must hold: b shares an initialized side
                assert!(b.src == a.src || b.dst == a.dst);
            }
            Acquire::Done => panic!("not done"),
        }
        ls.release(0);
        // now plenty is available
        let b = match ls.acquire(1, None) {
            Acquire::Granted(b) => b,
            other => panic!("{other:?}"),
        };
        assert!(!ls.state.lock().locked.is_empty());
        let c = ls.acquire(2, None);
        if let Acquire::Granted(c) = c {
            assert!(!b.conflicts_with(&c));
        }
    }

    #[test]
    fn first_epoch_serializes_until_first_release() {
        // With nothing initialized, only one bucket can be out at first;
        // after it completes, buckets touching its partitions unblock.
        let ls = LockServer::new();
        ls.start_epoch(4, 4);
        let first = match ls.acquire(0, None) {
            Acquire::Granted(b) => b,
            other => panic!("{other:?}"),
        };
        assert_eq!(ls.acquire(1, None), Acquire::Wait, "invariant blocks m1");
        ls.release(0);
        match ls.acquire(1, None) {
            Acquire::Granted(b) => {
                assert!(
                    b.src == first.src || b.dst == first.dst,
                    "{b} not aligned with {first}"
                );
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn affinity_prefers_shared_partition() {
        let ls = LockServer::new();
        ls.start_epoch(4, 4);
        let first = match ls.acquire(0, None) {
            Acquire::Granted(b) => b,
            other => panic!("{other:?}"),
        };
        ls.release(0);
        let second = match ls.acquire(0, Some(first)) {
            Acquire::Granted(b) => b,
            other => panic!("{other:?}"),
        };
        assert!(
            second.src == first.src || second.dst == first.dst,
            "affinity ignored: {first} then {second}"
        );
    }

    #[test]
    fn up_to_p_over_2_machines_run_in_parallel() {
        let ls = LockServer::new();
        ls.start_epoch(8, 8);
        // warm up: initialize all partitions
        loop {
            match ls.acquire(0, None) {
                Acquire::Granted(_) => ls.release(0),
                Acquire::Wait => continue,
                Acquire::Done => break,
            }
        }
        ls.start_epoch(8, 8);
        let mut held = Vec::new();
        for m in 0..8 {
            if let Acquire::Granted(b) = ls.acquire(m, None) {
                held.push(b);
            }
        }
        assert!(
            held.len() >= 4,
            "only {} concurrent buckets on an 8x8 grid",
            held.len()
        );
        for (i, a) in held.iter().enumerate() {
            for b in &held[i + 1..] {
                assert!(!a.conflicts_with(b));
            }
        }
    }

    #[test]
    fn acquire_waits_for_stragglers_instead_of_reporting_done() {
        let ls = LockServer::new();
        ls.start_epoch(1, 1);
        let b = match ls.acquire(0, None) {
            Acquire::Granted(b) => b,
            other => panic!("{other:?}"),
        };
        // the epoch is not over while a bucket is still out: its holder
        // may crash and the bucket would need retraining
        assert_eq!(ls.acquire(1, None), Acquire::Wait);
        ls.release_bucket(0, b);
        assert_eq!(ls.acquire(1, None), Acquire::Done);
    }

    #[test]
    fn expired_lease_is_reaped_and_regranted() {
        let ls = LockServer::with_lease(Duration::from_millis(5));
        ls.start_epoch(2, 2);
        let b = match ls.acquire(0, None) {
            Acquire::Granted(b) => b,
            other => panic!("{other:?}"),
        };
        // machine 0 crashes: no release ever comes
        std::thread::sleep(Duration::from_millis(10));
        let reaped = ls.reap_expired();
        assert_eq!(reaped, vec![b]);
        assert_eq!(ls.active_count(), 0);
        // the abandoned bucket is grantable again
        let mut granted = Vec::new();
        loop {
            match ls.acquire(1, granted.last().copied()) {
                Acquire::Granted(g) => {
                    granted.push(g);
                    ls.release(1);
                }
                Acquire::Wait => std::thread::yield_now(),
                Acquire::Done => break,
            }
        }
        assert_eq!(granted.len(), 4, "all buckets including the reaped one");
        assert_eq!(granted.iter().filter(|g| **g == b).count(), 1);
    }

    #[test]
    fn unexpired_leases_are_not_reaped() {
        let ls = LockServer::with_lease(Duration::from_secs(3600));
        ls.start_epoch(2, 2);
        let _ = ls.acquire(0, None);
        assert!(ls.reap_expired().is_empty());
        assert_eq!(ls.active_count(), 1);
    }

    #[test]
    fn late_release_after_reap_is_harmless() {
        let ls = LockServer::with_lease(Duration::from_millis(5));
        ls.start_epoch(2, 2);
        let b = match ls.acquire(0, None) {
            Acquire::Granted(b) => b,
            other => panic!("{other:?}"),
        };
        std::thread::sleep(Duration::from_millis(10));
        assert_eq!(ls.reap_expired(), vec![b]);
        // the bucket now belongs to machine 1
        let regrant = loop {
            match ls.acquire(1, None) {
                Acquire::Granted(g) => break g,
                Acquire::Wait => std::thread::yield_now(),
                Acquire::Done => panic!("nothing pending"),
            }
        };
        // the zombie's release arrives late: must not disturb the new
        // holder's lock
        ls.release_bucket(0, b);
        assert_eq!(ls.active_count(), 1);
        let s = ls.state.lock();
        for p in regrant.partitions() {
            assert!(s.locked.contains(&p), "{p:?} unlocked by zombie release");
        }
    }

    #[test]
    fn epoch_lock_drains_every_epoch_in_order() {
        let el = EpochLock::new(LockServer::new(), 2, 2, 2);
        let mut grants: Vec<(usize, BucketId)> = Vec::new();
        let mut prev = None;
        loop {
            match el.acquire(0, prev) {
                (epoch, Acquire::Granted(b)) => {
                    grants.push((epoch, b));
                    el.release_bucket(0, b);
                    prev = Some(b);
                }
                (_, Acquire::Wait) => unreachable!("single machine never waits"),
                (epoch, Acquire::Done) => {
                    assert_eq!(epoch, 2);
                    break;
                }
            }
        }
        assert_eq!(grants.len(), 8, "2 epochs × 4 buckets");
        for (epoch, want) in [(1usize, 4usize), (2, 4)] {
            let in_epoch: HashSet<BucketId> = grants
                .iter()
                .filter(|(e, _)| *e == epoch)
                .map(|(_, b)| *b)
                .collect();
            assert_eq!(in_epoch.len(), want, "epoch {epoch} must cover the grid");
        }
        // epochs are non-decreasing
        for pair in grants.windows(2) {
            assert!(pair[0].0 <= pair[1].0);
        }
    }

    #[test]
    fn epoch_lock_zero_epochs_is_immediately_done() {
        let el = EpochLock::new(LockServer::new(), 0, 2, 2);
        assert_eq!(el.acquire(0, None), (0, Acquire::Done));
    }

    #[test]
    fn add_epoch_resumes_after_done_with_the_next_label() {
        let el = EpochLock::new(LockServer::new(), 0, 1, 1);
        for epoch in 1..=2 {
            el.add_epoch();
            let bucket = BucketId::new(0u32, 0u32);
            assert_eq!(el.acquire(0, None), (epoch, Acquire::Granted(bucket)));
            el.release_bucket(0, bucket);
            assert_eq!(el.acquire(0, Some(bucket)), (epoch, Acquire::Done));
        }
    }

    #[test]
    fn epoch_lock_two_machines_cover_everything_exactly_once() {
        let el = std::sync::Arc::new(EpochLock::new(LockServer::new(), 3, 2, 2));
        let mut handles = Vec::new();
        for m in 0..2usize {
            let el = std::sync::Arc::clone(&el);
            handles.push(std::thread::spawn(move || {
                let mut grants = Vec::new();
                let mut prev = None;
                loop {
                    match el.acquire(m, prev) {
                        (epoch, Acquire::Granted(b)) => {
                            grants.push((epoch, b));
                            el.release_bucket(m, b);
                            prev = Some(b);
                        }
                        (_, Acquire::Wait) => std::thread::yield_now(),
                        (_, Acquire::Done) => break,
                    }
                }
                grants
            }));
        }
        let mut all: Vec<(usize, BucketId)> = Vec::new();
        for h in handles {
            all.extend(h.join().unwrap());
        }
        assert_eq!(all.len(), 12, "3 epochs × 4 buckets, no duplicates");
        let unique: HashSet<(usize, BucketId)> = all.iter().copied().collect();
        assert_eq!(unique.len(), 12, "every (epoch, bucket) trained once");
    }

    #[test]
    fn invariant_persists_across_epochs() {
        let ls = LockServer::new();
        ls.start_epoch(2, 2);
        // drain epoch 1
        loop {
            match ls.acquire(0, None) {
                Acquire::Granted(_) => ls.release(0),
                Acquire::Wait => continue,
                Acquire::Done => break,
            }
        }
        ls.start_epoch(2, 2);
        // in epoch 2 two machines can start immediately on disjoint
        // diagonal buckets because everything is initialized
        let a = ls.acquire(0, None);
        let b = ls.acquire(1, None);
        assert!(matches!(a, Acquire::Granted(_)));
        assert!(matches!(b, Acquire::Granted(_)), "{b:?}");
    }
}
