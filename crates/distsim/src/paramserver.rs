//! Sharded asynchronous parameter server for shared parameters (§4.2).
//!
//! "Each trainer maintains a background thread that has access to all
//! unpartitioned model parameters. This thread asynchronously fetches the
//! parameters from the server and updates the local model, and pushes
//! accumulated gradients from the local model to the parameter server.
//! This thread performs continuous synchronization with some throttling
//! to avoid saturating network bandwidth."
//!
//! Clients push *deltas* (local change since the last pull), the server
//! folds them in, and the client adopts the merged value — the standard
//! asynchronous push/pull used for sparse training. A per-client throttle
//! enforces a minimum interval between syncs.

use crate::netmodel::{wirecost, NetworkModel};
use crate::service::ServiceError;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Identifier of one shared parameter block: one relation's forward or
/// reciprocal operator parameters, or the embedding table of one
/// unpartitioned entity type (§4.2 places both on the parameter server).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ParamKey {
    /// Relation index — or, when `side` is [`ParamKey::ENTITY_TABLE`],
    /// the entity type index.
    pub relation: u32,
    /// 0 = forward parameters, 1 = reciprocal parameters,
    /// [`ParamKey::ENTITY_TABLE`] = an unpartitioned type's embeddings.
    pub side: u8,
}

impl ParamKey {
    /// `side` value marking the embedding table of an unpartitioned
    /// entity type (the wire format carries `side` as an opaque byte, so
    /// this needs no new frame).
    pub const ENTITY_TABLE: u8 = 2;
}

/// Sharded asynchronous parameter server.
#[derive(Debug)]
pub struct ParameterServer {
    shards: Vec<Mutex<HashMap<ParamKey, Vec<f32>>>>,
    net: Arc<NetworkModel>,
}

impl ParameterServer {
    /// Creates a server with `num_shards` shards.
    ///
    /// # Panics
    ///
    /// Panics if `num_shards == 0`.
    pub fn new(num_shards: usize, net: Arc<NetworkModel>) -> Self {
        assert!(num_shards > 0, "need at least one shard");
        ParameterServer {
            shards: (0..num_shards)
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
            net,
        }
    }

    fn shard(&self, key: ParamKey) -> &Mutex<HashMap<ParamKey, Vec<f32>>> {
        &self.shards[(key.relation as usize * 2 + key.side as usize) % self.shards.len()]
    }

    /// Registers a parameter block with its initial value (first writer
    /// wins — every machine starts from the same deterministic init).
    pub fn register(&self, key: ParamKey, init: &[f32]) {
        let mut shard = self.shard(key).lock();
        shard.entry(key).or_insert_with(|| init.to_vec());
    }

    /// Pushes a delta and returns the merged value (one round trip),
    /// recording both transfers.
    ///
    /// # Panics
    ///
    /// Panics if the key is unregistered or lengths disagree.
    pub fn push_pull(&self, key: ParamKey, delta: &[f32]) -> Vec<f32> {
        let merged = {
            let mut shard = self.shard(key).lock();
            let value = shard
                .get_mut(&key)
                .unwrap_or_else(|| panic!("parameter {key:?} not registered"));
            assert_eq!(value.len(), delta.len(), "push_pull: length mismatch");
            for (v, d) in value.iter_mut().zip(delta) {
                *v += *d;
            }
            value.clone()
        };
        self.net.record_rpc(
            wirecost::param_push_bytes(delta.len()),
            wirecost::param_value_bytes(merged.len()),
        );
        merged
    }

    /// Reads the current value without pushing (for snapshots).
    ///
    /// # Panics
    ///
    /// Panics if the key is unregistered.
    pub fn pull(&self, key: ParamKey) -> Vec<f32> {
        self.shard(key)
            .lock()
            .get(&key)
            .cloned()
            .unwrap_or_else(|| panic!("parameter {key:?} not registered"))
    }

    /// Number of registered parameter blocks.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// `true` when no parameters are registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The delta-tracking parameter client every rank syncs through, over
/// any [`crate::service::ParamService`] (the in-process [`ParameterServer`] or a TCP
/// client).
///
/// Tracks, per key, the value adopted at the last sync (the delta base)
/// and the last sync time. Throttling is per parameter block: one
/// relation syncing must not starve every other relation of its own sync
/// window. A key with no entry has never synced and is free.
#[derive(Debug)]
pub struct DeltaTracker {
    base: HashMap<ParamKey, Vec<f32>>,
    throttle: Duration,
    last_sync: HashMap<ParamKey, Instant>,
}

impl DeltaTracker {
    /// Creates a tracker; `throttle` is the minimum interval between
    /// syncs of the *same* key (the paper throttles "to avoid saturating
    /// network bandwidth").
    pub fn new(throttle: Duration) -> Self {
        DeltaTracker {
            base: HashMap::new(),
            throttle,
            last_sync: HashMap::new(),
        }
    }

    /// Registers a block and adopts the server value as the delta base,
    /// returning that canonical value so the caller can install it
    /// locally (a rank joining mid-training must start from the
    /// server's state, not its own stale copy).
    ///
    /// # Errors
    ///
    /// Propagates service failures; a canonical value whose length
    /// differs from `init` is a [`ServiceError::Protocol`].
    pub fn register<Q: crate::service::ParamService + ?Sized>(
        &mut self,
        service: &Q,
        key: ParamKey,
        init: &[f32],
    ) -> Result<Vec<f32>, ServiceError> {
        let canonical = checked_len(key, service.register(key, init)?, init.len())?;
        self.base.insert(key, canonical.clone());
        Ok(canonical)
    }

    /// Synchronizes one block: pushes `local() - base`, adopts the merged
    /// value as the new base and returns it. Returns `None` without
    /// calling `local` when the key synced more recently than the
    /// throttle allows and `force` is off (the caller keeps its value).
    ///
    /// Never retried on failure: `push_pull` is not idempotent (a lost
    /// response would double-apply the delta on retry).
    ///
    /// # Errors
    ///
    /// Propagates service failures; a merged value of the wrong length is
    /// a [`ServiceError::Protocol`].
    ///
    /// # Panics
    ///
    /// Panics if the key was not registered through this tracker or
    /// `local()` has a different length than the registered block.
    pub fn sync<Q: crate::service::ParamService + ?Sized>(
        &mut self,
        service: &Q,
        key: ParamKey,
        force: bool,
        local: impl FnOnce() -> Vec<f32>,
    ) -> Result<Option<Vec<f32>>, ServiceError> {
        let throttled = self
            .last_sync
            .get(&key)
            .is_some_and(|last| last.elapsed() < self.throttle);
        if throttled && !force {
            return Ok(None);
        }
        let base = self
            .base
            .get_mut(&key)
            .unwrap_or_else(|| panic!("parameter {key:?} not registered on this client"));
        let local = local();
        assert_eq!(base.len(), local.len(), "sync: length mismatch");
        let delta: Vec<f32> = local.iter().zip(base.iter()).map(|(l, b)| l - b).collect();
        let merged = checked_len(key, service.push_pull(key, &delta)?, delta.len())?;
        base.clone_from(&merged);
        self.last_sync.insert(key, Instant::now());
        Ok(Some(merged))
    }
}

/// Rejects a server value whose length disagrees with the local block
/// (ranks started with different configs, or a corrupt reply).
pub(crate) fn checked_len(
    key: ParamKey,
    value: Vec<f32>,
    want: usize,
) -> Result<Vec<f32>, ServiceError> {
    if value.len() == want {
        Ok(value)
    } else {
        Err(ServiceError::Protocol(format!(
            "parameter {key:?}: server holds {} floats, this rank {want}",
            value.len()
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn server() -> Arc<ParameterServer> {
        Arc::new(ParameterServer::new(
            2,
            Arc::new(NetworkModel::new(1e9, 0.0)),
        ))
    }

    const KEY: ParamKey = ParamKey {
        relation: 0,
        side: 0,
    };

    #[test]
    fn register_is_first_writer_wins() {
        let s = server();
        s.register(KEY, &[1.0, 2.0]);
        s.register(KEY, &[9.0, 9.0]);
        assert_eq!(s.pull(KEY), vec![1.0, 2.0]);
    }

    #[test]
    fn push_pull_merges_deltas() {
        let s = server();
        s.register(KEY, &[0.0, 0.0]);
        let v1 = s.push_pull(KEY, &[1.0, 0.0]);
        assert_eq!(v1, vec![1.0, 0.0]);
        let v2 = s.push_pull(KEY, &[0.0, 2.0]);
        assert_eq!(v2, vec![1.0, 2.0]);
    }

    #[test]
    fn two_clients_converge_to_combined_updates() {
        let s = server();
        let mut a = DeltaTracker::new(Duration::ZERO);
        let mut b = DeltaTracker::new(Duration::ZERO);
        a.register(&*s, KEY, &[0.0]).unwrap();
        b.register(&*s, KEY, &[0.0]).unwrap();
        // each client locally adds 1.0 and syncs
        let va = a.sync(&*s, KEY, true, || vec![1.0]).unwrap().unwrap();
        let vb = b.sync(&*s, KEY, true, || vec![1.0]).unwrap().unwrap();
        assert_eq!(va, vec![1.0]);
        assert_eq!(vb, vec![2.0], "b sees a's update merged in");
        // a syncs again with no further local change: pushes zero delta
        let va2 = a.sync(&*s, KEY, true, || va.clone()).unwrap().unwrap();
        assert_eq!(va2, vec![2.0]);
    }

    #[test]
    fn throttling_skips_rapid_syncs() {
        let s = server();
        let mut c = DeltaTracker::new(Duration::from_secs(3600));
        c.register(&*s, KEY, &[0.0]).unwrap();
        let first = c.sync(&*s, KEY, false, || vec![1.0]).unwrap();
        assert!(first.is_some(), "first sync allowed");
        let second = c.sync(&*s, KEY, false, || panic!("throttled syncs do not read"));
        assert!(second.unwrap().is_none(), "second sync throttled");
        let forced = c.sync(&*s, KEY, true, || vec![2.0]).unwrap();
        assert_eq!(forced, Some(vec![2.0]), "force overrides the throttle");
    }

    #[test]
    fn throttle_is_per_key_not_global() {
        // regression: a single shared `last_sync` meant one relation's
        // sync silently starved every other relation until the window
        // passed — in a multi-relation model most blocks never synced
        let s = server();
        let other = ParamKey {
            relation: 1,
            side: 0,
        };
        let mut c = DeltaTracker::new(Duration::from_secs(3600));
        c.register(&*s, KEY, &[0.0]).unwrap();
        c.register(&*s, other, &[0.0]).unwrap();
        let mut sync = |key, v: f32| c.sync(&*s, key, false, || vec![v]).unwrap();
        assert!(sync(KEY, 1.0).is_some());
        assert!(
            sync(other, 1.0).is_some(),
            "syncing one key must not throttle a different key"
        );
        assert!(sync(KEY, 2.0).is_none(), "same key throttled");
        assert!(sync(other, 2.0).is_none());
    }

    #[test]
    fn register_returns_canonical_server_value() {
        let s = server();
        let mut a = DeltaTracker::new(Duration::ZERO);
        let first = a.register(&*s, KEY, &[1.0, 2.0]).unwrap();
        assert_eq!(first, vec![1.0, 2.0]);
        a.sync(&*s, KEY, true, || vec![2.0, 2.0]).unwrap(); // server now [2.0, 2.0]
        let mut b = DeltaTracker::new(Duration::ZERO);
        let adopted = b.register(&*s, KEY, &[9.0, 9.0]).unwrap();
        assert_eq!(adopted, vec![2.0, 2.0], "late joiner adopts server state");
        let err = b.register(&*s, KEY, &[9.0]).unwrap_err();
        assert!(matches!(err, ServiceError::Protocol(_)), "{err}");
    }

    #[test]
    fn sync_accounts_network_time() {
        let net = Arc::new(NetworkModel::new(1e3, 0.0));
        let s = ParameterServer::new(1, Arc::clone(&net));
        let mut c = DeltaTracker::new(Duration::ZERO);
        c.register(&s, KEY, &[0.0; 250]).unwrap();
        c.sync(&s, KEY, true, || vec![1.0; 250]).unwrap();
        // one framed push/pull round trip at 1000 B/s, zero latency
        let want = wirecost::push_pull_rpc_bytes(250) as f64 / 1e3;
        assert!((net.total_seconds() - want).abs() < 1e-6);
        assert_eq!(
            net.total_bytes() as usize,
            wirecost::push_pull_rpc_bytes(250)
        );
    }

    #[test]
    #[should_panic(expected = "not registered")]
    fn unregistered_pull_panics() {
        let s = server();
        let _ = s.pull(KEY);
    }
}
