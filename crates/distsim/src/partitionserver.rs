//! Sharded partition server (§4.2).
//!
//! "The partitioned embeddings themselves are stored in a partition server
//! sharded across the N training machines. A machine fetches the source
//! and destination partitions, which are often multiple GB in size, from
//! the partition server."
//!
//! Shards are hash-assigned; every checkout/checkin records its framed
//! wire bytes against the [`NetworkModel`], so a simulated cluster
//! reports the traffic a TCP one would move.
//!
//! The server always retains the **last committed version** of every
//! partition: a checkout hands the client a *copy* together with a
//! fencing token, and a check-in only commits when it presents the most
//! recently issued token. If a client dies mid-bucket the server still
//! serves the committed version to whoever retrains the bucket, and
//! [`PartitionServer::revoke`] invalidates the dead client's token so a
//! zombie check-in is discarded instead of clobbering newer state.

use crate::netmodel::{wirecost, NetworkModel};
use parking_lot::Mutex;
use pbg_core::storage::{PartitionKey, StoreLayout};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// One stored partition: last committed floats plus fencing state.
#[derive(Debug)]
struct Stored {
    emb: Vec<f32>,
    acc: Vec<f32>,
    /// Monotonic source of fencing tokens (never reused).
    next_token: u64,
    /// Token of the one outstanding checkout allowed to commit, if any.
    /// A newer checkout or a [`PartitionServer::revoke`] replaces or
    /// clears it, fencing the previous holder out.
    valid_token: Option<u64>,
}

/// One shard's stored partitions.
#[derive(Debug, Default)]
struct Shard {
    partitions: HashMap<PartitionKey, Stored>,
}

/// Sharded in-memory partition store with transfer accounting.
#[derive(Debug)]
pub struct PartitionServer {
    shards: Vec<Mutex<Shard>>,
    layout: StoreLayout,
    net: Arc<NetworkModel>,
}

impl PartitionServer {
    /// Creates a server sharded `num_shards` ways (one per machine in the
    /// paper), initializing every partition from the layout.
    ///
    /// # Panics
    ///
    /// Panics if `num_shards == 0`.
    pub fn new(layout: StoreLayout, num_shards: usize, net: Arc<NetworkModel>) -> Self {
        assert!(num_shards > 0, "need at least one shard");
        let shards: Vec<Mutex<Shard>> = (0..num_shards)
            .map(|_| Mutex::new(Shard::default()))
            .collect();
        let server = PartitionServer {
            shards,
            layout,
            net,
        };
        // materialize initial values (identical to single-machine init) so
        // every checkout is well-defined
        for &(key, _rows) in server.layout.keys() {
            let data = server.layout.init(key);
            server.shard(key).lock().partitions.insert(
                key,
                Stored {
                    emb: data.embeddings.to_vec(),
                    acc: data.adagrad.to_vec(),
                    next_token: 0,
                    valid_token: None,
                },
            );
        }
        server
    }

    fn shard(&self, key: PartitionKey) -> &Mutex<Shard> {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) % self.shards.len()]
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The layout served.
    pub fn layout(&self) -> &StoreLayout {
        &self.layout
    }

    /// Fetches a copy of a partition's last committed floats
    /// (embeddings, accumulators) plus a fencing token, recording the
    /// transfer. Any previously issued token for this key is invalidated
    /// — the lock server normally guarantees exclusivity, and when it
    /// reassigns an expired lease the new checkout fences the old holder
    /// out.
    ///
    /// # Panics
    ///
    /// Panics if the key is unknown.
    pub fn checkout(&self, key: PartitionKey) -> (Vec<f32>, Vec<f32>, u64) {
        let mut shard = self.shard(key).lock();
        let stored = shard
            .partitions
            .get_mut(&key)
            .unwrap_or_else(|| panic!("partition {key:?} not on server"));
        let token = stored.next_token;
        stored.next_token += 1;
        stored.valid_token = Some(token);
        let (emb, acc) = (stored.emb.clone(), stored.acc.clone());
        drop(shard);
        self.net.record_rpc(
            wirecost::CHECKOUT_REQUEST_BYTES,
            wirecost::part_data_bytes(
                emb.len(),
                acc.len(),
                self.layout.dim(),
                self.layout.precision(),
            ),
        );
        (emb, acc, token)
    }

    /// Returns a partition's floats to the server, recording the
    /// transfer; returns whether the write committed. A check-in whose
    /// token is no longer valid (the holder's lease expired and the
    /// partition was re-checked-out or revoked) is discarded: the
    /// committed version stays as it was.
    ///
    /// # Panics
    ///
    /// Panics if the key is unknown.
    pub fn checkin(&self, key: PartitionKey, emb: Vec<f32>, acc: Vec<f32>, token: u64) -> bool {
        // bytes cross the wire before the server can judge the token
        self.net.record_rpc(
            wirecost::checkin_request_bytes(
                emb.len(),
                acc.len(),
                self.layout.dim(),
                self.layout.precision(),
            ),
            wirecost::CHECKIN_RESPONSE_BYTES,
        );
        let mut shard = self.shard(key).lock();
        let stored = shard
            .partitions
            .get_mut(&key)
            .unwrap_or_else(|| panic!("partition {key:?} not on server"));
        if stored.valid_token != Some(token) {
            return false;
        }
        stored.emb = emb;
        stored.acc = acc;
        stored.valid_token = None;
        true
    }

    /// Invalidates any outstanding checkout token for `key`, so a dead
    /// holder's eventual check-in is discarded. Called when a bucket
    /// lease is reaped.
    pub fn revoke(&self, key: PartitionKey) {
        if let Some(stored) = self.shard(key).lock().partitions.get_mut(&key) {
            stored.valid_token = None;
        }
    }

    /// Reads a partition's last committed floats without checking it out
    /// (for final snapshots).
    ///
    /// # Panics
    ///
    /// Panics if the key is unknown.
    pub fn peek(&self, key: PartitionKey) -> (Vec<f32>, Vec<f32>) {
        let shard = self.shard(key).lock();
        let stored = shard
            .partitions
            .get(&key)
            .unwrap_or_else(|| panic!("partition {key:?} not on server"));
        (stored.emb.clone(), stored.acc.clone())
    }

    /// Bytes currently stored across shards.
    pub fn stored_bytes(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.lock()
                    .partitions
                    .values()
                    .map(|s| (s.emb.len() + s.acc.len()) * 4)
                    .sum::<usize>()
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbg_graph::schema::GraphSchema;

    fn layout(p: u32) -> StoreLayout {
        let schema = GraphSchema::homogeneous(64, p).unwrap();
        StoreLayout::from_schema(&schema, 8, 0.1, 0.1, 7)
    }

    fn server(p: u32, shards: usize) -> PartitionServer {
        PartitionServer::new(layout(p), shards, Arc::new(NetworkModel::new(1e9, 0.0)))
    }

    #[test]
    fn checkout_checkin_roundtrip() {
        let s = server(4, 2);
        let key = PartitionKey::new(0u32, 2u32);
        let (mut emb, acc, token) = s.checkout(key);
        emb[0] = 42.0;
        let committed = s.checkin(key, emb, acc, token);
        assert!(committed);
        let (emb2, _) = s.peek(key);
        assert_eq!(emb2[0], 42.0);
    }

    #[test]
    fn checkout_serves_last_committed_version_after_a_crash() {
        // a client checks out, mutates its copy, and dies without
        // checking in: the server still serves the committed version
        let s = server(4, 2);
        let key = PartitionKey::new(0u32, 2u32);
        let before = s.peek(key).0;
        let (mut emb, _acc, _token) = s.checkout(key);
        emb[0] = 999.0; // dies here; emb is the client's private copy
        let (emb2, _, _) = s.checkout(key);
        assert_eq!(emb2, before, "recovery must see the committed version");
    }

    #[test]
    fn stale_checkin_is_discarded() {
        // holder A's lease expires; B re-checks-out (fencing A out) and
        // commits; A's zombie check-in must not clobber B's work
        let s = server(4, 2);
        let key = PartitionKey::new(0u32, 2u32);
        let (mut emb_a, acc_a, token_a) = s.checkout(key);
        let (mut emb_b, acc_b, token_b) = s.checkout(key);
        emb_b[0] = 7.0;
        let committed = s.checkin(key, emb_b, acc_b, token_b);
        assert!(committed);
        emb_a[0] = -1.0;
        let committed = s.checkin(key, emb_a, acc_a, token_a);
        assert!(!committed, "stale token must not commit");
        assert_eq!(s.peek(key).0[0], 7.0);
    }

    #[test]
    fn revoke_fences_out_the_dead_holder() {
        let s = server(4, 2);
        let key = PartitionKey::new(0u32, 2u32);
        let (mut emb, acc, token) = s.checkout(key);
        s.revoke(key);
        emb[0] = -1.0;
        let committed = s.checkin(key, emb, acc, token);
        assert!(!committed);
    }

    #[test]
    fn transfers_are_accounted() {
        use pbg_tensor::Precision;
        // charged bytes are the full framed wire cost of the RPCs, not
        // the raw float payload (see netmodel::wirecost)
        let net = Arc::new(NetworkModel::new(1e6, 0.0));
        let s = PartitionServer::new(layout(4), 2, Arc::clone(&net));
        let key = PartitionKey::new(0u32, 1u32);
        let (emb, acc, token) = s.checkout(key);
        let checkout = wirecost::checkout_rpc_bytes(emb.len(), acc.len(), 8, Precision::F32);
        assert_eq!(net.total_bytes() as usize, checkout);
        assert_eq!(net.total_transfers(), 2, "request + response");
        let checkin = wirecost::checkin_rpc_bytes(emb.len(), acc.len(), 8, Precision::F32);
        s.checkin(key, emb, acc, token);
        assert_eq!(net.total_bytes() as usize, checkout + checkin);
        assert_eq!(net.total_transfers(), 4);
    }

    #[test]
    fn quantized_layout_shrinks_charged_transfers() {
        use pbg_tensor::Precision;
        let key = PartitionKey::new(0u32, 1u32);
        // realistic enough that frame overhead does not drown the ratio
        let big = GraphSchema::homogeneous(4096, 4).unwrap();
        let charge = |precision| {
            let net = Arc::new(NetworkModel::new(1e6, 0.0));
            let s = PartitionServer::new(
                StoreLayout::from_schema(&big, 32, 0.1, 0.1, 7).with_precision(precision),
                2,
                Arc::clone(&net),
            );
            let (emb, acc, token) = s.checkout(key);
            let expect = wirecost::checkout_rpc_bytes(emb.len(), acc.len(), 32, precision)
                + wirecost::checkin_rpc_bytes(emb.len(), acc.len(), 32, precision);
            s.checkin(key, emb, acc, token);
            assert_eq!(net.total_bytes() as usize, expect);
            net.total_bytes()
        };
        // only embeddings quantize; the f32 accumulator column and (for
        // int8) the per-row scale column cap the win at dim 32:
        // f16 ≈ (2·32+4)/(4·33) ≈ 0.52×, int8 ≈ (32+4+4)/(4·33) ≈ 0.31×
        let f32_bytes = charge(Precision::F32);
        assert!(charge(Precision::F16) * 100 <= f32_bytes * 55);
        assert!(charge(Precision::Int8) * 100 <= f32_bytes * 35);
    }

    #[test]
    fn initial_values_match_single_machine_init() {
        // the server's initial partitions are identical to what a local
        // InMemoryStore would initialize, so distributed and single-node
        // runs start from the same model
        let s = server(2, 2);
        let key = PartitionKey::new(0u32, 1u32);
        let (emb, _) = s.peek(key);
        let local = pbg_core::storage::InMemoryStore::new(layout(2));
        let local_data = pbg_core::storage::PartitionStore::load(&local, key);
        assert_eq!(emb, local_data.embeddings.to_vec());
    }

    #[test]
    fn stored_bytes_counts_everything() {
        let s = server(4, 3);
        // 64 nodes × (8 dims + 1 acc) × 4 bytes
        assert_eq!(s.stored_bytes(), 64 * 9 * 4);
    }
}
