//! # pbg-net — real networked distributed training
//!
//! TCP transport for the PBG distributed protocol (paper §3.3): the
//! lock, partition, and parameter servers from `pbg-distsim` served
//! over real sockets, and clients that hand the `pbg-distsim` rank
//! driver those servers through its service traits.
//!
//! Layering:
//!
//! - [`wire`] — length-prefixed, versioned, checksummed binary frames
//!   and the [`wire::Message`] codec. No sockets, pure bytes.
//! - [`server`] — [`server::NetServer`]: thread-per-connection loops
//!   that decode requests and call the **same state machines** the
//!   in-process simulation uses ([`pbg_distsim::lockserver::EpochLock`],
//!   [`pbg_distsim::partitionserver::PartitionServer`],
//!   [`pbg_distsim::paramserver::ParameterServer`]).
//! - [`client`] — [`client::NetLock`], [`client::NetPartitions`],
//!   [`client::NetParams`]: TCP clients implementing the
//!   `distsim::service` traits, with telemetry (bytes, RPC latency,
//!   reconnect retries).
//! - [`rank`] — a re-export of [`pbg_distsim::rank`]: the one rank
//!   driver, generic over the service traits, which the simulated
//!   cluster runs over in-process services and [`train_rank`] runs over
//!   the clients above. It replays the single-machine schedule
//!   seed-for-seed, so a conflict-free cluster run is bit-identical to
//!   `threads = 1` on one machine.
//!
//! Because both transports run one driver over one trait set, every
//! protocol invariant (epoch sequencing, fencing tokens, lease reaping,
//! delta merge) is tested once in `pbg-distsim` and inherited here; the
//! net crate's own tests cover what sockets add — framing, corruption,
//! partial reads, connection loss, and real crash recovery.

pub mod client;
pub mod server;
pub mod wire;

pub use client::{Connection, NetLock, NetParams, NetPartitions};
pub use pbg_distsim::rank;
pub use rank::{snapshot_model, train_rank, RankConfig, RankServices, RankStats};
pub use server::NetServer;
pub use wire::{Message, WireError};

#[cfg(test)]
mod tests {
    use super::*;
    use pbg_core::storage::{PartitionKey, StoreLayout};
    use pbg_distsim::lockserver::{Acquire, EpochLock, LockServer};
    use pbg_distsim::paramserver::{ParamKey, ParameterServer};
    use pbg_distsim::partitionserver::PartitionServer;
    use pbg_distsim::service::{LockService, ParamService, PartitionService};
    use pbg_distsim::NetworkModel;
    use pbg_graph::schema::GraphSchema;
    use pbg_telemetry::Registry;
    use std::sync::Arc;

    #[test]
    fn lock_rpc_roundtrip_matches_in_process() {
        let lock = Arc::new(EpochLock::new(LockServer::new(), 1, 2, 2));
        let _server = NetServer::lock("127.0.0.1:0", Arc::clone(&lock)).expect("bind");
        let addr = _server.local_addr().to_string();
        let telemetry = Registry::new();
        let client = NetLock::new(addr, &telemetry);

        let mut granted = Vec::new();
        let mut prev = None;
        loop {
            match client.acquire(0, prev).expect("acquire") {
                (epoch, Acquire::Granted(b)) => {
                    assert_eq!(epoch, 1);
                    granted.push(b);
                    if let Some(p) = prev.replace(b) {
                        client.release_bucket(0, p).expect("release prev");
                    }
                }
                // remaining buckets can all conflict with the held prev:
                // release it and retry, like the real training loop
                (_, Acquire::Wait) => {
                    let p = prev.take().expect("wait implies a held bucket");
                    client.release_bucket(0, p).expect("release");
                }
                (epoch, Acquire::Done) => {
                    assert_eq!(epoch, 1);
                    break;
                }
            }
        }
        assert_eq!(granted.len(), 4, "2x2 grid fully drained over TCP");
        assert_eq!(client.reap_expired().expect("reap"), vec![]);
    }

    #[test]
    fn partition_rpc_roundtrip_preserves_floats_and_fencing() {
        let schema = GraphSchema::homogeneous(100, 2).expect("schema");
        let layout = StoreLayout::from_schema(&schema, 8, 0.1, 0.05, 7);
        let parts = Arc::new(PartitionServer::new(
            layout,
            1,
            Arc::new(NetworkModel::new(1e9, 0.0)),
        ));
        let _server = NetServer::partitions("127.0.0.1:0", Arc::clone(&parts)).expect("bind");
        let telemetry = Registry::new();
        let client = NetPartitions::new(_server.local_addr().to_string(), &telemetry);

        let key = PartitionKey::new(0u32, 0u32);
        let (emb, acc, token) = client.checkout(key).expect("checkout");
        let (peek_emb, peek_acc) = client.peek(key).expect("peek");
        assert_eq!(emb, peek_emb, "checkout and peek see the same bytes");
        assert_eq!(acc, peek_acc);

        let mut new_emb = emb.clone();
        new_emb[0] += 1.0;
        assert!(
            client
                .checkin(key, new_emb.clone(), acc.clone(), token)
                .expect("checkin"),
            "fresh token commits"
        );
        assert!(
            !client.checkin(key, emb, acc, token).expect("stale checkin"),
            "consumed token is fenced out"
        );
        let (after, _) = client.peek(key).expect("peek after");
        assert_eq!(after, new_emb, "committed write is visible");
    }

    #[test]
    fn param_rpc_roundtrip_merges_deltas() {
        let params = Arc::new(ParameterServer::new(
            1,
            Arc::new(NetworkModel::new(1e9, 0.0)),
        ));
        let _server = NetServer::params("127.0.0.1:0", Arc::clone(&params)).expect("bind");
        let telemetry = Registry::new();
        let client = NetParams::new(_server.local_addr().to_string(), &telemetry);

        let key = ParamKey {
            relation: 0,
            side: 0,
        };
        let canonical = client.register(key, &[1.0, 2.0]).expect("register");
        assert_eq!(canonical, vec![1.0, 2.0]);
        let merged = client.push_pull(key, &[0.5, -1.0]).expect("push_pull");
        assert_eq!(merged, vec![1.5, 1.0]);
        assert_eq!(client.pull(key).expect("pull"), vec![1.5, 1.0]);
    }

    #[test]
    fn oversized_param_block_is_an_error_not_a_panic() {
        // refused before anything is sent: no server needed
        let client = NetParams::new("127.0.0.1:1", &Registry::new());
        let key = ParamKey {
            relation: 0,
            side: ParamKey::ENTITY_TABLE,
        };
        let table = vec![0.0f32; client::MAX_PARAM_FLOATS + 1];
        for result in [client.register(key, &table), client.push_pull(key, &table)] {
            assert!(matches!(
                result,
                Err(pbg_distsim::service::ServiceError::Protocol(_))
            ));
        }
    }

    #[test]
    fn server_survives_protocol_misuse() {
        let params = Arc::new(ParameterServer::new(
            1,
            Arc::new(NetworkModel::new(1e9, 0.0)),
        ));
        let _server = NetServer::params("127.0.0.1:0", Arc::clone(&params)).expect("bind");
        let addr = _server.local_addr().to_string();
        let telemetry = Registry::new();

        // pulling an unregistered key panics in the state machine; the
        // server must turn that into an Error frame, not die
        let bad = NetParams::new(addr.clone(), &telemetry);
        let err = bad
            .pull(ParamKey {
                relation: 9,
                side: 0,
            })
            .expect_err("unregistered pull");
        assert!(matches!(
            err,
            pbg_distsim::service::ServiceError::Protocol(_)
        ));

        // a wrong-role message gets an Error reply too
        let lock_on_params = NetLock::new(addr.clone(), &telemetry);
        lock_on_params
            .reap_expired()
            .expect_err("param server cannot reap locks");

        // and the server still works for well-behaved clients
        let good = NetParams::new(addr, &telemetry);
        let key = ParamKey {
            relation: 0,
            side: 0,
        };
        good.register(key, &[4.0]).expect("register after misuse");
        assert_eq!(good.pull(key).expect("pull"), vec![4.0]);
    }
}
