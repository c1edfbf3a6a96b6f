//! Reconciles the simulated network cost model against *measured* bytes
//! on real loopback RPCs.
//!
//! `distsim::netmodel::wirecost` claims to predict, in closed form, how
//! many bytes each RPC moves under the `pbg-net` framing. Before this
//! test existed the simulation dead-reckoned transfer sizes from raw
//! float counts (`floats * 4`), ignoring frame headers, tags, and chunk
//! framing — so simulated network time drifted from what a real
//! deployment would see.
//!
//! Three observers must now agree byte-for-byte, per RPC shape:
//!
//! 1. **measured** — the client's `net.bytes_sent` + `net.bytes_received`
//!    counters, counting real bytes through real sockets;
//! 2. **simulated** — the serving state machine's own [`NetworkModel`]
//!    accounting (the same object the in-process simulation charges);
//! 3. **predicted** — the `wirecost` closed forms.
//!
//! The partition server is exercised at several partition sizes
//! (including multi-chunk blocks) and the parameter server at several
//! block sizes; a latency sanity check confirms the client histogram
//! observed one sample per RPC.

use pbg_core::storage::StoreLayout;
use pbg_distsim::netmodel::wirecost;
use pbg_distsim::paramserver::ParamKey;
use pbg_distsim::service::{ParamService, PartitionService};
use pbg_distsim::{NetworkModel, ParameterServer, PartitionServer};
use pbg_graph::schema::GraphSchema;
use pbg_net::{NetParams, NetPartitions, NetServer};
use pbg_telemetry::metrics::names as metric;
use pbg_telemetry::Registry;
use pbg_tensor::Precision;
use std::sync::Arc;

/// Measured bytes on the client side of `op`, from a fresh registry.
fn measure(telemetry: &Registry, op: impl FnOnce()) -> u64 {
    let sent = telemetry.counter(metric::NET_BYTES_SENT);
    let received = telemetry.counter(metric::NET_BYTES_RECEIVED);
    let before = sent.get() + received.get();
    op();
    sent.get() + received.get() - before
}

#[test]
fn partition_rpc_bytes_reconcile_across_all_three_observers() {
    // dims sized so emb blocks are tiny, exactly one chunk shy, and
    // multi-chunk: rows = entities / parts, floats = rows * dim
    let cases: [(u32, usize); 3] = [
        (16, 8),     // 8 rows * 8 dim = 64 floats: one small chunk
        (1024, 128), // 512 * 128 = 65 536 floats: exactly one full chunk
        (2048, 160), // 1024 * 160 = 163 840 floats: three chunks
    ];
    for (entities, dim) in cases {
        let schema = GraphSchema::homogeneous(entities, 2).expect("schema");
        let layout = StoreLayout::from_schema(&schema, dim, 0.1, 0.05, 7);
        let net = Arc::new(NetworkModel::new(1e9, 0.0));
        let server_state = Arc::new(PartitionServer::new(layout, 1, Arc::clone(&net)));
        let server = NetServer::partitions("127.0.0.1:0", Arc::clone(&server_state)).expect("bind");
        let telemetry = Registry::new();
        let client = NetPartitions::new(server.local_addr().to_string(), &telemetry);
        let key = pbg_core::storage::PartitionKey::new(0u32, 0u32);

        let rows = (entities / 2) as usize;
        let emb_floats = rows * dim;
        let acc_floats = rows; // one Adagrad accumulator per row

        // checkout: request frame out, PartData header + chunks back
        let mut checked_out = None;
        let measured = measure(&telemetry, || {
            checked_out = Some(client.checkout(key).expect("checkout"));
        });
        let (emb, acc, token) = checked_out.unwrap();
        assert_eq!(
            emb.len(),
            emb_floats,
            "layout rows*dim for {entities}x{dim}"
        );
        assert_eq!(acc.len(), acc_floats);
        let predicted =
            wirecost::checkout_rpc_bytes(emb_floats, acc_floats, dim, Precision::F32) as u64;
        let simulated = net.total_bytes();
        assert_eq!(
            measured, predicted,
            "checkout {entities}x{dim}: measured loopback bytes vs wirecost"
        );
        assert_eq!(
            simulated, predicted,
            "checkout {entities}x{dim}: state-machine NetworkModel vs wirecost"
        );

        // checkin: header + chunks out, CheckinResp back
        let measured = measure(&telemetry, || {
            assert!(client.checkin(key, emb, acc, token).expect("checkin"));
        });
        let predicted =
            wirecost::checkin_rpc_bytes(emb_floats, acc_floats, dim, Precision::F32) as u64;
        assert_eq!(measured, predicted, "checkin {entities}x{dim}: measured");
        assert_eq!(
            net.total_bytes() - simulated,
            predicted,
            "checkin {entities}x{dim}: simulated"
        );
        // two RPCs = four charged transfers (request + response each)
        assert_eq!(net.total_transfers(), 4);
    }
}

/// The same three-way reconciliation over *quantized* wire transfers:
/// a layout carrying a storage precision makes the server ship
/// `PartChunkQ` frames on checkout, and a client constructed with the
/// matching precision ships them back on checkin. Measured socket
/// bytes, the serving `NetworkModel`, and the `wirecost` closed forms must
/// still agree exactly — at both f16 and int8.
#[test]
fn quantized_partition_rpc_bytes_reconcile_across_all_three_observers() {
    let cases: [(u32, usize); 3] = [
        (16, 8),     // one small chunk
        (1024, 128), // exactly one full chunk of floats
        (2048, 160), // multi-chunk
    ];
    for precision in [Precision::F16, Precision::Int8] {
        for (entities, dim) in cases {
            let schema = GraphSchema::homogeneous(entities, 2).expect("schema");
            let layout =
                StoreLayout::from_schema(&schema, dim, 0.1, 0.05, 7).with_precision(precision);
            let net = Arc::new(NetworkModel::new(1e9, 0.0));
            let server_state = Arc::new(PartitionServer::new(layout, 1, Arc::clone(&net)));
            let server =
                NetServer::partitions("127.0.0.1:0", Arc::clone(&server_state)).expect("bind");
            let telemetry = Registry::new();
            let client = NetPartitions::with_precision(
                server.local_addr().to_string(),
                &telemetry,
                precision,
                dim,
            );
            let key = pbg_core::storage::PartitionKey::new(0u32, 0u32);

            let rows = (entities / 2) as usize;
            let emb_floats = rows * dim;
            let acc_floats = rows;

            let mut checked_out = None;
            let measured = measure(&telemetry, || {
                checked_out = Some(client.checkout(key).expect("checkout"));
            });
            let (emb, acc, token) = checked_out.unwrap();
            assert_eq!(emb.len(), emb_floats, "{precision:?} {entities}x{dim}");
            assert_eq!(acc.len(), acc_floats);
            let predicted =
                wirecost::checkout_rpc_bytes(emb_floats, acc_floats, dim, precision) as u64;
            let simulated = net.total_bytes();
            assert_eq!(
                measured, predicted,
                "{precision:?} checkout {entities}x{dim}: measured loopback bytes vs wirecost"
            );
            assert_eq!(
                simulated, predicted,
                "{precision:?} checkout {entities}x{dim}: NetworkModel vs wirecost"
            );
            // the quantized download must actually be smaller than f32
            assert!(
                predicted
                    < wirecost::checkout_rpc_bytes(emb_floats, acc_floats, dim, Precision::F32)
                        as u64,
                "{precision:?} checkout {entities}x{dim} not smaller than f32"
            );

            let measured = measure(&telemetry, || {
                assert!(client.checkin(key, emb, acc, token).expect("checkin"));
            });
            let predicted =
                wirecost::checkin_rpc_bytes(emb_floats, acc_floats, dim, precision) as u64;
            assert_eq!(
                measured, predicted,
                "{precision:?} checkin {entities}x{dim}: measured"
            );
            assert_eq!(
                net.total_bytes() - simulated,
                predicted,
                "{precision:?} checkin {entities}x{dim}: simulated"
            );
            assert_eq!(net.total_transfers(), 4);
        }
    }
}

#[test]
fn param_rpc_bytes_reconcile_across_all_three_observers() {
    for floats in [1usize, 100, 4096] {
        let net = Arc::new(NetworkModel::new(1e9, 0.0));
        let server_state = Arc::new(ParameterServer::new(1, Arc::clone(&net)));
        let server = NetServer::params("127.0.0.1:0", Arc::clone(&server_state)).expect("bind");
        let telemetry = Registry::new();
        let client = NetParams::new(server.local_addr().to_string(), &telemetry);
        let key = ParamKey {
            relation: 0,
            side: 0,
        };
        let block = vec![0.5f32; floats];
        client.register(key, &block).expect("register");
        let sim_before = net.total_bytes();

        let measured = measure(&telemetry, || {
            client.push_pull(key, &block).expect("push_pull");
        });
        let predicted = wirecost::push_pull_rpc_bytes(floats) as u64;
        assert_eq!(
            measured, predicted,
            "push_pull of {floats} floats: measured"
        );
        assert_eq!(
            net.total_bytes() - sim_before,
            predicted,
            "push_pull of {floats} floats: simulated"
        );

        let sim_before = net.total_bytes();
        let measured = measure(&telemetry, || {
            client.pull(key).expect("pull");
        });
        // NOTE: the serving state machine charges nothing for pull (the
        // simulation treats reads as free); the wire still moves bytes.
        let predicted = wirecost::pull_rpc_bytes(floats) as u64;
        assert_eq!(measured, predicted, "pull of {floats} floats: measured");
        assert_eq!(
            net.total_bytes(),
            sim_before,
            "pull is uncharged in the simulation cost model"
        );
    }
}

#[test]
fn latency_histogram_sees_one_sample_per_rpc() {
    let net = Arc::new(NetworkModel::new(1e9, 0.0));
    let server_state = Arc::new(ParameterServer::new(1, net));
    let server = NetServer::params("127.0.0.1:0", server_state).expect("bind");
    let telemetry = Registry::new();
    let client = NetParams::new(server.local_addr().to_string(), &telemetry);
    let key = ParamKey {
        relation: 0,
        side: 0,
    };
    client.register(key, &[1.0, 2.0]).expect("register");
    for _ in 0..5 {
        client.push_pull(key, &[0.0, 0.0]).expect("push_pull");
    }
    let hist = telemetry.histogram(metric::NET_RPC_LATENCY_NS);
    assert_eq!(hist.count(), 6, "register + 5 push_pulls");
    assert!(hist.sum() > 0, "loopback RPCs still take nonzero time");
}
