//! A complete networked PBG cluster in one process: the three servers
//! from §3.3 (lock, partition, parameter) bound to ephemeral loopback
//! TCP ports, and two trainer ranks speaking the framed wire protocol
//! to them — the same code path as `pbg serve` / `pbg train --cluster`
//! across real machines, minus the terminals.
//!
//! ```sh
//! cargo run --release --example net_loopback
//! ```

use pbg::core::config::PbgConfig;
use pbg::core::model::{Embeddings, Model};
use pbg::datagen::presets;
use pbg::distsim::lockserver::LockServer;
use pbg::distsim::{EpochLock, NetworkModel, ParameterServer, PartitionServer};
use pbg::graph::schema::GraphSchema;
use pbg::net::{
    snapshot_model, train_rank, NetLock, NetParams, NetPartitions, NetServer, RankConfig,
    RankServices,
};
use pbg::telemetry::metrics::names as metric;
use pbg::telemetry::Registry;
use std::sync::Arc;
use std::time::Duration;

const PARTS: u32 = 2;
const RANKS: usize = 2;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dataset = presets::twitter_like(0.00002, 21); // ~830 nodes
    let schema = GraphSchema::homogeneous(dataset.num_nodes(), PARTS)?;
    let config = PbgConfig::builder()
        .dim(32)
        .epochs(3)
        .batch_size(500)
        .chunk_size(50)
        .uniform_negatives(50)
        .threads(2)
        .seed(21)
        .build()?;
    println!(
        "{}: {} nodes, {} edges, {}x{} bucket grid, {} ranks",
        dataset.name,
        dataset.num_nodes(),
        dataset.edges.len(),
        PARTS,
        PARTS,
        RANKS
    );

    // -- the cluster: three servers on ephemeral loopback ports --------
    // (each would be its own `pbg serve` process on a real cluster)
    let layout = Model::new(schema.clone(), config.clone())?.store_layout();
    let meter = Arc::new(NetworkModel::new(1e9, 0.0));
    let lock_state = Arc::new(EpochLock::new(
        LockServer::with_lease(Duration::from_secs(10)),
        config.epochs,
        PARTS,
        PARTS,
    ));
    let part_state = Arc::new(PartitionServer::new(layout, 2, Arc::clone(&meter)));
    let param_state = Arc::new(ParameterServer::new(1, Arc::clone(&meter)));
    let lock_srv = NetServer::lock("127.0.0.1:0", lock_state)?;
    let part_srv = NetServer::partitions("127.0.0.1:0", Arc::clone(&part_state))?;
    let param_srv = NetServer::params("127.0.0.1:0", param_state)?;
    println!(
        "servers up: lock {}, partition {}, param {}",
        lock_srv.local_addr(),
        part_srv.local_addr(),
        param_srv.local_addr()
    );

    // -- the trainer ranks (each would be `pbg train --cluster`) -------
    let stats = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..RANKS)
            .map(|rank| {
                let (schema, edges, config) = (&schema, &dataset.edges, config.clone());
                let (lock, parts, params) = (
                    lock_srv.local_addr().to_string(),
                    part_srv.local_addr().to_string(),
                    param_srv.local_addr().to_string(),
                );
                scope.spawn(move || {
                    let telemetry = Registry::new();
                    let services = RankServices {
                        lock: NetLock::new(lock, &telemetry),
                        partitions: NetPartitions::new(parts, &telemetry),
                        params: NetParams::new(params, &telemetry),
                    };
                    let run = RankConfig::new(rank);
                    let stats = train_rank(schema, edges, config, &services, &run, &telemetry)
                        .expect("rank");
                    let sent = telemetry.counter(metric::NET_BYTES_SENT).get();
                    let received = telemetry.counter(metric::NET_BYTES_RECEIVED).get();
                    (stats, sent + received)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("rank thread"))
            .collect::<Vec<_>>()
    });
    for (rank, (s, bytes)) in stats.iter().enumerate() {
        println!(
            "rank {rank}: {} buckets, {} edges, loss {:.2}, {} over the wire",
            s.buckets_trained,
            s.edges,
            s.loss,
            pbg::core::stats::format_bytes(*bytes as usize)
        );
    }
    let total: usize = stats.iter().map(|(s, _)| s.buckets_trained).sum();
    assert_eq!(total, config.epochs * (PARTS * PARTS) as usize);

    // -- final model: pulled from the servers over the same sockets ----
    let telemetry = Registry::new();
    let partitions = NetPartitions::new(part_srv.local_addr().to_string(), &telemetry);
    let params = NetParams::new(param_srv.local_addr().to_string(), &telemetry);
    let model = snapshot_model(&schema, config, &partitions, &params)?;
    let (a, b) = (dataset.edges.sources()[0], dataset.edges.destinations()[0]);
    let score: f32 = model
        .embedding(0, a)
        .iter()
        .zip(model.embedding(0, b).iter())
        .map(|(x, y)| x * y)
        .sum();
    println!(
        "snapshot: {} embeddings pulled; score({a} -> {b}) = {score:.4}",
        model.embeddings[0].rows()
    );
    println!(
        "server-side accounting: {} moved in {} transfers",
        pbg::core::stats::format_bytes(meter.total_bytes() as usize),
        meter.total_transfers()
    );
    Ok(())
}
