//! The rank driver against a failing transport: the service traits
//! exist so a test can substitute one.

use pbg_core::config::PbgConfig;
use pbg_core::storage::PartitionKey;
use pbg_distsim::lockserver::LockServer;
use pbg_distsim::service::{PartitionService, ServiceError};
use pbg_distsim::{
    snapshot_model, train_rank, EpochLock, NetworkModel, ParameterServer, RankConfig, RankServices,
};
use pbg_graph::edges::{Edge, EdgeList};
use pbg_graph::schema::GraphSchema;
use pbg_telemetry::metrics::names as metric;
use pbg_telemetry::Registry;
use std::sync::Arc;

/// A partition server that is permanently unreachable.
struct Down;

fn down<T>() -> Result<T, ServiceError> {
    Err(ServiceError::Transport("connection refused".into()))
}

impl PartitionService for Down {
    fn checkout(&self, _: PartitionKey) -> Result<(Vec<f32>, Vec<f32>, u64), ServiceError> {
        down()
    }

    fn checkin(
        &self,
        _: PartitionKey,
        _: Vec<f32>,
        _: Vec<f32>,
        _: u64,
    ) -> Result<bool, ServiceError> {
        down()
    }

    fn revoke(&self, _: PartitionKey) -> Result<(), ServiceError> {
        down()
    }

    fn peek(&self, _: PartitionKey) -> Result<(Vec<f32>, Vec<f32>), ServiceError> {
        down()
    }
}

#[test]
fn permanent_partition_failure_is_an_error_from_train_rank_and_snapshot_model() {
    let schema = GraphSchema::homogeneous(32, 2).unwrap();
    let mut edges = EdgeList::new();
    for i in 0..64u32 {
        edges.push(Edge::new(i % 32, 0u32, (i * 7 + 1) % 32));
    }
    let config = PbgConfig::builder()
        .dim(4)
        .epochs(1)
        .threads(1)
        .build()
        .unwrap();
    let services = RankServices {
        lock: Arc::new(EpochLock::new(LockServer::new(), 1, 2, 2)),
        partitions: Down,
        params: ParameterServer::new(1, Arc::new(NetworkModel::new(1e9, 0.0))),
    };
    let telemetry = Registry::new();

    let run = RankConfig::new(0);
    let err = train_rank(&schema, &edges, config.clone(), &services, &run, &telemetry)
        .expect_err("no partition can be checked out");
    assert_eq!(err, ServiceError::Transport("connection refused".into()));
    assert!(
        telemetry.snapshot().counter(metric::NET_RPC_RETRIES) > 0,
        "the rank retried before giving up"
    );

    let err = snapshot_model(&schema, config, &services.partitions, &services.params)
        .expect_err("no partition can be peeked");
    assert_eq!(err, ServiceError::Transport("connection refused".into()));
}
