//! Transport-neutral traits over the three cluster services.
//!
//! The lock, partition, and parameter servers are plain state machines
//! ([`EpochLock`], [`PartitionServer`], [`ParameterServer`]); these
//! traits describe what a trainer rank needs from each one without
//! saying *where* it runs. The in-process implementations below call the
//! state machines directly (and always succeed); `pbg-net` implements
//! the same traits over framed TCP, so the simulated and networked paths
//! share one logic core and one rank driver.

use crate::lockserver::{Acquire, EpochLock};
use crate::paramserver::{ParamKey, ParameterServer};
use crate::partitionserver::PartitionServer;
use pbg_core::storage::PartitionKey;
use pbg_graph::bucket::BucketId;
use std::fmt;
use std::sync::Arc;

/// Why a service call failed. In-process services never fail; networked
/// ones surface connection problems as [`ServiceError::Transport`] and
/// malformed or unexpected replies as [`ServiceError::Protocol`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// The connection broke (refused, reset, timed out, short read).
    Transport(String),
    /// The peer replied with something the protocol does not allow here
    /// (bad frame, wrong message variant, server-side error report).
    Protocol(String),
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Transport(detail) => write!(f, "transport error: {detail}"),
            ServiceError::Protocol(detail) => write!(f, "protocol error: {detail}"),
        }
    }
}

impl std::error::Error for ServiceError {}

/// The lock server as seen by a trainer rank: epoch-labeled bucket
/// leases (see [`EpochLock`]).
pub trait LockService {
    /// Requests a bucket; returns the epoch the result belongs to.
    fn acquire(
        &self,
        machine: usize,
        prev: Option<BucketId>,
    ) -> Result<(usize, Acquire), ServiceError>;

    /// Releases one bucket held by `machine` (no-op if already reaped).
    fn release_bucket(&self, machine: usize, bucket: BucketId) -> Result<(), ServiceError>;

    /// Reclaims expired leases, returning the reaped buckets.
    fn reap_expired(&self) -> Result<Vec<BucketId>, ServiceError>;
}

/// The partition server as seen by a trainer rank: fenced checkout and
/// check-in of partition float blocks.
pub trait PartitionService {
    /// Fetches `(embeddings, accumulators, fencing_token)`.
    fn checkout(&self, key: PartitionKey) -> Result<(Vec<f32>, Vec<f32>, u64), ServiceError>;

    /// Returns a partition; `Ok(false)` means the token was stale and
    /// the write was discarded.
    fn checkin(
        &self,
        key: PartitionKey,
        emb: Vec<f32>,
        acc: Vec<f32>,
        token: u64,
    ) -> Result<bool, ServiceError>;

    /// Invalidates any outstanding checkout token for `key`.
    fn revoke(&self, key: PartitionKey) -> Result<(), ServiceError>;

    /// Reads the last committed floats without checking out.
    fn peek(&self, key: PartitionKey) -> Result<(Vec<f32>, Vec<f32>), ServiceError>;
}

/// The parameter server as seen by a trainer rank: async delta push/pull
/// of shared (unpartitioned) parameter blocks.
pub trait ParamService {
    /// Registers a block (first writer wins) and returns the canonical
    /// server value.
    fn register(&self, key: ParamKey, init: &[f32]) -> Result<Vec<f32>, ServiceError>;

    /// Pushes a delta, returns the merged value.
    fn push_pull(&self, key: ParamKey, delta: &[f32]) -> Result<Vec<f32>, ServiceError>;

    /// Reads the current value without pushing.
    fn pull(&self, key: ParamKey) -> Result<Vec<f32>, ServiceError>;
}

impl LockService for EpochLock {
    fn acquire(
        &self,
        machine: usize,
        prev: Option<BucketId>,
    ) -> Result<(usize, Acquire), ServiceError> {
        Ok(EpochLock::acquire(self, machine, prev))
    }

    fn release_bucket(&self, machine: usize, bucket: BucketId) -> Result<(), ServiceError> {
        EpochLock::release_bucket(self, machine, bucket);
        Ok(())
    }

    fn reap_expired(&self) -> Result<Vec<BucketId>, ServiceError> {
        Ok(EpochLock::reap_expired(self))
    }
}

impl PartitionService for PartitionServer {
    fn checkout(&self, key: PartitionKey) -> Result<(Vec<f32>, Vec<f32>, u64), ServiceError> {
        Ok(PartitionServer::checkout(self, key))
    }

    fn checkin(
        &self,
        key: PartitionKey,
        emb: Vec<f32>,
        acc: Vec<f32>,
        token: u64,
    ) -> Result<bool, ServiceError> {
        Ok(PartitionServer::checkin(self, key, emb, acc, token))
    }

    fn revoke(&self, key: PartitionKey) -> Result<(), ServiceError> {
        PartitionServer::revoke(self, key);
        Ok(())
    }

    fn peek(&self, key: PartitionKey) -> Result<(Vec<f32>, Vec<f32>), ServiceError> {
        Ok(PartitionServer::peek(self, key))
    }
}

impl ParamService for ParameterServer {
    fn register(&self, key: ParamKey, init: &[f32]) -> Result<Vec<f32>, ServiceError> {
        ParameterServer::register(self, key, init);
        Ok(ParameterServer::pull(self, key))
    }

    fn push_pull(&self, key: ParamKey, delta: &[f32]) -> Result<Vec<f32>, ServiceError> {
        Ok(ParameterServer::push_pull(self, key, delta))
    }

    fn pull(&self, key: ParamKey) -> Result<Vec<f32>, ServiceError> {
        Ok(ParameterServer::pull(self, key))
    }
}

impl<T: LockService + ?Sized> LockService for Arc<T> {
    fn acquire(
        &self,
        machine: usize,
        prev: Option<BucketId>,
    ) -> Result<(usize, Acquire), ServiceError> {
        (**self).acquire(machine, prev)
    }

    fn release_bucket(&self, machine: usize, bucket: BucketId) -> Result<(), ServiceError> {
        (**self).release_bucket(machine, bucket)
    }

    fn reap_expired(&self) -> Result<Vec<BucketId>, ServiceError> {
        (**self).reap_expired()
    }
}

impl<T: PartitionService + ?Sized> PartitionService for Arc<T> {
    fn checkout(&self, key: PartitionKey) -> Result<(Vec<f32>, Vec<f32>, u64), ServiceError> {
        (**self).checkout(key)
    }

    fn checkin(
        &self,
        key: PartitionKey,
        emb: Vec<f32>,
        acc: Vec<f32>,
        token: u64,
    ) -> Result<bool, ServiceError> {
        (**self).checkin(key, emb, acc, token)
    }

    fn revoke(&self, key: PartitionKey) -> Result<(), ServiceError> {
        (**self).revoke(key)
    }

    fn peek(&self, key: PartitionKey) -> Result<(Vec<f32>, Vec<f32>), ServiceError> {
        (**self).peek(key)
    }
}

impl<T: ParamService + ?Sized> ParamService for Arc<T> {
    fn register(&self, key: ParamKey, init: &[f32]) -> Result<Vec<f32>, ServiceError> {
        (**self).register(key, init)
    }

    fn push_pull(&self, key: ParamKey, delta: &[f32]) -> Result<Vec<f32>, ServiceError> {
        (**self).push_pull(key, delta)
    }

    fn pull(&self, key: ParamKey) -> Result<Vec<f32>, ServiceError> {
        (**self).pull(key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lockserver::LockServer;
    use crate::netmodel::NetworkModel;
    use pbg_graph::schema::GraphSchema;

    #[test]
    fn in_process_services_behave_like_the_raw_state_machines() {
        let lock = Arc::new(EpochLock::new(LockServer::new(), 1, 2, 2));
        let (epoch, first) = LockService::acquire(&lock, 0, None).unwrap();
        assert_eq!(epoch, 1);
        let Acquire::Granted(b) = first else {
            panic!("{first:?}")
        };
        LockService::release_bucket(&lock, 0, b).unwrap();
        assert!(LockService::reap_expired(&lock).unwrap().is_empty());

        let schema = GraphSchema::homogeneous(16, 2).unwrap();
        let layout = pbg_core::storage::StoreLayout::from_schema(&schema, 4, 0.1, 0.1, 7);
        let net = Arc::new(NetworkModel::new(1e9, 0.0));
        let parts = Arc::new(PartitionServer::new(layout, 1, Arc::clone(&net)));
        let key = PartitionKey::new(0u32, 1u32);
        let (mut emb, acc, token) = PartitionService::checkout(&parts, key).unwrap();
        emb[0] = 5.0;
        assert!(PartitionService::checkin(&parts, key, emb, acc, token).unwrap());
        assert_eq!(PartitionService::peek(&parts, key).unwrap().0[0], 5.0);

        let params = Arc::new(ParameterServer::new(1, net));
        let pkey = ParamKey {
            relation: 0,
            side: 0,
        };
        assert_eq!(
            ParamService::register(&params, pkey, &[1.0]).unwrap(),
            vec![1.0]
        );
        assert_eq!(
            ParamService::push_pull(&params, pkey, &[2.0]).unwrap(),
            vec![3.0]
        );
        assert_eq!(ParamService::pull(&params, pkey).unwrap(), vec![3.0]);
    }
}
