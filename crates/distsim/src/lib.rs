//! Simulated distributed execution for `pbg-rs`.
//!
//! The paper's distributed mode (§4.2, Figure 2) runs up to `P/2` machines
//! in parallel: a **lock server** parcels out buckets with disjoint
//! partitions (favoring partition reuse and enforcing the initialization
//! invariant), a sharded **partition server** holds the partitioned
//! embeddings, and a sharded **parameter server** asynchronously syncs the
//! small set of shared parameters with throttling.
//!
//! We cannot ship a cluster, so this crate holds the *protocol* — the
//! three server state machines and the one trainer-rank driver — plus a
//! simulation of it: machines-as-threads running that driver, a
//! **network cost model** that counts the bytes every transfer would put
//! on the wire, and a **discrete-event projector** that predicts
//! paper-scale wall-clock hours (the time columns of Tables 3 and 4)
//! from measured per-edge throughput. `pbg-net` runs the same driver and
//! state machines over TCP.
//!
//! - [`lockserver`]: bucket locking with affinity, the init invariant,
//!   lease expiry for crash recovery, and epoch sequencing.
//! - [`partitionserver`]: sharded partition storage with transfer
//!   accounting, committed versions, and fencing tokens.
//! - [`paramserver`]: asynchronous shared-parameter sync with throttling
//!   (relation operators and unpartitioned entity tables).
//! - [`service`]: transport-neutral traits over the three servers.
//! - [`rank`]: the trainer rank — the acquire → swap → train → sync →
//!   release loop, written once over the service traits.
//! - [`cluster`]: the simulated cluster — one rank per machine thread
//!   over the in-process servers.
//! - [`fault`]: seeded fault injection (machine crashes, transfer
//!   failures, sync timeouts) as a service decorator.
//! - [`netmodel`]: bandwidth/latency cost model (defaults match the
//!   paper's measured ~1 GB/s TCP bandwidth).
//! - [`event`]: discrete-event projection of paper-scale training time
//!   and machine occupancy (how many machines can actually work, given
//!   P and M).

pub mod cluster;
pub mod event;
pub mod fault;
pub mod lockserver;
pub mod netmodel;
pub mod paramserver;
pub mod partitionserver;
pub mod rank;
pub mod service;

pub use cluster::{ClusterConfig, ClusterTrainer};
pub use event::{EventSimConfig, EventSimReport};
pub use fault::{CrashFault, FaultPlan};
pub use lockserver::{EpochLock, LockServer};
pub use netmodel::NetworkModel;
pub use paramserver::ParameterServer;
pub use partitionserver::PartitionServer;
pub use rank::{snapshot_model, train_rank, Rank, RankConfig, RankServices, RankStats};
pub use service::{LockService, ParamService, PartitionService, ServiceError};
