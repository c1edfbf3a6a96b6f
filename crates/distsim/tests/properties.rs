//! Property-based tests for the distributed-execution substrate.

use pbg_distsim::event::{simulate, EventSimConfig};
use pbg_distsim::lockserver::{Acquire, LockServer};
use pbg_distsim::netmodel::NetworkModel;
use pbg_graph::bucket::BucketId;
use pbg_tensor::rng::Xoshiro256;
use proptest::prelude::*;
use std::collections::HashSet;

/// Machine occupancy of the discrete-event schedule for `P` partitions
/// and `M` machines, with uniform buckets and free transfers so only
/// the lock server's scheduling shows.
fn occupancy(partitions: u32, machines: usize) -> f64 {
    let p = partitions as u64;
    simulate(&EventSimConfig {
        nodes: p * 1_000,
        edges: p * p * 100_000,
        dim: 4,
        partitions,
        machines,
        epochs: 2,
        edges_per_sec: 100_000.0,
        disk_bandwidth: 1e18,
        net_bandwidth: 1e18,
        epoch_overhead_sec: 0.0,
        pipelined: false,
        buffer_partitions: 2,
    })
    .occupancy
}

proptest! {
    /// Under any random schedule of acquires and releases, concurrently
    /// held buckets never share a partition, every bucket is granted
    /// exactly once per epoch, and the alignment invariant holds.
    #[test]
    fn lock_server_schedule_is_safe(p in 2u32..9, machines in 1usize..6, seed in 0u64..500) {
        let ls = LockServer::new();
        ls.start_epoch(p, p);
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let mut held: Vec<Option<BucketId>> = vec![None; machines];
        let mut granted: Vec<BucketId> = Vec::new();
        let mut init_src: HashSet<u32> = HashSet::new();
        let mut init_dst: HashSet<u32> = HashSet::new();
        let mut steps = 0;
        loop {
            steps += 1;
            prop_assert!(steps < 10_000, "schedule did not terminate");
            let m = rng.gen_index(machines);
            match held[m] {
                Some(bucket) => {
                    // 50/50 keep training or release
                    if rng.gen_f32() < 0.5 {
                        ls.release_bucket(m, bucket);
                        held[m] = None;
                    }
                }
                None => match ls.acquire(m, None) {
                    Acquire::Granted(b) => {
                        // invariant: aligned with something already trained
                        prop_assert!(
                            granted.is_empty()
                                || init_src.contains(&b.src.0)
                                || init_dst.contains(&b.dst.0),
                            "invariant violated by {b}"
                        );
                        // no partition conflicts with other held buckets
                        for other in held.iter().flatten() {
                            prop_assert!(!b.conflicts_with(other), "{b} vs {other}");
                        }
                        init_src.insert(b.src.0);
                        init_dst.insert(b.dst.0);
                        granted.push(b);
                        held[m] = Some(b);
                    }
                    Acquire::Wait => {
                        // progress is possible as long as someone holds work
                        prop_assert!(
                            held.iter().any(|h| h.is_some()),
                            "deadlock: all machines waiting"
                        );
                    }
                    Acquire::Done => {
                        if held.iter().all(|h| h.is_none()) {
                            break;
                        }
                        // drain stragglers
                        for (mi, h) in held.iter_mut().enumerate() {
                            if let Some(b) = h.take() {
                                ls.release_bucket(mi, b);
                            }
                        }
                        break;
                    }
                },
            }
        }
        let unique: HashSet<BucketId> = granted.iter().copied().collect();
        prop_assert_eq!(unique.len(), granted.len(), "bucket granted twice");
        prop_assert_eq!(granted.len(), (p * p) as usize, "epoch incomplete");
    }

    #[test]
    fn network_accounting_is_additive(
        sizes in proptest::collection::vec(1usize..1_000_000, 1..50),
        bandwidth in 1e3f64..1e9,
    ) {
        let net = NetworkModel::new(bandwidth, 0.0);
        for &s in &sizes {
            net.record_rpc(s, s / 2);
        }
        let total_bytes: usize = sizes.iter().map(|&s| s + s / 2).sum();
        prop_assert_eq!(net.total_bytes() as usize, total_bytes);
        prop_assert_eq!(net.total_transfers() as usize, 2 * sizes.len());
    }

    #[test]
    fn occupancy_bounded_and_monotone_in_machines(p in 2u32..17) {
        let m_half = (p / 2).max(1) as usize;
        let occ_ok = occupancy(p, m_half);
        let occ_over = occupancy(p, 2 * m_half + 2);
        prop_assert!((0.0..=1.0 + 1e-9).contains(&occ_ok));
        prop_assert!(occ_over <= occ_ok + 1e-9, "oversubscription improved occupancy");
        // a lone machine always finds a free bucket
        prop_assert!(occupancy(p, 1) > 0.95, "one machine idled");
    }
}
