//! Seeded fault injection for the distributed simulation.
//!
//! A [`FaultPlan`] deterministically decides, from its seed alone, which
//! operations fail: a machine crash partway through an epoch, partition
//! transfers that drop mid-flight, and parameter-server syncs that time
//! out. Determinism matters — a recovery test must inject the *same*
//! faults every run, and a fault-free run (`FaultPlan::none`) must be
//! byte-identical to one built without fault support at all.
//!
//! Faults are *decided* here and injected at the service boundary by
//! [`Faulty`], a decorator over the partition and parameter services
//! that the rank driver wraps around whatever transport it was handed:
//! a failed transfer is a transport error the rank store's retry
//! absorbs, a timed-out parameter sync backs off before it is sent. The
//! machine crash is the driver itself dying ([`FaultPlan::machine_crashes`]
//! is asked by [`crate::rank::Rank::run`]); the lock server's lease
//! expiry then reassigns the abandoned bucket and the partition server's
//! fencing tokens discard the dead holder's check-ins.

use crate::paramserver::ParamKey;
use crate::service::{ParamService, PartitionService, ServiceError};
use pbg_core::storage::PartitionKey;
use pbg_telemetry::Counter;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};

/// One injected machine crash: the machine stops dead (no check-ins, no
/// lock releases) right after it has been granted a bucket and checked
/// out its partitions — the worst point for a naive protocol, since the
/// bucket is locked and the freshest embeddings are only in its memory.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CrashFault {
    /// Which machine dies.
    pub machine: usize,
    /// It dies while starting its `buckets + 1`-th bucket of the epoch
    /// (so `buckets: 0` crashes the machine on its very first grant).
    pub buckets: usize,
    /// The 1-based epoch the crash fires in (a machine is a thread per
    /// epoch here, so it "reboots" at the next epoch).
    pub epoch: usize,
}

/// Deterministic, seeded plan of which simulated operations fail.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Seed for the per-operation failure decisions.
    pub seed: u64,
    /// Optional hard machine crash.
    pub crash: Option<CrashFault>,
    /// Probability in `[0, 1]` that any one partition-server transfer
    /// (checkout or check-in) fails and must be retried.
    pub transfer_failure_rate: f64,
    /// Probability in `[0, 1]` that any one parameter-server sync times
    /// out and must be retried.
    pub param_timeout_rate: f64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

impl FaultPlan {
    /// A plan that injects nothing.
    pub fn none() -> Self {
        FaultPlan {
            seed: 0,
            crash: None,
            transfer_failure_rate: 0.0,
            param_timeout_rate: 0.0,
        }
    }

    /// `true` when this plan can never inject a fault.
    pub fn is_none(&self) -> bool {
        self.crash.is_none() && self.transfer_failure_rate <= 0.0 && self.param_timeout_rate <= 0.0
    }

    /// Should `machine` crash now, given it has completed
    /// `buckets_done` buckets of 1-based `epoch`?
    pub fn machine_crashes(&self, epoch: usize, machine: usize, buckets_done: usize) -> bool {
        self.crash
            == Some(CrashFault {
                machine,
                buckets: buckets_done,
                epoch,
            })
    }

    /// Does `machine`'s `nth` partition transfer fail? `nth` counts every
    /// attempt (including retries), so a retry re-rolls the dice.
    pub fn transfer_fails(&self, machine: usize, nth: u64) -> bool {
        self.roll(0x72a5, machine, nth) < self.transfer_failure_rate
    }

    /// Does `machine`'s `nth` parameter-sync attempt time out?
    pub fn param_sync_times_out(&self, machine: usize, nth: u64) -> bool {
        self.roll(0x9a7a, machine, nth) < self.param_timeout_rate
    }

    /// SplitMix64-style hash of (seed, domain, machine, nth) → [0, 1).
    fn roll(&self, domain: u64, machine: usize, nth: u64) -> f64 {
        let mut z = self
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(domain)
            .wrapping_add((machine as u64) << 32)
            .wrapping_add(nth);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        (z >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Exponential backoff delay for the `attempt`-th retry (0-based):
/// 100µs, 200µs, 400µs, ... capped at ~6.4ms. Real deployments back off
/// in seconds; the simulation compresses time but keeps the shape.
pub fn backoff(attempt: u32) -> std::time::Duration {
    std::time::Duration::from_micros(100u64 << attempt.min(6))
}

/// Injects one machine's share of a [`FaultPlan`] into the partition or
/// parameter service it wraps; with [`FaultPlan::none`] every call is
/// forwarded untouched.
#[derive(Debug)]
pub struct Faulty<'a, S> {
    inner: &'a S,
    plan: &'a FaultPlan,
    machine: usize,
    /// Numbers this machine's attempts for the plan (a retry re-rolls
    /// with a fresh number).
    seq: AtomicU64,
    retries: Counter,
}

impl<'a, S> Faulty<'a, S> {
    /// Wraps `inner` for `machine`; backed-off parameter-sync timeouts
    /// are counted in `retries`.
    pub fn new(inner: &'a S, plan: &'a FaultPlan, machine: usize, retries: Counter) -> Self {
        Faulty {
            inner,
            plan,
            machine,
            seq: AtomicU64::new(0),
            retries,
        }
    }

    /// Decides a transfer's fate before anything is sent, so an injected
    /// failure can neither duplicate nor half-apply it.
    fn transfer(&self) -> Result<(), ServiceError> {
        let nth = self.seq.fetch_add(1, Ordering::Relaxed);
        if self.plan.transfer_fails(self.machine, nth) {
            return Err(ServiceError::Transport("injected transfer failure".into()));
        }
        Ok(())
    }

    /// Backs off until the plan lets a parameter sync through. The sync
    /// itself is then sent exactly once: `push_pull` is not idempotent.
    fn wait_out_timeouts(&self) {
        let mut attempt = 0u32;
        while self
            .plan
            .param_sync_times_out(self.machine, self.seq.fetch_add(1, Ordering::Relaxed))
        {
            self.retries.inc();
            std::thread::sleep(backoff(attempt));
            attempt += 1;
        }
    }
}

impl<S: PartitionService> PartitionService for Faulty<'_, S> {
    fn checkout(&self, key: PartitionKey) -> Result<(Vec<f32>, Vec<f32>, u64), ServiceError> {
        self.transfer()?;
        self.inner.checkout(key)
    }

    fn checkin(
        &self,
        key: PartitionKey,
        emb: Vec<f32>,
        acc: Vec<f32>,
        token: u64,
    ) -> Result<bool, ServiceError> {
        self.transfer()?;
        self.inner.checkin(key, emb, acc, token)
    }

    fn revoke(&self, key: PartitionKey) -> Result<(), ServiceError> {
        self.inner.revoke(key)
    }

    fn peek(&self, key: PartitionKey) -> Result<(Vec<f32>, Vec<f32>), ServiceError> {
        self.inner.peek(key)
    }
}

impl<S: ParamService> ParamService for Faulty<'_, S> {
    fn register(&self, key: ParamKey, init: &[f32]) -> Result<Vec<f32>, ServiceError> {
        self.inner.register(key, init)
    }

    fn push_pull(&self, key: ParamKey, delta: &[f32]) -> Result<Vec<f32>, ServiceError> {
        self.wait_out_timeouts();
        self.inner.push_pull(key, delta)
    }

    fn pull(&self, key: ParamKey) -> Result<Vec<f32>, ServiceError> {
        self.inner.pull(key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_injects_nothing() {
        let p = FaultPlan::none();
        assert!(p.is_none());
        for nth in 0..1000 {
            assert!(!p.transfer_fails(0, nth));
            assert!(!p.param_sync_times_out(1, nth));
        }
        assert!(!p.machine_crashes(1, 0, 0));
    }

    #[test]
    fn decisions_are_deterministic() {
        let a = FaultPlan {
            seed: 42,
            transfer_failure_rate: 0.3,
            ..FaultPlan::none()
        };
        let b = a.clone();
        for nth in 0..200 {
            assert_eq!(a.transfer_fails(1, nth), b.transfer_fails(1, nth));
        }
    }

    #[test]
    fn failure_rate_is_roughly_respected() {
        let p = FaultPlan {
            seed: 7,
            transfer_failure_rate: 0.25,
            ..FaultPlan::none()
        };
        let fails = (0..10_000).filter(|&n| p.transfer_fails(0, n)).count();
        assert!(
            (2_000..3_000).contains(&fails),
            "0.25 rate produced {fails}/10000 failures"
        );
    }

    #[test]
    fn crash_fires_exactly_once() {
        let p = FaultPlan {
            crash: Some(CrashFault {
                machine: 1,
                buckets: 2,
                epoch: 1,
            }),
            ..FaultPlan::none()
        };
        assert!(p.machine_crashes(1, 1, 2));
        assert!(!p.machine_crashes(1, 1, 3), "wrong bucket count");
        assert!(!p.machine_crashes(1, 0, 2), "wrong machine");
        assert!(!p.machine_crashes(2, 1, 2), "wrong epoch");
    }

    #[test]
    fn backoff_grows_then_caps() {
        assert!(backoff(1) > backoff(0));
        assert_eq!(backoff(6), backoff(20), "capped");
    }

    #[test]
    fn plan_roundtrips_through_json() {
        let p = FaultPlan {
            seed: 3,
            crash: Some(CrashFault {
                machine: 0,
                buckets: 5,
                epoch: 2,
            }),
            transfer_failure_rate: 0.1,
            param_timeout_rate: 0.05,
        };
        let json = serde_json::to_string(&p).unwrap();
        let back: FaultPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(p, back);
    }
}
