//! The telemetry flop counter must be dispatch-invariant.
//!
//! `trainer.mflops` is derived from `kernels::flops_executed()` deltas, so
//! if the SIMD paths counted work differently from scalar the gauge would
//! silently change meaning with `PBG_KERNEL`. Counting happens in the
//! `_with` entry points *above* the variant dispatch, so every variant
//! reports the same exact `2·m·n·k` (matmul), `4·k·nnz` (score_grads) and
//! `2·n·k` (gathered scorer) totals by construction — this binary pins that
//! down.
//!
//! This lives in its own test binary because the counter is process-global:
//! the library's unit tests run kernels concurrently and would pollute the
//! deltas. Tests here run within one binary and measure serially.

use pbg_tensor::kernels::{self, Variant};
use pbg_tensor::rng::Xoshiro256;

/// Runs a fixed workload under `v` and returns the counter delta.
fn flops_for(v: Variant) -> u64 {
    let (m, n, k) = (37, 29, 53);
    let mut rng = Xoshiro256::seed_from_u64(0xf10b);
    let a: Vec<f32> = (0..m * k).map(|_| rng.gen_normal()).collect();
    let bt: Vec<f32> = (0..n * k).map(|_| rng.gen_normal()).collect();
    let b: Vec<f32> = (0..k * n).map(|_| rng.gen_normal()).collect();
    // Same seeded sparsity for every variant: nnz is identical, so the
    // score_grads count must be too.
    let mut g: Vec<f32> = (0..m * n).map(|_| rng.gen_normal()).collect();
    for (i, gv) in g.iter_mut().enumerate() {
        if i % 3 == 0 {
            *gv = 0.0;
        }
    }
    let mut out = vec![0.0f32; m * n];
    let mut ga = vec![0.0f32; m * k];
    let mut gb = vec![0.0f32; n * k];

    let before = kernels::flops_executed();
    kernels::matmul_nt_with(v, m, n, k, &a, k, &bt, k, &mut out, n);
    kernels::matmul_with(v, m, n, k, &a, k, &b, n, &mut out, n);
    kernels::score_grads_with(v, m, n, k, &a, k, &bt, k, &g, n, &mut ga, k, &mut gb, k);
    let ids: Vec<u32> = (0..n as u32).rev().collect();
    let rows = kernels::DenseRows::new(&bt, k, k);
    kernels::gathered_nt_with(v, &a[..k], &rows, &ids, |_| {}, &mut out[..n]);
    kernels::flops_executed() - before
}

#[test]
fn flop_counter_is_identical_across_all_variants() {
    let (m, n, k) = (37u64, 29u64, 53u64);
    let nnz = {
        // i % 3 == 0 entries were zeroed and are skipped by the kernel.
        let total = m * n;
        total - total.div_ceil(3)
    };
    let expected = 2 * m * n * k  // matmul_nt
        + 2 * m * n * k           // matmul
        + 4 * k * nnz             // score_grads: dot + two axpys per nonzero
        + 2 * n * k; // gathered scorer: one query against n rows

    // Every variant — including ones this CPU can't run, which degrade to
    // scalar per call — must report the exact analytic count.
    for v in Variant::all() {
        let got = flops_for(v);
        assert_eq!(
            got, expected,
            "variant {v:?} reported {got} flops, expected {expected}"
        );
    }
}
