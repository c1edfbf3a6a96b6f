//! Kernel microbenchmark: the §4.3 negative-scoring hot path.
//!
//! Sweeps the shapes batched negative sampling actually produces — chunk
//! size `C` positives scored against `N = C + 50` candidates at embedding
//! dimension `d` — and times three arms per shape:
//!
//! - `naive`: the sequential triple-loop `reference` kernels (the oracle
//!   the differential harness diffs against, and what the matmuls looked
//!   like before blocking);
//! - `blocked`: the cache-blocked, panel-packed kernels (packing cost
//!   included, as `Matrix::matmul_nt` pays it per call);
//! - `fused`: the [`ScoreGrad`] context — pack once, forward scores plus
//!   the one-pass dual-gradient backward.
//!
//! Forward flops are `2·C·N·d`; the fused arm also does the backward
//! (`4·C·N·d` more) and is normalized accordingly, so all GF/s numbers
//! are comparable. Results go to `target/experiments/kernels.json` and,
//! except under `--quick`, to the committed snapshot `BENCH_kernels.json`
//! at the workspace root.
//!
//! ```sh
//! cargo run --release -p pbg-bench --bin kernels [-- --quick]
//! ```

use std::time::Instant;

use pbg_bench::report::{report, ExpArgs, Table};
use pbg_tensor::kernels::{self, dispatch, reference, ScoreGrad, Variant};
use pbg_tensor::matrix::Matrix;
use pbg_tensor::rng::Xoshiro256;
use serde_json::json;

/// Times `f` (called with an iteration count) over `iters` iterations,
/// best of `reps` runs; returns seconds per iteration.
fn best_time(reps: usize, iters: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        best = best.min(start.elapsed().as_secs_f64() / iters as f64);
    }
    best
}

fn random_matrix(rows: usize, cols: usize, rng: &mut Xoshiro256) -> Matrix {
    let mut m = Matrix::zeros(rows, cols);
    m.fill_with(|_, _| rng.gen_normal());
    m
}

fn main() {
    let args = ExpArgs::parse();
    // Shapes: chunk sizes from the paper's training config (C = 50) and a
    // large eval-style batch (C = 1024), at small / paper / large dims.
    let shapes: Vec<(usize, usize)> = if args.quick {
        vec![(64, 50)]
    } else {
        let mut v = Vec::new();
        for &d in &[64usize, 128, 400] {
            for &c in &[50usize, 1024] {
                v.push((d, c));
            }
        }
        v
    };
    let (reps, budget_flops) = if args.quick { (3, 5e7) } else { (5, 2e9) };

    let mut table = Table::new(
        "Kernel bench — C×N scores at dim d (GF/s, forward unless noted)",
        &[
            "d",
            "C",
            "N",
            "naive",
            "blocked",
            "fused fwd+bwd",
            "blocked/naive",
            "fused/naive",
        ],
    );
    let mut records = Vec::new();
    let mut rng = Xoshiro256::seed_from_u64(42);

    for &(d, c) in &shapes {
        let n = c + 50;
        let pos = random_matrix(c, d, &mut rng);
        let cand = random_matrix(n, d, &mut rng);
        // Upstream gradient with the sparsity masking actually produces:
        // roughly a third of the entries are exact zeros.
        let mut grad = random_matrix(c, n, &mut rng);
        for i in 0..c {
            for j in 0..n {
                if rng.gen_index(3) == 0 {
                    grad.row_mut(i)[j] = 0.0;
                }
            }
        }

        let fwd_flops = 2.0 * c as f64 * n as f64 * d as f64;
        let bwd_flops = 2.0 * fwd_flops;
        let iters = ((budget_flops / fwd_flops) as usize).clamp(3, 20_000);

        // Arm 1: naive forward (the reference oracle's triple loop).
        let mut out = vec![0.0f32; c * n];
        let t_naive = best_time(reps, iters, || {
            reference::matmul_nt(c, n, d, pos.as_slice(), d, cand.as_slice(), d, &mut out, n);
        });

        // Arm 2: blocked forward, packing per call like Matrix::matmul_nt.
        // Goes through the runtime dispatcher (PBG_KERNEL / best CPU path).
        let t_blocked = best_time(reps, iters, || {
            kernels::matmul_nt(c, n, d, pos.as_slice(), d, cand.as_slice(), d, &mut out, n);
        });

        // Arm 2b: the same blocked forward pinned to each microkernel
        // variant this CPU supports, so the dispatch win is visible in
        // one run instead of needing three PBG_KERNEL invocations.
        let mut variant_gfs: Vec<(String, f64)> = Vec::new();
        for v in Variant::supported_variants() {
            let t = best_time(reps, iters, || {
                kernels::matmul_nt_with(
                    v,
                    c,
                    n,
                    d,
                    pos.as_slice(),
                    d,
                    cand.as_slice(),
                    d,
                    &mut out,
                    n,
                );
            });
            let fwd = 2.0 * c as f64 * n as f64 * d as f64;
            variant_gfs.push((v.name().to_string(), fwd / t / 1e9));
        }

        // Arm 3: fused — pack once, forward + one-pass dual backward.
        let t_fused = best_time(reps, iters.div_ceil(3), || {
            let fused = ScoreGrad::new(&cand);
            let scores = fused.scores(&pos);
            let (ga, gb) = fused.backward(&pos, &grad);
            std::hint::black_box((scores, ga, gb));
        });

        // Arm 4: the same forward + backward work through the naive
        // kernels, for the fused speedup denominator.
        let mut ga = vec![0.0f32; c * d];
        let mut gb = vec![0.0f32; n * d];
        let t_naive_fb = best_time(reps, iters.div_ceil(3).min(50), || {
            reference::matmul_nt(c, n, d, pos.as_slice(), d, cand.as_slice(), d, &mut out, n);
            reference::score_grads(
                c,
                n,
                d,
                pos.as_slice(),
                d,
                cand.as_slice(),
                d,
                grad.as_slice(),
                n,
                &mut ga,
                d,
                &mut gb,
                d,
            );
        });

        let gfs = |flops: f64, secs: f64| flops / secs / 1e9;
        let naive_gf = gfs(fwd_flops, t_naive);
        let blocked_gf = gfs(fwd_flops, t_blocked);
        let fused_gf = gfs(fwd_flops + bwd_flops, t_fused);
        let naive_fb_gf = gfs(fwd_flops + bwd_flops, t_naive_fb);
        let blocked_vs_naive = t_naive / t_blocked;
        let fused_vs_naive = t_naive_fb / t_fused;

        table.row(&[
            d.to_string(),
            c.to_string(),
            n.to_string(),
            format!("{naive_gf:.2}"),
            format!("{blocked_gf:.2}"),
            format!("{fused_gf:.2}"),
            format!("{blocked_vs_naive:.2}x"),
            format!("{fused_vs_naive:.2}x"),
        ]);
        let variants_value = serde_json::Value::Map(
            variant_gfs
                .iter()
                .map(|(name, gf)| (name.clone(), serde_json::Value::F64(*gf)))
                .collect(),
        );
        let gflops = json!({
            "naive_nt": naive_gf,
            "blocked_nt": blocked_gf,
            "blocked_nt_variants": variants_value,
            "fused_fwd_bwd": fused_gf,
            "naive_fwd_bwd": naive_fb_gf,
        });
        records.push(json!({
            "d": d,
            "c": c,
            "n": n,
            "gflops": gflops,
            "speedup_blocked_vs_naive": blocked_vs_naive,
            "speedup_fused_vs_naive": fused_vs_naive,
        }));
        println!(
            "d={d:<4} C={c:<5} N={n:<5} naive {naive_gf:6.2} GF/s  \
             blocked {blocked_gf:6.2} GF/s ({blocked_vs_naive:.2}x)  \
             fused fwd+bwd {fused_gf:6.2} GF/s ({fused_vs_naive:.2}x)"
        );
        let per_variant: Vec<String> = variant_gfs
            .iter()
            .map(|(name, gf)| format!("{name} {gf:.2}"))
            .collect();
        println!(
            "                      blocked by variant: {}",
            per_variant.join("  ")
        );
    }

    table.print();
    let result = json!({
        "bench": "kernels",
        "quick": args.quick,
        "dispatch_active": dispatch::active().name(),
        "shapes": records,
    });
    report("kernels", &result, args.quick);
}
