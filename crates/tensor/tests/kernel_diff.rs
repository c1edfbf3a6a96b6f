//! Differential kernel test harness.
//!
//! Drives random shapes, strides, and contents through the blocked kernels
//! in `pbg_tensor::kernels` and diffs every output element against the
//! naive `kernels::reference` oracle with an ULP-aware comparator. The
//! blocked kernels reassociate floating-point sums (register tiles, packed
//! panels, k-unrolling), so outputs are not bit-identical to the
//! sequential reference — but they must agree to within a small ULP count
//! or a k-scaled absolute epsilon. Anything beyond that is a real bug
//! (wrong element, missed tail, stride confusion), not rounding.
//!
//! Everything is seeded (`Xoshiro256`), so a reported failure is a
//! one-line reproducer. On failure the harness shrinks the case — halving
//! each dimension and dropping stride padding while the failure still
//! reproduces — and panics with the minimal failing case.

use pbg_tensor::kernels::{self, reference, DenseRows, ScoreGrad, Variant};
use pbg_tensor::matrix::Matrix;
use pbg_tensor::rng::Xoshiro256;
use pbg_tensor::vecmath;

// ---------------------------------------------------------------------------
// ULP-aware comparator
// ---------------------------------------------------------------------------

/// Maps an f32 onto a monotone integer line so that adjacent representable
/// floats differ by exactly 1 (the usual sign-magnitude → two's-complement
/// trick, widened to i64 so `-0.0` and `f32::MIN` can't overflow).
fn float_ord(x: f32) -> i64 {
    let bits = x.to_bits();
    if bits & 0x8000_0000 != 0 {
        -((bits & 0x7fff_ffff) as i64)
    } else {
        bits as i64
    }
}

/// Distance between two floats in units of least precision. NaN anywhere
/// is an automatic maximal distance — the kernels must never produce one
/// from finite inputs.
fn ulp_diff(a: f32, b: f32) -> u64 {
    if a.is_nan() || b.is_nan() {
        return u64::MAX;
    }
    if a == b {
        return 0; // covers +0.0 vs -0.0
    }
    (float_ord(a) - float_ord(b)).unsigned_abs()
}

/// Accept bit-equality, a small ULP distance, or — for sums that cancel
/// close to zero, where ULPs blow up — an absolute slack that scales with
/// the reduction length `k` (each reordered partial sum contributes at
/// most O(eps · |term|), and terms here are O(1) normals).
const MAX_ULPS: u64 = 64;

fn within_tolerance(got: f32, want: f32, k: usize) -> bool {
    ulp_diff(got, want) <= MAX_ULPS || (got - want).abs() <= 1e-6 * (k.max(1) as f32).sqrt() * 8.0
}

/// Diffs two strided row-major views; returns the first offending element.
#[allow(clippy::too_many_arguments)]
fn diff_views(
    rows: usize,
    cols: usize,
    got: &[f32],
    ldg: usize,
    want: &[f32],
    ldw: usize,
    k: usize,
    what: &str,
) -> Option<String> {
    for i in 0..rows {
        for j in 0..cols {
            let g = got[i * ldg + j];
            let w = want[i * ldw + j];
            if !within_tolerance(g, w, k) {
                return Some(format!(
                    "{what}[{i}][{j}]: got {g:e} want {w:e} ({} ulps apart)",
                    ulp_diff(g, w)
                ));
            }
        }
    }
    None
}

// ---------------------------------------------------------------------------
// Case generation and shrinking
// ---------------------------------------------------------------------------

/// One property-test case: a shape, per-matrix stride padding, and the
/// seed that deterministically regenerates the contents.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Case {
    m: usize,
    n: usize,
    k: usize,
    /// Extra columns of padding on top of the minimal stride, per matrix.
    pad_a: usize,
    pad_b: usize,
    pad_o: usize,
    seed: u64,
}

impl Case {
    /// Shapes are drawn to straddle the kernel's blocking constants
    /// (MR=4, NR=8, MC=64): remainders in every combination, plus empty
    /// dims, land with useful probability.
    fn random(seed: u64) -> Case {
        let mut rng = Xoshiro256::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
        Case {
            m: rng.gen_index(97), // 0..=96 crosses MC=64 and MR=4 remainders
            n: rng.gen_index(41), // 0..=40 crosses NR=8 remainders
            k: rng.gen_index(70),
            pad_a: rng.gen_index(4),
            pad_b: rng.gen_index(4),
            pad_o: rng.gen_index(4),
            seed,
        }
    }

    /// Fills a `rows × cols` buffer with stride `cols + pad`. Padding
    /// lanes are filled with a poison value so a kernel that reads or
    /// writes across a stride boundary produces loud wrong answers
    /// instead of quiet zeros.
    fn alloc(
        &self,
        rng: &mut Xoshiro256,
        rows: usize,
        cols: usize,
        pad: usize,
    ) -> (Vec<f32>, usize) {
        let ld = cols + pad;
        let mut buf = vec![1e30f32; rows * ld];
        for i in 0..rows {
            for j in 0..cols {
                buf[i * ld + j] = rng.gen_normal();
            }
        }
        (buf, ld)
    }

    /// Candidate reductions for shrinking, roughly largest-first.
    fn shrink_candidates(&self) -> Vec<Case> {
        let mut out = Vec::new();
        for f in [
            |c: &mut Case| c.m /= 2,
            |c: &mut Case| c.n /= 2,
            |c: &mut Case| c.k /= 2,
            |c: &mut Case| c.m = c.m.saturating_sub(1),
            |c: &mut Case| c.n = c.n.saturating_sub(1),
            |c: &mut Case| c.k = c.k.saturating_sub(1),
            |c: &mut Case| c.pad_a = 0,
            |c: &mut Case| c.pad_b = 0,
            |c: &mut Case| c.pad_o = 0,
        ] {
            let mut cand = self.clone();
            f(&mut cand);
            // usize division/subtraction can no-op (0/2) or underflow-guard
            if cand != *self && cand.m <= self.m && cand.n <= self.n && cand.k <= self.k {
                out.push(cand);
            }
        }
        out
    }
}

/// Greedy shrink: keep applying the first reduction that still fails.
fn shrink(case: &Case, check: &dyn Fn(&Case) -> Option<String>) -> Case {
    let mut cur = case.clone();
    'outer: loop {
        for cand in cur.shrink_candidates() {
            if check(&cand).is_some() {
                cur = cand;
                continue 'outer;
            }
        }
        return cur;
    }
}

/// Runs `cases` random cases plus a deterministic boundary sweep through
/// `check`; on failure, shrinks and panics with the minimal reproducer.
fn run_property(name: &str, cases: u64, check: impl Fn(&Case) -> Option<String>) {
    // Boundary shapes around the blocking constants, always exercised.
    let boundary = [
        (0, 0, 0),
        (0, 5, 3),
        (4, 0, 3),
        (4, 8, 0),
        (1, 1, 1),
        (4, 8, 16),   // exact register tile
        (5, 9, 17),   // +1 remainders everywhere
        (64, 8, 32),  // exact MC row block
        (65, 15, 33), // MC + 1, NR*2 - 1
        (96, 40, 69), // max of the random sweep
    ];
    for (idx, &(m, n, k)) in boundary.iter().enumerate() {
        for pad in 0..2usize {
            let case = Case {
                m,
                n,
                k,
                pad_a: pad,
                pad_b: pad * 2,
                pad_o: pad * 3,
                seed: 0xb00d + idx as u64,
            };
            if let Some(err) = check(&case) {
                let min = shrink(&case, &check);
                let err = check(&min).unwrap_or(err);
                panic!("{name}: boundary case failed; minimal case {min:?}: {err}");
            }
        }
    }
    for i in 0..cases {
        let case = Case::random(0xdead_0000 + i);
        if let Some(err) = check(&case) {
            let min = shrink(&case, &check);
            let err = check(&min).unwrap_or(err);
            panic!("{name}: random case {case:?} failed; minimal case {min:?}: {err}");
        }
    }
}

// ---------------------------------------------------------------------------
// Per-kernel checks
// ---------------------------------------------------------------------------

fn check_matmul(case: &Case) -> Option<String> {
    let &Case { m, n, k, .. } = case;
    let mut rng = Xoshiro256::seed_from_u64(case.seed);
    let (a, lda) = case.alloc(&mut rng, m, k, case.pad_a);
    let (b, ldb) = case.alloc(&mut rng, k, n, case.pad_b);
    let (mut got, ldo) = case.alloc(&mut rng, m, n, case.pad_o);
    let mut want = got.clone();
    kernels::matmul(m, n, k, &a, lda, &b, ldb, &mut got, ldo);
    reference::matmul(m, n, k, &a, lda, &b, ldb, &mut want, ldo);
    diff_views(m, n, &got, ldo, &want, ldo, k, "matmul out")
}

fn check_matmul_nt(case: &Case) -> Option<String> {
    let &Case { m, n, k, .. } = case;
    let mut rng = Xoshiro256::seed_from_u64(case.seed);
    let (a, lda) = case.alloc(&mut rng, m, k, case.pad_a);
    let (b, ldb) = case.alloc(&mut rng, n, k, case.pad_b);
    let (mut got, ldo) = case.alloc(&mut rng, m, n, case.pad_o);
    let mut want = got.clone();
    kernels::matmul_nt(m, n, k, &a, lda, &b, ldb, &mut got, ldo);
    reference::matmul_nt(m, n, k, &a, lda, &b, ldb, &mut want, ldo);
    diff_views(m, n, &got, ldo, &want, ldo, k, "matmul_nt out")
}

fn check_transpose(case: &Case) -> Option<String> {
    let &Case { m, n, .. } = case;
    let mut rng = Xoshiro256::seed_from_u64(case.seed);
    let (a, lda) = case.alloc(&mut rng, m, n, case.pad_a);
    let (mut got, ldo) = case.alloc(&mut rng, n, m, case.pad_o);
    let mut want = got.clone();
    kernels::transpose(m, n, &a, lda, &mut got, ldo);
    reference::transpose(m, n, &a, lda, &mut want, ldo);
    // Transpose moves values without arithmetic: demand bit-equality.
    for i in 0..n {
        for j in 0..m {
            let (g, w) = (got[i * ldo + j], want[i * ldo + j]);
            if g.to_bits() != w.to_bits() {
                return Some(format!("transpose[{i}][{j}]: got {g:e} want {w:e}"));
            }
        }
    }
    None
}

fn check_score_grads(case: &Case) -> Option<String> {
    let &Case { m, n, k, .. } = case;
    let mut rng = Xoshiro256::seed_from_u64(case.seed);
    let (a, lda) = case.alloc(&mut rng, m, k, case.pad_a);
    let (b, ldb) = case.alloc(&mut rng, n, k, case.pad_b);
    // The fused kernel skips zero gradient entries (masked induced
    // positives produce exact zeros in training) — make them common.
    let (mut g, ldg) = case.alloc(&mut rng, m, n, case.pad_o);
    for i in 0..m {
        for j in 0..n {
            if rng.gen_index(3) == 0 {
                g[i * ldg + j] = 0.0;
            }
        }
    }
    let mut ga_got = vec![f32::NAN; m * k.max(1)];
    let mut gb_got = vec![f32::NAN; n * k.max(1)];
    let mut ga_want = ga_got.clone();
    let mut gb_want = gb_got.clone();
    let (ldga, ldgb) = (k.max(1), k.max(1));
    kernels::score_grads(
        m,
        n,
        k,
        &a,
        lda,
        &b,
        ldb,
        &g,
        ldg,
        &mut ga_got,
        ldga,
        &mut gb_got,
        ldgb,
    );
    reference::score_grads(
        m,
        n,
        k,
        &a,
        lda,
        &b,
        ldb,
        &g,
        ldg,
        &mut ga_want,
        ldga,
        &mut gb_want,
        ldgb,
    );
    // The reductions here are over n (for ga) and m (for gb).
    diff_views(m, k, &ga_got, ldga, &ga_want, ldga, n, "score_grads ga")
        .or_else(|| diff_views(n, k, &gb_got, ldgb, &gb_want, ldgb, m, "score_grads gb"))
}

// ---------------------------------------------------------------------------
// Dispatch-differential checks: the same battery, pinned to one variant
// ---------------------------------------------------------------------------

/// `check_matmul` under an explicit `Variant` via the `_with` entry point.
fn check_matmul_v(v: Variant, case: &Case) -> Option<String> {
    let &Case { m, n, k, .. } = case;
    let mut rng = Xoshiro256::seed_from_u64(case.seed);
    let (a, lda) = case.alloc(&mut rng, m, k, case.pad_a);
    let (b, ldb) = case.alloc(&mut rng, k, n, case.pad_b);
    let (mut got, ldo) = case.alloc(&mut rng, m, n, case.pad_o);
    let mut want = got.clone();
    kernels::matmul_with(v, m, n, k, &a, lda, &b, ldb, &mut got, ldo);
    reference::matmul(m, n, k, &a, lda, &b, ldb, &mut want, ldo);
    diff_views(m, n, &got, ldo, &want, ldo, k, "matmul out")
}

/// `check_matmul_nt` under an explicit `Variant`.
fn check_matmul_nt_v(v: Variant, case: &Case) -> Option<String> {
    let &Case { m, n, k, .. } = case;
    let mut rng = Xoshiro256::seed_from_u64(case.seed);
    let (a, lda) = case.alloc(&mut rng, m, k, case.pad_a);
    let (b, ldb) = case.alloc(&mut rng, n, k, case.pad_b);
    let (mut got, ldo) = case.alloc(&mut rng, m, n, case.pad_o);
    let mut want = got.clone();
    kernels::matmul_nt_with(v, m, n, k, &a, lda, &b, ldb, &mut got, ldo);
    reference::matmul_nt(m, n, k, &a, lda, &b, ldb, &mut want, ldo);
    diff_views(m, n, &got, ldo, &want, ldo, k, "matmul_nt out")
}

/// `check_score_grads` under an explicit `Variant` (same zero-gradient
/// sparsity pattern — the RNG draws are identical to the dispatch check).
fn check_score_grads_v(v: Variant, case: &Case) -> Option<String> {
    let &Case { m, n, k, .. } = case;
    let mut rng = Xoshiro256::seed_from_u64(case.seed);
    let (a, lda) = case.alloc(&mut rng, m, k, case.pad_a);
    let (b, ldb) = case.alloc(&mut rng, n, k, case.pad_b);
    let (mut g, ldg) = case.alloc(&mut rng, m, n, case.pad_o);
    for i in 0..m {
        for j in 0..n {
            if rng.gen_index(3) == 0 {
                g[i * ldg + j] = 0.0;
            }
        }
    }
    let mut ga_got = vec![f32::NAN; m * k.max(1)];
    let mut gb_got = vec![f32::NAN; n * k.max(1)];
    let mut ga_want = ga_got.clone();
    let mut gb_want = gb_got.clone();
    let (ldga, ldgb) = (k.max(1), k.max(1));
    kernels::score_grads_with(
        v,
        m,
        n,
        k,
        &a,
        lda,
        &b,
        ldb,
        &g,
        ldg,
        &mut ga_got,
        ldga,
        &mut gb_got,
        ldgb,
    );
    reference::score_grads(
        m,
        n,
        k,
        &a,
        lda,
        &b,
        ldb,
        &g,
        ldg,
        &mut ga_want,
        ldga,
        &mut gb_want,
        ldgb,
    );
    diff_views(m, k, &ga_got, ldga, &ga_want, ldga, n, "score_grads ga")
        .or_else(|| diff_views(n, k, &gb_got, ldgb, &gb_want, ldgb, m, "score_grads gb"))
}

/// Runs one case through every kernel under two variants and demands the
/// outputs agree to the last bit. Valid only for variant pairs that
/// execute the same per-lane operation sequence (scalar ↔ sse2: both do
/// mul-then-add in the same `k` order; avx2 fuses with FMA and is
/// excluded by construction).
fn check_bit_identical_pair(va: Variant, vb: Variant, case: &Case) -> Option<String> {
    let &Case { m, n, k, .. } = case;
    let run = |v: Variant| {
        let mut rng = Xoshiro256::seed_from_u64(case.seed);
        let (a, lda) = case.alloc(&mut rng, m, k, case.pad_a);
        let (bt, ldbt) = case.alloc(&mut rng, n, k, case.pad_b); // n×k, for nt/grads
        let (b, ldb) = case.alloc(&mut rng, k, n, case.pad_b); // k×n, for matmul
        let (mut o_nt, ldo) = case.alloc(&mut rng, m, n, case.pad_o);
        let mut o_mm = o_nt.clone();
        let (mut g, ldg) = case.alloc(&mut rng, m, n, case.pad_o);
        for i in 0..m {
            for j in 0..n {
                if rng.gen_index(3) == 0 {
                    g[i * ldg + j] = 0.0;
                }
            }
        }
        kernels::matmul_nt_with(v, m, n, k, &a, lda, &bt, ldbt, &mut o_nt, ldo);
        kernels::matmul_with(v, m, n, k, &a, lda, &b, ldb, &mut o_mm, ldo);
        let mut ga = vec![f32::NAN; m * k.max(1)];
        let mut gb = vec![f32::NAN; n * k.max(1)];
        let (ldga, ldgb) = (k.max(1), k.max(1));
        kernels::score_grads_with(
            v, m, n, k, &a, lda, &bt, ldbt, &g, ldg, &mut ga, ldga, &mut gb, ldgb,
        );
        (o_nt, o_mm, ga, gb)
    };
    let (nt_a, mm_a, ga_a, gb_a) = run(va);
    let (nt_b, mm_b, ga_b, gb_b) = run(vb);
    for (name, xs, ys) in [
        ("matmul_nt", &nt_a, &nt_b),
        ("matmul", &mm_a, &mm_b),
        ("score_grads ga", &ga_a, &ga_b),
        ("score_grads gb", &gb_a, &gb_b),
    ] {
        for (i, (x, y)) in xs.iter().zip(ys.iter()).enumerate() {
            if x.to_bits() != y.to_bits() {
                return Some(format!(
                    "{name} flat[{i}]: {va:?} gave {x:e} but {vb:?} gave {y:e} (not bit-identical)"
                ));
            }
        }
    }
    None
}

/// The packed forward path (`ScoreGrad::scores`) against the reference —
/// packing must be a pure layout change.
fn check_packed_forward(case: &Case) -> Option<String> {
    let &Case { m, n, k, .. } = case;
    let mut rng = Xoshiro256::seed_from_u64(case.seed);
    let mut pos = Matrix::zeros(m, k);
    pos.fill_with(|_, _| rng.gen_normal());
    let mut cand = Matrix::zeros(n, k);
    cand.fill_with(|_, _| rng.gen_normal());
    let fused = ScoreGrad::new(&cand);
    let got = fused.scores(&pos);
    let mut want = vec![0.0f32; m * n];
    reference::matmul_nt(
        m,
        n,
        k,
        pos.as_slice(),
        k.max(1),
        cand.as_slice(),
        k.max(1),
        &mut want,
        n.max(1),
    );
    diff_views(
        m,
        n,
        got.as_slice(),
        n.max(1),
        &want,
        n.max(1),
        k,
        "ScoreGrad::scores",
    )
}

// ---------------------------------------------------------------------------
// The properties
// ---------------------------------------------------------------------------

#[test]
fn matmul_matches_reference_over_random_shapes_and_strides() {
    run_property("matmul", 64, check_matmul);
}

#[test]
fn matmul_nt_matches_reference_over_random_shapes_and_strides() {
    run_property("matmul_nt", 64, check_matmul_nt);
}

#[test]
fn transpose_is_bit_exact_over_random_shapes_and_strides() {
    run_property("transpose", 64, check_transpose);
}

#[test]
fn fused_score_grads_matches_reference_over_random_shapes() {
    run_property("score_grads", 64, check_score_grads);
}

#[test]
fn packed_forward_matches_reference_over_random_shapes() {
    run_property("packed_forward", 64, check_packed_forward);
}

// ---------------------------------------------------------------------------
// Dispatch-differential battery
// ---------------------------------------------------------------------------

/// Every seeded shape/stride case in the battery, under every variant
/// this CPU supports, ULP-compared (with shrinking) against the scalar
/// reference oracle. This is the property that makes `PBG_KERNEL` safe to
/// flip in production: no variant may change results beyond reassociation
/// rounding.
#[test]
fn every_supported_variant_passes_the_full_battery() {
    for v in Variant::supported_variants() {
        run_property(&format!("matmul[{}]", v.name()), 48, |c| {
            check_matmul_v(v, c)
        });
        run_property(&format!("matmul_nt[{}]", v.name()), 48, |c| {
            check_matmul_nt_v(v, c)
        });
        run_property(&format!("score_grads[{}]", v.name()), 48, |c| {
            check_score_grads_v(v, c)
        });
    }
}

/// A variant the CPU cannot execute must degrade per call to scalar
/// results — never fault. (On an AVX2 host this exercises the same
/// `for_call` guard by confirming the requested variant and scalar agree
/// on a case; on a non-AVX2 host it proves the degrade path.)
#[test]
fn unsupported_variants_degrade_rather_than_fault() {
    let case = Case {
        m: 33,
        n: 17,
        k: 40,
        pad_a: 1,
        pad_b: 2,
        pad_o: 0,
        seed: 0xfa11_bacc,
    };
    for v in Variant::all() {
        if v.supported() {
            continue;
        }
        // Must run and must match scalar exactly: for_call() rewrites it.
        if let Some(err) = check_bit_identical_pair(v, Variant::Scalar, &case) {
            panic!("unsupported {v:?} did not degrade to scalar: {err}");
        }
    }
}

/// Scalar and SSE2 execute the identical per-lane mul-then-add sequence
/// in the identical order, so they must agree to the last bit across the
/// whole battery — not merely within ULP tolerance. AVX2 uses FMA and is
/// deliberately excluded (fused rounding differs by construction).
#[test]
fn scalar_and_sse2_are_bit_identical_across_the_battery() {
    if !Variant::Sse2.supported() {
        eprintln!("skipping: sse2 not supported on this host");
        return;
    }
    run_property("scalar≡sse2", 48, |c| {
        check_bit_identical_pair(Variant::Scalar, Variant::Sse2, c)
    });
}

/// The exact shapes the committed golden vectors flow through (batch
/// chunk geometry: 50 positives × 100 candidates × d, and the eval-time
/// transposes of those). Golden tests pin `Variant::Scalar`; this
/// assertion is what licenses running the rest of the suite under
/// `PBG_KERNEL=sse2` without regenerating goldens.
#[test]
fn golden_covered_shapes_are_bit_identical_across_non_fma_variants() {
    if !Variant::Sse2.supported() {
        eprintln!("skipping: sse2 not supported on this host");
        return;
    }
    let golden_shapes = [
        (50, 100, 16),  // chunk scoring: positives × candidates × d
        (100, 50, 16),  // backward transposed
        (50, 100, 100), // paper-default d=100
        (7, 100, 16),   // ragged final chunk
        (1, 1, 16),     // single-edge batch
    ];
    for (idx, &(m, n, k)) in golden_shapes.iter().enumerate() {
        for pad in 0..2usize {
            let case = Case {
                m,
                n,
                k,
                pad_a: pad,
                pad_b: pad,
                pad_o: pad,
                seed: 0x601d + idx as u64,
            };
            if let Some(err) = check_bit_identical_pair(Variant::Scalar, Variant::Sse2, &case) {
                panic!("golden shape {m}x{n}x{k} pad={pad}: {err}");
            }
        }
    }
}

/// The gathered scorer (one query against candidate rows fetched by id,
/// staged and packed `NR` at a time) against gathering the same rows into
/// a matrix and calling `matmul_nt` with `m = 1`: bit for bit, under every
/// supported variant, on candidate counts that are not a multiple of `NR`,
/// odd `k`, strided tables, repeated ids, and with a staging hook that
/// rewrites the rows (cosine normalization) as well as without one.
#[test]
fn gathered_scorer_is_bit_identical_to_gather_then_matmul_nt() {
    let shapes = [
        (1, 1),
        (7, 5),
        (8, 16),
        (9, 33),
        (61, 127),
        (200, 64),
        (1001, 129),
    ];
    for v in Variant::supported_variants() {
        for (idx, &(n, k)) in shapes.iter().enumerate() {
            let mut rng = Xoshiro256::seed_from_u64(0x6a7e + idx as u64);
            let (table_rows, ld) = (50, k + 3);
            let table: Vec<f32> = (0..table_rows * ld).map(|_| rng.gen_normal()).collect();
            let query: Vec<f32> = (0..k).map(|_| rng.gen_normal()).collect();
            // 50 table rows: longer id lists repeat ids
            let ids: Vec<u32> = (0..n).map(|_| rng.gen_index(table_rows) as u32).collect();
            for normalize in [false, true] {
                let stage = |rows: &mut [f32]| {
                    if normalize {
                        rows.chunks_exact_mut(k).for_each(vecmath::normalize);
                    }
                };
                let mut got = vec![0.0f32; n];
                kernels::gathered_nt_with(
                    v,
                    &query,
                    &DenseRows::new(&table, k, ld),
                    &ids,
                    stage,
                    &mut got,
                );
                let mut gathered = vec![0.0f32; n * k];
                for (dst, &id) in gathered.chunks_exact_mut(k).zip(&ids) {
                    dst.copy_from_slice(&table[id as usize * ld..][..k]);
                }
                stage(&mut gathered);
                let mut want = vec![0.0f32; n];
                kernels::matmul_nt_with(v, 1, n, k, &query, k, &gathered, k, &mut want, n);
                let got_bits: Vec<u32> = got.iter().map(|x| x.to_bits()).collect();
                let want_bits: Vec<u32> = want.iter().map(|x| x.to_bits()).collect();
                assert_eq!(
                    got_bits,
                    want_bits,
                    "{} n={n} k={k} normalize={normalize}",
                    v.name()
                );
            }
        }
    }
}

/// The shrinker itself: plant a deliberate disagreement and verify the
/// harness reduces it to a minimal case instead of reporting the original
/// large one.
#[test]
fn shrinker_minimizes_planted_failure() {
    // "Fails" whenever all of m, n, k are nonzero — the minimal such case
    // under our reductions is (1, 1, 1) with no padding.
    let planted = |c: &Case| -> Option<String> {
        if c.m > 0 && c.n > 0 && c.k > 0 {
            Some("planted".into())
        } else {
            None
        }
    };
    let start = Case {
        m: 40,
        n: 24,
        k: 9,
        pad_a: 2,
        pad_b: 1,
        pad_o: 3,
        seed: 7,
    };
    let min = shrink(&start, &planted);
    assert_eq!((min.m, min.n, min.k), (1, 1, 1), "shrunk to {min:?}");
    assert_eq!((min.pad_a, min.pad_b, min.pad_o), (0, 0, 0));
}

/// The ULP comparator itself.
#[test]
fn ulp_comparator_sanity() {
    assert_eq!(ulp_diff(1.0, 1.0), 0);
    assert_eq!(ulp_diff(0.0, -0.0), 0);
    assert_eq!(ulp_diff(1.0, f32::from_bits(1.0f32.to_bits() + 1)), 1);
    assert_eq!(
        ulp_diff(f32::MIN_POSITIVE, -f32::MIN_POSITIVE),
        2 * (f32::MIN_POSITIVE.to_bits() as u64)
    );
    assert_eq!(ulp_diff(f32::NAN, 1.0), u64::MAX);
    assert!(ulp_diff(1.0, 2.0) > 1_000_000);
    // tolerance: adjacent floats pass, grossly wrong values don't
    assert!(within_tolerance(
        1.0,
        f32::from_bits(1.0f32.to_bits() + 3),
        16
    ));
    assert!(!within_tolerance(1.0, 1.1, 16));
}
