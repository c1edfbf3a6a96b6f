//! Cache-blocked, panel-packed, autovectorization-friendly matmul kernels.
//!
//! The paper's core performance claim (§4.3) is that batched negative
//! sampling turns `B · B_n` independent dot products into one `C × (C+U)`
//! matrix product. That only pays off if the matrix product itself keeps
//! the hardware busy, so this module provides the real kernels behind
//! [`crate::matrix::Matrix`]:
//!
//! - **Blocked `A·Bᵀ`** ([`matmul_nt`]): the score-matrix kernel. `B` is
//!   packed once into `NR`-wide k-major panels, `A` into `MR`-wide panels
//!   per row group, and an `MR × NR` register-tile microkernel walks both
//!   packed panels with no bounds checks in the hot loop.
//! - **Runtime SIMD dispatch** ([`dispatch`]): the register tile, the
//!   `matmul` row kernel, and the fused dual axpy each have three
//!   implementations — safe autovectorized Rust (`scalar`), explicit
//!   SSE2 intrinsics bit-identical to scalar (`sse2`), and an AVX2+FMA
//!   fast path (`avx2`) — selected once per process by CPU feature
//!   detection, overridable with `PBG_KERNEL`, and per-call via the
//!   `*_with` entry points. Flop accounting sits *above* the dispatch
//!   point, so every variant reports identical counts.
//! - **Gathered `q·Bᵀ`** ([`gathered_nt`]): one query row against
//!   candidate rows fetched by id through [`GatherRows`], staged and
//!   packed `NR` at a time in L1 — the read-side scorer, bit-identical to
//!   gather + [`matmul_nt`].
//! - **Blocked `A·B`** ([`matmul`]): k-unrolled row-accumulator form used
//!   by gradient products and the RESCAL operator.
//! - **Fused score+grad** ([`score_grads`]): given the loss gradient `G`
//!   w.r.t. a score matrix `S = A·Bᵀ`, computes *both* gradient products
//!   `dA = G·B` and `dB = Gᵀ·A` in a single pass over `G`, so `G` is read
//!   once and `A`'s rows are hot in cache while they feed `dB`.
//! - **Scoped-thread row split** ([`matmul_nt_packed_threaded`]): for large
//!   shapes, output row groups are split across `std::thread::scope`
//!   threads. Each `(i, j)` element is computed by exactly one thread in
//!   exactly the same order as the serial kernel, so results are
//!   bit-identical for every thread count.
//! - **[`reference`]**: the naive triple-loop kernels, kept as the oracle
//!   the differential test harness (`tests/kernel_diff.rs`) compares
//!   against.
//!
//! All kernels take raw slices with explicit row strides (`ld*`, in
//! elements, BLAS-style), so sub-matrices and padded layouts are testable;
//! [`crate::matrix::Matrix`] calls them with `ld = cols`.

// Stride-explicit BLAS-style signatures (m, n, k, a, lda, b, ldb, ...)
// necessarily exceed clippy's argument-count lint.
#![allow(clippy::too_many_arguments)]

/// Rows of `A` per microkernel tile.
pub const MR: usize = 4;
/// Rows of `B` (columns of the output) per packed panel.
pub const NR: usize = 8;
/// Row-group size for the A-side cache block: one block of packed A
/// (`MC × k` at the dimensions PBG uses) stays resident in L2 while every
/// B panel streams past it.
pub const MC: usize = 64;
/// Flop threshold (`m·n·k`) above which [`auto_threads`] engages the
/// scoped-thread row split. Training chunks (`C = 50`, `N ≈ 100`,
/// `d ≈ 100` → 5·10⁵ flops) stay far below it, so HOGWILD threads never
/// nest their own thread pools; evaluation- and benchmark-sized products
/// (≥ ~16M flops) fan out.
pub const THREAD_FLOP_THRESHOLD: usize = 1 << 24;

/// Process-wide count of floating-point operations executed by the
/// blocked kernels, for live GFLOP/s gauges. Counted where the work
/// actually happens: [`matmul_nt_packed`] (which the `nt`, auto, and
/// per-thread paths all bottom out in), [`matmul`], and [`score_grads`]
/// (4·k flops per *nonzero* gradient element — zero rows are skipped by
/// the kernel, so the count reflects work done, not the dense bound).
/// Relaxed ordering: the counter is monotonic bookkeeping, never a
/// synchronization edge.
static FLOPS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// Total flops executed by this process's kernels since start.
/// Monotonic; readers take deltas to compute rates.
pub fn flops_executed() -> u64 {
    FLOPS.load(std::sync::atomic::Ordering::Relaxed)
}

#[inline]
fn count_flops(n: u64) {
    FLOPS.fetch_add(n, std::sync::atomic::Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// Runtime CPU-feature dispatch
// ---------------------------------------------------------------------------

/// Runtime selection of the microkernel variant.
///
/// Three implementations share every blocked kernel's outer loops and
/// packing (and therefore the flop accounting, which happens *above* the
/// dispatch point so all variants report identical `2mnk` / `4k·nnz`
/// counts):
///
/// | variant  | inner loop                        | numerics |
/// |----------|-----------------------------------|----------|
/// | `scalar` | safe Rust, autovectorized         | baseline |
/// | `sse2`   | explicit `__m128` mul+add         | **bit-identical** to `scalar` (same per-element op order, no FMA) |
/// | `avx2`   | `__m256` FMA, k-unrolled ×2       | ≤ a few ULPs from `scalar` (FMA rounds once per mul-add; the k loop is split into even/odd partial sums) |
///
/// The process default is the best CPU-supported variant, overridable
/// with `PBG_KERNEL=scalar|sse2|avx2`; an unsupported request falls back
/// down the ladder with a warning on stderr, and an unknown value is an
/// error listing the valid set. Every kernel also has a `*_with` entry
/// point taking an explicit [`Variant`], which is what lets the
/// differential battery exercise all variants inside one process.
pub mod dispatch {
    use std::sync::OnceLock;

    /// A microkernel implementation choice. Ordering is the fallback
    /// ladder: `Avx2` falls back to `Sse2`, which falls back to `Scalar`.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub enum Variant {
        /// Safe autovectorized Rust — always available, and the variant
        /// the committed golden score vectors were recorded under.
        Scalar,
        /// Explicit SSE2 intrinsics, mul+add (no FMA): bit-identical to
        /// `Scalar` by construction.
        Sse2,
        /// Explicit AVX2+FMA intrinsics — the fast path.
        Avx2,
    }

    /// The valid `PBG_KERNEL` values, for error messages.
    pub const VALID: &str = "scalar, sse2, avx2";

    impl Variant {
        /// All variants, ladder order.
        pub fn all() -> [Variant; 3] {
            [Variant::Scalar, Variant::Sse2, Variant::Avx2]
        }

        /// The variants this CPU can actually run.
        pub fn supported_variants() -> Vec<Variant> {
            Variant::all()
                .into_iter()
                .filter(|v| v.supported())
                .collect()
        }

        /// The `PBG_KERNEL` spelling of this variant.
        pub fn name(self) -> &'static str {
            match self {
                Variant::Scalar => "scalar",
                Variant::Sse2 => "sse2",
                Variant::Avx2 => "avx2",
            }
        }

        /// Parses a `PBG_KERNEL` value.
        ///
        /// # Errors
        ///
        /// Unknown values error with the valid set listed.
        pub fn parse(s: &str) -> Result<Variant, String> {
            match s.trim().to_ascii_lowercase().as_str() {
                "scalar" => Ok(Variant::Scalar),
                "sse2" => Ok(Variant::Sse2),
                "avx2" => Ok(Variant::Avx2),
                other => Err(format!(
                    "unknown PBG_KERNEL value `{other}` (valid values: {VALID})"
                )),
            }
        }

        /// Whether this CPU can execute the variant's intrinsics.
        pub fn supported(self) -> bool {
            match self {
                Variant::Scalar => true,
                #[cfg(target_arch = "x86_64")]
                Variant::Sse2 => std::arch::is_x86_feature_detected!("sse2"),
                #[cfg(target_arch = "x86_64")]
                Variant::Avx2 => {
                    std::arch::is_x86_feature_detected!("avx2")
                        && std::arch::is_x86_feature_detected!("fma")
                }
                #[cfg(not(target_arch = "x86_64"))]
                _ => false,
            }
        }

        /// The variant a `*_with` call actually runs: the request when
        /// supported, else [`Variant::Scalar`] — an explicit per-call
        /// request must degrade safely, never hit illegal instructions.
        pub(crate) fn for_call(self) -> Variant {
            if self.supported() {
                self
            } else {
                Variant::Scalar
            }
        }
    }

    /// Resolves a requested variant against a support predicate: the
    /// request itself when supported, otherwise the next variant down
    /// the ladder, plus a human-readable fallback warning. Taking the
    /// predicate as an argument is what makes the "forced-unsupported"
    /// fallback path testable on hardware that supports everything.
    pub fn resolve(
        requested: Variant,
        supported: impl Fn(Variant) -> bool,
    ) -> (Variant, Option<String>) {
        if supported(requested) {
            return (requested, None);
        }
        let fallback = match requested {
            Variant::Avx2 if supported(Variant::Sse2) => Variant::Sse2,
            _ => Variant::Scalar,
        };
        (
            fallback,
            Some(format!(
                "PBG_KERNEL={} is not supported by this CPU; falling back to {}",
                requested.name(),
                fallback.name()
            )),
        )
    }

    /// The best CPU-supported variant (the no-override default).
    pub fn best_supported() -> Variant {
        [Variant::Avx2, Variant::Sse2]
            .into_iter()
            .find(|v| v.supported())
            .unwrap_or(Variant::Scalar)
    }

    /// The process-wide variant, fixed at first use.
    static ACTIVE: OnceLock<Variant> = OnceLock::new();

    /// Initializes the process-wide variant from `PBG_KERNEL` (or the
    /// best supported variant when unset), logging a fallback warning to
    /// stderr if the request is unsupported. Idempotent; returns the
    /// variant actually in effect.
    ///
    /// # Errors
    ///
    /// An unparseable `PBG_KERNEL` value errors with the valid set
    /// listed (and leaves the dispatcher uninitialized).
    pub fn init_from_env() -> Result<Variant, String> {
        if let Some(v) = ACTIVE.get() {
            return Ok(*v);
        }
        let chosen = match std::env::var("PBG_KERNEL") {
            Ok(raw) => {
                let requested = Variant::parse(&raw)?;
                let (resolved, warning) = resolve(requested, Variant::supported);
                if let Some(w) = warning {
                    eprintln!("pbg-tensor: {w}");
                }
                resolved
            }
            Err(_) => best_supported(),
        };
        Ok(*ACTIVE.get_or_init(|| chosen))
    }

    /// Pins the process-wide variant (first caller wins; later calls —
    /// and the env default — are ignored once set). Used by golden-file
    /// test binaries to lock dispatch to [`Variant::Scalar`] so committed
    /// bit-exact vectors stay host-independent. Unsupported requests pin
    /// `Scalar`. Returns the variant actually in effect.
    pub fn force(v: Variant) -> Variant {
        *ACTIVE.get_or_init(|| v.for_call())
    }

    /// The variant the argument-less kernel entry points run.
    ///
    /// # Panics
    ///
    /// Panics if `PBG_KERNEL` is set to an unknown value; front ends
    /// that want a clean error should call [`init_from_env`] first.
    pub fn active() -> Variant {
        if let Some(v) = ACTIVE.get() {
            return *v;
        }
        match init_from_env() {
            Ok(v) => v,
            Err(msg) => panic!("{msg}"),
        }
    }
}

pub use dispatch::Variant;

// ---------------------------------------------------------------------------
// Explicit-SIMD microkernels (x86_64)
// ---------------------------------------------------------------------------

/// Guarded intrinsics implementations of the three inner loops (the
/// `MR × NR` register tile, the `matmul` row kernel, and the fused
/// dual-axpy of `score_grads`).
///
/// Safety argument, common to every function here: each is
/// `#[target_feature]`-gated and `unsafe` *only* because of that gate —
/// all memory access is through slice indexing or pointers derived from
/// slices whose lengths the (safe) callers have already checked, with
/// the same bounds the scalar code uses. The callers guarantee the
/// feature gate: a variant only reaches a call site via
/// [`dispatch::Variant::for_call`] (which degrades unsupported requests
/// to scalar) or [`dispatch::resolve`] (which checks
/// `is_x86_feature_detected!`).
#[cfg(target_arch = "x86_64")]
mod simd {
    // Index-based loops here mirror the scalar kernels' accumulator
    // walk order, which the bit-identity tests depend on.
    #![allow(clippy::needless_range_loop)]
    use super::{MR, NR};
    use std::arch::x86_64::*;

    /// AVX2+FMA register tile: one `__m256` of `NR = 8` output columns
    /// per row, `k` unrolled ×2 into independent even/odd accumulator
    /// chains (8 FMA chains total — enough instruction-level parallelism
    /// to sustain 2 FMAs/cycle), combined with one add at the end. The
    /// even/odd split reassociates the k-sum, so results differ from
    /// scalar by rounding only (ULP-checked by the differential battery).
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn micro_nt_avx2(k: usize, apanel: &[f32], bpanel: &[f32]) -> [[f32; NR]; MR] {
        debug_assert!(apanel.len() >= k * MR && bpanel.len() >= k * NR);
        let ap = apanel.as_ptr();
        let bp = bpanel.as_ptr();
        let mut acc_e = [_mm256_setzero_ps(); MR];
        let mut acc_o = [_mm256_setzero_ps(); MR];
        let k2 = k & !1;
        let mut kk = 0;
        while kk < k2 {
            let b0 = _mm256_loadu_ps(bp.add(kk * NR));
            let b1 = _mm256_loadu_ps(bp.add((kk + 1) * NR));
            let a0 = ap.add(kk * MR);
            let a1 = ap.add((kk + 1) * MR);
            for r in 0..MR {
                acc_e[r] = _mm256_fmadd_ps(_mm256_broadcast_ss(&*a0.add(r)), b0, acc_e[r]);
                acc_o[r] = _mm256_fmadd_ps(_mm256_broadcast_ss(&*a1.add(r)), b1, acc_o[r]);
            }
            kk += 2;
        }
        if kk < k {
            let b0 = _mm256_loadu_ps(bp.add(kk * NR));
            let a0 = ap.add(kk * MR);
            for r in 0..MR {
                acc_e[r] = _mm256_fmadd_ps(_mm256_broadcast_ss(&*a0.add(r)), b0, acc_e[r]);
            }
        }
        let mut out = [[0.0f32; NR]; MR];
        for r in 0..MR {
            _mm256_storeu_ps(out[r].as_mut_ptr(), _mm256_add_ps(acc_e[r], acc_o[r]));
        }
        out
    }

    /// SSE2 register tile: two `__m128` halves per row, separate
    /// multiply and add (no FMA), accumulators walked in the same `kk`
    /// order as the scalar tile — each output lane performs the exact
    /// op sequence `acc = acc + a*b` the scalar code performs, so this
    /// variant is bit-identical to `scalar` (asserted by the battery).
    #[target_feature(enable = "sse2")]
    pub unsafe fn micro_nt_sse2(k: usize, apanel: &[f32], bpanel: &[f32]) -> [[f32; NR]; MR] {
        debug_assert!(apanel.len() >= k * MR && bpanel.len() >= k * NR);
        let ap = apanel.as_ptr();
        let bp = bpanel.as_ptr();
        let mut lo = [_mm_setzero_ps(); MR];
        let mut hi = [_mm_setzero_ps(); MR];
        for kk in 0..k {
            let b_lo = _mm_loadu_ps(bp.add(kk * NR));
            let b_hi = _mm_loadu_ps(bp.add(kk * NR + 4));
            for r in 0..MR {
                let av = _mm_set1_ps(*ap.add(kk * MR + r));
                lo[r] = _mm_add_ps(lo[r], _mm_mul_ps(av, b_lo));
                hi[r] = _mm_add_ps(hi[r], _mm_mul_ps(av, b_hi));
            }
        }
        let mut out = [[0.0f32; NR]; MR];
        for r in 0..MR {
            _mm_storeu_ps(out[r].as_mut_ptr(), lo[r]);
            _mm_storeu_ps(out[r].as_mut_ptr().add(4), hi[r]);
        }
        out
    }

    /// AVX2+FMA `matmul` row kernel: the scalar row kernel's shape (four
    /// k-steps fused per pass over the output row) with the `j` loop
    /// vectorized 8-wide and each mul-add fused. The scalar tail (both
    /// `j` and `k` remainders) uses `f32::mul_add` so the whole variant
    /// is FMA-consistent.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn matmul_row_avx2(arow: &[f32], b: &[f32], ldb: usize, orow: &mut [f32]) {
        let (k, n) = (arow.len(), orow.len());
        let k4 = k - k % 4;
        let mut kk = 0;
        while kk < k4 {
            let (a0, a1, a2, a3) = (arow[kk], arow[kk + 1], arow[kk + 2], arow[kk + 3]);
            let (v0, v1, v2, v3) = (
                _mm256_set1_ps(a0),
                _mm256_set1_ps(a1),
                _mm256_set1_ps(a2),
                _mm256_set1_ps(a3),
            );
            let b0 = b.as_ptr().add(kk * ldb);
            let b1 = b.as_ptr().add((kk + 1) * ldb);
            let b2 = b.as_ptr().add((kk + 2) * ldb);
            let b3 = b.as_ptr().add((kk + 3) * ldb);
            let n8 = n & !7;
            let mut j = 0;
            while j < n8 {
                let mut o = _mm256_loadu_ps(orow.as_ptr().add(j));
                o = _mm256_fmadd_ps(v0, _mm256_loadu_ps(b0.add(j)), o);
                o = _mm256_fmadd_ps(v1, _mm256_loadu_ps(b1.add(j)), o);
                o = _mm256_fmadd_ps(v2, _mm256_loadu_ps(b2.add(j)), o);
                o = _mm256_fmadd_ps(v3, _mm256_loadu_ps(b3.add(j)), o);
                _mm256_storeu_ps(orow.as_mut_ptr().add(j), o);
                j += 8;
            }
            while j < n {
                let mut o = orow[j];
                o = a0.mul_add(*b0.add(j), o);
                o = a1.mul_add(*b1.add(j), o);
                o = a2.mul_add(*b2.add(j), o);
                o = a3.mul_add(*b3.add(j), o);
                orow[j] = o;
                j += 1;
            }
            kk += 4;
        }
        for kk in k4..k {
            let av = arow[kk];
            if av == 0.0 {
                continue;
            }
            let brow = b.as_ptr().add(kk * ldb);
            let vav = _mm256_set1_ps(av);
            let n8 = n & !7;
            let mut j = 0;
            while j < n8 {
                let o = _mm256_loadu_ps(orow.as_ptr().add(j));
                let o = _mm256_fmadd_ps(vav, _mm256_loadu_ps(brow.add(j)), o);
                _mm256_storeu_ps(orow.as_mut_ptr().add(j), o);
                j += 8;
            }
            while j < n {
                orow[j] = av.mul_add(*brow.add(j), orow[j]);
                j += 1;
            }
        }
    }

    /// SSE2 `matmul` row kernel: per output lane, the identical
    /// expression tree the scalar kernel evaluates —
    /// `o + (((a0·b0 + a1·b1) + a2·b2) + a3·b3)` with separate mul and
    /// add — so it is bit-identical to `scalar`. Tails fall through to
    /// the very same scalar statements.
    #[target_feature(enable = "sse2")]
    pub unsafe fn matmul_row_sse2(arow: &[f32], b: &[f32], ldb: usize, orow: &mut [f32]) {
        let (k, n) = (arow.len(), orow.len());
        let k4 = k - k % 4;
        let mut kk = 0;
        while kk < k4 {
            let (a0, a1, a2, a3) = (arow[kk], arow[kk + 1], arow[kk + 2], arow[kk + 3]);
            let (v0, v1, v2, v3) = (
                _mm_set1_ps(a0),
                _mm_set1_ps(a1),
                _mm_set1_ps(a2),
                _mm_set1_ps(a3),
            );
            let b0 = b.as_ptr().add(kk * ldb);
            let b1 = b.as_ptr().add((kk + 1) * ldb);
            let b2 = b.as_ptr().add((kk + 2) * ldb);
            let b3 = b.as_ptr().add((kk + 3) * ldb);
            let n4 = n & !3;
            let mut j = 0;
            while j < n4 {
                let t01 = _mm_add_ps(
                    _mm_mul_ps(v0, _mm_loadu_ps(b0.add(j))),
                    _mm_mul_ps(v1, _mm_loadu_ps(b1.add(j))),
                );
                let t = _mm_add_ps(
                    _mm_add_ps(t01, _mm_mul_ps(v2, _mm_loadu_ps(b2.add(j)))),
                    _mm_mul_ps(v3, _mm_loadu_ps(b3.add(j))),
                );
                let o = _mm_add_ps(_mm_loadu_ps(orow.as_ptr().add(j)), t);
                _mm_storeu_ps(orow.as_mut_ptr().add(j), o);
                j += 4;
            }
            while j < n {
                orow[j] += a0 * *b0.add(j) + a1 * *b1.add(j) + a2 * *b2.add(j) + a3 * *b3.add(j);
                j += 1;
            }
            kk += 4;
        }
        for kk in k4..k {
            let av = arow[kk];
            if av == 0.0 {
                continue;
            }
            let brow = b.as_ptr().add(kk * ldb);
            let vav = _mm_set1_ps(av);
            let n4 = n & !3;
            let mut j = 0;
            while j < n4 {
                let o = _mm_add_ps(
                    _mm_loadu_ps(orow.as_ptr().add(j)),
                    _mm_mul_ps(vav, _mm_loadu_ps(brow.add(j))),
                );
                _mm_storeu_ps(orow.as_mut_ptr().add(j), o);
                j += 4;
            }
            while j < n {
                orow[j] += av * *brow.add(j);
                j += 1;
            }
        }
    }

    /// AVX2+FMA fused dual axpy for one nonzero gradient entry:
    /// `ga += g·b` and `gb += g·a` over the contiguous `k` extent, FMA
    /// per element (scalar tail uses `f32::mul_add` for consistency).
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn axpy2_avx2(
        gij: f32,
        brow: &[f32],
        garow: &mut [f32],
        arow: &[f32],
        gbrow: &mut [f32],
    ) {
        let k = brow.len();
        debug_assert!(garow.len() == k && arow.len() == k && gbrow.len() == k);
        let g = _mm256_set1_ps(gij);
        let k8 = k & !7;
        let mut i = 0;
        while i < k8 {
            let ga = _mm256_loadu_ps(garow.as_ptr().add(i));
            let bv = _mm256_loadu_ps(brow.as_ptr().add(i));
            _mm256_storeu_ps(garow.as_mut_ptr().add(i), _mm256_fmadd_ps(g, bv, ga));
            let gb = _mm256_loadu_ps(gbrow.as_ptr().add(i));
            let av = _mm256_loadu_ps(arow.as_ptr().add(i));
            _mm256_storeu_ps(gbrow.as_mut_ptr().add(i), _mm256_fmadd_ps(g, av, gb));
            i += 8;
        }
        while i < k {
            garow[i] = gij.mul_add(brow[i], garow[i]);
            gbrow[i] = gij.mul_add(arow[i], gbrow[i]);
            i += 1;
        }
    }

    /// SSE2 fused dual axpy: separate mul and add, per-element op order
    /// identical to the scalar loop — bit-identical to `scalar`.
    #[target_feature(enable = "sse2")]
    pub unsafe fn axpy2_sse2(
        gij: f32,
        brow: &[f32],
        garow: &mut [f32],
        arow: &[f32],
        gbrow: &mut [f32],
    ) {
        let k = brow.len();
        debug_assert!(garow.len() == k && arow.len() == k && gbrow.len() == k);
        let g = _mm_set1_ps(gij);
        let k4 = k & !3;
        let mut i = 0;
        while i < k4 {
            let ga = _mm_loadu_ps(garow.as_ptr().add(i));
            let bv = _mm_loadu_ps(brow.as_ptr().add(i));
            _mm_storeu_ps(garow.as_mut_ptr().add(i), _mm_add_ps(ga, _mm_mul_ps(g, bv)));
            let gb = _mm_loadu_ps(gbrow.as_ptr().add(i));
            let av = _mm_loadu_ps(arow.as_ptr().add(i));
            _mm_storeu_ps(gbrow.as_mut_ptr().add(i), _mm_add_ps(gb, _mm_mul_ps(g, av)));
            i += 4;
        }
        while i < k {
            garow[i] += gij * brow[i];
            gbrow[i] += gij * arow[i];
            i += 1;
        }
    }
}

// ---------------------------------------------------------------------------
// Reference kernels (the differential-test oracle)
// ---------------------------------------------------------------------------

/// Naive triple-loop kernels, the oracle for the differential harness.
///
/// These are deliberately the simplest correct implementations: a single
/// sequential accumulator per output element, no blocking, no packing, no
/// unrolling. The blocked kernels reassociate the k-sum (8-lane
/// accumulators, register tiles), so blocked and reference results agree
/// to a few ULPs, not bit-for-bit — exactly what the ULP-aware comparator
/// in `tests/kernel_diff.rs` checks.
pub mod reference {
    /// `out[m×n] = a[m×k] · b[k×n]`, all row-major with explicit strides.
    ///
    /// # Panics
    ///
    /// Panics if any slice is too short for its shape/stride.
    pub fn matmul(
        m: usize,
        n: usize,
        k: usize,
        a: &[f32],
        lda: usize,
        b: &[f32],
        ldb: usize,
        out: &mut [f32],
        ldo: usize,
    ) {
        super::check_dims(m, k, a.len(), lda, "reference::matmul a");
        super::check_dims(k, n, b.len(), ldb, "reference::matmul b");
        super::check_dims(m, n, out.len(), ldo, "reference::matmul out");
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for kk in 0..k {
                    acc += a[i * lda + kk] * b[kk * ldb + j];
                }
                out[i * ldo + j] = acc;
            }
        }
    }

    /// `out[m×n] = a[m×k] · b[n×k]ᵀ`, all row-major with explicit strides.
    ///
    /// # Panics
    ///
    /// Panics if any slice is too short for its shape/stride.
    pub fn matmul_nt(
        m: usize,
        n: usize,
        k: usize,
        a: &[f32],
        lda: usize,
        b: &[f32],
        ldb: usize,
        out: &mut [f32],
        ldo: usize,
    ) {
        super::check_dims(m, k, a.len(), lda, "reference::matmul_nt a");
        super::check_dims(n, k, b.len(), ldb, "reference::matmul_nt b");
        super::check_dims(m, n, out.len(), ldo, "reference::matmul_nt out");
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for kk in 0..k {
                    acc += a[i * lda + kk] * b[j * ldb + kk];
                }
                out[i * ldo + j] = acc;
            }
        }
    }

    /// `out[n×m] = a[m×n]ᵀ`, row-major with explicit strides.
    ///
    /// # Panics
    ///
    /// Panics if any slice is too short for its shape/stride.
    pub fn transpose(m: usize, n: usize, a: &[f32], lda: usize, out: &mut [f32], ldo: usize) {
        super::check_dims(m, n, a.len(), lda, "reference::transpose a");
        super::check_dims(n, m, out.len(), ldo, "reference::transpose out");
        for i in 0..m {
            for j in 0..n {
                out[j * ldo + i] = a[i * lda + j];
            }
        }
    }

    /// Reference fused score-gradient: `ga = g·b`, `gb = gᵀ·a` where
    /// `g` is `m×n`, `a` is `m×k`, `b` is `n×k` (see
    /// [`super::score_grads`]).
    ///
    /// # Panics
    ///
    /// Panics if any slice is too short for its shape/stride.
    #[allow(clippy::too_many_arguments)]
    pub fn score_grads(
        m: usize,
        n: usize,
        k: usize,
        a: &[f32],
        lda: usize,
        b: &[f32],
        ldb: usize,
        g: &[f32],
        ldg: usize,
        ga: &mut [f32],
        ldga: usize,
        gb: &mut [f32],
        ldgb: usize,
    ) {
        super::check_dims(m, k, a.len(), lda, "reference::score_grads a");
        super::check_dims(n, k, b.len(), ldb, "reference::score_grads b");
        super::check_dims(m, n, g.len(), ldg, "reference::score_grads g");
        super::check_dims(m, k, ga.len(), ldga, "reference::score_grads ga");
        super::check_dims(n, k, gb.len(), ldgb, "reference::score_grads gb");
        // ga = g · b
        matmul(m, k, n, g, ldg, b, ldb, ga, ldga);
        // gb = gᵀ · a (sequential over i per output element)
        for j in 0..n {
            for kk in 0..k {
                let mut acc = 0.0f32;
                for i in 0..m {
                    acc += g[i * ldg + j] * a[i * lda + kk];
                }
                gb[j * ldgb + kk] = acc;
            }
        }
    }
}

/// Panics unless a `rows × cols` row-major view with stride `ld` fits in a
/// slice of length `len`. Empty views (0 rows or cols) are always fine.
fn check_dims(rows: usize, cols: usize, len: usize, ld: usize, what: &str) {
    if rows == 0 || cols == 0 {
        return;
    }
    assert!(ld >= cols, "{what}: stride {ld} < row length {cols}");
    let needed = (rows - 1) * ld + cols;
    assert!(
        len >= needed,
        "{what}: slice length {len} < required {needed} ({rows}x{cols}, stride {ld})"
    );
}

// ---------------------------------------------------------------------------
// Packing
// ---------------------------------------------------------------------------

/// `B` (`n × k`, row-major) repacked for the `A·Bᵀ` kernel: rows are
/// grouped into panels of [`NR`], each panel stored k-major
/// (`panel[kk * NR + j]` = `B[j0 + j][kk]`), zero-padded past `n`.
///
/// Packing is O(n·k) — one pass over `B` — and is what lets the
/// microkernel load [`NR`] output columns' worth of `B` as one contiguous
/// vector per k step. A packed matrix is reusable across any number of
/// products against it, which is how the fused trainer path packs a
/// chunk's candidate negatives exactly once.
#[derive(Debug, Clone)]
pub struct PackedNt {
    n: usize,
    k: usize,
    panels: Vec<f32>,
}

impl PackedNt {
    /// Packs `b` (`n × k`, stride `ldb`).
    ///
    /// # Panics
    ///
    /// Panics if `b` is too short for the shape/stride.
    pub fn pack(n: usize, k: usize, b: &[f32], ldb: usize) -> Self {
        check_dims(n, k, b.len(), ldb, "PackedNt::pack b");
        if k == 0 {
            return PackedNt {
                n,
                k,
                panels: Vec::new(),
            };
        }
        let n_panels = n.div_ceil(NR);
        let mut panels = vec![0.0f32; n_panels * k * NR];
        for p in 0..n_panels {
            let j0 = p * NR;
            let jn = NR.min(n - j0);
            let panel = &mut panels[p * k * NR..(p + 1) * k * NR];
            for jj in 0..jn {
                let row = &b[(j0 + jj) * ldb..(j0 + jj) * ldb + k];
                for (kk, &v) in row.iter().enumerate() {
                    panel[kk * NR + jj] = v;
                }
            }
        }
        PackedNt { n, k, panels }
    }

    /// Number of packed rows of `B` (output columns).
    pub fn n(&self) -> usize {
        self.n
    }

    /// Inner (k) dimension.
    pub fn k(&self) -> usize {
        self.k
    }

    fn panel(&self, p: usize) -> &[f32] {
        &self.panels[p * self.k * NR..(p + 1) * self.k * NR]
    }
}

/// Packs rows `[i0, i0+rows)` of `a` (stride `lda`, row length `k`) into an
/// MR-interleaved panel: `dst[kk * MR + r] = a[(i0 + r), kk]`, zero-padded
/// past `rows`.
fn pack_a_group(a: &[f32], lda: usize, k: usize, i0: usize, rows: usize, dst: &mut [f32]) {
    debug_assert!(rows <= MR && dst.len() == k * MR);
    dst.iter_mut().for_each(|v| *v = 0.0);
    for r in 0..rows {
        let row = &a[(i0 + r) * lda..(i0 + r) * lda + k];
        for (kk, &v) in row.iter().enumerate() {
            dst[kk * MR + r] = v;
        }
    }
}

// ---------------------------------------------------------------------------
// Blocked A·Bᵀ (the negative-scoring kernel)
// ---------------------------------------------------------------------------

/// The `MR × NR` register-tile microkernel: `acc[r][j] += apanel ⊗ bpanel`
/// over the full k extent. Both panels are contiguous and walked with
/// `chunks_exact`, so the inner loop is bounds-check-free straight-line
/// code over fixed-size arrays — the exact shape LLVM turns into packed
/// FMAs.
#[inline]
fn micro_nt(k: usize, apanel: &[f32], bpanel: &[f32]) -> [[f32; NR]; MR] {
    debug_assert!(apanel.len() >= k * MR && bpanel.len() >= k * NR);
    let mut acc = [[0.0f32; NR]; MR];
    for (ar, br) in apanel.chunks_exact(MR).take(k).zip(bpanel.chunks_exact(NR)) {
        for r in 0..MR {
            let av = ar[r];
            for j in 0..NR {
                acc[r][j] += av * br[j];
            }
        }
    }
    acc
}

/// One register tile under an explicit (already support-checked) variant.
#[inline]
fn micro_nt_v(v: Variant, k: usize, apanel: &[f32], bpanel: &[f32]) -> [[f32; NR]; MR] {
    match v {
        Variant::Scalar => micro_nt(k, apanel, bpanel),
        // SAFETY: `v` arrived via `Variant::for_call`/`dispatch::resolve`,
        // both of which verify CPU support before handing out the variant;
        // slice lengths were checked by the blocked caller.
        #[cfg(target_arch = "x86_64")]
        Variant::Sse2 => unsafe { simd::micro_nt_sse2(k, apanel, bpanel) },
        #[cfg(target_arch = "x86_64")]
        Variant::Avx2 => unsafe { simd::micro_nt_avx2(k, apanel, bpanel) },
        #[cfg(not(target_arch = "x86_64"))]
        _ => micro_nt(k, apanel, bpanel),
    }
}

/// `out[m×n] = a[m×k] · b[n×k]ᵀ` against a pre-packed `B`.
///
/// Blocking: `A` rows are processed in [`MC`]-row cache blocks; within a
/// block each [`MR`]-row group is packed once and then swept against every
/// `B` panel, so packed A stays in L1/L2 while `B` panels stream. The
/// register tile runs the process-wide [`dispatch::active`] variant.
///
/// # Panics
///
/// Panics if `a`/`out` are too short or `packed.k() != k`.
pub fn matmul_nt_packed(
    m: usize,
    k: usize,
    a: &[f32],
    lda: usize,
    packed: &PackedNt,
    out: &mut [f32],
    ldo: usize,
) {
    matmul_nt_packed_with(dispatch::active(), m, k, a, lda, packed, out, ldo);
}

/// [`matmul_nt_packed`] under an explicit microkernel [`Variant`]
/// (degraded to `Scalar` if the CPU lacks the request). Flop accounting
/// happens here, above the dispatch point, so every variant reports the
/// identical `2mnk` count.
///
/// # Panics
///
/// Panics if `a`/`out` are too short or `packed.k() != k`.
#[allow(clippy::too_many_arguments)]
pub fn matmul_nt_packed_with(
    v: Variant,
    m: usize,
    k: usize,
    a: &[f32],
    lda: usize,
    packed: &PackedNt,
    out: &mut [f32],
    ldo: usize,
) {
    let v = v.for_call();
    assert_eq!(packed.k(), k, "matmul_nt_packed: k mismatch");
    let n = packed.n();
    check_dims(m, k, a.len(), lda, "matmul_nt_packed a");
    check_dims(m, n, out.len(), ldo, "matmul_nt_packed out");
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        for i in 0..m {
            out[i * ldo..i * ldo + n].iter_mut().for_each(|v| *v = 0.0);
        }
        return;
    }
    count_flops(2 * (m as u64) * (n as u64) * (k as u64));
    let n_panels = n.div_ceil(NR);
    let mut apanel = vec![0.0f32; k * MR];
    let mut ic = 0;
    while ic < m {
        let mc = MC.min(m - ic);
        let mut ig = 0;
        while ig < mc {
            let i0 = ic + ig;
            let mr = MR.min(m - i0);
            pack_a_group(a, lda, k, i0, mr, &mut apanel);
            for p in 0..n_panels {
                let acc = micro_nt_v(v, k, &apanel, packed.panel(p));
                let j0 = p * NR;
                let jn = NR.min(n - j0);
                for (r, acc_row) in acc.iter().enumerate().take(mr) {
                    let orow = &mut out[(i0 + r) * ldo + j0..(i0 + r) * ldo + j0 + jn];
                    orow.copy_from_slice(&acc_row[..jn]);
                }
            }
            ig += MR;
        }
        ic += MC;
    }
}

/// `out[m×n] = a[m×k] · b[n×k]ᵀ` — packs `b` and runs the blocked kernel.
///
/// # Panics
///
/// Panics if any slice is too short for its shape/stride.
pub fn matmul_nt(
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    lda: usize,
    b: &[f32],
    ldb: usize,
    out: &mut [f32],
    ldo: usize,
) {
    matmul_nt_with(dispatch::active(), m, n, k, a, lda, b, ldb, out, ldo);
}

/// [`matmul_nt`] under an explicit microkernel [`Variant`].
///
/// # Panics
///
/// Panics if any slice is too short for its shape/stride.
#[allow(clippy::too_many_arguments)]
pub fn matmul_nt_with(
    v: Variant,
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    lda: usize,
    b: &[f32],
    ldb: usize,
    out: &mut [f32],
    ldo: usize,
) {
    let packed = PackedNt::pack(n, k, b, ldb);
    matmul_nt_packed_with(v, m, k, a, lda, &packed, out, ldo);
}

/// Threads the serial kernel would use for an `m×n×k` product: 1 below
/// [`THREAD_FLOP_THRESHOLD`], otherwise up to `available_parallelism`,
/// capped so each thread gets at least one [`MC`] row block.
pub fn auto_threads(m: usize, n: usize, k: usize) -> usize {
    let flops = m.saturating_mul(n).saturating_mul(k);
    if flops < THREAD_FLOP_THRESHOLD {
        return 1;
    }
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    cores.min(m.div_ceil(MC)).max(1)
}

/// [`matmul_nt_packed`] with output rows split across `threads` scoped
/// threads (contiguous output only: `ldo == n`).
///
/// Each thread runs the identical serial kernel on a disjoint row range,
/// so the result is bit-identical to the single-threaded kernel for every
/// thread count — verified by `tests/kernel_diff.rs`.
///
/// # Panics
///
/// Panics if `threads == 0`, `ldo != packed.n()`, or slices are too short.
pub fn matmul_nt_packed_threaded(
    m: usize,
    k: usize,
    a: &[f32],
    lda: usize,
    packed: &PackedNt,
    out: &mut [f32],
    ldo: usize,
    threads: usize,
) {
    matmul_nt_packed_threaded_with(dispatch::active(), m, k, a, lda, packed, out, ldo, threads);
}

/// [`matmul_nt_packed_threaded`] under an explicit microkernel
/// [`Variant`]: the same variant is propagated to every row-range worker,
/// so the threaded result stays bit-identical to the serial kernel *of
/// that variant* for every thread count.
///
/// # Panics
///
/// Panics if `threads == 0`, `ldo != packed.n()`, or slices are too short.
#[allow(clippy::too_many_arguments)]
pub fn matmul_nt_packed_threaded_with(
    v: Variant,
    m: usize,
    k: usize,
    a: &[f32],
    lda: usize,
    packed: &PackedNt,
    out: &mut [f32],
    ldo: usize,
    threads: usize,
) {
    let v = v.for_call();
    assert!(threads > 0, "matmul_nt_packed_threaded: zero threads");
    let n = packed.n();
    assert_eq!(
        ldo, n,
        "matmul_nt_packed_threaded: threaded split needs contiguous output"
    );
    let threads = threads.min(m.div_ceil(MC)).max(1);
    if threads == 1 {
        matmul_nt_packed_with(v, m, k, a, lda, packed, out, ldo);
        return;
    }
    check_dims(m, k, a.len(), lda, "matmul_nt_packed_threaded a");
    check_dims(m, n, out.len(), ldo, "matmul_nt_packed_threaded out");
    // Split output rows into `threads` runs of whole MC blocks.
    let blocks = m.div_ceil(MC);
    let per = blocks.div_ceil(threads);
    std::thread::scope(|scope| {
        let mut rest = &mut out[..m * n];
        let mut row0 = 0usize;
        while row0 < m {
            let rows = (per * MC).min(m - row0);
            let (mine, tail) = rest.split_at_mut(rows * n);
            rest = tail;
            let i0 = row0;
            scope.spawn(move || {
                matmul_nt_packed_with(v, rows, k, &a[i0 * lda..], lda, packed, mine, n);
            });
            row0 += rows;
        }
    });
}

/// `out = a · bᵀ` choosing the thread split via [`auto_threads`]
/// (serial for training-chunk shapes, row-split for eval/bench shapes).
///
/// # Panics
///
/// Panics if any slice is too short for its shape/stride.
pub fn matmul_nt_auto(
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    lda: usize,
    b: &[f32],
    ldb: usize,
    out: &mut [f32],
    ldo: usize,
) {
    let threads = if ldo == n { auto_threads(m, n, k) } else { 1 };
    let packed = PackedNt::pack(n, k, b, ldb);
    if threads > 1 {
        matmul_nt_packed_threaded(m, k, a, lda, &packed, out, ldo, threads);
    } else {
        matmul_nt_packed(m, k, a, lda, &packed, out, ldo);
    }
}

// ---------------------------------------------------------------------------
// Gathered A·Bᵀ (one query against candidate rows fetched by id)
// ---------------------------------------------------------------------------

/// A table of rows the gathered scorer fetches candidates from by id:
/// heap matrices and mapped f32 shards ([`DenseRows`]) or quantized
/// shards that decode on fetch.
pub trait GatherRows {
    /// Copies row `id` into `dst` (exactly one row's floats).
    ///
    /// # Panics
    ///
    /// Implementations panic if `id` is out of range.
    fn copy_row(&self, id: u32, dst: &mut [f32]);

    /// Hints that row `id` is copied soon. The default does nothing.
    fn prefetch(&self, _id: u32) {}
}

/// `rows × k` floats in one row-major slice with stride `ld`.
#[derive(Debug, Clone, Copy)]
pub struct DenseRows<'a> {
    data: &'a [f32],
    k: usize,
    ld: usize,
}

impl<'a> DenseRows<'a> {
    /// Views `data` as rows of `k` floats, `ld` apart.
    ///
    /// # Panics
    ///
    /// Panics if `ld < k`.
    pub fn new(data: &'a [f32], k: usize, ld: usize) -> Self {
        assert!(ld >= k, "DenseRows: stride {ld} < row length {k}");
        DenseRows { data, k, ld }
    }

    fn row(&self, id: u32) -> Option<&'a [f32]> {
        let start = id as usize * self.ld;
        self.data.get(start..start + self.k)
    }
}

impl GatherRows for DenseRows<'_> {
    fn copy_row(&self, id: u32, dst: &mut [f32]) {
        dst.copy_from_slice(self.row(id).expect("DenseRows: row id out of range"));
    }

    fn prefetch(&self, id: u32) {
        if let Some(row) = self.row(id) {
            prefetch_row(row);
        }
    }
}

/// Asks the cache hierarchy to start loading `row` (one hint per 64-byte
/// line). A no-op off x86_64.
#[inline]
fn prefetch_row(row: &[f32]) {
    #[cfg(target_arch = "x86_64")]
    for line in row.chunks(16) {
        // SAFETY: `_mm_prefetch` is a hint that never faults, and the
        // pointer comes from a live slice; SSE is baseline on x86_64.
        unsafe {
            std::arch::x86_64::_mm_prefetch::<{ std::arch::x86_64::_MM_HINT_T0 }>(
                line.as_ptr().cast(),
            )
        };
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = row;
}

/// `out[j] = query · row(ids[j])` for every `j`: the scorer behind link
/// prediction, `/score` and neighbor queries.
///
/// Candidates are fetched [`NR`] at a time into an L1 staging block (the
/// next group's rows prefetched meanwhile), handed to `stage` — which may
/// rewrite each staged row in place, e.g. apply a relation operator or
/// normalize for cosine — then packed into one panel and scored by the
/// dispatched register tile. Each output lane depends only on the query
/// and its own row, so the result is bit-identical to gathering the rows
/// into a matrix, applying `stage` to it, and calling [`matmul_nt`] with
/// `m = 1`. Counts `2·n·k` flops.
///
/// # Panics
///
/// Panics if `out.len() != ids.len()` or `rows` rejects an id.
pub fn gathered_nt<R: GatherRows + ?Sized>(
    query: &[f32],
    rows: &R,
    ids: &[u32],
    stage: impl FnMut(&mut [f32]),
    out: &mut [f32],
) {
    gathered_nt_with(dispatch::active(), query, rows, ids, stage, out);
}

/// [`gathered_nt`] under an explicit microkernel [`Variant`]; the flop
/// count is recorded here, above the dispatch point.
///
/// # Panics
///
/// Panics if `out.len() != ids.len()` or `rows` rejects an id.
pub fn gathered_nt_with<R: GatherRows + ?Sized>(
    v: Variant,
    query: &[f32],
    rows: &R,
    ids: &[u32],
    mut stage: impl FnMut(&mut [f32]),
    out: &mut [f32],
) {
    let v = v.for_call();
    let (n, k) = (ids.len(), query.len());
    assert_eq!(out.len(), n, "gathered_nt: out length != candidate count");
    if n == 0 {
        return;
    }
    if k == 0 {
        out.iter_mut().for_each(|o| *o = 0.0);
        return;
    }
    count_flops(2 * (n as u64) * (k as u64));
    let mut apanel = vec![0.0f32; k * MR];
    pack_a_group(query, k, k, 0, 1, &mut apanel);
    let mut staged = vec![0.0f32; NR * k];
    // lanes past a short final group keep stale values; every lane is
    // independent in the tile, and their outputs are never read
    let mut bpanel = vec![0.0f32; k * NR];
    ids[..NR.min(n)].iter().for_each(|&id| rows.prefetch(id));
    for (g, group) in ids.chunks(NR).enumerate() {
        let j0 = g * NR;
        ids[(j0 + NR).min(n)..(j0 + 2 * NR).min(n)]
            .iter()
            .for_each(|&id| rows.prefetch(id));
        let jn = group.len();
        for (dst, &id) in staged.chunks_exact_mut(k).zip(group) {
            rows.copy_row(id, dst);
        }
        stage(&mut staged[..jn * k]);
        for (jj, row) in staged.chunks_exact(k).take(jn).enumerate() {
            for (kk, &x) in row.iter().enumerate() {
                bpanel[kk * NR + jj] = x;
            }
        }
        let acc = micro_nt_v(v, k, &apanel, &bpanel);
        out[j0..j0 + jn].copy_from_slice(&acc[0][..jn]);
    }
}

// ---------------------------------------------------------------------------
// Blocked A·B
// ---------------------------------------------------------------------------

/// `out[m×n] = a[m×k] · b[k×n]`, k-unrolled row-accumulator form.
///
/// For each output row, four k-steps are fused per pass so each `out[j]`
/// is loaded/stored once per four multiply-adds; the inner loop runs over
/// four contiguous `B` rows and one contiguous output row, which LLVM
/// vectorizes across `j`.
///
/// # Panics
///
/// Panics if any slice is too short for its shape/stride.
pub fn matmul(
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    lda: usize,
    b: &[f32],
    ldb: usize,
    out: &mut [f32],
    ldo: usize,
) {
    matmul_with(dispatch::active(), m, n, k, a, lda, b, ldb, out, ldo);
}

/// The safe-Rust `matmul` row kernel: four k-steps fused per pass over
/// one pre-zeroed output row. This is the `Scalar` dispatch target and
/// the op-order contract the SSE2 row kernel mirrors lane-for-lane.
#[inline]
fn matmul_row_scalar(arow: &[f32], b: &[f32], ldb: usize, orow: &mut [f32]) {
    let (k, n) = (arow.len(), orow.len());
    let k4 = k - k % 4;
    let mut kk = 0;
    while kk < k4 {
        let (a0, a1, a2, a3) = (arow[kk], arow[kk + 1], arow[kk + 2], arow[kk + 3]);
        let b0 = &b[kk * ldb..kk * ldb + n];
        let b1 = &b[(kk + 1) * ldb..(kk + 1) * ldb + n];
        let b2 = &b[(kk + 2) * ldb..(kk + 2) * ldb + n];
        let b3 = &b[(kk + 3) * ldb..(kk + 3) * ldb + n];
        for (j, o) in orow.iter_mut().enumerate() {
            *o += a0 * b0[j] + a1 * b1[j] + a2 * b2[j] + a3 * b3[j];
        }
        kk += 4;
    }
    for kk in k4..k {
        let av = arow[kk];
        if av == 0.0 {
            continue;
        }
        let brow = &b[kk * ldb..kk * ldb + n];
        for (o, &bv) in orow.iter_mut().zip(brow) {
            *o += av * bv;
        }
    }
}

/// [`matmul`] under an explicit microkernel [`Variant`]. The `2mnk` flop
/// count is recorded here, above the dispatch point.
///
/// # Panics
///
/// Panics if any slice is too short for its shape/stride.
#[allow(clippy::too_many_arguments)]
pub fn matmul_with(
    v: Variant,
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    lda: usize,
    b: &[f32],
    ldb: usize,
    out: &mut [f32],
    ldo: usize,
) {
    let v = v.for_call();
    check_dims(m, k, a.len(), lda, "matmul a");
    check_dims(k, n, b.len(), ldb, "matmul b");
    check_dims(m, n, out.len(), ldo, "matmul out");
    if m == 0 || n == 0 {
        return;
    }
    count_flops(2 * (m as u64) * (n as u64) * (k as u64));
    for i in 0..m {
        let arow = &a[i * lda..i * lda + k];
        let orow = &mut out[i * ldo..i * ldo + n];
        orow.iter_mut().for_each(|v| *v = 0.0);
        match v {
            Variant::Scalar => matmul_row_scalar(arow, b, ldb, orow),
            // SAFETY: `v` came through `Variant::for_call`, so the CPU
            // supports the feature gate; `check_dims` above guarantees
            // every `kk * ldb + j` access the row kernels make is within
            // `b`, and `arow`/`orow` carry their exact lengths.
            #[cfg(target_arch = "x86_64")]
            Variant::Sse2 => unsafe { simd::matmul_row_sse2(arow, b, ldb, orow) },
            #[cfg(target_arch = "x86_64")]
            Variant::Avx2 => unsafe { simd::matmul_row_avx2(arow, b, ldb, orow) },
            #[cfg(not(target_arch = "x86_64"))]
            _ => matmul_row_scalar(arow, b, ldb, orow),
        }
    }
}

// ---------------------------------------------------------------------------
// Blocked transpose
// ---------------------------------------------------------------------------

/// Tile edge for the blocked transpose.
const TR: usize = 8;

/// `out[n×m] = a[m×n]ᵀ` in `TR × TR` tiles, so both the source rows and
/// the destination rows are touched a cache line at a time instead of one
/// column stride per element.
///
/// # Panics
///
/// Panics if any slice is too short for its shape/stride.
pub fn transpose(m: usize, n: usize, a: &[f32], lda: usize, out: &mut [f32], ldo: usize) {
    check_dims(m, n, a.len(), lda, "transpose a");
    check_dims(n, m, out.len(), ldo, "transpose out");
    let mut i0 = 0;
    while i0 < m {
        let im = TR.min(m - i0);
        let mut j0 = 0;
        while j0 < n {
            let jn = TR.min(n - j0);
            for di in 0..im {
                let arow = &a[(i0 + di) * lda + j0..(i0 + di) * lda + j0 + jn];
                for (dj, &v) in arow.iter().enumerate() {
                    out[(j0 + dj) * ldo + (i0 + di)] = v;
                }
            }
            j0 += TR;
        }
        i0 += TR;
    }
}

// ---------------------------------------------------------------------------
// Fused score + gradient path
// ---------------------------------------------------------------------------

/// Backward of a score product `S = A·Bᵀ` in one pass: given `g = dL/dS`
/// (`m×n`), computes `ga = g·b` (`m×k`) and `gb = gᵀ·a` (`n×k`) together.
///
/// The fusion win: each row of `g` is loaded exactly once and feeds both
/// products, and `a`'s row `i` is still hot in cache when it is scattered
/// into `gb`. Rows of `g` that are entirely zero (fully satisfied margins,
/// fully masked candidates) are skipped.
///
/// `ga`/`gb` are overwritten.
///
/// # Panics
///
/// Panics if any slice is too short for its shape/stride.
#[allow(clippy::too_many_arguments)]
pub fn score_grads(
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    lda: usize,
    b: &[f32],
    ldb: usize,
    g: &[f32],
    ldg: usize,
    ga: &mut [f32],
    ldga: usize,
    gb: &mut [f32],
    ldgb: usize,
) {
    score_grads_with(
        dispatch::active(),
        m,
        n,
        k,
        a,
        lda,
        b,
        ldb,
        g,
        ldg,
        ga,
        ldga,
        gb,
        ldgb,
    );
}

/// The safe-Rust fused dual axpy: `ga += g·b` then `gb += g·a`. This is
/// the `Scalar` dispatch target and the op-order contract the SSE2 path
/// mirrors lane-for-lane.
#[inline]
fn axpy2_scalar(gij: f32, brow: &[f32], garow: &mut [f32], arow: &[f32], gbrow: &mut [f32]) {
    for (o, &bv) in garow.iter_mut().zip(brow) {
        *o += gij * bv;
    }
    for (o, &av) in gbrow.iter_mut().zip(arow) {
        *o += gij * av;
    }
}

/// [`score_grads`] under an explicit microkernel [`Variant`]. The nonzero
/// count and the `4k·nnz` flop record live here, above the dispatch
/// point, so every variant reports the identical count.
///
/// # Panics
///
/// Panics if any slice is too short for its shape/stride.
#[allow(clippy::too_many_arguments)]
pub fn score_grads_with(
    v: Variant,
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    lda: usize,
    b: &[f32],
    ldb: usize,
    g: &[f32],
    ldg: usize,
    ga: &mut [f32],
    ldga: usize,
    gb: &mut [f32],
    ldgb: usize,
) {
    let v = v.for_call();
    check_dims(m, k, a.len(), lda, "score_grads a");
    check_dims(n, k, b.len(), ldb, "score_grads b");
    check_dims(m, n, g.len(), ldg, "score_grads g");
    check_dims(m, k, ga.len(), ldga, "score_grads ga");
    check_dims(n, k, gb.len(), ldgb, "score_grads gb");
    for j in 0..n {
        gb[j * ldgb..j * ldgb + k].iter_mut().for_each(|v| *v = 0.0);
    }
    let mut nnz = 0u64;
    for i in 0..m {
        let grow = &g[i * ldg..i * ldg + n];
        let garow = &mut ga[i * ldga..i * ldga + k];
        garow.iter_mut().for_each(|v| *v = 0.0);
        let arow = &a[i * lda..i * lda + k];
        for (j, &gij) in grow.iter().enumerate() {
            if gij == 0.0 {
                continue;
            }
            nnz += 1;
            // ga[i] += g[i][j] * b[j]  and  gb[j] += g[i][j] * a[i]:
            // two contiguous axpys sharing the scalar — both vectorize.
            let brow = &b[j * ldb..j * ldb + k];
            let gbrow = &mut gb[j * ldgb..j * ldgb + k];
            match v {
                Variant::Scalar => axpy2_scalar(gij, brow, garow, arow, gbrow),
                // SAFETY: `v` came through `Variant::for_call`, so the
                // CPU supports the feature gate; all four row slices were
                // cut to exactly `k` elements just above.
                #[cfg(target_arch = "x86_64")]
                Variant::Sse2 => unsafe { simd::axpy2_sse2(gij, brow, garow, arow, gbrow) },
                #[cfg(target_arch = "x86_64")]
                Variant::Avx2 => unsafe { simd::axpy2_avx2(gij, brow, garow, arow, gbrow) },
                #[cfg(not(target_arch = "x86_64"))]
                _ => axpy2_scalar(gij, brow, garow, arow, gbrow),
            }
        }
    }
    count_flops(nnz * 4 * (k as u64));
}

/// A scoring context that packs the candidate side once and serves both
/// the forward score matrix and the fused backward — the §4.3 hot path as
/// one object.
///
/// ```
/// use pbg_tensor::kernels::ScoreGrad;
/// use pbg_tensor::matrix::Matrix;
///
/// let pos = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]); // C × d
/// let cand = Matrix::from_rows(&[&[1.0, 1.0], &[2.0, 0.0], &[0.0, 3.0]]);
/// let fused = ScoreGrad::new(&cand);
/// let scores = fused.scores(&pos); // C × N, one blocked product
/// assert_eq!(scores.row(0), &[1.0, 2.0, 0.0]);
/// let grad = Matrix::from_rows(&[&[1.0, 0.0, 0.0], &[0.0, 0.0, 1.0]]);
/// let (d_pos, d_cand) = fused.backward(&pos, &grad);
/// assert_eq!(d_pos.row(0), &[1.0, 1.0]);
/// assert_eq!(d_cand.row(2), &[0.0, 1.0]);
/// ```
#[derive(Debug, Clone)]
pub struct ScoreGrad {
    packed: PackedNt,
    cand: crate::matrix::Matrix,
}

impl ScoreGrad {
    /// Packs the candidate matrix (`N × d`) once.
    pub fn new(candidates: &crate::matrix::Matrix) -> Self {
        ScoreGrad {
            packed: PackedNt::pack(
                candidates.rows(),
                candidates.cols(),
                candidates.as_slice(),
                candidates.cols().max(1),
            ),
            cand: candidates.clone(),
        }
    }

    /// The candidate matrix this context was built from.
    pub fn candidates(&self) -> &crate::matrix::Matrix {
        &self.cand
    }

    /// Forward: `S = pos · candᵀ` (`C × N`) via the blocked packed kernel.
    ///
    /// # Panics
    ///
    /// Panics if `pos.cols() != candidates.cols()`.
    pub fn scores(&self, pos: &crate::matrix::Matrix) -> crate::matrix::Matrix {
        assert_eq!(
            pos.cols(),
            self.packed.k(),
            "ScoreGrad::scores: dim mismatch"
        );
        let m = pos.rows();
        let n = self.packed.n();
        let mut out = crate::matrix::Matrix::zeros(m, n);
        matmul_nt_packed(
            m,
            self.packed.k(),
            pos.as_slice(),
            pos.cols().max(1),
            &self.packed,
            out.as_mut_slice(),
            n.max(1),
        );
        out
    }

    /// Fused backward: given `grad = dL/dS`, returns
    /// `(dL/d pos, dL/d cand)` computed in one pass over `grad`.
    ///
    /// # Panics
    ///
    /// Panics if shapes are inconsistent.
    pub fn backward(
        &self,
        pos: &crate::matrix::Matrix,
        grad: &crate::matrix::Matrix,
    ) -> (crate::matrix::Matrix, crate::matrix::Matrix) {
        let (m, n, k) = (pos.rows(), self.cand.rows(), self.cand.cols());
        assert_eq!(pos.cols(), k, "ScoreGrad::backward: dim mismatch");
        assert_eq!(grad.rows(), m, "ScoreGrad::backward: grad rows");
        assert_eq!(grad.cols(), n, "ScoreGrad::backward: grad cols");
        let mut ga = crate::matrix::Matrix::zeros(m, k);
        let mut gb = crate::matrix::Matrix::zeros(n, k);
        score_grads(
            m,
            n,
            k,
            pos.as_slice(),
            k.max(1),
            self.cand.as_slice(),
            k.max(1),
            grad.as_slice(),
            n.max(1),
            ga.as_mut_slice(),
            k.max(1),
            gb.as_mut_slice(),
            k.max(1),
        );
        (ga, gb)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;
    use crate::rng::Xoshiro256;

    fn random(rows: usize, cols: usize, seed: u64) -> Vec<f32> {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        (0..rows * cols).map(|_| rng.gen_normal()).collect()
    }

    fn close(a: &[f32], b: &[f32], tol: f32) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!((x - y).abs() <= tol * (1.0 + x.abs()), "[{i}]: {x} vs {y}");
        }
    }

    #[test]
    fn flop_counter_advances_by_the_work_done() {
        // Parallel tests share the process-wide counter, so assert on
        // deltas being at least the work this test submits.
        let (m, n, k) = (6, 10, 8);
        let a = random(m, k, 40);
        let b = random(n, k, 41);
        let mut out = vec![0.0; m * n];
        let before = flops_executed();
        matmul_nt(m, n, k, &a, k, &b, k, &mut out, n);
        let after = flops_executed();
        assert!(after - before >= 2 * (m * n * k) as u64);

        // score_grads counts only nonzero gradient entries (4k each)
        let g = {
            let mut g = vec![0.0f32; m * n];
            g[0] = 1.0;
            g[m * n - 1] = -1.0;
            g
        };
        let (mut ga, mut gb) = (vec![0.0; m * k], vec![0.0; n * k]);
        let before = flops_executed();
        score_grads(m, n, k, &a, k, &b, k, &g, n, &mut ga, k, &mut gb, k);
        assert!(flops_executed() - before >= 2 * 4 * k as u64);
    }

    #[test]
    fn blocked_nt_matches_reference_odd_shapes() {
        for &(m, n, k) in &[
            (1, 1, 1),
            (3, 5, 7),
            (17, 9, 33),
            (50, 100, 64),
            (65, 13, 12),
        ] {
            let a = random(m, k, 1);
            let b = random(n, k, 2);
            let mut got = vec![0.0; m * n];
            let mut want = vec![0.0; m * n];
            matmul_nt(m, n, k, &a, k, &b, k, &mut got, n);
            reference::matmul_nt(m, n, k, &a, k, &b, k, &mut want, n);
            close(&got, &want, 1e-5);
        }
    }

    #[test]
    fn blocked_nn_matches_reference() {
        for &(m, n, k) in &[(2, 3, 4), (13, 17, 19), (50, 100, 100)] {
            let a = random(m, k, 3);
            let b = random(k, n, 4);
            let mut got = vec![0.0; m * n];
            let mut want = vec![0.0; m * n];
            matmul(m, n, k, &a, k, &b, n, &mut got, n);
            reference::matmul(m, n, k, &a, k, &b, n, &mut want, n);
            close(&got, &want, 1e-5);
        }
    }

    #[test]
    fn strided_views_work() {
        // 3x4 views embedded in wider buffers
        let (m, n, k) = (3, 4, 5);
        let (lda, ldb, ldo) = (9, 7, 6);
        let a = random(m, lda, 5);
        let b = random(n, ldb, 6);
        let mut got = vec![f32::NAN; m * ldo];
        let mut want = vec![f32::NAN; m * ldo];
        matmul_nt(m, n, k, &a, lda, &b, ldb, &mut got, ldo);
        reference::matmul_nt(m, n, k, &a, lda, &b, ldb, &mut want, ldo);
        for i in 0..m {
            close(
                &got[i * ldo..i * ldo + n],
                &want[i * ldo..i * ldo + n],
                1e-5,
            );
            // padding untouched
            assert!(got[i * ldo + n..i * ldo + ldo].iter().all(|v| v.is_nan()));
        }
    }

    #[test]
    fn threaded_split_is_bit_identical() {
        let (m, n, k) = (200, 37, 29);
        let a = random(m, k, 7);
        let b = random(n, k, 8);
        let packed = PackedNt::pack(n, k, &b, k);
        let mut serial = vec![0.0; m * n];
        matmul_nt_packed(m, k, &a, k, &packed, &mut serial, n);
        for threads in [2, 3, 5] {
            let mut par = vec![0.0; m * n];
            matmul_nt_packed_threaded(m, k, &a, k, &packed, &mut par, n, threads);
            assert!(
                serial
                    .iter()
                    .zip(&par)
                    .all(|(x, y)| x.to_bits() == y.to_bits()),
                "threads={threads} not bit-identical"
            );
        }
    }

    #[test]
    fn fused_grads_match_reference() {
        let (m, n, k) = (11, 23, 15);
        let a = random(m, k, 9);
        let b = random(n, k, 10);
        let g = random(m, n, 11);
        let (mut ga, mut gb) = (vec![0.0; m * k], vec![0.0; n * k]);
        let (mut rga, mut rgb) = (vec![0.0; m * k], vec![0.0; n * k]);
        score_grads(m, n, k, &a, k, &b, k, &g, n, &mut ga, k, &mut gb, k);
        reference::score_grads(m, n, k, &a, k, &b, k, &g, n, &mut rga, k, &mut rgb, k);
        close(&ga, &rga, 1e-4);
        close(&gb, &rgb, 1e-4);
    }

    #[test]
    fn score_grad_object_roundtrip() {
        let mut cand = Matrix::zeros(13, 6);
        let vals = random(13, 6, 12);
        cand.as_mut_slice().copy_from_slice(&vals);
        let mut pos = Matrix::zeros(5, 6);
        pos.as_mut_slice().copy_from_slice(&random(5, 6, 13));
        let fused = ScoreGrad::new(&cand);
        let s = fused.scores(&pos);
        let want = pos.matmul_nt(&cand);
        close(s.as_slice(), want.as_slice(), 1e-5);
    }

    #[test]
    fn empty_shapes_are_fine() {
        let mut out = vec![0.0; 0];
        matmul_nt(0, 0, 0, &[], 1, &[], 1, &mut out, 1);
        matmul(0, 5, 3, &[], 3, &[0.0; 15], 5, &mut out, 5);
        let mut o2 = vec![1.0f32; 4];
        // k == 0: product of (2x0)·(2x0)ᵀ is a zero 2x2
        matmul_nt(2, 2, 0, &[], 1, &[], 1, &mut o2, 2);
        assert_eq!(o2, [0.0; 4]);
    }

    #[test]
    fn transpose_blocked_matches_reference() {
        let (m, n) = (13, 21);
        let a = random(m, n, 14);
        let mut got = vec![0.0; n * m];
        let mut want = vec![0.0; n * m];
        transpose(m, n, &a, n, &mut got, m);
        reference::transpose(m, n, &a, n, &mut want, m);
        assert_eq!(got, want);
    }

    #[test]
    #[should_panic(expected = "slice length")]
    fn short_slice_panics() {
        let mut out = vec![0.0; 4];
        matmul_nt(2, 2, 3, &[0.0; 5], 3, &[0.0; 6], 3, &mut out, 2);
    }

    #[test]
    fn auto_threads_stays_serial_for_training_chunks() {
        // paper-default chunk geometry: C=50, N=100, d=100
        assert_eq!(auto_threads(50, 100, 100), 1);
        // a large eval-sized product may fan out (>= 1 either way)
        assert!(auto_threads(4096, 4096, 400) >= 1);
    }

    #[test]
    fn dispatch_parse_accepts_valid_and_lists_set_on_error() {
        assert_eq!(Variant::parse("scalar").unwrap(), Variant::Scalar);
        assert_eq!(Variant::parse(" SSE2 ").unwrap(), Variant::Sse2);
        assert_eq!(Variant::parse("Avx2").unwrap(), Variant::Avx2);
        let err = Variant::parse("avx512").unwrap_err();
        assert!(err.contains("avx512"), "echoes the bad value: {err}");
        assert!(
            err.contains("scalar, sse2, avx2"),
            "lists the valid set: {err}"
        );
    }

    #[test]
    fn dispatch_resolve_falls_down_the_ladder_with_warning() {
        // Forced-unsupported shim: a host with no SIMD at all.
        let none = |v: Variant| v == Variant::Scalar;
        let (v, warn) = dispatch::resolve(Variant::Avx2, none);
        assert_eq!(v, Variant::Scalar);
        let warn = warn.expect("fallback must warn");
        assert!(warn.contains("avx2") && warn.contains("scalar"), "{warn}");

        // A host with SSE2 but no AVX2: avx2 degrades one rung, not two.
        let sse_only = |v: Variant| v != Variant::Avx2;
        let (v, warn) = dispatch::resolve(Variant::Avx2, sse_only);
        assert_eq!(v, Variant::Sse2);
        assert!(warn.unwrap().contains("sse2"));

        // Supported requests resolve to themselves, silently.
        let (v, warn) = dispatch::resolve(Variant::Scalar, none);
        assert_eq!(v, Variant::Scalar);
        assert!(warn.is_none());
    }

    #[test]
    fn dispatch_best_supported_is_supported_and_scalar_always_is() {
        assert!(dispatch::best_supported().supported());
        assert!(Variant::Scalar.supported());
        assert!(Variant::all().len() >= Variant::supported_variants().len());
    }

    #[test]
    fn every_supported_variant_matches_reference() {
        let (m, n, k) = (13, 21, 17);
        let a = random(m, k, 21);
        let b = random(n, k, 22);
        let mut want_nt = vec![0.0; m * n];
        reference::matmul_nt(m, n, k, &a, k, &b, k, &mut want_nt, n);
        let bt = {
            let mut t = vec![0.0; k * n];
            reference::transpose(n, k, &b, k, &mut t, n);
            t
        };
        let mut want_nn = vec![0.0; m * n];
        reference::matmul(m, n, k, &a, k, &bt, n, &mut want_nn, n);
        for v in Variant::supported_variants() {
            let mut got = vec![0.0; m * n];
            matmul_nt_with(v, m, n, k, &a, k, &b, k, &mut got, n);
            close(&got, &want_nt, 1e-4);
            let mut got_nn = vec![0.0; m * n];
            matmul_with(v, m, n, k, &a, k, &bt, n, &mut got_nn, n);
            close(&got_nn, &want_nn, 1e-4);
        }
    }

    #[test]
    fn scalar_and_sse2_are_bit_identical() {
        if !Variant::Sse2.supported() {
            return;
        }
        let (m, n, k) = (50, 100, 16);
        let a = random(m, k, 31);
        let b = random(n, k, 32);
        let g = random(m, n, 33);
        let mut s_nt = vec![0.0; m * n];
        let mut v_nt = vec![0.0; m * n];
        matmul_nt_with(Variant::Scalar, m, n, k, &a, k, &b, k, &mut s_nt, n);
        matmul_nt_with(Variant::Sse2, m, n, k, &a, k, &b, k, &mut v_nt, n);
        assert_eq!(s_nt, v_nt, "sse2 matmul_nt must be bit-identical");
        let (mut sga, mut sgb) = (vec![0.0; m * k], vec![0.0; n * k]);
        let (mut vga, mut vgb) = (vec![0.0; m * k], vec![0.0; n * k]);
        score_grads_with(
            Variant::Scalar,
            m,
            n,
            k,
            &a,
            k,
            &b,
            k,
            &g,
            n,
            &mut sga,
            k,
            &mut sgb,
            k,
        );
        score_grads_with(
            Variant::Sse2,
            m,
            n,
            k,
            &a,
            k,
            &b,
            k,
            &g,
            n,
            &mut vga,
            k,
            &mut vgb,
            k,
        );
        assert_eq!(sga, vga, "sse2 score_grads ga must be bit-identical");
        assert_eq!(sgb, vgb, "sse2 score_grads gb must be bit-identical");
    }

    #[test]
    fn unsupported_per_call_variant_degrades_to_scalar_result() {
        // `for_call` is the UB guard: on x86_64 everything here is
        // supported so this exercises the identity path, while on other
        // arches it proves the degrade path returns scalar bits.
        let (m, n, k) = (6, 9, 7);
        let a = random(m, k, 41);
        let b = random(n, k, 42);
        let mut want = vec![0.0; m * n];
        matmul_nt_with(Variant::Scalar, m, n, k, &a, k, &b, k, &mut want, n);
        for v in Variant::all() {
            if v == Variant::Avx2 && v.supported() {
                continue; // FMA path legitimately differs in low bits
            }
            let mut got = vec![0.0; m * n];
            matmul_nt_with(v, m, n, k, &a, k, &b, k, &mut got, n);
            assert_eq!(got, want, "variant {} broke bit-compat", v.name());
        }
    }
}
