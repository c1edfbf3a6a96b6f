//! Differential quantization test battery.
//!
//! Drives random shapes and value distributions through the f16/int8
//! row codec in `pbg_tensor::quant` and checks every decoded element
//! against the committed error contract:
//!
//! - f16: relative error ≤ 2⁻¹¹ in the normal range (round-to-nearest-
//!   even is half an ulp of a 10-bit significand), absolute error
//!   ≤ 2⁻²⁵ in the subnormal range, specials (NaN, ±inf, ±0) preserved,
//!   overflow saturating to ±65504 or rounding to ±inf.
//! - int8: absolute error ≤ scale/2 for finite values, where scale is
//!   the row's absmax/127 over *finite* entries; NaN encodes to 0 and
//!   ±inf clamps to ±127·scale.
//!
//! Everything is seeded (`Xoshiro256`) in the style of `kernel_diff.rs`:
//! a reported failure is a one-line reproducer, and the harness shrinks
//! the failing case (halving rows/cols, simplifying the distribution)
//! before panicking with the minimal one.

use pbg_tensor::quant::{self, Precision};
use pbg_tensor::rng::Xoshiro256;

// ---------------------------------------------------------------------------
// ULP comparator (same construction as kernel_diff.rs)
// ---------------------------------------------------------------------------

/// Monotone integer line over f32 (sign-magnitude → two's-complement).
fn float_ord(x: f32) -> i64 {
    let bits = x.to_bits();
    if bits & 0x8000_0000 != 0 {
        -((bits & 0x7fff_ffff) as i64)
    } else {
        bits as i64
    }
}

/// Distance in units of least precision; NaN anywhere is maximal.
fn ulp_diff(a: f32, b: f32) -> u64 {
    if a.is_nan() || b.is_nan() {
        return u64::MAX;
    }
    if a == b {
        return 0;
    }
    (float_ord(a) - float_ord(b)).unsigned_abs()
}

// f16 error contract constants
const F16_MAX: f32 = 65504.0;
/// Smallest positive normal f16.
const F16_MIN_NORMAL: f32 = 6.103_515_6e-5; // 2^-14
/// Half an ulp of a 10-bit significand, as a relative bound.
const F16_REL: f32 = 1.0 / 2048.0; // 2^-11
/// Half the subnormal step 2^-24.
const F16_SUB_ABS: f32 = 5.960_464_5e-8; // 2^-25

// ---------------------------------------------------------------------------
// Case generation and shrinking
// ---------------------------------------------------------------------------

/// Value distributions the battery sweeps. Lower numbers are "simpler"
/// for the shrinker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Dist {
    /// Standard normals — the training regime.
    Normal = 0,
    /// Scaled up toward (and past) f16 overflow.
    Large = 1,
    /// Scaled down into f16-subnormal territory.
    Tiny = 2,
    /// Normals with NaN, ±inf, ±0 and f32 subnormals injected.
    Specials = 3,
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct Case {
    rows: usize,
    cols: usize,
    dist: Dist,
    seed: u64,
}

impl Case {
    fn random(seed: u64) -> Case {
        let mut rng = Xoshiro256::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
        Case {
            rows: rng.gen_index(33),
            cols: rng.gen_index(130), // crosses typical dims and 0
            dist: match rng.gen_index(4) {
                0 => Dist::Normal,
                1 => Dist::Large,
                2 => Dist::Tiny,
                _ => Dist::Specials,
            },
            seed,
        }
    }

    /// Deterministically regenerates this case's value block.
    fn values(&self) -> Vec<f32> {
        let mut rng = Xoshiro256::seed_from_u64(self.seed);
        let n = self.rows * self.cols;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let x = rng.gen_normal();
            out.push(match self.dist {
                Dist::Normal => x,
                Dist::Large => x * 40_000.0,
                Dist::Tiny => x * 1e-5,
                Dist::Specials => match rng.gen_index(8) {
                    0 => f32::NAN,
                    1 => f32::INFINITY,
                    2 => f32::NEG_INFINITY,
                    3 => 0.0,
                    4 => -0.0,
                    5 => x * f32::MIN_POSITIVE, // f32 subnormals
                    _ => x,
                },
            });
        }
        out
    }

    fn shrink_candidates(&self) -> Vec<Case> {
        let mut out = Vec::new();
        for f in [
            |c: &mut Case| c.rows /= 2,
            |c: &mut Case| c.cols /= 2,
            |c: &mut Case| c.rows = c.rows.saturating_sub(1),
            |c: &mut Case| c.cols = c.cols.saturating_sub(1),
            |c: &mut Case| c.dist = Dist::Normal,
        ] {
            let mut cand = self.clone();
            f(&mut cand);
            if cand != *self && cand.rows <= self.rows && cand.cols <= self.cols {
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

/// Runs boundary shapes plus `cases` random cases through `check`; on
/// failure, shrinks and panics with the minimal reproducer.
fn run_property(name: &str, cases: u64, check: impl Fn(&Case) -> Option<String>) {
    let boundary = [(0, 0), (0, 5), (3, 0), (1, 1), (1, 128), (32, 100)];
    for dist in [Dist::Normal, Dist::Large, Dist::Tiny, Dist::Specials] {
        for (idx, &(rows, cols)) in boundary.iter().enumerate() {
            let case = Case {
                rows,
                cols,
                dist,
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
// Per-codec checks
// ---------------------------------------------------------------------------

/// Encodes and decodes the case's block at `precision`, returning the
/// decoded values.
fn roundtrip(case: &Case, precision: Precision) -> Vec<f32> {
    let values = case.values();
    let mut bytes = Vec::new();
    quant::encode_rows(precision, &values, case.rows, case.cols, &mut bytes);
    assert_eq!(
        bytes.len(),
        precision
            .payload_bytes(case.rows, case.cols)
            .expect("no overflow at test sizes"),
        "encoded length must match the closed form"
    );
    quant::decode_rows(precision, &bytes, case.rows, case.cols).expect("self-encoded block decodes")
}

fn check_f16_contract(case: &Case) -> Option<String> {
    let values = case.values();
    let back = roundtrip(case, Precision::F16);
    for (i, (&x, &y)) in values.iter().zip(&back).enumerate() {
        let err = |msg: String| Some(format!("f16 element {i}: {msg}"));
        if x.is_nan() {
            if !y.is_nan() {
                return err(format!("NaN decoded to {y:e}"));
            }
            continue;
        }
        if x.is_infinite() {
            if y != x {
                return err(format!("{x:e} decoded to {y:e}"));
            }
            continue;
        }
        let ax = x.abs();
        if ax > F16_MAX {
            // overflow: saturate to ±65504 or round to ±inf, same sign
            let ok = (y.abs() == F16_MAX || y.is_infinite())
                && (y.is_sign_positive() == x.is_sign_positive());
            if !ok {
                return err(format!("overflowing {x:e} decoded to {y:e}"));
            }
        } else if ax >= F16_MIN_NORMAL {
            if (x - y).abs() > ax * F16_REL {
                return err(format!(
                    "{x:e} decoded to {y:e}, relative error {:e} > 2^-11",
                    (x - y).abs() / ax
                ));
            }
        } else if (x - y).abs() > F16_SUB_ABS {
            return err(format!(
                "subnormal-range {x:e} decoded to {y:e}, absolute error {:e} > 2^-25",
                (x - y).abs()
            ));
        }
        // ±0 must keep its sign (IEEE 754 sign bit survives the trip)
        if x == 0.0 && (y != 0.0 || y.is_sign_positive() != x.is_sign_positive()) {
            return err(format!("signed zero {x:e} decoded to {y:e}"));
        }
    }
    None
}

fn check_int8_contract(case: &Case) -> Option<String> {
    let values = case.values();
    let back = roundtrip(case, Precision::Int8);
    for r in 0..case.rows {
        let row = &values[r * case.cols..(r + 1) * case.cols];
        let scale = quant::int8_scale(row);
        for (j, &x) in row.iter().enumerate() {
            let y = back[r * case.cols + j];
            let err = |msg: String| Some(format!("int8 row {r} col {j} (scale {scale:e}): {msg}"));
            if x.is_nan() {
                if y != 0.0 {
                    return err(format!("NaN decoded to {y:e}, want 0"));
                }
            } else if x.is_infinite() {
                // clamps to the widest finite code
                if (y - x.signum() * 127.0 * scale).abs() > scale * 1e-3 {
                    return err(format!("{x:e} decoded to {y:e}, want ±127·scale"));
                }
            } else if (x - y).abs() > scale / 2.0 + scale * 1e-6 {
                return err(format!(
                    "{x:e} decoded to {y:e}, absolute error {:e} > scale/2",
                    (x - y).abs()
                ));
            }
        }
    }
    None
}

/// Random row access (`decode_row_into`) must agree bit-for-bit with the
/// full-block decode — the mmap serving path depends on it.
fn check_row_access_agrees(case: &Case) -> Option<String> {
    for precision in [Precision::F32, Precision::F16, Precision::Int8] {
        let values = case.values();
        let mut bytes = Vec::new();
        quant::encode_rows(precision, &values, case.rows, case.cols, &mut bytes);
        let block = quant::decode_rows(precision, &bytes, case.rows, case.cols).unwrap();
        let mut row = vec![0.0f32; case.cols];
        for i in 0..case.rows {
            quant::decode_row_into(precision, &bytes, case.rows, case.cols, i, &mut row).unwrap();
            for j in 0..case.cols {
                let (a, b) = (block[i * case.cols + j], row[j]);
                if a.to_bits() != b.to_bits() && !(a.is_nan() && b.is_nan()) {
                    return Some(format!(
                        "{precision:?} row {i} col {j}: block {a:e} vs row {b:e} ({} ulps)",
                        ulp_diff(a, b)
                    ));
                }
            }
        }
    }
    None
}

/// f16 quantization is idempotent: a second trip through the codec is
/// lossless (decoded values are exactly representable).
fn check_f16_idempotent(case: &Case) -> Option<String> {
    let once = roundtrip(case, Precision::F16);
    let twice_case = case.clone();
    let mut bytes = Vec::new();
    quant::encode_rows(Precision::F16, &once, case.rows, case.cols, &mut bytes);
    let twice =
        quant::decode_rows(Precision::F16, &bytes, twice_case.rows, twice_case.cols).unwrap();
    for (i, (&a, &b)) in once.iter().zip(&twice).enumerate() {
        if a.to_bits() != b.to_bits() && !(a.is_nan() && b.is_nan()) {
            return Some(format!(
                "element {i}: first trip {a:e}, second trip {b:e} ({} ulps)",
                ulp_diff(a, b)
            ));
        }
    }
    None
}

// ---------------------------------------------------------------------------
// The properties
// ---------------------------------------------------------------------------

#[test]
fn f16_roundtrip_honors_error_contract() {
    run_property("f16_contract", 48, check_f16_contract);
}

#[test]
fn int8_roundtrip_honors_error_contract() {
    run_property("int8_contract", 48, check_int8_contract);
}

#[test]
fn row_access_agrees_with_block_decode() {
    run_property("row_access", 32, check_row_access_agrees);
}

#[test]
fn f16_quantization_is_idempotent() {
    run_property("f16_idempotent", 32, check_f16_idempotent);
}

/// Length tampering — the codec's only in-band integrity signal — must
/// be rejected for every precision and both decode entry points. (Value
/// bit-flips inside a well-formed block are the checkpoint checksum's
/// and the wire checksum's job; see `hostile_inputs` in
/// `crates/net/tests/codec_props.rs` and the checkpoint tests.)
#[test]
fn tampered_lengths_are_rejected() {
    let case = Case {
        rows: 4,
        cols: 6,
        dist: Dist::Normal,
        seed: 11,
    };
    let values = case.values();
    for precision in [Precision::F32, Precision::F16, Precision::Int8] {
        let mut bytes = Vec::new();
        quant::encode_rows(precision, &values, 4, 6, &mut bytes);
        // truncated and extended blocks
        assert!(quant::decode_rows(precision, &bytes[..bytes.len() - 1], 4, 6).is_err());
        let mut longer = bytes.clone();
        longer.push(0);
        assert!(quant::decode_rows(precision, &longer, 4, 6).is_err());
        // shape lies
        assert!(quant::decode_rows(precision, &bytes, 5, 6).is_err());
        assert!(quant::decode_rows(precision, &bytes, 4, 5).is_err());
        // row access: bad row index and wrong output width
        let mut row = vec![0.0f32; 6];
        assert!(quant::decode_row_into(precision, &bytes, 4, 6, 4, &mut row).is_err());
        let mut short = vec![0.0f32; 5];
        assert!(quant::decode_row_into(precision, &bytes, 4, 6, 0, &mut short).is_err());
        assert!(
            quant::decode_row_into(precision, &bytes[..bytes.len() - 1], 4, 6, 0, &mut row)
                .is_err()
        );
    }
}

/// Every bit of an encoded block is load-bearing: flipping any one bit
/// changes some decoded value (the codecs are injective maps), so
/// upstream checksums — on checkpoint shards and wire frames —
/// see every corruption as a content change, never a silent no-op.
#[test]
fn every_encoded_bit_is_observable() {
    let case = Case {
        rows: 3,
        cols: 5,
        dist: Dist::Normal,
        seed: 23,
    };
    let values = case.values();
    for precision in [Precision::F16, Precision::Int8] {
        let mut bytes = Vec::new();
        quant::encode_rows(precision, &values, 3, 5, &mut bytes);
        let clean = quant::decode_rows(precision, &bytes, 3, 5).unwrap();
        for bit in 0..bytes.len() * 8 {
            let mut bad = bytes.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            let decoded = quant::decode_rows(precision, &bad, 3, 5).unwrap();
            let changed = clean
                .iter()
                .zip(&decoded)
                .any(|(a, b)| a.to_bits() != b.to_bits());
            assert!(
                changed,
                "{precision:?}: flipping encoded bit {bit} left the decode unchanged"
            );
        }
    }
}
