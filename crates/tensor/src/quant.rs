//! Lossy storage precision for embedding rows: f16 and int8 codecs.
//!
//! Training compute and Adagrad state stay f32 everywhere; precision is
//! purely a *storage* property — checkpoint shards, DiskStore swap
//! files, and `pbg-net` chunk streams can hold rows at reduced width
//! and dequantize back into the resident f32 working set on load.
//!
//! Two compressed encodings, both zero-dependency:
//!
//! - [`Precision::F16`]: IEEE 754 binary16, converted with
//!   round-to-nearest-even. Relative round-trip error for normal values
//!   is ≤ 2⁻¹¹; ±inf and NaN are preserved, values beyond ±65504
//!   overflow to ±inf, and values under the subnormal range flush to
//!   signed zero.
//! - [`Precision::Int8`]: symmetric per-row quantization with an f32
//!   absmax scale (`scale = absmax / 127`). Finite values round-trip
//!   within `scale / 2` absolute error; NaN encodes to 0 and ±inf
//!   saturates to ±absmax. The scale is computed over *finite* values
//!   only, so one stray inf cannot zero out a whole row.
//!
//! Block layout ([`encode_rows`] / [`decode_rows`]):
//!
//! ```text
//! f32   rows*cols   f32 LE            (identity; byte-compatible with v2)
//! f16   rows*cols   u16 LE
//! int8  rows        f32 LE scales     (scale block first, then the
//!       rows*cols   i8                 quantized row bytes)
//! ```
//!
//! The scale block leads so [`decode_row_into`] can service random row
//! access over a memory-mapped shard with two disjoint reads and no
//! scan: scale at `i*4`, row bytes at `rows*4 + i*cols`.

use std::fmt;

/// Storage width for embedding-partition payloads.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, Default, serde::Serialize, serde::Deserialize,
)]
pub enum Precision {
    /// Full f32 rows — lossless, the default, byte-identical to the
    /// pre-quantization formats.
    #[default]
    F32,
    /// IEEE binary16 rows, round-to-nearest-even.
    F16,
    /// Symmetric int8 rows with a per-row f32 absmax scale.
    Int8,
}

impl fmt::Display for Precision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl Precision {
    /// Stable on-disk / on-wire tag. Never reorder.
    pub fn tag(self) -> u8 {
        match self {
            Precision::F32 => 0,
            Precision::F16 => 1,
            Precision::Int8 => 2,
        }
    }

    /// Inverse of [`Precision::tag`]; `None` for unknown tags.
    pub fn from_tag(tag: u8) -> Option<Precision> {
        match tag {
            0 => Some(Precision::F32),
            1 => Some(Precision::F16),
            2 => Some(Precision::Int8),
            _ => None,
        }
    }

    /// CLI / config spelling.
    pub fn name(self) -> &'static str {
        match self {
            Precision::F32 => "f32",
            Precision::F16 => "f16",
            Precision::Int8 => "int8",
        }
    }

    /// Parses the CLI / config spelling produced by [`Precision::name`].
    pub fn parse(s: &str) -> Option<Precision> {
        match s {
            "f32" => Some(Precision::F32),
            "f16" => Some(Precision::F16),
            "int8" => Some(Precision::Int8),
            _ => None,
        }
    }

    /// Bytes per stored element (excluding the int8 scale block).
    pub fn element_bytes(self) -> usize {
        match self {
            Precision::F32 => 4,
            Precision::F16 => 2,
            Precision::Int8 => 1,
        }
    }

    /// Encoded size of a `rows × cols` block, `None` on overflow.
    pub fn payload_bytes(self, rows: usize, cols: usize) -> Option<usize> {
        let elems = rows.checked_mul(cols)?;
        let data = elems.checked_mul(self.element_bytes())?;
        match self {
            Precision::Int8 => rows.checked_mul(4)?.checked_add(data),
            _ => Some(data),
        }
    }
}

/// Converts an f32 to IEEE binary16 bits with round-to-nearest-even.
pub fn f16_from_f32(x: f32) -> u16 {
    let bits = x.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let exp = ((bits >> 23) & 0xff) as i32;
    let mant = bits & 0x007f_ffff;
    if exp == 0xff {
        // inf stays inf; NaN keeps its top payload bits but always sets
        // a mantissa bit so it cannot silently become inf
        return if mant == 0 {
            sign | 0x7c00
        } else {
            sign | 0x7c00 | 0x0200 | ((mant >> 13) as u16 & 0x03ff)
        };
    }
    let e = exp - 127;
    if e >= 16 {
        return sign | 0x7c00; // beyond ±65504: overflow to inf
    }
    if e >= -14 {
        // normal half: round the 23-bit mantissa down to 10 bits; a
        // carry out of the mantissa bumps the exponent (and can reach
        // inf), which the packed representation handles for free
        let mut out = (((e + 15) as u32) << 10) | (mant >> 13);
        let round = mant & 0x1fff;
        if round > 0x1000 || (round == 0x1000 && out & 1 != 0) {
            out += 1;
        }
        return sign | out as u16;
    }
    if e >= -25 {
        // subnormal half: shift the full significand (implicit bit made
        // explicit) into place, rounding the dropped tail to even
        let m = mant | 0x0080_0000;
        let shift = (13 - 14 - e) as u32; // 14..=24
        let mut out = m >> shift;
        let halfway = 1u32 << (shift - 1);
        let round = m & ((1u32 << shift) - 1);
        if round > halfway || (round == halfway && out & 1 != 0) {
            out += 1; // may round up into the smallest normal — still valid
        }
        return sign | out as u16;
    }
    sign // underflow to signed zero
}

/// Converts IEEE binary16 bits back to f32 (exact — every f16 value is
/// representable in f32).
pub fn f16_to_f32(bits: u16) -> f32 {
    let sign = ((bits & 0x8000) as u32) << 16;
    let exp = ((bits >> 10) & 0x1f) as u32;
    let mant = (bits & 0x03ff) as u32;
    let out = if exp == 0x1f {
        sign | 0x7f80_0000 | (mant << 13) // inf / NaN
    } else if exp == 0 {
        if mant == 0 {
            sign
        } else {
            // subnormal: value = mant × 2⁻²⁴; normalize around the
            // leading set bit at position p
            let p = 31 - mant.leading_zeros();
            let m32 = (mant << (23 - p)) & 0x007f_ffff;
            sign | ((p + 103) << 23) | m32
        }
    } else {
        sign | ((exp + 112) << 23) | (mant << 13)
    };
    f32::from_bits(out)
}

/// Per-row int8 scale: absmax over *finite* values divided by 127.
/// Zero when the row has no finite non-zero value.
pub fn int8_scale(row: &[f32]) -> f32 {
    let mut absmax = 0.0f32;
    for &v in row {
        if v.is_finite() {
            absmax = absmax.max(v.abs());
        }
    }
    absmax / 127.0
}

/// Quantizes one value against a row scale. NaN maps to 0, ±inf
/// saturates to ±127, and a zero scale collapses everything to 0.
pub fn int8_quantize(v: f32, scale: f32) -> i8 {
    if scale == 0.0 {
        return 0;
    }
    // NaN survives round() and clamp(), then the saturating `as` cast
    // turns it into 0; ±inf clamps to ±127
    (v / scale).round().clamp(-127.0, 127.0) as i8
}

/// Inverse of [`int8_quantize`].
pub fn int8_dequantize(q: i8, scale: f32) -> f32 {
    f32::from(q) * scale
}

/// Encodes a `rows × cols` f32 block at `precision`, appending to
/// `out`. `values.len()` must equal `rows * cols`.
pub fn encode_rows(
    precision: Precision,
    values: &[f32],
    rows: usize,
    cols: usize,
    out: &mut Vec<u8>,
) {
    assert_eq!(values.len(), rows * cols, "block shape mismatch");
    encode_rows_streamed(
        precision,
        rows,
        cols,
        |i, buf| buf.copy_from_slice(&values[i * cols..(i + 1) * cols]),
        out,
        |_| {},
    );
}

/// Rows per [`encode_rows_streamed`] group: 64 KiB of f32 rows, at
/// least one.
pub fn group_rows(cols: usize) -> usize {
    ((64 << 10) / (cols * 4).max(1)).max(1)
}

/// Streaming form of [`encode_rows`]: row `i` is written into a one-row
/// scratch buffer by `row(i, buf)` and encoded at once, and every
/// [`group_rows`] rows the span appended to `out` is handed to `emitted`
/// — so a caller can checksum the block in the same pass. int8 asks for
/// each row twice: once for the scale column that leads the block, once
/// for its bytes.
pub fn encode_rows_streamed(
    precision: Precision,
    rows: usize,
    cols: usize,
    mut row: impl FnMut(usize, &mut [f32]),
    out: &mut Vec<u8>,
    mut emitted: impl FnMut(&[u8]),
) {
    out.reserve(
        precision
            .payload_bytes(rows, cols)
            .expect("block shape overflows"),
    );
    let group = group_rows(cols);
    let mut buf = vec![0.0f32; cols];
    let passes: &[bool] = match precision {
        Precision::Int8 => &[true, false],
        _ => &[false],
    };
    for &scales in passes {
        for start in (0..rows).step_by(group) {
            let mark = out.len();
            for i in start..rows.min(start + group) {
                row(i, &mut buf);
                match precision {
                    Precision::F32 => buf
                        .iter()
                        .for_each(|v| out.extend_from_slice(&v.to_le_bytes())),
                    Precision::F16 => buf
                        .iter()
                        .for_each(|&v| out.extend_from_slice(&f16_from_f32(v).to_le_bytes())),
                    Precision::Int8 if scales => {
                        out.extend_from_slice(&int8_scale(&buf).to_le_bytes())
                    }
                    Precision::Int8 => {
                        let scale = int8_scale(&buf);
                        out.extend(buf.iter().map(|&v| int8_quantize(v, scale) as u8));
                    }
                }
            }
            emitted(&out[mark..]);
        }
    }
}

/// Decodes a block produced by [`encode_rows`]. The byte length must
/// match [`Precision::payload_bytes`] exactly.
pub fn decode_rows(
    precision: Precision,
    bytes: &[u8],
    rows: usize,
    cols: usize,
) -> Result<Vec<f32>, String> {
    let want = precision
        .payload_bytes(rows, cols)
        .ok_or_else(|| format!("block shape {rows}x{cols} overflows"))?;
    if bytes.len() != want {
        return Err(format!(
            "{} block shape {rows}x{cols} needs {want} bytes, have {}",
            precision,
            bytes.len()
        ));
    }
    let mut out = vec![0.0f32; rows * cols];
    for i in 0..rows {
        decode_row_unchecked(
            precision,
            bytes,
            rows,
            cols,
            i,
            &mut out[i * cols..(i + 1) * cols],
        );
    }
    Ok(out)
}

/// Decodes row `i` of an encoded block into `out` (`out.len() == cols`).
/// Random access: reads only the bytes belonging to that row (plus its
/// scale for int8), so it works directly against a memory-mapped shard.
pub fn decode_row_into(
    precision: Precision,
    bytes: &[u8],
    rows: usize,
    cols: usize,
    i: usize,
    out: &mut [f32],
) -> Result<(), String> {
    let want = precision
        .payload_bytes(rows, cols)
        .ok_or_else(|| format!("block shape {rows}x{cols} overflows"))?;
    if bytes.len() != want {
        return Err(format!(
            "{precision} block shape {rows}x{cols} needs {want} bytes, have {}",
            bytes.len()
        ));
    }
    if i >= rows || out.len() != cols {
        return Err(format!(
            "row {i} of {rows} into a {}-wide buffer (cols {cols})",
            out.len()
        ));
    }
    decode_row_unchecked(precision, bytes, rows, cols, i, out);
    Ok(())
}

fn decode_row_unchecked(
    precision: Precision,
    bytes: &[u8],
    rows: usize,
    cols: usize,
    i: usize,
    out: &mut [f32],
) {
    match precision {
        Precision::F32 => {
            let start = i * cols * 4;
            for (o, c) in out
                .iter_mut()
                .zip(bytes[start..start + cols * 4].chunks_exact(4))
            {
                *o = f32::from_le_bytes(c.try_into().unwrap());
            }
        }
        Precision::F16 => {
            let start = i * cols * 2;
            for (o, c) in out
                .iter_mut()
                .zip(bytes[start..start + cols * 2].chunks_exact(2))
            {
                *o = f16_to_f32(u16::from_le_bytes(c.try_into().unwrap()));
            }
        }
        Precision::Int8 => {
            let scale = f32::from_le_bytes(bytes[i * 4..i * 4 + 4].try_into().unwrap());
            let start = rows * 4 + i * cols;
            for (o, &b) in out.iter_mut().zip(&bytes[start..start + cols]) {
                *o = int8_dequantize(b as i8, scale);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f16_preserves_specials() {
        assert_eq!(f16_from_f32(f32::INFINITY), 0x7c00);
        assert_eq!(f16_from_f32(f32::NEG_INFINITY), 0xfc00);
        assert_eq!(f16_from_f32(0.0), 0x0000);
        assert_eq!(f16_from_f32(-0.0), 0x8000);
        let nan = f16_from_f32(f32::NAN);
        assert_eq!(nan & 0x7c00, 0x7c00);
        assert_ne!(nan & 0x03ff, 0, "NaN must keep a mantissa bit");
        assert!(f16_to_f32(nan).is_nan());
        assert_eq!(f16_to_f32(0x7c00), f32::INFINITY);
        assert_eq!(f16_to_f32(0xfc00), f32::NEG_INFINITY);
    }

    #[test]
    fn f16_known_values() {
        assert_eq!(f16_from_f32(1.0), 0x3c00);
        assert_eq!(f16_from_f32(-2.0), 0xc000);
        assert_eq!(f16_from_f32(65504.0), 0x7bff); // largest finite half
        assert_eq!(f16_from_f32(65520.0), 0x7c00); // rounds up to inf
        assert_eq!(f16_from_f32(5.960_464_5e-8), 0x0001); // smallest subnormal
        assert_eq!(f16_from_f32(2.0f32.powi(-26)), 0x0000); // halfway, ties to even
        assert_eq!(f16_to_f32(0x3c00), 1.0);
        assert_eq!(f16_to_f32(0x0001), 2.0f32.powi(-24));
        assert_eq!(f16_to_f32(0x0400), 2.0f32.powi(-14)); // smallest normal
    }

    #[test]
    fn every_f16_bit_pattern_roundtrips_through_f32() {
        for bits in 0..=u16::MAX {
            let x = f16_to_f32(bits);
            let back = f16_from_f32(x);
            if x.is_nan() {
                assert!(f16_to_f32(back).is_nan(), "{bits:#06x}");
            } else {
                assert_eq!(back, bits, "{bits:#06x} -> {x} -> {back:#06x}");
            }
        }
    }

    #[test]
    fn int8_roundtrip_error_is_bounded_by_half_scale() {
        let row = [1.0f32, -3.5, 0.25, 127.0, -126.9, 0.0];
        let scale = int8_scale(&row);
        for &v in &row {
            let back = int8_dequantize(int8_quantize(v, scale), scale);
            assert!((back - v).abs() <= scale / 2.0 + 1e-9, "{v} -> {back}");
        }
    }

    #[test]
    fn int8_scale_ignores_non_finite() {
        assert_eq!(int8_scale(&[f32::INFINITY, 2.0, f32::NAN]), 2.0 / 127.0);
        let s = int8_scale(&[1.0]);
        assert_eq!(int8_quantize(f32::NAN, s), 0);
        assert_eq!(int8_quantize(f32::INFINITY, s), 127);
        assert_eq!(int8_quantize(f32::NEG_INFINITY, s), -127);
        assert_eq!(int8_scale(&[f32::NAN, f32::INFINITY]), 0.0);
        assert_eq!(int8_quantize(5.0, 0.0), 0);
    }

    #[test]
    fn block_roundtrip_and_row_access_agree() {
        let rows = 7;
        let cols = 5;
        let values: Vec<f32> = (0..rows * cols).map(|i| (i as f32 - 17.0) * 0.37).collect();
        for p in [Precision::F32, Precision::F16, Precision::Int8] {
            let mut bytes = Vec::new();
            encode_rows(p, &values, rows, cols, &mut bytes);
            assert_eq!(bytes.len(), p.payload_bytes(rows, cols).unwrap());
            let full = decode_rows(p, &bytes, rows, cols).unwrap();
            let mut row = vec![0.0f32; cols];
            for i in 0..rows {
                decode_row_into(p, &bytes, rows, cols, i, &mut row).unwrap();
                assert_eq!(&full[i * cols..(i + 1) * cols], &row[..], "{p} row {i}");
            }
            if p == Precision::F32 {
                assert_eq!(full, values, "f32 must be lossless");
            }
        }
    }

    #[test]
    fn streamed_groups_concatenate_to_the_documented_layout() {
        // 130 rows of 300 floats straddle three 64 KiB groups
        let (rows, cols) = (130, 300);
        assert!(group_rows(cols) < rows);
        let values: Vec<f32> = (0..rows * cols)
            .map(|i| (i as f32 * 0.37).sin() * 9.0)
            .collect();
        let row = |i: usize| &values[i * cols..(i + 1) * cols];
        for p in [Precision::F32, Precision::F16, Precision::Int8] {
            let mut want = Vec::new();
            match p {
                Precision::F32 => values.iter().for_each(|v| want.extend(v.to_le_bytes())),
                Precision::F16 => values
                    .iter()
                    .for_each(|&v| want.extend(f16_from_f32(v).to_le_bytes())),
                Precision::Int8 => {
                    (0..rows).for_each(|i| want.extend(int8_scale(row(i)).to_le_bytes()));
                    for i in 0..rows {
                        let s = int8_scale(row(i));
                        want.extend(row(i).iter().map(|&v| int8_quantize(v, s) as u8));
                    }
                }
            }
            let (mut out, mut spans) = (vec![7u8], vec![7u8]);
            let copy = |i: usize, buf: &mut [f32]| buf.copy_from_slice(row(i));
            encode_rows_streamed(p, rows, cols, copy, &mut out, |s| spans.extend(s));
            assert_eq!(out[1..], want[..], "{p}");
            assert_eq!(
                spans, out,
                "{p}: emitted spans cover the block once, in order"
            );
        }
    }

    #[test]
    fn decode_rejects_wrong_lengths() {
        let values = [1.0f32; 6];
        let mut bytes = Vec::new();
        encode_rows(Precision::F16, &values, 2, 3, &mut bytes);
        assert!(decode_rows(Precision::F16, &bytes[..bytes.len() - 1], 2, 3).is_err());
        assert!(decode_rows(Precision::F16, &bytes, 3, 3).is_err());
        let mut row = [0.0f32; 3];
        assert!(decode_row_into(Precision::F16, &bytes, 2, 3, 2, &mut row).is_err());
        assert!(decode_row_into(Precision::F16, &bytes, 2, 3, 0, &mut [0.0; 2]).is_err());
    }

    #[test]
    fn tags_and_names_are_stable() {
        for p in [Precision::F32, Precision::F16, Precision::Int8] {
            assert_eq!(Precision::from_tag(p.tag()), Some(p));
            assert_eq!(Precision::parse(p.name()), Some(p));
        }
        assert_eq!(Precision::from_tag(3), None);
        assert_eq!(Precision::parse("f64"), None);
        assert_eq!(
            (
                Precision::F32.tag(),
                Precision::F16.tag(),
                Precision::Int8.tag()
            ),
            (0, 1, 2)
        );
    }
}
