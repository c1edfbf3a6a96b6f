//! The partition shard: the one on-disk form of an embedding partition.
//!
//! A [`crate::storage::DiskStore`] swap file, a checkpoint's partition
//! file and the file `pbg serve` maps are the same bytes, written by
//! [`encode`] and read by [`decode`] (heap) or [`verify`] (mapped):
//!
//! ```text
//! offset   size     field
//! 0        4        magic "PBGC"
//! 4        1        version (VERSION)
//! 5        1        precision tag (pbg_tensor::quant::Precision::tag)
//! 6        2        reserved, 0
//! 8        8        rows, u64 LE
//! 16       8        cols, u64 LE
//! 24       P        rows × cols block in the quant::encode_rows layout
//! 24 + P   4·rows   per-row f32 Adagrad accumulators, LE
//! end − 8  8        checksum of every byte before it, u64 LE
//! ```
//!
//! The 24-byte header keeps an f32 block 4-byte aligned in a
//! page-aligned mapping, so served rows are read in place. The checksum
//! is folded in while the rows are encoded or decoded, one cache-sized
//! group at a time, so it costs no second pass over the partition.

use crate::error::{PbgError, Result};
use crate::storage::{PartitionData, PartitionKey};
use pbg_tensor::quant::{self, Precision};

/// Leading bytes of every shard.
pub(crate) const MAGIC: &[u8; 4] = b"PBGC";
/// Shard format version. Versions 1–3 were the per-entity-type
/// checkpoint files; they are refused, not upgraded.
pub(crate) const VERSION: u8 = 4;
/// Header bytes before the row block.
pub(crate) const HEADER_BYTES: usize = 24;
/// The trailing checksum.
const TRAILER_BYTES: usize = 8;

/// File name of `key`'s shard in a checkpoint (a swap store names the
/// same bytes [`crate::storage::swap_file_name`]).
pub fn file_name(key: PartitionKey) -> String {
    format!("et{}_p{}.shard", key.entity_type, key.partition)
}

/// Shape and precision of a shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Header {
    /// Embedding rows.
    pub rows: usize,
    /// Embedding dimension.
    pub cols: usize,
    /// Storage precision of the row block.
    pub precision: Precision,
}

impl Header {
    /// Bytes of the encoded row block.
    pub fn block_bytes(&self) -> usize {
        self.precision
            .payload_bytes(self.rows, self.cols)
            .expect("validated shard shape")
    }

    /// Whole-file size, `None` when the shape overflows.
    fn file_bytes(&self) -> Option<usize> {
        let block = self.precision.payload_bytes(self.rows, self.cols)?;
        block
            .checked_add(self.rows.checked_mul(4)?)?
            .checked_add(HEADER_BYTES + TRAILER_BYTES)
    }

    /// Reads the header of `bytes` and checks the file is exactly as
    /// long as it says — before anything is allocated for its rows.
    fn parse(bytes: &[u8]) -> Result<Header> {
        let Some(head) = bytes.get(..HEADER_BYTES) else {
            let len = bytes.len();
            return Err(bad(format!(
                "file truncated: {len} bytes, shard header needs {HEADER_BYTES}"
            )));
        };
        if &head[..4] != MAGIC {
            return Err(bad("bad magic".into()));
        }
        if head[4] != VERSION {
            return Err(bad(format!(
                "unsupported checkpoint version {}; re-save",
                head[4]
            )));
        }
        let precision = Precision::from_tag(head[5])
            .ok_or_else(|| bad(format!("unknown precision tag {}", head[5])))?;
        if head[6..8] != [0, 0] {
            return Err(bad("reserved header bytes are not zero".into()));
        }
        let dim = |at: usize| u64::from_le_bytes(head[at..at + 8].try_into().expect("8 bytes"));
        let (rows, cols) = (dim(8), dim(16));
        let overflow = || bad("shard dimensions overflow".into());
        let header = Header {
            rows: usize::try_from(rows).map_err(|_| overflow())?,
            cols: usize::try_from(cols).map_err(|_| overflow())?,
            precision,
        };
        let want = header.file_bytes().ok_or_else(overflow)?;
        if bytes.len() != want {
            let (len, gap) = (bytes.len(), want.abs_diff(bytes.len()));
            let side = if len < want { "short" } else { "over" };
            return Err(bad(format!(
                "shard shape {rows}x{cols} needs {want} bytes, file has {len} ({gap} bytes {side})"
            )));
        }
        Ok(header)
    }
}

/// A decoded shard.
#[derive(Debug)]
pub struct Shard {
    /// Shape and precision.
    pub header: Header,
    /// `rows × cols` embedding floats, row-major.
    pub embeddings: Vec<f32>,
    /// One Adagrad accumulator per row.
    pub accumulators: Vec<f32>,
    /// [`checksum`] of the whole file, trailer included — what a
    /// checkpoint manifest records for it.
    pub file_checksum: u64,
}

fn bad(msg: String) -> PbgError {
    PbgError::Checkpoint(msg)
}

/// Encodes a `rows × cols` partition into `out` (cleared first): row `i`
/// comes from `row(i, buf)`, as in [`quant::encode_rows_streamed`].
/// Returns the whole-file [`checksum`].
///
/// # Panics
///
/// Panics if `acc.len() != rows` or the shape overflows.
pub fn encode(
    precision: Precision,
    rows: usize,
    cols: usize,
    row: impl FnMut(usize, &mut [f32]),
    acc: &[f32],
    out: &mut Vec<u8>,
) -> u64 {
    assert_eq!(acc.len(), rows, "one accumulator per row");
    let header = Header {
        rows,
        cols,
        precision,
    };
    let len = header.file_bytes().expect("shard shape overflows");
    out.clear();
    out.reserve_exact(len);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&[VERSION, precision.tag(), 0, 0]);
    out.extend_from_slice(&(rows as u64).to_le_bytes());
    out.extend_from_slice(&(cols as u64).to_le_bytes());
    let mut sum = Checksum::new();
    sum.update(out);
    quant::encode_rows_streamed(precision, rows, cols, row, out, |group| sum.update(group));
    let mark = out.len();
    acc.iter()
        .for_each(|a| out.extend_from_slice(&a.to_le_bytes()));
    sum.update(&out[mark..]);
    out.extend_from_slice(&sum.finish().to_le_bytes());
    debug_assert_eq!(out.len(), len);
    sum.update(&out[len - TRAILER_BYTES..]);
    sum.finish()
}

/// [`encode`] of a resident partition, read row by row from its shared
/// storage.
pub(crate) fn encode_partition(
    data: &PartitionData,
    precision: Precision,
    out: &mut Vec<u8>,
) -> u64 {
    let (rows, cols) = (data.embeddings.rows(), data.embeddings.cols());
    let acc = data.adagrad.to_vec();
    encode(
        precision,
        rows,
        cols,
        |i, buf| data.embeddings.read_row_into(i, buf),
        &acc,
        out,
    )
}

/// Decodes a shard, verifying its checksum in the same pass.
///
/// # Errors
///
/// Returns [`PbgError::Checkpoint`] for any malformed, truncated or
/// corrupted input; nothing is allocated for rows until the file length
/// matches its header.
pub fn decode(bytes: &[u8]) -> Result<Shard> {
    let header = Header::parse(bytes)?;
    let (rows, cols, precision) = (header.rows, header.cols, header.precision);
    let block = &bytes[HEADER_BYTES..HEADER_BYTES + header.block_bytes()];
    // the first quantized row follows an int8 scale column
    let row_bytes = cols * precision.element_bytes();
    let rows_start = HEADER_BYTES + block.len() - rows * row_bytes;
    let mut sum = Checksum::new();
    sum.update(&bytes[..rows_start]);
    let mut embeddings = vec![0.0f32; rows * cols];
    let group = quant::group_rows(cols);
    for start in (0..rows).step_by(group) {
        let end = rows.min(start + group);
        sum.update(&bytes[rows_start + start * row_bytes..rows_start + end * row_bytes]);
        for i in start..end {
            quant::decode_row_into(
                precision,
                block,
                rows,
                cols,
                i,
                &mut embeddings[i * cols..(i + 1) * cols],
            )
            .map_err(bad)?;
        }
    }
    let acc_bytes = &bytes[HEADER_BYTES + block.len()..bytes.len() - TRAILER_BYTES];
    sum.update(acc_bytes);
    let accumulators = acc_bytes
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes(c.try_into().expect("4 bytes")))
        .collect();
    Ok(Shard {
        header,
        embeddings,
        accumulators,
        file_checksum: check_trailer(sum, bytes)?,
    })
}

/// Validates a shard in place (header, length, checksum) without
/// decoding it — the open path of a memory-mapped shard. Returns the
/// header and the whole-file [`checksum`].
///
/// # Errors
///
/// As [`decode`].
pub fn verify(bytes: &[u8]) -> Result<(Header, u64)> {
    let header = Header::parse(bytes)?;
    let mut sum = Checksum::new();
    sum.update(&bytes[..bytes.len() - TRAILER_BYTES]);
    Ok((header, check_trailer(sum, bytes)?))
}

/// Compares the running checksum of everything before the trailer with
/// the trailer, then folds the trailer in: the whole-file checksum.
fn check_trailer(mut sum: Checksum, bytes: &[u8]) -> Result<u64> {
    let trailer = &bytes[bytes.len() - TRAILER_BYTES..];
    let stored = u64::from_le_bytes(trailer.try_into().expect("8 bytes"));
    if sum.finish() != stored {
        return Err(bad(format!(
            "checksum {:016x} != stored {stored:016x}",
            sum.finish()
        )));
    }
    sum.update(trailer);
    Ok(sum.finish())
}

/// Lanes of the checksum; each absorbs every `LANES`-th 8-byte word.
const LANES: usize = 4;
/// Bytes absorbed per round (one word per lane).
const BLOCK: usize = LANES * 8;
const MUL: u64 = 0x9E37_79B9_7F4A_7C15;
const SEEDS: [u64; LANES] = [
    0x243F_6A88_85A3_08D3,
    0x1319_8A2E_0370_7344,
    0xA409_3822_299F_31D0,
    0x082E_FA98_EC4E_6C89,
];

/// One absorption step: a bijection of `lane` for a fixed word and of
/// the word for a fixed lane, so a change confined to one word always
/// changes the result.
#[inline(always)]
fn absorb(lane: u64, word: u64) -> u64 {
    (lane ^ word).wrapping_mul(MUL).rotate_left(29)
}

/// Streaming form of [`checksum`]: any split of the same bytes across
/// [`Checksum::update`] calls gives the same [`Checksum::finish`].
#[derive(Debug, Clone)]
struct Checksum {
    lanes: [u64; LANES],
    tail: [u8; BLOCK],
    tail_len: usize,
    len: u64,
}

impl Checksum {
    /// The checksum of no bytes so far.
    fn new() -> Self {
        Checksum {
            lanes: SEEDS,
            tail: [0; BLOCK],
            tail_len: 0,
            len: 0,
        }
    }

    /// Absorbs `bytes`.
    fn update(&mut self, mut bytes: &[u8]) {
        self.len = self.len.wrapping_add(bytes.len() as u64);
        if self.tail_len > 0 {
            let take = (BLOCK - self.tail_len).min(bytes.len());
            self.tail[self.tail_len..self.tail_len + take].copy_from_slice(&bytes[..take]);
            self.tail_len += take;
            bytes = &bytes[take..];
            if self.tail_len < BLOCK {
                return;
            }
            let block = self.tail;
            self.block(&block);
            self.tail_len = 0;
        }
        let mut blocks = bytes.chunks_exact(BLOCK);
        for block in &mut blocks {
            self.block(block);
        }
        let rest = blocks.remainder();
        self.tail[..rest.len()].copy_from_slice(rest);
        self.tail_len = rest.len();
    }

    #[inline(always)]
    fn block(&mut self, block: &[u8]) {
        for (lane, word) in self.lanes.iter_mut().zip(block.chunks_exact(8)) {
            *lane = absorb(*lane, u64::from_le_bytes(word.try_into().expect("8 bytes")));
        }
    }

    /// The checksum of everything absorbed so far: the partial block's
    /// zero-padded words go to their lanes, then the length and the
    /// lanes fold into one word, finished by the splitmix64 mixer.
    fn finish(&self) -> u64 {
        let mut lanes = self.lanes;
        let mut last = [0u8; BLOCK];
        last[..self.tail_len].copy_from_slice(&self.tail[..self.tail_len]);
        let words = self.tail_len.div_ceil(8);
        for (lane, word) in lanes.iter_mut().zip(last.chunks_exact(8)).take(words) {
            *lane = absorb(*lane, u64::from_le_bytes(word.try_into().expect("8 bytes")));
        }
        let mut h = lanes
            .iter()
            .fold(self.len.wrapping_mul(MUL), |h, &lane| absorb(h, lane));
        h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        h ^ (h >> 31)
    }
}

/// The one content checksum of checkpoint files, swap shards and wire
/// frames: four independent lanes absorb 8-byte words, so the hash runs
/// at several bytes per cycle instead of FNV-1a's one dependent multiply
/// per byte. A change confined to one word — any flipped bit — always
/// changes the sum, and the byte length is folded in, so a truncation
/// changes it too. Torn writes are the adversary, not forgery.
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut sum = Checksum::new();
    sum.update(bytes);
    sum.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(precision: Precision, rows: usize, cols: usize) -> (Vec<f32>, Vec<f32>, Vec<u8>) {
        let mut rng = pbg_tensor::rng::Xoshiro256::seed_from_u64(rows as u64 * 31 + cols as u64);
        let emb: Vec<f32> = (0..rows * cols).map(|_| rng.gen_normal()).collect();
        let acc: Vec<f32> = (0..rows).map(|i| i as f32 * 0.25).collect();
        let mut out = Vec::new();
        encode(
            precision,
            rows,
            cols,
            |i, buf| buf.copy_from_slice(&emb[i * cols..(i + 1) * cols]),
            &acc,
            &mut out,
        );
        (emb, acc, out)
    }

    const PRECISIONS: [Precision; 3] = [Precision::F32, Precision::F16, Precision::Int8];

    #[test]
    fn roundtrip_matches_the_block_codec_at_every_precision() {
        // shapes straddling the encode/decode group size
        for precision in PRECISIONS {
            for (rows, cols) in [(0, 4), (1, 1), (3, 5), (7, 0), (700, 33)] {
                let (emb, acc, bytes) = sample(precision, rows, cols);
                let mut block = Vec::new();
                quant::encode_rows(precision, &emb, rows, cols, &mut block);
                assert_eq!(&bytes[HEADER_BYTES..HEADER_BYTES + block.len()], &block[..]);
                let shard = decode(&bytes).unwrap();
                let want = quant::decode_rows(precision, &block, rows, cols).unwrap();
                let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(&shard.embeddings),
                    bits(&want),
                    "{precision} {rows}x{cols}"
                );
                assert_eq!(shard.accumulators, acc);
                assert_eq!(shard.file_checksum, checksum(&bytes));
                assert_eq!(verify(&bytes).unwrap(), (shard.header, checksum(&bytes)));
            }
        }
    }

    #[test]
    fn every_bit_flip_and_truncation_is_an_error() {
        for precision in PRECISIONS {
            let (_, _, bytes) = sample(precision, 3, 5);
            for bit in 0..bytes.len() * 8 {
                let mut bad = bytes.clone();
                bad[bit / 8] ^= 1 << (bit % 8);
                assert!(
                    decode(&bad).is_err(),
                    "{precision}: flip of bit {bit} accepted"
                );
                assert!(
                    verify(&bad).is_err(),
                    "{precision}: flip of bit {bit} verified"
                );
            }
            for cut in 0..bytes.len() {
                assert!(decode(&bytes[..cut]).is_err(), "{precision}: cut at {cut}");
                assert!(verify(&bytes[..cut]).is_err(), "{precision}: cut at {cut}");
            }
        }
    }

    /// A header claiming `rows × cols` over `extra` bytes of body.
    fn forged(version: u8, tag: u8, rows: u64, cols: u64, extra: usize) -> Vec<u8> {
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(&[version, tag, 0, 0]);
        bytes.extend_from_slice(&rows.to_le_bytes());
        bytes.extend_from_slice(&cols.to_le_bytes());
        bytes.resize(bytes.len() + extra, 0);
        bytes
    }

    fn error_of(bytes: &[u8]) -> String {
        match decode(bytes) {
            Err(PbgError::Checkpoint(msg)) => msg,
            other => panic!("forged shard accepted: {other:?}"),
        }
    }

    #[test]
    fn hostile_headers_are_refused_before_allocating() {
        // rows × cols × 4 wraps on 64-bit if unchecked
        assert!(error_of(&forged(VERSION, 0, u64::MAX / 2 + 1, 8, 0)).contains("overflow"));
        // huge but representable: the length check fails first
        assert!(error_of(&forged(VERSION, 0, 1 << 40, 4, 64)).contains("short"));
        assert!(error_of(&forged(VERSION, 9, 1, 1, 16)).contains("unknown precision tag 9"));
        let mut bad_magic = forged(VERSION, 0, 1, 1, 16);
        bad_magic[0] = b'X';
        assert!(error_of(&bad_magic).contains("bad magic"));
        for old in 1..VERSION {
            let msg = error_of(&forged(old, 0, 1, 1, 16));
            assert!(
                msg.contains(&format!("unsupported checkpoint version {old}; re-save")),
                "{msg}"
            );
        }
    }

    #[test]
    fn checksum_is_split_invariant_and_length_sensitive() {
        let data: Vec<u8> = (0..200u32).map(|i| (i * 7 + 3) as u8).collect();
        let whole = checksum(&data);
        for split in [1, 7, 31, 32, 33, 100] {
            let mut sum = Checksum::new();
            for piece in data.chunks(split) {
                sum.update(piece);
            }
            assert_eq!(sum.finish(), whole, "split {split}");
        }
        assert_ne!(checksum(&[0u8; 3]), checksum(&[0u8; 4]));
        assert_ne!(checksum(&[0u8; 32]), checksum(&[0u8; 40]));
    }
}
