//! Crash-consistent model checkpointing (v2).
//!
//! "Model checkpoints are occasionally written to the shared filesystem
//! from the trainers" (Figure 2). A checkpoint directory holds the schema
//! and config as JSON plus one binary file per entity type (embeddings)
//! and one for all relation parameters.
//!
//! Checkpoints are the only recovery mechanism a multi-day training run
//! has, so every file is written crash-consistently: bytes go to a
//! sibling temp file, the file is fsynced, atomically renamed into
//! place, and the directory is fsynced so the rename is durable. A
//! `MANIFEST.json` is written *last* (also atomically) recording the
//! training progress at save time and a content checksum for every data
//! file. [`load`] refuses any checkpoint whose manifest is missing or
//! whose checksums or shapes disagree with the manifest and schema — a
//! crash at any write point therefore yields either the previous
//! complete checkpoint or a clean [`PbgError::Checkpoint`], never a
//! mixed-version load.

use crate::config::PbgConfig;
use crate::error::{PbgError, Result};
use crate::model::{RelationSnapshot, TrainedEmbeddings};
use bytes::{Buf, BufMut, BytesMut};
use pbg_graph::schema::GraphSchema;
use pbg_tensor::matrix::Matrix;
use pbg_tensor::quant::{self, Precision};
use serde::{Deserialize, Serialize};
use std::io::Write;
use std::path::Path;

const MAGIC: &[u8; 4] = b"PBGC";
/// Binary format version written by [`save`]: float payloads are
/// little-endian, so the serving tier can memory-map embedding shards
/// and reinterpret the payload as `&[f32]` in place on little-endian
/// hosts. Integer header fields are big-endian. (Version 1, which
/// stored floats big-endian, is no longer read.)
const VERSION: u8 = 2;
/// Version 3 marks a *quantized* embedding shard: the previously
/// reserved u16 at offset 6 carries the [`Precision`] tag and the float
/// payload is the corresponding [`pbg_tensor::quant`] block encoding.
/// v3 is written only when the save precision is not f32, so default
/// checkpoints stay byte-identical to v2.
const VERSION_QUANT: u8 = 3;
/// Byte offset of the float payload in a matrix file: 8-byte common
/// header plus `rows`/`cols` u64s. 4-byte aligned, so a page-aligned
/// mmap base keeps the payload aligned for `f32` access.
pub(crate) const MATRIX_PAYLOAD_OFFSET: usize = 24;
/// Manifest schema version (the "checkpoint v2" format marker).
pub const MANIFEST_VERSION: u32 = 2;
/// Name of the manifest file, written last during [`save`].
pub const MANIFEST_NAME: &str = "MANIFEST.json";

/// Training progress recorded in the manifest: how far the run that
/// wrote the checkpoint had gotten, in whole epochs plus bucket-steps
/// into the next (in-progress) epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct TrainProgress {
    /// Fully completed epochs.
    pub epochs_done: usize,
    /// Bucket-steps completed in the in-progress epoch (flat index over
    /// `passes × buckets`); 0 means the checkpoint sits on an epoch
    /// boundary.
    pub steps_done: usize,
}

/// One data file's manifest entry.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ManifestFile {
    /// File name relative to the checkpoint directory.
    pub name: String,
    /// Exact size in bytes.
    pub bytes: u64,
    /// FNV-1a 64-bit content checksum, lowercase hex.
    pub checksum: String,
}

/// The checkpoint manifest: written last, so its presence certifies that
/// every listed file landed completely.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Manifest {
    /// Manifest schema version ([`MANIFEST_VERSION`]).
    pub version: u32,
    /// Training progress at save time.
    pub progress: TrainProgress,
    /// Every data file with its size and checksum.
    pub files: Vec<ManifestFile>,
}

/// FNV-1a 64-bit checksum of `bytes` (no external hash dependency; the
/// adversary here is a torn write, not an attacker forging collisions).
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// How checkpoint bytes reach the filesystem. The production
/// implementation is [`AtomicIo`]; tests substitute fault-injecting
/// implementations to simulate crashes between (or inside) file
/// operations.
pub trait CheckpointIo {
    /// Durably persists `bytes` at `path`, atomically with respect to
    /// crashes: after a crash, `path` holds either its previous content
    /// or `bytes`, never a prefix or mixture.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures (a fault-injecting implementation returns
    /// an error at its kill point).
    fn persist(&mut self, path: &Path, bytes: &[u8]) -> Result<()>;
}

/// Temp-file + fsync + rename + directory-fsync writer.
#[derive(Debug, Default)]
pub struct AtomicIo;

impl CheckpointIo for AtomicIo {
    fn persist(&mut self, path: &Path, bytes: &[u8]) -> Result<()> {
        write_atomic(path, bytes)
    }
}

/// Writes `bytes` to `path` via a sibling `.tmp` file, fsyncing both the
/// file and its directory so a crash never exposes a partial file under
/// the final name.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> Result<()> {
    let file_name = path
        .file_name()
        .and_then(|n| n.to_str())
        .ok_or_else(|| PbgError::Checkpoint(format!("bad checkpoint path {}", path.display())))?;
    let tmp = path.with_file_name(format!("{file_name}.tmp"));
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    // fsync the directory so the rename itself survives a crash
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::File::open(parent)?.sync_all()?;
        }
    }
    Ok(())
}

/// Writes a checkpoint under `dir` (created if missing) with progress
/// recorded as "nothing in flight" — use [`save_with_progress`] from a
/// trainer that knows where it is.
///
/// # Errors
///
/// Propagates I/O failures.
pub fn save(model: &TrainedEmbeddings, dir: impl AsRef<Path>) -> Result<()> {
    save_with_progress(model, dir, TrainProgress::default())
}

/// Writes a checkpoint under `dir`, recording `progress` in the
/// manifest so a resumed run knows which epoch/bucket to restart from.
///
/// # Errors
///
/// Propagates I/O failures.
pub fn save_with_progress(
    model: &TrainedEmbeddings,
    dir: impl AsRef<Path>,
    progress: TrainProgress,
) -> Result<()> {
    save_with_io(model, dir, progress, &mut AtomicIo)
}

/// [`save_with_progress`] at a storage [`Precision`]: `F32` writes v2
/// shards byte-identical to [`save`]; `F16`/`Int8` write v3 shards with
/// quantized embedding payloads (relation parameters stay f32 — they
/// are tiny and shared, so compressing them buys nothing).
///
/// # Errors
///
/// Propagates I/O failures.
pub fn save_with_precision(
    model: &TrainedEmbeddings,
    dir: impl AsRef<Path>,
    progress: TrainProgress,
    precision: Precision,
) -> Result<()> {
    save_impl(model, dir.as_ref(), progress, precision, &mut AtomicIo)
}

/// [`save_with_progress`] with an explicit [`CheckpointIo`] — the
/// fault-injection seam the kill-point crash-consistency tests drive.
///
/// # Errors
///
/// Propagates I/O failures (including injected ones).
pub fn save_with_io(
    model: &TrainedEmbeddings,
    dir: impl AsRef<Path>,
    progress: TrainProgress,
    io: &mut dyn CheckpointIo,
) -> Result<()> {
    save_impl(model, dir.as_ref(), progress, Precision::F32, io)
}

fn save_impl(
    model: &TrainedEmbeddings,
    dir: &Path,
    progress: TrainProgress,
    precision: Precision,
    io: &mut dyn CheckpointIo,
) -> Result<()> {
    std::fs::create_dir_all(dir)?;
    let mut files: Vec<ManifestFile> = Vec::new();
    let mut put = |io: &mut dyn CheckpointIo, name: String, bytes: &[u8]| -> Result<()> {
        io.persist(&dir.join(&name), bytes)?;
        files.push(ManifestFile {
            name,
            bytes: bytes.len() as u64,
            checksum: format!("{:016x}", checksum(bytes)),
        });
        Ok(())
    };
    let meta = serde_json::json!({
        "dim": model.dim,
        "similarity": model.similarity,
        "num_entity_types": model.embeddings.len(),
    });
    put(
        io,
        "meta.json".into(),
        serde_json::to_string_pretty(&meta)
            .expect("meta serializes")
            .as_bytes(),
    )?;
    put(
        io,
        "schema.json".into(),
        serde_json::to_string_pretty(&model.schema)
            .expect("schema serializes")
            .as_bytes(),
    )?;
    for (t, emb) in model.embeddings.iter().enumerate() {
        let mut buf = BytesMut::new();
        buf.put_slice(MAGIC);
        // f32 saves stay on v2 so the default path is byte-identical to
        // pre-quantization checkpoints; v3 exists only for lossy shards
        if precision == Precision::F32 {
            buf.put_u8(VERSION);
            buf.put_u8(0);
            buf.put_u16(0);
        } else {
            buf.put_u8(VERSION_QUANT);
            buf.put_u8(0);
            buf.put_u16(u16::from(precision.tag()));
        }
        buf.put_u64(emb.rows() as u64);
        buf.put_u64(emb.cols() as u64);
        let mut payload = Vec::new();
        quant::encode_rows(
            precision,
            emb.as_slice(),
            emb.rows(),
            emb.cols(),
            &mut payload,
        );
        buf.put_slice(&payload);
        put(io, format!("embeddings_{t}.bin"), &buf)?;
    }
    let mut buf = BytesMut::new();
    buf.put_slice(MAGIC);
    buf.put_u8(VERSION);
    buf.put_u8(1); // relations payload
    buf.put_u16(0);
    buf.put_u64(model.relations.len() as u64);
    for r in &model.relations {
        buf.put_u8(op_code(r.op));
        buf.put_slice(&r.weight.to_le_bytes());
        buf.put_u64(r.forward.len() as u64);
        for &v in &r.forward {
            buf.put_slice(&v.to_le_bytes());
        }
        match &r.reciprocal {
            Some(inv) => {
                buf.put_u8(1);
                buf.put_u64(inv.len() as u64);
                for &v in inv {
                    buf.put_slice(&v.to_le_bytes());
                }
            }
            None => buf.put_u8(0),
        }
    }
    put(io, "relations.bin".into(), &buf)?;
    // the manifest lands last: its atomic rename is the commit point
    let manifest = Manifest {
        version: MANIFEST_VERSION,
        progress,
        files,
    };
    io.persist(
        &dir.join(MANIFEST_NAME),
        serde_json::to_string_pretty(&manifest)
            .expect("manifest serializes")
            .as_bytes(),
    )?;
    Ok(())
}

/// Reads and parses the manifest of the checkpoint at `dir`.
///
/// # Errors
///
/// Returns [`PbgError::Checkpoint`] when the manifest is missing from an
/// otherwise-present checkpoint (a torn save or a pre-v2 directory) or
/// malformed; a directory with no checkpoint at all surfaces as
/// [`PbgError::Io`].
pub fn read_manifest(dir: impl AsRef<Path>) -> Result<Manifest> {
    let dir = dir.as_ref();
    let text = match std::fs::read_to_string(dir.join(MANIFEST_NAME)) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            // distinguish "no checkpoint here" (plain I/O error) from
            // "data files without a manifest" (torn or pre-v2: refuse)
            return if dir.join("meta.json").exists() {
                Err(PbgError::Checkpoint(
                    "MANIFEST.json missing (incomplete save or pre-v2 checkpoint)".into(),
                ))
            } else {
                Err(PbgError::Io(e))
            };
        }
        Err(e) => return Err(e.into()),
    };
    let manifest: Manifest = serde_json::from_str(&text)
        .map_err(|e| PbgError::Checkpoint(format!("bad {MANIFEST_NAME}: {e}")))?;
    if manifest.version != MANIFEST_VERSION {
        return Err(PbgError::Checkpoint(format!(
            "unsupported manifest version {}",
            manifest.version
        )));
    }
    Ok(manifest)
}

/// Loads a checkpoint from `dir`.
///
/// # Errors
///
/// Returns [`PbgError::Checkpoint`] for corrupt, incomplete, or
/// shape-inconsistent checkpoints, and propagates I/O failures.
pub fn load(dir: impl AsRef<Path>) -> Result<TrainedEmbeddings> {
    Ok(load_with_manifest(dir)?.0)
}

/// Loads a checkpoint plus its manifest (for mid-epoch resume).
///
/// Every file listed in the manifest is verified against its recorded
/// size and checksum before any parsing, and every parsed shape is
/// verified against the schema — so stale files left by an older save
/// over the same directory are detected instead of silently loaded.
///
/// # Errors
///
/// Returns [`PbgError::Checkpoint`] for corrupt, incomplete, or
/// shape-inconsistent checkpoints, and propagates I/O failures.
pub fn load_with_manifest(dir: impl AsRef<Path>) -> Result<(TrainedEmbeddings, Manifest)> {
    let dir = dir.as_ref();
    let manifest = read_manifest(dir)?;
    let mut verified: std::collections::HashMap<&str, Vec<u8>> = std::collections::HashMap::new();
    for f in &manifest.files {
        let bytes = read_listed(dir, f)?;
        verify_against(f, &bytes)?;
        verified.insert(f.name.as_str(), bytes);
    }
    let take = |name: &str, verified: &mut std::collections::HashMap<&str, Vec<u8>>| {
        verified
            .remove(name)
            .ok_or_else(|| PbgError::Checkpoint(format!("{name} not listed in manifest")))
    };
    let meta_bytes = take("meta.json", &mut verified)?;
    let meta = parse_meta(&meta_bytes)?;
    let schema_bytes = take("schema.json", &mut verified)?;
    let schema = parse_schema(&schema_bytes)?;
    let CheckpointMeta {
        dim,
        similarity,
        num_types,
    } = meta;
    if num_types != schema.entity_types().len() {
        return Err(PbgError::Checkpoint(format!(
            "meta lists {num_types} entity types, schema has {}",
            schema.entity_types().len()
        )));
    }
    let mut embeddings = Vec::with_capacity(num_types.min(schema.entity_types().len()));
    for (t, def) in schema.entity_types().iter().enumerate() {
        let bytes = take(&format!("embeddings_{t}.bin"), &mut verified)?;
        let m = read_matrix(&bytes).map_err(|e| in_file(&format!("embeddings_{t}.bin"), e))?;
        // stale-file guard: shapes must match the schema this checkpoint
        // claims to describe, not whatever an older save left behind
        if m.cols() != dim {
            return Err(PbgError::Checkpoint(format!(
                "embeddings_{t}.bin: {} cols != dim {dim}",
                m.cols()
            )));
        }
        if m.rows() != def.num_entities() as usize {
            return Err(PbgError::Checkpoint(format!(
                "embeddings_{t}.bin: {} rows != {} entities in schema",
                m.rows(),
                def.num_entities()
            )));
        }
        embeddings.push(m);
    }
    let rel_bytes = take("relations.bin", &mut verified)?;
    let relations = read_relations(&rel_bytes).map_err(|e| in_file("relations.bin", e))?;
    if relations.len() != schema.num_relation_types() {
        return Err(PbgError::Checkpoint(format!(
            "relations.bin has {} relations, schema has {}",
            relations.len(),
            schema.num_relation_types()
        )));
    }
    Ok((
        TrainedEmbeddings {
            dim,
            similarity,
            schema,
            embeddings,
            relations,
        },
        manifest,
    ))
}

/// Parsed `meta.json` contents.
struct CheckpointMeta {
    dim: usize,
    similarity: crate::config::SimilarityKind,
    num_types: usize,
}

fn parse_meta(bytes: &[u8]) -> Result<CheckpointMeta> {
    let meta: serde_json::Value = std::str::from_utf8(bytes)
        .map_err(|e| PbgError::Checkpoint(format!("bad meta.json: {e}")))
        .and_then(|s| {
            serde_json::from_str(s).map_err(|e| PbgError::Checkpoint(format!("bad meta.json: {e}")))
        })?;
    let dim = meta["dim"]
        .as_u64()
        .ok_or_else(|| PbgError::Checkpoint("meta.json missing dim".into()))?
        as usize;
    let similarity: crate::config::SimilarityKind =
        serde_json::from_value(meta["similarity"].clone())
            .map_err(|e| PbgError::Checkpoint(format!("bad similarity: {e}")))?;
    let num_types = meta["num_entity_types"]
        .as_u64()
        .ok_or_else(|| PbgError::Checkpoint("meta.json missing num_entity_types".into()))?
        as usize;
    Ok(CheckpointMeta {
        dim,
        similarity,
        num_types,
    })
}

fn parse_schema(bytes: &[u8]) -> Result<GraphSchema> {
    std::str::from_utf8(bytes)
        .map_err(|e| PbgError::Checkpoint(format!("bad schema.json: {e}")))
        .and_then(|s| {
            serde_json::from_str(s)
                .map_err(|e| PbgError::Checkpoint(format!("bad schema.json: {e}")))
        })
}

/// Reads a manifest-listed file, mapping a missing file to a checkpoint
/// error (the manifest promised it exists).
fn read_listed(dir: &Path, f: &ManifestFile) -> Result<Vec<u8>> {
    match std::fs::read(dir.join(&f.name)) {
        Ok(bytes) => Ok(bytes),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Err(PbgError::Checkpoint(format!(
            "{} listed in manifest but missing",
            f.name
        ))),
        Err(e) => Err(e.into()),
    }
}

/// Verifies `bytes` against a manifest entry's recorded size and
/// checksum. Works equally on heap buffers and memory-mapped files —
/// the hash runs over the bytes in place.
fn verify_against(f: &ManifestFile, bytes: &[u8]) -> Result<()> {
    if bytes.len() as u64 != f.bytes {
        return Err(PbgError::Checkpoint(format!(
            "{}: size {} != manifest {}",
            f.name,
            bytes.len(),
            f.bytes
        )));
    }
    let sum = format!("{:016x}", checksum(bytes));
    if sum != f.checksum {
        return Err(PbgError::Checkpoint(format!(
            "{}: checksum {sum} != manifest {}",
            f.name, f.checksum
        )));
    }
    Ok(())
}

/// Prefixes a parse error with the checkpoint file it came from, so a
/// truncated or malformed partition file is diagnosable by name.
fn in_file(name: &str, e: PbgError) -> PbgError {
    match e {
        PbgError::Checkpoint(msg) => PbgError::Checkpoint(format!("{name}: {msg}")),
        other => other,
    }
}

/// Parsed common header of a supported format version: the payload
/// kind byte and the storage precision (always [`Precision::F32`] for
/// v2 files; carried in the formerly reserved u16 for v3).
pub(crate) struct BinHeader {
    pub kind: u8,
    pub precision: Precision,
}

pub(crate) fn read_header(data: &mut &[u8]) -> Result<BinHeader> {
    if data.remaining() < 8 {
        return Err(PbgError::Checkpoint("file truncated".into()));
    }
    let mut magic = [0u8; 4];
    data.copy_to_slice(&mut magic);
    if &magic != MAGIC {
        return Err(PbgError::Checkpoint("bad magic".into()));
    }
    let version = data.get_u8();
    if version != VERSION && version != VERSION_QUANT {
        return Err(PbgError::Checkpoint(format!(
            "unsupported version {version}"
        )));
    }
    let kind = data.get_u8();
    let reserved = data.get_u16();
    let precision = if version == VERSION_QUANT {
        u8::try_from(reserved)
            .ok()
            .and_then(Precision::from_tag)
            .ok_or_else(|| {
                PbgError::Checkpoint(format!("unknown precision tag {reserved} in v3 file"))
            })?
    } else {
        // v2 files predate the tag; the field was written as zero and
        // is deliberately ignored, matching the old readers
        Precision::F32
    };
    Ok(BinHeader { kind, precision })
}

/// Reads one little-endian f32. Caller has already bounds-checked 4
/// bytes.
fn get_f32_le(data: &mut &[u8]) -> f32 {
    let mut raw = [0u8; 4];
    data.copy_to_slice(&mut raw);
    f32::from_le_bytes(raw)
}

fn read_matrix(mut data: &[u8]) -> Result<Matrix> {
    let total = data.len();
    let header = read_header(&mut data)?;
    if header.kind != 0 {
        return Err(PbgError::Checkpoint("not a matrix payload".into()));
    }
    if data.remaining() < 16 {
        return Err(PbgError::Checkpoint("matrix header truncated".into()));
    }
    let rows = data.get_u64() as usize;
    let cols = data.get_u64() as usize;
    // checked: rows and cols come off the wire, so the payload size is
    // attacker-influenced and must not wrap past the bounds check; the
    // element width comes from the header so v3 shortfalls report the
    // true byte counts, not a 4-bytes-per-element guess
    let payload = header
        .precision
        .payload_bytes(rows, cols)
        .ok_or_else(|| PbgError::Checkpoint("matrix dimensions overflow".into()))?;
    if data.remaining() < payload {
        // shape mismatch, not a generic read error: the header promised
        // rows×cols but the file does not hold that many elements
        return Err(PbgError::Checkpoint(format!(
            "matrix shape {rows}x{cols} needs {} bytes, file has {total} \
             ({} payload bytes short)",
            MATRIX_PAYLOAD_OFFSET + payload,
            payload - data.remaining()
        )));
    }
    if header.precision != Precision::F32 {
        let values = quant::decode_rows(header.precision, &data[..payload], rows, cols)
            .map_err(PbgError::Checkpoint)?;
        return Ok(Matrix::from_vec(rows, cols, values));
    }
    let count = rows * cols;
    let mut values = Vec::with_capacity(count.min(data.remaining() / 4));
    for _ in 0..count {
        values.push(get_f32_le(&mut data));
    }
    Ok(Matrix::from_vec(rows, cols, values))
}

fn read_relations(mut data: &[u8]) -> Result<Vec<RelationSnapshot>> {
    let header = read_header(&mut data)?;
    if header.kind != 1 {
        return Err(PbgError::Checkpoint("not a relations payload".into()));
    }
    if data.remaining() < 8 {
        return Err(PbgError::Checkpoint("relations header truncated".into()));
    }
    let n = data.get_u64() as usize;
    // capacity capped by what the buffer could possibly hold (each entry
    // is at least 14 bytes): a forged count cannot drive allocation
    let mut out = Vec::with_capacity(n.min(data.remaining() / 14));
    for _ in 0..n {
        if data.remaining() < 13 {
            return Err(PbgError::Checkpoint("relation entry truncated".into()));
        }
        let op = op_from_code(data.get_u8())?;
        let weight = get_f32_le(&mut data);
        let flen = data.get_u64() as usize;
        let fbytes = flen
            .checked_mul(4)
            .and_then(|b| b.checked_add(1))
            .ok_or_else(|| PbgError::Checkpoint("relation param length overflow".into()))?;
        if data.remaining() < fbytes {
            return Err(PbgError::Checkpoint("relation params truncated".into()));
        }
        let forward: Vec<f32> = (0..flen).map(|_| get_f32_le(&mut data)).collect();
        let reciprocal = if data.get_u8() == 1 {
            if data.remaining() < 8 {
                return Err(PbgError::Checkpoint("reciprocal header truncated".into()));
            }
            let ilen = data.get_u64() as usize;
            let ibytes = ilen
                .checked_mul(4)
                .ok_or_else(|| PbgError::Checkpoint("reciprocal length overflow".into()))?;
            if data.remaining() < ibytes {
                return Err(PbgError::Checkpoint("reciprocal params truncated".into()));
            }
            Some((0..ilen).map(|_| get_f32_le(&mut data)).collect())
        } else {
            None
        };
        out.push(RelationSnapshot {
            op,
            weight,
            forward,
            reciprocal,
        });
    }
    Ok(out)
}

fn op_code(op: pbg_graph::schema::OperatorKind) -> u8 {
    use pbg_graph::schema::OperatorKind::*;
    match op {
        Identity => 0,
        Translation => 1,
        Diagonal => 2,
        Linear => 3,
        ComplexDiagonal => 4,
    }
}

fn op_from_code(code: u8) -> Result<pbg_graph::schema::OperatorKind> {
    use pbg_graph::schema::OperatorKind::*;
    Ok(match code {
        0 => Identity,
        1 => Translation,
        2 => Diagonal,
        3 => Linear,
        4 => ComplexDiagonal,
        other => {
            return Err(PbgError::Checkpoint(format!(
                "unknown operator code {other}"
            )))
        }
    })
}

/// Opens a checkpoint for serving: relation parameters and metadata on
/// the heap, embedding shards memory-mapped in place. Every shard is
/// verified against the manifest's size and checksum — the hash runs
/// over the mapped bytes, so validation never copies a shard to heap —
/// and every shape against the schema, exactly like [`load`].
///
/// # Errors
///
/// Returns [`PbgError::Checkpoint`] for corrupt, incomplete,
/// shape-inconsistent, or pre-v2 (big-endian) checkpoints, and
/// propagates I/O failures.
pub fn open_mmap(dir: impl AsRef<Path>) -> Result<crate::model::MmapEmbeddings> {
    let dir = dir.as_ref();
    let manifest = read_manifest(dir)?;
    let entry = |name: &str| -> Result<&ManifestFile> {
        manifest
            .files
            .iter()
            .find(|f| f.name == name)
            .ok_or_else(|| PbgError::Checkpoint(format!("{name} not listed in manifest")))
    };
    let small = |name: &str| -> Result<Vec<u8>> {
        let f = entry(name)?;
        let bytes = read_listed(dir, f)?;
        verify_against(f, &bytes)?;
        Ok(bytes)
    };
    let CheckpointMeta {
        dim,
        similarity,
        num_types,
    } = parse_meta(&small("meta.json")?)?;
    let schema = parse_schema(&small("schema.json")?)?;
    if num_types != schema.entity_types().len() {
        return Err(PbgError::Checkpoint(format!(
            "meta lists {num_types} entity types, schema has {}",
            schema.entity_types().len()
        )));
    }
    let mut shards = Vec::with_capacity(schema.entity_types().len());
    for (t, def) in schema.entity_types().iter().enumerate() {
        let name = format!("embeddings_{t}.bin");
        let f = entry(&name)?;
        if !dir.join(&name).exists() {
            return Err(PbgError::Checkpoint(format!(
                "{name} listed in manifest but missing"
            )));
        }
        let shard = crate::storage::MmapPartition::open(&dir.join(&name))?;
        verify_against(f, shard.file_bytes())?;
        if shard.cols() != dim {
            return Err(PbgError::Checkpoint(format!(
                "{name}: {} cols != dim {dim}",
                shard.cols()
            )));
        }
        if shard.rows() != def.num_entities() as usize {
            return Err(PbgError::Checkpoint(format!(
                "{name}: {} rows != {} entities in schema",
                shard.rows(),
                def.num_entities()
            )));
        }
        shards.push(shard);
    }
    let rel_bytes = small("relations.bin")?;
    let relations = read_relations(&rel_bytes).map_err(|e| in_file("relations.bin", e))?;
    if relations.len() != schema.num_relation_types() {
        return Err(PbgError::Checkpoint(format!(
            "relations.bin has {} relations, schema has {}",
            relations.len(),
            schema.num_relation_types()
        )));
    }
    Ok(crate::model::MmapEmbeddings {
        dim,
        similarity,
        schema,
        shards,
        relations,
    })
}

/// Saves a config alongside a checkpoint (convenience for experiment
/// harnesses; `pbg train --resume` picks it up). Written atomically like
/// every other checkpoint file, but outside the manifest: the config
/// describes the *run*, not the model state the manifest certifies.
///
/// # Errors
///
/// Propagates I/O failures.
pub fn save_config(config: &PbgConfig, dir: impl AsRef<Path>) -> Result<()> {
    std::fs::create_dir_all(dir.as_ref())?;
    write_atomic(
        &dir.as_ref().join("config.json"),
        config.to_json().as_bytes(),
    )
}

/// Loads a config saved by [`save_config`].
///
/// # Errors
///
/// Returns an error when the file is missing or invalid.
pub fn load_config(dir: impl AsRef<Path>) -> Result<PbgConfig> {
    PbgConfig::from_json(&std::fs::read_to_string(dir.as_ref().join("config.json"))?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{PbgConfig, SimilarityKind};
    use crate::model::Model;
    use crate::storage::InMemoryStore;
    use pbg_graph::schema::{EntityTypeDef, OperatorKind, RelationTypeDef};

    fn snapshot() -> TrainedEmbeddings {
        let schema = GraphSchema::builder()
            .entity_type(EntityTypeDef::new("a", 10).with_partitions(2))
            .entity_type(EntityTypeDef::new("b", 5))
            .relation_type(
                RelationTypeDef::new("r0", 0u32, 1u32).with_operator(OperatorKind::Translation),
            )
            .relation_type(
                RelationTypeDef::new("r1", 1u32, 0u32).with_operator(OperatorKind::Diagonal),
            )
            .build()
            .unwrap();
        let config = PbgConfig::builder()
            .dim(6)
            .batch_size(4)
            .chunk_size(2)
            .reciprocal_relations(true)
            .build()
            .unwrap();
        let model = Model::new(schema, config).unwrap();
        let store = InMemoryStore::new(model.store_layout());
        model.snapshot(&store)
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("pbg_ckpt_{name}_{}", std::process::id()))
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let snap = snapshot();
        let dir = tmp("roundtrip");
        save(&snap, &dir).unwrap();
        let back = load(&dir).unwrap();
        assert_eq!(back.dim, snap.dim);
        assert_eq!(back.schema, snap.schema);
        assert_eq!(back.embeddings.len(), 2);
        assert_eq!(back.embeddings[0], snap.embeddings[0]);
        assert_eq!(back.relations, snap.relations);
        assert!(back.relations[0].reciprocal.is_some());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn scores_identical_after_reload() {
        let snap = snapshot();
        let dir = tmp("scores");
        save(&snap, &dir).unwrap();
        let back = load(&dir).unwrap();
        for s in 0..10u32 {
            for d in 0..5u32 {
                let a = snap.score(s, pbg_graph::RelationTypeId(0), d);
                let b = back.score(s, pbg_graph::RelationTypeId(0), d);
                assert!((a - b).abs() < 1e-6);
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_checkpoint_rejected() {
        let dir = tmp("corrupt");
        let snap = snapshot();
        save(&snap, &dir).unwrap();
        std::fs::write(dir.join("relations.bin"), b"garbage!").unwrap();
        assert!(matches!(load(&dir), Err(PbgError::Checkpoint(_))));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_checkpoint_is_io_error() {
        let err = load(tmp("missing_nonexistent")).unwrap_err();
        assert!(matches!(err, PbgError::Io(_)));
    }

    #[test]
    fn missing_manifest_is_checkpoint_error() {
        let dir = tmp("no_manifest");
        let snap = snapshot();
        save(&snap, &dir).unwrap();
        std::fs::remove_file(dir.join(MANIFEST_NAME)).unwrap();
        assert!(matches!(load(&dir), Err(PbgError::Checkpoint(_))));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn manifest_records_progress_and_files() {
        let dir = tmp("progress");
        let snap = snapshot();
        save_with_progress(
            &snap,
            &dir,
            TrainProgress {
                epochs_done: 3,
                steps_done: 7,
            },
        )
        .unwrap();
        let manifest = read_manifest(&dir).unwrap();
        assert_eq!(manifest.version, MANIFEST_VERSION);
        assert_eq!(manifest.progress.epochs_done, 3);
        assert_eq!(manifest.progress.steps_done, 7);
        // meta + schema + 2 embedding files + relations
        assert_eq!(manifest.files.len(), 5);
        let (_, m) = load_with_manifest(&dir).unwrap();
        assert_eq!(m.progress.steps_done, 7);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn no_tmp_files_left_behind() {
        let dir = tmp("tmpclean");
        save(&snapshot(), &dir).unwrap();
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "temp files left: {leftovers:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stale_embedding_file_rejected() {
        // a checkpoint whose embeddings file disagrees with the schema's
        // entity count (e.g. left over from a save of a smaller graph)
        // must be refused even if internally well-formed
        let dir = tmp("stale");
        let snap = snapshot();
        save(&snap, &dir).unwrap();
        // forge embeddings_0.bin with the wrong row count but matching
        // checksum bookkeeping (re-point the manifest at the forged file)
        let mut buf = BytesMut::new();
        buf.put_slice(MAGIC);
        buf.put_u8(VERSION);
        buf.put_u8(0);
        buf.put_u16(0);
        buf.put_u64(3); // schema says 10 entities
        buf.put_u64(snap.dim as u64);
        for _ in 0..3 * snap.dim {
            buf.put_f32(0.5);
        }
        std::fs::write(dir.join("embeddings_0.bin"), &buf).unwrap();
        let mut manifest = read_manifest(&dir).unwrap();
        for f in &mut manifest.files {
            if f.name == "embeddings_0.bin" {
                f.bytes = buf.len() as u64;
                f.checksum = format!("{:016x}", checksum(&buf));
            }
        }
        std::fs::write(
            dir.join(MANIFEST_NAME),
            serde_json::to_string(&manifest).unwrap(),
        )
        .unwrap();
        match load(&dir) {
            Err(PbgError::Checkpoint(msg)) => assert!(msg.contains("rows"), "{msg}"),
            other => panic!("stale file accepted: {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wrong_dim_rejected() {
        let dir = tmp("wrongdim");
        let snap = snapshot();
        save(&snap, &dir).unwrap();
        // meta claiming a different dim must not load matrices of the old
        // dim; rewrite meta.json (and its manifest entry) with dim+1
        let meta = format!(
            "{{\"dim\": {}, \"similarity\": \"Dot\", \"num_entity_types\": 2}}",
            snap.dim + 1
        );
        std::fs::write(dir.join("meta.json"), &meta).unwrap();
        let mut manifest = read_manifest(&dir).unwrap();
        for f in &mut manifest.files {
            if f.name == "meta.json" {
                f.bytes = meta.len() as u64;
                f.checksum = format!("{:016x}", checksum(meta.as_bytes()));
            }
        }
        std::fs::write(
            dir.join(MANIFEST_NAME),
            serde_json::to_string(&manifest).unwrap(),
        )
        .unwrap();
        match load(&dir) {
            Err(PbgError::Checkpoint(msg)) => assert!(msg.contains("cols"), "{msg}"),
            other => panic!("dim mismatch accepted: {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    fn matrix_payload(rows: u64, cols: u64, floats: usize) -> Vec<u8> {
        let mut buf = BytesMut::new();
        buf.put_slice(MAGIC);
        buf.put_u8(VERSION);
        buf.put_u8(0);
        buf.put_u16(0);
        buf.put_u64(rows);
        buf.put_u64(cols);
        for _ in 0..floats {
            buf.put_f32(1.0);
        }
        buf.to_vec()
    }

    #[test]
    fn overflowing_matrix_dims_rejected() {
        // rows * cols * 4 wraps to something tiny on 64-bit if unchecked
        let huge = (u64::MAX / 2) + 1;
        let bytes = matrix_payload(huge, 8, 0);
        match read_matrix(&bytes) {
            Err(PbgError::Checkpoint(msg)) => assert!(msg.contains("overflow"), "{msg}"),
            other => panic!("overflow accepted: {other:?}"),
        }
    }

    #[test]
    fn oversized_matrix_count_rejected_without_allocating() {
        // a huge-but-not-overflowing count must fail the bounds check
        // before any proportional allocation
        let bytes = matrix_payload(1 << 40, 4, 2);
        assert!(matches!(read_matrix(&bytes), Err(PbgError::Checkpoint(_))));
    }

    #[test]
    fn forged_relation_count_rejected_without_allocating() {
        let mut buf = BytesMut::new();
        buf.put_slice(MAGIC);
        buf.put_u8(VERSION);
        buf.put_u8(1);
        buf.put_u16(0);
        buf.put_u64(u64::MAX); // count an attacker controls
        let bytes = buf.to_vec();
        assert!(matches!(
            read_relations(&bytes),
            Err(PbgError::Checkpoint(_))
        ));
    }

    #[test]
    fn forged_relation_param_length_rejected() {
        for flen in [u64::MAX, u64::MAX / 4, 1 << 40] {
            let mut buf = BytesMut::new();
            buf.put_slice(MAGIC);
            buf.put_u8(VERSION);
            buf.put_u8(1);
            buf.put_u16(0);
            buf.put_u64(1);
            buf.put_u8(1); // op: translation
            buf.put_f32(1.0);
            buf.put_u64(flen);
            let bytes = buf.to_vec();
            assert!(
                matches!(read_relations(&bytes), Err(PbgError::Checkpoint(_))),
                "flen {flen} accepted"
            );
        }
    }

    #[test]
    fn forged_reciprocal_length_rejected() {
        let mut buf = BytesMut::new();
        buf.put_slice(MAGIC);
        buf.put_u8(VERSION);
        buf.put_u8(1);
        buf.put_u16(0);
        buf.put_u64(1);
        buf.put_u8(0); // identity, zero forward params
        buf.put_f32(1.0);
        buf.put_u64(0);
        buf.put_u8(1); // claims a reciprocal follows
        buf.put_u64(u64::MAX / 4 + 1); // ilen * 4 overflows
        let bytes = buf.to_vec();
        match read_relations(&bytes) {
            Err(PbgError::Checkpoint(msg)) => assert!(msg.contains("overflow"), "{msg}"),
            other => panic!("reciprocal overflow accepted: {other:?}"),
        }
    }

    #[test]
    fn truncated_fields_rejected_at_each_boundary() {
        // progressively truncate a valid relations payload: every prefix
        // must be cleanly rejected, never OOB-read or mis-parsed
        let dir = tmp("trunc_fields");
        save(&snapshot(), &dir).unwrap();
        let full = std::fs::read(dir.join("relations.bin")).unwrap();
        for cut in 0..full.len() {
            let r = read_relations(&full[..cut]);
            assert!(
                matches!(r, Err(PbgError::Checkpoint(_))),
                "truncation at {cut} not rejected"
            );
        }
        assert!(read_relations(&full).is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncated_matrix_reports_shape_and_file() {
        // chop the float payload of a valid embeddings file: the error
        // must be a shape mismatch naming the file, not a generic read
        // failure — this is what an operator sees after a torn copy
        let dir = tmp("trunc_shape");
        save(&snapshot(), &dir).unwrap();
        let full = std::fs::read(dir.join("embeddings_0.bin")).unwrap();
        let cut = &full[..full.len() - 5];
        match read_matrix(cut) {
            Err(PbgError::Checkpoint(msg)) => {
                assert!(msg.contains("shape 10x6"), "{msg}");
                assert!(msg.contains("short"), "{msg}");
            }
            other => panic!("truncated matrix accepted: {other:?}"),
        }
        // through the manifest path the file name is prepended (the
        // manifest entry is re-pointed at the truncated bytes so the
        // size/checksum gate does not mask the parse error)
        std::fs::write(dir.join("embeddings_0.bin"), cut).unwrap();
        let mut manifest = read_manifest(&dir).unwrap();
        for f in &mut manifest.files {
            if f.name == "embeddings_0.bin" {
                f.bytes = cut.len() as u64;
                f.checksum = format!("{:016x}", checksum(cut));
            }
        }
        std::fs::write(
            dir.join(MANIFEST_NAME),
            serde_json::to_string(&manifest).unwrap(),
        )
        .unwrap();
        match load(&dir) {
            Err(PbgError::Checkpoint(msg)) => {
                assert!(msg.contains("embeddings_0.bin"), "{msg}");
                assert!(msg.contains("shape 10x6"), "{msg}");
            }
            other => panic!("truncated checkpoint accepted: {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mmap_rows_byte_identical_to_heap_load_on_preset_shapes() {
        // every dataset preset's schema shape (single-relation social
        // graphs, partitioned, multi-relation knowledge graphs with
        // complex/translation operators): the mapped rows must be
        // bit-identical to the heap loader's, and batched scores through
        // both models must agree to the bit
        let presets = [
            pbg_datagen::presets::livejournal_like(0.00001, 3),
            pbg_datagen::presets::twitter_like(0.000001, 3),
            pbg_datagen::presets::youtube_like(0.00001, 3),
            pbg_datagen::presets::fb15k_like(0.005, 3),
            pbg_datagen::presets::freebase_like(0.0000005, 3),
        ];
        for (i, d) in presets.iter().enumerate() {
            let schema = d.schema_with_partitions(2);
            let config = PbgConfig::builder()
                .dim(8)
                .batch_size(4)
                .chunk_size(2)
                .build()
                .unwrap();
            let model = Model::new(schema, config).unwrap();
            let store = InMemoryStore::new(model.store_layout());
            let snap = model.snapshot(&store);
            let dir = tmp(&format!("mmap_preset_{i}"));
            save(&snap, &dir).unwrap();
            let heap = load(&dir).unwrap();
            let served = open_mmap(&dir).unwrap();
            assert_eq!(served.dim, heap.dim, "{}", d.name);
            assert_eq!(served.relations, heap.relations, "{}", d.name);
            for (t, m) in heap.embeddings.iter().enumerate() {
                assert_eq!(served.shards[t].rows(), m.rows(), "{}", d.name);
                for r in 0..m.rows() {
                    let heap_bits: Vec<u32> = m.row(r).iter().map(|v| v.to_bits()).collect();
                    let map_bits: Vec<u32> = served.shards[t]
                        .row(r)
                        .iter()
                        .map(|v| v.to_bits())
                        .collect();
                    assert_eq!(heap_bits, map_bits, "{} type {t} row {r}", d.name);
                }
            }
            // bit-identical batched scores and serve-vs-offline argmax
            let rel = pbg_graph::RelationTypeId(0);
            let dst_type = heap.schema.relation_type(rel).dest_type().index();
            let n_dst = heap.schema.entity_types()[dst_type].num_entities() as u32;
            let all_dsts: Vec<u32> = (0..n_dst).collect();
            for src in [0u32, 1, 2] {
                let off = heap.score_against_destinations(src, rel, &all_dsts);
                let srv = served.score_against_destinations(src, rel, &all_dsts);
                let off_bits: Vec<u32> = off.iter().map(|v| v.to_bits()).collect();
                let srv_bits: Vec<u32> = srv.iter().map(|v| v.to_bits()).collect();
                assert_eq!(off_bits, srv_bits, "{} src {src}", d.name);
                let argmax = off
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.total_cmp(b.1).then(b.0.cmp(&a.0)))
                    .map(|(j, _)| j as u32)
                    .unwrap();
                let top = served.top_destinations(src, rel, 1);
                assert_eq!(top[0].0, argmax, "{} src {src}", d.name);
            }
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn heap_and_mmap_score_are_bit_identical_for_every_pair() {
        // offline `score` runs the same gathered path as the served one
        // and as a batched row, so one edge has one score everywhere
        for sim in [SimilarityKind::Dot, SimilarityKind::Cosine] {
            let mut snap = snapshot();
            snap.similarity = sim;
            let mut rng = pbg_tensor::rng::Xoshiro256::seed_from_u64(3);
            for r in &mut snap.relations {
                r.forward.iter_mut().for_each(|p| *p = rng.gen_normal());
            }
            let dir = tmp(&format!("score_pairs_{sim:?}"));
            save(&snap, &dir).unwrap();
            let heap = load(&dir).unwrap();
            let served = open_mmap(&dir).unwrap();
            for rel in (0..2).map(pbg_graph::RelationTypeId) {
                let rdef = heap.schema.relation_type(rel);
                let n_src = heap.schema.entity_type(rdef.source_type()).num_entities();
                let n_dst = heap.schema.entity_type(rdef.dest_type()).num_entities();
                let all_dsts: Vec<u32> = (0..n_dst).collect();
                for src in 0..n_src {
                    let row = heap.score_against_destinations(src, rel, &all_dsts);
                    for dst in 0..n_dst {
                        let h = heap.score(src, rel, dst).to_bits();
                        assert_eq!(
                            h,
                            served.score(src, rel, dst).to_bits(),
                            "{sim:?} {rel:?} ({src}, {dst})"
                        );
                        assert_eq!(
                            h,
                            row[dst as usize].to_bits(),
                            "{sim:?} {rel:?} ({src}, {dst})"
                        );
                    }
                }
            }
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn mmap_refuses_corrupted_checksum() {
        let dir = tmp("mmap_corrupt");
        save(&snapshot(), &dir).unwrap();
        // flip one payload byte without touching the manifest
        let mut bytes = std::fs::read(dir.join("embeddings_1.bin")).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        std::fs::write(dir.join("embeddings_1.bin"), &bytes).unwrap();
        match open_mmap(&dir) {
            Err(PbgError::Checkpoint(msg)) => {
                assert!(msg.contains("embeddings_1.bin"), "{msg}");
                assert!(msg.contains("checksum"), "{msg}");
            }
            other => panic!("corrupted shard accepted: {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mmap_refuses_v1_big_endian_shard() {
        // a v1 shard stores floats big-endian: reading it as v2 would
        // serve garbage, so both loaders must refuse it as an
        // unsupported version even when the manifest checks out
        let dir = tmp("mmap_v1");
        let snap = snapshot();
        save(&snap, &dir).unwrap();
        let mut buf = BytesMut::new();
        buf.put_slice(MAGIC);
        buf.put_u8(1);
        buf.put_u8(0);
        buf.put_u16(0);
        buf.put_u64(10);
        buf.put_u64(snap.dim as u64);
        for _ in 0..10 * snap.dim {
            buf.put_f32(0.5);
        }
        std::fs::write(dir.join("embeddings_0.bin"), &buf).unwrap();
        let mut manifest = read_manifest(&dir).unwrap();
        for f in &mut manifest.files {
            if f.name == "embeddings_0.bin" {
                f.bytes = buf.len() as u64;
                f.checksum = format!("{:016x}", checksum(&buf));
            }
        }
        std::fs::write(
            dir.join(MANIFEST_NAME),
            serde_json::to_string(&manifest).unwrap(),
        )
        .unwrap();
        for (loader, result) in [
            ("load", load(&dir).map(drop)),
            ("open_mmap", open_mmap(&dir).map(drop)),
        ] {
            match result {
                Err(PbgError::Checkpoint(msg)) => {
                    assert!(msg.contains("embeddings_0.bin"), "{loader}: {msg}");
                    assert!(msg.contains("unsupported version 1"), "{loader}: {msg}");
                }
                other => panic!("{loader} accepted a v1 shard: {other:?}"),
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checksum_is_stable() {
        assert_eq!(checksum(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(checksum(b"a"), checksum(b"b"));
    }

    #[test]
    fn config_roundtrip() {
        let dir = tmp("config");
        let config = PbgConfig::builder().dim(12).build().unwrap();
        save_config(&config, &dir).unwrap();
        assert_eq!(load_config(&dir).unwrap(), config);
        std::fs::remove_dir_all(&dir).ok();
    }
}
