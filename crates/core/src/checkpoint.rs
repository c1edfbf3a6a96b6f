//! Crash-consistent model checkpointing.
//!
//! "Model checkpoints are occasionally written to the shared filesystem
//! from the trainers" (Figure 2). A checkpoint directory holds the schema
//! and model metadata as JSON, one [`crate::shard`] per `(entity type,
//! partition)` — rows plus their Adagrad accumulators, the same bytes a
//! [`crate::storage::DiskStore`] swaps and `pbg serve` maps — and
//! `relations.bin`, a one-column shard of every relation's parameters
//! with their accumulators. A checkpoint therefore holds the whole
//! training state: a resumed run is the run it resumes.
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

use crate::config::{PbgConfig, SimilarityKind};
use crate::error::{PbgError, Result};
use crate::model::{MmapEmbeddings, Model, RelationSnapshot, TrainedEmbeddings};
use crate::shard::{self, Shard};
use crate::storage::{partition_keys, MmapPartition, PartitionKey, PartitionStore};
use pbg_graph::partition::EntityPartitioning;
use pbg_graph::schema::{GraphSchema, OperatorKind};
use pbg_tensor::quant::Precision;
use serde::{Deserialize, Serialize};
use std::io::Write;
use std::path::{Path, PathBuf};

pub use crate::shard::checksum;

/// Manifest schema version: 3 marks the per-partition shard layout.
/// Older manifests are refused ("re-save"), never upgraded.
pub const MANIFEST_VERSION: u32 = 3;
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
    /// [`checksum`] of the whole file, lowercase hex.
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

/// [`save_with_progress`] at a storage [`Precision`] for the embedding
/// rows (accumulators and relation parameters stay f32 — they are small,
/// and accumulators overflow f16 and collapse under int8).
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
    save_dense(model, dir.as_ref(), progress, precision, &mut AtomicIo)
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
    save_dense(model, dir.as_ref(), progress, Precision::F32, io)
}

/// A dense model carries no optimizer state, so its shards and
/// relations get the fresh-init accumulator value, 0.
fn save_dense(
    model: &TrainedEmbeddings,
    dir: &Path,
    progress: TrainProgress,
    precision: Precision,
    io: &mut dyn CheckpointIo,
) -> Result<()> {
    let relations = model.relations.iter().map(|r| {
        let len = r.forward.len() + r.reciprocal.as_ref().map_or(0, Vec::len);
        (r.clone(), vec![0.0; len])
    });
    let relations: SavedRelations = relations.collect();
    let types = model.schema.entity_types();
    let shard = |key: PartitionKey, rows: usize, out: &mut Vec<u8>| {
        let def = &types[key.entity_type.index()];
        let parts = EntityPartitioning::new(def.num_entities(), def.num_partitions());
        let table = &model.embeddings[key.entity_type.index()];
        let global = |i: usize| parts.global_of(key.partition, i as u32).index();
        let row = |i: usize, buf: &mut [f32]| buf.copy_from_slice(table.row(global(i)));
        shard::encode(precision, rows, model.dim, row, &vec![0.0; rows], out)
    };
    let meta = (model.dim, model.similarity);
    write_files(dir, io, meta, &relations, &model.schema, progress, shard).map(drop)
}

/// Writes a checkpoint of a live model straight from its partition
/// store, one partition at a time (load, encode, release) — no dense
/// copy of the model exists at any point. Embedding rows are stored at
/// the model's configured precision. Returns the bytes written.
///
/// # Errors
///
/// Propagates I/O failures.
pub fn save_store(
    model: &Model,
    store: &dyn PartitionStore,
    dir: impl AsRef<Path>,
    progress: TrainProgress,
) -> Result<u64> {
    let relations = model.relations().iter().map(|r| {
        let sides = std::iter::once(&r.forward).chain(&r.reciprocal);
        (
            r.snapshot(),
            sides.flat_map(|p| p.accumulator_snapshot()).collect(),
        )
    });
    let config = model.config();
    let relations: SavedRelations = relations.collect();
    let shard = |key: PartitionKey, _: usize, out: &mut Vec<u8>| {
        let data = store.load(key);
        let sum = shard::encode_partition(&data, config.precision, out);
        drop(data);
        store.release(key);
        sum
    };
    let (dir, meta) = (dir.as_ref(), (config.dim, config.similarity));
    write_files(
        dir,
        &mut AtomicIo,
        meta,
        &relations,
        model.schema(),
        progress,
        shard,
    )
}

/// `meta.json`: what the binary files hold.
#[derive(Debug, Serialize, Deserialize)]
struct Meta {
    dim: usize,
    similarity: SimilarityKind,
    num_entity_types: usize,
    /// Per relation, in order, the rows of `relations.bin` it owns.
    relations: Vec<RelationLayout>,
}

/// Relation parameters with their accumulators (forward, then
/// reciprocal): what `relations.bin` holds.
type SavedRelations = Vec<(RelationSnapshot, Vec<f32>)>;

/// One relation's entry in `meta.json`.
#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct RelationLayout {
    op: OperatorKind,
    weight: f32,
    forward: usize,
    reciprocal: Option<usize>,
}

impl RelationLayout {
    fn of(r: &RelationSnapshot) -> Self {
        RelationLayout {
            op: r.op,
            weight: r.weight,
            forward: r.forward.len(),
            reciprocal: r.reciprocal.as_ref().map(Vec::len),
        }
    }
}

/// Writes every checkpoint file through `io` — meta, schema, the shards
/// `shard(key, rows, buf)` encodes in layout order, relations — then the
/// manifest, whose atomic rename is the commit point. Returns the data
/// bytes written.
fn write_files(
    dir: &Path,
    io: &mut dyn CheckpointIo,
    (dim, similarity): (usize, SimilarityKind),
    relations: &SavedRelations,
    schema: &GraphSchema,
    progress: TrainProgress,
    mut shard: impl FnMut(PartitionKey, usize, &mut Vec<u8>) -> u64,
) -> Result<u64> {
    std::fs::create_dir_all(dir)?;
    let mut files: Vec<ManifestFile> = Vec::new();
    let mut put = |io: &mut dyn CheckpointIo, name: String, bytes: &[u8], sum: u64| {
        io.persist(&dir.join(&name), bytes)?;
        let (bytes, checksum) = (bytes.len() as u64, format!("{sum:016x}"));
        files.push(ManifestFile {
            name,
            bytes,
            checksum,
        });
        Result::Ok(())
    };
    let num_entity_types = schema.entity_types().len();
    let layout = relations
        .iter()
        .map(|(r, _)| RelationLayout::of(r))
        .collect();
    let meta = Meta {
        dim,
        similarity,
        num_entity_types,
        relations: layout,
    };
    let meta_json = serde_json::to_string_pretty(&meta).expect("meta serializes");
    let schema_json = serde_json::to_string_pretty(schema).expect("schema serializes");
    for (name, text) in [("meta.json", meta_json), ("schema.json", schema_json)] {
        put(io, name.into(), text.as_bytes(), checksum(text.as_bytes()))?;
    }
    let mut buf = Vec::new();
    for (key, rows) in partition_keys(schema) {
        let sum = shard(key, rows, &mut buf);
        put(io, shard::file_name(key), &buf, sum)?;
    }
    // every relation's forward then reciprocal parameters, one per row
    let (mut params, mut acc) = (Vec::new(), Vec::new());
    for (r, a) in relations {
        params.extend(r.forward.iter().chain(r.reciprocal.iter().flatten()));
        acc.extend(a);
    }
    let row = |i: usize, row: &mut [f32]| row[0] = params[i];
    let sum = shard::encode(Precision::F32, params.len(), 1, row, &acc, &mut buf);
    put(io, RELATIONS.into(), &buf, sum)?;
    let manifest = Manifest {
        version: MANIFEST_VERSION,
        progress,
        files,
    };
    let json = serde_json::to_string_pretty(&manifest).expect("manifest serializes");
    io.persist(&dir.join(MANIFEST_NAME), json.as_bytes())?;
    Ok(manifest.files.iter().map(|f| f.bytes).sum())
}

/// The relation parameters' shard.
const RELATIONS: &str = "relations.bin";

/// Reads and parses the manifest of the checkpoint at `dir`.
///
/// # Errors
///
/// Returns [`PbgError::Checkpoint`] when the manifest is missing from an
/// otherwise-present checkpoint (a torn save) or malformed, or records
/// an older format ("re-save"); a directory with no checkpoint at all
/// surfaces as [`PbgError::Io`].
pub fn read_manifest(dir: impl AsRef<Path>) -> Result<Manifest> {
    let dir = dir.as_ref();
    let text = match std::fs::read_to_string(dir.join(MANIFEST_NAME)) {
        Ok(text) => text,
        // distinguish "no checkpoint here" (plain I/O error) from "data
        // files without a manifest" (torn save: refuse)
        Err(e) if e.kind() == std::io::ErrorKind::NotFound && dir.join("meta.json").exists() => {
            return Err(bad("MANIFEST.json missing (incomplete save)".into()));
        }
        Err(e) => return Err(e.into()),
    };
    let manifest: Manifest =
        serde_json::from_str(&text).map_err(|e| bad(format!("bad {MANIFEST_NAME}: {e}")))?;
    if manifest.version != MANIFEST_VERSION {
        return Err(bad(format!(
            "unsupported checkpoint version {}; re-save",
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

/// Loads a checkpoint plus its manifest into a dense model, one shard at
/// a time. Accumulators are dropped: a dense model has none.
///
/// Every file listed in the manifest is verified against its recorded
/// size and checksum, and every shape against the schema — so stale
/// files left by an older save over the same directory are detected
/// instead of silently loaded.
///
/// # Errors
///
/// Returns [`PbgError::Checkpoint`] for corrupt, incomplete, or
/// shape-inconsistent checkpoints, and propagates I/O failures.
pub fn load_with_manifest(dir: impl AsRef<Path>) -> Result<(TrainedEmbeddings, Manifest)> {
    let reader = Reader::open(dir.as_ref())?;
    let dim = reader.meta.dim;
    let embeddings = crate::model::dense_tables(&reader.schema, dim, |key, rows| {
        Ok(reader.shard(&shard::file_name(key), rows, dim)?.embeddings)
    })?;
    let relations = reader.relations()?.into_iter().map(|(r, _)| r).collect();
    let similarity = reader.meta.similarity;
    let schema = reader.schema;
    let model = TrainedEmbeddings {
        dim,
        similarity,
        schema,
        embeddings,
        relations,
    };
    Ok((model, reader.manifest))
}

/// Writes the checkpoint at `dir` into a freshly built `model` and its
/// `store` — every partition's rows and Adagrad accumulators, every
/// relation's parameters and accumulators — one partition at a time,
/// and returns the progress it records. The inverse of [`save_store`].
///
/// # Errors
///
/// Returns [`PbgError::Checkpoint`] when the checkpoint is corrupt or
/// disagrees with the model's schema or shapes.
pub fn restore(
    dir: impl AsRef<Path>,
    model: &Model,
    store: &dyn PartitionStore,
) -> Result<TrainProgress> {
    let reader = Reader::open(dir.as_ref())?;
    let live = model.relations();
    let layout: Vec<_> = live
        .iter()
        .map(|r| RelationLayout::of(&r.snapshot()))
        .collect();
    let fits = reader.schema == *model.schema() && reader.meta.dim == model.config().dim;
    if !fits || reader.meta.relations != layout {
        return Err(bad(
            "checkpoint schema, dim or relations do not match the model".into(),
        ));
    }
    for (live, (saved, acc)) in live.iter().zip(reader.relations()?) {
        let (forward_acc, reciprocal_acc) = acc.split_at(saved.forward.len());
        live.forward.restore(&saved.forward, forward_acc);
        if let (Some(live), Some(params)) = (&live.reciprocal, &saved.reciprocal) {
            live.restore(params, reciprocal_acc);
        }
    }
    for &(key, rows) in model.store_layout().keys() {
        let shard = reader.shard(&shard::file_name(key), rows, reader.meta.dim)?;
        let data = store.load(key);
        data.embeddings.copy_from_slice(&shard.embeddings);
        data.adagrad.restore(&shard.accumulators);
        drop(data);
        store.mark_dirty(key);
        store.release(key);
    }
    Ok(reader.manifest.progress)
}

/// Opens a checkpoint for serving: relation parameters and metadata on
/// the heap, partition shards memory-mapped in place. Every shard's
/// checksum is verified over the mapped bytes — never copied to heap —
/// against its trailer and the manifest, and every shape against the
/// schema, exactly like [`load`].
///
/// # Errors
///
/// Returns [`PbgError::Checkpoint`] for corrupt, incomplete,
/// shape-inconsistent, or older-format checkpoints, and propagates I/O
/// failures.
pub fn open_mmap(dir: impl AsRef<Path>) -> Result<MmapEmbeddings> {
    let reader = Reader::open(dir.as_ref())?;
    let mut shards = Vec::new();
    for (key, rows) in partition_keys(&reader.schema) {
        let name = shard::file_name(key);
        let f = entry(&reader.manifest, &name)?;
        let path = reader.dir.join(&name);
        if !path.exists() {
            return Err(missing(&name));
        }
        let (shard, sum) = MmapPartition::open(&path)?;
        verify_against(f, shard.mapped_bytes(), sum)?;
        check_shape(&name, (shard.rows(), shard.cols()), (rows, reader.meta.dim))?;
        shards.push(shard);
    }
    let relations = reader.relations()?.into_iter().map(|(r, _)| r).collect();
    let Reader { meta, schema, .. } = reader;
    Ok(MmapEmbeddings {
        dim: meta.dim,
        similarity: meta.similarity,
        schema,
        shards,
        relations,
    })
}

/// An opened checkpoint: manifest, meta and schema read and verified;
/// every further file is checked against the manifest as it is read.
struct Reader {
    dir: PathBuf,
    manifest: Manifest,
    meta: Meta,
    schema: GraphSchema,
}

impl Reader {
    fn open(dir: &Path) -> Result<Reader> {
        let manifest = read_manifest(dir)?;
        let json = |name: &str| -> Result<String> {
            let (f, bytes) = read_sized(dir, &manifest, name)?;
            verify_against(f, bytes.len(), checksum(&bytes))?;
            String::from_utf8(bytes).map_err(|e| bad(format!("bad {name}: {e}")))
        };
        let meta: Meta = serde_json::from_str(&json("meta.json")?)
            .map_err(|e| bad(format!("bad meta.json: {e}")))?;
        let schema: GraphSchema = serde_json::from_str(&json("schema.json")?)
            .map_err(|e| bad(format!("bad schema.json: {e}")))?;
        let types = schema.entity_types().len();
        let relations = schema.num_relation_types();
        if (meta.num_entity_types, meta.relations.len()) != (types, relations) {
            return Err(bad(format!(
                "meta lists {} entity types and {} relations, schema has {types} and {relations}",
                meta.num_entity_types,
                meta.relations.len()
            )));
        }
        let dir = dir.to_path_buf();
        Ok(Reader {
            dir,
            manifest,
            meta,
            schema,
        })
    }

    /// Decodes shard `name` (checksummed in the decoding pass) and checks
    /// it against the manifest and the `rows × cols` it must hold.
    fn shard(&self, name: &str, rows: usize, cols: usize) -> Result<Shard> {
        let (f, bytes) = read_sized(&self.dir, &self.manifest, name)?;
        let shard = shard::decode(&bytes).map_err(|e| in_file(name, e))?;
        verify_against(f, bytes.len(), shard.file_checksum)?;
        check_shape(name, (shard.header.rows, shard.header.cols), (rows, cols))?;
        Ok(shard)
    }

    /// Every relation's parameters and accumulators, split out of
    /// `relations.bin` by the layout in `meta.json`.
    fn relations(&self) -> Result<SavedRelations> {
        let layout = &self.meta.relations;
        let rows = layout.iter().try_fold(0usize, |n, l| {
            n.checked_add(l.forward)?
                .checked_add(l.reciprocal.unwrap_or(0))
        });
        let rows =
            rows.ok_or_else(|| bad("meta.json: relation parameter count overflows".into()))?;
        let shard = self.shard(RELATIONS, rows, 1)?;
        let mut at = 0;
        let mut take = |n: usize| {
            at += n;
            at - n..at
        };
        let split = |l: &RelationLayout| {
            let (forward, reciprocal) = (take(l.forward), l.reciprocal.map(&mut take));
            let acc = forward.start..reciprocal.as_ref().map_or(forward.end, |r| r.end);
            let params = |r: std::ops::Range<usize>| shard.embeddings[r].to_vec();
            let (op, weight) = (l.op, l.weight);
            let snap = RelationSnapshot {
                op,
                weight,
                forward: params(forward),
                reciprocal: reciprocal.map(params),
            };
            (snap, shard.accumulators[acc].to_vec())
        };
        Ok(layout.iter().map(split).collect())
    }
}

fn bad(msg: String) -> PbgError {
    PbgError::Checkpoint(msg)
}

fn missing(name: &str) -> PbgError {
    bad(format!("{name} listed in manifest but missing"))
}

fn entry<'a>(manifest: &'a Manifest, name: &str) -> Result<&'a ManifestFile> {
    let mut files = manifest.files.iter();
    files
        .find(|f| f.name == name)
        .ok_or_else(|| bad(format!("{name} not listed in manifest")))
}

/// Reads a listed file, failing cheaply on a size mismatch before the
/// content is hashed or parsed.
fn read_sized<'a>(
    dir: &Path,
    manifest: &'a Manifest,
    name: &str,
) -> Result<(&'a ManifestFile, Vec<u8>)> {
    let f = entry(manifest, name)?;
    let bytes = match std::fs::read(dir.join(name)) {
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Err(missing(name)),
        read => read?,
    };
    verify_against(f, bytes.len(), None)?;
    Ok((f, bytes))
}

/// Checks a file's size — and, when given, its whole-file checksum —
/// against its manifest entry.
fn verify_against(f: &ManifestFile, len: usize, sum: impl Into<Option<u64>>) -> Result<()> {
    if len as u64 != f.bytes {
        return Err(bad(format!(
            "{}: size {len} != manifest {}",
            f.name, f.bytes
        )));
    }
    match sum.into().map(|sum| format!("{sum:016x}")) {
        Some(sum) if sum != f.checksum => Err(bad(format!(
            "{}: checksum {sum} != manifest {}",
            f.name, f.checksum
        ))),
        _ => Ok(()),
    }
}

/// Stale-file guard: a shard's shape must match what the schema says
/// this checkpoint holds, not whatever an older save left behind.
fn check_shape(name: &str, (rows, cols): (usize, usize), want: (usize, usize)) -> Result<()> {
    if cols != want.1 {
        return Err(bad(format!("{name}: {cols} cols != dim {}", want.1)));
    }
    if rows != want.0 {
        return Err(bad(format!("{name}: {rows} rows != {} expected", want.0)));
    }
    Ok(())
}

/// Prefixes a parse error with the checkpoint file it came from, so a
/// truncated or malformed partition file is diagnosable by name.
pub(crate) fn in_file(name: &str, e: PbgError) -> PbgError {
    match e {
        PbgError::Checkpoint(msg) => PbgError::Checkpoint(format!("{name}: {msg}")),
        other => other,
    }
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
    use crate::model::Embeddings;
    use crate::storage::InMemoryStore;
    use pbg_graph::schema::{EntityTypeDef, RelationTypeDef};
    use pbg_graph::RelationTypeId;

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

    /// Rewrites `name` with `bytes` and re-points its manifest entry at
    /// them, so only what the file *says* can be refused.
    fn forge(dir: &Path, name: &str, bytes: &[u8]) {
        std::fs::write(dir.join(name), bytes).unwrap();
        let mut manifest = read_manifest(dir).unwrap();
        for f in manifest.files.iter_mut().filter(|f| f.name == name) {
            f.bytes = bytes.len() as u64;
            f.checksum = format!("{:016x}", checksum(bytes));
        }
        std::fs::write(
            dir.join(MANIFEST_NAME),
            serde_json::to_string(&manifest).unwrap(),
        )
        .unwrap();
    }

    /// A well-formed shard of `rows × cols` zeros.
    fn shard_bytes(rows: usize, cols: usize) -> Vec<u8> {
        let mut out = Vec::new();
        shard::encode(
            Precision::F32,
            rows,
            cols,
            |_, _| {},
            &vec![0.0; rows],
            &mut out,
        );
        out
    }

    fn error_of<T: std::fmt::Debug>(result: Result<T>) -> String {
        match result {
            Err(PbgError::Checkpoint(msg)) => msg,
            other => panic!("accepted: {other:?}"),
        }
    }

    /// `et0_p0.shard` of the test schema: type `a`, 5 of its 10 rows.
    const SHARD: &str = "et0_p0.shard";

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
        assert_eq!(back.embeddings[1], snap.embeddings[1]);
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
        // meta + schema + one shard per (type, partition) + relations
        let names: Vec<&str> = manifest.files.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "meta.json",
                "schema.json",
                SHARD,
                "et0_p1.shard",
                "et1_p0.shard",
                "relations.bin"
            ]
        );
        let (_, m) = load_with_manifest(&dir).unwrap();
        assert_eq!(m.progress.steps_done, 7);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn older_manifest_versions_are_refused_with_re_save() {
        let dir = tmp("old_manifest");
        save(&snapshot(), &dir).unwrap();
        let text = std::fs::read_to_string(dir.join(MANIFEST_NAME)).unwrap();
        let old = text.replace(
            &format!("\"version\": {MANIFEST_VERSION}"),
            "\"version\": 2",
        );
        assert_ne!(old, text);
        std::fs::write(dir.join(MANIFEST_NAME), old).unwrap();
        for result in [load(&dir).map(drop), open_mmap(&dir).map(drop)] {
            let msg = error_of(result);
            assert!(
                msg.contains("unsupported checkpoint version 2; re-save"),
                "{msg}"
            );
        }
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
        // a well-formed shard whose row count disagrees with the schema
        // (e.g. left over from a save of a smaller graph) is refused even
        // with its manifest entry re-pointed at it
        let dir = tmp("stale");
        let snap = snapshot();
        save(&snap, &dir).unwrap();
        forge(&dir, SHARD, &shard_bytes(3, snap.dim));
        let msg = error_of(load(&dir));
        assert!(msg.contains(SHARD) && msg.contains("rows"), "{msg}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wrong_dim_rejected() {
        // meta claiming a different dim must not load shards of the old
        // dim
        let dir = forged_meta("wrongdim", "\"dim\": 6", "\"dim\": 7");
        assert!(error_of(load(&dir)).contains("cols"));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Runs the one shard decoder over forged bytes.
    fn decoded(bytes: &[u8]) -> String {
        error_of(shard::decode(bytes))
    }

    fn forged_header(rows: u64, cols: u64) -> Vec<u8> {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(shard::MAGIC);
        bytes.extend_from_slice(&[shard::VERSION, Precision::F32.tag(), 0, 0]);
        bytes.extend_from_slice(&rows.to_le_bytes());
        bytes.extend_from_slice(&cols.to_le_bytes());
        bytes
    }

    #[test]
    fn overflowing_matrix_dims_rejected() {
        // rows * cols * 4 wraps to something tiny on 64-bit if unchecked
        let msg = decoded(&forged_header(u64::MAX / 2 + 1, 8));
        assert!(msg.contains("overflow"), "{msg}");
    }

    #[test]
    fn oversized_matrix_count_rejected_without_allocating() {
        // a huge-but-not-overflowing count must fail the length check
        // before any proportional allocation
        let mut bytes = forged_header(1 << 40, 4);
        bytes.resize(bytes.len() + 40, 0);
        assert!(decoded(&bytes).contains("short"));
    }

    /// Saves the test model and rewrites `meta.json` with `from`
    /// replaced by `to` once.
    fn forged_meta(name: &str, from: &str, to: &str) -> std::path::PathBuf {
        let dir = tmp(name);
        save(&snapshot(), &dir).unwrap();
        let meta = std::fs::read_to_string(dir.join("meta.json")).unwrap();
        assert!(meta.contains(from), "{meta}");
        forge(&dir, "meta.json", meta.replacen(from, to, 1).as_bytes());
        dir
    }

    #[test]
    fn forged_relation_count_rejected_without_allocating() {
        // a relation count the schema does not have
        let entry = r#"{"op": "Identity", "weight": 1.0, "forward": 0, "reciprocal": null}, "#;
        let dir = forged_meta(
            "rel_count",
            "\"relations\": [",
            &format!("\"relations\": [{entry}"),
        );
        assert!(error_of(load(&dir)).contains("3 relations"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn forged_relation_param_length_rejected() {
        // lengths an attacker controls are checked against the shard's
        // own (file-bounded) row count before anything is split out
        for flen in [u64::MAX, u64::MAX / 4, 1 << 40] {
            let forged = format!("\"forward\": {flen}");
            let dir = forged_meta("rel_len", "\"forward\": 6", &forged);
            assert!(
                error_of(load(&dir)).contains("relation"),
                "flen {flen} accepted"
            );
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn forged_reciprocal_length_rejected() {
        let forged = format!("\"reciprocal\": {}", u64::MAX);
        let dir = forged_meta("rel_recip", "\"reciprocal\": 6", &forged);
        assert!(error_of(load(&dir)).contains("overflow"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncated_fields_rejected_at_each_boundary() {
        // progressively truncate the relations shard and a partition
        // shard: every prefix must be cleanly rejected, never OOB-read or
        // mis-parsed
        let dir = tmp("trunc_fields");
        save(&snapshot(), &dir).unwrap();
        for name in [RELATIONS, SHARD] {
            let full = std::fs::read(dir.join(name)).unwrap();
            for cut in 0..full.len() {
                assert!(shard::decode(&full[..cut]).is_err(), "{name} cut at {cut}");
            }
            assert!(shard::decode(&full).is_ok());
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncated_matrix_reports_shape_and_file() {
        // chop the row block of a valid shard: the error must be a shape
        // mismatch naming the file, not a generic read failure — this is
        // what an operator sees after a torn copy
        let dir = tmp("trunc_shape");
        save(&snapshot(), &dir).unwrap();
        let full = std::fs::read(dir.join(SHARD)).unwrap();
        let cut = &full[..full.len() - 5];
        let msg = decoded(cut);
        assert!(msg.contains("shape 5x6") && msg.contains("short"), "{msg}");
        // through the manifest path the file name is prepended (the
        // manifest entry is re-pointed at the truncated bytes so the
        // size/checksum gate does not mask the parse error)
        forge(&dir, SHARD, cut);
        for result in [load(&dir).map(drop), open_mmap(&dir).map(drop)] {
            let msg = error_of(result);
            assert!(msg.contains(SHARD) && msg.contains("shape 5x6"), "{msg}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn dense_save_writes_fresh_accumulators_and_restore_installs_them() {
        let snap = snapshot();
        let dir = tmp("restore");
        save(&snap, &dir).unwrap();
        let model = Model::new(snap.schema.clone(), {
            PbgConfig::builder()
                .dim(6)
                .batch_size(4)
                .chunk_size(2)
                .reciprocal_relations(true)
                .build()
                .unwrap()
        })
        .unwrap();
        let store = InMemoryStore::new(model.store_layout());
        // dirty the live accumulators: restore must overwrite them
        let key = PartitionKey::new(0u32, 1u32);
        let _ = store.load(key).adagrad.step_size(0, &[1.0; 6]);
        model
            .relation(RelationTypeId(0))
            .forward
            .apply_grad(&[1.0; 6]);
        assert_eq!(
            restore(&dir, &model, &store).unwrap(),
            TrainProgress::default()
        );
        assert!(store.load(key).adagrad.to_vec().iter().all(|&a| a == 0.0));
        let rel = model.relation(RelationTypeId(0));
        assert!(rel.forward.accumulator_snapshot().iter().all(|&a| a == 0.0));
        let back = model.snapshot(&store);
        assert_eq!(back.embeddings, snap.embeddings);
        assert_eq!(back.relations, snap.relations);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Type `a` (10 rows) split `p` ways and type `b` (5 rows) whole,
    /// with random relation parameters: `r0` a→b translation with
    /// reciprocal parameters, `r1` b→a diagonal without them, and `r2`
    /// a→a identity, whose top destinations are `a`'s nearest entities.
    /// Rows 2..=7 of `a` tie, so at `p > 1` the tie straddles shards.
    fn split_snapshot(p: u32, similarity: SimilarityKind) -> TrainedEmbeddings {
        let schema = GraphSchema::builder()
            .entity_type(EntityTypeDef::new("a", 10).with_partitions(p))
            .entity_type(EntityTypeDef::new("b", 5))
            .relation_type(
                RelationTypeDef::new("r0", 0u32, 1u32).with_operator(OperatorKind::Translation),
            )
            .relation_type(
                RelationTypeDef::new("r1", 1u32, 0u32).with_operator(OperatorKind::Diagonal),
            )
            .relation_type(RelationTypeDef::new("r2", 0u32, 0u32))
            .build()
            .unwrap();
        let config = PbgConfig::builder()
            .dim(6)
            .batch_size(4)
            .chunk_size(2)
            .similarity(similarity)
            .reciprocal_relations(true)
            .build()
            .unwrap();
        let model = Model::new(schema, config).unwrap();
        let mut snap = model.snapshot(&InMemoryStore::new(model.store_layout()));
        let mut rng = pbg_tensor::rng::Xoshiro256::seed_from_u64(3);
        for r in &mut snap.relations {
            r.forward.iter_mut().for_each(|p| *p = rng.gen_normal());
        }
        snap.relations[1].reciprocal = None;
        let tied = snap.embeddings[0].row(2).to_vec();
        for id in 3..=7 {
            snap.embeddings[0].row_mut(id).copy_from_slice(&tied);
        }
        snap
    }

    fn bits(scores: &[f32]) -> Vec<u32> {
        scores.iter().map(|s| s.to_bits()).collect()
    }

    fn ranked(top: &[(u32, f32)]) -> Vec<(u32, u32)> {
        top.iter().map(|&(id, s)| (id, s.to_bits())).collect()
    }

    /// `ids` ranked by `scores` the way a top-k must: score descending,
    /// ties to the lower id.
    fn sorted_by_score(scores: &[f32], ids: impl Iterator<Item = u32>) -> Vec<(u32, u32)> {
        let mut all: Vec<(u32, f32)> = ids.map(|id| (id, scores[id as usize])).collect();
        all.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        ranked(&all)
    }

    #[test]
    fn mmap_rows_byte_identical_to_heap_load_on_preset_shapes() {
        // every dataset preset's schema shape (single-relation social
        // graphs, multi-relation knowledge graphs with complex/translation
        // operators) at P = 3, so global id i lives at row i / 3 of shard
        // i % 3: the mapped rows must be bit-identical to the heap
        // loader's, and batched scores through both models must agree to
        // the bit
        let presets = [
            pbg_datagen::presets::livejournal_like(0.00001, 3),
            pbg_datagen::presets::twitter_like(0.000001, 3),
            pbg_datagen::presets::youtube_like(0.00001, 3),
            pbg_datagen::presets::fb15k_like(0.005, 3),
            pbg_datagen::presets::freebase_like(0.0000005, 3),
        ];
        for (i, d) in presets.iter().enumerate() {
            let schema = d.schema_with_partitions(3);
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
            assert_eq!(served.shards.len(), model.store_layout().keys().len());
            for (t, m) in heap.embeddings.iter().enumerate() {
                for r in 0..m.rows() {
                    let heap_bits = bits(m.row(r));
                    let map_bits = bits(&served.embedding(t, r as u32));
                    assert_eq!(heap_bits, map_bits, "{} type {t} row {r}", d.name);
                }
            }
            // bit-identical batched scores and serve-vs-offline argmax
            let rel = RelationTypeId(0);
            let dst_type = heap.schema.relation_type(rel).dest_type().index();
            let n_dst = heap.schema.entity_types()[dst_type].num_entities() as u32;
            let all_dsts: Vec<u32> = (0..n_dst).collect();
            for src in [0u32, 1, 2] {
                let off = heap.score_against_destinations(src, rel, &all_dsts);
                let srv = served.score_against_destinations(src, rel, &all_dsts);
                assert_eq!(bits(&off), bits(&srv), "{} src {src}", d.name);
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
        // every read query, asked of the heap load and of the mapped
        // checkpoint — f32 rows served in place, f16/int8 rows decoded,
        // against the decoded heap load — at P ∈ {1, 2, 3}, where global
        // id i lives at row i / P of shard i % P: one edge has one score
        // everywhere, and every top-k is the sort of the full scores
        let precisions = [Precision::F32, Precision::F16, Precision::Int8];
        let sims = [SimilarityKind::Dot, SimilarityKind::Cosine];
        for p in 1..=3 {
            for (sim, precision) in sims.into_iter().flat_map(|s| precisions.map(|q| (s, q))) {
                let case = format!("P={p} {sim:?} {precision}");
                let dir = tmp(&format!("every_query_{p}_{sim:?}_{precision}"));
                let snap = split_snapshot(p, sim);
                save_with_precision(&snap, &dir, TrainProgress::default(), precision).unwrap();
                let heap = load(&dir).unwrap();
                let served = open_mmap(&dir).unwrap();
                assert_eq!(served.shards.len(), partition_keys(&heap.schema).len());
                assert_same_answers(&heap, &served, &case);
                std::fs::remove_dir_all(&dir).ok();
            }
        }
    }

    fn assert_same_answers(heap: &TrainedEmbeddings, served: &MmapEmbeddings, case: &str) {
        let count = |t: pbg_graph::EntityTypeId| heap.schema.entity_type(t).num_entities();
        for (t, def) in heap.schema.entity_types().iter().enumerate() {
            for id in 0..def.num_entities() {
                let (h, m) = (heap.embedding(t, id), served.embedding(t, id));
                assert_eq!(bits(&h), bits(&m), "{case} type {t} row {id}");
            }
        }
        for rel in (0..3).map(RelationTypeId) {
            let rdef = heap.schema.relation_type(rel);
            let (n_src, n_dst) = (count(rdef.source_type()), count(rdef.dest_type()));
            let all_src: Vec<u32> = (0..n_src).collect();
            let all_dst: Vec<u32> = (0..n_dst).collect();
            for src in 0..n_src {
                let row = heap.score_against_destinations(src, rel, &all_dst);
                let served_row = served.score_against_destinations(src, rel, &all_dst);
                assert_eq!(bits(&row), bits(&served_row), "{case} {rel:?} src {src}");
                for dst in 0..n_dst {
                    let want = row[dst as usize].to_bits();
                    assert_eq!(heap.score(src, rel, dst).to_bits(), want, "{case} {rel:?}");
                    assert_eq!(
                        served.score(src, rel, dst).to_bits(),
                        want,
                        "{case} {rel:?}"
                    );
                }
                let top = heap.top_destinations(src, rel, n_dst as usize);
                let want = sorted_by_score(&row, 0..n_dst);
                assert_eq!(ranked(&top), want, "{case} {rel:?} top-k of {src}");
                let served_top = served.top_destinations(src, rel, n_dst as usize);
                assert_eq!(
                    ranked(&served_top),
                    want,
                    "{case} {rel:?} served top-k of {src}"
                );
            }
            for dst in 0..n_dst {
                let col = heap.score_against_sources(dst, rel, &all_src);
                let served_col = served.score_against_sources(dst, rel, &all_src);
                assert_eq!(bits(&col), bits(&served_col), "{case} {rel:?} dst {dst}");
            }
        }
        // `a`'s nearest entities rank like r2's (identity) destinations,
        // less the query entity itself
        let n = count(pbg_graph::EntityTypeId(0));
        let all: Vec<u32> = (0..n).collect();
        for e in 0..n {
            let row = heap.score_against_destinations(e, RelationTypeId(2), &all);
            let want = sorted_by_score(&row, (0..n).filter(|&id| id != e));
            let near = heap.nearest_entities(0, e, n as usize);
            assert_eq!(ranked(&near), want, "{case} nearest of {e}");
            let served_near = served.nearest_entities(0, e, n as usize);
            assert_eq!(ranked(&served_near), want, "{case} served nearest of {e}");
        }
    }

    #[test]
    fn mmap_refuses_corrupted_checksum() {
        let dir = tmp("mmap_corrupt");
        save(&snapshot(), &dir).unwrap();
        // flip one row byte without touching the manifest
        let name = "et1_p0.shard";
        let mut bytes = std::fs::read(dir.join(name)).unwrap();
        bytes[shard::HEADER_BYTES] ^= 0x40;
        std::fs::write(dir.join(name), &bytes).unwrap();
        let msg = error_of(open_mmap(&dir));
        assert!(msg.contains(name) && msg.contains("checksum"), "{msg}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mmap_refuses_v1_big_endian_shard() {
        // shards of older formats (v1 big-endian floats, v2/v3 per-type
        // files) would serve garbage, so both loaders refuse them as an
        // unsupported version even when the manifest checks out
        let dir = tmp("mmap_v1");
        save(&snapshot(), &dir).unwrap();
        let current = std::fs::read(dir.join(SHARD)).unwrap();
        for version in 1..shard::VERSION {
            let mut old = current.clone();
            old[4] = version;
            forge(&dir, SHARD, &old);
            for (loader, result) in [
                ("load", load(&dir).map(drop)),
                ("open_mmap", open_mmap(&dir).map(drop)),
            ] {
                let msg = error_of(result);
                let want = format!("unsupported checkpoint version {version}; re-save");
                assert!(
                    msg.contains(SHARD) && msg.contains(&want),
                    "{loader}: {msg}"
                );
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checksum_is_stable() {
        assert_eq!(checksum(b""), 0x872F_AE7B_0C21_86A7);
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
