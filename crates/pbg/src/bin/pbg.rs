//! `pbg` — command-line interface to the PBG reproduction.
//!
//! ```text
//! pbg train     --edges E [--format tsv|snap] [--config C.json]
//!               [--partitions P] [--disk DIR] --output CKPT
//!               [--buffer-size B] [--bucket-ordering O] [--threads T]
//!               [--precision f32|f16|int8] [--pin-cores]
//!               [--checkpoint-every N] [--resume DIR]
//!               [--inject-crash-after N]
//!               [--telemetry TRACE.jsonl] [--metrics-addr HOST:PORT]
//!               [--log-format json|pretty]
//! pbg serve     --role lock|partition|param --listen HOST:PORT
//!               --edges E [--format tsv|snap] [--config C.json]
//!               [--partitions P] [--shards N] [--lease-ms MS]
//!               [--telemetry TRACE.jsonl] [--metrics-addr HOST:PORT]
//! pbg serve     --role embed --model CKPT [--listen HOST:PORT]
//!               [--rate-limit RPS] [--rate-burst N]
//!               [--request-log LOG.jsonl]
//! pbg train     --edges E --cluster lock=H:P,part=H:P,param=H:P
//!               --rank R [--sync-throttle-ms MS] [--output CKPT] ...
//! pbg eval      --checkpoint CKPT --test E [--train E]
//!               [--candidates N] [--filtered] [--prevalence]
//! pbg neighbors --checkpoint CKPT --entity ID [--relation R] [--k K]
//! pbg trace     summarize TRACE.jsonl...
//! pbg trace     export [--format perfetto] [--output F] TRACE.jsonl...
//! pbg metrics   lint METRICS.txt
//! ```
//!
//! Edge files are tab-separated `src\trel\tdst[\tweight]` (`--format tsv`,
//! default) or SNAP two-column lists (`--format snap`). Training without
//! `--config` uses the paper's defaults (d=100, margin ranking, batched
//! negatives). `--precision f16|int8` stores embedding bytes quantized —
//! checkpoints, disk swap files, and cluster wire chunks shrink 2–4× —
//! while training compute and Adagrad state stay f32. `--telemetry` enables span tracing and writes the run's
//! event trace as JSONL; `pbg trace summarize` renders it as a per-bucket
//! timeline (compute / sampling / optimizer / swap-wait / prefetch) and
//! accepts several rank-tagged files at once (spans merge by rank).
//! `pbg trace export` merges the same files into one Chrome/Perfetto
//! trace-event JSON — open it at <https://ui.perfetto.dev> for a per-rank
//! timeline with cross-rank RPC arrows.
//!
//! `--metrics-addr` starts a live Prometheus text-exposition server on
//! any training or serving process: `curl HOST:PORT/metrics` mid-run for
//! counters/gauges/histograms (edges/sec, MFLOP/s, buffer hit ratio),
//! `HOST:PORT/report` for a human-readable snapshot with p50/p95/p99.
//! `pbg metrics lint` validates scraped exposition text (used by CI).
//!
//! `--checkpoint-every N` writes a crash-consistent checkpoint to the
//! output directory after every `N` trained buckets; an interrupted run
//! restarts from the last one with `--resume DIR`, skipping the buckets
//! the manifest records as already trained. `--inject-crash-after N`
//! simulates a mid-run crash after `N` buckets (for recovery drills and
//! the CI crash-recovery smoke test).
//!
//! `pbg serve` runs one of the three cluster servers from §3.3 of the
//! paper over real TCP: the lock server (bucket leases), the partition
//! server (fenced embedding checkout/check-in), or the parameter server
//! (async push/pull of relation operator state). `pbg train --cluster`
//! joins such a cluster as one trainer rank. Every process must see the
//! same `--edges`, `--partitions`, and `--config` so schemas and epoch
//! counts agree; pass `--output` to the rank that should write the final
//! checkpoint once training completes.
//!
//! `pbg serve --role embed` is the inference tier: it memory-maps a
//! trained checkpoint (manifest checksums verified, shards never copied
//! to heap) and answers `POST /score`, `POST /topk`, and
//! `GET /embedding/{entity}` with per-client token-bucket rate limiting.
//! `/healthz` reports the model card; `/metrics` exposes request
//! latency/QPS counters in Prometheus text format.

use pbg::core::checkpoint;
use pbg::core::config::PbgConfig;
use pbg::core::eval::{CandidateSampling, LinkPredictionEval};
use pbg::core::model::{Embeddings, Model};
use pbg::core::trainer::{Storage, Trainer};
use pbg::distsim::lockserver::LockServer;
use pbg::distsim::{EpochLock, NetworkModel, ParameterServer, PartitionServer};
use pbg::graph::edges::EdgeList;
use pbg::graph::schema::GraphSchema;
use pbg::graph::EntityTypeId;
use pbg::net::{
    snapshot_model, train_rank, NetLock, NetParams, NetPartitions, NetServer, RankConfig,
    RankServices,
};
use std::collections::HashMap;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

fn main() -> ExitCode {
    // Resolve `PBG_KERNEL` once, up front: an unknown value is a user
    // error that should list the valid set, not a panic deep in a kernel.
    if let Err(msg) = pbg::tensor::kernels::dispatch::init_from_env() {
        eprintln!("error: {msg}");
        return ExitCode::FAILURE;
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("train") => cmd_train(&parse_flags(&args[1..])),
        Some("serve") => cmd_serve(&parse_flags(&args[1..])),
        Some("eval") => cmd_eval(&parse_flags(&args[1..])),
        Some("neighbors") => cmd_neighbors(&parse_flags(&args[1..])),
        Some("trace") => cmd_trace(&args[1..]),
        Some("metrics") => cmd_metrics(&args[1..]),
        Some("--help") | Some("-h") | None => {
            eprintln!("{}", USAGE);
            return ExitCode::SUCCESS;
        }
        Some(other) => Err(format!("unknown command `{other}`\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  pbg train     --edges E [--format tsv|snap] [--config C.json]
                [--partitions P] [--disk DIR] --output CKPT
                [--buffer-size B] [--bucket-ordering O] [--threads T]
                [--precision f32|f16|int8] [--pin-cores]
                [--checkpoint-every N] [--resume DIR]
                [--inject-crash-after N]
                [--telemetry TRACE.jsonl] [--metrics-addr HOST:PORT]
                [--log-format json|pretty]
  pbg train     --edges E --cluster lock=H:P,part=H:P,param=H:P --rank R
                [--partitions P] [--config C.json] [--sync-throttle-ms MS]
                [--precision f32|f16|int8]
                [--telemetry TRACE.jsonl] [--metrics-addr HOST:PORT]
                [--output CKPT]
  pbg serve     --role lock|partition|param --listen HOST:PORT --edges E
                [--format tsv|snap] [--config C.json] [--partitions P]
                [--shards N] [--lease-ms MS] [--precision f32|f16|int8]
                [--telemetry TRACE.jsonl] [--metrics-addr HOST:PORT]
  pbg serve     --role embed --model CKPT [--listen HOST:PORT]
                [--rate-limit RPS] [--rate-burst N]
                [--request-log LOG.jsonl]
  pbg eval      --checkpoint CKPT --test E [--train E]
                [--candidates N] [--filtered] [--prevalence]
  pbg neighbors --checkpoint CKPT --entity ID [--relation R] [--k K]
  pbg trace     summarize TRACE.jsonl...
  pbg trace     export [--format perfetto] [--output F] TRACE.jsonl...
  pbg metrics   lint METRICS.txt";

#[derive(Debug, Default)]
struct Flags {
    values: HashMap<String, String>,
    switches: Vec<String>,
}

impl Flags {
    fn get(&self, name: &str) -> Option<&str> {
        self.values.get(name).map(String::as_str)
    }

    fn require(&self, name: &str) -> Result<&str, String> {
        self.get(name)
            .ok_or_else(|| format!("missing required flag --{name}"))
    }

    fn has(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }

    fn parse<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("flag --{name}: cannot parse `{v}`")),
        }
    }
}

fn parse_flags(args: &[String]) -> Flags {
    let mut flags = Flags::default();
    let mut i = 0;
    while i < args.len() {
        if let Some(name) = args[i].strip_prefix("--") {
            match args.get(i + 1) {
                Some(v) if !v.starts_with("--") => {
                    flags.values.insert(name.to_string(), v.clone());
                    i += 2;
                }
                _ => {
                    flags.switches.push(name.to_string());
                    i += 1;
                }
            }
        } else {
            i += 1;
        }
    }
    flags
}

fn load_edges(path: &str, format: &str) -> Result<(EdgeList, u32, u32), String> {
    let file = std::fs::File::open(path).map_err(|e| format!("{path}: {e}"))?;
    let edges = match format {
        "tsv" => pbg::graph::io::read_tsv(file).map_err(|e| e.to_string())?,
        "snap" => {
            pbg::graph::snap::read_snap(file)
                .map_err(|e| e.to_string())?
                .edges
        }
        other => return Err(format!("unknown format `{other}` (tsv|snap)")),
    };
    if edges.is_empty() {
        return Err(format!("{path}: no edges"));
    }
    let num_nodes = edges
        .sources()
        .iter()
        .chain(edges.destinations())
        .max()
        .copied()
        .unwrap_or(0)
        + 1;
    let num_relations = edges.relations().iter().max().copied().unwrap_or(0) + 1;
    Ok((edges, num_nodes, num_relations))
}

fn cmd_train(flags: &Flags) -> Result<(), String> {
    let format = flags.get("format").unwrap_or("tsv");
    let (edges, num_nodes, num_relations) = load_edges(flags.require("edges")?, format)?;
    let partitions: u32 = flags.parse("partitions", 1)?;
    let resume_dir = flags.get("resume");
    let mut config = match flags.get("config") {
        Some(path) => {
            let json = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            PbgConfig::from_json(&json).map_err(|e| e.to_string())?
        }
        // a resumed run reuses the interrupted run's config so the
        // replayed schedule matches the manifest's progress
        None => match resume_dir {
            Some(dir) if std::path::Path::new(dir).join("config.json").exists() => {
                checkpoint::load_config(dir).map_err(|e| e.to_string())?
            }
            _ => PbgConfig::default(),
        },
    };
    if let Some(b) = flags.get("buffer-size") {
        config.buffer_size = b
            .parse()
            .map_err(|_| format!("flag --buffer-size: cannot parse `{b}`"))?;
    }
    if let Some(o) = flags.get("bucket-ordering") {
        config.bucket_ordering = o
            .parse()
            .map_err(|e| format!("flag --bucket-ordering: {e}"))?;
    }
    if let Some(t) = flags.get("threads") {
        config.threads = t
            .parse()
            .map_err(|_| format!("flag --threads: cannot parse `{t}`"))?;
    }
    if let Some(p) = flags.get("precision") {
        config.precision = pbg::tensor::Precision::parse(p)
            .ok_or_else(|| format!("flag --precision: unknown precision `{p}` (f32|f16|int8)"))?;
    }
    if flags.has("pin-cores") {
        config.pin_cores = true;
    }
    config.validate().map_err(|e| e.to_string())?;
    let schema = homogeneous_schema(num_nodes, num_relations, partitions)?;
    if let Some(spec) = flags.get("cluster") {
        return cmd_train_cluster(flags, spec, &edges, &schema, config);
    }
    let storage = match flags.get("disk") {
        Some(dir) => Storage::Disk(dir.into()),
        None => Storage::InMemory,
    };
    eprintln!(
        "training: {} edges, {num_nodes} nodes, {num_relations} relations, P={partitions}, {} epochs",
        edges.len(),
        config.epochs
    );
    let log_format = flags.get("log-format").unwrap_or("pretty");
    if !matches!(log_format, "pretty" | "json") {
        return Err(format!("unknown log format `{log_format}` (json|pretty)"));
    }
    let out = flags.require("output")?;
    let mut trainer = match resume_dir {
        Some(dir) => {
            let t = Trainer::resume(
                schema,
                &edges,
                config.clone(),
                storage,
                pbg::telemetry::Registry::new(),
                dir,
            )
            .map_err(|e| e.to_string())?;
            eprintln!("resuming from {dir} at epoch {}", t.epochs_done() + 1);
            t
        }
        None => Trainer::with_storage(schema, &edges, config.clone(), storage)
            .map_err(|e| e.to_string())?,
    };
    let every: usize = flags.parse("checkpoint-every", config.checkpoint_interval_buckets)?;
    if every > 0 {
        trainer.set_checkpoint_policy(pbg::core::CheckpointPolicy {
            dir: out.into(),
            every_buckets: every,
        });
    }
    if let Some(n) = flags.get("inject-crash-after") {
        let n: usize = n
            .parse()
            .map_err(|_| format!("flag --inject-crash-after: cannot parse `{n}`"))?;
        trainer.inject_crash_after_buckets(n);
    }
    let trace_path = flags.get("telemetry");
    if trace_path.is_some() {
        trainer.telemetry().set_tracing(true);
    }
    let _metrics_server = start_metrics_server(flags, trainer.telemetry())?;
    for stats in trainer.train() {
        if log_format == "json" {
            println!(
                "{}",
                serde_json::to_string(&stats).map_err(|e| e.to_string())?
            );
        } else {
            eprintln!(
                "epoch {:>3}: loss {:.4}  {:>8.0} edges/s  peak {}",
                stats.epoch,
                stats.mean_loss,
                stats.edges as f64 / stats.seconds.max(1e-9),
                pbg::core::stats::format_bytes(stats.peak_bytes),
            );
        }
    }
    // the trace lands on disk before any crash-driven exit so an
    // interrupted run still leaves a parsable telemetry record
    if let Some(path) = trace_path {
        write_trace(trainer.telemetry(), path)?;
        eprintln!("trace written to {path}");
    }
    if let Some(e) = trainer.checkpoint_error() {
        return Err(format!("periodic checkpoint failed: {e}"));
    }
    if trainer.crashed() {
        return Err(format!(
            "training interrupted by injected crash; resume with --resume {out}"
        ));
    }
    // streamed from the store, accumulators included: the final
    // checkpoint is as complete as a periodic one
    let progress = checkpoint::TrainProgress {
        epochs_done: trainer.epochs_done(),
        steps_done: 0,
    };
    checkpoint::save_store(trainer.model(), trainer.store(), out, progress)
        .map_err(|e| e.to_string())?;
    checkpoint::save_config(trainer.model().config(), out).map_err(|e| e.to_string())?;
    eprintln!("checkpoint written to {out}");
    Ok(())
}

/// Homogeneous schema over the observed ids; relation operators default
/// to identity (configure through a custom config + schema in library
/// use for anything richer).
fn homogeneous_schema(
    num_nodes: u32,
    num_relations: u32,
    partitions: u32,
) -> Result<GraphSchema, String> {
    let mut builder = GraphSchema::builder().entity_type(
        pbg::graph::schema::EntityTypeDef::new("node", num_nodes).with_partitions(partitions),
    );
    for r in 0..num_relations {
        builder = builder.relation_type(pbg::graph::schema::RelationTypeDef::new(
            format!("rel_{r}"),
            0u32,
            0u32,
        ));
    }
    builder.build().map_err(|e| e.to_string())
}

/// Binds the live `/metrics` exposition server when `--metrics-addr` is
/// set. The returned guard keeps the accept thread alive; dropping it
/// shuts the listener down.
fn start_metrics_server(
    flags: &Flags,
    telemetry: &pbg::telemetry::Registry,
) -> Result<Option<pbg::telemetry::MetricsServer>, String> {
    match flags.get("metrics-addr") {
        Some(addr) => {
            let server = pbg::telemetry::MetricsServer::serve(addr, telemetry.clone())
                .map_err(|e| format!("metrics bind {addr}: {e}"))?;
            eprintln!("metrics served at http://{}/metrics", server.local_addr());
            Ok(Some(server))
        }
        None => Ok(None),
    }
}

/// Parses `lock=H:P,part=H:P,param=H:P` (roles in any order) into the
/// three server addresses.
fn parse_cluster(spec: &str) -> Result<(String, String, String), String> {
    let (mut lock, mut part, mut param) = (None, None, None);
    for piece in spec.split(',') {
        let (role, addr) = piece
            .split_once('=')
            .ok_or_else(|| format!("bad cluster entry `{piece}` (want role=host:port)"))?;
        let slot = match role {
            "lock" => &mut lock,
            "part" | "partition" => &mut part,
            "param" => &mut param,
            other => return Err(format!("unknown cluster role `{other}` (lock|part|param)")),
        };
        if slot.replace(addr.to_string()).is_some() {
            return Err(format!("duplicate cluster role `{role}`"));
        }
    }
    match (lock, part, param) {
        (Some(l), Some(pt), Some(pm)) => Ok((l, pt, pm)),
        _ => Err("cluster spec needs lock=, part=, and param= addresses".into()),
    }
}

/// One trainer rank of a networked cluster: trains its share of the
/// bucket grid against the three servers, then (with `--output`)
/// snapshots the cluster's final state into a checkpoint.
fn cmd_train_cluster(
    flags: &Flags,
    spec: &str,
    edges: &EdgeList,
    schema: &GraphSchema,
    config: PbgConfig,
) -> Result<(), String> {
    let (lock_addr, part_addr, param_addr) = parse_cluster(spec)?;
    let rank: usize = flags.parse("rank", 0usize)?;
    let telemetry = pbg::telemetry::Registry::new();
    // tracing before the first RPC, so connection-time spans are kept
    // and outgoing frames carry trace contexts from the start
    let trace_path = flags.get("telemetry");
    if trace_path.is_some() {
        telemetry.set_tracing(true);
    }
    let _metrics_server = start_metrics_server(flags, &telemetry)?;
    let services = RankServices {
        lock: NetLock::new(lock_addr, &telemetry),
        // uploads at the config's storage precision; the partition
        // server derives the same from its layout for downloads
        partitions: NetPartitions::with_precision(
            part_addr,
            &telemetry,
            config.precision,
            config.dim,
        ),
        params: NetParams::new(param_addr, &telemetry),
    };
    let mut run = RankConfig::new(rank);
    run.param_sync_throttle = Duration::from_millis(flags.parse("sync-throttle-ms", 0u64)?);
    eprintln!(
        "rank {rank}: joining cluster, {} edges, {} epochs",
        edges.len(),
        config.epochs
    );
    let result = train_rank(schema, edges, config.clone(), &services, &run, &telemetry);
    // the trace lands even when training fails, like the single-machine
    // path — a crashed rank still leaves a parsable record
    if let Some(path) = trace_path {
        write_trace(&telemetry, path)?;
        eprintln!("rank {rank}: trace written to {path}");
    }
    let stats = result.map_err(|e| format!("rank {rank}: {e}"))?;
    eprintln!(
        "rank {rank}: done — {} buckets, {} edges, loss {:.4}, {} leases reaped",
        stats.buckets_trained, stats.edges, stats.loss, stats.recovered_buckets
    );
    if let Some(out) = flags.get("output") {
        let model = snapshot_model(
            schema,
            config.clone(),
            &services.partitions,
            &services.params,
        )
        .map_err(|e| format!("snapshot: {e}"))?;
        checkpoint::save_with_precision(
            &model,
            out,
            checkpoint::TrainProgress {
                epochs_done: config.epochs,
                steps_done: 0,
            },
            config.precision,
        )
        .map_err(|e| e.to_string())?;
        checkpoint::save_config(&config, out).map_err(|e| e.to_string())?;
        eprintln!("checkpoint written to {out}");
    }
    Ok(())
}

/// Runs one of the three cluster servers until killed. The schema and
/// epoch count are derived from `--edges`/`--partitions`/`--config`
/// exactly as `pbg train` derives them, so servers and ranks agree.
fn cmd_serve(flags: &Flags) -> Result<(), String> {
    let role = flags.require("role")?;
    if role == "embed" {
        return cmd_serve_embed(flags);
    }
    let listen = flags.get("listen").unwrap_or("127.0.0.1:0");
    let format = flags.get("format").unwrap_or("tsv");
    let (_edges, num_nodes, num_relations) = load_edges(flags.require("edges")?, format)?;
    let partitions: u32 = flags.parse("partitions", 2)?;
    if partitions < 2 {
        return Err("cluster serving needs --partitions >= 2".into());
    }
    let mut config = match flags.get("config") {
        Some(path) => {
            let json = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            PbgConfig::from_json(&json).map_err(|e| e.to_string())?
        }
        None => PbgConfig::default(),
    };
    // a partition server ships checkout chunks at its layout's storage
    // precision; ranks must be launched with the matching --precision
    if let Some(p) = flags.get("precision") {
        config.precision = pbg::tensor::Precision::parse(p)
            .ok_or_else(|| format!("flag --precision: unknown precision `{p}` (f32|f16|int8)"))?;
    }
    let schema = homogeneous_schema(num_nodes, num_relations, partitions)?;
    let shards: usize = flags.parse("shards", 4usize)?;
    // Synthetic ranks put server spans on their own tracks in a merged
    // trace, far from any plausible trainer rank id.
    let role_rank: u32 = match role {
        "lock" => 1000,
        "partition" => 1001,
        "param" => 1002,
        other => {
            return Err(format!(
                "unknown serve role `{other}` (lock|partition|param)"
            ))
        }
    };
    let telemetry = pbg::telemetry::Registry::new();
    telemetry.set_rank(role_rank);
    telemetry.set_trace_id(pbg::telemetry::context::trace_id_from_seed(config.seed));
    let trace_path = flags.get("telemetry");
    if trace_path.is_some() {
        telemetry.set_tracing(true);
    }
    let _metrics_server = start_metrics_server(flags, &telemetry)?;
    // the serving state machines still meter bytes through their
    // NetworkModel; real sockets carry the data, so no simulated delay
    let net = Arc::new(NetworkModel::new(1e9, 0.0));
    let server = match role {
        "lock" => {
            let lease_ms: u64 = flags.parse("lease-ms", 10_000u64)?;
            let inner = if lease_ms == 0 {
                LockServer::new()
            } else {
                LockServer::with_lease(Duration::from_millis(lease_ms))
            };
            let lock = Arc::new(EpochLock::new(inner, config.epochs, partitions, partitions));
            NetServer::lock_with(listen, lock, &telemetry)
        }
        "partition" => {
            let model = Model::new(schema, config).map_err(|e| e.to_string())?;
            let state = Arc::new(PartitionServer::new(model.store_layout(), shards, net));
            NetServer::partitions_with(listen, state, &telemetry)
        }
        _ => NetServer::params_with(
            listen,
            Arc::new(ParameterServer::new(shards, net)),
            &telemetry,
        ),
    }
    .map_err(|e| format!("bind {listen}: {e}"))?;
    eprintln!("{role} server listening on {}", server.local_addr());
    // A server never exits, so spans stream to disk from a background
    // flusher instead of a single final drain.
    if let Some(path) = trace_path {
        let file = std::fs::File::create(path).map_err(|e| format!("{path}: {e}"))?;
        let mut sink = pbg::telemetry::JsonlSink::new(std::io::BufWriter::new(file));
        let reg = telemetry.clone();
        std::thread::Builder::new()
            .name("pbg-trace-flush".into())
            .spawn(move || loop {
                std::thread::sleep(Duration::from_millis(500));
                let _ = reg.drain_into(&mut sink);
            })
            .map_err(|e| format!("trace flusher: {e}"))?;
        eprintln!("{role} server: spans stream to {path}");
    }
    loop {
        std::thread::park();
    }
}

/// Serves a trained checkpoint for inference: memory-maps the embedding
/// shards (checksum-verified, zero-copy) and answers `/score`, `/topk`,
/// and `/embedding/{entity}` over HTTP until killed.
fn cmd_serve_embed(flags: &Flags) -> Result<(), String> {
    let model_dir = flags.require("model")?;
    let listen = flags.get("listen").unwrap_or("127.0.0.1:0");
    let model = Arc::new(pbg::core::checkpoint::open_mmap(model_dir).map_err(|e| e.to_string())?);
    let telemetry = pbg::telemetry::Registry::new();
    // synthetic rank, same convention as the cluster server roles
    telemetry.set_rank(1003);
    let config = pbg::serve::ServeConfig {
        rate_limit_rps: flags.parse("rate-limit", 500.0f64)?,
        rate_limit_burst: flags.parse("rate-burst", 1000.0f64)?,
        request_log: flags.get("request-log").map(std::path::PathBuf::from),
        ..pbg::serve::ServeConfig::default()
    };
    let server = pbg::serve::EmbedServer::serve(listen, Arc::clone(&model), telemetry, config)
        .map_err(|e| format!("bind {listen}: {e}"))?;
    eprintln!(
        "embed server listening on {} ({} relations, {:.1} MiB mapped)",
        server.local_addr(),
        model.relations.len(),
        model.mapped_bytes() as f64 / (1024.0 * 1024.0)
    );
    loop {
        std::thread::park();
    }
}

/// Drains a registry's buffered span events to `path` as JSONL.
fn write_trace(telemetry: &pbg::telemetry::Registry, path: &str) -> Result<(), String> {
    let file = std::fs::File::create(path).map_err(|e| format!("{path}: {e}"))?;
    let mut sink = pbg::telemetry::JsonlSink::new(std::io::BufWriter::new(file));
    telemetry
        .drain_into(&mut sink)
        .map_err(|e| format!("{path}: {e}"))
}

/// Reads and concatenates span events from several JSONL trace files
/// (one per rank, typically). Rank tags inside the events keep them
/// attributable after the merge.
fn read_traces(files: &[String]) -> Result<Vec<pbg::telemetry::trace::TraceEvent>, String> {
    let mut events = Vec::new();
    for path in files {
        let file = std::fs::File::open(path).map_err(|e| format!("{path}: {e}"))?;
        events.extend(
            pbg::telemetry::trace::read_jsonl(std::io::BufReader::new(file))
                .map_err(|e| format!("{path}: {e}"))?,
        );
    }
    Ok(events)
}

fn cmd_trace(args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some("summarize") => {
            let files = &args[1..];
            if files.is_empty() {
                return Err("usage: pbg trace summarize TRACE.jsonl...".into());
            }
            let events = read_traces(files)?;
            let summary = pbg::telemetry::trace::summarize(&events);
            print!("{}", summary.render());
            Ok(())
        }
        Some("export") => {
            let mut format = "perfetto".to_string();
            let mut output: Option<String> = None;
            let mut files: Vec<String> = Vec::new();
            let mut i = 1;
            while i < args.len() {
                match args[i].as_str() {
                    "--format" => {
                        format = args
                            .get(i + 1)
                            .cloned()
                            .ok_or("flag --format needs a value")?;
                        i += 2;
                    }
                    "--output" => {
                        output = Some(
                            args.get(i + 1)
                                .cloned()
                                .ok_or("flag --output needs a value")?,
                        );
                        i += 2;
                    }
                    file => {
                        files.push(file.to_string());
                        i += 1;
                    }
                }
            }
            if !matches!(format.as_str(), "perfetto" | "chrome") {
                return Err(format!(
                    "unknown export format `{format}` (perfetto|chrome)"
                ));
            }
            if files.is_empty() {
                return Err(
                    "usage: pbg trace export [--format perfetto] [--output F] TRACE.jsonl..."
                        .into(),
                );
            }
            let events = read_traces(&files)?;
            let json = pbg::telemetry::export::to_chrome_trace(&events);
            match output {
                Some(path) => {
                    std::fs::write(&path, json).map_err(|e| format!("{path}: {e}"))?;
                    eprintln!("trace exported to {path} (open at https://ui.perfetto.dev)");
                }
                None => println!("{json}"),
            }
            Ok(())
        }
        Some(other) => Err(format!("unknown trace subcommand `{other}`\n{USAGE}")),
        None => Err(format!("missing trace subcommand\n{USAGE}")),
    }
}

fn cmd_metrics(args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some("lint") => {
            let path = args.get(1).ok_or("usage: pbg metrics lint METRICS.txt")?;
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            pbg::telemetry::snapshot::lint_prometheus(&text).map_err(|e| format!("{path}: {e}"))?;
            println!("{path}: valid Prometheus exposition text");
            Ok(())
        }
        Some(other) => Err(format!("unknown metrics subcommand `{other}`\n{USAGE}")),
        None => Err(format!("missing metrics subcommand\n{USAGE}")),
    }
}

fn cmd_eval(flags: &Flags) -> Result<(), String> {
    let model = checkpoint::load(flags.require("checkpoint")?).map_err(|e| e.to_string())?;
    let format = flags.get("format").unwrap_or("tsv");
    let (test, _, _) = load_edges(flags.require("test")?, format)?;
    let train = match flags.get("train") {
        Some(path) => load_edges(path, format)?.0,
        None => EdgeList::new(),
    };
    let eval = LinkPredictionEval {
        num_candidates: flags.parse("candidates", 1000usize)?,
        sampling: if flags.has("prevalence") {
            CandidateSampling::Prevalence
        } else {
            CandidateSampling::Uniform
        },
        filtered: flags.has("filtered"),
        ..Default::default()
    };
    if eval.sampling == CandidateSampling::Prevalence && train.is_empty() {
        return Err("--prevalence needs --train edges for the distribution".into());
    }
    let metrics = eval.evaluate(&model, &test, &train, &[&train, &test]);
    println!(
        "MRR {:.4}  MR {:.1}  Hits@1 {:.4}  Hits@10 {:.4}  Hits@50 {:.4}  ({} ranks)",
        metrics.mrr,
        metrics.mr,
        metrics.hits_at_1,
        metrics.hits_at_10,
        metrics.hits_at_50,
        metrics.count
    );
    Ok(())
}

fn cmd_neighbors(flags: &Flags) -> Result<(), String> {
    let model = checkpoint::load(flags.require("checkpoint")?).map_err(|e| e.to_string())?;
    let entity: u32 = flags
        .require("entity")?
        .parse()
        .map_err(|_| "flag --entity: not an id".to_string())?;
    let k: usize = flags.parse("k", 10usize)?;
    if k == 0 {
        return Err("flag --k: must be positive".into());
    }
    let neighbors = match flags.get("relation") {
        Some(r) => {
            let rel = r
                .parse()
                .map_err(|_| "flag --relation: not an id".to_string())?;
            let rel = model.relation_id(rel).map_err(|e| e.to_string())?;
            let source = model.schema.relation_type(rel).source_type();
            model
                .check_entity(source, entity, "entity")
                .map_err(|e| e.to_string())?;
            model.top_destinations(entity, rel, k)
        }
        None => {
            model
                .check_entity(EntityTypeId(0), entity, "entity")
                .map_err(|e| e.to_string())?;
            model.nearest_entities(0, entity, k)
        }
    };
    for (id, score) in neighbors {
        println!("{id}\t{score:.4}");
    }
    Ok(())
}
