//! The two single-machine training workloads: `train_mem_social`
//! (compute-bound, everything resident) and `train_disk_kg` (swap-bound,
//! partitions on disk).

use crate::envelope::peak_rss_mb;
use crate::inputs::{self, GraphKind, GraphSpec, PROGRAM_SEED};
use crate::probes::{self, ChunkShape};
use crate::report::{Outcome, RunOpts};
use crate::stats::median;
use crate::tail::{check_trained, checkpoint_and_eval};
use crate::trace::{Tracer, ROOT};
use pbg_core::config::PbgConfig;
use pbg_core::stats::EpochStats;
use pbg_core::trainer::{epoch_rng, needed_keys, EpochPlan, Storage, Trainer};
use pbg_graph::schema::{GraphSchema, OperatorKind};
use pbg_graph::split::EdgeSplit;
use pbg_telemetry::span::SpanEvent;
use pbg_telemetry::trace::names as span_name;
use pbg_tensor::kernels::flops_executed;
use serde_json::json;
use std::path::Path;

/// HOGWILD threads: one per core of the 2-core reference host.
pub const THREADS: usize = 2;

/// Sizing of one single-machine training workload.
#[derive(Debug, Clone, Copy)]
pub struct TrainSpec {
    /// The graph.
    pub graph: GraphSpec,
    /// Embedding dimension.
    pub dim: usize,
    /// Entity partitions `P`.
    pub partitions: u32,
    /// Partition buffer capacity `B`.
    pub buffer_size: usize,
    /// Swap partitions to disk (`Storage::Disk`) instead of keeping all resident.
    pub disk: bool,
    /// Epochs at `--seconds` = `run_seconds`.
    pub epochs: usize,
    /// Held-out edges ranked by the eval tail.
    pub holdout: usize,
    /// Committed floor the filtered MRR must clear.
    pub mrr_floor: f64,
}

/// `train_mem_social`: the 51 MB table misses cache, everything else is
/// compute.
pub const MEM_SOCIAL: TrainSpec = TrainSpec {
    graph: GraphSpec {
        kind: GraphKind::Social {
            intra_prob: 0.8,
            zipf_exponent: 1.0,
        },
        nodes: 100_000,
        edges: 1_000_000,
        communities: 128,
    },
    dim: 128,
    partitions: 1,
    buffer_size: 2,
    disk: false,
    epochs: 4,
    holdout: 3_000,
    mrr_floor: 0.30,
};

/// `train_disk_kg`: 1.8 nodes per edge, so an epoch moves ~1.3 GB of
/// partitions for 220k edges and waits on the swap 0.3–0.4 of the time
/// (sparser graphs wait longer, but their throughput then follows the
/// host's disk, which moves by ±20 % between runs).
pub const DISK_KG: TrainSpec = TrainSpec {
    graph: GraphSpec {
        kind: GraphKind::Knowledge {
            relations: 16,
            operator: OperatorKind::ComplexDiagonal,
        },
        nodes: 400_000,
        edges: 220_000,
        communities: 128,
    },
    dim: 64,
    partitions: 8,
    buffer_size: 2,
    disk: true,
    epochs: 10,
    holdout: 6_000,
    mrr_floor: 0.10,
};

impl TrainSpec {
    /// Smoke sizes: the same shape of work within ~2 s.
    pub fn quick(mut self) -> TrainSpec {
        self.graph = self.graph.quick();
        self.epochs = 1;
        self.holdout = 200;
        self.mrr_floor = 0.0;
        self
    }

    /// The program's training configuration (its seed stays fixed).
    pub fn config(&self, epochs: usize) -> PbgConfig {
        PbgConfig::builder()
            .dim(self.dim)
            .epochs(epochs)
            .threads(THREADS)
            .buffer_size(self.buffer_size)
            .seed(PROGRAM_SEED)
            .build()
            .expect("benchmark config is valid")
    }
}

struct Ready {
    schema: GraphSchema,
    split: EdgeSplit,
    trainer: Trainer,
    datagen_s: f64,
}

/// One set-up: datagen, held-out split, `Trainer::new` (model init,
/// store, bucketize).
fn set_up(spec: &TrainSpec, opts: &RunOpts, tracer: &Tracer, epochs: usize, swap: &Path) -> Ready {
    let span = tracer.span("setup", ROOT);
    let (edges, datagen_s) = tracer.timed("datagen.generate", span.id(), || {
        spec.graph.generate(opts.seed)
    });
    let (split, _) = tracer.timed("graph.split", span.id(), || {
        inputs::split(&edges, spec.holdout, opts.seed)
    });
    let schema = spec.graph.schema(spec.partitions);
    let (trainer, _) = tracer.timed("core.trainer.new", span.id(), || {
        let storage = if spec.disk {
            std::fs::remove_dir_all(swap).ok();
            Storage::Disk(swap.to_path_buf())
        } else {
            Storage::InMemory
        };
        Trainer::with_telemetry(
            schema.clone(),
            &split.train,
            spec.config(epochs),
            storage,
            tracer.registry().clone(),
        )
        .expect("trainer set-up")
    });
    Ready {
        schema,
        split,
        trainer,
        datagen_s,
    }
}

/// The trainer's plan for `epoch`: its own bucket order and swap plan,
/// recomputed from its public parts.
fn epoch_plan(trainer: &Trainer, epoch: usize) -> EpochPlan {
    let config = trainer.model().config();
    let buckets = trainer.buckets();
    let order = config.bucket_ordering.order_with_buffer(
        buckets.src_parts(),
        buckets.dst_parts(),
        config.buffer_size,
        &mut epoch_rng(config.seed, epoch),
    );
    EpochPlan::with_capacity(
        &order,
        |b| needed_keys(trainer.model(), b),
        config.buffer_size,
    )
}

/// Partition loads the epoch plans ask for over `epochs` epochs.
fn planned_loads(trainer: &Trainer, epochs: usize) -> usize {
    (1..=epochs)
        .map(|epoch| epoch_plan(trainer, epoch).total_acquires())
        .sum()
}

/// Phase seconds the program's own `bucket_train` spans carry.
#[derive(Debug, Default, Clone, Copy)]
struct Phases {
    compute_s: f64,
    sampling_s: f64,
    optimizer_s: f64,
    bucket_wall_s: f64,
}

fn phases(events: &[SpanEvent]) -> Phases {
    let mut p = Phases::default();
    for e in events.iter().filter(|e| e.name == span_name::BUCKET_TRAIN) {
        let ns = |field| e.field_u64(field).unwrap_or(0) as f64 * 1e-9;
        p.compute_s += ns("compute_ns");
        p.sampling_s += ns("sampling_ns");
        p.optimizer_s += ns("optimizer_ns");
        p.bucket_wall_s += e.dur_ns as f64 * 1e-9;
    }
    p
}

/// Runs one single-machine training workload.
pub fn run(spec: TrainSpec, opts: &RunOpts) -> (Outcome, Tracer, Vec<SpanEvent>) {
    let spec = if opts.quick { spec.quick() } else { spec };
    let epochs = if opts.quick {
        spec.epochs
    } else {
        opts.scaled(spec.epochs)
    };
    let tracer = Tracer::new(opts.workload, opts.traced);
    let mut out = Outcome::default();
    let swap = opts.out_dir.join(format!("swap-{}", opts.workload));
    let ckpt = opts.out_dir.join(format!("ckpt-{}", opts.workload));

    // ---- set-up, several times so setup_s is a median ----
    let (ready, setups) = tracer.repeat_set_up(opts.setups(5), || {
        set_up(&spec, opts, &tracer, epochs, &swap)
    });
    let Ready {
        schema,
        split,
        mut trainer,
        datagen_s,
    } = ready;

    // ---- measured window: fixed epochs, then save → load → eval ----
    let measure = tracer.span("measure", ROOT);
    let train_span = tracer.span("train", measure.id());
    let flops_before = flops_executed();
    let mut epoch_stats: Vec<EpochStats> = Vec::new();
    let mut walls: Vec<f64> = Vec::new();
    // traced pass: every other epoch runs with the program's tracing off,
    // so one invocation yields the tracing overhead as well
    let program_traced = |epoch: usize| opts.traced && epoch.is_multiple_of(2);
    for e in 0..epochs {
        let with_trace = program_traced(e);
        let t0 = tracer.now_ns();
        tracer.registry().set_tracing(with_trace);
        let stats = trainer.train_epoch();
        tracer.registry().set_tracing(opts.traced);
        let dur = tracer.now_ns() - t0;
        tracer.record("core.trainer.train_epoch", train_span.id(), t0, dur);
        walls.push(dur as f64 * 1e-9);
        epoch_stats.push(stats);
    }
    let train_flops = flops_executed() - flops_before;
    drop(train_span);
    let train_wall: f64 = walls.iter().sum();
    let edges_trained: usize = epoch_stats.iter().map(|s| s.edges).sum();
    let buckets_trained: usize = epoch_stats.iter().map(|s| s.buckets).sum();

    let tail_span = tracer.span("tail", measure.id());
    let (snapshot, _) = tracer.timed("core.trainer.snapshot", tail_span.id(), || {
        trainer.snapshot()
    });
    let tail = checkpoint_and_eval(&tracer, tail_span.id(), &snapshot, &ckpt, &split, &mut out);
    drop(tail_span);
    drop(measure);

    // ---- correctness ----
    let checks = tracer.span("checks", ROOT);
    check_trained(
        &mut out,
        epochs * split.train.len(),
        edges_trained,
        tail.mrr,
        spec.mrr_floor,
    );
    let non_empty = trainer
        .buckets()
        .iter()
        .filter(|(_, e)| !e.is_empty())
        .count();
    let want_buckets = epochs * (spec.partitions * spec.partitions) as usize;
    out.check(
        "buckets trained = epochs x P^2",
        buckets_trained == want_buckets && non_empty * epochs == want_buckets,
        format!("{buckets_trained} of {want_buckets}"),
    );
    let loads: usize = epoch_stats.iter().map(|s| s.swap_ins).sum();
    let planned = if spec.disk {
        planned_loads(&trainer, epochs)
    } else {
        0
    };
    out.check(
        "core.storage.loads = graph.ordering.planned_loads",
        loads == planned,
        format!("{loads} loaded, {planned} planned"),
    );
    drop(checks);

    // ---- report ----
    let peak_resident = epoch_stats.iter().map(|s| s.peak_bytes).max().unwrap_or(0);
    let swap_wait: f64 = epoch_stats.iter().map(|s| s.swap_wait_seconds).sum();
    out.config("graph", json!(format!("{:?}", spec.graph)));
    out.config("train_edges", json!(split.train.len() as u64));
    out.config("heldout_edges", json!(split.test.len() as u64));
    out.config("partitions", json!(spec.partitions));
    out.config(
        "storage",
        json!(if spec.disk { "Disk" } else { "InMemory" }),
    );
    out.config("epochs", json!(epochs as u64));
    out.config("mrr_floor", json!(spec.mrr_floor));
    out.config("pbg_config", json!(trainer.model().config().to_json()));
    out.notes.push(format!(
        "train: {epochs} epochs, {edges_trained} edges in {train_wall:.3} s; epoch walls {walls:.3?}; swap wait {swap_wait:.3} s; mrr {:.4}",
        tail.mrr
    ));
    tail.report(opts.traced, &mut out);

    let mut events = Vec::new();
    if opts.traced {
        let probe_span = tracer.span("probes", ROOT);
        let config = trainer.model().config().clone();
        let rows = (spec.graph.nodes / spec.partitions) as usize;
        let shape = ChunkShape::of(&config, rows);
        let (kernel, _) = tracer.timed("probe.tensor.kernels", probe_span.id(), || {
            probes::kernels(shape)
        });
        let (negatives_ns, _) = tracer.timed("probe.core.negatives", probe_span.id(), || {
            probes::negatives(shape)
        });
        let (adagrad_ns, _) = tracer.timed("probe.tensor.adagrad", probe_span.id(), || {
            probes::adagrad(spec.dim)
        });
        let (chunk_ns, _) = tracer.timed("probe.core.trainer.chunk", probe_span.id(), || {
            probes::chunk(&schema, &config, rows)
        });
        let (bucketize, _) = tracer.timed("probe.graph.bucketize", probe_span.id(), || {
            probes::bucketize_edges_per_s(&schema, &split.train)
        });
        if spec.disk {
            let plan = epoch_plan(&trainer, 1);
            let steps = &plan.steps()[..plan.len().min(24)];
            let layout = trainer.model().store_layout();
            let dir = opts.out_dir.join("swap-probe");
            let (storage, _) = tracer.timed("probe.core.storage", probe_span.id(), || {
                probes::storage_replay(layout, steps, &dir)
            });
            out.set("core.storage.load_mb_per_s", storage.load_mb_per_s);
            out.set(
                "core.storage.release_dirty_mb_per_s",
                storage.release_dirty_mb_per_s,
            );
        }
        drop(probe_span);

        events = tracer.drain();
        let p = phases(&events);
        // per chunk: both sides score + backward; both sides sample and
        // gather; one Adagrad update per positive and candidate row
        let rows_per_chunk = 2.0 * (shape.chunk + shape.chunk + shape.uniform) as f64;
        let accounted = kernel.ns_per_chunk + negatives_ns + adagrad_ns * rows_per_chunk;
        let achieved = train_flops as f64 / train_wall / 1e9;
        let rate = |want_traced: bool| {
            let rates: Vec<f64> = (1..epochs)
                .filter(|&e| program_traced(e) == want_traced)
                .map(|e| epoch_stats[e].edges as f64 / walls[e])
                .collect();
            median(&rates)
        };
        let (untraced_rate, traced_rate) = (rate(false), rate(true));
        out.set("datagen.generate_s", datagen_s);
        out.set("graph.bucket.bucketize_edges_per_s", bucketize);
        out.set("tensor.kernels.achieved_gflops", achieved);
        out.set("tensor.kernels.peak_gflops", kernel.peak_gflops);
        out.set(
            "tensor.kernels.efficiency",
            achieved / (THREADS as f64 * kernel.peak_gflops),
        );
        out.set("core.negatives.sample_ns_per_chunk", negatives_ns);
        out.set("tensor.adagrad.update_ns_per_row", adagrad_ns);
        out.set("core.trainer.chunk_ns", chunk_ns);
        out.set(
            "core.trainer.chunk_unaccounted_share",
            1.0 - accounted / chunk_ns,
        );
        out.set("core.trainer.compute_s", p.compute_s);
        out.set("core.trainer.sampling_s", p.sampling_s);
        out.set("core.trainer.optimizer_s", p.optimizer_s);
        if p.bucket_wall_s > 0.0 {
            out.set(
                "core.trainer.hogwild_utilisation",
                (p.compute_s + p.sampling_s + p.optimizer_s) / (THREADS as f64 * p.bucket_wall_s),
            );
        }
        if untraced_rate > 0.0 && traced_rate > 0.0 {
            out.set("core.trainer.trace_overhead", untraced_rate / traced_rate);
        }
        let sum = |f: fn(&EpochStats) -> f64| epoch_stats.iter().map(f).sum::<f64>();
        let hits = sum(|s| s.prefetch_hits as f64);
        out.set("core.storage.loads", loads as f64);
        out.set("core.storage.prefetch_hits", hits);
        if loads > 0 {
            out.set("core.storage.prefetch_hit_ratio", hits / loads as f64);
        }
        out.set("core.storage.swap_wait_s", swap_wait);
        out.set("core.storage.swap_wait_share", swap_wait / train_wall);
        out.set(
            "core.storage.writeback_mb",
            sum(|s| s.bytes_written_back as f64) / 1e6,
        );
        out.set(
            "core.storage.writeback_skipped_mb",
            sum(|s| s.writeback_skipped_bytes as f64) / 1e6,
        );
        out.set("core.buffer.evictions", sum(|s| s.evictions as f64));
        out.set("graph.ordering.planned_loads", planned as f64);
    } else {
        out.set("setup_s", median(&setups));
        // the median epoch: one epoch slowed by a host stall does not move it
        let rates: Vec<f64> = epoch_stats
            .iter()
            .zip(&walls)
            .map(|(s, wall)| s.edges as f64 / wall)
            .collect();
        out.set("throughput_per_s", median(&rates));
        out.set("quality", tail.mrr);
        out.set("latency_p50_ms", median(&walls) * 1e3);
        out.set("peak_resident_emb_mb", peak_resident as f64 / 1e6);
        out.set("peak_rss_mb", peak_rss_mb());
    }
    drop(trainer);
    std::fs::remove_dir_all(&swap).ok();
    std::fs::remove_dir_all(&ckpt).ok();
    (out, tracer, events)
}
