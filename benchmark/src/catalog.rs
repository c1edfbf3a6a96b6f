//! The catalogue: workloads, end-to-end metrics with their bounds, and
//! per-layer metrics with the end-to-end metric each should move.
//!
//! `BENCHMARK.json` at the repo root is generated from this file
//! (`-- list --benchmark-json`) and a unit test keeps the two equal.

use serde_json::Value;
use Better::{Higher, Lower};
use Source::{Count, Probe, Span};

/// Seconds one run measures at full size; `--seconds` scales the work
/// (epochs, phase lengths) relative to this.
pub const RUN_SECONDS: u64 = 15;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    /// `"higher"` / `"lower"`, as `BENCHMARK.json` spells it.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name on the command line and in result files.
    pub name: &'static str,
    /// One line: why it exists.
    pub why: &'static str,
    /// What runs.
    pub what: &'static str,
}

/// The five workloads, in suite order.
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "train_mem_social",
        why: "Compute-bound: kernels, negatives, adagrad and hogwild do the work; storage, buffer and net do none.",
        what: "livejournal-like homogeneous graph, 100k nodes / 1M edges, d=128, P=1, in-memory, 2 HOGWILD threads, fixed epochs; then save, load, filtered eval on held-out edges",
    },
    Workload {
        name: "train_disk_kg",
        why: "Swap-bound: storage, buffer, ordering, plan prefetching and the operator carry it; kernels see small chunks.",
        what: "freebase-like multi-relation graph with ComplexDiagonal operators, 400k nodes / 220k edges, d=64, P=8, B=2, inside-out, disk-swapped partitions, 2 threads; same save, load, eval tail",
    },
    Workload {
        name: "train_cluster_loopback",
        why: "Comms-bound: wire, client, server and the three distsim state machines; 2 ranks x 1 thread over loopback TCP.",
        what: "lock + partition + parameter NetServers on 127.0.0.1:0, two train_rank threads over Net clients, twitter-like graph, 200k nodes / 500k edges, d=64, P=4; snapshot_model, save, load, eval",
    },
    Workload {
        name: "serve_topk",
        why: "Read path, scan-bound: top-k matmul over 51 MB of mmapped rows per request; the kernels used read-only.",
        what: "setup trains briefly, saves, mmaps a 100k x 128 table behind EmbedServer; POST /topk k=10: closed loop (2 clients), then open loop at fixed rates",
    },
    Workload {
        name: "serve_score",
        why: "Read path, protocol-bound: accept, request parse, JSON and response write on one connection per request.",
        what: "same model and phases as serve_topk, POST /score with a single destination",
    },
];

/// One end-to-end metric. Every workload reports every one of them; the
/// two columns say what the number is on each kind of workload.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the baseline median by which it may worsen.
    pub bound: f64,
    /// Meaning on the three `train_*` workloads.
    pub on_train: &'static str,
    /// Meaning on the two `serve_*` workloads.
    pub on_serve: &'static str,
}

/// The end-to-end metrics.
pub const END_TO_END: [EndToEnd; 8] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        on_train: "datagen + split + Trainer::new / bucketize (+ server start for the cluster); median of 5 set-ups",
        on_serve: "datagen + brief train + save + open_mmap + EmbedServer start; median of 3 set-ups",
    },
    EndToEnd {
        name: "throughput_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        on_train: "train_edges_per_s: edges trained / wall time of a train call, the median epoch (one call on the cluster)",
        on_serve: "serve_capacity_rps: closed-loop requests per second with 2 clients, the median of the phase's 10 segments",
    },
    EndToEnd {
        name: "quality",
        unit: "ratio",
        better: Better::Higher,
        bound: 0.15,
        on_train: "mrr: filtered MRR of held-out edges after the fixed epochs, from the reloaded checkpoint",
        on_serve: "goodput share: open-loop requests at r_hi answered 200 within the latency limit / sent",
    },
    EndToEnd {
        name: "latency_p50_ms",
        unit: "ms",
        better: Lower,
        bound: 0.25,
        on_train: "median wall time of one train call (an epoch; a rank's train_rank on the cluster)",
        on_serve: "serve_p50_ms: median latency from due time, open loop at r_hi, median window",
    },
    EndToEnd {
        name: "eval_edges_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        on_train: "held-out edges ranked per second by LinkPredictionEval (both sides, 1000 candidates, filtered), the median of 3 slices",
        on_serve: "the same offline evaluation over the served model: the read path without HTTP",
    },
    EndToEnd {
        name: "ckpt_roundtrip_mb_per_s",
        unit: "MB/s",
        better: Better::Higher,
        bound: 0.25,
        on_train: "embedding MB / (checkpoint::save + checkpoint::load), median of 5 round trips after one untimed warm-up",
        on_serve: "the same save + load over the served model",
    },
    EndToEnd {
        name: "peak_resident_emb_mb",
        unit: "MB",
        better: Lower,
        bound: 0.01,
        on_train: "EpochStats.peak_bytes (paper Table 3 memory column); on the cluster the partition bytes one rank may hold, a count",
        on_serve: "MmapEmbeddings::mapped_bytes of the served table",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Lower,
        bound: 0.25,
        on_train: "VmHWM of the workload process",
        on_serve: "VmHWM of the workload process (server and load generator)",
    },
];

/// Where a per-layer number comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// A benchmark-side span or service decorator in the traced pass.
    Span,
    /// Isolated timed calls to the layer's public function.
    Probe,
    /// A value the public API returns.
    Count,
}

impl Source {
    /// Lower-case label.
    pub fn as_str(self) -> &'static str {
        match self {
            Source::Span => "span",
            Source::Probe => "probe",
            Source::Count => "count",
        }
    }
}

/// One per-layer metric: `<layer>.<metric>`, layers are the repo's modules.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Where the number comes from.
    pub source: Source,
    /// The end-to-end metric it should move, and on which workload;
    /// everywhere else the prediction is no change.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    source: Source,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        source,
        moves,
    }
}

const TRAIN_MEM: &str = "throughput_per_s @ train_mem_social";
const TRAIN_DISK: &str = "throughput_per_s @ train_disk_kg";
const TRAIN_NET: &str = "throughput_per_s @ train_cluster_loopback";
const SETUP_TRAIN: &str = "setup_s @ train_*";
const CKPT: &str = "ckpt_roundtrip_mb_per_s @ all; setup_s @ serve_*";
const EVAL: &str = "eval_edges_per_s @ all";
const SERVE_TOPK: &str = "throughput_per_s, latency_p50_ms @ serve_topk";
const SERVE_SCORE: &str = "throughput_per_s, latency_p50_ms @ serve_score";
const SERVE_TAIL: &str = "latency_p50_ms, quality @ serve_*: a faster layer saves its share of service time below saturation, more near r_hi as queueing shrinks";
const FAILED: &str = "failed / attempted @ serve_*";
const NONE: &str = "none: instrument health";

/// The per-layer metrics, reported by the traced pass. A workload that
/// does not exercise a layer reports 0 for it.
pub const PER_LAYER: [PerLayer; 75] = [
    layer("datagen.generate_s", "s", Lower, Span, SETUP_TRAIN),
    layer(
        "graph.bucket.bucketize_edges_per_s",
        "1/s",
        Higher,
        Probe,
        SETUP_TRAIN,
    ),
    layer(
        "tensor.kernels.achieved_gflops",
        "GF/s",
        Higher,
        Count,
        "throughput_per_s @ train_mem_social (large), train_disk_kg (small)",
    ),
    layer(
        "tensor.kernels.peak_gflops",
        "GF/s",
        Higher,
        Probe,
        "throughput_per_s @ train_mem_social (large), train_disk_kg (small)",
    ),
    layer(
        "tensor.kernels.efficiency",
        "ratio",
        Higher,
        Count,
        "throughput_per_s @ train_*",
    ),
    layer(
        "core.negatives.sample_ns_per_chunk",
        "ns",
        Lower,
        Probe,
        TRAIN_MEM,
    ),
    layer(
        "tensor.adagrad.update_ns_per_row",
        "ns",
        Lower,
        Probe,
        TRAIN_MEM,
    ),
    layer("core.trainer.chunk_ns", "ns", Lower, Probe, TRAIN_MEM),
    layer(
        "core.trainer.chunk_unaccounted_share",
        "ratio",
        Lower,
        Probe,
        "throughput_per_s @ train_mem_social; operator share @ train_disk_kg",
    ),
    layer("core.trainer.compute_s", "s", Lower, Span, TRAIN_MEM),
    layer("core.trainer.sampling_s", "s", Lower, Span, TRAIN_MEM),
    layer("core.trainer.optimizer_s", "s", Lower, Span, TRAIN_MEM),
    layer(
        "core.trainer.hogwild_utilisation",
        "ratio",
        Higher,
        Span,
        TRAIN_MEM,
    ),
    layer(
        "core.trainer.trace_overhead",
        "ratio",
        Lower,
        Span,
        "none: ROADMAP 5e budget (untraced / traced edges per second)",
    ),
    layer("core.storage.loads", "count", Lower, Count, TRAIN_DISK),
    layer(
        "core.storage.prefetch_hits",
        "count",
        Higher,
        Count,
        TRAIN_DISK,
    ),
    layer(
        "core.storage.prefetch_hit_ratio",
        "ratio",
        Higher,
        Count,
        TRAIN_DISK,
    ),
    layer("core.storage.swap_wait_s", "s", Lower, Count, TRAIN_DISK),
    layer(
        "core.storage.swap_wait_share",
        "ratio",
        Lower,
        Count,
        TRAIN_DISK,
    ),
    layer("core.storage.writeback_mb", "MB", Lower, Count, TRAIN_DISK),
    layer(
        "core.storage.writeback_skipped_mb",
        "MB",
        Higher,
        Count,
        TRAIN_DISK,
    ),
    layer("core.buffer.evictions", "count", Lower, Count, TRAIN_DISK),
    layer(
        "core.storage.load_mb_per_s",
        "MB/s",
        Higher,
        Probe,
        "throughput_per_s @ train_disk_kg (the I/O floor under swap_wait_s)",
    ),
    layer(
        "core.storage.release_dirty_mb_per_s",
        "MB/s",
        Higher,
        Probe,
        "throughput_per_s @ train_disk_kg (the I/O floor under swap_wait_s)",
    ),
    layer(
        "graph.ordering.planned_loads",
        "count",
        Lower,
        Count,
        "throughput_per_s, peak_resident_emb_mb @ train_disk_kg",
    ),
    layer("core.checkpoint.save_mb_per_s", "MB/s", Higher, Span, CKPT),
    layer("core.checkpoint.load_mb_per_s", "MB/s", Higher, Span, CKPT),
    layer(
        "core.checkpoint.open_mmap_ms",
        "ms",
        Lower,
        Span,
        "setup_s @ serve_*",
    ),
    layer("core.eval.queries_per_s", "1/s", Higher, Span, EVAL),
    layer(
        "core.eval.gflops",
        "GF/s",
        Higher,
        Count,
        "eval_edges_per_s @ all (near zero: eval bypasses the blocked kernel, ROADMAP 3b)",
    ),
    layer("net.lock.acquire_wait_s", "s", Lower, Span, TRAIN_NET),
    layer("net.lock.acquire_calls", "count", Lower, Span, TRAIN_NET),
    layer(
        "net.lock.acquire_granted_ratio",
        "ratio",
        Higher,
        Span,
        TRAIN_NET,
    ),
    layer("net.partitions.checkout_s", "s", Lower, Span, TRAIN_NET),
    layer("net.partitions.checkin_s", "s", Lower, Span, TRAIN_NET),
    layer("net.partitions.checkout_mb", "MB", Lower, Span, TRAIN_NET),
    layer("net.partitions.checkin_mb", "MB", Lower, Span, TRAIN_NET),
    layer("net.params.push_pull_s", "s", Lower, Span, TRAIN_NET),
    layer(
        "net.params.push_pull_calls",
        "count",
        Lower,
        Span,
        TRAIN_NET,
    ),
    layer("net.rank.compute_s", "s", Lower, Span, TRAIN_NET),
    layer("net.rank.stall_share", "ratio", Lower, Span, TRAIN_NET),
    layer("net.wire.bytes_per_edge", "B", Lower, Count, TRAIN_NET),
    layer("net.wire.retries", "count", Lower, Count, TRAIN_NET),
    layer(
        "distsim.partitionserver.transfers",
        "count",
        Lower,
        Count,
        TRAIN_NET,
    ),
    layer(
        "distsim.lockserver.reaped",
        "count",
        Lower,
        Count,
        "failed / attempted @ train_cluster_loopback (must be 0)",
    ),
    layer("net.wire.encode_mb_per_s", "MB/s", Higher, Probe, TRAIN_NET),
    layer("net.wire.decode_mb_per_s", "MB/s", Higher, Probe, TRAIN_NET),
    layer(
        "net.partitions.roundtrip_mb_per_s",
        "MB/s",
        Higher,
        Probe,
        TRAIN_NET,
    ),
    layer("tensor.topk.query_ms", "ms", Lower, Probe, SERVE_TOPK),
    layer(
        "tensor.topk.scan_gb_per_s",
        "GB/s",
        Higher,
        Probe,
        SERVE_TOPK,
    ),
    layer(
        "core.model.score_ns",
        "ns",
        Lower,
        Probe,
        "throughput_per_s @ serve_score (tiny)",
    ),
    layer("telemetry.http.parse_us", "us", Lower, Probe, SERVE_SCORE),
    layer("telemetry.http.write_us", "us", Lower, Probe, SERVE_SCORE),
    layer("serve.connect_ms", "ms", Lower, Span, SERVE_TAIL),
    layer("serve.ttfb_ms", "ms", Lower, Span, SERVE_TAIL),
    layer("serve.read_ms", "ms", Lower, Span, SERVE_TAIL),
    layer("serve.http_overhead_ms", "ms", Lower, Span, SERVE_TAIL),
    layer(
        "serve.http_overhead_share",
        "ratio",
        Lower,
        Span,
        "latency_p50_ms: the share of an exchange that is not scan or dot product, < 0.3 @ serve_topk, > 0.7 @ serve_score",
    ),
    layer(
        "serve.capacity_rps",
        "1/s",
        Higher,
        Span,
        "throughput_per_s @ serve_*",
    ),
    layer("serve.rate.lo.rps", "1/s", Higher, Count, NONE),
    layer("serve.rate.lo.p50_ms", "ms", Lower, Span, SERVE_TAIL),
    layer("serve.rate.lo.tail_ms", "ms", Lower, Span, SERVE_TAIL),
    layer("serve.rate.hi.rps", "1/s", Higher, Count, NONE),
    layer("serve.rate.hi.p50_ms", "ms", Lower, Span, SERVE_TAIL),
    layer("serve.rate.hi.tail_ms", "ms", Lower, Span, SERVE_TAIL),
    layer("serve.max_ok_rps", "1/s", Higher, Span, SERVE_TAIL),
    layer(
        "loadgen.late_ms",
        "ms",
        Lower,
        Span,
        "none: how late the open-loop generator ran (p99)",
    ),
    layer("serve.status_non200", "count", Lower, Count, FAILED),
    layer("serve.connect_errors", "count", Lower, Count, FAILED),
    layer("serve.wrong_answers", "count", Lower, Count, FAILED),
    layer("serve.over_limit", "count", Lower, Count, FAILED),
    layer("trace.coverage_share", "ratio", Higher, Span, NONE),
    layer("trace.events", "count", Lower, Span, NONE),
    layer("trace.window_s", "s", Lower, Span, NONE),
    layer("bench.probe_s", "s", Lower, Span, NONE),
];

/// The workload named `name`.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Whether `name` is one of the serve workloads.
pub fn is_serve(name: &str) -> bool {
    name.starts_with("serve_")
}

/// The end-to-end metric named `name`.
pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

fn obj(entries: Vec<(&str, Value)>) -> Value {
    Value::Map(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn s(text: &str) -> Value {
    Value::Str(text.to_string())
}

/// The contents of `BENCHMARK.json`, generated from the catalogue.
pub fn benchmark_json() -> Value {
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
        "run",
    ];
    obj(vec![
        (
            "command",
            Value::Seq(command.iter().map(|c| s(c)).collect()),
        ),
        ("paths", Value::Seq(vec![s("benchmark")])),
        ("run_seconds", Value::U64(RUN_SECONDS)),
        (
            "workloads",
            Value::Seq(
                WORKLOADS
                    .iter()
                    .map(|w| obj(vec![("name", s(w.name)), ("why", s(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Seq(
                END_TO_END
                    .iter()
                    .map(|m| {
                        obj(vec![
                            ("name", s(m.name)),
                            ("unit", s(m.unit)),
                            ("better", s(m.better.as_str())),
                            ("bound", Value::F64(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Seq(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        obj(vec![
                            ("name", s(m.name)),
                            ("unit", s(m.unit)),
                            ("better", s(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// The human-readable catalogue `-- list` prints.
pub fn render_list() -> String {
    let mut out = String::new();
    out.push_str("WORKLOADS\n");
    for w in &WORKLOADS {
        out.push_str(&format!(
            "  {}\n    what: {}\n    why:  {}\n",
            w.name, w.what, w.why
        ));
    }
    out.push_str("\nEND-TO-END METRICS (every workload reports each; bound = allowed worsening)\n");
    for m in &END_TO_END {
        out.push_str(&format!(
            "  {:<24} {:<6} {:<6} better, bound {:.2}\n    train_*: {}\n    serve_*: {}\n",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound,
            m.on_train,
            m.on_serve
        ));
    }
    out.push_str("  failed / attempted       counted, not a metric: any failure fails the run (bound 0, absolute)\n");
    out.push_str("\nPER-LAYER METRICS (traced pass; 0 where a workload bypasses the layer)\n");
    for m in &PER_LAYER {
        out.push_str(&format!(
            "  {:<40} {:<6} {:<6} {:<5} -> {}\n",
            m.name,
            m.unit,
            m.better.as_str(),
            m.source.as_str(),
            m.moves
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn name_ok(name: &str) -> bool {
        let mut chars = name.chars();
        let first_ok = chars.next().is_some_and(|c| c.is_ascii_alphanumeric());
        first_ok
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn catalogue_fits_the_contract_limits() {
        let mut seen = HashSet::new();
        for w in &WORKLOADS {
            assert!(name_ok(w.name) && seen.insert(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in &END_TO_END {
            assert!(name_ok(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(unit_ok(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        for m in &PER_LAYER {
            assert!(name_ok(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(unit_ok(m.unit), "{} unit {}", m.name, m.unit);
        }
        assert!(PER_LAYER.len() <= 128);
        let setup = end_to_end("setup_s").expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let widest = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, widest, "setup_s carries the largest bound");
    }

    #[test]
    fn benchmark_json_at_the_repo_root_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert!(text.len() <= 64 * 1024);
        let on_disk: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        assert_eq!(
            on_disk,
            benchmark_json(),
            "regenerate with `-- list --benchmark-json > BENCHMARK.json`"
        );
    }
}
