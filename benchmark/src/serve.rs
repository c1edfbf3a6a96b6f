//! The two read-path workloads: `serve_topk` (scan-bound) and
//! `serve_score` (protocol-bound) against one `EmbedServer` over a
//! memory-mapped checkpoint.

use crate::envelope::peak_rss_mb;
use crate::inputs::{self, GraphKind, GraphSpec, Query, PROGRAM_SEED};
use crate::loadgen::{self, Exchange, Sample, SENDERS};
use crate::probes;
use crate::report::{Outcome, RunOpts};
use crate::stats::{
    highest_supported_percentile, highest_supported_windowed, median, sorted_windows,
    windowed_percentile, Percentile,
};
use crate::tail::checkpoint_and_eval;
use crate::trace::{Tracer, ROOT};
use pbg_core::checkpoint;
use pbg_core::config::PbgConfig;
use pbg_core::model::{MmapEmbeddings, TrainedEmbeddings};
use pbg_core::trainer::Trainer;
use pbg_graph::split::EdgeSplit;
use pbg_graph::RelationTypeId;
use pbg_serve::{EmbedServer, ServeConfig};
use pbg_telemetry::span::SpanEvent;
use serde_json::{json, Value};
use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

/// Which endpoint a serve workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoint {
    /// `POST /topk`, k = 10.
    TopK,
    /// `POST /score`, one destination.
    Score,
}

/// Sizing of one serve workload.
#[derive(Debug, Clone, Copy)]
pub struct ServeSpec {
    /// Endpoint under load.
    pub endpoint: Endpoint,
    /// The graph the set-up trains briefly on (the table is nodes x dim).
    pub graph: GraphSpec,
    /// Embedding dimension.
    pub dim: usize,
    /// Results per `/topk` answer.
    pub k: usize,
    /// Held-out edges for the offline eval tail.
    pub holdout: usize,
    /// Latency limit in ms: a slower request counts as failed.
    pub limit_ms: f64,
    /// Open-loop rates, requests per second: low, high and probing.
    /// Constants, about 0.25 / 0.4 / 0.65 of the reference host's
    /// closed-loop capacity; nothing is tuned at run time. The end-to-end
    /// pass measures at the middle one (`r_hi`).
    pub rates: [f64; 3],
    /// Answers checked against the offline model.
    pub verify: usize,
}

const SERVED_GRAPH: GraphSpec = GraphSpec {
    kind: GraphKind::Social {
        intra_prob: 0.8,
        zipf_exponent: 1.0,
    },
    nodes: 100_000,
    edges: 203_000,
    communities: 128,
};

/// `serve_topk`: every request scans the whole 51 MB table.
pub const TOPK: ServeSpec = ServeSpec {
    endpoint: Endpoint::TopK,
    graph: SERVED_GRAPH,
    dim: 128,
    k: 10,
    holdout: 3_000,
    limit_ms: 50.0,
    rates: [60.0, 95.0, 150.0],
    verify: 50,
};

/// `serve_score`: every request is one dot product and one connection.
pub const SCORE: ServeSpec = ServeSpec {
    endpoint: Endpoint::Score,
    graph: SERVED_GRAPH,
    dim: 128,
    k: 10,
    holdout: 3_000,
    limit_ms: 5.0,
    rates: [3_000.0, 5_000.0, 9_000.0],
    verify: 200,
};

impl ServeSpec {
    fn quick(mut self) -> ServeSpec {
        self.graph = self.graph.quick();
        self.holdout = 200;
        self.verify = 20;
        self
    }

    fn path(&self) -> &'static str {
        match self.endpoint {
            Endpoint::TopK => "/topk",
            Endpoint::Score => "/score",
        }
    }

    fn body(&self, q: Query) -> String {
        match self.endpoint {
            Endpoint::TopK => format!("{{\"src\": {}, \"rel\": 0, \"k\": {}}}", q.src, self.k),
            Endpoint::Score => {
                format!("{{\"src\": {}, \"rel\": 0, \"dsts\": [{}]}}", q.src, q.dst)
            }
        }
    }
}

struct Ready {
    split: EdgeSplit,
    snapshot: TrainedEmbeddings,
    model: Arc<MmapEmbeddings>,
    server: EmbedServer,
    datagen_s: f64,
    open_mmap_ms: f64,
}

/// One set-up: datagen, a brief training run, save, `open_mmap`, server
/// start — what stands between a graph and a serving endpoint.
fn set_up(spec: &ServeSpec, opts: &RunOpts, tracer: &Tracer, dir: &Path) -> Ready {
    let span = tracer.span("setup", ROOT);
    let (edges, datagen_s) = tracer.timed("datagen.generate", span.id(), || {
        spec.graph.generate(opts.seed)
    });
    let (split, _) = tracer.timed("graph.split", span.id(), || {
        inputs::split(&edges, spec.holdout, opts.seed)
    });
    let config = PbgConfig::builder()
        .dim(spec.dim)
        .epochs(1)
        .threads(crate::train::THREADS)
        .seed(PROGRAM_SEED)
        .build()
        .expect("benchmark config is valid");
    let (snapshot, _) = tracer.timed("core.trainer.train_briefly", span.id(), || {
        let mut trainer =
            Trainer::new(spec.graph.schema(1), &split.train, config).expect("trainer set-up");
        trainer.train();
        trainer.snapshot()
    });
    std::fs::remove_dir_all(dir).ok();
    tracer
        .timed("core.checkpoint.save", span.id(), || {
            checkpoint::save(&snapshot, dir)
        })
        .0
        .expect("checkpoint::save");
    let (model, open_s) = tracer.timed("core.checkpoint.open_mmap", span.id(), || {
        checkpoint::open_mmap(dir)
    });
    let model = Arc::new(model.expect("checkpoint::open_mmap"));
    let (server, _) = tracer.timed("serve.start", span.id(), || {
        EmbedServer::serve(
            "127.0.0.1:0",
            Arc::clone(&model),
            tracer.registry().clone(),
            ServeConfig {
                rate_limit_rps: 0.0, // the limiter is off; zero 429s proves it
                ..ServeConfig::default()
            },
        )
    });
    Ready {
        split,
        snapshot,
        model,
        server: server.expect("EmbedServer::serve"),
        datagen_s,
        open_mmap_ms: open_s * 1e3,
    }
}

/// Where in the query stream the closed-loop phase starts (the warm-up
/// uses the queries before it; each later phase starts 8 192 further on).
const FIRST_OFFSET: usize = 1 << 12;

/// Rounds the load is cut into. Every round runs one segment of the
/// closed loop and one of each open-loop step, so each phase samples the
/// whole measured window instead of one stretch of it: this host's slow
/// spells last 3–10 s, which was all of a phase and is now a few of its
/// segments.
const ROUNDS: usize = 10;

/// One open-loop step at a fixed rate.
struct Step {
    /// Span name.
    span: &'static str,
    /// Index into [`ServeSpec::rates`]; also what tells the steps' query
    /// offsets and arrival seeds apart.
    rate: usize,
    /// Per-layer metric names (sent rps, p50, tail), for the steps that
    /// report them.
    metrics: Option<[&'static str; 3]>,
}

/// The steps of the traced pass; the end-to-end pass runs [`HI`] alone,
/// for longer.
const STEPS: [Step; 3] = [
    Step {
        span: "serve.open_loop.lo",
        rate: 0,
        metrics: Some([
            "serve.rate.lo.rps",
            "serve.rate.lo.p50_ms",
            "serve.rate.lo.tail_ms",
        ]),
    },
    Step {
        span: "serve.open_loop.hi",
        rate: HI,
        metrics: Some([
            "serve.rate.hi.rps",
            "serve.rate.hi.p50_ms",
            "serve.rate.hi.tail_ms",
        ]),
    },
    Step {
        span: "serve.open_loop.probe",
        rate: 2,
        metrics: None,
    },
];

/// The step (`r_hi`) the end-to-end latencies are measured at.
const HI: usize = 1;

/// The tail percentile reported per layer and in the notes, when the
/// phase supports it with ten samples beyond in every window.
const TAIL: f64 = 99.0;

/// Counts of what went wrong in a phase.
#[derive(Debug, Default, Clone, Copy)]
struct Failures {
    non200: u64,
    connect_errors: u64,
    over_limit: u64,
}

/// One round's stretch of a phase: its requests (times are from the
/// segment's start, indices count through the phase) and how long it ran.
struct Segment {
    samples: Vec<Sample>,
    wall_s: f64,
}

/// One load phase, summarised: its segments, one per round, in order. Its
/// rate is the median segment's and its latency statistics are medians
/// over consecutive windows of its requests (see
/// [`crate::stats::sorted_windows`]), so a stall that hits a few segments
/// or windows does not move them; every stalled request still counts in
/// `failures.over_limit` and so in the goodput share.
struct Phase {
    segments: Vec<Segment>,
    windows: Vec<Vec<f64>>,
    failures: Failures,
}

impl Phase {
    fn new(segments: Vec<Segment>, limit_ms: f64) -> Phase {
        let mut failures = Failures::default();
        let mut latencies_ms = Vec::new();
        for s in segments.iter().flat_map(|g| &g.samples) {
            let ms = s.latency_ns() as f64 / 1e6;
            if s.exchange.connect_error {
                failures.connect_errors += 1;
            } else if s.exchange.status != 200 {
                failures.non200 += 1;
            } else if ms > limit_ms {
                failures.over_limit += 1;
            }
            latencies_ms.push(ms);
        }
        Phase {
            segments,
            windows: sorted_windows(&latencies_ms),
            failures,
        }
    }

    /// Every request of the phase, in order.
    fn samples(&self) -> impl Iterator<Item = &Sample> {
        self.segments.iter().flat_map(|g| &g.samples)
    }

    /// Requests sent.
    fn len(&self) -> usize {
        self.segments.iter().map(|g| g.samples.len()).sum()
    }

    /// Requests per second of each segment.
    fn rps_by_segment(&self) -> Vec<f64> {
        self.segments
            .iter()
            .map(|g| g.samples.len() as f64 / g.wall_s)
            .collect()
    }

    /// Requests per second: the median segment.
    fn rps(&self) -> f64 {
        median(&self.rps_by_segment())
    }

    fn p50_ms(&self) -> f64 {
        windowed_percentile(&self.windows, 50.0).value
    }

    /// Tail latency: the highest percentile, up to [`TAIL`], that every
    /// window supports with ten samples beyond it; the median window's
    /// value.
    fn tail(&self) -> Percentile {
        highest_supported_windowed(&self.windows, TAIL)
    }

    /// How late the generator started its requests, ms: p99 when the
    /// phase supports it.
    fn late_tail(&self) -> Percentile {
        let mut late: Vec<f64> = self.samples().map(|s| s.late_ns() as f64 / 1e6).collect();
        late.sort_by(f64::total_cmp);
        highest_supported_percentile(&late, 99.0)
    }

    /// Requests that did not get a correct-looking answer at all.
    fn failed(&self) -> u64 {
        self.failures.non200 + self.failures.connect_errors
    }

    /// Mean lateness of the segments' last quarters over their first
    /// quarters: a backlog that grows while the generator sends shows as
    /// a large ratio.
    fn backlog_grows(&self, limit_ms: f64) -> bool {
        let late_ms = |s: &Sample| s.late_ns() as f64 / 1e6;
        let (mut first, mut last) = (Vec::new(), Vec::new());
        for g in &self.segments {
            let quarter = g.samples.len() / 4;
            first.extend(g.samples[..quarter].iter().map(late_ms));
            last.extend(g.samples[g.samples.len() - quarter..].iter().map(late_ms));
        }
        if first.len() < 2 {
            return false;
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        mean(&last) > limit_ms.max(4.0 * mean(&first))
    }
}

struct Driver<'a> {
    spec: &'a ServeSpec,
    addr: SocketAddr,
    bodies: &'a [String],
    tracer: &'a Tracer,
}

impl Driver<'_> {
    /// Sends request `i` of a phase whose queries start at `offset`. Only
    /// the first answers of a phase are ever compared with the offline
    /// model: the other bodies are dropped here instead of being held for
    /// the whole run.
    fn send(&self, offset: usize, i: usize) -> Exchange {
        let mut exchange = loadgen::post(
            self.addr,
            self.spec.path(),
            &self.bodies[(offset + i) % self.bodies.len()],
        );
        if i >= 2 * self.spec.verify {
            exchange.body = String::new();
        }
        exchange
    }

    /// Records client-side spans for a sample of a segment's requests:
    /// request → connect / wait for first byte / read.
    fn record(&self, segment_span: u64, segment_t0: u64, samples: &[Sample]) {
        if !self.tracer.enabled() {
            return;
        }
        let every = (samples.len() * ROUNDS / 2000).max(1);
        for s in samples.iter().step_by(every) {
            let x = &s.exchange;
            let t0 = segment_t0 + s.start_ns;
            let id = self
                .tracer
                .record("serve.request", segment_span, t0, x.total_ns);
            self.tracer.record("serve.connect", id, t0, x.connect_ns);
            self.tracer.record(
                "serve.ttfb",
                id,
                t0 + x.connect_ns,
                x.ttfb_ns.saturating_sub(x.connect_ns),
            );
            self.tracer.record(
                "serve.read",
                id,
                t0 + x.ttfb_ns,
                x.total_ns.saturating_sub(x.ttfb_ns),
            );
        }
    }

    /// Runs one segment under a span: `load(first)` sends the segment's
    /// requests, `first` being how many the phase has sent before it.
    fn segment(
        &self,
        name: &'static str,
        parent: u64,
        before: &[Segment],
        load: impl FnOnce(usize) -> Vec<Sample>,
    ) -> Segment {
        let first: usize = before.iter().map(|g| g.samples.len()).sum();
        let span = self.tracer.span(name, parent);
        let t0 = self.tracer.now_ns();
        let mut samples = load(first);
        let wall_s = (self.tracer.now_ns() - t0) as f64 * 1e-9;
        for s in &mut samples {
            s.index += first;
        }
        self.record(span.id(), t0, &samples);
        Segment { samples, wall_s }
    }

    /// The next closed-loop segment of a phase that sent `before`.
    fn closed(
        &self,
        name: &'static str,
        parent: u64,
        offset: usize,
        before: &[Segment],
        seconds: f64,
    ) -> Segment {
        self.segment(name, parent, before, |first| {
            loadgen::closed_loop(SENDERS, Duration::from_secs_f64(seconds), |i| {
                self.send(offset, first + i)
            })
        })
    }

    /// The next open-loop segment of `step`, on its own arrival schedule.
    fn open(
        &self,
        step: &Step,
        parent: u64,
        seed: u64,
        before: &[Segment],
        seconds: f64,
    ) -> Segment {
        let offset = FIRST_OFFSET + ((step.rate + 1) << 13);
        let rate = self.spec.rates[step.rate];
        let schedule_seed = seed + (before.len() * STEPS.len() + step.rate) as u64;
        let schedule = inputs::arrival_schedule(schedule_seed, rate, seconds);
        self.segment(step.span, parent, before, |first| {
            loadgen::open_loop(SENDERS, &schedule, |i| self.send(offset, first + i))
        })
    }
}

/// Whether the served answer to `query` equals the offline model's.
fn answer_matches(spec: &ServeSpec, model: &MmapEmbeddings, query: Query, body: &str) -> bool {
    let Ok(v) = serde_json::from_str::<Value>(body) else {
        return false;
    };
    let rel = RelationTypeId(0);
    match spec.endpoint {
        Endpoint::TopK => {
            let offline = model.top_destinations(query.src, rel, spec.k);
            let Value::Seq(results) = &v["results"] else {
                return false;
            };
            // ids and order; scores to f32 exactness
            results.len() == offline.len()
                && results.iter().zip(&offline).all(|(r, (dst, score))| {
                    r["dst"].as_u64() == Some(u64::from(*dst))
                        && r["score"].as_f64().map(|s| (s as f32).to_bits())
                            == Some(score.to_bits())
                })
        }
        Endpoint::Score => {
            let offline = model.score(query.src, rel, query.dst);
            v["scores"][0].as_f64().map(|s| (s as f32).to_bits()) == Some(offline.to_bits())
        }
    }
}

/// Runs one serve workload.
pub fn run(spec: ServeSpec, opts: &RunOpts) -> (Outcome, Tracer, Vec<SpanEvent>) {
    let spec = if opts.quick { spec.quick() } else { spec };
    let tracer = Tracer::new(opts.workload, opts.traced);
    let mut out = Outcome::default();
    let served = opts.out_dir.join(format!("served-{}", opts.workload));
    let ckpt = opts.out_dir.join(format!("ckpt-{}", opts.workload));

    let (ready, setups) =
        tracer.repeat_set_up(opts.setups(3), || set_up(&spec, opts, &tracer, &served));
    let Ready {
        split,
        snapshot,
        model,
        server,
        datagen_s,
        open_mmap_ms,
    } = ready;

    let queries = inputs::query_stream(opts.seed, 1 << 16, spec.graph.nodes);
    let bodies: Vec<String> = queries.iter().map(|&q| spec.body(q)).collect();
    let driver = Driver {
        spec: &spec,
        addr: server.local_addr(),
        bodies: &bodies,
        tracer: &tracer,
    };
    // phase lengths as shares of --seconds; the quick pass keeps every
    // phase short and so cannot support a p99
    let seconds = if opts.quick { 1.2 } else { opts.seconds };

    // ---- measured window ----
    let measure = tracer.span("measure", ROOT);
    let load = tracer.span("load", measure.id());
    // the first requests fault the mapped shard in: not timed
    driver.closed("serve.warmup", load.id(), 0, &[], 0.02 * seconds);
    // the traced pass runs every step, the end-to-end pass `r_hi` alone,
    // for longer
    let (steps, step_share) = if opts.traced {
        (&STEPS[..], 0.2)
    } else {
        (&STEPS[HI..=HI], 0.75)
    };
    let (closed_s, open_s) = (
        0.2 * seconds / ROUNDS as f64,
        step_share * seconds / ROUNDS as f64,
    );
    let mut closed = Vec::with_capacity(ROUNDS);
    let mut open: Vec<Vec<Segment>> = steps.iter().map(|_| Vec::new()).collect();
    for _ in 0..ROUNDS {
        let segment = driver.closed(
            "serve.closed_loop",
            load.id(),
            FIRST_OFFSET,
            &closed,
            closed_s,
        );
        closed.push(segment);
        for (step, segments) in steps.iter().zip(&mut open) {
            let segment = driver.open(step, load.id(), opts.seed, segments, open_s);
            segments.push(segment);
        }
    }
    let capacity = Phase::new(closed, spec.limit_ms);
    let phases: Vec<(&Step, Phase)> = steps
        .iter()
        .zip(open)
        .map(|(step, segments)| (step, Phase::new(segments, spec.limit_ms)))
        .collect();
    drop(load);
    let tail_span = tracer.span("tail", measure.id());
    let tail = checkpoint_and_eval(&tracer, tail_span.id(), &snapshot, &ckpt, &split, &mut out);
    drop(tail_span);
    drop(measure);

    // ---- correctness ----
    let checks = tracer.span("checks", ROOT);
    let hi = phases
        .iter()
        .find(|(step, _)| step.rate == HI)
        .map(|(_, p)| p)
        .expect("every pass runs the high-rate phase");
    let mut failures = capacity.failures;
    let mut requests = capacity.len() as u64;
    for (_, p) in &phases {
        failures.non200 += p.failures.non200;
        failures.connect_errors += p.failures.connect_errors;
        failures.over_limit += p.failures.over_limit;
        requests += p.len() as u64;
    }
    let throttled = capacity
        .samples()
        .chain(phases.iter().flat_map(|(_, p)| p.samples()))
        .filter(|s| s.exchange.status == 429)
        .count();
    let verified: Vec<&Sample> = capacity
        .samples()
        .filter(|s| s.exchange.status == 200)
        .take(spec.verify)
        .collect();
    let wrong = verified
        .iter()
        .filter(|s| {
            let query = queries[(FIRST_OFFSET + s.index) % queries.len()];
            !answer_matches(&spec, &model, query, &s.exchange.body)
        })
        .count();
    out.attempted += requests;
    // a request over its latency limit misses the goodput share; it is
    // not a failed operation
    out.failed += failures.non200 + failures.connect_errors + wrong as u64;
    out.check(
        "sampled answers equal the offline model (ids, order, f32-exact scores)",
        wrong == 0 && verified.len() == spec.verify,
        format!("{wrong} wrong of {} checked", verified.len()),
    );
    out.check(
        "zero 429s (the limiter is off), zero non-200, zero connect errors",
        throttled == 0 && failures.non200 == 0 && failures.connect_errors == 0,
        format!(
            "{throttled} throttled, {} non-200, {} connect errors over {requests} connections",
            failures.non200, failures.connect_errors
        ),
    );
    drop(checks);

    // ---- report ----
    out.config("endpoint", json!(spec.path()));
    out.config(
        "table",
        json!(format!("{} x {}", spec.graph.nodes, spec.dim)),
    );
    out.config("mapped_mb", json!(model.mapped_bytes() as f64 / 1e6));
    out.config("k", json!(spec.k as u64));
    out.config("latency_limit_ms", json!(spec.limit_ms));
    out.config("rates_rps", json!(spec.rates.to_vec()));
    out.config("senders", json!(SENDERS as u64));
    out.config("arrivals", json!("poisson, timed from due time"));
    out.notes.push(format!(
        "closed loop: {} requests, {:.1} rps (by round: {:.0?}), p50 {:.3} ms; failures {:?}",
        capacity.len(),
        capacity.rps(),
        capacity.rps_by_segment(),
        capacity.p50_ms(),
        failures
    ));
    for (step, p) in &phases {
        let (name, rate) = (step.span, spec.rates[step.rate]);
        let t = p.tail();
        let late = p.late_tail();
        out.notes.push(format!(
            "{name}: due {rate} rps, sent {:.1} rps, {} requests in {} windows, exchange p50 {:.3} ms, from due time p50 {:.3} / p90 {:.3} / p95 {:.3} / p99 {:.3} ms; tail = p{} {:.3} ms ({} beyond per window), late p{} {:.3} ms, over limit {}",
            p.rps(),
            p.len(),
            p.windows.len(),
            median(&p.samples().map(|s| s.exchange.total_ns as f64 / 1e6).collect::<Vec<_>>()),
            p.p50_ms(),
            windowed_percentile(&p.windows, 90.0).value,
            windowed_percentile(&p.windows, 95.0).value,
            windowed_percentile(&p.windows, 99.0).value,
            t.percentile,
            t.value,
            t.beyond,
            late.percentile,
            late.value,
            p.failures.over_limit
        ));
    }
    tail.report(opts.traced, &mut out);

    let mut events = Vec::new();
    if opts.traced {
        let probe_span = tracer.span("probes", ROOT);
        let sources: Vec<u32> = queries.iter().take(256).map(|q| q.src).collect();
        let (read, _) = tracer.timed("probe.read_path", probe_span.id(), || {
            probes::read_path(&model, &sources, spec.k)
        });
        let sample_response = capacity
            .samples()
            .next()
            .map(|s| s.exchange.body.clone())
            .unwrap_or_default();
        let (http, _) = tracer.timed("probe.telemetry.http", probe_span.id(), || {
            probes::http(&bodies[0], &sample_response)
        });
        drop(probe_span);

        let mean_ms = |f: fn(&Exchange) -> u64| {
            hi.samples().map(|s| f(&s.exchange) as f64).sum::<f64>() / hi.len().max(1) as f64 / 1e6
        };
        let compute_ms = match spec.endpoint {
            Endpoint::TopK => read.topk_query_ms,
            Endpoint::Score => read.score_ns / 1e6,
        };
        // what an exchange costs beyond its scan or dot product; the
        // median over all open-loop phases, so that queueing (which the
        // from-due-time latencies carry) and a stall in one phase stay out
        let exchange_ms: Vec<f64> = phases
            .iter()
            .flat_map(|(_, p)| p.samples())
            .map(|s| s.exchange.total_ns as f64 / 1e6)
            .collect();
        let service_ms = median(&exchange_ms);
        let overhead_ms = (service_ms - compute_ms).max(0.0);
        let max_ok = phases
            .iter()
            .filter(|(_, p)| {
                p.tail().value <= spec.limit_ms
                    && !p.backlog_grows(spec.limit_ms)
                    && p.failed() == 0
                    && p.failures.over_limit * 100 <= p.len() as u64
            })
            .map(|(step, _)| spec.rates[step.rate])
            .fold(0.0, f64::max);
        out.set("datagen.generate_s", datagen_s);
        out.set("core.checkpoint.open_mmap_ms", open_mmap_ms);
        out.set("tensor.topk.query_ms", read.topk_query_ms);
        out.set("tensor.topk.scan_gb_per_s", read.topk_scan_gb_per_s);
        out.set("core.model.score_ns", read.score_ns);
        out.set("telemetry.http.parse_us", http.parse_us);
        out.set("telemetry.http.write_us", http.write_us);
        out.set("serve.connect_ms", mean_ms(|x| x.connect_ns));
        out.set(
            "serve.ttfb_ms",
            mean_ms(|x| x.ttfb_ns.saturating_sub(x.connect_ns)),
        );
        out.set(
            "serve.read_ms",
            mean_ms(|x| x.total_ns.saturating_sub(x.ttfb_ns)),
        );
        out.set("serve.http_overhead_ms", overhead_ms);
        out.set("serve.http_overhead_share", overhead_ms / service_ms);
        out.set("serve.capacity_rps", capacity.rps());
        for (step, p) in &phases {
            if let Some([rps, p50, tail]) = step.metrics {
                out.set(rps, p.rps());
                out.set(p50, p.p50_ms());
                out.set(tail, p.tail().value);
            }
        }
        out.set("serve.max_ok_rps", max_ok);
        out.set("loadgen.late_ms", hi.late_tail().value);
        out.set("serve.status_non200", failures.non200 as f64);
        out.set("serve.connect_errors", failures.connect_errors as f64);
        out.set("serve.wrong_answers", wrong as f64);
        out.set("serve.over_limit", failures.over_limit as f64);
        events = tracer.drain();
    } else {
        let good = hi.len() as u64 - hi.failed() - hi.failures.over_limit;
        out.set("setup_s", median(&setups));
        out.set("throughput_per_s", capacity.rps());
        out.set("quality", good as f64 / hi.len().max(1) as f64);
        out.set("latency_p50_ms", hi.p50_ms());
        out.set("peak_resident_emb_mb", model.mapped_bytes() as f64 / 1e6);
        out.set("peak_rss_mb", peak_rss_mb());
    }
    drop(server);
    std::fs::remove_dir_all(&served).ok();
    std::fs::remove_dir_all(&ckpt).ok();
    (out, tracer, events)
}
