//! The tail every workload shares: `checkpoint::save` → `load` →
//! `LinkPredictionEval` on held-out edges, from the reloaded model.

use crate::inputs::PROGRAM_SEED;
use crate::report::Outcome;
use crate::stats::median;
use crate::trace::Tracer;
use pbg_core::checkpoint;
use pbg_core::eval::{CandidateSampling, LinkPredictionEval};
use pbg_core::model::TrainedEmbeddings;
use pbg_graph::split::EdgeSplit;
use pbg_tensor::kernels::flops_executed;
use std::path::Path;

/// Candidates ranked against per held-out edge and side.
pub const EVAL_CANDIDATES: usize = 1000;

/// What the tail measured.
#[derive(Debug, Clone, Copy)]
pub struct Tail {
    /// Filtered MRR of the held-out edges.
    pub mrr: f64,
    /// Held-out edges ranked per second.
    pub eval_edges_per_s: f64,
    /// Embedding MB / (save + load), median over the repetitions.
    pub ckpt_roundtrip_mb_per_s: f64,
    /// Embedding MB / save, median.
    pub save_mb_per_s: f64,
    /// Embedding MB / load, median.
    pub load_mb_per_s: f64,
    /// GF/s the blocked kernels executed during eval.
    pub eval_gflops: f64,
}

/// Timed save → load round trips; their median is what is reported.
pub const CKPT_REPS: usize = 5;

/// Slices the held-out edges are evaluated in; the median slice's rate is
/// `eval_edges_per_s`, so a host stall during one slice does not move it.
pub const EVAL_SLICES: usize = 3;

/// Saves `model` to `dir` and loads it back: once untimed (the first save
/// after training allocates fresh blocks behind whatever the disk is
/// still flushing, and runs at about half the steady rate), then
/// [`CKPT_REPS`] timed round trips. Evaluates the last reloaded copy on
/// `split.test` in [`EVAL_SLICES`] slices. Counts every held-out edge as
/// attempted and records the round-trip check in `outcome`.
pub fn checkpoint_and_eval(
    tracer: &Tracer,
    parent: u64,
    model: &TrainedEmbeddings,
    dir: &Path,
    split: &EdgeSplit,
    outcome: &mut Outcome,
) -> Tail {
    let mb = model.bytes() as f64 / 1e6;
    let (mut saves, mut loads, mut trips) = (Vec::new(), Vec::new(), Vec::new());
    let mut loaded = None;
    for rep in 0..=CKPT_REPS {
        std::fs::remove_dir_all(dir).ok();
        let (saved, save_s) = tracer.timed("core.checkpoint.save", parent, || {
            checkpoint::save(model, dir)
        });
        saved.expect("checkpoint::save");
        let (back, load_s) = tracer.timed("core.checkpoint.load", parent, || checkpoint::load(dir));
        loaded = Some(back.expect("checkpoint::load"));
        if rep > 0 {
            saves.push(mb / save_s);
            loads.push(mb / load_s);
            trips.push(mb / (save_s + load_s));
        }
    }
    let loaded = loaded.expect("at least one round trip");
    outcome.notes.push(format!(
        "checkpoint: {mb:.1} MB, 1 warm-up + {CKPT_REPS} timed round trips; save MB/s {saves:.0?}; load MB/s {loads:.0?}"
    ));
    let identical = loaded.embeddings.len() == model.embeddings.len()
        && loaded
            .embeddings
            .iter()
            .zip(&model.embeddings)
            .all(|(a, b)| a.as_slice() == b.as_slice());
    outcome.check(
        "checkpoint round trip is bit-identical",
        identical,
        format!("{mb:.1} MB x {} round trips", CKPT_REPS + 1),
    );

    let eval = LinkPredictionEval {
        num_candidates: EVAL_CANDIDATES,
        sampling: CandidateSampling::Uniform,
        filtered: true,
        both_sides: true,
        seed: PROGRAM_SEED,
    };
    let edges = split.test.len();
    let flops_before = flops_executed();
    let (mut rates, mut eval_s, mut ranked, mut sum_rr) = (Vec::new(), 0.0, 0usize, 0.0);
    for slice in split.test.chunks(EVAL_SLICES.min(edges).max(1)) {
        let (ranking, secs) = tracer.timed("core.eval.evaluate", parent, || {
            eval.evaluate(&loaded, &slice, &split.train, &[&split.train, &split.test])
        });
        rates.push(slice.len() as f64 / secs);
        eval_s += secs;
        ranked += ranking.count;
        sum_rr += ranking.mrr * ranking.count as f64;
    }
    let eval_flops = flops_executed() - flops_before;
    outcome.attempted += edges as u64;
    outcome.notes.push(format!(
        "eval: {edges} held-out edges in {} slices, {eval_s:.3} s; edges/s by slice {rates:.0?}",
        rates.len()
    ));
    Tail {
        mrr: sum_rr / ranked.max(1) as f64,
        eval_edges_per_s: median(&rates),
        ckpt_roundtrip_mb_per_s: median(&trips),
        save_mb_per_s: median(&saves),
        load_mb_per_s: median(&loads),
        eval_gflops: eval_flops as f64 / eval_s / 1e9,
    }
}

/// The checks every training workload shares: all edges were trained
/// (every missing edge is a failed operation) and the MRR clears its
/// committed floor.
pub fn check_trained(
    outcome: &mut Outcome,
    want_edges: usize,
    edges_trained: usize,
    mrr: f64,
    mrr_floor: f64,
) {
    outcome.attempted += want_edges as u64;
    outcome.failed += want_edges.abs_diff(edges_trained) as u64;
    outcome.check(
        "edges trained = epochs x |E_train|",
        edges_trained == want_edges,
        format!("{edges_trained} of {want_edges}"),
    );
    outcome.check(
        "mrr above the committed floor",
        mrr >= mrr_floor,
        format!("{mrr:.4} >= {mrr_floor:.2}"),
    );
}

impl Tail {
    /// Writes the tail's end-to-end or per-layer metrics into `outcome`.
    pub fn report(&self, traced: bool, outcome: &mut Outcome) {
        if traced {
            outcome.set("core.checkpoint.save_mb_per_s", self.save_mb_per_s);
            outcome.set("core.checkpoint.load_mb_per_s", self.load_mb_per_s);
            // both sides of every edge are ranked
            outcome.set("core.eval.queries_per_s", 2.0 * self.eval_edges_per_s);
            outcome.set("core.eval.gflops", self.eval_gflops);
        } else {
            outcome.set("eval_edges_per_s", self.eval_edges_per_s);
            outcome.set("ckpt_roundtrip_mb_per_s", self.ckpt_roundtrip_mb_per_s);
        }
    }
}
