//! Partitioned / disk-swapped training across the public API: Table 3
//! (left) in miniature — quality flat in P, memory falling in P.

use pbg::core::config::PbgConfig;
use pbg::core::eval::{CandidateSampling, LinkPredictionEval};
use pbg::core::trainer::{needed_keys, EpochPlan, Schedule, Storage, Trainer};
use pbg::datagen::presets;
use pbg::graph::ordering::BucketOrdering;
use pbg::graph::split::EdgeSplit;

fn config(epochs: usize) -> PbgConfig {
    PbgConfig::builder()
        .dim(32)
        .epochs(epochs)
        .batch_size(500)
        .chunk_size(50)
        .uniform_negatives(50)
        .threads(2)
        .build()
        .unwrap()
}

fn mrr_of(trainer: &Trainer, split: &EdgeSplit) -> f64 {
    LinkPredictionEval {
        num_candidates: 100,
        sampling: CandidateSampling::Prevalence,
        ..Default::default()
    }
    .evaluate(&trainer.snapshot(), &split.test, &split.train, &[])
    .mrr
}

#[test]
fn quality_flat_and_memory_falls_with_partitions() {
    let dataset = presets::freebase_like(0.000005, 9); // ~600 entities
    let split = EdgeSplit::ninety_five_five(&dataset.edges, 9);
    let mut results = Vec::new();
    for p in [1u32, 4, 8] {
        let schema = dataset.schema_with_partitions(p);
        let dir = std::env::temp_dir().join(format!("pbg_int_part_{p}_{}", std::process::id()));
        let storage = if p == 1 {
            Storage::InMemory
        } else {
            Storage::Disk(dir.clone())
        };
        let mut t = Trainer::with_storage(schema, &split.train, config(5), storage).unwrap();
        let peak = t.train().last().unwrap().peak_bytes;
        results.push((p, mrr_of(&t, &split), peak));
        std::fs::remove_dir_all(&dir).ok();
    }
    let (_, mrr1, mem1) = results[0];
    for &(p, mrr, mem) in &results[1..] {
        assert!(
            mem < mem1,
            "P={p}: peak {mem} not below unpartitioned {mem1}"
        );
        assert!(mrr > 0.5 * mrr1, "P={p}: MRR {mrr} collapsed vs P=1 {mrr1}");
    }
    // P=8 peak must be well under half of the full model
    let (_, _, mem8) = results[2];
    assert!(
        (mem8 as f64) < 0.45 * mem1 as f64,
        "P=8 peak {mem8} vs full {mem1}"
    );
}

/// One disk-backed epoch at P = 8 and `threads = 1` with a capacity-`b`
/// buffer: the partition loads the store counted, and the loads
/// [`EpochPlan`] plans for that epoch's bucket order.
fn measured_and_planned_loads(b: usize, ordering: BucketOrdering) -> (usize, usize) {
    let dataset = presets::freebase_like(0.000005, 9);
    let split = EdgeSplit::ninety_five_five(&dataset.edges, 9);
    let cfg = PbgConfig::builder()
        .dim(16)
        .epochs(1)
        .batch_size(500)
        .chunk_size(50)
        .uniform_negatives(20)
        .threads(1)
        .bucket_ordering(ordering)
        .buffer_size(b)
        .seed(7)
        .build()
        .unwrap();
    let dir = std::env::temp_dir().join(format!(
        "pbg_int_loads_b{b}_{}_{}",
        ordering.name(),
        std::process::id()
    ));
    let schema = dataset.schema_with_partitions(8);
    let storage = Storage::Disk(dir.clone());
    let mut t = Trainer::with_storage(schema, &split.train, cfg.clone(), storage).unwrap();
    let measured = t.train_epoch().swap_ins;
    std::fs::remove_dir_all(&dir).ok();
    let order = Schedule::new(&cfg, t.buckets()).order(1);
    let planned = EpochPlan::with_capacity(&order, |k| needed_keys(t.model(), k), b);
    (measured, planned.total_acquires())
}

#[test]
fn greedy_reuse_b4_loads_fewer_partitions_than_inside_out_b2() {
    let (base, base_planned) = measured_and_planned_loads(2, BucketOrdering::InsideOut);
    let (greedy, greedy_planned) = measured_and_planned_loads(4, BucketOrdering::GreedyReuse);
    assert_eq!(base, base_planned, "B=2 inside-out: loads vs plan");
    assert_eq!(greedy, greedy_planned, "B=4 greedy-reuse: loads vs plan");
    assert!(
        greedy as f64 <= 0.8 * base as f64,
        "B=4 greedy-reuse loads {greedy}, B=2 inside-out loads {base}"
    );
}

#[test]
fn all_invariant_satisfying_orderings_work() {
    let dataset = presets::livejournal_like(0.0001, 10); // ~500 nodes
    let split = EdgeSplit::seventy_five_twenty_five(&dataset.edges, 10);
    for ordering in [
        BucketOrdering::InsideOut,
        BucketOrdering::RowMajor,
        BucketOrdering::Chained,
    ] {
        let cfg = PbgConfig::builder()
            .dim(16)
            .epochs(4)
            .batch_size(200)
            .chunk_size(25)
            .uniform_negatives(25)
            .threads(2)
            .bucket_ordering(ordering)
            .build()
            .unwrap();
        let schema = dataset.schema_with_partitions(4);
        let mut t = Trainer::new(schema, &split.train, cfg).unwrap();
        t.train();
        let mrr = mrr_of(&t, &split);
        assert!(mrr > 0.05, "{ordering:?}: MRR {mrr}");
    }
}

#[test]
fn stratified_bucket_passes_match_plain_epochs() {
    let dataset = presets::livejournal_like(0.0001, 12);
    let split = EdgeSplit::seventy_five_twenty_five(&dataset.edges, 12);
    let schema = dataset.schema_with_partitions(2);
    let plain = {
        let mut t = Trainer::new(schema.clone(), &split.train, config(4)).unwrap();
        t.train();
        mrr_of(&t, &split)
    };
    let stratified = {
        let cfg = PbgConfig::builder()
            .dim(32)
            .epochs(4)
            .batch_size(500)
            .chunk_size(50)
            .uniform_negatives(50)
            .threads(2)
            .bucket_passes(3)
            .build()
            .unwrap();
        let mut t = Trainer::new(schema, &split.train, cfg).unwrap();
        t.train();
        mrr_of(&t, &split)
    };
    assert!(
        stratified > 0.5 * plain,
        "stratified {stratified} vs plain {plain}"
    );
}
