//! Property-based tests over the core training machinery.

use pbg_core::config::{LossKind, PbgConfig, SimilarityKind};
use pbg_core::loss;
use pbg_core::negatives::{candidate_offsets, mask_induced_positives};
use pbg_core::operator;
use pbg_core::similarity::{score_matrix, score_pairs};
use pbg_core::storage::PartitionKey;
use pbg_core::trainer::EpochPlan;
use pbg_graph::bucket::BucketId;
use pbg_graph::buffer::{PartitionBuffer, DEFAULT_CAPACITY};
use pbg_graph::ordering::{self, BucketOrdering};
use pbg_graph::schema::OperatorKind;
use pbg_tensor::matrix::Matrix;
use pbg_tensor::rng::Xoshiro256;
use proptest::prelude::*;
use std::collections::HashSet;

fn arb_matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-3.0f32..3.0, rows * cols)
        .prop_map(move |v| Matrix::from_vec(rows, cols, v))
}

/// Needed-set function for a homogeneous P×P bucket grid: {src, dst}.
fn grid_needed(b: BucketId) -> HashSet<PartitionKey> {
    [
        PartitionKey::new(0u32, b.src.0),
        PartitionKey::new(0u32, b.dst.0),
    ]
    .into_iter()
    .collect()
}

proptest! {
    #[test]
    fn operators_preserve_shape(
        input in arb_matrix(3, 4),
        params in proptest::collection::vec(-2.0f32..2.0, 16),
    ) {
        for op in [
            OperatorKind::Identity,
            OperatorKind::Translation,
            OperatorKind::Diagonal,
            OperatorKind::ComplexDiagonal,
            OperatorKind::Linear,
        ] {
            let p = &params[..op.param_count(4)];
            let out = operator::apply(op, p, &input);
            prop_assert_eq!(out.rows(), 3);
            prop_assert_eq!(out.cols(), 4);
            let probe = Matrix::from_vec(3, 4, vec![0.5; 12]);
            let (gi, gp) = operator::backward(op, p, &input, &probe);
            prop_assert_eq!(gi.rows(), 3);
            prop_assert_eq!(gi.cols(), 4);
            prop_assert_eq!(gp.len(), op.param_count(4));
        }
    }

    #[test]
    fn translation_is_additive(
        input in arb_matrix(2, 4),
        p1 in proptest::collection::vec(-2.0f32..2.0, 4),
        p2 in proptest::collection::vec(-2.0f32..2.0, 4),
    ) {
        // applying translations p1 then p2 equals translating by p1+p2
        let step1 = operator::apply(OperatorKind::Translation, &p1, &input);
        let step2 = operator::apply(OperatorKind::Translation, &p2, &step1);
        let sum: Vec<f32> = p1.iter().zip(&p2).map(|(a, b)| a + b).collect();
        let direct = operator::apply(OperatorKind::Translation, &sum, &input);
        for i in 0..2 {
            for j in 0..4 {
                prop_assert!((step2.row(i)[j] - direct.row(i)[j]).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn score_matrix_diagonal_equals_pairs(
        a in arb_matrix(4, 6),
        b in arb_matrix(4, 6),
    ) {
        for sim in [SimilarityKind::Dot, SimilarityKind::Cosine] {
            let pairs = score_pairs(sim, &a, &b);
            let matrix = score_matrix(sim, &a, &b);
            for (i, &p) in pairs.iter().enumerate() {
                prop_assert!((p - matrix.row(i)[i]).abs() < 1e-3);
            }
        }
    }

    #[test]
    fn losses_are_nonnegative_with_sane_grads(
        pos in proptest::collection::vec(-3.0f32..3.0, 3),
        neg in proptest::collection::vec(-3.0f32..3.0, 9),
        margin in 0.0f32..0.5,
    ) {
        let neg = Matrix::from_vec(3, 3, neg);
        let w = vec![1.0f32; 3];
        for kind in [LossKind::MarginRanking, LossKind::Logistic, LossKind::Softmax] {
            let out = loss::compute(kind, margin, &pos, &neg, &w);
            prop_assert!(out.loss >= 0.0, "{:?} loss {}", kind, out.loss);
            prop_assert!(out.loss.is_finite());
            for g in &out.grad_pos {
                prop_assert!(g.is_finite());
                // increasing the positive score can never increase the loss
                prop_assert!(*g <= 1e-6, "{:?} grad_pos {}", kind, g);
            }
            for g in out.grad_neg.as_slice() {
                prop_assert!(g.is_finite());
                // increasing a negative score can never decrease the loss
                prop_assert!(*g >= -1e-6, "{:?} grad_neg {}", kind, g);
            }
        }
    }

    #[test]
    fn masking_is_exactly_the_induced_positives(
        true_offsets in proptest::collection::vec(0u32..10, 4),
        cand_extra in proptest::collection::vec(0u32..10, 6),
    ) {
        let mut cands = true_offsets.clone();
        cands.extend(&cand_extra);
        let mut scores = Matrix::zeros(4, cands.len());
        scores.fill_with(|_, _| 1.0);
        mask_induced_positives(&mut scores, &true_offsets, &cands);
        for (i, &truth) in true_offsets.iter().enumerate() {
            for (j, &c) in cands.iter().enumerate() {
                let masked = scores.row(i)[j] == f32::NEG_INFINITY;
                prop_assert_eq!(masked, c == truth);
            }
        }
    }

    #[test]
    fn candidates_have_requested_geometry(
        chunk in proptest::collection::vec(0u32..50, 1..20),
        uniform in 0usize..30,
        seed in 0u64..100,
    ) {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let cands = candidate_offsets(&chunk, uniform, 50, &mut rng);
        prop_assert_eq!(cands.len(), chunk.len() + uniform);
        prop_assert_eq!(&cands[..chunk.len()], &chunk[..]);
        prop_assert!(cands.iter().all(|&c| c < 50));
    }

    #[test]
    fn epoch_plan_prefetch_never_touches_the_training_bucket(
        pairs in proptest::collection::vec((0u32..8, 0u32..8), 1..25),
    ) {
        // arbitrary bucket order (repeats and diagonals included): no
        // step's background prefetch may overlap the partitions the
        // bucket currently training uses
        let order: Vec<BucketId> =
            pairs.iter().map(|&(s, d)| BucketId::new(s, d)).collect();
        let plan = EpochPlan::with_capacity(&order, grid_needed, DEFAULT_CAPACITY);
        for step in plan.steps() {
            for k in &step.prefetch {
                prop_assert!(
                    !step.needed.contains(k),
                    "prefetch {:?} collides with bucket {}",
                    k,
                    step.bucket
                );
            }
        }
    }

    #[test]
    fn epoch_plan_replay_holds_resident_invariants(
        pairs in proptest::collection::vec((0u32..8, 0u32..8), 1..25),
    ) {
        // replaying the plan against a simulated resident set: acquires
        // are always new, needed partitions are always resident while
        // training, releases are always resident, and nothing leaks past
        // the final step
        let order: Vec<BucketId> =
            pairs.iter().map(|&(s, d)| BucketId::new(s, d)).collect();
        let plan = EpochPlan::with_capacity(&order, grid_needed, DEFAULT_CAPACITY);
        prop_assert_eq!(plan.len(), order.len());
        let mut resident: HashSet<PartitionKey> = HashSet::new();
        for step in plan.steps() {
            for &k in &step.acquire {
                prop_assert!(resident.insert(k), "{:?} acquired while resident", k);
            }
            for &k in &step.needed {
                prop_assert!(resident.contains(&k), "{:?} needed but absent", k);
            }
            // the plan double-buffers: current bucket + next bucket's
            // prefetches, never more
            prop_assert!(resident.len() <= step.needed.len() + step.prefetch.len() + 2);
            for &k in &step.release {
                prop_assert!(resident.remove(&k), "{:?} released but absent", k);
            }
        }
        prop_assert!(resident.is_empty(), "leaked: {:?}", resident);
    }

    #[test]
    fn epoch_plan_load_count_matches_a_replayed_buffer_exactly(
        pairs in proptest::collection::vec((0u32..8, 0u32..8), 1..25),
        capacity in 2usize..7,
    ) {
        // the plan's projected acquires and a bare PartitionBuffer replay
        // of the same bucket sequence must agree load for load — they are
        // two views of one eviction policy
        let order: Vec<BucketId> =
            pairs.iter().map(|&(s, d)| BucketId::new(s, d)).collect();
        let plan = EpochPlan::with_capacity(&order, grid_needed, capacity);

        let mut buffer = PartitionBuffer::new(capacity);
        for (bucket, step) in order.iter().zip(plan.steps()) {
            let transition = buffer.request(&grid_needed(*bucket));
            prop_assert_eq!(&step.acquire, &transition.load, "bucket {}", bucket);
        }
        buffer.flush();
        prop_assert_eq!(plan.total_acquires() as u64, buffer.loads());
    }

    #[test]
    fn epoch_plan_capacity_bounds_the_resident_set(
        pairs in proptest::collection::vec((0u32..8, 0u32..8), 1..25),
        capacity in 2usize..7,
    ) {
        // replaying acquires/releases never holds more than `capacity`
        // partitions except transiently within a step (acquire before
        // release of the same step is not how the trainer executes, so
        // check the post-step residency)
        let order: Vec<BucketId> =
            pairs.iter().map(|&(s, d)| BucketId::new(s, d)).collect();
        let plan = EpochPlan::with_capacity(&order, grid_needed, capacity);
        let mut resident: HashSet<PartitionKey> = HashSet::new();
        for step in plan.steps() {
            for &k in &step.acquire {
                prop_assert!(resident.insert(k), "{:?} acquired while resident", k);
            }
            for &k in &step.release {
                prop_assert!(resident.remove(&k), "{:?} released but absent", k);
            }
            prop_assert!(
                resident.len() <= capacity,
                "{} resident after {} with capacity {}",
                resident.len(), step.bucket, capacity
            );
        }
        prop_assert!(resident.is_empty(), "leaked: {:?}", resident);
    }

    #[test]
    fn config_json_roundtrip(dim in 2usize..256, lr in 0.001f32..1.0, seed in 0u64..1000) {
        let dim = dim * 2; // keep even for complex
        let config = PbgConfig::builder()
            .dim(dim)
            .learning_rate(lr)
            .seed(seed)
            .build()
            .unwrap();
        let back = PbgConfig::from_json(&config.to_json()).unwrap();
        prop_assert_eq!(config, back);
    }
}

#[test]
fn load_count_equals_the_trainers_planned_loads_for_every_ordering() {
    // an ordering's load count and the trainer's plan replay one buffer:
    // on a homogeneous grid the loads an order is scored by are the loads
    // the trainer makes running it
    for ord in BucketOrdering::all() {
        for p in 2u32..=16 {
            for b in 2usize..=8 {
                let order = ord.order_with_buffer(p, p, b, &mut Xoshiro256::seed_from_u64(7));
                let plan = EpochPlan::with_capacity(&order, grid_needed, b);
                assert_eq!(
                    ordering::load_count(&order, b),
                    plan.total_acquires(),
                    "{ord:?} P={p} B={b}"
                );
            }
        }
    }
}
