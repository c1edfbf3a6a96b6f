//! Property-based tests for the graph substrate.

use pbg_graph::bucket::{BucketId, Buckets};
use pbg_graph::buffer::PartitionBuffer;
use pbg_graph::edges::{Edge, EdgeList};
use pbg_graph::io;
use pbg_graph::ordering::{invariant_violations, swap_count, BucketOrdering};
use pbg_graph::partition::EntityPartitioning;
use pbg_graph::split::EdgeSplit;
use pbg_tensor::rng::Xoshiro256;
use proptest::prelude::*;
use std::collections::HashSet;

fn arb_edges(max_nodes: u32, max_edges: usize) -> impl Strategy<Value = (u32, EdgeList)> {
    (2..max_nodes).prop_flat_map(move |n| {
        proptest::collection::vec((0..n, 0..3u32, 0..n), 1..max_edges).prop_map(move |tuples| {
            let edges: EdgeList = tuples
                .into_iter()
                .map(|(s, r, d)| Edge::new(s, r, d))
                .collect();
            (n, edges)
        })
    })
}

proptest! {
    #[test]
    fn partition_roundtrip((n, p) in (1u32..500, 1u32..17)) {
        let part = EntityPartitioning::new(n, p);
        for id in (0..n).step_by(7) {
            let id = pbg_graph::EntityId(id);
            let q = part.partition_of(id);
            let off = part.offset_of(id);
            prop_assert_eq!(part.global_of(q, off), id);
        }
    }

    #[test]
    fn partition_sizes_are_balanced((n, p) in (1u32..10_000, 1u32..33)) {
        let part = EntityPartitioning::new(n, p);
        let sizes: Vec<u32> = part.partitions().map(|q| part.partition_size(q)).collect();
        let sum: u32 = sizes.iter().sum();
        prop_assert_eq!(sum, n);
        let max = *sizes.iter().max().unwrap();
        let min = *sizes.iter().min().unwrap();
        prop_assert!(max - min <= 1, "unbalanced: {} vs {}", max, min);
    }

    #[test]
    fn bucketize_preserves_all_edges(((n, edges), p) in (arb_edges(200, 100), 1u32..8)) {
        let part = EntityPartitioning::new(n, p);
        let buckets = Buckets::from_edges(&edges, &part, &part);
        prop_assert_eq!(buckets.total_edges(), edges.len());
        for (id, bucket) in buckets.iter() {
            for e in bucket.iter() {
                prop_assert_eq!(part.partition_of(e.src), id.src);
                prop_assert_eq!(part.partition_of(e.dst), id.dst);
            }
        }
    }

    #[test]
    fn orderings_are_permutations(p in 1u32..12, seed in 0u64..100) {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        for ord in BucketOrdering::all() {
            let order = ord.order(p, p, &mut rng);
            prop_assert_eq!(order.len(), (p * p) as usize);
            let set: HashSet<BucketId> = order.iter().copied().collect();
            prop_assert_eq!(set.len(), (p * p) as usize);
        }
    }

    #[test]
    fn orderings_are_permutations_at_every_buffer_capacity(
        p in 1u32..10,
        b in 2usize..9,
        seed in 0u64..50,
    ) {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        for ord in BucketOrdering::all() {
            let order = ord.order_with_buffer(p, p, b, &mut rng);
            prop_assert_eq!(order.len(), (p * p) as usize, "{:?} P={} B={}", ord, p, b);
            let set: HashSet<BucketId> = order.iter().copied().collect();
            prop_assert_eq!(set.len(), (p * p) as usize, "{:?} P={} B={}", ord, p, b);
        }
    }

    #[test]
    fn greedy_reuse_never_exceeds_buffer_capacity(p in 2u32..12, b in 2usize..9) {
        // replay the greedy-reuse order through the partition buffer of
        // its own capacity: no bucket ever needs more than B resident
        // partitions and the buffer never overflows, so the ordering is
        // actually runnable with B slots
        let mut rng = Xoshiro256::seed_from_u64(0);
        let order = BucketOrdering::GreedyReuse.order_with_buffer(p, p, b, &mut rng);
        let mut buffer = PartitionBuffer::new(b);
        for bucket in &order {
            prop_assert!(bucket.partitions().count() <= b, "bucket {} needs > B={}", bucket, b);
            let needed: HashSet<_> = bucket.partitions().collect();
            buffer.request(&needed);
            prop_assert!(buffer.len() <= b);
        }
    }

    #[test]
    fn a_bigger_buffer_never_loads_more_for_the_same_order(
        p in 2u32..10,
        b in 2usize..7,
        seed in 0u64..20,
    ) {
        // LRU is a stack algorithm: on the same bucket sequence, a
        // buffer of capacity B+1 can never miss more than one of
        // capacity B
        use pbg_graph::ordering::load_count;
        let mut rng = Xoshiro256::seed_from_u64(seed);
        for ord in BucketOrdering::all() {
            let order = ord.order_with_buffer(p, p, b, &mut rng);
            prop_assert!(
                load_count(&order, b + 1) <= load_count(&order, b),
                "{:?} P={}: capacity {} loads more than capacity {}",
                ord, p, b + 1, b
            );
        }
    }

    #[test]
    fn non_random_orderings_satisfy_invariant(p in 1u32..12) {
        let mut rng = Xoshiro256::seed_from_u64(0);
        for ord in [
            BucketOrdering::InsideOut,
            BucketOrdering::RowMajor,
            BucketOrdering::Chained,
        ] {
            let order = ord.order(p, p, &mut rng);
            prop_assert_eq!(invariant_violations(&order), 0);
        }
    }

    #[test]
    fn inside_out_swap_optimal_among_tested(p in 2u32..12) {
        let mut rng = Xoshiro256::seed_from_u64(0);
        let io_swaps = swap_count(&BucketOrdering::InsideOut.order(p, p, &mut rng));
        for ord in [BucketOrdering::RowMajor, BucketOrdering::Chained] {
            let other = swap_count(&ord.order(p, p, &mut rng));
            prop_assert!(io_swaps <= other, "{:?}: {} < {}", ord, other, io_swaps);
        }
    }

    #[test]
    fn split_is_exact_partition(((_, edges), vf, tf) in (arb_edges(100, 200), 0.0f64..0.4, 0.0f64..0.4)) {
        let s = EdgeSplit::new(&edges, vf, tf, 42);
        prop_assert_eq!(
            s.train.len() + s.valid.len() + s.test.len(),
            edges.len()
        );
    }

    #[test]
    fn binary_io_roundtrip((_, edges) in arb_edges(1000, 300)) {
        let encoded = io::encode_edges(&edges);
        let decoded = io::decode_edges(&encoded).unwrap();
        prop_assert_eq!(edges, decoded);
    }

    #[test]
    fn tsv_io_roundtrip((_, edges) in arb_edges(1000, 100)) {
        let mut buf = Vec::new();
        io::write_tsv(&mut buf, &edges).unwrap();
        let decoded = io::read_tsv(&buf[..]).unwrap();
        prop_assert_eq!(edges, decoded);
    }
}
