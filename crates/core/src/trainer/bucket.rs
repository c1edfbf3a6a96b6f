//! Multi-threaded training of one edge bucket.
//!
//! A bucket's edges are "loaded and subdivided among the threads for
//! training" with no inter-thread synchronization (§4.1, Recht et al.
//! 2011). Each thread cuts its share into relation-grouped batches and
//! chunks, and runs [`crate::trainer::step::train_chunk`] against the
//! shared partition data.

use crate::model::Model;
use crate::stats::BucketStats;
use crate::storage::{PartitionData, PartitionKey, PartitionStore};
use crate::trainer::step::{
    train_chunk_with_scratch, ChunkContext, ParamGradAccum, PhaseClock, PhaseTotals, StepScratch,
};
use crate::{batch, config::NegativeMode};
use pbg_graph::bucket::BucketId;
use pbg_graph::edges::EdgeList;
use pbg_graph::ids::{EntityTypeId, Partition};
use pbg_graph::partition::EntityPartitioning;
use pbg_graph::RelationTypeId;
use pbg_telemetry::metrics::names as metric;
use pbg_telemetry::trace::names as span_name;
use pbg_telemetry::Registry;
use pbg_tensor::rng::Xoshiro256;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// The partition keys a bucket needs resident, given the schema.
pub fn needed_keys(model: &Model, bucket: BucketId) -> HashSet<PartitionKey> {
    let schema = model.schema();
    let mut keys = HashSet::new();
    for r in schema.relation_types() {
        let src_def = schema.entity_type(r.source_type());
        let dst_def = schema.entity_type(r.dest_type());
        keys.insert(PartitionKey {
            entity_type: r.source_type(),
            partition: if src_def.is_partitioned() {
                bucket.src
            } else {
                Partition(0)
            },
        });
        keys.insert(PartitionKey {
            entity_type: r.dest_type(),
            partition: if dst_def.is_partitioned() {
                bucket.dst
            } else {
                Partition(0)
            },
        });
    }
    keys
}

/// Per-entity-type partitioning lookup table.
pub fn partitionings(model: &Model) -> Vec<EntityPartitioning> {
    model
        .schema()
        .entity_types()
        .iter()
        .map(|def| EntityPartitioning::new(def.num_entities(), def.num_partitions()))
        .collect()
}

/// Trains one bucket with `config.threads` HOGWILD threads; returns
/// aggregate stats. Loads (and leaves loaded) the partitions the bucket
/// needs — the caller decides when to release them.
///
/// When tracing is enabled on `telemetry`, records a `bucket_train` span
/// whose duration is the *same* measurement as the returned
/// [`BucketStats::seconds`], carrying the per-phase breakdown (compute /
/// sampling / optimizer, CPU-time summed over threads). The partition
/// `load`s happen on the calling thread before the workers spawn, so a
/// store's `swap_wait` spans nest inside this bucket's span.
pub fn train_bucket(
    model: &Model,
    store: &dyn PartitionStore,
    bucket: BucketId,
    edges: &EdgeList,
    seed: u64,
    telemetry: &Registry,
) -> BucketStats {
    let t0 = telemetry.now_ns();
    if edges.is_empty() {
        return BucketStats {
            edges: 0,
            loss: 0.0,
            seconds: telemetry.now_ns().saturating_sub(t0) as f64 * 1e-9,
        };
    }
    let tracing = telemetry.tracing();
    let config = model.config();
    // resident set for this bucket
    let mut resident: HashMap<PartitionKey, Arc<PartitionData>> = HashMap::new();
    for key in needed_keys(model, bucket) {
        resident.insert(key, store.load(key));
        // HOGWILD threads write embeddings and Adagrad state in place:
        // the eventual release must persist this partition.
        store.mark_dirty(key);
    }
    let parts = partitionings(model);
    let schema = model.schema();
    let thread_chunks = edges.chunks(config.threads);
    let results: Vec<(f64, PhaseTotals)> = crossbeam::thread::scope(|scope| {
        let handles: Vec<_> = thread_chunks
            .iter()
            .enumerate()
            .map(|(tid, thread_edges)| {
                let resident = &resident;
                let parts = &parts;
                scope.spawn(move |_| {
                    if config.pin_cores {
                        // Best-effort: affinity changes placement only,
                        // never results; a rejected mask trains unpinned.
                        let plan = pbg_tensor::affinity::CorePlan::detect();
                        if let Err(e) =
                            pbg_tensor::affinity::pin_current_thread(plan.worker_core(tid))
                        {
                            eprintln!("pbg-core: worker {tid} not pinned: {e}");
                        }
                    }
                    let phases = if tracing {
                        Some(PhaseClock::new())
                    } else {
                        None
                    };
                    let mut rng = Xoshiro256::seed_from_u64(
                        seed.wrapping_mul(0x2545F4914F6CDD1D)
                            .wrapping_add(tid as u64),
                    );
                    let mut loss = 0.0f64;
                    let effective_chunk = match config.negative_mode {
                        NegativeMode::Batched => config.chunk_size,
                        // unbatched processes edges one at a time
                        NegativeMode::Unbatched => 1,
                    };
                    // Thread-local scratch: batch order, chunk offset
                    // triples, and the negative-sampling buffers all live
                    // here, so the steady-state epoch loop performs no
                    // cross-thread allocator traffic.
                    let mut batch_scratch = batch::BatchScratch::new();
                    let mut step_scratch = StepScratch::new();
                    let mut src_off: Vec<u32> = Vec::new();
                    let mut dst_off: Vec<u32> = Vec::new();
                    let mut weights: Vec<f32> = Vec::new();
                    for b in batch::relation_batches_in(
                        thread_edges,
                        config.batch_size,
                        &mut batch_scratch,
                    ) {
                        let rel_id = RelationTypeId(b.rel);
                        let rdef = schema.relation_type(rel_id);
                        let src_et = rdef.source_type();
                        let dst_et = rdef.dest_type();
                        let src_key = resolve_key(schema, src_et, bucket.src);
                        let dst_key = resolve_key(schema, dst_et, bucket.dst);
                        let src_data = &resident[&src_key];
                        let dst_data = &resident[&dst_key];
                        let src_part = &parts[src_et.index()];
                        let dst_part = &parts[dst_et.index()];
                        let ctx = ChunkContext {
                            config,
                            relation: model.relation(rel_id),
                            src_data,
                            dst_data,
                            src_partition_size: src_part.partition_size(src_key.partition) as usize,
                            dst_partition_size: dst_part.partition_size(dst_key.partition) as usize,
                            phases: phases.as_ref(),
                        };
                        let rel_weight = model.relation(rel_id).weight();
                        let mut param_grads = ParamGradAccum::for_relation(model.relation(rel_id));
                        for chunk in batch::chunks_of(b.indices, effective_chunk) {
                            src_off.clear();
                            dst_off.clear();
                            weights.clear();
                            for &i in chunk {
                                let e = thread_edges.get(i);
                                src_off.push(src_part.offset_of(e.src));
                                dst_off.push(dst_part.offset_of(e.dst));
                                weights.push(rel_weight * thread_edges.weight(i));
                            }
                            let mut step = || {
                                train_chunk_with_scratch(
                                    &ctx,
                                    &src_off,
                                    &dst_off,
                                    &weights,
                                    &mut param_grads,
                                    &mut rng,
                                    &mut step_scratch,
                                )
                            };
                            loss += match &phases {
                                Some(clock) => clock.chunk(step),
                                None => step(),
                            };
                        }
                        // shared parameters update once per batch (§4.3's
                        // relation-grouped batches make this one fetch/update)
                        match &phases {
                            Some(clock) => {
                                clock.optimizer(|| param_grads.apply(model.relation(rel_id)));
                            }
                            None => param_grads.apply(model.relation(rel_id)),
                        }
                    }
                    (loss, phases.map(|clock| clock.totals()).unwrap_or_default())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("trainer thread panicked"))
            .collect()
    })
    .expect("trainer scope panicked");
    let total_loss: f64 = results.iter().map(|(loss, _)| loss).sum();
    let mut phase_totals = PhaseTotals::default();
    for (_, totals) in &results {
        phase_totals.merge(totals);
    }
    telemetry
        .counter(metric::TRAINER_EDGES)
        .add(edges.len() as u64);
    telemetry.counter(metric::TRAINER_BUCKETS).inc();
    // one measurement for both the span and the returned stats, so the
    // trace timeline reconciles with EpochStats.seconds
    let dur_ns = telemetry.now_ns().saturating_sub(t0);
    // Always-on per-bucket rate gauges: cheap (three atomics per bucket,
    // not per edge) and visible mid-run through the /metrics server.
    if dur_ns > 0 {
        let secs = dur_ns as f64 * 1e-9;
        telemetry
            .gauge(metric::TRAINER_EDGES_PER_SEC)
            .set((edges.len() as f64 / secs) as u64);
        // flops_executed() is process-wide; the published total doubles
        // as the watermark for this bucket's delta
        let flops = pbg_tensor::kernels::flops_executed();
        let flop_gauge = telemetry.gauge(metric::TRAINER_FLOPS_TOTAL);
        let flop_delta = flops.saturating_sub(flop_gauge.get());
        flop_gauge.set(flops);
        telemetry
            .gauge(metric::TRAINER_MFLOPS)
            .set((flop_delta as f64 / secs / 1e6) as u64);
    }
    if tracing {
        telemetry.record_span(
            span_name::BUCKET_TRAIN,
            t0,
            dur_ns,
            vec![
                ("src", bucket.src.0.into()),
                ("dst", bucket.dst.0.into()),
                ("edges", (edges.len() as u64).into()),
                ("loss", total_loss.into()),
                ("compute_ns", phase_totals.compute_ns.into()),
                ("sampling_ns", phase_totals.sampling_ns.into()),
                ("optimizer_ns", phase_totals.optimizer_ns.into()),
            ],
        );
    }
    BucketStats {
        edges: edges.len(),
        loss: total_loss,
        seconds: dur_ns as f64 * 1e-9,
    }
}

fn resolve_key(
    schema: &pbg_graph::schema::GraphSchema,
    et: EntityTypeId,
    part: Partition,
) -> PartitionKey {
    PartitionKey {
        entity_type: et,
        partition: if schema.entity_type(et).is_partitioned() {
            part
        } else {
            Partition(0)
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PbgConfig;
    use crate::storage::InMemoryStore;
    use pbg_graph::edges::Edge;
    use pbg_graph::schema::{EntityTypeDef, GraphSchema, RelationTypeDef};

    fn small_model(p: u32, threads: usize) -> Model {
        let schema = GraphSchema::homogeneous(64, p).unwrap();
        let config = PbgConfig::builder()
            .dim(8)
            .batch_size(16)
            .chunk_size(4)
            .uniform_negatives(4)
            .threads(threads)
            .build()
            .unwrap();
        Model::new(schema, config).unwrap()
    }

    fn ring_edges(n: u32) -> EdgeList {
        (0..n).map(|i| Edge::new(i, 0u32, (i + 1) % n)).collect()
    }

    #[test]
    fn needed_keys_partitioned() {
        let model = small_model(4, 1);
        let keys = needed_keys(&model, BucketId::new(1u32, 3u32));
        assert_eq!(keys.len(), 2);
        assert!(keys.contains(&PartitionKey::new(0u32, 1u32)));
        assert!(keys.contains(&PartitionKey::new(0u32, 3u32)));
        // diagonal bucket needs one partition
        let keys = needed_keys(&model, BucketId::new(2u32, 2u32));
        assert_eq!(keys.len(), 1);
    }

    #[test]
    fn needed_keys_unpartitioned_dst() {
        let schema = GraphSchema::builder()
            .entity_type(EntityTypeDef::new("user", 64).with_partitions(4))
            .entity_type(EntityTypeDef::new("item", 8))
            .relation_type(RelationTypeDef::new("buys", 0u32, 1u32))
            .build()
            .unwrap();
        let config = PbgConfig::builder()
            .dim(4)
            .batch_size(8)
            .chunk_size(4)
            .build()
            .unwrap();
        let model = Model::new(schema, config).unwrap();
        let keys = needed_keys(&model, BucketId::new(2u32, 0u32));
        assert!(keys.contains(&PartitionKey::new(0u32, 2u32)));
        assert!(
            keys.contains(&PartitionKey::new(1u32, 0u32)),
            "item type pins partition 0"
        );
    }

    #[test]
    fn bucket_training_reduces_loss_single_thread() {
        let model = small_model(1, 1);
        let store = InMemoryStore::new(model.store_layout());
        let edges = ring_edges(64);
        let bucket = BucketId::new(0u32, 0u32);
        let first = train_bucket(&model, &store, bucket, &edges, 1, Registry::disabled());
        let mut last = first;
        for s in 2..20 {
            last = train_bucket(&model, &store, bucket, &edges, s, Registry::disabled());
        }
        assert_eq!(first.edges, 64);
        assert!(
            last.loss < first.loss,
            "loss did not fall: {} -> {}",
            first.loss,
            last.loss
        );
    }

    #[test]
    fn bucket_training_works_multithreaded() {
        let model = small_model(1, 4);
        let store = InMemoryStore::new(model.store_layout());
        let edges = ring_edges(64);
        let bucket = BucketId::new(0u32, 0u32);
        let first = train_bucket(&model, &store, bucket, &edges, 1, Registry::disabled());
        let mut last = first;
        for s in 2..20 {
            last = train_bucket(&model, &store, bucket, &edges, s, Registry::disabled());
        }
        assert!(
            last.loss < first.loss,
            "HOGWILD loss did not fall: {} -> {}",
            first.loss,
            last.loss
        );
    }

    #[test]
    fn traced_bucket_records_span_with_phase_breakdown() {
        let model = small_model(1, 2);
        let store = InMemoryStore::new(model.store_layout());
        let reg = Registry::new();
        reg.set_tracing(true);
        let stats = train_bucket(
            &model,
            &store,
            BucketId::new(0u32, 0u32),
            &ring_edges(64),
            1,
            &reg,
        );
        let events = reg.drain();
        let span = events
            .iter()
            .find(|e| e.name == span_name::BUCKET_TRAIN)
            .expect("bucket span recorded");
        assert_eq!(span.field_u64("edges"), Some(64));
        assert_eq!(span.field_u64("src"), Some(0));
        let dur_s = span.dur_ns as f64 * 1e-9;
        assert!(
            (dur_s - stats.seconds).abs() < 1e-12,
            "span duration is the same measurement as BucketStats.seconds"
        );
        let phases = span.field_u64("compute_ns").unwrap()
            + span.field_u64("sampling_ns").unwrap()
            + span.field_u64("optimizer_ns").unwrap();
        assert!(phases > 0, "phase clock accumulated time");
        assert_eq!(reg.snapshot().counter(metric::TRAINER_EDGES), 64);
    }

    #[test]
    fn untraced_bucket_records_no_events() {
        let model = small_model(1, 1);
        let store = InMemoryStore::new(model.store_layout());
        let reg = Registry::new();
        train_bucket(
            &model,
            &store,
            BucketId::new(0u32, 0u32),
            &ring_edges(64),
            1,
            &reg,
        );
        assert!(reg.drain().is_empty(), "tracing off: no span events");
        assert_eq!(
            reg.snapshot().counter(metric::TRAINER_EDGES),
            64,
            "metrics stay on"
        );
    }

    #[test]
    fn empty_bucket_is_fine() {
        let model = small_model(2, 2);
        let store = InMemoryStore::new(model.store_layout());
        let stats = train_bucket(
            &model,
            &store,
            BucketId::new(0u32, 1u32),
            &EdgeList::new(),
            1,
            Registry::disabled(),
        );
        assert_eq!(stats.edges, 0);
        assert_eq!(stats.loss, 0.0);
    }

    #[test]
    fn partitioned_bucket_uses_offsets_correctly() {
        // edges constrained to bucket (0, 1) under id%2 partitioning
        let model = small_model(2, 2);
        let store = InMemoryStore::new(model.store_layout());
        let mut edges = EdgeList::new();
        for i in 0..16u32 {
            let src = i * 2 % 64; // even -> partition 0
            let dst = (i * 2 + 1) % 64; // odd -> partition 1
            edges.push(Edge::new(src, 0u32, dst));
        }
        let stats = train_bucket(
            &model,
            &store,
            BucketId::new(0u32, 1u32),
            &edges,
            3,
            Registry::disabled(),
        );
        assert_eq!(stats.edges, 16);
        assert!(stats.loss.is_finite());
    }
}
