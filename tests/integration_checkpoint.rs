//! Checkpointing through the public API: save a trained model, reload,
//! verify evaluation is bit-identical.

use pbg::core::checkpoint;
use pbg::core::config::PbgConfig;
use pbg::core::eval::{CandidateSampling, LinkPredictionEval};
use pbg::core::trainer::Trainer;
use pbg::datagen::presets;
use pbg::graph::split::EdgeSplit;

fn tmp(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("pbg_int_ckpt_{name}_{}", std::process::id()))
}

#[test]
fn checkpoint_reload_preserves_eval_metrics() {
    let dataset = presets::fb15k_like(0.02, 2); // ~300 entities
    let split = EdgeSplit::new(&dataset.edges, 0.0, 0.1, 2);
    let config = PbgConfig::builder()
        .dim(16)
        .epochs(3)
        .batch_size(250)
        .chunk_size(25)
        .uniform_negatives(25)
        .threads(2)
        .build()
        .unwrap();
    let mut trainer = Trainer::new(dataset.schema.clone(), &split.train, config).unwrap();
    trainer.train();
    let model = trainer.snapshot();

    let dir = tmp("metrics");
    checkpoint::save(&model, &dir).unwrap();
    let reloaded = checkpoint::load(&dir).unwrap();
    std::fs::remove_dir_all(&dir).ok();

    let eval = LinkPredictionEval {
        num_candidates: 100,
        sampling: CandidateSampling::Uniform,
        seed: 33,
        ..Default::default()
    };
    let a = eval.evaluate(&model, &split.test, &split.train, &[]);
    let b = eval.evaluate(&reloaded, &split.test, &split.train, &[]);
    assert_eq!(a.mrr, b.mrr, "metrics changed across checkpoint reload");
    assert_eq!(a.hits_at_10, b.hits_at_10);
}

#[test]
fn config_travels_with_checkpoint() {
    let config = PbgConfig::builder().dim(24).seed(99).build().unwrap();
    let dir = tmp("config");
    checkpoint::save_config(&config, &dir).unwrap();
    let loaded = checkpoint::load_config(&dir).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(config, loaded);
}

#[test]
fn edges_roundtrip_through_shared_filesystem_format() {
    // the distributed trainers read bucketed edges from a shared
    // filesystem (Figure 2); verify the binary edge format end to end
    let dataset = presets::livejournal_like(0.00005, 6);
    let dir = tmp("edges");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("edges.bin");
    pbg::graph::io::write_edges(std::fs::File::create(&path).unwrap(), &dataset.edges).unwrap();
    let back = pbg::graph::io::read_edges(std::fs::File::open(&path).unwrap()).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(dataset.edges, back);
}

// ---------------------------------------------------------------------
// Crash consistency: kill-point harness over the shard checkpoint.
// ---------------------------------------------------------------------

use pbg::core::checkpoint::{CheckpointIo, TrainProgress};
use pbg::core::error::{PbgError, Result as PbgResult};
use pbg::core::model::TrainedEmbeddings;
use pbg::graph::edges::{Edge, EdgeList};
use pbg::graph::schema::GraphSchema;

fn ring(n: u32) -> EdgeList {
    (0..n).map(|i| Edge::new(i, 0u32, (i + 1) % n)).collect()
}

/// Two snapshots of the same model one epoch apart: same schema and
/// shapes, different values — the worst case for mixed-state detection.
fn two_snapshots() -> (TrainedEmbeddings, TrainedEmbeddings) {
    let schema = GraphSchema::homogeneous(32, 2).unwrap();
    let config = PbgConfig::builder()
        .dim(8)
        .batch_size(16)
        .chunk_size(4)
        .uniform_negatives(4)
        .threads(1)
        .epochs(2)
        .build()
        .unwrap();
    let mut t = Trainer::new(schema, &ring(32), config).unwrap();
    t.train_epoch();
    let a = t.snapshot();
    t.train_epoch();
    let b = t.snapshot();
    assert_ne!(
        a.embeddings[0].as_slice(),
        b.embeddings[0].as_slice(),
        "snapshots must differ for the harness to mean anything"
    );
    (a, b)
}

/// A [`CheckpointIo`] that completes the first `survive` file operations
/// atomically, then dies — leaving the in-flight file's temp sibling
/// truncated at `partial` bytes, as a crash mid-`write` would.
struct KillAfter {
    survive: usize,
    done: usize,
    partial: Option<usize>,
}

impl CheckpointIo for KillAfter {
    fn persist(&mut self, path: &std::path::Path, bytes: &[u8]) -> PbgResult<()> {
        if self.done == self.survive {
            if let Some(n) = self.partial {
                let name = path.file_name().unwrap().to_str().unwrap();
                let tmp = path.with_file_name(format!("{name}.tmp"));
                std::fs::write(&tmp, &bytes[..n.min(bytes.len())]).unwrap();
            }
            return Err(PbgError::Checkpoint("injected crash".into()));
        }
        self.done += 1;
        checkpoint::write_atomic(path, bytes)
    }
}

fn assert_is_exactly(loaded: &TrainedEmbeddings, expect: &TrainedEmbeddings, ctx: &str) {
    assert_eq!(loaded.dim, expect.dim, "{ctx}: dim");
    assert_eq!(loaded.schema, expect.schema, "{ctx}: schema");
    for (t, (l, e)) in loaded.embeddings.iter().zip(&expect.embeddings).enumerate() {
        assert_eq!(
            l.as_slice(),
            e.as_slice(),
            "{ctx}: embeddings_{t} mixed state"
        );
    }
    assert_eq!(loaded.relations, expect.relations, "{ctx}: relations");
}

#[test]
fn kill_point_at_every_file_operation_never_yields_mixed_state() {
    let (snap_a, snap_b) = two_snapshots();
    let prog_a = TrainProgress {
        epochs_done: 1,
        steps_done: 0,
    };
    let prog_b = TrainProgress {
        epochs_done: 2,
        steps_done: 0,
    };
    // several in-flight truncation offsets per kill point, including
    // "temp never created" and "temp fully written but never renamed"
    for partial in [None, Some(0), Some(7), Some(usize::MAX)] {
        let mut kill = 0;
        loop {
            let dir = tmp(&format!("kill_{kill}_{partial:?}"));
            std::fs::remove_dir_all(&dir).ok();
            checkpoint::save_with_progress(&snap_a, &dir, prog_a).unwrap();
            let mut io = KillAfter {
                survive: kill,
                done: 0,
                partial,
            };
            let result = checkpoint::save_with_io(&snap_b, &dir, prog_b, &mut io);
            match result {
                Ok(()) => {
                    // past the last operation: save completed, B is live
                    let (loaded, m) = checkpoint::load_with_manifest(&dir).unwrap();
                    assert_eq!(m.progress, prog_b);
                    assert_is_exactly(&loaded, &snap_b, "completed save");
                    std::fs::remove_dir_all(&dir).ok();
                    break;
                }
                Err(_) => match checkpoint::load_with_manifest(&dir) {
                    Ok((loaded, m)) => {
                        // acceptable only if it is exactly checkpoint A
                        assert_eq!(m.progress, prog_a, "kill {kill}: manifest not A's");
                        assert_is_exactly(&loaded, &snap_a, &format!("kill {kill}"));
                    }
                    Err(PbgError::Checkpoint(_)) => {} // clean refusal
                    Err(e) => panic!("kill {kill}: unexpected error kind {e:?}"),
                },
            }
            std::fs::remove_dir_all(&dir).ok();
            kill += 1;
            assert!(kill < 64, "save never completed");
        }
    }
}

#[test]
fn truncated_final_files_are_always_rejected() {
    // belt-and-braces beyond rename atomicity: if a final file does end
    // up short (lost dir entry, non-atomic filesystem), checksums must
    // catch it at every offset
    let (snap, _) = two_snapshots();
    let dir = tmp("trunc_final");
    std::fs::remove_dir_all(&dir).ok();
    checkpoint::save(&snap, &dir).unwrap();
    let manifest = checkpoint::read_manifest(&dir).unwrap();
    let mut names: Vec<String> = manifest.files.iter().map(|f| f.name.clone()).collect();
    names.push(checkpoint::MANIFEST_NAME.to_string());
    for name in names {
        let original = std::fs::read(dir.join(&name)).unwrap();
        for cut in [0, 1, original.len() / 2, original.len() - 1] {
            std::fs::write(dir.join(&name), &original[..cut]).unwrap();
            match checkpoint::load(&dir) {
                Err(PbgError::Checkpoint(_)) => {}
                other => panic!("{name} truncated at {cut} not rejected: {other:?}"),
            }
        }
        std::fs::write(dir.join(&name), &original).unwrap();
    }
    // restored in full: loads again
    checkpoint::load(&dir).unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn torn_matrix_adopted_at_kill_point_is_named_in_the_error() {
    // a kill mid-write leaves a shard's `.tmp` torn with an intact
    // header but a short row block. Rename atomicity means the live
    // checkpoint never sees it — but if a broken recovery tool adopted
    // the torn temp and even fixed up the manifest entry (so the
    // size/checksum gate passes), the loader must still refuse with a
    // shape-mismatch error that names the file and the byte shortfall,
    // not a panic or a silently short matrix.
    let (snap_a, snap_b) = two_snapshots();
    let prog_a = TrainProgress {
        epochs_done: 1,
        steps_done: 0,
    };
    let prog_b = TrainProgress {
        epochs_done: 2,
        steps_done: 0,
    };
    let mut tore_a_matrix = false;
    let mut kill = 0;
    loop {
        let dir = tmp(&format!("torn_{kill}"));
        std::fs::remove_dir_all(&dir).ok();
        checkpoint::save_with_progress(&snap_a, &dir, prog_a).unwrap();
        // 42 bytes: past the 24-byte shard header, mid-row for any dim —
        // the worst torn write, structurally valid up to the cut
        let mut io = KillAfter {
            survive: kill,
            done: 0,
            partial: Some(42),
        };
        if checkpoint::save_with_io(&snap_b, &dir, prog_b, &mut io).is_ok() {
            std::fs::remove_dir_all(&dir).ok();
            break;
        }
        let torn: Option<String> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok()?.file_name().into_string().ok())
            .find(|n| n.ends_with(".shard.tmp"));
        if let Some(tmp_name) = torn {
            let final_name = tmp_name.trim_end_matches(".tmp").to_string();
            let bytes = std::fs::read(dir.join(&tmp_name)).unwrap();
            // adopt it into an otherwise intact checkpoint A (shards of B
            // written before the kill would fail first), so the torn
            // shard is the only fault
            checkpoint::save_with_progress(&snap_a, &dir, prog_a).unwrap();
            std::fs::write(dir.join(&final_name), &bytes).unwrap();
            let mut manifest = checkpoint::read_manifest(&dir).unwrap();
            for f in &mut manifest.files {
                if f.name == final_name {
                    f.bytes = bytes.len() as u64;
                    f.checksum = format!("{:016x}", checkpoint::checksum(&bytes));
                }
            }
            std::fs::write(
                dir.join(checkpoint::MANIFEST_NAME),
                serde_json::to_string(&manifest).unwrap(),
            )
            .unwrap();
            match checkpoint::load(&dir) {
                Err(PbgError::Checkpoint(msg)) => {
                    assert!(msg.contains(&final_name), "{msg}");
                    assert!(msg.contains("shape"), "{msg}");
                    assert!(msg.contains("short"), "{msg}");
                }
                other => panic!("torn {final_name} accepted: {other:?}"),
            }
            tore_a_matrix = true;
        }
        std::fs::remove_dir_all(&dir).ok();
        kill += 1;
        assert!(kill < 64, "save never completed");
    }
    assert!(
        tore_a_matrix,
        "no kill point ever tore a partition shard; harness is vacuous"
    );
}

#[test]
fn resumed_run_matches_uninterrupted_bucket_count() {
    // acceptance: `--resume` restarted at a bucket boundary skips
    // already-trained buckets and the combined run trains exactly the
    // bucket count of an uninterrupted run
    let schema = GraphSchema::homogeneous(48, 3).unwrap(); // 9 buckets/epoch
    let edges = ring(48);
    let config = PbgConfig::builder()
        .dim(8)
        .batch_size(16)
        .chunk_size(4)
        .uniform_negatives(4)
        .threads(1)
        .epochs(2)
        .seed(5)
        .build()
        .unwrap();
    let mut reference = Trainer::new(schema.clone(), &edges, config.clone()).unwrap();
    let ref_buckets: usize = reference.train().iter().map(|s| s.buckets).sum();
    assert_eq!(ref_buckets, 18);

    let dir = tmp("resume_equiv");
    std::fs::remove_dir_all(&dir).ok();
    let mut interrupted = Trainer::new(schema.clone(), &edges, config.clone()).unwrap();
    interrupted.set_checkpoint_policy(pbg::core::CheckpointPolicy {
        dir: dir.clone(),
        every_buckets: 4,
    });
    interrupted.inject_crash_after_buckets(14); // dies 5 buckets into epoch 2
    let crashed_stats = interrupted.train();
    assert!(interrupted.crashed());
    let crashed_buckets: usize = crashed_stats.iter().map(|s| s.buckets).sum();
    assert_eq!(crashed_buckets, 14);
    let manifest = checkpoint::read_manifest(&dir).unwrap();
    // last periodic save: 4 buckets into the in-progress second epoch
    assert_eq!(manifest.progress.epochs_done, 1);
    assert_eq!(manifest.progress.steps_done, 4);

    let mut resumed = Trainer::resume(
        schema,
        &edges,
        config,
        pbg::core::trainer::Storage::InMemory,
        pbg::telemetry::Registry::new(),
        &dir,
    )
    .unwrap();
    let resumed_stats = resumed.train();
    assert_eq!(resumed_stats.len(), 1, "only the interrupted epoch remains");
    // the resumed epoch skips the 4 checkpointed buckets and trains the
    // other 5 — together exactly one uninterrupted epoch's bucket count
    assert_eq!(resumed_stats[0].buckets, 5);
    assert_eq!(
        manifest.progress.steps_done + resumed_stats[0].buckets,
        ref_buckets / 2,
        "skipped + retrained must equal one full epoch"
    );
    assert_eq!(resumed.epochs_done(), 2);
    std::fs::remove_dir_all(&dir).ok();
}

/// The determinism suite's dataset and config at P = 4 (16 buckets per
/// epoch), its one relation given a translation operator so relation
/// parameters and their accumulators train too.
fn social_at_p4() -> (GraphSchema, EdgeList, PbgConfig) {
    use pbg::graph::schema::{EntityTypeDef, OperatorKind, RelationTypeDef};
    let graph = pbg::datagen::social::SocialGraphConfig {
        num_nodes: 200,
        num_edges: 2_000,
        num_communities: 8,
        intra_prob: 0.8,
        zipf_exponent: 1.0,
        seed: 97,
    };
    let (edges, _) = graph.generate();
    let config = PbgConfig::builder()
        .dim(16)
        .epochs(2)
        .batch_size(200)
        .chunk_size(25)
        .uniform_negatives(25)
        .threads(1)
        .seed(1234)
        .build()
        .unwrap();
    let schema = GraphSchema::builder()
        .entity_type(EntityTypeDef::new("node", graph.num_nodes).with_partitions(4))
        .relation_type(
            RelationTypeDef::new("edge", 0u32, 0u32).with_operator(OperatorKind::Translation),
        )
        .build()
        .unwrap();
    (schema, edges, config)
}

/// Every bit of a trainer's state: each partition's rows and Adagrad
/// accumulators, each relation's parameters and accumulators.
fn state_bits(t: &Trainer) -> Vec<u32> {
    let mut bits = Vec::new();
    let mut put = |values: Vec<f32>| bits.extend(values.into_iter().map(f32::to_bits));
    for &(key, _) in t.model().store_layout().keys() {
        let data = t.store().load(key);
        put(data.embeddings.to_vec());
        put(data.adagrad.to_vec());
        drop(data);
        t.store().release(key);
    }
    for r in 0..t.model().num_relations() {
        let rel = t.model().relation(pbg::graph::RelationTypeId(r as u32));
        for params in std::iter::once(&rel.forward).chain(&rel.reciprocal) {
            put(params.snapshot());
            put(params.accumulator_snapshot());
        }
    }
    bits
}

#[test]
fn resume_after_every_bucket_is_bit_identical_to_the_uninterrupted_run() {
    use pbg::core::trainer::Storage;
    let (schema, edges, config) = social_at_p4();
    let mut reference = Trainer::new(schema.clone(), &edges, config.clone()).unwrap();
    let total: usize = reference.train().iter().map(|s| s.buckets).sum();
    assert_eq!(total, 32);
    let want = state_bits(&reference);
    for disk in [false, true] {
        for k in 1..total {
            let ckpt = tmp(&format!("exact_{disk}_{k}"));
            let swap = tmp(&format!("exact_swap_{disk}_{k}"));
            std::fs::remove_dir_all(&ckpt).ok();
            std::fs::remove_dir_all(&swap).ok();
            let storage = || match disk {
                true => Storage::Disk(swap.clone()),
                false => Storage::InMemory,
            };
            let mut crashed =
                Trainer::with_storage(schema.clone(), &edges, config.clone(), storage()).unwrap();
            crashed.set_checkpoint_policy(pbg::core::CheckpointPolicy {
                dir: ckpt.clone(),
                every_buckets: 1,
            });
            crashed.inject_crash_after_buckets(k);
            let before: usize = crashed.train().iter().map(|s| s.buckets).sum();
            assert!(crashed.crashed() && crashed.checkpoint_error().is_none());
            assert_eq!(before, k);
            drop(crashed);
            // the Disk case resumes over the crashed run's swap directory,
            // whose shards are newer than the checkpoint
            let mut resumed = Trainer::resume(
                schema.clone(),
                &edges,
                config.clone(),
                storage(),
                pbg::telemetry::Registry::new(),
                &ckpt,
            )
            .unwrap();
            let after: usize = resumed.train().iter().map(|s| s.buckets).sum();
            assert_eq!(before + after, total, "disk {disk}, crash after {k}");
            assert!(
                state_bits(&resumed) == want,
                "disk {disk}: resumed after bucket {k} differs from the uninterrupted run"
            );
            drop(resumed);
            std::fs::remove_dir_all(&ckpt).ok();
            std::fs::remove_dir_all(&swap).ok();
        }
    }
}

#[test]
fn disk_swap_and_checkpoint_can_share_one_directory() {
    // `pbg train --disk D --output D --checkpoint-every 2`: the buckets
    // trained after the last checkpoint write their partitions back to
    // the swap store, and those write-backs must never replace the
    // committed checkpoint's shards, or the resume fails its checksums
    use pbg::core::trainer::Storage;
    let (schema, edges, config) = social_at_p4();
    let mut reference = Trainer::new(schema.clone(), &edges, config.clone()).unwrap();
    reference.train();
    let want = state_bits(&reference);
    for k in [5, 19, 31] {
        let dir = tmp(&format!("shared_dir_{k}"));
        std::fs::remove_dir_all(&dir).ok();
        let disk = || Storage::Disk(dir.clone());
        let mut crashed =
            Trainer::with_storage(schema.clone(), &edges, config.clone(), disk()).unwrap();
        crashed.set_checkpoint_policy(pbg::core::CheckpointPolicy {
            dir: dir.clone(),
            every_buckets: 2,
        });
        crashed.inject_crash_after_buckets(k);
        crashed.train();
        assert!(crashed.crashed() && crashed.checkpoint_error().is_none());
        drop(crashed);
        let mut resumed = Trainer::resume(
            schema.clone(),
            &edges,
            config.clone(),
            disk(),
            pbg::telemetry::Registry::new(),
            &dir,
        )
        .unwrap_or_else(|e| panic!("resume after bucket {k}: {e}"));
        resumed.train();
        assert!(
            state_bits(&resumed) == want,
            "resumed after bucket {k} over a shared directory differs"
        );
        drop(resumed);
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn fresh_disk_run_ignores_stale_and_garbage_swap_files() {
    // `pbg train --disk DIR` over an old run's directory: its trained
    // shards, a shard of another shape and plain garbage must neither
    // seed nor panic the new run
    use pbg::core::shard;
    use pbg::core::storage::{swap_file_name, PartitionKey};
    use pbg::core::trainer::Storage;
    let (schema, edges, config) = social_at_p4();
    let run = |dir: &std::path::Path| {
        let disk = Storage::Disk(dir.to_path_buf());
        let mut t = Trainer::with_storage(schema.clone(), &edges, config.clone(), disk).unwrap();
        t.train();
        state_bits(&t)
    };
    let (stale, empty) = (tmp("stale_swap"), tmp("empty_swap"));
    for dir in [&stale, &empty] {
        std::fs::remove_dir_all(dir).ok();
    }
    run(&stale);
    let mut other = Vec::new();
    shard::encode(
        pbg::tensor::Precision::F16,
        3,
        5,
        |_, _| {},
        &[0.0; 3],
        &mut other,
    );
    std::fs::write(
        stale.join(swap_file_name(PartitionKey::new(0u32, 1u32))),
        other,
    )
    .unwrap();
    std::fs::write(
        stale.join(swap_file_name(PartitionKey::new(0u32, 2u32))),
        b"junk",
    )
    .unwrap();
    assert!(
        run(&stale) == run(&empty),
        "a fresh run over stale swap files differs from one over an empty directory"
    );
    for dir in [&stale, &empty] {
        std::fs::remove_dir_all(dir).ok();
    }
}
