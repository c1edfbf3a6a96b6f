//! End-to-end training throughput: edges/sec across threads × pinning.
//!
//! The microkernel bench (`kernels`) isolates GEMM throughput; this one
//! measures what the paper actually reports — HOGWILD training speed on a
//! realistic synthetic social graph. Each arm trains the same graph with
//! the same config and differs only in `threads` and `pin_cores`, so the
//! table reads directly as "what did affinity pinning buy at T threads".
//!
//! Throughput is best-of-reps (`edges × epochs / min epoch-sum seconds`),
//! which is the right statistic for placement effects: pinning removes
//! migration noise, so its win shows up in the *minimum* wall time, and
//! best-of filters scheduler hiccups that would otherwise drown a 1-core
//! CI container in variance.
//!
//! Results go to `target/experiments/train.json` and the committed
//! snapshot `BENCH_train.json` at the workspace root.
//!
//! ```sh
//! cargo run --release -p pbg-bench --bin train [-- --quick]
//! ```

use pbg_bench::report::{report, ExpArgs, Table};
use pbg_core::config::PbgConfig;
use pbg_core::trainer::Trainer;
use pbg_datagen::social::SocialGraphConfig;
use pbg_tensor::affinity::CorePlan;
use pbg_tensor::kernels::dispatch;
use serde_json::json;

/// One full training run; returns edges/sec over all epochs.
fn throughput(
    schema: &pbg_graph::schema::GraphSchema,
    edges: &pbg_graph::edges::EdgeList,
    config: &PbgConfig,
) -> f64 {
    let mut trainer = Trainer::new(schema.clone(), edges, config.clone()).expect("trainer setup");
    let stats = trainer.train();
    let total_edges: usize = stats.iter().map(|s| s.edges).sum();
    let total_secs: f64 = stats.iter().map(|s| s.seconds).sum();
    if total_secs > 0.0 {
        total_edges as f64 / total_secs
    } else {
        0.0
    }
}

fn main() {
    let args = ExpArgs::parse();
    let (num_nodes, num_edges, epochs, reps) = if args.quick {
        (2_000u32, 20_000usize, 1usize, 2usize)
    } else {
        (10_000, 200_000, 2, 5)
    };
    let epochs = args.epochs.unwrap_or(epochs);

    let gen = SocialGraphConfig {
        num_nodes,
        num_edges,
        seed: 17,
        ..SocialGraphConfig::default()
    };
    let (edges, _) = gen.generate();
    let schema = gen.schema(1);

    let plan = CorePlan::detect();
    let available = plan.cores().len();
    // Thread counts that make sense on this host: never oversubscribe
    // past the affinity mask (pinning T > cores threads would stack them).
    let thread_counts: Vec<usize> = [1usize, 2, 4, 8]
        .into_iter()
        .filter(|&t| t == 1 || t <= available)
        .collect();

    println!(
        "train bench: {} nodes, {} edges, {} epochs, kernel={}, {} core(s) available",
        num_nodes,
        edges.len(),
        epochs,
        dispatch::active().name(),
        available
    );

    let mut table = Table::new(
        "Training throughput — edges/sec (best of reps)",
        &["threads", "unpinned", "pinned", "pinned/unpinned"],
    );
    let mut records = Vec::new();
    for &threads in &thread_counts {
        let build = |pin: bool| {
            PbgConfig::builder()
                .dim(64)
                .epochs(epochs)
                .threads(threads)
                .seed(7)
                .pin_cores(pin)
                .build()
                .expect("bench config")
        };
        // Interleave the arms rep by rep so slow clock/thermal drift over
        // the run hits both equally instead of biasing whichever ran last.
        let (mut unpinned, mut pinned) = (0.0f64, 0.0f64);
        for _ in 0..reps {
            unpinned = unpinned.max(throughput(&schema, &edges, &build(false)));
            pinned = pinned.max(throughput(&schema, &edges, &build(true)));
        }
        let ratio = if unpinned > 0.0 {
            pinned / unpinned
        } else {
            0.0
        };
        table.row(&[
            threads.to_string(),
            format!("{unpinned:.0}"),
            format!("{pinned:.0}"),
            format!("{ratio:.3}x"),
        ]);
        println!(
            "threads={threads:<2} unpinned {unpinned:>10.0} e/s  pinned {pinned:>10.0} e/s  ({ratio:.3}x)"
        );
        records.push(json!({
            "threads": threads,
            "edges_per_sec_unpinned": unpinned,
            "edges_per_sec_pinned": pinned,
            "pinned_vs_unpinned": ratio,
        }));
    }

    table.print();
    let result = json!({
        "bench": "train",
        "quick": args.quick,
        "dispatch_active": dispatch::active().name(),
        "cores_available": available,
        "num_nodes": num_nodes,
        "num_edges": edges.len(),
        "epochs": epochs,
        "arms": records,
    });
    report("train", &result);
}
