//! Figure 7: Twitter learning curves by machine count — MRR vs epoch and
//! vs wall-clock for M ∈ {1, 2, 4, 8}, P = 2M.
//!
//! Paper shape: same as Figure 6 but with *more linear* time scaling than
//! Freebase (single relation, less skew → better occupancy).
//!
//! ```sh
//! cargo run --release -p pbg-bench --bin fig7_twitter_curve [-- --quick]
//! ```

use pbg_bench::report::ExpArgs;
use pbg_bench::scaling::{self, Study};
use pbg_datagen::presets;

const STUDY: Study = Study {
    stem: "fig7_twitter_curve",
    label: "Figure 7",
    graph: "Twitter",
    preset: presets::twitter_like,
    seed: 97,
    scale: (0.00001, 0.00003),
    paper_size: "41,652,230 / 1 / 1,468,365,182",
    paper_nodes: 41_652_230,
    paper_train_edges: 1_321_528_664,
    partition_shape: "",
    machine_shape: "per-epoch curves overlap; per-time curves shift left \
                    nearly linearly with machines (Twitter scales better \
                    than Freebase).",
};

fn main() {
    scaling::curves(&STUDY, &ExpArgs::parse());
}
