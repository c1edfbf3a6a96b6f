//! Figure 6: Freebase learning curves by machine count — MRR vs epoch
//! (top) and vs wall-clock time (bottom) for M ∈ {1, 2, 4, 8}, P = 2M.
//!
//! Paper shape: per-epoch curves coincide (distribution does not change
//! what an epoch learns, modulo a small M=8 gap); per-time curves fan out
//! — more machines reach the same MRR sooner.
//!
//! ```sh
//! cargo run --release -p pbg-bench --bin fig6_freebase_curve [-- --quick]
//! ```

use pbg_bench::report::ExpArgs;
use pbg_bench::scaling::{self, Study};
use pbg_datagen::presets;

const STUDY: Study = Study {
    stem: "fig6_freebase_curve",
    label: "Figure 6",
    graph: "Freebase",
    preset: presets::freebase_like,
    seed: 83,
    scale: (0.000004, 0.00004),
    paper_size: "121,216,723 / 25,291 / 2.7B",
    paper_nodes: 121_216_723,
    paper_train_edges: 2_452_563_539,
    partition_shape: "",
    machine_shape: "MRR-vs-epoch curves overlap across machine counts; \
                    MRR-vs-time curves shift left as machines increase.",
};

fn main() {
    scaling::curves(&STUDY, &ExpArgs::parse());
}
