//! Table 4: Twitter partition and machine sweeps.
//!
//! Paper numbers (41.7M nodes / 1.47B edges, single "follow" relation):
//!
//! Left (1 machine):               Right (distributed, P = 2M):
//! | P  | MRR   | H@10 | h    | GB  | | M | P  | MRR   | H@10 | h   | GB  |
//! |----|-------|------|------|-----| |---|----|-------|------|-----|-----|
//! | 1  | 0.136 | .233 | 18.0 | 95.1| | 1 | 1  | 0.136 | .233 | 18.0| 95.1|
//! | 4  | 0.137 | .235 | 16.8 | 43.4| | 2 | 4  | 0.137 | .235 | 9.8 | 79.4|
//! | 8  | 0.137 | .237 | 19.1 | 20.7| | 4 | 8  | 0.137 | .235 | 6.5 | 40.5|
//! | 16 | 0.136 | .235 | 23.8 | 10.2| | 8 | 16 | 0.137 | .235 | 3.4 | 20.4|
//!
//! Shape: quality completely flat in both sweeps (social graph, single
//! relation — more robust than Freebase); memory ~1/P; near-linear
//! machine speedup (18.0 → 3.4 h).
//!
//! ```sh
//! cargo run --release -p pbg-bench --bin table4_twitter [-- --distributed --quick]
//! ```

use pbg_bench::report::ExpArgs;
use pbg_bench::scaling::{self, Study};
use pbg_datagen::presets;

const STUDY: Study = Study {
    stem: "table4_twitter",
    label: "Table 4",
    graph: "Twitter",
    preset: presets::twitter_like,
    seed: 53,
    scale: (0.00001, 0.00003),
    paper_size: "41,652,230 / 1 / 1,468,365,182",
    paper_nodes: 41_652_230,
    paper_train_edges: 1_321_528_664,
    partition_shape: "MRR flat at 0.136–0.137; memory ≈ 1/P (95.1→10.2 GB).",
    machine_shape: "MRR flat at 0.136–0.137 through 8 machines; time falls \
                    18.0 → 3.4 h (more linear than Freebase).",
};

fn main() {
    scaling::table(&STUDY, &ExpArgs::parse());
}
