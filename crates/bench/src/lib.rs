//! Experiment harness for regenerating every table and figure of the PBG
//! paper. Each binary under `src/bin/` reproduces one experiment; this
//! library holds the shared machinery: dataset scaling, PBG/baseline
//! training wrappers that collect the same metrics the paper reports,
//! plain-text table/curve rendering, and the scaling protocol that Tables
//! 3–4 and Figures 6–7 share.
//!
//! Absolute numbers differ from the paper (scaled datasets, different
//! hardware); each binary prints the paper's reported values alongside so
//! the *shape* — who wins, by what factor, where crossovers fall — can be
//! compared directly. See EXPERIMENTS.md.

pub mod harness;
pub mod report;
pub mod scaling;

pub use harness::{train_pbg, wrap_embeddings, PbgRun};
pub use report::Table;
