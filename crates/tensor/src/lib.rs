//! Numeric substrate for `pbg-rs`, a Rust reproduction of PyTorch-BigGraph.
//!
//! PBG is implemented on top of PyTorch; this crate provides the small set
//! of dense-tensor facilities the system actually needs, from scratch:
//!
//! - [`vecmath`]: vector kernels (dot, cosine, axpy, norms).
//! - [`matrix`]: a row-major f32 [`matrix::Matrix`] with the batched
//!   matrix products used by batched negative sampling (§4.3 of the paper).
//! - [`kernels`]: the cache-blocked, panel-packed matmul kernels behind
//!   [`matrix::Matrix`], a fused score+gradient path
//!   ([`kernels::ScoreGrad`]), an optional scoped-thread row split for
//!   large shapes, runtime-dispatched SIMD microkernels
//!   ([`kernels::dispatch`], `PBG_KERNEL=scalar|sse2|avx2`), and the
//!   naive [`kernels::reference`] oracle the differential test harness
//!   diffs against.
//! - [`complex`]: complex Hadamard products for the ComplEx operator.
//! - [`hogwild`]: [`hogwild::HogwildArray`], a lock-free shared f32 store
//!   backed by `AtomicU32` with relaxed ordering — the sound Rust
//!   equivalent of HOGWILD's benign data races (Recht et al., 2011).
//! - [`adagrad`]: Adagrad state with the paper's row-summed accumulator
//!   (§3.1: "sum the accumulated gradient G over each embedding vector").
//! - [`alias`]: O(1) alias-method sampling from empirical distributions
//!   (used to sample negatives by data prevalence).
//! - [`zipf`]: bounded Zipf sampling for heavy-tailed synthetic graphs.
//! - [`rng`]: a tiny, fast, seedable xoshiro-style RNG for hot loops.
//!
//! # Example
//!
//! ```
//! use pbg_tensor::matrix::Matrix;
//!
//! let a = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]);
//! let b = Matrix::from_rows(&[&[2.0, 3.0], &[4.0, 5.0]]);
//! let c = a.matmul(&b);
//! assert_eq!(c.row(1), &[4.0, 5.0]);
//! ```

pub mod adagrad;
pub mod alias;
pub mod complex;
pub mod hogwild;
pub mod kernels;
pub mod matrix;
pub mod quant;
pub mod rng;
pub mod topk;
pub mod vecmath;
pub mod zipf;

pub use adagrad::AdagradRow;
pub use alias::AliasTable;
pub use hogwild::HogwildArray;
pub use matrix::Matrix;
pub use quant::Precision;
pub use rng::Xoshiro256;
pub use zipf::Zipf;
