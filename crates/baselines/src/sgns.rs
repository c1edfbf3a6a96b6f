//! Skip-gram with negative sampling (word2vec; Mikolov et al., 2013).
//!
//! DeepWalk's trainer: for each token in each walk, predict its window
//! context with a logistic loss against `k` negatives drawn from the
//! unigram distribution raised to the 3/4 power. Input ("syn0") vectors
//! are the embeddings; output ("syn1neg") vectors are discarded. Training
//! is HOGWILD over walks, like the original C implementation.

use crate::walks::WalkCorpus;
use pbg_tensor::alias::AliasTable;
use pbg_tensor::hogwild::HogwildArray;
use pbg_tensor::matrix::Matrix;
use pbg_tensor::rng::Xoshiro256;

/// SGNS hyperparameters.
#[derive(Debug, Clone, PartialEq)]
pub struct SgnsConfig {
    /// Embedding dimension.
    pub dim: usize,
    /// Context window radius.
    pub window: usize,
    /// Negative samples per (center, context) pair.
    pub negatives: usize,
    /// Initial learning rate (linearly decayed to 1e-4 of itself).
    pub learning_rate: f32,
    /// Passes over the corpus.
    pub epochs: usize,
    /// HOGWILD threads.
    pub threads: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SgnsConfig {
    fn default() -> Self {
        SgnsConfig {
            dim: 64,
            window: 5,
            negatives: 5,
            learning_rate: 0.025,
            epochs: 1,
            threads: 4,
            seed: 0,
        }
    }
}

/// Trainable SGNS model over `num_nodes` tokens.
#[derive(Debug)]
pub struct Sgns {
    input: HogwildArray,
    output: HogwildArray,
    table: AliasTable,
    config: SgnsConfig,
}

impl Sgns {
    /// Initializes from token frequencies (builds the `f^0.75` negative
    /// table).
    ///
    /// # Panics
    ///
    /// Panics if `frequencies` is empty or config fields are zero.
    pub fn new(frequencies: &[f32], config: SgnsConfig) -> Self {
        assert!(!frequencies.is_empty(), "no tokens");
        assert!(
            config.dim > 0 && config.epochs > 0 && config.threads > 0,
            "invalid sgns config"
        );
        let n = frequencies.len();
        let mut rng = Xoshiro256::seed_from_u64(config.seed);
        let init: Vec<f32> = (0..n * config.dim)
            .map(|_| (rng.gen_f32() - 0.5) / config.dim as f32)
            .collect();
        let smoothed: Vec<f32> = frequencies.iter().map(|f| f.powf(0.75)).collect();
        Sgns {
            input: HogwildArray::from_vec(n, config.dim, init),
            output: HogwildArray::zeros(n, config.dim),
            table: AliasTable::new(&smoothed),
            config,
        }
    }

    /// Model bytes (both layers + negative table).
    pub fn bytes(&self) -> usize {
        self.input.bytes() + self.output.bytes() + self.table.bytes()
    }

    /// Trains on the corpus; `on_epoch` runs after each pass (return
    /// `false` to stop early).
    pub fn train_with(&self, corpus: &WalkCorpus, mut on_epoch: impl FnMut(usize, &Sgns) -> bool) {
        let total_epochs = self.config.epochs;
        for epoch in 1..=total_epochs {
            self.train_epoch(corpus, epoch);
            if !on_epoch(epoch, self) {
                break;
            }
        }
    }

    /// Trains all configured epochs.
    pub fn train(&self, corpus: &WalkCorpus) {
        self.train_with(corpus, |_, _| true);
    }

    fn train_epoch(&self, corpus: &WalkCorpus, epoch: usize) {
        let walks = corpus.walks();
        let threads = self.config.threads.min(walks.len().max(1));
        let chunk = walks.len().div_ceil(threads);
        crossbeam::thread::scope(|scope| {
            for (tid, slice) in walks.chunks(chunk.max(1)).enumerate() {
                scope.spawn(move |_| {
                    let mut rng = Xoshiro256::seed_from_u64(
                        self.config
                            .seed
                            .wrapping_add((epoch as u64) << 32)
                            .wrapping_add(tid as u64),
                    );
                    self.train_slice(slice, epoch, &mut rng);
                });
            }
        })
        .expect("sgns scope panicked");
    }

    fn train_slice(&self, walks: &[Vec<u32>], epoch: usize, rng: &mut Xoshiro256) {
        let dim = self.config.dim;
        let mut center_buf = vec![0.0f32; dim];
        let mut ctx_buf = vec![0.0f32; dim];
        let mut center_grad = vec![0.0f32; dim];
        // linear decay across epochs
        let progress = (epoch - 1) as f32 / self.config.epochs as f32;
        let lr =
            (self.config.learning_rate * (1.0 - progress)).max(self.config.learning_rate * 1e-4);
        for walk in walks {
            for (i, &center) in walk.iter().enumerate() {
                let window = 1 + rng.gen_index(self.config.window);
                let lo = i.saturating_sub(window);
                let hi = (i + window + 1).min(walk.len());
                self.input.read_row_into(center as usize, &mut center_buf);
                center_grad.iter_mut().for_each(|g| *g = 0.0);
                for &context in &walk[lo..hi] {
                    if context == center {
                        continue;
                    }
                    // positive pair + negatives on the output layer
                    self.pair_update(
                        &center_buf,
                        &mut center_grad,
                        context,
                        1.0,
                        lr,
                        &mut ctx_buf,
                    );
                    for _ in 0..self.config.negatives {
                        let neg = self.table.sample(rng) as u32;
                        if neg == context {
                            continue;
                        }
                        self.pair_update(&center_buf, &mut center_grad, neg, 0.0, lr, &mut ctx_buf);
                    }
                }
                self.input.add_to_row(center as usize, 1.0, &center_grad);
            }
        }
    }

    #[inline]
    fn pair_update(
        &self,
        center: &[f32],
        center_grad: &mut [f32],
        target: u32,
        label: f32,
        lr: f32,
        ctx_buf: &mut [f32],
    ) {
        self.output.read_row_into(target as usize, ctx_buf);
        let score = pbg_tensor::vecmath::dot(center, ctx_buf);
        let pred = 1.0 / (1.0 + (-score).exp());
        let g = lr * (label - pred);
        for k in 0..center.len() {
            center_grad[k] += g * ctx_buf[k];
            ctx_buf[k] = g * center[k];
        }
        self.output.add_to_row(target as usize, 1.0, ctx_buf);
    }

    /// The learned embeddings (input layer) as a dense matrix.
    pub fn embeddings(&self) -> Matrix {
        Matrix::from_vec(self.input.rows(), self.input.cols(), self.input.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adjacency::Adjacency;
    use crate::walks::{WalkConfig, WalkCorpus};
    use pbg_graph::edges::{Edge, EdgeList};

    /// Two cliques joined by one edge — embeddings should separate them.
    fn two_cliques() -> (Adjacency, usize) {
        let mut edges = EdgeList::new();
        for a in 0..8u32 {
            for b in (a + 1)..8 {
                edges.push(Edge::new(a, 0u32, b));
                edges.push(Edge::new(a + 8, 0u32, b + 8));
            }
        }
        edges.push(Edge::new(0u32, 0u32, 8u32));
        (Adjacency::from_edges(&edges, 16), 16)
    }

    #[test]
    fn embeddings_separate_communities() {
        let (adj, n) = two_cliques();
        let corpus = WalkCorpus::generate(
            &adj,
            WalkConfig {
                walks_per_node: 20,
                walk_length: 20,
            },
            1,
        );
        let sgns = Sgns::new(
            &corpus.frequencies(n),
            SgnsConfig {
                dim: 16,
                epochs: 3,
                threads: 2,
                ..Default::default()
            },
        );
        sgns.train(&corpus);
        let emb = sgns.embeddings();
        // average intra-clique cosine must beat inter-clique
        let cos = |a: usize, b: usize| pbg_tensor::vecmath::cosine(emb.row(a), emb.row(b));
        let mut intra = 0.0;
        let mut inter = 0.0;
        let mut n_intra = 0;
        let mut n_inter = 0;
        for a in 0..8 {
            for b in 0..8 {
                if a < b {
                    intra += cos(a, b) + cos(a + 8, b + 8);
                    n_intra += 2;
                }
                inter += cos(a, b + 8);
                n_inter += 1;
            }
        }
        let intra = intra / n_intra as f32;
        let inter = inter / n_inter as f32;
        assert!(intra > inter + 0.1, "intra {intra} not above inter {inter}");
    }

    #[test]
    fn epoch_callback_can_stop_early() {
        let (adj, n) = two_cliques();
        let corpus = WalkCorpus::generate(&adj, WalkConfig::default(), 2);
        let sgns = Sgns::new(
            &corpus.frequencies(n),
            SgnsConfig {
                dim: 8,
                epochs: 10,
                threads: 1,
                ..Default::default()
            },
        );
        let mut seen = 0;
        sgns.train_with(&corpus, |epoch, _| {
            seen = epoch;
            epoch < 2
        });
        assert_eq!(seen, 2);
    }

    #[test]
    fn bytes_accounts_both_layers() {
        let sgns = Sgns::new(&[1.0; 10], SgnsConfig::default());
        assert!(sgns.bytes() >= 2 * 10 * 64 * 4);
    }
}
