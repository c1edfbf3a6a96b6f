//! Binary logistic regression for downstream node classification.
//!
//! The YouTube experiment (§5.3) trains "a one-vs-rest logistic regression
//! model" on the learned embeddings to predict user group labels. This is
//! the binary base learner: L2-regularized logistic regression fit with
//! mini-batch SGD on dense feature vectors (the embeddings).

use pbg_tensor::rng::Xoshiro256;
use pbg_tensor::vecmath;

/// L2-regularized binary logistic regression.
#[derive(Debug, Clone)]
pub struct LogisticRegression {
    weights: Vec<f32>,
    bias: f32,
    learning_rate: f32,
    l2: f32,
    epochs: usize,
}

impl LogisticRegression {
    /// Creates an untrained model for `dim`-dimensional features.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`.
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0, "feature dimension must be positive");
        LogisticRegression {
            weights: vec![0.0; dim],
            bias: 0.0,
            learning_rate: 0.1,
            l2: 1e-4,
            epochs: 30,
        }
    }

    /// Sets the L2 penalty (default 1e-4).
    pub fn with_l2(mut self, l2: f32) -> Self {
        self.l2 = l2;
        self
    }

    /// Fits on `(features, labels)`; `labels[i]` is `true` for the
    /// positive class.
    ///
    /// # Panics
    ///
    /// Panics if inputs are empty or lengths disagree.
    pub fn fit(&mut self, features: &[Vec<f32>], labels: &[bool], seed: u64) {
        assert!(!features.is_empty(), "no training examples");
        assert_eq!(features.len(), labels.len(), "features/labels mismatch");
        let n = features.len();
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let mut order: Vec<usize> = (0..n).collect();
        for _ in 0..self.epochs {
            // reshuffle each epoch
            for i in (1..n).rev() {
                let j = rng.gen_index(i + 1);
                order.swap(i, j);
            }
            for &i in &order {
                let x = &features[i];
                debug_assert_eq!(x.len(), self.weights.len());
                let y = if labels[i] { 1.0 } else { 0.0 };
                let p = self.predict_proba(x);
                let err = p - y;
                // w -= lr * (err * x + l2 * w)
                for (w, &xk) in self.weights.iter_mut().zip(x) {
                    *w -= self.learning_rate * (err * xk + self.l2 * *w);
                }
                self.bias -= self.learning_rate * err;
            }
        }
    }

    /// Probability of the positive class.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the training dimension.
    pub fn predict_proba(&self, x: &[f32]) -> f32 {
        let z = vecmath::dot(&self.weights, x) + self.bias;
        1.0 / (1.0 + (-z).exp())
    }

    /// Hard prediction at threshold 0.5.
    pub fn predict(&self, x: &[f32]) -> bool {
        self.predict_proba(x) >= 0.5
    }

    /// The learned weights.
    pub fn weights(&self) -> &[f32] {
        &self.weights
    }

    /// The learned bias.
    pub fn bias(&self) -> f32 {
        self.bias
    }
}

/// One-vs-rest multi-label classifier: one binary model per class.
#[derive(Debug, Clone)]
pub struct OneVsRest {
    models: Vec<LogisticRegression>,
}

impl OneVsRest {
    /// Fits `num_classes` binary models. `label_sets[i]` holds the sorted
    /// class ids of example `i`.
    ///
    /// # Panics
    ///
    /// Panics if inputs are empty or lengths disagree.
    pub fn fit(
        features: &[Vec<f32>],
        label_sets: &[Vec<u16>],
        num_classes: u16,
        seed: u64,
    ) -> Self {
        assert_eq!(features.len(), label_sets.len(), "features/labels mismatch");
        assert!(!features.is_empty(), "no training examples");
        let dim = features[0].len();
        let models = (0..num_classes)
            .map(|class| {
                let labels: Vec<bool> = label_sets
                    .iter()
                    .map(|set| set.binary_search(&class).is_ok())
                    .collect();
                let mut m = LogisticRegression::new(dim);
                m.fit(features, &labels, seed.wrapping_add(class as u64));
                m
            })
            .collect();
        OneVsRest { models }
    }

    /// Number of classes.
    pub fn num_classes(&self) -> u16 {
        self.models.len() as u16
    }

    /// Per-class probabilities for one example.
    pub fn predict_proba(&self, x: &[f32]) -> Vec<f32> {
        self.models.iter().map(|m| m.predict_proba(x)).collect()
    }

    /// Predicted label set at threshold 0.5; when nothing crosses the
    /// threshold, the single most probable class is returned (standard
    /// practice so multi-label F1 is well-defined).
    pub fn predict(&self, x: &[f32]) -> Vec<u16> {
        let probs = self.predict_proba(x);
        let mut out: Vec<u16> = probs
            .iter()
            .enumerate()
            .filter(|(_, &p)| p >= 0.5)
            .map(|(c, _)| c as u16)
            .collect();
        if out.is_empty() {
            let best = probs
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite probs"))
                .map(|(c, _)| c as u16)
                .expect("at least one class");
            out.push(best);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Linearly separable blobs.
    fn blobs(n: usize, seed: u64) -> (Vec<Vec<f32>>, Vec<bool>) {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 0..n {
            let positive = i % 2 == 0;
            let center = if positive { 2.0 } else { -2.0 };
            xs.push(vec![
                center + rng.gen_normal() * 0.5,
                -center + rng.gen_normal() * 0.5,
            ]);
            ys.push(positive);
        }
        (xs, ys)
    }

    #[test]
    fn separable_data_is_learned() {
        let (xs, ys) = blobs(200, 1);
        let mut m = LogisticRegression::new(2);
        m.fit(&xs, &ys, 42);
        let correct = xs
            .iter()
            .zip(&ys)
            .filter(|(x, &y)| m.predict(x) == y)
            .count();
        assert!(correct >= 195, "only {correct}/200 correct");
    }

    #[test]
    fn probabilities_are_calibrated_direction() {
        let (xs, ys) = blobs(200, 2);
        let mut m = LogisticRegression::new(2);
        m.fit(&xs, &ys, 42);
        assert!(m.predict_proba(&[3.0, -3.0]) > 0.9);
        assert!(m.predict_proba(&[-3.0, 3.0]) < 0.1);
    }

    #[test]
    fn l2_shrinks_weights() {
        let (xs, ys) = blobs(200, 3);
        let mut weak = LogisticRegression::new(2).with_l2(0.0);
        weak.fit(&xs, &ys, 42);
        let mut strong = LogisticRegression::new(2).with_l2(1.0);
        strong.fit(&xs, &ys, 42);
        let n_weak = vecmath::norm(weak.weights());
        let n_strong = vecmath::norm(strong.weights());
        assert!(n_strong < n_weak, "{n_strong} !< {n_weak}");
    }

    #[test]
    fn one_vs_rest_learns_quadrants() {
        // 3 classes at distinct centers
        let mut rng = Xoshiro256::seed_from_u64(4);
        let centers = [(2.0, 0.0), (-2.0, 2.0), (0.0, -2.5)];
        let mut xs = Vec::new();
        let mut labels: Vec<Vec<u16>> = Vec::new();
        for i in 0..300 {
            let c = i % 3;
            let (cx, cy) = centers[c];
            xs.push(vec![
                cx + rng.gen_normal() * 0.4,
                cy + rng.gen_normal() * 0.4,
            ]);
            labels.push(vec![c as u16]);
        }
        let ovr = OneVsRest::fit(&xs, &labels, 3, 42);
        let mut correct = 0;
        for (x, l) in xs.iter().zip(&labels) {
            if ovr.predict(x) == *l {
                correct += 1;
            }
        }
        assert!(correct >= 280, "only {correct}/300 correct");
    }

    #[test]
    fn predict_never_returns_empty() {
        let xs = vec![vec![0.0, 0.0]; 4];
        let labels = vec![vec![0u16], vec![1], vec![0], vec![1]];
        let ovr = OneVsRest::fit(&xs, &labels, 2, 1);
        assert!(!ovr.predict(&[100.0, -100.0]).is_empty());
    }
}
