//! Relation operators `g(x, θ_r)` — forward and backward.
//!
//! The operator kinds (§3.1) cover the classic multi-relation models:
//! identity (plain factorization), translation (TransE), diagonal
//! (DistMult), linear (RESCAL), and complex-diagonal (ComplEx). Operators
//! act on *batches*: a `C × d` matrix of embeddings transforms in one shot,
//! which for the linear operator is a single matmul — the optimization §4.3
//! calls out for relation-grouped batches.

use pbg_graph::schema::OperatorKind;
use pbg_tensor::complex::{complex_hadamard, complex_hadamard_conj};
use pbg_tensor::kernels::{self, PackedNt};
use pbg_tensor::matrix::Matrix;

/// Initial parameter values for `op` at dimension `dim`: every operator
/// starts as (near) identity so early training is stable.
///
/// # Panics
///
/// Panics if `op` is `ComplexDiagonal` and `dim` is odd.
pub fn init_params(op: OperatorKind, dim: usize) -> Vec<f32> {
    match op {
        OperatorKind::Identity => Vec::new(),
        OperatorKind::Translation => vec![0.0; dim],
        OperatorKind::Diagonal => vec![1.0; dim],
        OperatorKind::ComplexDiagonal => {
            assert!(dim.is_multiple_of(2), "complex operator needs even dim");
            let mut p = vec![0.0; dim];
            for i in (0..dim).step_by(2) {
                p[i] = 1.0; // 1 + 0i
            }
            p
        }
        OperatorKind::Linear => {
            let mut p = vec![0.0; dim * dim];
            for i in 0..dim {
                p[i * dim + i] = 1.0;
            }
            p
        }
    }
}

/// Applies `g(·, params)` to every row of `input` (`C × d`).
///
/// # Panics
///
/// Panics if `params.len() != op.param_count(input.cols())`.
pub fn apply(op: OperatorKind, params: &[f32], input: &Matrix) -> Matrix {
    let rows = RowOperator::new(op, params, input.cols());
    if op == OperatorKind::Identity {
        return input.clone();
    }
    let mut out = Matrix::zeros(input.rows(), input.cols());
    rows.apply_into(input.as_slice(), out.as_mut_slice());
    out
}

/// `g(·, params)` prepared for repeated application to blocks of rows:
/// [`apply`] runs on it, and so does the gathered scorer, which rewrites
/// each staged block of candidates in place. The linear operator's matrix
/// is packed once, not per block.
#[derive(Debug)]
pub(crate) struct RowOperator<'a> {
    op: OperatorKind,
    params: &'a [f32],
    dim: usize,
    linear: Option<PackedNt>,
    scratch: Vec<f32>,
}

impl<'a> RowOperator<'a> {
    /// Prepares `op` with `params` for rows of `dim` floats.
    ///
    /// # Panics
    ///
    /// Panics if `params.len() != op.param_count(dim)`.
    pub(crate) fn new(op: OperatorKind, params: &'a [f32], dim: usize) -> Self {
        assert_eq!(
            params.len(),
            op.param_count(dim),
            "operator {op} expects {} params for dim {dim}, got {}",
            op.param_count(dim),
            params.len()
        );
        // params is A (d×d, row-major); row-vector form: out = x · Aᵀ
        let linear = (op == OperatorKind::Linear).then(|| PackedNt::pack(dim, dim, params, dim));
        RowOperator {
            op,
            params,
            dim,
            linear,
            scratch: Vec::new(),
        }
    }

    /// Writes `g(row, params)` for every `dim`-float row of `input` into
    /// the matching row of `out`.
    ///
    /// # Panics
    ///
    /// Panics if `input` and `out` differ in length or are not whole rows.
    pub(crate) fn apply_into(&self, input: &[f32], out: &mut [f32]) {
        let d = self.dim;
        assert_eq!(input.len(), out.len(), "RowOperator: length mismatch");
        if d == 0 {
            return;
        }
        assert!(input.len().is_multiple_of(d), "RowOperator: partial row");
        let rows = out.chunks_exact_mut(d).zip(input.chunks_exact(d));
        match self.op {
            OperatorKind::Identity => out.copy_from_slice(input),
            OperatorKind::Translation => {
                for (o, x) in rows {
                    o.copy_from_slice(x);
                    pbg_tensor::vecmath::axpy(1.0, self.params, o);
                }
            }
            OperatorKind::Diagonal => {
                for (o, x) in rows {
                    pbg_tensor::vecmath::hadamard(x, self.params, o);
                }
            }
            OperatorKind::ComplexDiagonal => {
                for (o, x) in rows {
                    complex_hadamard(x, self.params, o);
                }
            }
            OperatorKind::Linear => {
                let packed = self.linear.as_ref().expect("packed at construction");
                kernels::matmul_nt_packed(input.len() / d, d, input, d, packed, out, d);
            }
        }
    }

    /// [`RowOperator::apply_into`] with `rows` as both input and output.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is not whole rows.
    pub(crate) fn apply_in_place(&mut self, rows: &mut [f32]) {
        if self.op == OperatorKind::Identity {
            return;
        }
        let mut input = std::mem::take(&mut self.scratch);
        input.clear();
        input.extend_from_slice(rows);
        self.apply_into(&input, rows);
        self.scratch = input;
    }
}

/// Backpropagates through the operator: given `input` (`C × d`) and the
/// loss gradient w.r.t. the operator output (`C × d`), returns the
/// gradient w.r.t. `input` and w.r.t. the parameters.
///
/// # Panics
///
/// Panics if shapes are inconsistent with `op`.
pub fn backward(
    op: OperatorKind,
    params: &[f32],
    input: &Matrix,
    grad_out: &Matrix,
) -> (Matrix, Vec<f32>) {
    let d = input.cols();
    assert_eq!(grad_out.rows(), input.rows(), "backward: row mismatch");
    assert_eq!(grad_out.cols(), d, "backward: col mismatch");
    assert_eq!(params.len(), op.param_count(d), "backward: param mismatch");
    match op {
        OperatorKind::Identity => (grad_out.clone(), Vec::new()),
        OperatorKind::Translation => {
            // out = x + θ: grad_x = grad_out, grad_θ = Σ_rows grad_out
            let mut grad_params = vec![0.0; d];
            for i in 0..grad_out.rows() {
                pbg_tensor::vecmath::axpy(1.0, grad_out.row(i), &mut grad_params);
            }
            (grad_out.clone(), grad_params)
        }
        OperatorKind::Diagonal => {
            // out = x ⊙ θ: grad_x = g ⊙ θ, grad_θ = Σ g ⊙ x
            let mut grad_in = Matrix::zeros(input.rows(), d);
            let mut grad_params = vec![0.0; d];
            let mut tmp = vec![0.0; d];
            for i in 0..input.rows() {
                pbg_tensor::vecmath::hadamard(grad_out.row(i), params, grad_in.row_mut(i));
                pbg_tensor::vecmath::hadamard(grad_out.row(i), input.row(i), &mut tmp);
                pbg_tensor::vecmath::axpy(1.0, &tmp, &mut grad_params);
            }
            (grad_in, grad_params)
        }
        OperatorKind::ComplexDiagonal => {
            // out = x ⊙c θ: grad_x = g ⊙c conj(θ), grad_θ = Σ g ⊙c conj(x)
            let mut grad_in = Matrix::zeros(input.rows(), d);
            let mut grad_params = vec![0.0; d];
            let mut tmp = vec![0.0; d];
            for i in 0..input.rows() {
                complex_hadamard_conj(grad_out.row(i), params, grad_in.row_mut(i));
                complex_hadamard_conj(grad_out.row(i), input.row(i), &mut tmp);
                pbg_tensor::vecmath::axpy(1.0, &tmp, &mut grad_params);
            }
            (grad_in, grad_params)
        }
        OperatorKind::Linear => {
            // out = x · Aᵀ: grad_x = g · A, grad_A = gᵀ · x
            let a = Matrix::from_vec(d, d, params.to_vec());
            let grad_in = grad_out.matmul(&a);
            let grad_a = grad_out.transpose().matmul(input);
            (grad_in, grad_a.into_vec())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbg_tensor::rng::Xoshiro256;

    const OPS: [OperatorKind; 5] = [
        OperatorKind::Identity,
        OperatorKind::Translation,
        OperatorKind::Diagonal,
        OperatorKind::ComplexDiagonal,
        OperatorKind::Linear,
    ];

    fn random_matrix(rows: usize, cols: usize, rng: &mut Xoshiro256) -> Matrix {
        let mut m = Matrix::zeros(rows, cols);
        m.fill_with(|_, _| rng.gen_normal() * 0.5);
        m
    }

    fn random_params(op: OperatorKind, dim: usize, rng: &mut Xoshiro256) -> Vec<f32> {
        (0..op.param_count(dim))
            .map(|_| rng.gen_normal() * 0.5)
            .collect()
    }

    /// Scalar objective for gradient checking: sum of (out ⊙ probe).
    fn objective(op: OperatorKind, params: &[f32], input: &Matrix, probe: &Matrix) -> f64 {
        let out = apply(op, params, input);
        let mut total = 0.0f64;
        for i in 0..out.rows() {
            total += pbg_tensor::vecmath::dot(out.row(i), probe.row(i)) as f64;
        }
        total
    }

    #[test]
    fn identity_init_is_noop_for_all_ops() {
        let mut rng = Xoshiro256::seed_from_u64(1);
        let x = random_matrix(3, 4, &mut rng);
        for op in OPS {
            let params = init_params(op, 4);
            let out = apply(op, &params, &x);
            for i in 0..3 {
                for j in 0..4 {
                    assert!(
                        (out.row(i)[j] - x.row(i)[j]).abs() < 1e-6,
                        "{op} init is not identity"
                    );
                }
            }
        }
    }

    #[test]
    fn input_gradients_match_finite_differences() {
        let mut rng = Xoshiro256::seed_from_u64(2);
        for op in OPS {
            let x = random_matrix(3, 4, &mut rng);
            let params = random_params(op, 4, &mut rng);
            let probe = random_matrix(3, 4, &mut rng);
            let (grad_in, _) = backward(op, &params, &x, &probe);
            let eps = 1e-3f32;
            for i in 0..3 {
                for j in 0..4 {
                    let mut xp = x.clone();
                    xp.row_mut(i)[j] += eps;
                    let mut xm = x.clone();
                    xm.row_mut(i)[j] -= eps;
                    let fd = (objective(op, &params, &xp, &probe)
                        - objective(op, &params, &xm, &probe))
                        / (2.0 * eps as f64);
                    let an = grad_in.row(i)[j] as f64;
                    assert!(
                        (fd - an).abs() < 1e-2 * (1.0 + an.abs()),
                        "{op} grad_in[{i}][{j}]: fd={fd} analytic={an}"
                    );
                }
            }
        }
    }

    #[test]
    fn param_gradients_match_finite_differences() {
        let mut rng = Xoshiro256::seed_from_u64(3);
        for op in OPS {
            let n_params = op.param_count(4);
            if n_params == 0 {
                continue;
            }
            let x = random_matrix(3, 4, &mut rng);
            let params = random_params(op, 4, &mut rng);
            let probe = random_matrix(3, 4, &mut rng);
            let (_, grad_params) = backward(op, &params, &x, &probe);
            assert_eq!(grad_params.len(), n_params);
            let eps = 1e-3f32;
            for k in 0..n_params {
                let mut pp = params.clone();
                pp[k] += eps;
                let mut pm = params.clone();
                pm[k] -= eps;
                let fd = (objective(op, &pp, &x, &probe) - objective(op, &pm, &x, &probe))
                    / (2.0 * eps as f64);
                let an = grad_params[k] as f64;
                assert!(
                    (fd - an).abs() < 1e-2 * (1.0 + an.abs()),
                    "{op} grad_params[{k}]: fd={fd} analytic={an}"
                );
            }
        }
    }

    #[test]
    fn row_operator_matches_the_per_operator_formulas_bitwise() {
        // `apply` and the gathered scorer's staged blocks both run on
        // `RowOperator`; it must give every row the arithmetic of the
        // textbook formulation, whatever the block size
        let mut rng = Xoshiro256::seed_from_u64(4);
        let d = 6;
        let x = random_matrix(11, d, &mut rng);
        for op in OPS {
            let params = random_params(op, d, &mut rng);
            let want = match op {
                OperatorKind::Identity => x.clone(),
                OperatorKind::Linear => x.matmul_nt(&Matrix::from_vec(d, d, params.clone())),
                _ => {
                    let mut out = Matrix::zeros(x.rows(), d);
                    for i in 0..x.rows() {
                        let o = out.row_mut(i);
                        match op {
                            OperatorKind::Translation => {
                                o.copy_from_slice(x.row(i));
                                pbg_tensor::vecmath::axpy(1.0, &params, o);
                            }
                            OperatorKind::Diagonal => {
                                pbg_tensor::vecmath::hadamard(x.row(i), &params, o)
                            }
                            _ => complex_hadamard(x.row(i), &params, o),
                        }
                    }
                    out
                }
            };
            assert_eq!(apply(op, &params, &x), want, "{op} apply");
            let mut prepared = RowOperator::new(op, &params, d);
            for block in [1, 3, 8] {
                let mut rows = x.as_slice().to_vec();
                rows.chunks_mut(block * d)
                    .for_each(|b| prepared.apply_in_place(b));
                assert!(
                    rows.iter()
                        .zip(want.as_slice())
                        .all(|(a, b)| a.to_bits() == b.to_bits()),
                    "{op} in place, blocks of {block}"
                );
            }
        }
    }

    #[test]
    fn translation_shifts_rows() {
        let x = Matrix::from_rows(&[&[1.0, 2.0]]);
        let out = apply(OperatorKind::Translation, &[10.0, 20.0], &x);
        assert_eq!(out.row(0), &[11.0, 22.0]);
    }

    #[test]
    fn linear_applies_matrix() {
        // A = [[0, 1], [1, 0]] swaps coordinates (A x in column form)
        let x = Matrix::from_rows(&[&[3.0, 4.0]]);
        let out = apply(OperatorKind::Linear, &[0.0, 1.0, 1.0, 0.0], &x);
        assert_eq!(out.row(0), &[4.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "params")]
    fn wrong_param_count_panics() {
        let x = Matrix::zeros(1, 4);
        let _ = apply(OperatorKind::Translation, &[0.0; 3], &x);
    }

    #[test]
    #[should_panic(expected = "even dim")]
    fn complex_odd_dim_panics() {
        let _ = init_params(OperatorKind::ComplexDiagonal, 5);
    }
}
