//! Row-major dense f32 matrices and the batched products used by PBG.
//!
//! PBG's batched negative sampling (§4.3) computes all chunk-vs-chunk edge
//! scores as one `B × B_n` matrix product; the linear (RESCAL) relation
//! operator is also a matmul. The products delegate to the cache-blocked,
//! panel-packed kernels in [`crate::kernels`]; the naive loops live on as
//! [`crate::kernels::reference`], the differential-test oracle.

use crate::kernels;
use crate::vecmath;

/// A dense row-major matrix of `f32`.
///
/// Rows are the natural unit (an embedding per row), so the API is
/// row-oriented: [`Matrix::row`], [`Matrix::row_mut`], [`Matrix::matmul`],
/// [`Matrix::matmul_nt`].
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a `rows × cols` zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Reshapes this matrix in place to `rows × cols`, zero-filled,
    /// reusing the existing allocation when capacity allows. This is the
    /// scratch-buffer primitive for per-thread reuse in HOGWILD workers:
    /// after the first few chunks no allocator traffic remains.
    pub fn resize(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// Creates a matrix from owned data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "from_vec: data length mismatch");
        Matrix { rows, cols, data }
    }

    /// Creates a matrix by copying a slice of row slices.
    ///
    /// # Panics
    ///
    /// Panics if rows have unequal lengths.
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        if rows.is_empty() {
            return Matrix::zeros(0, 0);
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "from_rows: ragged rows");
            data.extend_from_slice(r);
        }
        Matrix {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Borrow of row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f32] {
        assert!(i < self.rows, "row index {i} out of bounds ({})", self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutable borrow of row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f32] {
        assert!(i < self.rows, "row index {i} out of bounds ({})", self.rows);
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// The underlying row-major storage.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying row-major storage.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the matrix, returning its storage.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Fills the matrix with values drawn from `f(row, col)`.
    pub fn fill_with(&mut self, mut f: impl FnMut(usize, usize) -> f32) {
        for r in 0..self.rows {
            for c in 0..self.cols {
                self.data[r * self.cols + c] = f(r, c);
            }
        }
    }

    /// Standard product `self * other` (`m×k · k×n = m×n`).
    ///
    /// Delegates to the k-unrolled blocked kernel
    /// ([`crate::kernels::matmul`]).
    ///
    /// # Panics
    ///
    /// Panics if `self.cols != other.rows`.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.rows,
            "matmul: inner dimensions mismatch ({}x{} * {}x{})",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Matrix::zeros(self.rows, other.cols);
        kernels::matmul(
            self.rows,
            other.cols,
            self.cols,
            &self.data,
            self.cols.max(1),
            &other.data,
            other.cols.max(1),
            &mut out.data,
            other.cols.max(1),
        );
        out
    }

    /// Product with the transpose of `other`: `self * otherᵀ`
    /// (`m×k · (n×k)ᵀ = m×n`).
    ///
    /// This is the score-matrix kernel of batched negative sampling: rows of
    /// `self` are transformed positives, rows of `other` are candidate
    /// negatives, and entry `(i, j)` is their dot product. Delegates to the
    /// blocked panel-packed kernel ([`crate::kernels::matmul_nt_auto`]),
    /// which engages the scoped-thread row split for large shapes.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols != other.cols`.
    pub fn matmul_nt(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.cols,
            "matmul_nt: column dimensions mismatch ({}x{} * {}x{}^T)",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Matrix::zeros(self.rows, other.rows);
        kernels::matmul_nt_auto(
            self.rows,
            other.rows,
            self.cols,
            &self.data,
            self.cols.max(1),
            &other.data,
            other.cols.max(1),
            &mut out.data,
            other.rows.max(1),
        );
        out
    }

    /// Accumulates `alpha * other` into `self`.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn add_scaled(&mut self, alpha: f32, other: &Matrix) {
        assert_eq!(self.rows, other.rows, "add_scaled: row mismatch");
        assert_eq!(self.cols, other.cols, "add_scaled: col mismatch");
        vecmath::axpy(alpha, &other.data, &mut self.data);
    }

    /// Returns the transpose as a new matrix (tile-blocked copy).
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        kernels::transpose(
            self.rows,
            self.cols,
            &self.data,
            self.cols.max(1),
            &mut out.data,
            self.rows.max(1),
        );
        out
    }
}

impl Default for Matrix {
    fn default() -> Self {
        Matrix::zeros(0, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_matmul_is_noop() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let i = Matrix::identity(2);
        assert_eq!(a.matmul(&i), a);
        assert_eq!(i.matmul(&a), a);
    }

    #[test]
    fn matmul_rectangular() {
        // (2x3) * (3x2)
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let b = Matrix::from_rows(&[&[7.0, 8.0], &[9.0, 10.0], &[11.0, 12.0]]);
        let c = a.matmul(&b);
        assert_eq!(c.rows(), 2);
        assert_eq!(c.cols(), 2);
        assert_eq!(c.row(0), &[58.0, 64.0]);
        assert_eq!(c.row(1), &[139.0, 154.0]);
    }

    #[test]
    fn matmul_nt_matches_explicit_transpose() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let b = Matrix::from_rows(&[&[7.0, 8.0], &[9.0, 10.0]]);
        let via_nt = a.matmul_nt(&b);
        let via_t = a.matmul(&b.transpose());
        assert_eq!(via_nt, via_t);
    }

    #[test]
    fn transpose_roundtrip() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn add_scaled_accumulates() {
        let mut a = Matrix::zeros(1, 2);
        let b = Matrix::from_rows(&[&[1.0, 2.0]]);
        a.add_scaled(0.5, &b);
        assert_eq!(a.row(0), &[0.5, 1.0]);
    }

    #[test]
    #[should_panic(expected = "inner dimensions mismatch")]
    fn matmul_shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn fill_with_sets_entries() {
        let mut a = Matrix::zeros(2, 2);
        a.fill_with(|r, c| (r * 10 + c) as f32);
        assert_eq!(a.row(1), &[10.0, 11.0]);
    }

    #[test]
    fn empty_matrix_ok() {
        let a = Matrix::from_rows(&[]);
        assert_eq!(a.rows(), 0);
        assert_eq!(a.cols(), 0);
    }

    #[test]
    fn resize_zeroes_and_reuses_capacity() {
        let mut a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        a.resize(1, 2);
        assert_eq!((a.rows(), a.cols()), (1, 2));
        assert_eq!(a.row(0), &[0.0, 0.0]);
        // Growing within the original 4-element capacity must not copy
        // stale data back in.
        a.row_mut(0).copy_from_slice(&[5.0, 6.0]);
        a.resize(2, 2);
        assert_eq!(a.as_slice(), &[0.0, 0.0, 0.0, 0.0]);
    }
}
