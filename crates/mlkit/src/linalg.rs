//! Dense row-major matrices with the factorizations the rest of the kit needs.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A dense row-major `f64` matrix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Zero matrix of the given shape.
    #[must_use]
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Identity matrix.
    #[must_use]
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if rows have unequal lengths or `rows` is empty.
    #[must_use]
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        assert!(!rows.is_empty(), "matrix needs at least one row");
        let cols = rows[0].len();
        assert!(rows.iter().all(|r| r.len() == cols), "ragged rows");
        let data = rows.iter().flatten().copied().collect();
        Self {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Builds from a flat row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    #[must_use]
    pub fn from_flat(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer does not match shape");
        Self { rows, cols, data }
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Row `i` as a slice.
    #[must_use]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutable row `i`.
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// The underlying row-major buffer.
    #[must_use]
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Matrix transpose.
    #[must_use]
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// Matrix product `self * other`.
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch.
    #[must_use]
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows, "inner dimensions must agree");
        let mut out = Matrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a == 0.0 {
                    continue;
                }
                for j in 0..other.cols {
                    out[(i, j)] += a * other[(k, j)];
                }
            }
        }
        out
    }

    /// Matrix–vector product.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != cols`.
    #[must_use]
    pub fn matvec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(v.len(), self.cols, "vector length must equal column count");
        (0..self.rows)
            .map(|i| self.row(i).iter().zip(v).map(|(a, b)| a * b).sum())
            .collect()
    }

    /// Cholesky factorization `A = L Lᵀ` of a symmetric positive-definite
    /// matrix, returning lower-triangular `L`.
    ///
    /// Rows are factored in blocks of [`CHOLESKY_BLOCK`]. Left of the
    /// block's own triangle, its rows are independent dot-product chains
    /// over finished rows of `L`, so they run interleaved; the triangle is
    /// then finished row by row. Every entry still starts from `A`'s entry
    /// and subtracts its terms in ascending `k`, the order of the textbook
    /// row-by-row (Cholesky–Banachiewicz) loop, and pivots are checked in
    /// row order, so factor and error are bit-identical to that loop.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotPositiveDefinite`] when a pivot is
    /// non-positive (callers typically add jitter and retry).
    pub fn cholesky(&self) -> Result<Matrix, LinalgError> {
        assert_eq!(self.rows, self.cols, "cholesky needs a square matrix");
        let n = self.rows;
        let a = &self.data;
        let mut l = Matrix::zeros(n, n);
        for i0 in (0..n).step_by(CHOLESKY_BLOCK) {
            let height = CHOLESKY_BLOCK.min(n - i0);
            let (done, rest) = l.data.split_at_mut(i0 * n);
            let block = &mut rest[..height * n];
            if height == CHOLESKY_BLOCK {
                cholesky_left_columns::<CHOLESKY_BLOCK>(&a[i0 * n..], done, block, n, i0);
            } else {
                for (r, row) in block.chunks_exact_mut(n).enumerate() {
                    cholesky_left_columns::<1>(&a[(i0 + r) * n..], done, row, n, i0);
                }
            }
            for r in 0..height {
                let i = i0 + r;
                let (above, row) = block.split_at_mut(r * n);
                for j in i0..=i {
                    let (head, tail) = row.split_at_mut(j);
                    let lj = if j == i { &*head } else { &above[(j - i0) * n..(j - i0) * n + j] };
                    let mut sum = a[i * n + j];
                    for (&lik, &ljk) in head.iter().zip(lj) {
                        sum -= lik * ljk;
                    }
                    if j == i {
                        if sum <= 0.0 {
                            return Err(LinalgError::NotPositiveDefinite { pivot: i });
                        }
                        tail[0] = sum.sqrt();
                    } else {
                        tail[0] = sum / above[(j - i0) * n + j];
                    }
                }
            }
        }
        Ok(l)
    }

    /// Solves `A x = b` via this matrix's Cholesky factor (call on `L`).
    /// Forward-substitutes `L y = b` then back-substitutes `Lᵀ x = y`.
    #[must_use]
    pub fn cholesky_solve(&self, b: &[f64]) -> Vec<f64> {
        let n = self.rows;
        assert_eq!(b.len(), n);
        let mut y = vec![0.0; n];
        for (i, row) in self.data.chunks_exact(n.max(1)).take(n).enumerate() {
            let (done, rest) = y.split_at_mut(i);
            let mut sum = b[i];
            for (&lik, &yk) in row.iter().zip(done.iter()) {
                sum -= lik * yk;
            }
            rest[0] = sum / row[i];
        }
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let (head, later) = x.split_at_mut(i + 1);
            let mut sum = y[i];
            for (k, &xk) in later.iter().enumerate() {
                sum -= self.data[(i + 1 + k) * n + i] * xk;
            }
            head[i] = sum / self.data[i * n + i];
        }
        x
    }

    /// Eigen decomposition of a symmetric matrix by cyclic Jacobi rotation.
    /// Returns `(eigenvalues, eigenvectors)` sorted by descending eigenvalue;
    /// eigenvectors are the **rows** of the returned matrix.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    #[must_use]
    pub fn symmetric_eigen(&self) -> (Vec<f64>, Matrix) {
        assert_eq!(self.rows, self.cols, "eigen decomposition needs a square matrix");
        let n = self.rows;
        let mut a = self.clone();
        let mut v = Matrix::identity(n);
        for _sweep in 0..100 {
            let mut off: f64 = 0.0;
            for i in 0..n {
                for j in i + 1..n {
                    off += a[(i, j)] * a[(i, j)];
                }
            }
            if off.sqrt() < 1e-12 {
                break;
            }
            for p in 0..n {
                for q in p + 1..n {
                    if a[(p, q)].abs() < 1e-15 {
                        continue;
                    }
                    let theta = (a[(q, q)] - a[(p, p)]) / (2.0 * a[(p, q)]);
                    let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                    let c = 1.0 / (t * t + 1.0).sqrt();
                    let s = t * c;
                    for k in 0..n {
                        let akp = a[(k, p)];
                        let akq = a[(k, q)];
                        a[(k, p)] = c * akp - s * akq;
                        a[(k, q)] = s * akp + c * akq;
                    }
                    for k in 0..n {
                        let apk = a[(p, k)];
                        let aqk = a[(q, k)];
                        a[(p, k)] = c * apk - s * aqk;
                        a[(q, k)] = s * apk + c * aqk;
                    }
                    for k in 0..n {
                        let vkp = v[(k, p)];
                        let vkq = v[(k, q)];
                        v[(k, p)] = c * vkp - s * vkq;
                        v[(k, q)] = s * vkp + c * vkq;
                    }
                }
            }
        }
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&i, &j| a[(j, j)].total_cmp(&a[(i, i)]));
        let eigenvalues: Vec<f64> = order.iter().map(|&i| a[(i, i)]).collect();
        let mut vectors = Matrix::zeros(n, n);
        for (row, &i) in order.iter().enumerate() {
            for k in 0..n {
                vectors[(row, k)] = v[(k, i)];
            }
        }
        (eigenvalues, vectors)
    }
}

/// Rows the Cholesky factorization interleaves: enough independent
/// chains to hide the floating-point subtract latency of each.
const CHOLESKY_BLOCK: usize = 4;

/// Entries `L[i0 + r][j]` for `j < i0` of an `R`-row block of the
/// Cholesky factor. `a` holds the block's rows of `A` from row `i0` on,
/// `done` the finished rows `0..i0` of `L` and `block` the block's rows of
/// `L`, all flat with stride `n`. For each column the `R` rows are
/// independent chains over finished row `j`; each subtracts its terms in
/// ascending `k`, starting from `A[i0 + r][j]`.
fn cholesky_left_columns<const R: usize>(a: &[f64], done: &[f64], block: &mut [f64], n: usize, i0: usize) {
    for j in 0..i0 {
        let lj = &done[j * n..j * n + j];
        let mut sum: [f64; R] = std::array::from_fn(|r| a[r * n + j]);
        let heads: [&[f64]; R] = std::array::from_fn(|r| &block[r * n..r * n + j]);
        for (k, &ljk) in lj.iter().enumerate() {
            for (s, head) in sum.iter_mut().zip(&heads) {
                *s -= head[k] * ljk;
            }
        }
        let pivot = done[j * n + j];
        for (r, s) in sum.into_iter().enumerate() {
            block[r * n + j] = s / pivot;
        }
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;

    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}x{} matrix", self.rows, self.cols)?;
        for i in 0..self.rows.min(8) {
            for j in 0..self.cols.min(8) {
                write!(f, "{:10.4} ", self[(i, j)])?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// Errors from matrix factorizations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinalgError {
    /// Cholesky hit a non-positive pivot.
    NotPositiveDefinite {
        /// Index of the failing pivot.
        pivot: usize,
    },
}

impl fmt::Display for LinalgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinalgError::NotPositiveDefinite { pivot } => {
                write!(f, "matrix is not positive definite (pivot {pivot})")
            }
        }
    }
}

impl std::error::Error for LinalgError {}

/// The scalar kernels the blocked ones replaced, kept as equivalence
/// references for the tests.
#[cfg(test)]
pub(crate) mod reference {
    use super::{LinalgError, Matrix};

    /// Row-by-row (Cholesky–Banachiewicz) factorization, one dot product
    /// at a time.
    pub(crate) fn cholesky(a: &Matrix) -> Result<Matrix, LinalgError> {
        let n = a.rows();
        let mut l = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let mut sum = a[(i, j)];
                for k in 0..j {
                    sum -= l[(i, k)] * l[(j, k)];
                }
                if i == j {
                    if sum <= 0.0 {
                        return Err(LinalgError::NotPositiveDefinite { pivot: i });
                    }
                    l[(i, j)] = sum.sqrt();
                } else {
                    l[(i, j)] = sum / l[(j, j)];
                }
            }
        }
        Ok(l)
    }

    /// Forward then back substitution through the factor `l`, indexed.
    pub(crate) fn cholesky_solve(l: &Matrix, b: &[f64]) -> Vec<f64> {
        let n = l.rows();
        let mut y = vec![0.0; n];
        for i in 0..n {
            let mut sum = b[i];
            for k in 0..i {
                sum -= l[(i, k)] * y[k];
            }
            y[i] = sum / l[(i, i)];
        }
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let mut sum = y[i];
            for k in i + 1..n {
                sum -= l[(k, i)] * x[k];
            }
            x[i] = sum / l[(i, i)];
        }
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn matmul_matches_hand_example() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = Matrix::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c.row(0), &[19.0, 22.0]);
        assert_eq!(c.row(1), &[43.0, 50.0]);
    }

    #[test]
    fn cholesky_reconstructs() {
        let a = Matrix::from_rows(&[vec![4.0, 2.0, 0.6], vec![2.0, 5.0, 1.0], vec![0.6, 1.0, 3.0]]);
        let l = a.cholesky().unwrap();
        let back = l.matmul(&l.transpose());
        for i in 0..3 {
            for j in 0..3 {
                assert!((back[(i, j)] - a[(i, j)]).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 1.0]]);
        assert!(matches!(a.cholesky(), Err(LinalgError::NotPositiveDefinite { .. })));
    }

    #[test]
    fn cholesky_solve_inverts() {
        let a = Matrix::from_rows(&[vec![4.0, 2.0], vec![2.0, 5.0]]);
        let l = a.cholesky().unwrap();
        let x = l.cholesky_solve(&[8.0, 9.0]);
        let b = a.matvec(&x);
        assert!((b[0] - 8.0).abs() < 1e-10 && (b[1] - 9.0).abs() < 1e-10);
    }

    #[test]
    fn eigen_of_diagonal_matrix() {
        let a = Matrix::from_rows(&[vec![3.0, 0.0], vec![0.0, 1.0]]);
        let (vals, _) = a.symmetric_eigen();
        assert!((vals[0] - 3.0).abs() < 1e-10);
        assert!((vals[1] - 1.0).abs() < 1e-10);
    }

    #[test]
    fn eigen_reconstructs_symmetric_matrix() {
        let a = Matrix::from_rows(&[vec![2.0, 1.0, 0.0], vec![1.0, 3.0, 0.5], vec![0.0, 0.5, 1.5]]);
        let (vals, vecs) = a.symmetric_eigen();
        // A = Vᵀ diag(vals) V with eigenvectors as rows of V.
        let mut d = Matrix::zeros(3, 3);
        for i in 0..3 {
            d[(i, i)] = vals[i];
        }
        let back = vecs.transpose().matmul(&d).matmul(&vecs);
        for i in 0..3 {
            for j in 0..3 {
                assert!((back[(i, j)] - a[(i, j)]).abs() < 1e-8, "({i},{j})");
            }
        }
    }

    #[test]
    fn eigenvalues_sorted_descending() {
        let a = Matrix::from_rows(&[vec![1.0, 0.2, 0.1], vec![0.2, 5.0, 0.0], vec![0.1, 0.0, 2.0]]);
        let (vals, _) = a.symmetric_eigen();
        assert!(vals[0] >= vals[1] && vals[1] >= vals[2]);
    }

    #[test]
    fn transpose_is_involution() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
    }

    /// `(rows of bits, or the failing pivot)` of a factorization.
    fn factor_bits(r: Result<Matrix, LinalgError>) -> Result<Vec<u64>, LinalgError> {
        r.map(|l| l.data().iter().map(|v| v.to_bits()).collect())
    }

    /// Gram matrix of `n` random rows of width `d`, plus `diag` on the
    /// diagonal. Integer-valued rows repeat (singular Gram), and entries
    /// of either zero sign appear.
    fn random_gram(n: usize, d: usize, diag: f64, seed: u64) -> Matrix {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|_| {
                (0..d)
                    .map(|_| match rng.gen_range(0..4) {
                        0 => f64::from(rng.gen_range(-1i32..=1)),
                        1 => -0.0,
                        _ => rng.gen_range(-1.0..1.0),
                    })
                    .collect()
            })
            .collect();
        let x = Matrix::from_rows(&rows);
        let mut g = x.matmul(&x.transpose());
        for i in 0..n {
            g[(i, i)] += diag;
        }
        g
    }

    #[test]
    fn blocked_cholesky_is_bit_identical_to_row_by_row_reference() {
        let sizes = (1..=40).chain([63, 64, 65, 127, 128, 129, 199, 200, 255, 256, 257]);
        for (case, n) in sizes.enumerate() {
            let seed = case as u64;
            // Full-rank, rank-deficient (fails at some pivot) and
            // indefinite inputs.
            for (d, diag) in [(n + 3, 1e-3), (n / 2 + 1, 0.0), (3, -0.5)] {
                let a = random_gram(n, d, diag, seed);
                let expected = factor_bits(reference::cholesky(&a));
                assert_eq!(factor_bits(a.cholesky()), expected, "n={n} d={d} diag={diag}");
                if let Ok(l) = a.cholesky() {
                    let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
                    let bits = |x: Vec<f64>| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(l.cholesky_solve(&b)), bits(reference::cholesky_solve(&l, &b)), "n={n}");
                }
            }
        }
    }

    #[test]
    fn blocked_cholesky_matches_reference_on_signed_zeros_and_nan() {
        let mut a = Matrix::identity(9);
        a[(5, 2)] = -0.0;
        a[(2, 5)] = -0.0;
        a[(7, 0)] = 0.25;
        a[(0, 7)] = 0.25;
        let expected = factor_bits(reference::cholesky(&a));
        assert!(expected.is_ok());
        assert_eq!(factor_bits(a.cholesky()), expected);
        a[(6, 1)] = f64::NAN;
        a[(1, 6)] = f64::NAN;
        assert_eq!(factor_bits(a.cholesky()), factor_bits(reference::cholesky(&a)));
    }

    proptest! {
        #[test]
        fn matvec_is_linear(scale in -3.0f64..3.0) {
            let a = Matrix::from_rows(&[vec![1.0, -2.0], vec![0.5, 4.0]]);
            let v = vec![2.0, 3.0];
            let scaled: Vec<f64> = v.iter().map(|x| x * scale).collect();
            let lhs = a.matvec(&scaled);
            let rhs: Vec<f64> = a.matvec(&v).iter().map(|x| x * scale).collect();
            for (l, r) in lhs.iter().zip(&rhs) {
                prop_assert!((l - r).abs() < 1e-9);
            }
        }

        #[test]
        fn gram_matrices_are_psd(rows in 2usize..5, cols in 2usize..5, seed in 0u64..100) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let rows_v: Vec<Vec<f64>> = (0..rows).map(|_| (0..cols).map(|_| rng.gen_range(-1.0..1.0)).collect()).collect();
            let x = Matrix::from_rows(&rows_v);
            let gram = x.matmul(&x.transpose());
            let (vals, _) = gram.symmetric_eigen();
            for v in vals {
                prop_assert!(v > -1e-8);
            }
        }
    }
}
