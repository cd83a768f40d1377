//! Dense row-major matrices and the handful of operations the library
//! needs (products, transpose, covariance).

use std::fmt;

/// A dense row-major `f64` matrix.
///
/// # Examples
///
/// ```
/// use psca_ml::Matrix;
///
/// let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// let b = Matrix::identity(2);
/// let c = a.matmul(&b);
/// assert_eq!(c.get(1, 0), 3.0);
/// ```
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Matrix {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the identity matrix of size `n`.
    pub fn identity(n: usize) -> Matrix {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Builds a matrix from row slices.
    ///
    /// # Panics
    /// Panics if rows have differing lengths.
    pub fn from_rows(rows: &[&[f64]]) -> Matrix {
        let r = rows.len();
        let c = rows.first().map_or(0, |x| x.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "ragged rows");
            data.extend_from_slice(row);
        }
        Matrix {
            rows: r,
            cols: c,
            data,
        }
    }

    /// Builds a matrix from a flat row-major vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Matrix {
        assert_eq!(data.len(), rows * cols, "shape mismatch");
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element accessor.
    ///
    /// # Panics
    /// Panics on out-of-bounds access.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        self.data[r * self.cols + c]
    }

    /// Element setter.
    ///
    /// # Panics
    /// Panics on out-of-bounds access.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        self.data[r * self.cols + c] = v;
    }

    /// Borrow of one row.
    ///
    /// # Panics
    /// Panics if `r >= rows()`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        assert!(r < self.rows, "row out of bounds");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable borrow of one row.
    ///
    /// # Panics
    /// Panics if `r >= rows()`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        assert!(r < self.rows, "row out of bounds");
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The row-major elements.
    #[inline]
    pub(crate) fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// The row-major elements, mutably.
    #[inline]
    pub(crate) fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Matrix product `self * other`.
    ///
    /// # Panics
    /// Panics if inner dimensions disagree.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows, "inner dimension mismatch");
        let mut out = Matrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self.get(i, k);
                if a == 0.0 {
                    continue;
                }
                let orow = other.row(k);
                let out_row = out.row_mut(i);
                for (j, &b) in orow.iter().enumerate() {
                    out_row[j] += a * b;
                }
            }
        }
        out
    }

    /// Matrix-vector product.
    ///
    /// # Panics
    /// Panics if `v.len() != cols()`.
    pub fn matvec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(v.len(), self.cols, "dimension mismatch");
        (0..self.rows).map(|i| dot(self.row(i), v)).collect()
    }

    /// Transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out.set(j, i, self.get(i, j));
            }
        }
        out
    }

    /// Covariance matrix of the columns (population normalization).
    ///
    /// Rows are observations, columns are variables; the result is
    /// `cols × cols`.
    pub fn column_covariance(&self) -> Matrix {
        let n = self.rows.max(1) as f64;
        let means: Vec<f64> = (0..self.cols)
            .map(|j| (0..self.rows).map(|i| self.get(i, j)).sum::<f64>() / n)
            .collect();
        let mut cov = Matrix::zeros(self.cols, self.cols);
        for i in 0..self.rows {
            let row = self.row(i);
            for a in 0..self.cols {
                let da = row[a] - means[a];
                if da == 0.0 {
                    continue;
                }
                let cov_row = cov.row_mut(a);
                for (b, &rb) in row.iter().enumerate() {
                    cov_row[b] += da * (rb - means[b]);
                }
            }
        }
        for v in cov.data.iter_mut() {
            *v /= n;
        }
        cov
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for i in 0..self.rows.min(8) {
            writeln!(f, "  {:?}", self.row(i))?;
        }
        if self.rows > 8 {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

/// Inner product of two equal-length slices.
///
/// # Panics
/// Panics if lengths differ.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot length mismatch");
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Euclidean norm of a slice.
#[inline]
pub fn norm(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

/// The logistic sigmoid `1 / (1 + e^-z)`: the output head of the MLP,
/// logistic regression and boosted trees, and the map from SVM margins
/// into `[0, 1]` (bit-for-bit the χ²-SVM score mapping in `psca-uc`
/// firmware).
#[inline]
pub(crate) fn sigmoid(z: f64) -> f64 {
    1.0 / (1.0 + (-z).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_identity_is_noop() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let c = a.matmul(&Matrix::identity(3));
        assert_eq!(a, c);
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c.row(0), &[19.0, 22.0]);
        assert_eq!(c.row(1), &[43.0, 50.0]);
    }

    #[test]
    fn transpose_roundtrips() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().get(2, 1), 6.0);
    }

    #[test]
    fn matvec_matches_matmul() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(a.matvec(&[1.0, 1.0]), vec![3.0, 7.0]);
    }

    #[test]
    fn covariance_of_identical_columns_is_rank_one() {
        let a = Matrix::from_rows(&[&[1.0, 1.0], &[2.0, 2.0], &[3.0, 3.0]]);
        let cov = a.column_covariance();
        let v = 2.0 / 3.0;
        for i in 0..2 {
            for j in 0..2 {
                assert!((cov.get(i, j) - v).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn covariance_of_independent_columns_is_diagonalish() {
        let a = Matrix::from_rows(&[&[1.0, 0.0], &[-1.0, 0.0], &[0.0, 1.0], &[0.0, -1.0]]);
        let cov = a.column_covariance();
        assert!(cov.get(0, 1).abs() < 1e-12);
        assert!(cov.get(0, 0) > 0.0);
    }

    /// Each covariance entry depends on its two columns only, so the
    /// covariance of a column subset is the full covariance's principal
    /// submatrix, bit for bit.
    #[test]
    fn covariance_of_a_column_subset_is_the_principal_submatrix() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(3);
        let mut a = Matrix::zeros(90, 8);
        for r in 0..90 {
            let f = rng.gen::<f64>() - 0.5;
            for c in 0..6 {
                a.set(r, c, f * (c as f64 + 1.0) + rng.gen::<f64>());
            }
            // A constant column and a three-level one whose deviation
            // is exactly zero on a third of the rows.
            a.set(r, 6, 2.5);
            a.set(r, 7, (r % 3) as f64);
        }
        let full = a.column_covariance();
        for subset in [
            vec![0, 1, 2, 3, 4, 5, 6, 7],
            vec![1, 4, 7],
            vec![6, 2],
            vec![5],
        ] {
            let mut sub = Matrix::zeros(a.rows(), subset.len());
            for r in 0..a.rows() {
                for (j, &c) in subset.iter().enumerate() {
                    sub.set(r, j, a.get(r, c));
                }
            }
            let cov = sub.column_covariance();
            for (i, &ci) in subset.iter().enumerate() {
                for (j, &cj) in subset.iter().enumerate() {
                    assert_eq!(cov.get(i, j).to_bits(), full.get(ci, cj).to_bits());
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "inner dimension mismatch")]
    fn matmul_rejects_mismatch() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn dot_and_norm() {
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
        assert!((norm(&[3.0, 4.0]) - 5.0).abs() < 1e-12);
    }
}
