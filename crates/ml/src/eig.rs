//! Symmetric eigendecomposition.
//!
//! Two solvers: a cyclic Jacobi rotation method (full spectrum, exact, for
//! small-to-medium matrices) and deflated power iteration (leading `k`
//! eigenpairs, used by PF counter selection where only the second
//! eigenvector of a 308×308 covariance matrix is needed per round).

use crate::linalg::{dot, norm, Matrix};

/// Full eigendecomposition of a symmetric matrix by cyclic Jacobi.
///
/// Returns `(eigenvalues, eigenvectors)` sorted by descending eigenvalue;
/// eigenvectors are the *rows* of the returned matrix.
///
/// # Panics
/// Panics if `a` is not square.
pub fn jacobi_eigen(a: &Matrix, max_sweeps: usize, tol: f64) -> (Vec<f64>, Matrix) {
    assert_eq!(a.rows(), a.cols(), "matrix must be square");
    let n = a.rows();
    let mut m = a.clone();
    let mut v = Matrix::identity(n);
    for _ in 0..max_sweeps {
        let mut off = 0.0;
        for i in 0..n {
            for j in (i + 1)..n {
                off += m.get(i, j) * m.get(i, j);
            }
        }
        if off.sqrt() < tol {
            break;
        }
        for p in 0..n {
            for q in (p + 1)..n {
                let apq = m.get(p, q);
                if apq.abs() < 1e-300 {
                    continue;
                }
                let app = m.get(p, p);
                let aqq = m.get(q, q);
                let theta = 0.5 * (aqq - app) / apq;
                let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                let c = 1.0 / (t * t + 1.0).sqrt();
                let s = t * c;
                // Update m = J^T m J for rotation J in plane (p, q).
                for k in 0..n {
                    let mkp = m.get(k, p);
                    let mkq = m.get(k, q);
                    m.set(k, p, c * mkp - s * mkq);
                    m.set(k, q, s * mkp + c * mkq);
                }
                for k in 0..n {
                    let mpk = m.get(p, k);
                    let mqk = m.get(q, k);
                    m.set(p, k, c * mpk - s * mqk);
                    m.set(q, k, s * mpk + c * mqk);
                }
                for k in 0..n {
                    let vkp = v.get(k, p);
                    let vkq = v.get(k, q);
                    v.set(k, p, c * vkp - s * vkq);
                    v.set(k, q, s * vkp + c * vkq);
                }
            }
        }
    }
    let mut pairs: Vec<(f64, usize)> = (0..n).map(|i| (m.get(i, i), i)).collect();
    pairs.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));
    let values: Vec<f64> = pairs.iter().map(|(e, _)| *e).collect();
    let mut vectors = Matrix::zeros(n, n);
    for (row, (_, col)) in pairs.iter().enumerate() {
        for k in 0..n {
            vectors.set(row, k, v.get(k, *col));
        }
    }
    (values, vectors)
}

/// Leading `k` eigenpairs of a symmetric positive-semidefinite matrix via
/// power iteration with deflation.
///
/// Returns `(eigenvalues, eigenvectors)` with eigenvectors as rows, sorted
/// by descending eigenvalue. Deterministic (fixed starting vectors).
///
/// # Panics
/// Panics if `a` is not square or `k > n`.
pub fn top_eigenpairs(a: &Matrix, k: usize, iters: usize) -> (Vec<f64>, Matrix) {
    assert_eq!(a.rows(), a.cols(), "matrix must be square");
    let n = a.rows();
    assert!(k <= n, "cannot extract more eigenpairs than the dimension");
    let mut values = Vec::with_capacity(k);
    let mut vectors = Matrix::zeros(k, n);
    for e in 0..k {
        // Deterministic start: varying dense vector to avoid orthogonal
        // degenerate starts.
        let mut x: Vec<f64> = (0..n)
            .map(|i| 1.0 + ((i * 37 + e * 101) % 97) as f64 / 97.0)
            .collect();
        orthogonalize(&mut x, &vectors, e);
        normalize(&mut x);
        let mut lambda = 0.0;
        // `A·x` of the current iterate: the Rayleigh quotient's product
        // is the next iteration's step, so each iteration multiplies once.
        let mut ax = a.matvec(&x);
        for _ in 0..iters {
            let mut y = ax;
            orthogonalize(&mut y, &vectors, e);
            let ny = norm(&y);
            if ny < 1e-12 {
                // Null space reached: eigenvalue 0, keep a valid vector.
                lambda = 0.0;
                break;
            }
            for v in y.iter_mut() {
                *v /= ny;
            }
            ax = a.matvec(&y);
            lambda = dot(&y, &ax);
            x = y;
        }
        values.push(lambda);
        vectors.row_mut(e).copy_from_slice(&x);
    }
    (values, vectors)
}

fn orthogonalize(x: &mut [f64], basis: &Matrix, count: usize) {
    for b in 0..count {
        let row = basis.row(b);
        let proj = dot(x, row);
        for (xi, bi) in x.iter_mut().zip(row) {
            *xi -= proj * bi;
        }
    }
}

fn normalize(x: &mut [f64]) {
    let n = norm(x);
    if n > 1e-300 {
        for v in x.iter_mut() {
            *v /= n;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sym(rows: &[&[f64]]) -> Matrix {
        Matrix::from_rows(rows)
    }

    #[test]
    fn jacobi_diagonal_matrix() {
        let a = sym(&[&[3.0, 0.0], &[0.0, 1.0]]);
        let (vals, vecs) = jacobi_eigen(&a, 50, 1e-12);
        assert!((vals[0] - 3.0).abs() < 1e-9);
        assert!((vals[1] - 1.0).abs() < 1e-9);
        assert!(vecs.get(0, 0).abs() > 0.99);
    }

    #[test]
    fn jacobi_known_2x2() {
        // [[2,1],[1,2]] has eigenvalues 3 and 1.
        let a = sym(&[&[2.0, 1.0], &[1.0, 2.0]]);
        let (vals, vecs) = jacobi_eigen(&a, 50, 1e-12);
        assert!((vals[0] - 3.0).abs() < 1e-9);
        assert!((vals[1] - 1.0).abs() < 1e-9);
        // eigenvector of 3 is (1,1)/sqrt(2)
        let v0 = vecs.row(0);
        assert!((v0[0].abs() - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-6);
    }

    #[test]
    fn jacobi_reconstructs_matrix() {
        let a = sym(&[&[4.0, 1.0, 0.5], &[1.0, 3.0, 0.2], &[0.5, 0.2, 1.0]]);
        let (vals, vecs) = jacobi_eigen(&a, 100, 1e-14);
        // A = V^T diag(vals) V with eigenvectors as rows of V.
        let mut recon = Matrix::zeros(3, 3);
        for i in 0..3 {
            for j in 0..3 {
                let mut s = 0.0;
                for (e, &val) in vals.iter().enumerate() {
                    s += val * vecs.get(e, i) * vecs.get(e, j);
                }
                recon.set(i, j, s);
            }
        }
        for i in 0..3 {
            for j in 0..3 {
                assert!((recon.get(i, j) - a.get(i, j)).abs() < 1e-8);
            }
        }
    }

    #[test]
    fn power_iteration_matches_jacobi() {
        let a = sym(&[&[4.0, 1.0, 0.5], &[1.0, 3.0, 0.2], &[0.5, 0.2, 1.0]]);
        let (jv, _) = jacobi_eigen(&a, 100, 1e-14);
        let (pv, pvec) = top_eigenpairs(&a, 2, 500);
        assert!((jv[0] - pv[0]).abs() < 1e-6, "{jv:?} vs {pv:?}");
        assert!((jv[1] - pv[1]).abs() < 1e-6);
        // Eigenvectors orthonormal.
        assert!(dot(pvec.row(0), pvec.row(1)).abs() < 1e-6);
        assert!((norm(pvec.row(0)) - 1.0).abs() < 1e-9);
    }

    /// Power iteration as it was before the Rayleigh quotient's product
    /// was reused: it multiplies by `a` twice per iteration.
    fn top_eigenpairs_reference(a: &Matrix, k: usize, iters: usize) -> (Vec<f64>, Matrix) {
        let n = a.rows();
        let mut values = Vec::with_capacity(k);
        let mut vectors = Matrix::zeros(k, n);
        for e in 0..k {
            let mut x: Vec<f64> = (0..n)
                .map(|i| 1.0 + ((i * 37 + e * 101) % 97) as f64 / 97.0)
                .collect();
            orthogonalize(&mut x, &vectors, e);
            normalize(&mut x);
            let mut lambda = 0.0;
            for _ in 0..iters {
                let mut y = a.matvec(&x);
                orthogonalize(&mut y, &vectors, e);
                let ny = norm(&y);
                if ny < 1e-12 {
                    lambda = 0.0;
                    break;
                }
                for v in y.iter_mut() {
                    *v /= ny;
                }
                lambda = dot(&y, &a.matvec(&y));
                x = y;
            }
            values.push(lambda);
            vectors.row_mut(e).copy_from_slice(&x);
        }
        (values, vectors)
    }

    #[test]
    fn power_iteration_matches_the_two_product_reference() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(11);
        for (n, rank, k, iters) in [
            (6, 6, 2, 300),
            (20, 4, 3, 300),
            (40, 40, 2, 50),
            (5, 1, 3, 300),
        ] {
            // A seeded covariance of rank `rank`: the rank-1 case drives
            // the later eigenpairs into the null space.
            let mut obs = Matrix::zeros(60, n);
            for r in 0..60 {
                let f: Vec<f64> = (0..rank).map(|_| rng.gen::<f64>() - 0.5).collect();
                for c in 0..n {
                    obs.set(r, c, f[c % rank] * (1.0 + c as f64));
                }
            }
            let a = obs.column_covariance();
            let (values, vectors) = top_eigenpairs(&a, k, iters);
            let (ref_values, ref_vectors) = top_eigenpairs_reference(&a, k, iters);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&values), bits(&ref_values), "n {n}");
            for e in 0..k {
                assert_eq!(bits(vectors.row(e)), bits(ref_vectors.row(e)), "n {n}");
            }
        }
    }

    #[test]
    fn power_iteration_handles_rank_deficiency() {
        // Rank-1 matrix: second eigenvalue ~0.
        let a = sym(&[&[1.0, 1.0], &[1.0, 1.0]]);
        let (vals, _) = top_eigenpairs(&a, 2, 300);
        assert!((vals[0] - 2.0).abs() < 1e-6);
        assert!(vals[1].abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "square")]
    fn jacobi_rejects_non_square() {
        let _ = jacobi_eigen(&Matrix::zeros(2, 3), 10, 1e-9);
    }
}
