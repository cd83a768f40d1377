//! L2-regularized logistic regression fit with L-BFGS, as the paper's
//! SRCH baseline is ("we train by fitting a logistic regression using an
//! open source implementation of the L-BFGS algorithm", §7).

use crate::dataset::Dataset;
use crate::linalg::sigmoid;

/// A binary logistic-regression classifier.
///
/// # Examples
///
/// ```
/// use psca_ml::{Dataset, LogisticRegression, Matrix};
///
/// let x = Matrix::from_rows(&[&[-2.0], &[-1.0], &[1.0], &[2.0]]);
/// let data = Dataset::new(x, vec![0, 0, 1, 1], vec![0; 4]);
/// let lr = LogisticRegression::fit(&data, 1e-4, 100);
/// assert!(lr.predict_proba(&[1.5]) > 0.5);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LogisticRegression {
    weights: Vec<f64>,
    bias: f64,
}

impl LogisticRegression {
    /// Fits by minimizing L2-regularized log-loss with L-BFGS (history
    /// size 8, backtracking Armijo line search).
    ///
    /// # Panics
    /// Panics if the dataset is empty.
    pub fn fit(data: &Dataset, l2: f64, max_iters: usize) -> LogisticRegression {
        assert!(!data.is_empty(), "cannot fit on an empty dataset");
        let _span = psca_obs::SpanTimer::start("ml.logistic.fit");
        let d = data.dim();
        // Parameter vector: [weights..., bias].
        let mut theta = vec![0.0; d + 1];
        let f_g = |theta: &[f64]| loss_grad(data, theta, l2);
        lbfgs(&mut theta, f_g, max_iters, 8);
        LogisticRegression {
            weights: theta[..d].to_vec(),
            bias: theta[d],
        }
    }

    /// Reconstructs a model from fitted parameters — the firmware-image
    /// deserialization path.
    pub fn from_parts(weights: Vec<f64>, bias: f64) -> LogisticRegression {
        LogisticRegression { weights, bias }
    }

    /// P(y = 1 | x).
    ///
    /// # Panics
    /// Panics if `x` has wrong dimensionality.
    pub fn predict_proba(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.weights.len(), "dimension mismatch");
        sigmoid(crate::linalg::dot(&self.weights, x) + self.bias)
    }

    /// Fitted weights.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Fitted intercept.
    pub fn bias(&self) -> f64 {
        self.bias
    }
}

/// Mean log-loss and its gradient over the dataset (bias unregularized).
fn loss_grad(data: &Dataset, theta: &[f64], l2: f64) -> (f64, Vec<f64>) {
    let d = data.dim();
    let n = data.len() as f64;
    let mut loss = 0.0;
    let mut grad = vec![0.0; d + 1];
    for i in 0..data.len() {
        let (x, y) = data.sample(i);
        let z = crate::linalg::dot(&theta[..d], x) + theta[d];
        let p = sigmoid(z);
        let yf = y as f64;
        // Numerically-stable BCE.
        loss += softplus(z) - yf * z;
        let e = p - yf;
        for (g, &xi) in grad[..d].iter_mut().zip(x) {
            *g += e * xi;
        }
        grad[d] += e;
    }
    loss /= n;
    for g in grad.iter_mut() {
        *g /= n;
    }
    for j in 0..d {
        loss += 0.5 * l2 * theta[j] * theta[j];
        grad[j] += l2 * theta[j];
    }
    (loss, grad)
}

fn softplus(z: f64) -> f64 {
    if z > 30.0 {
        z
    } else if z < -30.0 {
        0.0
    } else {
        (1.0 + z.exp()).ln()
    }
}

/// Minimizes `f` with L-BFGS (two-loop recursion) and Armijo backtracking.
fn lbfgs<F: Fn(&[f64]) -> (f64, Vec<f64>)>(
    theta: &mut [f64],
    f: F,
    max_iters: usize,
    history: usize,
) {
    let n = theta.len();
    let (mut loss, mut grad) = f(theta);
    let mut s_list: Vec<Vec<f64>> = Vec::new();
    let mut y_list: Vec<Vec<f64>> = Vec::new();
    for _ in 0..max_iters {
        let gnorm = crate::linalg::norm(&grad);
        if gnorm < 1e-8 {
            break;
        }
        // Two-loop recursion for the search direction.
        let mut q = grad.clone();
        let m = s_list.len();
        let mut alphas = vec![0.0; m];
        for i in (0..m).rev() {
            let rho = 1.0 / crate::linalg::dot(&y_list[i], &s_list[i]);
            let a = rho * crate::linalg::dot(&s_list[i], &q);
            alphas[i] = a;
            for (qj, yj) in q.iter_mut().zip(&y_list[i]) {
                *qj -= a * yj;
            }
        }
        let gamma = if m > 0 {
            let sy = crate::linalg::dot(&s_list[m - 1], &y_list[m - 1]);
            let yy = crate::linalg::dot(&y_list[m - 1], &y_list[m - 1]);
            (sy / yy).max(1e-8)
        } else {
            1.0
        };
        for qj in q.iter_mut() {
            *qj *= gamma;
        }
        for i in 0..m {
            let rho = 1.0 / crate::linalg::dot(&y_list[i], &s_list[i]);
            let beta = rho * crate::linalg::dot(&y_list[i], &q);
            for (qj, sj) in q.iter_mut().zip(&s_list[i]) {
                *qj += (alphas[i] - beta) * sj;
            }
        }
        // q is the descent direction scaled; step = -q.
        let dir: Vec<f64> = q.iter().map(|v| -v).collect();
        let slope = crate::linalg::dot(&grad, &dir);
        if slope >= 0.0 {
            // Fall back to steepest descent if curvature breaks down.
            s_list.clear();
            y_list.clear();
            continue;
        }
        let mut step = 1.0;
        let mut new_theta = vec![0.0; n];
        let mut accepted = false;
        for _ in 0..30 {
            for i in 0..n {
                new_theta[i] = theta[i] + step * dir[i];
            }
            let (nl, _) = f(&new_theta);
            if nl <= loss + 1e-4 * step * slope {
                accepted = true;
                break;
            }
            step *= 0.5;
        }
        if !accepted {
            break;
        }
        let (nl, ng) = f(&new_theta);
        let s: Vec<f64> = (0..n).map(|i| new_theta[i] - theta[i]).collect();
        let y: Vec<f64> = (0..n).map(|i| ng[i] - grad[i]).collect();
        if crate::linalg::dot(&s, &y) > 1e-12 {
            s_list.push(s);
            y_list.push(y);
            if s_list.len() > history {
                s_list.remove(0);
                y_list.remove(0);
            }
        }
        theta.copy_from_slice(&new_theta);
        loss = nl;
        grad = ng;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linalg::Matrix;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn linear_dataset(n: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for _ in 0..n {
            let a = rng.gen::<f64>() * 4.0 - 2.0;
            let b = rng.gen::<f64>() * 4.0 - 2.0;
            rows.push(vec![a, b]);
            labels.push((2.0 * a - b + 0.3 > 0.0) as u8);
        }
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        Dataset::new(Matrix::from_rows(&refs), labels, vec![0; n])
    }

    #[test]
    fn fits_linear_boundary() {
        let data = linear_dataset(500, 1);
        let lr = LogisticRegression::fit(&data, 1e-6, 200);
        let acc = (0..data.len())
            .filter(|&i| {
                let (x, y) = data.sample(i);
                (lr.predict_proba(x) >= 0.5) == (y == 1)
            })
            .count() as f64
            / data.len() as f64;
        assert!(acc > 0.97, "accuracy {acc}");
        // Direction of weights should match the generator.
        assert!(lr.weights()[0] > 0.0);
        assert!(lr.weights()[1] < 0.0);
    }

    #[test]
    fn regularization_shrinks_weights() {
        let data = linear_dataset(300, 2);
        let loose = LogisticRegression::fit(&data, 1e-8, 200);
        let tight = LogisticRegression::fit(&data, 1.0, 200);
        let n_loose = crate::linalg::norm(loose.weights());
        let n_tight = crate::linalg::norm(tight.weights());
        assert!(n_tight < n_loose, "{n_tight} !< {n_loose}");
    }

    #[test]
    fn lbfgs_minimizes_quadratic() {
        // f(x) = (x0-3)^2 + 10 (x1+1)^2
        let mut x = vec![0.0, 0.0];
        lbfgs(
            &mut x,
            |x| {
                let f = (x[0] - 3.0).powi(2) + 10.0 * (x[1] + 1.0).powi(2);
                let g = vec![2.0 * (x[0] - 3.0), 20.0 * (x[1] + 1.0)];
                (f, g)
            },
            100,
            8,
        );
        assert!((x[0] - 3.0).abs() < 1e-5, "{x:?}");
        assert!((x[1] + 1.0).abs() < 1e-5, "{x:?}");
    }

    #[test]
    fn probabilities_calibrated_on_separable_data() {
        let data = linear_dataset(400, 3);
        let lr = LogisticRegression::fit(&data, 1e-4, 200);
        assert!(lr.predict_proba(&[2.0, -2.0]) > 0.9);
        assert!(lr.predict_proba(&[-2.0, 2.0]) < 0.1);
    }

    #[test]
    fn deterministic() {
        let data = linear_dataset(100, 4);
        let a = LogisticRegression::fit(&data, 1e-4, 50);
        let b = LogisticRegression::fit(&data, 1e-4, 50);
        assert_eq!(a, b);
    }
}
