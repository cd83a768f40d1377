//! Gradient-boosted decision trees (extension beyond the paper's §5 zoo).
//!
//! The paper argues a *variety* of ML model classes fit the firmware
//! budget; boosted depth-limited trees are the natural next candidate
//! after random forests. Each stage is the forest's own [`DecisionTree`],
//! run by the same branch-free traversal kernel (Listing 2); only the
//! split criterion differs: a stage minimizes squared error on the
//! logistic loss's residuals, and its leaves hold additive logits. The
//! ensemble semantics differ too (additive stage-wise fit instead of
//! bagging).

use crate::dataset::Dataset;
use crate::linalg::sigmoid;
use crate::tree::{DecisionTree, Grower};

/// GBDT hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GbdtConfig {
    /// Boosting stages.
    pub num_trees: usize,
    /// Depth of each stage tree.
    pub max_depth: usize,
    /// Shrinkage (learning rate).
    pub learning_rate: f64,
    /// Minimum samples per leaf.
    pub min_leaf: usize,
}

impl Default for GbdtConfig {
    fn default() -> GbdtConfig {
        GbdtConfig {
            num_trees: 8,
            max_depth: 4,
            learning_rate: 0.3,
            min_leaf: 2,
        }
    }
}

/// A gradient-boosted tree classifier (logistic loss).
///
/// # Examples
///
/// ```
/// use psca_ml::gbdt::{Gbdt, GbdtConfig};
/// use psca_ml::{Dataset, Matrix};
///
/// let x = Matrix::from_rows(&[&[0.0], &[0.2], &[0.8], &[1.0]]);
/// let data = Dataset::new(x, vec![0, 0, 1, 1], vec![0; 4]);
/// let model = Gbdt::fit(&GbdtConfig::default(), &data);
/// assert!(model.predict_proba(&[0.9]) > 0.5);
/// assert!(model.predict_proba(&[0.1]) < 0.5);
/// ```
#[derive(Debug, Clone)]
pub struct Gbdt {
    trees: Vec<DecisionTree>,
    base_logit: f64,
    learning_rate: f64,
}

impl Gbdt {
    /// Fits by stage-wise gradient descent on the logistic loss.
    ///
    /// # Panics
    /// Panics if the dataset is empty or `cfg.num_trees == 0`.
    pub fn fit(cfg: &GbdtConfig, data: &Dataset) -> Gbdt {
        assert!(!data.is_empty(), "cannot fit on an empty dataset");
        assert!(cfg.num_trees >= 1, "need at least one stage");
        let n = data.len();
        let pos = data.positive_rate().clamp(1e-6, 1.0 - 1e-6);
        let base_logit = (pos / (1.0 - pos)).ln();
        let mut logits = vec![base_logit; n];
        let mut trees = Vec::with_capacity(cfg.num_trees);
        for _ in 0..cfg.num_trees {
            // Negative gradient of the logistic loss: y − σ(logit).
            let residuals: Vec<f64> = (0..n)
                .map(|i| data.labels()[i] as f64 - sigmoid(logits[i]))
                .collect();
            let tree =
                Grower::squared_error(data.features(), residuals, cfg.max_depth, cfg.min_leaf)
                    .grow((0..n).collect(), 0);
            for (i, logit) in logits.iter_mut().enumerate() {
                *logit += cfg.learning_rate * tree.predict_proba(data.features().row(i));
            }
            trees.push(tree);
        }
        Gbdt {
            trees,
            base_logit,
            learning_rate: cfg.learning_rate,
        }
    }

    /// P(y = 1 | x).
    pub fn predict_proba(&self, x: &[f64]) -> f64 {
        let logit = self.base_logit
            + self.learning_rate * self.trees.iter().map(|t| t.predict_proba(x)).sum::<f64>();
        sigmoid(logit)
    }

    /// The boosting stages.
    pub fn trees(&self) -> &[DecisionTree] {
        &self.trees
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linalg::Matrix;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn xor_data(n: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for _ in 0..n {
            let a = rng.gen::<f64>() * 2.0 - 1.0;
            let b = rng.gen::<f64>() * 2.0 - 1.0;
            rows.push(vec![a, b]);
            labels.push(((a > 0.0) != (b > 0.0)) as u8);
        }
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        Dataset::new(Matrix::from_rows(&refs), labels, vec![0; n])
    }

    #[test]
    fn learns_nonlinear_xor() {
        let data = xor_data(500, 1);
        let cfg = GbdtConfig {
            num_trees: 30,
            max_depth: 3,
            learning_rate: 0.4,
            min_leaf: 2,
        };
        let model = Gbdt::fit(&cfg, &data);
        let acc = (0..data.len())
            .filter(|&i| {
                let (x, y) = data.sample(i);
                (model.predict_proba(x) >= 0.5) == (y == 1)
            })
            .count() as f64
            / data.len() as f64;
        assert!(acc > 0.93, "XOR accuracy {acc}");
    }

    #[test]
    fn more_stages_reduce_training_loss() {
        let data = xor_data(300, 2);
        let loss = |model: &Gbdt| -> f64 {
            (0..data.len())
                .map(|i| {
                    let (x, y) = data.sample(i);
                    let p = model.predict_proba(x).clamp(1e-9, 1.0 - 1e-9);
                    if y == 1 {
                        -p.ln()
                    } else {
                        -(1.0 - p).ln()
                    }
                })
                .sum::<f64>()
                / data.len() as f64
        };
        let small = Gbdt::fit(
            &GbdtConfig {
                num_trees: 2,
                ..GbdtConfig::default()
            },
            &data,
        );
        let large = Gbdt::fit(
            &GbdtConfig {
                num_trees: 20,
                ..GbdtConfig::default()
            },
            &data,
        );
        assert!(loss(&large) < loss(&small));
    }

    #[test]
    fn stage_trees_respect_depth() {
        let data = xor_data(200, 3);
        let model = Gbdt::fit(&GbdtConfig::default(), &data);
        for t in model.trees() {
            assert!(t.depth() <= t.max_depth());
        }
    }

    #[test]
    fn probabilities_bounded_and_deterministic() {
        let data = xor_data(100, 4);
        let a = Gbdt::fit(&GbdtConfig::default(), &data);
        let b = Gbdt::fit(&GbdtConfig::default(), &data);
        for i in 0..data.len() {
            let p = a.predict_proba(data.sample(i).0);
            assert!((0.0..=1.0).contains(&p));
            assert_eq!(p, b.predict_proba(data.sample(i).0));
        }
    }

    #[test]
    fn base_rate_is_the_empty_model() {
        let data = xor_data(100, 5);
        let model = Gbdt::fit(
            &GbdtConfig {
                num_trees: 1,
                max_depth: 1,
                learning_rate: 0.0,
                min_leaf: 1,
            },
            &data,
        );
        let p = model.predict_proba(&[0.0, 0.0]);
        assert!((p - data.positive_rate()).abs() < 1e-9);
    }
}
