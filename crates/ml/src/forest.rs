//! Random forests: bagged CART trees with feature subsampling, each grown
//! by label-entropy minimization over its bootstrap rows.
//!
//! The paper's best adaptation model is a random forest of 8 trees with
//! maximum depth 8 (§6.3), and its application-specific variant *combines*
//! a forest trained on high-diversity data with one trained on the target
//! application (§7.3) — supported here by [`RandomForest::combine`].

use crate::dataset::Dataset;
use crate::tree::{DecisionTree, Grower};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Random-forest hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RandomForestConfig {
    /// Number of trees in the ensemble.
    pub num_trees: usize,
    /// Maximum tree depth.
    pub max_depth: usize,
    /// Minimum samples per leaf.
    pub min_leaf: usize,
}

impl RandomForestConfig {
    /// The paper's Best RF: 8 trees of depth 8 (§6.3).
    pub fn best_rf() -> RandomForestConfig {
        RandomForestConfig {
            num_trees: 8,
            max_depth: 8,
            min_leaf: 2,
        }
    }
}

impl Default for RandomForestConfig {
    fn default() -> RandomForestConfig {
        RandomForestConfig::best_rf()
    }
}

/// A bagged ensemble of CART trees voting by averaged leaf probability.
///
/// # Examples
///
/// ```
/// use psca_ml::{Dataset, Matrix, RandomForest, RandomForestConfig};
///
/// let x = Matrix::from_rows(&[
///     &[0.00], &[0.05], &[0.10], &[0.15], &[0.20],
///     &[0.80], &[0.85], &[0.90], &[0.95], &[1.00],
/// ]);
/// let data = Dataset::new(x, vec![0, 0, 0, 0, 0, 1, 1, 1, 1, 1], vec![0; 10]);
/// let rf = RandomForest::fit(&RandomForestConfig::default(), &data, 1);
/// assert!(rf.predict_proba(&[0.95]) > 0.5);
/// ```
#[derive(Debug, Clone)]
pub struct RandomForest {
    trees: Vec<DecisionTree>,
    threshold: f64,
}

impl RandomForest {
    /// Trains a forest with bootstrap sampling and √d feature subsampling.
    ///
    /// # Panics
    /// Panics if the dataset is empty or `cfg.num_trees == 0`.
    pub fn fit(cfg: &RandomForestConfig, data: &Dataset, seed: u64) -> RandomForest {
        assert!(cfg.num_trees >= 1, "forest needs at least one tree");
        assert!(!data.is_empty(), "cannot train on an empty dataset");
        let _span = psca_obs::SpanTimer::start("ml.rf.fit");
        let mut rng = StdRng::seed_from_u64(seed);
        let max_features = Some(((data.dim() as f64).sqrt().ceil() as usize).max(1));
        let grower = Grower::entropy(data, cfg.max_depth, cfg.min_leaf, max_features);
        let trees = (0..cfg.num_trees)
            .map(|_| {
                let idx: Vec<usize> = (0..data.len())
                    .map(|_| rng.gen_range(0..data.len()))
                    .collect();
                grower.grow(idx, rng.gen())
            })
            .collect();
        RandomForest {
            trees,
            threshold: 0.5,
        }
    }

    /// Average leaf probability across the ensemble.
    ///
    /// # Panics
    /// Panics if `x` has wrong dimensionality.
    pub fn predict_proba(&self, x: &[f64]) -> f64 {
        self.trees.iter().map(|t| t.predict_proba(x)).sum::<f64>() / self.trees.len() as f64
    }

    /// Thresholded prediction.
    pub fn predict(&self, x: &[f64]) -> bool {
        self.predict_proba(x) >= self.threshold
    }

    /// The decision threshold.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// Adjusts the decision threshold (sensitivity tuning, §6.3).
    pub fn set_threshold(&mut self, t: f64) {
        self.threshold = t.clamp(0.0, 1.0);
    }

    /// The ensemble's trees.
    pub fn trees(&self) -> &[DecisionTree] {
        &self.trees
    }

    /// Reconstructs a forest from trees and a threshold — the
    /// firmware-image deserialization path.
    ///
    /// # Panics
    /// Panics if `trees` is empty.
    pub fn from_trees(trees: Vec<DecisionTree>, threshold: f64) -> RandomForest {
        assert!(!trees.is_empty(), "a forest needs at least one tree");
        RandomForest {
            trees,
            threshold: threshold.clamp(0.0, 1.0),
        }
    }

    /// Merges two forests into one ensemble (the paper's
    /// application-specific model combines a 4-tree HDTR forest with a
    /// 4-tree application forest into one 8-tree forest, §7.3).
    pub fn combine(&self, other: &RandomForest) -> RandomForest {
        let mut trees = self.trees.clone();
        trees.extend(other.trees.iter().cloned());
        RandomForest {
            trees,
            threshold: 0.5 * (self.threshold + other.threshold),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linalg::Matrix;

    fn noisy_dataset(n: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for _ in 0..n {
            let x0 = rng.gen::<f64>();
            let x1 = rng.gen::<f64>();
            let noise = rng.gen::<f64>();
            rows.push(vec![x0, x1, noise]);
            let y = (x0 + 0.5 * x1 > 0.8) as u8;
            labels.push(if rng.gen::<f64>() < 0.05 { 1 - y } else { y });
        }
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        Dataset::new(Matrix::from_rows(&refs), labels, vec![0; n])
    }

    #[test]
    fn forest_beats_chance_on_noisy_data() {
        let train = noisy_dataset(800, 1);
        let test = noisy_dataset(400, 2);
        let rf = RandomForest::fit(&RandomForestConfig::best_rf(), &train, 3);
        let acc = (0..test.len())
            .filter(|&i| {
                let (x, y) = test.sample(i);
                rf.predict(x) == (y == 1)
            })
            .count() as f64
            / test.len() as f64;
        assert!(acc > 0.85, "accuracy {acc}");
    }

    #[test]
    fn config_matches_paper_best() {
        let cfg = RandomForestConfig::best_rf();
        assert_eq!(cfg.num_trees, 8);
        assert_eq!(cfg.max_depth, 8);
    }

    #[test]
    fn deterministic_per_seed() {
        let data = noisy_dataset(200, 4);
        let a = RandomForest::fit(&RandomForestConfig::best_rf(), &data, 5);
        let b = RandomForest::fit(&RandomForestConfig::best_rf(), &data, 5);
        assert_eq!(
            a.predict_proba(&[0.4, 0.3, 0.9]),
            b.predict_proba(&[0.4, 0.3, 0.9])
        );
    }

    #[test]
    fn combine_concatenates_trees() {
        let data = noisy_dataset(200, 6);
        let a = RandomForest::fit(
            &RandomForestConfig {
                num_trees: 4,
                max_depth: 8,
                min_leaf: 2,
            },
            &data,
            1,
        );
        let b = RandomForest::fit(
            &RandomForestConfig {
                num_trees: 4,
                max_depth: 8,
                min_leaf: 2,
            },
            &data,
            2,
        );
        let c = a.combine(&b);
        assert_eq!(c.trees().len(), 8);
        let p = c.predict_proba(&[0.5, 0.5, 0.5]);
        let expect = 0.5 * (a.predict_proba(&[0.5, 0.5, 0.5]) + b.predict_proba(&[0.5, 0.5, 0.5]));
        assert!((p - expect).abs() < 1e-12);
    }

    #[test]
    fn probabilities_bounded() {
        let data = noisy_dataset(100, 7);
        let rf = RandomForest::fit(&RandomForestConfig::best_rf(), &data, 8);
        for i in 0..data.len() {
            let p = rf.predict_proba(data.sample(i).0);
            assert!((0.0..=1.0).contains(&p));
        }
    }
}
