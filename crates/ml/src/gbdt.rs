//! Gradient-boosted decision trees (extension beyond the paper's §5 zoo).
//!
//! The paper argues a *variety* of ML model classes fit the firmware
//! budget; boosted depth-limited trees are the natural next candidate
//! after random forests — same branch-free traversal kernel (Listing 2),
//! different ensemble semantics (additive stage-wise fit of the logistic
//! loss instead of bagging).

use crate::dataset::Dataset;
use crate::linalg::{sigmoid, Matrix};

/// One node of a regression tree.
#[derive(Debug, Clone, PartialEq)]
pub enum RegNode {
    /// `feature < threshold` goes left.
    Split {
        /// Feature compared.
        feature: usize,
        /// Split threshold.
        threshold: f64,
        /// Left child index.
        left: usize,
        /// Right child index.
        right: usize,
    },
    /// Leaf carrying an additive logit contribution.
    Leaf {
        /// Stage value added to the ensemble logit.
        value: f64,
    },
}

/// A depth-limited regression tree fit to gradient residuals.
#[derive(Debug, Clone, PartialEq)]
pub struct RegressionTree {
    nodes: Vec<RegNode>,
    max_depth: usize,
}

impl RegressionTree {
    fn fit(
        x: &Matrix,
        targets: &[f64],
        idx: &[usize],
        max_depth: usize,
        min_leaf: usize,
    ) -> RegressionTree {
        let mut tree = RegressionTree {
            nodes: Vec::new(),
            max_depth,
        };
        tree.grow(x, targets, idx.to_vec(), 0, min_leaf);
        tree
    }

    fn grow(
        &mut self,
        x: &Matrix,
        t: &[f64],
        idx: Vec<usize>,
        depth: usize,
        min_leaf: usize,
    ) -> usize {
        let mean = idx.iter().map(|&i| t[i]).sum::<f64>() / idx.len().max(1) as f64;
        if depth >= self.max_depth || idx.len() < 2 * min_leaf {
            self.nodes.push(RegNode::Leaf { value: mean });
            return self.nodes.len() - 1;
        }
        let mut best: Option<(f64, usize, f64)> = None; // (sse gain, feature, threshold)
        let parent_sse: f64 = idx.iter().map(|&i| (t[i] - mean) * (t[i] - mean)).sum();
        let mut sorted: Vec<(f64, f64)> = Vec::with_capacity(idx.len());
        for f in 0..x.cols() {
            sorted.clear();
            sorted.extend(idx.iter().map(|&i| (x.get(i, f), t[i])));
            sorted.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
            let total: f64 = sorted.iter().map(|(_, v)| v).sum();
            let mut left_sum = 0.0;
            let mut left_sq = 0.0;
            let total_sq: f64 = sorted.iter().map(|(_, v)| v * v).sum();
            for w in 0..sorted.len() - 1 {
                left_sum += sorted[w].1;
                left_sq += sorted[w].1 * sorted[w].1;
                if sorted[w].0 == sorted[w + 1].0 {
                    continue;
                }
                let nl = (w + 1) as f64;
                let nr = (sorted.len() - w - 1) as f64;
                if (nl as usize) < min_leaf || (nr as usize) < min_leaf {
                    continue;
                }
                let right_sum = total - left_sum;
                let right_sq = total_sq - left_sq;
                let sse =
                    (left_sq - left_sum * left_sum / nl) + (right_sq - right_sum * right_sum / nr);
                let gain = parent_sse - sse;
                if gain > 1e-12 && best.is_none_or(|(g, _, _)| gain > g) {
                    best = Some((gain, f, 0.5 * (sorted[w].0 + sorted[w + 1].0)));
                }
            }
        }
        let Some((_, feature, threshold)) = best else {
            self.nodes.push(RegNode::Leaf { value: mean });
            return self.nodes.len() - 1;
        };
        let (li, ri): (Vec<usize>, Vec<usize>) = idx
            .into_iter()
            .partition(|&i| x.get(i, feature) < threshold);
        let at = self.nodes.len();
        self.nodes.push(RegNode::Leaf { value: mean });
        let left = self.grow(x, t, li, depth + 1, min_leaf);
        let right = self.grow(x, t, ri, depth + 1, min_leaf);
        self.nodes[at] = RegNode::Split {
            feature,
            threshold,
            left,
            right,
        };
        at
    }

    /// Additive logit contribution for a sample.
    pub fn value(&self, x: &[f64]) -> f64 {
        let mut at = 0;
        loop {
            match self.nodes[at] {
                RegNode::Leaf { value } => return value,
                RegNode::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => at = if x[feature] < threshold { left } else { right },
            }
        }
    }

    /// Configured depth bound.
    pub fn max_depth(&self) -> usize {
        self.max_depth
    }

    /// Node storage (for firmware footprint accounting).
    pub fn nodes(&self) -> &[RegNode] {
        &self.nodes
    }
}

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
    trees: Vec<RegressionTree>,
    base_logit: f64,
    learning_rate: f64,
    threshold: f64,
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
        let idx: Vec<usize> = (0..n).collect();
        for _ in 0..cfg.num_trees {
            // Negative gradient of the logistic loss: y − σ(logit).
            let residuals: Vec<f64> = (0..n)
                .map(|i| data.labels()[i] as f64 - sigmoid(logits[i]))
                .collect();
            let tree = RegressionTree::fit(
                data.features(),
                &residuals,
                &idx,
                cfg.max_depth,
                cfg.min_leaf,
            );
            for (i, logit) in logits.iter_mut().enumerate() {
                *logit += cfg.learning_rate * tree.value(data.features().row(i));
            }
            trees.push(tree);
        }
        Gbdt {
            trees,
            base_logit,
            learning_rate: cfg.learning_rate,
            threshold: 0.5,
        }
    }

    /// P(y = 1 | x).
    pub fn predict_proba(&self, x: &[f64]) -> f64 {
        let logit = self.base_logit
            + self.learning_rate * self.trees.iter().map(|t| t.value(x)).sum::<f64>();
        sigmoid(logit)
    }

    /// Thresholded prediction.
    pub fn predict(&self, x: &[f64]) -> bool {
        self.predict_proba(x) >= self.threshold
    }

    /// Decision threshold.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// Adjusts the decision threshold (sensitivity tuning).
    pub fn set_threshold(&mut self, t: f64) {
        self.threshold = t.clamp(0.0, 1.0);
    }

    /// The boosting stages.
    pub fn trees(&self) -> &[RegressionTree] {
        &self.trees
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
                model.predict(x) == (y == 1)
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
            fn depth(nodes: &[RegNode], at: usize) -> usize {
                match nodes[at] {
                    RegNode::Leaf { .. } => 0,
                    RegNode::Split { left, right, .. } => {
                        1 + depth(nodes, left).max(depth(nodes, right))
                    }
                }
            }
            assert!(depth(t.nodes(), 0) <= t.max_depth());
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
