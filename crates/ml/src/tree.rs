//! CART decision trees: the one tree both ensembles grow.
//!
//! The paper's forests come from "an open source implementation of the
//! CART algorithm that greedily grows trees by partitioning tuning samples
//! into groups to minimize label entropy" (§7); gradient boosting
//! ([`crate::gbdt`]) grows the same tree over logistic-loss residuals.
//! Both use one grower, one sorted split sweep and one traversal, and
//! differ only in the split criterion, which the learner fixes: a forest
//! tree minimizes label entropy over 0/1 labels, a boosting stage
//! minimizes squared error. Every leaf holds the mean of its targets:
//! P(y = 1) in a forest tree, an additive logit in a boosting stage.

use crate::dataset::Dataset;
use crate::linalg::Matrix;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// One node of a decision tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Node {
    /// Internal split: `feature < threshold` goes left, else right.
    Split {
        /// Feature index compared.
        feature: usize,
        /// Split threshold.
        threshold: f64,
        /// Left child index.
        left: usize,
        /// Right child index.
        right: usize,
    },
    /// Leaf holding the mean target of the training samples reaching it.
    Leaf {
        /// P(y = 1) in a forest tree; the additive logit of a boosting
        /// stage.
        value: f64,
    },
}

/// A binary CART decision tree.
///
/// # Examples
///
/// ```
/// use psca_ml::{Dataset, DecisionTree, Matrix};
///
/// let x = Matrix::from_rows(&[&[0.1], &[0.2], &[0.8], &[0.9]]);
/// let data = Dataset::new(x, vec![0, 0, 1, 1], vec![0; 4]);
/// let tree = DecisionTree::fit(&data, 4, 1, None, 1);
/// assert!(tree.predict_proba(&[0.95]) > 0.5);
/// assert!(tree.predict_proba(&[0.05]) < 0.5);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionTree {
    nodes: Vec<Node>,
    max_depth: usize,
    num_features: usize,
}

impl DecisionTree {
    /// Grows a tree by entropy minimization, as a random forest does.
    ///
    /// `max_features`: number of candidate features per split (`None` =
    /// all; random forests pass √d). `seed` drives feature subsampling.
    ///
    /// # Panics
    /// Panics if the dataset is empty or `max_depth == 0`.
    pub fn fit(
        data: &Dataset,
        max_depth: usize,
        min_leaf: usize,
        max_features: Option<usize>,
        seed: u64,
    ) -> DecisionTree {
        assert!(!data.is_empty(), "cannot grow a tree on an empty dataset");
        Grower::entropy(data, max_depth, min_leaf, max_features)
            .grow((0..data.len()).collect(), seed)
    }

    /// The value of the leaf `x` reaches: P(y = 1) for a forest tree, the
    /// stage's additive logit for a boosting stage.
    ///
    /// # Panics
    /// Panics if `x` has wrong dimensionality.
    pub fn predict_proba(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.num_features, "dimension mismatch");
        let mut at = 0;
        let mut hops = 0;
        loop {
            match self.nodes[at] {
                Node::Leaf { value } => return value,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    at = if x[feature] < threshold { left } else { right };
                }
            }
            hops += 1;
            debug_assert!(hops <= self.max_depth + 1, "cycle in tree");
        }
    }

    /// Number of nodes actually allocated.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// The configured maximum depth.
    pub fn max_depth(&self) -> usize {
        self.max_depth
    }

    /// Depth of the deepest leaf.
    pub fn depth(&self) -> usize {
        fn walk(nodes: &[Node], at: usize) -> usize {
            match nodes[at] {
                Node::Leaf { .. } => 0,
                Node::Split { left, right, .. } => 1 + walk(nodes, left).max(walk(nodes, right)),
            }
        }
        walk(&self.nodes, 0)
    }

    /// Node storage for firmware-footprint accounting.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Input dimensionality the tree was trained on.
    pub fn num_features(&self) -> usize {
        self.num_features
    }

    /// Reconstructs a tree from its node array — the firmware-image
    /// deserialization path.
    ///
    /// # Panics
    /// Panics if the array is empty, any child index or feature is out of
    /// range, or children do not strictly follow their parents (which
    /// guarantees the traversal terminates).
    pub fn from_nodes(nodes: Vec<Node>, max_depth: usize, num_features: usize) -> DecisionTree {
        assert!(!nodes.is_empty(), "a tree needs at least one node");
        for (i, n) in nodes.iter().enumerate() {
            if let Node::Split {
                feature,
                left,
                right,
                ..
            } = n
            {
                assert!(*feature < num_features, "feature out of range");
                assert!(
                    *left < nodes.len() && *right < nodes.len(),
                    "child index out of range"
                );
                assert!(*left > i && *right > i, "children must follow parents");
            }
        }
        DecisionTree {
            nodes,
            max_depth,
            num_features,
        }
    }
}

/// What a split minimizes. The learner fixes it through the
/// [`Grower`] constructor it calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Criterion {
    /// Weighted label entropy over 0/1 targets (§7); a pure node is a leaf.
    Entropy,
    /// Sum of squared errors of the targets around each side's mean.
    SquaredError,
}

/// Grows [`DecisionTree`]s over the rows of one feature matrix towards one
/// target vector.
pub(crate) struct Grower<'a> {
    features: &'a Matrix,
    targets: Vec<f64>,
    criterion: Criterion,
    max_depth: usize,
    min_leaf: usize,
    max_features: Option<usize>,
}

impl<'a> Grower<'a> {
    /// The forest's grower: label entropy over the 0/1 labels of `data`,
    /// at least one sample per leaf, `max_features` candidate features per
    /// split.
    ///
    /// # Panics
    /// Panics if `max_depth == 0`.
    pub(crate) fn entropy(
        data: &'a Dataset,
        max_depth: usize,
        min_leaf: usize,
        max_features: Option<usize>,
    ) -> Grower<'a> {
        assert!(max_depth >= 1, "max_depth must be at least 1");
        Grower {
            features: data.features(),
            targets: data.labels().iter().map(|&y| f64::from(y)).collect(),
            criterion: Criterion::Entropy,
            max_depth,
            min_leaf: min_leaf.max(1),
            max_features,
        }
    }

    /// A boosting stage's grower: squared error on `residuals`, every
    /// feature a candidate at every split.
    pub(crate) fn squared_error(
        features: &'a Matrix,
        residuals: Vec<f64>,
        max_depth: usize,
        min_leaf: usize,
    ) -> Grower<'a> {
        Grower {
            features,
            targets: residuals,
            criterion: Criterion::SquaredError,
            max_depth,
            min_leaf,
            max_features: None,
        }
    }

    /// Grows one tree over the rows `idx` (repeats allowed, as in a
    /// bootstrap sample). `seed` draws the candidate features of each
    /// split; it is unused when every feature is a candidate.
    pub(crate) fn grow(&self, idx: Vec<usize>, seed: u64) -> DecisionTree {
        let mut tree = DecisionTree {
            nodes: Vec::new(),
            max_depth: self.max_depth,
            num_features: self.features.cols(),
        };
        self.node(&mut tree.nodes, idx, 0, &mut StdRng::seed_from_u64(seed));
        tree
    }

    fn node(
        &self,
        nodes: &mut Vec<Node>,
        idx: Vec<usize>,
        depth: usize,
        rng: &mut StdRng,
    ) -> usize {
        let sum: f64 = idx.iter().map(|&i| self.targets[i]).sum();
        // A node is empty when its parent's midpoint threshold rounded onto
        // the lower of two adjacent values. Its leaf is 0/0 = NaN in a
        // forest tree and -0.0 in a boosting stage.
        let value = match self.criterion {
            Criterion::Entropy => sum / idx.len() as f64,
            Criterion::SquaredError => sum / idx.len().max(1) as f64,
        };
        // The pure-node stop comes before the feature draw, which consumes
        // the RNG.
        let pure = self.criterion == Criterion::Entropy && (sum == 0.0 || sum == idx.len() as f64);
        if depth >= self.max_depth || idx.len() < 2 * self.min_leaf || pure {
            nodes.push(Node::Leaf { value });
            return nodes.len() - 1;
        }
        let dim = self.features.cols();
        let candidates: Vec<usize> = match self.max_features {
            Some(k) if k < dim => {
                let mut all: Vec<usize> = (0..dim).collect();
                all.shuffle(rng);
                all.truncate(k.max(1));
                all
            }
            _ => (0..dim).collect(),
        };
        let Some((feature, threshold)) = self.best_split(&idx, value, &candidates) else {
            nodes.push(Node::Leaf { value });
            return nodes.len() - 1;
        };
        let (li, ri): (Vec<usize>, Vec<usize>) = idx
            .into_iter()
            .partition(|&i| self.features.get(i, feature) < threshold);
        let at = nodes.len();
        nodes.push(Node::Leaf { value }); // placeholder
        let left = self.node(nodes, li, depth + 1, rng);
        let right = self.node(nodes, ri, depth + 1, rng);
        nodes[at] = Node::Split {
            feature,
            threshold,
            left,
            right,
        };
        at
    }

    /// Finds the `(feature, threshold)` with the largest impurity drop
    /// below the node holding `idx` (whose mean target is `mean`), or
    /// `None` when no split improves on it. Each candidate feature is one
    /// stable sort of the node's samples by value and one sweep over the
    /// boundaries between distinct values.
    fn best_split(&self, idx: &[usize], mean: f64, candidates: &[usize]) -> Option<(usize, f64)> {
        let t = &self.targets;
        let n = idx.len();
        let parent = match self.criterion {
            Criterion::Entropy => entropy(mean),
            Criterion::SquaredError => idx.iter().map(|&i| (t[i] - mean) * (t[i] - mean)).sum(),
        };
        let mut best: Option<(f64, usize, f64)> = None; // (gain, feature, threshold)
        let mut sorted: Vec<(f64, f64)> = Vec::with_capacity(n);
        for &f in candidates {
            sorted.clear();
            sorted.extend(idx.iter().map(|&i| (self.features.get(i, f), t[i])));
            sorted.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
            let total: f64 = sorted.iter().map(|(_, v)| v).sum();
            let total_sq: f64 = sorted.iter().map(|(_, v)| v * v).sum();
            let mut left_sum = 0.0;
            let mut left_sq = 0.0;
            for w in 0..n - 1 {
                left_sum += sorted[w].1;
                left_sq += sorted[w].1 * sorted[w].1;
                if sorted[w].0 == sorted[w + 1].0 {
                    continue; // cannot split between equal values
                }
                if w + 1 < self.min_leaf || n - w - 1 < self.min_leaf {
                    continue;
                }
                let nl = (w + 1) as f64;
                let nr = (n - w - 1) as f64;
                let right_sum = total - left_sum;
                let children = match self.criterion {
                    Criterion::Entropy => {
                        let nf = n as f64;
                        (nl / nf) * entropy(left_sum / nl) + (nr / nf) * entropy(right_sum / nr)
                    }
                    Criterion::SquaredError => {
                        let right_sq = total_sq - left_sq;
                        (left_sq - left_sum * left_sum / nl)
                            + (right_sq - right_sum * right_sum / nr)
                    }
                };
                let gain = parent - children;
                if gain > 1e-12 && best.is_none_or(|(g, _, _)| gain > g) {
                    best = Some((gain, f, 0.5 * (sorted[w].0 + sorted[w + 1].0)));
                }
            }
        }
        best.map(|(_, f, t)| (f, t))
    }
}

fn entropy(p: f64) -> f64 {
    if p <= 0.0 || p >= 1.0 {
        return 0.0;
    }
    -p * p.log2() - (1.0 - p) * (1.0 - p).log2()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linalg::Matrix;

    fn grid_dataset() -> Dataset {
        // y = (x0 > 0.5) AND (x1 > 0.5): needs depth 2.
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..20 {
            for j in 0..20 {
                let x0 = i as f64 / 19.0;
                let x1 = j as f64 / 19.0;
                rows.push(vec![x0, x1]);
                labels.push(((x0 > 0.5) && (x1 > 0.5)) as u8);
            }
        }
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        Dataset::new(Matrix::from_rows(&refs), labels, vec![0; 400])
    }

    #[test]
    fn learns_axis_aligned_and() {
        let data = grid_dataset();
        let tree = DecisionTree::fit(&data, 4, 1, None, 1);
        assert!(tree.predict_proba(&[0.9, 0.9]) > 0.9);
        assert!(tree.predict_proba(&[0.9, 0.1]) < 0.1);
        assert!(tree.predict_proba(&[0.1, 0.9]) < 0.1);
    }

    #[test]
    fn depth_limit_respected() {
        let data = grid_dataset();
        for d in 1..6 {
            let tree = DecisionTree::fit(&data, d, 1, None, 1);
            assert!(tree.depth() <= d, "depth {} > {d}", tree.depth());
        }
    }

    #[test]
    fn pure_node_becomes_leaf() {
        let x = Matrix::from_rows(&[&[0.0], &[1.0], &[2.0]]);
        let data = Dataset::new(x, vec![1, 1, 1], vec![0; 3]);
        let tree = DecisionTree::fit(&data, 8, 1, None, 1);
        assert_eq!(tree.num_nodes(), 1);
        assert_eq!(tree.predict_proba(&[5.0]), 1.0);
    }

    #[test]
    fn min_leaf_prevents_tiny_splits() {
        let data = grid_dataset();
        let tree = DecisionTree::fit(&data, 10, 150, None, 1);
        // With min_leaf=150 of 400 samples, at most ~1 level of splitting.
        assert!(tree.depth() <= 2);
    }

    #[test]
    fn deterministic_given_seed() {
        let data = grid_dataset();
        let a = DecisionTree::fit(&data, 4, 1, Some(1), 9);
        let b = DecisionTree::fit(&data, 4, 1, Some(1), 9);
        assert_eq!(a, b);
    }

    #[test]
    fn constant_features_yield_single_leaf() {
        let x = Matrix::from_rows(&[&[1.0], &[1.0], &[1.0], &[1.0]]);
        let data = Dataset::new(x, vec![0, 1, 0, 1], vec![0; 4]);
        let tree = DecisionTree::fit(&data, 4, 1, None, 1);
        assert_eq!(tree.num_nodes(), 1);
        assert_eq!(tree.predict_proba(&[1.0]), 0.5);
    }

    #[test]
    #[should_panic(expected = "empty dataset")]
    fn empty_dataset_rejected() {
        let d = Dataset::new(Matrix::zeros(0, 1), vec![], vec![]);
        let _ = DecisionTree::fit(&d, 2, 1, None, 1);
    }
}
