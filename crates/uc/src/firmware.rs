//! Op-counted firmware inference for every model class of §5.
//!
//! Each variant wraps a trained `psca-ml` model and reproduces its
//! decision bit-for-bit while accounting the µC operations the paper's
//! hand-optimized firmware would execute:
//!
//! - MLP filters are inner products + ReLU (Listing 1);
//! - random-forest trees are branch-free traversals padded to constant
//!   depth with trivial comparisons (Listing 2), "so each prediction
//!   requires the same computational cost, simplifying budgeting";
//! - logistic regression avoids `exp()` entirely for decisions by
//!   thresholding the logit (the paper notes `exp()` costs ~60 ops);
//! - SVM ensembles vote over per-SVM inner products;
//! - χ²-kernel SVMs pay a kernel evaluation per support vector, which is
//!   why Table 3 rules them out (~121k ops).
//!
//! The decision threshold is the firmware's: the wrapped `psca-ml` models
//! only score, and [`FirmwareModel`] holds the one threshold its score is
//! compared against (Listings 1–2), the "sensitivity" the paper tunes
//! (§6.3) and the one value a firmware image stores.

use crate::opcount::OpCounter;
use psca_ml::gbdt::Gbdt;
use psca_ml::linalg::sigmoid;
use psca_ml::{
    Classifier, DecisionTree, KernelSvm, LinearSvm, LogisticRegression, Mlp, Node, RandomForest,
};
use std::fmt;

/// Typed firmware inference/validation errors. Field-deployed firmware
/// must never panic on bad input — a malformed feature vector or a
/// corrupted weight becomes a recoverable error the degradation ladder
/// can act on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FirmwareError {
    /// The input feature vector has the wrong dimensionality.
    DimensionMismatch {
        /// Dimensionality the model was trained for.
        expected: usize,
        /// Dimensionality of the offending input.
        got: usize,
    },
    /// A model parameter is NaN or infinite (names the component).
    NonFiniteParameter(&'static str),
}

impl fmt::Display for FirmwareError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FirmwareError::DimensionMismatch { expected, got } => {
                write!(
                    f,
                    "input dimension mismatch: expected {expected}, got {got}"
                )
            }
            FirmwareError::NonFiniteParameter(what) => {
                write!(f, "non-finite model parameter in {what}")
            }
        }
    }
}

impl std::error::Error for FirmwareError {}

/// A trained `psca-ml` model of one of the §5 classes.
#[derive(Debug, Clone)]
pub enum Model {
    /// Multi-layer perceptron (Listing 1 style).
    Mlp(Mlp),
    /// Random forest with constant-cost padded trees (Listing 2 style).
    Forest(RandomForest),
    /// Logistic regression (decision by logit threshold).
    Logistic(LogisticRegression),
    /// Majority-voted linear-SVM ensemble.
    SvmEnsemble(Vec<LinearSvm>),
    /// Budgeted χ²-kernel SVM.
    Chi2Svm(KernelSvm),
    /// Gradient-boosted trees (extension beyond the paper's §5 zoo; same
    /// branch-free traversal kernel as forests).
    Gbdt(Gbdt),
}

/// A trained adaptation model compiled for the microcontroller: the
/// wrapped model and the decision threshold its score is compared
/// against.
///
/// MLP, forest, logistic and GBDT models gate high when their
/// [`score`](FirmwareModel::score) reaches the threshold. The SVM classes
/// ignore it: an ensemble takes its majority vote and a χ² SVM gates on a
/// positive margin, because `sigmoid(d) >= 0.5` and `d > 0` differ at and
/// near `d = 0`.
#[derive(Debug, Clone)]
pub struct FirmwareModel {
    model: Model,
    threshold: f64,
}

impl FirmwareModel {
    /// Wraps a trained model with the untuned threshold 0.5.
    pub fn new(model: Model) -> FirmwareModel {
        FirmwareModel {
            model,
            threshold: 0.5,
        }
    }

    /// The wrapped model.
    pub(crate) fn model(&self) -> &Model {
        &self.model
    }

    /// The decision threshold.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// Sets the decision threshold (sensitivity tuning, §6.3), clamped to
    /// `[0, 1]`. The SVM classes keep their vote or margin decision.
    pub fn set_threshold(&mut self, t: f64) {
        self.threshold = t.clamp(0.0, 1.0);
    }

    /// Input dimensionality the model was trained for, where the model
    /// class records it.
    pub fn input_dim(&self) -> Option<usize> {
        match &self.model {
            Model::Mlp(m) => Some(m.layer_weights(0).0.cols()),
            Model::Forest(m) => m.trees().first().map(|t| t.num_features()),
            Model::Logistic(m) => Some(m.weights().len()),
            Model::SvmEnsemble(ms) => ms.first().map(|s| s.weights().len()),
            Model::Chi2Svm(m) => m.dim(),
            Model::Gbdt(m) => m.trees().first().map(|t| t.num_features()),
        }
    }

    fn check_dim(&self, x: &[f64]) -> Result<(), FirmwareError> {
        match self.input_dim() {
            Some(expected) if expected != x.len() => {
                psca_obs::counter("uc.firmware.dim_errors").inc();
                Err(FirmwareError::DimensionMismatch {
                    expected,
                    got: x.len(),
                })
            }
            _ => Ok(()),
        }
    }

    /// Gating decision: `score >= threshold`, or the SVM classes' vote or
    /// margin rule.
    ///
    /// # Errors
    /// Returns [`FirmwareError::DimensionMismatch`] if `x` has the wrong
    /// dimensionality; never panics on malformed input.
    pub fn predict(&self, x: &[f64]) -> Result<bool, FirmwareError> {
        match &self.model {
            Model::SvmEnsemble(ms) => {
                self.check_dim(x)?;
                Ok(2 * votes(ms, x) > ms.len())
            }
            Model::Chi2Svm(m) => {
                self.check_dim(x)?;
                Ok(m.predict(x))
            }
            _ => Ok(self.score(x)? >= self.threshold),
        }
    }

    /// Continuous decision score: a probability for MLP/forest/logistic/
    /// GBDT models, a vote fraction for SVM ensembles, and a
    /// margin-squashed value for kernel SVMs. Used for threshold
    /// (sensitivity) tuning.
    ///
    /// # Errors
    /// Returns [`FirmwareError::DimensionMismatch`] if `x` has the wrong
    /// dimensionality; never panics on malformed input.
    pub fn score(&self, x: &[f64]) -> Result<f64, FirmwareError> {
        self.check_dim(x)?;
        Ok(match &self.model {
            Model::Mlp(m) => m.predict_proba(x),
            Model::Forest(m) => m.predict_proba(x),
            Model::Logistic(m) => m.predict_proba(x),
            Model::SvmEnsemble(ms) => votes(ms, x) as f64 / ms.len().max(1) as f64,
            Model::Chi2Svm(m) => sigmoid(m.decision(x)),
            Model::Gbdt(m) => m.predict_proba(x),
        })
    }

    /// Weight-sanity check: every reachable model parameter must be
    /// finite. Run at image load (and before OTA deployment) so corrupted
    /// weights are rejected instead of silently steering the cluster.
    /// χ²-kernel SVM support vectors are not exposed for inspection, but
    /// that class is not deployable as firmware anyway (Table 3).
    ///
    /// # Errors
    /// Returns [`FirmwareError::NonFiniteParameter`] naming the first
    /// offending component.
    pub fn validate(&self) -> Result<(), FirmwareError> {
        let finite = |ok: bool, what: &'static str| {
            if ok {
                Ok(())
            } else {
                Err(FirmwareError::NonFiniteParameter(what))
            }
        };
        let threshold = match &self.model {
            Model::Mlp(m) => {
                for li in 0..m.num_layers() {
                    let (w, b) = m.layer_weights(li);
                    for r in 0..w.rows() {
                        for c in 0..w.cols() {
                            finite(w.get(r, c).is_finite(), "MLP weight")?;
                        }
                    }
                    finite(b.iter().all(|v| v.is_finite()), "MLP bias")?;
                }
                "MLP threshold"
            }
            Model::Forest(m) => {
                validate_trees(m.trees(), "forest leaf", "forest split")?;
                "forest threshold"
            }
            Model::Logistic(m) => {
                finite(m.weights().iter().all(|v| v.is_finite()), "logistic weight")?;
                finite(m.bias().is_finite(), "logistic bias")?;
                "logistic threshold"
            }
            // The SVM classes do not read the threshold.
            Model::SvmEnsemble(ms) => {
                for s in ms {
                    finite(s.weights().iter().all(|v| v.is_finite()), "SVM weight")?;
                }
                return Ok(());
            }
            Model::Chi2Svm(_) => return Ok(()),
            Model::Gbdt(m) => {
                validate_trees(m.trees(), "GBDT leaf", "GBDT split")?;
                "GBDT threshold"
            }
        };
        finite(self.threshold.is_finite(), threshold)
    }

    /// Gating decision plus the exact firmware operation tally.
    ///
    /// # Errors
    /// Returns [`FirmwareError::DimensionMismatch`] if `x` has the wrong
    /// dimensionality.
    pub fn predict_counted(&self, x: &[f64]) -> Result<(bool, OpCounter), FirmwareError> {
        self.check_dim(x)?;
        let mut ops = OpCounter::new();
        match &self.model {
            Model::Mlp(m) => {
                let mut width = x.len();
                for li in 0..m.num_layers() {
                    let (w, _) = m.layer_weights(li);
                    for _ in 0..w.rows() {
                        ops.inner_product(width);
                        if li + 1 < m.num_layers() {
                            ops.relu();
                        }
                    }
                    width = w.rows();
                }
                ops.compares += 1; // logit vs threshold
            }
            Model::Forest(m) => {
                count_trees(m.trees(), &mut ops);
                ops.compares += 1; // majority threshold
            }
            Model::Logistic(m) => {
                ops.inner_product(m.weights().len());
                ops.compares += 1;
            }
            Model::SvmEnsemble(ms) => {
                for s in ms {
                    ops.inner_product(s.weights().len());
                    ops.compares += 1;
                    ops.adds += 1; // vote
                }
                ops.compares += 1;
            }
            Model::Chi2Svm(m) => {
                let dim = m.dim().unwrap_or(x.len());
                for _ in 0..m.num_support_vectors() {
                    ops.chi2_kernel(dim);
                    ops.loads += 1; // alpha
                    ops.muls += 1;
                    ops.adds += 1;
                }
                ops.divs += 1; // 1 / (lambda t) scale
                ops.compares += 1;
            }
            Model::Gbdt(m) => {
                count_trees(m.trees(), &mut ops);
                ops.muls += 1; // shrinkage scale
                ops.compares += 1; // logit vs threshold (no exp needed)
            }
        }
        psca_obs::histogram("uc.firmware.ops_per_prediction").record(ops.total());
        Ok((self.predict(x)?, ops))
    }

    /// Operations per prediction (constant for a given model).
    pub fn ops_per_prediction(&self, num_inputs: usize) -> u64 {
        let x = vec![0.0; self.input_dim().unwrap_or(num_inputs)];
        self.predict_counted(&x)
            .expect("probe vector matches model dimensionality")
            .1
            .total()
    }

    /// Model parameter storage in bytes.
    ///
    /// MLP/LR/SVM coefficients are 4-byte quantities; tree nodes take 10
    /// bytes (feature id, threshold, child offset) with the full
    /// `2^depth` balanced-array layout the paper's accounting uses (e.g.
    /// a depth-16 tree = 655.36 KB, Table 3).
    pub fn memory_footprint_bytes(&self) -> u64 {
        match &self.model {
            Model::Mlp(m) => 4 * m.num_parameters() as u64,
            Model::Forest(m) => trees_footprint_bytes(m.trees()),
            Model::Logistic(m) => 4 * (m.weights().len() as u64 + 1),
            Model::SvmEnsemble(ms) => ms.iter().map(|s| 4 * (s.weights().len() as u64 + 1)).sum(),
            Model::Chi2Svm(m) => {
                let dim = m.dim().unwrap_or(0) as u64;
                m.num_support_vectors() as u64 * (4 * dim + 4)
            }
            Model::Gbdt(m) => trees_footprint_bytes(m.trees()),
        }
    }
}

/// Linear SVMs of `ms` voting for the positive class on `x`.
fn votes(ms: &[LinearSvm], x: &[f64]) -> usize {
    ms.iter().filter(|s| s.predict(x)).count()
}

/// Checks that every leaf value and split threshold of `trees` is finite;
/// `leaf` and `split` name the offending component.
fn validate_trees(
    trees: &[DecisionTree],
    leaf: &'static str,
    split: &'static str,
) -> Result<(), FirmwareError> {
    for node in trees.iter().flat_map(|t| t.nodes()) {
        let (v, what) = match node {
            Node::Leaf { value } => (value, leaf),
            Node::Split { threshold, .. } => (threshold, split),
        };
        if !v.is_finite() {
            return Err(FirmwareError::NonFiniteParameter(what));
        }
    }
    Ok(())
}

/// Counts one traversal per tree, padded to the configured max depth
/// (Listing 2), plus the leaf-value load and its accumulation into the
/// vote or logit.
fn count_trees(trees: &[DecisionTree], ops: &mut OpCounter) {
    for tree in trees {
        for _ in 0..tree.max_depth() {
            ops.tree_level();
        }
        ops.loads += 1;
        ops.adds += 1;
    }
}

/// 10-byte nodes in the full `2^depth` array layout, per tree.
fn trees_footprint_bytes(trees: &[DecisionTree]) -> u64 {
    trees.iter().map(|t| 10u64 * (1u64 << t.max_depth())).sum()
}

/// The trait's only implementation; it stays only for the repository
/// benchmark's predictor probe (see [`psca_ml::classifier`]).
///
/// # Panics
/// Panics on a dimension mismatch. Field code that must not panic uses
/// the fallible [`score`](FirmwareModel::score).
impl Classifier for FirmwareModel {
    fn predict_proba(&self, x: &[f64]) -> f64 {
        self.score(x).expect("input dimension matches the model")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psca_ml::gbdt::GbdtConfig;
    use psca_ml::{Dataset, Matrix, MlpConfig, RandomForestConfig};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn dataset(n: usize, d: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for _ in 0..n {
            let row: Vec<f64> = (0..d).map(|_| rng.gen::<f64>()).collect();
            labels.push((row.iter().sum::<f64>() > d as f64 / 2.0) as u8);
            rows.push(row);
        }
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        Dataset::new(Matrix::from_rows(&refs), labels, vec![0; n])
    }

    #[test]
    fn firmware_decisions_match_wrapped_models() {
        let data = dataset(300, 12, 1);
        let mlp = Mlp::fit(&MlpConfig::best_mlp(), &data, 2);
        let rf = RandomForest::fit(&RandomForestConfig::best_rf(), &data, 3);
        let fw_mlp = FirmwareModel::new(Model::Mlp(mlp.clone()));
        let fw_rf = FirmwareModel::new(Model::Forest(rf.clone()));
        for i in 0..data.len() {
            let x = data.sample(i).0;
            assert_eq!(fw_mlp.predict(x).unwrap(), mlp.predict_proba(x) >= 0.5);
            assert_eq!(fw_rf.predict(x).unwrap(), rf.predict_proba(x) >= 0.5);
            let (d, _) = fw_rf.predict_counted(x).unwrap();
            assert_eq!(d, rf.predict_proba(x) >= 0.5);
        }
    }

    #[test]
    fn wrong_dimensionality_is_a_typed_error_not_a_panic() {
        let data = dataset(200, 12, 2);
        let mlp = FirmwareModel::new(Model::Mlp(Mlp::fit(&MlpConfig::best_mlp(), &data, 2)));
        let lr = FirmwareModel::new(Model::Logistic(LogisticRegression::fit(&data, 1e-4, 50)));
        for fw in [&mlp, &lr] {
            assert_eq!(fw.input_dim(), Some(12));
            for bad in [vec![0.0; 3], vec![0.0; 13], Vec::new()] {
                let err = fw.predict(&bad).unwrap_err();
                assert_eq!(
                    err,
                    FirmwareError::DimensionMismatch {
                        expected: 12,
                        got: bad.len()
                    }
                );
                assert!(fw.score(&bad).is_err());
                assert!(fw.predict_counted(&bad).is_err());
            }
            assert!(fw.predict(&[0.0; 12]).is_ok());
        }
    }

    #[test]
    fn validate_rejects_non_finite_weights() {
        let good = FirmwareModel::new(Model::Logistic(LogisticRegression::from_parts(
            vec![1.0, -2.0],
            0.5,
        )));
        assert!(good.validate().is_ok());
        let bad = FirmwareModel::new(Model::Logistic(LogisticRegression::from_parts(
            vec![1.0, f64::NAN],
            0.5,
        )));
        assert_eq!(
            bad.validate().unwrap_err(),
            FirmwareError::NonFiniteParameter("logistic weight")
        );
        let bad_bias = FirmwareModel::new(Model::Logistic(LogisticRegression::from_parts(
            vec![1.0, 2.0],
            f64::INFINITY,
        )));
        assert!(bad_bias.validate().is_err());
        let data = dataset(200, 8, 3);
        let mlp = FirmwareModel::new(Model::Mlp(Mlp::fit(&MlpConfig::best_mlp(), &data, 4)));
        assert!(mlp.validate().is_ok());
    }

    #[test]
    fn best_mlp_ops_are_near_the_papers_678() {
        // 3 layers of 8/8/4 filters on 12 counters → paper reports 678.
        let data = dataset(100, 12, 4);
        let mlp = Mlp::fit(&MlpConfig::best_mlp(), &data, 1);
        let ops = FirmwareModel::new(Model::Mlp(mlp)).ops_per_prediction(12);
        assert!(
            (550..=800).contains(&ops),
            "Best-MLP ops {ops} out of plausible range around 678"
        );
    }

    #[test]
    fn best_rf_ops_are_near_the_papers_538() {
        // 8 trees, depth 8 → paper reports 538.
        let data = dataset(600, 12, 5);
        let rf = RandomForest::fit(&RandomForestConfig::best_rf(), &data, 2);
        let ops = FirmwareModel::new(Model::Forest(rf)).ops_per_prediction(12);
        assert!(
            (400..=700).contains(&ops),
            "Best-RF ops {ops} out of plausible range around 538"
        );
    }

    #[test]
    fn forest_cost_is_input_independent() {
        let data = dataset(300, 12, 6);
        let rf = FirmwareModel::new(Model::Forest(RandomForest::fit(
            &RandomForestConfig::best_rf(),
            &data,
            2,
        )));
        let (_, a) = rf.predict_counted(&[0.0; 12]).unwrap();
        let (_, b) = rf.predict_counted(&[1.0; 12]).unwrap();
        assert_eq!(a.total(), b.total(), "padded trees must cost the same");
    }

    #[test]
    fn chi2_svm_is_an_order_of_magnitude_costlier() {
        let data = dataset(800, 12, 7);
        let svm = psca_ml::KernelSvm::fit_chi2(&data, 1e-3, 3_000, 1000, 8);
        let fw = FirmwareModel::new(Model::Chi2Svm(svm));
        let ops = fw.ops_per_prediction(12);
        let data2 = dataset(300, 12, 9);
        let mlp_ops = FirmwareModel::new(Model::Mlp(Mlp::fit(&MlpConfig::best_mlp(), &data2, 1)))
            .ops_per_prediction(12);
        assert!(ops > 10 * mlp_ops, "chi2 {ops} vs mlp {mlp_ops}");
    }

    #[test]
    fn depth16_tree_footprint_matches_table3() {
        let data = dataset(400, 12, 10);
        let tree = DecisionTree::fit(&data, 16, 1, None, 1);
        let forest_of_one = FirmwareModel::new(Model::Forest(RandomForest::from_trees(vec![tree])));
        assert_eq!(forest_of_one.memory_footprint_bytes(), 655_360); // 655.36 KB, as in Table 3
    }

    #[test]
    fn tree_ensembles_name_their_non_finite_nodes() {
        let leaf = |value| DecisionTree::from_nodes(vec![Node::Leaf { value }], 1, 2);
        let forest = RandomForest::from_trees(vec![leaf(0.5), leaf(f64::NAN)]);
        assert_eq!(
            FirmwareModel::new(Model::Forest(forest))
                .validate()
                .unwrap_err(),
            FirmwareError::NonFiniteParameter("forest leaf")
        );
        let split = DecisionTree::from_nodes(
            vec![
                Node::Split {
                    feature: 0,
                    threshold: f64::INFINITY,
                    left: 1,
                    right: 2,
                },
                Node::Leaf { value: 0.0 },
                Node::Leaf { value: 1.0 },
            ],
            1,
            2,
        );
        let forest = RandomForest::from_trees(vec![split]);
        assert_eq!(
            FirmwareModel::new(Model::Forest(forest))
                .validate()
                .unwrap_err(),
            FirmwareError::NonFiniteParameter("forest split")
        );
    }

    #[test]
    fn gbdt_stages_are_checked_like_forest_trees() {
        let data = dataset(200, 6, 13);
        let fw = FirmwareModel::new(Model::Gbdt(Gbdt::fit(&GbdtConfig::default(), &data)));
        assert!(fw.validate().is_ok());
        assert_eq!(fw.input_dim(), Some(6));
        assert_eq!(
            fw.predict(&[0.0; 5]).unwrap_err(),
            FirmwareError::DimensionMismatch {
                expected: 6,
                got: 5
            }
        );
        // Eight depth-4 stages in the balanced-array layout.
        assert_eq!(fw.memory_footprint_bytes(), 8 * 10 * 16);
    }

    #[test]
    fn logistic_footprint_is_tiny() {
        let data = dataset(200, 12, 11);
        let lr = LogisticRegression::fit(&data, 1e-4, 50);
        let fw = FirmwareModel::new(Model::Logistic(lr));
        assert_eq!(fw.memory_footprint_bytes(), 52);
        assert!(fw.ops_per_prediction(12) < 60);
    }

    #[test]
    fn ensemble_votes_majority() {
        let data = dataset(300, 4, 12);
        let ens = LinearSvm::fit_ensemble(&data, 5, 1e-3, 3_000, 13);
        let fw = FirmwareModel::new(Model::SvmEnsemble(ens.clone()));
        let x = vec![0.9; 4];
        let votes = ens.iter().filter(|s| s.predict(&x)).count();
        assert_eq!(fw.predict(&x).unwrap(), 2 * votes > 5);
    }
}
