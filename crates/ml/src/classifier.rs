//! The [`Classifier`] trait: one typed surface over every model class.
//!
//! Historically each model (`logistic`, `mlp`, `gbdt`, `forest`, `svm`,
//! `tree`) exposed its own inherent `predict`/`predict_proba` pair, and
//! every consumer — firmware packing, experiment tables, the serving
//! daemon — re-matched on the concrete type. `Classifier` collapses those
//! six duplicated APIs into a single object-safe trait so call sites can
//! hold a `&dyn Classifier` and stay agnostic of the model family.
//!
//! Implementations forward to the inherent methods verbatim, so
//! trait-object dispatch is bit-for-bit identical to direct calls (an
//! equivalence test in this module enforces that). Margin-based models
//! without a native probability ([`LinearSvm`], [`KernelSvm`]) squash
//! their decision value through the logistic sigmoid — the same mapping
//! `psca-uc` firmware uses for χ² SVM scores.

use crate::forest::RandomForest;
use crate::gbdt::Gbdt;
use crate::linalg::sigmoid;
use crate::logistic::LogisticRegression;
use crate::mlp::Mlp;
use crate::svm::{KernelSvm, LinearSvm};
use crate::tree::DecisionTree;

/// A binary gating classifier: feature vector in, HighPerf-probability and
/// thresholded decision out.
///
/// Object-safe on purpose: the serving daemon, `zoo.rs`, and `table3.rs`
/// all dispatch through `&dyn Classifier`.
pub trait Classifier {
    /// Probability (or squashed score) in `[0, 1]` that the positive
    /// class — "next window wants HighPerf" — is correct for `x`.
    fn predict_proba(&self, x: &[f64]) -> f64;

    /// Thresholded class decision for `x`.
    ///
    /// Uses the model's own tuned threshold where it has one, matching
    /// the inherent `predict` exactly.
    fn predict(&self, x: &[f64]) -> bool;

    /// Expected input dimension, when the model records one.
    ///
    /// `None` means the model cannot state its dimension statically
    /// (a [`KernelSvm`] that retained no support vector); callers that
    /// need strict validation must supply the dimension out of band.
    fn n_features(&self) -> Option<usize>;
}

impl Classifier for LogisticRegression {
    fn predict_proba(&self, x: &[f64]) -> f64 {
        LogisticRegression::predict_proba(self, x)
    }

    fn predict(&self, x: &[f64]) -> bool {
        LogisticRegression::predict(self, x)
    }

    fn n_features(&self) -> Option<usize> {
        Some(self.weights().len())
    }
}

impl Classifier for Mlp {
    fn predict_proba(&self, x: &[f64]) -> f64 {
        Mlp::predict_proba(self, x)
    }

    fn predict(&self, x: &[f64]) -> bool {
        Mlp::predict(self, x)
    }

    fn n_features(&self) -> Option<usize> {
        Some(self.layer_weights(0).0.cols())
    }
}

impl Classifier for Gbdt {
    fn predict_proba(&self, x: &[f64]) -> f64 {
        Gbdt::predict_proba(self, x)
    }

    fn predict(&self, x: &[f64]) -> bool {
        Gbdt::predict(self, x)
    }

    fn n_features(&self) -> Option<usize> {
        self.trees().first().map(|t| t.num_features())
    }
}

impl Classifier for RandomForest {
    fn predict_proba(&self, x: &[f64]) -> f64 {
        RandomForest::predict_proba(self, x)
    }

    fn predict(&self, x: &[f64]) -> bool {
        RandomForest::predict(self, x)
    }

    fn n_features(&self) -> Option<usize> {
        self.trees().first().map(|t| t.num_features())
    }
}

impl Classifier for DecisionTree {
    fn predict_proba(&self, x: &[f64]) -> f64 {
        DecisionTree::predict_proba(self, x)
    }

    fn predict(&self, x: &[f64]) -> bool {
        DecisionTree::predict_proba(self, x) >= 0.5
    }

    fn n_features(&self) -> Option<usize> {
        Some(self.num_features())
    }
}

impl Classifier for LinearSvm {
    fn predict_proba(&self, x: &[f64]) -> f64 {
        sigmoid(self.decision(x))
    }

    fn predict(&self, x: &[f64]) -> bool {
        LinearSvm::predict(self, x)
    }

    fn n_features(&self) -> Option<usize> {
        Some(self.weights().len())
    }
}

impl Classifier for KernelSvm {
    fn predict_proba(&self, x: &[f64]) -> f64 {
        sigmoid(self.decision(x))
    }

    fn predict(&self, x: &[f64]) -> bool {
        KernelSvm::predict(self, x)
    }

    fn n_features(&self) -> Option<usize> {
        self.dim()
    }
}
