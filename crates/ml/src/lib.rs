//! # psca-ml
//!
//! A from-scratch machine-learning library implementing every model class
//! and training procedure the paper uses — with no external ML dependency,
//! so the entire adaptation pipeline is a single Rust workspace:
//!
//! - [`Mlp`] — multi-layer perceptrons with ReLU activations trained by
//!   backpropagation with the Adam optimizer (§5, §6.3);
//! - [`DecisionTree`] — the one CART tree, with one grower, one split
//!   sweep and one traversal, and two split criteria fixed by the
//!   learner: label entropy in the bagged [`RandomForest`] (§5, Best RF)
//!   and squared error on logistic-loss residuals in the stages of the
//!   gradient-boosted [`gbdt::Gbdt`] (an extension beyond the §5 zoo);
//! - [`LogisticRegression`] — fit with L-BFGS (§7, SRCH baseline);
//! - [`LinearSvm`] / [`KernelSvm`] — Pegasos linear SVMs and budgeted
//!   χ²-kernel SVMs (§5, Table 3);
//! - [`spectral`] — the Perona–Freeman spectral counter-selection
//!   algorithm (Algorithm 1, §6.2) plus the low-activity and
//!   standard-deviation screens;
//! - [`Dataset`], [`crossval`], [`metrics`] — group-aware k-fold cross
//!   validation (all telemetry from one application lands on one side of
//!   the split, §4.3) and the paper's prediction metrics;
//! - [`histogram`] — counter-histogram featurization for the SRCH
//!   baseline (Dubach et al.);
//! - [`linalg`] / [`eig`] — the dense matrix and symmetric-eigensolver
//!   substrate everything above is built on;
//! - [`Classifier`] — a one-method `predict_proba` trait kept only for
//!   the repository benchmark's predictor probe.
//!
//! Every model here only scores: `predict_proba` is the whole inference
//! surface. The gating threshold (the "sensitivity" the paper tunes,
//! §6.3) and the thresholded decision belong to `psca_uc::FirmwareModel`.

#![warn(missing_docs)]

pub mod classifier;
pub mod crossval;
pub mod eig;
pub mod gbdt;
pub mod histogram;
pub mod kmeans;
pub mod linalg;
pub mod metrics;
pub mod spectral;

mod dataset;
mod forest;
mod logistic;
mod mlp;
mod svm;
mod tree;

pub use classifier::Classifier;
pub use dataset::{Dataset, Standardizer};
pub use forest::{RandomForest, RandomForestConfig};
pub use linalg::Matrix;
pub use logistic::LogisticRegression;
pub use mlp::{Mlp, MlpConfig};
pub use svm::{KernelSvm, LinearSvm};
pub use tree::{DecisionTree, Node};
