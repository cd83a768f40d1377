//! The [`Classifier`] trait: one probability method over a trained model.
//!
//! Its one implementation is `psca_uc::FirmwareModel`, and no workspace
//! crate uses this module: every caller scores through `FirmwareModel`'s
//! own methods. It stays only because the repository benchmark
//! (`perfbench/src/probe.rs`) drives its predictor probe through it, and
//! goes when that benchmark changes.

/// A binary gating classifier: feature vector in, HighPerf-probability
/// out.
pub trait Classifier {
    /// Probability (or squashed score) in `[0, 1]` that the positive
    /// class — "next window wants HighPerf" — is correct for `x`.
    fn predict_proba(&self, x: &[f64]) -> f64;
}
