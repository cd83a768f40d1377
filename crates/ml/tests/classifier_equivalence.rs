//! Proves `&dyn Classifier` dispatch is bit-for-bit identical to direct
//! inherent calls for every model family, on every probe row.
//!
//! The trait impls are thin forwarders, so any divergence here means a
//! trait impl silently re-implemented (rather than delegated to) model
//! logic — exactly the duplication the trait exists to remove.

use psca_ml::gbdt::{Gbdt, GbdtConfig};
use psca_ml::{
    Classifier, Dataset, DecisionTree, KernelSvm, LinearSvm, LogisticRegression, Matrix, Mlp,
    MlpConfig, RandomForest, RandomForestConfig,
};

/// Small deterministic binary dataset: label = (x0 + 0.3*x1 > 0).
fn toy_dataset(n: usize, dim: usize, seed: u64) -> Dataset {
    let mut s = seed;
    let mut next = move || {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (s >> 33) as f64 / (1u64 << 31) as f64
    };
    let rows: Vec<Vec<f64>> = (0..n)
        .map(|_| (0..dim).map(|_| next() * 4.0 - 2.0).collect())
        .collect();
    let labels: Vec<u8> = rows
        .iter()
        .map(|r| (r[0] + 0.3 * r[1] > 0.0) as u8)
        .collect();
    let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
    Dataset::new(Matrix::from_rows(&refs), labels, vec![0; n])
}

/// Probe rows independent of the training data.
fn probes(dim: usize) -> Vec<Vec<f64>> {
    (0..16)
        .map(|i| {
            (0..dim)
                .map(|j| ((i * dim + j) as f64).sin() * 1.5)
                .collect()
        })
        .collect()
}

/// Asserts trait-object and direct calls agree exactly (f64 bit pattern
/// for probabilities, equality for decisions) on every probe.
fn assert_bit_identical<M, P, D>(model: &M, dim: usize, direct_proba: P, direct_predict: D)
where
    M: Classifier,
    P: Fn(&M, &[f64]) -> f64,
    D: Fn(&M, &[f64]) -> bool,
{
    let dynamic: &dyn Classifier = model;
    for x in probes(dim) {
        let via_trait = dynamic.predict_proba(&x);
        let via_direct = direct_proba(model, &x);
        assert_eq!(
            via_trait.to_bits(),
            via_direct.to_bits(),
            "predict_proba diverged: trait {via_trait} vs direct {via_direct}"
        );
        assert_eq!(dynamic.predict(&x), direct_predict(model, &x));
    }
}

#[test]
fn logistic_trait_matches_direct() {
    let data = toy_dataset(64, 3, 11);
    let model = LogisticRegression::fit(&data, 1e-3, 50);
    assert_eq!(Classifier::n_features(&model), Some(3));
    assert_bit_identical(
        &model,
        3,
        LogisticRegression::predict_proba,
        LogisticRegression::predict,
    );
}

#[test]
fn mlp_trait_matches_direct() {
    let data = toy_dataset(64, 3, 12);
    let cfg = MlpConfig {
        epochs: 5,
        ..MlpConfig::best_mlp()
    };
    let model = Mlp::fit(&cfg, &data, 3);
    assert_eq!(Classifier::n_features(&model), Some(3));
    assert_bit_identical(&model, 3, Mlp::predict_proba, Mlp::predict);
}

#[test]
fn gbdt_trait_matches_direct() {
    let data = toy_dataset(64, 3, 13);
    let model = Gbdt::fit(&GbdtConfig::default(), &data);
    assert_eq!(Classifier::n_features(&model), Some(3));
    assert_bit_identical(&model, 3, Gbdt::predict_proba, Gbdt::predict);
}

#[test]
fn forest_trait_matches_direct() {
    let data = toy_dataset(64, 3, 14);
    let model = RandomForest::fit(&RandomForestConfig::best_rf(), &data, 5);
    assert_eq!(Classifier::n_features(&model), Some(3));
    assert_bit_identical(
        &model,
        3,
        RandomForest::predict_proba,
        RandomForest::predict,
    );
}

#[test]
fn tree_trait_matches_direct() {
    let data = toy_dataset(64, 3, 15);
    let model = DecisionTree::fit(&data, 4, 1, None, 7);
    assert_eq!(Classifier::n_features(&model), Some(3));
    assert_bit_identical(
        &model,
        3,
        DecisionTree::predict_proba,
        |m: &DecisionTree, x: &[f64]| m.predict_proba(x) >= 0.5,
    );
}

#[test]
fn linear_svm_trait_matches_direct() {
    let data = toy_dataset(64, 3, 16);
    let model = LinearSvm::fit(&data, 1e-3, 200, 9);
    assert_eq!(Classifier::n_features(&model), Some(3));
    assert_bit_identical(
        &model,
        3,
        |m: &LinearSvm, x: &[f64]| 1.0 / (1.0 + (-m.decision(x)).exp()),
        LinearSvm::predict,
    );
}

#[test]
fn kernel_svm_trait_matches_direct() {
    let data = toy_dataset(64, 3, 17);
    let model = KernelSvm::fit_chi2(&data, 1e-3, 100, 32, 21);
    assert_eq!(Classifier::n_features(&model), Some(3));
    assert_bit_identical(
        &model,
        3,
        |m: &KernelSvm, x: &[f64]| 1.0 / (1.0 + (-m.decision(x)).exp()),
        KernelSvm::predict,
    );
}
