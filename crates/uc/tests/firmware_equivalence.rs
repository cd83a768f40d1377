//! `FirmwareModel` is the one decision surface over every model class:
//! its `score` carries the bits of the wrapped model's probability, and
//! its `predict` compares that score against the firmware's own threshold
//! (or, for the SVM classes, takes the vote or margin decision).

use psca_ml::gbdt::{Gbdt, GbdtConfig};
use psca_ml::{
    Dataset, DecisionTree, KernelSvm, LinearSvm, LogisticRegression, Matrix, Mlp, MlpConfig,
    RandomForest, RandomForestConfig,
};
use psca_uc::{FirmwareError, FirmwareModel, Model};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Input width of the toy data.
const DIM: usize = 3;

/// Small deterministic binary dataset: label = (x0 + 0.3*x1 > 0).
fn toy_dataset(n: usize, seed: u64) -> Dataset {
    let mut s = seed;
    let mut next = move || {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (s >> 33) as f64 / (1u64 << 31) as f64
    };
    let rows: Vec<Vec<f64>> = (0..n)
        .map(|_| (0..DIM).map(|_| next() * 4.0 - 2.0).collect())
        .collect();
    let labels: Vec<u8> = rows
        .iter()
        .map(|r| (r[0] + 0.3 * r[1] > 0.0) as u8)
        .collect();
    let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
    Dataset::new(Matrix::from_rows(&refs), labels, vec![0; n])
}

/// Probe rows independent of the training data.
fn probes() -> Vec<Vec<f64>> {
    (0..16)
        .map(|i| {
            (0..DIM)
                .map(|j| ((i * DIM + j) as f64).sin() * 1.5)
                .collect()
        })
        .collect()
}

/// Asserts `fw` reports the training width, scores every probe with the
/// bits of `proba`, and decides as `rule(x, threshold)` does: at the
/// untuned threshold, at the ends and quartiles of `[0, 1]`, and at the
/// probe's own score, where `score >= threshold` holds with equality.
fn assert_equivalent(
    mut fw: FirmwareModel,
    proba: impl Fn(&[f64]) -> f64,
    rule: impl Fn(&[f64], f64) -> bool,
) {
    assert_eq!(fw.input_dim(), Some(DIM));
    for x in probes() {
        let want = proba(&x);
        for t in [0.5, 0.0, 0.25, 0.75, 1.0, want] {
            fw.set_threshold(t);
            let got = fw.score(&x).unwrap();
            assert_eq!(got.to_bits(), want.to_bits(), "score {got} vs {want}");
            assert_eq!(fw.predict(&x).unwrap(), rule(&x, t), "at threshold {t}");
        }
    }
}

/// The logistic sigmoid, written out so the χ² SVM's score is checked
/// against an independent formula.
fn squash(d: f64) -> f64 {
    1.0 / (1.0 + (-d).exp())
}

#[test]
fn logistic_scores_and_thresholds_its_probability() {
    let lr = LogisticRegression::fit(&toy_dataset(64, 11), 1e-3, 50);
    let fw = FirmwareModel::new(Model::Logistic(lr.clone()));
    assert_equivalent(fw, |x| lr.predict_proba(x), |x, t| lr.predict_proba(x) >= t);
}

#[test]
fn mlp_scores_and_thresholds_its_probability() {
    let cfg = MlpConfig {
        epochs: 5,
        ..MlpConfig::best_mlp()
    };
    let mlp = Mlp::fit(&cfg, &toy_dataset(64, 12), 3);
    let fw = FirmwareModel::new(Model::Mlp(mlp.clone()));
    assert_equivalent(
        fw,
        |x| mlp.predict_proba(x),
        |x, t| mlp.predict_proba(x) >= t,
    );
}

#[test]
fn gbdt_scores_and_thresholds_its_probability() {
    let gbdt = Gbdt::fit(&GbdtConfig::default(), &toy_dataset(64, 13));
    let fw = FirmwareModel::new(Model::Gbdt(gbdt.clone()));
    assert_equivalent(
        fw,
        |x| gbdt.predict_proba(x),
        |x, t| gbdt.predict_proba(x) >= t,
    );
}

#[test]
fn forest_scores_and_thresholds_its_probability() {
    let rf = RandomForest::fit(&RandomForestConfig::best_rf(), &toy_dataset(64, 14), 5);
    let fw = FirmwareModel::new(Model::Forest(rf.clone()));
    assert_equivalent(fw, |x| rf.predict_proba(x), |x, t| rf.predict_proba(x) >= t);
}

#[test]
fn one_tree_forest_scores_its_tree() {
    let tree = DecisionTree::fit(&toy_dataset(64, 15), 4, 1, None, 7);
    let fw = FirmwareModel::new(Model::Forest(RandomForest::from_trees(vec![tree.clone()])));
    assert_equivalent(
        fw,
        |x| tree.predict_proba(x),
        |x, t| tree.predict_proba(x) >= t,
    );
}

#[test]
fn svm_ensembles_score_their_vote_fraction_and_decide_by_majority() {
    let data = toy_dataset(64, 16);
    for ens in [
        vec![LinearSvm::fit(&data, 1e-3, 200, 9)],
        LinearSvm::fit_ensemble(&data, 5, 1e-3, 200, 9),
    ] {
        let votes = |x: &[f64]| ens.iter().filter(|s| s.predict(x)).count();
        let fw = FirmwareModel::new(Model::SvmEnsemble(ens.clone()));
        assert_equivalent(
            fw,
            |x| votes(x) as f64 / ens.len() as f64,
            |x, _| 2 * votes(x) > ens.len(),
        );
    }
}

#[test]
fn chi2_svm_scores_its_squashed_margin_and_decides_by_its_sign() {
    let svm = KernelSvm::fit_chi2(&toy_dataset(64, 17), 1e-3, 100, 32, 21);
    let fw = FirmwareModel::new(Model::Chi2Svm(svm.clone()));
    assert_equivalent(
        fw,
        |x| squash(svm.decision(x)),
        |x, _| svm.decision(x) > 0.0,
    );
}

#[test]
fn threshold_moves_decision() {
    let mut rng = StdRng::seed_from_u64(5);
    let rows: Vec<Vec<f64>> = (0..200)
        .map(|_| vec![rng.gen::<f64>() * 2.0 - 1.0, rng.gen::<f64>() * 2.0 - 1.0])
        .collect();
    let labels = rows
        .iter()
        .map(|r| ((r[0] > 0.0) != (r[1] > 0.0)) as u8)
        .collect();
    let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
    let xor = Dataset::new(Matrix::from_rows(&refs), labels, vec![0; 200]);
    let mut fw = FirmwareModel::new(Model::Mlp(Mlp::fit(&MlpConfig::default(), &xor, 2)));
    fw.set_threshold(1.0);
    assert!(!fw.predict(&[0.5, -0.5]).unwrap());
    fw.set_threshold(0.0);
    assert!(fw.predict(&[0.5, -0.5]).unwrap());
}

#[test]
fn set_threshold_clamps_to_the_unit_interval() {
    let lr = LogisticRegression::from_parts(vec![1.0; DIM], 0.0);
    let mut fw = FirmwareModel::new(Model::Logistic(lr));
    assert_eq!(fw.threshold(), 0.5);
    fw.set_threshold(2.0);
    assert_eq!(fw.threshold(), 1.0);
    fw.set_threshold(-1.0);
    assert_eq!(fw.threshold(), 0.0);
}

#[test]
fn nan_threshold_fails_validation_with_the_class_name() {
    let data = toy_dataset(64, 18);
    let thresholded = [
        (
            Model::Mlp(Mlp::fit(&MlpConfig::best_mlp(), &data, 1)),
            "MLP threshold",
        ),
        (
            Model::Forest(RandomForest::fit(&RandomForestConfig::best_rf(), &data, 1)),
            "forest threshold",
        ),
        (
            Model::Logistic(LogisticRegression::fit(&data, 1e-3, 50)),
            "logistic threshold",
        ),
        (
            Model::Gbdt(Gbdt::fit(&GbdtConfig::default(), &data)),
            "GBDT threshold",
        ),
    ];
    for (model, name) in thresholded {
        let mut fw = FirmwareModel::new(model);
        assert!(fw.validate().is_ok());
        fw.set_threshold(f64::NAN);
        assert_eq!(
            fw.validate().unwrap_err(),
            FirmwareError::NonFiniteParameter(name)
        );
    }
    // The SVM classes never read the threshold.
    let mut svm = FirmwareModel::new(Model::SvmEnsemble(vec![LinearSvm::fit(
        &data, 1e-3, 200, 9,
    )]));
    svm.set_threshold(f64::NAN);
    assert!(svm.validate().is_ok());
}
