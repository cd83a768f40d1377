//! Group-aware k-fold cross-validation (§4.3).
//!
//! Each fold is an independent randomized 80/20 partition *by application*
//! (group id): all telemetry from one application lands entirely in the
//! tuning set or entirely in the validation set, so telemetry reflecting
//! common code sections never appears on both sides — which would make
//! validation metrics overestimate performance on unseen applications.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// One tuning/validation split as sample-index lists.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fold {
    /// Tuning (training) sample indices.
    pub tune: Vec<usize>,
    /// Validation sample indices.
    pub validate: Vec<usize>,
}

/// Generates `k` randomized group-aware splits. `validate_frac` of the
/// distinct groups (rounded, at least one) goes to validation in each fold.
///
/// The paper uses `k = 32` folds of 80/20 splits (§4.3).
///
/// # Panics
/// Panics if `groups` is empty or `validate_frac` is not in `(0, 1)`.
pub fn group_folds(groups: &[u32], k: usize, validate_frac: f64, seed: u64) -> Vec<Fold> {
    assert!(!groups.is_empty(), "no samples to split");
    assert!(
        validate_frac > 0.0 && validate_frac < 1.0,
        "validate_frac must be in (0, 1)"
    );
    let mut distinct: Vec<u32> = {
        let mut seen = std::collections::HashSet::new();
        groups.iter().copied().filter(|g| seen.insert(*g)).collect()
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let n_val = ((distinct.len() as f64 * validate_frac).round() as usize)
        .clamp(1, distinct.len().saturating_sub(1).max(1));
    (0..k)
        .map(|_| {
            distinct.shuffle(&mut rng);
            let val_groups: std::collections::HashSet<u32> =
                distinct[..n_val].iter().copied().collect();
            let mut tune = Vec::new();
            let mut validate = Vec::new();
            for (i, g) in groups.iter().enumerate() {
                if val_groups.contains(g) {
                    validate.push(i);
                } else {
                    tune.push(i);
                }
            }
            Fold { tune, validate }
        })
        .collect()
}

/// Mean and population standard deviation of a metric across folds.
pub fn mean_std(values: &[f64]) -> (f64, f64) {
    if values.is_empty() {
        return (0.0, 0.0);
    }
    let n = values.len() as f64;
    let mean = values.iter().sum::<f64>() / n;
    let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
    (mean, var.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn folds_never_split_a_group() {
        let groups: Vec<u32> = (0..100).map(|i| i / 10).collect();
        for fold in group_folds(&groups, 8, 0.2, 1) {
            let tune_groups: std::collections::HashSet<u32> =
                fold.tune.iter().map(|&i| groups[i]).collect();
            let val_groups: std::collections::HashSet<u32> =
                fold.validate.iter().map(|&i| groups[i]).collect();
            assert!(tune_groups.is_disjoint(&val_groups));
            assert_eq!(fold.tune.len() + fold.validate.len(), 100);
        }
    }

    #[test]
    fn validate_fraction_approximate() {
        let groups: Vec<u32> = (0..200).map(|i| i / 10).collect(); // 20 groups
        let folds = group_folds(&groups, 4, 0.2, 2);
        for fold in folds {
            let val_groups: std::collections::HashSet<u32> =
                fold.validate.iter().map(|&i| groups[i]).collect();
            assert_eq!(val_groups.len(), 4); // 20% of 20
        }
    }

    #[test]
    fn folds_differ_across_k() {
        let groups: Vec<u32> = (0..100).map(|i| i / 5).collect();
        let folds = group_folds(&groups, 8, 0.2, 3);
        let distinct: std::collections::HashSet<Vec<usize>> =
            folds.iter().map(|f| f.validate.clone()).collect();
        assert!(distinct.len() > 1, "folds should be randomized");
    }

    #[test]
    fn folds_deterministic_per_seed() {
        let groups: Vec<u32> = (0..50).map(|i| i / 5).collect();
        assert_eq!(
            group_folds(&groups, 3, 0.2, 7),
            group_folds(&groups, 3, 0.2, 7)
        );
    }

    #[test]
    fn mean_std_basics() {
        let (m, s) = mean_std(&[1.0, 2.0, 3.0]);
        assert!((m - 2.0).abs() < 1e-12);
        assert!((s - (2.0f64 / 3.0).sqrt()).abs() < 1e-12);
        assert_eq!(mean_std(&[]), (0.0, 0.0));
    }

    #[test]
    fn single_group_still_splits() {
        let groups = [0u32, 0, 0];
        let folds = group_folds(&groups, 1, 0.2, 1);
        // With one group, everything must land in validation (n_val >= 1).
        assert_eq!(folds[0].validate.len(), 3);
    }
}
