//! Property-based tests of crate-local ML invariants.

use proptest::prelude::*;
use psca_ml::histogram::HistogramFeaturizer;
use psca_ml::{Dataset, DecisionTree, Matrix, Standardizer};

fn dataset_strategy() -> impl Strategy<Value = Dataset> {
    (2usize..40, 1usize..5, any::<u64>()).prop_map(|(n, d, seed)| {
        let mut x = seed;
        let mut next = move || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 33) as f64 / (1u64 << 31) as f64
        };
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|_| (0..d).map(|_| next() * 10.0 - 5.0).collect())
            .collect();
        let labels: Vec<u8> = rows.iter().map(|r| (r[0] > 0.0) as u8).collect();
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        Dataset::new(Matrix::from_rows(&refs), labels, vec![0; n])
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Grown trees never exceed their depth bound and always produce
    /// probabilities in [0, 1] for arbitrary data.
    #[test]
    fn tree_respects_depth_and_probability_bounds(
        data in dataset_strategy(),
        depth in 1usize..10,
    ) {
        let tree = DecisionTree::fit(&data, depth, 1, None, 7);
        prop_assert!(tree.depth() <= depth);
        for i in 0..data.len() {
            let p = tree.predict_proba(data.sample(i).0);
            prop_assert!((0.0..=1.0).contains(&p));
        }
    }

    /// Standardization is invertible up to floating-point error.
    #[test]
    fn standardizer_is_affine_invertible(data in dataset_strategy()) {
        let std = Standardizer::fit(&data);
        let t = std.transform_dataset(data.clone());
        // Any two samples' ordering along each dimension is preserved
        // (standardization is monotone per feature).
        for j in 0..data.dim() {
            for a in 0..data.len() {
                for b in 0..data.len() {
                    let raw = data.features().get(a, j) <= data.features().get(b, j);
                    let tr = t.features().get(a, j) <= t.features().get(b, j);
                    prop_assert_eq!(raw, tr);
                }
            }
        }
    }

    /// Histograms are normalized distributions for any window.
    #[test]
    fn histograms_are_distributions(
        values in prop::collection::vec(prop::collection::vec(0.0f64..100.0, 2), 2..30),
        buckets in 1usize..12,
    ) {
        let refs: Vec<&[f64]> = values.iter().map(|r| r.as_slice()).collect();
        let h = HistogramFeaturizer::fit(&refs, buckets);
        let f = h.featurize(&refs);
        prop_assert_eq!(f.len(), 2 * buckets);
        let per_counter_total: f64 = f[..buckets].iter().sum();
        prop_assert!((per_counter_total - 1.0).abs() < 1e-9);
        prop_assert!(f.iter().all(|v| *v >= 0.0));
    }

    /// Matrix transpose is an involution and matmul agrees with matvec.
    #[test]
    fn matrix_algebra_consistency(
        rows in 1usize..6,
        cols in 1usize..6,
        seed in any::<u64>(),
    ) {
        let mut x = seed;
        let mut next = move || {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(99);
            (x >> 33) as f64 / (1u64 << 31) as f64 - 1.0
        };
        let mut m = Matrix::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                m.set(r, c, next());
            }
        }
        prop_assert_eq!(m.transpose().transpose(), m.clone());
        let v: Vec<f64> = (0..cols).map(|_| next()).collect();
        let via_vec = m.matvec(&v);
        let vm = Matrix::from_vec(cols, 1, v);
        let via_mat = m.matmul(&vm);
        for (r, &vv) in via_vec.iter().enumerate() {
            prop_assert!((vv - via_mat.get(r, 0)).abs() < 1e-9);
        }
    }
}
