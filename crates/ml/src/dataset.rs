//! Labeled datasets with application-group bookkeeping.

use crate::linalg::Matrix;

/// A binary-labeled dataset with per-sample group ids.
///
/// Groups identify the *application* each interval came from; the paper's
/// cross-validation assigns whole applications to one side of each split
/// so common code sections never leak across (§4.3).
#[derive(Debug, Clone)]
pub struct Dataset {
    features: Matrix,
    labels: Vec<u8>,
    groups: Vec<u32>,
}

impl Dataset {
    /// Creates a dataset.
    ///
    /// # Panics
    /// Panics if lengths disagree or labels are not 0/1.
    pub fn new(features: Matrix, labels: Vec<u8>, groups: Vec<u32>) -> Dataset {
        assert_eq!(features.rows(), labels.len(), "labels length mismatch");
        assert_eq!(features.rows(), groups.len(), "groups length mismatch");
        assert!(labels.iter().all(|&y| y <= 1), "labels must be 0/1");
        Dataset {
            features,
            labels,
            groups,
        }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the dataset has no samples.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Feature dimensionality.
    pub fn dim(&self) -> usize {
        self.features.cols()
    }

    /// The feature matrix.
    pub fn features(&self) -> &Matrix {
        &self.features
    }

    /// The labels.
    pub fn labels(&self) -> &[u8] {
        &self.labels
    }

    /// The group (application) ids.
    pub fn groups(&self) -> &[u32] {
        &self.groups
    }

    /// Feature row of sample `i`.
    ///
    /// # Panics
    /// Panics if `i >= len()`.
    pub fn sample(&self, i: usize) -> (&[f64], u8) {
        (self.features.row(i), self.labels[i])
    }

    /// Fraction of positive labels.
    pub fn positive_rate(&self) -> f64 {
        if self.labels.is_empty() {
            return 0.0;
        }
        self.labels.iter().map(|&y| y as u32).sum::<u32>() as f64 / self.labels.len() as f64
    }

    /// A new dataset containing the given sample indices, in order.
    ///
    /// # Panics
    /// Panics if any index is out of bounds.
    pub fn subset(&self, idx: &[usize]) -> Dataset {
        let mut m = Matrix::zeros(idx.len(), self.dim());
        let mut labels = Vec::with_capacity(idx.len());
        let mut groups = Vec::with_capacity(idx.len());
        for (r, &i) in idx.iter().enumerate() {
            m.row_mut(r).copy_from_slice(self.features.row(i));
            labels.push(self.labels[i]);
            groups.push(self.groups[i]);
        }
        Dataset::new(m, labels, groups)
    }

    /// A new dataset keeping only the given feature columns.
    pub fn select_features(&self, cols: &[usize]) -> Dataset {
        let mut m = Matrix::zeros(self.len(), cols.len());
        for r in 0..self.len() {
            let row = self.features.row(r);
            for (j, &c) in cols.iter().enumerate() {
                m.set(r, j, row[c]);
            }
        }
        Dataset::new(m, self.labels.clone(), self.groups.clone())
    }

    /// Distinct group ids in first-appearance order.
    pub fn distinct_groups(&self) -> Vec<u32> {
        let mut seen = std::collections::HashSet::new();
        let mut out = Vec::new();
        for &g in &self.groups {
            if seen.insert(g) {
                out.push(g);
            }
        }
        out
    }

    /// Concatenates datasets with identical dimensionality.
    ///
    /// # Panics
    /// Panics if `parts` is empty or dims differ.
    pub fn concat(parts: &[&Dataset]) -> Dataset {
        assert!(!parts.is_empty(), "cannot concat zero datasets");
        let dim = parts[0].dim();
        let total: usize = parts.iter().map(|d| d.len()).sum();
        let mut m = Matrix::zeros(total, dim);
        let mut labels = Vec::with_capacity(total);
        let mut groups = Vec::with_capacity(total);
        let mut r = 0;
        for d in parts {
            assert_eq!(d.dim(), dim, "dimension mismatch");
            for i in 0..d.len() {
                m.row_mut(r).copy_from_slice(d.features.row(i));
                r += 1;
            }
            labels.extend_from_slice(&d.labels);
            groups.extend_from_slice(&d.groups);
        }
        Dataset::new(m, labels, groups)
    }
}

/// Per-feature standardization (zero mean, unit variance) fitted on a
/// training set and applied to any sample.
#[derive(Debug, Clone, PartialEq)]
pub struct Standardizer {
    means: Vec<f64>,
    stds: Vec<f64>,
}

impl Standardizer {
    /// Fits to a dataset's features.
    pub fn fit(data: &Dataset) -> Standardizer {
        let n = data.len().max(1) as f64;
        let d = data.dim();
        let mut means = vec![0.0; d];
        for i in 0..data.len() {
            for (m, v) in means.iter_mut().zip(data.features().row(i)) {
                *m += v;
            }
        }
        for m in means.iter_mut() {
            *m /= n;
        }
        let mut stds = vec![0.0; d];
        for i in 0..data.len() {
            for (s, (v, m)) in stds
                .iter_mut()
                .zip(data.features().row(i).iter().zip(&means))
            {
                let dvi = v - m;
                *s += dvi * dvi;
            }
        }
        for s in stds.iter_mut() {
            *s = (*s / n).sqrt();
            if *s < 1e-12 {
                *s = 1.0; // constant feature: leave centered at zero
            }
        }
        Standardizer { means, stds }
    }

    /// Transforms one sample in place.
    ///
    /// # Panics
    /// Panics if dimensionality differs from the fitted data.
    pub fn transform(&self, x: &mut [f64]) {
        assert_eq!(x.len(), self.means.len(), "dimension mismatch");
        for ((v, m), s) in x.iter_mut().zip(&self.means).zip(&self.stds) {
            *v = (*v - m) / s;
        }
    }

    /// Transforms a dataset's features in place and returns it.
    pub fn transform_dataset(&self, mut data: Dataset) -> Dataset {
        for r in 0..data.features.rows() {
            self.transform(data.features.row_mut(r));
        }
        data
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Dataset {
        let m = Matrix::from_rows(&[&[1.0, 10.0], &[2.0, 20.0], &[3.0, 30.0], &[4.0, 40.0]]);
        Dataset::new(m, vec![0, 1, 0, 1], vec![0, 0, 1, 1])
    }

    #[test]
    fn accessors() {
        let d = toy();
        assert_eq!(d.len(), 4);
        assert_eq!(d.dim(), 2);
        assert_eq!(d.positive_rate(), 0.5);
        assert_eq!(d.distinct_groups(), vec![0, 1]);
        assert_eq!(d.sample(2), (&[3.0, 30.0][..], 0));
    }

    #[test]
    fn subset_selects_rows() {
        let d = toy().subset(&[3, 0]);
        assert_eq!(d.len(), 2);
        assert_eq!(d.sample(0).0, &[4.0, 40.0]);
        assert_eq!(d.labels(), &[1, 0]);
        assert_eq!(d.groups(), &[1, 0]);
    }

    #[test]
    fn select_features_projects_columns() {
        let d = toy().select_features(&[1]);
        assert_eq!(d.dim(), 1);
        assert_eq!(d.sample(1).0, &[20.0]);
    }

    #[test]
    fn concat_stacks() {
        let a = toy();
        let b = toy();
        let c = Dataset::concat(&[&a, &b]);
        assert_eq!(c.len(), 8);
        assert_eq!(c.sample(4).0, &[1.0, 10.0]);
    }

    #[test]
    fn standardizer_zero_mean_unit_std() {
        let d = toy();
        let s = Standardizer::fit(&d);
        let t = s.transform_dataset(d);
        for j in 0..2 {
            let mean: f64 = (0..4).map(|i| t.features().get(i, j)).sum::<f64>() / 4.0;
            let var: f64 = (0..4).map(|i| t.features().get(i, j).powi(2)).sum::<f64>() / 4.0;
            assert!(mean.abs() < 1e-12);
            assert!((var - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn standardizer_constant_feature_is_safe() {
        let m = Matrix::from_rows(&[&[5.0], &[5.0]]);
        let d = Dataset::new(m, vec![0, 1], vec![0, 1]);
        let s = Standardizer::fit(&d);
        let t = s.transform_dataset(d);
        assert_eq!(t.features().get(0, 0), 0.0);
    }

    #[test]
    #[should_panic(expected = "labels must be 0/1")]
    fn rejects_bad_labels() {
        let m = Matrix::zeros(1, 1);
        let _ = Dataset::new(m, vec![2], vec![0]);
    }
}
