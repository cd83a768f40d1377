//! Counter-histogram featurization for the SRCH baseline (§7).
//!
//! Dubach et al.'s method "encodes counter data as a histogram over a
//! window of time": each counter's per-interval samples are bucketed into
//! 10 bins, tallies accumulate over the window, and the normalized
//! histogram becomes the model's input feature vector.

/// Per-counter histogram featurizer with bucket ranges fitted on training
/// data.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramFeaturizer {
    /// Per-counter `(min, max)` ranges.
    ranges: Vec<(f64, f64)>,
    buckets: usize,
}

impl HistogramFeaturizer {
    /// Fits bucket ranges to per-interval counter rows.
    ///
    /// # Panics
    /// Panics if `rows` is empty or `buckets == 0`.
    pub fn fit(rows: &[&[f64]], buckets: usize) -> HistogramFeaturizer {
        assert!(!rows.is_empty(), "no rows to fit");
        assert!(buckets >= 1, "need at least one bucket");
        let dim = rows[0].len();
        let mut ranges = vec![(f64::INFINITY, f64::NEG_INFINITY); dim];
        for row in rows {
            assert_eq!(row.len(), dim, "ragged rows");
            for (r, &v) in ranges.iter_mut().zip(*row) {
                r.0 = r.0.min(v);
                r.1 = r.1.max(v);
            }
        }
        for r in ranges.iter_mut() {
            if r.1 - r.0 < 1e-12 {
                r.1 = r.0 + 1.0;
            }
        }
        HistogramFeaturizer { ranges, buckets }
    }

    /// Output feature dimensionality (`counters × buckets`).
    pub fn feature_dim(&self) -> usize {
        self.ranges.len() * self.buckets
    }

    /// Bucket index of a value for counter `c`.
    fn bucket(&self, c: usize, v: f64) -> usize {
        let (lo, hi) = self.ranges[c];
        let t = ((v - lo) / (hi - lo)).clamp(0.0, 1.0);
        ((t * self.buckets as f64) as usize).min(self.buckets - 1)
    }

    /// Featurizes a window of per-interval counter rows into one
    /// normalized histogram vector.
    ///
    /// # Panics
    /// Panics if the window is empty or rows have wrong arity.
    pub fn featurize(&self, window: &[&[f64]]) -> Vec<f64> {
        assert!(!window.is_empty(), "empty window");
        let mut out = vec![0.0; self.feature_dim()];
        for row in window {
            assert_eq!(row.len(), self.ranges.len(), "arity mismatch");
            for (c, &v) in row.iter().enumerate() {
                out[c * self.buckets + self.bucket(c, v)] += 1.0;
            }
        }
        let n = window.len() as f64;
        for v in out.iter_mut() {
            *v /= n;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_cover_range() {
        let rows: Vec<Vec<f64>> = (0..100).map(|i| vec![i as f64]).collect();
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        let h = HistogramFeaturizer::fit(&refs, 10);
        assert_eq!(h.feature_dim(), 10);
        let f = h.featurize(&refs);
        // Uniform data → each bucket gets ~10%.
        for &v in &f {
            assert!((v - 0.1).abs() < 0.02, "bucket {v}");
        }
        let total: f64 = f.iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn out_of_range_values_clamp() {
        let rows = [vec![0.0], vec![1.0]];
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        let h = HistogramFeaturizer::fit(&refs, 4);
        let window = [vec![-100.0], vec![100.0]];
        let wrefs: Vec<&[f64]> = window.iter().map(|r| r.as_slice()).collect();
        let f = h.featurize(&wrefs);
        assert!((f[0] - 0.5).abs() < 1e-9);
        assert!((f[3] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn constant_counter_is_safe() {
        let rows = [vec![7.0], vec![7.0]];
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        let h = HistogramFeaturizer::fit(&refs, 5);
        let f = h.featurize(&refs);
        assert!((f.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn multi_counter_layout() {
        let rows = [vec![0.0, 10.0], vec![1.0, 20.0]];
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        let h = HistogramFeaturizer::fit(&refs, 2);
        assert_eq!(h.feature_dim(), 4);
        let f = h.featurize(&refs[..1]);
        // First counter value 0.0 → bucket 0; second counter 10.0 → bucket 0.
        assert_eq!(f, vec![1.0, 0.0, 1.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "empty window")]
    fn empty_window_rejected() {
        let rows = [vec![0.0]];
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        let h = HistogramFeaturizer::fit(&refs, 2);
        let _ = h.featurize(&[]);
    }
}
