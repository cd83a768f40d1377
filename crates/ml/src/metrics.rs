//! Prediction metrics in the paper's formulation (§4.2).
//!
//! The positive class (`y = 1`) means "the low-power mode meets the SLA —
//! gate Cluster 2". Consequently:
//!
//! - a **true positive** is a seized gating opportunity;
//! - a **false positive** risks an SLA violation;
//! - a **false negative** is a missed gating opportunity;
//! - **PGOS** (percentage of gating opportunities seized, Eq. 1) is the
//!   recall of the positive class;
//! - **RSV** (rate of SLA violations, Eqs. 2–4) is the fraction of
//!   `W`-prediction windows whose expected false-positive indicator
//!   exceeds 0.5.

/// Confusion counts under the paper's class orientation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Confusion {
    /// Correct low-power predictions.
    pub tp: u64,
    /// Incorrect low-power predictions (risking SLA violations).
    pub fp: u64,
    /// Correct high-performance predictions.
    pub tn: u64,
    /// Missed gating opportunities.
    pub fn_: u64,
}

impl Confusion {
    /// Tallies predictions against ground truth.
    ///
    /// # Panics
    /// Panics if lengths differ.
    pub fn from_predictions(truth: &[u8], pred: &[u8]) -> Confusion {
        assert_eq!(truth.len(), pred.len(), "length mismatch");
        let mut c = Confusion::default();
        for (&y, &p) in truth.iter().zip(pred) {
            match (y, p) {
                (1, 1) => c.tp += 1,
                (0, 1) => c.fp += 1,
                (0, 0) => c.tn += 1,
                (1, 0) => c.fn_ += 1,
                _ => panic!("labels must be 0/1"),
            }
        }
        c
    }

    /// Total predictions tallied.
    pub fn total(&self) -> u64 {
        self.tp + self.fp + self.tn + self.fn_
    }

    /// Overall accuracy.
    pub fn accuracy(&self) -> f64 {
        if self.total() == 0 {
            return 0.0;
        }
        (self.tp + self.tn) as f64 / self.total() as f64
    }

    /// PGOS (Eq. 1): recall of gating opportunities.
    pub fn pgos(&self) -> f64 {
        let denom = self.tp + self.fn_;
        if denom == 0 {
            return 0.0;
        }
        self.tp as f64 / denom as f64
    }
}

/// One RSV window of a prediction stream (Eqs. 2–4).
#[derive(Debug, Clone, Copy)]
pub struct SlaWindow {
    /// Index of the window's first prediction.
    pub start: usize,
    /// Predictions in the window (`w`, or fewer for the last one).
    pub len: usize,
    /// Predictions that gated an interval that could not run gated.
    pub false_gates: usize,
}

impl SlaWindow {
    /// Whether the window violates the SLA: its mean false-positive
    /// indicator exceeds 0.5.
    pub fn violates(&self) -> bool {
        self.false_gates as f64 / self.len as f64 > 0.5
    }
}

/// Splits a prediction stream into consecutive windows of `w`
/// predictions. A window shorter than `w` at the end of the trace covers
/// the samples it contains ("we compute RSV across the complete set of
/// samples spanning a trace", §4.2).
///
/// # Panics
/// Panics if `w == 0` or lengths differ.
pub fn sla_windows<'a>(
    truth: &'a [u8],
    pred: &'a [u8],
    w: usize,
) -> impl Iterator<Item = SlaWindow> + 'a {
    assert!(w >= 1, "window must be positive");
    assert_eq!(truth.len(), pred.len(), "length mismatch");
    truth
        .chunks(w)
        .zip(pred.chunks(w))
        .enumerate()
        .map(move |(k, (t, p))| SlaWindow {
            start: k * w,
            len: t.len(),
            false_gates: t.iter().zip(p).filter(|&(&y, &q)| q == 1 && y == 0).count(),
        })
}

/// RSV (Eqs. 2–4): the fraction of [`sla_windows`] that violate.
///
/// # Panics
/// Panics if `w == 0` or lengths differ.
pub fn rate_of_sla_violations(truth: &[u8], pred: &[u8], w: usize) -> f64 {
    let (mut windows, mut violations) = (0usize, 0usize);
    for win in sla_windows(truth, pred, w) {
        windows += 1;
        violations += win.violates() as usize;
    }
    if windows == 0 {
        return 0.0;
    }
    violations as f64 / windows as f64
}

/// Area under the ROC curve for scores against binary truth — summarizes
/// a model's full sensitivity/threshold trade-off (§6.3 adjusts decision
/// thresholds, so threshold-free comparison matters during screening).
///
/// Computed via the Mann–Whitney statistic with tie correction. Returns
/// 0.5 when either class is absent.
///
/// # Panics
/// Panics if lengths differ.
pub fn roc_auc(truth: &[u8], scores: &[f64]) -> f64 {
    assert_eq!(truth.len(), scores.len(), "length mismatch");
    let pos = truth.iter().filter(|&&y| y == 1).count();
    let neg = truth.len() - pos;
    if pos == 0 || neg == 0 {
        return 0.5;
    }
    // Rank the scores (average ranks for ties).
    let mut idx: Vec<usize> = (0..scores.len()).collect();
    idx.sort_by(|&a, &b| {
        scores[a]
            .partial_cmp(&scores[b])
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let mut ranks = vec![0.0f64; scores.len()];
    let mut i = 0;
    while i < idx.len() {
        let mut j = i;
        while j + 1 < idx.len() && scores[idx[j + 1]] == scores[idx[i]] {
            j += 1;
        }
        let avg_rank = (i + j) as f64 / 2.0 + 1.0;
        for &k in &idx[i..=j] {
            ranks[k] = avg_rank;
        }
        i = j + 1;
    }
    let rank_sum_pos: f64 = truth
        .iter()
        .zip(&ranks)
        .filter(|(&y, _)| y == 1)
        .map(|(_, &r)| r)
        .sum();
    let u = rank_sum_pos - pos as f64 * (pos as f64 + 1.0) / 2.0;
    u / (pos as f64 * neg as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn auc_perfect_separation_is_one() {
        let truth = [0, 0, 1, 1];
        let scores = [0.1, 0.2, 0.8, 0.9];
        assert!((roc_auc(&truth, &scores) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn auc_inverted_separation_is_zero() {
        let truth = [1, 1, 0, 0];
        let scores = [0.1, 0.2, 0.8, 0.9];
        assert!(roc_auc(&truth, &scores).abs() < 1e-12);
    }

    #[test]
    fn auc_random_scores_near_half() {
        let truth: Vec<u8> = (0..1000).map(|i| (i % 2) as u8).collect();
        let scores: Vec<f64> = (0..1000)
            .map(|i| ((i * 2654435761u64) % 1000) as f64 / 1000.0)
            .collect();
        let auc = roc_auc(&truth, &scores);
        assert!((auc - 0.5).abs() < 0.06, "auc {auc}");
    }

    #[test]
    fn auc_handles_ties_and_degenerate_classes() {
        let truth = [0, 1, 0, 1];
        let scores = [0.5, 0.5, 0.5, 0.5];
        assert!((roc_auc(&truth, &scores) - 0.5).abs() < 1e-12);
        assert_eq!(roc_auc(&[1, 1], &[0.2, 0.9]), 0.5);
    }

    #[test]
    fn confusion_counts_each_cell() {
        let truth = [1, 1, 0, 0, 1, 0];
        let pred = [1, 0, 1, 0, 1, 0];
        let c = Confusion::from_predictions(&truth, &pred);
        assert_eq!(c.tp, 2);
        assert_eq!(c.fn_, 1);
        assert_eq!(c.fp, 1);
        assert_eq!(c.tn, 2);
        assert!((c.accuracy() - 4.0 / 6.0).abs() < 1e-12);
        assert!((c.pgos() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn pgos_is_recall_of_positive_class() {
        let truth = [1, 1, 1, 1, 0];
        let pred = [1, 1, 0, 0, 0];
        let c = Confusion::from_predictions(&truth, &pred);
        assert!((c.pgos() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn rsv_zero_for_perfect_predictions() {
        let truth = [0, 1, 0, 1, 0, 1, 0, 1];
        assert_eq!(rate_of_sla_violations(&truth, &truth, 4), 0.0);
    }

    #[test]
    fn rsv_detects_systematic_false_positives() {
        // All intervals are truly high-performance but always gated.
        let truth = vec![0u8; 32];
        let pred = vec![1u8; 32];
        assert_eq!(rate_of_sla_violations(&truth, &pred, 8), 1.0);
    }

    #[test]
    fn rsv_ignores_spurious_mistakes() {
        // One false positive per 8-wide window: expectation 0.125 < 0.5.
        let truth = vec![0u8; 32];
        let mut pred = vec![0u8; 32];
        for i in (0..32).step_by(8) {
            pred[i] = 1;
        }
        assert_eq!(rate_of_sla_violations(&truth, &pred, 8), 0.0);
    }

    #[test]
    fn rsv_false_negatives_never_violate() {
        // Missing opportunities hurts PGOS, not RSV.
        let truth = vec![1u8; 16];
        let pred = vec![0u8; 16];
        assert_eq!(rate_of_sla_violations(&truth, &pred, 4), 0.0);
    }

    #[test]
    fn rsv_handles_trailing_partial_window() {
        let truth = [0, 0, 0, 0, 0];
        let pred = [0, 0, 0, 1, 1];
        // Windows of 4: first clean, second (1 sample short... 1 element)
        // -> [0..4) has 1 fp -> 0.25; [4..5) has 1 fp of 1 -> 1.0 > 0.5.
        assert_eq!(rate_of_sla_violations(&truth, &pred, 4), 0.5);
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn rsv_rejects_zero_window() {
        let _ = rate_of_sla_violations(&[0], &[0], 0);
    }
}
