//! Counter selection for telemetry information content (§6.2).
//!
//! Three stages, exactly as the paper describes:
//!
//! 1. **Low-activity screen** — drop counters that read zero for more than
//!    15% of a trace in more than 5% of traces;
//! 2. **Standard-deviation screen** — drop the bottom 50% of counters by
//!    standard deviation (lowest signal-to-noise);
//! 3. **PF Counter Selection** (Algorithm 1) — the Perona–Freeman spectral
//!    grouping adaptation: repeatedly eigendecompose the counter
//!    covariance, find the cluster of statistically-interchangeable
//!    counters expressed by similar large-magnitude coefficients of the
//!    *second* eigenvector, keep its representative, and remove the group.

use crate::eig::top_eigenpairs;
use crate::linalg::Matrix;

/// Result of the two heuristic screens: indices of surviving counters
/// (into the original stream space).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScreenResult {
    /// Surviving stream indices.
    pub kept: Vec<usize>,
    /// Streams dropped by the low-activity screen.
    pub dropped_low_activity: usize,
    /// Streams dropped by the standard-deviation screen.
    pub dropped_low_std: usize,
}

/// Applies the paper's low-activity screen across per-trace matrices.
///
/// `traces` holds one matrix per trace (rows = intervals, cols = streams).
/// A stream is flagged in a trace if it reads zero for more than
/// `zero_frac` (paper: 15%) of the trace, and dropped if flagged in more
/// than `flag_frac` (paper: 5%) of traces.
///
/// # Panics
/// Panics if `traces` is empty or stream counts differ.
pub fn low_activity_screen(traces: &[&Matrix], zero_frac: f64, flag_frac: f64) -> Vec<usize> {
    assert!(!traces.is_empty(), "need at least one trace");
    let cols = traces[0].cols();
    let mut flags = vec![0usize; cols];
    for m in traces {
        assert_eq!(m.cols(), cols, "stream count mismatch");
        for (c, flag) in flags.iter_mut().enumerate() {
            let zeros = (0..m.rows()).filter(|&r| m.get(r, c) == 0.0).count();
            if zeros as f64 > zero_frac * m.rows() as f64 {
                *flag += 1;
            }
        }
    }
    let limit = flag_frac * traces.len() as f64;
    (0..cols).filter(|&c| (flags[c] as f64) <= limit).collect()
}

/// Drops the bottom half of the given streams by standard deviation over
/// the pooled data.
///
/// # Panics
/// Panics if `kept` is empty.
pub fn std_screen(pooled: &Matrix, kept: &[usize]) -> Vec<usize> {
    assert!(!kept.is_empty(), "no streams to screen");
    let n = pooled.rows().max(1) as f64;
    let mut stds: Vec<(f64, usize)> = kept
        .iter()
        .map(|&c| {
            let mean = (0..pooled.rows()).map(|r| pooled.get(r, c)).sum::<f64>() / n;
            let var = (0..pooled.rows())
                .map(|r| {
                    let d = pooled.get(r, c) - mean;
                    d * d
                })
                .sum::<f64>()
                / n;
            (var.sqrt(), c)
        })
        .collect();
    stds.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));
    let keep = kept.len().div_ceil(2);
    let mut out: Vec<usize> = stds[..keep].iter().map(|&(_, c)| c).collect();
    out.sort_unstable();
    out
}

/// Runs both screens with the paper's thresholds (15% / 5%, bottom 50%).
pub fn paper_screens(traces: &[&Matrix], pooled: &Matrix) -> ScreenResult {
    let after_low = low_activity_screen(traces, 0.15, 0.05);
    let dropped_low_activity = pooled.cols() - after_low.len();
    let kept = std_screen(pooled, &after_low);
    let dropped_low_std = after_low.len() - kept.len();
    ScreenResult {
        kept,
        dropped_low_activity,
        dropped_low_std,
    }
}

/// `data` with every column shifted to mean 0 and scaled to standard
/// deviation 1 (population normalization; a constant column stays 0).
fn standardized(data: &Matrix) -> Matrix {
    let n = data.rows().max(1) as f64;
    let mut std_data = data.clone();
    for c in 0..std_data.cols() {
        let mean = (0..std_data.rows())
            .map(|r| std_data.get(r, c))
            .sum::<f64>()
            / n;
        let var = (0..std_data.rows())
            .map(|r| {
                let d = std_data.get(r, c) - mean;
                d * d
            })
            .sum::<f64>()
            / n;
        let s = var.sqrt().max(1e-12);
        for row in 0..std_data.rows() {
            let v = (std_data.get(row, c) - mean) / s;
            std_data.set(row, c, v);
        }
    }
    std_data
}

/// PF Counter Selection (Algorithm 1): picks `r` representatives of the
/// spectral clusters of the counter covariance.
///
/// `data` has rows = intervals, columns = the screened counters (the
/// caller projects with the screen result first). `tau` is the similarity
/// threshold on second-eigenvector coefficient ratios (the paper's `τ_s`).
/// Returns indices *into `data`'s columns* in selection order.
///
/// Counters are standardized internally so selection reflects correlation
/// structure rather than raw scale.
///
/// # Panics
/// Panics if `r == 0`, `r > data.cols()`, or `tau` is not in `(0, 1]`.
pub fn pf_counter_selection(data: &Matrix, r: usize, tau: f64) -> Vec<usize> {
    assert!(r >= 1, "must select at least one counter");
    assert!(r <= data.cols(), "cannot select more counters than exist");
    assert!(tau > 0.0 && tau <= 1.0, "tau must be in (0, 1]");
    let full_cov = standardized(data).column_covariance();
    let mut active: Vec<usize> = (0..data.cols()).collect();
    let mut selected = Vec::with_capacity(r);
    while selected.len() < r && !active.is_empty() {
        if active.len() == 1 {
            selected.push(active[0]);
            break;
        }
        // Covariance of the active columns: each entry depends on its two
        // columns only, so it is the active principal submatrix of the
        // full covariance, bit for bit.
        let mut cov = Matrix::zeros(active.len(), active.len());
        for (i, &a) in active.iter().enumerate() {
            for (j, &b) in active.iter().enumerate() {
                cov.set(i, j, full_cov.get(a, b));
            }
        }
        let (_, vecs) = top_eigenpairs(&cov, 2, 300);
        let e2 = vecs.row(1);
        // Representative: the largest |coefficient| of the 2nd eigenvector.
        let (rep_j, rep_v) = e2
            .iter()
            .enumerate()
            .max_by(|a, b| {
                a.1.abs()
                    .partial_cmp(&b.1.abs())
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .map(|(j, v)| (j, v.abs()))
            .unwrap();
        selected.push(active[rep_j]);
        // Remove the whole similar-coefficient group (including rep).
        let group: Vec<usize> = e2
            .iter()
            .enumerate()
            .filter(|(_, v)| rep_v > 0.0 && v.abs() / rep_v > tau)
            .map(|(j, _)| j)
            .collect();
        let group_set: std::collections::HashSet<usize> = group.into_iter().collect();
        active = active
            .iter()
            .enumerate()
            .filter(|(j, _)| !group_set.contains(j) && *j != rep_j)
            .map(|(_, &c)| c)
            .collect();
    }
    // If grouping removed everything before reaching r, top up arbitrarily
    // from unselected columns (rare for reasonable tau).
    let chosen: std::collections::HashSet<usize> = selected.iter().copied().collect();
    let mut extras = (0..data.cols()).filter(|c| !chosen.contains(c));
    while selected.len() < r {
        match extras.next() {
            Some(c) => selected.push(c),
            None => break,
        }
    }
    selected
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Builds data with three latent factors expressed by redundant groups
    /// of columns: cols 0–2 follow factor A, 3–5 factor B, 6 factor C.
    fn redundant_data(n: usize, seed: u64) -> Matrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut m = Matrix::zeros(n, 7);
        for r in 0..n {
            let a = rng.gen::<f64>() * 2.0 - 1.0;
            let b = rng.gen::<f64>() * 2.0 - 1.0;
            let c = rng.gen::<f64>() * 2.0 - 1.0;
            let eps = |rng: &mut StdRng| (rng.gen::<f64>() - 0.5) * 0.05;
            m.set(r, 0, a + eps(&mut rng));
            m.set(r, 1, 2.0 * a + eps(&mut rng));
            m.set(r, 2, -a + eps(&mut rng));
            m.set(r, 3, b + eps(&mut rng));
            m.set(r, 4, 0.5 * b + eps(&mut rng));
            m.set(r, 5, b + eps(&mut rng));
            m.set(r, 6, c + eps(&mut rng));
        }
        m
    }

    #[test]
    fn pf_selects_one_counter_per_latent_factor() {
        let data = redundant_data(400, 1);
        let picked = pf_counter_selection(&data, 3, 0.6);
        assert_eq!(picked.len(), 3);
        let factor = |c: usize| match c {
            0..=2 => 'A',
            3..=5 => 'B',
            _ => 'C',
        };
        let factors: std::collections::HashSet<char> = picked.iter().map(|&c| factor(c)).collect();
        assert_eq!(factors.len(), 3, "picked {picked:?} — redundant selection");
    }

    #[test]
    fn pf_is_deterministic() {
        let data = redundant_data(200, 2);
        assert_eq!(
            pf_counter_selection(&data, 3, 0.6),
            pf_counter_selection(&data, 3, 0.6)
        );
    }

    /// Selection is greedy, so a shorter selection is a prefix of a
    /// longer one on the same data: 12 counters are the first 12 of 32.
    #[test]
    fn pf_selection_is_prefix_stable() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut data = Matrix::zeros(300, 40);
        for r in 0..300 {
            let factors: Vec<f64> = (0..8).map(|_| rng.gen::<f64>() * 2.0 - 1.0).collect();
            for c in 0..40 {
                let noise = (rng.gen::<f64>() - 0.5) * 0.2;
                data.set(r, c, (1.0 + c as f64 / 10.0) * factors[c % 8] + noise);
            }
        }
        let long = pf_counter_selection(&data, 32, 0.5);
        assert_eq!(long.len(), 32);
        assert_eq!(pf_counter_selection(&data, 12, 0.5), long[..12]);
    }

    /// PF selection as it was before the covariance was computed once:
    /// the reference [`pf_counter_selection`] must match. Each greedy
    /// step copies the active columns and takes their covariance.
    fn pf_reference(data: &Matrix, r: usize, tau: f64) -> Vec<usize> {
        let std_data = standardized(data);
        let mut active: Vec<usize> = (0..data.cols()).collect();
        let mut selected = Vec::with_capacity(r);
        while selected.len() < r && !active.is_empty() {
            if active.len() == 1 {
                selected.push(active[0]);
                break;
            }
            let mut sub = Matrix::zeros(std_data.rows(), active.len());
            for row in 0..std_data.rows() {
                for (j, &c) in active.iter().enumerate() {
                    sub.set(row, j, std_data.get(row, c));
                }
            }
            let (_, vecs) = top_eigenpairs(&sub.column_covariance(), 2, 300);
            let e2 = vecs.row(1);
            let (rep_j, rep_v) = e2
                .iter()
                .enumerate()
                .max_by(|a, b| {
                    a.1.abs()
                        .partial_cmp(&b.1.abs())
                        .unwrap_or(std::cmp::Ordering::Equal)
                })
                .map(|(j, v)| (j, v.abs()))
                .unwrap();
            selected.push(active[rep_j]);
            let group: std::collections::HashSet<usize> = e2
                .iter()
                .enumerate()
                .filter(|(_, v)| rep_v > 0.0 && v.abs() / rep_v > tau)
                .map(|(j, _)| j)
                .collect();
            active = active
                .iter()
                .enumerate()
                .filter(|(j, _)| !group.contains(j) && *j != rep_j)
                .map(|(_, &c)| c)
                .collect();
        }
        let chosen: std::collections::HashSet<usize> = selected.iter().copied().collect();
        let mut extras = (0..data.cols()).filter(|c| !chosen.contains(c));
        while selected.len() < r {
            match extras.next() {
                Some(c) => selected.push(c),
                None => break,
            }
        }
        selected
    }

    /// Seeded data with `factors` latent factors spread over `cols`
    /// noisy columns, plus a constant column and a three-level one (whose
    /// deviation from the mean is exactly zero on a third of the rows).
    fn factor_data(rows: usize, cols: usize, factors: usize, seed: u64) -> Matrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut data = Matrix::zeros(rows, cols + 2);
        for r in 0..rows {
            let f: Vec<f64> = (0..factors).map(|_| rng.gen::<f64>() * 2.0 - 1.0).collect();
            for c in 0..cols {
                let noise = (rng.gen::<f64>() - 0.5) * 0.3;
                data.set(r, c, (0.5 + c as f64 / 7.0) * f[c % factors] + noise);
            }
            data.set(r, cols, 3.0);
            data.set(r, cols + 1, (r % 3) as f64);
        }
        data
    }

    #[test]
    fn pf_selection_matches_the_per_step_covariance_reference() {
        for (seed, cols, factors, r, tau) in [
            (1, 30, 6, 12, 0.5),
            (2, 40, 9, 32, 0.5),
            (3, 12, 3, 8, 0.9),
            (4, 25, 25, 20, 0.3),
        ] {
            let data = factor_data(240, cols, factors, seed);
            assert_eq!(
                pf_counter_selection(&data, r, tau),
                pf_reference(&data, r, tau),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn low_activity_screen_drops_mostly_zero_streams() {
        // Stream 1 is zero 50% of the time in every trace.
        let mut t1 = Matrix::zeros(20, 2);
        let mut t2 = Matrix::zeros(20, 2);
        for r in 0..20 {
            t1.set(r, 0, 1.0 + r as f64);
            t2.set(r, 0, 2.0 + r as f64);
            if r % 2 == 0 {
                t1.set(r, 1, 1.0);
                t2.set(r, 1, 1.0);
            }
        }
        let kept = low_activity_screen(&[&t1, &t2], 0.15, 0.05);
        assert_eq!(kept, vec![0]);
    }

    #[test]
    fn std_screen_keeps_high_variance_half() {
        let mut m = Matrix::zeros(50, 4);
        for r in 0..50 {
            m.set(r, 0, r as f64); // huge std
            m.set(r, 1, (r % 2) as f64); // small std
            m.set(r, 2, r as f64 * 0.5); // large std
            m.set(r, 3, 0.001 * (r % 3) as f64); // tiny std
        }
        let kept = std_screen(&m, &[0, 1, 2, 3]);
        assert_eq!(kept, vec![0, 2]);
    }

    #[test]
    fn paper_screens_compose() {
        let data = redundant_data(100, 3);
        let res = paper_screens(&[&data], &data);
        assert!(!res.kept.is_empty());
        assert_eq!(
            res.kept.len() + res.dropped_low_activity + res.dropped_low_std,
            7
        );
    }

    #[test]
    #[should_panic(expected = "more counters than exist")]
    fn pf_rejects_r_too_large() {
        let data = redundant_data(50, 4);
        let _ = pf_counter_selection(&data, 8, 0.6);
    }
}
