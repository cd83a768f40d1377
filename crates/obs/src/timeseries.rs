//! Fixed-capacity, auto-downsampling time-series samplers.
//!
//! A [`TimeSeries`] records `(x, y)` samples — per-window IPC, low-power
//! residency, guardrail trips — into a bounded buffer. When the buffer
//! fills it *decimates*: every other retained point is dropped and the
//! keep-stride doubles, so an arbitrarily long run always fits in
//! `capacity` points while preserving the first sample, the most recent
//! sample, and the overall shape of the series. Timestamps are enforced
//! monotone non-decreasing, so a snapshot is always plottable as-is.
//!
//! Samplers live in the global [`crate::Registry`] next to counters and
//! gauges (pushed through a [`crate::SeriesHandle`] from
//! `psca_obs::series("cpu.sim.ipc")`), are serialized into the
//! [`crate::RunReport`] JSON under `"timeseries"`, and can be exported as
//! a CSV artifact with [`series_to_csv`].

use std::collections::BTreeMap;
use std::sync::Mutex;

/// Default number of retained points per series.
pub const DEFAULT_CAPACITY: usize = 512;

#[derive(Debug)]
struct Inner {
    /// Retained points, monotone non-decreasing in `x`.
    points: Vec<(u64, f64)>,
    /// Record every `stride`-th pushed sample; doubles on decimation.
    stride: u64,
    /// Total samples ever pushed (also the auto-`x` source). Deliberately
    /// *not* cleared by [`TimeSeries::reset`] so auto-timestamps stay
    /// monotone across per-experiment resets.
    pushed: u64,
    /// Most recent sample, retained even when the stride skips it.
    last: Option<(u64, f64)>,
}

/// Bounded sampler for one named series.
///
/// # Examples
///
/// ```
/// use psca_obs::timeseries::TimeSeries;
///
/// let s = TimeSeries::with_capacity(4);
/// for v in 0..100 {
///     s.push(v as f64);
/// }
/// let pts = s.snapshot();
/// assert!(pts.len() <= 5); // capacity + the live last sample
/// assert_eq!(pts.first().unwrap().0, 0); // first sample survives
/// assert_eq!(pts.last().unwrap().1, 99.0); // last sample survives
/// ```
#[derive(Debug)]
pub struct TimeSeries {
    capacity: usize,
    inner: Mutex<Inner>,
}

impl Default for TimeSeries {
    fn default() -> TimeSeries {
        TimeSeries::with_capacity(DEFAULT_CAPACITY)
    }
}

impl TimeSeries {
    /// Creates a sampler retaining at most `capacity` points (minimum 2).
    pub fn with_capacity(capacity: usize) -> TimeSeries {
        TimeSeries {
            capacity: capacity.max(2),
            inner: Mutex::new(Inner {
                points: Vec::new(),
                stride: 1,
                pushed: 0,
                last: None,
            }),
        }
    }

    /// Records a sample with an automatic timestamp (the push index).
    pub fn push(&self, y: f64) {
        let mut g = self.inner.lock().unwrap();
        let x = g.pushed;
        self.push_locked(&mut g, x, y);
    }

    /// Records a sample at an explicit timestamp (window index,
    /// instruction count, ...). Timestamps are clamped to be monotone
    /// non-decreasing.
    pub fn push_at(&self, x: u64, y: f64) {
        let mut g = self.inner.lock().unwrap();
        let x = match g.last {
            Some((lx, _)) => x.max(lx),
            None => x,
        };
        self.push_locked(&mut g, x, y);
    }

    fn push_locked(&self, g: &mut Inner, x: u64, y: f64) {
        let keep = g.pushed.is_multiple_of(g.stride);
        g.pushed += 1;
        g.last = Some((x, y));
        if !keep {
            return;
        }
        g.points.push((x, y));
        if g.points.len() >= self.capacity {
            // Decimate: keep even indices (the first point survives) and
            // double the stride so the buffer refills at half the rate.
            let mut i = 0;
            g.points.retain(|_| {
                let keep = i % 2 == 0;
                i += 1;
                keep
            });
            g.stride = g.stride.saturating_mul(2);
        }
    }

    /// Number of retained points (excluding the implicit live last point).
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().points.len()
    }

    /// Whether no sample has been recorded since creation/reset.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().unwrap().last.is_none()
    }

    /// Total samples pushed over the sampler's lifetime (not reset).
    pub fn pushed(&self) -> u64 {
        self.inner.lock().unwrap().pushed
    }

    /// The most recent sample, if any.
    pub fn last(&self) -> Option<(u64, f64)> {
        self.inner.lock().unwrap().last
    }

    /// The retained points plus the most recent sample (if the stride
    /// skipped it). Monotone non-decreasing in `x`.
    pub fn snapshot(&self) -> Vec<(u64, f64)> {
        let g = self.inner.lock().unwrap();
        let mut pts = g.points.clone();
        if let Some(last) = g.last {
            if pts.last() != Some(&last) {
                pts.push(last);
            }
        }
        pts
    }

    /// Clears retained points (per-run scoping). The push counter is kept
    /// so auto-timestamps remain monotone across resets.
    pub fn reset(&self) {
        let mut g = self.inner.lock().unwrap();
        g.points.clear();
        g.last = None;
        g.stride = 1;
    }
}

/// Renders named series as a CSV artifact (`series,x,y` rows).
pub fn series_to_csv(series: &BTreeMap<String, Vec<(u64, f64)>>) -> String {
    let mut out = String::from("series,x,y\n");
    for (name, pts) in series {
        for (x, y) in pts {
            out.push_str(&format!("{name},{x},{y}\n"));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_series_snapshot_is_empty() {
        let s = TimeSeries::default();
        assert!(s.is_empty());
        assert!(s.snapshot().is_empty());
        assert_eq!(s.last(), None);
    }

    #[test]
    fn downsampling_preserves_first_last_and_monotonicity() {
        let s = TimeSeries::with_capacity(32);
        for v in 0..10_000u64 {
            s.push(v as f64);
        }
        let pts = s.snapshot();
        assert!(pts.len() <= 33, "retained {} points", pts.len());
        assert_eq!(pts.first(), Some(&(0, 0.0)));
        assert_eq!(pts.last(), Some(&(9_999, 9_999.0)));
        for w in pts.windows(2) {
            assert!(w[0].0 <= w[1].0, "timestamps must be monotone: {w:?}");
        }
    }

    #[test]
    fn explicit_timestamps_are_clamped_monotone() {
        let s = TimeSeries::default();
        s.push_at(100, 1.0);
        s.push_at(50, 2.0); // out of order: clamped to 100
        s.push_at(200, 3.0);
        let pts = s.snapshot();
        assert_eq!(pts.iter().map(|p| p.0).collect::<Vec<_>>(), [100, 100, 200]);
    }

    #[test]
    fn reset_clears_points_but_keeps_auto_x_monotone() {
        let s = TimeSeries::default();
        s.push(1.0);
        s.push(2.0);
        s.reset();
        assert!(s.is_empty());
        s.push(3.0);
        assert_eq!(s.snapshot(), vec![(2, 3.0)]);
        assert_eq!(s.pushed(), 3);
    }

    #[test]
    fn csv_lists_every_point() {
        let mut m = BTreeMap::new();
        m.insert("ipc".to_string(), vec![(0u64, 1.5), (1, 2.0)]);
        let csv = series_to_csv(&m);
        assert_eq!(csv, "series,x,y\nipc,0,1.5\nipc,1,2\n");
    }
}
