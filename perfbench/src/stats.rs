//! Pure summary logic: medians, supported tail percentiles, the serving
//! knee, and output-digest verdicts. Everything here is deterministic and
//! unit-tested; the workloads only feed it samples.

/// Fewest samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Median of `xs` (mean of the middle pair for even lengths); 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `q` of ascending `sorted` (non-empty).
fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    let n = sorted.len();
    // The epsilon keeps float error in q·n from bumping an exact rank up.
    let rank = ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n);
    sorted[rank - 1]
}

/// A tail percentile as reported: the percentile actually used and its value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Percentile used, in (0, 1].
    pub q: f64,
    /// Sample value at that percentile.
    pub value: f64,
    /// Samples summarized.
    pub n: usize,
}

/// The highest percentile, at most `max_q`, that still has at least
/// [`MIN_BEYOND`] samples above its rank. With too few samples for any
/// percentile above the median, the median is reported. Empty input gives 0.
pub fn tail(xs: &[f64], max_q: f64) -> Tail {
    let n = xs.len();
    if n == 0 {
        return Tail {
            q: max_q,
            value: 0.0,
            n,
        };
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    // Nearest rank r = ceil(q·n) leaves n − r samples beyond it, so the
    // highest supported q is (n − MIN_BEYOND) / n.
    let supported = n.saturating_sub(MIN_BEYOND) as f64 / n as f64;
    let q = max_q.min(supported).max(0.5);
    Tail {
        q,
        value: nearest_rank(&v, q),
        n,
    }
}

/// One step of the serving ramp, as the generator saw it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RampStep {
    /// Scheduled request rate.
    pub offered_rps: f64,
    /// Requests completed per second of step wall time.
    pub achieved_rps: f64,
    /// Tail latency from due time, microseconds (see [`tail`]).
    pub tail_us: f64,
    /// Requests attempted.
    pub attempted: u64,
    /// Requests that failed (non-2xx or connection error).
    pub failed: u64,
}

/// The service-level objective a ramp step must meet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Slo {
    /// Tail latency limit, microseconds.
    pub tail_us: f64,
    /// Least share of requests that must succeed.
    pub availability: f64,
    /// Least achieved share of the offered rate (no growing backlog).
    pub achieved_share: f64,
}

/// The objective used for `max_rps_at_slo`: p99 ≤ 2 ms, availability
/// ≥ 99.9 %, achieved rate ≥ 98 % of offered.
pub const SERVE_SLO: Slo = Slo {
    tail_us: 2_000.0,
    availability: 0.999,
    achieved_share: 0.98,
};

impl RampStep {
    /// Whether this step meets `slo`.
    pub fn meets(&self, slo: &Slo) -> bool {
        let ok = self.attempted.saturating_sub(self.failed) as f64;
        self.attempted > 0
            && self.tail_us <= slo.tail_us
            && ok / self.attempted as f64 >= slo.availability
            && self.achieved_rps >= slo.achieved_share * self.offered_rps
    }
}

/// The knee of a stepped ramp (steps in ascending offered rate): the
/// highest offered rate reached before the first step that misses `slo`.
/// 0 when the first step already misses.
pub fn knee(steps: &[RampStep], slo: &Slo) -> f64 {
    steps
        .iter()
        .take_while(|s| s.meets(slo))
        .last()
        .map_or(0.0, |s| s.offered_rps)
}

/// Outcome of comparing an output digest with the committed one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DigestVerdict {
    /// Matches the digest committed for this seed.
    Match,
    /// Differs from the committed digest: a failed operation.
    Mismatch,
    /// No digest is committed for this seed; only run-internal
    /// consistency can be checked.
    Uncommitted,
}

impl DigestVerdict {
    /// Compares `actual` with `committed` (if any).
    pub fn of(committed: Option<u64>, actual: u64) -> DigestVerdict {
        match committed {
            Some(d) if d == actual => DigestVerdict::Match,
            Some(_) => DigestVerdict::Mismatch,
            None => DigestVerdict::Uncommitted,
        }
    }

    /// Whether this verdict counts as a failed operation.
    pub fn failed(self) -> bool {
        self == DigestVerdict::Mismatch
    }
}

/// Tallies operations: each unit of work is attempted once and fails when
/// its output check fails.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
}

impl Tally {
    /// Records one operation.
    pub fn record(&mut self, failed: bool) {
        self.attempted += 1;
        self.failed += u64::from(failed);
    }

    /// Folds another tally in.
    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Failed over attempted (0 when nothing was attempted).
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(rates: &[f64], tails: &[f64]) -> Vec<RampStep> {
        rates
            .iter()
            .zip(tails)
            .map(|(&r, &t)| RampStep {
                offered_rps: r,
                achieved_rps: r,
                tail_us: t,
                attempted: 1_000,
                failed: 0,
            })
            .collect()
    }

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_reports_p99_with_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=1_000).map(f64::from).collect();
        let t = tail(&xs, 0.99);
        assert_eq!(t.q, 0.99);
        assert_eq!(t.value, 990.0);
        // Exactly ten samples lie beyond the reported value.
        assert_eq!(xs.iter().filter(|&&x| x > t.value).count(), MIN_BEYOND);
    }

    #[test]
    fn tail_falls_back_to_the_highest_supported_percentile() {
        let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let t = tail(&xs, 0.99);
        assert!((t.q - 0.90).abs() < 1e-12);
        assert_eq!(t.value, 90.0);
        assert_eq!(xs.iter().filter(|&&x| x > t.value).count(), MIN_BEYOND);
        // 500 samples support p98 but not p99.
        let xs: Vec<f64> = (1..=500).map(f64::from).collect();
        assert!((tail(&xs, 0.99).q - 0.98).abs() < 1e-12);
        // A lower requested percentile is never raised.
        assert_eq!(tail(&xs, 0.5).q, 0.5);
    }

    #[test]
    fn tail_of_a_small_sample_is_the_median() {
        let xs = [5.0, 1.0, 9.0, 3.0, 7.0];
        let t = tail(&xs, 0.99);
        assert_eq!(t.q, 0.5);
        assert_eq!(t.value, 5.0);
        assert_eq!(tail(&[], 0.99).value, 0.0);
    }

    #[test]
    fn knee_is_the_last_step_before_latency_breaks_the_limit() {
        // Queueing-style latency: flat, then climbing past 2 ms.
        let steps = ramp(
            &[250.0, 500.0, 1_000.0, 2_000.0, 3_000.0, 4_000.0],
            &[400.0, 420.0, 500.0, 900.0, 2_600.0, 9_000.0],
        );
        assert_eq!(knee(&steps, &SERVE_SLO), 2_000.0);
    }

    #[test]
    fn knee_stops_at_the_first_miss_even_if_a_later_step_recovers() {
        let steps = ramp(&[250.0, 500.0, 1_000.0], &[400.0, 2_500.0, 500.0]);
        assert_eq!(knee(&steps, &SERVE_SLO), 250.0);
        let all_bad = ramp(&[250.0], &[3_000.0]);
        assert_eq!(knee(&all_bad, &SERVE_SLO), 0.0);
    }

    #[test]
    fn knee_respects_availability_and_backlog() {
        let mut steps = ramp(&[500.0, 1_000.0, 2_000.0], &[400.0, 400.0, 400.0]);
        // 2 failures in 1000 breaks 99.9 % availability.
        steps[1].failed = 2;
        assert_eq!(knee(&steps, &SERVE_SLO), 500.0);
        steps[1].failed = 1;
        // The generator achieved only 95 % of 2000 rps: a growing backlog.
        steps[2].achieved_rps = 1_900.0;
        assert_eq!(knee(&steps, &SERVE_SLO), 1_000.0);
    }

    #[test]
    fn digest_mismatch_counts_as_a_failure() {
        let mut tally = Tally::default();
        tally.record(DigestVerdict::of(Some(42), 42).failed());
        tally.record(DigestVerdict::of(Some(42), 43).failed());
        tally.record(DigestVerdict::of(None, 43).failed());
        assert_eq!(
            tally,
            Tally {
                attempted: 3,
                failed: 1
            }
        );
        assert!((tally.error_rate() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(DigestVerdict::of(None, 1), DigestVerdict::Uncommitted);
    }
}
