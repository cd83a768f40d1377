//! Lock-free metric primitives behind a global registry.
//!
//! Counters and gauges are single atomics; histograms are log-linear
//! (power-of-two majors split into 8 linear sub-buckets, ~9% relative
//! error) with every bucket an independent atomic, so recording from the
//! simulator hot loop is wait-free and allocation-free. The registry is
//! only locked when a metric handle is first created — call sites should
//! look a handle up once (or once per interval) and then operate on the
//! returned `Arc`.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Creates a counter at zero.
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Resets to zero (tests and per-run scoping).
    pub fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// Last-write-wins floating-point level.
#[derive(Debug, Default)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Gauge {
    /// Creates a gauge at `0.0`.
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Sets the level.
    #[inline]
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current level.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// Number of linear sub-buckets per power-of-two major bucket.
const SUB_BUCKETS: usize = 8;
/// Major buckets cover 2^0 .. 2^63; values below 1.0 land in bucket 0.
const MAJORS: usize = 64;
const NUM_BUCKETS: usize = MAJORS * SUB_BUCKETS;

/// Log-linear histogram of non-negative samples.
///
/// Bucket resolution is `1/8` of each power-of-two range, bounding the
/// relative quantile error at ~9%. Samples are recorded as `u64` "ticks";
/// for durations the convention across the workspace is **nanoseconds**.
#[derive(Debug)]
pub struct Histogram {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    exemplar: Mutex<Option<Exemplar>>,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            buckets: (0..NUM_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            exemplar: Mutex::new(None),
        }
    }
}

/// A sample worth investigating, linking a histogram's tail back to the
/// trace that produced it (OpenMetrics-style exemplar).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Exemplar {
    /// The recorded sample value.
    pub value: u64,
    /// 32-hex-digit trace id of the request that recorded it.
    pub trace_id: String,
}

fn bucket_index(v: u64) -> usize {
    if v < SUB_BUCKETS as u64 {
        return v as usize; // exact for tiny values
    }
    let major = 63 - v.leading_zeros() as usize;
    let sub = ((v >> (major.saturating_sub(3))) & (SUB_BUCKETS as u64 - 1)) as usize;
    (major * SUB_BUCKETS + sub).min(NUM_BUCKETS - 1)
}

/// Lower edge of a bucket (used to report quantiles).
fn bucket_low(idx: usize) -> u64 {
    if idx < SUB_BUCKETS {
        return idx as u64;
    }
    let major = idx / SUB_BUCKETS;
    let sub = idx % SUB_BUCKETS;
    let base = 1u64 << major;
    base + (sub as u64) * (base / SUB_BUCKETS as u64)
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Records one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Records one sample and, when it sets a new high-water mark,
    /// remembers `trace_id` as the histogram's [`Exemplar`] — so the
    /// `/metrics` tail links to the trace of its worst request. Not for
    /// wait-free hot paths: the exemplar sits behind a mutex (only
    /// contended when a new maximum lands, which is rare by definition).
    pub fn record_with_exemplar(&self, v: u64, trace_id: &str) {
        self.record(v);
        if trace_id.is_empty() {
            return;
        }
        let mut slot = self.exemplar.lock().unwrap();
        let stale = slot.as_ref().is_none_or(|e| v >= e.value);
        if stale {
            *slot = Some(Exemplar {
                value: v,
                trace_id: trace_id.to_string(),
            });
        }
    }

    /// The current exemplar, if any sample carried a trace id.
    pub fn exemplar(&self) -> Option<Exemplar> {
        self.exemplar.lock().unwrap().clone()
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded samples.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Mean of recorded samples, or 0 when empty.
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() as f64 / n as f64
        }
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) as a bucket lower edge, or `None`
    /// when empty. `quantile(0.5)` is the median.
    ///
    /// # Panics
    /// Panics if `q` is not in `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
        let n = self.count();
        if n == 0 {
            return None;
        }
        // Rank of the target sample (1-based), clamped into [1, n].
        let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                return Some(bucket_low(i));
            }
        }
        Some(self.max.load(Ordering::Relaxed))
    }

    /// Smallest recorded sample, or `None` when empty.
    pub fn min(&self) -> Option<u64> {
        if self.count() == 0 {
            None
        } else {
            Some(self.min.load(Ordering::Relaxed))
        }
    }

    /// Largest recorded sample, or `None` when empty.
    pub fn max(&self) -> Option<u64> {
        if self.count() == 0 {
            None
        } else {
            Some(self.max.load(Ordering::Relaxed))
        }
    }

    /// Summary snapshot (count/sum/min/max/p50/p95/p99).
    pub fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count(),
            sum: self.sum(),
            min: self.min().unwrap_or(0),
            max: self.max().unwrap_or(0),
            p50: self.quantile(0.50).unwrap_or(0),
            p95: self.quantile(0.95).unwrap_or(0),
            p99: self.quantile(0.99).unwrap_or(0),
        }
    }

    /// Clears all samples (and any exemplar).
    pub fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.min.store(u64::MAX, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
        *self.exemplar.lock().unwrap() = None;
    }
}

/// Point-in-time summary of one histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSummary {
    /// Recorded samples.
    pub count: u64,
    /// Sum of samples.
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
    /// Median (bucket lower edge).
    pub p50: u64,
    /// 95th percentile (bucket lower edge).
    pub p95: u64,
    /// 99th percentile (bucket lower edge).
    pub p99: u64,
}

/// Holder of every named metric in the process.
#[derive(Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

impl Registry {
    /// The counter named `name`, created on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = self.counters.lock().unwrap();
        map.entry(name.to_string())
            .or_insert_with(|| Arc::new(Counter::new()))
            .clone()
    }

    /// The gauge named `name`, created on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut map = self.gauges.lock().unwrap();
        map.entry(name.to_string())
            .or_insert_with(|| Arc::new(Gauge::new()))
            .clone()
    }

    /// The histogram named `name`, created on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut map = self.histograms.lock().unwrap();
        map.entry(name.to_string())
            .or_insert_with(|| Arc::new(Histogram::new()))
            .clone()
    }

    /// Snapshot of every metric's current value.
    pub fn snapshot(&self) -> MetricsSnapshot {
        // One pass (and one lock) over the histogram map for both the
        // summaries and the exemplars.
        let (histograms, exemplars) = {
            let map = self.histograms.lock().unwrap();
            let summaries = map.iter().map(|(k, v)| (k.clone(), v.summary())).collect();
            let exemplars = map
                .iter()
                .filter_map(|(k, v)| v.exemplar().map(|e| (k.clone(), e)))
                .collect();
            (summaries, exemplars)
        };
        MetricsSnapshot {
            counters: self
                .counters
                .lock()
                .unwrap()
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: self
                .gauges
                .lock()
                .unwrap()
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms,
            exemplars,
        }
    }

    /// Resets every metric to its empty state. Call between experiments so
    /// one figure/table run's metrics don't bleed into the next run's
    /// report snapshot.
    pub fn reset(&self) {
        for c in self.counters.lock().unwrap().values() {
            c.reset();
        }
        for g in self.gauges.lock().unwrap().values() {
            g.set(0.0);
        }
        for h in self.histograms.lock().unwrap().values() {
            h.reset();
        }
    }
}

/// Point-in-time copy of every registered metric.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram summaries by name.
    pub histograms: BTreeMap<String, HistogramSummary>,
    /// Histogram exemplars by name (histograms with a traced sample only).
    pub exemplars: BTreeMap<String, Exemplar>,
}

impl MetricsSnapshot {
    /// Folds another snapshot into this one: counters add, gauges take the
    /// other's value, and histogram summaries combine
    /// (counts and sums add; min/max widen; quantiles take the pairwise
    /// maximum, a conservative upper bound since exact merging would need
    /// the raw buckets). Used by `repro` to keep a whole-run view while
    /// experiments reset the registry between figures.
    pub fn absorb(&mut self, other: &MetricsSnapshot) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.gauges {
            self.gauges.insert(k.clone(), *v);
        }
        for (k, h) in &other.histograms {
            match self.histograms.get_mut(k) {
                Some(mine) if mine.count > 0 && h.count > 0 => {
                    mine.count += h.count;
                    mine.sum += h.sum;
                    mine.min = mine.min.min(h.min);
                    mine.max = mine.max.max(h.max);
                    mine.p50 = mine.p50.max(h.p50);
                    mine.p95 = mine.p95.max(h.p95);
                    mine.p99 = mine.p99.max(h.p99);
                }
                Some(mine) if mine.count == 0 => *mine = *h,
                Some(_) => {}
                None => {
                    self.histograms.insert(k.clone(), *h);
                }
            }
        }
        for (k, e) in &other.exemplars {
            match self.exemplars.get(k) {
                Some(mine) if mine.value >= e.value => {}
                _ => {
                    self.exemplars.insert(k.clone(), e.clone());
                }
            }
        }
    }
}

static GLOBAL: OnceLock<Registry> = OnceLock::new();

/// The process-wide registry.
pub fn global() -> &'static Registry {
    GLOBAL.get_or_init(Registry::default)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_monotone_and_bounded() {
        let mut last = 0usize;
        for shift in 0..63 {
            let v = 1u64 << shift;
            let idx = bucket_index(v);
            assert!(idx >= last, "index must not decrease: {v} -> {idx}");
            assert!(idx < NUM_BUCKETS);
            last = idx;
        }
        assert_eq!(bucket_index(0), 0);
        assert!(bucket_low(bucket_index(1000)) <= 1000);
    }

    #[test]
    fn bucket_low_is_lower_bound_of_its_bucket() {
        for v in [0u64, 1, 7, 8, 100, 1000, 123_456, u64::MAX / 2] {
            let idx = bucket_index(v);
            assert!(bucket_low(idx) <= v, "low({idx}) > {v}");
        }
    }

    #[test]
    fn registry_returns_same_instance() {
        let r = Registry::default();
        let a = r.counter("x");
        let b = r.counter("x");
        a.add(3);
        assert_eq!(b.get(), 3);
    }

    #[test]
    fn reset_clears_every_metric() {
        let r = Registry::default();
        r.counter("c").add(5);
        r.gauge("g").set(1.5);
        r.histogram("h").record(7);
        r.reset();
        let snap = r.snapshot();
        assert_eq!(snap.counters["c"], 0);
        assert_eq!(snap.gauges["g"], 0.0);
        assert_eq!(snap.histograms["h"].count, 0);
    }

    #[test]
    fn exemplar_tracks_high_water_mark() {
        let h = Histogram::new();
        assert_eq!(h.exemplar(), None);
        h.record_with_exemplar(100, "aaaa");
        h.record_with_exemplar(50, "bbbb");
        let e = h.exemplar().unwrap();
        assert_eq!((e.value, e.trace_id.as_str()), (100, "aaaa"));
        // Ties and new maxima replace; empty trace ids never record.
        h.record_with_exemplar(100, "cccc");
        assert_eq!(h.exemplar().unwrap().trace_id, "cccc");
        h.record_with_exemplar(500, "");
        assert_eq!(h.exemplar().unwrap().trace_id, "cccc");
        assert_eq!(h.count(), 4);
        h.reset();
        assert_eq!(h.exemplar(), None);
    }

    #[test]
    fn snapshot_and_absorb_carry_exemplars() {
        let r = Registry::default();
        r.histogram("h").record_with_exemplar(10, "t1");
        let mut acc = r.snapshot();
        assert_eq!(acc.exemplars["h"].trace_id, "t1");
        let r2 = Registry::default();
        r2.histogram("h").record_with_exemplar(20, "t2");
        acc.absorb(&r2.snapshot());
        assert_eq!(acc.exemplars["h"].trace_id, "t2");
        // Lower-valued exemplars do not displace the retained maximum.
        let r3 = Registry::default();
        r3.histogram("h").record_with_exemplar(5, "t3");
        acc.absorb(&r3.snapshot());
        assert_eq!(acc.exemplars["h"].trace_id, "t2");
    }

    #[test]
    fn absorb_adds_counters() {
        let r = Registry::default();
        r.counter("c").add(2);
        let mut acc = r.snapshot();
        r.reset();
        r.counter("c").add(3);
        acc.absorb(&r.snapshot());
        assert_eq!(acc.counters["c"], 5);
    }
}
