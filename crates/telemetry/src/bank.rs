//! The accumulating counter file and interval snapshots.

use crate::event::{Event, NUM_EVENTS};

/// The CPU's event-counter file.
///
/// The simulator increments counters as events occur; the telemetry system
/// snapshots and resets them every interval (the paper uses 10k-instruction
/// intervals, summed when coarser granularity is desired, §4.1).
#[derive(Debug, Clone)]
pub struct CounterBank {
    counts: [u64; NUM_EVENTS],
}

impl CounterBank {
    /// Creates a zeroed counter bank.
    pub fn new() -> CounterBank {
        CounterBank {
            counts: [0; NUM_EVENTS],
        }
    }

    /// Increments an event by 1.
    #[inline]
    pub fn incr(&mut self, e: Event) {
        self.counts[e.index()] += 1;
    }

    /// Adds `n` to an event.
    #[inline]
    pub fn add(&mut self, e: Event, n: u64) {
        self.counts[e.index()] += n;
    }

    /// Current raw value of an event.
    #[inline]
    pub fn get(&self, e: Event) -> u64 {
        self.counts[e.index()]
    }

    /// Takes a snapshot of the current interval and resets all counters.
    ///
    /// Counter values are normalized by the number of cycles in the interval,
    /// which the paper found improves model accuracy (§4.1). The raw cycle
    /// and instruction totals are preserved on the snapshot so IPC and
    /// coarser-granularity re-aggregation remain exact.
    pub fn snapshot_and_reset(&mut self) -> IntervalSnapshot {
        // Resolved once per process: this runs at every interval boundary,
        // and the registry lookup costs a lock + BTreeMap walk.
        static SNAPSHOTS: std::sync::OnceLock<std::sync::Arc<psca_obs::Counter>> =
            std::sync::OnceLock::new();
        SNAPSHOTS
            .get_or_init(|| psca_obs::counter("telemetry.snapshots"))
            .inc();
        let cycles = self.counts[Event::Cycles.index()].max(1);
        let instructions = self.counts[Event::InstRetired.index()];
        let mut normalized = [0.0f64; NUM_EVENTS];
        for (i, &c) in self.counts.iter().enumerate() {
            normalized[i] = c as f64 / cycles as f64;
        }
        self.counts = [0; NUM_EVENTS];
        IntervalSnapshot {
            normalized,
            cycles,
            instructions,
        }
    }
}

impl Default for CounterBank {
    fn default() -> CounterBank {
        CounterBank::new()
    }
}

/// One interval of telemetry: the vector `x_t` of §4.1.
///
/// Values are per-cycle normalized; raw cycle/instruction totals are kept
/// for IPC computation and re-aggregation.
#[derive(Debug, Clone)]
pub struct IntervalSnapshot {
    normalized: [f64; NUM_EVENTS],
    /// Cycles elapsed in the interval.
    pub cycles: u64,
    /// Instructions retired in the interval.
    pub instructions: u64,
}

impl IntervalSnapshot {
    /// Per-cycle normalized value of a base event.
    #[inline]
    pub fn get(&self, e: Event) -> f64 {
        self.normalized[e.index()]
    }

    /// The full normalized base-event vector.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.normalized
    }

    /// Instructions per cycle over the interval.
    #[inline]
    pub fn ipc(&self) -> f64 {
        self.instructions as f64 / self.cycles.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_normalizes_by_cycles() {
        let mut bank = CounterBank::new();
        bank.add(Event::Cycles, 100);
        bank.add(Event::InstRetired, 250);
        bank.add(Event::LoadsRetired, 50);
        let snap = bank.snapshot_and_reset();
        assert_eq!(snap.cycles, 100);
        assert_eq!(snap.instructions, 250);
        assert!((snap.ipc() - 2.5).abs() < 1e-12);
        assert!((snap.get(Event::LoadsRetired) - 0.5).abs() < 1e-12);
        // reset happened
        assert_eq!(bank.get(Event::LoadsRetired), 0);
    }

    #[test]
    fn snapshot_with_zero_cycles_does_not_divide_by_zero() {
        let mut bank = CounterBank::new();
        bank.add(Event::InstRetired, 5);
        let snap = bank.snapshot_and_reset();
        assert!(snap.ipc().is_finite());
        assert!(snap.get(Event::InstRetired).is_finite());
    }

    #[test]
    fn incr_and_add_accumulate() {
        let mut bank = CounterBank::new();
        bank.incr(Event::BranchMispredicts);
        bank.incr(Event::BranchMispredicts);
        bank.add(Event::BranchMispredicts, 3);
        assert_eq!(bank.get(Event::BranchMispredicts), 5);
    }
}
