//! Counter sets and the telemetry-information-content pipeline (§6.2).

use crate::config::ExperimentConfig;
use crate::paired::CorpusTelemetry;
use psca_cpu::Mode;
use psca_ml::linalg::Matrix;
use psca_ml::spectral::{paper_screens, pf_counter_selection};
use psca_telemetry::{Event, ExpandedTelemetry, StreamSpec};

/// The 12 deployment counters of Table 4, identified by PF Counter
/// Selection and used by the paper's Best MLP and Best RF.
pub const TABLE4_COUNTERS: [Event; 12] = [
    Event::UopCacheMisses,
    Event::L2SilentEvictions,
    Event::WrongPathUopsFlushed,
    Event::StoreQueueOccupancy,
    Event::L1dReads,
    Event::StallCount,
    Event::PhysRegRefCount,
    Event::LoadsRetired,
    Event::L1dHits,
    Event::UopCacheHits,
    Event::UopsStalledOnDep,
    Event::UopsReady,
];

/// The 8 expert-chosen counters of the CHARSTAR baseline (§7): five from
/// Eyerman et al.'s CPI-component analysis plus three replacements for
/// CHARSTAR's tile-specific counters. `InstRetired` normalized per cycle
/// *is* IPC.
pub const CHARSTAR_COUNTERS: [Event; 8] = [
    Event::BranchMispredicts,
    Event::IcacheMisses,
    Event::L1dMisses,
    Event::L2Misses,
    Event::InstRetired, // IPC
    Event::ItlbMisses,
    Event::DtlbMisses,
    Event::StallCount,
];

/// The top-15 counters used by the SRCH baseline ("we use the top 15
/// counters chosen by PF Counter Selection", §7): the Table 4 set plus
/// three more.
pub const SRCH_COUNTERS: [Event; 15] = [
    Event::UopCacheMisses,
    Event::L2SilentEvictions,
    Event::WrongPathUopsFlushed,
    Event::StoreQueueOccupancy,
    Event::L1dReads,
    Event::StallCount,
    Event::PhysRegRefCount,
    Event::LoadsRetired,
    Event::L1dHits,
    Event::UopCacheHits,
    Event::UopsStalledOnDep,
    Event::UopsReady,
    Event::BranchMispredicts,
    Event::L2Misses,
    Event::RobOccupancy,
];

/// Result of running the full §6.2 pipeline over the 936-stream
/// cross-section.
#[derive(Debug, Clone)]
pub struct CounterSelection {
    /// Streams surviving the low-activity + std screens.
    pub screened: usize,
    /// Selected stream indices (into the 936-stream space), in order.
    pub selected_streams: Vec<usize>,
    /// Human-readable names of the selected streams.
    pub selected_names: Vec<String>,
    /// The base events the selected streams are derived from.
    pub selected_base_events: Vec<Event>,
}

/// Runs low-activity screening, std screening, and PF selection over the
/// expanded telemetry of (a subset of) a corpus, returning `r` streams.
///
/// `max_traces` bounds how many traces feed the expansion (the covariance
/// work is cubic-ish in streams but linear in rows).
pub fn run_counter_selection(
    corpus: &CorpusTelemetry,
    cfg: &ExperimentConfig,
    mode: Mode,
    r: usize,
    max_traces: usize,
) -> CounterSelection {
    let _span = psca_obs::SpanTimer::start("adapt.counters.select");
    let expansion = ExpandedTelemetry::new(cfg.sub_seed("expand"));
    // Expand each trace's base rows into the 936-stream cross-section.
    let mut per_trace: Vec<Matrix> = Vec::new();
    for trace in corpus.traces.iter().take(max_traces) {
        let rows = match mode {
            Mode::HighPerf => &trace.rows_hi,
            Mode::LowPower => &trace.rows_lo,
        };
        let expanded: Vec<Vec<f64>> = rows
            .iter()
            .enumerate()
            .map(|(t, row)| expansion.expand_row(row, t as u64))
            .collect();
        let refs: Vec<&[f64]> = expanded.iter().map(|r| r.as_slice()).collect();
        per_trace.push(Matrix::from_rows(&refs));
    }
    let trace_refs: Vec<&Matrix> = per_trace.iter().collect();
    let pooled = {
        let total_rows: usize = per_trace.iter().map(|m| m.rows()).sum();
        let cols = per_trace[0].cols();
        let mut m = Matrix::zeros(total_rows, cols);
        let mut at = 0;
        for t in &per_trace {
            for r in 0..t.rows() {
                m.row_mut(at).copy_from_slice(t.row(r));
                at += 1;
            }
        }
        m
    };
    let screen = paper_screens(&trace_refs, &pooled);
    let screened_data = {
        let mut m = Matrix::zeros(pooled.rows(), screen.kept.len());
        for row in 0..pooled.rows() {
            for (j, &c) in screen.kept.iter().enumerate() {
                m.set(row, j, pooled.get(row, c));
            }
        }
        m
    };
    let picked = pf_counter_selection(&screened_data, r.min(screen.kept.len()), 0.5);
    let selected_streams: Vec<usize> = picked.iter().map(|&j| screen.kept[j]).collect();
    let selected_names = selected_streams
        .iter()
        .map(|&s| expansion.stream_name(s))
        .collect();
    let selected_base_events = selected_streams
        .iter()
        .map(|&s| base_event_of(expansion.spec(s)))
        .collect();
    CounterSelection {
        screened: screen.kept.len(),
        selected_streams,
        selected_names,
        selected_base_events,
    }
}

/// The base event a derived stream reflects (composites report their
/// dominant source).
pub fn base_event_of(spec: &StreamSpec) -> Event {
    match *spec {
        StreamSpec::Base(e)
        | StreamSpec::Scaled { base: e, .. }
        | StreamSpec::Noisy { base: e, .. }
        | StreamSpec::Gated { base: e, .. }
        | StreamSpec::Quantized { base: e, .. } => e,
        StreamSpec::Composite { a, b, w } => {
            if w >= 0.5 {
                a
            } else {
                b
            }
        }
        StreamSpec::Rare { .. } => Event::Cycles,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psca_workloads::{Archetype, PhaseGenerator};

    #[test]
    fn counter_sets_are_distinct_and_sized() {
        assert_eq!(TABLE4_COUNTERS.len(), 12);
        assert_eq!(CHARSTAR_COUNTERS.len(), 8);
        assert_eq!(SRCH_COUNTERS.len(), 15);
        let t4: std::collections::HashSet<_> = TABLE4_COUNTERS.iter().collect();
        assert_eq!(t4.len(), 12);
        // The dependence-visibility counters are in Table 4 but not in the
        // expert set — the crux of the blindspot story.
        assert!(TABLE4_COUNTERS.contains(&Event::UopsReady));
        assert!(!CHARSTAR_COUNTERS.contains(&Event::UopsReady));
    }

    #[test]
    fn srch_extends_table4() {
        for e in TABLE4_COUNTERS {
            assert!(SRCH_COUNTERS.contains(&e));
        }
    }

    #[test]
    fn selection_pipeline_runs_end_to_end() {
        let mut traces = Vec::new();
        for (i, a) in [Archetype::Balanced, Archetype::MemBound, Archetype::Branchy]
            .iter()
            .enumerate()
        {
            let mut gen = PhaseGenerator::new(a.center(), i as u64);
            traces.push(crate::collect_paired(
                &mut gen, 2_000, 10, 2_000, i as u32, "t", 1,
            ));
        }
        let corpus = CorpusTelemetry { traces };
        let cfg = ExperimentConfig::quick();
        let sel = run_counter_selection(&corpus, &cfg, Mode::LowPower, 8, 3);
        assert_eq!(sel.selected_streams.len(), 8);
        assert_eq!(sel.selected_names.len(), 8);
        // No duplicate streams.
        let set: std::collections::HashSet<_> = sel.selected_streams.iter().collect();
        assert_eq!(set.len(), 8);
        assert!(sel.screened > 8);
    }
}
