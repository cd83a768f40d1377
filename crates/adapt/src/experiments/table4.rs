//! Table 4: the counters PF Counter Selection identifies.

use crate::config::ExperimentConfig;
use crate::counters::{run_counter_selection, CounterSelection, TABLE4_COUNTERS};
use crate::paired::CorpusTelemetry;
use psca_cpu::Mode;
use psca_telemetry::Event;

/// Regenerated Table 4.
#[derive(Debug, Clone)]
pub struct Table4 {
    /// The selection pipeline's output on the 936-stream cross-section.
    pub selection: CounterSelection,
    /// The paper's 12 counters (our canonical deployment set).
    pub paper: [Event; 12],
    /// How many of the paper's 12 counter *families* the pipeline
    /// recovered (by underlying base event).
    pub recovered: usize,
}

/// Runs screening + PF selection over (a subset of) the HDTR corpus and
/// compares the outcome with Table 4.
pub fn run(cfg: &ExperimentConfig, hdtr: &CorpusTelemetry) -> Table4 {
    // Scope global metrics to this experiment.
    psca_obs::reset_all();
    let max_traces = hdtr.traces.len().min(40);
    let selection = run_counter_selection(hdtr, cfg, Mode::LowPower, 12, max_traces);
    let paper_set: std::collections::HashSet<Event> = TABLE4_COUNTERS.iter().copied().collect();
    let picked: std::collections::HashSet<Event> =
        selection.selected_base_events.iter().copied().collect();
    let recovered = picked.intersection(&paper_set).count();
    Table4 {
        selection,
        paper: TABLE4_COUNTERS,
        recovered,
    }
}

impl std::fmt::Display for Table4 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Table 4 — PF Counter Selection output")?;
        writeln!(
            f,
            "streams after screens: {} (from 936)",
            self.selection.screened
        )?;
        writeln!(f, "{:50} {:30}", "Selected stream", "base event")?;
        for (name, base) in self
            .selection
            .selected_names
            .iter()
            .zip(&self.selection.selected_base_events)
        {
            writeln!(f, "{:50} {:30}", name, base.name())?;
        }
        writeln!(
            f,
            "recovered {} of 12 Table-4 counter families",
            self.recovered
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paired::collect_paired;
    use psca_workloads::{Archetype, PhaseGenerator};

    #[test]
    fn table4_selects_12_streams() {
        let mut traces = Vec::new();
        for (i, a) in [
            Archetype::Balanced,
            Archetype::MemBound,
            Archetype::Branchy,
            Archetype::StreamFpWide,
        ]
        .iter()
        .enumerate()
        {
            let mut gen = PhaseGenerator::new(a.center(), i as u64 + 70);
            traces.push(collect_paired(&mut gen, 2_000, 12, 2_000, i as u32, "t", 1));
        }
        let corpus = CorpusTelemetry { traces };
        let cfg = ExperimentConfig::quick();
        let t = run(&cfg, &corpus);
        assert_eq!(t.selection.selected_streams.len(), 12);
        assert!(t.selection.screened < 936);
        assert!(t.recovered <= 12);
    }
}
