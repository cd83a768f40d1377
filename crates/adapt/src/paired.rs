//! Paired-mode telemetry collection (§4.1, Figure 3).
//!
//! Every trace is replayed twice through the cluster simulator — once per
//! cluster configuration — producing per-interval telemetry, IPC, and
//! energy for both modes on identical instruction streams. Ground-truth
//! labels derive from the IPC ratio; features for any counter subset or
//! coarser granularity derive from the stored base-event rows, so the
//! expensive simulation runs exactly once per trace.

use crate::config::ExperimentConfig;
use crate::controller::record_trace;
use crate::sla::Sla;
use psca_cpu::{ClusterSim, CpuConfig, Mode};
use psca_exec::codec::{Reader, Truncated, Writer};
use psca_exec::{Digest, Sweep};
use psca_telemetry::NUM_EVENTS;
use psca_trace::TraceSource;
use psca_workloads::{hdtr_corpus, spec};

/// Bump whenever the simulator, workload synthesis, or the on-disk codec
/// changes in a result-affecting way: stale `target/sweep-cache/` entries
/// keyed under an older schema are then never read back.
///
/// Schema 3: cell keys no longer carry a simulation backend tag (the
/// cycle-level simulator is the only one), so schema-2 entries, whose keys
/// hashed that tag, are never looked up again.
const CACHE_SCHEMA: u64 = 3;

/// Paired per-interval telemetry of one trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceTelemetry {
    /// Application (group) id.
    pub app_id: u32,
    /// Application name.
    pub app_name: String,
    /// Workload (input) id within the application.
    pub workload: u64,
    /// Normalized base-event rows per interval, high-performance mode.
    pub rows_hi: Vec<Vec<f64>>,
    /// Normalized base-event rows per interval, low-power mode.
    pub rows_lo: Vec<Vec<f64>>,
    /// Per-interval IPC in high-performance mode.
    pub ipc_hi: Vec<f64>,
    /// Per-interval IPC in low-power mode.
    pub ipc_lo: Vec<f64>,
    /// Per-interval cycles in high-performance mode.
    pub cycles_hi: Vec<u64>,
    /// Per-interval cycles in low-power mode.
    pub cycles_lo: Vec<u64>,
    /// Per-interval energy in high-performance mode.
    pub energy_hi: Vec<f64>,
    /// Per-interval energy in low-power mode.
    pub energy_lo: Vec<f64>,
    /// Instructions per interval.
    pub insts: Vec<u64>,
}

impl TraceTelemetry {
    /// Number of intervals.
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// Whether the trace produced no intervals.
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// Ground-truth labels per interval: 1 iff low-power IPC meets the SLA.
    pub fn labels(&self, sla: &Sla) -> Vec<u8> {
        self.ipc_hi
            .iter()
            .zip(&self.ipc_lo)
            .map(|(&h, &l)| sla.label(h, l))
            .collect()
    }

    /// Fraction of intervals that could ideally run gated (Figure 7).
    pub fn ideal_residency(&self, sla: &Sla) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        let labels = self.labels(sla);
        labels.iter().map(|&y| y as u32).sum::<u32>() as f64 / labels.len() as f64
    }

    /// Re-aggregates to a coarser granularity of `g` base intervals: per
    /// window, summed instructions, cycles and energy, and IPC as summed
    /// instructions over summed cycles (at `g = 1`, the stored IPC). The
    /// counter rows are left empty: model inputs re-normalize them per
    /// window through [`crate::aggregate_window`].
    ///
    /// # Panics
    /// Panics if `g == 0`.
    pub fn aggregate(&self, g: usize) -> TraceTelemetry {
        assert!(g >= 1, "granularity must be positive");
        fn sums<T: Copy + std::iter::Sum>(v: &[T], g: usize) -> Vec<T> {
            v.chunks_exact(g).map(|w| w.iter().copied().sum()).collect()
        }
        let insts = sums(&self.insts, g);
        let ipc = |stored: &[f64], cycles: &[u64]| -> Vec<f64> {
            if g == 1 {
                return stored.to_vec();
            }
            insts
                .iter()
                .zip(cycles)
                .map(|(&i, &c)| i as f64 / c.max(1) as f64)
                .collect()
        };
        let cycles_hi = sums(&self.cycles_hi, g);
        let cycles_lo = sums(&self.cycles_lo, g);
        TraceTelemetry {
            app_id: self.app_id,
            app_name: self.app_name.clone(),
            workload: self.workload,
            rows_hi: Vec::new(),
            rows_lo: Vec::new(),
            ipc_hi: ipc(&self.ipc_hi, &cycles_hi),
            ipc_lo: ipc(&self.ipc_lo, &cycles_lo),
            energy_hi: sums(&self.energy_hi, g),
            energy_lo: sums(&self.energy_lo, g),
            cycles_hi,
            cycles_lo,
            insts,
        }
    }
}

/// Simulates a recorded trace in both modes and collects telemetry.
///
/// `warmup_insts` are executed first with telemetry discarded (caches and
/// predictors warm, as in §4.1).
pub fn collect_paired<S: TraceSource>(
    source: &mut S,
    warmup_insts: u64,
    intervals: usize,
    interval_insts: u64,
    app_id: u32,
    app_name: &str,
    workload: u64,
) -> TraceTelemetry {
    let (mut warm, mut window) =
        record_trace(source, warmup_insts, intervals as u64 * interval_insts);
    let mut out = TraceTelemetry {
        app_id,
        app_name: app_name.to_string(),
        workload,
        rows_hi: Vec::with_capacity(intervals),
        rows_lo: Vec::with_capacity(intervals),
        ipc_hi: Vec::with_capacity(intervals),
        ipc_lo: Vec::with_capacity(intervals),
        cycles_hi: Vec::with_capacity(intervals),
        cycles_lo: Vec::with_capacity(intervals),
        energy_hi: Vec::with_capacity(intervals),
        energy_lo: Vec::with_capacity(intervals),
        insts: Vec::with_capacity(intervals),
    };
    // The high-performance pass leaves its functional outcomes in the
    // traces; the low-power pass replays them through the timing core.
    for mode in [Mode::HighPerf, Mode::LowPower] {
        let mut sim = ClusterSim::new(CpuConfig::skylake_scaled());
        sim.set_mode(mode);
        if mode == Mode::HighPerf {
            sim.record_outcomes();
        }
        warm.rewind();
        window.rewind();
        sim.warm_up(&mut warm, warmup_insts);
        let mut n = 0usize;
        while n < intervals {
            let Some(r) = sim.run_interval(&mut window, interval_insts) else {
                break;
            };
            match mode {
                Mode::HighPerf => {
                    out.rows_hi.push(r.snapshot.as_slice().to_vec());
                    out.ipc_hi.push(r.ipc());
                    out.cycles_hi.push(r.snapshot.cycles);
                    out.energy_hi.push(r.energy);
                    out.insts.push(r.instructions);
                }
                Mode::LowPower => {
                    out.rows_lo.push(r.snapshot.as_slice().to_vec());
                    out.ipc_lo.push(r.ipc());
                    out.cycles_lo.push(r.snapshot.cycles);
                    out.energy_lo.push(r.energy);
                }
            }
            n += 1;
        }
    }
    // Both passes replayed identical instructions, so lengths match.
    debug_assert_eq!(out.rows_hi.len(), out.rows_lo.len());
    out
}

/// A collection of paired traces — the in-memory form of a telemetry
/// dataset (HDTR or the SPEC test set).
#[derive(Debug, Clone, Default)]
pub struct CorpusTelemetry {
    /// Per-trace telemetry.
    pub traces: Vec<TraceTelemetry>,
}

impl CorpusTelemetry {
    /// Total intervals across traces.
    pub fn total_intervals(&self) -> usize {
        self.traces.iter().map(|t| t.len()).sum()
    }

    /// Distinct application ids.
    pub fn app_ids(&self) -> Vec<u32> {
        let mut seen = std::collections::HashSet::new();
        self.traces
            .iter()
            .filter(|t| seen.insert(t.app_id))
            .map(|t| t.app_id)
            .collect()
    }

    /// Keeps only traces of the given applications.
    pub fn filter_apps(&self, apps: &[u32]) -> CorpusTelemetry {
        let set: std::collections::HashSet<u32> = apps.iter().copied().collect();
        CorpusTelemetry {
            traces: self
                .traces
                .iter()
                .filter(|t| set.contains(&t.app_id))
                .cloned()
                .collect(),
        }
    }

    /// Synthesizes and simulates the HDTR training corpus.
    ///
    /// Each (application, input) pair is an independent sweep cell: the
    /// grid fans across `cfg.jobs` workers (results bit-identical to a
    /// serial run — the trace is fully determined by the app seed and
    /// input) and already-simulated cells are loaded from the persistent
    /// sweep cache when `cfg.sweep_cache` is set.
    pub fn hdtr(cfg: &ExperimentConfig) -> CorpusTelemetry {
        let corpus = hdtr_corpus(cfg.sub_seed("hdtr"), cfg.hdtr_apps, cfg.hdtr_phase_len);
        let mut cells: Vec<(usize, u64)> = Vec::new();
        for (app_id, entry) in corpus.iter().enumerate() {
            for &input in entry.inputs.iter().take(cfg.hdtr_traces_per_app) {
                cells.push((app_id, input));
            }
        }
        let sweep = Sweep::new("corpus.hdtr")
            .jobs(cfg.jobs)
            .cache_dir(cfg.sweep_cache.as_deref());
        let traces = sweep.run_cached(
            cells,
            |&(app_id, input)| {
                let mut d = Digest::new();
                d.write_str("hdtr-cell")
                    .write_u64(CACHE_SCHEMA)
                    .write_u64(cfg.sub_seed("hdtr"))
                    .write_u64(cfg.hdtr_apps as u64)
                    .write_u64(cfg.hdtr_phase_len)
                    .write_u64(cfg.hdtr_warmup_insts)
                    .write_u64(cfg.hdtr_intervals_per_trace as u64)
                    .write_u64(cfg.interval_insts)
                    .write_u64(app_id as u64)
                    .write_u64(input);
                d.finish()
            },
            encode_trace,
            decode_trace,
            |&(app_id, input)| {
                let entry = &corpus[app_id];
                let mut src = entry.app.trace(input);
                collect_paired(
                    &mut src,
                    cfg.hdtr_warmup_insts,
                    cfg.hdtr_intervals_per_trace,
                    cfg.interval_insts,
                    app_id as u32,
                    entry.app.name(),
                    input,
                )
            },
        );
        CorpusTelemetry { traces }
    }

    /// Synthesizes and simulates the SPEC2017-like test set. Application
    /// ids index into [`spec::SPEC_BENCHMARKS`].
    ///
    /// SimPoints are chosen by basic-block-vector clustering over each
    /// workload (§4.1 / [`crate::simpoints`]): the workload is scanned
    /// once at instruction level, its intervals clustered by BBV, and the
    /// representative of each cluster simulated in detail. Each
    /// representative resumes from the scan's checkpoint at the last
    /// interval boundary before its warm-up, so no workload is generated
    /// from its start more than once.
    pub fn spec(cfg: &ExperimentConfig) -> CorpusTelemetry {
        let suite = spec::spec_suite(cfg.sub_seed("spec"), cfg.spec_phase_len);
        // One sweep cell per (benchmark, workload): the SimPoint scan and
        // every selected point's detailed simulation stay together so the
        // per-workload trace ordering is preserved exactly.
        let mut cells: Vec<(usize, u64, usize)> = Vec::new();
        for (bench_id, app) in suite.iter().enumerate() {
            for wl in &app.workloads {
                cells.push((bench_id, wl.input, wl.simpoints));
            }
        }
        let sweep = Sweep::new("corpus.spec")
            .jobs(cfg.jobs)
            .cache_dir(cfg.sweep_cache.as_deref());
        let per_workload = sweep.run_cached(
            cells,
            |&(bench_id, input, simpoints)| {
                let mut d = Digest::new();
                d.write_str("spec-cell")
                    .write_u64(CACHE_SCHEMA)
                    .write_u64(cfg.sub_seed("spec"))
                    .write_u64(cfg.sub_seed("simpoints"))
                    .write_u64(cfg.spec_phase_len)
                    .write_u64(cfg.spec_warmup_insts)
                    .write_u64(cfg.spec_intervals_per_simpoint as u64)
                    .write_u64(cfg.spec_max_simpoints_per_workload as u64)
                    .write_u64(cfg.interval_insts)
                    .write_u64(bench_id as u64)
                    .write_u64(input)
                    .write_u64(simpoints as u64);
                d.finish()
            },
            encode_traces,
            decode_traces,
            |&(bench_id, input, simpoints)| {
                let app = &suite[bench_id];
                let n_simpoints = simpoints.min(cfg.spec_max_simpoints_per_workload);
                // Scan a region several times larger than what will be
                // simulated, then pick representatives.
                let scan = (cfg.spec_intervals_per_simpoint * n_simpoints * 3).max(8);
                let selection = {
                    let _span = psca_obs::SpanTimer::start("adapt.simpoints.scan");
                    crate::simpoints::select_simpoints(
                        app.app.trace(input),
                        cfg.interval_insts,
                        scan,
                        n_simpoints,
                        cfg.sub_seed("simpoints") ^ (bench_id as u64) << 8 ^ input,
                    )
                };
                let mut traces = Vec::with_capacity(selection.points.len());
                for p in &selection.points {
                    // Resume at the representative region's warm-up.
                    let start = p.start_interval as u64 * cfg.interval_insts;
                    let mut src = {
                        let _span = psca_obs::SpanTimer::start("adapt.simpoints.resume");
                        selection.resume(start.saturating_sub(cfg.spec_warmup_insts))
                    };
                    let _span = psca_obs::SpanTimer::start("adapt.paired.collect");
                    traces.push(collect_paired(
                        &mut src,
                        cfg.spec_warmup_insts,
                        cfg.spec_intervals_per_simpoint,
                        cfg.interval_insts,
                        bench_id as u32,
                        app.bench.name,
                        input,
                    ));
                }
                traces
            },
        );
        CorpusTelemetry {
            traces: per_workload.into_iter().flatten().collect(),
        }
    }
}

// --- sweep-cache codec -----------------------------------------------
//
// A compact little-endian binary format for `TraceTelemetry`, used by the
// persistent sweep cache and written with `psca_exec::codec`. Decoding is
// defensive: any truncation, magic or schema mismatch, length
// inconsistency or trailing byte is a typed `DecodeError`, which the sweep
// engine counts as a corrupt entry and recomputes. The codec's reader
// checks each count against the bytes left before anything is read, so no
// decoded number sizes an allocation.

const TRACE_MAGIC: u32 = 0x5053_5454; // "PSTT"

/// Why a sweep-cache entry did not decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The entry ends before a field (or a declared count of them).
    Truncated,
    /// The magic number or codec schema is not this build's.
    BadHeader,
    /// The per-interval columns disagree in length, a counter row is not
    /// one value per event, or the app name is not UTF-8.
    Inconsistent,
    /// Bytes remain after the last field.
    TrailingBytes,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            DecodeError::Truncated => "truncated entry",
            DecodeError::BadHeader => "bad magic or schema",
            DecodeError::Inconsistent => "inconsistent lengths",
            DecodeError::TrailingBytes => "trailing bytes",
        })
    }
}

impl std::error::Error for DecodeError {}

impl From<Truncated> for DecodeError {
    fn from(_: Truncated) -> DecodeError {
        DecodeError::Truncated
    }
}

/// Serializes one trace for the sweep cache.
pub fn encode_trace(t: &TraceTelemetry) -> Vec<u8> {
    let mut w = Writer::new();
    w.u32(TRACE_MAGIC);
    w.u32(CACHE_SCHEMA as u32);
    w.u32(t.app_id);
    w.u64(t.workload);
    w.bytes(t.app_name.as_bytes());
    for rows in [&t.rows_hi, &t.rows_lo] {
        w.u32(rows.len() as u32);
        rows.iter().for_each(|row| w.f64s(row));
    }
    w.f64s(&t.ipc_hi);
    w.f64s(&t.ipc_lo);
    w.u64s(&t.cycles_hi);
    w.u64s(&t.cycles_lo);
    w.f64s(&t.energy_hi);
    w.f64s(&t.energy_lo);
    w.u64s(&t.insts);
    w.into_bytes()
}

/// Deserializes one trace.
///
/// # Errors
/// A [`DecodeError`] on any corruption or schema mismatch.
pub fn decode_trace(buf: &[u8]) -> Result<TraceTelemetry, DecodeError> {
    let mut r = Reader::new(buf);
    if r.u32()? != TRACE_MAGIC || r.u32()? != CACHE_SCHEMA as u32 {
        return Err(DecodeError::BadHeader);
    }
    let app_id = r.u32()?;
    let workload = r.u64()?;
    let app_name = String::from_utf8(r.bytes()?.to_vec()).map_err(|_| DecodeError::Inconsistent)?;
    let mut rows = || -> Result<Vec<Vec<f64>>, Truncated> {
        let n = r.count(4)?;
        (0..n).map(|_| r.f64s()).collect()
    };
    let t = TraceTelemetry {
        app_id,
        app_name,
        workload,
        rows_hi: rows()?,
        rows_lo: rows()?,
        ipc_hi: r.f64s()?,
        ipc_lo: r.f64s()?,
        cycles_hi: r.u64s()?,
        cycles_lo: r.u64s()?,
        energy_hi: r.f64s()?,
        energy_lo: r.f64s()?,
        insts: r.u64s()?,
    };
    // Structural invariants the rest of the pipeline relies on.
    let n = t.insts.len();
    let consistent = t.rows_hi.len() == n
        && t.rows_lo.len() == n
        && t.ipc_hi.len() == n
        && t.ipc_lo.len() == n
        && t.cycles_hi.len() == n
        && t.cycles_lo.len() == n
        && t.energy_hi.len() == n
        && t.energy_lo.len() == n
        && t.rows_hi.iter().all(|r| r.len() == NUM_EVENTS)
        && t.rows_lo.iter().all(|r| r.len() == NUM_EVENTS);
    if !consistent {
        return Err(DecodeError::Inconsistent);
    }
    r.finish(DecodeError::TrailingBytes)?;
    Ok(t)
}

/// Serializes a workload's trace list (one SPEC sweep cell).
pub fn encode_traces(ts: &Vec<TraceTelemetry>) -> Vec<u8> {
    let mut w = Writer::new();
    w.u32(ts.len() as u32);
    for t in ts {
        w.bytes(&encode_trace(t));
    }
    w.into_bytes()
}

/// Deserializes a workload's trace list.
///
/// # Errors
/// A [`DecodeError`] on any corruption of the list or of one trace.
pub fn decode_traces(buf: &[u8]) -> Result<Vec<TraceTelemetry>, DecodeError> {
    let mut r = Reader::new(buf);
    let n = r.count(4)?;
    let ts = (0..n)
        .map(|_| decode_trace(r.bytes()?))
        .collect::<Result<_, _>>()?;
    r.finish(DecodeError::TrailingBytes)?;
    Ok(ts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use psca_workloads::{Archetype, PhaseGenerator};

    fn quick_trace(a: Archetype, intervals: usize) -> TraceTelemetry {
        let mut gen = PhaseGenerator::new(a.center(), 3);
        collect_paired(&mut gen, 4_000, intervals, 2_000, 0, "test", 1)
    }

    #[test]
    fn paired_lengths_match() {
        let t = quick_trace(Archetype::Balanced, 10);
        assert_eq!(t.len(), 10);
        assert_eq!(t.rows_hi.len(), t.rows_lo.len());
        assert_eq!(t.ipc_hi.len(), 10);
        assert_eq!(t.insts.iter().sum::<u64>(), 20_000);
    }

    #[test]
    fn low_power_ipc_never_much_above_high_perf() {
        let t = quick_trace(Archetype::ScalarIlp, 12);
        for (h, l) in t.ipc_hi.iter().zip(&t.ipc_lo) {
            assert!(l <= &(h * 1.15), "lo {l} vs hi {h}");
        }
    }

    #[test]
    fn labels_separate_wide_from_serial() {
        let sla = Sla::paper_default();
        let wide = quick_trace(Archetype::ScalarIlp, 12);
        let serial = quick_trace(Archetype::DepChain, 12);
        assert!(wide.ideal_residency(&sla) < 0.5, "wide should not gate");
        assert!(serial.ideal_residency(&sla) > 0.5, "serial should gate");
    }

    #[test]
    fn aggregate_preserves_totals() {
        let t = quick_trace(Archetype::Balanced, 12);
        let a = t.aggregate(3);
        assert_eq!(a.len(), 4);
        assert_eq!(a.insts.iter().sum::<u64>(), t.insts.iter().sum::<u64>());
        assert_eq!(
            a.cycles_hi.iter().sum::<u64>(),
            t.cycles_hi.iter().sum::<u64>()
        );
        let e_orig: f64 = t.energy_lo.iter().sum();
        let e_agg: f64 = a.energy_lo.iter().sum();
        assert!((e_orig - e_agg).abs() < 1e-6);
    }

    #[test]
    fn aggregated_ipc_is_cycle_weighted() {
        let t = quick_trace(Archetype::Branchy, 8);
        let a = t.aggregate(8);
        let total_i: u64 = t.insts.iter().sum();
        let total_c: u64 = t.cycles_hi.iter().sum();
        assert!((a.ipc_hi[0] - total_i as f64 / total_c as f64).abs() < 1e-9);
    }

    #[test]
    fn corpus_builders_produce_data() {
        let mut cfg = crate::ExperimentConfig::quick();
        cfg.hdtr_apps = 4;
        cfg.hdtr_traces_per_app = 1;
        cfg.hdtr_intervals_per_trace = 4;
        let hdtr = CorpusTelemetry::hdtr(&cfg);
        assert_eq!(hdtr.traces.len(), 4);
        assert_eq!(hdtr.app_ids().len(), 4);
        assert!(hdtr.total_intervals() > 0);
        let filtered = hdtr.filter_apps(&[0, 1]);
        assert_eq!(filtered.traces.len(), 2);
    }

    #[test]
    fn codec_roundtrips_bit_exactly() {
        let t = quick_trace(Archetype::MemBound, 6);
        assert_eq!(decode_trace(&encode_trace(&t)), Ok(t.clone()));

        let list = vec![quick_trace(Archetype::Balanced, 3), t];
        assert_eq!(decode_traces(&encode_traces(&list)), Ok(list));
    }

    #[test]
    fn codec_rejects_corruption() {
        let t = quick_trace(Archetype::Branchy, 3);
        let enc = encode_trace(&t);
        let truncated = decode_trace(&enc[..enc.len() - 3]);
        assert_eq!(truncated.unwrap_err(), DecodeError::Truncated);
        let mut bad_magic = enc.clone();
        bad_magic[0] ^= 0xff;
        assert_eq!(decode_trace(&bad_magic), Err(DecodeError::BadHeader));
        let mut trailing = enc.clone();
        trailing.push(0);
        assert_eq!(decode_trace(&trailing), Err(DecodeError::TrailingBytes));
        assert_eq!(decode_trace(&[]), Err(DecodeError::Truncated));
        // One interval short in the last column.
        let mut short = t.clone();
        short.insts.pop();
        let inconsistent = decode_trace(&encode_trace(&short));
        assert_eq!(inconsistent, Err(DecodeError::Inconsistent));
        // A four-byte entry claiming 2^32 - 1 traces once asked the
        // allocator for a terabyte and aborted the process.
        assert_eq!(decode_traces(&[0xff; 4]), Err(DecodeError::Truncated));
        let mut enc = encode_trace(&quick_trace(Archetype::Balanced, 2));
        // The rows_hi count follows the 24-byte header and the name.
        let at = 24 + "test".len();
        enc[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(decode_trace(&enc), Err(DecodeError::Truncated));
    }

    /// The SPEC corpus as it was built before SimPoints resumed from scan
    /// checkpoints: every point regenerates its workload from instruction
    /// 0 and skips to its warm-up.
    fn spec_by_regeneration(cfg: &ExperimentConfig) -> Vec<TraceTelemetry> {
        let suite = spec::spec_suite(cfg.sub_seed("spec"), cfg.spec_phase_len);
        let mut traces = Vec::new();
        for (bench_id, app) in suite.iter().enumerate() {
            for wl in &app.workloads {
                let n_simpoints = wl.simpoints.min(cfg.spec_max_simpoints_per_workload);
                let scan = (cfg.spec_intervals_per_simpoint * n_simpoints * 3).max(8);
                let points = crate::simpoints::select_simpoints(
                    app.app.trace(wl.input),
                    cfg.interval_insts,
                    scan,
                    n_simpoints,
                    cfg.sub_seed("simpoints") ^ (bench_id as u64) << 8 ^ wl.input,
                )
                .points;
                for p in points {
                    let mut src = app.app.trace(wl.input);
                    let skip = p.start_interval as u64 * cfg.interval_insts;
                    src.skip(skip.saturating_sub(cfg.spec_warmup_insts));
                    traces.push(collect_paired(
                        &mut src,
                        cfg.spec_warmup_insts,
                        cfg.spec_intervals_per_simpoint,
                        cfg.interval_insts,
                        bench_id as u32,
                        app.bench.name,
                        wl.input,
                    ));
                }
            }
        }
        traces
    }

    #[test]
    fn spec_checkpoints_match_regenerate_and_skip() {
        // Up to three points per workload, and a warm-up of two and a
        // half intervals, so resuming skips part of an interval.
        let cfg = ExperimentConfig {
            interval_insts: 500,
            spec_intervals_per_simpoint: 2,
            spec_phase_len: 4_000,
            spec_warmup_insts: 1_250,
            spec_max_simpoints_per_workload: 3,
            ..ExperimentConfig::quick()
        };
        let reference = spec_by_regeneration(&cfg);
        let corpus = CorpusTelemetry::spec(&cfg);
        let suite = spec::spec_suite(cfg.sub_seed("spec"), cfg.spec_phase_len);
        let workloads: usize = suite.iter().map(|a| a.workloads.len()).sum();
        assert!(
            reference.len() >= 2 * workloads,
            "{} points over {workloads} workloads",
            reference.len()
        );
        assert_eq!(encode_traces(&corpus.traces), encode_traces(&reference));
    }

    #[test]
    fn parallel_corpus_is_bit_identical_to_serial() {
        let mut cfg = crate::ExperimentConfig::quick();
        cfg.hdtr_apps = 4;
        cfg.hdtr_traces_per_app = 2;
        cfg.hdtr_intervals_per_trace = 4;
        cfg.jobs = 1;
        let serial = CorpusTelemetry::hdtr(&cfg);
        cfg.jobs = 4;
        let parallel = CorpusTelemetry::hdtr(&cfg);
        assert_eq!(serial.traces.len(), parallel.traces.len());
        for (a, b) in serial.traces.iter().zip(&parallel.traces) {
            assert!(a == b, "app {} diverged", a.app_id);
        }
    }

    #[test]
    fn cached_corpus_matches_cold_run() {
        let dir =
            std::env::temp_dir().join(format!("psca-paired-cache-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut cfg = crate::ExperimentConfig::quick();
        cfg.hdtr_apps = 3;
        cfg.hdtr_traces_per_app = 1;
        cfg.hdtr_intervals_per_trace = 4;
        cfg.sweep_cache = Some(dir.clone());
        let cold = CorpusTelemetry::hdtr(&cfg);
        assert!(dir.exists(), "cache must be populated");
        let warm = CorpusTelemetry::hdtr(&cfg);
        assert_eq!(cold.traces.len(), warm.traces.len());
        for (a, b) in cold.traces.iter().zip(&warm.traces) {
            assert!(a == b, "cache hit diverged for app {}", a.app_id);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
