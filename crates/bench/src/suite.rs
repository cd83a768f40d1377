//! Unified benchmark suite: one entry point (`repro bench`), one result
//! schema, one regression gate.
//!
//! - every bench emits a [`BenchResult`] — `{schema, bench, unit, seed,
//!   jobs, metrics{...}, profile_top[...]}` — with the self-profiler's
//!   top-5 self-time stacks attached;
//! - [`check`] compares a current run against a committed baseline with
//!   per-metric noise-aware tolerance bands: metric names carry their
//!   direction (`*_per_sec`/`*speedup*`/`availability` are
//!   higher-is-better, `*_us`/`*_ns`/`*_s` lower-is-better, everything
//!   else informational), and a violation means "regressed past the
//!   band", not "changed at all".
//!
//! The three runners (`run_sim_throughput`, `run_sweep`,
//! `run_inference`) are the only implementation of each measurement;
//! [`run_bench`] dispatches them by name.

use psca_adapt::{CorpusTelemetry, ExperimentConfig};
use psca_cpu::{ClusterSim, CpuConfig, Mode};
use psca_ml::{
    Dataset, LogisticRegression, Matrix, Mlp, MlpConfig, RandomForest, RandomForestConfig,
};
use psca_obs::{Json, NodeStat, SpanTimer};
use psca_uc::{FirmwareModel, Model};
use psca_workloads::{Archetype, PhaseGenerator};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// Canonical bench names, in run order. Each maps to a committed
/// baseline file `BENCH_<name>.json` at the repo root.
pub const BENCHES: [&str; 3] = ["sim_throughput", "sweep", "inference"];

/// The `schema` tag stamped on every unified baseline document.
pub const SCHEMA: &str = "psca-bench/v1";

/// Options shared by every runner.
#[derive(Debug, Clone, Copy)]
pub struct BenchOpts {
    /// Smaller measurement volumes (CI smoke); workload *shapes* stay
    /// canonical so rate and latency metrics remain comparable to a
    /// full-mode baseline.
    pub quick: bool,
    /// Seed for every seeded component (corpora, models, inputs).
    pub seed: u64,
}

impl Default for BenchOpts {
    fn default() -> BenchOpts {
        BenchOpts {
            quick: false,
            seed: 1,
        }
    }
}

/// One bench's outcome in the unified schema.
#[derive(Debug, Clone, Default)]
pub struct BenchResult {
    /// Canonical bench name (one of [`BENCHES`]).
    pub bench: String,
    /// Unit of the bench's primary metric (documentation, not parsing).
    pub unit: String,
    /// Seed the run was driven with.
    pub seed: u64,
    /// Worker parallelism the run used.
    pub jobs: u64,
    /// Flat metric map; names carry direction suffixes (see [`check`]).
    pub metrics: BTreeMap<String, f64>,
    /// The profiler's heaviest self-time stacks during the run.
    pub profile_top: Vec<(String, NodeStat)>,
}

/// Serializes a metric value: integral values as JSON integers (counts
/// and microsecond quantiles), everything else as a float.
pub(crate) fn num_json(v: f64) -> Json {
    if v.is_finite() && v >= 0.0 && v.fract() == 0.0 && v < 9.0e15 {
        Json::UInt(v as u64)
    } else {
        Json::Num(v)
    }
}

impl BenchResult {
    /// The unified document.
    pub fn to_json(&self) -> Json {
        let metrics = Json::Obj(
            self.metrics
                .iter()
                .map(|(k, v)| (k.clone(), num_json(*v)))
                .collect(),
        );
        let profile = Json::Arr(
            self.profile_top
                .iter()
                .map(|(stack, stat)| {
                    Json::obj(vec![
                        ("stack", stack.as_str().into()),
                        ("self_us", (stat.self_ns / 1_000).into()),
                        ("total_us", (stat.total_ns / 1_000).into()),
                        ("calls", stat.calls.into()),
                    ])
                })
                .collect(),
        );
        Json::obj(vec![
            ("schema", SCHEMA.into()),
            ("bench", self.bench.as_str().into()),
            ("unit", self.unit.as_str().into()),
            ("seed", self.seed.into()),
            ("jobs", self.jobs.into()),
            ("metrics", metrics),
            ("profile_top", profile),
        ])
    }

    /// Parses a `psca-bench/v1` document; `None` for anything without
    /// the schema tag, a `bench` name, or a `metrics` object.
    pub fn from_json(doc: &Json) -> Option<BenchResult> {
        if doc.get("schema").and_then(Json::as_str) != Some(SCHEMA) {
            return None;
        }
        let Some(Json::Obj(metrics)) = doc.get("metrics") else {
            return None;
        };
        Some(BenchResult {
            bench: doc.get("bench").and_then(Json::as_str)?.to_string(),
            unit: doc
                .get("unit")
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_string(),
            seed: doc.get("seed").and_then(Json::as_u64).unwrap_or(0),
            jobs: doc.get("jobs").and_then(Json::as_u64).unwrap_or(0),
            metrics: metrics
                .iter()
                .filter_map(|(k, v)| Some((k.clone(), v.as_f64()?)))
                .collect(),
            ..BenchResult::default()
        })
    }
}

/// Which way a metric is allowed to drift before it counts as a
/// regression.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Throughputs, speedups, rates: regressing means *dropping*.
    HigherBetter,
    /// Latencies and wall times: regressing means *growing*.
    LowerBetter,
    /// Counts and identities: recorded, never gated.
    Informational,
}

/// Classifies a metric by its name. The suite's naming convention *is*
/// the machine-readable direction: rate-like names gate downward drift,
/// time-like names gate upward drift, everything else is informational.
pub fn metric_direction(name: &str) -> Direction {
    if name.contains("per_sec")
        || name.ends_with("rps")
        || name.contains("speedup")
        || name.ends_with("hit_rate")
        || name.ends_with("availability")
    {
        Direction::HigherBetter
    } else if name.ends_with("_us") || name.ends_with("_ns") || name.ends_with("_s") {
        Direction::LowerBetter
    } else {
        Direction::Informational
    }
}

/// One metric outside its tolerance band.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// Bench the metric belongs to.
    pub bench: String,
    /// Metric name.
    pub metric: String,
    /// Committed baseline value.
    pub baseline: f64,
    /// Value measured by this run.
    pub current: f64,
    /// Fractional tolerance the comparison used.
    pub tolerance: f64,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let dir = match metric_direction(&self.metric) {
            Direction::HigherBetter => "dropped below",
            Direction::LowerBetter => "grew past",
            Direction::Informational => "drifted from",
        };
        write!(
            f,
            "{}/{}: {:.3} {} baseline {:.3} (tolerance {:.0}%)",
            self.bench,
            self.metric,
            self.current,
            dir,
            self.baseline,
            self.tolerance * 100.0
        )
    }
}

/// Compares a run against its baseline. Only directional metrics
/// present in **both** documents are gated (quick runs and full
/// baselines legitimately differ in counts); a violation means the
/// current value regressed more than `tolerance` (a fraction, e.g.
/// `0.5` = 50%) past the baseline.
pub fn check(current: &BenchResult, baseline: &BenchResult, tolerance: f64) -> Vec<Violation> {
    let mut violations = Vec::new();
    for (name, &base) in &baseline.metrics {
        if !base.is_finite() || base <= 0.0 {
            continue;
        }
        let Some(&cur) = current.metrics.get(name) else {
            continue;
        };
        let regressed = match metric_direction(name) {
            Direction::HigherBetter => cur < base * (1.0 - tolerance).max(0.0),
            Direction::LowerBetter => cur > base * (1.0 + tolerance),
            Direction::Informational => false,
        };
        if regressed {
            violations.push(Violation {
                bench: current.bench.clone(),
                metric: name.clone(),
                baseline: base,
                current: cur,
                tolerance,
            });
        }
    }
    violations
}

/// The workspace root (baseline files live there, tracked in git).
pub fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// The committed baseline path for a bench name.
pub fn baseline_path(bench: &str) -> PathBuf {
    repo_root().join(format!("BENCH_{bench}.json"))
}

/// Loads and parses a committed baseline.
///
/// # Errors
/// A human-readable message when the file is missing, unparseable, or
/// not a bench document.
pub fn load_baseline(bench: &str) -> Result<BenchResult, String> {
    let path = baseline_path(bench);
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{} is not JSON: {e}", path.display()))?;
    let result = BenchResult::from_json(&doc)
        .ok_or_else(|| format!("{} is not a bench document", path.display()))?;
    // A document with an empty metric map would gate nothing and
    // silently pass; surface it as unusable instead.
    if result.metrics.is_empty() {
        return Err(format!("{} has no usable metrics", path.display()));
    }
    Ok(result)
}

/// Simulator throughput: instructions/sec through the clustered core
/// per (archetype, mode) case, plus the best case as the headline.
pub fn run_sim_throughput(opts: &BenchOpts) -> BenchResult {
    const INTERVAL: u64 = 50_000;
    let total: u64 = if opts.quick { 100_000 } else { 400_000 };
    let mut result = BenchResult {
        bench: "sim_throughput".into(),
        unit: "insts_per_sec".into(),
        seed: opts.seed,
        jobs: 1,
        ..BenchResult::default()
    };
    let mut best = 0.0f64;
    for archetype in [
        Archetype::Balanced,
        Archetype::MemBound,
        Archetype::ScalarIlp,
    ] {
        for mode in [Mode::HighPerf, Mode::LowPower] {
            let case = format!("{archetype:?}.{mode}");
            let mut sim = ClusterSim::new(CpuConfig::skylake_scaled());
            sim.set_mode(mode);
            let mut gen = PhaseGenerator::new(archetype.center(), opts.seed);
            sim.warm_up(&mut gen, 20_000);
            let span = SpanTimer::start(&format!("bench.sim.{case}"));
            let t0 = Instant::now();
            let mut done = 0u64;
            while done < total {
                let r = sim.run_interval(&mut gen, INTERVAL).expect("sim interval");
                std::hint::black_box(r.ipc());
                done += INTERVAL;
            }
            let wall = t0.elapsed().as_secs_f64().max(1e-9);
            drop(span);
            let eps = done as f64 / wall;
            best = best.max(eps);
            result.metrics.insert(format!("insts_per_sec.{case}"), eps);
        }
    }
    result.metrics.insert("sim_insts_per_sec".into(), best);
    result
}

/// Sweep-engine throughput: HDTR corpus cells/sec serial vs parallel,
/// plus cold-vs-warm result-cache timing.
pub fn run_sweep(opts: &BenchOpts) -> BenchResult {
    let base_cfg = || {
        let mut cfg = ExperimentConfig::quick();
        cfg.hdtr_apps = if opts.quick { 24 } else { 48 };
        cfg.hdtr_traces_per_app = 2;
        cfg.seed = opts.seed;
        cfg.sweep_cache = None;
        cfg
    };
    let time_hdtr = |cfg: &ExperimentConfig, label: &str| {
        let span = SpanTimer::start(&format!("bench.sweep.{label}"));
        let t0 = Instant::now();
        let corpus = CorpusTelemetry::hdtr(cfg);
        let wall = t0.elapsed().as_secs_f64();
        drop(span);
        (wall, corpus.traces.len())
    };
    let jobs = psca_exec::resolve_jobs(0) as u64;

    // Warmup pass: touches the allocator and page cache so the serial
    // baseline isn't penalized for going first.
    let mut warm_cfg = base_cfg();
    warm_cfg.jobs = 1;
    let _ = time_hdtr(&warm_cfg, "warmup");

    let mut serial_cfg = base_cfg();
    serial_cfg.jobs = 1;
    let (serial_s, cells) = time_hdtr(&serial_cfg, "serial");

    let mut par_cfg = base_cfg();
    par_cfg.jobs = 0; // auto
    let (par_s, _) = time_hdtr(&par_cfg, "parallel");

    // Cache cold vs warm, in a scratch dir under target/ so repeated
    // runs start cold.
    let cache_dir = repo_root().join("target/sweep-cache-bench");
    let _ = std::fs::remove_dir_all(&cache_dir);
    let mut cached_cfg = base_cfg();
    cached_cfg.jobs = 0;
    cached_cfg.sweep_cache = Some(cache_dir.clone());
    let (cold_s, _) = time_hdtr(&cached_cfg, "cache_cold");
    let (cache_warm_s, _) = time_hdtr(&cached_cfg, "cache_warm");
    let _ = std::fs::remove_dir_all(&cache_dir);

    let mut result = BenchResult {
        bench: "sweep".into(),
        unit: "cells_per_sec".into(),
        seed: opts.seed,
        jobs,
        ..BenchResult::default()
    };
    let m = &mut result.metrics;
    m.insert("cells".into(), cells as f64);
    m.insert(
        "serial_cells_per_sec".into(),
        cells as f64 / serial_s.max(f64::MIN_POSITIVE),
    );
    m.insert(
        "parallel_cells_per_sec".into(),
        cells as f64 / par_s.max(f64::MIN_POSITIVE),
    );
    m.insert(
        "speedup_vs_serial".into(),
        serial_s / par_s.max(f64::MIN_POSITIVE),
    );
    m.insert("cache_cold_s".into(), cold_s);
    m.insert("cache_warm_s".into(), cache_warm_s);
    m.insert(
        "cache_warm_speedup".into(),
        cold_s / cache_warm_s.max(f64::MIN_POSITIVE),
    );
    result
}

/// Firmware inference latency per model class (the host-side analogue
/// of Table 3's operation counts; relative ordering should match).
pub fn run_inference(opts: &BenchOpts) -> BenchResult {
    fn training_set(n: usize, d: usize, seed: u64) -> Dataset {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|_| (0..d).map(|_| rng.gen::<f64>()).collect())
            .collect();
        let labels: Vec<u8> = rows
            .iter()
            .map(|r| (r.iter().sum::<f64>() > d as f64 / 2.0) as u8)
            .collect();
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        Dataset::new(Matrix::from_rows(&refs), labels, vec![0; n])
    }
    let iters: u64 = if opts.quick { 5_000 } else { 50_000 };
    let data = training_set(600, 12, opts.seed);
    let x = vec![0.4; 12];
    let models = [
        (
            "best_rf_8x8",
            FirmwareModel::new(Model::Forest(RandomForest::fit(
                &RandomForestConfig::best_rf(),
                &data,
                2,
            ))),
        ),
        (
            "best_mlp_8_8_4",
            FirmwareModel::new(Model::Mlp(Mlp::fit(&MlpConfig::best_mlp(), &data, 3))),
        ),
        (
            "charstar_mlp_10",
            FirmwareModel::new(Model::Mlp(Mlp::fit(&MlpConfig::charstar(), &data, 4))),
        ),
        (
            "logistic",
            FirmwareModel::new(Model::Logistic(LogisticRegression::fit(&data, 1e-4, 100))),
        ),
    ];
    let mut result = BenchResult {
        bench: "inference".into(),
        unit: "ns_per_predict".into(),
        seed: opts.seed,
        jobs: 1,
        ..BenchResult::default()
    };
    for (name, fw) in &models {
        // Warmup, then one timed block.
        for _ in 0..iters / 10 {
            std::hint::black_box(fw.predict(std::hint::black_box(&x)).unwrap());
        }
        let span = SpanTimer::start(&format!("bench.inference.{name}"));
        let t0 = Instant::now();
        for _ in 0..iters {
            std::hint::black_box(fw.predict(std::hint::black_box(&x)).unwrap());
        }
        let wall = t0.elapsed();
        drop(span);
        result.metrics.insert(
            format!("{name}.predict_ns"),
            wall.as_nanos() as f64 / iters as f64,
        );
    }
    result
}

/// Dispatches a runner by canonical bench name.
pub fn run_bench(name: &str, opts: &BenchOpts) -> Option<BenchResult> {
    match name {
        "sim_throughput" => Some(run_sim_throughput(opts)),
        "sweep" => Some(run_sweep(opts)),
        "inference" => Some(run_inference(opts)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result_with(bench: &str, metrics: &[(&str, f64)]) -> BenchResult {
        BenchResult {
            bench: bench.into(),
            unit: "x".into(),
            seed: 1,
            jobs: 2,
            metrics: metrics.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
            ..BenchResult::default()
        }
    }

    #[test]
    fn directions_follow_the_naming_convention() {
        assert_eq!(
            metric_direction("serial_cells_per_sec"),
            Direction::HigherBetter
        );
        assert_eq!(
            metric_direction("cache_warm_speedup"),
            Direction::HigherBetter
        );
        assert_eq!(metric_direction("availability"), Direction::HigherBetter);
        assert_eq!(metric_direction("p99_us"), Direction::LowerBetter);
        assert_eq!(metric_direction("cache_cold_s"), Direction::LowerBetter);
        assert_eq!(
            metric_direction("best_rf_8x8.predict_ns"),
            Direction::LowerBetter
        );
        assert_eq!(metric_direction("cells"), Direction::Informational);
        assert_eq!(metric_direction("requests"), Direction::Informational);
    }

    #[test]
    fn check_passes_inside_the_band_and_fails_outside() {
        let base = result_with(
            "sweep",
            &[("serial_cells_per_sec", 100.0), ("p99_us", 1000.0)],
        );
        // 20% throughput drop, 20% latency growth: inside a 50% band.
        let ok = result_with(
            "sweep",
            &[("serial_cells_per_sec", 80.0), ("p99_us", 1200.0)],
        );
        assert!(check(&ok, &base, 0.5).is_empty());
        // 60% throughput drop: a violation at 50% tolerance.
        let slow = result_with(
            "sweep",
            &[("serial_cells_per_sec", 40.0), ("p99_us", 1200.0)],
        );
        let v = check(&slow, &base, 0.5);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].metric, "serial_cells_per_sec");
        // 3x latency: also a violation (and Display names the direction).
        let laggy = result_with(
            "sweep",
            &[("serial_cells_per_sec", 100.0), ("p99_us", 3000.0)],
        );
        let v = check(&laggy, &base, 0.5);
        assert_eq!(v.len(), 1);
        assert!(v[0].to_string().contains("grew past"));
    }

    #[test]
    fn check_ignores_informational_and_missing_metrics() {
        let base = result_with("sweep", &[("cells", 96.0), ("full_only_per_sec", 50.0)]);
        // `cells` halved (informational) and the baseline-only rate is
        // absent from the current run (quick mode): neither gates.
        let cur = result_with("sweep", &[("cells", 48.0)]);
        assert!(check(&cur, &base, 0.1).is_empty());
    }

    #[test]
    fn check_improvements_never_violate() {
        let base = result_with("serve", &[("achieved_rps", 50.0), ("p99_us", 2000.0)]);
        let fast = result_with("serve", &[("achieved_rps", 500.0), ("p99_us", 20.0)]);
        assert!(check(&fast, &base, 0.1).is_empty());
    }

    #[test]
    fn unified_json_roundtrips() {
        let mut r = result_with("serve", &[("p99_us", 1234.0), ("achieved_rps", 49.5)]);
        r.profile_top.push((
            "serve.request".into(),
            NodeStat {
                calls: 10,
                total_ns: 5_000_000,
                self_ns: 4_000_000,
            },
        ));
        let doc = r.to_json();
        assert_eq!(doc.get("schema").and_then(Json::as_str), Some(SCHEMA));
        // Metrics live only under `metrics`, never at the top level.
        assert!(doc.get("p99_us").is_none());
        assert_eq!(
            doc.get("metrics")
                .and_then(|m| m.get("p99_us"))
                .and_then(Json::as_u64),
            Some(1234)
        );
        let parsed = BenchResult::from_json(&doc).unwrap();
        assert_eq!(parsed.bench, "serve");
        assert_eq!(parsed.seed, 1);
        assert_eq!(parsed.jobs, 2);
        assert_eq!(parsed.metrics.get("p99_us"), Some(&1234.0));
        // Round-trip serializes identically (metrics are a BTreeMap).
        assert_eq!(
            parsed.metrics,
            BenchResult::from_json(&parsed.to_json()).unwrap().metrics
        );
    }

    #[test]
    fn documents_without_schema_or_metrics_are_rejected() {
        let flat = r#"{"bench":"sweep","cells":96,"speedup_vs_serial":1.1}"#;
        let untagged = r#"{"bench":"sweep","metrics":{"cells":96}}"#;
        let no_metrics = r#"{"schema":"psca-bench/v1","bench":"sweep","cells":96}"#;
        for text in [flat, untagged, no_metrics] {
            assert!(BenchResult::from_json(&Json::parse(text).unwrap()).is_none());
        }
    }

    #[test]
    fn committed_baselines_are_canonical() {
        const KEYS: [&str; 7] = [
            "schema",
            "bench",
            "unit",
            "seed",
            "jobs",
            "metrics",
            "profile_top",
        ];
        for name in BENCHES {
            let loaded = load_baseline(name).unwrap();
            assert_eq!(loaded.bench, name);
            let text = std::fs::read_to_string(baseline_path(name)).unwrap();
            let doc = Json::parse(&text).unwrap();
            assert_eq!(doc.get("schema").and_then(Json::as_str), Some(SCHEMA));
            let Json::Obj(pairs) = &doc else {
                panic!("BENCH_{name}.json is not an object")
            };
            for (key, _) in pairs {
                assert!(
                    KEYS.contains(&key.as_str()),
                    "BENCH_{name}.json has non-canonical top-level key {key}"
                );
            }
        }
    }
}
