//! The metric catalog (names, units, direction) and the result line.
//!
//! `BENCHMARK.json` at the repository root lists the same names; a unit
//! test keeps the two in step.

use psca_obs::Json;
use std::collections::BTreeMap;

/// One metric's identity.
#[derive(Debug)]
pub struct MetricDef {
    /// Metric name.
    pub name: String,
    /// Unit as printed.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

fn def(name: impl Into<String>, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name: name.into(),
        unit,
        better,
    }
}

/// Model kinds trained by the zoo, by registry slug.
pub const KINDS: [psca_adapt::ModelKind; 5] = [
    psca_adapt::ModelKind::BestRf,
    psca_adapt::ModelKind::BestMlp,
    psca_adapt::ModelKind::Charstar,
    psca_adapt::ModelKind::SrchFine,
    psca_adapt::ModelKind::SrchCoarse,
];

/// The models `repro serve` loads by default, and the ones probed for
/// per-prediction cost.
pub const SERVED: [psca_adapt::ModelKind; 2] = [
    psca_adapt::ModelKind::BestRf,
    psca_adapt::ModelKind::BestMlp,
];

/// Metrics every untraced run reports, on every workload.
pub fn end_to_end() -> Vec<MetricDef> {
    vec![
        def("wall_s", "s", "lower"),
        def("setup_s", "s", "lower"),
        def("peak_rss_mb", "MB", "lower"),
    ]
}

/// Metrics every traced run reports, on every workload. A layer the
/// workload does not exercise reads 0.
pub fn per_layer() -> Vec<MetricDef> {
    let slug = psca_serve::registry::kind_slug;
    let mut v = vec![
        def("trace_overhead_pct", "%", "lower"),
        def("error_rate", "ratio", "lower"),
        def("p50_us.light", "us", "lower"),
        def("p99_us.light", "us", "lower"),
        def("p50_us.heavy", "us", "lower"),
        def("p99_us.heavy", "us", "lower"),
        def("max_rps_at_slo", "1/s", "higher"),
        def("workloads.gen_insts_per_s", "1/s", "higher"),
        def("cpu.sim_insts_per_s", "1/s", "higher"),
        def("cpu.sim_busy_s", "s", "lower"),
        def("telemetry.expand_us_per_interval", "us", "lower"),
        def("adapt.corpus.hdtr_s", "s", "lower"),
        def("adapt.corpus.spec_s", "s", "lower"),
    ];
    v.extend(
        psca_bench::EXPERIMENTS
            .iter()
            .map(|id| def(format!("adapt.experiment.{id}_s"), "s", "lower")),
    );
    v.push(def("adapt.featurize_s", "s", "lower"));
    v.extend(
        KINDS
            .iter()
            .map(|&k| def(format!("adapt.train.{}_s", slug(k)), "s", "lower")),
    );
    v.extend([
        def("adapt.closed_loop.window_us.p50", "us", "lower"),
        def("adapt.closed_loop.window_us.p99", "us", "lower"),
        def("ml.fit.mlp_s", "s", "lower"),
        def("ml.fit.rf_s", "s", "lower"),
        def("ml.fit.calls", "count", "lower"),
    ]);
    for layer in ["ml", "uc"] {
        v.extend(
            SERVED
                .iter()
                .map(|&k| def(format!("{layer}.predict_ns.{}", slug(k)), "ns", "lower")),
        );
    }
    v.extend([
        def("uc.image.decode_us", "us", "lower"),
        def("exec.cells", "count", "lower"),
        def("exec.cell_busy_s", "s", "lower"),
        def("exec.parallel_efficiency", "ratio", "higher"),
        def("fleet.prepare_s", "s", "lower"),
        def("fleet.die_us.p50", "us", "lower"),
        def("fleet.die_us.p99", "us", "lower"),
        def("serve.connect_us.p99", "us", "lower"),
        def("serve.predict1.p50_us", "us", "lower"),
        def("serve.predict1.p99_us", "us", "lower"),
        def("serve.predict64.p50_us", "us", "lower"),
        def("serve.predict64.p99_us", "us", "lower"),
        def("serve.rejected", "count", "lower"),
        def("serve.registry_train_s", "s", "lower"),
        def("serve.gen_late_us.p99", "us", "lower"),
        def("serve.gen_behind", "count", "lower"),
    ]);
    v
}

/// Measured values for one run, by metric name.
#[derive(Debug, Default)]
pub struct Sheet {
    values: BTreeMap<String, f64>,
}

impl Sheet {
    /// Sets `name` to `value`.
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    /// The value of `name`, if measured.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// The `metrics` object for `defs`. With `require_all`, a metric that
    /// was not measured is a bug in the workload and panics; otherwise it
    /// reads 0 (the layer did no work on this workload).
    pub fn render(&self, defs: &[MetricDef], require_all: bool) -> Json {
        let pairs: Vec<(&str, Json)> = defs
            .iter()
            .map(|d| {
                let value = match self.get(&d.name) {
                    Some(v) => v,
                    None if require_all => panic!("workload did not measure {}", d.name),
                    None => 0.0,
                };
                (
                    d.name.as_str(),
                    Json::obj(vec![
                        ("value", Json::Num(value)),
                        ("unit", Json::Str(d.unit.to_string())),
                    ]),
                )
            })
            .collect();
        Json::obj(pairs)
    }
}

/// Peak resident set (VmHWM) of `pid` (this process when `None`), in MB;
/// `None` where `/proc` is unavailable.
pub fn peak_rss_mb(pid: Option<u32>) -> Option<f64> {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    let text = std::fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The catalog must name exactly what `BENCHMARK.json` declares.
    #[test]
    fn catalog_matches_benchmark_json() {
        let doc = Json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        let field = |m: &Json, k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
        let listed = |key: &str| -> Vec<[String; 3]> {
            doc.get(key)
                .and_then(Json::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| [field(m, "name"), field(m, "unit"), field(m, "better")])
                .collect()
        };
        let ours = |defs: Vec<MetricDef>| -> Vec<[String; 3]> {
            defs.into_iter()
                .map(|d| [d.name, d.unit.to_string(), d.better.to_string()])
                .collect()
        };
        assert_eq!(listed("end_to_end"), ours(end_to_end()));
        assert_eq!(listed("per_layer"), ours(per_layer()));
    }

    #[test]
    fn names_fit_the_result_grammar() {
        let mut all: Vec<String> = end_to_end().into_iter().map(|d| d.name).collect();
        all.extend(per_layer().into_iter().map(|d| d.name));
        let mut seen = std::collections::BTreeSet::new();
        for name in &all {
            assert!(name.len() <= 64, "{name} too long");
            assert!(name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')));
            assert!(seen.insert(name.clone()), "{name} listed twice");
        }
    }

    #[test]
    fn render_fills_unmeasured_layers_with_zero() {
        let mut sheet = Sheet::default();
        sheet.set("wall_s", 1.5);
        let defs = vec![def("wall_s", "s", "lower"), def("setup_s", "s", "lower")];
        let doc = sheet.render(&defs, false);
        let value = |n: &str| {
            doc.get(n)
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64)
        };
        assert_eq!(value("wall_s"), Some(1.5));
        assert_eq!(value("setup_s"), Some(0.0));
    }

    #[test]
    fn peak_rss_reads_this_process() {
        assert!(peak_rss_mb(None).unwrap() > 0.0);
    }
}
