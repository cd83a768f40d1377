//! Named trained-model registry backing the daemon's endpoints.
//!
//! Models are trained once at daemon startup from a deterministic
//! synthetic corpus (seeded by the experiment config), then served
//! read-only: every worker thread holds the registry behind an `Arc` and
//! prediction never mutates model state.

use psca_adapt::TrainedAdaptModel;
use psca_adapt::{
    collect_paired, zoo, CorpusTelemetry, ExperimentConfig, ModelKind, ROBUSTNESS_ARCHETYPES,
};
use psca_obs::Json;
use psca_workloads::PhaseGenerator;

/// Every zoo kind with its URL-safe registry slug (`GET /v1/models`
/// names).
const SLUGS: [(ModelKind, &str); 5] = [
    (ModelKind::BestRf, "best-rf"),
    (ModelKind::BestMlp, "best-mlp"),
    (ModelKind::Charstar, "charstar"),
    (ModelKind::SrchFine, "srch-fine"),
    (ModelKind::SrchCoarse, "srch-coarse"),
];

/// URL-safe registry slug for a model kind (`GET /v1/models` names).
pub fn kind_slug(kind: ModelKind) -> &'static str {
    SLUGS
        .iter()
        .find(|&&(k, _)| k == kind)
        .map(|&(_, slug)| slug)
        .expect("SLUGS lists every ModelKind")
}

/// The model kind a registry slug names (the inverse of [`kind_slug`]).
pub fn kind_from_slug(slug: &str) -> Option<ModelKind> {
    SLUGS.iter().find(|&&(_, s)| s == slug).map(|&(k, _)| k)
}

/// Read-only collection of named [`TrainedAdaptModel`]s plus the config
/// they were trained under (the closed-loop endpoint reuses its
/// `interval_insts` and sub-seeds).
#[derive(Debug)]
pub struct ModelRegistry {
    cfg: ExperimentConfig,
    models: Vec<(String, TrainedAdaptModel)>,
}

impl ModelRegistry {
    /// An empty registry over `cfg`.
    pub fn new(cfg: ExperimentConfig) -> ModelRegistry {
        ModelRegistry {
            cfg,
            models: Vec::new(),
        }
    }

    /// Trains the requested zoo kinds on a small deterministic corpus
    /// (four phase archetypes spanning gateable → wide behaviour) and
    /// registers each under its [`kind_slug`].
    pub fn train(cfg: ExperimentConfig, kinds: &[ModelKind]) -> ModelRegistry {
        let _span = psca_obs::SpanTimer::start("serve.registry.train");
        let mut traces = Vec::new();
        for (i, (a, _)) in ROBUSTNESS_ARCHETYPES.iter().enumerate() {
            let seed = cfg.sub_seed("serve-corpus") ^ (i as u64);
            let mut gen = PhaseGenerator::new(a.center(), seed);
            traces.push(collect_paired(
                &mut gen,
                cfg.hdtr_warmup_insts,
                24,
                cfg.interval_insts,
                i as u32,
                "serve",
                1,
            ));
        }
        let corpus = CorpusTelemetry { traces };
        let mut reg = ModelRegistry::new(cfg);
        for &kind in kinds {
            let model = zoo::train(kind, &corpus, &reg.cfg);
            reg.insert(kind_slug(kind), model);
        }
        reg
    }

    /// The default serving registry: the paper's two deployable "best"
    /// models, trained quickly.
    pub fn default_quick(seed: u64) -> ModelRegistry {
        let cfg = ExperimentConfig::builder()
            .seed(seed)
            .build()
            .expect("quick preset is always valid");
        ModelRegistry::train(cfg, &[ModelKind::BestRf, ModelKind::BestMlp])
    }

    /// Registers `model` under `name` (replacing any previous holder).
    pub fn insert(&mut self, name: &str, model: TrainedAdaptModel) {
        if let Some(slot) = self.models.iter_mut().find(|(n, _)| n == name) {
            slot.1 = model;
        } else {
            self.models.push((name.to_string(), model));
        }
    }

    /// Looks a model up by registry name.
    pub fn get(&self, name: &str) -> Option<&TrainedAdaptModel> {
        self.models.iter().find(|(n, _)| n == name).map(|(_, m)| m)
    }

    /// Registered names, in insertion order.
    pub fn names(&self) -> Vec<&str> {
        self.models.iter().map(|(n, _)| n.as_str()).collect()
    }

    /// Number of registered models.
    pub fn len(&self) -> usize {
        self.models.len()
    }

    /// True when no model is registered.
    pub fn is_empty(&self) -> bool {
        self.models.is_empty()
    }

    /// The experiment config the models were trained under.
    pub fn config(&self) -> &ExperimentConfig {
        &self.cfg
    }

    /// The `GET /v1/models` document: name, kind, per-mode input
    /// dimensions, granularity, and the firmware op budget actually used.
    pub fn models_json(&self) -> Json {
        let items = self
            .models
            .iter()
            .map(|(name, m)| {
                Json::obj(vec![
                    ("name", name.as_str().into()),
                    ("kind", m.kind.name().into()),
                    (
                        "input_dim_hi",
                        m.fw_hi
                            .input_dim()
                            .map_or(Json::Null, |d| (d as u64).into()),
                    ),
                    (
                        "input_dim_lo",
                        m.fw_lo
                            .input_dim()
                            .map_or(Json::Null, |d| (d as u64).into()),
                    ),
                    ("granularity_intervals", (m.granularity as u64).into()),
                    (
                        "granularity_insts",
                        m.granularity_insts(self.cfg.interval_insts).into(),
                    ),
                    ("ops_per_prediction", m.ops_per_prediction.into()),
                ])
            })
            .collect();
        Json::obj(vec![
            ("interval_insts", self.cfg.interval_insts.into()),
            ("models", Json::Arr(items)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slugs_round_trip_every_kind() {
        for kind in [
            ModelKind::BestRf,
            ModelKind::BestMlp,
            ModelKind::Charstar,
            ModelKind::SrchFine,
            ModelKind::SrchCoarse,
        ] {
            assert_eq!(kind_from_slug(kind_slug(kind)), Some(kind));
        }
        assert_eq!(kind_from_slug("best-svm"), None);
        assert_eq!(kind_from_slug(" best-rf"), None);
    }

    #[test]
    fn registry_trains_and_describes_models() {
        let reg = ModelRegistry::default_quick(7);
        assert_eq!(reg.names(), vec!["best-rf", "best-mlp"]);
        assert_eq!(reg.len(), 2);
        let rf = reg.get("best-rf").unwrap();
        assert!(rf.ops_per_prediction > 0);
        assert!(reg.get("nonexistent").is_none());
        let doc = reg.models_json();
        let models = doc.get("models").and_then(Json::as_arr).unwrap();
        assert_eq!(models.len(), 2);
        assert_eq!(
            models[0].get("name").and_then(Json::as_str),
            Some("best-rf")
        );
        assert!(models[0]
            .get("input_dim_hi")
            .and_then(Json::as_u64)
            .is_some());
    }

    #[test]
    fn insert_replaces_by_name() {
        let a = ModelRegistry::default_quick(7);
        let mut b = ModelRegistry::new(a.config().clone());
        b.insert("m", a.get("best-rf").unwrap().clone());
        b.insert("m", a.get("best-mlp").unwrap().clone());
        assert_eq!(b.len(), 1);
        assert_eq!(b.get("m").unwrap().kind.name(), "Best MLP");
    }
}
