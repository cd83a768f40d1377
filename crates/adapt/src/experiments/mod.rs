//! Experiment drivers: one module per table / figure of the paper.
//!
//! Every driver takes an [`crate::ExperimentConfig`] and returns a typed
//! result whose `Display` prints the same rows/series the paper reports.
//! The `repro` binary in `psca-bench` dispatches to these.

pub mod ablations;
pub mod chaos;
pub mod fig10;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod table4;
pub mod table5;
pub mod table6;

mod eval;
mod screen;

pub use eval::{
    evaluate_model_on_corpus, evaluate_with_guardrail, ModelEvaluation, PerAppEvaluation,
};
