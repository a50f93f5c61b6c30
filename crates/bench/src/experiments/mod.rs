//! Experiment modules, one per paper table/figure, and the
//! [`REGISTRY`] the `experiment` binary runs them through. See the
//! per-experiment index in `DESIGN.md`.

pub mod ablation_cleaning;
pub mod ablation_eir;
pub mod baseline_pca;
pub mod baseline_scheduling;
pub mod baseline_subinterval;
pub mod fig01_mlpx_error;
pub mod fig02_dirty_examples;
pub mod fig03_error_vs_events;
pub mod fig05_cleaning_examples;
pub mod fig06_error_reduction;
pub mod fig07_cleaned_vs_events;
pub mod fig08_eir_curve;
pub mod fig09_importance_hibench;
pub mod fig10_importance_cloudsuite;
pub mod fig11_interactions_hibench;
pub mod fig12_interactions_cloudsuite;
pub mod fig13_param_event_interactions;
pub mod fig14_tuning_sweep;
pub mod fig15_profiling_cost;
pub mod fig16_colocation;
pub mod findings_summary;
pub mod method_b_direct;
pub mod table1_threshold_coverage;
pub mod table2_benchmarks;
pub mod table3_events;
pub mod table4_spark_params;

mod common;

pub use common::{ExpConfig, Scale};

use std::fmt::Display;

fn render<R: Display, E: Display>(result: Result<R, E>) -> Result<String, String> {
    result.map(|r| r.to_string()).map_err(|e| e.to_string())
}

/// One registered experiment: renders its report, or the error that
/// stopped it.
pub type Experiment = fn(&ExpConfig) -> Result<String, String>;

/// Every experiment by id, in the order `experiment all` runs them and
/// writes their sections to `EXPERIMENTS-results.txt`.
pub const REGISTRY: &[(&str, Experiment)] = &[
    ("table2", |_| Ok(table2_benchmarks::run().to_string())),
    ("table3", |_| Ok(table3_events::run().to_string())),
    ("table4", |_| Ok(table4_spark_params::run().to_string())),
    ("fig01", |c| render(fig01_mlpx_error::run(c))),
    ("fig02", |c| render(fig02_dirty_examples::run(c))),
    ("fig03", |c| render(fig03_error_vs_events::run(c))),
    ("table1", |c| render(table1_threshold_coverage::run(c))),
    ("fig05", |c| render(fig05_cleaning_examples::run(c))),
    ("fig06", |c| render(fig06_error_reduction::run(c))),
    ("fig07", |c| render(fig07_cleaned_vs_events::run(c))),
    ("fig08", |c| render(fig08_eir_curve::run(c))),
    ("fig09", |c| render(fig09_importance_hibench::run(c))),
    ("fig10", |c| render(fig10_importance_cloudsuite::run(c))),
    ("fig11", |c| render(fig11_interactions_hibench::run(c))),
    ("fig12", |c| render(fig12_interactions_cloudsuite::run(c))),
    ("fig13", |c| render(fig13_param_event_interactions::run(c))),
    ("fig14", |c| render(fig14_tuning_sweep::run(c))),
    ("fig15", |c| render(fig15_profiling_cost::run(c))),
    ("fig16", |c| render(fig16_colocation::run(c))),
    ("ablation_cleaning", |c| render(ablation_cleaning::run(c))),
    ("ablation_eir", |c| render(ablation_eir::run(c))),
    ("baseline_subinterval", |c| {
        render(baseline_subinterval::run(c))
    }),
    ("baseline_scheduling", |c| {
        render(baseline_scheduling::run(c))
    }),
    ("baseline_pca", |c| render(baseline_pca::run(c))),
    ("method_b_direct", |c| render(method_b_direct::run(c))),
    ("findings", |c| render(findings_summary::run(c))),
];
