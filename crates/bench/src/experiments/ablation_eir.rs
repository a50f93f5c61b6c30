//! Ablation: EIR design choices — the pruning step size (the paper
//! removes 10 events per iteration) and the window-aggregation width.
//!
//! Both knobs trade compute for accuracy: a large prune step reaches the
//! MAPM in fewer (expensive) retraining rounds but may overshoot; a
//! wider aggregation window reduces per-example measurement noise but
//! shrinks the training set.

use super::common::{miner_config, ExpConfig};
use cm_sim::Benchmark;
use counterminer::{CmError, CounterMiner};
use std::fmt;

/// One ablation point.
#[derive(Debug, Clone)]
pub struct AblationPoint {
    /// The knob value.
    pub value: usize,
    /// MAPM held-out error, percent.
    pub mapm_error: f64,
    /// EIR iterations performed (the retraining cost).
    pub iterations: usize,
}

/// The EIR ablation result.
#[derive(Debug, Clone)]
pub struct AblationEirResult {
    /// Prune-step sweep (paper default: 10).
    pub prune_steps: Vec<AblationPoint>,
    /// Aggregation-window sweep (pipeline default: 3).
    pub windows: Vec<AblationPoint>,
}

impl fmt::Display for AblationEirResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Ablation — EIR design choices (wordcount)")?;
        writeln!(f, "prune step sweep:")?;
        for p in &self.prune_steps {
            writeln!(
                f,
                "  step {:>3}: MAPM error {:5.1}%  ({} retraining rounds)",
                p.value, p.mapm_error, p.iterations
            )?;
        }
        writeln!(f, "aggregation window sweep:")?;
        for p in &self.windows {
            writeln!(
                f,
                "  window {:>2}: MAPM error {:5.1}%  ({} rounds)",
                p.value, p.mapm_error, p.iterations
            )?;
        }
        writeln!(
            f,
            "the paper's step of 10 balances accuracy against retraining cost"
        )
    }
}

/// Runs the ablation on wordcount.
///
/// # Errors
///
/// Propagates pipeline failures.
pub fn run(cfg: &ExpConfig) -> Result<AblationEirResult, CmError> {
    let base = miner_config(cfg);

    let mut prune_steps = Vec::new();
    for step in [5usize, 10, 20, 40] {
        let mut config = base;
        config.importance.prune_step = step;
        let miner = CounterMiner::new(config);
        let report = miner.analyze(Benchmark::Wordcount)?;
        prune_steps.push(AblationPoint {
            value: step,
            mapm_error: report.eir.best_error() * 100.0,
            iterations: report.eir.iterations.len(),
        });
    }

    let mut windows = Vec::new();
    for window in [1usize, 3, 6] {
        let mut config = base;
        config.aggregation_window = window;
        let miner = CounterMiner::new(config);
        let report = miner.analyze(Benchmark::Wordcount)?;
        windows.push(AblationPoint {
            value: window,
            mapm_error: report.eir.best_error() * 100.0,
            iterations: report.eir.iterations.len(),
        });
    }

    Ok(AblationEirResult {
        prune_steps,
        windows,
    })
}
