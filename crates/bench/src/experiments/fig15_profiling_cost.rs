//! Fig. 15: profiling-cost accounting — identifying important Spark
//! parameters via event importance (method A) vs. ranking parameters
//! directly (method B).
//!
//! Paper (pagerank, 90 % model accuracy): method B needs 6000 runs;
//! method A needs 60 runs to build the event model plus 1520 runs for
//! the coupling search — 1580 total, roughly a quarter of the cost.
//!
//! Alongside the cost table this experiment *measures* the learning
//! curve empirically: SGBRT accuracy on simulated pagerank data as a
//! function of training-example count, confirming the diminishing-return
//! shape the cost model assumes.

use super::common::{miner_config, Ctx, ExpConfig};
use cm_events::{EventId, SampleMode};
use cm_ml::metrics;
use cm_par::Rng;
use cm_sim::{Benchmark, Workload};
use counterminer::case_study::ProfilingCostModel;
use counterminer::{clean_runs, collector, CleanerKind, CmError, DataCleaner};
use std::fmt;

/// Cost rows plus the empirical accuracy curve.
#[derive(Debug, Clone)]
pub struct Fig15Result {
    /// The analytical cost model.
    pub model: ProfilingCostModel,
    /// Target accuracy used for the headline comparison.
    pub accuracy: f64,
    /// `(training examples, measured model accuracy %)`.
    pub learning_curve: Vec<(usize, f64)>,
}

impl Fig15Result {
    /// Method B cost at the headline accuracy.
    pub fn method_b(&self) -> usize {
        self.model.method_b_runs(self.accuracy)
    }

    /// Method A cost at the headline accuracy.
    pub fn method_a(&self) -> usize {
        self.model.method_a_runs(self.accuracy)
    }
}

impl fmt::Display for Fig15Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Fig. 15 — profiling cost: method A vs. method B (pagerank)"
        )?;
        writeln!(
            f,
            "method B (rank parameters directly) : {:>6} runs",
            self.method_b()
        )?;
        writeln!(
            f,
            "method A (via event importance)     : {:>6} runs \
             ({} model + {} coupling)",
            self.method_a(),
            self.model.method_a_model_runs(self.accuracy),
            self.model.coupling_runs()
        )?;
        writeln!(
            f,
            "speedup {:.1}x (paper: 6000 vs 1580 runs, ~3.8x)",
            self.model.speedup(self.accuracy)
        )?;
        writeln!(f, "empirical SGBRT learning curve (simulated pagerank):")?;
        for &(n, acc) in &self.learning_curve {
            writeln!(f, "  {n:>6} examples -> {acc:5.1}% accuracy")?;
        }
        Ok(())
    }
}

/// Runs the cost accounting and measures the learning curve.
///
/// # Errors
///
/// Propagates pipeline failures.
pub fn run(cfg: &ExpConfig) -> Result<Fig15Result, CmError> {
    let ctx = Ctx::new();
    let workload = Workload::new(Benchmark::Pagerank, &ctx.catalog);
    let n_events = match cfg.scale {
        super::Scale::Full => 60,
        super::Scale::Quick => 20,
    };
    let events = workload.top_event_ids(&ctx.catalog, n_events);
    let n_runs = match cfg.scale {
        super::Scale::Full => 6,
        super::Scale::Quick => 2,
    };
    let runs = collector::collect_runs(
        &workload,
        &events,
        SampleMode::Mlpx,
        n_runs,
        &ctx.pmu,
        cfg.seed,
    );
    let ids: Vec<EventId> = events.iter().collect();
    let cleaned = clean_runs(&DataCleaner::default(), CleanerKind::Point, &runs)?;
    let data = collector::build_dataset(&cleaned.runs, &ids)?;
    let data = collector::normalize_columns(&data)?;

    // Hold out a fixed test set, then train on growing prefixes.
    let mut rng = Rng::new(cfg.seed);
    let (train, test) = data.train_test_split(0.25, &mut rng)?;
    let sizes: &[usize] = match cfg.scale {
        super::Scale::Full => &[100, 200, 400, 800, 1500],
        super::Scale::Quick => &[100, 300],
    };
    let sgbrt = miner_config(cfg).importance.sgbrt;
    let mut learning_curve = Vec::new();
    for &n in sizes {
        let n = n.min(train.n_rows());
        let subset_cols: Vec<usize> = (0..train.n_features()).collect();
        let subset = train.select_features(&subset_cols)?; // clone via projection
        let limited =
            cm_ml::Dataset::new(subset.rows()[..n].to_vec(), subset.targets()[..n].to_vec())?;
        let model = sgbrt.fit(&limited)?;
        let preds = model.predict_batch(test.rows());
        let err = metrics::relative_error(test.targets(), &preds)?;
        learning_curve.push((n, (1.0 - err) * 100.0));
    }

    Ok(Fig15Result {
        model: ProfilingCostModel::default(),
        accuracy: 0.9,
        learning_curve,
    })
}
