//! Shared experiment plumbing: configuration, measurement helpers.

use cm_events::{EventCatalog, EventId, EventSet, TimeSeries};
use cm_sim::{Benchmark, PmuConfig, Workload};
use counterminer::error_metrics::mlpx_error;
use counterminer::{CmError, DataCleaner};

/// How much compute an experiment may spend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Full scale: the figures as reported in `EXPERIMENTS.md`.
    Full,
    /// Reduced repetitions and model sizes, for tests and smoke runs.
    Quick,
}

/// Common experiment configuration.
#[derive(Debug, Clone, Copy)]
pub struct ExpConfig {
    /// Compute scale.
    pub scale: Scale,
    /// Base seed; every experiment derives its own streams from it.
    pub seed: u64,
}

impl Default for ExpConfig {
    fn default() -> Self {
        ExpConfig {
            scale: Scale::Full,
            seed: 2018, // the paper's publication year, for flavour
        }
    }
}

impl ExpConfig {
    /// A quick-scale configuration (used by integration tests).
    pub fn quick() -> Self {
        ExpConfig {
            scale: Scale::Quick,
            ..ExpConfig::default()
        }
    }

    /// Repetitions for error-measurement experiments.
    pub(crate) fn error_reps(&self) -> usize {
        match self.scale {
            Scale::Full => 5,
            Scale::Quick => 2,
        }
    }
}

/// Catalog + PMU shared by the experiments.
pub(crate) struct Ctx {
    pub catalog: EventCatalog,
    pub pmu: PmuConfig,
}

impl Ctx {
    pub fn new() -> Self {
        Ctx {
            catalog: EventCatalog::haswell(),
            pmu: PmuConfig::default(),
        }
    }
}

/// Measures the MLPX error (Eq. 4) of `metric_event` for one benchmark
/// with `n_events` multiplexed, averaged over `reps` seeds, optionally
/// cleaning the MLPX series first. Returns `(raw_error, cleaned_error)`
/// in percent.
pub(crate) fn event_error(
    ctx: &Ctx,
    benchmark: Benchmark,
    metric_event: EventId,
    n_events: usize,
    reps: usize,
    seed: u64,
) -> Result<(f64, f64), CmError> {
    let workload = Workload::new(benchmark, &ctx.catalog);
    let mut events: EventSet = workload.top_event_ids(&ctx.catalog, n_events);
    events.insert(metric_event);
    let cleaner = DataCleaner::default();

    let mut raw_sum = 0.0;
    let mut clean_sum = 0.0;
    for rep in 0..reps {
        let s = seed.wrapping_add(rep as u64 * 0x9E37_79B9);
        let ocoe1 = ctx.pmu.simulate_ocoe(&workload, &events, 0, s);
        let ocoe2 = ctx.pmu.simulate_ocoe(&workload, &events, 1, s);
        let mlpx = ctx.pmu.simulate_mlpx(&workload, &events, 2, s);
        let s1 = ocoe1.record.series(metric_event).expect("measured");
        let s2 = ocoe2.record.series(metric_event).expect("measured");
        let sm = mlpx.record.series(metric_event).expect("measured");
        raw_sum += mlpx_error(s1, s2, sm)?;
        let (cleaned, _) = cleaner.clean_series(sm)?;
        clean_sum += mlpx_error(s1, s2, &cleaned)?;
    }
    Ok((raw_sum / reps as f64, clean_sum / reps as f64))
}

/// Formats a percentage column.
pub(crate) fn pct(v: f64) -> String {
    format!("{v:6.1}%")
}

/// Summary stats of a series for textual "figures".
pub(crate) fn series_digest(ts: &TimeSeries) -> String {
    format!(
        "len={:4}  min={:10.1}  mean={:10.1}  max={:10.1}  zeros={}",
        ts.len(),
        ts.min().unwrap_or(0.0),
        ts.mean().unwrap_or(0.0),
        ts.max().unwrap_or(0.0),
        ts.zero_count()
    )
}

use counterminer::{AnalysisReport, CounterMiner, ImportanceConfig, MinerConfig};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Builds the pipeline configuration for the importance/interaction
/// experiments at the requested scale.
pub(crate) fn miner_config(cfg: &ExpConfig) -> MinerConfig {
    use cm_ml::{SgbrtConfig, TreeConfig};
    match cfg.scale {
        Scale::Full => MinerConfig {
            runs_per_benchmark: 4,
            events_to_measure: None, // all 229
            aggregation_window: 3,
            importance: ImportanceConfig {
                sgbrt: SgbrtConfig {
                    n_trees: 150,
                    tree: TreeConfig {
                        max_depth: 3,
                        ..TreeConfig::default()
                    },
                    ..SgbrtConfig::default()
                },
                prune_step: 10,
                min_events: 19,
                seed: cfg.seed,
                ..ImportanceConfig::default()
            },
            seed: cfg.seed,
            ..MinerConfig::default()
        },
        Scale::Quick => MinerConfig {
            runs_per_benchmark: 1,
            events_to_measure: Some(40),
            importance: ImportanceConfig {
                sgbrt: SgbrtConfig {
                    n_trees: 40,
                    ..SgbrtConfig::default()
                },
                prune_step: 10,
                min_events: 15,
                seed: cfg.seed,
                ..ImportanceConfig::default()
            },
            seed: cfg.seed,
            ..MinerConfig::default()
        },
    }
}

/// Runs the full pipeline on a list of benchmarks, caching per
/// (scale, seed, benchmark list) so experiments sharing a suite (e.g.
/// Figs. 8, 9, 11 on HiBench) reuse one analysis within a process.
pub(crate) fn analyze_benchmarks(
    cfg: &ExpConfig,
    benchmarks: &[Benchmark],
) -> Result<Arc<Vec<AnalysisReport>>, CmError> {
    type Key = (bool, u64, Vec<Benchmark>);
    type Reports = Arc<Vec<AnalysisReport>>;
    static CACHE: Mutex<Option<HashMap<Key, Reports>>> = Mutex::new(None);
    let key = (
        matches!(cfg.scale, Scale::Quick),
        cfg.seed,
        benchmarks.to_vec(),
    );
    if let Some(hit) = CACHE
        .lock()
        .expect("cache lock")
        .get_or_insert_with(HashMap::new)
        .get(&key)
    {
        return Ok(Arc::clone(hit));
    }
    let mut reports = Vec::with_capacity(benchmarks.len());
    for &b in benchmarks {
        let miner = CounterMiner::new(miner_config(cfg));
        reports.push(miner.analyze(b)?);
    }
    let reports = Arc::new(reports);
    CACHE
        .lock()
        .expect("cache lock")
        .get_or_insert_with(HashMap::new)
        .insert(key, Arc::clone(&reports));
    Ok(reports)
}
