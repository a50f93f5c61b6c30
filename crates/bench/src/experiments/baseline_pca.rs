//! Extension: PCA feature extraction vs. model-based event importance.
//!
//! Related work (Section VI-A) extracts important counter features with
//! PCA. The paper argues PCA identifies high-*variance* events, not
//! high-*relevance*-to-performance events, and cannot quantify per-event
//! importance. This experiment measures the claim: on the same cleaned
//! multiplexed data, rank events (a) by CounterMiner's MAPM importance
//! and (b) by PCA loading importance, and score both against the
//! simulator's ground-truth top-10 profile (recall@10 and the rank of
//! the dominant event).

use super::common::{analyze_benchmarks, ExpConfig};
use cm_events::EventCatalog;
use cm_sim::{Benchmark, HIBENCH};
use cm_stats::pca::Pca;
use counterminer::{clean_runs, collector, CleanerKind, CmError, DataCleaner};
use std::fmt;

/// Per-benchmark ranking quality for both methods.
#[derive(Debug, Clone)]
pub struct PcaComparisonRow {
    /// The benchmark.
    pub benchmark: Benchmark,
    /// Ground-truth top-10 events found in CounterMiner's top-10.
    pub counterminer_recall: usize,
    /// Ground-truth top-10 events found in PCA's top-10.
    pub pca_recall: usize,
    /// Rank (0-based) of the dominant ground-truth event under
    /// CounterMiner, if present.
    pub counterminer_dominant_rank: Option<usize>,
    /// Rank of the dominant ground-truth event under PCA, if present.
    pub pca_dominant_rank: Option<usize>,
}

/// The comparison across HiBench.
#[derive(Debug, Clone)]
pub struct BaselinePcaResult {
    /// One row per benchmark.
    pub rows: Vec<PcaComparisonRow>,
}

impl BaselinePcaResult {
    /// Mean recall@10 of CounterMiner.
    pub fn counterminer_mean_recall(&self) -> f64 {
        self.rows
            .iter()
            .map(|r| r.counterminer_recall)
            .sum::<usize>() as f64
            / self.rows.len() as f64
    }

    /// Mean recall@10 of the PCA baseline.
    pub fn pca_mean_recall(&self) -> f64 {
        self.rows.iter().map(|r| r.pca_recall).sum::<usize>() as f64 / self.rows.len() as f64
    }
}

impl fmt::Display for BaselinePcaResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Extension — PCA loading importance vs. CounterMiner importance"
        )?;
        writeln!(
            f,
            "{:<14} {:>14} {:>10} {:>16} {:>12}",
            "benchmark", "CM recall@10", "PCA r@10", "CM dom. rank", "PCA dom. rank"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:<14} {:>14} {:>10} {:>16} {:>12}",
                r.benchmark.to_string(),
                r.counterminer_recall,
                r.pca_recall,
                r.counterminer_dominant_rank
                    .map(|v| v.to_string())
                    .unwrap_or_else(|| "-".into()),
                r.pca_dominant_rank
                    .map(|v| v.to_string())
                    .unwrap_or_else(|| "-".into()),
            )?;
        }
        writeln!(
            f,
            "mean recall@10: CounterMiner {:.1} vs PCA {:.1} — PCA ranks by variance, \
             not performance relevance (the paper's Section VI-A argument)",
            self.counterminer_mean_recall(),
            self.pca_mean_recall()
        )
    }
}

/// Runs the comparison.
///
/// # Errors
///
/// Propagates pipeline failures.
pub fn run(cfg: &ExpConfig) -> Result<BaselinePcaResult, CmError> {
    let catalog = EventCatalog::haswell();
    let reports = analyze_benchmarks(cfg, &HIBENCH)?;
    let miner_cfg = super::common::miner_config(cfg);
    let pmu = miner_cfg.pmu;
    let cleaner = DataCleaner::new(miner_cfg.cleaner);

    let mut rows = Vec::with_capacity(reports.len());
    for report in reports.iter() {
        let benchmark = report.benchmark;
        let profile: Vec<&str> = benchmark.importance_profile().to_vec();
        let dominant = profile[0];

        // CounterMiner ranking from the shared analysis.
        let cm_top: Vec<String> = report
            .eir
            .top(10)
            .iter()
            .map(|&(e, _)| catalog.info(e).abbrev().to_string())
            .collect();

        // PCA baseline over the same kind of cleaned measured data.
        let workload = cm_sim::Workload::new(benchmark, &catalog);
        let n_events = miner_cfg.events_to_measure.unwrap_or(catalog.len());
        let events = workload.top_event_ids(&catalog, n_events);
        let runs = collector::collect_runs(
            &workload,
            &events,
            cm_events::SampleMode::Mlpx,
            miner_cfg.runs_per_benchmark,
            &pmu,
            cfg.seed ^ 0xBEEF,
        );
        let ids: Vec<cm_events::EventId> = events.iter().collect();
        let cleaned = clean_runs(&cleaner, CleanerKind::Point, &runs)?;
        let data = collector::build_dataset(&cleaned.runs, &ids)?;
        let data = collector::normalize_columns(&data)?;
        // The baseline only needs the leading components for a ranking;
        // a rank-deficient run should yield fewer, not fail.
        let pca = Pca::fit_up_to(data.rows(), 10).map_err(CmError::Stats)?;
        let scores = pca.loading_importance();
        let mut order: Vec<usize> = (0..scores.len()).collect();
        order.sort_by(|&a, &b| scores[b].total_cmp(&scores[a]));
        let pca_top: Vec<String> = order[..10.min(order.len())]
            .iter()
            .map(|&i| catalog.info(ids[i]).abbrev().to_string())
            .collect();

        let recall = |top: &[String]| top.iter().filter(|a| profile.contains(&a.as_str())).count();
        let rank_of = |top: &[String], target: &str| top.iter().position(|a| a == target);

        rows.push(PcaComparisonRow {
            benchmark,
            counterminer_recall: recall(&cm_top),
            pca_recall: recall(&pca_top),
            counterminer_dominant_rank: rank_of(&cm_top, dominant),
            pca_dominant_rank: rank_of(&pca_top, dominant),
        });
    }
    Ok(BaselinePcaResult { rows })
}
