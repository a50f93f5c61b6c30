//! Quantitative checks of the paper's headline findings (Section I lists
//! six). Each function takes completed [`AnalysisReport`]s and returns a
//! measurable statistic, so experiments and tests can assert the
//! findings rather than eyeball them.
//!
//! [`AnalysisReport`]: crate::AnalysisReport

use crate::AnalysisReport;
use cm_events::{EventCatalog, EventKind};
use std::collections::{BTreeMap, HashSet};

/// Finding 1 & the one-three SMI law: per benchmark, how many leading
/// events are "significantly more important" — counted as events whose
/// importance exceeds `factor ×` the median importance of ranks 4–10.
///
/// The paper reports this count is always between one and three.
pub fn smi_dominant_counts(reports: &[AnalysisReport], factor: f64) -> Vec<(String, usize)> {
    reports
        .iter()
        .map(|r| {
            let top = r.eir.top(10);
            let tail: Vec<f64> = top.iter().skip(3).map(|&(_, v)| v).collect();
            let tail_median = if tail.is_empty() {
                0.0
            } else {
                let mut sorted = tail.clone();
                sorted.sort_by(f64::total_cmp);
                sorted[sorted.len() / 2]
            };
            let dominant = top
                .iter()
                .take(3)
                .filter(|&&(_, v)| v > factor * tail_median.max(1e-9))
                .count()
                .max(1);
            (r.benchmark.name().to_string(), dominant)
        })
        .collect()
}

/// Finding 1: how many benchmarks have the instruction-queue-full stall
/// event (ISF) as their single most important event.
pub fn isf_top_count(reports: &[AnalysisReport], catalog: &EventCatalog) -> usize {
    reports
        .iter()
        .filter(|r| {
            r.eir
                .top(1)
                .first()
                .map(|&(e, _)| catalog.info(e).abbrev() == cm_events::abbrev::ISF)
                .unwrap_or(false)
        })
        .count()
}

/// Finding 2: fraction of the top interaction pairs (up to `k` per
/// benchmark) involving at least one branch-related event. The paper
/// measures 83.4 % over the 160 strongest pairs.
pub fn branch_pair_share(reports: &[AnalysisReport], catalog: &EventCatalog, k: usize) -> f64 {
    let mut total = 0usize;
    let mut branchy = 0usize;
    for r in reports {
        for p in r.interactions.iter().take(k) {
            total += 1;
            if catalog.info(p.pair.0).is_branch_related()
                || catalog.info(p.pair.1).is_branch_related()
            {
                branchy += 1;
            }
        }
    }
    if total == 0 {
        0.0
    } else {
        branchy as f64 / total as f64
    }
}

/// Finding 5: events appearing in at least `min_benchmarks` of the
/// reports' top-10 lists, with their microarchitectural kinds — the
/// "common important events" (the paper finds branches, TLBs, and
/// remote memory/cache operations).
pub fn common_important_events(
    reports: &[AnalysisReport],
    catalog: &EventCatalog,
    min_benchmarks: usize,
) -> Vec<(String, EventKind, usize)> {
    let mut counts: BTreeMap<String, (EventKind, usize)> = BTreeMap::new();
    for r in reports {
        for &(e, _) in r.eir.top(10) {
            let info = catalog.info(e);
            counts
                .entry(info.abbrev().to_string())
                .and_modify(|(_, c)| *c += 1)
                .or_insert((info.kind(), 1));
        }
    }
    let mut out: Vec<(String, EventKind, usize)> = counts
        .into_iter()
        .filter(|(_, (_, c))| *c >= min_benchmarks)
        .map(|(abbrev, (kind, count))| (abbrev, kind, count))
        .collect();
    out.sort_by_key(|&(_, _, count)| std::cmp::Reverse(count));
    out
}

/// Finding 6: distinct events across all the reports' top-10 lists —
/// the suite-diversity measure under which the paper finds HiBench
/// *more* diverse than CloudSuite.
pub fn distinct_top10_events(reports: &[AnalysisReport], catalog: &EventCatalog) -> usize {
    let mut set = HashSet::new();
    for r in reports {
        for &(e, _) in r.eir.top(10) {
            set.insert(catalog.info(e).abbrev().to_string());
        }
    }
    set.len()
}

/// The dominant interaction pair's share per benchmark (the "one or two
/// dominant pairs" observation and the tier-strength comparison of
/// Section V-C).
pub fn dominant_pair_shares(reports: &[AnalysisReport]) -> Vec<(String, f64)> {
    reports
        .iter()
        .map(|r| {
            (
                r.benchmark.name().to_string(),
                r.interactions.first().map(|p| p.share).unwrap_or(0.0),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CounterMiner, ImportanceConfig, MinerConfig};
    use cm_ml::SgbrtConfig;
    use cm_sim::Benchmark;

    fn small_reports(benchmarks: &[Benchmark]) -> Vec<AnalysisReport> {
        benchmarks
            .iter()
            .map(|&b| {
                let miner = CounterMiner::new(MinerConfig {
                    runs_per_benchmark: 1,
                    events_to_measure: Some(20),
                    importance: ImportanceConfig {
                        sgbrt: SgbrtConfig {
                            n_trees: 40,
                            ..SgbrtConfig::default()
                        },
                        prune_step: 5,
                        min_events: 12,
                        ..ImportanceConfig::default()
                    },
                    ..MinerConfig::default()
                });
                miner.analyze(b).unwrap()
            })
            .collect()
    }

    #[test]
    fn findings_functions_compute_over_real_reports() {
        let catalog = cm_events::EventCatalog::haswell();
        let reports = small_reports(&[Benchmark::Wordcount, Benchmark::Sort]);

        let smi = smi_dominant_counts(&reports, 2.0);
        assert_eq!(smi.len(), 2);
        for (name, dominant) in &smi {
            assert!(
                (1..=3).contains(dominant),
                "{name}: dominant count {dominant}"
            );
        }

        let share = branch_pair_share(&reports, &catalog, 10);
        assert!((0.0..=1.0).contains(&share));

        let common = common_important_events(&reports, &catalog, 2);
        // ISF is in both benchmarks' profiles; with 20 events measured it
        // reliably shows in both top-10s.
        assert!(common.iter().any(|(a, _, _)| a == "ISF"), "{common:?}");

        let distinct = distinct_top10_events(&reports, &catalog);
        assert!((10..=20).contains(&distinct));

        let shares = dominant_pair_shares(&reports);
        assert_eq!(shares.len(), 2);
        assert!(shares.iter().all(|&(_, s)| s > 0.0));
    }

    #[test]
    fn empty_reports_are_handled() {
        let catalog = cm_events::EventCatalog::haswell();
        assert_eq!(smi_dominant_counts(&[], 2.0).len(), 0);
        assert_eq!(branch_pair_share(&[], &catalog, 10), 0.0);
        assert_eq!(distinct_top10_events(&[], &catalog), 0);
        assert!(common_important_events(&[], &catalog, 1).is_empty());
    }
}
