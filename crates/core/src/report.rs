//! Text rendering of analysis results — the shared formatting used by
//! the CLI, the examples, and the experiment harness.

use crate::{EirResult, PairInteraction};
use cm_events::EventCatalog;
use std::fmt::Write as _;

/// Renders the top `k` of an importance ranking, one event per line:
/// abbreviation, full name, importance percent.
pub fn render_importance(catalog: &EventCatalog, eir: &EirResult, k: usize) -> String {
    let mut out = String::new();
    for (event, importance) in eir.top(k) {
        let info = catalog.info(*event);
        let _ = writeln!(
            out,
            "  {:<4} {:<48} {importance:5.1}%",
            info.abbrev(),
            info.name()
        );
    }
    out
}

/// Renders the top `k` interaction pairs, one per line:
/// `AAA-BBB  share%`.
pub fn render_interactions(
    catalog: &EventCatalog,
    interactions: &[PairInteraction],
    k: usize,
) -> String {
    let mut out = String::new();
    for pair in interactions.iter().take(k) {
        let _ = writeln!(
            out,
            "  {}-{}  {:5.1}%",
            catalog.info(pair.pair.0).abbrev(),
            catalog.info(pair.pair.1).abbrev(),
            pair.share
        );
    }
    out
}

/// Renders the EIR error curve, one `events -> error%` line per
/// iteration, marking the MAPM.
pub fn render_eir_curve(eir: &EirResult) -> String {
    let mut out = String::new();
    for (i, it) in eir.iterations.iter().enumerate() {
        let marker = if i == eir.best_iteration {
            "  <- MAPM"
        } else {
            ""
        };
        let _ = writeln!(
            out,
            "  {:>3} events -> {:5.1}%{marker}",
            it.n_events,
            it.error * 100.0
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CounterMiner, ImportanceConfig, MinerConfig};
    use cm_ml::SgbrtConfig;
    use cm_sim::Benchmark;

    fn report() -> (EventCatalog, crate::AnalysisReport) {
        let miner = CounterMiner::new(MinerConfig {
            runs_per_benchmark: 1,
            events_to_measure: Some(16),
            importance: ImportanceConfig {
                sgbrt: SgbrtConfig {
                    n_trees: 30,
                    ..SgbrtConfig::default()
                },
                prune_step: 4,
                min_events: 8,
                ..ImportanceConfig::default()
            },
            interaction_top_k: 4,
            ..MinerConfig::default()
        });
        let report = miner.analyze(Benchmark::Scan).unwrap();
        (EventCatalog::haswell(), report)
    }

    #[test]
    fn importance_rendering_has_one_line_per_event() {
        let (catalog, report) = report();
        let text = render_importance(&catalog, &report.eir, 5);
        assert_eq!(text.lines().count(), 5);
        assert!(text.contains('%'));
        // Asking for more than available truncates gracefully.
        let all = render_importance(&catalog, &report.eir, 1000);
        assert_eq!(all.lines().count(), report.eir.ranking.len());
    }

    #[test]
    fn interaction_rendering_uses_pair_labels() {
        let (catalog, report) = report();
        let text = render_interactions(&catalog, &report.interactions, 3);
        assert_eq!(text.lines().count(), 3);
        for line in text.lines() {
            assert!(line.contains('-'), "no pair label in {line:?}");
        }
    }

    #[test]
    fn eir_curve_marks_the_mapm() {
        let (_, report) = report();
        let text = render_eir_curve(&report.eir);
        assert_eq!(text.lines().count(), report.eir.iterations.len());
        assert_eq!(text.matches("<- MAPM").count(), 1);
    }
}
