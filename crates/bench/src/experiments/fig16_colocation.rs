//! Fig. 16: event importance under co-located workloads.
//!
//! Paper findings: 'DataCaching + DataCaching' ranks almost like solo
//! DataCaching (ISF still on top, ~3.7 %); 'DataCaching +
//! GraphAnalytics' is upended — BRE tops the list at 10.1 % and six L2
//! events enter the top-10, because the mixed footprints thrash the
//! private caches.

use super::common::{miner_config, ExpConfig};
use cm_events::{EventCatalog, EventId, EventSet};
use cm_sim::{Benchmark, ColocatedWorkload, PmuConfig, SimRun};
use counterminer::{clean_runs, collector, CleanerKind, CmError, DataCleaner, ImportanceRanker};
use std::fmt;

/// One co-location scenario's importance ranking.
#[derive(Debug, Clone)]
pub struct ColocationRow {
    /// Scenario name, e.g. `DataCaching+GraphAnalytics`.
    pub name: String,
    /// `(event abbreviation, importance %)`, top 10.
    pub top10: Vec<(String, f64)>,
}

impl ColocationRow {
    /// How many top-10 events are L2-related.
    pub fn l2_count(&self) -> usize {
        self.top10
            .iter()
            .filter(|(a, _)| a.starts_with("L2"))
            .count()
    }
}

/// The Fig. 16 result: both scenarios.
#[derive(Debug, Clone)]
pub struct Fig16Result {
    /// `DataCaching + DataCaching` (homogeneous).
    pub homogeneous: ColocationRow,
    /// `DataCaching + GraphAnalytics` (heterogeneous).
    pub heterogeneous: ColocationRow,
}

impl fmt::Display for Fig16Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Fig. 16 — importance under co-location")?;
        for row in [&self.homogeneous, &self.heterogeneous] {
            write!(f, "{:<36}", row.name)?;
            for (a, v) in &row.top10 {
                write!(f, " {a}={v:.1}%")?;
            }
            writeln!(f)?;
        }
        writeln!(
            f,
            "L2 events in heterogeneous top-10: {} (paper: 6); homogeneous: {}",
            self.heterogeneous.l2_count(),
            self.homogeneous.l2_count()
        )
    }
}

fn analyze_pair(
    a: Benchmark,
    b: Benchmark,
    catalog: &EventCatalog,
    cfg: &ExpConfig,
) -> Result<ColocationRow, CmError> {
    let pair = ColocatedWorkload::new(a, b, catalog);
    let pmu = PmuConfig::default();
    let miner_cfg = miner_config(cfg);
    let n_events = miner_cfg.events_to_measure.unwrap_or(catalog.len());
    // Measure the leading catalog events plus, always, the L2 family
    // (the phenomenon under study) and both solo profiles.
    let mut events = EventSet::new();
    for suite_b in [a, b] {
        for abbrev in suite_b.importance_profile() {
            events.insert(catalog.by_abbrev(abbrev).expect("profile").id());
        }
    }
    for abbrev in ["L2H", "L2R", "L2C", "L2A", "L2M", "L2S", "BRE"] {
        events.insert(catalog.by_abbrev(abbrev).expect("named").id());
    }
    for info in catalog.iter() {
        if events.len() >= n_events {
            break;
        }
        events.insert(info.id());
    }

    let runs: Vec<SimRun> = (0..miner_cfg.runs_per_benchmark)
        .map(|i| {
            let truth = pair.generate_run(i as u32, cfg.seed);
            pmu.measure_mlpx(&pair, &truth, &events, i as u32, cfg.seed)
        })
        .collect();

    let ids: Vec<EventId> = events.iter().collect();
    let cleaned = clean_runs(&DataCleaner::default(), CleanerKind::Point, &runs)?;
    let data = collector::build_dataset(&cleaned.runs, &ids)?;
    let data = collector::normalize_columns(&data)?;
    let eir = ImportanceRanker::new(miner_cfg.importance).rank(&data, &ids)?;

    Ok(ColocationRow {
        name: pair.name().to_string(),
        top10: eir
            .top(10)
            .iter()
            .map(|&(e, v)| (catalog.info(e).abbrev().to_string(), v))
            .collect(),
    })
}

/// Runs both co-location scenarios.
///
/// # Errors
///
/// Propagates pipeline failures.
pub fn run(cfg: &ExpConfig) -> Result<Fig16Result, CmError> {
    let catalog = EventCatalog::haswell();
    Ok(Fig16Result {
        homogeneous: analyze_pair(
            Benchmark::DataCaching,
            Benchmark::DataCaching,
            &catalog,
            cfg,
        )?,
        heterogeneous: analyze_pair(
            Benchmark::DataCaching,
            Benchmark::GraphAnalytics,
            &catalog,
            cfg,
        )?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn l2_count_counts_prefixed_abbrevs() {
        let row = ColocationRow {
            name: "x+y".into(),
            top10: vec![
                ("BRE".into(), 10.0),
                ("L2H".into(), 5.0),
                ("L2R".into(), 4.0),
                ("ISF".into(), 3.0),
            ],
        };
        assert_eq!(row.l2_count(), 2);
    }

    #[test]
    fn display_shows_both_scenarios() {
        let row = |name: &str| ColocationRow {
            name: name.into(),
            top10: vec![("ISF".into(), 9.0)],
        };
        let result = Fig16Result {
            homogeneous: row("a+a"),
            heterogeneous: row("a+b"),
        };
        let text = result.to_string();
        assert!(text.contains("a+a"));
        assert!(text.contains("a+b"));
        assert!(text.contains("paper: 6"));
    }
}
