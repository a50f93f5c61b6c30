//! The pipeline's front half (Fig. 4): every series of a run set is
//! cleaned once, in run and event order, and what the cleaner did is
//! tallied.
//!
//! [`clean_runs`] is the one front half of the batch `analyze`, the
//! store's cold ingest and the clusterer's injected runs. Its
//! per-series step, [`CleanTally::clean`], is also the streaming
//! session's block seal. The back half is [`crate::model_and_rank`].

use crate::{CleanerKind, CmError, DataCleaner, VarianceAggregate};
use cm_events::{EventId, RunRecord, TimeSeries};
use cm_sim::SimRun;
use std::collections::BTreeMap;

/// What the cleaner did to a set of series.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CleanTally {
    /// Outliers replaced.
    pub outliers_replaced: usize,
    /// Missing values filled.
    pub missing_filled: usize,
}

impl CleanTally {
    /// Cleans one series and adds what the cleaner did to the tally.
    ///
    /// With an `aggregate` the series is cleaned in `bayes` mode and its
    /// reconstruction variances are merged into `aggregate`; without one
    /// the point cleaner runs. Both return bit-identical values.
    ///
    /// # Errors
    ///
    /// As [`DataCleaner::clean_series`].
    pub fn clean(
        &mut self,
        cleaner: &DataCleaner,
        series: &TimeSeries,
        aggregate: Option<&mut VarianceAggregate>,
    ) -> Result<TimeSeries, CmError> {
        let (clean, report) = match aggregate {
            Some(aggregate) => {
                let (clean, report, uncertainty) = cleaner.clean_series_bayes(series)?;
                aggregate.merge(&VarianceAggregate::of_series(&clean, &uncertainty));
                (clean, report)
            }
            None => cleaner.clean_series(series)?,
        };
        self.outliers_replaced += report.outliers_replaced;
        self.missing_filled += report.missing_filled;
        Ok(clean)
    }
}

/// The front half's result, which the back half takes as one value:
/// what [`clean_runs`] made, or what the store-backed paths restored
/// from the columnar store.
#[derive(Debug, Clone)]
pub struct CleanedRuns {
    /// The cleaned runs, IPC attached. `true_counts` are empty: ground
    /// truth is a simulation artifact that is neither modeled nor
    /// persisted.
    pub runs: Vec<SimRun>,
    /// The measured events, in dataset column order.
    pub events: Vec<EventId>,
    /// What the cleaner did over every series.
    pub tally: CleanTally,
    /// `bayes` mode only: per-event column variance aggregates, in
    /// `events` order, each merged in run order so the sums are the same
    /// at any thread count. The store persists them bit-exactly, so a
    /// warm analysis replays a cold one's uncertainty.
    pub uncertainty: Option<Vec<VarianceAggregate>>,
}

/// Cleans every series of `runs` once, serially in run and event order,
/// with `kind`'s estimator. The events are the first run's; every run
/// must measure the same ones.
///
/// # Errors
///
/// Propagates the first cleaning failure.
pub fn clean_runs(
    cleaner: &DataCleaner,
    kind: CleanerKind,
    runs: &[SimRun],
) -> Result<CleanedRuns, CmError> {
    let events: Vec<EventId> = runs
        .first()
        .map_or_else(Vec::new, |run| run.record.events().collect());
    let mut tally = CleanTally::default();
    let mut uncertainty = match kind {
        CleanerKind::Bayes => Some(vec![VarianceAggregate::default(); events.len()]),
        CleanerKind::Point => None,
    };
    let cleaned = runs
        .iter()
        .map(|run| {
            let mut record = RunRecord::new(
                run.record.program(),
                run.record.run_index(),
                run.record.mode(),
            );
            record.set_exec_time_secs(run.record.exec_time_secs());
            for (column, (event, series)) in run.record.iter().enumerate() {
                let aggregate = uncertainty.as_mut().map(|a| &mut a[column]);
                record.insert_series(event, tally.clean(cleaner, series, aggregate)?);
            }
            Ok(SimRun {
                record,
                ipc: run.ipc.clone(),
                true_counts: BTreeMap::new(),
            })
        })
        .collect::<Result<_, CmError>>()?;
    Ok(CleanedRuns {
        runs: cleaned,
        events,
        tally,
        uncertainty,
    })
}
