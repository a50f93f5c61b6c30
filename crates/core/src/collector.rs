//! The data collector (Section III-A): drives the (simulated) profiler
//! and assembles model-training datasets from measured runs.

use crate::CmError;
use cm_events::{EventId, EventSet, SampleMode};
use cm_ml::Dataset;
use cm_sim::{PmuConfig, SimRun, Workload};

/// Collects `n_runs` runs of `workload` measuring `events` in the given
/// mode. Runs are simulated in parallel; run `i` uses run index `i`, so
/// the result is independent of the thread count.
pub fn collect_runs(
    workload: &Workload,
    events: &EventSet,
    mode: SampleMode,
    n_runs: usize,
    pmu: &PmuConfig,
    seed: u64,
) -> Vec<SimRun> {
    cm_obs::counter_add("collector.runs", n_runs as u64);
    pmu.simulate_batch(workload, events, mode, n_runs, seed)
}

/// Builds a supervised dataset from measured runs: one row per sampling
/// interval, one column per event in `events` order, target = measured
/// IPC of that interval.
///
/// The paper's pipeline cleans first, then models: pass runs cleaned by
/// [`crate::clean_runs`].
///
/// # Errors
///
/// Returns [`CmError::Invalid`] when `runs` is empty or an event was not
/// measured in some run.
pub fn build_dataset(runs: &[SimRun], events: &[EventId]) -> Result<Dataset, CmError> {
    if runs.is_empty() {
        return Err(CmError::Invalid("need at least one run to build a dataset"));
    }
    let mut rows = Vec::new();
    let mut targets = Vec::new();
    for run in runs {
        let columns = events
            .iter()
            .map(|&event| {
                run.record
                    .series(event)
                    .map(|series| series.values())
                    .ok_or(CmError::Invalid("event missing from a run record"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let n = run.ipc.len();
        for t in 0..n {
            let row: Vec<f64> = columns.iter().map(|col| col[t]).collect();
            rows.push(row);
            targets.push(run.ipc.values()[t]);
        }
    }
    Dataset::new(rows, targets).map_err(CmError::Ml)
}

/// Aggregates consecutive rows into window means (features and target
/// alike), trading temporal resolution for lower per-example
/// measurement noise. The paper's training examples are similarly
/// coarser than raw sampling intervals (Section V-D counts ~100 usable
/// examples per multi-hundred-interval run).
///
/// A trailing partial window is dropped. `window = 1` is the identity.
///
/// # Errors
///
/// Returns [`CmError::Invalid`] when `window` is zero or exceeds the
/// dataset length.
pub fn aggregate_windows(data: &Dataset, window: usize) -> Result<Dataset, CmError> {
    if window == 0 {
        return Err(CmError::Invalid("aggregation window must be at least 1"));
    }
    if window > data.n_rows() {
        return Err(CmError::Invalid(
            "aggregation window exceeds the dataset length",
        ));
    }
    if window == 1 {
        return Ok(data.clone());
    }
    let mut rows = Vec::with_capacity(data.n_rows() / window);
    let mut targets = Vec::with_capacity(rows.capacity());
    let mut i = 0;
    while i + window <= data.n_rows() {
        let mut row = vec![0.0; data.n_features()];
        let mut y = 0.0;
        for j in i..i + window {
            for (acc, &v) in row.iter_mut().zip(data.row(j)) {
                *acc += v;
            }
            y += data.target(j);
        }
        for v in &mut row {
            *v /= window as f64;
        }
        rows.push(row);
        targets.push(y / window as f64);
        i += window;
    }
    Dataset::new(rows, targets).map_err(CmError::Ml)
}

/// Normalizes dataset columns to zero mean and unit variance (constant
/// columns are left at zero). Tree models are scale-invariant, but
/// normalization makes the interaction ranker's linear fits
/// well-conditioned when event magnitudes span six orders.
pub fn normalize_columns(data: &Dataset) -> Result<Dataset, CmError> {
    let n = data.n_rows() as f64;
    let width = data.n_features();
    let mut mean = vec![0.0; width];
    for row in data.rows() {
        for (m, &v) in mean.iter_mut().zip(row) {
            *m += v;
        }
    }
    for m in &mut mean {
        *m /= n;
    }
    let mut var = vec![0.0; width];
    for row in data.rows() {
        for ((s, &v), &m) in var.iter_mut().zip(row).zip(&mean) {
            *s += (v - m) * (v - m);
        }
    }
    let std: Vec<f64> = var.iter().map(|&s| (s / n).sqrt()).collect();
    let rows: Vec<Vec<f64>> = data
        .rows()
        .iter()
        .map(|row| {
            row.iter()
                .enumerate()
                .map(|(j, &v)| {
                    if std[j] > 0.0 {
                        (v - mean[j]) / std[j]
                    } else {
                        0.0
                    }
                })
                .collect()
        })
        .collect();
    Dataset::new(rows, data.targets().to_vec()).map_err(CmError::Ml)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CleanerKind, DataCleaner};
    use cm_events::EventCatalog;
    use cm_sim::Benchmark;

    fn setup() -> (EventCatalog, Workload, PmuConfig) {
        let c = EventCatalog::haswell();
        let w = Workload::new(Benchmark::Wordcount, &c);
        (c, w, PmuConfig::default())
    }

    #[test]
    fn dataset_rows_match_intervals() {
        let (c, w, pmu) = setup();
        let events = w.top_event_ids(&c, 5);
        let runs = collect_runs(&w, &events, SampleMode::Mlpx, 2, &pmu, 2);
        let ids: Vec<EventId> = events.iter().collect();
        let data = build_dataset(&runs, &ids).unwrap();
        let expected: usize = runs.iter().map(|r| r.intervals()).sum();
        assert_eq!(data.n_rows(), expected);
        assert_eq!(data.n_features(), 5);
    }

    #[test]
    fn cleaning_changes_dirty_columns() {
        let (c, w, pmu) = setup();
        let events = w.top_event_ids(&c, 12); // multiplexed -> dirty
        let runs = collect_runs(&w, &events, SampleMode::Mlpx, 1, &pmu, 3);
        let ids: Vec<EventId> = events.iter().collect();
        let raw = build_dataset(&runs, &ids).unwrap();
        let cleaned =
            crate::clean_runs(&DataCleaner::default(), CleanerKind::Point, &runs).unwrap();
        let clean = build_dataset(&cleaned.runs, &ids).unwrap();
        assert_eq!(raw.n_rows(), clean.n_rows());
        assert_ne!(raw.rows(), clean.rows());
    }

    #[test]
    fn missing_event_is_reported() {
        let (c, w, pmu) = setup();
        let events = w.top_event_ids(&c, 3);
        let runs = collect_runs(&w, &events, SampleMode::Ocoe, 1, &pmu, 4);
        let bogus = vec![EventId::new(200)];
        assert!(build_dataset(&runs, &bogus).is_err());
        assert!(build_dataset(&[], &bogus).is_err());
    }

    #[test]
    fn aggregation_averages_windows() {
        let rows: Vec<Vec<f64>> = (0..7).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = (0..7).map(|i| 10.0 * i as f64).collect();
        let data = Dataset::new(rows, y).unwrap();
        let agg = aggregate_windows(&data, 3).unwrap();
        assert_eq!(agg.n_rows(), 2); // trailing partial window dropped
        assert_eq!(agg.row(0), &[1.0]);
        assert_eq!(agg.row(1), &[4.0]);
        assert_eq!(agg.targets(), &[10.0, 40.0]);
        // Identity and validation.
        assert_eq!(aggregate_windows(&data, 1).unwrap(), data);
        assert!(aggregate_windows(&data, 0).is_err());
        assert!(aggregate_windows(&data, 8).is_err());
    }

    #[test]
    fn normalization_standardizes_columns() {
        let rows = vec![
            vec![10.0, 5.0, 1.0],
            vec![20.0, 5.0, 2.0],
            vec![30.0, 5.0, 3.0],
        ];
        let data = Dataset::new(rows, vec![1.0, 2.0, 3.0]).unwrap();
        let normed = normalize_columns(&data).unwrap();
        // Column 0 standardized.
        let col0: Vec<f64> = normed.rows().iter().map(|r| r[0]).collect();
        assert!((col0.iter().sum::<f64>()).abs() < 1e-9);
        // Constant column 1 becomes zeros.
        assert!(normed.rows().iter().all(|r| r[1] == 0.0));
        // Targets untouched.
        assert_eq!(normed.targets(), data.targets());
    }
}
