//! Cleaning against the simulator: the data cleaner must reduce the
//! paper's DTW-based MLPX error (Eqs. 1–4) on real simulated runs.

use cm_events::{abbrev, EventCatalog};
use cm_sim::{Benchmark, PmuConfig, Workload};
use counterminer::error_metrics::mlpx_error;
use counterminer::DataCleaner;

#[test]
fn cleaning_reduces_mlpx_error_on_average() {
    let catalog = EventCatalog::haswell();
    let pmu = PmuConfig::default();
    let cleaner = DataCleaner::default();
    let icm = catalog.by_abbrev(abbrev::ICM).unwrap().id();

    let mut raw_total = 0.0;
    let mut clean_total = 0.0;
    let mut count = 0;
    for benchmark in [
        Benchmark::Wordcount,
        Benchmark::Sort,
        Benchmark::DataCaching,
    ] {
        let workload = Workload::new(benchmark, &catalog);
        let events = workload.top_event_ids(&catalog, 10);
        for seed in 0..2 {
            let ocoe1 = pmu.simulate_ocoe(&workload, &events, 0, seed);
            let ocoe2 = pmu.simulate_ocoe(&workload, &events, 1, seed);
            let mlpx = pmu.simulate_mlpx(&workload, &events, 2, seed);
            let s1 = ocoe1.record.series(icm).unwrap();
            let s2 = ocoe2.record.series(icm).unwrap();
            let sm = mlpx.record.series(icm).unwrap();
            raw_total += mlpx_error(s1, s2, sm).unwrap();
            let (cleaned, report) = cleaner.clean_series(sm).unwrap();
            clean_total += mlpx_error(s1, s2, &cleaned).unwrap();
            // The dirty series really was dirty.
            assert!(
                report.outliers_replaced + report.missing_filled > 0,
                "{benchmark} seed {seed}: nothing to clean?"
            );
            count += 1;
        }
    }
    let raw = raw_total / count as f64;
    let cleaned = clean_total / count as f64;
    assert!(
        cleaned < 0.7 * raw,
        "cleaning should cut the error substantially: raw {raw:.1}%, cleaned {cleaned:.1}%"
    );
    // The paper's ballpark: raw tens of percent, cleaned single digits
    // to low tens.
    assert!(raw > 10.0, "raw error implausibly low: {raw:.1}%");
    assert!(cleaned < 25.0, "cleaned error too high: {cleaned:.1}%");
}

#[test]
fn cleaner_reports_per_event_activity_on_a_real_run() {
    let catalog = EventCatalog::haswell();
    let pmu = PmuConfig::default();
    let workload = Workload::new(Benchmark::Join, &catalog);
    let events = workload.top_event_ids(&catalog, 16);
    let mut run = pmu.simulate_mlpx(&workload, &events, 0, 9).record;

    let cleaner = DataCleaner::default();
    let reports = cleaner.clean_run(&mut run).unwrap();
    assert_eq!(reports.len(), 16);
    let total_fixed: usize = reports
        .iter()
        .map(|r| r.outliers_replaced + r.missing_filled)
        .sum();
    assert!(total_fixed > 0);
    // After cleaning, no series should retain a giant spike above its
    // threshold.
    for (event, series) in run.iter() {
        let report = &reports[run.events().position(|e| e == event).unwrap()];
        let above: usize = series
            .iter()
            .filter(|&v| v > report.threshold * 1.001)
            .count();
        assert_eq!(above, 0, "event {event} kept values above threshold");
    }
}

#[test]
fn ocoe_runs_need_no_cleaning() {
    let catalog = EventCatalog::haswell();
    let pmu = PmuConfig::default();
    let workload = Workload::new(Benchmark::Bayes, &catalog);
    let events = workload.top_event_ids(&catalog, 4);
    let run = pmu.simulate_ocoe(&workload, &events, 0, 4);
    let cleaner = DataCleaner::default();
    for (_, series) in run.record.iter() {
        let (_, report) = cleaner.clean_series(series).unwrap();
        // Dedicated counters produce no missing values.
        assert_eq!(report.missing_filled, 0);
    }
}
