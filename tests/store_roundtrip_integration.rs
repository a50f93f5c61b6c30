//! Store integration: simulated runs survive a commit and reopen of a
//! `.cmstore` file bit-for-bit, and the first-level summaries mirror what
//! was collected.

use cm_events::{EventId, SampleMode};
use cm_sim::{Benchmark, PmuConfig, SimRun, Workload};
use cm_store::{RunId, Store};
use counterminer::collector;
use std::path::PathBuf;

fn temp_store(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("counterminer_it_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir.join("runs.cmstore")
}

fn append(store: &mut Store, runs: &[SimRun]) {
    for run in runs {
        store.append_run(&run.record).unwrap();
    }
}

#[test]
fn simulated_runs_round_trip_through_disk() {
    let catalog = cm_events::EventCatalog::haswell();
    let pmu = PmuConfig::default();
    let path = temp_store("roundtrip");
    let mut store = Store::open(&path).unwrap();

    let mut collected = Vec::new();
    for benchmark in [Benchmark::Wordcount, Benchmark::WebServing] {
        let workload = Workload::new(benchmark, &catalog);
        let events = workload.top_event_ids(&catalog, 8);
        let mlpx = collector::collect_runs(&workload, &events, SampleMode::Mlpx, 2, &pmu, 1);
        let ocoe = collector::collect_runs(&workload, &events, SampleMode::Ocoe, 1, &pmu, 1);
        append(&mut store, &mlpx);
        append(&mut store, &ocoe);
        collected.extend(mlpx.into_iter().chain(ocoe).map(|run| run.record));
    }
    store.commit().unwrap();

    let loaded = Store::open(&path).unwrap();
    assert_eq!(loaded.run_ids().count(), 6);
    for run in &collected {
        let id = RunId::new(run.program(), run.run_index(), run.mode());
        let got = loaded
            .read_run(&id)
            .unwrap_or_else(|e| panic!("missing {id:?}: {e}"));
        assert_eq!(got.exec_time_secs(), run.exec_time_secs());
        for (event, series) in run.iter() {
            assert_eq!(
                got.series(event).unwrap(),
                series,
                "{id:?} event {event} series drifted"
            );
        }
    }
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn summaries_reflect_collected_runs() {
    let catalog = cm_events::EventCatalog::haswell();
    let pmu = PmuConfig::default();
    let workload = Workload::new(Benchmark::Scan, &catalog);
    let events = workload.top_event_ids(&catalog, 5);
    let runs = collector::collect_runs(&workload, &events, SampleMode::Mlpx, 3, &pmu, 2);
    let path = temp_store("summary");
    let mut store = Store::open(&path).unwrap();
    append(&mut store, &runs);
    store.commit().unwrap();

    let summary = Store::open(&path).unwrap().summary("scan").unwrap();
    assert_eq!(summary.run_count, 3);
    assert_eq!(summary.events.len(), 5);
    assert_eq!(summary.table_names.len(), 3);
    let exec_times: Vec<f64> = runs.iter().map(|r| r.record.exec_time_secs()).collect();
    assert_eq!(summary.exec_times_secs, exec_times);
    assert!(summary.exec_times_secs.iter().all(|&t| t > 0.0));
    // The events recorded are exactly the measured set.
    let expected: Vec<EventId> = {
        let mut v: Vec<EventId> = events.iter().collect();
        v.sort();
        v
    };
    assert_eq!(summary.events, expected);
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn variable_length_series_are_preserved() {
    // Two runs of the same program have different lengths (OS jitter);
    // the store must not normalize them.
    let catalog = cm_events::EventCatalog::haswell();
    let pmu = PmuConfig::default();
    let workload = Workload::new(Benchmark::Bayes, &catalog);
    let events = workload.top_event_ids(&catalog, 4);
    let runs = collector::collect_runs(&workload, &events, SampleMode::Ocoe, 4, &pmu, 3);
    let lens: Vec<usize> = runs.iter().map(|r| r.intervals()).collect();
    assert!(
        lens.windows(2).any(|w| w[0] != w[1]),
        "expected length jitter, got {lens:?}"
    );

    let path = temp_store("lengths");
    let mut store = Store::open(&path).unwrap();
    append(&mut store, &runs);
    store.commit().unwrap();
    let loaded = Store::open(&path).unwrap();
    for (i, run) in runs.iter().enumerate() {
        let got = loaded
            .read_run(&RunId::new("bayes", i as u32, SampleMode::Ocoe))
            .unwrap();
        for (event, series) in run.record.iter() {
            assert_eq!(got.series(event).unwrap().len(), series.len());
        }
    }
    std::fs::remove_file(&path).unwrap();
}
