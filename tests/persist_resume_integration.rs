//! Store-backed pipeline resume, end to end: the first
//! `analyze_with_store` run collects, cleans, and commits a snapshot;
//! every later run with the same collection configuration must skip PMU
//! simulation and cleaning entirely — proven here through [`cm_obs`]
//! counters — and still produce **bit-identical** rankings.

use cm_ml::{SgbrtConfig, TreeConfig};
use cm_obs::{Mode, Registry, Snapshot};
use cm_sim::Benchmark;
use cm_store::Store;
use counterminer::{AnalysisReport, CounterMiner, ImportanceConfig, MinerConfig};
use std::path::PathBuf;
use std::sync::Mutex;

/// The observability mode and registry are process-global; tests that
/// reconfigure them must not interleave.
static OBS_LOCK: Mutex<()> = Mutex::new(());

fn serialized() -> std::sync::MutexGuard<'static, ()> {
    OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// A configuration small enough for a debug-mode end-to-end run.
fn tiny_config() -> MinerConfig {
    MinerConfig {
        runs_per_benchmark: 1,
        events_to_measure: Some(14),
        importance: ImportanceConfig {
            sgbrt: SgbrtConfig {
                n_trees: 40,
                tree: TreeConfig {
                    max_depth: 3,
                    ..TreeConfig::default()
                },
                ..SgbrtConfig::default()
            },
            prune_step: 3,
            min_events: 8,
            ..ImportanceConfig::default()
        },
        interaction_top_k: 4,
        ..MinerConfig::default()
    }
}

fn temp_store(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cm_resume_it_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir.join("pipeline.cmstore")
}

fn rankings(report: &AnalysisReport) -> (Vec<(cm_events::EventId, f64)>, Vec<f64>) {
    (
        report.eir.ranking.clone(),
        report.interactions.iter().map(|p| p.intensity).collect(),
    )
}

#[test]
fn warm_run_skips_collection_and_cleaning_bit_identically() {
    let _guard = serialized();
    cm_obs::set_mode(Mode::Summary);
    let path = temp_store("warm");

    // Cold run: collect, clean, persist, model.
    Registry::global().drain();
    let mut store = Store::open(&path).unwrap();
    let miner = CounterMiner::new(tiny_config());
    let cold = miner
        .analyze_with_store(Benchmark::Wordcount, &mut store)
        .unwrap();
    let cold_obs: Snapshot = Registry::global().drain();

    // Warm run against a *freshly reopened* store: resume must survive
    // the original handle, i.e. come from the bytes on disk.
    drop(store);
    let mut store = Store::open(&path).unwrap();
    let miner = CounterMiner::new(tiny_config());
    let warm = miner
        .analyze_with_store(Benchmark::Wordcount, &mut store)
        .unwrap();
    let warm_obs: Snapshot = Registry::global().drain();
    cm_obs::set_mode(Mode::Off);

    // The cold run did the expensive front half...
    assert_eq!(cold_obs.counters.get("pipeline.resume.misses"), Some(&1));
    assert_eq!(cold_obs.counters.get("pipeline.resume.hits"), None);
    assert_eq!(cold_obs.counters.get("collector.runs"), Some(&1));
    assert!(cold_obs.counters["cleaner.series"] > 0);
    assert!(cold_obs.counters["pmu.samples"] > 0);
    assert!(cold_obs.counters["store.commits"] >= 1);
    assert!(cold_obs.counters["store.chunks_written"] > 0);

    // ...and the warm run skipped it: no simulation, no cleaning.
    assert_eq!(warm_obs.counters.get("pipeline.resume.hits"), Some(&1));
    assert_eq!(warm_obs.counters.get("pipeline.resume.misses"), None);
    assert!(
        !warm_obs.counters.contains_key("collector.runs"),
        "warm run must not collect, counters: {:?}",
        warm_obs.counters
    );
    assert!(!warm_obs.counters.contains_key("pmu.samples"));
    assert!(!warm_obs.counters.contains_key("cleaner.series"));
    assert!(!warm_obs.counters.contains_key("store.commits"));

    // Bit-identical outcomes.
    assert_eq!(rankings(&cold), rankings(&warm));
    assert_eq!(cold.outliers_replaced, warm.outliers_replaced);
    assert_eq!(cold.missing_filled, warm.missing_filled);
    assert_eq!(
        cold.eir
            .iterations
            .iter()
            .map(|it| (it.n_events, it.error))
            .collect::<Vec<_>>(),
        warm.eir
            .iterations
            .iter()
            .map(|it| (it.n_events, it.error))
            .collect::<Vec<_>>()
    );

    // And both agree exactly with the store-less in-memory pipeline.
    let plain = CounterMiner::new(tiny_config());
    let baseline = plain.analyze(Benchmark::Wordcount).unwrap();
    assert_eq!(rankings(&baseline), rankings(&warm));
    assert_eq!(baseline.outliers_replaced, warm.outliers_replaced);
    assert_eq!(baseline.missing_filled, warm.missing_filled);
}

#[test]
fn ingest_then_analyze_resumes_and_one_store_hosts_many_benchmarks() {
    let _guard = serialized();
    cm_obs::set_mode(Mode::Summary);
    let path = temp_store("multi");

    let mut store = Store::open(&path).unwrap();
    let miner = CounterMiner::new(tiny_config());
    let first = miner.ingest(Benchmark::Sort, &mut store).unwrap();
    assert!(!first.resumed);
    assert_eq!(first.runs, 1);
    assert_eq!(first.events, 14);
    let again = miner.ingest(Benchmark::Sort, &mut store).unwrap();
    assert!(again.resumed);
    assert_eq!(
        (first.outliers_replaced, first.missing_filled),
        (again.outliers_replaced, again.missing_filled)
    );
    let other = miner.ingest(Benchmark::Scan, &mut store).unwrap();
    assert!(!other.resumed, "each benchmark snapshots independently");

    // Both benchmarks now analyze warm out of the same file.
    Registry::global().drain();
    let warm_a = miner
        .analyze_with_store(Benchmark::Sort, &mut store)
        .unwrap();
    let warm_b = miner
        .analyze_with_store(Benchmark::Scan, &mut store)
        .unwrap();
    let obs = Registry::global().drain();
    cm_obs::set_mode(Mode::Off);

    assert_eq!(obs.counters.get("pipeline.resume.hits"), Some(&2));
    assert!(!obs.counters.contains_key("collector.runs"));
    assert!(!obs.counters.contains_key("cleaner.series"));
    assert!(!warm_a.eir.ranking.is_empty());
    assert!(!warm_b.eir.ranking.is_empty());

    // A changed collection knob misses and re-collects rather than
    // serving stale data.
    let reseeded = CounterMiner::new(MinerConfig {
        seed: 7,
        ..tiny_config()
    });
    Registry::global().drain();
    cm_obs::set_mode(Mode::Summary);
    reseeded
        .analyze_with_store(Benchmark::Sort, &mut store)
        .unwrap();
    let obs = Registry::global().drain();
    cm_obs::set_mode(Mode::Off);
    assert_eq!(obs.counters.get("pipeline.resume.misses"), Some(&1));
    assert_eq!(obs.counters.get("collector.runs"), Some(&1));
}

#[test]
fn truncated_store_is_a_typed_error_not_a_silent_recollect() {
    let _guard = serialized();
    cm_obs::set_mode(Mode::Off);
    let path = temp_store("trunc");

    let mut store = Store::open(&path).unwrap();
    let miner = CounterMiner::new(tiny_config());
    miner.ingest(Benchmark::Join, &mut store).unwrap();
    drop(store);

    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
    match Store::open(&path) {
        Err(e) => {
            // Typed corruption surface, never a panic.
            let msg = e.to_string();
            assert!(
                msg.contains("truncated") || msg.contains("checksum") || msg.contains("i/o"),
                "unexpected error: {msg}"
            );
        }
        Ok(_) => panic!("opening a half-truncated store must fail"),
    }
}
