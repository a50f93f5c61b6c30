//! Observability determinism: every count-valued metric the pipeline
//! records — counters, histogram counts, series points, span counts —
//! must be bit-identical at any thread count. Only durations (`*_ns`
//! counters, span times) and scheduling-scoped metrics (`par.sched.*`)
//! may vary; [`cm_obs::Snapshot::deterministic_counters`] encodes that
//! exemption and this test enforces it end to end over a full
//! `analyze` run.

use cm_ml::{SgbrtConfig, TreeConfig};
use cm_obs::{Mode, Registry, Snapshot};
use cm_sim::Benchmark;
use cm_store::Store;
use counterminer::{CleanerKind, CounterMiner, ImportanceConfig, MinerConfig};
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

/// Runs one full analysis at the given thread budget and returns the
/// drained snapshot plus the report's EIR curve.
fn analyze_with_threads(threads: usize) -> (Snapshot, Vec<(f64, f64)>) {
    cm_par::set_max_threads(threads);
    // Drop anything a previous run left behind, then collect fresh.
    Registry::global().drain();
    let miner = CounterMiner::new(tiny_config());
    let report = miner.analyze(Benchmark::Sort).unwrap();
    let curve: Vec<(f64, f64)> = report
        .eir
        .iterations
        .iter()
        .map(|it| (it.n_events as f64, it.error))
        .collect();
    (Registry::global().drain(), curve)
}

#[test]
fn count_valued_metrics_are_identical_across_thread_counts() {
    let _guard = serialized();
    cm_obs::set_mode(Mode::Summary);

    let (serial, serial_curve) = analyze_with_threads(1);
    let (parallel, parallel_curve) = analyze_with_threads(8);
    cm_par::set_max_threads(0);
    cm_obs::set_mode(Mode::Off);

    // Something was actually recorded.
    assert_eq!(
        serial.counters.get("pipeline.analyses"),
        Some(&1),
        "expected an instrumented analyze run, got {:?}",
        serial.counters
    );
    assert!(serial.counters.contains_key("cleaner.series"));
    assert!(serial.counters.contains_key("ml.fits"));
    assert!(serial.counters.contains_key("pmu.samples"));

    // The determinism contract: everything count-valued is identical.
    assert_eq!(
        serial.deterministic_counters(),
        parallel.deterministic_counters(),
        "count-valued counters differ across thread counts"
    );
    assert_eq!(
        serial.histograms, parallel.histograms,
        "histograms differ across thread counts"
    );
    assert_eq!(
        serial.series, parallel.series,
        "series differ across thread counts"
    );
    assert_eq!(
        serial.span_counts(),
        parallel.span_counts(),
        "span entry counts differ across thread counts"
    );
    assert_eq!(serial.gauges, parallel.gauges);
    assert_eq!(serial.labels, parallel.labels);

    // The recorded EIR curve is exactly the report's iteration data,
    // and both runs agree on it.
    assert_eq!(serial.series["eir.cv_error"], serial_curve);
    assert_eq!(serial_curve, parallel_curve);
}

#[test]
fn json_report_carries_the_eir_curve() {
    let _guard = serialized();
    cm_obs::set_mode(Mode::Json(None));
    cm_par::set_max_threads(0);
    Registry::global().drain();

    let miner = CounterMiner::new(tiny_config());
    let report = miner.analyze(Benchmark::Scan).unwrap();
    let snap = Registry::global().drain();
    cm_obs::set_mode(Mode::Off);

    let json = cm_obs::render_json(&snap);
    // Per-stage spans and counters are present as JSON lines...
    for needle in [
        r#""type":"span","path":"analyze{benchmark=scan}""#,
        r#"/eir""#,
        r#""type":"counter","name":"eir.rounds""#,
        r#""type":"counter","name":"pmu.samples""#,
        r#""type":"label","name":"ml.trainer""#,
    ] {
        assert!(
            json.contains(needle),
            "JSON output missing {needle}:\n{json}"
        );
    }
    // ...including the full per-round CV-error curve.
    let curve_points: Vec<String> = report
        .eir
        .iterations
        .iter()
        .map(|it| format!("[{},{}]", it.n_events, it.error))
        .collect();
    let expected = format!(
        r#""type":"series","name":"eir.cv_error","points":[{}]"#,
        curve_points.join(",")
    );
    assert!(
        json.contains(&expected),
        "JSON output missing EIR curve {expected}:\n{json}"
    );
}

/// The front half cleans every series exactly once: one `analyze` adds
/// runs × events to `cleaner.series`, and so does one cold `ingest`. In
/// `bayes` mode both record the same reconstructed values.
#[test]
fn analyze_and_ingest_clean_every_series_once() {
    let _guard = serialized();
    cm_obs::set_mode(Mode::Summary);
    cm_par::set_max_threads(0);
    for kind in [CleanerKind::Point, CleanerKind::Bayes] {
        let miner = CounterMiner::new(MinerConfig {
            runs_per_benchmark: 2,
            cleaner_kind: kind,
            ..tiny_config()
        });
        Registry::global().drain();
        miner.analyze(Benchmark::Sort).unwrap();
        let analyzed = Registry::global().drain().counters;

        let dir =
            std::env::temp_dir().join(format!("cm_obs_clean_once_{kind}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let mut store = Store::open(dir.join("once.cmstore")).unwrap();
        let summary = miner.ingest(Benchmark::Sort, &mut store).unwrap();
        let ingested = Registry::global().drain().counters;
        let _ = std::fs::remove_dir_all(&dir);
        assert!(!summary.resumed);

        let series = (summary.runs * summary.events) as u64;
        assert_eq!(series, 2 * 14);
        assert_eq!(analyzed.get("cleaner.series"), Some(&series), "{kind:?}");
        assert_eq!(ingested.get("cleaner.series"), Some(&series), "{kind:?}");
        let variance_values = analyzed.get("clean.variance.values");
        assert_eq!(variance_values, ingested.get("clean.variance.values"));
        assert_eq!(
            variance_values.is_some_and(|&n| n > 0),
            kind == CleanerKind::Bayes,
            "{kind:?}: {analyzed:?}"
        );
    }
    cm_obs::set_mode(Mode::Off);
}

#[test]
fn off_mode_records_nothing() {
    let _guard = serialized();
    cm_obs::set_mode(Mode::Off);
    Registry::global().drain();
    let miner = CounterMiner::new(tiny_config());
    miner.analyze(Benchmark::Join).unwrap();
    let snap = Registry::global().drain();
    assert!(snap.counters.is_empty());
    assert!(snap.spans.is_empty());
    assert!(snap.series.is_empty());
    assert!(snap.histograms.is_empty());
}
