//! End-to-end tests of the `cluster` analysis mode: ground-truth family
//! recovery, anomaly detection, and the determinism invariants.

use cm_sim::{Benchmark, ALL_BENCHMARKS};
use cm_stats::cluster::adjusted_rand_index;
use cm_store::Store;
use counterminer::{CleanerKind, ClusterConfig, ClusterReport, CounterMiner, MinerConfig};
use std::path::PathBuf;

fn store_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cm_cluster_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn config(seed: u64) -> MinerConfig {
    MinerConfig {
        runs_per_benchmark: 2,
        events_to_measure: Some(28),
        seed,
        ..MinerConfig::default()
    }
}

fn clustered(seed: u64, cluster_cfg: &ClusterConfig) -> ClusterReport {
    let dir = store_dir(&format!("s{seed}_i{}", cluster_cfg.inject_anomalies));
    let mut store = Store::open(dir.join("c.cmstore")).unwrap();
    let miner = CounterMiner::new(config(seed));
    miner
        .analyze_cluster(&ALL_BENCHMARKS, &mut store, cluster_cfg)
        .unwrap()
}

/// The headline acceptance property: over the full 16-benchmark suite,
/// clustering cleaned counter signatures recovers the simulator's
/// ground-truth workload families — adjusted Rand ≥ 0.9 on every one of
/// eight collection seeds.
#[test]
fn cluster_recovers_ground_truth_families_across_seeds() {
    for seed in 0..8 {
        let report = clustered(seed, &ClusterConfig::default());
        let truth: Vec<usize> = report
            .runs
            .iter()
            .map(|r| r.benchmark.family().index())
            .collect();
        let found: Vec<usize> = report.runs.iter().map(|r| r.cluster).collect();
        let ari = adjusted_rand_index(&found, &truth).unwrap();
        assert!(
            ari >= 0.9,
            "seed {seed}: adjusted Rand {ari:.3} (assignments {found:?})"
        );
        // A recovered family structure should also be well separated.
        assert!(
            report.mean_silhouette > 0.15,
            "seed {seed}: mean silhouette {:.3}",
            report.mean_silhouette
        );
    }
}

/// Injected anomalous runs must be flagged with **zero false
/// negatives**, and flagging must stay meaningful (normal runs are not
/// drowned in false positives).
#[test]
fn cluster_flags_every_injected_anomaly() {
    let cfg = ClusterConfig {
        inject_anomalies: 1,
        ..ClusterConfig::default()
    };
    for seed in [0, 7] {
        let report = clustered(seed, &cfg);
        let injected: Vec<_> = report.runs.iter().filter(|r| r.injected).collect();
        assert_eq!(injected.len(), ALL_BENCHMARKS.len());
        for r in &injected {
            assert!(
                r.anomalous,
                "seed {seed}: injected {} run {} not flagged (distance {:.3})",
                r.benchmark, r.run_index, r.medoid_distance
            );
        }
        let false_positives = report
            .runs
            .iter()
            .filter(|r| r.anomalous && !r.injected)
            .count();
        let normals = report.runs.iter().filter(|r| !r.injected).count();
        assert!(
            false_positives * 4 < normals,
            "seed {seed}: {false_positives}/{normals} normal runs flagged"
        );
    }
}

/// Without injection, the calibrated thresholds flag at most a tiny
/// fraction of ordinary runs.
#[test]
fn clean_suites_are_mostly_unflagged() {
    let report = clustered(3, &ClusterConfig::default());
    let flagged = report.anomaly_count();
    assert!(
        flagged * 8 <= report.runs.len(),
        "{flagged}/{} ordinary runs flagged",
        report.runs.len()
    );
}

/// The mode's determinism invariant: bit-identical output at any thread
/// count, and identical whether the snapshots were ingested by the
/// `point` or the `bayes` cleaner (bayes reconstructs the same values
/// and only adds variance).
#[test]
fn cluster_reports_are_bit_identical_across_threads_and_cleaners() {
    let cfg = ClusterConfig {
        inject_anomalies: 1,
        ..ClusterConfig::default()
    };
    let run_with = |threads: usize, kind: CleanerKind, tag: &str| -> ClusterReport {
        cm_par::set_max_threads(threads);
        let dir = store_dir(tag);
        let mut store = Store::open(dir.join("c.cmstore")).unwrap();
        let miner = CounterMiner::new(MinerConfig {
            cleaner_kind: kind,
            ..config(1)
        });
        let report = miner
            .analyze_cluster(&ALL_BENCHMARKS[..8], &mut store, &cfg)
            .unwrap();
        cm_par::set_max_threads(0);
        report
    };
    let t1 = run_with(1, CleanerKind::Point, "t1");
    let t4 = run_with(4, CleanerKind::Point, "t4");
    assert_eq!(t1, t4, "thread count changed the cluster report");
    for (a, b) in t1.runs.iter().zip(&t4.runs) {
        assert_eq!(a.medoid_distance.to_bits(), b.medoid_distance.to_bits());
        assert_eq!(a.silhouette.to_bits(), b.silhouette.to_bits());
    }
    let bayes = run_with(1, CleanerKind::Bayes, "bayes");
    assert_eq!(
        t1, bayes,
        "signature source (point vs bayes cleaning) changed the report"
    );
}

/// Golden pin of a cluster run with injected anomalies: the FNV-1a
/// digest of the report's `Debug` text (bit-equal `f64`s, assignments,
/// medoids, thresholds, flags). The thread and cleaner comparisons above
/// only compare runs of the same code with each other; this digest was
/// recorded before the injected runs were cleaned through the shared
/// front half, and an exact change to collection, cleaning or clustering
/// must keep it.
#[test]
fn cluster_report_with_injected_anomalies_matches_golden_digest() {
    let dir = store_dir("golden");
    let mut store = Store::open(dir.join("c.cmstore")).unwrap();
    let miner = CounterMiner::new(MinerConfig {
        cleaner_kind: CleanerKind::Point,
        ..config(5)
    });
    let cfg = ClusterConfig {
        inject_anomalies: 2,
        ..ClusterConfig::default()
    };
    let report = miner
        .analyze_cluster(&ALL_BENCHMARKS[..8], &mut store, &cfg)
        .unwrap();
    assert_eq!(report.runs.iter().filter(|r| r.injected).count(), 16);
    let digest =
        cm_par::rng::fnv1a_extend(cm_par::rng::FNV1A_OFFSET, format!("{report:?}").as_bytes());
    assert_eq!(digest, 0xfc23_2d61_89d8_2f29, "{digest:#x}");
}

/// The warm path: `cluster_snapshot` is `None` before ingest, and
/// bit-identical to `analyze_cluster` afterwards — all through
/// `&Store`.
#[test]
fn cluster_snapshot_is_warm_only_and_matches() {
    let dir = store_dir("warm");
    let mut store = Store::open(dir.join("c.cmstore")).unwrap();
    let miner = CounterMiner::new(config(2));
    let cfg = ClusterConfig::default();
    let benchmarks = [Benchmark::Wordcount, Benchmark::Sort, Benchmark::Kmeans];
    let small = ClusterConfig { k: 2, ..cfg };
    assert!(miner
        .cluster_snapshot(&benchmarks, &store, &small)
        .unwrap()
        .is_none());
    let cold = miner
        .analyze_cluster(&benchmarks, &mut store, &small)
        .unwrap();
    let warm = miner
        .cluster_snapshot(&benchmarks, &store, &small)
        .unwrap()
        .expect("snapshots committed");
    assert_eq!(cold, warm);
}

/// Degenerate inputs surface as typed errors, never panics.
#[test]
fn cluster_validates_inputs() {
    let dir = store_dir("valid");
    let mut store = Store::open(dir.join("c.cmstore")).unwrap();
    let miner = CounterMiner::new(config(0));
    let err = miner
        .analyze_cluster(&[], &mut store, &ClusterConfig::default())
        .unwrap_err();
    assert!(err.to_string().contains("at least one benchmark"));
    // k larger than the run count is a typed stats error.
    let cfg = ClusterConfig {
        k: 50,
        ..ClusterConfig::default()
    };
    let err = miner
        .analyze_cluster(&[Benchmark::Scan], &mut store, &cfg)
        .unwrap_err();
    assert!(matches!(err, counterminer::CmError::Stats(_)), "{err}");
}
