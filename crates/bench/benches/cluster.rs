//! Counter-signature clustering hot paths: the warm `cluster_snapshot`
//! route (snapshot load + signature build + seeded k-medoids) and the
//! two `cm_stats::cluster` kernels it leans on.
//!
//! The `signature_build` group is the perf-gate anchor for the
//! `cluster` analysis mode: committed baselines live in
//! `BENCH_cluster.json` and `cm-bench --bin perf_gate` compares fresh
//! runs against them.

use cm_bench::sampler::Sampler;
use cm_sim::ALL_BENCHMARKS;
use cm_stats::cluster::{k_medoids, pairwise_distances};
use cm_store::Store;
use counterminer::{ClusterConfig, CounterMiner, MinerConfig};

/// Synthetic normalized signatures with four planted groups — the same
/// shape (runs × dims) the warm path hands to the kernels.
fn synthetic_signatures(n: usize, dims: usize) -> Vec<Vec<f64>> {
    (0..n)
        .map(|i| {
            (0..dims)
                .map(|d| {
                    let jitter = ((i * 31 + d * 7) % 97) as f64 / 97.0;
                    jitter + (i % 4) as f64 * 1.5
                })
                .collect()
        })
        .collect()
}

fn bench_cluster(s: &mut Sampler) {
    let mut group = s.group("signature_build", 10);

    // The serving-layer hot path: warm clustering from committed
    // snapshots, store reads included.
    let path =
        std::env::temp_dir().join(format!("cm_bench_cluster_{}.cmstore", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let miner = CounterMiner::new(MinerConfig {
        runs_per_benchmark: 2,
        events_to_measure: Some(16),
        ..MinerConfig::default()
    });
    let benchmarks = &ALL_BENCHMARKS[..4];
    let cfg = ClusterConfig {
        k: 2,
        ..ClusterConfig::default()
    };
    let mut store = Store::open(&path).unwrap();
    miner.analyze_cluster(benchmarks, &mut store, &cfg).unwrap();
    group.bench("warm_cluster/4", || {
        miner
            .cluster_snapshot(std::hint::black_box(benchmarks), &store, &cfg)
            .unwrap()
            .expect("snapshots committed")
    });
    drop(store);
    let _ = std::fs::remove_file(&path);

    // The kernels on their own, at the full-suite scale (16 benchmarks
    // x 4 runs) with a typical signature width.
    let n = 64;
    let signatures = synthetic_signatures(n, 34);
    let distances = pairwise_distances(&signatures).unwrap();
    group.bench(format!("pairwise/{n}"), || {
        pairwise_distances(std::hint::black_box(&signatures)).unwrap()
    });
    group.bench(format!("k_medoids/{n}"), || {
        k_medoids(std::hint::black_box(&distances), 4, 0).unwrap()
    });
}

fn main() {
    let mut s = Sampler::from_args("cluster");
    bench_cluster(&mut s);
    s.finish();
}
