//! Ablation benchmarks for the design choices DESIGN.md calls out:
//! KNN k, outlier-threshold n, EIR prune step.

use cm_bench::sampler::Sampler;
use cm_events::{EventId, TimeSeries};
use cm_ml::{Dataset, SgbrtConfig};
use cm_par::Rng;
use counterminer::{CleanerConfig, DataCleaner, ImportanceConfig, ImportanceRanker};

fn dirty_series(n: usize) -> TimeSeries {
    let mut v: Vec<f64> = (0..n).map(|i| 500.0 + ((i * 53) % 89) as f64).collect();
    for i in (5..n).step_by(37) {
        v[i] = 0.0;
    }
    for i in (11..n).step_by(83) {
        v[i] = 9_000.0;
    }
    TimeSeries::from_values(v)
}

fn bench_knn_k(s: &mut Sampler) {
    let mut group = s.group("ablation_knn_k", 20);
    let series = dirty_series(512);
    for k in [3usize, 5, 8] {
        let cleaner = DataCleaner::new(CleanerConfig {
            knn_k: k,
            ..CleanerConfig::default()
        });
        group.bench(k, || {
            cleaner.clean_series(std::hint::black_box(&series)).unwrap()
        });
    }
}

fn bench_threshold_n(s: &mut Sampler) {
    let mut group = s.group("ablation_threshold_n", 20);
    let series = dirty_series(512);
    for n in [3.0f64, 5.0, 7.0] {
        let cleaner = DataCleaner::new(CleanerConfig {
            fixed_n: Some(n),
            ..CleanerConfig::default()
        });
        group.bench(n as u32, || {
            cleaner.clean_series(std::hint::black_box(&series)).unwrap()
        });
    }
}

fn bench_prune_step(s: &mut Sampler) {
    let mut group = s.group("ablation_eir_prune_step", 10);
    let mut rng = Rng::new(4);
    let rows: Vec<Vec<f64>> = (0..250)
        .map(|_| (0..30).map(|_| rng.range_f64(-1.0..1.0)).collect())
        .collect();
    let y: Vec<f64> = rows.iter().map(|r| 1.0 - r[0]).collect();
    let data = Dataset::new(rows, y).unwrap();
    let events: Vec<EventId> = (0..30).map(EventId::new).collect();
    for step in [5usize, 10, 20] {
        let ranker = ImportanceRanker::new(ImportanceConfig {
            sgbrt: SgbrtConfig {
                n_trees: 25,
                ..SgbrtConfig::default()
            },
            prune_step: step,
            min_events: 10,
            ..ImportanceConfig::default()
        });
        group.bench(step, || {
            ranker.rank(std::hint::black_box(&data), &events).unwrap()
        });
    }
}

fn main() {
    let mut s = Sampler::from_args("ablations");
    bench_knn_k(&mut s);
    bench_threshold_n(&mut s);
    bench_prune_step(&mut s);
    s.finish();
}
