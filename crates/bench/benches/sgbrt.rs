//! SGBRT training and prediction — the Fig. 8–10 model kernel.

use cm_bench::sampler::Sampler;
use cm_ml::{BinnedDataset, Dataset, SgbrtConfig, Trainer, MAX_BINS};
use cm_par::Rng;

fn dataset(rows: usize, features: usize) -> Dataset {
    let mut rng = Rng::new(1);
    let data: Vec<Vec<f64>> = (0..rows)
        .map(|_| (0..features).map(|_| rng.range_f64(-1.0..1.0)).collect())
        .collect();
    let y: Vec<f64> = data
        .iter()
        .map(|r| 2.0 - r[0] - 0.4 * r[1] * r[1] + 0.1 * r[2])
        .collect();
    Dataset::new(data, y).unwrap()
}

fn bench_sgbrt(s: &mut Sampler) {
    let mut group = s.group("sgbrt", 10);
    for features in [20usize, 60] {
        let data = dataset(400, features);
        let config = SgbrtConfig {
            n_trees: 50,
            ..SgbrtConfig::default()
        };
        group.bench(format!("fit_400rows/{features}"), || {
            config.fit(std::hint::black_box(&data)).unwrap()
        });
    }
    let data = dataset(400, 20);
    let model = SgbrtConfig::default().fit(&data).unwrap();
    group.bench("predict_batch_400", || {
        model.predict_batch(std::hint::black_box(data.rows()))
    });
}

/// Serial (1 worker) vs. parallel (all cores) training and prediction —
/// results are bit-identical, only the wall clock changes.
fn bench_sgbrt_threads(s: &mut Sampler) {
    let mut group = s.group("sgbrt_threads", 10);
    let data = dataset(400, 60);
    let config = SgbrtConfig {
        n_trees: 50,
        ..SgbrtConfig::default()
    };
    let model = config.fit(&data).unwrap();
    // Serial and parallel samples alternate, so host drift cannot favour
    // either side of the pair.
    let budgets = [1usize, 0];
    let budget = |j: usize| cm_par::set_max_threads(budgets[j]);
    group.bench_interleaved(
        &["fit_400x60/serial", "fit_400x60/parallel"],
        budget,
        |_| config.fit(std::hint::black_box(&data)).unwrap(),
    );
    group.bench_interleaved(
        &["predict_batch/serial", "predict_batch/parallel"],
        budget,
        |_| model.predict_batch(std::hint::black_box(data.rows())),
    );
    cm_par::set_max_threads(0);
}

/// Exact threshold scan vs. histogram bins on an EIR-sized problem
/// (2000 intervals × 60 events — one pruning round's retrain), plus the
/// one-off binning cost the EIR loop amortizes across rounds.
fn bench_trainers(s: &mut Sampler) {
    let mut group = s.group("sgbrt_trainers", 10);
    let data = dataset(2000, 60);
    for (label, trainer) in [("exact", Trainer::Exact), ("hist", Trainer::Hist)] {
        let config = SgbrtConfig {
            n_trees: 50,
            trainer,
            ..SgbrtConfig::default()
        };
        group.bench(format!("fit_2000x60/{label}"), || {
            config.fit(std::hint::black_box(&data)).unwrap()
        });
    }
    group.bench("bin_2000x60", || {
        BinnedDataset::from_dataset(std::hint::black_box(&data), MAX_BINS)
    });
    let binned = BinnedDataset::from_dataset(&data, MAX_BINS);
    let config = SgbrtConfig {
        n_trees: 50,
        trainer: Trainer::Hist,
        ..SgbrtConfig::default()
    };
    group.bench("fit_binned_2000x60", || {
        config
            .fit_binned(std::hint::black_box(&binned.view()), data.targets())
            .unwrap()
    });
}

/// Per-row `Vec` rows vs. one packed flat buffer — the allocation the
/// interaction sweeps used to pay per probe row.
fn bench_predict_flat(s: &mut Sampler) {
    let mut group = s.group("sgbrt_predict", 10);
    let data = dataset(2000, 60);
    let model = SgbrtConfig {
        n_trees: 50,
        ..SgbrtConfig::default()
    }
    .fit(&data)
    .unwrap();
    let flat: Vec<f64> = data.rows().iter().flatten().copied().collect();
    group.bench("predict_batch_nested_2000x60", || {
        model.predict_batch(std::hint::black_box(data.rows()))
    });
    group.bench("predict_batch_flat_2000x60", || {
        model.predict_batch_flat(std::hint::black_box(&flat))
    });
}

fn main() {
    let mut s = Sampler::from_args("sgbrt");
    bench_sgbrt(&mut s);
    bench_sgbrt_threads(&mut s);
    bench_trainers(&mut s);
    bench_predict_flat(&mut s);
    s.finish();
}
