//! EIR importance-ranking cost — the Fig. 9/10 pipeline stage.

use cm_bench::sampler::Sampler;
use cm_events::EventId;
use cm_ml::{Dataset, SgbrtConfig, Trainer};
use cm_par::Rng;
use counterminer::{ImportanceConfig, ImportanceRanker};

/// Uniform features and a noisy target drawn from the first 24 columns
/// with graded weights `0.85^k`. EIR prunes the weakest weighted columns
/// in its later rounds, and the noise lets deep splits land on columns a
/// round prunes, so a round takes over about as few of the previous
/// round's trees as it does on simulator data.
fn dataset(rows: usize, features: usize) -> (Dataset, Vec<EventId>) {
    let mut rng = Rng::new(2);
    let data: Vec<Vec<f64>> = (0..rows)
        .map(|_| (0..features).map(|_| rng.range_f64(-1.0..1.0)).collect())
        .collect();
    let y: Vec<f64> = data
        .iter()
        .map(|r| {
            let signal: f64 = (r.iter().take(24).enumerate())
                .map(|(k, &x)| 0.85f64.powi(k as i32) * x)
                .sum();
            1.5 - signal + 2.0 * rng.range_f64(-1.0..1.0)
        })
        .collect();
    (
        Dataset::new(data, y).unwrap(),
        (0..features).map(EventId::new).collect(),
    )
}

fn bench_importance(s: &mut Sampler) {
    let mut group = s.group("importance", 10);
    for features in [20usize, 40] {
        let (data, events) = dataset(300, features);
        let ranker = ImportanceRanker::new(ImportanceConfig {
            sgbrt: SgbrtConfig {
                n_trees: 30,
                ..SgbrtConfig::default()
            },
            prune_step: 10,
            min_events: 10,
            ..ImportanceConfig::default()
        });
        group.bench(format!("eir/{features}"), || {
            ranker.rank(std::hint::black_box(&data), &events).unwrap()
        });
    }
}

/// Serial (1 worker) vs. parallel (all cores) EIR — identical rankings,
/// different wall clock.
fn bench_importance_threads(s: &mut Sampler) {
    let mut group = s.group("importance_threads", 10);
    let (data, events) = dataset(300, 40);
    let ranker = ImportanceRanker::new(ImportanceConfig {
        sgbrt: SgbrtConfig {
            n_trees: 30,
            ..SgbrtConfig::default()
        },
        prune_step: 10,
        min_events: 10,
        ..ImportanceConfig::default()
    });
    // Serial and parallel samples alternate, so host drift cannot favour
    // either side of the pair.
    let budgets = [1usize, 0];
    group.bench_interleaved(
        &["eir_40ev/serial", "eir_40ev/parallel"],
        |j| cm_par::set_max_threads(budgets[j]),
        |_| ranker.rank(std::hint::black_box(&data), &events).unwrap(),
    );
    cm_par::set_max_threads(0);
}

/// Full EIR under each trainer: the hist path bins once and retrains
/// every pruning round on zero-copy column views of the shared binning.
fn bench_importance_trainers(s: &mut Sampler) {
    let mut group = s.group("importance_trainers", 10);
    let (data, events) = dataset(1000, 60);
    for (label, trainer) in [("exact", Trainer::Exact), ("hist", Trainer::Hist)] {
        let ranker = ImportanceRanker::new(ImportanceConfig {
            sgbrt: SgbrtConfig {
                n_trees: 50,
                trainer,
                ..SgbrtConfig::default()
            },
            prune_step: 10,
            min_events: 20,
            ..ImportanceConfig::default()
        });
        group.bench(format!("eir_1000x60/{label}"), || {
            ranker.rank(std::hint::black_box(&data), &events).unwrap()
        });
    }
}

fn main() {
    let mut s = Sampler::from_args("importance");
    bench_importance(&mut s);
    bench_importance_threads(&mut s);
    bench_importance_trainers(&mut s);
    s.finish();
}
