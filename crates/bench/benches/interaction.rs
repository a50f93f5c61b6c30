//! Interaction-ranking cost — the Fig. 11/12 pipeline stage.

use cm_bench::sampler::Sampler;
use cm_events::EventId;
use cm_ml::{Dataset, SgbrtConfig};
use cm_par::Rng;
use counterminer::InteractionRanker;

fn bench_interaction(s: &mut Sampler) {
    let mut group = s.group("interaction", 10);
    let mut rng = Rng::new(3);
    let rows: Vec<Vec<f64>> = (0..300)
        .map(|_| (0..12).map(|_| rng.range_f64(-1.0..1.0)).collect())
        .collect();
    let y: Vec<f64> = rows.iter().map(|r| r[0] * r[1] + r[2]).collect();
    let data = Dataset::new(rows, y).unwrap();
    let events: Vec<EventId> = (0..12).map(EventId::new).collect();
    let model = SgbrtConfig {
        n_trees: 50,
        ..SgbrtConfig::default()
    }
    .fit(&data)
    .unwrap();

    // Serial (1 worker) vs. parallel (all cores) over the same pair
    // loop — identical rankings, different wall clock.
    let top = &events[..8];
    for (label, threads) in [("serial", 1usize), ("parallel", 0)] {
        cm_par::set_max_threads(threads);
        group.bench(format!("rank_pairs_additive_8ev/{label}"), || {
            InteractionRanker::new()
                .rank_pairs_additive(&model, &events, std::hint::black_box(&data), top)
                .unwrap()
        });
    }
    cm_par::set_max_threads(0);
}

fn main() {
    let mut s = Sampler::from_args("interaction");
    bench_interaction(&mut s);
    s.finish();
}
