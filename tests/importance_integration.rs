//! Importance-ranking integration: the EIR pipeline must recover the
//! simulator's ground-truth importance structure from dirty multiplexed
//! data.

use cm_events::EventId;
use cm_ml::SgbrtConfig;
use cm_sim::{global_noise_events, Benchmark};
use counterminer::{CounterMiner, ImportanceConfig, MinerConfig};

fn config(seed: u64) -> MinerConfig {
    MinerConfig {
        runs_per_benchmark: 2,
        events_to_measure: Some(30),
        importance: ImportanceConfig {
            sgbrt: SgbrtConfig {
                n_trees: 60,
                ..SgbrtConfig::default()
            },
            prune_step: 5,
            min_events: 15,
            seed,
            ..ImportanceConfig::default()
        },
        seed,
        ..MinerConfig::default()
    }
}

#[test]
fn dominant_profile_events_surface() {
    // Sort has two clearly dominant events (ORO, IDU): at least one must
    // make the recovered top-3 from 30 measured events.
    let miner = CounterMiner::new(config(2));
    let report = miner.analyze(Benchmark::Sort).unwrap();
    let top3: Vec<&str> = report
        .eir
        .top(3)
        .iter()
        .map(|&(e, _)| miner.catalog().info(e).abbrev())
        .collect();
    let dominant = &Benchmark::Sort.importance_profile()[..2];
    assert!(
        top3.iter().any(|a| dominant.contains(a)),
        "top-3 {top3:?} missed both of {dominant:?}"
    );
}

#[test]
fn one_three_smi_law_holds() {
    // The leading events' importance clearly exceeds the mid-ranking
    // tail (the paper's one-three SMI law).
    let miner = CounterMiner::new(config(3));
    let report = miner.analyze(Benchmark::Wordcount).unwrap();
    let ranking = &report.eir.ranking;
    let head = ranking[0].1;
    let mid: f64 = ranking[5..10.min(ranking.len())]
        .iter()
        .map(|&(_, v)| v)
        .sum::<f64>()
        / 5.0;
    assert!(
        head > 1.5 * mid,
        "no dominance: head {head:.1}% vs mid {mid:.1}%"
    );
}

#[test]
fn eir_curve_records_every_iteration_and_mapm_is_best() {
    let miner = CounterMiner::new(config(4));
    let report = miner.analyze(Benchmark::Kmeans).unwrap();
    let errors: Vec<f64> = report.eir.iterations.iter().map(|i| i.error).collect();
    let best = report.eir.best_error();
    assert!(errors.iter().all(|&e| e >= best - 1e-12));
    assert_eq!(report.eir.iterations[report.eir.best_iteration].error, best);
    // The MAPM achieves a sane relative error on held-out data.
    assert!(best < 0.35, "MAPM error {best:.2} is implausibly high");
}

#[test]
fn noise_events_lose_to_dominant_events() {
    // Measure a set containing both the benchmark profile and known
    // ground-truth noise events: the noise events must not out-rank the
    // dominant profile event.
    let miner = CounterMiner::new(config(5));
    let report = miner.analyze(Benchmark::Aggregation).unwrap();
    let catalog = miner.catalog();
    let noise: Vec<EventId> = global_noise_events(catalog);

    let dominant_abbrev = Benchmark::Aggregation.importance_profile()[0];
    let dominant_id = catalog.by_abbrev(dominant_abbrev).unwrap().id();
    let rank_of = |id: EventId| report.eir.ranking.iter().position(|&(e, _)| e == id);
    let dominant_rank = match rank_of(dominant_id) {
        Some(r) => r,
        // The dominant event may not even be in the measured 30; then
        // there is nothing to compare.
        None => return,
    };
    let noise_better = noise
        .iter()
        .filter_map(|&id| rank_of(id))
        .filter(|&r| r < dominant_rank)
        .count();
    assert!(
        noise_better <= 1,
        "{noise_better} pure-noise events outranked the dominant event"
    );
}

/// Golden pin of `analyze` across the whole suite: the FNV-1a digest of
/// each report's `Debug` text, folded over all 16 benchmarks. Every
/// analysis runs three EIR rounds (40, 30 and 20 events), so rounds
/// after the first train next to the previous round's forest. `f64`
/// debug-prints its shortest round-trip form, so an equal digest means
/// bit-equal reports: rankings, error curves, MAPM trees and
/// interactions. Recorded before EIR rounds took over the previous
/// round's leading trees, which the run must now do; an exact change to
/// training must keep the digest.
#[test]
fn suite_analyses_match_golden_digest() {
    let config = MinerConfig {
        runs_per_benchmark: 1,
        events_to_measure: Some(40),
        importance: ImportanceConfig {
            sgbrt: SgbrtConfig {
                n_trees: 30,
                ..SgbrtConfig::default()
            },
            ..ImportanceConfig::default()
        },
        interaction_top_k: 4,
        seed: 23,
        ..MinerConfig::default()
    };
    let miner = CounterMiner::new(config);
    cm_obs::set_mode(cm_obs::Mode::Summary);
    cm_obs::Registry::global().drain();
    let mut digests = Vec::new();
    for threads in [1, 2] {
        cm_par::set_max_threads(threads);
        let mut digest = cm_par::rng::FNV1A_OFFSET;
        for benchmark in cm_sim::ALL_BENCHMARKS {
            let report = miner.analyze(benchmark).unwrap();
            let rounds: Vec<usize> = report.eir.iterations.iter().map(|i| i.n_events).collect();
            assert_eq!(rounds, [40, 30, 20], "{benchmark:?}");
            digest = cm_par::rng::fnv1a_extend(digest, format!("{report:?}").as_bytes());
        }
        digests.push(digest);
    }
    cm_par::set_max_threads(0);
    let counters = cm_obs::Registry::global().drain().counters;
    cm_obs::set_mode(cm_obs::Mode::Off);
    assert_eq!(digests, [0x8e07_baa1_b68f_0ee2; 2], "{digests:#x?}");
    let reused = counters.get("ml.trees_reused").copied().unwrap_or(0);
    assert!(reused > 0, "no EIR round took a tree over: {counters:?}");
}
