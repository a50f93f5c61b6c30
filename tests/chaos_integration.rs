//! Chaos integration: the full ingest → clean → rank pipeline under
//! seeded adversarial inputs and injected store faults.
//!
//! The invariant, for every seed: **typed error or correct result —
//! never a panic, never a NaN in a ranking, never a torn store after
//! recovery.** Each sweep runs 64 seeds; a failure names the seed, and
//! replaying it reproduces the exact same inputs and fault schedule.

use cm_chaos::{gen, FaultFs};
use cm_events::TimeSeries;
use cm_ml::{SgbrtConfig, TreeConfig};
use cm_par::Rng;
use cm_sim::Benchmark;
use cm_store::{CacheConfig, Store};
use counterminer::{CounterMiner, DataCleaner, ImportanceConfig, MinerConfig};
use std::path::PathBuf;
use std::sync::Arc;

const SEEDS: u64 = 64;

/// Small enough that 64 full pipeline runs stay inside the CI budget,
/// real enough that collection, cleaning, EIR, and interactions all run.
fn tiny_config(seed: u64) -> MinerConfig {
    MinerConfig {
        runs_per_benchmark: 1,
        events_to_measure: Some(12),
        importance: ImportanceConfig {
            sgbrt: SgbrtConfig {
                n_trees: 12,
                tree: TreeConfig {
                    max_depth: 2,
                    ..TreeConfig::default()
                },
                ..SgbrtConfig::default()
            },
            prune_step: 4,
            min_events: 8,
            ..ImportanceConfig::default()
        },
        interaction_top_k: 3,
        seed,
        ..MinerConfig::default()
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cm_chaos_integ_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The cleaner over every adversarial series shape: either a typed
/// error or an all-finite cleaned series. NaN must never leak through.
#[test]
fn cleaner_survives_adversarial_series() {
    let cleaner = DataCleaner::default();
    for seed in 0..SEEDS {
        let mut rng = Rng::new(seed);
        for _ in 0..8 {
            let (shape, values) = gen::any_series(&mut rng);
            match cleaner.clean_series(&TimeSeries::from_values(values)) {
                Err(_) => {} // typed rejection: acceptable
                Ok((clean, report)) => {
                    assert!(
                        clean.values().iter().all(|v| v.is_finite()),
                        "seed {seed} {shape:?}: non-finite value in cleaned output"
                    );
                    assert!(
                        report.threshold.is_finite(),
                        "seed {seed} {shape:?}: non-finite threshold"
                    );
                }
            }
        }
    }
}

/// The full store-backed pipeline under injected I/O faults, 64 seeds:
/// zero panics, zero NaN importance, typed errors for injected faults.
#[test]
fn pipeline_survives_store_faults() {
    let dir = temp_dir("pipeline");
    let mut completed = 0u32;
    let mut injected_total = 0u64;

    for seed in 0..SEEDS {
        let path = dir.join(format!("p{seed}.cmstore"));
        let fs = Arc::new(FaultFs::new(seed));
        let miner = CounterMiner::new(tiny_config(seed));

        let outcome = (|| {
            let mut store = Store::open_with_vfs(&path, CacheConfig::default(), fs.clone())?;
            miner.analyze_with_store(Benchmark::Wordcount, &mut store)
        })();
        injected_total += fs.injected();

        match outcome {
            Err(_) => {} // typed pipeline/store error: acceptable
            Ok(report) => {
                completed += 1;
                assert!(
                    !report.eir.ranking.is_empty(),
                    "seed {seed}: empty ranking on success"
                );
                for &(event, importance) in &report.eir.ranking {
                    assert!(
                        importance.is_finite(),
                        "seed {seed}: NaN/inf importance for {event}"
                    );
                }
                for pair in &report.interactions {
                    assert!(
                        pair.intensity.is_finite() && pair.share.is_finite(),
                        "seed {seed}: non-finite interaction strength"
                    );
                }
            }
        }

        // Recovery: with faults disarmed, the store path either opens
        // to a usable store or reports typed corruption — never a torn
        // state that panics or decodes garbage.
        fs.disarm();
        match Store::open_with_vfs(&path, CacheConfig::default(), fs.clone()) {
            Err(_) => {}
            Ok(recovered) => {
                for key in recovered.series_keys().cloned().collect::<Vec<_>>() {
                    match recovered.read_series(&key) {
                        Err(_) => {} // typed corruption report
                        Ok(values) => assert!(
                            values.iter().all(|v| v.is_finite()),
                            "seed {seed}: recovered store yields non-finite samples"
                        ),
                    }
                }
            }
        }
    }

    assert!(injected_total > 0, "no seed injected any fault");
    assert!(completed > 0, "no seed completed the pipeline");
    assert!(
        completed < SEEDS as u32,
        "every seed completed — faults never reached the pipeline"
    );
}

/// Warm resume after a chaotic cold run: whatever the faults did, a
/// clean re-run against the same store must produce a NaN-free result
/// identical to a from-scratch analysis (the store never poisons it).
#[test]
fn chaotic_cold_run_never_poisons_a_clean_rerun() {
    let dir = temp_dir("rerun");
    for seed in [3u64, 17, 29, 41] {
        let path = dir.join(format!("r{seed}.cmstore"));
        let fs = Arc::new(FaultFs::new(seed));
        let miner = CounterMiner::new(tiny_config(0));
        // Cold run under fire; the outcome does not matter.
        let _ = (|| {
            let mut store = Store::open_with_vfs(&path, CacheConfig::default(), fs.clone())?;
            miner.analyze_with_store(Benchmark::Sort, &mut store)
        })();

        // Clean re-run through the real filesystem. It may resume from
        // a committed snapshot or re-collect; either way the result
        // must match an untouched baseline.
        let rerun = (|| {
            let mut store = Store::open(&path)?;
            let miner = CounterMiner::new(tiny_config(0));
            miner.analyze_with_store(Benchmark::Sort, &mut store)
        })();
        match rerun {
            Err(_) => {} // typed corruption surfaced: acceptable
            Ok(report) => {
                let baseline_miner = CounterMiner::new(tiny_config(0));
                let baseline = baseline_miner.analyze(Benchmark::Sort).unwrap();
                assert_eq!(
                    report.eir.ranking, baseline.eir.ranking,
                    "seed {seed}: chaotic store changed the ranking"
                );
            }
        }
    }
}
