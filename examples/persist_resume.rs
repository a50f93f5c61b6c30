//! Persist once, analyze many times: the columnar store as a pipeline
//! snapshot.
//!
//! The expensive half of CounterMiner is measurement and cleaning; the
//! interesting half — modeling, importance ranking — is what gets
//! re-run while iterating. This example ingests one benchmark into a
//! persistent columnar store (`.cmstore` file), then runs the analysis
//! twice against it: the first run is *cold* (collects, cleans,
//! commits), the second is *warm* (resumes from the persisted cleaned
//! series, skipping PMU simulation and cleaning) and produces
//! bit-identical rankings. The cm-obs counters printed at the end prove
//! which stages actually ran.
//!
//! Run with: `cargo run --release --example persist_resume`

use cm_ml::SgbrtConfig;
use cm_obs::{Mode, Registry};
use cm_sim::Benchmark;
use cm_store::Store;
use counterminer::{CounterMiner, ImportanceConfig, MinerConfig};
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let config = MinerConfig {
        runs_per_benchmark: 2,
        events_to_measure: Some(60),
        importance: ImportanceConfig {
            sgbrt: SgbrtConfig {
                n_trees: 80,
                ..SgbrtConfig::default()
            },
            prune_step: 10,
            min_events: 20,
            ..ImportanceConfig::default()
        },
        ..MinerConfig::default()
    };

    let dir = std::env::temp_dir().join(format!("cm_persist_resume_{}", std::process::id()));
    std::fs::create_dir_all(&dir)?;
    let path = dir.join("wordcount.cmstore");
    let _ = std::fs::remove_file(&path);

    // Count stage activity so the resume is visible, not just asserted.
    cm_obs::set_mode(Mode::Summary);

    // Cold: collect, clean, persist, model.
    let mut store = Store::open(&path)?;
    let miner = CounterMiner::new(config);
    Registry::global().drain();
    let started = Instant::now();
    let cold = miner.analyze_with_store(Benchmark::Wordcount, &mut store)?;
    let cold_time = started.elapsed();
    let cold_obs = Registry::global().drain();

    // Warm: a brand-new store handle (think: a later process) resumes
    // from the committed snapshot.
    drop(store);
    let mut store = Store::open(&path)?;
    let miner = CounterMiner::new(config);
    let started = Instant::now();
    let warm = miner.analyze_with_store(Benchmark::Wordcount, &mut store)?;
    let warm_time = started.elapsed();
    let warm_obs = Registry::global().drain();
    cm_obs::set_mode(Mode::Off);

    let info = store.info();
    println!(
        "store {}: {} series, {} values, {} bytes on disk",
        path.display(),
        info.series,
        info.total_values,
        info.file_bytes
    );
    println!(
        "cold analyze: {cold_time:.1?} (collected {} run(s), {} PMU samples)",
        cold_obs.counters.get("collector.runs").unwrap_or(&0),
        cold_obs.counters.get("pmu.samples").unwrap_or(&0),
    );
    println!(
        "warm analyze: {warm_time:.1?} (collected {} run(s), {} PMU samples — resumed from the store)",
        warm_obs.counters.get("collector.runs").unwrap_or(&0),
        warm_obs.counters.get("pmu.samples").unwrap_or(&0),
    );

    assert_eq!(cold.eir.ranking, warm.eir.ranking);
    println!("\nrankings are bit-identical; top 5 events:");
    for (event, importance) in warm.eir.top(5) {
        let info = miner.catalog().info(*event);
        println!(
            "  {:<4} {:<44} {:5.1}%",
            info.abbrev(),
            info.name(),
            importance
        );
    }
    Ok(())
}
