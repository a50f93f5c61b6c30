//! Co-located workloads (Section V-E): what happens to event importance
//! when two programs share a node.
//!
//! Measures `DataCaching + DataCaching` (homogeneous — behaves like
//! solo) and `DataCaching + GraphAnalytics` (heterogeneous — L2 events
//! surge into the top ranks) on the shared PMU.
//!
//! Run with: `cargo run --release --example colocation`

use cm_events::{EventCatalog, EventId, EventSet};
use cm_ml::SgbrtConfig;
use cm_sim::{Benchmark, ColocatedWorkload, PmuConfig};
use counterminer::{
    clean_runs, collector, CleanerKind, DataCleaner, ImportanceConfig, ImportanceRanker,
};

fn analyze_pair(
    a: Benchmark,
    b: Benchmark,
    catalog: &EventCatalog,
) -> Result<(), Box<dyn std::error::Error>> {
    let pair = ColocatedWorkload::new(a, b, catalog);
    let pmu = PmuConfig::default();

    // Measure the union of both solo profiles, the L2 family, and
    // filler events up to 60.
    let mut events = EventSet::new();
    for bench in [a, b] {
        for abbrev in bench.importance_profile() {
            events.insert(catalog.by_abbrev(abbrev).expect("profile event").id());
        }
    }
    for abbrev in ["L2H", "L2R", "L2C", "L2A", "L2M", "L2S", "BRE"] {
        events.insert(catalog.by_abbrev(abbrev).expect("named event").id());
    }
    for info in catalog.iter() {
        if events.len() >= 60 {
            break;
        }
        events.insert(info.id());
    }

    let runs: Vec<_> = (0..2)
        .map(|i| {
            let truth = pair.generate_run(i, 11);
            pmu.measure_mlpx(&pair, &truth, &events, i, 11)
        })
        .collect();

    let ids: Vec<EventId> = events.iter().collect();
    let cleaned = clean_runs(&DataCleaner::default(), CleanerKind::Point, &runs)?;
    let data = collector::build_dataset(&cleaned.runs, &ids)?;
    let data = collector::normalize_columns(&data)?;
    let eir = ImportanceRanker::new(ImportanceConfig {
        sgbrt: SgbrtConfig {
            n_trees: 80,
            ..SgbrtConfig::default()
        },
        min_events: 20,
        ..ImportanceConfig::default()
    })
    .rank(&data, &ids)?;

    println!("{}:", pair.name());
    let mut l2 = 0;
    for (event, importance) in eir.top(10) {
        let abbrev = catalog.info(*event).abbrev();
        if abbrev.starts_with("L2") {
            l2 += 1;
        }
        print!("  {abbrev}={importance:.1}%");
    }
    println!("\n  -> {l2} L2 events in the top 10\n");
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let catalog = EventCatalog::haswell();
    analyze_pair(Benchmark::DataCaching, Benchmark::DataCaching, &catalog)?;
    analyze_pair(Benchmark::DataCaching, Benchmark::GraphAnalytics, &catalog)?;
    println!(
        "paper: the homogeneous pair ranks like solo DataCaching; the\n\
         heterogeneous pair promotes BRE and six L2 events — mixed\n\
         instruction/data footprints thrash the private caches."
    );
    Ok(())
}
