//! Event distribution audit (Section III-B's statistical groundwork).
//!
//! Measures a batch of events OCOE-style, runs the Anderson–Darling
//! normality test on every series, and — for the non-Gaussian ones —
//! compares GEV, Gumbel, and logistic fits, reproducing the paper's
//! observation that event values split into Gaussian and GEV-like
//! long-tail families. Also demonstrates persisting the measured runs in
//! a `.cmstore` file and reading the first-level summary back.
//!
//! Run with: `cargo run --release --example event_audit`

use cm_events::{EventCatalog, SampleMode};
use cm_sim::{Benchmark, PmuConfig, Workload};
use cm_stats::anderson::{self, TailCandidate};
use cm_store::Store;
use counterminer::collector;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let catalog = EventCatalog::haswell();
    let workload = Workload::new(Benchmark::Kmeans, &catalog);
    let pmu = PmuConfig::default();
    let events = workload.top_event_ids(&catalog, 40);

    let runs = collector::collect_runs(&workload, &events, SampleMode::Ocoe, 1, &pmu, 5);
    let run = &runs[0];

    let mut gaussian = 0usize;
    let mut long_tail = 0usize;
    let mut gev_best = 0usize;
    for (event, series) in run.record.iter() {
        let info = catalog.info(event);
        match anderson::normality_test(series.values()) {
            Ok(result) if result.is_normal() => gaussian += 1,
            Ok(_) => {
                long_tail += 1;
                if let Ok(fits) = anderson::best_tail_fit(series.values()) {
                    if fits[0].0 == TailCandidate::Gev {
                        gev_best += 1;
                    }
                    println!(
                        "  {:<4} {:<44} long-tail, best fit {:?} (A2 = {:.2})",
                        info.abbrev(),
                        info.name(),
                        fits[0].0,
                        fits[0].1
                    );
                }
            }
            Err(e) => println!("  {:<4} untestable: {e}", info.abbrev()),
        }
    }
    println!("\n{gaussian} Gaussian series, {long_tail} long-tail ({gev_best} best fit by GEV)");
    println!("paper: of 229 events, 100 were Gaussian and 129 long-tail, GEV fitting best");

    // Persist and reopen through the columnar store.
    let dir = std::env::temp_dir().join("counterminer_event_audit");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join("audit.cmstore");
    let _ = std::fs::remove_file(&path);
    let mut store = Store::open(&path)?;
    for run in &runs {
        store.append_run(&run.record)?;
    }
    store.commit()?;
    let loaded = Store::open(&path)?;
    let summary = loaded.summary(Benchmark::Kmeans.name()).expect("stored");
    println!(
        "\nstore round-trip: {} run(s) of {} with {} events, tables {:?}",
        summary.run_count,
        summary.program,
        summary.events.len(),
        summary.table_names
    );
    std::fs::remove_dir_all(&dir)?;
    Ok(())
}
