//! Data-cleaner throughput — the Fig. 5/6 machinery.

use cm_bench::sampler::Sampler;
use cm_events::TimeSeries;
use counterminer::{CleanerConfig, DataCleaner};

/// A dirty series: steady level, bursts, a few spikes and zeros.
fn dirty_series(n: usize) -> TimeSeries {
    let mut v: Vec<f64> = (0..n)
        .map(|i| 1000.0 + ((i * 37) % 101) as f64 * 4.0)
        .collect();
    for i in (7..n).step_by(59) {
        v[i] = 25_000.0; // spike
    }
    for i in (13..n).step_by(47) {
        v[i] = 0.0; // missing
    }
    TimeSeries::from_values(v)
}

fn bench_cleaning(s: &mut Sampler) {
    let mut group = s.group("cleaning", 30);
    let cleaner = DataCleaner::new(CleanerConfig::default());
    for n in [256usize, 512, 1024] {
        let series = dirty_series(n);
        group.bench(format!("clean_series/{n}"), || {
            cleaner.clean_series(std::hint::black_box(&series)).unwrap()
        });
    }
}

/// The cleaner's per-series normality test at the length of one
/// benchmark run (~425 intervals).
fn bench_anderson(s: &mut Sampler) {
    let mut group = s.group("anderson", 30);
    let series = dirty_series(425);
    group.bench("425", || {
        cm_stats::anderson::normality_test(std::hint::black_box(series.values())).unwrap()
    });
}

fn main() {
    let mut s = Sampler::from_args("cleaning");
    bench_cleaning(&mut s);
    bench_anderson(&mut s);
    s.finish();
}
