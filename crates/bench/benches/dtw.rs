//! DTW benchmarks — the error-metric kernel behind Figs. 1, 6, 7.

use cm_bench::sampler::Sampler;
use cm_stats::dtw;

fn series(n: usize, phase: f64) -> Vec<f64> {
    (0..n)
        .map(|i| (i as f64 * 0.05 + phase).sin() * 100.0 + ((i * 31) % 17) as f64)
        .collect()
}

fn bench_dtw(s: &mut Sampler) {
    let mut group = s.group("dtw", 20);
    for n in [128usize, 256, 512] {
        let a = series(n, 0.0);
        let b = series(n + n / 10, 0.4);
        group.bench(format!("exact/{n}"), || {
            dtw::distance(std::hint::black_box(&a), std::hint::black_box(&b))
        });
    }
}

fn main() {
    let mut s = Sampler::from_args("dtw");
    bench_dtw(&mut s);
    s.finish();
}
