//! PMU simulation throughput — the data generator behind Figs. 1–7.

use cm_bench::sampler::Sampler;
use cm_events::EventCatalog;
use cm_sim::{Benchmark, PmuConfig, Workload};

fn bench_pmu(s: &mut Sampler) {
    let catalog = EventCatalog::haswell();
    let workload = Workload::new(Benchmark::Wordcount, &catalog);
    let pmu = PmuConfig::default();
    let mut group = s.group("pmu", 10);
    // 60 is the event count the pipeline measures by default.
    for n_events in [10usize, 36, 60] {
        let events = workload.top_event_ids(&catalog, n_events);
        group.bench(format!("ocoe/{n_events}"), || {
            pmu.simulate_ocoe(&workload, &events, 0, 1)
        });
        group.bench(format!("mlpx/{n_events}"), || {
            pmu.simulate_mlpx(&workload, &events, 0, 1)
        });
    }
}

fn main() {
    let mut s = Sampler::from_args("mlpx_sim");
    bench_pmu(&mut s);
    s.finish();
}
