//! Golden digests of the simulator's outputs.
//!
//! Every simulated series is a pure function of `(benchmark, run index,
//! seed, PMU config)`. These tests fold the f64 bits of whole families
//! of outputs — all sixteen benchmarks, two runs, sixty measured events,
//! two seeds — into FNV-1a digests pinned to the values the simulator
//! produced before its generation and measurement loops were optimised.
//! A speed-up that changes a single bit of any measured value, ground
//! truth, IPC sample, execution time or PMU tally fails here.

use cm_events::EventCatalog;
use cm_obs::{Mode, Registry};
use cm_sim::{
    Extrapolation, GeneratedRun, PmuConfig, Scheduling, SimRun, Workload, ALL_BENCHMARKS,
};
use std::sync::{Mutex, MutexGuard};

const SEEDS: [u64; 2] = [7, 1_000_003];
const RUNS: u32 = 2;
const EVENTS: usize = 60;

/// The observability registry is process-global and every test here
/// adds to `pmu.*` counters: run them one at a time.
static LOCK: Mutex<()> = Mutex::new(());

fn serialized() -> MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn f64s(&mut self, xs: impl IntoIterator<Item = f64>) {
        let mut len = 0u64;
        for x in xs {
            self.u64(x.to_bits());
            len += 1;
        }
        self.u64(len);
    }

    fn sim_run(&mut self, run: &SimRun) {
        self.u64(run.record.event_count() as u64);
        for (event, series) in run.record.iter() {
            self.u64(event.index() as u64);
            self.f64s(series.iter());
        }
        self.f64s(run.ipc.iter());
        for (event, series) in &run.true_counts {
            self.u64(event.index() as u64);
            self.f64s(series.iter());
        }
        self.u64(run.record.exec_time_secs().to_bits());
    }

    fn generated(&mut self, run: &GeneratedRun) {
        self.u64(run.intervals as u64);
        for series in run.counts.iter().chain(&run.z) {
            self.f64s(series.iter().copied());
        }
        self.f64s(run.ipc.iter().copied());
        self.u64(run.exec_secs.to_bits());
    }
}

/// Measures every benchmark × run × seed with `measure`, returning the
/// digest and the `(pmu.samples, pmu.group_switches)` totals.
fn measure_all(
    measure: impl Fn(&Workload, &cm_events::EventSet, u32, u64) -> SimRun,
) -> (u64, u64, u64) {
    let catalog = EventCatalog::haswell();
    cm_obs::set_mode(Mode::Summary);
    Registry::global().drain();
    let mut d = Digest::new();
    for &seed in &SEEDS {
        for b in ALL_BENCHMARKS {
            let w = Workload::new(b, &catalog);
            let events = w.top_event_ids(&catalog, EVENTS);
            for run in 0..RUNS {
                d.sim_run(&measure(&w, &events, run, seed));
            }
        }
    }
    let snap = Registry::global().drain();
    cm_obs::set_mode(Mode::Off);
    let counter = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
    (d.0, counter("pmu.samples"), counter("pmu.group_switches"))
}

#[test]
fn mlpx_outputs_match_golden_digest() {
    let _g = serialized();
    let pmu = PmuConfig::default();
    let got = measure_all(|w, e, run, seed| pmu.simulate_mlpx(w, e, run, seed));
    assert_eq!(
        got,
        (0x09bd_db24_2649_da2b, 1_727_760, 691_040),
        "got {:#018x} {} {}",
        got.0,
        got.1,
        got.2
    );
}

#[test]
fn ocoe_outputs_match_golden_digest() {
    let _g = serialized();
    let pmu = PmuConfig::default();
    let got = measure_all(|w, e, run, seed| pmu.simulate_ocoe(w, e, run, seed));
    assert_eq!(
        got,
        (0xa03c_31a8_9e2c_dfc7, 1_727_760, 0),
        "got {:#018x} {} {}",
        got.0,
        got.1,
        got.2
    );
}

#[test]
fn adaptive_subinterval_mlpx_matches_golden_digest() {
    let _g = serialized();
    let pmu = PmuConfig {
        scheduling: Scheduling::Adaptive,
        extrapolation: Extrapolation::SubIntervalLinear,
        ..PmuConfig::default()
    };
    let got = measure_all(|w, e, run, seed| pmu.simulate_mlpx(w, e, run, seed));
    assert_eq!(
        got,
        (0xd749_9985_9ebc_fb7a, 1_727_760, 431_876),
        "got {:#018x} {} {}",
        got.0,
        got.1,
        got.2
    );
}

/// More groups than subslices: events go unobserved for whole intervals
/// (the interpolation path) and the adaptive scheduler reserves no
/// slice per group.
#[test]
fn oversubscribed_mlpx_matches_golden_digest() {
    let _g = serialized();
    let catalog = EventCatalog::haswell();
    let mut d = Digest::new();
    for scheduling in [Scheduling::RoundRobin, Scheduling::Adaptive] {
        let pmu = PmuConfig {
            scheduling,
            ..PmuConfig::default()
        };
        for b in ALL_BENCHMARKS.into_iter().take(4) {
            let w = Workload::new(b, &catalog);
            d.sim_run(&pmu.simulate_mlpx(&w, &w.top_event_ids(&catalog, 120), 0, SEEDS[0]));
        }
    }
    assert_eq!(d.0, 0x17e7_8d84_c8b3_3c3f, "got {:#018x}", d.0);
}

#[test]
fn full_ground_truth_matches_golden_digest() {
    let _g = serialized();
    let catalog = EventCatalog::haswell();
    let mut d = Digest::new();
    for &seed in &SEEDS {
        for b in ALL_BENCHMARKS {
            let w = Workload::new(b, &catalog);
            for run in 0..RUNS {
                d.generated(&w.generate_run(run, seed));
            }
            d.generated(&w.anomalous_run(0, seed));
        }
    }
    assert_eq!(d.0, 0xc06b_4f35_e7c7_6aae, "got {:#018x}", d.0);
}

/// The cleaner's normality test on collected series: the A*² statistic
/// of the first measured events and the IPC of a few runs, bit for bit.
#[test]
fn normality_statistics_match_golden_digest() {
    let _g = serialized();
    let catalog = EventCatalog::haswell();
    let pmu = PmuConfig::default();
    let mut d = Digest::new();
    for b in ALL_BENCHMARKS.into_iter().take(4) {
        let w = Workload::new(b, &catalog);
        let run = pmu.simulate_mlpx(&w, &w.top_event_ids(&catalog, EVENTS), 0, SEEDS[0]);
        let series = run
            .record
            .iter()
            .take(8)
            .map(|(_, s)| s.values())
            .chain([run.ipc.values()]);
        for values in series {
            let stat = cm_stats::anderson::normality_test(values)
                .expect("collected series are long and varied")
                .statistic;
            d.u64(stat.to_bits());
        }
    }
    assert_eq!(d.0, 0x8cf6_4861_e62a_c5e1, "got {:#018x}", d.0);
}
