use crate::process::{ProcessParams, ProcessState};
use crate::truth::TrueModel;
use crate::Benchmark;
use cm_events::{EventCatalog, EventId, EventSet};
use cm_par::rng::{fnv1a_extend_with, FNV1A_OFFSET};
use cm_par::Rng;

/// A benchmark instantiated against an event catalog: the ground-truth
/// performance model plus one activity process per catalog event.
///
/// A `Workload` is immutable; runs are generated from it deterministically
/// per `(run_index, seed)`.
///
/// # Examples
///
/// ```
/// use cm_events::EventCatalog;
/// use cm_sim::{Benchmark, Workload};
///
/// let catalog = EventCatalog::haswell();
/// let w = Workload::new(Benchmark::Sort, &catalog);
/// let run = w.generate_run(0, 7);
/// assert_eq!(run.ipc.len(), run.intervals);
/// let again = w.generate_run(0, 7);
/// assert_eq!(run.ipc, again.ipc); // fully deterministic
/// ```
#[derive(Debug, Clone)]
pub struct Workload {
    benchmark: Benchmark,
    model: TrueModel,
    params: Vec<ProcessParams>,
    catalog_len: usize,
    profile_ids: Vec<EventId>,
    /// Per catalog event: whether the IPC model reads its activity (a
    /// nonzero main-effect weight or a place in an interaction pair).
    read_mask: Vec<bool>,
}

/// How strongly a benchmark's activity processes lean on its
/// [`Family`](crate::Family) component. The family part dominates —
/// runs within a family produce nearby counter signatures (what the
/// `cluster` analysis mode recovers) — while the residual benchmark
/// component keeps every program distinct.
const FAMILY_WEIGHT: f64 = 0.75;

/// Mean-activity multiplier applied to the dominant profile events of
/// an [`Workload::anomalous_run`] — far outside normal run-to-run
/// variation, the way a misconfigured executor or a noisy co-runner
/// shifts a run's hot events.
const ANOMALY_SCALE: [f64; 3] = [6.0, 5.0, 4.0];

/// Ground-truth data of one simulated run, before any PMU measurement.
///
/// Every public generator fills `counts` and `z` for every catalog
/// event. Only the crate-private `Workload::generate_measured`, behind
/// [`PmuConfig::simulate_mlpx`](crate::PmuConfig::simulate_mlpx) and
/// [`PmuConfig::simulate_ocoe`](crate::PmuConfig::simulate_ocoe), leaves
/// the series of events that are neither measured nor read by the IPC
/// model empty; it still makes their draws, so every other series is
/// unchanged.
#[derive(Debug, Clone)]
pub struct GeneratedRun {
    /// Number of sampling intervals (varies run to run — OS jitter).
    pub intervals: usize,
    /// Per-event true counts, event-major: `counts[event][t]`.
    pub counts: Vec<Vec<f64>>,
    /// Per-event normalized activity, event-major.
    pub z: Vec<Vec<f64>>,
    /// True IPC per interval.
    pub ipc: Vec<f64>,
    /// Wall-clock execution time implied by the run length.
    pub exec_secs: f64,
}

impl Workload {
    /// Builds the workload for `benchmark` over `catalog`.
    ///
    /// Each event's activity process blends a *family* component
    /// (shared by every benchmark in `benchmark.family()`) with the
    /// benchmark's own component, weighted 0.75 (`FAMILY_WEIGHT`) toward
    /// the family. The blend is what gives counter signatures their
    /// recoverable family structure.
    pub fn new(benchmark: Benchmark, catalog: &EventCatalog) -> Self {
        let salt = benchmark_salt(benchmark);
        let family_salt = family_salt(benchmark.family());
        let params = catalog
            .iter()
            .map(|info| {
                ProcessParams::derive(info, family_salt)
                    .blend(ProcessParams::derive(info, salt), FAMILY_WEIGHT)
            })
            .collect();
        let profile_ids = benchmark
            .importance_profile()
            .iter()
            .map(|a| catalog.by_abbrev(a).expect("profile event").id())
            .collect();
        let model = TrueModel::new(benchmark, catalog);
        let mut read_mask: Vec<bool> = catalog
            .iter()
            .map(|i| model.weight(i.id()) != 0.0)
            .collect();
        for &(a, b, _) in model.interactions() {
            read_mask[a] = true;
            read_mask[b] = true;
        }
        Workload {
            benchmark,
            model,
            params,
            catalog_len: catalog.len(),
            profile_ids,
            read_mask,
        }
    }

    /// The benchmark this workload simulates.
    pub fn benchmark(&self) -> Benchmark {
        self.benchmark
    }

    /// The ground-truth IPC model.
    pub fn model(&self) -> &TrueModel {
        &self.model
    }

    /// Within-interval burst concentration of an event (used by the PMU
    /// to spread counts across scheduler subslices).
    pub fn burstiness(&self, event: EventId) -> f64 {
        self.params[event.index()].burstiness
    }

    /// Generates the ground truth of one run. Deterministic in
    /// `(benchmark, run_index, seed)`.
    pub fn generate_run(&self, run_index: u32, seed: u64) -> GeneratedRun {
        self.generate_inner(
            run_index,
            seed,
            &vec![1.0; self.catalog_len],
            &vec![true; self.catalog_len],
        )
    }

    /// Like [`Workload::generate_run`], but simulates only the events the
    /// PMU measures (`events`) or the IPC model reads: every other
    /// event's series stays empty. Its draws are still made, so every
    /// filled series, the run length and the IPC are bit-identical to
    /// [`Workload::generate_run`]'s.
    pub(crate) fn generate_measured(
        &self,
        run_index: u32,
        seed: u64,
        events: &EventSet,
    ) -> GeneratedRun {
        let mut live = self.read_mask.clone();
        for event in events {
            live[event.index()] = true;
        }
        self.generate_inner(run_index, seed, &vec![1.0; self.catalog_len], &live)
    }

    /// Like [`Workload::generate_run`] but scaling every event's mean
    /// activity by per-event factors (used by the Spark configuration
    /// response model and the co-location interference model).
    ///
    /// `scale` maps event index to multiplier; events not present scale
    /// by 1. The scaling shifts the *normalized* activity too, so the
    /// ground-truth IPC reacts.
    pub fn generate_run_with_scales(
        &self,
        run_index: u32,
        seed: u64,
        scale: &[(EventId, f64)],
    ) -> GeneratedRun {
        let mut factors = vec![1.0; self.catalog_len];
        for &(id, f) in scale {
            factors[id.index()] = f;
        }
        self.generate_inner(run_index, seed, &factors, &vec![true; self.catalog_len])
    }

    /// Generates an **anomalous** run: the same deterministic ground
    /// truth as [`Workload::generate_run`] for `(run_index, seed)`, but
    /// with the benchmark's dominant profile events running at 6, 5 and
    /// 4 times (`ANOMALY_SCALE`) their normal mean activity — the
    /// signature of a misconfigured executor or a hostile co-runner.
    /// The `cluster` analysis mode is expected to flag every such run.
    pub fn anomalous_run(&self, run_index: u32, seed: u64) -> GeneratedRun {
        let scale: Vec<(EventId, f64)> = self
            .profile_ids
            .iter()
            .zip(ANOMALY_SCALE)
            .map(|(&id, f)| (id, f))
            .collect();
        self.generate_run_with_scales(run_index, seed, &scale)
    }

    /// One run with every event's mean scaled by `factors[event]`,
    /// simulating the events `live` marks; the rest only advance the
    /// generator (see [`ProcessState::skip`]).
    fn generate_inner(
        &self,
        run_index: u32,
        seed: u64,
        factors: &[f64],
        live: &[bool],
    ) -> GeneratedRun {
        let mut rng = Rng::new(
            seed ^ benchmark_salt(self.benchmark).wrapping_mul(0x517C_C1B7_2722_0A95)
                ^ u64::from(run_index).wrapping_mul(0x2545_F491_4F6C_DD1D),
        );
        // OS nondeterminism: run length jitters ±6 %.
        let base = self.benchmark.base_intervals() as f64;
        let n = (base * (1.0 + rng.range_f64(-0.06..0.06))).round().max(8.0) as usize;

        let series = |&live: &bool| {
            if live {
                Vec::with_capacity(n)
            } else {
                Vec::new()
            }
        };
        let mut counts: Vec<Vec<f64>> = live.iter().map(series).collect();
        let mut z: Vec<Vec<f64>> = live.iter().map(series).collect();
        let mut states: Vec<ProcessState> =
            self.params.iter().map(|&p| ProcessState::new(p)).collect();

        for t in 0..n {
            for (e, state) in states.iter_mut().enumerate() {
                if !live[e] {
                    state.skip(&mut rng);
                    continue;
                }
                let (ze_raw, count_raw) = state.step(t, n, &mut rng);
                // Mean scaling shifts activity: a 2x-scaled event runs at
                // a persistently elevated normalized level.
                let f = factors[e];
                let ze = ze_raw + (f - 1.0) * 1.5;
                counts[e].push(count_raw * f);
                z[e].push(ze);
            }
        }

        // The model reads only live events; a skipped event's slot keeps
        // its unread 0.0.
        let mut zt = vec![0.0; self.catalog_len];
        let ipc: Vec<f64> = (0..n)
            .map(|t| {
                for (slot, series) in zt.iter_mut().zip(&z) {
                    if let Some(&v) = series.get(t) {
                        *slot = v;
                    }
                }
                self.model.ipc(&zt) * (1.0 + 0.01 * rng.range_f64(-1.0..1.0))
            })
            .collect();

        let exec_secs =
            self.benchmark.base_exec_secs() * n as f64 / self.benchmark.base_intervals() as f64;

        GeneratedRun {
            intervals: n,
            counts,
            z,
            ipc,
            exec_secs,
        }
    }

    /// The default measured-event set used throughout the experiments:
    /// the error-metric events (`ICACHE.MISSES`, `IDQ.DSB_UOPS`) followed
    /// by the benchmark's importance-profile events and then further
    /// catalog events, `n` in total.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds the catalog size.
    pub fn top_event_ids(&self, catalog: &EventCatalog, n: usize) -> EventSet {
        assert!(n <= catalog.len(), "cannot measure more events than exist");
        let mut set = EventSet::new();
        for a in [cm_events::abbrev::ICM, cm_events::abbrev::IDU] {
            set.insert(catalog.by_abbrev(a).expect("named event").id());
        }
        for a in self.benchmark.importance_profile() {
            if set.len() >= n {
                break;
            }
            set.insert(catalog.by_abbrev(a).expect("profile event").id());
        }
        for info in catalog.iter() {
            if set.len() >= n {
                break;
            }
            set.insert(info.id());
        }
        // Trim in case the named events overlapped oddly.
        set.iter().take(n).collect()
    }
}

fn benchmark_salt(b: Benchmark) -> u64 {
    // Stable per-benchmark salt from the name bytes (FNV-1a).
    fnv(b.name())
}

fn family_salt(f: crate::Family) -> u64 {
    // A disjoint salt domain from benchmark names (no family name
    // collides with a benchmark name thanks to the prefix).
    fnv(f.name()).wrapping_mul(0xA24B_AED4_963E_E407)
}

/// The multiplier the simulator's FNV-1a hashes use: `2^44 + 0x1b3`, not
/// the FNV prime. Every simulated series is seeded through it.
const SIM_FNV_PRIME: u64 = 0x1000_0000_01b3;

/// Folds `bytes` into the simulator's FNV-1a state `h`.
pub(crate) fn fnv_extend(h: u64, bytes: &[u8]) -> u64 {
    fnv1a_extend_with(SIM_FNV_PRIME, h, bytes)
}

fn fnv(s: &str) -> u64 {
    fnv_extend(FNV1A_OFFSET, s.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cm_events::abbrev;

    fn catalog() -> EventCatalog {
        EventCatalog::haswell()
    }

    /// Benchmark and family salts seed every simulated series: pinned
    /// to the values the hand-rolled loop produced.
    #[test]
    fn fnv_is_pinned() {
        assert_eq!(fnv(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv("a"), 0xaf74_d84c_8601_ec8c);
        assert_eq!(fnv("wordcount"), 0x8d01_de26_1f66_a65c);
        assert_eq!(fnv("sort"), 0x08db_ac18_f07e_3c11);
    }

    #[test]
    fn runs_are_deterministic_and_distinct() {
        let c = catalog();
        let w = Workload::new(Benchmark::Join, &c);
        let a = w.generate_run(0, 1);
        let b = w.generate_run(0, 1);
        assert_eq!(a.ipc, b.ipc);
        assert_eq!(a.counts[0], b.counts[0]);
        let other_run = w.generate_run(1, 1);
        assert_ne!(a.ipc, other_run.ipc);
        let other_seed = w.generate_run(0, 2);
        assert_ne!(a.ipc, other_seed.ipc);
    }

    #[test]
    fn run_lengths_vary() {
        let c = catalog();
        let w = Workload::new(Benchmark::Scan, &c);
        let lens: Vec<usize> = (0..6).map(|i| w.generate_run(i, 0).intervals).collect();
        let distinct: std::collections::HashSet<usize> = lens.iter().copied().collect();
        assert!(distinct.len() > 1, "lengths should jitter: {lens:?}");
        // ...but stay near the nominal count.
        for l in lens {
            let base = Benchmark::Scan.base_intervals() as f64;
            assert!((l as f64) > 0.9 * base && (l as f64) < 1.1 * base);
        }
    }

    #[test]
    fn ipc_is_positive_and_plausible() {
        let c = catalog();
        let w = Workload::new(Benchmark::Bayes, &c);
        let run = w.generate_run(0, 3);
        assert!(run.ipc.iter().all(|&v| v > 0.0 && v < 4.0));
    }

    #[test]
    fn important_event_correlates_with_ipc() {
        // ISF is wordcount's top event with a negative effect: high
        // stall activity must depress IPC.
        let c = catalog();
        let w = Workload::new(Benchmark::Wordcount, &c);
        let run = w.generate_run(0, 4);
        let isf = c.by_abbrev(abbrev::ISF).unwrap().id().index();
        let z = &run.z[isf];
        let mz = z.iter().sum::<f64>() / z.len() as f64;
        let mi = run.ipc.iter().sum::<f64>() / run.ipc.len() as f64;
        let cov: f64 = z
            .iter()
            .zip(&run.ipc)
            .map(|(&a, &b)| (a - mz) * (b - mi))
            .sum::<f64>();
        assert!(cov < 0.0, "covariance {cov} should be negative");
    }

    #[test]
    fn scaling_raises_counts_and_moves_ipc() {
        let c = catalog();
        let w = Workload::new(Benchmark::Sort, &c);
        let oro = c.by_abbrev(abbrev::ORO).unwrap().id();
        let base = w.generate_run(0, 5);
        let scaled = w.generate_run_with_scales(0, 5, &[(oro, 2.0)]);
        let base_mean: f64 = base.counts[oro.index()].iter().sum::<f64>() / base.intervals as f64;
        let scaled_mean: f64 =
            scaled.counts[oro.index()].iter().sum::<f64>() / scaled.intervals as f64;
        assert!(scaled_mean > 1.8 * base_mean);
        // ORO is sort's most important event: doubling it hurts IPC.
        let base_ipc: f64 = base.ipc.iter().sum::<f64>() / base.ipc.len() as f64;
        let scaled_ipc: f64 = scaled.ipc.iter().sum::<f64>() / scaled.ipc.len() as f64;
        assert!(scaled_ipc < base_ipc);
    }

    #[test]
    fn anomalous_runs_shift_dominant_events_far_outside_jitter() {
        let c = catalog();
        let w = Workload::new(Benchmark::Kmeans, &c);
        let top = c
            .by_abbrev(Benchmark::Kmeans.importance_profile()[0])
            .unwrap()
            .id();
        let mean = |run: &GeneratedRun, e: cm_events::EventId| {
            run.counts[e.index()].iter().sum::<f64>() / run.intervals as f64
        };
        // Normal run-to-run spread of the top event's mean count…
        let normals: Vec<f64> = (0..6).map(|i| mean(&w.generate_run(i, 11), top)).collect();
        let lo = normals.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = normals.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        // …is dwarfed by the injected shift.
        let anomalous = mean(&w.anomalous_run(0, 11), top);
        assert!(
            anomalous > hi + 5.0 * (hi - lo),
            "anomalous {anomalous} vs normal [{lo}, {hi}]"
        );
        // Determinism: same (run_index, seed) reproduces bit-identically.
        let again = w.anomalous_run(0, 11);
        assert_eq!(
            w.anomalous_run(0, 11).counts[top.index()],
            again.counts[top.index()]
        );
        // And the anomaly differs from the normal run it shadows.
        assert_ne!(
            w.generate_run(0, 11).counts[top.index()],
            again.counts[top.index()]
        );
    }

    #[test]
    fn same_family_workloads_are_closer_than_cross_family() {
        // Mean per-event count vectors: within-family distances must sit
        // well below cross-family ones — the structure the cluster mode
        // recovers.
        let c = catalog();
        let mean_counts = |b: Benchmark| -> Vec<f64> {
            let run = Workload::new(b, &c).generate_run(0, 3);
            run.counts
                .iter()
                .map(|s| s.iter().sum::<f64>() / run.intervals as f64)
                .collect()
        };
        // Log-space distance, since per-event scales span orders of
        // magnitude.
        let dist = |a: &[f64], b: &[f64]| -> f64 {
            a.iter()
                .zip(b)
                .map(|(&x, &y)| ((x + 1.0).ln() - (y + 1.0).ln()).powi(2))
                .sum::<f64>()
                .sqrt()
        };
        let wordcount = mean_counts(Benchmark::Wordcount);
        let sort = mean_counts(Benchmark::Sort); // same family (spark-batch)
        let kmeans = mean_counts(Benchmark::Kmeans); // spark-iterative
        let caching = mean_counts(Benchmark::DataCaching); // services
        let within = dist(&wordcount, &sort);
        assert!(within < dist(&wordcount, &kmeans), "within {within}");
        assert!(within < dist(&wordcount, &caching), "within {within}");
    }

    #[test]
    fn top_event_ids_include_metric_events_and_profile() {
        let c = catalog();
        let w = Workload::new(Benchmark::Wordcount, &c);
        let set = w.top_event_ids(&c, 10);
        assert_eq!(set.len(), 10);
        assert!(set.contains(c.by_abbrev(abbrev::ICM).unwrap().id()));
        assert!(set.contains(c.by_abbrev(abbrev::IDU).unwrap().id()));
        assert!(set.contains(c.by_abbrev(abbrev::ISF).unwrap().id()));
        // Requesting the whole catalog also works.
        let all = w.top_event_ids(&c, c.len());
        assert_eq!(all.len(), c.len());
    }

    #[test]
    #[should_panic(expected = "more events than exist")]
    fn too_many_events_panics() {
        let c = catalog();
        let w = Workload::new(Benchmark::Wordcount, &c);
        w.top_event_ids(&c, c.len() + 1);
    }
}
