use crate::process::SubsliceSplit;
use crate::workload::{fnv_extend, GeneratedRun, Workload};

/// Anything whose activity the PMU can measure: a single [`Workload`] or
/// a [`ColocatedWorkload`](crate::ColocatedWorkload).
pub trait ActivitySource {
    /// The program name recorded in run records.
    fn program_name(&self) -> &str;
    /// Within-interval burst concentration of an event.
    fn burstiness(&self, event: cm_events::EventId) -> f64;
}

impl ActivitySource for Workload {
    fn program_name(&self) -> &str {
        self.benchmark().name()
    }
    fn burstiness(&self, event: cm_events::EventId) -> f64 {
        Workload::burstiness(self, event)
    }
}
use cm_events::{EventId, EventSet, RunRecord, SampleMode, TimeSeries};
use cm_par::rng::FNV1A_OFFSET;
use cm_par::Rng;
use std::collections::BTreeMap;

/// How MLPX reconstructs a full-interval value from the subslices it
/// actually observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Extrapolation {
    /// Plain linear scaling: `observed × total/observed_slices` — what
    /// `perf` does (time-based scaling).
    Scaling,
    /// Mathur & Cook's sub-interval estimation baseline: scaled values
    /// additionally smoothed against neighbouring intervals, reducing
    /// variance during sampling. CounterMiner's cleaning is complementary
    /// to (and composable with) this.
    SubIntervalLinear,
}

/// How multiplexed event groups are assigned to scheduler subslices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scheduling {
    /// Fixed round-robin rotation — the kernel default the paper's
    /// error analysis assumes.
    RoundRobin,
    /// Lim et al.'s adaptive baseline (the paper's reference 34): groups whose
    /// events showed *stable* recent values yield their subslices to
    /// groups with fast-changing events.
    Adaptive,
}

/// Configuration of the simulated performance monitoring unit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PmuConfig {
    /// Number of programmable counters (4 per SMT thread on the paper's
    /// Haswell-E machines).
    pub counters: usize,
    /// Scheduler subslices per sampling interval (how often the kernel
    /// rotates event groups within one reported interval).
    pub subslices: usize,
    /// MLPX reconstruction method.
    pub extrapolation: Extrapolation,
    /// Group-to-subslice scheduling policy.
    pub scheduling: Scheduling,
    /// Probability of a scheduling glitch per (event, interval): the
    /// observed window straddles a rotation boundary and double-counts,
    /// producing the extreme outliers of Fig. 2(a).
    pub glitch_prob: f64,
    /// Relative measurement noise of a dedicated (OCOE) counter.
    pub ocoe_noise: f64,
}

impl Default for PmuConfig {
    fn default() -> Self {
        PmuConfig {
            counters: 4,
            subslices: 24,
            extrapolation: Extrapolation::Scaling,
            scheduling: Scheduling::RoundRobin,
            glitch_prob: 0.006,
            ocoe_noise: 0.015,
        }
    }
}

/// One measured run: what the profiler reports, plus the simulator's
/// ground truth for validation.
#[derive(Debug, Clone)]
pub struct SimRun {
    /// The measured per-event series (what a real profiler would emit).
    pub record: RunRecord,
    /// Measured IPC per interval (from the fixed counters, which do not
    /// multiplex — accurate up to small noise).
    pub ipc: TimeSeries,
    /// Ground-truth per-event series (not available on real hardware).
    pub true_counts: BTreeMap<EventId, TimeSeries>,
}

impl SimRun {
    /// Number of sampling intervals in this run.
    pub fn intervals(&self) -> usize {
        self.ipc.len()
    }
}

impl PmuConfig {
    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics if `counters == 0` or `subslices == 0`.
    fn check(&self) {
        assert!(self.counters > 0, "PMU needs at least one counter");
        assert!(self.subslices > 0, "need at least one subslice");
    }

    /// Measures `events` during one run of `workload` with dedicated
    /// counters (OCOE).
    ///
    /// Real hardware can only dedicate `counters` events per run; a set
    /// larger than that models the paper's golden-reference procedure of
    /// `ceil(E/C)` repeated OCOE runs merged into one record.
    pub fn simulate_ocoe(
        &self,
        workload: &Workload,
        events: &EventSet,
        run_index: u32,
        seed: u64,
    ) -> SimRun {
        self.check();
        let truth = workload.generate_measured(run_index, seed, events);
        self.measure_ocoe(workload, &truth, events, run_index, seed)
    }

    /// Measures `events` during one run of `workload` by multiplexing
    /// them onto the configured number of counters.
    pub fn simulate_mlpx(
        &self,
        workload: &Workload,
        events: &EventSet,
        run_index: u32,
        seed: u64,
    ) -> SimRun {
        self.check();
        let truth = workload.generate_measured(run_index, seed, events);
        self.measure_mlpx(workload, &truth, events, run_index, seed)
    }

    /// Measures `n_runs` independent runs of `workload`, fanning the
    /// per-run simulation across the thread pool.
    ///
    /// Run `i` is measured with run index `i`; every run derives its own
    /// RNG from `(program, run index, seed)`, so the result is identical
    /// to calling [`PmuConfig::simulate_ocoe`] /
    /// [`PmuConfig::simulate_mlpx`] in a serial loop, at any thread
    /// count.
    pub fn simulate_batch(
        &self,
        workload: &Workload,
        events: &EventSet,
        mode: SampleMode,
        n_runs: usize,
        seed: u64,
    ) -> Vec<SimRun> {
        self.check();
        cm_par::map_range(n_runs, |i| match mode {
            SampleMode::Ocoe => self.simulate_ocoe(workload, events, i as u32, seed),
            SampleMode::Mlpx => self.simulate_mlpx(workload, events, i as u32, seed),
        })
    }

    /// OCOE measurement of an already-generated run (used by the Spark
    /// and co-location studies which pre-scale the ground truth).
    pub fn measure_ocoe<W: ActivitySource>(
        &self,
        source: &W,
        truth: &GeneratedRun,
        events: &EventSet,
        run_index: u32,
        seed: u64,
    ) -> SimRun {
        self.check();
        let mut rng = measurement_rng(source.program_name(), run_index, seed, 0xA5);
        let mut record = RunRecord::new(source.program_name(), run_index, SampleMode::Ocoe);
        record.set_exec_time_secs(truth.exec_secs);
        let mut true_counts = BTreeMap::new();
        let mut samples: u64 = 0;
        for event in events {
            let series = &truth.counts[event.index()];
            samples += series.len() as u64;
            let measured: TimeSeries = series
                .iter()
                .map(|&v| v * (1.0 + self.ocoe_noise * rng.range_f64(-1.0..1.0)))
                .collect();
            record.insert_series(event, measured);
            true_counts.insert(event, TimeSeries::from_values(series.clone()));
        }
        // Every (event, interval) pair yields one dedicated sample under
        // OCOE. Per-run totals are pure functions of the run, so the
        // counter sum is thread-count independent.
        cm_obs::counter_add("pmu.samples", samples);
        SimRun {
            record,
            ipc: measured_ipc(truth, &mut rng),
            true_counts,
        }
    }

    /// MLPX measurement of an already-generated run.
    pub fn measure_mlpx<W: ActivitySource>(
        &self,
        source: &W,
        truth: &GeneratedRun,
        events: &EventSet,
        run_index: u32,
        seed: u64,
    ) -> SimRun {
        self.check();
        let mut rng = measurement_rng(source.program_name(), run_index, seed, 0x3C);
        let ids: Vec<EventId> = events.iter().collect();
        let groups = ids.len().div_ceil(self.counters);
        // An empty set has no group to rotate: no interval is sampled
        // and the run records no series, as under OCOE.
        let n = if groups == 0 { 0 } else { truth.intervals };
        let mut measured: Vec<Vec<Option<f64>>> = vec![Vec::with_capacity(n); ids.len()];

        // Recent-value history per event, driving adaptive scheduling.
        let mut last: Vec<[Option<f64>; 2]> = vec![[None, None]; ids.len()];
        // Observability tallies: directly observed (event, interval)
        // samples and counter-group switches across consecutive global
        // subslices — both pure functions of the run, so their sums stay
        // thread-count independent under `simulate_batch`.
        let mut samples: u64 = 0;
        let mut switches: u64 = 0;
        let mut prev_group: Option<usize> = None;
        // Reused per interval: the subslices each group runs in, and the
        // raw subslice weights of one sample.
        let mut group_slices: Vec<Vec<usize>> = vec![Vec::new(); groups];
        let mut raw = vec![0.0; self.subslices];
        for t in 0..n {
            let slice_groups = self.assign_slices(&last, ids.len(), groups, t);
            for slices in &mut group_slices {
                slices.clear();
            }
            for (k, &g) in slice_groups.iter().enumerate() {
                if prev_group.is_some_and(|p| p != g) {
                    switches += 1;
                }
                prev_group = Some(g);
                group_slices[g].push(k);
            }
            // Boundary double-count glitches happen at rotation
            // boundaries: more scheduled groups rotate more often, so
            // the per-sample glitch probability scales with their count.
            let scheduled = slice_groups.iter().copied().max().unwrap_or(0) + 1;
            let glitch = (self.glitch_prob * 0.5 * (scheduled as f64 - 1.0)).min(0.03);
            for (pos, &event) in ids.iter().enumerate() {
                let truth_val = truth.counts[event.index()][t];
                let value = if groups <= 1 {
                    // Everything fits on the counters: no multiplexing.
                    Some(truth_val * (1.0 + self.ocoe_noise * rng.range_f64(-1.0..1.0)))
                } else {
                    multiplexed_value(
                        &mut raw,
                        source.burstiness(event),
                        truth_val,
                        truth.z[event.index()][t],
                        &group_slices[pos / self.counters],
                        glitch,
                        &mut rng,
                    )
                };
                if let Some(v) = value {
                    samples += 1;
                    last[pos] = [last[pos][1], Some(v)];
                }
                measured[pos].push(value);
            }
        }
        cm_obs::counter_add("pmu.samples", samples);
        cm_obs::counter_add("pmu.group_switches", switches);

        // Intervals where the rotation never scheduled the event are
        // reconstructed by linear time interpolation between observed
        // intervals — what `perf` reports when more event groups exist
        // than fit into one reported interval (Mytkowicz et al.).
        let mut measured: Vec<Vec<f64>> = measured
            .into_iter()
            .map(|series| interpolate_unobserved(&series))
            .collect();

        if self.extrapolation == Extrapolation::SubIntervalLinear && groups > 1 {
            for series in &mut measured {
                smooth_in_place(series);
            }
        }

        let mut record = RunRecord::new(source.program_name(), run_index, SampleMode::Mlpx);
        record.set_exec_time_secs(truth.exec_secs);
        let mut true_counts = BTreeMap::new();
        for (pos, &event) in ids.iter().enumerate() {
            record.insert_series(
                event,
                TimeSeries::from_values(std::mem::take(&mut measured[pos])),
            );
            true_counts.insert(
                event,
                TimeSeries::from_values(truth.counts[event.index()].clone()),
            );
        }
        SimRun {
            record,
            ipc: measured_ipc(truth, &mut rng),
            true_counts,
        }
    }

    /// Which group runs in each subslice of interval `t`.
    fn assign_slices(
        &self,
        last: &[[Option<f64>; 2]],
        n_events: usize,
        groups: usize,
        t: usize,
    ) -> Vec<usize> {
        let s = self.subslices;
        match self.scheduling {
            Scheduling::RoundRobin => {
                // Continuous rotation across the whole run: global
                // subslice `t·S + k` runs group `(t·S + k) % groups`.
                // With more groups than subslices per interval, an event
                // is observed only every few intervals.
                (0..s).map(|k| (t * s + k) % groups).collect()
            }
            Scheduling::Adaptive => {
                // A group's priority is the largest relative change its
                // events showed between their last two measurements;
                // unknown history counts as maximally unstable so every
                // event is measured early on.
                let mut priority = vec![0.0f64; groups];
                for (pos, history) in last.iter().enumerate().take(n_events) {
                    let g = pos / self.counters;
                    let instability = match history {
                        [Some(a), Some(b)] => ((b - a).abs() / (a.abs() + b.abs() + 1e-9)).min(1.0),
                        _ => 1.0,
                    };
                    priority[g] = priority[g].max(instability.max(0.05));
                }
                // Every group keeps a guaranteed slice when they fit
                // (Lim et al. modulate frequency, they never starve an
                // event); the *remaining* slices go to unstable groups
                // by largest remainder, rotated by t for tie-breaking.
                let reserved = if groups <= s { 1 } else { 0 };
                let spare = s - reserved * groups.min(s);
                let total: f64 = priority.iter().sum();
                let mut counts: Vec<usize> = priority
                    .iter()
                    .map(|&p| reserved + (p / total * spare as f64).floor() as usize)
                    .collect();
                let mut assigned: usize = counts.iter().sum();
                let mut order: Vec<usize> = (0..groups).collect();
                order.sort_by(|&a, &b| {
                    let ra = priority[a] / total * spare as f64 - (counts[a] - reserved) as f64;
                    let rb = priority[b] / total * spare as f64 - (counts[b] - reserved) as f64;
                    rb.total_cmp(&ra)
                });
                let mut i = t % groups.max(1);
                while assigned < s {
                    counts[order[i % groups]] += 1;
                    assigned += 1;
                    i += 1;
                }
                let mut out = Vec::with_capacity(s);
                for (g, &c) in counts.iter().enumerate() {
                    for _ in 0..c {
                        out.push(g);
                    }
                }
                out.truncate(s);
                out
            }
        }
    }
}

/// Reconstructs one interval value for one multiplexed event from the
/// subslices its group ran in (`active`), or `None` when the schedule
/// never ran the group during this interval (caller interpolates).
/// `raw` is scratch for the interval's subslice weights; the draws are
/// made whether or not the group ran.
fn multiplexed_value(
    raw: &mut [f64],
    burstiness: f64,
    truth_val: f64,
    z: f64,
    active: &[usize],
    glitch: f64,
    rng: &mut Rng,
) -> Option<f64> {
    let split = SubsliceSplit::draw(raw, burstiness, z, rng);
    if active.is_empty() {
        return None;
    }
    let mut observed = 0.0;
    for &k in active {
        observed += truth_val * split.weight(k);
    }
    let mut value = observed * raw.len() as f64 / active.len() as f64;
    if rng.next_f64() < glitch {
        value *= 4.0 + 4.0 * rng.next_f64();
    }
    Some(value)
}

/// Fills unobserved (`None`) intervals by linear interpolation between
/// the nearest observed neighbours; leading/trailing gaps copy the
/// nearest observation. An all-`None` series becomes all zeros.
fn interpolate_unobserved(series: &[Option<f64>]) -> Vec<f64> {
    let n = series.len();
    let mut out = vec![0.0; n];
    let observed: Vec<usize> = (0..n).filter(|&i| series[i].is_some()).collect();
    if observed.is_empty() {
        return out;
    }
    for i in 0..n {
        match series[i] {
            Some(v) => out[i] = v,
            None => {
                let next = observed.partition_point(|&j| j < i);
                let right = observed.get(next).copied();
                let left = if next > 0 {
                    Some(observed[next - 1])
                } else {
                    None
                };
                out[i] = match (left, right) {
                    (Some(l), Some(r)) => {
                        let frac = (i - l) as f64 / (r - l) as f64;
                        let lv = series[l].expect("observed");
                        let rv = series[r].expect("observed");
                        lv + frac * (rv - lv)
                    }
                    (Some(l), None) => series[l].expect("observed"),
                    (None, Some(r)) => series[r].expect("observed"),
                    (None, None) => unreachable!("observed is non-empty"),
                };
            }
        }
    }
    out
}

fn measured_ipc(truth: &GeneratedRun, rng: &mut Rng) -> TimeSeries {
    truth
        .ipc
        .iter()
        .map(|&v| v * (1.0 + 0.005 * rng.range_f64(-1.0..1.0)))
        .collect()
}

fn measurement_rng(program: &str, run_index: u32, seed: u64, tag: u64) -> Rng {
    let h = fnv_extend(FNV1A_OFFSET ^ tag, program.as_bytes());
    Rng::new(h ^ seed.rotate_left(17) ^ (u64::from(run_index) << 32))
}

/// In-place neighbour smoothing (the sub-interval linear estimation
/// baseline): each value becomes the average of itself and the linear
/// interpolation of its neighbours.
fn smooth_in_place(series: &mut [f64]) {
    if series.len() < 3 {
        return;
    }
    let orig = series.to_vec();
    for i in 1..series.len() - 1 {
        let interp = 0.5 * (orig[i - 1] + orig[i + 1]);
        series[i] = 0.5 * (orig[i] + interp);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Benchmark;
    use cm_events::{abbrev, EventCatalog};

    /// The measurement streams' seeds, pinned to the hand-rolled loop's.
    #[test]
    fn measurement_rng_is_pinned() {
        assert_eq!(
            measurement_rng("wordcount", 3, 7, 11).next_u64(),
            0xdc77_41ca_2c11_4a1c
        );
        assert_eq!(
            measurement_rng("", 0, 0, 0).next_u64(),
            0xc381_7c01_6ba4_ff30
        );
    }

    fn setup() -> (EventCatalog, Workload) {
        let c = EventCatalog::haswell();
        let w = Workload::new(Benchmark::Wordcount, &c);
        (c, w)
    }

    #[test]
    fn ocoe_is_accurate() {
        let (c, w) = setup();
        let events = w.top_event_ids(&c, 4);
        let run = PmuConfig::default().simulate_ocoe(&w, &events, 0, 1);
        for (event, measured) in run.record.iter() {
            let truth = &run.true_counts[&event];
            for (m, t) in measured.iter().zip(truth.iter()) {
                if t > 0.0 {
                    assert!((m - t).abs() / t < 0.05, "OCOE error too large");
                }
            }
        }
    }

    /// Regression: an empty event set used to divide by zero groups in
    /// the MLPX rotation. It records no series, as OCOE does.
    #[test]
    fn mlpx_of_an_empty_event_set_records_no_series() {
        let (c, w) = setup();
        let events = w.top_event_ids(&c, 0);
        let pmu = PmuConfig::default();
        let mlpx = pmu.simulate_mlpx(&w, &events, 0, 1);
        let ocoe = pmu.simulate_ocoe(&w, &events, 0, 1);
        assert_eq!(mlpx.record.event_count(), 0);
        assert_eq!(mlpx.record.mode(), SampleMode::Mlpx);
        assert_eq!(mlpx.intervals(), ocoe.intervals());
    }

    #[test]
    fn mlpx_with_few_events_avoids_multiplexing() {
        let (c, w) = setup();
        let events = w.top_event_ids(&c, 4); // fits on 4 counters
        let run = PmuConfig::default().simulate_mlpx(&w, &events, 0, 1);
        for (event, measured) in run.record.iter() {
            let truth = &run.true_counts[&event];
            for (m, t) in measured.iter().zip(truth.iter()) {
                if t > 1.0 {
                    assert!((m - t).abs() / t < 0.05);
                }
            }
        }
    }

    #[test]
    fn mlpx_is_noisier_than_ocoe() {
        let (c, w) = setup();
        let events = w.top_event_ids(&c, 10);
        let pmu = PmuConfig::default();
        let ocoe = pmu.simulate_ocoe(&w, &events, 0, 2);
        let mlpx = pmu.simulate_mlpx(&w, &events, 1, 2);
        let err = |run: &SimRun| {
            let mut total = 0.0;
            let mut count = 0;
            for (event, measured) in run.record.iter() {
                let truth = &run.true_counts[&event];
                for (m, t) in measured.iter().zip(truth.iter()) {
                    if t > 1.0 {
                        total += (m - t).abs() / t;
                        count += 1;
                    }
                }
            }
            total / count as f64
        };
        let e_ocoe = err(&ocoe);
        let e_mlpx = err(&mlpx);
        assert!(
            e_mlpx > 3.0 * e_ocoe,
            "MLPX {e_mlpx} should dwarf OCOE {e_ocoe}"
        );
    }

    #[test]
    fn mlpx_produces_missing_values() {
        let (c, w) = setup();
        let events = w.top_event_ids(&c, 24);
        let run = PmuConfig::default().simulate_mlpx(&w, &events, 0, 3);
        let zeros: usize = run.record.iter().map(|(_, ts)| ts.zero_count()).sum();
        assert!(zeros > 0, "expected some missing values");
        // Ground truth has essentially no true zeros for these events.
        let true_zeros: usize = run.true_counts.values().map(|ts| ts.zero_count()).sum();
        assert!(zeros > true_zeros);
    }

    #[test]
    fn mlpx_produces_outliers() {
        let (c, w) = setup();
        let events = w.top_event_ids(&c, 10);
        let run = PmuConfig::default().simulate_mlpx(&w, &events, 0, 4);
        // Some measured value should far exceed the true maximum of its
        // series (the Fig. 2(a) phenomenon).
        let mut found = false;
        for (event, measured) in run.record.iter() {
            let t_max = run.true_counts[&event].max().unwrap();
            if measured.iter().any(|m| m > 2.0 * t_max) {
                found = true;
                break;
            }
        }
        assert!(found, "expected at least one gross outlier");
    }

    #[test]
    fn error_grows_with_event_count() {
        let (c, w) = setup();
        let pmu = PmuConfig::default();
        let avg_err = |n_events: usize| {
            let events = w.top_event_ids(&c, n_events);
            let icm = c.by_abbrev(abbrev::ICM).unwrap().id();
            let mut total = 0.0;
            let mut count = 0;
            for run_idx in 0..3 {
                let run = pmu.simulate_mlpx(&w, &events, run_idx, 5);
                let measured = run.record.series(icm).unwrap();
                let truth = &run.true_counts[&icm];
                for (m, t) in measured.iter().zip(truth.iter()) {
                    if t > 1.0 {
                        total += (m - t).abs() / t;
                        count += 1;
                    }
                }
            }
            total / count as f64
        };
        let e10 = avg_err(10);
        let e36 = avg_err(36);
        assert!(e36 > e10, "36-event error {e36} <= 10-event error {e10}");
    }

    #[test]
    fn sub_interval_linear_reduces_variance() {
        let (c, w) = setup();
        let events = w.top_event_ids(&c, 16);
        let icm = c.by_abbrev(abbrev::ICM).unwrap().id();
        let scaling = PmuConfig::default();
        let smoothed = PmuConfig {
            extrapolation: Extrapolation::SubIntervalLinear,
            ..PmuConfig::default()
        };
        let sse = |pmu: &PmuConfig| {
            let run = pmu.simulate_mlpx(&w, &events, 0, 6);
            let measured = run.record.series(icm).unwrap();
            let truth = &run.true_counts[&icm];
            measured
                .iter()
                .zip(truth.iter())
                .map(|(m, t)| (m - t) * (m - t))
                .sum::<f64>()
        };
        assert!(sse(&smoothed) < sse(&scaling));
    }

    #[test]
    fn exec_time_and_ipc_recorded() {
        let (c, w) = setup();
        let events = w.top_event_ids(&c, 10);
        let run = PmuConfig::default().simulate_mlpx(&w, &events, 0, 7);
        assert!(run.record.exec_time_secs() > 0.0);
        assert_eq!(run.ipc.len(), run.intervals());
        assert!(run.ipc.iter().all(|v| v > 0.0));
    }

    #[test]
    fn adaptive_scheduling_produces_complete_series() {
        let (c, w) = setup();
        let events = w.top_event_ids(&c, 24);
        let pmu = PmuConfig {
            scheduling: Scheduling::Adaptive,
            ..PmuConfig::default()
        };
        let run = pmu.simulate_mlpx(&w, &events, 0, 8);
        for (_, series) in run.record.iter() {
            assert_eq!(series.len(), run.intervals());
            assert!(series.iter().all(|v| v.is_finite()));
        }
    }

    #[test]
    fn adaptive_scheduling_tracks_bursty_events_better() {
        // The adaptive policy concentrates subslices on unstable events;
        // averaged over runs its error on the bursty ICACHE.MISSES series
        // should not exceed round-robin's.
        let (c, w) = setup();
        let events = w.top_event_ids(&c, 24);
        let icm = c.by_abbrev(abbrev::ICM).unwrap().id();
        // Median absolute relative error: robust to the (equally likely
        // under both schedulers) multiplicative glitch spikes.
        let median_err = |scheduling: Scheduling| {
            let pmu = PmuConfig {
                scheduling,
                ..PmuConfig::default()
            };
            let mut errs = Vec::new();
            for seed in 0..6 {
                let run = pmu.simulate_mlpx(&w, &events, 0, seed);
                let measured = run.record.series(icm).unwrap();
                let truth = &run.true_counts[&icm];
                for (m, t) in measured.iter().zip(truth.iter()) {
                    if t > 1.0 {
                        errs.push((m - t).abs() / t);
                    }
                }
            }
            errs.sort_by(f64::total_cmp);
            errs[errs.len() / 2]
        };
        let rr = median_err(Scheduling::RoundRobin);
        let adaptive = median_err(Scheduling::Adaptive);
        assert!(
            adaptive < 1.25 * rr,
            "adaptive {adaptive:.4} should be comparable or better than round-robin {rr:.4}"
        );
    }

    #[test]
    fn batch_matches_sequential_runs() {
        let (c, w) = setup();
        let events = w.top_event_ids(&c, 10);
        let pmu = PmuConfig::default();
        let batch = pmu.simulate_batch(&w, &events, SampleMode::Mlpx, 3, 9);
        assert_eq!(batch.len(), 3);
        for (i, run) in batch.iter().enumerate() {
            let reference = pmu.simulate_mlpx(&w, &events, i as u32, 9);
            assert_eq!(run.ipc, reference.ipc);
            assert_eq!(run.true_counts, reference.true_counts);
            for (event, series) in run.record.iter() {
                assert_eq!(Some(series), reference.record.series(event));
            }
        }
    }

    #[test]
    fn batch_is_thread_count_invariant() {
        let (c, w) = setup();
        let events = w.top_event_ids(&c, 8);
        let pmu = PmuConfig::default();
        cm_par::set_max_threads(1);
        let serial = pmu.simulate_batch(&w, &events, SampleMode::Ocoe, 4, 10);
        cm_par::set_max_threads(0);
        let parallel = pmu.simulate_batch(&w, &events, SampleMode::Ocoe, 4, 10);
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.ipc, b.ipc);
            for (event, series) in a.record.iter() {
                assert_eq!(Some(series), b.record.series(event));
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one counter")]
    fn zero_counters_panics() {
        let (c, w) = setup();
        let events = w.top_event_ids(&c, 4);
        PmuConfig {
            counters: 0,
            ..PmuConfig::default()
        }
        .simulate_ocoe(&w, &events, 0, 0);
    }
}
