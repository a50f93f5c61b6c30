//! Spark configuration response model (Section V-D, Table IV).
//!
//! The paper's case study tunes Spark configuration parameters and shows
//! that the parameter tightly coupled to an *important* event (e.g.
//! `spark.broadcast.blockSize` ↔ ORO for `sort`) moves execution time
//! far more than one coupled to an unimportant event
//! (`spark.network.timeout` ↔ I4U). This module models that coupling:
//! each parameter has a normalized setting in `[0, 1]`, an optimum, and
//! a coupled event whose activity (and therefore the ground-truth IPC
//! and runtime) degrades quadratically away from the optimum.

use crate::workload::fnv_extend;
use crate::{ActivitySource, Benchmark, PmuConfig, SimRun, Workload};
use cm_events::{EventCatalog, EventId, EventSet};
use cm_par::rng::FNV1A_OFFSET;
use cm_par::Rng;
use std::collections::BTreeMap;

/// The Spark configuration parameters of Table IV.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SparkParam {
    /// `spark.broadcast.blockSize` (bbs).
    BroadcastBlockSize,
    /// `spark.network.timeout` (nwt).
    NetworkTimeout,
    /// `spark.executor.cores` (exc).
    ExecutorCores,
    /// `spark.executor.memory` (exm).
    ExecutorMemory,
    /// `spark.default.parallelism` (dpl).
    DefaultParallelism,
    /// `spark.reducer.maxSizeInFlight` (rdm).
    ReducerMaxSizeInFlight,
    /// `spark.memory.fraction` (mmf).
    MemoryFraction,
    /// `spark.kryoserializer.buffer` (kbf).
    KryoBuffer,
    /// `spark.kryoserializer.buffer.max` (kbm).
    KryoBufferMax,
    /// `spark.shuffle.sort.bypassMergeThreshold` (ssb).
    ShuffleSortBypass,
    /// `spark.io.compression.snappy.blockSize` (ics).
    IoCompressionBlockSize,
    /// `spark.shuffle.file.buffer` (sfb).
    ShuffleFileBuffer,
    /// `spark.driver.memory` (dmm).
    DriverMemory,
}

/// All modeled parameters, in Table IV order.
pub const ALL_PARAMS: [SparkParam; 13] = [
    SparkParam::BroadcastBlockSize,
    SparkParam::NetworkTimeout,
    SparkParam::ExecutorCores,
    SparkParam::ExecutorMemory,
    SparkParam::DefaultParallelism,
    SparkParam::ReducerMaxSizeInFlight,
    SparkParam::MemoryFraction,
    SparkParam::KryoBuffer,
    SparkParam::KryoBufferMax,
    SparkParam::ShuffleSortBypass,
    SparkParam::IoCompressionBlockSize,
    SparkParam::ShuffleFileBuffer,
    SparkParam::DriverMemory,
];

impl SparkParam {
    /// Lowercase abbreviation used in Fig. 13's pair labels.
    pub fn abbrev(self) -> &'static str {
        match self {
            SparkParam::BroadcastBlockSize => "bbs",
            SparkParam::NetworkTimeout => "nwt",
            SparkParam::ExecutorCores => "exc",
            SparkParam::ExecutorMemory => "exm",
            SparkParam::DefaultParallelism => "dpl",
            SparkParam::ReducerMaxSizeInFlight => "rdm",
            SparkParam::MemoryFraction => "mmf",
            SparkParam::KryoBuffer => "kbf",
            SparkParam::KryoBufferMax => "kbm",
            SparkParam::ShuffleSortBypass => "ssb",
            SparkParam::IoCompressionBlockSize => "ics",
            SparkParam::ShuffleFileBuffer => "sfb",
            SparkParam::DriverMemory => "dmm",
        }
    }

    /// Full Spark property name.
    pub fn spark_name(self) -> &'static str {
        match self {
            SparkParam::BroadcastBlockSize => "spark.broadcast.blockSize",
            SparkParam::NetworkTimeout => "spark.network.timeout",
            SparkParam::ExecutorCores => "spark.executor.cores",
            SparkParam::ExecutorMemory => "spark.executor.memory",
            SparkParam::DefaultParallelism => "spark.default.parallelism",
            SparkParam::ReducerMaxSizeInFlight => "spark.reducer.maxSizeInFlight",
            SparkParam::MemoryFraction => "spark.memory.fraction",
            SparkParam::KryoBuffer => "spark.kryoserializer.buffer",
            SparkParam::KryoBufferMax => "spark.kryoserializer.buffer.max",
            SparkParam::ShuffleSortBypass => "spark.shuffle.sort.bypassMergeThreshold",
            SparkParam::IoCompressionBlockSize => "spark.io.compression.snappy.blockSize",
            SparkParam::ShuffleFileBuffer => "spark.shuffle.file.buffer",
            SparkParam::DriverMemory => "spark.driver.memory",
        }
    }

    /// The event abbreviation this parameter tightly correlates with
    /// (the Fig. 13 coupling).
    pub fn coupled_event(self) -> &'static str {
        use cm_events::abbrev::*;
        match self {
            SparkParam::BroadcastBlockSize => ORO,
            SparkParam::NetworkTimeout => I4U,
            SparkParam::ExecutorCores => TFA,
            SparkParam::ExecutorMemory => ISF,
            SparkParam::DefaultParallelism => BRB,
            SparkParam::ReducerMaxSizeInFlight => BMP,
            SparkParam::MemoryFraction => MMR,
            SparkParam::KryoBuffer => MSL,
            SparkParam::KryoBufferMax => BRE,
            SparkParam::ShuffleSortBypass => PI3,
            SparkParam::IoCompressionBlockSize => ITM,
            SparkParam::ShuffleFileBuffer => IMC,
            SparkParam::DriverMemory => CAC,
        }
    }

    /// Human-readable labels for the five sweep settings (e.g. the
    /// `2M..32M` block sizes of Fig. 14 for bbs).
    pub fn sweep_labels(self) -> [&'static str; 5] {
        match self {
            SparkParam::BroadcastBlockSize => ["2M", "4M", "8M", "16M", "32M"],
            SparkParam::NetworkTimeout => ["50s", "100s", "150s", "300s", "500s"],
            SparkParam::ExecutorCores => ["1", "2", "4", "6", "8"],
            SparkParam::ExecutorMemory => ["1g", "2g", "4g", "8g", "16g"],
            SparkParam::DefaultParallelism => ["8", "16", "32", "64", "128"],
            SparkParam::ReducerMaxSizeInFlight => ["24m", "48m", "96m", "144m", "192m"],
            SparkParam::MemoryFraction => ["0.2", "0.4", "0.6", "0.75", "0.9"],
            SparkParam::KryoBuffer => ["32k", "64k", "128k", "256k", "512k"],
            SparkParam::KryoBufferMax => ["16m", "64m", "128m", "256m", "512m"],
            SparkParam::ShuffleSortBypass => ["50", "100", "200", "400", "800"],
            SparkParam::IoCompressionBlockSize => ["16k", "32k", "64k", "128k", "256k"],
            SparkParam::ShuffleFileBuffer => ["16k", "32k", "64k", "128k", "256k"],
            SparkParam::DriverMemory => ["1g", "2g", "4g", "8g", "16g"],
        }
    }

    /// Normalized sweep settings corresponding to
    /// [`SparkParam::sweep_labels`].
    pub fn sweep_settings(self) -> [f64; 5] {
        [0.0, 0.25, 0.5, 0.75, 1.0]
    }

    /// The optimal normalized setting of this parameter (where its
    /// coupled event is calmest). Deterministic per parameter.
    pub fn optimum(self) -> f64 {
        // Spread optima so "default = 0.5" is near-optimal for some
        // parameters and poor for others.
        let idx = ALL_PARAMS.iter().position(|&p| p == self).unwrap();
        0.1 + 0.06 * idx as f64 % 0.8
    }
}

/// A full Spark configuration: a normalized setting per parameter.
#[derive(Debug, Clone, PartialEq)]
pub struct SparkConfig {
    settings: BTreeMap<SparkParam, f64>,
}

impl Default for SparkConfig {
    /// Every parameter at its Spark default (modeled as setting 0.5).
    fn default() -> Self {
        SparkConfig {
            settings: ALL_PARAMS.iter().map(|&p| (p, 0.5)).collect(),
        }
    }
}

impl SparkConfig {
    /// The default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets one parameter, returning `self` for chaining.
    ///
    /// # Panics
    ///
    /// Panics unless `setting` is within `[0, 1]`.
    pub fn with(mut self, param: SparkParam, setting: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&setting),
            "setting must be normalized to [0, 1]"
        );
        self.settings.insert(param, setting);
        self
    }

    /// The normalized setting of a parameter.
    pub fn setting(&self, param: SparkParam) -> f64 {
        self.settings[&param]
    }
}

/// The case-study driver: a benchmark plus the parameter-to-event
/// response model.
///
/// # Examples
///
/// ```
/// use cm_events::EventCatalog;
/// use cm_sim::{Benchmark, SparkConfig, SparkParam, SparkStudy};
///
/// let catalog = EventCatalog::haswell();
/// let study = SparkStudy::new(Benchmark::Sort, &catalog);
///
/// // Tuning bbs (coupled to sort's top event ORO) swings runtime more
/// // than tuning nwt (coupled to the unimportant I4U).
/// let swing = |p: SparkParam| {
///     let times: Vec<f64> = p
///         .sweep_settings()
///         .iter()
///         .map(|&s| study.exec_time(&SparkConfig::new().with(p, s), 0, 1))
///         .collect();
///     let min = times.iter().copied().fold(f64::INFINITY, f64::min);
///     let max = times.iter().copied().fold(0.0, f64::max);
///     (max - min) / min
/// };
/// assert!(swing(SparkParam::BroadcastBlockSize) > 2.0 * swing(SparkParam::NetworkTimeout));
/// ```
#[derive(Debug, Clone)]
pub struct SparkStudy {
    workload: Workload,
    /// Per parameter: coupled event id and that event's ground-truth
    /// importance weight.
    couplings: Vec<(SparkParam, EventId, f64)>,
}

impl SparkStudy {
    /// Builds the study for one benchmark.
    pub fn new(benchmark: Benchmark, catalog: &EventCatalog) -> Self {
        let workload = Workload::new(benchmark, catalog);
        let couplings = ALL_PARAMS
            .iter()
            .map(|&p| {
                let id = catalog
                    .by_abbrev(p.coupled_event())
                    .expect("coupled event")
                    .id();
                let w = workload.model().weight(id);
                (p, id, w)
            })
            .collect();
        SparkStudy {
            workload,
            couplings,
        }
    }

    /// The underlying workload.
    pub fn workload(&self) -> &Workload {
        &self.workload
    }

    /// The event each parameter is coupled to.
    pub fn coupled_event_id(&self, param: SparkParam) -> EventId {
        self.couplings
            .iter()
            .find(|(p, _, _)| *p == param)
            .expect("all parameters have couplings")
            .1
    }

    /// Per-event activity multipliers implied by a configuration:
    /// `1 + 1.2·(setting - optimum)²` on each coupled event.
    pub fn event_scale_factors(&self, config: &SparkConfig) -> Vec<(EventId, f64)> {
        self.couplings
            .iter()
            .map(|&(p, id, _)| {
                let d = config.setting(p) - p.optimum();
                (id, 1.0 + 1.2 * d * d * 4.0)
            })
            .collect()
    }

    /// Modeled wall-clock execution time under a configuration.
    ///
    /// Each parameter contributes a slowdown proportional to its
    /// quadratic distance from optimum, weighted by the *importance* of
    /// its coupled event (a floor keeps unimportant parameters from
    /// being exactly free — timeouts still cost something).
    pub fn exec_time(&self, config: &SparkConfig, run_index: u32, seed: u64) -> f64 {
        let mut time = self.workload.benchmark().base_exec_secs();
        for &(p, _, w) in &self.couplings {
            let d = config.setting(p) - p.optimum();
            let g = 4.0 * d * d; // up to ~3.2 at the range edge
            time *= 1.0 + 1.25 * (0.08 + w) * g;
        }
        let mut rng = Rng::new(seed ^ (u64::from(run_index) << 24) ^ config_hash(config));
        time * (1.0 + 0.02 * rng.range_f64(-1.0..1.0))
    }

    /// Simulates one profiled run under a configuration: event activity
    /// is scaled per [`SparkStudy::event_scale_factors`] and measured by
    /// the PMU in MLPX mode.
    pub fn simulate_run(
        &self,
        config: &SparkConfig,
        events: &EventSet,
        pmu: &PmuConfig,
        run_index: u32,
        seed: u64,
    ) -> SimRun {
        let scales = self.event_scale_factors(config);
        let truth =
            self.workload
                .generate_run_with_scales(run_index, seed ^ config_hash(config), &scales);
        let mut run = pmu.measure_mlpx(&self.workload, &truth, events, run_index, seed);
        run.record
            .set_exec_time_secs(self.exec_time(config, run_index, seed));
        run
    }
}

impl ActivitySource for SparkStudy {
    fn program_name(&self) -> &str {
        self.workload.benchmark().name()
    }
    fn burstiness(&self, event: EventId) -> f64 {
        self.workload.burstiness(event)
    }
}

fn config_hash(config: &SparkConfig) -> u64 {
    config.settings.iter().fold(FNV1A_OFFSET, |h, (p, s)| {
        fnv_extend(
            h ^ s.to_bits() ^ (p.abbrev().len() as u64),
            p.abbrev().as_bytes(),
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cm_events::abbrev;

    /// Configuration hashes seed every Spark run: pinned to the
    /// hand-rolled loop's values.
    #[test]
    fn config_hash_is_pinned() {
        assert_eq!(config_hash(&SparkConfig::default()), 0xaf6b_8348_9a9f_dbf6);
        assert_eq!(
            config_hash(&SparkConfig::default().with(ALL_PARAMS[0], 0.25)),
            0x819b_8348_9a9f_dbf6
        );
    }

    fn study() -> (EventCatalog, SparkStudy) {
        let c = EventCatalog::haswell();
        let s = SparkStudy::new(Benchmark::Sort, &c);
        (c, s)
    }

    #[test]
    fn params_have_distinct_abbrevs_and_names() {
        let abbrevs: std::collections::HashSet<&str> =
            ALL_PARAMS.iter().map(|p| p.abbrev()).collect();
        assert_eq!(abbrevs.len(), ALL_PARAMS.len());
        let names: std::collections::HashSet<&str> =
            ALL_PARAMS.iter().map(|p| p.spark_name()).collect();
        assert_eq!(names.len(), ALL_PARAMS.len());
    }

    #[test]
    fn coupled_events_resolve() {
        let c = EventCatalog::haswell();
        for p in ALL_PARAMS {
            assert!(
                c.by_abbrev(p.coupled_event()).is_some(),
                "{} -> {}",
                p.abbrev(),
                p.coupled_event()
            );
        }
    }

    #[test]
    fn bbs_couples_to_oro_and_nwt_to_i4u() {
        // The paper's case-study pairing for sort.
        assert_eq!(SparkParam::BroadcastBlockSize.coupled_event(), abbrev::ORO);
        assert_eq!(SparkParam::NetworkTimeout.coupled_event(), abbrev::I4U);
    }

    #[test]
    fn important_param_swings_time_more() {
        let (_, s) = study();
        let swing = |p: SparkParam| {
            let times: Vec<f64> = p
                .sweep_settings()
                .iter()
                .map(|&v| s.exec_time(&SparkConfig::new().with(p, v), 0, 3))
                .collect();
            let min = times.iter().copied().fold(f64::INFINITY, f64::min);
            let max = times.iter().copied().fold(0.0, f64::max);
            (max - min) / min
        };
        let bbs = swing(SparkParam::BroadcastBlockSize);
        let nwt = swing(SparkParam::NetworkTimeout);
        assert!(bbs > 2.0 * nwt, "bbs swing {bbs} vs nwt swing {nwt}");
        // Roughly the paper's magnitudes (111.3 % vs 29.4 %).
        assert!(bbs > 0.5 && bbs < 3.0, "bbs swing {bbs}");
        assert!(nwt < 0.8, "nwt swing {nwt}");
    }

    #[test]
    fn exec_time_is_deterministic_per_seed() {
        let (_, s) = study();
        let cfg = SparkConfig::new().with(SparkParam::MemoryFraction, 0.9);
        assert_eq!(s.exec_time(&cfg, 0, 1), s.exec_time(&cfg, 0, 1));
        assert_ne!(s.exec_time(&cfg, 0, 1), s.exec_time(&cfg, 1, 1));
    }

    #[test]
    fn scale_factors_peak_away_from_optimum() {
        let (_, s) = study();
        let p = SparkParam::BroadcastBlockSize;
        let at_opt = s.event_scale_factors(&SparkConfig::new().with(p, p.optimum()));
        let far = s.event_scale_factors(&SparkConfig::new().with(p, 1.0));
        let oro = s.coupled_event_id(p);
        let get = |v: &Vec<(EventId, f64)>| v.iter().find(|(id, _)| *id == oro).unwrap().1;
        assert!((get(&at_opt) - 1.0).abs() < 1e-9);
        assert!(get(&far) > 1.5);
    }

    #[test]
    fn simulate_run_produces_mlpx_record() {
        let (c, s) = study();
        let events = s.workload().top_event_ids(&c, 10);
        let run = s.simulate_run(
            &SparkConfig::default(),
            &events,
            &PmuConfig::default(),
            0,
            1,
        );
        assert_eq!(run.record.event_count(), 10);
        assert!(run.record.exec_time_secs() > 0.0);
    }

    #[test]
    #[should_panic(expected = "normalized")]
    fn out_of_range_setting_panics() {
        SparkConfig::new().with(SparkParam::NetworkTimeout, 1.5);
    }
}
