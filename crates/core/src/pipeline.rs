//! The end-to-end CounterMiner pipeline (Fig. 4): data collector →
//! (optionally) the two-level columnar store → data cleaner → importance
//! ranker → interaction ranker.

use crate::{
    collector, front, snapshot, CleanedRuns, CleanerConfig, CleanerKind, CmError, DataCleaner,
    EirResult, ImportanceConfig, ImportanceRanker, InteractionRanker, PairInteraction,
    VarianceAggregate,
};
use cm_events::{EventCatalog, SampleMode};
use cm_sim::{Benchmark, PmuConfig, SimRun, Workload};
use cm_store::Store;

/// Pipeline configuration.
///
/// # Examples
///
/// ```
/// use counterminer::MinerConfig;
///
/// // Downscale the defaults for a quick exploratory run.
/// let config = MinerConfig {
///     runs_per_benchmark: 1,
///     events_to_measure: Some(20),
///     ..MinerConfig::default()
/// };
/// assert_eq!(config.interaction_top_k, 10);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MinerConfig {
    /// The simulated PMU.
    pub pmu: PmuConfig,
    /// Data-cleaner settings.
    pub cleaner: CleanerConfig,
    /// Which cleaner estimator runs: the point cleaner or the
    /// uncertainty-aware `bayes` mode. Both reconstruct identical
    /// values; `bayes` additionally propagates per-value variances into
    /// importance confidence intervals and the ranking-stability score.
    pub cleaner_kind: CleanerKind,
    /// Importance-ranker (EIR) settings.
    pub importance: ImportanceConfig,
    /// Profiled runs collected per benchmark.
    pub runs_per_benchmark: usize,
    /// How many events to measure (multiplexed); `None` measures the
    /// whole catalog, the paper's setting for the ranking experiments.
    pub events_to_measure: Option<usize>,
    /// Events whose pairs the interaction ranker examines (10 in the
    /// paper's figures).
    pub interaction_top_k: usize,
    /// Consecutive sampling intervals averaged into one training example
    /// (see [`collector::aggregate_windows`]); 1 disables aggregation.
    pub aggregation_window: usize,
    /// Base seed for all randomness.
    pub seed: u64,
}

impl Default for MinerConfig {
    fn default() -> Self {
        MinerConfig {
            pmu: PmuConfig::default(),
            cleaner: CleanerConfig::default(),
            cleaner_kind: CleanerKind::default(),
            importance: ImportanceConfig::default(),
            runs_per_benchmark: 3,
            events_to_measure: None,
            interaction_top_k: 10,
            aggregation_window: 1,
            seed: 0,
        }
    }
}

/// The complete analysis of one benchmark.
#[derive(Debug)]
pub struct AnalysisReport {
    /// The benchmark analyzed.
    pub benchmark: Benchmark,
    /// Which cleaner estimator produced the underlying data.
    pub cleaner: CleanerKind,
    /// EIR outcome: error curve, MAPM, importance ranking — plus, in
    /// `bayes` mode, importance confidence intervals and the
    /// ranking-stability score via [`EirResult::uncertainty`].
    pub eir: EirResult,
    /// Interaction ranking over the top events.
    pub interactions: Vec<PairInteraction>,
    /// Total outliers replaced during cleaning.
    pub outliers_replaced: usize,
    /// Total missing values filled during cleaning.
    pub missing_filled: usize,
}

/// The outcome of [`CounterMiner::ingest`]: what was collected (or
/// found already persisted) in the columnar store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestSummary {
    /// `true` when a matching snapshot was already committed and no
    /// collection happened.
    pub resumed: bool,
    /// Number of runs in the snapshot.
    pub runs: usize,
    /// Number of measured events per run.
    pub events: usize,
    /// Total outliers the cleaner replaced.
    pub outliers_replaced: usize,
    /// Total missing values the cleaner filled.
    pub missing_filled: usize,
}

/// The pipeline facade: owns the catalog and the component
/// configurations. Collected runs are persisted only through the
/// store-backed paths ([`CounterMiner::analyze_with_store`],
/// [`CounterMiner::ingest`]).
///
/// # Examples
///
/// ```no_run
/// use counterminer::{CounterMiner, MinerConfig};
/// use cm_sim::Benchmark;
///
/// let miner = CounterMiner::new(MinerConfig::default());
/// let report = miner.analyze(Benchmark::Wordcount)?;
/// for (event, importance) in report.eir.top(3) {
///     println!("{event}: {importance:.1}%");
/// }
/// # Ok::<(), counterminer::CmError>(())
/// ```
#[derive(Debug)]
pub struct CounterMiner {
    catalog: EventCatalog,
    config: MinerConfig,
}

impl CounterMiner {
    /// Creates a pipeline over the Haswell-E model catalog.
    pub fn new(config: MinerConfig) -> Self {
        CounterMiner {
            catalog: EventCatalog::haswell(),
            config,
        }
    }

    /// The event catalog.
    pub fn catalog(&self) -> &EventCatalog {
        &self.catalog
    }

    /// The pipeline configuration.
    pub fn config(&self) -> &MinerConfig {
        &self.config
    }

    /// Resolves the concrete event set the collector will measure for a
    /// benchmark under the current configuration. This is what the
    /// snapshot fingerprint hashes: the *set*, not just its size.
    pub(crate) fn resolve_events(&self, benchmark: Benchmark) -> cm_events::EventSet {
        let workload = Workload::new(benchmark, &self.catalog);
        let n_events = self
            .config
            .events_to_measure
            .unwrap_or(self.catalog.len())
            .min(self.catalog.len());
        workload.top_event_ids(&self.catalog, n_events)
    }

    /// Rejects a configuration whose collection would measure no event
    /// or collect no run, before anything is simulated.
    pub(crate) fn check_collection(&self) -> Result<(), CmError> {
        if self.config.events_to_measure == Some(0) {
            return Err(CmError::Invalid("events_to_measure must be at least 1"));
        }
        if self.config.runs_per_benchmark == 0 {
            return Err(CmError::Invalid("runs_per_benchmark must be at least 1"));
        }
        Ok(())
    }

    /// Collects the configured number of multiplexed runs of a
    /// benchmark. Collection is a pure function of the configuration, so
    /// collecting twice yields identical runs.
    pub fn collect(&self, benchmark: Benchmark) -> Vec<SimRun> {
        let workload = Workload::new(benchmark, &self.catalog);
        collector::collect_runs(
            &workload,
            &self.resolve_events(benchmark),
            SampleMode::Mlpx,
            self.config.runs_per_benchmark,
            &self.config.pmu,
            self.config.seed,
        )
    }

    /// Runs the full pipeline on one benchmark: collect, clean, build
    /// the dataset, EIR-rank importance, rank interactions among the top
    /// events.
    ///
    /// Each stage is wrapped in a [`cm_obs`] span (`analyze/collect`,
    /// `analyze/clean`, …), so running with `CM_OBS=summary` (or the
    /// CLI's `--metrics`) prints a per-stage wall-time tree afterwards.
    ///
    /// # Examples
    ///
    /// ```
    /// use cm_sim::Benchmark;
    /// use counterminer::{CounterMiner, ImportanceConfig, MinerConfig};
    ///
    /// let miner = CounterMiner::new(MinerConfig {
    ///     runs_per_benchmark: 1,
    ///     events_to_measure: Some(12),
    ///     ..MinerConfig::default()
    /// });
    /// let report = miner.analyze(Benchmark::Sort)?;
    /// assert!(!report.eir.ranking.is_empty());
    /// assert!(!report.interactions.is_empty());
    /// # Ok::<(), counterminer::CmError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`CmError::Invalid`] when `events_to_measure` is
    /// `Some(0)` or `runs_per_benchmark` is 0; propagates failures from
    /// any stage.
    pub fn analyze(&self, benchmark: Benchmark) -> Result<AnalysisReport, CmError> {
        self.check_collection()?;
        let _analyze = cm_obs::span!("analyze", benchmark = benchmark.name());
        cm_obs::counter_add("pipeline.analyses", 1);

        // The raw runs drop at the end of this block, so they are not
        // held beside the datasets the back half builds.
        let front = {
            let runs = {
                let _s = cm_obs::span!("collect");
                self.collect(benchmark)
            };
            let _s = cm_obs::span!("clean");
            self.clean(&runs)?
        };
        model_and_rank(&self.config, benchmark, &front)
    }

    /// Runs the pipeline against a persistent [`Store`], resuming from a
    /// committed snapshot when one matches the current configuration.
    ///
    /// The first call per (benchmark, collection configuration) is a
    /// *cold* run: it collects and cleans exactly as [`Self::analyze`]
    /// does, persists the raw series, cleaned series, per-run IPC, and
    /// cleaner tallies into `store` (committed atomically), and then
    /// models and ranks. Every later call with a matching configuration
    /// fingerprint is a *warm* run: PMU collection and cleaning are
    /// skipped entirely and the cleaned data is read back from the store.
    /// Cleaning is deterministic and the store round-trips `f64` values
    /// bit-exactly, so warm results are bit-identical to cold ones.
    ///
    /// Emits `pipeline.resume.hits` / `pipeline.resume.misses` counters
    /// through [`cm_obs`]; on a warm run the `collector.runs` and
    /// `cleaner.*` counters stay untouched — that is the observable proof
    /// the expensive stages were skipped.
    ///
    /// # Errors
    ///
    /// Propagates stage failures as [`Self::analyze`] does, plus store
    /// errors: a snapshot whose fingerprint matches but whose data is
    /// corrupt (checksum mismatch, truncation) is reported, never
    /// silently re-collected.
    pub fn analyze_with_store(
        &self,
        benchmark: Benchmark,
        store: &mut Store,
    ) -> Result<AnalysisReport, CmError> {
        let _analyze = cm_obs::span!("analyze", benchmark = benchmark.name());
        cm_obs::counter_add("pipeline.analyses", 1);

        let fp = self.snapshot_fingerprint(benchmark);
        let resumed = {
            let _s = cm_obs::span!("resume.probe");
            snapshot::load(store, benchmark, fp)?
        };
        let snap = match resumed {
            Some(snap) => {
                cm_obs::counter_add("pipeline.resume.hits", 1);
                snap
            }
            None => {
                cm_obs::counter_add("pipeline.resume.misses", 1);
                self.collect_and_persist(benchmark, fp, store)?
            }
        };
        model_and_rank(&self.config, benchmark, &snap)
    }

    /// The snapshot fingerprint the store-backed paths probe for: a hash
    /// of the collection knobs and the resolved event *set* for this
    /// benchmark under the current configuration. Two miners with equal
    /// fingerprints produce bit-identical snapshots — the key the
    /// serving layer uses to deduplicate identical analyze requests.
    pub fn snapshot_fingerprint(&self, benchmark: Benchmark) -> u64 {
        let measured = self.resolve_events(benchmark);
        snapshot::fingerprint(benchmark, &self.config, measured.as_slice())
    }

    /// The warm, shared-read half of [`Self::analyze_with_store`]: if a
    /// snapshot matching the current configuration is committed in
    /// `store`, models and ranks from it and returns the report;
    /// otherwise returns `Ok(None)` without collecting anything.
    ///
    /// Unlike [`Self::analyze_with_store`] this needs only `&self` and
    /// `&Store`, so any number of threads can analyze from one store
    /// handle concurrently — the serving layer's hot path. (Its cold
    /// path first populates the store via [`Self::ingest`], which does
    /// take `&mut Store`.) Results are bit-identical to the other
    /// analyze paths; a warm hit counts `pipeline.resume.hits` exactly
    /// as resuming through `analyze_with_store` would.
    ///
    /// # Errors
    ///
    /// Propagates store and modeling failures; a fingerprint-matching
    /// but corrupt snapshot is an error, never a silent `None`.
    pub fn analyze_snapshot(
        &self,
        benchmark: Benchmark,
        store: &Store,
    ) -> Result<Option<AnalysisReport>, CmError> {
        let _analyze = cm_obs::span!("analyze", benchmark = benchmark.name());
        let fp = self.snapshot_fingerprint(benchmark);
        let snap = {
            let _s = cm_obs::span!("resume.probe");
            snapshot::load(store, benchmark, fp)?
        };
        let Some(snap) = snap else {
            return Ok(None);
        };
        cm_obs::counter_add("pipeline.analyses", 1);
        cm_obs::counter_add("pipeline.resume.hits", 1);
        model_and_rank(&self.config, benchmark, &snap).map(Some)
    }

    /// Collects and cleans a benchmark and persists the snapshot into
    /// `store`, without modeling — `counterminer ingest`'s engine. A
    /// matching snapshot makes this a cheap no-op (`resumed: true`).
    ///
    /// # Errors
    ///
    /// As [`Self::analyze`] for the configuration; propagates collection,
    /// cleaning, and store failures.
    pub fn ingest(
        &self,
        benchmark: Benchmark,
        store: &mut Store,
    ) -> Result<IngestSummary, CmError> {
        let _s = cm_obs::span!("ingest", benchmark = benchmark.name());
        let fp = self.snapshot_fingerprint(benchmark);
        let (snap, resumed) = match snapshot::load(store, benchmark, fp)? {
            Some(snap) => {
                cm_obs::counter_add("pipeline.resume.hits", 1);
                (snap, true)
            }
            None => {
                cm_obs::counter_add("pipeline.resume.misses", 1);
                (self.collect_and_persist(benchmark, fp, store)?, false)
            }
        };
        Ok(IngestSummary {
            resumed,
            runs: snap.runs.len(),
            events: snap.events.len(),
            outliers_replaced: snap.tally.outliers_replaced,
            missing_filled: snap.tally.missing_filled,
        })
    }

    /// The cold front half of the store-backed pipeline: collect and
    /// clean exactly as `analyze` does, and commit the snapshot. Returns
    /// the snapshot *re-read from the store*, so the cold path exercises
    /// the exact code the warm path will, and a store that cannot
    /// round-trip fails loudly on day one.
    fn collect_and_persist(
        &self,
        benchmark: Benchmark,
        fp: u64,
        store: &mut Store,
    ) -> Result<CleanedRuns, CmError> {
        self.check_collection()?;
        let runs = {
            let _s = cm_obs::span!("collect");
            self.collect(benchmark)
        };
        let cleaned = {
            let _s = cm_obs::span!("clean");
            self.clean(&runs)?
        };
        let _s = cm_obs::span!("persist");
        snapshot::save(store, benchmark, fp, &runs, &cleaned)?;
        store.commit()?;
        snapshot::load(store, benchmark, fp)?.ok_or(CmError::Invalid(
            "snapshot vanished immediately after commit",
        ))
    }

    /// The front half under this configuration's cleaner and kind.
    fn clean(&self, runs: &[SimRun]) -> Result<CleanedRuns, CmError> {
        let cleaner = DataCleaner::new(self.config.cleaner);
        front::clean_runs(&cleaner, self.config.cleaner_kind, runs)
    }
}

/// The back half of the pipeline, shared by every analyze path and the
/// streaming session: dataset assembly, window aggregation and
/// normalization, EIR importance ranking (with `bayes` uncertainty
/// folded in) and interaction ranking over the front half's cleaned
/// runs.
///
/// # Errors
///
/// Propagates dataset, training, and ranking failures.
pub fn model_and_rank(
    config: &MinerConfig,
    benchmark: Benchmark,
    front: &CleanedRuns,
) -> Result<AnalysisReport, CmError> {
    let (runs, events) = (&front.runs, &front.events);
    let data = {
        let _s = cm_obs::span!("dataset");
        let data = collector::build_dataset(runs, events)?;
        let data = collector::aggregate_windows(&data, config.aggregation_window)?;
        collector::normalize_columns(&data)?
    };

    let column_uncertainty: Option<Vec<f64>> = front.uncertainty.as_ref().map(|aggregates| {
        let total_variance: f64 = aggregates.iter().map(|a| a.sum_variance).sum();
        let reconstructed: u64 = aggregates.iter().map(|a| a.reconstructed).sum();
        // One point per analysis: how much uncertainty the cleaner
        // injected, against how many values it reconstructed.
        cm_obs::series_push("clean.variance.total", reconstructed as f64, total_variance);
        aggregates
            .iter()
            .map(VarianceAggregate::relative_uncertainty)
            .collect()
    });

    let ranker = ImportanceRanker::new(config.importance);
    let eir = {
        let _s = cm_obs::span!("eir");
        ranker.rank_with_uncertainty(&data, events, column_uncertainty.as_deref())?
    };

    let interactions = {
        let _s = cm_obs::span!("interactions");
        InteractionRanker::new().rank_top_additive(&eir, events, &data, config.interaction_top_k)?
    };

    Ok(AnalysisReport {
        benchmark,
        cleaner: config.cleaner_kind,
        eir,
        interactions,
        outliers_replaced: front.tally.outliers_replaced,
        missing_filled: front.tally.missing_filled,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cm_ml::{SgbrtConfig, TreeConfig};

    /// A configuration small enough for debug-mode tests.
    fn tiny_config() -> MinerConfig {
        MinerConfig {
            runs_per_benchmark: 1,
            events_to_measure: Some(14),
            importance: ImportanceConfig {
                sgbrt: SgbrtConfig {
                    n_trees: 40,
                    tree: TreeConfig {
                        max_depth: 3,
                        ..TreeConfig::default()
                    },
                    ..SgbrtConfig::default()
                },
                prune_step: 3,
                min_events: 8,
                ..ImportanceConfig::default()
            },
            interaction_top_k: 4,
            ..MinerConfig::default()
        }
    }

    #[test]
    fn end_to_end_analysis_runs() {
        let miner = CounterMiner::new(tiny_config());
        let report = miner.analyze(Benchmark::Wordcount).unwrap();
        assert_eq!(report.benchmark, Benchmark::Wordcount);
        assert!(!report.eir.ranking.is_empty());
        assert_eq!(report.interactions.len(), 4 * 3 / 2);
        // Multiplexing 14 events on 4 counters produces dirty data the
        // cleaner acts on.
        assert!(report.outliers_replaced + report.missing_filled > 0);
    }

    /// Regression: `events_to_measure: Some(0)` used to panic inside the
    /// MLPX rotation. Every entry point that collects rejects it first.
    #[test]
    fn measuring_no_event_is_rejected_before_collection() {
        let dir = std::env::temp_dir().join(format!("cm_pipe_zero_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let mut store = Store::open(dir.join("zero.cmstore")).unwrap();
        let miner = CounterMiner::new(MinerConfig {
            events_to_measure: Some(0),
            ..tiny_config()
        });
        let invalid = |e: CmError| assert!(matches!(e, CmError::Invalid(_)), "{e}");
        invalid(miner.analyze(Benchmark::Sort).unwrap_err());
        invalid(
            miner
                .analyze_with_store(Benchmark::Sort, &mut store)
                .unwrap_err(),
        );
        invalid(miner.ingest(Benchmark::Sort, &mut store).unwrap_err());
        let cfg = crate::ClusterConfig::default();
        invalid(
            miner
                .analyze_cluster(&[Benchmark::Sort], &mut store, &cfg)
                .unwrap_err(),
        );
        assert_eq!(store.run_ids().count(), 0);
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Regression: `runs_per_benchmark: 0` used to reach collection;
    /// the store-backed paths committed a zero-run snapshot that their
    /// own loader then rejected. Every entry point that collects
    /// rejects it first and commits nothing.
    #[test]
    fn collecting_no_run_is_rejected_before_collection() {
        let dir = std::env::temp_dir().join(format!("cm_pipe_no_runs_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let mut store = Store::open(dir.join("no_runs.cmstore")).unwrap();
        let miner = CounterMiner::new(MinerConfig {
            runs_per_benchmark: 0,
            ..tiny_config()
        });
        let invalid = |e: CmError| assert!(matches!(e, CmError::Invalid(_)), "{e}");
        invalid(miner.analyze(Benchmark::Sort).unwrap_err());
        invalid(
            miner
                .analyze_with_store(Benchmark::Sort, &mut store)
                .unwrap_err(),
        );
        invalid(miner.ingest(Benchmark::Sort, &mut store).unwrap_err());
        let cfg = crate::ClusterConfig::default();
        invalid(
            miner
                .analyze_cluster(&[Benchmark::Sort, Benchmark::Wordcount], &mut store, &cfg)
                .unwrap_err(),
        );
        assert_eq!(store.run_ids().count(), 0);
        assert_eq!(store.series_count(), 0);
        for b in ["sort", "wordcount"] {
            assert_eq!(store.meta(&format!("snapshot.{b}.runs")), None, "{b}");
        }
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn top_ranked_event_is_a_dominant_profile_event() {
        let miner = CounterMiner::new(MinerConfig {
            runs_per_benchmark: 2,
            ..tiny_config()
        });
        let report = miner.analyze(Benchmark::Wordcount).unwrap();
        let profile = Benchmark::Wordcount.importance_profile();
        let top_abbrevs: Vec<&str> = report
            .eir
            .top(4)
            .iter()
            .map(|&(e, _)| miner.catalog().info(e).abbrev())
            .collect();
        // At least one of the benchmark's dominant events must appear in
        // the recovered top-4 (the full-scale check lives in the
        // integration suite; this is the smoke version).
        assert!(
            top_abbrevs.iter().any(|a| profile[..3].contains(a)),
            "top events {top_abbrevs:?} missed all of {:?}",
            &profile[..3]
        );
    }

    /// The pipeline must run under either trainer; the default config
    /// ([`cm_ml::Trainer::default`]) is exercised by the other tests, so
    /// this pins the exact path explicitly.
    #[test]
    fn analysis_runs_with_exact_trainer() {
        let mut config = tiny_config();
        config.importance.sgbrt.trainer = cm_ml::Trainer::Exact;
        let miner = CounterMiner::new(config);
        let report = miner.analyze(Benchmark::Sort).unwrap();
        assert!(!report.eir.ranking.is_empty());
        assert_eq!(report.interactions.len(), 4 * 3 / 2);
    }

    #[test]
    fn store_backed_analysis_resumes_bit_identically() {
        let dir = std::env::temp_dir().join(format!("cm_pipe_store_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let mut store = Store::open(dir.join("pipe.cmstore")).unwrap();

        let miner = CounterMiner::new(tiny_config());
        let cold = miner
            .analyze_with_store(Benchmark::Wordcount, &mut store)
            .unwrap();
        let warm = miner
            .analyze_with_store(Benchmark::Wordcount, &mut store)
            .unwrap();
        assert_eq!(cold.eir.ranking, warm.eir.ranking);
        assert_eq!(cold.outliers_replaced, warm.outliers_replaced);
        assert_eq!(cold.missing_filled, warm.missing_filled);
        let pairs = |r: &AnalysisReport| {
            r.interactions
                .iter()
                .map(|p| (p.pair, p.intensity, p.share))
                .collect::<Vec<_>>()
        };
        assert_eq!(pairs(&cold), pairs(&warm));
        // And the plain in-memory path agrees with both.
        let plain = CounterMiner::new(tiny_config());
        let baseline = plain.analyze(Benchmark::Wordcount).unwrap();
        assert_eq!(baseline.eir.ranking, warm.eir.ranking);

        // A changed collection knob is a miss, not stale data.
        let reseeded = CounterMiner::new(MinerConfig {
            seed: 42,
            ..tiny_config()
        });
        let other = reseeded
            .analyze_with_store(Benchmark::Wordcount, &mut store)
            .unwrap();
        assert!(!other.eir.ranking.is_empty());
    }

    /// The shared-read analyze path: `None` before any snapshot exists,
    /// and bit-identical to `analyze_with_store` once one is committed —
    /// all through `&self` + `&Store`.
    #[test]
    fn analyze_snapshot_is_warm_only_and_bit_identical() {
        let dir = std::env::temp_dir().join(format!("cm_pipe_snap_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let mut store = Store::open(dir.join("snap.cmstore")).unwrap();

        let miner = CounterMiner::new(tiny_config());
        assert!(miner
            .analyze_snapshot(Benchmark::Sort, &store)
            .unwrap()
            .is_none());

        let summary = miner.ingest(Benchmark::Sort, &mut store).unwrap();
        assert!(!summary.resumed);
        let warm = miner
            .analyze_snapshot(Benchmark::Sort, &store)
            .unwrap()
            .expect("snapshot committed by ingest");

        let oracle = CounterMiner::new(tiny_config());
        let full = oracle
            .analyze_with_store(Benchmark::Sort, &mut store)
            .unwrap();
        assert_eq!(warm.eir.ranking, full.eir.ranking);
        assert_eq!(warm.outliers_replaced, full.outliers_replaced);
        assert_eq!(warm.missing_filled, full.missing_filled);
        assert_eq!(
            miner.snapshot_fingerprint(Benchmark::Sort),
            oracle.snapshot_fingerprint(Benchmark::Sort)
        );
    }

    /// The tentpole guarantee: `bayes` mode changes no ranking, no error
    /// curve, no cleaner tallies — it only attaches uncertainty.
    #[test]
    fn bayes_analysis_matches_point_and_adds_uncertainty() {
        let point = CounterMiner::new(MinerConfig {
            cleaner_kind: CleanerKind::Point,
            ..tiny_config()
        });
        let bayes = CounterMiner::new(MinerConfig {
            cleaner_kind: CleanerKind::Bayes,
            ..tiny_config()
        });
        let p = point.analyze(Benchmark::Wordcount).unwrap();
        let b = bayes.analyze(Benchmark::Wordcount).unwrap();
        assert_eq!(p.eir.ranking, b.eir.ranking);
        assert_eq!(p.outliers_replaced, b.outliers_replaced);
        assert_eq!(p.missing_filled, b.missing_filled);
        assert_eq!(
            p.eir.iterations.iter().map(|i| i.error).collect::<Vec<_>>(),
            b.eir.iterations.iter().map(|i| i.error).collect::<Vec<_>>(),
        );
        assert_eq!(p.cleaner, CleanerKind::Point);
        assert_eq!(b.cleaner, CleanerKind::Bayes);
        assert!(p.eir.uncertainty.is_none());
        let uncertainty = b
            .eir
            .uncertainty
            .as_ref()
            .expect("bayes attaches uncertainty");
        assert!((0.0..=1.0).contains(&uncertainty.stability));
        assert_eq!(uncertainty.stds.len(), b.eir.ranking.len());
        // Dirty multiplexed data was reconstructed, so some column must
        // carry nonzero injected variance.
        assert!(uncertainty.stds.iter().all(|s| s.is_finite() && *s >= 0.0));
        assert!(b.eir.iterations.iter().all(|i| i.stability.is_some()));
    }

    /// A store ingested with one cleaner kind must not warm-start an
    /// analysis with the other: cross-kind resume is a miss, not a stale
    /// bit-identical hit.
    #[test]
    fn cross_cleaner_resume_is_a_miss() {
        let dir = std::env::temp_dir().join(format!("cm_pipe_kind_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let mut store = Store::open(dir.join("kind.cmstore")).unwrap();

        let point = CounterMiner::new(MinerConfig {
            cleaner_kind: CleanerKind::Point,
            ..tiny_config()
        });
        let bayes = CounterMiner::new(MinerConfig {
            cleaner_kind: CleanerKind::Bayes,
            ..tiny_config()
        });
        assert_ne!(
            point.snapshot_fingerprint(Benchmark::Sort),
            bayes.snapshot_fingerprint(Benchmark::Sort),
        );

        let cold_point = point.ingest(Benchmark::Sort, &mut store).unwrap();
        assert!(!cold_point.resumed);
        assert!(point.ingest(Benchmark::Sort, &mut store).unwrap().resumed);
        // Same store, other kind: a fresh collection, not a stale hit.
        let cold_bayes = bayes.ingest(Benchmark::Sort, &mut store).unwrap();
        assert!(!cold_bayes.resumed);
        assert!(bayes.ingest(Benchmark::Sort, &mut store).unwrap().resumed);
    }

    /// Warm bayes runs must replay the persisted variance aggregates
    /// bit-exactly: stability scores, stds, and intervals all identical
    /// to the cold run.
    #[test]
    fn bayes_store_resume_is_bit_identical() {
        let dir = std::env::temp_dir().join(format!("cm_pipe_bayes_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let mut store = Store::open(dir.join("bayes.cmstore")).unwrap();

        let miner = CounterMiner::new(MinerConfig {
            cleaner_kind: CleanerKind::Bayes,
            ..tiny_config()
        });
        let cold = miner
            .analyze_with_store(Benchmark::Wordcount, &mut store)
            .unwrap();
        let warm = miner
            .analyze_with_store(Benchmark::Wordcount, &mut store)
            .unwrap();
        assert_eq!(cold.eir.ranking, warm.eir.ranking);
        assert_eq!(cold.eir.uncertainty, warm.eir.uncertainty);
        assert_eq!(
            cold.eir
                .iterations
                .iter()
                .map(|i| i.stability)
                .collect::<Vec<_>>(),
            warm.eir
                .iterations
                .iter()
                .map(|i| i.stability)
                .collect::<Vec<_>>(),
        );
        // And both agree with the in-memory bayes path.
        let plain = CounterMiner::new(MinerConfig {
            cleaner_kind: CleanerKind::Bayes,
            ..tiny_config()
        });
        let baseline = plain.analyze(Benchmark::Wordcount).unwrap();
        assert_eq!(baseline.eir.ranking, warm.eir.ranking);
        assert_eq!(baseline.eir.uncertainty, warm.eir.uncertainty);
    }
}
