//! Cross-benchmark counter-signature clustering and anomalous-run
//! detection — the `cluster` analysis mode.
//!
//! The paper's motivating claim is that *cleaned* hardware-counter data
//! is meaningful enough to mine; this mode demonstrates it across
//! benchmarks. Every run in the store contributes one **signature**
//! built from its cleaned series (per common event: log mean count and
//! coefficient of variation, plus run length and mean IPC), the
//! signatures are normalized robustly and clustered with seeded
//! k-medoids ([`cm_stats::cluster`]), and each run's distance to its
//! medoid is compared against a per-cluster calibrated threshold —
//! runs beyond it are flagged anomalous.
//!
//! Signatures are built from the cleaned series a snapshot persisted,
//! so the mode works identically for `point` and `bayes` ingests (the
//! bayes cleaner reconstructs the same values and only adds variance).
//! Everything downstream of ingest is deterministic at any thread
//! count.
//!
//! Counters emitted under the `cluster.*` namespace: `cluster.analyses`,
//! `cluster.runs`, `cluster.injected`, `cluster.anomalies` — all counts,
//! bit-identical at any `CM_THREADS`.

use crate::{clean_runs, snapshot, CleanerKind, CmError, CounterMiner, DataCleaner};
use cm_events::EventId;
use cm_sim::{Benchmark, SimRun, Workload};
use cm_stats::cluster::{k_medoids, pairwise_distances};
use cm_stats::descriptive;
use cm_store::Store;
use std::fmt;

/// Run indices of injected anomalous runs start here, far above any
/// collected run index, so reports can never confuse the two.
const INJECT_BASE: u32 = 1_000_000;

/// Weight applied to the normalized coefficient-of-variation signature
/// dimensions. CV is estimated from a single run's intervals and is far
/// noisier than the mean counts that carry the workload-family signal.
const CV_WEIGHT: f64 = 0.25;

/// Configuration of the `cluster` analysis mode.
///
/// # Examples
///
/// ```
/// use counterminer::ClusterConfig;
///
/// let cfg = ClusterConfig::default();
/// assert_eq!(cfg.k, 4);
/// assert_eq!(cfg.inject_anomalies, 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterConfig {
    /// Number of clusters. Defaults to 4 — the simulator's ground-truth
    /// workload family count ([`cm_sim::FAMILIES`]).
    pub k: usize,
    /// Anomaly threshold in robust sigmas: a run is flagged when its
    /// distance to its medoid exceeds
    /// `median + threshold_sigmas * 1.4826 * MAD` of its cluster's
    /// corpus distances. Robust statistics (and corpus-only
    /// calibration) keep anomalies from inflating the threshold that
    /// is supposed to catch them.
    pub threshold_sigmas: f64,
    /// Anomalous runs to inject per benchmark (via
    /// [`Workload::anomalous_run`]), measured and cleaned like real
    /// runs but never persisted. 0 in production; tests and demos use
    /// it to verify detection.
    pub inject_anomalies: usize,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            k: cm_sim::FAMILIES.len(),
            threshold_sigmas: 3.0,
            inject_anomalies: 0,
        }
    }
}

/// One clustered run in a [`ClusterReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct ClusteredRun {
    /// The benchmark the run belongs to.
    pub benchmark: Benchmark,
    /// The run's index (collected runs count from 0; injected
    /// anomalous runs from 1 000 000).
    pub run_index: u32,
    /// Whether this run was injected by
    /// [`ClusterConfig::inject_anomalies`].
    pub injected: bool,
    /// Assigned cluster id in `0..k`.
    pub cluster: usize,
    /// Distance to the cluster's medoid in normalized signature space.
    pub medoid_distance: f64,
    /// The run's silhouette score (0 for injected probes, which are
    /// scored against the fitted clustering but are not part of it).
    pub silhouette: f64,
    /// Whether the run's medoid distance exceeds its cluster's
    /// calibrated threshold.
    pub anomalous: bool,
}

/// The outcome of the `cluster` analysis mode.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterReport {
    /// Number of clusters.
    pub k: usize,
    /// Every clustered run, benchmarks in input order, runs in index
    /// order, injected runs after collected ones per benchmark.
    pub runs: Vec<ClusteredRun>,
    /// Index into `runs` of each cluster's medoid.
    pub medoids: Vec<usize>,
    /// Per-cluster anomaly thresholds (same distance space as
    /// [`ClusteredRun::medoid_distance`]).
    pub thresholds: Vec<f64>,
    /// Mean silhouette of the clustering — quality in one number.
    pub mean_silhouette: f64,
}

impl ClusterReport {
    /// Number of runs flagged anomalous.
    pub fn anomaly_count(&self) -> usize {
        self.runs.iter().filter(|r| r.anomalous).count()
    }

    /// The benchmarks assigned to cluster `c`, deduplicated, in input
    /// order.
    pub fn cluster_benchmarks(&self, c: usize) -> Vec<Benchmark> {
        let mut out = Vec::new();
        for run in self.runs.iter().filter(|r| r.cluster == c) {
            if !out.contains(&run.benchmark) {
                out.push(run.benchmark);
            }
        }
        out
    }
}

impl fmt::Display for ClusterReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Counter-signature clustering — {} runs, k = {}, mean silhouette {:.3}",
            self.runs.len(),
            self.k,
            self.mean_silhouette
        )?;
        for c in 0..self.k {
            let medoid = &self.runs[self.medoids[c]];
            writeln!(
                f,
                "cluster {c} (medoid {} run {}, threshold {:.3}):",
                medoid.benchmark, medoid.run_index, self.thresholds[c]
            )?;
            for b in self.cluster_benchmarks(c) {
                let members: Vec<&ClusteredRun> = self
                    .runs
                    .iter()
                    .filter(|r| r.cluster == c && r.benchmark == b)
                    .collect();
                let max_d = members
                    .iter()
                    .map(|r| r.medoid_distance)
                    .fold(0.0, f64::max);
                writeln!(
                    f,
                    "  {:<20} {:>2} runs, max distance {max_d:.3}",
                    b.to_string(),
                    members.len()
                )?;
            }
        }
        let anomalies: Vec<&ClusteredRun> = self.runs.iter().filter(|r| r.anomalous).collect();
        if anomalies.is_empty() {
            writeln!(f, "no anomalous runs")?;
        } else {
            writeln!(f, "anomalous runs ({}):", anomalies.len())?;
            for r in anomalies {
                writeln!(
                    f,
                    "  {} run {}{}: distance {:.3} > threshold {:.3}",
                    r.benchmark,
                    r.run_index,
                    if r.injected { " (injected)" } else { "" },
                    r.medoid_distance,
                    self.thresholds[r.cluster],
                )?;
            }
        }
        Ok(())
    }
}

impl CounterMiner {
    /// Runs the `cluster` analysis mode over `benchmarks`: ingests any
    /// benchmark not yet snapshotted in `store` (warm snapshots are
    /// reused bit-identically), then clusters all cleaned runs and
    /// flags anomalies. The method is described in the docs of the
    /// `clusterer` module (`crates/core/src/clusterer.rs`).
    ///
    /// # Errors
    ///
    /// Propagates ingest and store failures, plus
    /// [`CmError::Invalid`] for an empty benchmark list or `k` larger
    /// than the run count.
    pub fn analyze_cluster(
        &self,
        benchmarks: &[Benchmark],
        store: &mut Store,
        cfg: &ClusterConfig,
    ) -> Result<ClusterReport, CmError> {
        for &b in benchmarks {
            self.ingest(b, store)?;
        }
        self.cluster_snapshot(benchmarks, store, cfg)?
            .ok_or(CmError::Invalid(
                "snapshot vanished immediately after ingest",
            ))
    }

    /// The warm, shared-read half of [`CounterMiner::analyze_cluster`]:
    /// clusters from committed snapshots only, through `&Store`, so the
    /// serving layer can satisfy cluster requests concurrently. Returns
    /// `Ok(None)` when any benchmark has no matching snapshot — the
    /// caller then ingests (one write lock) and retries.
    ///
    /// # Errors
    ///
    /// As [`CounterMiner::analyze_cluster`]; a fingerprint-matching but
    /// corrupt snapshot is an error, never `None`.
    pub fn cluster_snapshot(
        &self,
        benchmarks: &[Benchmark],
        store: &Store,
        cfg: &ClusterConfig,
    ) -> Result<Option<ClusterReport>, CmError> {
        let _span = cm_obs::span!("cluster");
        if benchmarks.is_empty() {
            return Err(CmError::Invalid("cluster needs at least one benchmark"));
        }

        // Load every benchmark's cleaned snapshot (warm reads only).
        let mut snaps = Vec::with_capacity(benchmarks.len());
        {
            let _s = cm_obs::span!("load");
            for &b in benchmarks {
                let fp = self.snapshot_fingerprint(b);
                match snapshot::load(store, b, fp)? {
                    Some(snap) => snaps.push(snap),
                    None => return Ok(None),
                }
            }
        }
        cm_obs::counter_add("cluster.analyses", 1);

        // Inject anomalous runs (measured and cleaned, never persisted).
        let injected = {
            let _s = cm_obs::span!("inject");
            self.inject_anomalies(benchmarks, cfg.inject_anomalies)?
        };

        // The corpus: every persisted run, benchmarks in input order.
        // Injected probes are scored against the fitted clustering but
        // never shape it — medoids, normalization, and thresholds all
        // come from the store's corpus, so a batch of anomalies cannot
        // hijack the medoids it is measured against.
        let mut corpus: Vec<(Benchmark, &SimRun)> = Vec::new();
        for (&b, snap) in benchmarks.iter().zip(&snaps) {
            for run in &snap.runs {
                corpus.push((b, run));
            }
        }
        let probes: Vec<(Benchmark, &SimRun)> = benchmarks
            .iter()
            .zip(&injected)
            .flat_map(|(&b, extra)| extra.iter().map(move |run| (b, run)))
            .collect();
        cm_obs::counter_add("cluster.runs", (corpus.len() + probes.len()) as u64);
        cm_obs::counter_add("cluster.injected", probes.len() as u64);

        // Signatures over the events every benchmark measured,
        // normalized by corpus statistics.
        let events = common_events(snaps.iter().map(|s| s.events.as_slice()));
        if events.is_empty() {
            return Err(CmError::Invalid(
                "benchmarks share no measured events to build signatures from",
            ));
        }
        let (mut signatures, mut probe_signatures) = {
            let _s = cm_obs::span!("signatures");
            let mut raw = cm_par::map(&corpus, |&(_, run)| run_signature(run, &events));
            let mut raw_probes = cm_par::map(&probes, |&(_, run)| run_signature(run, &events));
            normalize_signatures(&mut raw, &mut raw_probes)?;
            (raw, raw_probes)
        };
        // Down-weight the per-run coefficient-of-variation dimensions:
        // a CV estimated from one run's few intervals is noisy, while
        // the family signal lives in the mean counts. Full weight on
        // both lets run-to-run CV jitter pull single runs across family
        // boundaries.
        for sig in signatures.iter_mut().chain(probe_signatures.iter_mut()) {
            for e in 0..events.len() {
                sig[2 * e + 1] *= CV_WEIGHT;
            }
        }

        // Fit medoids on the corpus and calibrate per-cluster anomaly
        // thresholds from the corpus distances.
        let _s = cm_obs::span!("medoids");
        let distances = pairwise_distances(&signatures).map_err(CmError::Stats)?;
        let clustering =
            k_medoids(&distances, cfg.k, self.config().seed).map_err(CmError::Stats)?;
        let medoid_distances = clustering.medoid_distances(&distances);
        let thresholds = anomaly_thresholds(&clustering.assignments, &medoid_distances, cfg)?;

        let mut runs: Vec<ClusteredRun> = corpus
            .iter()
            .enumerate()
            .map(|(i, &(benchmark, run))| ClusteredRun {
                benchmark,
                run_index: run.record.run_index(),
                injected: false,
                cluster: clustering.assignments[i],
                medoid_distance: medoid_distances[i],
                silhouette: clustering.silhouettes[i],
                anomalous: medoid_distances[i] > thresholds[clustering.assignments[i]],
            })
            .collect();
        // Score the probes: nearest fitted medoid, same distance space.
        for (&(benchmark, run), sig) in probes.iter().zip(&probe_signatures) {
            let (cluster, medoid_distance) = clustering
                .medoids
                .iter()
                .enumerate()
                .map(|(c, &m)| (c, euclidean(sig, &signatures[m])))
                .min_by(|a, b| a.1.total_cmp(&b.1))
                .expect("at least one medoid");
            runs.push(ClusteredRun {
                benchmark,
                run_index: run.record.run_index(),
                injected: true,
                cluster,
                medoid_distance,
                silhouette: 0.0,
                anomalous: medoid_distance > thresholds[cluster],
            });
        }
        cm_obs::counter_add(
            "cluster.anomalies",
            runs.iter().filter(|r| r.anomalous).count() as u64,
        );
        Ok(Some(ClusterReport {
            k: cfg.k,
            runs,
            medoids: clustering.medoids,
            thresholds,
            mean_silhouette: clustering.mean_silhouette,
        }))
    }

    /// Collects and cleans `count` anomalous runs per benchmark, exactly
    /// as the real collection path measures runs, without touching any
    /// store.
    fn inject_anomalies(
        &self,
        benchmarks: &[Benchmark],
        count: usize,
    ) -> Result<Vec<Vec<SimRun>>, CmError> {
        self.check_collection()?;
        let cleaner = DataCleaner::new(self.config().cleaner);
        benchmarks
            .iter()
            .map(|&b| {
                let workload = Workload::new(b, self.catalog());
                let events = self.resolve_events(b);
                let measured: Vec<SimRun> = (0..count)
                    .map(|i| {
                        let idx = INJECT_BASE + i as u32;
                        let truth = workload.anomalous_run(idx, self.config().seed);
                        self.config().pmu.measure_mlpx(
                            &workload,
                            &truth,
                            &events,
                            idx,
                            self.config().seed,
                        )
                    })
                    .collect();
                // Signatures read cleaned values only, which both kinds
                // reconstruct identically; the point cleaner is enough.
                Ok(clean_runs(&cleaner, CleanerKind::Point, &measured)?.runs)
            })
            .collect()
    }
}

/// The events present in every snapshot, in event-id order.
fn common_events<'a>(mut event_lists: impl Iterator<Item = &'a [EventId]>) -> Vec<EventId> {
    let Some(first) = event_lists.next() else {
        return Vec::new();
    };
    let mut common: Vec<EventId> = first.to_vec();
    for list in event_lists {
        common.retain(|e| list.contains(e));
    }
    common.sort_by_key(|e| e.index());
    common
}

/// One run's raw signature: per common event `[ln(1 + mean count),
/// coefficient of variation]`, then `[ln(intervals), mean IPC]`.
fn run_signature(run: &SimRun, events: &[EventId]) -> Vec<f64> {
    let mut sig = Vec::with_capacity(2 * events.len() + 2);
    for &event in events {
        let values = run
            .record
            .series(event)
            .map(cm_events::TimeSeries::values)
            .unwrap_or(&[]);
        let n = values.len().max(1) as f64;
        let mean = values.iter().sum::<f64>() / n;
        let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
        sig.push((1.0 + mean.max(0.0)).ln());
        sig.push(if mean.abs() > 1e-12 {
            var.sqrt() / mean
        } else {
            0.0
        });
    }
    sig.push((run.ipc.len().max(1) as f64).ln());
    sig.push(run.ipc.iter().sum::<f64>() / run.ipc.len().max(1) as f64);
    sig
}

/// Euclidean distance between two equal-length signature vectors.
fn euclidean(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(&x, &y)| (x - y) * (x - y))
        .sum::<f64>()
        .sqrt()
}

/// Normalizes each signature dimension in place, robustly: centre on the corpus
/// median, scale by the corpus IQR (falling back to the standard
/// deviation for near-constant dimensions; dimensions constant across
/// the corpus drop to zero). `probes` are transformed with the *same*
/// corpus statistics — injected anomalies must not skew the scale that
/// is supposed to expose them.
fn normalize_signatures(corpus: &mut [Vec<f64>], probes: &mut [Vec<f64>]) -> Result<(), CmError> {
    let dims = corpus.first().map_or(0, Vec::len);
    for d in 0..dims {
        let column: Vec<f64> = corpus.iter().map(|s| s[d]).collect();
        let centre = descriptive::median(&column).map_err(CmError::Stats)?;
        let iqr = descriptive::quantile(&column, 0.75).map_err(CmError::Stats)?
            - descriptive::quantile(&column, 0.25).map_err(CmError::Stats)?;
        let scale = if iqr > 1e-12 {
            iqr
        } else {
            descriptive::std_dev(&column).unwrap_or(0.0)
        };
        for s in corpus.iter_mut().chain(probes.iter_mut()) {
            s[d] = if scale > 1e-12 {
                (s[d] - centre) / scale
            } else {
                0.0
            };
        }
    }
    Ok(())
}

/// Per-cluster anomaly thresholds: `median + sigmas * 1.4826 * MAD` of
/// the members' medoid distances. An empty cluster (possible when
/// Voronoi iteration empties a seed) gets an infinite threshold — it
/// can flag nothing.
fn anomaly_thresholds(
    assignments: &[usize],
    medoid_distances: &[f64],
    cfg: &ClusterConfig,
) -> Result<Vec<f64>, CmError> {
    (0..cfg.k)
        .map(|c| {
            let members: Vec<f64> = assignments
                .iter()
                .zip(medoid_distances)
                .filter(|&(&a, _)| a == c)
                .map(|(_, &d)| d)
                .collect();
            if members.is_empty() {
                return Ok(f64::INFINITY);
            }
            let centre = descriptive::median(&members).map_err(CmError::Stats)?;
            let deviations: Vec<f64> = members.iter().map(|d| (d - centre).abs()).collect();
            let mad = descriptive::median(&deviations).map_err(CmError::Stats)?;
            Ok(centre + cfg.threshold_sigmas * 1.4826 * mad)
        })
        .collect()
}
