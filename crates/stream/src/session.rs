//! The streaming session: chunked append, block-incremental cleaning,
//! and warm-started analysis.

use crate::{RankSummary, StreamError};
use cm_events::{EventCatalog, EventId, RunRecord, SampleMode, TimeSeries};
use cm_sim::{Benchmark, SimRun, Workload};
use cm_store::{SeriesKey, Store};
use counterminer::{
    collector, model_and_rank, AnalysisReport, CleanTally, CleanedRuns, CleanerKind, DataCleaner,
    MinerConfig, VarianceAggregate,
};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Default sealed-block width in sampling intervals; override with the
/// `CM_STREAM_BLOCK` environment variable or [`StreamConfig::block`].
pub const DEFAULT_BLOCK: usize = 64;

/// Reserved per-run series slot the session persists measured IPC
/// under — far outside any catalog event index.
const IPC_SLOT: usize = u16::MAX as usize;

/// Configuration of a [`StreamSession`]: the pipeline knobs plus the
/// sealed-block width.
///
/// # Examples
///
/// ```
/// use cm_stream::{StreamConfig, DEFAULT_BLOCK};
///
/// let config = StreamConfig::default();
/// assert_eq!(config.block, DEFAULT_BLOCK);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct StreamConfig {
    /// The pipeline configuration (collection, cleaning, EIR).
    pub miner: MinerConfig,
    /// Sealed-block width in sampling intervals. Complete blocks are
    /// cleaned exactly once and never revisited; only the partial tail
    /// block is re-cleaned after an append. Must be at least 1.
    pub block: usize,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            miner: MinerConfig::default(),
            block: DEFAULT_BLOCK,
        }
    }
}

impl StreamConfig {
    /// Like `Default`, but the block width honors `CM_STREAM_BLOCK`
    /// when it parses as a positive integer (anything else keeps the
    /// default, matching how `CM_STORE_CACHE` is treated).
    pub fn from_env(miner: MinerConfig) -> Self {
        let mut config = StreamConfig {
            miner,
            block: DEFAULT_BLOCK,
        };
        if let Ok(raw) = std::env::var("CM_STREAM_BLOCK") {
            if let Ok(block) = raw.trim().parse::<usize>() {
                if block > 0 {
                    config.block = block;
                }
            }
        }
        config
    }

    /// The configuration fingerprint persisted in stream metadata: two
    /// sessions may share one stream if and only if their fingerprints
    /// are equal (same collection seeds, same cleaner, same block
    /// width — the preconditions for bit-identical incremental state).
    pub fn fingerprint(&self) -> String {
        format!("{:?}|block={}", self.miner, self.block)
    }
}

/// What one [`StreamSession::append`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AppendReport {
    /// Rows (sampling intervals per run) appended by this call. Zero
    /// when the source is exhausted.
    pub appended_rows: usize,
    /// Total rows appended over the session's lifetime.
    pub total_rows: usize,
    /// Rows inside sealed (complete, never re-cleaned) blocks.
    pub sealed_rows: usize,
    /// Tail rows re-cleaned by this append (bounded by the block
    /// width, however large the append was).
    pub recleaned_rows: usize,
    /// Whether the source has no more rows to stream.
    pub exhausted: bool,
}

/// One incremental analysis: the full report plus the sealed-row count
/// it was trained on.
#[derive(Debug)]
pub struct StreamAnalysis {
    /// Rows (per run) the model was trained on — always a whole number
    /// of sealed blocks.
    pub sealed_rows: usize,
    /// The complete analysis (EIR ranking, MAPM, interactions).
    pub report: AnalysisReport,
}

impl StreamAnalysis {
    /// Summarizes this analysis for change detection; see
    /// [`RankSummary::materially_differs`].
    pub fn summary(&self, top_k: usize) -> RankSummary {
        RankSummary::of(&self.report, top_k)
    }
}

/// An owned snapshot of a session's sealed rows, taken by
/// [`StreamSession::sealed_prefix`]: the cleaned sealed columns as runs,
/// the sealed cleaning tallies and, in `bayes` mode, the sealed
/// variance aggregates folded into columns in run order.
#[derive(Debug, Clone)]
pub struct SealedPrefix {
    miner: MinerConfig,
    benchmark: Benchmark,
    sealed_rows: usize,
    front: CleanedRuns,
}

impl SealedPrefix {
    /// The benchmark the rows were streamed from.
    pub fn benchmark(&self) -> Benchmark {
        self.benchmark
    }

    /// Rows (per run) in the snapshot — a whole number of sealed blocks.
    pub fn sealed_rows(&self) -> usize {
        self.sealed_rows
    }

    /// Trains and ranks on the snapshot through the batch pipeline's
    /// back half ([`model_and_rank`]), so the result is bit-identical to
    /// a cold batch run over the same sealed prefix, at any thread
    /// count. Touches no session, so it may run on any thread. Counts
    /// `stream.trains`.
    ///
    /// # Errors
    ///
    /// Propagates dataset, training, and ranking failures.
    pub fn analyze(&self) -> Result<StreamAnalysis, StreamError> {
        let _span = cm_obs::span!("stream.analysis", benchmark = self.benchmark.name());
        let report = model_and_rank(&self.miner, self.benchmark, &self.front)?;
        cm_obs::counter_add("stream.trains", 1);
        Ok(StreamAnalysis {
            sealed_rows: self.sealed_rows,
            report,
        })
    }
}

/// Per-(run, event) cleaned values: sealed prefix and re-cleaned tail.
#[derive(Debug, Default, Clone)]
struct CleanColumn {
    sealed: Vec<f64>,
    tail: Vec<f64>,
}

/// A live ingest-and-analyze session for one benchmark over one store.
///
/// The session owns a deterministic sample source (the simulated PMU,
/// collected up front exactly as the batch pipeline would) and replays
/// it into the store chunk by chunk: [`Self::append`] stages the next
/// rows with [`Store::extend_series`], commits atomically, then
/// advances the incremental cleaning state. [`Self::analysis`] ranks
/// from sealed blocks only, warm-starting when nothing sealed changed.
///
/// Reopening a session over a store that already holds streamed rows
/// *resumes* it: the configuration fingerprint must match, the row
/// counts must be consistent, and the cleaning state is rebuilt
/// deterministically — reads and analyses continue bit-identically.
///
/// See the [crate docs](crate) for an end-to-end example.
#[derive(Debug)]
pub struct StreamSession {
    config: StreamConfig,
    benchmark: Benchmark,
    program: String,
    events: Vec<EventId>,
    /// Raw source values: `raw[run][event_pos][interval]`.
    raw: Vec<Vec<Vec<f64>>>,
    /// Per-run measured IPC for every source interval.
    ipc: Vec<Vec<f64>>,
    /// Per-run wall time of the (complete) source run.
    exec_secs: Vec<f64>,
    /// Rows appended (and committed) so far.
    rows: usize,
    /// Rows available in the source.
    source_rows: usize,
    cleaner: DataCleaner,
    sealed_blocks: usize,
    /// Cleaned values: `clean[run][event_pos]`.
    clean: Vec<Vec<CleanColumn>>,
    /// What the cleaner did over the sealed blocks.
    sealed_tally: CleanTally,
    /// `bayes` mode only: reconstruction-variance aggregates over the
    /// sealed prefix, `uncertainty[run][event_pos]`. Blocks fold in
    /// ascending block order, so any append partitioning of the same
    /// source reaches bit-identical sums.
    uncertainty: Option<Vec<Vec<VarianceAggregate>>>,
    /// Last analysis, keyed by the sealed-row count it saw.
    cache: Option<(usize, Arc<StreamAnalysis>)>,
}

impl StreamSession {
    /// Opens (or resumes) a streaming session for `benchmark` over
    /// `store`.
    ///
    /// A store with no stream for this benchmark starts fresh (nothing
    /// is durable until the first [`Self::append`]). A store that
    /// already holds streamed rows resumes: the recorded configuration
    /// fingerprint must equal this one's, and every series must hold
    /// exactly the recorded row count.
    ///
    /// # Errors
    ///
    /// [`StreamError::ConfigMismatch`] when the store's stream was
    /// recorded under a different configuration, and
    /// [`StreamError::Inconsistent`] when its metadata and series
    /// disagree (the signature of a writer that bypassed the
    /// atomic-commit path).
    pub fn open(
        store: &mut Store,
        benchmark: Benchmark,
        config: StreamConfig,
    ) -> Result<Self, StreamError> {
        let _span = cm_obs::span!("stream.open", benchmark = benchmark.name());
        let catalog = EventCatalog::haswell();
        let workload = Workload::new(benchmark, &catalog);
        let n_events = config
            .miner
            .events_to_measure
            .unwrap_or(catalog.len())
            .min(catalog.len());
        let measured = workload.top_event_ids(&catalog, n_events);

        // The deterministic sample source: collect the full runs up
        // front with the batch pipeline's seeds; `append` replays them
        // into the store chunk by chunk.
        let source = collector::collect_runs(
            &workload,
            &measured,
            SampleMode::Mlpx,
            config.miner.runs_per_benchmark,
            &config.miner.pmu,
            config.miner.seed,
        );
        let events: Vec<EventId> = source[0].record.events().collect();
        let source_rows = source[0].intervals();

        let raw: Vec<Vec<Vec<f64>>> = source
            .iter()
            .map(|run| {
                events
                    .iter()
                    .map(|&e| {
                        run.record
                            .series(e)
                            .expect("measured event")
                            .values()
                            .to_vec()
                    })
                    .collect()
            })
            .collect();
        let ipc: Vec<Vec<f64>> = source.iter().map(|r| r.ipc.values().to_vec()).collect();
        let exec_secs: Vec<f64> = source.iter().map(|r| r.record.exec_time_secs()).collect();

        let program = format!("stream/{}", benchmark.name());
        let expected = config.fingerprint();
        let rows = match store.meta(&meta_key(&program, "config")) {
            None => {
                store.set_meta(meta_key(&program, "config"), expected);
                0
            }
            Some(found) if found != expected => {
                return Err(StreamError::ConfigMismatch {
                    found: found.to_string(),
                    expected,
                })
            }
            Some(_) => {
                let raw_rows = store.meta(&meta_key(&program, "rows")).ok_or_else(|| {
                    StreamError::Inconsistent("stream config present but row count missing".into())
                })?;
                raw_rows.parse::<usize>().map_err(|_| {
                    StreamError::Inconsistent(format!("unparseable stream row count `{raw_rows}`"))
                })?
            }
        };
        if rows > source_rows {
            return Err(StreamError::Inconsistent(format!(
                "store records {rows} streamed rows but the source holds only {source_rows}"
            )));
        }

        let runs = raw.len();
        let mut session = StreamSession {
            cleaner: DataCleaner::new(config.miner.cleaner),
            config,
            benchmark,
            program,
            events,
            raw,
            ipc,
            exec_secs,
            rows: 0,
            source_rows,
            sealed_blocks: 0,
            clean: Vec::new(),
            sealed_tally: CleanTally::default(),
            uncertainty: None,
            cache: None,
        };
        session.clean = vec![vec![CleanColumn::default(); session.events.len()]; runs];
        if session.config.miner.cleaner_kind == CleanerKind::Bayes {
            session.uncertainty =
                Some(vec![
                    vec![VarianceAggregate::default(); session.events.len()];
                    runs
                ]);
        }

        if rows > 0 {
            session.check_store_rows(store, rows)?;
            session.rows = rows;
            session.advance_clean(rows)?;
        }
        Ok(session)
    }

    /// The benchmark being streamed.
    pub fn benchmark(&self) -> Benchmark {
        self.benchmark
    }

    /// The session configuration.
    pub fn config(&self) -> &StreamConfig {
        &self.config
    }

    /// The measured events, in dataset column order.
    pub fn events(&self) -> &[EventId] {
        &self.events
    }

    /// Rows appended (and committed) so far.
    pub fn total_rows(&self) -> usize {
        self.rows
    }

    /// Rows inside sealed blocks — what [`Self::analysis`] trains on.
    pub fn sealed_rows(&self) -> usize {
        self.sealed_blocks * self.config.block
    }

    /// Rows the source can still stream.
    pub fn remaining_rows(&self) -> usize {
        self.source_rows - self.rows
    }

    /// Total rows the source holds.
    pub fn source_rows(&self) -> usize {
        self.source_rows
    }

    /// Outliers replaced across all sealed blocks so far.
    pub fn outliers_replaced(&self) -> usize {
        self.sealed_tally.outliers_replaced
    }

    /// Missing values filled across all sealed blocks so far.
    pub fn missing_filled(&self) -> usize {
        self.sealed_tally.missing_filled
    }

    /// The series key one run's samples of `event` are stored under.
    pub fn series_key(&self, run: u32, event: EventId) -> SeriesKey {
        SeriesKey::new(self.program.clone(), run, SampleMode::Mlpx, event)
    }

    /// The series key one run's measured IPC is stored under (a
    /// reserved slot outside the event catalog).
    pub fn ipc_key(&self, run: u32) -> SeriesKey {
        self.series_key(run, EventId::new(IPC_SLOT))
    }

    /// The cleaned values of one run's series for `event`: the sealed
    /// prefix plus the re-cleaned tail. `None` for an unmeasured event
    /// or an out-of-range run.
    ///
    /// This is the stream-side half of the oracle guarantee: for any
    /// append partitioning of the same source, these bytes are
    /// identical.
    pub fn cleaned_series(&self, run: usize, event: EventId) -> Option<Vec<f64>> {
        let pos = self.events.iter().position(|&e| e == event)?;
        let col = &self.clean.get(run)?[pos];
        let mut out = Vec::with_capacity(col.sealed.len() + col.tail.len());
        out.extend_from_slice(&col.sealed);
        out.extend_from_slice(&col.tail);
        Some(out)
    }

    /// Appends up to `rows` source rows to the store: stages every
    /// series extension and the updated row count, commits atomically,
    /// then advances the incremental cleaning state. An exhausted
    /// source yields `appended_rows: 0` without touching the store.
    ///
    /// Row positions are counted against the run's interval count (the
    /// IPC series). Multiplexed event series may be *shorter* — ragged
    /// lengths are the paper's DTW motivation — so each series streams
    /// only up to its own end and simply stops contributing once the
    /// cursor passes it.
    ///
    /// On an error the store file keeps its previous committed
    /// generation and the session state is unchanged; discard both and
    /// reopen to continue (the chaos harness exercises exactly this).
    ///
    /// Emits `stream.appends` / `stream.append_rows` /
    /// `stream.reclean_rows` counters.
    ///
    /// # Errors
    ///
    /// Propagates store failures from staging or commit, and cleaning
    /// failures from the incremental advance.
    pub fn append(&mut self, store: &mut Store, rows: usize) -> Result<AppendReport, StreamError> {
        let n = rows.min(self.remaining_rows());
        if n == 0 {
            return Ok(AppendReport {
                appended_rows: 0,
                total_rows: self.rows,
                sealed_rows: self.sealed_rows(),
                recleaned_rows: 0,
                exhausted: true,
            });
        }
        let _span = cm_obs::span!("stream.append", benchmark = self.benchmark.name());

        let next = self.rows + n;
        for (r, run_raw) in self.raw.iter().enumerate() {
            for (pos, &event) in self.events.iter().enumerate() {
                let len = run_raw[pos].len();
                let (from, to) = (self.rows.min(len), next.min(len));
                if from < to {
                    store
                        .extend_series(self.series_key(r as u32, event), &run_raw[pos][from..to])?;
                }
            }
            let ipc_len = self.ipc[r].len();
            let (from, to) = (self.rows.min(ipc_len), next.min(ipc_len));
            if from < to {
                store.extend_series(self.ipc_key(r as u32), &self.ipc[r][from..to])?;
            }
        }
        store.set_meta(meta_key(&self.program, "rows"), next.to_string());
        store.set_meta(meta_key(&self.program, "config"), self.config.fingerprint());
        store.commit()?;

        // Durable — now advance the in-memory state.
        self.rows = next;
        let recleaned = self.advance_clean(next)?;
        cm_obs::counter_add("stream.appends", 1);
        cm_obs::counter_add("stream.append_rows", n as u64);
        cm_obs::counter_add("stream.reclean_rows", recleaned as u64);
        Ok(AppendReport {
            appended_rows: n,
            total_rows: self.rows,
            sealed_rows: self.sealed_rows(),
            recleaned_rows: recleaned,
            exhausted: self.rows == self.source_rows,
        })
    }

    /// The current incremental analysis, trained on sealed blocks only;
    /// `None` until the first block seals: [`Self::sealed_prefix`], then
    /// [`SealedPrefix::analyze`].
    ///
    /// When no new block has sealed since the last call, the previous
    /// result is returned verbatim — the *warm start*, observable as
    /// `stream.warm_starts` (a retrain counts `stream.trains`). Both
    /// paths yield results bit-identical to a cold batch run over the
    /// same sealed prefix, at any thread count.
    ///
    /// # Errors
    ///
    /// Propagates dataset, training, and ranking failures.
    pub fn analysis(&mut self) -> Result<Option<Arc<StreamAnalysis>>, StreamError> {
        if let Some((rows, cached)) = &self.cache {
            if *rows == self.sealed_rows() {
                cm_obs::counter_add("stream.warm_starts", 1);
                return Ok(Some(cached.clone()));
            }
        }
        let Some(prefix) = self.sealed_prefix() else {
            return Ok(None);
        };
        let analysis = Arc::new(prefix.analyze()?);
        self.cache = Some((prefix.sealed_rows, analysis.clone()));
        Ok(Some(analysis))
    }

    /// An owned snapshot of the sealed rows, to analyze apart from the
    /// session (say, on another thread while appends go on); `None`
    /// until the first block seals. Later appends never change it.
    pub fn sealed_prefix(&self) -> Option<SealedPrefix> {
        let sealed_rows = self.sealed_rows();
        if sealed_rows == 0 {
            return None;
        }
        let runs = (0..self.clean.len())
            .map(|r| {
                let mut record = RunRecord::new(self.program.clone(), r as u32, SampleMode::Mlpx);
                record.set_exec_time_secs(self.exec_secs[r]);
                for (pos, &event) in self.events.iter().enumerate() {
                    record.insert_series(
                        event,
                        TimeSeries::from_values(self.clean[r][pos].sealed.clone()),
                    );
                }
                SimRun {
                    record,
                    ipc: TimeSeries::from_values(
                        self.ipc[r][..sealed_rows.min(self.ipc[r].len())].to_vec(),
                    ),
                    true_counts: BTreeMap::new(),
                }
            })
            .collect();
        // Bayes: fold the per-run aggregates into per-event column
        // aggregates in run order, as the batch front half merges them.
        let uncertainty = self.uncertainty.as_ref().map(|per_run| {
            let mut columns = vec![VarianceAggregate::default(); self.events.len()];
            for run in per_run {
                for (column, aggregate) in columns.iter_mut().zip(run) {
                    column.merge(aggregate);
                }
            }
            columns
        });
        Some(SealedPrefix {
            miner: self.config.miner,
            benchmark: self.benchmark,
            sealed_rows,
            front: CleanedRuns {
                runs,
                events: self.events.clone(),
                tally: self.sealed_tally,
                uncertainty,
            },
        })
    }

    /// Seals newly completed blocks (cleaning each exactly once) and
    /// re-cleans the partial tail. Returns the tail rows re-cleaned.
    fn advance_clean(&mut self, upto: usize) -> Result<usize, StreamError> {
        let block = self.config.block;
        let sealed_target = upto / block;
        for b in self.sealed_blocks..sealed_target {
            let range = b * block..(b + 1) * block;
            for (r, run_raw) in self.raw.iter().enumerate() {
                for (pos, event_raw) in run_raw.iter().enumerate() {
                    // Ragged series end before the run does: clamp the
                    // block to this series' own length. The clamped
                    // slice depends only on the block index and the
                    // static raw data, so partitioning invariance holds.
                    let slice = &event_raw
                        [range.start.min(event_raw.len())..range.end.min(event_raw.len())];
                    if slice.is_empty() {
                        continue;
                    }
                    let series = TimeSeries::from_values(slice.to_vec());
                    // Bayes carries the block's reconstruction variances
                    // through the seal; values are bit-identical either
                    // way, so the point path stays the fast default.
                    let aggregate = self.uncertainty.as_mut().map(|a| &mut a[r][pos]);
                    let cleaned = self.sealed_tally.clean(&self.cleaner, &series, aggregate)?;
                    self.clean[r][pos]
                        .sealed
                        .extend_from_slice(cleaned.values());
                }
            }
        }
        self.sealed_blocks = sealed_target;

        let tail_start = sealed_target * block;
        let tail_len = upto - tail_start;
        for (r, run_raw) in self.raw.iter().enumerate() {
            for (pos, event_raw) in run_raw.iter().enumerate() {
                let from = tail_start.min(event_raw.len());
                let to = upto.min(event_raw.len());
                self.clean[r][pos].tail = if from >= to {
                    Vec::new()
                } else {
                    let slice = &event_raw[from..to];
                    self.cleaner
                        .clean_series(&TimeSeries::from_values(slice.to_vec()))?
                        .0
                        .into_values()
                };
            }
        }
        Ok(tail_len)
    }

    /// Verifies that every series in the store holds exactly `rows`
    /// values — the resume-time torn-writer check.
    fn check_store_rows(&self, store: &Store, rows: usize) -> Result<(), StreamError> {
        for r in 0..self.raw.len() {
            for (pos, &event) in self.events.iter().enumerate() {
                // A ragged series stops growing at its own end, so the
                // committed length is the row cursor clamped to it.
                let expected = (rows as u64).min(self.raw[r][pos].len() as u64);
                let key = self.series_key(r as u32, event);
                match store.series_len(&key) {
                    Some(len) if len == expected => {}
                    Some(len) => {
                        return Err(StreamError::Inconsistent(format!(
                            "series {}#{} holds {len} values, metadata implies {expected}",
                            key.program,
                            key.event.index()
                        )))
                    }
                    None if expected == 0 => {}
                    None => {
                        return Err(StreamError::Inconsistent(format!(
                            "series {}#{} missing from the store",
                            key.program,
                            key.event.index()
                        )))
                    }
                }
            }
            let expected = (rows as u64).min(self.ipc[r].len() as u64);
            let ipc_len = store.series_len(&self.ipc_key(r as u32));
            if ipc_len != Some(expected) && !(expected == 0 && ipc_len.is_none()) {
                return Err(StreamError::Inconsistent(format!(
                    "IPC series of run {r} holds {ipc_len:?} values, metadata implies {expected}"
                )));
            }
        }
        Ok(())
    }
}

fn meta_key(program: &str, field: &str) -> String {
    format!("{program}/{field}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn temp_store(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cm_stream_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("s.cmstore")
    }

    fn tiny_stream_config() -> StreamConfig {
        StreamConfig {
            miner: MinerConfig {
                runs_per_benchmark: 1,
                events_to_measure: Some(10),
                ..MinerConfig::default()
            },
            block: 32,
        }
    }

    #[test]
    fn append_seals_blocks_and_bounds_reclean() {
        let path = temp_store("seal");
        let mut store = Store::open(&path).unwrap();
        let mut s = StreamSession::open(&mut store, Benchmark::Sort, tiny_stream_config()).unwrap();
        let r = s.append(&mut store, 40).unwrap();
        assert_eq!(r.appended_rows, 40);
        assert_eq!(r.sealed_rows, 32);
        assert_eq!(r.recleaned_rows, 8);
        let r = s.append(&mut store, 100).unwrap();
        assert_eq!(r.total_rows, 140);
        assert_eq!(r.sealed_rows, 128);
        assert_eq!(r.recleaned_rows, 12);
        // Rows are durable: the store holds exactly what was appended.
        let key = s.series_key(0, s.events()[0]);
        assert_eq!(store.series_len(&key), Some(140));
    }

    #[test]
    fn append_past_source_end_is_exhausted_not_an_error() {
        let path = temp_store("exhaust");
        let mut store = Store::open(&path).unwrap();
        let mut s = StreamSession::open(&mut store, Benchmark::Sort, tiny_stream_config()).unwrap();
        let total = s.source_rows();
        let r = s.append(&mut store, total + 999).unwrap();
        assert_eq!(r.appended_rows, total);
        assert!(r.exhausted);
        let r = s.append(&mut store, 1).unwrap();
        assert_eq!(r.appended_rows, 0);
        assert!(r.exhausted);
    }

    #[test]
    fn ragged_mlpx_series_stream_to_their_own_ends() {
        // Runs differ in interval count and multiplexed series end
        // before their run does (ragged lengths, the paper's DTW
        // motivation), yet the row cursor counts run 0's intervals.
        // Appends must clamp each series to its own end instead of
        // indexing past it — the default 3-run full-catalog source is
        // exactly the shape that broke the CLI smoke test.
        let config = StreamConfig {
            miner: MinerConfig::default(),
            block: 64,
        };
        let runs = config.miner.runs_per_benchmark as u32;

        let path = temp_store("ragged_oneshot");
        let mut store = Store::open(&path).unwrap();
        let mut s = StreamSession::open(&mut store, Benchmark::Sort, config.clone()).unwrap();
        let total = s.source_rows();
        let r = s.append(&mut store, total).unwrap();
        assert!(r.exhausted);

        let lens: Vec<u64> = (0..runs)
            .flat_map(|run| s.events().to_vec().into_iter().map(move |e| (run, e)))
            .map(|(run, e)| store.series_len(&s.series_key(run, e)).unwrap_or_default())
            .collect();
        assert!(
            lens.iter().any(|&l| l < total as u64),
            "source produced no ragged series; the test is vacuous"
        );
        assert!(lens.iter().all(|&l| l <= total as u64));

        // Chunked appends land every series at the identical length and
        // identical cleaned bytes (the oracle guarantee, ragged case).
        let path2 = temp_store("ragged_chunked");
        let mut store2 = Store::open(&path2).unwrap();
        let mut s2 = StreamSession::open(&mut store2, Benchmark::Sort, config.clone()).unwrap();
        while !s2.append(&mut store2, 31).unwrap().exhausted {}
        for run in 0..runs {
            for &e in s.events().to_vec().iter() {
                assert_eq!(
                    store2.series_len(&s2.series_key(run, e)),
                    store.series_len(&s.series_key(run, e))
                );
                assert_eq!(
                    s2.cleaned_series(run as usize, e),
                    s.cleaned_series(run as usize, e)
                );
            }
        }

        // And a ragged store resumes cleanly.
        let s3 = StreamSession::open(&mut store2, Benchmark::Sort, config).unwrap();
        assert_eq!(s3.total_rows(), total);
    }

    #[test]
    fn resume_restores_bitwise_state() {
        let path = temp_store("resume");
        let mut store = Store::open(&path).unwrap();
        let mut s = StreamSession::open(&mut store, Benchmark::Sort, tiny_stream_config()).unwrap();
        s.append(&mut store, 70).unwrap();
        let want = s.cleaned_series(0, s.events()[3]).unwrap();
        drop(s);

        // A new session over a reopened store resumes at row 70 with
        // identical cleaned bytes.
        let mut store = Store::open(&path).unwrap();
        let s2 = StreamSession::open(&mut store, Benchmark::Sort, tiny_stream_config()).unwrap();
        assert_eq!(s2.total_rows(), 70);
        let got = s2.cleaned_series(0, s2.events()[3]).unwrap();
        assert_eq!(
            want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            got.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn resume_with_other_config_is_typed_mismatch() {
        let path = temp_store("mismatch");
        let mut store = Store::open(&path).unwrap();
        let mut s = StreamSession::open(&mut store, Benchmark::Sort, tiny_stream_config()).unwrap();
        s.append(&mut store, 10).unwrap();
        drop(s);

        let mut other = tiny_stream_config();
        other.miner.seed = 99;
        let mut store = Store::open(&path).unwrap();
        assert!(matches!(
            StreamSession::open(&mut store, Benchmark::Sort, other),
            Err(StreamError::ConfigMismatch { .. })
        ));
    }

    #[test]
    fn truncated_series_is_detected_on_resume() {
        let path = temp_store("torn");
        let mut store = Store::open(&path).unwrap();
        let mut s = StreamSession::open(&mut store, Benchmark::Sort, tiny_stream_config()).unwrap();
        s.append(&mut store, 20).unwrap();
        // Forge metadata claiming more rows than any series holds.
        store.set_meta("stream/sort/rows", "25");
        store.commit().unwrap();
        drop(s);

        let mut store = Store::open(&path).unwrap();
        assert!(matches!(
            StreamSession::open(&mut store, Benchmark::Sort, tiny_stream_config()),
            Err(StreamError::Inconsistent(_))
        ));
    }

    /// Streaming in `bayes` mode: sealed bytes stay bit-identical to
    /// the point session's, the analysis carries uncertainty, and the
    /// stability score is append-partitioning invariant.
    #[test]
    fn bayes_stream_matches_point_bytes_and_is_partition_invariant() {
        // Pin both kinds explicitly: under `CM_CLEANER=bayes` the
        // default-kind config would silently run bayes on both sides.
        let with_kind = |kind| StreamConfig {
            miner: MinerConfig {
                cleaner_kind: kind,
                ..tiny_stream_config().miner
            },
            ..tiny_stream_config()
        };
        let bayes_config = || with_kind(CleanerKind::Bayes);
        let point_config = || with_kind(CleanerKind::Point);

        let path = temp_store("bayes_oneshot");
        let mut store = Store::open(&path).unwrap();
        let mut s = StreamSession::open(&mut store, Benchmark::Sort, bayes_config()).unwrap();
        s.append(&mut store, 96).unwrap();
        let a = s.analysis().unwrap().unwrap();
        let uncertainty = a
            .report
            .eir
            .uncertainty
            .as_ref()
            .expect("bayes uncertainty");
        assert!((0.0..=1.0).contains(&uncertainty.stability));
        assert!(a
            .report
            .eir
            .iterations
            .iter()
            .all(|i| i.stability.is_some()));
        assert_eq!(a.report.cleaner, CleanerKind::Bayes);

        // Point session over the same source: identical sealed bytes.
        let path_p = temp_store("bayes_vs_point");
        let mut store_p = Store::open(&path_p).unwrap();
        let mut p = StreamSession::open(&mut store_p, Benchmark::Sort, point_config()).unwrap();
        p.append(&mut store_p, 96).unwrap();
        for &e in s.events().to_vec().iter() {
            let want = p.cleaned_series(0, e).unwrap();
            let got = s.cleaned_series(0, e).unwrap();
            assert_eq!(
                want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            );
        }
        let ap = p.analysis().unwrap().unwrap();
        assert_eq!(ap.report.eir.ranking, a.report.eir.ranking);
        assert!(ap.report.eir.uncertainty.is_none());

        // Chunked appends reach the identical analysis, stability
        // included (the oracle guarantee, uncertainty edition).
        let path2 = temp_store("bayes_chunked");
        let mut store2 = Store::open(&path2).unwrap();
        let mut s2 = StreamSession::open(&mut store2, Benchmark::Sort, bayes_config()).unwrap();
        let mut left = 96;
        for chunk in [7usize, 40, 19, 30] {
            s2.append(&mut store2, chunk.min(left)).unwrap();
            left -= chunk.min(left);
        }
        let b = s2.analysis().unwrap().unwrap();
        assert_eq!(a.report.eir.ranking, b.report.eir.ranking);
        assert_eq!(a.report.eir.uncertainty, b.report.eir.uncertainty);

        // And a resumed bayes session rebuilds the same uncertainty.
        drop(s2);
        let mut store2 = Store::open(&path2).unwrap();
        let mut s3 = StreamSession::open(&mut store2, Benchmark::Sort, bayes_config()).unwrap();
        let c = s3.analysis().unwrap().unwrap();
        assert_eq!(a.report.eir.uncertainty, c.report.eir.uncertainty);
    }

    #[test]
    fn sealed_prefix_is_isolated_from_later_appends() {
        let path = temp_store("prefix");
        let mut store = Store::open(&path).unwrap();
        let mut s = StreamSession::open(&mut store, Benchmark::Sort, tiny_stream_config()).unwrap();
        assert!(s.sealed_prefix().is_none(), "nothing sealed yet");
        s.append(&mut store, 70).unwrap();
        let prefix = s.sealed_prefix().unwrap();
        let want = s.analysis().unwrap().unwrap();

        // Later appends seal three more blocks; the snapshot taken
        // before them still analyzes exactly as the session did then.
        s.append(&mut store, 100).unwrap();
        assert_eq!(s.sealed_rows(), 160);
        let got = prefix.analyze().unwrap();
        assert_eq!(prefix.sealed_rows(), 64);
        assert_eq!(got.sealed_rows, want.sealed_rows);
        // `Debug` prints every float in round-trip form: equal text is
        // equal bits, the trained model included.
        assert_eq!(format!("{:?}", got.report), format!("{:?}", want.report));
    }

    #[test]
    fn analysis_warm_starts_until_a_block_seals() {
        let path = temp_store("warm");
        let mut store = Store::open(&path).unwrap();
        let mut s = StreamSession::open(&mut store, Benchmark::Sort, tiny_stream_config()).unwrap();
        assert!(s.analysis().unwrap().is_none(), "nothing sealed yet");
        s.append(&mut store, 33).unwrap();
        let a = s.analysis().unwrap().unwrap();
        // +5 rows: still one sealed block -> warm start, same Arc.
        s.append(&mut store, 5).unwrap();
        let b = s.analysis().unwrap().unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        // Seal another block -> retrain on more rows.
        s.append(&mut store, 30).unwrap();
        let c = s.analysis().unwrap().unwrap();
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(c.sealed_rows, 64);
    }
}
