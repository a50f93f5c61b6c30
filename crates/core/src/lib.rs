//! CounterMiner: mining big performance data from hardware counters.
//!
//! A from-scratch reproduction of the MICRO 2018 paper
//! *"CounterMiner: Mining Big Performance Data from Hardware Counters"*
//! (Lv, Sun, Luo, Wang, Yu, Qian). Modern processors expose hundreds of
//! microarchitectural events but only a handful of counters; measuring
//! many events means multiplexing (MLPX), and multiplexing means dirty
//! data — outliers and missing values. CounterMiner is the
//! post-measurement pipeline that turns that dirty stream into insight:
//!
//! 1. [`DataCleaner`] — replaces outliers (`mean + n·std` threshold with
//!    distribution-aware selection of `n`) and fills missing values
//!    (zero-category rule + KNN regression), Section III-B,
//! 2. [`ImportanceRanker`] — trains SGBRT models `IPC = f(events)` and
//!    iteratively prunes unimportant events (EIR) until the Most
//!    Accurate Performance Model is found, Section III-C,
//! 3. [`InteractionRanker`] — quantifies pairwise event interaction by
//!    the residual variance of per-pair linear models, Section III-D,
//! 4. [`error_metrics`] — the DTW-based MLPX error measure (Eqs. 1–4)
//!    and model error (Eq. 14),
//! 5. [`collector`] — gathers simulated PMU runs into the two-level
//!    store and builds training datasets,
//! 6. [`case_study`] — the Spark-tuning profiling-cost accounting of
//!    Section V-D (method A vs. method B),
//! 7. [`CounterMiner`] — the end-to-end pipeline facade over one front
//!    half ([`clean_runs`]) and one back half ([`model_and_rank`]),
//!    including the cross-benchmark `cluster` mode
//!    ([`CounterMiner::analyze_cluster`]) that groups runs by cleaned
//!    counter signature and flags anomalous runs.
//!
//! # Quick start
//!
//! ```
//! use counterminer::{CleanerConfig, DataCleaner};
//! use cm_events::TimeSeries;
//!
//! // A multiplexed series with an outlier and a missing value. (A lone
//! // spike among only a dozen samples cannot exceed any sigma-based
//! // threshold, so use a realistic series length.)
//! let mut values: Vec<f64> = (0..60).map(|i| 10.0 + (i % 7) as f64 * 0.2).collect();
//! values[20] = 900.0; // multiplexing glitch
//! values[40] = 0.0; // missing sample
//! let dirty = TimeSeries::from_values(values);
//!
//! let cleaner = DataCleaner::new(CleanerConfig::default());
//! let (clean, report) = cleaner.clean_series(&dirty)?;
//! assert_eq!(report.outliers_replaced, 1);
//! assert_eq!(report.missing_filled, 1);
//! assert!(clean.values().iter().all(|&v| v > 5.0 && v < 20.0));
//! # Ok::<(), counterminer::CmError>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod case_study;
mod cleaner;
mod clusterer;
pub mod collector;
pub mod error_metrics;
mod errors;
pub mod findings;
mod front;
pub mod import;
mod importance;
mod interaction;
mod pipeline;
pub mod report;
mod snapshot;
mod uncertainty;

pub use clusterer::{ClusterConfig, ClusterReport, ClusteredRun};

pub use cleaner::{
    choose_n, coverage_table, CleanReport, CleanerConfig, CleanerKind, DataCleaner, Reconstruction,
    ReconstructionSource, SeriesDistribution, SeriesUncertainty, N_CANDIDATES,
    VARIANCE_CALIBRATION,
};
pub use errors::CmError;
pub use front::{clean_runs, CleanTally, CleanedRuns};
pub use importance::{
    EirIteration, EirResult, ImportanceConfig, ImportanceRanker, RankUncertainty,
};
pub use interaction::{InteractionRanker, PairInteraction};
pub use pipeline::{model_and_rank, AnalysisReport, CounterMiner, IngestSummary, MinerConfig};
pub use uncertainty::VarianceAggregate;
