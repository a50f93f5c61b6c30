//! The data cleaner (Section III-B): outlier replacement and
//! missing-value filling for multiplexed counter series.

mod kind;
mod missing;
mod outlier;
mod threshold;

pub use kind::CleanerKind;
pub use threshold::{choose_n, coverage_table, N_CANDIDATES};

use crate::CmError;
use cm_events::{RunRecord, TimeSeries};
use cm_stats::estimator::Posterior;

/// Which distribution family the cleaner decided a series follows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeriesDistribution {
    /// Anderson–Darling did not reject normality: `n = 3` (the 3-sigma
    /// rule for Gaussian data).
    Gaussian,
    /// Long-tail: `n` chosen by the 99 %-coverage rule of Table I.
    LongTail,
    /// Too few points to test; the coverage rule is used directly.
    Undetermined,
}

/// Configuration of the data cleaner.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CleanerConfig {
    /// Fraction of data that must fall within the outlier threshold when
    /// choosing the control variable `n` (the paper specifies 99 %).
    pub coverage_target: f64,
    /// Force a fixed `n` instead of selecting it (used by the Table I
    /// ablation). `None` means automatic selection.
    pub fixed_n: Option<f64>,
    /// Neighbors used by KNN missing-value filling (k = 5 in the paper).
    pub knn_k: usize,
    /// The zero-category rule: a series whose past minimum is zero and
    /// past maximum is below this bound keeps its zeros (they are real,
    /// not missing). The paper uses 0.01 on per-1K-instruction
    /// normalized values; we additionally treat the bound as relative to
    /// the series mean for raw counts.
    pub zero_keep_max: f64,
}

impl Default for CleanerConfig {
    fn default() -> Self {
        CleanerConfig {
            coverage_target: 0.99,
            fixed_n: None,
            knn_k: 5,
            zero_keep_max: 0.01,
        }
    }
}

/// Inflation applied to every raw predictive variance before it is
/// attached to a [`Reconstruction`].
///
/// The raw estimate treats a reconstruction as one more draw from the
/// clean neighborhood, but the samples the cleaner overwrites are not
/// random draws: multiplexing glitches and suspicious zeros cluster in
/// the volatile stretches of a series, where the true count strays
/// farthest from the local consensus, and the resulting error
/// distribution is heavy-tailed. Calibrated against the simulator's
/// exact counts (`crates/sim/tests/calibration.rs`, 16 seeds across the
/// benchmark suite): with this factor the empirical coverage of the 90 %
/// and 95 % intervals lands within a few points of nominal; without it,
/// coverage at 90 % nominal is ~55 %.
pub const VARIANCE_CALIBRATION: f64 = 8.0;

/// Why a sample was reconstructed by the cleaner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReconstructionSource {
    /// A suspicious zero filled by KNN regression (Section III-B.2).
    MissingFill,
    /// An outlier replaced by its segment median (Section III-B.1).
    Outlier,
}

/// One reconstructed sample with its posterior variance — what the
/// `bayes` estimator knows about a value it invented.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reconstruction {
    /// Position of the reconstructed sample in the series.
    pub index: usize,
    /// The reconstructed value — bit-identical to the point cleaner's.
    pub value: f64,
    /// Posterior variance of the reconstruction (≥ 0; `0.0` when the
    /// neighborhood had no measurable dispersion).
    pub variance: f64,
    /// Which cleaning stage produced the value.
    pub source: ReconstructionSource,
}

impl Reconstruction {
    /// The reconstruction as a Gaussian [`Posterior`] over the true value.
    pub fn posterior(&self) -> Posterior {
        Posterior::new(self.value, self.variance)
    }
}

/// Per-series uncertainty attached by [`DataCleaner::clean_series_bayes`]:
/// every reconstructed value with its variance, sorted by index. An
/// observed (untouched) sample carries no entry — its variance is the
/// measurement's, not the cleaner's.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SeriesUncertainty {
    /// All reconstructions, ascending by index; at most one per index
    /// (an outlier replacement supersedes a missing-value fill).
    pub reconstructions: Vec<Reconstruction>,
}

impl SeriesUncertainty {
    /// Sum of all reconstruction variances — the series' total injected
    /// uncertainty.
    pub fn total_variance(&self) -> f64 {
        self.reconstructions.iter().map(|r| r.variance).sum()
    }
}

/// What the cleaner did to one series.
#[derive(Debug, Clone, PartialEq)]
pub struct CleanReport {
    /// Outliers found and replaced.
    pub outliers_replaced: usize,
    /// Missing values (suspicious zeros) filled in.
    pub missing_filled: usize,
    /// Zeros kept because the zero-category rule classified them as real.
    pub zeros_kept: usize,
    /// The outlier threshold used (`mean + n·std`).
    pub threshold: f64,
    /// The control variable `n` used.
    pub n_used: f64,
    /// Distribution classification of the series.
    pub distribution: SeriesDistribution,
}

/// The data cleaner.
///
/// See the [crate docs](crate) for an end-to-end example.
///
/// # Examples
///
/// ```
/// use cm_events::TimeSeries;
/// use counterminer::DataCleaner;
///
/// // A steady series with one dropped sample and one glitch.
/// let mut v: Vec<f64> = (0..60)
///     .map(|i| 10.0 + ((i * 37) % 11) as f64 * 0.1)
///     .collect();
/// v[7] = 0.0; // missing (multiplexing gap)
/// v[33] = 900.0; // outlier
/// let cleaner = DataCleaner::default();
/// let (clean, report) = cleaner.clean_series(&TimeSeries::from_values(v))?;
/// assert_eq!(report.missing_filled, 1);
/// assert_eq!(report.outliers_replaced, 1);
/// assert!(clean.values().iter().all(|&x| x > 9.0 && x < 12.0));
/// # Ok::<(), counterminer::CmError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct DataCleaner {
    config: CleanerConfig,
}

impl DataCleaner {
    /// Creates a cleaner with the given configuration.
    pub fn new(config: CleanerConfig) -> Self {
        DataCleaner { config }
    }

    /// The cleaner's configuration.
    pub fn config(&self) -> &CleanerConfig {
        &self.config
    }

    /// Cleans one series: fills missing values, then replaces outliers.
    ///
    /// # Errors
    ///
    /// Returns [`CmError::Invalid`] for an empty series or one containing
    /// non-finite samples (NaN or ±∞ — a counter can never produce those,
    /// so they signal corrupted input that no threshold arithmetic can
    /// clean), or propagates statistics errors.
    pub fn clean_series(&self, series: &TimeSeries) -> Result<(TimeSeries, CleanReport), CmError> {
        let mut values = Self::validate(series)?;

        // 1. Missing values: classify zeros, fill the suspicious ones by
        //    KNN over the valid samples (Section III-B.2). Done first so
        //    the outlier statistics are not dragged down by zeros.
        let missing_outcome = missing::fill_missing(&mut values, &self.config)?;

        // 2. Outliers: distribution-aware threshold (Table I / Eq. 6),
        //    replacement by segment median (Eq. 7).
        let outlier_outcome = outlier::replace_outliers(&mut values, &self.config)?;

        let report = Self::report(&missing_outcome, &outlier_outcome);
        Self::record_obs(&report);
        Ok((TimeSeries::from_values(values), report))
    }

    /// [`clean_series`](Self::clean_series) in `bayes` mode: the same
    /// fills and replacements (bit-identical output values), plus a
    /// [`SeriesUncertainty`] carrying a posterior variance for every
    /// reconstructed sample.
    ///
    /// Missing-value fills get the KNN neighborhood's predictive
    /// variance; outlier replacements get their segment's. A sample
    /// that is first filled and then re-flagged as an outlier keeps only
    /// the outlier entry — the fill was discarded.
    ///
    /// # Errors
    ///
    /// Exactly as [`clean_series`](Self::clean_series).
    ///
    /// # Examples
    ///
    /// ```
    /// use cm_events::TimeSeries;
    /// use counterminer::DataCleaner;
    ///
    /// let mut v: Vec<f64> = (0..60)
    ///     .map(|i| 10.0 + ((i * 37) % 11) as f64 * 0.1)
    ///     .collect();
    /// v[7] = 0.0; // missing (multiplexing gap)
    /// v[33] = 900.0; // outlier
    /// let series = TimeSeries::from_values(v);
    /// let cleaner = DataCleaner::default();
    /// let (clean, report, uncertainty) = cleaner.clean_series_bayes(&series)?;
    /// assert_eq!(
    ///     uncertainty.reconstructions.len(),
    ///     report.missing_filled + report.outliers_replaced,
    /// );
    /// // Same values as the point cleaner, with variances attached.
    /// let (point, _) = cleaner.clean_series(&series)?;
    /// assert_eq!(point, clean);
    /// # Ok::<(), counterminer::CmError>(())
    /// ```
    pub fn clean_series_bayes(
        &self,
        series: &TimeSeries,
    ) -> Result<(TimeSeries, CleanReport, SeriesUncertainty), CmError> {
        let mut values = Self::validate(series)?;

        let (missing_outcome, fill_variances) =
            missing::fill_missing_with_variance(&mut values, &self.config)?;
        let (outlier_outcome, outlier_variances) =
            outlier::replace_outliers_with_variance(&mut values, &self.config)?;

        // Fills first, then outlier replacements; a replacement at an
        // already-filled index supersedes the fill (the filled value was
        // itself flagged and overwritten). Both lists arrive ascending
        // by index, so superseded fills are a binary search away.
        let mut reconstructions: Vec<Reconstruction> = fill_variances
            .into_iter()
            .filter(|&(index, _)| {
                outlier_variances
                    .binary_search_by_key(&index, |&(i, _)| i)
                    .is_err()
            })
            .map(|(index, variance)| Reconstruction {
                index,
                value: values[index],
                variance: variance * VARIANCE_CALIBRATION,
                source: ReconstructionSource::MissingFill,
            })
            .collect();
        reconstructions.extend(outlier_variances.into_iter().map(|(index, variance)| {
            Reconstruction {
                index,
                value: values[index],
                variance: variance * VARIANCE_CALIBRATION,
                source: ReconstructionSource::Outlier,
            }
        }));
        reconstructions.sort_by_key(|r| r.index);

        let report = Self::report(&missing_outcome, &outlier_outcome);
        Self::record_obs(&report);
        if cm_obs::enabled() {
            // Count-valued, so the total is thread-invariant under
            // `clean_run`'s parallel fan-out.
            cm_obs::counter_add("clean.variance.values", reconstructions.len() as u64);
        }
        Ok((
            TimeSeries::from_values(values),
            report,
            SeriesUncertainty { reconstructions },
        ))
    }

    fn validate(series: &TimeSeries) -> Result<Vec<f64>, CmError> {
        if series.is_empty() {
            return Err(CmError::Invalid("cannot clean an empty series"));
        }
        // A NaN poisons the mean, the threshold, and every comparison
        // against it; an infinity does the same one step later. Reject
        // up front so cleaned output is always finite.
        if series.values().iter().any(|v| !v.is_finite()) {
            return Err(CmError::Invalid(
                "cannot clean a series with non-finite samples",
            ));
        }
        Ok(series.values().to_vec())
    }

    fn report(
        missing_outcome: &missing::MissingOutcome,
        outlier_outcome: &outlier::OutlierOutcome,
    ) -> CleanReport {
        CleanReport {
            outliers_replaced: outlier_outcome.replaced,
            missing_filled: missing_outcome.filled,
            zeros_kept: missing_outcome.kept,
            threshold: outlier_outcome.threshold,
            n_used: outlier_outcome.n_used,
            distribution: outlier_outcome.distribution,
        }
    }

    /// Per-series tallies; sums commute, so `clean_run`'s parallel
    /// fan-out reports the same totals at any thread count.
    fn record_obs(report: &CleanReport) {
        if cm_obs::enabled() {
            cm_obs::counter_add("cleaner.series", 1);
            cm_obs::counter_add("cleaner.outliers_replaced", report.outliers_replaced as u64);
            cm_obs::counter_add("cleaner.missing_filled", report.missing_filled as u64);
            cm_obs::counter_add("cleaner.zeros_kept", report.zeros_kept as u64);
            cm_obs::histogram_record("cleaner.n_used", report.n_used);
            cm_obs::counter_add(
                match report.distribution {
                    SeriesDistribution::Gaussian => "cleaner.dist.gaussian",
                    SeriesDistribution::LongTail => "cleaner.dist.long_tail",
                    SeriesDistribution::Undetermined => "cleaner.dist.undetermined",
                },
                1,
            );
        }
    }

    /// Cleans every series of a run in place, returning per-event
    /// reports in event-id order.
    ///
    /// # Errors
    ///
    /// Propagates the first per-series failure (in event-id order); on
    /// error the run is left unmodified.
    pub fn clean_run(&self, run: &mut RunRecord) -> Result<Vec<CleanReport>, CmError> {
        let events: Vec<_> = run.events().collect();
        // Each series cleans independently; fan the per-event work out
        // across the pool, then re-insert serially so the record is only
        // mutated from one thread.
        let cleaned = cm_par::try_map(&events, |&event| {
            let series = run.series(event).expect("event just listed");
            self.clean_series(series)
        })?;
        let mut reports = Vec::with_capacity(events.len());
        for (event, (series, report)) in events.into_iter().zip(cleaned) {
            run.insert_series(event, series);
            reports.push(report);
        }
        Ok(reports)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn steady(n: usize, level: f64) -> Vec<f64> {
        (0..n)
            .map(|i| level + ((i * 37) % 11) as f64 * 0.01 * level)
            .collect()
    }

    #[test]
    fn clean_series_fixes_outlier_and_missing() {
        let mut v = steady(60, 10.0);
        v[7] = 0.0; // missing
        v[33] = 900.0; // outlier
        let cleaner = DataCleaner::new(CleanerConfig::default());
        let (clean, report) = cleaner.clean_series(&TimeSeries::from_values(v)).unwrap();
        assert_eq!(report.missing_filled, 1);
        assert_eq!(report.outliers_replaced, 1);
        assert!(clean.values().iter().all(|&x| x > 9.0 && x < 12.0));
    }

    #[test]
    fn near_zero_series_keeps_zeros() {
        // The zero-category rule: min 0, max below the keep bound.
        let mut v = vec![0.002; 40];
        for i in (0..40).step_by(5) {
            v[i] = 0.0;
        }
        let cleaner = DataCleaner::new(CleanerConfig::default());
        let (clean, report) = cleaner.clean_series(&TimeSeries::from_values(v)).unwrap();
        assert_eq!(report.missing_filled, 0);
        assert_eq!(report.zeros_kept, 8);
        assert_eq!(clean.zero_count(), 8);
    }

    #[test]
    fn clean_run_processes_every_event() {
        use cm_events::{EventId, SampleMode};
        let mut run = RunRecord::new("p", 0, SampleMode::Mlpx);
        // 200 samples: one spike has z ~ 14, beyond every Table I
        // candidate (a single spike among only ~50 samples caps at
        // z = 7 and can evade the n = 7 threshold).
        let mut a = steady(200, 5.0);
        a[10] = 400.0;
        run.insert_series(EventId::new(0), TimeSeries::from_values(a));
        run.insert_series(EventId::new(1), TimeSeries::from_values(steady(200, 7.0)));
        let cleaner = DataCleaner::default();
        let reports = cleaner.clean_run(&mut run).unwrap();
        assert_eq!(reports.len(), 2);
        assert_eq!(reports[0].outliers_replaced, 1);
        assert_eq!(reports[1].outliers_replaced, 0);
        assert!(run.series(EventId::new(0)).unwrap().max().unwrap() < 10.0);
    }

    #[test]
    fn empty_series_rejected() {
        let cleaner = DataCleaner::default();
        assert!(cleaner.clean_series(&TimeSeries::new()).is_err());
    }

    /// Regression: a NaN sample used to sail through both cleaning
    /// stages — the threshold became NaN, every `v > NaN` comparison was
    /// false, and the NaN survived into "cleaned" output (infinities
    /// likewise poisoned the threshold). Non-finite input must be a
    /// typed error, never NaN-bearing output.
    #[test]
    fn non_finite_samples_are_a_typed_error() {
        let cleaner = DataCleaner::default();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut v = vec![5.0; 20];
            v[3] = bad;
            let err = cleaner
                .clean_series(&TimeSeries::from_values(v))
                .expect_err("non-finite sample must be rejected");
            assert!(matches!(err, CmError::Invalid(_)), "{bad}: {err:?}");
        }
        // All-NaN is the same typed error, not a panic.
        assert!(cleaner
            .clean_series(&TimeSeries::from_values(vec![f64::NAN; 8]))
            .is_err());
    }

    /// Constant series of any length clean to themselves: zero-variance
    /// threshold selection terminates with nothing flagged.
    #[test]
    fn constant_series_clean_to_themselves() {
        let cleaner = DataCleaner::default();
        for len in [1usize, 2, 5, 50] {
            let v = vec![7.5; len];
            let (clean, report) = cleaner
                .clean_series(&TimeSeries::from_values(v.clone()))
                .unwrap();
            assert_eq!(clean.values(), &v[..], "len={len}");
            assert_eq!(report.outliers_replaced, 0, "len={len}");
            assert!(report.threshold.is_finite(), "len={len}");
        }
    }

    #[test]
    fn bayes_values_bit_identical_to_point() {
        let mut v = steady(60, 10.0);
        v[7] = 0.0;
        v[33] = 900.0;
        let series = TimeSeries::from_values(v);
        let cleaner = DataCleaner::default();
        let (point, point_report) = cleaner.clean_series(&series).unwrap();
        let (bayes, bayes_report, uncertainty) = cleaner.clean_series_bayes(&series).unwrap();
        assert_eq!(point_report, bayes_report);
        let bits = |s: &TimeSeries| s.values().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&point), bits(&bayes));
        assert_eq!(
            uncertainty.reconstructions.len(),
            bayes_report.missing_filled + bayes_report.outliers_replaced,
        );
        for r in &uncertainty.reconstructions {
            assert!(r.variance.is_finite() && r.variance >= 0.0);
            assert_eq!(r.value.to_bits(), bayes.values()[r.index].to_bits());
        }
        assert!(uncertainty.total_variance() >= 0.0);
    }

    #[test]
    fn bayes_reconstructions_sorted_and_sourced() {
        let mut v = steady(60, 10.0);
        v[3] = 0.0;
        v[40] = 0.0;
        v[20] = 900.0;
        let cleaner = DataCleaner::default();
        let (_, report, uncertainty) = cleaner
            .clean_series_bayes(&TimeSeries::from_values(v))
            .unwrap();
        assert_eq!(report.missing_filled, 2);
        assert_eq!(report.outliers_replaced, 1);
        let indices: Vec<usize> = uncertainty
            .reconstructions
            .iter()
            .map(|r| r.index)
            .collect();
        assert_eq!(indices, vec![3, 20, 40]);
        assert!(indices.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(
            uncertainty.reconstructions[1].source,
            ReconstructionSource::Outlier
        );
        assert_eq!(
            uncertainty.reconstructions[0].source,
            ReconstructionSource::MissingFill
        );
    }

    #[test]
    fn bayes_clean_data_carries_no_uncertainty() {
        let v = steady(80, 20.0);
        let cleaner = DataCleaner::default();
        let (_, report, uncertainty) = cleaner
            .clean_series_bayes(&TimeSeries::from_values(v))
            .unwrap();
        assert_eq!(report.outliers_replaced + report.missing_filled, 0);
        assert!(uncertainty.reconstructions.is_empty());
        assert_eq!(uncertainty.total_variance(), 0.0);
    }

    #[test]
    fn clean_is_idempotent_on_clean_data() {
        let v = steady(80, 20.0);
        let cleaner = DataCleaner::default();
        let (once, r1) = cleaner.clean_series(&TimeSeries::from_values(v)).unwrap();
        let (twice, r2) = cleaner.clean_series(&once).unwrap();
        assert_eq!(r1.outliers_replaced, 0);
        assert_eq!(r2.outliers_replaced, 0);
        assert_eq!(once, twice);
    }
}
