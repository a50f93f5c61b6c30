//! Feature quantization for histogram-binned GBRT training.
//!
//! Exact split search scans O(rows) candidate thresholds per feature per
//! node. Quantizing each feature once into at most [`MAX_BINS`] bins lets
//! every node scan O(bins) instead: per-node gradient histograms are
//! accumulated over bin codes and split candidates are the bin
//! boundaries. The quantization is a *per-dataset* cost — a
//! [`BinnedDataset`] is built once and reused across boosting stages, and
//! (via [`BinnedDataset::select`]) across the EIR pruning rounds that
//! retrain on shrinking feature subsets, so retraining never re-quantizes.

use crate::{Dataset, MlError};

/// Default (and maximum representable) number of bins per feature: bin
/// codes are stored as `u8`, so one byte per feature per row.
pub const MAX_BINS: usize = 256;

/// A dataset quantized column-by-column into at most [`MAX_BINS`] bins
/// per feature.
///
/// Bin boundaries ("cuts") are placed at quantiles of each feature's
/// observed distribution, at midpoints between adjacent distinct values —
/// so when a feature has at most `max_bins` distinct values the
/// quantization is lossless and histogram split search considers exactly
/// the thresholds exact search would.
///
/// # Examples
///
/// ```
/// use cm_ml::{BinnedDataset, Dataset};
///
/// let rows: Vec<Vec<f64>> = (0..100).map(|i| vec![(i % 10) as f64]).collect();
/// let y = vec![0.0; 100];
/// let data = Dataset::new(rows, y)?;
/// let binned = BinnedDataset::from_dataset(&data, 256);
/// assert_eq!(binned.n_rows(), 100);
/// assert_eq!(binned.n_bins(0), 10); // 10 distinct values -> 10 bins
/// # Ok::<(), cm_ml::MlError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BinnedDataset {
    /// `codes[f][row]`: bin index of feature `f` at `row` (column-major,
    /// so per-feature histogram passes stream contiguous memory).
    codes: Vec<Vec<u8>>,
    /// `cuts[f][b]`: raw-value threshold separating bin `b` from bin
    /// `b + 1` (`len == n_bins - 1`). A row falls in bin `b` iff
    /// `cuts[b-1] < value <= cuts[b]` (with virtual ±∞ ends), so a split
    /// "code <= b" corresponds to the raw split `value <= cuts[b]`.
    cuts: Vec<Vec<f64>>,
    n_rows: usize,
}

impl BinnedDataset {
    /// Quantizes every feature of `data` into at most
    /// `max_bins.clamp(2, MAX_BINS)` bins. Columns are quantized in
    /// parallel on the [`cm_par`] pool; the result is identical at any
    /// thread count.
    pub fn from_dataset(data: &Dataset, max_bins: usize) -> Self {
        let max_bins = max_bins.clamp(2, MAX_BINS);
        let n_rows = data.n_rows();
        let per_feature = cm_par::map_range(data.n_features(), |f| {
            let col: Vec<f64> = data.column(f).collect();
            let cuts = quantile_cuts(&col, max_bins);
            let codes: Vec<u8> = col.iter().map(|&v| code_of(&cuts, v)).collect();
            (codes, cuts)
        });
        let mut codes = Vec::with_capacity(per_feature.len());
        let mut cuts = Vec::with_capacity(per_feature.len());
        for (c, q) in per_feature {
            codes.push(c);
            cuts.push(q);
        }
        let binned = BinnedDataset {
            codes,
            cuts,
            n_rows,
        };
        if cm_obs::enabled() {
            cm_obs::counter_add("ml.binnings", 1);
            let total: usize = (0..binned.n_features()).map(|f| binned.n_bins(f)).sum();
            cm_obs::counter_add("ml.bins_built", total as u64);
        }
        binned
    }

    /// Number of quantized rows.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of quantized features.
    pub fn n_features(&self) -> usize {
        self.codes.len()
    }

    /// Number of occupied bins of feature `f` (`cuts + 1`).
    pub fn n_bins(&self, f: usize) -> usize {
        self.cuts[f].len() + 1
    }

    /// The bin code of feature `f` at `row`.
    pub(crate) fn code(&self, f: usize, row: usize) -> u8 {
        self.codes[f][row]
    }

    /// The contiguous code column of feature `f`.
    pub(crate) fn code_column(&self, f: usize) -> &[u8] {
        &self.codes[f]
    }

    /// The raw-value threshold of the split "code <= b" on feature `f`.
    pub(crate) fn cut_value(&self, f: usize, b: usize) -> f64 {
        self.cuts[f][b]
    }

    /// A zero-copy view of every column, in order.
    pub fn view(&self) -> BinnedView<'_> {
        BinnedView {
            binned: self,
            cols: (0..self.n_features()).collect(),
        }
    }

    /// A zero-copy view of a column subset, in the given order — the EIR
    /// loop's per-round feature selection without re-quantizing.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::FeatureOutOfRange`] for bad indices and
    /// [`MlError::InvalidConfig`] for an empty selection.
    pub fn select(&self, cols: &[usize]) -> Result<BinnedView<'_>, MlError> {
        if cols.is_empty() {
            return Err(MlError::InvalidConfig(
                "binned view must keep at least one column",
            ));
        }
        let width = self.n_features();
        if let Some(&bad) = cols.iter().find(|&&c| c >= width) {
            return Err(MlError::FeatureOutOfRange { index: bad, width });
        }
        Ok(BinnedView {
            binned: self,
            cols: cols.to_vec(),
        })
    }
}

/// A zero-copy column view of a [`BinnedDataset`]: the view's feature `j`
/// is the underlying column `cols[j]`. Rows are shared, never copied.
#[derive(Debug, Clone)]
pub struct BinnedView<'a> {
    binned: &'a BinnedDataset,
    cols: Vec<usize>,
}

impl BinnedView<'_> {
    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.binned.n_rows()
    }

    /// Number of selected columns.
    pub fn n_features(&self) -> usize {
        self.cols.len()
    }

    /// Number of bins of view column `j`.
    pub(crate) fn n_bins(&self, j: usize) -> usize {
        self.binned.n_bins(self.cols[j])
    }

    /// The contiguous code column of view column `j`.
    pub(crate) fn code_column(&self, j: usize) -> &[u8] {
        self.binned.code_column(self.cols[j])
    }

    /// The underlying dataset.
    pub(crate) fn dataset(&self) -> &BinnedDataset {
        self.binned
    }

    /// The underlying column of view column `j`.
    pub(crate) fn column(&self, j: usize) -> usize {
        self.cols[j]
    }

    /// The first view column holding underlying column `col`, if any.
    pub(crate) fn position(&self, col: usize) -> Option<usize> {
        self.cols.iter().position(|&c| c == col)
    }
}

/// Quantile cut points over a column: strictly increasing raw-value
/// thresholds at midpoints between adjacent distinct values, at most
/// `max_bins - 1` of them.
fn quantile_cuts(col: &[f64], max_bins: usize) -> Vec<f64> {
    let mut sorted = col.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted.dedup();
    let distinct = sorted.len();
    if distinct <= 1 {
        return Vec::new();
    }
    if distinct <= max_bins {
        // Lossless: one bin per distinct value, cuts at midpoints.
        return sorted.windows(2).map(|w| 0.5 * (w[0] + w[1])).collect();
    }
    // Quantiles over the *distinct* values, so heavy repeats cannot
    // collapse multiple cuts onto one value.
    let mut cuts = Vec::with_capacity(max_bins - 1);
    for b in 1..max_bins {
        let pos = b * distinct / max_bins;
        // pos >= 1 because b >= 1 and distinct > max_bins.
        let cut = 0.5 * (sorted[pos - 1] + sorted[pos]);
        if cuts.last().is_none_or(|&last| cut > last) {
            cuts.push(cut);
        }
    }
    cuts
}

/// The bin a raw value falls in: the number of cuts strictly below it.
fn code_of(cuts: &[f64], v: f64) -> u8 {
    cuts.partition_point(|&c| v > c) as u8
}

#[cfg(test)]
mod tests {
    use super::*;

    fn single_column(values: Vec<f64>) -> Dataset {
        let n = values.len();
        let rows = values.into_iter().map(|v| vec![v]).collect();
        Dataset::new(rows, vec![0.0; n]).unwrap()
    }

    #[test]
    fn lossless_when_distinct_values_fit() {
        let data = single_column((0..50).map(|i| (i % 5) as f64).collect());
        let binned = BinnedDataset::from_dataset(&data, 256);
        assert_eq!(binned.n_bins(0), 5);
        // Every distinct value gets its own code, in value order.
        for (i, row) in data.rows().iter().enumerate() {
            assert_eq!(binned.code(0, i) as usize, row[0] as usize);
        }
    }

    #[test]
    fn cuts_are_strictly_increasing_and_consistent_with_codes() {
        let values: Vec<f64> = (0..1000).map(|i| ((i * 37) % 997) as f64 * 0.31).collect();
        let data = single_column(values);
        let binned = BinnedDataset::from_dataset(&data, 64);
        assert!(binned.n_bins(0) <= 64);
        let cuts: Vec<f64> = (0..binned.n_bins(0) - 1)
            .map(|b| binned.cut_value(0, b))
            .collect();
        assert!(cuts.windows(2).all(|w| w[0] < w[1]));
        // code <= b exactly when value <= cuts[b].
        for (i, row) in data.rows().iter().enumerate() {
            let code = binned.code(0, i) as usize;
            for (b, &cut) in cuts.iter().enumerate() {
                assert_eq!(code <= b, row[0] <= cut, "row {i} bin {b}");
            }
        }
    }

    #[test]
    fn constant_column_has_one_bin() {
        let data = single_column(vec![3.0; 20]);
        let binned = BinnedDataset::from_dataset(&data, 256);
        assert_eq!(binned.n_bins(0), 1);
        assert!(binned.code_column(0).iter().all(|&c| c == 0));
    }

    #[test]
    fn heavy_repeats_do_not_collapse_cuts() {
        // 90% zeros, then 300 distinct positives: naive row-quantiles
        // would put many cuts at 0.
        let mut values = vec![0.0; 2700];
        values.extend((0..300).map(|i| 1.0 + i as f64));
        let data = single_column(values);
        let binned = BinnedDataset::from_dataset(&data, 32);
        let cuts: Vec<f64> = (0..binned.n_bins(0) - 1)
            .map(|b| binned.cut_value(0, b))
            .collect();
        assert!(cuts.windows(2).all(|w| w[0] < w[1]));
        assert!(binned.n_bins(0) > 16, "bins {}", binned.n_bins(0));
    }

    #[test]
    fn select_projects_columns_zero_copy() {
        let rows: Vec<Vec<f64>> = (0..30).map(|i| vec![i as f64, (i % 3) as f64]).collect();
        let data = Dataset::new(rows, vec![0.0; 30]).unwrap();
        let binned = BinnedDataset::from_dataset(&data, 256);
        let view = binned.select(&[1]).unwrap();
        assert_eq!(view.n_features(), 1);
        assert_eq!(view.n_bins(0), 3);
        assert_eq!(view.code_column(0)[4], binned.code(1, 4));
        assert!(binned.select(&[]).is_err());
        assert!(binned.select(&[2]).is_err());
    }

    #[test]
    fn binning_is_thread_count_invariant() {
        let rows: Vec<Vec<f64>> = (0..500)
            .map(|i| (0..6).map(|f| ((i * 13 + f * 7) % 101) as f64).collect())
            .collect();
        let data = Dataset::new(rows, vec![0.0; 500]).unwrap();
        cm_par::set_max_threads(1);
        let serial = BinnedDataset::from_dataset(&data, 64);
        cm_par::set_max_threads(0);
        let parallel = BinnedDataset::from_dataset(&data, 64);
        assert_eq!(serial, parallel);
    }
}
