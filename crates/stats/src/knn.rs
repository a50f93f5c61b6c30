//! K-nearest-neighbor regression.
//!
//! The paper fills missing (non-zero-category) counter values with KNN
//! regression: a missing sample is replaced by the average of its `k`
//! nearest neighbors along the time axis (k = 5 after trying 3..8,
//! Section III-B.2). [`KnnRegressor`] is the general 1-D regressor;
//! [`impute_series`] is the convenience entry point the data cleaner uses.

use crate::StatsError;

/// 1-D K-nearest-neighbor regressor.
///
/// # Examples
///
/// ```
/// use cm_stats::knn::KnnRegressor;
///
/// let xs = [0.0, 1.0, 2.0, 3.0, 4.0];
/// let ys = [0.0, 2.0, 4.0, 6.0, 8.0];
/// let knn = KnnRegressor::fit(&xs, &ys, 2)?;
/// // Nearest two neighbors of x = 2.2 are x = 2 and x = 3.
/// assert_eq!(knn.predict(2.2), 5.0);
/// # Ok::<(), cm_stats::StatsError>(())
/// ```
#[derive(Debug, Clone)]
pub struct KnnRegressor {
    points: Vec<(f64, f64)>,
    k: usize,
}

impl KnnRegressor {
    /// Builds a regressor over training points `(xs[i], ys[i])`.
    ///
    /// # Errors
    ///
    /// Returns an error when `k == 0`, when the inputs are empty or of
    /// different lengths, or when there are fewer than `k` points.
    pub fn fit(xs: &[f64], ys: &[f64], k: usize) -> Result<Self, StatsError> {
        if k == 0 {
            return Err(StatsError::InvalidParameter("k must be at least 1"));
        }
        if xs.len() != ys.len() {
            return Err(StatsError::MismatchedLengths {
                left: xs.len(),
                right: ys.len(),
            });
        }
        if xs.is_empty() {
            return Err(StatsError::EmptyInput);
        }
        if xs.len() < k {
            return Err(StatsError::NotEnoughData {
                required: k,
                available: xs.len(),
            });
        }
        let mut points: Vec<(f64, f64)> = xs.iter().copied().zip(ys.iter().copied()).collect();
        points.sort_by(|a, b| a.0.total_cmp(&b.0));
        Ok(KnnRegressor { points, k })
    }

    /// Number of neighbors used per prediction.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Predicts the value at `x` as the mean of the `k` nearest training
    /// points (by absolute distance along x).
    pub fn predict(&self, x: f64) -> f64 {
        self.fold_neighbors(x, |_| {}) / self.k as f64
    }

    /// Predicts the value at `x` together with a predictive variance.
    ///
    /// The mean is computed exactly as [`Self::predict`] does — same
    /// neighbors, same summation order, bit-identical result. The
    /// variance is the sample variance of the `k` neighbor values
    /// inflated by `1 + 1/k` (the predictive variance of a new draw from
    /// the neighborhood when the mean itself is estimated from `k`
    /// samples); with `k == 1` the neighborhood carries no dispersion
    /// information and the variance is reported as `0`.
    ///
    /// # Examples
    ///
    /// ```
    /// use cm_stats::knn::KnnRegressor;
    ///
    /// let xs = [0.0, 1.0, 2.0, 3.0];
    /// let ys = [10.0, 12.0, 10.0, 12.0];
    /// let knn = KnnRegressor::fit(&xs, &ys, 2)?;
    /// let (mean, variance) = knn.predict_with_variance(0.4);
    /// assert_eq!(mean, knn.predict(0.4));
    /// assert!(variance > 0.0);
    /// # Ok::<(), cm_stats::StatsError>(())
    /// ```
    pub fn predict_with_variance(&self, x: f64) -> (f64, f64) {
        let mut neighbors = Vec::with_capacity(self.k);
        let sum = self.fold_neighbors(x, |y| neighbors.push(y));
        let mean = sum / self.k as f64;
        if self.k < 2 {
            return (mean, 0.0);
        }
        let ss: f64 = neighbors.iter().map(|&y| (y - mean) * (y - mean)).sum();
        let sample_var = ss / (self.k - 1) as f64;
        (mean, sample_var * (1.0 + 1.0 / self.k as f64))
    }

    /// The shared neighbor walk: visits the `k` nearest training values
    /// in selection order and returns their sum. Both prediction entry
    /// points accumulate through this one loop, so they cannot drift
    /// apart.
    fn fold_neighbors(&self, x: f64, mut visit: impl FnMut(f64)) -> f64 {
        // Points are sorted by x: locate the insertion point and expand
        // outward, which is O(log n + k).
        let n = self.points.len();
        let start = self.points.partition_point(|&(px, _)| px < x);
        let mut left = start;
        let mut right = start; // right is exclusive of chosen region start
        let mut sum = 0.0;
        for _ in 0..self.k {
            let take_left = match (left > 0, right < n) {
                (true, true) => {
                    (x - self.points[left - 1].0).abs() <= (self.points[right].0 - x).abs()
                }
                (true, false) => true,
                (false, true) => false,
                (false, false) => unreachable!("k <= n is enforced at fit time"),
            };
            let y = if take_left {
                left -= 1;
                self.points[left].1
            } else {
                let y = self.points[right].1;
                right += 1;
                y
            };
            sum += y;
            visit(y);
        }
        sum
    }
}

/// Fills the `missing` positions of `values` by KNN over the non-missing
/// positions, using sample index as the x coordinate (the cleaner's
/// configuration; the paper's Eq. 8 example).
///
/// Positions listed in `missing` take no part in neighbor search, so a
/// run of consecutive missing values is filled from the valid samples
/// around the run.
///
/// When fewer than `k` valid samples exist the neighborhood degrades
/// gracefully: `k` is clamped to the number of valid samples, so with
/// exactly one valid sample every missing position takes its value and
/// with a handful the fill is their (distance-ordered) mean. A typed
/// error is returned only when there is *nothing* to interpolate from.
///
/// # Errors
///
/// Returns [`StatsError::EmptyInput`] when no valid samples exist, and
/// [`StatsError::InvalidParameter`] for `k == 0` or an out-of-range
/// missing index.
pub fn impute_series(values: &mut [f64], missing: &[usize], k: usize) -> Result<(), StatsError> {
    if missing.is_empty() {
        return Ok(());
    }
    let knn = fit_around(values, missing, k)?;
    for &i in missing {
        values[i] = knn.predict(i as f64);
    }
    Ok(())
}

/// [`impute_series`] plus a predictive variance per fill: fills exactly
/// the same values (same regressor, same neighbor walk, bit-identical)
/// and returns one variance per entry of `missing`, in order, from
/// [`KnnRegressor::predict_with_variance`].
///
/// # Errors
///
/// Exactly the errors of [`impute_series`].
pub fn impute_series_with_variance(
    values: &mut [f64],
    missing: &[usize],
    k: usize,
) -> Result<Vec<f64>, StatsError> {
    if missing.is_empty() {
        return Ok(Vec::new());
    }
    let knn = fit_around(values, missing, k)?;
    let mut variances = Vec::with_capacity(missing.len());
    for &i in missing {
        let (mean, variance) = knn.predict_with_variance(i as f64);
        values[i] = mean;
        variances.push(variance);
    }
    Ok(variances)
}

/// The regressor both imputation entry points fill from: sample index
/// against value over every position `missing` does not name, with `k`
/// clamped to the number of such positions.
fn fit_around(values: &[f64], missing: &[usize], k: usize) -> Result<KnnRegressor, StatsError> {
    if k == 0 {
        return Err(StatsError::InvalidParameter("k must be at least 1"));
    }
    let mut is_missing = vec![false; values.len()];
    for &i in missing {
        *is_missing
            .get_mut(i)
            .ok_or(StatsError::InvalidParameter("missing index out of range"))? = true;
    }
    let (xs, ys): (Vec<f64>, Vec<f64>) = values
        .iter()
        .zip(&is_missing)
        .enumerate()
        .filter(|(_, (_, &gap))| !gap)
        .map(|(i, (&v, _))| (i as f64, v))
        .unzip();
    if xs.is_empty() {
        return Err(StatsError::EmptyInput);
    }
    KnnRegressor::fit(&xs, &ys, k.min(xs.len()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fit_validates_inputs() {
        assert!(KnnRegressor::fit(&[], &[], 1).is_err());
        assert!(KnnRegressor::fit(&[1.0], &[1.0, 2.0], 1).is_err());
        assert!(KnnRegressor::fit(&[1.0, 2.0], &[1.0, 2.0], 0).is_err());
        assert!(KnnRegressor::fit(&[1.0, 2.0], &[1.0, 2.0], 3).is_err());
    }

    #[test]
    fn k_equals_one_returns_nearest() {
        let knn = KnnRegressor::fit(&[0.0, 10.0], &[5.0, 50.0], 1).unwrap();
        assert_eq!(knn.predict(1.0), 5.0);
        assert_eq!(knn.predict(9.0), 50.0);
    }

    #[test]
    fn k_equals_n_returns_global_mean() {
        let knn = KnnRegressor::fit(&[0.0, 1.0, 2.0], &[3.0, 6.0, 9.0], 3).unwrap();
        assert_eq!(knn.predict(-100.0), 6.0);
        assert_eq!(knn.predict(100.0), 6.0);
    }

    #[test]
    fn prediction_at_edges_uses_available_side() {
        let xs = [0.0, 1.0, 2.0, 3.0];
        let ys = [0.0, 1.0, 2.0, 3.0];
        let knn = KnnRegressor::fit(&xs, &ys, 2).unwrap();
        assert_eq!(knn.predict(-5.0), 0.5); // two leftmost
        assert_eq!(knn.predict(9.0), 2.5); // two rightmost
    }

    #[test]
    fn impute_fills_interior_gap() {
        let mut v = vec![1.0, 2.0, 0.0, 4.0, 5.0, 6.0];
        impute_series(&mut v, &[2], 2).unwrap();
        // Neighbors of index 2 among valid xs {0,1,3,4,5}: 1 and 3.
        assert_eq!(v[2], 3.0);
    }

    #[test]
    fn impute_fills_leading_run() {
        // Cold-start shape from Fig. 2(b): leading missing values.
        let mut v = vec![0.0, 0.0, 0.0, 10.0, 12.0, 11.0, 13.0, 12.0];
        impute_series(&mut v, &[0, 1, 2], 5).unwrap();
        for (i, &val) in v.iter().take(3).enumerate() {
            assert!(val > 9.0, "position {i} still near zero: {val}");
        }
    }

    #[test]
    fn impute_validates() {
        let mut v = vec![1.0, 2.0];
        assert!(impute_series(&mut v, &[5], 1).is_err());
        let mut v = vec![1.0, 2.0];
        assert!(impute_series(&mut v, &[0], 0).is_err()); // k == 0
        let mut v = vec![1.0, 2.0, 3.0];
        assert!(impute_series(&mut v, &[], 0).is_ok()); // nothing to do
    }

    /// Regression: with fewer valid samples than `k`, `impute_series`
    /// used to refuse outright (`NotEnoughData`). It must instead clamp
    /// the neighborhood to what exists — here one valid sample, so every
    /// gap takes its value — and only error when nothing is observed.
    #[test]
    fn impute_falls_back_when_fewer_than_k_valid() {
        let mut v = vec![7.0, 0.0, 0.0, 0.0, 0.0, 0.0];
        impute_series(&mut v, &[1, 2, 3, 4, 5], 5).unwrap();
        assert_eq!(v, vec![7.0; 6]);

        // Two valid samples with k = 5: the fill is their mean and must
        // be finite everywhere.
        let mut v = vec![4.0, 0.0, 8.0, 0.0];
        impute_series(&mut v, &[1, 3], 5).unwrap();
        assert!(v.iter().all(|x| x.is_finite()));
        assert_eq!(v[1], 6.0);
        assert_eq!(v[3], 6.0);

        // Nothing observed at all: a typed error, never a panic.
        let mut v = vec![0.0, 0.0];
        assert!(matches!(
            impute_series(&mut v, &[0, 1], 5),
            Err(StatsError::EmptyInput)
        ));
    }

    #[test]
    fn predict_with_variance_mean_matches_predict_exactly() {
        let xs: Vec<f64> = (0..40).map(|i| i as f64).collect();
        let ys: Vec<f64> = (0..40)
            .map(|i| 10.0 + ((i * 13) % 7) as f64 * 0.3)
            .collect();
        let knn = KnnRegressor::fit(&xs, &ys, 5).unwrap();
        for probe in [-3.0, 0.0, 7.4, 19.5, 44.0] {
            let (mean, variance) = knn.predict_with_variance(probe);
            assert_eq!(mean.to_bits(), knn.predict(probe).to_bits(), "x={probe}");
            assert!(variance >= 0.0);
        }
    }

    #[test]
    fn variance_reflects_neighborhood_dispersion() {
        // A flat neighborhood is certain; a noisy one is not.
        let flat = KnnRegressor::fit(&[0.0, 1.0, 2.0], &[5.0, 5.0, 5.0], 3).unwrap();
        assert_eq!(flat.predict_with_variance(1.0).1, 0.0);
        let noisy = KnnRegressor::fit(&[0.0, 1.0, 2.0], &[1.0, 9.0, 2.0], 3).unwrap();
        assert!(noisy.predict_with_variance(1.0).1 > 1.0);
        // k = 1 carries no dispersion information.
        let single = KnnRegressor::fit(&[0.0, 9.0], &[1.0, 100.0], 1).unwrap();
        assert_eq!(single.predict_with_variance(0.1).1, 0.0);
    }

    #[test]
    fn impute_with_variance_fills_identically() {
        let base = vec![10.0, 0.0, 12.0, 0.0, 11.0, 14.0, 0.0, 13.0];
        let missing = [1usize, 3, 6];
        let mut point = base.clone();
        impute_series(&mut point, &missing, 3).unwrap();
        let mut bayes = base.clone();
        let variances = impute_series_with_variance(&mut bayes, &missing, 3).unwrap();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&point), bits(&bayes));
        assert_eq!(variances.len(), missing.len());
        assert!(variances.iter().all(|&v| v >= 0.0 && v.is_finite()));
    }

    #[test]
    fn impute_with_variance_validates_like_impute() {
        let mut v = vec![1.0, 2.0];
        assert!(impute_series_with_variance(&mut v, &[5], 1).is_err());
        let mut v = vec![1.0, 2.0];
        assert!(impute_series_with_variance(&mut v, &[0], 0).is_err());
        let mut v = vec![0.0, 0.0];
        assert!(impute_series_with_variance(&mut v, &[0, 1], 5).is_err());
        let mut v = vec![1.0, 2.0, 3.0];
        assert!(impute_series_with_variance(&mut v, &[], 0)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn impute_ignores_missing_neighbors() {
        // The two zeros are adjacent; each must be filled from valid
        // samples only, never from the other zero.
        let mut v = vec![8.0, 8.0, 0.0, 0.0, 8.0, 8.0];
        impute_series(&mut v, &[2, 3], 4).unwrap();
        assert_eq!(v[2], 8.0);
        assert_eq!(v[3], 8.0);
    }
}
