//! Descriptive statistics.

use crate::StatsError;

/// Order statistics are meaningless over NaN: `total_cmp` sorts NaN
/// after every number (silently shifting the median or a quantile) and
/// `f64::min`/`f64::max` silently skip it. All four order-statistic
/// entry points reject NaN with a typed error instead.
fn reject_nan(data: &[f64]) -> Result<(), StatsError> {
    if data.iter().any(|v| v.is_nan()) {
        return Err(StatsError::InvalidParameter(
            "order statistics are undefined over NaN input",
        ));
    }
    Ok(())
}

/// Arithmetic mean.
///
/// # Errors
///
/// Returns [`StatsError::EmptyInput`] for an empty slice.
///
/// # Examples
///
/// ```
/// assert_eq!(cm_stats::descriptive::mean(&[1.0, 2.0, 3.0])?, 2.0);
/// # Ok::<(), cm_stats::StatsError>(())
/// ```
pub fn mean(data: &[f64]) -> Result<f64, StatsError> {
    if data.is_empty() {
        return Err(StatsError::EmptyInput);
    }
    Ok(data.iter().sum::<f64>() / data.len() as f64)
}

/// Population variance (divides by `n`).
///
/// # Errors
///
/// Returns [`StatsError::EmptyInput`] for an empty slice.
pub fn population_variance(data: &[f64]) -> Result<f64, StatsError> {
    let m = mean(data)?;
    Ok(data.iter().map(|&x| (x - m) * (x - m)).sum::<f64>() / data.len() as f64)
}

/// Population standard deviation.
///
/// This is the `std` used in the paper's outlier threshold
/// `threshold = mean + n · std` (Eq. 6).
///
/// # Errors
///
/// Returns [`StatsError::EmptyInput`] for an empty slice.
pub fn std_dev(data: &[f64]) -> Result<f64, StatsError> {
    Ok(population_variance(data)?.sqrt())
}

/// Median of the data (average of the middle pair for even lengths).
///
/// # Errors
///
/// Returns [`StatsError::EmptyInput`] for an empty slice, or
/// [`StatsError::InvalidParameter`] when the data contains NaN.
///
/// # Examples
///
/// ```
/// assert_eq!(cm_stats::descriptive::median(&[3.0, 1.0, 2.0])?, 2.0);
/// assert_eq!(cm_stats::descriptive::median(&[4.0, 1.0, 2.0, 3.0])?, 2.5);
/// # Ok::<(), cm_stats::StatsError>(())
/// ```
pub fn median(data: &[f64]) -> Result<f64, StatsError> {
    if data.is_empty() {
        return Err(StatsError::EmptyInput);
    }
    reject_nan(data)?;
    let mut sorted = data.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        Ok(sorted[n / 2])
    } else {
        Ok((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0)
    }
}

/// Empirical quantile with linear interpolation (type-7, the NumPy
/// default), `q` in `[0, 1]`.
///
/// # Errors
///
/// Returns [`StatsError::EmptyInput`] for an empty slice, or
/// [`StatsError::InvalidParameter`] when `q` is outside `[0, 1]` or the
/// data contains NaN.
pub fn quantile(data: &[f64], q: f64) -> Result<f64, StatsError> {
    if data.is_empty() {
        return Err(StatsError::EmptyInput);
    }
    if !(0.0..=1.0).contains(&q) {
        return Err(StatsError::InvalidParameter("quantile must be in [0, 1]"));
    }
    reject_nan(data)?;
    let mut sorted = data.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    Ok(sorted[lo] + frac * (sorted[hi] - sorted[lo]))
}

/// Minimum value.
///
/// # Errors
///
/// Returns [`StatsError::EmptyInput`] for an empty slice, or
/// [`StatsError::InvalidParameter`] when the data contains NaN.
pub fn min(data: &[f64]) -> Result<f64, StatsError> {
    reject_nan(data)?;
    data.iter()
        .copied()
        .reduce(f64::min)
        .ok_or(StatsError::EmptyInput)
}

/// Maximum value.
///
/// # Errors
///
/// Returns [`StatsError::EmptyInput`] for an empty slice, or
/// [`StatsError::InvalidParameter`] when the data contains NaN.
pub fn max(data: &[f64]) -> Result<f64, StatsError> {
    reject_nan(data)?;
    data.iter()
        .copied()
        .reduce(f64::max)
        .ok_or(StatsError::EmptyInput)
}

/// Equal-width histogram: returns `(bin_edges, counts)` with
/// `bins + 1` edges and `bins` counts. Values on an interior edge fall
/// into the right bin; the maximum falls into the last bin.
///
/// # Errors
///
/// Returns [`StatsError::EmptyInput`] for an empty slice or
/// [`StatsError::InvalidParameter`] for zero bins.
///
/// # Examples
///
/// ```
/// let (edges, counts) = cm_stats::descriptive::histogram(&[0.0, 1.0, 2.0, 3.0], 2)?;
/// assert_eq!(edges, vec![0.0, 1.5, 3.0]);
/// assert_eq!(counts, vec![2, 2]);
/// # Ok::<(), cm_stats::StatsError>(())
/// ```
pub fn histogram(data: &[f64], bins: usize) -> Result<(Vec<f64>, Vec<usize>), StatsError> {
    if bins == 0 {
        return Err(StatsError::InvalidParameter("need at least one bin"));
    }
    let lo = min(data)?;
    let hi = max(data)?;
    let width = ((hi - lo) / bins as f64).max(f64::MIN_POSITIVE);
    let edges: Vec<f64> = (0..=bins).map(|i| lo + width * i as f64).collect();
    let mut counts = vec![0usize; bins];
    for &v in data {
        let mut bin = ((v - lo) / width) as usize;
        if bin >= bins {
            bin = bins - 1;
        }
        counts[bin] += 1;
    }
    Ok((edges, counts))
}

/// Fraction of `data` that is `<= threshold`, in `[0, 1]`.
///
/// Used to pick the outlier-control variable `n` in Eq. 6 (Table I of the
/// paper reports these fractions for n = 3..7).
///
/// # Errors
///
/// Returns [`StatsError::EmptyInput`] for an empty slice.
pub fn fraction_within(data: &[f64], threshold: f64) -> Result<f64, StatsError> {
    if data.is_empty() {
        return Err(StatsError::EmptyInput);
    }
    let within = data.iter().filter(|&&x| x <= threshold).count();
    Ok(within as f64 / data.len() as f64)
}

/// Sample autocorrelation function up to `max_lag`: `acf[k]` is the
/// lag-`k` autocorrelation (so `acf[0] == 1`). Used to diagnose the
/// workload simulator's AR and phase structure.
///
/// # Errors
///
/// Returns [`StatsError::NotEnoughData`] unless the series is longer
/// than `max_lag + 1`, and [`StatsError::InvalidParameter`] for
/// zero-variance data.
///
/// # Examples
///
/// ```
/// // An alternating series has acf[1] = -1.
/// let data: Vec<f64> = (0..64).map(|i| if i % 2 == 0 { 1.0 } else { -1.0 }).collect();
/// let acf = cm_stats::descriptive::autocorrelation(&data, 2)?;
/// assert!((acf[0] - 1.0).abs() < 1e-12);
/// assert!(acf[1] < -0.9);
/// assert!(acf[2] > 0.9);
/// # Ok::<(), cm_stats::StatsError>(())
/// ```
pub fn autocorrelation(data: &[f64], max_lag: usize) -> Result<Vec<f64>, StatsError> {
    if data.len() <= max_lag + 1 {
        return Err(StatsError::NotEnoughData {
            required: max_lag + 2,
            available: data.len(),
        });
    }
    let m = mean(data)?;
    let var: f64 = data.iter().map(|&x| (x - m) * (x - m)).sum();
    if var == 0.0 {
        return Err(StatsError::InvalidParameter(
            "autocorrelation undefined for constant data",
        ));
    }
    let mut acf = Vec::with_capacity(max_lag + 1);
    for lag in 0..=max_lag {
        let cov: f64 = data
            .windows(lag + 1)
            .map(|w| (w[0] - m) * (w[lag] - m))
            .sum();
        acf.push(cov / var);
    }
    Ok(acf)
}

/// Skewness (Fisher, population form). Zero for symmetric data.
///
/// # Errors
///
/// Returns [`StatsError::NotEnoughData`] for fewer than three values or
/// [`StatsError::InvalidParameter`] when the data has zero variance.
pub fn skewness(data: &[f64]) -> Result<f64, StatsError> {
    if data.len() < 3 {
        return Err(StatsError::NotEnoughData {
            required: 3,
            available: data.len(),
        });
    }
    let m = mean(data)?;
    let sd = std_dev(data)?;
    if sd == 0.0 {
        return Err(StatsError::InvalidParameter(
            "skewness undefined for constant data",
        ));
    }
    let n = data.len() as f64;
    Ok(data.iter().map(|&x| ((x - m) / sd).powi(3)).sum::<f64>() / n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_variance() {
        let data = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert_eq!(mean(&data).unwrap(), 5.0);
        assert_eq!(population_variance(&data).unwrap(), 4.0);
        assert_eq!(std_dev(&data).unwrap(), 2.0);
    }

    #[test]
    fn empty_inputs_error() {
        assert_eq!(mean(&[]), Err(StatsError::EmptyInput));
        assert_eq!(median(&[]), Err(StatsError::EmptyInput));
        assert_eq!(min(&[]), Err(StatsError::EmptyInput));
        assert_eq!(max(&[]), Err(StatsError::EmptyInput));
        assert_eq!(fraction_within(&[], 1.0), Err(StatsError::EmptyInput));
    }

    #[test]
    fn quantile_interpolates() {
        let data = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&data, 0.0).unwrap(), 1.0);
        assert_eq!(quantile(&data, 1.0).unwrap(), 4.0);
        assert_eq!(quantile(&data, 0.5).unwrap(), 2.5);
        assert!(quantile(&data, 1.5).is_err());
    }

    #[test]
    fn median_single_value() {
        assert_eq!(median(&[42.0]).unwrap(), 42.0);
    }

    /// Regression: the order statistics used to *misplace* NaN instead
    /// of rejecting it — `total_cmp` sorts NaN last, so
    /// `median(&[1, NaN, 2])` returned `2.0`, and `min`/`max` silently
    /// skipped NaN via the `f64::min`/`f64::max` reduction. Garbage
    /// order statistics poison every downstream distance; NaN must be a
    /// typed error.
    #[test]
    fn order_statistics_reject_nan() {
        let poisoned = [1.0, f64::NAN, 2.0];
        for result in [
            median(&poisoned),
            quantile(&poisoned, 0.5),
            min(&poisoned),
            max(&poisoned),
        ] {
            assert_eq!(
                result,
                Err(StatsError::InvalidParameter(
                    "order statistics are undefined over NaN input"
                ))
            );
        }
        // Infinities are ordered fine and stay accepted.
        let inf = [f64::NEG_INFINITY, 0.0, f64::INFINITY];
        assert_eq!(min(&inf).unwrap(), f64::NEG_INFINITY);
        assert_eq!(max(&inf).unwrap(), f64::INFINITY);
        assert_eq!(median(&inf).unwrap(), 0.0);
    }

    #[test]
    fn fraction_within_counts_inclusive() {
        let data = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(fraction_within(&data, 2.0).unwrap(), 0.5);
        assert_eq!(fraction_within(&data, 0.0).unwrap(), 0.0);
        assert_eq!(fraction_within(&data, 10.0).unwrap(), 1.0);
    }

    #[test]
    fn autocorrelation_of_ar1_decays_geometrically() {
        // x[t] = 0.8 x[t-1] + e[t] has acf[k] ~ 0.8^k.
        let mut x = 0.0;
        let mut data = Vec::with_capacity(4000);
        let mut rng = cm_par::Rng::new(12345);
        for _ in 0..4000 {
            x = 0.8 * x + rng.range_f64(-1.0..1.0);
            data.push(x);
        }
        let acf = autocorrelation(&data, 3).unwrap();
        assert!((acf[1] - 0.8).abs() < 0.05, "acf[1] = {}", acf[1]);
        assert!((acf[2] - 0.64).abs() < 0.08, "acf[2] = {}", acf[2]);
    }

    #[test]
    fn autocorrelation_validates() {
        assert!(autocorrelation(&[1.0, 2.0], 3).is_err());
        assert!(autocorrelation(&[5.0; 32], 2).is_err());
    }

    #[test]
    fn histogram_counts_everything_once() {
        let data: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let (edges, counts) = histogram(&data, 10).unwrap();
        assert_eq!(edges.len(), 11);
        assert_eq!(counts.iter().sum::<usize>(), 100);
        assert!(counts.iter().all(|&c| c == 10));
        // Degenerate constant data lands in one bin.
        let (_, counts) = histogram(&[5.0; 7], 3).unwrap();
        assert_eq!(counts.iter().sum::<usize>(), 7);
        assert!(histogram(&[], 3).is_err());
        assert!(histogram(&[1.0], 0).is_err());
    }

    #[test]
    fn skewness_sign() {
        let right_tail = [1.0, 1.0, 1.0, 2.0, 10.0];
        assert!(skewness(&right_tail).unwrap() > 0.5);
        let symmetric = [-2.0, -1.0, 0.0, 1.0, 2.0];
        assert!(skewness(&symmetric).unwrap().abs() < 1e-12);
        assert!(skewness(&[1.0, 1.0, 1.0]).is_err());
    }
}
