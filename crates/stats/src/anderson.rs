//! Anderson–Darling goodness-of-fit testing.
//!
//! The paper uses `scipy.stats.anderson` to decide which events have
//! Gaussian-distributed values (100 of 229) and which follow long-tail
//! distributions best fit by GEV (Section III-B). This module provides
//! the same normality test (with the Stephens small-sample correction
//! and critical values) plus a generic A² statistic against any fitted
//! [`Distribution`], which is how we compare candidate long-tail families.

use crate::distribution::Distribution;
use crate::{Gev, Gumbel, Logistic, Normal, StatsError};

/// Significance levels (percent) for the normality critical values,
/// matching `scipy.stats.anderson`.
pub const SIGNIFICANCE_LEVELS: [f64; 5] = [15.0, 10.0, 5.0, 2.5, 1.0];

/// Result of an Anderson–Darling normality test.
#[derive(Debug, Clone, PartialEq)]
pub struct AndersonDarling {
    /// The corrected A*² statistic.
    pub statistic: f64,
    /// Critical values paired with [`SIGNIFICANCE_LEVELS`].
    pub critical_values: [f64; 5],
}

impl AndersonDarling {
    /// Returns `true` when normality is *not* rejected at the given
    /// significance level (percent; must be one of
    /// [`SIGNIFICANCE_LEVELS`]).
    ///
    /// # Panics
    ///
    /// Panics if `level` is not one of the tabulated levels.
    pub fn accepts_at(&self, level: f64) -> bool {
        let idx = SIGNIFICANCE_LEVELS
            .iter()
            .position(|&l| l == level)
            .expect("level must be one of SIGNIFICANCE_LEVELS");
        self.statistic < self.critical_values[idx]
    }

    /// Convenience for the 5 % level the paper uses.
    pub fn is_normal(&self) -> bool {
        self.accepts_at(5.0)
    }
}

/// Raw A² statistic of `data` against a fully specified distribution.
///
/// # Errors
///
/// Returns [`StatsError::NotEnoughData`] for fewer than eight values
/// (the statistic is meaningless below that).
pub fn a_squared<D: Distribution>(data: &[f64], dist: &D) -> Result<f64, StatsError> {
    if data.len() < 8 {
        return Err(StatsError::NotEnoughData {
            required: 8,
            available: data.len(),
        });
    }
    // The sorted sample becomes its CDF values in place, one evaluation
    // per sample: the sum reads each value twice, once from each end.
    let mut cdf = data.to_vec();
    cdf.sort_by(f64::total_cmp);
    // Clamp CDF values away from {0, 1} so the logs stay finite when a
    // sample falls outside a fitted distribution's support.
    let eps = 1e-12;
    for x in &mut cdf {
        *x = dist.cdf(*x).clamp(eps, 1.0 - eps);
    }
    let n = cdf.len();
    let nf = n as f64;
    let mut sum = 0.0;
    for (i, (&fi, &fni)) in cdf.iter().zip(cdf.iter().rev()).enumerate() {
        // (-fni).ln_1p() = ln(1 - fni), stable for fni near 1.
        sum += (2.0 * i as f64 + 1.0) * (fi.ln() + (-fni).ln_1p());
    }
    Ok(-nf - sum / nf)
}

/// Anderson–Darling normality test with parameters estimated from the
/// sample (case 3 of Stephens 1974), applying the small-sample
/// correction `A*² = A²·(1 + 0.75/n + 2.25/n²)`.
///
/// # Errors
///
/// Returns an error for fewer than eight values or zero-variance data.
///
/// # Examples
///
/// ```
/// use cm_stats::anderson;
/// use cm_stats::{Distribution, Normal};
/// use cm_par::Rng;
///
/// let n = Normal::new(0.0, 1.0)?;
/// let mut rng = Rng::new(1);
/// let data: Vec<f64> = (0..500).map(|_| n.sample(&mut rng)).collect();
/// assert!(anderson::normality_test(&data)?.is_normal());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn normality_test(data: &[f64]) -> Result<AndersonDarling, StatsError> {
    let fitted = Normal::fit(data)?;
    let a2 = a_squared(data, &fitted)?;
    let n = data.len() as f64;
    let corrected = a2 * (1.0 + 0.75 / n + 2.25 / (n * n));
    Ok(AndersonDarling {
        statistic: corrected,
        critical_values: [0.576, 0.656, 0.787, 0.918, 1.092],
    })
}

/// Kolmogorov–Smirnov statistic of `data` against a fully specified
/// distribution: the maximum absolute difference between the empirical
/// CDF and the theoretical CDF.
///
/// A second goodness-of-fit lens next to [`a_squared`]: KS weights the
/// distribution body, Anderson–Darling emphasizes the tails (which is
/// why the paper uses the latter for long-tail classification).
///
/// # Errors
///
/// Returns [`StatsError::EmptyInput`] for an empty slice.
///
/// # Examples
///
/// ```
/// use cm_stats::{anderson::ks_statistic, Normal};
///
/// let data: Vec<f64> = (1..=99).map(|i| i as f64 / 10.0).collect();
/// let good = Normal::new(5.0, 2.9)?;
/// let bad = Normal::new(20.0, 1.0)?;
/// assert!(ks_statistic(&data, &good)? < ks_statistic(&data, &bad)?);
/// # Ok::<(), cm_stats::StatsError>(())
/// ```
pub fn ks_statistic<D: Distribution>(data: &[f64], dist: &D) -> Result<f64, StatsError> {
    if data.is_empty() {
        return Err(StatsError::EmptyInput);
    }
    let mut x = data.to_vec();
    x.sort_by(f64::total_cmp);
    let n = x.len() as f64;
    let mut d = 0.0f64;
    for (i, &xi) in x.iter().enumerate() {
        let f = dist.cdf(xi);
        let ecdf_hi = (i + 1) as f64 / n;
        let ecdf_lo = i as f64 / n;
        d = d.max((f - ecdf_lo).abs()).max((ecdf_hi - f).abs());
    }
    Ok(d)
}

/// Long-tail candidate families compared when a sample fails the
/// normality test.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TailCandidate {
    /// Generalized extreme value.
    Gev,
    /// Gumbel (type-I extreme value).
    Gumbel,
    /// Logistic.
    Logistic,
}

/// Fits each long-tail candidate to `data` and returns them ordered by
/// ascending A² (best fit first). Candidates whose fit fails are skipped.
///
/// The paper reports GEV winning this comparison on its event data.
///
/// # Errors
///
/// Returns [`StatsError::NotEnoughData`] when no candidate could be fit.
pub fn best_tail_fit(data: &[f64]) -> Result<Vec<(TailCandidate, f64)>, StatsError> {
    let mut scored = Vec::new();
    if let Ok(g) = Gev::fit(data) {
        if let Ok(a2) = a_squared(data, &g) {
            scored.push((TailCandidate::Gev, a2));
        }
    }
    if let Ok(g) = Gumbel::fit(data) {
        if let Ok(a2) = a_squared(data, &g) {
            scored.push((TailCandidate::Gumbel, a2));
        }
    }
    if let Ok(l) = Logistic::fit(data) {
        if let Ok(a2) = a_squared(data, &l) {
            scored.push((TailCandidate::Logistic, a2));
        }
    }
    if scored.is_empty() {
        return Err(StatsError::NotEnoughData {
            required: 8,
            available: data.len(),
        });
    }
    scored.sort_by(|a, b| a.1.total_cmp(&b.1));
    Ok(scored)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Distribution;
    use cm_par::Rng;

    fn sample<D: Distribution>(d: &D, n: usize, seed: u64) -> Vec<f64> {
        let mut rng = Rng::new(seed);
        (0..n).map(|_| d.sample(&mut rng)).collect()
    }

    #[test]
    fn accepts_gaussian_data() {
        let data = sample(&Normal::new(50.0, 4.0).unwrap(), 800, 2);
        let result = normality_test(&data).unwrap();
        assert!(result.is_normal(), "A*2 = {}", result.statistic);
        assert!(result.accepts_at(1.0));
    }

    #[test]
    fn rejects_heavy_tailed_data() {
        let data = sample(&Gev::new(0.0, 1.0, 0.3).unwrap(), 800, 3);
        let result = normality_test(&data).unwrap();
        assert!(!result.is_normal(), "A*2 = {}", result.statistic);
    }

    #[test]
    fn rejects_gumbel_data() {
        let data = sample(&Gumbel::new(10.0, 2.0).unwrap(), 1000, 4);
        assert!(!normality_test(&data).unwrap().is_normal());
    }

    #[test]
    fn gev_wins_on_gev_data() {
        let data = sample(&Gev::new(5.0, 2.0, 0.25).unwrap(), 2000, 5);
        let ranking = best_tail_fit(&data).unwrap();
        assert_eq!(ranking[0].0, TailCandidate::Gev, "ranking: {ranking:?}");
    }

    #[test]
    fn a_squared_smaller_for_true_distribution() {
        let truth = Normal::new(0.0, 1.0).unwrap();
        let wrong = Normal::new(2.0, 1.0).unwrap();
        let data = sample(&truth, 300, 6);
        let good = a_squared(&data, &truth).unwrap();
        let bad = a_squared(&data, &wrong).unwrap();
        assert!(good < bad);
    }

    #[test]
    fn ks_statistic_prefers_the_true_distribution() {
        let truth = Normal::new(10.0, 2.0).unwrap();
        let data = sample(&truth, 500, 7);
        let wrong = Normal::new(14.0, 2.0).unwrap();
        let d_true = ks_statistic(&data, &truth).unwrap();
        let d_wrong = ks_statistic(&data, &wrong).unwrap();
        assert!(d_true < 0.08, "KS of true dist {d_true}");
        assert!(d_wrong > 3.0 * d_true);
        assert!(ks_statistic(&[], &truth).is_err());
    }

    /// The two-evaluation A² the one-pass sum replaced, kept as its
    /// oracle.
    fn a_squared_two_pass<D: Distribution>(data: &[f64], dist: &D) -> f64 {
        let mut x = data.to_vec();
        x.sort_by(f64::total_cmp);
        let n = x.len();
        let eps = 1e-12;
        let mut sum = 0.0;
        for i in 0..n {
            let fi = dist.cdf(x[i]).clamp(eps, 1.0 - eps);
            let fni = dist.cdf(x[n - 1 - i]).clamp(eps, 1.0 - eps);
            sum += (2.0 * i as f64 + 1.0) * (fi.ln() + (-fni).ln_1p());
        }
        -(n as f64) - sum / n as f64
    }

    #[test]
    fn one_pass_a_squared_matches_two_pass_oracle_bitwise() {
        let gev = Gev::new(5.0, 2.0, 0.25).unwrap();
        let gumbel = Gumbel::new(10.0, 2.0).unwrap();
        let logistic = Logistic::new(0.0, 1.5).unwrap();
        let normal = Normal::new(50.0, 4.0).unwrap();
        for (seed, n) in [(1u64, 8usize), (2, 9), (3, 425), (4, 1000)] {
            // Ties, a sample outside the GEV support (clamped CDF) and
            // odd and even lengths.
            let mut data = sample(&gev, n, seed);
            data[0] = data[1];
            data[n - 1] = -1e9;
            let fitted = Normal::fit(&data).unwrap();
            for bits in [
                (
                    a_squared(&data, &gev).unwrap(),
                    a_squared_two_pass(&data, &gev),
                ),
                (
                    a_squared(&data, &gumbel).unwrap(),
                    a_squared_two_pass(&data, &gumbel),
                ),
                (
                    a_squared(&data, &logistic).unwrap(),
                    a_squared_two_pass(&data, &logistic),
                ),
                (
                    a_squared(&data, &normal).unwrap(),
                    a_squared_two_pass(&data, &normal),
                ),
                (
                    a_squared(&data, &fitted).unwrap(),
                    a_squared_two_pass(&data, &fitted),
                ),
            ] {
                assert_eq!(bits.0.to_bits(), bits.1.to_bits(), "n = {n}");
            }
        }
    }

    #[test]
    fn too_few_points_errors() {
        assert!(normality_test(&[1.0, 2.0, 3.0]).is_err());
        assert!(a_squared(&[1.0; 5], &Normal::standard()).is_err());
    }

    #[test]
    #[should_panic(expected = "SIGNIFICANCE_LEVELS")]
    fn accepts_at_unknown_level_panics() {
        let r = AndersonDarling {
            statistic: 0.5,
            critical_values: [0.576, 0.656, 0.787, 0.918, 1.092],
        };
        r.accepts_at(7.5);
    }
}
