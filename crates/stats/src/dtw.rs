//! Dynamic time warping (DTW) distance between numeric series.
//!
//! The paper measures the error of multiplexed counter series with DTW
//! (Eqs. 1–4) because different runs of the same program produce series
//! of *different lengths* — pointwise distances (Euclidean, Manhattan)
//! do not apply. DTW warps the time axes of both series to find the
//! alignment minimizing accumulated pointwise cost.
//!
//! [`distance`] is exact DTW, `O(n·m)` time with `O(min(n,m))` memory.
//! It keeps the classical convention of returning `f64::INFINITY` for a
//! half-empty pair (and propagates NaN from NaN inputs); [`try_distance`]
//! instead rejects degenerate inputs with a typed [`StatsError`], which
//! is what the pipeline uses so garbage series can never masquerade as
//! "infinitely far" measurements.

use crate::StatsError;

/// One DP row update, split into two passes so the hot part
/// autovectorizes.
///
/// Pass 1 has no loop-carried dependency: it computes the local cost
/// `|aᵢ − bⱼ|` and the best *vertical/diagonal* predecessor
/// `min(prev[j], prev[j-1]) + cost` for the whole row — four equal
/// length flat slices, branch-free `f64::min`, so LLVM turns it into
/// SIMD lanes. Pass 2 resolves the *horizontal* recurrence
/// `curr[j] = min(diag[j], cost[j] + curr[j-1])`, a short scalar chain
/// with one min and one add per cell.
///
/// This is bit-identical to the classical single-pass update
/// `cost + min(prev[j], curr[j-1], prev[j-1])`: `f64::min` here is
/// associative/commutative (DP values are never `-0.0` — costs are
/// `abs()` results and sums of non-negative values — and NaN is ignored
/// symmetrically), and `min(x, y) + c == min(x + c, y + c)` exactly
/// (IEEE addition is monotone and cannot map distinct finite operands
/// to differently-rounded sums when the same `c` is added).
///
/// The caller must have `curr[0]` and `prev[..=b.len()]` hold the
/// correct DP values (∞ outside the reachable region).
#[inline]
fn dtw_row(ai: f64, b: &[f64], prev: &[f64], curr: &mut [f64], cost: &mut [f64], diag: &mut [f64]) {
    let w = b.len();
    let pj = &prev[1..=w];
    let pj1 = &prev[..w];
    let cost = &mut cost[..w];
    let diag = &mut diag[..w];
    for k in 0..w {
        let c = (ai - b[k]).abs();
        cost[k] = c;
        diag[k] = pj[k].min(pj1[k]) + c;
    }
    let mut wave = curr[0];
    let cu = &mut curr[1..=w];
    for k in 0..w {
        wave = diag[k].min(cost[k] + wave);
        cu[k] = wave;
    }
}

/// Exact DTW distance with absolute-difference local cost.
///
/// Returns `f64::INFINITY` if exactly one input is empty, and `0.0` when
/// both are empty.
///
/// # Examples
///
/// ```
/// use cm_stats::dtw::distance;
///
/// // A time-shifted copy aligns perfectly.
/// let a = [0.0, 1.0, 2.0, 1.0, 0.0];
/// let b = [0.0, 0.0, 1.0, 2.0, 1.0, 0.0];
/// assert_eq!(distance(&a, &b), 0.0);
/// ```
pub fn distance(a: &[f64], b: &[f64]) -> f64 {
    match (a.is_empty(), b.is_empty()) {
        (true, true) => return 0.0,
        (true, false) | (false, true) => return f64::INFINITY,
        _ => {}
    }
    // Keep the shorter series in the inner dimension to minimize memory.
    let (outer, inner) = if a.len() >= b.len() { (a, b) } else { (b, a) };
    let m = inner.len();
    let mut prev = vec![f64::INFINITY; m + 1];
    let mut curr = vec![f64::INFINITY; m + 1];
    let mut cost = vec![0.0; m];
    let mut diag = vec![0.0; m];
    prev[0] = 0.0;
    for &x in outer {
        curr[0] = f64::INFINITY;
        dtw_row(x, inner, &prev, &mut curr, &mut cost, &mut diag);
        std::mem::swap(&mut prev, &mut curr);
    }
    prev[m]
}

/// Validates a DTW input pair for the `try_` entry points.
fn validate_pair(a: &[f64], b: &[f64]) -> Result<(), StatsError> {
    if a.is_empty() || b.is_empty() {
        return Err(StatsError::EmptyInput);
    }
    if a.iter().chain(b.iter()).any(|v| !v.is_finite()) {
        return Err(StatsError::InvalidParameter(
            "DTW input contains a non-finite sample",
        ));
    }
    Ok(())
}

/// [`distance`] with typed input validation: empty series and series
/// containing NaN or infinities are rejected instead of surfacing as an
/// infinite (or NaN) "distance" that silently poisons downstream
/// aggregates.
///
/// # Errors
///
/// Returns [`StatsError::EmptyInput`] when either series is empty and
/// [`StatsError::InvalidParameter`] when either contains a non-finite
/// sample.
///
/// # Examples
///
/// ```
/// use cm_stats::dtw::try_distance;
///
/// assert_eq!(try_distance(&[1.0, 2.0], &[1.0, 2.0])?, 0.0);
/// assert!(try_distance(&[], &[1.0]).is_err());
/// assert!(try_distance(&[f64::NAN], &[1.0]).is_err());
/// # Ok::<(), cm_stats::StatsError>(())
/// ```
pub fn try_distance(a: &[f64], b: &[f64]) -> Result<f64, StatsError> {
    validate_pair(a, b)?;
    Ok(distance(a, b))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_series_have_zero_distance() {
        let a = [1.0, 3.0, 2.0, 5.0];
        assert_eq!(distance(&a, &a), 0.0);
    }

    #[test]
    fn empty_handling() {
        assert_eq!(distance(&[], &[]), 0.0);
        assert_eq!(distance(&[1.0], &[]), f64::INFINITY);
    }

    #[test]
    fn warping_absorbs_time_stretch() {
        let a = [0.0, 1.0, 2.0, 3.0];
        let stretched = [0.0, 0.0, 1.0, 1.0, 2.0, 2.0, 3.0, 3.0];
        assert_eq!(distance(&a, &stretched), 0.0);
    }

    #[test]
    fn known_small_case() {
        // Classic hand-computable case.
        let a = [1.0, 2.0, 3.0];
        let b = [2.0, 2.0, 2.0, 3.0, 4.0];
        // Alignment: 1-2 (1), 2-2 (0), 2-2 (0), 3-3 (0), 3-4 (1) = 2.
        assert_eq!(distance(&a, &b), 2.0);
    }

    #[test]
    fn distance_is_symmetric() {
        let a = [1.0, 5.0, 2.0, 8.0, 3.0];
        let b = [2.0, 4.0, 4.0, 7.0];
        assert_eq!(distance(&a, &b), distance(&b, &a));
    }

    #[test]
    fn single_element_series() {
        assert_eq!(distance(&[3.0], &[5.0]), 2.0);
        assert_eq!(distance(&[3.0], &[5.0, 4.0]), 3.0);
    }

    /// Regression: degenerate inputs (empty or non-finite series) used to
    /// surface only as an infinite/NaN "distance". The `try_` entry
    /// point rejects them with a typed error.
    #[test]
    fn try_variants_reject_degenerate_inputs() {
        assert!(matches!(
            try_distance(&[], &[1.0]),
            Err(StatsError::EmptyInput)
        ));
        assert!(try_distance(&[f64::NAN, 1.0], &[1.0]).is_err());
        // Valid input passes through to the classical result.
        let a = [1.0, 2.0, 3.0];
        let b = [2.0, 2.0, 2.0, 3.0, 4.0];
        assert_eq!(try_distance(&a, &b).unwrap(), distance(&a, &b));
    }

    /// Reference implementation: full `(n+1)×(m+1)` matrix, classical
    /// single-pass update, no row recycling. The restructured two-pass
    /// kernel must reproduce it *bit for bit*.
    fn naive_dp(a: &[f64], b: &[f64]) -> f64 {
        let n = a.len();
        let m = b.len();
        let mut dp = vec![vec![f64::INFINITY; m + 1]; n + 1];
        dp[0][0] = 0.0;
        for i in 1..=n {
            for j in 1..=m {
                let cost = (a[i - 1] - b[j - 1]).abs();
                let best = dp[i - 1][j].min(dp[i][j - 1]).min(dp[i - 1][j - 1]);
                dp[i][j] = cost + best;
            }
        }
        dp[n][m]
    }

    #[test]
    fn restructured_kernel_matches_naive_dp_bit_exactly() {
        for (la, lb) in [
            (1usize, 1usize),
            (1, 7),
            (7, 1),
            (13, 17),
            (33, 32),
            (40, 25),
            (25, 40),
            (64, 64),
        ] {
            let a: Vec<f64> = (0..la)
                .map(|i| ((i * 37) % 19) as f64 * 0.5 - 3.25)
                .collect();
            let b: Vec<f64> = (0..lb)
                .map(|i| ((i * 53) % 23) as f64 * 0.25 - 1.5)
                .collect();
            assert_eq!(
                distance(&a, &b).to_bits(),
                naive_dp(&a, &b).to_bits(),
                "exact {la}x{lb}"
            );
        }
    }
}
