//! The paper's error measures.
//!
//! *MLPX measurement error* (Section II-B, Eqs. 1–4): because two runs of
//! the same program produce series of different lengths, the error of a
//! multiplexed series is defined through dynamic time warping against
//! golden OCOE references:
//!
//! ```text
//! dist_ref = DTW(S_ocoe1, S_ocoe2)          (run-to-run baseline)
//! dist_mea = DTW(S_mlpx,  S_ocoe1)          (measured distance)
//! error    = |1 - dist_ref / dist_mea| × 100 %
//! ```
//!
//! *Model error* (Eq. 14) is re-exported from [`cm_ml::metrics`].

use crate::CmError;
use cm_events::TimeSeries;
use cm_stats::dtw;

pub use cm_ml::metrics::relative_error as model_error;

/// MLPX measurement error of one event series (Eq. 4), in percent.
///
/// `ocoe1` and `ocoe2` are the same event measured in two independent
/// OCOE runs; `mlpx` is the multiplexed measurement of a third run.
///
/// # Errors
///
/// Returns [`CmError::Invalid`] when any series is empty or the measured
/// DTW distance is zero (which would make the ratio undefined).
///
/// # Examples
///
/// ```
/// use cm_events::TimeSeries;
/// use counterminer::error_metrics::mlpx_error;
///
/// let ocoe1 = TimeSeries::from_values(vec![10.0, 12.0, 11.0, 10.0]);
/// let ocoe2 = TimeSeries::from_values(vec![10.0, 11.5, 11.0, 10.5, 10.0]);
/// let mlpx = TimeSeries::from_values(vec![10.0, 30.0, 11.0, 0.0]);
/// let err = mlpx_error(&ocoe1, &ocoe2, &mlpx)?;
/// assert!(err > 10.0, "a dirty series has a large error ({err}%)");
/// # Ok::<(), counterminer::CmError>(())
/// ```
pub fn mlpx_error(
    ocoe1: &TimeSeries,
    ocoe2: &TimeSeries,
    mlpx: &TimeSeries,
) -> Result<f64, CmError> {
    if ocoe1.is_empty() || ocoe2.is_empty() || mlpx.is_empty() {
        return Err(CmError::Invalid("error metric requires non-empty series"));
    }
    // The `try_` variants reject non-finite samples with a typed error —
    // a NaN-poisoned series must never read as an error percentage.
    let dist_ref = dtw::try_distance(ocoe1.values(), ocoe2.values()).map_err(CmError::Stats)?;
    let dist_mea = dtw::try_distance(mlpx.values(), ocoe1.values()).map_err(CmError::Stats)?;
    if dist_mea == 0.0 {
        // A perfect measurement: define the error as zero rather than
        // dividing by zero.
        return Ok(0.0);
    }
    Ok((1.0 - dist_ref / dist_mea).abs() * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(v: &[f64]) -> TimeSeries {
        TimeSeries::from_values(v.to_vec())
    }

    #[test]
    fn perfect_mlpx_has_zero_error() {
        let ocoe1 = ts(&[1.0, 2.0, 3.0]);
        let ocoe2 = ts(&[1.0, 2.0, 3.0]);
        let mlpx = ts(&[1.0, 2.0, 3.0]);
        assert_eq!(mlpx_error(&ocoe1, &ocoe2, &mlpx).unwrap(), 0.0);
    }

    #[test]
    fn error_grows_with_distortion() {
        let ocoe1 = ts(&[10.0, 12.0, 11.0, 10.0, 12.0, 11.0]);
        let ocoe2 = ts(&[10.5, 11.5, 11.0, 10.0, 12.5, 11.0]);
        let mild = ts(&[10.0, 13.0, 11.0, 10.0, 12.0, 11.0]);
        let wild = ts(&[10.0, 40.0, 0.0, 10.0, 50.0, 11.0]);
        let e_mild = mlpx_error(&ocoe1, &ocoe2, &mild).unwrap();
        let e_wild = mlpx_error(&ocoe1, &ocoe2, &wild).unwrap();
        assert!(e_wild > e_mild);
    }

    #[test]
    fn handles_unequal_lengths() {
        let ocoe1 = ts(&[1.0, 2.0, 3.0, 4.0]);
        let ocoe2 = ts(&[1.0, 1.5, 2.0, 3.0, 4.0, 4.0]);
        let mlpx = ts(&[1.0, 3.0, 4.0]);
        assert!(mlpx_error(&ocoe1, &ocoe2, &mlpx).is_ok());
    }

    #[test]
    fn empty_series_rejected() {
        let good = ts(&[1.0]);
        let empty = TimeSeries::new();
        assert!(mlpx_error(&empty, &good, &good).is_err());
        assert!(mlpx_error(&good, &empty, &good).is_err());
        assert!(mlpx_error(&good, &good, &empty).is_err());
    }
}
