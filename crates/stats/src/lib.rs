//! Statistical substrate for CounterMiner.
//!
//! CounterMiner's pipeline leans on a handful of classical statistics
//! tools the paper takes from SciPy and scikit-learn; this crate
//! implements them from scratch:
//!
//! * descriptive statistics,
//! * continuous distributions — [`Normal`], [`Gev`], [`Gumbel`],
//!   [`Logistic`] — with density, CDF, quantile, sampling, and fitting,
//! * the [Anderson–Darling test](anderson) used to classify event value
//!   distributions (Section III-B),
//! * [ordinary least squares regression](regression) for the interaction
//!   ranker,
//! * [KNN regression](knn) for missing-value filling (k = 5 in the paper),
//! * [uncertainty-aware estimation](estimator) — Gaussian posteriors,
//!   deterministic resampling streams, and the ranking-stability score
//!   behind the `bayes` cleaning mode,
//! * [PCA](pca) as the related-work feature-extraction baseline
//!   (Section VI-A),
//! * [dynamic time warping](dtw) for comparing variable-length event
//!   series (Eqs. 1–3),
//! * [seeded k-medoids clustering](cluster) over counter signatures —
//!   Euclidean distances, silhouette scores, and the adjusted Rand
//!   index — behind the cross-benchmark `cluster` analysis mode.
//!
//! # Examples
//!
//! ```
//! use cm_stats::{dtw, Normal, Distribution};
//!
//! let a = [0.0, 1.0, 2.0, 3.0];
//! let b = [0.0, 0.0, 1.0, 2.0, 3.0]; // same shape, different length
//! assert!(dtw::distance(&a, &b) < 1e-12);
//!
//! let n = Normal::new(0.0, 1.0)?;
//! assert!((n.cdf(0.0) - 0.5).abs() < 1e-6);
//! # Ok::<(), cm_stats::StatsError>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod anderson;
pub mod cluster;
pub mod descriptive;
mod distribution;
pub mod dtw;
mod error;
pub mod estimator;
mod gev;
mod gumbel;
pub mod knn;
mod logistic;
mod normal;
pub mod pca;
pub mod regression;
pub mod special;

pub use distribution::Distribution;
pub use error::StatsError;
pub use gev::Gev;
pub use gumbel::Gumbel;
pub use logistic::Logistic;
pub use normal::Normal;
