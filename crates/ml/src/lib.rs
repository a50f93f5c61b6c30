//! Machine-learning substrate for CounterMiner: stochastic gradient
//! boosted regression trees (SGBRT) with Friedman feature importance.
//!
//! The paper (Section III-C) models `IPC = perf(e1, …, en)` with SGBRT
//! — an ensemble of shallow regression trees fit stagewise to residuals,
//! each on a random subsample of the training rows (Friedman 2002) — and
//! quantifies each event's importance from the squared improvements of
//! the splits that use it (Eqs. 10–11). scikit-learn provided this in the
//! paper; this crate implements it from scratch:
//!
//! * [`Dataset`] — row-major feature matrix + targets, with splitting
//!   and column selection,
//! * [`RegressionTree`] — CART with variance-reduction splits,
//! * [`Sgbrt`] — the boosted ensemble with subsampling and shrinkage,
//! * [`metrics`] — MSE and the paper's relative-error measure (Eq. 14).
//!
//! # Examples
//!
//! ```
//! use cm_ml::{Dataset, SgbrtConfig};
//!
//! // y = 3·x0 + noise-free, x1 is irrelevant.
//! let rows: Vec<Vec<f64>> = (0..60).map(|i| vec![i as f64, (i % 7) as f64]).collect();
//! let y: Vec<f64> = rows.iter().map(|r| 3.0 * r[0]).collect();
//! let data = Dataset::new(rows, y)?;
//!
//! let model = SgbrtConfig::default().with_seed(1).fit(&data)?;
//! let imp = model.feature_importances();
//! assert!(imp[0] > 90.0); // x0 carries (almost) all the importance
//! # Ok::<(), cm_ml::MlError>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod binning;
mod dataset;
mod error;
mod gbrt;
mod hist;
pub mod metrics;
mod tree;

pub use binning::{BinnedDataset, BinnedView, MAX_BINS};
pub use dataset::Dataset;
pub use error::MlError;
pub use gbrt::{cross_validate, FoldedForest, Sgbrt, SgbrtConfig, Trainer};
pub use tree::{RegressionTree, TreeConfig};
