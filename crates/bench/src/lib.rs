//! Experiment harness for the CounterMiner reproduction.
//!
//! One module per table/figure of the paper's evaluation (Section V).
//! Every module exposes `run(&ExpConfig) -> …Result` returning a
//! structured result that implements `Display`, printing the same rows
//! or series the paper reports. [`experiments::REGISTRY`] names each
//! module by id; the `experiment <id>|all` binary runs one or all of
//! them, and `all` writes `EXPERIMENTS-results.txt`.
//!
//! Results never match the paper's absolute numbers (our substrate is a
//! simulator, not a Xeon cluster); the *shape* — who wins, by what
//! factor, where the knees fall — is what each experiment checks.
//! `EXPERIMENTS.md` records paper-vs-measured values.
//!
//! # Examples
//!
//! ```
//! use cm_bench::{ExpConfig, Scale};
//!
//! // Tests and smoke runs downscale every experiment the same way.
//! let config = ExpConfig {
//!     scale: Scale::Quick,
//!     ..ExpConfig::default()
//! };
//! assert_eq!(config.seed, 2018);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod experiments;
pub mod sampler;

pub use experiments::{ExpConfig, Scale};
