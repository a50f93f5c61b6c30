//! The CounterMiner streaming layer: chunked ingest plus incremental
//! analysis over a live [`cm_store::Store`].
//!
//! The batch pipeline answers "analyze this finished run". This crate
//! answers "keep the answer fresh while the run is still happening": a
//! [`StreamSession`] appends counter samples to the store in chunks
//! (through [`cm_store::Store::extend_series`] and the atomic-commit
//! path), cleans them *incrementally*, and re-ranks importance only
//! when new data could change the answer — warm-starting from the
//! previous result otherwise.
//!
//! # Block-incremental cleaning
//!
//! Every series is cleaned in independent fixed-width blocks of
//! [`StreamConfig::block`] intervals (`CM_STREAM_BLOCK` overrides the
//! default of 64). A block is *sealed* the moment it is complete:
//! sealed blocks are cleaned exactly once and never revisited, and only
//! the partial tail block is re-cleaned after an append (counted by the
//! `stream.reclean_rows` counter). Because block boundaries depend only
//! on position — never on how the data arrived — the cleaned series and
//! every ranking derived from it are **bit-identical for any append
//! partitioning**, at any thread count: streaming one interval at a
//! time produces exactly the bytes a cold one-shot run over the same
//! data produces. The `stream_oracle` integration test enforces this.
//!
//! # Warm-started analysis
//!
//! [`StreamSession::analysis`] trains only on sealed blocks. When an
//! append did not seal a new block, the previous result is returned
//! verbatim (`stream.warm_starts`); when it did, the model is retrained
//! deterministically from the sealed prefix. Continuing the boosting
//! run from the previous forest is deliberately *not* done — it would
//! make results depend on the append history and break the oracle
//! guarantee (see DESIGN §15).
//!
//! The retrain is [`StreamSession::sealed_prefix`], an owned
//! [`SealedPrefix`] that later appends never touch, then
//! [`SealedPrefix::analyze`], which may run on any thread: `cm-serve`
//! retrains that way beside a live stream.
//!
//! # Example: append, analyze, warm-start
//!
//! ```
//! use cm_sim::Benchmark;
//! use cm_stream::{StreamConfig, StreamSession};
//! use cm_store::Store;
//! use counterminer::{ImportanceConfig, MinerConfig};
//!
//! let dir = std::env::temp_dir().join(format!("cm_stream_doc_{}", std::process::id()));
//! std::fs::create_dir_all(&dir)?;
//! let path = dir.join("live.cmstore");
//! # let _ = std::fs::remove_file(&path);
//! let mut store = Store::open(&path)?;
//!
//! let config = StreamConfig {
//!     miner: MinerConfig {
//!         runs_per_benchmark: 1,
//!         events_to_measure: Some(10),
//!         ..MinerConfig::default()
//!     },
//!     block: 32,
//! };
//! let mut session = StreamSession::open(&mut store, Benchmark::Sort, config)?;
//!
//! // Stream the first 40 intervals in two chunks: 32 + 8.
//! session.append(&mut store, 32)?;
//! let report = session.append(&mut store, 8)?;
//! assert_eq!(report.total_rows, 40);
//! assert_eq!(report.sealed_rows, 32); // one complete block of 32
//!
//! // First analysis trains; a second call without new sealed data is a
//! // warm start returning the identical result.
//! let first = session.analysis()?.expect("a sealed block to train on");
//! let again = session.analysis()?.expect("still sealed");
//! assert!(std::sync::Arc::ptr_eq(&first, &again));
//! # std::fs::remove_file(&path)?;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! Subscriptions — being notified only when the top-K order or MAPM
//! materially changes — live one layer up in `cm-serve`, built on
//! [`RankSummary::materially_differs`].

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod error;
mod session;
mod summary;

pub use error::StreamError;
pub use session::{
    AppendReport, SealedPrefix, StreamAnalysis, StreamConfig, StreamSession, DEFAULT_BLOCK,
};
pub use summary::{RankSummary, ERROR_TOLERANCE};
