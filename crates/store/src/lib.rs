//! Two-level performance-data store for CounterMiner.
//!
//! The paper stores collected counter time series in a DBMS (SQLite) with
//! a **two-level table organization** (Section III-A):
//!
//! * the *first-level* table holds, per program: the program name, the
//!   measured event names, the execution times of each run, and the names
//!   of the second-level tables;
//! * each *second-level* table holds the time series of every measured
//!   event for one run of one program.
//!
//! [`Store`] reproduces that organization in one binary file per store:
//!
//! * the *run table* maps each run (program, run index, mode) to its
//!   execution time, and [`Store::summary`] answers the first-level
//!   query per program (events, execution times, table names) from it
//!   and the series index, without decoding a chunk;
//! * each series is a column chunk — delta+varint encoded when
//!   integral, raw `f64` bits otherwise — keyed by run and event.
//!
//! The file has a versioned header, two superblock slots, CRC-32
//! checksums on every region, an append-only writer whose commits add
//! only new chunks and an index delta (compaction rewrites the file and
//! renames it into place), and a sharded LRU block cache
//! ([`CacheConfig`], `CM_STORE_CACHE`). This is what lets the pipeline
//! collect once and analyze many times — see `docs/STORAGE_FORMAT.md`
//! for the byte-level layout.
//!
//! Series lengths are allowed to differ between events and runs — the
//! property that motivates the paper's use of dynamic time warping.
//!
//! # Examples
//!
//! Whole runs, and the first-level summary they produce:
//!
//! ```
//! use cm_events::{EventId, RunRecord, SampleMode, TimeSeries};
//! use cm_store::{RunId, Store};
//!
//! let dir = std::env::temp_dir().join(format!("cm_lib_runs_{}", std::process::id()));
//! std::fs::create_dir_all(&dir)?;
//! let path = dir.join("runs.cmstore");
//! # let _ = std::fs::remove_file(&path);
//!
//! let mut store = Store::open(&path)?;
//! let mut run = RunRecord::new("wordcount", 0, SampleMode::Ocoe);
//! run.set_exec_time_secs(12.5);
//! run.insert_series(EventId::new(3), TimeSeries::from_values(vec![1.0, 2.0]));
//! store.append_run(&run)?;
//! store.commit()?;
//!
//! let reopened = Store::open(&path)?;
//! let summary = reopened.summary("wordcount").unwrap();
//! assert_eq!(summary.exec_times_secs, vec![12.5]);
//! let fetched = reopened.read_run(&RunId::new("wordcount", 0, SampleMode::Ocoe))?;
//! assert_eq!(fetched.event_count(), 1);
//! # std::fs::remove_file(&path)?;
//! # Ok::<(), cm_store::StoreError>(())
//! ```
//!
//! Single series:
//!
//! ```
//! use cm_events::{EventId, SampleMode};
//! use cm_store::{SeriesKey, Store};
//!
//! let dir = std::env::temp_dir().join(format!("cm_lib_doc_{}", std::process::id()));
//! std::fs::create_dir_all(&dir)?;
//! let path = dir.join("lib.cmstore");
//! # let _ = std::fs::remove_file(&path);
//!
//! let mut store = Store::open(&path)?;
//! let key = SeriesKey::new("wordcount", 0, SampleMode::Mlpx, EventId::new(3));
//! store.append_series(key.clone(), &[880.0, 912.0, 905.0])?;
//! store.commit()?; // durable: append chunks + index, fsync, flip a slot, fsync
//!
//! assert_eq!(*store.read_series(&key)?, vec![880.0, 912.0, 905.0]);
//! # std::fs::remove_file(&path)?;
//! # Ok::<(), cm_store::StoreError>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod cache;
mod codec;
mod columnar;
mod error;
mod format;
mod query;
mod vfs;

pub use cache::{BlockCache, CacheConfig, CacheStats};
pub use codec::Encoding;
pub use columnar::{
    RunId, SeriesKey, Store, StoreInfo, MAX_CHUNK_CHAIN, MAX_DEAD_PER_LIVE, MAX_DELTA_CHAIN,
};
pub use error::StoreError;
pub use query::{ExecTimeStats, ProgramSummary};
pub use vfs::{RealFs, Vfs, VfsFile};
