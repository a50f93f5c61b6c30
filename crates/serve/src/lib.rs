//! The CounterMiner serving layer: a long-running, concurrent analysis
//! service over one or more persistent [`cm_store`] files.
//!
//! The batch pipeline (`counterminer analyze`) answers one question per
//! process. This crate turns the same engine into a *service*: a
//! [`Server`] owns a set of `.cmstore` files plus one [`CounterMiner`]
//! configuration, and any number of [`Client`]s — one per simulated
//! connection, cheaply cloneable — submit [`Request`]s concurrently and
//! wait on [`Response`]s. Transport is an in-process channel behind the
//! [`Transport`] trait, so a socket server can slot in later without
//! touching the scheduling core.
//!
//! # Scheduling: one single-flight path
//!
//! The perf story is the scheduler (see [`ServeConfig::batching`]).
//! Requests are drained from the submission channel in batches and
//! grouped by what they would compute; each group runs *one*
//! computation and answers every waiter from it:
//!
//! * concurrent [`Request::Query`]s against the same store merge into a
//!   single [`Store::read_series_batch`] call — one pass of region
//!   coalescing, positioned reads, and parallel decode for the whole
//!   group instead of one small read per request. Observable as
//!   `serve.batch.coalesced`;
//! * concurrent [`Request::Analyze`] / [`Request::Ranked`] requests for
//!   the same `(store, benchmark)` — which share a snapshot fingerprint
//!   under the server's single miner configuration — are deduplicated:
//!   one leader computes the analysis, every waiter receives the same
//!   [`RankedAnalysis`] behind an [`Arc`](std::sync::Arc), and a
//!   `Ranked` waiter its top-k slice of it;
//! * identical concurrent [`Request::Cluster`] requests share one
//!   clustering and its report.
//!
//! Analyses and clusterings are also shared *across* batches, through
//! one bounded flight table keyed on the request's key plus the store's
//! [`Store::generation`], read under the same read lock as the snapshot:
//!
//! * a request whose key is already computing joins that flight when it
//!   is dispatched;
//! * a request whose key finished at the store's current generation is
//!   answered from the stored [`Arc`](std::sync::Arc) — the same
//!   allocation as every earlier answer — until any write to the store
//!   moves its generation on;
//! * errors and panics are never stored: every joined waiter gets the
//!   typed error, and the next request computes afresh.
//!
//! Recording a result drops the store's entries from older generations,
//! and a constant caps the table's size. Every request answered from
//! another request's computation — a rider in the same batch, a joiner
//! from a later one, or a hit on a finished entry — counts once in
//! `serve.dedup.hits`; [`ServerHandle::publish_gauges`] reports the
//! table as `serve.flight.in_flight` and `serve.flight.entries`.
//!
//! [`Request::Ping`], [`Request::Info`], [`Request::Ingest`],
//! [`Request::StreamAppend`], [`Request::Subscribe`] and
//! [`Request::Poll`] never group; they run one by one in arrival order.
//! With batching off, every request is a group of one on the same path
//! and nothing is shared.
//!
//! # Streams and subscriptions
//!
//! A [`Request::StreamAppend`] answers once its rows commit. When a
//! subscriber of the stream has not yet been checked against the sealed
//! rows — the append sealed a block, or the subscriber is new — the
//! append hands a snapshot of the sealed prefix to the server's one
//! trainer thread. The trainer retrains EIR on each prefix in the order
//! appends queued them, so a stream's notifications follow in seal
//! order, then queues a [`Notification`] for every subscriber whose
//! watched summary materially changed; [`Request::Poll`] drains them.
//! A retrain never holds a stream or store lock, so appends, polls and
//! reads never wait for one. A failed or panicking retrain notifies no
//! one and counts in `serve.retrain.errors`. `serve.retrains` counts
//! finished retrains and `serve.retrain.lag_ns` sums the time from each
//! sealing commit until its subscribers were checked;
//! [`ServeStats::retrains_pending`] reads zero once every sealing append
//! so far has been checked. Shutdown discards queued retrains, so these
//! counts depend on when it comes.
//!
//! A query's result never depends on its neighbours: if the group's
//! batched read fails (say, one names a series the store lacks), each
//! query is answered from its own read, exactly as unbatched.
//!
//! All stores share one [`BlockCache`](cm_store::BlockCache) (via
//! [`Store::open_with_cache`]), so hot blocks are cached once per
//! *server*, not once per store handle, and
//! [`ServerHandle::publish_gauges`] exposes per-shard occupancy and
//! hit/miss/eviction gauges.
//!
//! # Determinism and failure
//!
//! Response *payloads* are bit-identical to single-threaded execution:
//! batching and deduplication change when work happens, never what it
//! computes. A shared answer is one computed from the same store
//! generation, so it equals a direct
//! [`CounterMiner::analyze_snapshot`] of the snapshot the request reads. The batch-formation counters (`serve.batch.*`,
//! `serve.dedup.*`) depend on queue timing and are scheduling-scoped,
//! like `par.sched.*`; `serve.requests` / `serve.errors` are
//! workload-deterministic. Request failures — unknown store, store
//! corruption, a panicking handler — come back as typed
//! [`ServeError`]s on the submitting client; they never take down the
//! server or other in-flight requests. A handler that panics while it
//! writes a store poisons that store's lock; the next request to touch
//! the store reloads it from its last committed file
//! ([`Store::reload`]) before anything reads it, and a torn stream
//! session is dropped, to reopen from the committed stream.
//!
//! # Examples
//!
//! ```no_run
//! use cm_serve::{Request, Response, ServeConfig, Server};
//! use cm_sim::Benchmark;
//!
//! let mut server = Server::new(ServeConfig::default());
//! server.add_store("main", "perf.cmstore")?;
//! let handle = server.start();
//! let client = handle.client();
//! let pending = client.submit(Request::Analyze {
//!     store: "main".to_string(),
//!     benchmark: Benchmark::Sort,
//! });
//! match pending.wait()? {
//!     Response::Analysis(report) => println!("top event: {:?}", report.ranking[0]),
//!     other => panic!("unexpected response {other:?}"),
//! }
//! handle.shutdown();
//! # Ok::<(), cm_serve::ServeError>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod proto;
mod server;

pub use proto::{
    Notification, NotifyReason, RankedAnalysis, Request, Response, ServeError, SubscriptionId,
    Transport,
};
pub use server::{
    Client, Pending, ServeConfig, ServeStats, Server, ServerHandle, SubscriptionHandle,
};

// Re-exported so service users can build configurations without naming
// the pipeline crate directly.
pub use cm_store::{CacheConfig, Store};
pub use cm_stream::{AppendReport, RankSummary, StreamConfig};
pub use counterminer::{CounterMiner, MinerConfig};
