//! The server: submission channel, batching scheduler, worker pool.

use crate::proto::{
    Notification, NotifyReason, RankedAnalysis, Request, Response, ServeError, SubscriptionId,
    Transport,
};
use cm_obs::{span_enter_detached, span_enter_under, SpanGuard, SpanHandle};
use cm_sim::Benchmark;
use cm_store::{BlockCache, CacheConfig, CacheStats, SeriesKey, Store, StoreError, Vfs};
use cm_stream::{RankSummary, StreamConfig, StreamError, StreamSession};
use counterminer::{ClusterReport, CmError, CounterMiner, MinerConfig};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How the server schedules and executes requests.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads executing request batches; `0` means one per
    /// available CPU.
    pub workers: usize,
    /// Most requests drained into one scheduling batch.
    pub max_batch: usize,
    /// Whether to coalesce queries and share analyses and clusterings,
    /// within a batch and across batches until the store changes.
    /// `false` executes every request individually, as a group of one
    /// that shares nothing — the baseline the load harness compares
    /// against.
    pub batching: bool,
    /// How long the scheduler waits after the first request of a batch
    /// for more to arrive. Zero (the default) only drains what is
    /// already queued — lowest latency; a small linger trades latency
    /// for larger batches under open-loop load.
    pub linger: Duration,
    /// The pipeline configuration shared by every analysis this server
    /// performs. One configuration per server is what makes identical
    /// requests share a snapshot fingerprint.
    pub miner: MinerConfig,
    /// The shared block cache all registered stores draw from.
    pub cache: CacheConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 0,
            max_batch: 64,
            batching: true,
            linger: Duration::ZERO,
            miner: MinerConfig::default(),
            cache: CacheConfig::default(),
        }
    }
}

/// A submitted request travelling to the scheduler.
#[derive(Debug)]
struct ReqEnvelope {
    req: Request,
    reply: Sender<Result<Response, ServeError>>,
    /// The client-side request span; worker execution spans attach
    /// under it so the span tree reads request → exec even though they
    /// run on different threads.
    parent: SpanHandle,
}

enum Envelope {
    Req(ReqEnvelope),
    Shutdown,
}

/// Atomic mirror of the `serve.*` counters, readable without enabling
/// observability.
#[derive(Debug, Default)]
struct StatsInner {
    requests: AtomicU64,
    errors: AtomicU64,
    batch_flushes: AtomicU64,
    batch_coalesced: AtomicU64,
    dedup_hits: AtomicU64,
}

/// A point-in-time copy of the server's request counters (see
/// [`ServerHandle::stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServeStats {
    /// Requests dispatched (every request counts exactly once).
    pub requests: u64,
    /// Requests answered with a [`ServeError`].
    pub errors: u64,
    /// Scheduling batches flushed to the worker pool.
    pub batch_flushes: u64,
    /// Query requests that rode along in a batched store read instead
    /// of issuing their own (`group size - 1`, summed).
    pub batch_coalesced: u64,
    /// Analyze/ranked/cluster requests answered from another request's
    /// computation, each counted once: riders in the leader's batch,
    /// requests from later batches that joined it while it ran, and
    /// requests answered from a finished computation at the store's
    /// current generation.
    pub dedup_hits: u64,
}

/// One subscriber's change-detection state: comparisons run against the
/// last summary it was *notified* with, so a slow drift still notifies
/// once it accumulates past the tolerance.
#[derive(Debug)]
struct Subscription {
    store: String,
    benchmark: Benchmark,
    top_k: usize,
    last: Option<RankSummary>,
    queue: Vec<Notification>,
    next_seq: u64,
}

/// The subscription table; ids are never reused.
#[derive(Debug, Default)]
struct SubRegistry {
    next_id: u64,
    subs: HashMap<SubscriptionId, Subscription>,
}

/// State shared by the scheduler and every worker.
#[derive(Debug)]
struct Shared {
    stores: HashMap<String, Arc<RwLock<Store>>>,
    miner: CounterMiner,
    cache: Arc<BlockCache>,
    stats: StatsInner,
    /// Configuration every server-side stream session opens with.
    stream: StreamConfig,
    /// Live stream sessions, one per `(store, benchmark)`. The mutex
    /// serializes appends to a stream; a session that fails is dropped
    /// so the next append reopens from the last committed snapshot.
    streams: Mutex<HashMap<(String, Benchmark), StreamSession>>,
    subs: Mutex<SubRegistry>,
    /// Analyses and clusterings shared across batches.
    flights: Mutex<FlightTable>,
}

impl Shared {
    fn store(&self, name: &str) -> Result<&Arc<RwLock<Store>>, ServeError> {
        self.stores
            .get(name)
            .ok_or_else(|| ServeError::UnknownStore(name.to_string()))
    }

    fn count_dedup(&self, hits: u64) {
        count(&self.stats.dedup_hits, "serve.dedup.hits", hits);
    }

    /// Runs `compute`, the flight of `key` over `store` (held under its
    /// read lock), unless the table holds that flight's answer at the
    /// store's generation. A computed answer is recorded under the same
    /// read lock, so no write can slip between the snapshot and the
    /// generation it is stored at. Returns the answer with the requests
    /// that joined the flight. A flight `id` of `None` shares nothing.
    fn share(
        &self,
        key: &FlightKey,
        id: Option<u64>,
        store: &Store,
        compute: impl FnOnce() -> Result<Option<Flight>, CmError>,
    ) -> Result<Option<(Flight, Vec<ReqEnvelope>)>, CmError> {
        let Some(id) = id else {
            return Ok(compute()?.map(|flight| (flight, Vec::new())));
        };
        let generation = store.generation();
        let mut table = lock(&self.flights);
        if let Some(flight) = table.done(key, generation) {
            let joined = table.finish(id, None);
            drop(table);
            self.count_dedup(1);
            return Ok(Some((flight, joined)));
        }
        drop(table);
        let Some(flight) = compute()? else {
            return Ok(None);
        };
        let joined = lock(&self.flights).finish(id, Some((generation, flight.clone())));
        Ok(Some((flight, joined)))
    }
}

/// Adds `n` to a `serve.*` counter and its [`ServeStats`] mirror.
fn count(stat: &AtomicU64, name: &str, n: u64) {
    if n > 0 {
        stat.fetch_add(n, Ordering::Relaxed);
        cm_obs::counter_add(name, n);
    }
}

/// Locks a mutex whose data stays consistent even if a holder panicked.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Write access to a registered store. A panic partway through an
/// earlier write poisons the lock and may have left the store
/// half-mutated, so a poisoned store is first reloaded from its last
/// committed file (a new generation) and the poison cleared. A failed
/// reload leaves the lock poisoned, so the next access tries again.
fn write_store(lock: &RwLock<Store>) -> Result<RwLockWriteGuard<'_, Store>, ServeError> {
    match lock.write() {
        Ok(guard) => Ok(guard),
        Err(poisoned) => {
            let mut guard = poisoned.into_inner();
            guard.reload().map_err(store_err)?;
            lock.clear_poison();
            Ok(guard)
        }
    }
}

/// Read access to a registered store, recovering a poisoned one as
/// [`write_store`] does.
fn read_store(lock: &RwLock<Store>) -> Result<RwLockReadGuard<'_, Store>, ServeError> {
    let poisoned = match lock.read() {
        Ok(guard) => return Ok(guard),
        Err(poisoned) => poisoned,
    };
    drop(poisoned);
    drop(write_store(lock)?);
    lock.read()
        .map_err(|_| ServeError::Pipeline("store lock poisoned again during recovery".to_string()))
}

fn store_err(e: StoreError) -> ServeError {
    ServeError::Store(e.to_string())
}

fn stream_err(e: StreamError) -> ServeError {
    match e {
        StreamError::Store(s) => ServeError::Store(s.to_string()),
        other => ServeError::Stream(other.to_string()),
    }
}

fn cm_err(e: CmError) -> ServeError {
    match e {
        CmError::Store(s) => ServeError::Store(s.to_string()),
        other => ServeError::Pipeline(other.to_string()),
    }
}

/// A configured-but-not-yet-running server. Stores are registered
/// here; [`Server::start`] moves everything onto the scheduler thread
/// and returns the [`ServerHandle`].
///
/// Clients may be created (and may submit) *before* `start` — requests
/// queue in the channel and are drained into the first scheduling
/// batch. Tests use this to make batch formation deterministic.
#[derive(Debug)]
pub struct Server {
    config: ServeConfig,
    cache: Arc<BlockCache>,
    stores: HashMap<String, Arc<RwLock<Store>>>,
    tx: Sender<Envelope>,
    rx: Receiver<Envelope>,
}

impl Server {
    /// Creates a server with no stores registered.
    pub fn new(config: ServeConfig) -> Self {
        let cache = Arc::new(BlockCache::new(config.cache));
        let (tx, rx) = mpsc::channel();
        Server {
            config,
            cache,
            stores: HashMap::new(),
            tx,
            rx,
        }
    }

    /// The scheduling configuration this server was built with.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Opens the store at `path` against the server's shared block
    /// cache and registers it under `name`. Re-registering a name
    /// replaces the previous store.
    ///
    /// # Errors
    ///
    /// Any [`StoreError`] from opening, as [`ServeError::Store`].
    pub fn add_store(
        &mut self,
        name: impl Into<String>,
        path: impl AsRef<Path>,
    ) -> Result<(), ServeError> {
        let store = Store::open_with_cache(path, Arc::clone(&self.cache)).map_err(store_err)?;
        self.stores
            .insert(name.into(), Arc::new(RwLock::new(store)));
        Ok(())
    }

    /// Like [`Server::add_store`], with filesystem operations routed
    /// through `vfs` — how the chaos suite serves from a faulty disk.
    ///
    /// # Errors
    ///
    /// As for [`Server::add_store`].
    pub fn add_store_with_vfs(
        &mut self,
        name: impl Into<String>,
        path: impl AsRef<Path>,
        vfs: Arc<dyn Vfs>,
    ) -> Result<(), ServeError> {
        let store = Store::open_shared(path, Arc::clone(&self.cache), vfs).map_err(store_err)?;
        self.stores
            .insert(name.into(), Arc::new(RwLock::new(store)));
        Ok(())
    }

    /// A client bound to this server. Valid before and after
    /// [`Server::start`].
    pub fn client(&self) -> Client {
        Client {
            tx: self.tx.clone(),
        }
    }

    /// Starts the scheduler and worker pool, consuming the server.
    pub fn start(self) -> ServerHandle {
        let Server {
            config,
            cache,
            stores,
            tx,
            rx,
        } = self;
        let shared = Arc::new(Shared {
            stores,
            miner: CounterMiner::new(config.miner),
            cache,
            stats: StatsInner::default(),
            stream: StreamConfig::from_env(config.miner),
            streams: Mutex::new(HashMap::new()),
            subs: Mutex::new(SubRegistry::default()),
            flights: Mutex::new(FlightTable::default()),
        });
        let workers = if config.workers == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            config.workers
        };
        let scheduler = {
            let shared = Arc::clone(&shared);
            let sched = Scheduler {
                shared,
                max_batch: config.max_batch.max(1),
                batching: config.batching,
                linger: config.linger,
                workers,
            };
            std::thread::Builder::new()
                .name("cm-serve-sched".to_string())
                .spawn(move || sched.run(rx))
                .expect("spawn scheduler thread")
        };
        ServerHandle {
            tx,
            scheduler: Some(scheduler),
            shared,
        }
    }
}

/// A running server. Dropping the handle shuts the server down (any
/// still-queued requests answer [`ServeError::Closed`]).
#[derive(Debug)]
pub struct ServerHandle {
    tx: Sender<Envelope>,
    scheduler: Option<JoinHandle<()>>,
    shared: Arc<Shared>,
}

impl ServerHandle {
    /// A new client of this server. Clients are cheap (`Clone` of a
    /// channel sender) and safe to move across threads.
    pub fn client(&self) -> Client {
        Client {
            tx: self.tx.clone(),
        }
    }

    /// A snapshot of the request counters.
    pub fn stats(&self) -> ServeStats {
        let s = &self.shared.stats;
        ServeStats {
            requests: s.requests.load(Ordering::Relaxed),
            errors: s.errors.load(Ordering::Relaxed),
            batch_flushes: s.batch_flushes.load(Ordering::Relaxed),
            batch_coalesced: s.batch_coalesced.load(Ordering::Relaxed),
            dedup_hits: s.dedup_hits.load(Ordering::Relaxed),
        }
    }

    /// Aggregate statistics of the shared block cache.
    pub fn cache_stats(&self) -> CacheStats {
        self.shared.cache.stats()
    }

    /// Publishes the flight table's size (`serve.flight.in_flight`
    /// running analyses and clusterings, `serve.flight.entries` running
    /// and finished ones) and the shared cache's per-shard occupancy and
    /// activity as `serve.cache.shard.*` gauges — the load harness's
    /// stats sampler calls this periodically. Free when observability
    /// is off.
    pub fn publish_gauges(&self) {
        if !cm_obs::enabled() {
            return;
        }
        let (in_flight, entries) = lock(&self.shared.flights).sizes();
        cm_obs::gauge_set("serve.flight.in_flight", in_flight as f64);
        cm_obs::gauge_set("serve.flight.entries", entries as f64);
        for (i, shard) in self.shared.cache.shard_stats().iter().enumerate() {
            cm_obs::gauge_set(
                &format!("serve.cache.shard.{i}.entries"),
                shard.entries as f64,
            );
            cm_obs::gauge_set(&format!("serve.cache.shard.{i}.bytes"), shard.bytes as f64);
            cm_obs::gauge_set(&format!("serve.cache.shard.{i}.hits"), shard.hits as f64);
            cm_obs::gauge_set(
                &format!("serve.cache.shard.{i}.misses"),
                shard.misses as f64,
            );
            cm_obs::gauge_set(
                &format!("serve.cache.shard.{i}.evictions"),
                shard.evictions as f64,
            );
        }
    }

    /// Stops accepting requests, finishes the in-flight batch, joins
    /// the scheduler and workers, and returns the final counters.
    pub fn shutdown(mut self) -> ServeStats {
        self.stop();
        self.stats()
    }

    fn stop(&mut self) {
        if let Some(handle) = self.scheduler.take() {
            let _ = self.tx.send(Envelope::Shutdown);
            let _ = handle.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

/// A connection to a server: submit requests, await responses.
#[derive(Debug, Clone)]
pub struct Client {
    tx: Sender<Envelope>,
}

impl Client {
    /// Submits `req` without waiting; the returned [`Pending`] is the
    /// other half. A client can hold any number of requests in flight.
    pub fn submit(&self, req: Request) -> Pending {
        let span = span_enter_detached("serve.request".to_string());
        let (reply_tx, reply_rx) = mpsc::channel();
        let env = ReqEnvelope {
            req,
            reply: reply_tx,
            parent: span.handle(),
        };
        let sent = self.tx.send(Envelope::Req(env)).is_ok();
        Pending {
            rx: reply_rx,
            _span: span,
            sent,
        }
    }

    /// Submit-and-wait: the synchronous call shape.
    ///
    /// # Errors
    ///
    /// The request's [`ServeError`].
    pub fn call(&self, req: Request) -> Result<Response, ServeError> {
        self.submit(req).wait()
    }

    /// Subscribes to ranking changes of a benchmark stream and returns
    /// a handle that polls for notifications (the transport is
    /// request/response, so "push" is a poll the handle does for you).
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownStore`] for an unregistered store, plus the
    /// usual transport errors.
    pub fn subscribe(
        &self,
        store: impl Into<String>,
        benchmark: Benchmark,
        top_k: usize,
    ) -> Result<SubscriptionHandle, ServeError> {
        match self.call(Request::Subscribe {
            store: store.into(),
            benchmark,
            top_k,
        })? {
            Response::Subscribed(id) => Ok(SubscriptionHandle {
                client: self.clone(),
                id,
                after: 0,
            }),
            other => Err(ServeError::Pipeline(format!(
                "unexpected response to subscribe: {other:?}"
            ))),
        }
    }
}

/// A live subscription: drains ranking-change notifications for one
/// `(store, benchmark)` stream. Obtained from [`Client::subscribe`].
///
/// The handle tracks the last sequence number it returned, so each
/// [`SubscriptionHandle::poll`] yields every notification exactly once.
#[derive(Debug)]
pub struct SubscriptionHandle {
    client: Client,
    id: SubscriptionId,
    after: u64,
}

impl SubscriptionHandle {
    /// The server-side subscription id.
    pub fn id(&self) -> SubscriptionId {
        self.id
    }

    /// Drains notifications queued since the last poll, oldest first.
    /// Non-blocking on the server: an empty vec means "nothing new".
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownSubscription`] if the id is gone, plus the
    /// usual transport errors.
    pub fn poll(&mut self) -> Result<Vec<Notification>, ServeError> {
        match self.client.call(Request::Poll {
            id: self.id,
            after: self.after,
        })? {
            Response::Notify(list) => {
                if let Some(last) = list.last() {
                    self.after = last.seq;
                }
                Ok(list)
            }
            other => Err(ServeError::Pipeline(format!(
                "unexpected response to poll: {other:?}"
            ))),
        }
    }

    /// Polls until at least one notification arrives or `timeout`
    /// elapses (returning the empty vec in that case).
    ///
    /// # Errors
    ///
    /// As for [`SubscriptionHandle::poll`].
    pub fn wait_next(&mut self, timeout: Duration) -> Result<Vec<Notification>, ServeError> {
        let deadline = Instant::now() + timeout;
        loop {
            let list = self.poll()?;
            if !list.is_empty() || Instant::now() >= deadline {
                return Ok(list);
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

impl Transport for Client {
    fn send(&self, req: Request) -> Result<Response, ServeError> {
        self.call(req)
    }
}

/// An in-flight request. Dropping it abandons the response (the server
/// still executes the work). The held request span records the full
/// submit-to-response wall time when the `Pending` drops.
#[derive(Debug)]
pub struct Pending {
    rx: Receiver<Result<Response, ServeError>>,
    _span: SpanGuard,
    sent: bool,
}

impl Pending {
    /// Blocks until the response arrives.
    ///
    /// # Errors
    ///
    /// The request's [`ServeError`]; [`ServeError::Closed`] if the
    /// server shut down without answering.
    pub fn wait(self) -> Result<Response, ServeError> {
        if !self.sent {
            return Err(ServeError::Closed);
        }
        self.rx.recv().unwrap_or(Err(ServeError::Closed))
    }
}

/// What the requests of one single-flight group share. Requests with
/// equal keys in one drained batch are answered by one computation;
/// analysis and cluster keys are also shared across batches through the
/// [`FlightTable`].
#[derive(Debug, Clone, PartialEq)]
enum FlightKey {
    /// Queries against one store, answered by one batched read.
    Query { store: String },
    /// Analyze/ranked requests sharing `(store, benchmark)`, answered
    /// by one analysis.
    Analysis { store: String, benchmark: Benchmark },
    /// Identical cluster requests, answered by one clustering. The key
    /// is the request itself: cluster configs hold floats, so equality
    /// stands in for a hash — batches and the flight table are small. A
    /// NaN in the config makes a key unequal even to itself, so such a
    /// request never shares.
    Cluster(Request),
}

/// What one flight computed, shared by every waiter of the group.
#[derive(Debug, Clone)]
enum Flight {
    /// One result per query, in group order: a missing series fails
    /// only the query that named it.
    Series(Vec<Result<Arc<Vec<f64>>, ServeError>>),
    Analysis(Arc<RankedAnalysis>),
    Cluster(Arc<ClusterReport>),
}

impl FlightKey {
    /// The group `req` joins, or `None` for the kinds that always run
    /// on their own.
    fn of(req: &Request) -> Option<FlightKey> {
        match req {
            Request::Query { store, .. } => Some(FlightKey::Query {
                store: store.clone(),
            }),
            Request::Analyze { store, benchmark }
            | Request::Ranked {
                store, benchmark, ..
            } => Some(FlightKey::Analysis {
                store: store.clone(),
                benchmark: *benchmark,
            }),
            Request::Cluster { .. } => Some(FlightKey::Cluster(req.clone())),
            Request::Ping
            | Request::Info { .. }
            | Request::Ingest { .. }
            | Request::StreamAppend { .. }
            | Request::Subscribe { .. }
            | Request::Poll { .. } => None,
        }
    }

    /// The order groups are handed to the pool within one batch:
    /// cheap queries first, then analyses, then clusterings.
    fn rank(&self) -> u8 {
        match self {
            FlightKey::Query { .. } => 0,
            FlightKey::Analysis { .. } => 1,
            FlightKey::Cluster(_) => 2,
        }
    }

    /// The store the flight reads.
    fn store(&self) -> &str {
        match self {
            FlightKey::Query { store } | FlightKey::Analysis { store, .. } => store,
            FlightKey::Cluster(Request::Cluster { store, .. }) => store,
            FlightKey::Cluster(_) => unreachable!("cluster key holds a cluster request"),
        }
    }

    fn span_name(&self) -> &'static str {
        match self {
            FlightKey::Query { .. } => "serve.exec.query_batch",
            FlightKey::Analysis { .. } => "serve.exec.analyze",
            FlightKey::Cluster(_) => "serve.exec.cluster",
        }
    }

    /// Runs the group's one computation for its waiting `envs`, or
    /// takes it from the flight table (entry `id`, see
    /// [`Shared::share`]). Returns it with the requests that joined the
    /// flight from later batches.
    fn compute(
        &self,
        shared: &Shared,
        id: Option<u64>,
        envs: &[ReqEnvelope],
    ) -> Result<(Flight, Vec<ReqEnvelope>), ServeError> {
        match self {
            FlightKey::Query { store } => {
                let keys: Vec<SeriesKey> = envs
                    .iter()
                    .map(|env| match &env.req {
                        Request::Query { key, .. } => key.clone(),
                        _ => unreachable!("query group holds only queries"),
                    })
                    .collect();
                let guard = read_store(shared.store(store)?)?;
                // One failing key fails the whole batched read; then
                // each query is answered from its own read, so its
                // result never depends on its neighbours in the group.
                let series = match guard.read_series_batch(&keys) {
                    Ok(series) => series.into_iter().map(Ok).collect(),
                    Err(_) => keys
                        .iter()
                        .map(|key| guard.read_series(key).map_err(store_err))
                        .collect(),
                };
                Ok((Flight::Series(series), Vec::new()))
            }
            FlightKey::Analysis { store, benchmark } => {
                let fingerprint = shared.miner.snapshot_fingerprint(*benchmark);
                warm_or_ingest(shared, store, &[*benchmark], |guard| {
                    shared.share(self, id, guard, || {
                        let report = shared.miner.analyze_snapshot(*benchmark, guard)?;
                        Ok(report.map(|r| {
                            Flight::Analysis(Arc::new(RankedAnalysis::from_report(&r, fingerprint)))
                        }))
                    })
                })
            }
            FlightKey::Cluster(req) => {
                let Request::Cluster {
                    store,
                    benchmarks,
                    config,
                } = req
                else {
                    unreachable!("cluster key holds a cluster request");
                };
                warm_or_ingest(shared, store, benchmarks, |guard| {
                    shared.share(self, id, guard, || {
                        let report = shared.miner.cluster_snapshot(benchmarks, guard, config)?;
                        Ok(report.map(|r| Flight::Cluster(Arc::new(r))))
                    })
                })
            }
        }
    }
}

impl Flight {
    /// The response for the `i`-th waiter of the group, which sent `req`
    /// (queries never join across batches, so `i` indexes the batch).
    fn answer(&self, i: usize, req: &Request) -> Result<Response, ServeError> {
        match (self, req) {
            (Flight::Series(series), _) => series[i].clone().map(Response::Series),
            (Flight::Analysis(analysis), Request::Ranked { top_k, .. }) => {
                let k = (*top_k).min(analysis.ranking.len());
                Ok(Response::Ranked(analysis.ranking[..k].to_vec()))
            }
            (Flight::Analysis(analysis), _) => Ok(Response::Analysis(Arc::clone(analysis))),
            (Flight::Cluster(report), _) => Ok(Response::Clustered(Arc::clone(report))),
        }
    }
}

/// Most entries the [`FlightTable`] holds, running and finished
/// together. At the cap a new flight evicts the oldest finished entry,
/// or, when every entry is still running, runs untracked: it shares
/// within its batch only.
const FLIGHT_TABLE_CAP: usize = 256;

/// Analyses and clusterings shared across batches. A *running* entry
/// collects the requests that join it at dispatch; a *finished* one
/// answers its key for as long as the key's store stays at the
/// generation the answer was computed at ([`Store::generation`]).
/// Recording a finished entry drops the store's entries from older
/// generations; errors and panics are never recorded. Entries are found
/// by key equality at dispatch and by id when their flight ends, since
/// a key holding a NaN never equals itself.
#[derive(Debug, Default)]
struct FlightTable {
    next_id: u64,
    /// Oldest first.
    entries: Vec<FlightEntry>,
}

#[derive(Debug)]
struct FlightEntry {
    id: u64,
    key: FlightKey,
    state: EntryState,
}

#[derive(Debug)]
enum EntryState {
    /// Computing; holds the requests that joined after the leader's
    /// batch.
    Running(Vec<ReqEnvelope>),
    /// Computed from the key's store at `generation`.
    Done { generation: u64, flight: Flight },
}

impl FlightTable {
    /// The waiters of the running flight of `key`, if one runs.
    fn running(&mut self, key: &FlightKey) -> Option<&mut Vec<ReqEnvelope>> {
        self.entries.iter_mut().find_map(|e| match &mut e.state {
            EntryState::Running(waiters) if e.key == *key => Some(waiters),
            _ => None,
        })
    }

    /// Opens a running entry for `key` and returns its id, or `None`
    /// when every one of the [`FLIGHT_TABLE_CAP`] entries is running.
    fn open(&mut self, key: FlightKey) -> Option<u64> {
        if self.entries.len() >= FLIGHT_TABLE_CAP {
            let oldest = self
                .entries
                .iter()
                .position(|e| matches!(e.state, EntryState::Done { .. }))?;
            self.entries.remove(oldest);
        }
        self.next_id += 1;
        self.entries.push(FlightEntry {
            id: self.next_id,
            key,
            state: EntryState::Running(Vec::new()),
        });
        Some(self.next_id)
    }

    /// The answer to `key` computed at `generation`, if recorded.
    fn done(&self, key: &FlightKey, generation: u64) -> Option<Flight> {
        self.entries.iter().find_map(|e| match &e.state {
            EntryState::Done {
                generation: at,
                flight,
            } if *at == generation && e.key == *key => Some(flight.clone()),
            _ => None,
        })
    }

    /// Ends running entry `id` and returns the requests that joined it.
    /// `Some((generation, flight))` records the answer in its place and
    /// drops the store's entries from older generations; `None` removes
    /// the entry.
    fn finish(&mut self, id: u64, done: Option<(u64, Flight)>) -> Vec<ReqEnvelope> {
        let Some(i) = self
            .entries
            .iter()
            .position(|e| e.id == id && matches!(e.state, EntryState::Running(_)))
        else {
            return Vec::new();
        };
        let state = match done {
            None => self.entries.remove(i).state,
            Some((generation, flight)) => {
                let state = std::mem::replace(
                    &mut self.entries[i].state,
                    EntryState::Done { generation, flight },
                );
                let store = self.entries[i].key.store().to_string();
                self.entries.retain(|e| match e.state {
                    EntryState::Done { generation: at, .. } => {
                        at >= generation || e.key.store() != store
                    }
                    EntryState::Running(_) => true,
                });
                state
            }
        };
        match state {
            EntryState::Running(joined) => joined,
            EntryState::Done { .. } => unreachable!("found as running"),
        }
    }

    /// `(running, total)` entry counts.
    fn sizes(&self) -> (usize, usize) {
        let running = self
            .entries
            .iter()
            .filter(|e| matches!(e.state, EntryState::Running(_)))
            .count();
        (running, self.entries.len())
    }
}

/// One unit handed to the worker pool.
enum Job {
    /// Executed one by one, in arrival order (pings, infos, ingests,
    /// stream appends, subscribes and polls).
    Singles(Vec<ReqEnvelope>),
    /// A single-flight group: one computation answers every waiter and
    /// whoever joins flight-table entry `id` while it runs. Without
    /// batching, every group has one member and no entry.
    Flight {
        key: FlightKey,
        id: Option<u64>,
        envs: Vec<ReqEnvelope>,
    },
}

struct Scheduler {
    shared: Arc<Shared>,
    max_batch: usize,
    batching: bool,
    linger: Duration,
    workers: usize,
}

impl Scheduler {
    fn run(self, rx: Receiver<Envelope>) {
        let (job_tx, job_rx) = mpsc::channel::<Job>();
        let job_rx = Arc::new(Mutex::new(job_rx));
        let mut pool = Vec::with_capacity(self.workers);
        for i in 0..self.workers {
            let shared = Arc::clone(&self.shared);
            let job_rx = Arc::clone(&job_rx);
            pool.push(
                std::thread::Builder::new()
                    .name(format!("cm-serve-worker-{i}"))
                    .spawn(move || loop {
                        let job = {
                            let guard = lock(&job_rx);
                            guard.recv()
                        };
                        match job {
                            Ok(job) => run_job(&shared, job),
                            Err(_) => break,
                        }
                    })
                    .expect("spawn worker thread"),
            );
        }

        let mut shutdown = false;
        while !shutdown {
            let first = match rx.recv() {
                Ok(env) => env,
                Err(_) => break,
            };
            let mut batch = Vec::new();
            match first {
                Envelope::Shutdown => shutdown = true,
                Envelope::Req(env) => batch.push(env),
            }
            let deadline = Instant::now() + self.linger;
            while !shutdown && batch.len() < self.max_batch {
                let remaining = deadline.saturating_duration_since(Instant::now());
                let next = if remaining.is_zero() {
                    rx.try_recv().ok()
                } else {
                    rx.recv_timeout(remaining).ok()
                };
                match next {
                    Some(Envelope::Req(env)) => batch.push(env),
                    Some(Envelope::Shutdown) => shutdown = true,
                    None => break,
                }
            }
            if !batch.is_empty() {
                self.dispatch(batch, &job_tx);
            }
        }
        // Closing the job channel stops the pool once queued jobs
        // drain; queued-but-undispatched requests drop their reply
        // senders, so their clients observe `Closed`.
        drop(job_tx);
        for worker in pool {
            let _ = worker.join();
        }
    }

    /// Partitions one drained batch into jobs and hands them to the
    /// pool. This is where coalescing and deduplication happen: an
    /// analysis or clustering group whose key is already running joins
    /// that flight instead of starting another.
    fn dispatch(&self, batch: Vec<ReqEnvelope>, job_tx: &Sender<Job>) {
        let stats = &self.shared.stats;
        stats.batch_flushes.fetch_add(1, Ordering::Relaxed);
        stats
            .requests
            .fetch_add(batch.len() as u64, Ordering::Relaxed);
        cm_obs::counter_add("serve.batch.flushes", 1);
        cm_obs::counter_add("serve.requests", batch.len() as u64);

        if !self.batching {
            for env in batch {
                let job = match FlightKey::of(&env.req) {
                    Some(key) => Job::Flight {
                        key,
                        id: None,
                        envs: vec![env],
                    },
                    None => Job::Singles(vec![env]),
                };
                let _ = job_tx.send(job);
            }
            return;
        }

        let mut singles: Vec<ReqEnvelope> = Vec::new();
        let mut flights: Vec<(FlightKey, Vec<ReqEnvelope>)> = Vec::new();
        for env in batch {
            let Some(key) = FlightKey::of(&env.req) else {
                singles.push(env);
                continue;
            };
            match flights.iter_mut().find(|(k, _)| *k == key) {
                Some((_, envs)) => envs.push(env),
                None => flights.push((key, vec![env])),
            }
        }
        flights.sort_by_key(|(key, _)| key.rank());
        for (key, envs) in flights {
            let riders = (envs.len() - 1) as u64;
            let id = if let FlightKey::Query { .. } = key {
                count(&stats.batch_coalesced, "serve.batch.coalesced", riders);
                None
            } else {
                let mut table = lock(&self.shared.flights);
                if let Some(waiters) = table.running(&key) {
                    self.shared.count_dedup(envs.len() as u64);
                    waiters.extend(envs);
                    continue;
                }
                self.shared.count_dedup(riders);
                table.open(key.clone())
            };
            let _ = job_tx.send(Job::Flight { key, id, envs });
        }
        if !singles.is_empty() {
            let _ = job_tx.send(Job::Singles(singles));
        }
    }
}

/// Sends `result` to `reply`, counting errors. A receiver that already
/// gave up (dropped its [`Pending`]) is fine.
fn respond(
    shared: &Shared,
    reply: &Sender<Result<Response, ServeError>>,
    result: Result<Response, ServeError>,
) {
    if result.is_err() {
        shared.stats.errors.fetch_add(1, Ordering::Relaxed);
        cm_obs::counter_add("serve.errors", 1);
    }
    let _ = reply.send(result);
}

/// Flattens a `catch_unwind` outcome into the request's result type.
fn flatten_panic<T>(caught: std::thread::Result<Result<T, ServeError>>) -> Result<T, ServeError> {
    match caught {
        Ok(result) => result,
        Err(_) => Err(ServeError::Pipeline("request handler panicked".to_string())),
    }
}

fn run_job(shared: &Shared, job: Job) {
    match job {
        Job::Singles(envs) => {
            for env in envs {
                let _exec = exec_span(&env.parent, "serve.exec");
                let result = flatten_panic(catch_unwind(AssertUnwindSafe(|| {
                    exec_single(shared, &env.req)
                })));
                respond(shared, &env.reply, result);
            }
        }
        Job::Flight { key, id, envs } => {
            let _exec = exec_span(&envs[0].parent, key.span_name());
            let computed = flatten_panic(catch_unwind(AssertUnwindSafe(|| {
                key.compute(shared, id, &envs)
            })));
            let (flight, joined) = match computed {
                Ok((flight, joined)) => (Ok(flight), joined),
                // Nothing is recorded: the entry goes, and whoever
                // joined it gets the error too.
                Err(e) => {
                    let joined =
                        id.map_or_else(Vec::new, |id| lock(&shared.flights).finish(id, None));
                    (Err(e), joined)
                }
            };
            for (i, env) in envs.iter().chain(&joined).enumerate() {
                let result = match &flight {
                    Ok(flight) => flight.answer(i, &env.req),
                    Err(e) => Err(e.clone()),
                };
                respond(shared, &env.reply, result);
            }
        }
    }
}

fn exec_span(parent: &SpanHandle, name: &str) -> SpanGuard {
    span_enter_under(parent, name.to_string())
}

/// Executes one request of a kind that never joins a flight.
fn exec_single(shared: &Shared, req: &Request) -> Result<Response, ServeError> {
    match req {
        Request::Ping => Ok(Response::Pong),
        Request::Info { store } => Ok(Response::Info(read_store(shared.store(store)?)?.info())),
        Request::Query { .. }
        | Request::Analyze { .. }
        | Request::Ranked { .. }
        | Request::Cluster { .. } => unreachable!("flight requests run as a Job::Flight"),
        Request::Ingest { store, benchmark } => {
            let mut guard = write_store(shared.store(store)?)?;
            shared
                .miner
                .ingest(*benchmark, &mut guard)
                .map(Response::Ingested)
                .map_err(cm_err)
        }
        Request::StreamAppend {
            store,
            benchmark,
            rows,
        } => exec_stream_append(shared, store, *benchmark, *rows),
        Request::Subscribe {
            store,
            benchmark,
            top_k,
        } => {
            shared.store(store)?; // fail fast on unknown stores
            let mut registry = lock(&shared.subs);
            registry.next_id += 1;
            let id = SubscriptionId(registry.next_id);
            registry.subs.insert(
                id,
                Subscription {
                    store: store.clone(),
                    benchmark: *benchmark,
                    top_k: *top_k,
                    last: None,
                    queue: Vec::new(),
                    next_seq: 0,
                },
            );
            cm_obs::counter_add("serve.subscriptions", 1);
            Ok(Response::Subscribed(id))
        }
        Request::Poll { id, after } => {
            let mut registry = lock(&shared.subs);
            let sub = registry
                .subs
                .get_mut(id)
                .ok_or(ServeError::UnknownSubscription(*id))?;
            // Everything at or below `after` is acknowledged: drop it.
            sub.queue.retain(|n| n.seq > *after);
            Ok(Response::Notify(sub.queue.clone()))
        }
    }
}

/// Appends to the server-side stream session for `(store, benchmark)`,
/// opening (or resuming) it on first touch, then notifies any
/// subscribers whose watched summary materially changed.
///
/// The streams mutex serializes appends per server; the store's write
/// lock covers staging and the atomic commit. The session leaves the
/// streams table while it appends, so one that fails — or panics, which
/// also gets the store reloaded on its next access — is dropped, and the
/// next append reopens from the last committed snapshot: the client sees
/// a typed error, never a torn stream.
fn exec_stream_append(
    shared: &Shared,
    store_name: &str,
    benchmark: Benchmark,
    rows: usize,
) -> Result<Response, ServeError> {
    let handle = shared.store(store_name)?;
    let mut streams = lock(&shared.streams);
    let key = (store_name.to_string(), benchmark);

    let report = {
        let mut guard = write_store(handle)?;
        let mut session = match streams.remove(&key) {
            Some(session) => session,
            None => StreamSession::open(&mut guard, benchmark, shared.stream.clone())
                .map_err(stream_err)?,
        };
        let report = session.append(&mut guard, rows).map_err(stream_err)?;
        streams.insert(key.clone(), session);
        report
    };

    // Only pay for an analysis when someone is watching this stream
    // (and even then, an append that sealed nothing warm-starts).
    let session = streams.get_mut(&key).expect("session exists");
    let mut registry = lock(&shared.subs);
    let watching = registry
        .subs
        .values()
        .any(|s| s.store == key.0 && s.benchmark == benchmark);
    if watching {
        if let Some(analysis) = session.analysis().map_err(stream_err)? {
            for sub in registry
                .subs
                .values_mut()
                .filter(|s| s.store == key.0 && s.benchmark == benchmark)
            {
                let summary = analysis.summary(sub.top_k);
                let reason = match &sub.last {
                    None => Some(NotifyReason::Initial),
                    Some(prev) if summary.order_changed(prev) => Some(NotifyReason::TopKChanged),
                    Some(prev) if summary.mapm_changed(prev) => Some(NotifyReason::MapmChanged),
                    Some(_) => None,
                };
                if let Some(reason) = reason {
                    sub.next_seq += 1;
                    sub.queue.push(Notification {
                        seq: sub.next_seq,
                        reason,
                        sealed_rows: analysis.sealed_rows,
                        summary: summary.clone(),
                    });
                    sub.last = Some(summary);
                    cm_obs::counter_add("serve.notifications", 1);
                }
            }
        }
    }
    Ok(Response::Appended(report))
}

/// The analysis hot path: `warm` computes from the committed snapshot
/// under the shared read lock; on a cold store (`Ok(None)`), ingest
/// every one of `benchmarks` under the write lock, then compute warm.
/// Many threads analyzing different benchmarks from one store proceed
/// in parallel on the read path.
fn warm_or_ingest<T>(
    shared: &Shared,
    store: &str,
    benchmarks: &[Benchmark],
    warm: impl Fn(&Store) -> Result<Option<T>, CmError>,
) -> Result<T, ServeError> {
    let handle = shared.store(store)?;
    let warm_read = || warm(&*read_store(handle)?).map_err(cm_err);
    if let Some(found) = warm_read()? {
        return Ok(found);
    }
    {
        let mut guard = write_store(handle)?;
        for &benchmark in benchmarks {
            shared.miner.ingest(benchmark, &mut guard).map_err(cm_err)?;
        }
    }
    warm_read()?.ok_or_else(|| {
        ServeError::Pipeline("snapshot missing immediately after ingest".to_string())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cm_events::{EventId, SampleMode};
    use cm_sim::Benchmark;
    use counterminer::{ClusterConfig, MinerConfig};
    use std::sync::atomic::AtomicBool;

    fn tiny_config() -> MinerConfig {
        let mut config = MinerConfig {
            runs_per_benchmark: 1,
            events_to_measure: Some(14),
            interaction_top_k: 4,
            ..MinerConfig::default()
        };
        config.importance.sgbrt.n_trees = 40;
        config.importance.sgbrt.tree.max_depth = 3;
        config.importance.prune_step = 3;
        config.importance.min_events = 8;
        config
    }

    fn temp_store_path(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("cm_serve_unit_{}_{tag}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        dir.join("unit.cmstore")
    }

    fn tiny_server(tag: &str) -> (ServerHandle, std::path::PathBuf) {
        let path = temp_store_path(tag);
        let _ = std::fs::remove_file(&path);
        let config = ServeConfig {
            miner: tiny_config(),
            workers: 2,
            ..ServeConfig::default()
        };
        let mut server = Server::new(config);
        server.add_store("main", &path).expect("register store");
        (server.start(), path)
    }

    #[test]
    fn ping_and_unknown_store_round_trip() {
        let (handle, path) = tiny_server("ping");
        let client = handle.client();
        assert!(matches!(client.call(Request::Ping), Ok(Response::Pong)));
        let err = client
            .call(Request::Info {
                store: "nope".into(),
            })
            .unwrap_err();
        assert_eq!(err, ServeError::UnknownStore("nope".into()));
        let stats = handle.shutdown();
        assert_eq!(stats.requests, 2);
        assert_eq!(stats.errors, 1);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn analyze_then_query_serves_persisted_series() {
        let (handle, path) = tiny_server("analyze");
        let client = handle.client();
        let analysis = match client
            .call(Request::Analyze {
                store: "main".into(),
                benchmark: Benchmark::Sort,
            })
            .expect("analyze")
        {
            Response::Analysis(a) => a,
            other => panic!("unexpected response {other:?}"),
        };
        assert!(!analysis.ranking.is_empty());
        assert_eq!(analysis.benchmark, Benchmark::Sort);

        // The snapshot's series are now stored under the benchmark's
        // snapshot namespace; read one back through the service.
        let info = match client
            .call(Request::Info {
                store: "main".into(),
            })
            .expect("info")
        {
            Response::Info(info) => info,
            other => panic!("unexpected response {other:?}"),
        };
        assert!(info.series > 0);

        // Ranked piggybacks on the same snapshot.
        let ranked = match client
            .call(Request::Ranked {
                store: "main".into(),
                benchmark: Benchmark::Sort,
                top_k: 3,
            })
            .expect("ranked")
        {
            Response::Ranked(r) => r,
            other => panic!("unexpected response {other:?}"),
        };
        assert_eq!(ranked.len(), 3);
        assert_eq!(ranked, analysis.ranking[..3].to_vec());
        handle.shutdown();
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn queries_queued_before_start_coalesce_into_one_batched_read() {
        let path = temp_store_path("coalesce");
        let _ = std::fs::remove_file(&path);
        {
            let mut store = Store::open(&path).expect("open");
            for event in 0..6 {
                let key = SeriesKey::new("prog", 0, SampleMode::Mlpx, EventId::new(event));
                let values: Vec<f64> = (0..32).map(|i| (event * 100 + i) as f64).collect();
                store.append_series(key, &values).expect("append");
            }
            store.commit().expect("commit");
        }
        let config = ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        };
        let query = |event: usize| Request::Query {
            store: "main".into(),
            key: SeriesKey::new("prog", 0, SampleMode::Mlpx, EventId::new(event)),
        };
        let mut server = Server::new(config);
        server.add_store("main", &path).expect("register");
        let client = server.client();
        let pendings: Vec<Pending> = (0..6).map(|event| client.submit(query(event))).collect();
        let handle = server.start();
        for (event, pending) in pendings.into_iter().enumerate() {
            match pending.wait().expect("query") {
                Response::Series(values) => {
                    assert_eq!(values[0], (event * 100) as f64);
                    assert_eq!(values.len(), 32);
                }
                other => panic!("unexpected response {other:?}"),
            }
        }
        let stats = handle.shutdown();
        // All six queries were queued before the scheduler started, so
        // they form one batch: one flush, five coalesced riders.
        assert_eq!(stats.batch_flushes, 1);
        assert_eq!(stats.batch_coalesced, 5);

        // The same queries with one for a series the store lacks queued
        // in the middle: the missing key fails only its own query, and
        // batching changes no request's result.
        let mix = |batching: bool| -> Vec<Result<Response, ServeError>> {
            let mut server = Server::new(ServeConfig {
                batching,
                workers: 2,
                ..ServeConfig::default()
            });
            server.add_store("main", &path).expect("register");
            let client = server.client();
            let pendings: Vec<Pending> = [0, 1, 2, 99, 3, 4, 5]
                .into_iter()
                .map(|event| client.submit(query(event)))
                .collect();
            let handle = server.start();
            let results = pendings.into_iter().map(Pending::wait).collect();
            handle.shutdown();
            results
        };
        let batched = mix(true);
        assert_eq!(batched.iter().filter(|r| r.is_ok()).count(), 6);
        assert!(matches!(batched[3], Err(ServeError::Store(_))));
        assert_eq!(batched, mix(false));
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn batching_off_executes_requests_individually() {
        let path = temp_store_path("nobatch");
        let _ = std::fs::remove_file(&path);
        {
            let mut store = Store::open(&path).expect("open");
            let key = SeriesKey::new("prog", 0, SampleMode::Mlpx, EventId::new(0));
            store.append_series(key, &[1.0, 2.0]).expect("append");
            store.commit().expect("commit");
        }
        let config = ServeConfig {
            batching: false,
            workers: 1,
            ..ServeConfig::default()
        };
        let mut server = Server::new(config);
        server.add_store("main", &path).expect("register");
        let client = server.client();
        let pendings: Vec<Pending> = (0..4)
            .map(|_| {
                client.submit(Request::Query {
                    store: "main".into(),
                    key: SeriesKey::new("prog", 0, SampleMode::Mlpx, EventId::new(0)),
                })
            })
            .collect();
        let handle = server.start();
        for pending in pendings {
            assert!(matches!(pending.wait(), Ok(Response::Series(_))));
        }
        let stats = handle.shutdown();
        assert_eq!(stats.batch_coalesced, 0);
        assert_eq!(stats.dedup_hits, 0);
        assert_eq!(stats.requests, 4);
        let _ = std::fs::remove_file(path);
    }

    fn stream_append(client: &Client, rows: usize) -> cm_stream::AppendReport {
        match client
            .call(Request::StreamAppend {
                store: "main".into(),
                benchmark: Benchmark::Sort,
                rows,
            })
            .expect("stream append")
        {
            Response::Appended(report) => report,
            other => panic!("unexpected response {other:?}"),
        }
    }

    #[test]
    fn subscription_notifies_when_and_only_when_the_answer_changes() {
        let (handle, path) = tiny_server("subscribe");
        let client = handle.client();
        let mut sub = client
            .subscribe("main", Benchmark::Sort, 3)
            .expect("subscribe");

        // A mirror session over a private store predicts, deterministically,
        // what the server's stream computes — the test oracle for
        // "notified exactly when the summary materially changes".
        let mirror_path = temp_store_path("subscribe_mirror");
        let _ = std::fs::remove_file(&mirror_path);
        let mut mirror_store = Store::open(&mirror_path).expect("mirror store");
        let mut mirror = cm_stream::StreamSession::open(
            &mut mirror_store,
            Benchmark::Sort,
            cm_stream::StreamConfig::from_env(tiny_config()),
        )
        .expect("mirror session");

        // Nothing sealed yet: no analysis exists, so no notification.
        let report = stream_append(&client, 40);
        assert_eq!(report.sealed_rows, 0);
        mirror.append(&mut mirror_store, 40).expect("mirror");
        assert!(sub.poll().expect("poll").is_empty());

        // First sealed block: the first analysis always notifies.
        let report = stream_append(&client, 30);
        assert_eq!(report.sealed_rows, 64);
        mirror.append(&mut mirror_store, 30).expect("mirror");
        let first = sub.wait_next(Duration::from_secs(30)).expect("wait");
        assert_eq!(first.len(), 1);
        assert_eq!(first[0].reason, NotifyReason::Initial);
        assert_eq!(first[0].sealed_rows, 64);
        let mut last_notified = mirror
            .analysis()
            .expect("mirror analysis")
            .expect("sealed")
            .summary(3);
        assert_eq!(first[0].summary, last_notified);

        // No new sealed block: warm start, identical answer, silence.
        let report = stream_append(&client, 10);
        assert_eq!(report.sealed_rows, 64);
        mirror.append(&mut mirror_store, 10).expect("mirror");
        assert!(sub.poll().expect("poll").is_empty());

        // Seal several more blocks; the mirror predicts whether each
        // step's summary materially differs from the last notified one.
        for rows in [100, 150] {
            let server_report = stream_append(&client, rows);
            mirror.append(&mut mirror_store, rows).expect("mirror");
            assert_eq!(server_report.total_rows, mirror.total_rows());
            let summary = mirror
                .analysis()
                .expect("mirror analysis")
                .expect("sealed")
                .summary(3);
            let notes = sub.poll().expect("poll");
            if summary.materially_differs(&last_notified) {
                assert_eq!(notes.len(), 1, "material change must notify");
                assert_eq!(notes[0].summary, summary);
                assert!(matches!(
                    notes[0].reason,
                    NotifyReason::TopKChanged | NotifyReason::MapmChanged
                ));
                last_notified = summary;
            } else {
                assert!(notes.is_empty(), "immaterial change must stay silent");
            }
        }

        // Polling an unknown subscription is a typed error.
        let err = client
            .call(Request::Poll {
                id: crate::proto::SubscriptionId(9999),
                after: 0,
            })
            .unwrap_err();
        assert_eq!(
            err,
            ServeError::UnknownSubscription(crate::proto::SubscriptionId(9999))
        );

        handle.shutdown();
        let _ = std::fs::remove_file(path);
        let _ = std::fs::remove_file(mirror_path);
    }

    #[test]
    fn identical_cluster_requests_deduplicate_into_one_computation() {
        let path = temp_store_path("cluster");
        let _ = std::fs::remove_file(&path);
        let config = ServeConfig {
            miner: tiny_config(),
            workers: 2,
            ..ServeConfig::default()
        };
        let mut server = Server::new(config);
        server.add_store("main", &path).expect("register store");
        let client = server.client();
        let request = Request::Cluster {
            store: "main".into(),
            benchmarks: vec![Benchmark::Sort, Benchmark::Wordcount],
            config: ClusterConfig {
                k: 2,
                inject_anomalies: 1,
                ..ClusterConfig::default()
            },
        };
        // Queued before start: all four land in one batch and dedup.
        let pendings: Vec<Pending> = (0..4).map(|_| client.submit(request.clone())).collect();
        let handle = server.start();
        let mut reports = Vec::new();
        for pending in pendings {
            match pending.wait().expect("cluster") {
                Response::Clustered(report) => reports.push(report),
                other => panic!("unexpected response {other:?}"),
            }
        }
        let first = &reports[0];
        assert_eq!(first.k, 2);
        // 1 run per benchmark plus 1 injected probe per benchmark.
        assert_eq!(first.runs.len(), 4);
        assert_eq!(first.runs.iter().filter(|r| r.injected).count(), 2);
        for report in &reports[1..] {
            assert!(Arc::ptr_eq(first, report), "waiters must share the report");
        }
        let stats = handle.shutdown();
        assert_eq!(stats.batch_flushes, 1);
        assert_eq!(stats.dedup_hits, 3);

        // A fresh server over the same store answers warm,
        // bit-identically.
        let mut server = Server::new(ServeConfig {
            miner: tiny_config(),
            workers: 1,
            ..ServeConfig::default()
        });
        server.add_store("main", &path).expect("register store");
        let client = server.client();
        let handle = server.start();
        match client.call(request).expect("warm cluster") {
            Response::Clustered(report) => assert_eq!(**first, *report),
            other => panic!("unexpected response {other:?}"),
        }
        handle.shutdown();
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn client_of_dropped_server_observes_closed() {
        let (handle, path) = tiny_server("closed");
        let client = handle.client();
        drop(handle);
        assert_eq!(client.call(Request::Ping), Err(ServeError::Closed));
        let _ = std::fs::remove_file(path);
    }

    /// What a test store's filesystem does to the server's reads and
    /// writes: nothing unless armed.
    #[derive(Debug, Default)]
    struct Faults {
        /// Writes panic (a commit torn by a bug, not an I/O error).
        panic_writes: AtomicBool,
        /// Positioned reads panic.
        panic_reads: AtomicBool,
        /// While true, positioned reads wait for it to turn false.
        gate_closed: Mutex<bool>,
        gate: std::sync::Condvar,
        /// Reads that have waited at the closed gate.
        gated_reads: AtomicU64,
    }

    impl Faults {
        fn set_gate(&self, closed: bool) {
            *self.gate_closed.lock().unwrap() = closed;
            self.gate.notify_all();
        }

        fn read(&self) {
            let mut closed = self.gate_closed.lock().unwrap();
            if *closed {
                self.gated_reads.fetch_add(1, Ordering::SeqCst);
            }
            while *closed {
                closed = self.gate.wait(closed).unwrap();
            }
            drop(closed);
            assert!(
                !self.panic_reads.load(Ordering::SeqCst),
                "injected read panic"
            );
        }
    }

    /// The real filesystem behind [`Faults`].
    #[derive(Debug)]
    struct FaultyFs(Arc<Faults>);

    #[derive(Debug)]
    struct FaultyFile(Box<dyn cm_store::VfsFile>, Arc<Faults>);

    impl cm_store::VfsFile for FaultyFile {
        fn len(&self) -> std::io::Result<u64> {
            self.0.len()
        }
        fn read_exact_at(&self, buf: &mut [u8], offset: u64) -> std::io::Result<()> {
            self.1.read();
            self.0.read_exact_at(buf, offset)
        }
        fn write_all(&mut self, buf: &[u8]) -> std::io::Result<()> {
            assert!(
                !self.1.panic_writes.load(Ordering::SeqCst),
                "injected write panic"
            );
            self.0.write_all(buf)
        }
        fn sync_all(&mut self) -> std::io::Result<()> {
            self.0.sync_all()
        }
    }

    impl Vfs for FaultyFs {
        fn open(&self, path: &Path) -> std::io::Result<Box<dyn cm_store::VfsFile>> {
            Ok(Box::new(FaultyFile(
                cm_store::RealFs.open(path)?,
                Arc::clone(&self.0),
            )))
        }
        fn create(&self, path: &Path) -> std::io::Result<Box<dyn cm_store::VfsFile>> {
            Ok(Box::new(FaultyFile(
                cm_store::RealFs.create(path)?,
                Arc::clone(&self.0),
            )))
        }
        fn exists(&self, path: &Path) -> bool {
            cm_store::RealFs.exists(path)
        }
        fn remove(&self, path: &Path) -> std::io::Result<()> {
            cm_store::RealFs.remove(path)
        }
        fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()> {
            cm_store::RealFs.rename(from, to)
        }
    }

    /// A two-worker server over a store already holding a warm `Sort`
    /// snapshot, read and written through [`Faults`].
    fn faulty_server(tag: &str) -> (ServerHandle, Arc<Faults>, std::path::PathBuf) {
        let path = temp_store_path(tag);
        let _ = std::fs::remove_file(&path);
        let mut store = Store::open(&path).expect("open");
        CounterMiner::new(tiny_config())
            .ingest(Benchmark::Sort, &mut store)
            .expect("warm snapshot");
        drop(store);
        let faults = Arc::new(Faults::default());
        let mut server = Server::new(ServeConfig {
            miner: tiny_config(),
            workers: 2,
            ..ServeConfig::default()
        });
        server
            .add_store_with_vfs("main", &path, Arc::new(FaultyFs(Arc::clone(&faults))))
            .expect("register store");
        (server.start(), faults, path)
    }

    /// What a direct `analyze_snapshot` of the committed file answers.
    fn oracle(path: &Path, benchmark: Benchmark) -> RankedAnalysis {
        let miner = CounterMiner::new(tiny_config());
        let store = Store::open(path).expect("open oracle store");
        let report = miner
            .analyze_snapshot(benchmark, &store)
            .expect("oracle analysis")
            .expect("warm snapshot");
        RankedAnalysis::from_report(&report, miner.snapshot_fingerprint(benchmark))
    }

    fn analyze(client: &Client, benchmark: Benchmark) -> Arc<RankedAnalysis> {
        match client.call(Request::Analyze {
            store: "main".into(),
            benchmark,
        }) {
            Ok(Response::Analysis(a)) => a,
            other => panic!("unexpected response {other:?}"),
        }
    }

    fn wait_until(what: &str, done: impl Fn() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(60);
        while !done() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Submits an analysis that stops at the closed gate, then a ranked
    /// request for the same key, and opens the gate once the ranked one
    /// has joined the running flight. The join counts at dispatch, while
    /// no finished answer exists to hit.
    fn join_while_gated(handle: &ServerHandle, faults: &Faults) -> (Pending, Pending) {
        let client = handle.client();
        faults.set_gate(true);
        let analysis = client.submit(Request::Analyze {
            store: "main".into(),
            benchmark: Benchmark::Sort,
        });
        wait_until("the analysis to read", || {
            faults.gated_reads.load(Ordering::SeqCst) > 0
        });
        let ranked = client.submit(Request::Ranked {
            store: "main".into(),
            benchmark: Benchmark::Sort,
            top_k: 3,
        });
        wait_until("the ranked request to join", || {
            handle.stats().dedup_hits == 1
        });
        faults.set_gate(false);
        (analysis, ranked)
    }

    #[test]
    fn finished_analyses_are_shared_until_the_store_changes() {
        let (handle, path) = tiny_server("share");
        let client = handle.client();
        let first = analyze(&client, Benchmark::Sort);
        let second = analyze(&client, Benchmark::Sort);
        assert!(
            Arc::ptr_eq(&first, &second),
            "a repeat must share the answer"
        );
        assert_eq!(handle.stats().dedup_hits, 1);
        assert_eq!(*first, oracle(&path, Benchmark::Sort));

        // An ingest of another benchmark moves the store's generation:
        // the next analysis recomputes, from the new snapshot.
        assert!(matches!(
            client.call(Request::Ingest {
                store: "main".into(),
                benchmark: Benchmark::Wordcount,
            }),
            Ok(Response::Ingested(_))
        ));
        let after_ingest = analyze(&client, Benchmark::Sort);
        assert!(!Arc::ptr_eq(&first, &after_ingest));
        assert_eq!(*after_ingest, oracle(&path, Benchmark::Sort));

        // So does a streamed append to the same store.
        stream_append(&client, 40);
        let after_append = analyze(&client, Benchmark::Sort);
        assert!(!Arc::ptr_eq(&after_ingest, &after_append));
        assert_eq!(*after_append, oracle(&path, Benchmark::Sort));
        assert_eq!(handle.stats().dedup_hits, 1);

        // A ranked request at the same generation shares it too.
        match client.call(Request::Ranked {
            store: "main".into(),
            benchmark: Benchmark::Sort,
            top_k: 3,
        }) {
            Ok(Response::Ranked(r)) => assert_eq!(r, after_append.ranking[..3].to_vec()),
            other => panic!("unexpected response {other:?}"),
        }
        assert_eq!(handle.shutdown().dedup_hits, 2);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn a_request_joins_the_running_flight_of_its_key() {
        let (handle, faults, path) = faulty_server("join");
        let (analysis, ranked) = join_while_gated(&handle, &faults);
        let analysis = match analysis.wait() {
            Ok(Response::Analysis(a)) => a,
            other => panic!("unexpected response {other:?}"),
        };
        match ranked.wait() {
            Ok(Response::Ranked(r)) => assert_eq!(r, analysis.ranking[..3].to_vec()),
            other => panic!("unexpected response {other:?}"),
        }
        assert_eq!(*analysis, oracle(&path, Benchmark::Sort));
        let stats = handle.shutdown();
        assert_eq!(stats.dedup_hits, 1);
        assert_eq!(stats.errors, 0);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn a_panicking_flight_fails_every_joined_waiter_and_is_not_kept() {
        let (handle, faults, path) = faulty_server("flight_panic");
        let client = handle.client();
        faults.panic_reads.store(true, Ordering::SeqCst);
        let (analysis, ranked) = join_while_gated(&handle, &faults);
        for pending in [analysis, ranked] {
            assert!(matches!(pending.wait(), Err(ServeError::Pipeline(_))));
        }
        assert_eq!(lock(&handle.shared.flights).sizes(), (0, 0));

        // Nothing was kept: the next request computes afresh.
        faults.panic_reads.store(false, Ordering::SeqCst);
        assert_eq!(
            *analyze(&client, Benchmark::Sort),
            oracle(&path, Benchmark::Sort)
        );
        let stats = handle.shutdown();
        assert_eq!(stats.dedup_hits, 1);
        assert_eq!(stats.errors, 2);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn a_panic_mid_write_reloads_the_store_from_its_last_commit() {
        let (handle, faults, path) = faulty_server("poison");
        let client = handle.client();
        let want = oracle(&path, Benchmark::Sort);
        let info = || match client.call(Request::Info {
            store: "main".into(),
        }) {
            Ok(Response::Info(info)) => info,
            other => panic!("unexpected response {other:?}"),
        };
        let before = info();

        // The ingest stages its series, then its commit panics: the
        // write lock is poisoned over a half-mutated store.
        faults.panic_writes.store(true, Ordering::SeqCst);
        let ingest = client.call(Request::Ingest {
            store: "main".into(),
            benchmark: Benchmark::Wordcount,
        });
        assert!(matches!(ingest, Err(ServeError::Pipeline(_))), "{ingest:?}");
        faults.panic_writes.store(false, Ordering::SeqCst);
        assert_eq!(info().series, before.series);
        assert_eq!(*analyze(&client, Benchmark::Sort), want);

        // A stream append torn the same way loses its session too: the
        // next append starts over from the committed (empty) stream.
        faults.panic_writes.store(true, Ordering::SeqCst);
        let append = client.call(Request::StreamAppend {
            store: "main".into(),
            benchmark: Benchmark::Sort,
            rows: 40,
        });
        assert!(matches!(append, Err(ServeError::Pipeline(_))), "{append:?}");
        faults.panic_writes.store(false, Ordering::SeqCst);
        assert!(lock(&handle.shared.streams).is_empty());
        assert_eq!(info().series, before.series);
        assert_eq!(stream_append(&client, 40).total_rows, 40);
        handle.shutdown();
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn distinct_cluster_configs_stay_within_the_flight_table_cap() {
        let (handle, path) = tiny_server("cluster_cap");
        let client = handle.client();
        let request = |threshold_sigmas: f64| Request::Cluster {
            store: "main".into(),
            benchmarks: vec![Benchmark::Sort],
            config: ClusterConfig {
                k: 1,
                threshold_sigmas,
                ..ClusterConfig::default()
            },
        };
        // Warm the snapshot, so every clustering below reads it.
        let first = client.call(request(0.0)).expect("warm cluster");
        let pendings: Vec<Pending> = (1..1000)
            .map(|i| {
                let sigmas = if i % 100 == 0 { f64::NAN } else { i as f64 };
                client.submit(request(sigmas))
            })
            .collect();
        for pending in pendings {
            let (running, entries) = lock(&handle.shared.flights).sizes();
            assert!(running <= entries && entries <= FLIGHT_TABLE_CAP);
            assert!(matches!(pending.wait(), Ok(Response::Clustered(_))));
        }
        // Every flight ended, NaN keys included (they never equal
        // themselves, so they never share), and the table is full.
        assert_eq!(lock(&handle.shared.flights).sizes(), (0, FLIGHT_TABLE_CAP));

        // The first clustering was the oldest entry, long evicted: its
        // repeat recomputes the same report.
        let again = client.call(request(0.0)).expect("repeat cluster");
        let stats = handle.shutdown();
        let (Response::Clustered(a), Response::Clustered(b)) = (first, again) else {
            panic!("unexpected responses");
        };
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(*a, *b);
        assert_eq!(stats.dedup_hits, 0);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn transport_trait_is_object_safe_and_routes() {
        let (handle, path) = tiny_server("transport");
        let transport: Box<dyn Transport> = Box::new(handle.client());
        assert!(matches!(transport.send(Request::Ping), Ok(Response::Pong)));
        handle.shutdown();
        let _ = std::fs::remove_file(path);
    }
}
