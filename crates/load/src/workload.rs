//! Workload definitions and the driver loop.

use crate::latency::{LatencyRecorder, LatencySummary};
use cm_par::Rng;
use cm_serve::{Request, ServeStats, ServerHandle};
use cm_sim::Benchmark;
use cm_store::{SeriesKey, Store};
use counterminer::{CmError, CounterMiner, MinerConfig};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Relative operation weights of the mixed workload. An all-zero mix
/// degenerates to queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpMix {
    /// Single-series reads ([`Request::Query`]).
    pub query: u32,
    /// Full analyses ([`Request::Analyze`]).
    pub analyze: u32,
    /// Top-k ranking requests ([`Request::Ranked`]).
    pub ranked: u32,
    /// Store metadata probes ([`Request::Info`]).
    pub info: u32,
    /// Streaming appends ([`Request::StreamAppend`]) of 1–16 rows each
    /// — the live-ingest workload. Zero (the default) keeps the
    /// classic read-mostly mix.
    pub stream_append: u32,
}

impl Default for OpMix {
    fn default() -> Self {
        OpMix {
            query: 12,
            analyze: 2,
            ranked: 1,
            info: 1,
            stream_append: 0,
        }
    }
}

/// The loop discipline clients drive with.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LoopMode {
    /// Issue the next request when the previous completes: measures
    /// the server's capacity at a given concurrency.
    Closed,
    /// Issue requests on a fixed per-client schedule (`rate_hz` each)
    /// regardless of completions; latency is measured from the
    /// *intended* start, so server-side queueing is charged in full
    /// (coordinated-omission correction).
    Open {
        /// Requests per second per client.
        rate_hz: f64,
    },
}

/// One load scenario: who offers how much of what, and how it is
/// measured.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    /// Simulated clients (one thread each).
    pub clients: usize,
    /// Operations each client issues.
    pub ops_per_client: usize,
    /// Operation mix.
    pub mix: OpMix,
    /// Loop discipline.
    pub mode: LoopMode,
    /// Seed for the request schedule; the schedule (which operations,
    /// which keys) is a pure function of this seed.
    pub seed: u64,
    /// Samples starting earlier than this are excluded from the
    /// summary (cache and scheduler warm-up).
    pub warmup: Duration,
    /// Samples starting within this much of the end of the run are
    /// excluded (stragglers draining).
    pub cooldown: Duration,
}

impl Default for Workload {
    fn default() -> Self {
        Workload {
            clients: 64,
            ops_per_client: 16,
            mix: OpMix::default(),
            mode: LoopMode::Closed,
            seed: 0,
            warmup: Duration::ZERO,
            cooldown: Duration::ZERO,
        }
    }
}

/// What one [`run_workload`] measured.
#[derive(Debug, Clone, PartialEq)]
pub struct RunMetrics {
    /// Caller-chosen label (kept short and distinct from
    /// `ns_per_iter` ids — see [`crate::LoadReport`]).
    pub label: String,
    /// Clients driven.
    pub clients: usize,
    /// Operations issued (all of them, including warmup/cooldown).
    pub ops: u64,
    /// Operations answered with an error.
    pub errors: u64,
    /// Wall time of the whole run.
    pub elapsed_ns: u64,
    /// Completed operations per second over the measurement window.
    pub throughput_ops_per_sec: f64,
    /// Latency percentiles over the measurement window.
    pub latency: LatencySummary,
    /// Server scheduling counters, as a delta over this run.
    pub stats: ServeStats,
}

/// Draws the next request of the schedule.
pub(crate) fn pick_op(
    rng: &mut Rng,
    mix: &OpMix,
    store: &str,
    benchmark: Benchmark,
    keys: &[SeriesKey],
) -> Request {
    let total = (mix.query + mix.analyze + mix.ranked + mix.info + mix.stream_append).max(1) as u64;
    let roll = rng.below(total) as u32;
    let store = store.to_string();
    if roll < mix.query || total == 1 {
        if keys.is_empty() {
            return Request::Info { store };
        }
        let key = keys[rng.below(keys.len() as u64) as usize].clone();
        return Request::Query { store, key };
    }
    if roll < mix.query + mix.analyze {
        Request::Analyze { store, benchmark }
    } else if roll < mix.query + mix.analyze + mix.ranked {
        Request::Ranked {
            store,
            benchmark,
            top_k: 5,
        }
    } else if roll < mix.query + mix.analyze + mix.ranked + mix.info {
        Request::Info { store }
    } else {
        Request::StreamAppend {
            store,
            benchmark,
            rows: 1 + rng.below(16) as usize,
        }
    }
}

fn stats_delta(after: ServeStats, before: ServeStats) -> ServeStats {
    ServeStats {
        requests: after.requests - before.requests,
        errors: after.errors - before.errors,
        batch_flushes: after.batch_flushes - before.batch_flushes,
        batch_coalesced: after.batch_coalesced - before.batch_coalesced,
        dedup_hits: after.dedup_hits - before.dedup_hits,
        retrains: after.retrains - before.retrains,
        retrain_errors: after.retrain_errors - before.retrain_errors,
        retrains_pending: after.retrains_pending,
    }
}

/// Drives one workload against a running server and measures it.
///
/// Spawns `workload.clients` threads, each with an independent seeded
/// schedule, plus a background sampler publishing the server's
/// per-shard cache gauges (visible under `serve.cache.shard.*` when
/// observability is on). Blocks until every client finishes.
pub fn run_workload(
    handle: &ServerHandle,
    store: &str,
    benchmark: Benchmark,
    keys: &[SeriesKey],
    workload: &Workload,
    label: &str,
) -> RunMetrics {
    let stats_before = handle.stats();
    let mut root = Rng::new(workload.seed);
    let client_seeds: Vec<u64> = (0..workload.clients).map(|_| root.next_u64()).collect();
    let stop = AtomicBool::new(false);
    let run_start = Instant::now();

    let mut recorder = LatencyRecorder::new();
    let mut ops = 0u64;
    let mut errors = 0u64;
    std::thread::scope(|s| {
        // Background stats sampler: cheap, and a no-op with
        // observability off.
        let sampler = s.spawn(|| {
            while !stop.load(Ordering::Relaxed) {
                handle.publish_gauges();
                std::thread::sleep(Duration::from_millis(20));
            }
            handle.publish_gauges();
        });

        let workers: Vec<_> = client_seeds
            .iter()
            .map(|&seed| {
                let client = handle.client();
                s.spawn(move || {
                    let mut rng = Rng::new(seed);
                    let mut rec = LatencyRecorder::new();
                    let mut errs = 0u64;
                    for i in 0..workload.ops_per_client {
                        let req = pick_op(&mut rng, &workload.mix, store, benchmark, keys);
                        let (start_ns, issued_at) = match workload.mode {
                            LoopMode::Closed => {
                                (run_start.elapsed().as_nanos() as u64, Instant::now())
                            }
                            LoopMode::Open { rate_hz } => {
                                let offset = Duration::from_secs_f64(i as f64 / rate_hz.max(1e-9));
                                let intended = run_start + offset;
                                let now = Instant::now();
                                if intended > now {
                                    std::thread::sleep(intended - now);
                                }
                                (offset.as_nanos() as u64, intended)
                            }
                        };
                        let result = client.call(req);
                        let latency_ns = issued_at.elapsed().as_nanos() as u64;
                        if result.is_err() {
                            errs += 1;
                        }
                        rec.record(start_ns, latency_ns);
                    }
                    (rec, errs)
                })
            })
            .collect();
        for worker in workers {
            let (rec, errs) = worker.join().expect("client thread");
            ops += rec.len() as u64;
            errors += errs;
            recorder.merge(rec);
        }
        stop.store(true, Ordering::Relaxed);
        let _ = sampler.join();
    });

    let elapsed = run_start.elapsed();
    let elapsed_ns = elapsed.as_nanos() as u64;
    let warmup_ns = workload.warmup.as_nanos() as u64;
    let cooldown_ns = workload.cooldown.as_nanos() as u64;
    // Fall back to the full run when trimming would leave no window.
    let (win_start, win_end) = if warmup_ns + cooldown_ns < elapsed_ns {
        (warmup_ns, elapsed_ns - cooldown_ns)
    } else {
        (0, u64::MAX)
    };
    let latency = recorder.summarize(win_start, win_end);
    let window_secs = if win_end == u64::MAX {
        elapsed.as_secs_f64()
    } else {
        (win_end - win_start) as f64 / 1e9
    };
    let throughput = if window_secs > 0.0 {
        latency.count as f64 / window_secs
    } else {
        0.0
    };
    RunMetrics {
        label: label.to_string(),
        clients: workload.clients,
        ops,
        errors,
        elapsed_ns,
        throughput_ops_per_sec: throughput,
        latency,
        stats: stats_delta(handle.stats(), stats_before),
    }
}

/// Runs `base` at each client count and finds the saturation point:
/// the first count whose throughput improves on the previous one by
/// less than 10%. Returns the per-count metrics and that count (or
/// `None` if throughput kept scaling through the last point).
pub fn saturation_sweep(
    handle: &ServerHandle,
    store: &str,
    benchmark: Benchmark,
    keys: &[SeriesKey],
    base: &Workload,
    client_counts: &[usize],
    label_prefix: &str,
) -> (Vec<RunMetrics>, Option<usize>) {
    let mut runs: Vec<RunMetrics> = Vec::with_capacity(client_counts.len());
    let mut saturation = None;
    for &clients in client_counts {
        let mut w = base.clone();
        w.clients = clients;
        let label = format!("{label_prefix} c{clients}");
        let metrics = run_workload(handle, store, benchmark, keys, &w, &label);
        if saturation.is_none() {
            if let Some(prev) = runs.last() {
                if metrics.throughput_ops_per_sec < prev.throughput_ops_per_sec * 1.10 {
                    saturation = Some(clients);
                }
            }
        }
        runs.push(metrics);
    }
    (runs, saturation)
}

/// Warms the store at `path` with `benchmark`'s snapshot under
/// `config` (collecting it if absent) and returns every stored series
/// key — the key population the query workload draws from.
///
/// # Errors
///
/// Propagates collection and store failures.
pub fn prepare_store(
    path: &std::path::Path,
    benchmark: Benchmark,
    config: &MinerConfig,
) -> Result<Vec<SeriesKey>, CmError> {
    let miner = CounterMiner::new(*config);
    let mut store = Store::open(path).map_err(CmError::Store)?;
    miner.ingest(benchmark, &mut store)?;
    Ok(store.series_keys().cloned().collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cm_events::{EventId, SampleMode};
    use cm_serve::{ServeConfig, Server};

    fn query_only() -> OpMix {
        OpMix {
            query: 1,
            analyze: 0,
            ranked: 0,
            info: 0,
            stream_append: 0,
        }
    }

    fn store_with_series(tag: &str, series: usize) -> (std::path::PathBuf, Vec<SeriesKey>) {
        let dir = std::env::temp_dir().join(format!("cm_load_unit_{}_{tag}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("load.cmstore");
        let _ = std::fs::remove_file(&path);
        let mut store = Store::open(&path).expect("open");
        let mut keys = Vec::new();
        for event in 0..series {
            let key = SeriesKey::new("prog", 0, SampleMode::Mlpx, EventId::new(event));
            let values: Vec<f64> = (0..64).map(|i| (event * 7 + i) as f64).collect();
            store.append_series(key.clone(), &values).expect("append");
            keys.push(key);
        }
        store.commit().expect("commit");
        (path, keys)
    }

    #[test]
    fn closed_loop_counts_every_operation() {
        let (path, keys) = store_with_series("closed", 8);
        let config = ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        };
        let mut server = Server::new(config);
        server.add_store("main", &path).expect("register");
        let handle = server.start();
        let workload = Workload {
            clients: 4,
            ops_per_client: 5,
            mix: query_only(),
            seed: 3,
            ..Workload::default()
        };
        let m = run_workload(&handle, "main", Benchmark::Sort, &keys, &workload, "t");
        assert_eq!(m.ops, 20);
        assert_eq!(m.errors, 0);
        assert_eq!(m.stats.requests, 20);
        assert_eq!(m.latency.count, 20);
        assert!(m.throughput_ops_per_sec > 0.0);
        assert!(m.latency.max_ns >= m.latency.p50_ns);
        handle.shutdown();
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn open_loop_paces_and_measures_from_intended_start() {
        let (path, keys) = store_with_series("open", 4);
        let config = ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        };
        let mut server = Server::new(config);
        server.add_store("main", &path).expect("register");
        let handle = server.start();
        let workload = Workload {
            clients: 2,
            ops_per_client: 4,
            mix: query_only(),
            mode: LoopMode::Open { rate_hz: 200.0 },
            seed: 9,
            ..Workload::default()
        };
        let m = run_workload(&handle, "main", Benchmark::Sort, &keys, &workload, "t");
        assert_eq!(m.ops, 8);
        assert_eq!(m.errors, 0);
        // 4 ops at 200 Hz = 15 ms of schedule per client at minimum.
        assert!(m.elapsed_ns >= 15_000_000, "run too fast: {}", m.elapsed_ns);
        handle.shutdown();
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn schedules_are_seed_deterministic() {
        let mix = OpMix::default();
        let keys: Vec<SeriesKey> = (0..6)
            .map(|e| SeriesKey::new("p", 0, SampleMode::Mlpx, EventId::new(e)))
            .collect();
        let draw = |seed: u64| -> Vec<Request> {
            let mut rng = Rng::new(seed);
            (0..20)
                .map(|_| pick_op(&mut rng, &mix, "main", Benchmark::Sort, &keys))
                .collect()
        };
        assert_eq!(draw(42), draw(42));
        assert_ne!(draw(42), draw(43));
    }

    #[test]
    fn empty_key_population_degrades_to_info() {
        let mut rng = Rng::new(0);
        let mix = query_only();
        for _ in 0..10 {
            let req = pick_op(&mut rng, &mix, "main", Benchmark::Sort, &[]);
            assert!(matches!(req, Request::Info { .. }));
        }
    }
}
