//! Persistent columnar store throughput: encode+commit of a whole
//! store, append commits, cold reads and cached reads (group `store`);
//! and the read path's decode throughput, batched cold reads vs the
//! per-key loop, warm cache hits, and serial vs parallel chunk decode
//! (group `store_read`).
//!
//! The `store_read` group is the perf-gate anchor for the zero-copy
//! batched read path (`Store::read_series_batch`): committed baselines
//! live in `BENCH_store_read.json` and `cm-bench --bin perf_gate`
//! compares fresh runs against them.

use cm_bench::sampler::Sampler;
use cm_events::{EventId, SampleMode};
use cm_store::{CacheConfig, SeriesKey, Store};
use std::path::PathBuf;

const RUNS: u32 = 4;
const EVENTS: usize = 16;

fn bench_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "cm_bench_store_{}_{name}.cmstore",
        std::process::id()
    ))
}

/// Integral counter-like values (DeltaVarint-eligible).
fn counter_series(run: u32, event: usize, n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| (1000 + (i as u64 * 37 + run as u64 * 101 + event as u64 * 13) % 4096) as f64)
        .collect()
}

/// Writes a fully committed store with `RUNS × EVENTS` series of `n`
/// values each, returning it ready for reads.
fn committed_store(path: &PathBuf, n: usize, cache: CacheConfig) -> Store {
    let _ = std::fs::remove_file(path);
    let mut store = Store::open_with(path, cache).unwrap();
    for run in 0..RUNS {
        for event in 0..EVENTS {
            store
                .append_series(
                    SeriesKey::new("bench", run, SampleMode::Mlpx, EventId::new(event)),
                    &counter_series(run, event, n),
                )
                .unwrap();
        }
    }
    store.commit().unwrap();
    store
}

fn all_keys() -> Vec<SeriesKey> {
    let mut keys = Vec::with_capacity(RUNS as usize * EVENTS);
    for run in 0..RUNS {
        for event in 0..EVENTS {
            keys.push(SeriesKey::new(
                "bench",
                run,
                SampleMode::Mlpx,
                EventId::new(event),
            ));
        }
    }
    keys
}

fn bench_store(s: &mut Sampler) {
    let mut group = s.group("store", 20);

    for n in [256usize, 1024] {
        // Stage + encode + atomically commit a whole store.
        let path = bench_path("commit");
        group.bench(format!("commit/{n}"), || {
            let store = committed_store(&path, n, CacheConfig::default());
            std::hint::black_box(store.info().file_bytes)
        });
        let _ = std::fs::remove_file(&path);

        // Append an 8-value tail to one series of a committed store:
        // the commit writes the new chunk, an index delta and one slot
        // (plus, every so often, a chain re-encode or a compaction).
        let path = bench_path("commit_append");
        let mut store = committed_store(&path, n, CacheConfig::default());
        let target = SeriesKey::new("bench", 0, SampleMode::Mlpx, EventId::new(0));
        let tail = counter_series(0, 0, 8);
        group.bench(format!("commit_append/{n}"), || {
            store.extend_series(target.clone(), &tail).unwrap();
            store.commit().unwrap();
            std::hint::black_box(store.info().file_bytes)
        });
        drop(store);
        let _ = std::fs::remove_file(&path);

        // Cold reads: cache disabled, every read decodes from disk.
        let path = bench_path("read_cold");
        let store = committed_store(
            &path,
            n,
            CacheConfig {
                capacity_bytes: 0,
                ..CacheConfig::default()
            },
        );
        group.bench(format!("read_cold/{n}"), || {
            let mut sum = 0.0f64;
            for run in 0..RUNS {
                for event in 0..EVENTS {
                    let key = SeriesKey::new("bench", run, SampleMode::Mlpx, EventId::new(event));
                    sum += store.read_series(std::hint::black_box(&key)).unwrap()[0];
                }
            }
            sum
        });
        drop(store);
        let _ = std::fs::remove_file(&path);

        // Warm reads: default cache, steady-state hits after first pass.
        let path = bench_path("read_cached");
        let store = committed_store(&path, n, CacheConfig::default());
        for run in 0..RUNS {
            for event in 0..EVENTS {
                let key = SeriesKey::new("bench", run, SampleMode::Mlpx, EventId::new(event));
                store.read_series(&key).unwrap();
            }
        }
        group.bench(format!("read_cached/{n}"), || {
            let mut sum = 0.0f64;
            for run in 0..RUNS {
                for event in 0..EVENTS {
                    let key = SeriesKey::new("bench", run, SampleMode::Mlpx, EventId::new(event));
                    sum += store.read_series(std::hint::black_box(&key)).unwrap()[0];
                }
            }
            sum
        });
        drop(store);
        let _ = std::fs::remove_file(&path);
    }
}

fn batch_sum(store: &Store, keys: &[SeriesKey]) -> f64 {
    store
        .read_series_batch(std::hint::black_box(keys))
        .unwrap()
        .iter()
        .map(|v| v[0])
        .sum()
}

fn bench_store_read(s: &mut Sampler) {
    let mut group = s.group("store_read", 20);
    let no_cache = CacheConfig {
        capacity_bytes: 0,
        ..CacheConfig::default()
    };
    let keys = all_keys();

    for n in [256usize, 1024] {
        // Cold per-key loop: one positioned read + decode per chunk.
        let path = bench_path("per_key_cold");
        let store = committed_store(&path, n, no_cache);
        group.bench(format!("per_key_cold/{n}"), || {
            let mut sum = 0.0f64;
            for key in &keys {
                sum += store.read_series(std::hint::black_box(key)).unwrap()[0];
            }
            sum
        });
        drop(store);
        let _ = std::fs::remove_file(&path);

        // Cold batch: coalesced region reads + parallel borrowed decode.
        let path = bench_path("batch_cold");
        let store = committed_store(&path, n, no_cache);
        group.bench(format!("batch_cold/{n}"), || batch_sum(&store, &keys));

        // Same workload with the decode fan-out pinned to one thread:
        // the parallel-vs-serial decode delta on this machine.
        cm_par::set_max_threads(1);
        group.bench(format!("batch_cold_serial/{n}"), || {
            batch_sum(&store, &keys)
        });
        cm_par::set_max_threads(0);
        drop(store);
        let _ = std::fs::remove_file(&path);

        // Warm batch: every chunk already resident in the block cache.
        let path = bench_path("batch_warm");
        let store = committed_store(&path, n, CacheConfig::default());
        batch_sum(&store, &keys);
        group.bench(format!("batch_warm/{n}"), || batch_sum(&store, &keys));
        drop(store);
        let _ = std::fs::remove_file(&path);
    }
}

fn main() {
    let mut s = Sampler::from_args("store");
    bench_store(&mut s);
    bench_store_read(&mut s);
    s.finish();
}
