//! Deterministic parallel execution layer for the CounterMiner workspace.
//!
//! Every compute kernel of the pipeline — SGBRT batch prediction, the
//! O(P²) interaction-pair sweeps, per-series cleaning, the PMU simulator's
//! runs — is embarrassingly parallel at some granularity,
//! but the results must stay **bit-identical at any thread count**: the
//! paper's rankings are compared across runs, and a ranking that changes
//! with the machine's core count is a reproducibility bug. This crate
//! provides the small set of combinators the workspace parallelizes
//! with, all of which preserve input order:
//!
//! * [`map`] / [`try_map`] — parallel map over a slice, results in input
//!   order; `try_map` returns the error of the *lowest-indexed* failing
//!   item, exactly like a serial `?` loop,
//! * [`map_range`] — parallel map over `0..n`,
//! * [`map_chunked`] — parallel map over contiguous index chunks,
//!   flattened back in order (for per-row kernels too cheap to schedule
//!   individually),
//! * [`join`] — run two closures concurrently.
//!
//! It also holds the workspace's one seeded generator, [`Rng`] (see
//! [`rng`]): every seeded draw in the pipeline comes from it, so the
//! draws a parallel region makes are keyed on seeds, never on threads.
//!
//! Work is executed on a lazily-spawned global pool of persistent worker
//! threads (spawning an OS thread per parallel region would dwarf short
//! regions such as a batch prediction's row chunks). The calling thread
//! always participates in its own region, so nested regions — e.g. a
//! parallel work item whose model bins its features and predicts in
//! parallel — cannot deadlock even when every worker is busy.
//!
//! # Thread-count control
//!
//! The effective thread budget is resolved, in priority order, from
//! [`set_max_threads`], the `CM_THREADS` environment variable, and
//! [`std::thread::available_parallelism`]. A budget of 1 (or building
//! with `--no-default-features`) runs every combinator serially on the
//! calling thread.
//!
//! # Examples
//!
//! ```
//! let squares = cm_par::map_range(8, |i| i * i);
//! assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
//!
//! let sums = cm_par::map(&[1u64, 2, 3], |&x| x + 10);
//! assert_eq!(sums, vec![11, 12, 13]);
//! ```

#![deny(unsafe_code)]
#![deny(missing_docs)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

#[cfg(feature = "parallel")]
mod pool;
pub mod rng;

pub use rng::Rng;

/// Explicit thread-count override; 0 means "not set".
static OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// `CM_THREADS` parsed once; 0 means "absent or invalid".
static ENV_THREADS: OnceLock<usize> = OnceLock::new();

fn env_threads() -> usize {
    *ENV_THREADS.get_or_init(|| {
        std::env::var("CM_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .unwrap_or(0)
    })
}

fn hardware_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The thread budget parallel regions run with: the
/// [`set_max_threads`] override if set, else `CM_THREADS`, else the
/// hardware parallelism. Always at least 1.
pub fn max_threads() -> usize {
    let o = OVERRIDE.load(Ordering::Relaxed);
    let n = if o > 0 {
        o
    } else {
        let e = env_threads();
        if e > 0 {
            e
        } else {
            hardware_threads()
        }
    };
    n.max(1)
}

/// Overrides the thread budget for subsequent parallel regions.
///
/// `n = 0` clears the override (falling back to `CM_THREADS` or the
/// hardware parallelism); `n = 1` forces serial execution. Budgets above
/// the pool size established at first use are capped to it.
pub fn set_max_threads(n: usize) {
    OVERRIDE.store(n, Ordering::Relaxed);
}

/// Records one parallel region of `units` logical work items with the
/// observability layer. Counted at the public combinator entry points
/// (never in internal re-dispatch), so `par.regions` / `par.units` are
/// thread-count invariant: they describe the work submitted, not how
/// the scheduler carved it up.
#[inline]
fn record_region(units: usize) {
    if cm_obs::enabled() {
        cm_obs::counter_add("par.regions", 1);
        cm_obs::counter_add("par.units", units as u64);
    }
}

/// Runs `f(i)` for every `i` in `0..n` and returns the results in index
/// order. Deterministic: the output never depends on the thread budget.
///
/// # Examples
///
/// ```
/// let squares = cm_par::map_range(5, |i| i * i);
/// assert_eq!(squares, vec![0, 1, 4, 9, 16]);
/// ```
pub fn map_range<R, F>(n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    record_region(n);
    map_range_inner(n, f)
}

/// [`map_range`] without the region accounting — the shared body every
/// counted entry point dispatches to.
fn map_range_inner<R, F>(n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    #[cfg(feature = "parallel")]
    {
        if n > 1 && max_threads() > 1 {
            use std::sync::Mutex;
            // One slot per unit keeps the output in index order no
            // matter which thread computes it; each slot's lock is
            // touched exactly once.
            let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
            let work = |i: usize| {
                let r = f(i);
                *slots[i].lock().unwrap_or_else(|e| e.into_inner()) = Some(r);
            };
            pool::run_units(n, &work);
            return slots
                .into_iter()
                .map(|m| {
                    m.into_inner()
                        .unwrap_or_else(|e| e.into_inner())
                        .expect("every unit of a completed region has run")
                })
                .collect();
        }
    }
    (0..n).map(f).collect()
}

/// Parallel map over a slice, results in input order.
///
/// # Examples
///
/// ```
/// let sums = cm_par::map(&[1u64, 2, 3], |&x| x + 10);
/// assert_eq!(sums, vec![11, 12, 13]);
/// ```
pub fn map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    map_range(items.len(), |i| f(&items[i]))
}

/// Parallel fallible map over a slice. On failure, returns the error of
/// the lowest-indexed failing item — exactly what a serial `?` loop
/// would have surfaced — so error behavior is thread-count independent.
///
/// # Errors
///
/// Returns the first (by input index) error produced by `f`.
pub fn try_map<T, R, E, F>(items: &[T], f: F) -> Result<Vec<R>, E>
where
    T: Sync,
    R: Send,
    E: Send,
    F: Fn(&T) -> Result<R, E> + Sync,
{
    let mut out = Vec::with_capacity(items.len());
    for r in map_range(items.len(), |i| f(&items[i])) {
        out.push(r?);
    }
    Ok(out)
}

/// Splits `0..n` into contiguous chunks of at least `min_chunk`
/// elements, maps each chunk with `f`, and flattens the per-chunk
/// results back in order. For kernels (tree prediction, DTW cells) too
/// cheap to schedule one element at a time.
///
/// `f` must return exactly one result per index of its chunk for the
/// flattened output to line up with `0..n`.
pub fn map_chunked<R, F>(n: usize, min_chunk: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(std::ops::Range<usize>) -> Vec<R> + Sync,
{
    if n == 0 {
        return Vec::new();
    }
    record_region(n);
    let budget = max_threads();
    // Aim for a few chunks per thread so the atomic-counter scheduler
    // can balance uneven work, but never below the caller's floor.
    let chunk = n
        .div_ceil(budget.saturating_mul(4).max(1))
        .max(min_chunk.max(1));
    let n_chunks = n.div_ceil(chunk);
    // The chunk count depends on the thread budget, so the inner
    // dispatch must not count it as units.
    let per_chunk = map_range_inner(n_chunks, |c| {
        let lo = c * chunk;
        let hi = (lo + chunk).min(n);
        f(lo..hi)
    });
    let mut out = Vec::with_capacity(n);
    for mut v in per_chunk {
        out.append(&mut v);
    }
    out
}

/// Runs two closures, concurrently when the thread budget allows, and
/// returns both results. Intended for coarse two-way splits (e.g.
/// projecting a train and a test view of a dataset).
pub fn join<RA, RB, A, B>(a: A, b: B) -> (RA, RB)
where
    RA: Send,
    RB: Send,
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
{
    record_region(2);
    #[cfg(feature = "parallel")]
    {
        if max_threads() > 1 {
            return std::thread::scope(|s| {
                let hb = s.spawn(b);
                let ra = a();
                let rb = match hb.join() {
                    Ok(rb) => rb,
                    Err(payload) => std::panic::resume_unwind(payload),
                };
                (ra, rb)
            });
        }
    }
    let ra = a();
    let rb = b();
    (ra, rb)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    /// Serializes tests that mutate the global thread override.
    fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_max_threads(n);
        let out = f();
        set_max_threads(0);
        out
    }

    #[test]
    fn map_range_preserves_order() {
        for threads in [1, 2, 8] {
            let got = with_threads(threads, || map_range(1000, |i| i * 3));
            assert_eq!(got, (0..1000).map(|i| i * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn map_matches_serial_iterator() {
        let items: Vec<u64> = (0..257).collect();
        let serial: Vec<u64> = items.iter().map(|&x| x * x + 1).collect();
        for threads in [1, 3, 16] {
            let got = with_threads(threads, || map(&items, |&x| x * x + 1));
            assert_eq!(got, serial);
        }
    }

    #[test]
    fn try_map_returns_lowest_index_error() {
        let items: Vec<usize> = (0..500).collect();
        for threads in [1, 4] {
            let got: Result<Vec<usize>, usize> = with_threads(threads, || {
                try_map(&items, |&x| if x % 7 == 3 { Err(x) } else { Ok(x) })
            });
            assert_eq!(got, Err(3));
        }
        let ok: Result<Vec<usize>, usize> = try_map(&items, |&x| Ok(x));
        assert_eq!(ok.unwrap(), items);
    }

    #[test]
    fn map_chunked_flattens_in_order() {
        for threads in [1, 5] {
            let got = with_threads(threads, || {
                map_chunked(1003, 16, |r| r.map(|i| i as u64 * 2).collect())
            });
            assert_eq!(got, (0..1003).map(|i| i * 2).collect::<Vec<u64>>());
        }
    }

    #[test]
    fn join_returns_both_results() {
        for threads in [1, 2] {
            let (a, b) = with_threads(threads, || join(|| 2 + 2, || "ok".to_string()));
            assert_eq!(a, 4);
            assert_eq!(b, "ok");
        }
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<u8> = Vec::new();
        assert!(map(&empty, |&x| x).is_empty());
        assert_eq!(map_range(1, |i| i), vec![0]);
        assert!(map_chunked(0, 8, |r| r.collect::<Vec<_>>()).is_empty());
    }

    #[test]
    fn nested_regions_complete() {
        // A region whose work items each open their own region — the
        // shape a parallel fit + batch prediction produces. Must not
        // deadlock even when the pool is saturated.
        let got = with_threads(4, || {
            map_range(8, |i| {
                map_range(64, |j| (i * 64 + j) as u64).iter().sum::<u64>()
            })
        });
        let want: Vec<u64> = (0..8u64)
            .map(|i| (0..64u64).map(|j| i * 64 + j).sum())
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn results_are_thread_count_invariant_under_load() {
        let baseline = map_range(2048, |i| (i as u64).wrapping_mul(0x9E37_79B9));
        for threads in [2, 3, 8] {
            let got = with_threads(threads, || {
                map_range(2048, |i| (i as u64).wrapping_mul(0x9E37_79B9))
            });
            assert_eq!(got, baseline);
        }
    }

    #[cfg(feature = "parallel")]
    #[test]
    fn worker_panics_propagate_to_caller() {
        let result = std::panic::catch_unwind(|| {
            with_threads(4, || {
                map_range(128, |i| {
                    if i == 77 {
                        panic!("unit 77 exploded");
                    }
                    i
                })
            })
        });
        assert!(result.is_err());
        // The pool must stay usable after a panicked region.
        let after = with_threads(4, || map_range(32, |i| i + 1));
        assert_eq!(after, (1..=32).collect::<Vec<_>>());
    }

    /// A region opened inside another region's unit while every other
    /// runner holds an outer unit: its helper job waits in the queue
    /// until its caller has drained it alone. Such a job is counted as
    /// `par.sched.stale_jobs`, and its wait — here at least `HOLD` —
    /// stays out of `par.sched.queue_wait_ns`.
    #[cfg(feature = "parallel")]
    #[test]
    fn helper_job_of_a_drained_nested_region_is_stale() {
        use std::sync::atomic::AtomicBool;
        use std::time::{Duration, Instant};
        const HOLD: Duration = Duration::from_secs(1);
        let workers = with_threads(16, pool::workers);
        if workers == 0 {
            return; // serial fallback: no queue to wait in
        }
        let counters = with_threads(workers + 1, || {
            cm_obs::set_mode(cm_obs::Mode::Summary);
            cm_obs::Registry::global().drain();
            let inner_done = AtomicBool::new(false);
            pool::run_units(workers + 1, &|i| {
                if i == 0 {
                    pool::run_units(2, &|_| {});
                    std::thread::sleep(HOLD);
                    inner_done.store(true, Ordering::Release);
                } else {
                    while !inner_done.load(Ordering::Acquire) {
                        std::thread::yield_now();
                    }
                }
            });
            // The stale job runs once a worker has left its outer unit.
            let mut counters = std::collections::BTreeMap::<String, u64>::new();
            let deadline = Instant::now() + Duration::from_secs(30);
            while !counters.contains_key("par.sched.stale_jobs") && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(5));
                for (name, v) in cm_obs::Registry::global().drain().counters {
                    *counters.entry(name).or_default() += v;
                }
            }
            cm_obs::set_mode(cm_obs::Mode::Off);
            counters
        });
        assert!(
            counters.get("par.sched.stale_jobs") >= Some(&1),
            "{counters:?}"
        );
        let waited = counters
            .get("par.sched.queue_wait_ns")
            .copied()
            .unwrap_or(0);
        assert!(
            waited < HOLD.as_nanos() as u64,
            "a stale job's wait was counted: {counters:?}"
        );
    }

    #[test]
    fn work_actually_runs_once_per_unit() {
        let counter = AtomicU64::new(0);
        let out = with_threads(8, || {
            map_range(513, |i| {
                counter.fetch_add(1, Ordering::Relaxed);
                i
            })
        });
        assert_eq!(counter.load(Ordering::Relaxed), 513);
        assert_eq!(out.len(), 513);
    }
}
