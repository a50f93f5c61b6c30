//! The persistent worker pool behind the parallel combinators.
//!
//! Parallel regions in this workspace can be *fine-grained* — a batch
//! prediction splits a few hundred rows into chunks — so spawning OS
//! threads per region would cost more than the work itself. Instead
//! a global set of workers is spawned once and fed region jobs through
//! a channel; each region is drained cooperatively by the workers *and*
//! the calling thread, which keeps nested regions deadlock-free (the
//! caller can always finish its own region even if every worker is
//! busy elsewhere).
//!
//! This is the one module of the workspace that uses `unsafe`: a region
//! closure is passed to the workers as a raw pointer, erasing its
//! lifetime. The safety argument is a strict happens-before protocol,
//! documented at the single `unsafe` block below.

#![allow(unsafe_code)]

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

type Job = Box<dyn FnOnce() + Send + 'static>;

struct Pool {
    tx: Mutex<Sender<Job>>,
    workers: usize,
}

fn lock_resilient<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn global_pool() -> Option<&'static Pool> {
    static POOL: OnceLock<Option<Pool>> = OnceLock::new();
    POOL.get_or_init(|| {
        // One worker fewer than the budget: the caller is the extra
        // runner. Size by the larger of the configured and hardware
        // budgets so a later `set_max_threads` up to the core count is
        // honored even if the pool was first used while capped.
        let size = crate::max_threads()
            .max(crate::hardware_threads())
            .saturating_sub(1);
        if size == 0 {
            return None;
        }
        let (tx, rx) = channel::<Job>();
        let rx = Arc::new(Mutex::new(rx));
        for k in 0..size {
            let rx = Arc::clone(&rx);
            let spawned = std::thread::Builder::new()
                .name(format!("cm-par-{k}"))
                .spawn(move || loop {
                    // The receiver lock is released before the job runs
                    // (the guard is a temporary of the `let` statement).
                    let job = lock_resilient(&rx).recv();
                    match job {
                        Ok(job) => job(),
                        Err(_) => return, // channel closed: shut down
                    }
                });
            if spawned.is_err() {
                // Could not spawn a full pool; report what we have. If
                // none spawned, fall back to serial execution forever.
                if k == 0 {
                    return None;
                }
                return Some(Pool {
                    tx: Mutex::new(tx),
                    workers: k,
                });
            }
        }
        Some(Pool {
            tx: Mutex::new(tx),
            workers: size,
        })
    })
    .as_ref()
}

/// A `Send`able raw pointer to a region's work closure. Holding the
/// pointer past the region's lifetime is fine (it is never dereferenced
/// after the last unit is claimed — see the safety comment in
/// [`Region::drain`]).
#[derive(Clone, Copy)]
struct WorkPtr(*const (dyn Fn(usize) + Sync));

// SAFETY: the pointee is `Sync` (shared calls from any thread are safe)
// and the drain protocol guarantees it is only dereferenced while the
// region's caller — who owns the closure — is still blocked in
// `run_units`.
unsafe impl Send for WorkPtr {}

/// Shared state of one parallel region.
struct Region {
    /// Next unclaimed unit index.
    next: AtomicUsize,
    /// Units fully executed (claim + call + bookkeeping).
    done: AtomicUsize,
    /// Total units.
    n: usize,
    /// First panic payload raised by a unit, rethrown by the caller.
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
    gate: Mutex<()>,
    cv: Condvar,
}

impl Region {
    fn new(n: usize) -> Self {
        Region {
            next: AtomicUsize::new(0),
            done: AtomicUsize::new(0),
            n,
            panic: Mutex::new(None),
            gate: Mutex::new(()),
            cv: Condvar::new(),
        }
    }

    /// Claims and runs units until none remain. Called by workers (via
    /// the erased pointer) and by the region's caller (with the real
    /// reference).
    fn drain(&self, work: WorkPtr) {
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.n {
                break;
            }
            // SAFETY: `i < n`, and every claimed unit below `n` is
            // followed by `mark_done`. The caller does not leave
            // `run_units` (by return *or* unwind) until `done == n`,
            // i.e. until after every such claim has finished its call —
            // so the closure behind the pointer is alive for the whole
            // call. Stale pool jobs arriving after the region completed
            // observe `i >= n` and never dereference.
            let f = unsafe { &*work.0 };
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| f(i))) {
                let mut slot = lock_resilient(&self.panic);
                if slot.is_none() {
                    *slot = Some(payload);
                }
            }
            self.mark_done();
        }
    }

    fn mark_done(&self) {
        if self.done.fetch_add(1, Ordering::AcqRel) + 1 == self.n {
            // Take the gate so the notify cannot race between the
            // caller's re-check and its wait.
            let _guard = lock_resilient(&self.gate);
            self.cv.notify_all();
        }
    }

    fn wait_all_done(&self) {
        let mut guard = lock_resilient(&self.gate);
        while self.done.load(Ordering::Acquire) < self.n {
            guard = self
                .cv
                .wait(guard)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
        }
    }
}

/// Drains the region, recording the runner's busy time under
/// `par.sched.worker.{thread-name}.busy_ns` when metrics are on. The
/// caller thread reports as `caller` unless it carries a name.
fn drain_timed(region: &Region, work: WorkPtr) {
    if !cm_obs::enabled() {
        region.drain(work);
        return;
    }
    let start = std::time::Instant::now();
    region.drain(work);
    let busy = start.elapsed().as_nanos() as u64;
    let thread = std::thread::current();
    let name = thread.name().unwrap_or("caller");
    cm_obs::counter_add(&format!("par.sched.worker.{name}.busy_ns"), busy);
}

/// Executes `f(0), f(1), …, f(n-1)` exactly once each, using up to the
/// current thread budget of runners, and returns once all calls have
/// finished. Panics from any unit are rethrown on the calling thread
/// after the region has fully quiesced.
pub(crate) fn run_units(n: usize, f: &(dyn Fn(usize) + Sync)) {
    let Some(pool) = global_pool() else {
        for i in 0..n {
            f(i);
        }
        return;
    };
    let runners = crate::max_threads().min(pool.workers + 1);
    let helpers = runners.saturating_sub(1).min(n.saturating_sub(1));
    if helpers == 0 {
        for i in 0..n {
            f(i);
        }
        return;
    }

    let region = Arc::new(Region::new(n));
    // SAFETY: pointer-to-pointer transmute that only erases the
    // closure's lifetime; layout is identical. Validity of later
    // dereferences is argued in `Region::drain`.
    let work = WorkPtr(unsafe {
        std::mem::transmute::<
            *const (dyn Fn(usize) + Sync + '_),
            *const (dyn Fn(usize) + Sync + 'static),
        >(f as *const (dyn Fn(usize) + Sync))
    });
    {
        let tx = lock_resilient(&pool.tx);
        for _ in 0..helpers {
            let region = Arc::clone(&region);
            // When metrics are on, stamp the job at enqueue so the
            // worker can report its queue wait. Scheduling metrics live
            // under `par.sched.*`: they inherently vary with the thread
            // budget and are exempt from the determinism rule.
            let sent_at = cm_obs::enabled().then(std::time::Instant::now);
            // Ignore send failures (workers gone): the caller drains.
            let _ = tx.send(Box::new(move || {
                if let Some(sent_at) = sent_at {
                    cm_obs::counter_add("par.sched.helper_jobs", 1);
                    if region.next.load(Ordering::Relaxed) >= region.n {
                        // Every unit was claimed before this job left
                        // the queue — typically a region opened inside
                        // another region's unit while every worker ran
                        // an outer unit, so its caller drained it alone.
                        // Its wait delayed no unit: count it apart.
                        cm_obs::counter_add("par.sched.stale_jobs", 1);
                    } else {
                        cm_obs::counter_add(
                            "par.sched.queue_wait_ns",
                            sent_at.elapsed().as_nanos() as u64,
                        );
                    }
                }
                drain_timed(&region, work);
            }));
        }
    }

    // The caller participates, then blocks until every unit — including
    // those claimed by workers — has completed. This wait is what keeps
    // the erased pointer valid for the workers.
    drain_timed(&region, work);
    region.wait_all_done();

    let payload = lock_resilient(&region.panic).take();
    if let Some(payload) = payload {
        std::panic::resume_unwind(payload);
    }
}

/// Workers in the global pool (spawning it on first use); 0 when it
/// could not spawn any.
#[cfg(test)]
pub(crate) fn workers() -> usize {
    global_pool().map_or(0, |pool| pool.workers)
}
