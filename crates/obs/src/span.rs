//! Hierarchical RAII span timers.

use crate::Registry;
use std::cell::RefCell;
use std::time::Instant;

thread_local! {
    /// Stack of full span paths open on this thread; the top is the
    /// parent of the next span entered here.
    static STACK: RefCell<Vec<String>> = const { RefCell::new(Vec::new()) };
}

/// An open span; records its wall time into the global [`Registry`]
/// under its slash-joined path when dropped. Created by the
/// [`span!`](crate::span!) macro (or [`span_enter`] directly).
///
/// Guards are expected to drop in LIFO order (the natural order of
/// `let` bindings in nested scopes); dropping out of order corrupts the
/// parentage of subsequently opened spans, not any recorded time.
#[must_use = "a span records its time when the guard drops"]
#[derive(Debug)]
pub struct SpanGuard {
    /// `None` when collection was off at entry — the drop is free.
    path: Option<String>,
    start: Instant,
    /// Whether this guard pushed its path onto the thread-local stack
    /// (and must remove it on drop). Detached request spans never do.
    on_stack: bool,
}

impl SpanGuard {
    /// A guard that records nothing — what [`span!`](crate::span!)
    /// returns when collection is off.
    pub fn disabled() -> Self {
        SpanGuard {
            path: None,
            start: Instant::now(),
            on_stack: false,
        }
    }

    /// A portable handle to this span, usable as the explicit parent of
    /// spans opened on *other* threads via [`span_enter_under`] — the
    /// serving layer ships one with each request so work executed on a
    /// pool worker attaches under the request's span instead of the
    /// worker's thread-local root.
    pub fn handle(&self) -> SpanHandle {
        SpanHandle {
            path: self.path.clone(),
        }
    }
}

/// A cloneable, `Send` reference to an open span's path, produced by
/// [`SpanGuard::handle`] and consumed by [`span_enter_under`].
///
/// A handle taken from a disabled guard (collection was off) yields
/// root spans when used as a parent.
///
/// # Examples
///
/// ```
/// let request = cm_obs::span!("serve.request");
/// let parent = request.handle();
/// std::thread::scope(|s| {
///     s.spawn(move || {
///         // Attaches under "serve.request", not this thread's root.
///         let _exec = cm_obs::span_enter_under(&parent, "serve.exec".to_string());
///     });
/// });
/// ```
#[derive(Debug, Clone)]
pub struct SpanHandle {
    /// Full slash-joined path of the span, `None` if it was disabled.
    path: Option<String>,
}

/// Enters a span named `name` (used by the [`span!`](crate::span!)
/// macro; the macro is the usual entry point because it also formats
/// `key = value` fields and skips all work when collection is off).
pub fn span_enter(name: String) -> SpanGuard {
    if !crate::enabled() {
        return SpanGuard::disabled();
    }
    let path = STACK.with(|stack| {
        let mut stack = stack.borrow_mut();
        let path = match stack.last() {
            Some(parent) => format!("{parent}/{name}"),
            None => name,
        };
        stack.push(path.clone());
        path
    });
    SpanGuard {
        path: Some(path),
        start: Instant::now(),
        on_stack: true,
    }
}

/// Enters a span that parents off the current thread's open span (like
/// [`span_enter`]) but does **not** become the parent of later spans on
/// this thread: it stays off the thread-local stack. This is the shape
/// for request-scoped spans held across an async boundary — a client
/// can hold many open request spans at once without each nesting under
/// the previous one. Children attach explicitly via the guard's
/// [`SpanGuard::handle`] and [`span_enter_under`].
pub fn span_enter_detached(name: String) -> SpanGuard {
    if !crate::enabled() {
        return SpanGuard::disabled();
    }
    let path = STACK.with(|stack| match stack.borrow().last() {
        Some(parent) => format!("{parent}/{name}"),
        None => name,
    });
    SpanGuard {
        path: Some(path),
        start: Instant::now(),
        on_stack: false,
    }
}

/// Enters a span under an explicit parent instead of this thread's
/// span stack — the request-per-thread fix: a pool worker executing on
/// behalf of a request passes the request's [`SpanHandle`] so its work
/// appears under `request/...` in the span tree rather than as a root
/// of the worker thread. The new span *does* join this thread's stack,
/// so spans it opens transitively nest under it as usual.
///
/// With collection off this is free; with a disabled parent (its span
/// was entered while collection was off) the span becomes a root.
pub fn span_enter_under(parent: &SpanHandle, name: String) -> SpanGuard {
    if !crate::enabled() {
        return SpanGuard::disabled();
    }
    let path = match &parent.path {
        Some(p) => format!("{p}/{name}"),
        None => name,
    };
    STACK.with(|stack| stack.borrow_mut().push(path.clone()));
    SpanGuard {
        path: Some(path),
        start: Instant::now(),
        on_stack: true,
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(path) = self.path.take() else {
            return;
        };
        let elapsed = self.start.elapsed();
        if self.on_stack {
            STACK.with(|stack| {
                let mut stack = stack.borrow_mut();
                // LIFO in the expected case; tolerate disorder by
                // removing this span's entry wherever it is.
                if let Some(pos) = stack.iter().rposition(|p| *p == path) {
                    stack.remove(pos);
                }
            });
        }
        Registry::global().record_span(&path, elapsed);
    }
}

#[cfg(test)]
mod tests {
    use crate::{with_collection, Mode, Registry};

    #[test]
    fn nested_spans_form_paths() {
        let snap = with_collection(|| {
            {
                let _a = crate::span!("analyze");
                {
                    let _b = crate::span!("eir");
                    let _c = crate::span!("eir.round", round = 0);
                }
                let _d = crate::span!("interactions");
            }
            Registry::global().drain()
        });
        for path in [
            "analyze",
            "analyze/eir",
            "analyze/eir/eir.round{round=0}",
            "analyze/interactions",
        ] {
            assert_eq!(snap.spans[path].count, 1, "missing {path}");
        }
    }

    #[test]
    fn repeated_spans_aggregate() {
        let snap = with_collection(|| {
            for _ in 0..5 {
                let _s = crate::span!("stage");
            }
            Registry::global().drain()
        });
        assert_eq!(snap.spans["stage"].count, 5);
    }

    #[test]
    fn sibling_threads_have_independent_parents() {
        let snap = with_collection(|| {
            let _outer = crate::span!("outer");
            std::thread::scope(|s| {
                s.spawn(|| {
                    let _w = crate::span!("worker_side");
                });
            });
            drop(_outer);
            Registry::global().drain()
        });
        // The spawned thread has its own (empty) stack: its span is a
        // root, not a child of `outer`.
        assert_eq!(snap.spans["worker_side"].count, 1);
        assert_eq!(snap.spans["outer"].count, 1);
    }

    /// The request-per-thread fix: a span opened on a worker thread on
    /// behalf of a request attaches under the request's span via its
    /// explicit handle — and spans nested inside it chain normally.
    #[test]
    fn worker_spans_attach_under_explicit_parent() {
        let snap = with_collection(|| {
            let request = crate::span_enter_detached("serve.request".to_string());
            let parent = request.handle();
            std::thread::scope(|s| {
                s.spawn(move || {
                    let _exec = crate::span_enter_under(&parent, "serve.exec".to_string());
                    let _inner = crate::span!("decode");
                });
            });
            drop(request);
            Registry::global().drain()
        });
        assert_eq!(snap.spans["serve.request"].count, 1);
        assert_eq!(snap.spans["serve.request/serve.exec"].count, 1);
        assert_eq!(snap.spans["serve.request/serve.exec/decode"].count, 1);
    }

    /// Detached spans don't parent later spans on their own thread: two
    /// requests held concurrently by one client are siblings, and an
    /// unrelated span opened while they're live is a root.
    #[test]
    fn detached_spans_stay_off_the_thread_stack() {
        let snap = with_collection(|| {
            let a = crate::span_enter_detached("req_a".to_string());
            let b = crate::span_enter_detached("req_b".to_string());
            let other = crate::span!("tick");
            drop(other);
            drop(a);
            drop(b);
            Registry::global().drain()
        });
        assert_eq!(snap.spans["req_a"].count, 1);
        assert_eq!(snap.spans["req_b"].count, 1);
        assert_eq!(snap.spans["tick"].count, 1);
        assert!(!snap.spans.contains_key("req_a/req_b"));
        assert!(!snap.spans.contains_key("req_a/tick"));
    }

    /// A handle taken while collection was off parents nothing: the
    /// child becomes a root instead of inheriting a stale path.
    #[test]
    fn disabled_parent_handle_yields_root_child() {
        let snap = with_collection(|| {
            crate::set_mode(Mode::Off);
            let off_guard = crate::span_enter_detached("ghost_req".to_string());
            let handle = off_guard.handle();
            crate::set_mode(Mode::Summary);
            let _child = crate::span_enter_under(&handle, "orphan_exec".to_string());
            drop(_child);
            drop(off_guard);
            Registry::global().drain()
        });
        assert_eq!(snap.spans["orphan_exec"].count, 1);
        assert!(!snap.spans.contains_key("ghost_req"));
    }

    #[test]
    fn multi_field_spans_format_all_fields() {
        let snap = with_collection(|| {
            let _s = crate::span!("fit", round = 2, events = 40);
            drop(_s);
            Registry::global().drain()
        });
        assert_eq!(snap.spans["fit{round=2,events=40}"].count, 1);
    }

    #[test]
    fn disabled_spans_cost_no_registry_entries() {
        let snap = with_collection(|| {
            crate::set_mode(Mode::Off);
            {
                let _s = crate::span!("ghost", id = 1);
            }
            Registry::global().drain()
        });
        assert!(!snap.spans.contains_key("ghost{id=1}"));
    }
}
