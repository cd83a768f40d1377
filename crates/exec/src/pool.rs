//! Scoped-thread work-stealing job pool.
//!
//! The pool is built entirely on `std`: cells are distributed round-robin
//! across per-worker deques, each worker pops from the front of its own
//! deque and steals from the back of its neighbours' once it runs dry.
//! Results are written into a slot per cell, so the output order always
//! matches the input order regardless of which worker ran which cell.

use std::collections::VecDeque;
use std::sync::Mutex;

/// Resolves a requested worker count to an effective one.
///
/// `0` means "auto": use `PSCA_JOBS` if set to a positive integer,
/// otherwise [`std::thread::available_parallelism`].
pub fn resolve_jobs(requested: usize) -> usize {
    if requested > 0 {
        return requested;
    }
    if let Ok(v) = std::env::var("PSCA_JOBS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Maps `f` over `items` on up to `jobs` workers, preserving input order.
///
/// `f` receives `(cell_index, item)`. With `jobs <= 1` (or a single item)
/// the map runs inline on the calling thread — same code path a worker
/// would take, so results are identical by construction. A panic inside
/// `f` propagates to the caller once the scope joins.
///
/// The caller's request-scoped trace context (if any) and its open spans
/// are forwarded to every worker thread, so spans recorded inside `f`
/// stay attributed to the request that fanned out and nest under the
/// caller's spans at any `jobs` — observability only, never affecting
/// results.
pub fn map_indexed<T, R, F>(jobs: usize, items: Vec<T>, f: &F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let n = items.len();
    if jobs <= 1 || n <= 1 {
        return items
            .into_iter()
            .enumerate()
            .map(|(i, t)| f(i, t))
            .collect();
    }
    let ctx = psca_obs::ctx::current();
    let spans = psca_obs::span::open_spans();
    let workers = jobs.min(n);
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let queues: Vec<Mutex<VecDeque<usize>>> = (0..workers)
        .map(|w| Mutex::new((0..n).filter(|i| i % workers == w).collect()))
        .collect();
    let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();

    std::thread::scope(|scope| {
        for w in 0..workers {
            let queues = &queues;
            let slots = &slots;
            let results = &results;
            let spans = &spans;
            scope.spawn(move || {
                let _ctx_guard = ctx.map(psca_obs::ctx::attach);
                let _span_guard = psca_obs::span::inherit(spans);
                loop {
                    // Bind the owned-queue pop before matching on it: a
                    // `match` scrutinee's temporaries (here the queue's
                    // MutexGuard) live to the end of the match, so
                    // stealing inside the None arm would hold our own
                    // queue's lock while taking a neighbour's — workers
                    // going dry together then hold-and-wait in a cycle
                    // and the sweep deadlocks.
                    let own = queues[w].lock().unwrap().pop_front();
                    let idx = match own {
                        Some(i) => Some(i),
                        None => (1..workers)
                            .find_map(|off| queues[(w + off) % workers].lock().unwrap().pop_back()),
                    };
                    let Some(i) = idx else { break };
                    let Some(item) = slots[i].lock().unwrap().take() else {
                        continue;
                    };
                    let out = f(i, item);
                    *results[i].lock().unwrap() = Some(out);
                }
            });
        }
    });

    results
        .into_iter()
        .map(|m| {
            m.into_inner()
                .unwrap()
                .expect("every cell index was executed exactly once")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn preserves_input_order() {
        let items: Vec<usize> = (0..97).collect();
        let out = map_indexed(4, items.clone(), &|i, x| {
            assert_eq!(i, x);
            x * 3
        });
        assert_eq!(out, (0..97).map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn serial_and_parallel_agree() {
        let items: Vec<u64> = (0..50).collect();
        let f = |_i: usize, x: u64| x.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17);
        let serial = map_indexed(1, items.clone(), &f);
        let parallel = map_indexed(8, items, &f);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn more_workers_than_items() {
        let out = map_indexed(16, vec![1, 2, 3], &|_, x| x + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn every_cell_runs_exactly_once() {
        let ran = AtomicUsize::new(0);
        let out = map_indexed(3, (0..200).collect::<Vec<_>>(), &|_, x: i32| {
            ran.fetch_add(1, Ordering::Relaxed);
            x
        });
        assert_eq!(out.len(), 200);
        assert_eq!(ran.load(Ordering::Relaxed), 200);
    }

    #[test]
    fn steal_path_never_holds_own_queue_lock() {
        // Regression: the steal arm used to run with the worker's own
        // queue guard still held (a match-scrutinee temporary lives to
        // the end of the match), so workers going dry together could
        // hold-and-wait in a cycle. Hammer many tiny sweeps; the
        // watchdog turns a recurrence into a failure instead of a hung
        // test suite.
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            for round in 0..200u64 {
                let items: Vec<u64> = (0..64).collect();
                let out = map_indexed(8, items, &|_, x| x ^ round);
                assert_eq!(out.len(), 64);
            }
            tx.send(()).unwrap();
        });
        rx.recv_timeout(std::time::Duration::from_secs(60))
            .expect("parallel sweeps deadlocked in the steal path");
    }

    #[test]
    fn workers_inherit_callers_trace_context() {
        let ctx = psca_obs::TraceCtx::mint();
        let _guard = psca_obs::ctx::attach(ctx);
        let seen = map_indexed(4, (0..16).collect::<Vec<u32>>(), &|_, _| {
            psca_obs::ctx::current().map(|c| c.trace_id)
        });
        assert!(seen.iter().all(|t| *t == Some(ctx.trace_id)));
    }

    #[test]
    fn workers_inherit_callers_open_spans() {
        let _outer = psca_obs::SpanTimer::start("pool_inherit_test");
        let seen = map_indexed(4, (0..16).collect::<Vec<u32>>(), &|_, _| {
            psca_obs::span::current_path()
        });
        assert!(seen
            .iter()
            .all(|p| p.as_deref() == Some("pool_inherit_test")));
    }

    #[test]
    fn resolve_jobs_passes_through_explicit_counts() {
        assert_eq!(resolve_jobs(1), 1);
        assert_eq!(resolve_jobs(7), 7);
        assert!(resolve_jobs(0) >= 1);
    }
}
