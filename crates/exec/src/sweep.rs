//! The `Sweep` abstraction: fan independent (workload, config, seed) cells
//! across the worker pool with results that are bit-identical to a serial
//! run, plus an optional persistent result cache.
//!
//! Determinism contract:
//! - every cell derives its RNG stream from data carried *in the cell*
//!   (the caller's responsibility — all PSCA corpora already seed this way),
//! - results are merged back in cell-index order ([`pool::map_indexed`]),
//! - metrics recorded inside a cell are counters and histograms, which are
//!   commutative atomics, so the registry totals are the same at any
//!   worker count (gauges are last-writer-wins),
//! - every worker inherits the caller's open spans ([`pool::map_indexed`]),
//!   so `span.*` histogram names and profiler stacks recorded inside a
//!   cell are the same at any worker count.
//!
//! Nested sweeps (a `Sweep::run` issued from inside another sweep's
//! parallel cell) automatically degrade to inline serial execution, so
//! the pool is never oversubscribed.

use std::cell::Cell;
use std::path::Path;
use std::time::Instant;

use crate::cache::SweepCache;
use crate::pool;

thread_local! {
    /// Set while this thread runs a cell of a parallel sweep, so a sweep
    /// started inside that cell runs inline.
    static IN_PARALLEL_CELL: Cell<bool> = const { Cell::new(false) };
}

/// A parallel sweep over independent cells.
#[derive(Debug, Clone)]
pub struct Sweep {
    label: String,
    jobs: usize,
    cache: Option<SweepCache>,
}

impl Sweep {
    /// Creates a sweep. `label` names the sweep in exec metrics.
    /// Jobs default to auto (`PSCA_JOBS` or `available_parallelism`).
    pub fn new(label: &str) -> Self {
        Sweep {
            label: label.to_string(),
            jobs: 0,
            cache: None,
        }
    }

    /// Sets the worker count. `0` = auto.
    pub fn jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
        self
    }

    /// Enables the persistent result cache under `dir` (`None` disables).
    pub fn cache_dir(mut self, dir: Option<&Path>) -> Self {
        self.cache = dir.map(SweepCache::new);
        self
    }

    /// The worker count this sweep will actually use right now: nested
    /// sweeps always run inline to avoid oversubscribing the pool.
    pub fn effective_jobs(&self) -> usize {
        if IN_PARALLEL_CELL.get() {
            1
        } else {
            pool::resolve_jobs(self.jobs)
        }
    }

    /// Runs `f` over every cell with the persistent cache in front.
    ///
    /// `key` must digest everything that determines the cell's output
    /// (workload identity, config fields, seeds, codec schema version).
    /// `encode`/`decode` are the on-disk codec; a `decode` error (corrupt
    /// or stale entry) counts in `exec.cache.corrupt` and falls back to
    /// recomputing.
    pub fn run_cached<T, R, K, E, D, X, F>(
        &self,
        cells: Vec<T>,
        key: K,
        encode: E,
        decode: D,
        f: F,
    ) -> Vec<R>
    where
        T: Send,
        R: Send,
        K: Fn(&T) -> u64 + Sync,
        E: Fn(&R) -> Vec<u8> + Sync,
        D: Fn(&[u8]) -> Result<R, X> + Sync,
        F: Fn(&T) -> R + Sync,
    {
        let cache = self.cache.as_ref();
        let results = self.run(cells, |cell| {
            let Some(cache) = cache else {
                return f(cell);
            };
            let k = key(cell);
            if let Some(bytes) = cache.load(k) {
                match decode(&bytes) {
                    Ok(hit) => {
                        psca_obs::counter("exec.cache.hits").inc();
                        return hit;
                    }
                    Err(_) => psca_obs::counter("exec.cache.corrupt").inc(),
                }
            }
            psca_obs::counter("exec.cache.misses").inc();
            let out = f(cell);
            let bytes = encode(&out);
            cache.store(k, &bytes);
            psca_obs::counter("exec.cache.stores").inc();
            psca_obs::counter("exec.cache.bytes_written").add(bytes.len() as u64);
            out
        });
        // Cumulative hit rate since the last registry reset, surfaced as
        // a gauge so `/metrics` and run reports can show cache efficacy
        // without consumers re-deriving it from two counters.
        let hits = psca_obs::counter("exec.cache.hits").get();
        let misses = psca_obs::counter("exec.cache.misses").get();
        if hits + misses > 0 {
            psca_obs::gauge("exec.cache.hit_rate").set(hits as f64 / (hits + misses) as f64);
        }
        results
    }

    /// Runs `f` over every cell, returning results in cell order.
    pub fn run<T, R, F>(&self, cells: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        let n = cells.len();
        let jobs = self.effective_jobs().min(n.max(1));
        let start = Instant::now();
        let results = if jobs <= 1 {
            pool::map_indexed(1, cells, &|_, cell: T| {
                let t0 = Instant::now();
                let out = f(&cell);
                psca_obs::histogram("exec.cell_us").record(t0.elapsed().as_micros() as u64);
                out
            })
        } else {
            pool::map_indexed(jobs, cells, &|_, cell: T| {
                let t0 = Instant::now();
                IN_PARALLEL_CELL.set(true);
                let out = f(&cell);
                IN_PARALLEL_CELL.set(false);
                psca_obs::histogram("exec.cell_us").record(t0.elapsed().as_micros() as u64);
                out
            })
        };
        let wall = start.elapsed().as_secs_f64().max(1e-9);
        psca_obs::counter("exec.cells").add(n as u64);
        psca_obs::counter(&format!("exec.sweep.{}.cells", self.label)).add(n as u64);
        psca_obs::gauge("exec.jobs").set(jobs as f64);
        psca_obs::gauge("exec.cells_per_sec").set(n as f64 / wall);
        results
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::digest::Digest;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn run_preserves_order_across_jobs_counts() {
        let cells: Vec<u64> = (0..40).collect();
        let f = |&c: &u64| c.wrapping_mul(0x1234_5678_9abc_def1);
        let serial = Sweep::new("t").jobs(1).run(cells.clone(), f);
        let parallel = Sweep::new("t").jobs(6).run(cells, f);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn nested_sweeps_run_inline() {
        let outer: Vec<u64> = (0..4).collect();
        let out = Sweep::new("outer").jobs(4).run(outer, |&o| {
            let inner = Sweep::new("inner").jobs(4);
            assert_eq!(inner.effective_jobs(), 1, "nested sweep must inline");
            inner.run((0..3).collect::<Vec<u64>>(), |&i| o * 10 + i)
        });
        assert_eq!(out[1], vec![10, 11, 12]);
    }

    #[test]
    fn cache_hits_skip_recompute_and_match_cold_run() {
        let dir = std::env::temp_dir().join(format!("psca-exec-sweep-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let computed = AtomicUsize::new(0);
        let run = |dir: &PathBuf| {
            Sweep::new("t").jobs(2).cache_dir(Some(dir)).run_cached(
                (0..10u64).collect::<Vec<_>>(),
                |&c| {
                    let mut d = Digest::new();
                    d.write_str("sweep-test").write_u64(c);
                    d.finish()
                },
                |r: &u64| r.to_le_bytes().to_vec(),
                |b: &[u8]| b.try_into().map(u64::from_le_bytes),
                |&c| {
                    computed.fetch_add(1, Ordering::Relaxed);
                    c * c
                },
            )
        };
        let cold = run(&dir);
        assert_eq!(computed.load(Ordering::Relaxed), 10);
        let warm = run(&dir);
        assert_eq!(
            computed.load(Ordering::Relaxed),
            10,
            "warm run must not recompute"
        );
        assert_eq!(cold, warm);
        // Undecodable entries are counted as corrupt and recomputed.
        for entry in std::fs::read_dir(&dir).unwrap() {
            std::fs::write(entry.unwrap().path(), [0xff; 3]).unwrap();
        }
        let corrupt = psca_obs::counter("exec.cache.corrupt").get();
        assert_eq!(run(&dir), cold);
        assert_eq!(computed.load(Ordering::Relaxed), 20);
        assert!(psca_obs::counter("exec.cache.corrupt").get() >= corrupt + 10);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
