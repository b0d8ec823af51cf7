//! Zero-dependency scoped-thread work splitting.
//!
//! The container building this workspace is offline, so there is no
//! rayon; the vendored shims stay `rand`/`proptest`/`criterion` only.
//! This crate provides the minimal substrate the parallel refinement
//! engine (and future sharded-store work) needs on plain
//! [`std::thread::scope`]:
//!
//! * [`Threads`] — a thread-count configuration: explicit `N`, or an
//!   automatic default from [`std::thread::available_parallelism`] with
//!   an `RDF_THREADS` environment override;
//! * [`chunk_ranges`] — split an index space into near-even contiguous
//!   ranges;
//! * [`scoped_map`] — run one closure per task on scoped threads and
//!   collect the results in task order;
//! * [`WorkerPool`] — a small persistent gang for long-running
//!   processes (the `rdf serve` daemon) that must not pay a spawn per
//!   request.
//!
//! Threads are spawned per call (a few tens of microseconds each); the
//! intended callers amortise that over work measured in milliseconds
//! per round and keep all *allocations* (scratch buffers, interning
//! maps) in long-lived engine state instead. [`WorkerPool`] is the
//! exception, for callers whose unit of work is a whole request.

#![warn(missing_docs)]

use std::num::NonZeroUsize;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};

/// Environment variable consulted by [`Threads::Auto`]: set
/// `RDF_THREADS=N` to cap the automatic thread count without touching
/// any call site.
pub const THREADS_ENV: &str = "RDF_THREADS";

/// Thread-count configuration for parallel helpers.
///
/// `Auto` (the default) resolves to the `RDF_THREADS` environment
/// variable when it holds a positive integer, and otherwise to
/// [`std::thread::available_parallelism`]. `Fixed(n)` always resolves
/// to `max(n, 1)` — an explicit request (e.g. a `--threads` flag) wins
/// over the environment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Threads {
    /// `RDF_THREADS` if set and valid, else `available_parallelism()`.
    #[default]
    Auto,
    /// Exactly this many threads (clamped to at least 1).
    Fixed(usize),
}

impl Threads {
    /// Resolve to a concrete thread count (always ≥ 1).
    pub fn resolve(self) -> usize {
        match self {
            Threads::Fixed(n) => n.max(1),
            Threads::Auto => std::env::var(THREADS_ENV)
                .ok()
                .and_then(|v| v.trim().parse::<usize>().ok())
                .filter(|&n| n >= 1)
                .unwrap_or_else(available),
        }
    }

    /// Parse a command-line value: `"auto"` or a positive integer.
    pub fn parse(s: &str) -> Result<Threads, String> {
        let s = s.trim();
        if s.eq_ignore_ascii_case("auto") {
            return Ok(Threads::Auto);
        }
        match s.parse::<usize>() {
            Ok(n) if n >= 1 => Ok(Threads::Fixed(n)),
            _ => Err(format!(
                "invalid thread count {s:?} (expected \"auto\" or a \
                 positive integer)"
            )),
        }
    }
}

/// `available_parallelism()` with a safe fallback of 1.
fn available() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// Split `0..len` into at most `parts` contiguous, non-empty,
/// near-even ranges covering the whole index space in order.
///
/// Returns fewer than `parts` ranges when `len < parts`, and an empty
/// vector when `len == 0`.
pub fn chunk_ranges(len: usize, parts: usize) -> Vec<Range<usize>> {
    let parts = parts.max(1).min(len);
    if parts == 0 {
        return Vec::new();
    }
    let base = len / parts;
    let rem = len % parts;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0usize;
    for i in 0..parts {
        let size = base + usize::from(i < rem);
        out.push(start..start + size);
        start += size;
    }
    debug_assert_eq!(start, len);
    out
}

/// Run `f(index, task)` for every task, on scoped threads, and return
/// the results in task order.
///
/// Task 0 runs on the calling thread; each remaining task gets its own
/// scoped thread, so a call with `n` tasks uses `n` threads total.
/// With zero or one task nothing is spawned. A panic in any task
/// propagates to the caller when the scope joins.
///
/// Tasks own their state (`T: Send`), which is how callers hand each
/// worker a disjoint `&mut` slice of shared output plus its private
/// scratch without any synchronisation.
pub fn scoped_map<T, R, F>(tasks: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    match tasks.len() {
        0 => return Vec::new(),
        1 => {
            let task = tasks.into_iter().next().expect("one task");
            return vec![f(0, task)];
        }
        _ => {}
    }
    let mut results: Vec<Option<R>> =
        (0..tasks.len()).map(|_| None).collect();
    std::thread::scope(|scope| {
        let f = &f;
        let mut slots = tasks.into_iter().zip(results.iter_mut()).enumerate();
        let (i0, (t0, slot0)) = slots.next().expect("at least two tasks");
        for (i, (task, slot)) in slots {
            scope.spawn(move || *slot = Some(f(i, task)));
        }
        *slot0 = Some(f(i0, t0));
    });
    results
        .into_iter()
        .map(|r| r.expect("every task ran to completion"))
        .collect()
}

/// Fallible [`scoped_map`]: run `f(index, task)` for every task on
/// scoped threads, then return all results in task order — or the error
/// of the **lowest-indexed** failing task.
///
/// Every task runs to completion even when an earlier one fails (the
/// scope joins all threads regardless), so which error surfaces is
/// deterministic: it depends only on task order, never on thread
/// scheduling. The sharded-store loader leans on this to report the
/// same corrupt shard at every thread count.
pub fn scoped_try_map<T, R, E, F>(tasks: Vec<T>, f: F) -> Result<Vec<R>, E>
where
    T: Send,
    R: Send,
    E: Send,
    F: Fn(usize, T) -> Result<R, E> + Sync,
{
    let mut out = Vec::with_capacity(tasks.len());
    for r in scoped_map(tasks, f) {
        out.push(r?);
    }
    Ok(out)
}

type Job = Box<dyn FnOnce() + Send + 'static>;

/// A persistent worker gang: `n` named OS threads pulling jobs off one
/// shared queue, living for the lifetime of the pool.
///
/// [`scoped_map`] spawns per call, which is right for the CLI (one
/// burst of work per process). A long-running server wants the
/// opposite: spawn once at startup, then run every request on the same
/// gang so steady-state request handling never touches
/// `thread::spawn`. Jobs are executed in submission order by whichever
/// worker frees up first.
///
/// A panicking job is caught on the worker ([`WorkerPool::submit`]) or
/// reported back to the caller ([`WorkerPool::run`]) — it never kills
/// the worker thread, so one poisoned request cannot degrade the gang.
///
/// Dropping the pool (or calling [`WorkerPool::shutdown`]) closes the
/// queue, lets queued jobs drain, and joins every worker.
#[derive(Debug)]
pub struct WorkerPool {
    tx: Option<mpsc::Sender<Job>>,
    workers: Vec<std::thread::JoinHandle<()>>,
    completed: Arc<AtomicU64>,
}

impl WorkerPool {
    /// Spawn a pool of `threads.resolve()` workers (named
    /// `rdf-worker-<k>` for debuggers and `/proc`).
    pub fn new(threads: Threads) -> WorkerPool {
        let n = threads.resolve();
        let (tx, rx) = mpsc::channel::<Job>();
        let rx = Arc::new(Mutex::new(rx));
        let completed = Arc::new(AtomicU64::new(0));
        let workers = (0..n)
            .map(|k| {
                let rx = Arc::clone(&rx);
                std::thread::Builder::new()
                    .name(format!("rdf-worker-{k}"))
                    .spawn(move || loop {
                        // Hold the lock only while *receiving*: a slow
                        // job must not serialise the whole gang.
                        let job = {
                            let guard = rx
                                .lock()
                                .unwrap_or_else(|e| e.into_inner());
                            guard.recv()
                        };
                        match job {
                            // Every job catches its own panic (see
                            // run_counted), so the worker survives it.
                            Ok(job) => job(),
                            // Channel closed: pool is shutting down.
                            Err(_) => break,
                        }
                    })
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool {
            tx: Some(tx),
            workers,
            completed,
        }
    }

    /// Number of worker threads.
    pub fn size(&self) -> usize {
        self.workers.len()
    }

    /// Total jobs executed so far (including panicked ones) — a cheap
    /// liveness/stats signal for `stats` endpoints.
    pub fn completed(&self) -> u64 {
        self.completed.load(Ordering::Relaxed)
    }

    /// Enqueue a fire-and-forget job. Panics in the job are swallowed
    /// (the worker survives); use [`WorkerPool::run`] when the caller
    /// needs the result or the panic.
    ///
    /// # Panics
    /// Panics if called after [`WorkerPool::shutdown`].
    pub fn submit(&self, job: impl FnOnce() + Send + 'static) {
        self.run_counted(job, |_| {});
    }

    /// Run `f` on the gang and block until it finishes, returning its
    /// result — or `Err` with the panic payload if it panicked.
    pub fn run<R: Send + 'static>(
        &self,
        f: impl FnOnce() -> R + Send + 'static,
    ) -> std::thread::Result<R> {
        let (tx, rx) = mpsc::channel();
        self.run_counted(f, move |result| {
            let _ = tx.send(result);
        });
        rx.recv().expect("pool worker dropped the result channel")
    }

    /// Enqueue `f`, catching its panic so the worker survives, then
    /// count it as completed *before* handing its result to `deliver`:
    /// a caller woken by the delivery always sees its own job in
    /// [`WorkerPool::completed`].
    fn run_counted<R>(
        &self,
        f: impl FnOnce() -> R + Send + 'static,
        deliver: impl FnOnce(std::thread::Result<R>) + Send + 'static,
    ) {
        let completed = Arc::clone(&self.completed);
        let job: Job = Box::new(move || {
            let result = catch_unwind(AssertUnwindSafe(f));
            // Relaxed is enough: the count publishes no other data, and
            // `deliver`'s channel send orders this increment before the
            // woken caller's load.
            completed.fetch_add(1, Ordering::Relaxed);
            deliver(result);
        });
        self.tx
            .as_ref()
            .expect("pool is shut down")
            .send(job)
            .expect("pool workers alive while sender is held");
    }

    /// Close the queue, drain queued jobs, and join every worker.
    /// Idempotent; also runs on drop.
    pub fn shutdown(&mut self) {
        drop(self.tx.take());
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every test that reads *or* writes `RDF_THREADS` holds this lock:
    /// libtest runs tests on multiple threads, and a concurrent
    /// `set_var` while another thread walks the environment via
    /// `env::var` is undefined behavior on glibc.
    static ENV_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn chunk_ranges_cover_exactly() {
        for len in [0usize, 1, 2, 7, 64, 65, 1000] {
            for parts in [1usize, 2, 3, 4, 8, 17] {
                let ranges = chunk_ranges(len, parts);
                assert!(ranges.len() <= parts);
                assert_eq!(
                    ranges.iter().map(|r| r.len()).sum::<usize>(),
                    len
                );
                let mut next = 0usize;
                for r in &ranges {
                    assert_eq!(r.start, next, "contiguous at {len}/{parts}");
                    assert!(!r.is_empty(), "no empty chunk at {len}/{parts}");
                    next = r.end;
                }
                // Near-even: sizes differ by at most one.
                if let (Some(min), Some(max)) = (
                    ranges.iter().map(|r| r.len()).min(),
                    ranges.iter().map(|r| r.len()).max(),
                ) {
                    assert!(max - min <= 1);
                }
            }
        }
    }

    #[test]
    fn scoped_map_returns_in_task_order() {
        let tasks: Vec<usize> = (0..13).collect();
        let out = scoped_map(tasks, |i, t| {
            assert_eq!(i, t);
            t * t
        });
        assert_eq!(out, (0..13).map(|t| t * t).collect::<Vec<_>>());
        // Degenerate sizes.
        assert!(scoped_map(Vec::<usize>::new(), |_, t| t).is_empty());
        assert_eq!(scoped_map(vec![41usize], |_, t| t + 1), vec![42]);
    }

    #[test]
    fn scoped_map_disjoint_mut_slices() {
        let mut data = vec![0u32; 100];
        let ranges = chunk_ranges(data.len(), 4);
        let mut tasks = Vec::new();
        let mut rest: &mut [u32] = &mut data;
        for r in &ranges {
            let (head, tail) = rest.split_at_mut(r.len());
            rest = tail;
            tasks.push((r.clone(), head));
        }
        scoped_map(tasks, |_, (range, out)| {
            for (slot, i) in out.iter_mut().zip(range) {
                *slot = i as u32 + 1;
            }
        });
        assert!(data.iter().enumerate().all(|(i, &v)| v == i as u32 + 1));
    }

    #[test]
    fn scoped_try_map_collects_or_reports_first_error() {
        let ok: Result<Vec<u32>, String> =
            scoped_try_map((0u32..9).collect(), |_, t| Ok(t * 2));
        assert_eq!(ok.unwrap(), (0..9).map(|t| t * 2).collect::<Vec<_>>());
        // Two failing tasks: the lowest-indexed error wins regardless of
        // which thread finished first.
        let err: Result<Vec<u32>, String> =
            scoped_try_map((0u32..9).collect(), |i, t| {
                if i == 3 || i == 7 {
                    Err(format!("task {t} failed"))
                } else {
                    Ok(t)
                }
            });
        assert_eq!(err.unwrap_err(), "task 3 failed");
        let empty: Result<Vec<u32>, String> =
            scoped_try_map(Vec::<u32>::new(), |_, t| Ok(t));
        assert!(empty.unwrap().is_empty());
    }

    /// A fresh pool of four runs 32 jobs; every result comes back in
    /// order and every job is counted by the time its result arrives.
    fn pool_round_trip() {
        let pool = WorkerPool::new(Threads::Fixed(4));
        assert_eq!(pool.size(), 4);
        let results: Vec<u64> =
            (0..32u64).map(|i| pool.run(move || i * i).unwrap()).collect();
        assert_eq!(results, (0..32u64).map(|i| i * i).collect::<Vec<_>>());
        assert_eq!(pool.completed(), 32);
    }

    #[test]
    fn worker_pool_runs_jobs_and_returns_results() {
        pool_round_trip();
    }

    /// A job must be counted before its result wakes the caller; when
    /// the count trailed the delivery, the test above failed about one
    /// run in eight, so it is repeated here until a race would show.
    #[test]
    fn worker_pool_completion_count_never_trails_results() {
        for _ in 0..1_000 {
            pool_round_trip();
        }
    }

    #[test]
    fn worker_pool_survives_panicking_jobs() {
        let pool = WorkerPool::new(Threads::Fixed(2));
        // One panic per worker: both must survive it.
        for _ in 0..2 {
            let err = pool.run(|| panic!("request poisoned")).unwrap_err();
            let msg = err.downcast_ref::<&str>().copied().unwrap_or("");
            assert!(msg.contains("poisoned"), "got {msg:?}");
        }
        // The gang still serves work afterwards.
        assert_eq!(pool.run(|| 7u32).unwrap(), 7);
    }

    #[test]
    fn worker_pool_shutdown_drains_queued_jobs() {
        let counter = Arc::new(AtomicU64::new(0));
        let mut pool = WorkerPool::new(Threads::Fixed(2));
        for _ in 0..64 {
            let c = Arc::clone(&counter);
            pool.submit(move || {
                c.fetch_add(1, Ordering::Relaxed);
            });
        }
        pool.shutdown();
        assert_eq!(counter.load(Ordering::Relaxed), 64);
        // Idempotent.
        pool.shutdown();
    }

    #[test]
    fn threads_parse_and_resolve() {
        let _env = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        assert_eq!(Threads::parse("auto").unwrap(), Threads::Auto);
        assert_eq!(Threads::parse("AUTO").unwrap(), Threads::Auto);
        assert_eq!(Threads::parse("3").unwrap(), Threads::Fixed(3));
        assert!(Threads::parse("0").is_err());
        assert!(Threads::parse("-2").is_err());
        assert!(Threads::parse("lots").is_err());
        assert_eq!(Threads::Fixed(4).resolve(), 4);
        assert_eq!(Threads::Fixed(0).resolve(), 1);
        assert!(Threads::Auto.resolve() >= 1);
    }

    /// The one test that *writes* the process environment; the lock
    /// keeps any env reader (`Threads::Auto.resolve()` in other tests)
    /// off other threads while the variable is mutated.
    #[test]
    fn auto_honours_env_override() {
        let _env = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        std::env::set_var(THREADS_ENV, "3");
        assert_eq!(Threads::Auto.resolve(), 3);
        // An explicit count still wins over the environment.
        assert_eq!(Threads::Fixed(2).resolve(), 2);
        std::env::set_var(THREADS_ENV, "not-a-number");
        assert!(Threads::Auto.resolve() >= 1);
        std::env::set_var(THREADS_ENV, "0");
        assert!(Threads::Auto.resolve() >= 1);
        std::env::remove_var(THREADS_ENV);
        assert!(Threads::Auto.resolve() >= 1);
    }
}
