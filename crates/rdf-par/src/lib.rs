//! Zero-dependency scoped-thread work splitting.
//!
//! The container building this workspace is offline, so there is no
//! rayon; the vendored shims stay `rand`/`proptest` only.
//! This crate provides the minimal substrate the parallel refinement
//! engine needs on plain [`std::thread::scope`]:
//!
//! * [`Threads`] — a thread-count configuration: explicit `N`, or an
//!   automatic default from [`std::thread::available_parallelism`] with
//!   an `RDF_THREADS` environment override;
//! * [`chunk_ranges`] — split an index space into near-even contiguous
//!   ranges;
//! * [`scoped_map`] — run one closure per task on scoped threads and
//!   collect the results in task order.
//!
//! Threads are spawned per call (a few tens of microseconds each); the
//! intended callers amortise that over work measured in milliseconds
//! per round and keep all *allocations* (scratch buffers, signature
//! tables) in long-lived engine state instead.

#![warn(missing_docs)]

use std::num::NonZeroUsize;
use std::ops::Range;

/// Environment variable consulted by [`Threads::Auto`]: set
/// `RDF_THREADS=N` to cap the automatic thread count without touching
/// any call site.
pub const THREADS_ENV: &str = "RDF_THREADS";

/// Most threads any configuration resolves to. A refinement round
/// starts up to this many workers per batch, so a count from outside
/// the program (a flag, the environment, a request) above it is
/// refused rather than allowed to start one thread per node.
pub const MAX_THREADS: usize = 256;

/// Thread-count configuration for parallel helpers.
///
/// `Auto` (the default) resolves to the `RDF_THREADS` environment
/// variable when it holds an integer from 1 to [`MAX_THREADS`], and
/// otherwise to [`std::thread::available_parallelism`]. `Fixed(n)`
/// always resolves to `n` clamped to `1..=MAX_THREADS` — an explicit
/// request (e.g. a `--threads` flag) wins over the environment. Every
/// resolution is at most [`MAX_THREADS`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Threads {
    /// `RDF_THREADS` if set and valid, else `available_parallelism()`.
    #[default]
    Auto,
    /// Exactly this many threads (clamped to `1..=MAX_THREADS`).
    Fixed(usize),
}

impl Threads {
    /// Resolve to a concrete thread count in `1..=MAX_THREADS`.
    pub fn resolve(self) -> usize {
        let n = match self {
            Threads::Fixed(n) => n,
            Threads::Auto => std::env::var(THREADS_ENV)
                .ok()
                .and_then(|v| v.trim().parse::<usize>().ok())
                .filter(|n| (1..=MAX_THREADS).contains(n))
                .unwrap_or_else(available),
        };
        n.clamp(1, MAX_THREADS)
    }

    /// Parse a command-line value: `"auto"` or an integer from 1 to
    /// [`MAX_THREADS`].
    pub fn parse(s: &str) -> Result<Threads, String> {
        let s = s.trim();
        if s.eq_ignore_ascii_case("auto") {
            return Ok(Threads::Auto);
        }
        match s.parse::<usize>() {
            Ok(n) if (1..=MAX_THREADS).contains(&n) => Ok(Threads::Fixed(n)),
            _ => Err(format!(
                "invalid thread count {s:?} (expected \"auto\" or an \
                 integer from 1 to {MAX_THREADS})"
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

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
    fn threads_parse_and_resolve() {
        let _env = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        assert_eq!(Threads::parse("auto").unwrap(), Threads::Auto);
        assert_eq!(Threads::parse("AUTO").unwrap(), Threads::Auto);
        assert_eq!(Threads::parse("3").unwrap(), Threads::Fixed(3));
        assert!(Threads::parse("0").is_err());
        assert!(Threads::parse("-2").is_err());
        assert!(Threads::parse("lots").is_err());
        assert_eq!(
            Threads::parse(&MAX_THREADS.to_string()).unwrap(),
            Threads::Fixed(MAX_THREADS)
        );
        let err = Threads::parse("100000").unwrap_err();
        assert!(err.contains(&MAX_THREADS.to_string()), "{err}");
        assert_eq!(Threads::Fixed(4).resolve(), 4);
        assert_eq!(Threads::Fixed(0).resolve(), 1);
        // Library callers are clamped, not refused.
        assert_eq!(Threads::Fixed(100_000).resolve(), MAX_THREADS);
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
        // Above the bound: the core count, as for any invalid value.
        std::env::set_var(THREADS_ENV, "100000");
        assert_eq!(Threads::Auto.resolve(), available().min(MAX_THREADS));
        std::env::remove_var(THREADS_ENV);
        assert!(Threads::Auto.resolve() >= 1);
    }
}
