//! Deterministic work distribution for the search hot paths.
//!
//! Every compile-time loop the paper counts (SA chain updates, surrogate
//! fits, kernel-matrix assembly, candidate scoring) is embarrassingly
//! parallel *per item*, so this module provides exactly one abstraction:
//! chunked fan-out of an indexed map over scoped worker threads, with
//! results always returned in input order.
//!
//! **Determinism contract:** callers must make each item's computation a
//! pure function of `(index, item)` — per-item randomness is derived by
//! seed-splitting (see [`crate::stats::child_rng`]), never by sharing an
//! RNG across items. Under that discipline the output is bit-identical for
//! every worker count, so `GLIMPSE_THREADS=1` and `GLIMPSE_THREADS=64`
//! replay the same tuning trajectory.
//!
//! Worker-count resolution order (first set wins):
//!
//! 1. an explicit [`Threads::fixed`] at the call site,
//! 2. the process-wide override installed by [`set_default_threads`]
//!    (plumbed from the CLI `--threads` flag),
//! 3. the `GLIMPSE_THREADS` environment variable,
//! 4. [`std::thread::available_parallelism`].
//!
//! Requests from layers 2 and 3 are clamped to the machine's available
//! parallelism: asking for 8 workers on a 1-core box would only add
//! scheduling overhead to a compute-bound fan-out (the throughput harness
//! recorded multi-thread *slower* than single under exactly that
//! oversubscription). Only [`Threads::fixed`] bypasses the clamp — it is
//! the call site saying it knows better (tests pinning determinism at
//! thread counts above the core count rely on this).

use glimpse_supervise::CancelToken;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Process-wide worker-count override (0 = unset).
static DEFAULT_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Environment variable consulted when no explicit count is set.
pub const THREADS_ENV: &str = "GLIMPSE_THREADS";

/// Installs a process-wide worker-count override (0 restores auto).
pub fn set_default_threads(n: usize) {
    DEFAULT_THREADS.store(n, Ordering::SeqCst);
}

/// The current process-wide override (0 = unset).
#[must_use]
pub fn default_threads() -> usize {
    DEFAULT_THREADS.load(Ordering::SeqCst)
}

/// Parses a `GLIMPSE_THREADS`-style value; `None` for unset/invalid/zero.
#[must_use]
pub fn parse_threads(value: &str) -> Option<usize> {
    match value.trim().parse::<usize>() {
        Ok(0) | Err(_) => None,
        Ok(n) => Some(n),
    }
}

/// A worker-count request: either auto-resolved or pinned at the call site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Threads(usize);

impl Threads {
    /// Resolve from override, environment, then available parallelism.
    pub const AUTO: Threads = Threads(0);

    /// Exactly `n` workers (`0` behaves like [`Threads::AUTO`]).
    #[must_use]
    pub const fn fixed(n: usize) -> Self {
        Self(n)
    }

    /// The concrete worker count (always ≥ 1).
    ///
    /// The process-wide override and `GLIMPSE_THREADS` are clamped to
    /// [`available_workers`]; an explicit [`Threads::fixed`] is not.
    #[must_use]
    pub fn resolve(self) -> usize {
        if self.0 > 0 {
            return self.0;
        }
        let cap = available_workers();
        let global = default_threads();
        if global > 0 {
            return global.min(cap);
        }
        if let Ok(value) = std::env::var(THREADS_ENV) {
            if let Some(n) = parse_threads(&value) {
                return n.min(cap);
            }
        }
        cap
    }
}

/// The machine's available parallelism (≥ 1): the cap applied to every
/// auto-resolved worker-count request, and what the bench harness records
/// as the *effective* count next to the *requested* one.
///
/// Read once per process. [`std::thread::available_parallelism`] re-reads
/// the affinity mask and the cgroup CPU quota files on every call (about
/// 26 µs, mostly system time, on a 2-vCPU Linux VM), and every
/// auto-resolved fan-out asks: a DGP campaign did so about 2,000 times.
#[must_use]
pub fn available_workers() -> usize {
    static WORKERS: OnceLock<usize> = OnceLock::new();
    *WORKERS.get_or_init(|| std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get))
}

impl Default for Threads {
    fn default() -> Self {
        Self::AUTO
    }
}

/// Maps `f(index, &item)` over `items` on up to `threads` scoped workers,
/// returning results in input order.
///
/// Items are dealt out as contiguous chunks, one per worker; with one
/// worker (or ≤ 1 item) the map runs inline with zero thread overhead.
/// A panic in any worker is resumed on the caller thread.
///
/// # Examples
///
/// ```
/// use glimpse_mlkit::parallel::{parallel_map, Threads};
///
/// let squares = parallel_map(Threads::fixed(4), &[1i64, 2, 3, 4, 5], |_, x| x * x);
/// assert_eq!(squares, vec![1, 4, 9, 16, 25]);
/// ```
pub fn parallel_map<T, R, F>(threads: Threads, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    // Without a token the fan-out always completes, so this is never empty
    // for a non-empty input.
    fan_out(threads, None, items, f).unwrap_or_default()
}

/// Cancellable variant of [`parallel_map`]: `None` if `cancel` trips
/// before the map completes, `Some(results)` otherwise — never a partial
/// result set.
///
/// Workers poll the token between items and stop early once it trips; the
/// whole batch is then discarded. All-or-nothing is what keeps the
/// determinism contract intact under cancellation: a consumer either sees
/// the exact `Vec` the uninterrupted run would produce, or nothing — so a
/// cancelled search replays as a clean prefix of the uninterrupted one.
/// (Cancellation is monotonic, so the final check subsumes any empty slot
/// a worker left behind.)
///
/// # Examples
///
/// ```
/// use glimpse_mlkit::parallel::{parallel_map_cancellable, Threads};
/// use glimpse_supervise::{CancelReason, CancelToken};
///
/// let token = CancelToken::new();
/// let done = parallel_map_cancellable(Threads::fixed(2), &token, &[1i64, 2, 3], |_, x| x * x);
/// assert_eq!(done, Some(vec![1, 4, 9]));
///
/// token.cancel(CancelReason::Interrupted);
/// let cut = parallel_map_cancellable(Threads::fixed(2), &token, &[1i64, 2, 3], |_, x| x * x);
/// assert_eq!(cut, None);
/// ```
pub fn parallel_map_cancellable<T, R, F>(threads: Threads, cancel: &CancelToken, items: &[T], f: F) -> Option<Vec<R>>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    fan_out(threads, Some(cancel), items, f)
}

/// The chunked fan-out behind [`parallel_map`] and
/// [`parallel_map_cancellable`]: `None` only if `cancel` is given and trips
/// before the map completes.
// lint:boundary(PANICS) the scope join proves every surviving slot was written; cancellation discards the batch before the unwrap
fn fan_out<T, R, F>(threads: Threads, cancel: Option<&CancelToken>, items: &[T], f: F) -> Option<Vec<R>>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let tripped = || cancel.is_some_and(CancelToken::is_cancelled);
    let n = items.len();
    let workers = threads.resolve().min(n.max(1));
    if workers <= 1 || n <= 1 {
        let mut out = Vec::with_capacity(n);
        for (i, t) in items.iter().enumerate() {
            if tripped() {
                return None;
            }
            out.push(f(i, t));
        }
        return (!tripped()).then_some(out);
    }
    let mut out: Vec<Option<R>> = Vec::with_capacity(n);
    out.resize_with(n, || None);
    let chunk = n.div_ceil(workers);
    let f = &f;
    let tripped = &tripped;
    let result = crossbeam::thread::scope(|s| {
        for (w, out_chunk) in out.chunks_mut(chunk).enumerate() {
            let start = w * chunk;
            s.spawn(move |_| {
                for (offset, slot) in out_chunk.iter_mut().enumerate() {
                    if tripped() {
                        break;
                    }
                    let i = start + offset;
                    *slot = Some(f(i, &items[i]));
                }
            });
        }
    });
    if let Err(payload) = result {
        std::panic::resume_unwind(payload);
    }
    if tripped() {
        return None;
    }
    Some(out.into_iter().map(|r| r.expect("worker filled its slot")).collect())
}

/// Index-only variant of [`parallel_map`]: maps `f(i)` over `0..n`.
pub fn parallel_map_range<R, F>(threads: Threads, n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let indices: Vec<usize> = (0..n).collect();
    parallel_map(threads, &indices, |_, &i| f(i))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_keep_input_order() {
        let items: Vec<usize> = (0..1000).collect();
        let out = parallel_map(Threads::fixed(8), &items, |i, &x| {
            assert_eq!(i, x);
            x * 2
        });
        assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn identical_across_worker_counts() {
        let items: Vec<u64> = (0..257).collect();
        let f = |i: usize, x: &u64| {
            use rand::Rng;
            let mut rng = crate::stats::child_rng(*x, i as u64);
            rng.gen::<u64>()
        };
        let one = parallel_map(Threads::fixed(1), &items, f);
        for workers in [2, 3, 8, 16] {
            assert_eq!(parallel_map(Threads::fixed(workers), &items, f), one, "workers={workers}");
        }
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<i32> = Vec::new();
        assert!(parallel_map(Threads::fixed(4), &empty, |_, x| *x).is_empty());
        assert_eq!(parallel_map(Threads::fixed(4), &[7], |_, x| *x), vec![7]);
    }

    #[test]
    fn range_variant_matches_slice_variant() {
        let out = parallel_map_range(Threads::fixed(3), 10, |i| i * i);
        assert_eq!(out, (0..10).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn more_workers_than_items_is_fine() {
        let out = parallel_map(Threads::fixed(64), &[1, 2, 3], |_, x| x + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn worker_panic_propagates() {
        let caught = std::panic::catch_unwind(|| {
            parallel_map(Threads::fixed(2), &[0, 1, 2, 3], |_, &x| {
                assert!(x != 2, "boom");
                x
            })
        });
        assert!(caught.is_err());
    }

    #[test]
    fn cancellable_map_matches_plain_map_when_untripped() {
        use glimpse_supervise::CancelToken;
        let items: Vec<u64> = (0..257).collect();
        let f = |i: usize, x: &u64| {
            use rand::Rng;
            let mut rng = crate::stats::child_rng(*x, i as u64);
            rng.gen::<u64>()
        };
        let plain = parallel_map(Threads::fixed(4), &items, f);
        let token = CancelToken::new();
        for workers in [1usize, 8] {
            assert_eq!(
                parallel_map_cancellable(Threads::fixed(workers), &token, &items, f),
                Some(plain.clone()),
                "workers={workers}"
            );
        }
    }

    #[test]
    fn tripped_token_yields_none_not_partial_results() {
        use glimpse_supervise::{CancelReason, CancelToken};
        let pre = CancelToken::new();
        pre.cancel(CancelReason::DeadlineExceeded);
        let items: Vec<usize> = (0..64).collect();
        assert_eq!(parallel_map_cancellable(Threads::fixed(4), &pre, &items, |_, &x| x), None);
        // Trip mid-flight from inside the map: still all-or-nothing.
        for workers in [1usize, 8] {
            let mid = CancelToken::new();
            let out = parallel_map_cancellable(Threads::fixed(workers), &mid, &items, |i, &x| {
                if i == 9 {
                    mid.cancel(CancelReason::Interrupted);
                }
                x
            });
            assert_eq!(out, None, "workers={workers}");
        }
    }

    #[test]
    fn parse_threads_rejects_junk() {
        assert_eq!(parse_threads("4"), Some(4));
        assert_eq!(parse_threads(" 12 "), Some(12));
        assert_eq!(parse_threads("0"), None);
        assert_eq!(parse_threads("-3"), None);
        assert_eq!(parse_threads("many"), None);
        assert_eq!(parse_threads(""), None);
    }

    #[test]
    fn fixed_wins_over_global_override() {
        assert_eq!(Threads::fixed(5).resolve(), 5);
        assert!(Threads::AUTO.resolve() >= 1);
    }

    #[test]
    fn auto_resolution_never_oversubscribes() {
        // Whatever the global override says (other tests mutate it
        // concurrently), an AUTO resolution must never exceed the machine's
        // available parallelism — only Threads::fixed may oversubscribe.
        let cap = available_workers();
        assert!(cap >= 1);
        assert!(Threads::AUTO.resolve() <= cap);
        assert_eq!(Threads::fixed(cap + 7).resolve(), cap + 7, "fixed bypasses the clamp");
    }

    #[test]
    fn global_override_is_clamped_to_available_parallelism() {
        // Serialize against other tests that flip the global override by
        // checking the invariant rather than an exact count: a huge request
        // resolves to at most the cap.
        let before = default_threads();
        set_default_threads(1_000_000);
        let resolved = Threads::AUTO.resolve();
        set_default_threads(before);
        assert!(resolved <= 1_000_000);
        assert!(
            resolved <= available_workers() || resolved != 1_000_000,
            "a requested 1,000,000 workers must be clamped (resolved {resolved})"
        );
    }
}
