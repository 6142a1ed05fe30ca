//! Batched parallel simulated annealing.
//!
//! AutoTVM and Chameleon "formulate a cost minimization with a batch of
//! Markov chains" (§4.2) driven by a surrogate cost model; the number of
//! chain update steps is the key compile-time factor Fig. 6 counts. This
//! module runs that batch generically — callers provide the energy (higher =
//! better here, matching GFLOPS) and the neighbor move — and actually in
//! parallel: chains fan out across worker threads through
//! [`crate::parallel`].
//!
//! **Determinism:** chain `c` draws from its own RNG, seed-split from the
//! master seed as `child_rng(seed, c)`. A chain's trajectory is therefore a
//! pure function of `(seed, c, start state)` — independent of how many
//! chains ran before it, of the worker count, and of chain execution order.
//! The same seed replays bit-identically at any `--threads` setting.
//!
//! **Allocation:** the chain loop proposes into a persistent scratch state
//! and swaps it in on acceptance, so a chain runs its whole trajectory with
//! a constant number of state allocations (start, best, scratch) instead of
//! one fresh state per step. The move `neighbor_into(current, out, rng)`
//! must therefore fully overwrite `out` from `current`.

use crate::parallel::{parallel_map_cancellable, Threads};
use crate::stats::child_rng;
use glimpse_supervise::CancelToken;
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

/// Annealing schedule and batch parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SaParams {
    /// Number of parallel Markov chains.
    pub chains: usize,
    /// Maximum steps per chain.
    pub max_steps: usize,
    /// Starting temperature.
    pub t_start: f64,
    /// Final temperature (geometric schedule).
    pub t_end: f64,
    /// Stop a chain after this many consecutive non-improving steps
    /// (0 disables early stopping).
    pub patience: usize,
}

impl Default for SaParams {
    fn default() -> Self {
        Self {
            chains: 128,
            max_steps: 500,
            t_start: 1.0,
            t_end: 0.02,
            patience: 0,
        }
    }
}

/// Outcome of one batched annealing run.
#[derive(Debug, Clone)]
pub struct SaOutcome<S> {
    /// Best state found by each chain, with its score.
    pub chain_bests: Vec<(S, f64)>,
    /// Total chain-update steps executed across the batch (Fig. 6's metric).
    pub steps_executed: usize,
}

impl<S: Clone> SaOutcome<S> {
    /// The `k` best states across all chains, best first. Only the `k`
    /// returned states are cloned; the full batch is never copied.
    #[must_use]
    pub fn top_k(&self, k: usize) -> Vec<(S, f64)> {
        let mut order: Vec<usize> = (0..self.chain_bests.len()).collect();
        order.sort_by(|&a, &b| self.chain_bests[b].1.total_cmp(&self.chain_bests[a].1));
        order.truncate(k);
        order.into_iter().map(|i| self.chain_bests[i].clone()).collect()
    }
}

/// Runs `params.chains` annealing chains maximizing `score`, fanned out
/// across the worker threads of [`crate::parallel`]: the hot-loop entry
/// point for the tuners. `None` if `cancel` trips before the batch
/// completes, `Some(outcome)` otherwise.
///
/// # Examples
///
/// ```
/// use glimpse_mlkit::sa::{anneal_cancellable_in_place, SaParams};
/// use glimpse_supervise::CancelToken;
///
/// let out = anneal_cancellable_in_place(
///     &[0i64],
///     |x| -((*x - 5) as f64).abs(),
///     |x, out, r| *out = x + if rand::Rng::gen::<bool>(r) { 1 } else { -1 },
///     SaParams { chains: 4, max_steps: 200, ..SaParams::default() },
///     7,
///     &CancelToken::new(),
/// )
/// .expect("an untripped token never cancels");
/// let (best, _) = &out.top_k(1)[0];
/// assert!((best - 5).abs() <= 1);
/// ```
///
/// Each chain starts from the corresponding entry of `initial` (recycled if
/// fewer starts than chains are given) and owns an RNG seed-split from
/// `seed` by chain index, so the outcome is identical at every thread
/// count. Acceptance follows Metropolis on the score difference with a
/// geometric temperature schedule. `neighbor_into(current, out, rng)` must
/// fully overwrite `out` with the proposed state (any bytes left over from
/// a previous proposal are stale).
///
/// The SA round is the cancellation unit: chains poll the token between
/// update steps and bail early once it trips, but a cut-short batch is
/// discarded whole, never partially consumed. Callers treat `None` as "stop
/// searching now" — the enclosing tuning loop drains at its own trial
/// boundary, so a cancelled run's journal stays a byte-identical prefix of
/// the uninterrupted run's.
///
/// # Panics
///
/// Panics if `initial` is empty or temperatures are non-positive.
pub fn anneal_cancellable_in_place<S, F, N>(
    initial: &[S],
    score: F,
    neighbor_into: N,
    params: SaParams,
    seed: u64,
    cancel: &CancelToken,
) -> Option<SaOutcome<S>>
where
    S: Clone + Send + Sync,
    F: Fn(&S) -> f64 + Sync,
    N: Fn(&S, &mut S, &mut StdRng) + Sync,
{
    drive(initial, score, neighbor_into, params, seed, Threads::AUTO, cancel)
}

/// [`anneal_cancellable_in_place`] without a token and with an explicit
/// worker-count request, for tests and benchmarks that pin the thread
/// count. The outcome is bit-identical at every `threads` value.
pub fn anneal_threaded_in_place<S, F, N>(
    initial: &[S],
    score: F,
    neighbor_into: N,
    params: SaParams,
    seed: u64,
    threads: Threads,
) -> SaOutcome<S>
where
    S: Clone + Send + Sync,
    F: Fn(&S) -> f64 + Sync,
    N: Fn(&S, &mut S, &mut StdRng) + Sync,
{
    drive(initial, score, neighbor_into, params, seed, threads, &CancelToken::new()).expect("a fresh token never trips")
}

fn drive<S, F, N>(
    initial: &[S],
    score: F,
    neighbor_into: N,
    params: SaParams,
    seed: u64,
    threads: Threads,
    cancel: &CancelToken,
) -> Option<SaOutcome<S>>
where
    S: Clone + Send + Sync,
    F: Fn(&S) -> f64 + Sync,
    N: Fn(&S, &mut S, &mut StdRng) + Sync,
{
    assert!(!initial.is_empty(), "need at least one starting state");
    assert!(params.t_start > 0.0 && params.t_end > 0.0, "temperatures must be positive");
    let chains = params.chains.max(1);
    let results = parallel_map_cancellable(threads, cancel, &chain_indices(chains), |_, &c| {
        run_chain(&initial[c % initial.len()], c, &score, &neighbor_into, &params, seed, Some(cancel))
    })?;
    Some(collect_outcome(results, chains))
}

fn collect_outcome<S>(results: Vec<((S, f64), usize)>, chains: usize) -> SaOutcome<S> {
    let mut chain_bests = Vec::with_capacity(chains);
    let mut steps_executed = 0usize;
    for (best, steps) in results {
        chain_bests.push(best);
        steps_executed += steps;
    }
    SaOutcome {
        chain_bests,
        steps_executed,
    }
}

fn chain_indices(chains: usize) -> Vec<usize> {
    (0..chains).collect()
}

/// How many chain-update steps run between cancellation polls: cheap
/// enough to bound post-cancel latency, coarse enough to stay invisible in
/// the step profile.
const CANCEL_POLL_STEPS: usize = 16;

/// One chain's trajectory: a pure function of `(start, chain index, seed)`.
/// A tripped `cancel` only cuts the chain short — the caller discards the
/// whole batch in that case, so the bail never leaks into results.
///
/// Proposals are generated into a persistent `candidate` scratch state and
/// swapped into `current` on acceptance, so the loop allocates no fresh
/// state per step (the in-place move must fully overwrite the scratch).
fn run_chain<S, F, N>(
    start: &S,
    chain: usize,
    score: &F,
    neighbor_into: &N,
    params: &SaParams,
    seed: u64,
    cancel: Option<&CancelToken>,
) -> ((S, f64), usize)
where
    S: Clone,
    F: Fn(&S) -> f64,
    N: Fn(&S, &mut S, &mut StdRng),
{
    use rand::Rng;
    let cooling = if params.max_steps > 1 {
        (params.t_end / params.t_start).powf(1.0 / (params.max_steps - 1) as f64)
    } else {
        1.0
    };
    let mut rng = child_rng(seed, chain as u64);
    let mut current = start.clone();
    let mut current_score = score(&current);
    let mut best = current.clone();
    let mut best_score = current_score;
    let mut candidate = current.clone();
    let mut t = params.t_start;
    let mut stale = 0usize;
    let mut steps = 0usize;
    for step in 0..params.max_steps {
        if step % CANCEL_POLL_STEPS == 0 && cancel.is_some_and(CancelToken::is_cancelled) {
            break;
        }
        steps += 1;
        neighbor_into(&current, &mut candidate, &mut rng);
        let candidate_score = score(&candidate);
        let accept = candidate_score >= current_score || {
            let p = ((candidate_score - current_score) / t).exp();
            rng.gen::<f64>() < p
        };
        if accept {
            std::mem::swap(&mut current, &mut candidate);
            current_score = candidate_score;
        }
        if current_score > best_score {
            best.clone_from(&current);
            best_score = current_score;
            stale = 0;
        } else {
            stale += 1;
            if params.patience > 0 && stale >= params.patience {
                break;
            }
        }
        t *= cooling;
    }
    ((best, best_score), steps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// 1-D multi-modal score with global max at x = 37 on 0..=100.
    fn score(x: &i64) -> f64 {
        let xf = *x as f64;
        -((xf - 37.0) / 10.0).powi(2) + 0.5 * (xf / 7.0).sin()
    }

    fn neighbor_into(x: &i64, out: &mut i64, rng: &mut StdRng) {
        use rand::Rng;
        *out = (x + rng.gen_range(-5i64..=5)).clamp(0, 100);
    }

    fn anneal(starts: &[i64], params: SaParams, seed: u64) -> SaOutcome<i64> {
        anneal_threaded_in_place(starts, score, neighbor_into, params, seed, Threads::AUTO)
    }

    #[test]
    fn finds_global_optimum_region() {
        let starts: Vec<i64> = (0..8).map(|i| i * 12).collect();
        let out = anneal(
            &starts,
            SaParams {
                chains: 8,
                max_steps: 300,
                ..SaParams::default()
            },
            1,
        );
        let (best, _) = &out.top_k(1)[0];
        assert!((best - 37).abs() <= 3, "best {best}");
    }

    #[test]
    fn step_count_is_bounded_by_budget() {
        let out = anneal(
            &[50i64],
            SaParams {
                chains: 4,
                max_steps: 100,
                patience: 0,
                ..SaParams::default()
            },
            2,
        );
        assert_eq!(out.steps_executed, 400);
    }

    #[test]
    fn patience_reduces_steps() {
        let params = SaParams {
            chains: 4,
            max_steps: 500,
            patience: 0,
            ..SaParams::default()
        };
        let full = anneal(&[37i64], params, 3);
        let early = anneal(&[37i64], SaParams { patience: 25, ..params }, 3);
        assert!(early.steps_executed < full.steps_executed);
    }

    #[test]
    fn top_k_is_sorted_descending() {
        let starts: Vec<i64> = (0..16).map(|i| i * 6).collect();
        let out = anneal(
            &starts,
            SaParams {
                chains: 16,
                max_steps: 50,
                ..SaParams::default()
            },
            4,
        );
        let top = out.top_k(5);
        for w in top.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let run = || {
            anneal(
                &[0i64],
                SaParams {
                    chains: 2,
                    max_steps: 100,
                    ..SaParams::default()
                },
                11,
            )
            .top_k(1)[0]
                .1
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn chain_bests_never_worse_than_start() {
        let starts = vec![0i64, 100];
        let out = anneal(
            &starts,
            SaParams {
                chains: 2,
                max_steps: 100,
                ..SaParams::default()
            },
            5,
        );
        for (i, (_, s)) in out.chain_bests.iter().enumerate() {
            assert!(*s >= score(&starts[i]) - 1e-12);
        }
    }

    #[test]
    fn chain_trajectory_is_independent_of_batch_position() {
        // The PR-2 determinism contract: chain c's result no longer depends
        // on how many chains ran before it through a shared RNG.
        let starts: Vec<i64> = (0..6).map(|i| i * 20).collect();
        let params = SaParams {
            chains: 6,
            max_steps: 120,
            ..SaParams::default()
        };
        let batch = anneal(&starts, params, 9);
        for (c, expected) in batch.chain_bests.iter().enumerate() {
            let (solo, _) = run_chain(&starts[c], c, &score, &neighbor_into, &params, 9, None);
            assert_eq!(&solo, expected, "chain {c} diverged from its solo replay");
        }
    }

    fn bests_equal(a: &SaOutcome<i64>, b: &SaOutcome<i64>) -> bool {
        a.steps_executed == b.steps_executed
            && a.chain_bests.len() == b.chain_bests.len()
            && a.chain_bests
                .iter()
                .zip(&b.chain_bests)
                .all(|((sa, fa), (sb, fb))| sa == sb && fa.to_bits() == fb.to_bits())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Bit-identical `chain_bests` for threads ∈ {1, 2, 8} and for a
        /// permuted chain execution order.
        #[test]
        fn identical_at_any_thread_count_and_order(seed in 0u64..1_000_000, chains in 1usize..12, max_steps in 1usize..60) {
            let starts: Vec<i64> = (0..4).map(|i| i * 25).collect();
            let params = SaParams { chains, max_steps, ..SaParams::default() };
            let reference = anneal_threaded_in_place(&starts, score, neighbor_into, params, seed, Threads::fixed(1));
            for threads in [2usize, 8] {
                let out = anneal_threaded_in_place(&starts, score, neighbor_into, params, seed, Threads::fixed(threads));
                prop_assert!(bests_equal(&reference, &out), "threads={threads}");
            }
            // Execute chains in reverse order, sequentially, and scatter
            // the results back: must reproduce the batch exactly.
            let mut permuted: Vec<Option<(i64, f64)>> = vec![None; chains];
            let mut steps = 0usize;
            for c in (0..chains).rev() {
                let (best, s) = run_chain(&starts[c % starts.len()], c, &score, &neighbor_into, &params, seed, None);
                permuted[c] = Some(best);
                steps += s;
            }
            let permuted = SaOutcome {
                chain_bests: permuted.into_iter().map(|b| b.expect("all chains ran")).collect(),
                steps_executed: steps,
            };
            prop_assert!(bests_equal(&reference, &permuted), "permuted execution order diverged");
        }
    }

    #[test]
    fn cancellable_anneal_matches_plain_anneal_when_untripped() {
        let starts: Vec<i64> = (0..4).map(|i| i * 25).collect();
        let params = SaParams {
            chains: 6,
            max_steps: 80,
            ..SaParams::default()
        };
        let plain = anneal(&starts, params, 13);
        let cancellable = anneal_cancellable_in_place(&starts, score, neighbor_into, params, 13, &CancelToken::new())
            .expect("untripped token must not cancel the batch");
        assert!(bests_equal(&plain, &cancellable));
    }

    #[test]
    fn tripped_token_discards_the_whole_batch() {
        use glimpse_supervise::CancelReason;
        let pre = CancelToken::new();
        pre.cancel(CancelReason::Interrupted);
        assert!(anneal_cancellable_in_place(&[0i64], score, neighbor_into, SaParams::default(), 1, &pre).is_none());
        // Trip from inside the score function: chains bail early and the
        // cut-short batch is never returned.
        let mid = CancelToken::new();
        let evals = std::sync::atomic::AtomicUsize::new(0);
        let tripping_score = |x: &i64| {
            if evals.fetch_add(1, std::sync::atomic::Ordering::Relaxed) == 40 {
                mid.cancel(CancelReason::DeadlineExceeded);
            }
            score(x)
        };
        let params = SaParams {
            chains: 8,
            max_steps: 400,
            ..SaParams::default()
        };
        assert!(anneal_cancellable_in_place(&[0i64], tripping_score, neighbor_into, params, 2, &mid).is_none());
    }

    #[test]
    fn top_k_clones_only_k_states() {
        let out = SaOutcome {
            chain_bests: vec![(1i64, 1.0), (3, 3.0), (2, 2.0), (4, 4.0)],
            steps_executed: 0,
        };
        assert_eq!(out.top_k(2), vec![(4, 4.0), (3, 3.0)]);
        assert_eq!(out.top_k(0), Vec::<(i64, f64)>::new());
        assert_eq!(out.top_k(10).len(), 4);
    }
}
