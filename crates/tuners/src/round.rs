//! The annealing round shared by the surrogate-guided tuners.
//!
//! AutoTVM, Chameleon and Glimpse run the same explore step of the
//! propose → measure → update loop: start parallel annealing chains from
//! the incumbents (plus tuner-specific and uniform restarts), maximise a
//! learned energy, and keep the best proposals not yet measured. Each tuner
//! supplies only what is its own — the energy, extra chain starts, and an
//! acceptance filter — and post-processes the proposals (ε-greedy fill,
//! adaptive sampling, prior fill).
//!
//! The tuner's RNG is drawn in a fixed order: extra starts, uniform
//! restarts, then one annealing seed. Journals depend on that order.

use crate::context::TuneContext;
use glimpse_mlkit::sa::{anneal_cancellable_in_place, SaParams};
use glimpse_space::Config;
use rand::rngs::StdRng;
use rand::Rng;

/// Shape of one annealing round.
#[derive(Debug, Clone, Copy)]
pub struct AnnealRound {
    /// Annealing schedule; `sa.chains` is also the number of chain starts
    /// and of top proposals scanned.
    pub sa: SaParams,
    /// Best measured configurations used as chain starts.
    pub incumbents: usize,
    /// Most proposals returned.
    pub take: usize,
}

/// Measures uniform samples (one explorer step each) until the run holds
/// `n_init` trials or is exhausted.
pub(crate) fn seed_uniform(ctx: &mut TuneContext<'_>, n_init: usize, rng: &mut StdRng) {
    while ctx.history().len() < n_init && !ctx.exhausted() {
        let config = ctx.space.sample_uniform(rng);
        ctx.measure(&config);
        ctx.add_explorer_steps(1);
    }
}

/// Runs one annealing round and returns up to `round.take` of its best
/// proposals that are unmeasured, distinct and accepted, best first.
///
/// Chains start from the top `round.incumbents` measured configurations,
/// then `extra(n, rng)` (asked for the `n` starts still missing), then
/// uniform restarts. Returns `None` when the run was cancelled mid-round:
/// the round is discarded whole, so supervision never perturbs the journal.
pub fn anneal_round<X, E, A>(
    ctx: &mut TuneContext<'_>,
    rng: &mut StdRng,
    round: &AnnealRound,
    extra: X,
    energy: E,
    accept: A,
) -> Option<Vec<Config>>
where
    X: FnOnce(usize, &mut StdRng) -> Vec<Config>,
    E: Fn(&Config) -> f64 + Sync,
    A: Fn(&Config) -> bool,
{
    let chains = round.sa.chains;
    let mut starts: Vec<Config> = ctx
        .history()
        .ranked()
        .into_iter()
        .map(|(c, _)| c.clone())
        .take(round.incumbents)
        .collect();
    starts.extend(extra(chains.saturating_sub(starts.len()), rng));
    while starts.len() < chains {
        starts.push(ctx.space.sample_uniform(rng));
    }
    let space = ctx.space;
    // One seed per round: chains fan out across worker threads and split
    // the seed per chain, so results are identical at any thread count.
    let sa_seed: u64 = rng.gen();
    let outcome = anneal_cancellable_in_place(
        &starts,
        energy,
        |c: &Config, out: &mut Config, r: &mut _| space.neighbor_into(c, out, r),
        round.sa,
        sa_seed,
        &ctx.cancel_token(),
    )?;
    ctx.add_explorer_steps(outcome.steps_executed);

    let mut proposals: Vec<Config> = Vec::new();
    for (config, _) in outcome.top_k(chains) {
        if proposals.len() >= round.take {
            break;
        }
        if !ctx.seen(&config) && !proposals.contains(&config) && accept(&config) {
            proposals.push(config);
        }
    }
    Some(proposals)
}
