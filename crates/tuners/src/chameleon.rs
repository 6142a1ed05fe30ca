//! The Chameleon baseline (Ahn et al., "Chameleon: Adaptive Code
//! Optimization for Expedited Deep Neural Network Compilation", ICLR 2020).
//!
//! Two upgrades over AutoTVM, both reproduced here:
//!
//! * **Adaptive exploration** — instead of fixed-length annealing rounds,
//!   the exploration budget *shrinks geometrically* as the learned policy
//!   converges, and chains restart from the incumbent top-K. This is what
//!   buys Chameleon its ~2× reduction in search steps over AutoTVM
//!   (Fig. 6 shows ≈50 % vs AutoTVM's 100 %).
//! * **Adaptive sampling** — the explorer proposes a large candidate pool;
//!   k-means clusters the pool in feature space and only configurations
//!   nearest the centroids are measured, cutting redundant and (some)
//!   invalid measurements. The paper notes this sampling is still
//!   hardware-agnostic — Glimpse's Fig. 7 advantage comes from replacing it
//!   with Blueprint-derived predictors.

use crate::context::{TuneContext, Tuner, TuningOutcome};
use crate::cost_model::GbtCostModel;
use crate::round::{anneal_round, seed_uniform, AnnealRound};
use glimpse_mlkit::kmeans::{kmeans, snap_to_points};
use glimpse_mlkit::sa::SaParams;
use glimpse_mlkit::stats::child_rng;
use glimpse_space::Config;
use rand::Rng;

/// Chameleon hyperparameters.
#[derive(Debug, Clone, Copy)]
pub struct ChameleonConfig {
    /// Random measurements before the first surrogate fit.
    pub n_init: usize,
    /// Hardware measurements per iteration.
    pub batch_size: usize,
    /// Parallel Markov chains per exploration round.
    pub sa_chains: usize,
    /// Steps per chain in the **first** round.
    pub sa_steps_initial: usize,
    /// Geometric decay of per-round annealing steps (adaptive exploration).
    pub sa_decay: f64,
    /// Candidate-pool multiple handed to adaptive sampling.
    pub pool_factor: usize,
}

impl Default for ChameleonConfig {
    fn default() -> Self {
        Self {
            n_init: 16,
            batch_size: 16,
            sa_chains: 32,
            sa_steps_initial: 60,
            sa_decay: 0.75,
            pool_factor: 4,
        }
    }
}

/// The Chameleon tuner.
#[derive(Debug, Clone)]
pub struct ChameleonTuner {
    config: ChameleonConfig,
}

impl ChameleonTuner {
    /// Creates the tuner with default hyperparameters.
    #[must_use]
    pub fn new() -> Self {
        Self {
            config: ChameleonConfig::default(),
        }
    }

    /// Creates the tuner with explicit hyperparameters.
    #[must_use]
    pub fn with_config(config: ChameleonConfig) -> Self {
        Self { config }
    }
}

impl Default for ChameleonTuner {
    fn default() -> Self {
        Self::new()
    }
}

impl Tuner for ChameleonTuner {
    fn name(&self) -> &str {
        "Chameleon"
    }

    fn tune(&mut self, mut ctx: TuneContext<'_>) -> TuningOutcome {
        let mut rng = child_rng(ctx.seed, 0xC4A3_1E0A);
        let mut model = GbtCostModel::new(ctx.seed ^ 0x11);

        seed_uniform(&mut ctx, self.config.n_init, &mut rng);

        let mut round = 0usize;
        while !ctx.exhausted() {
            model.fit(ctx.space, ctx.history());
            // Adaptive exploration: shrinking annealing budget, greedy
            // restarts from the incumbent half.
            let steps = ((self.config.sa_steps_initial as f64) * self.config.sa_decay.powi(round as i32))
                .ceil()
                .max(8.0) as usize;
            round += 1;
            let anneal = AnnealRound {
                sa: SaParams {
                    chains: self.config.sa_chains,
                    max_steps: steps,
                    t_start: 1.0,
                    t_end: 0.05,
                    patience: 0,
                },
                incumbents: self.config.sa_chains / 2,
                take: usize::MAX,
            };
            let space = ctx.space;
            // Candidate pool for adaptive sampling: every fresh proposal.
            let Some(mut pool) = anneal_round(
                &mut ctx,
                &mut rng,
                &anneal,
                |_, _| Vec::new(),
                |c| model.predict(space, c),
                |_| true,
            ) else {
                break;
            };
            let pool_target = self.config.batch_size * self.config.pool_factor;
            // Expand the pool with neighbors of the *good* proposals (the
            // SA top-k seeds the front of the pool), keeping only candidates
            // the surrogate considers promising — Chameleon's sample
            // synthesis draws from the learned distribution, not uniformly.
            let seeds = pool.len().max(1);
            let quality_floor = 0.15 * model.predict_batch(space, &pool).into_iter().fold(0.0f64, f64::max);
            let mut attempts = 0;
            while pool.len() < pool_target && attempts < pool_target * 10 {
                attempts += 1;
                let base = if pool.is_empty() {
                    ctx.space.sample_uniform(&mut rng)
                } else {
                    pool[rng.gen_range(0..seeds.min(pool.len()))].clone()
                };
                let config = ctx.space.neighbor(&base, &mut rng);
                if !ctx.seen(&config) && !pool.contains(&config) && model.predict(space, &config) >= quality_floor {
                    pool.push(config);
                }
            }
            if pool.is_empty() {
                pool.push(ctx.space.sample_uniform(&mut rng));
            }

            // Adaptive sampling: cluster the pool, measure snapped centroids.
            // Featurize the whole pool once through the model's cache; the
            // surrogate scores reuse those same shared rows, and every later
            // filter reads the batch results.
            let features = model.features_batch(space, &pool);
            let pool_preds = model.predict_batch(space, &pool);
            let clusters = kmeans(&features, self.config.batch_size, 25, &mut rng);
            let chosen = snap_to_points(&clusters.centroids, &features);
            // Exploit guard: always measure the surrogate's single best
            // proposal, then fill with the (diverse) centroid picks that the
            // surrogate does not consider near-certainly invalid.
            let best_measured = ctx.history().best_gflops();
            let mut batch: Vec<Config> = Vec::new();
            if let Some(best_idx) = (0..pool.len()).max_by(|&a, &b| pool_preds[a].total_cmp(&pool_preds[b])) {
                batch.push(pool[best_idx].clone());
            }
            for idx in chosen {
                let config = pool[idx].clone();
                if !batch.contains(&config) && pool_preds[idx] > 0.05 * best_measured {
                    batch.push(config);
                }
            }
            let mut fill_attempts = 0;
            while batch.len() < self.config.batch_size && fill_attempts < 200 {
                fill_attempts += 1;
                // Back-fill from the pool's neighborhoods rather than
                // uniform samples (which are mostly invalid).
                let base = pool[rng.gen_range(0..pool.len())].clone();
                let config = ctx.space.neighbor(&base, &mut rng);
                if !ctx.seen(&config) && !batch.contains(&config) {
                    batch.push(config);
                }
            }
            ctx.measure_batch(&batch);
        }
        let mut outcome = ctx.finish(self.name());
        outcome.surrogate = Some(model.lifecycle());
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::autotvm::AutoTvmTuner;
    use crate::budget::Budget;
    use glimpse_gpu_spec::database;
    use glimpse_sim::Measurer;
    use glimpse_space::templates;
    use glimpse_tensor_prog::models;

    fn run_tuner<T: Tuner>(mut tuner: T, budget: usize, seed: u64) -> TuningOutcome {
        let model = models::alexnet();
        let task = &model.tasks()[2];
        let space = templates::space_for_task(task);
        let mut measurer = Measurer::new(database::find("RTX 2080 Ti").unwrap().clone(), seed);
        let ctx = TuneContext::new(task, &space, &mut measurer, Budget::measurements(budget), seed);
        tuner.tune(ctx)
    }

    #[test]
    fn uses_fewer_explorer_steps_than_autotvm() {
        // Fig. 6: Chameleon ~50% of AutoTVM's steps at comparable budgets.
        let cham = run_tuner(ChameleonTuner::new(), 160, 3);
        let auto = run_tuner(AutoTvmTuner::new(), 160, 3);
        assert!(
            (cham.explorer_steps as f64) < 0.8 * auto.explorer_steps as f64,
            "chameleon {} vs autotvm {}",
            cham.explorer_steps,
            auto.explorer_steps
        );
    }

    #[test]
    fn finds_competitive_configs() {
        let cham = run_tuner(ChameleonTuner::new(), 160, 4);
        let auto = run_tuner(AutoTvmTuner::new(), 160, 4);
        assert!(
            cham.best_gflops > 0.5 * auto.best_gflops,
            "chameleon {} vs autotvm {}",
            cham.best_gflops,
            auto.best_gflops
        );
    }

    #[test]
    fn respects_budget() {
        let outcome = run_tuner(ChameleonTuner::new(), 60, 5);
        assert!(outcome.measurements <= 60);
    }

    #[test]
    fn batch_configs_are_distinct() {
        let outcome = run_tuner(ChameleonTuner::new(), 100, 6);
        use std::collections::BTreeSet;
        let set: BTreeSet<_> = outcome.history.trials.iter().map(|t| t.config.indices().to_vec()).collect();
        // Duplicates are possible only via the resample fallback; they
        // should be rare.
        assert!(set.len() as f64 > 0.9 * outcome.history.len() as f64);
    }
}
