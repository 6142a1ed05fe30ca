//! The AutoTVM baseline (Chen et al., "Learning to optimize tensor
//! programs", NeurIPS 2018).
//!
//! Loop structure, faithful to the original:
//!
//! 1. Seed with `n_init` random measurements.
//! 2. Fit a boosted-tree surrogate on everything measured so far (invalid
//!    configs enter as zero-throughput).
//! 3. Run a batch of parallel simulated-annealing Markov chains that
//!    maximize the *surrogate*, starting from the best measured configs plus
//!    random restarts.
//! 4. Take the top `batch_size` distinct proposals, replace an ε fraction
//!    with uniform random configs (ε-greedy), and measure them on hardware.
//! 5. Repeat until the budget is exhausted.
//!
//! With [`AutoTvmConfig::transfer`] logs the surrogate is warm-started from
//! foreign runs — the "AutoTVM w/ Transfer Learning" comparator of Fig. 5.

use crate::context::{TuneContext, Tuner, TuningOutcome};
use crate::cost_model::GbtCostModel;
use crate::history::TuningHistory;
use crate::round::{anneal_round, seed_uniform, AnnealRound};
use glimpse_mlkit::sa::SaParams;
use glimpse_mlkit::stats::child_rng;

/// AutoTVM hyperparameters.
#[derive(Debug, Clone)]
pub struct AutoTvmConfig {
    /// Random measurements before the first surrogate fit.
    pub n_init: usize,
    /// Hardware measurements per iteration.
    pub batch_size: usize,
    /// Parallel Markov chains per exploration round.
    pub sa_chains: usize,
    /// Steps per chain per exploration round.
    pub sa_steps: usize,
    /// ε-greedy fraction of each measured batch.
    pub epsilon: f64,
    /// Foreign tuning logs for transfer learning (empty = plain AutoTVM).
    pub transfer: Vec<TuningHistory>,
}

impl Default for AutoTvmConfig {
    fn default() -> Self {
        Self {
            n_init: 16,
            batch_size: 16,
            sa_chains: 32,
            sa_steps: 75,
            epsilon: 0.1,
            transfer: Vec::new(),
        }
    }
}

/// The AutoTVM tuner.
#[derive(Debug, Clone)]
pub struct AutoTvmTuner {
    config: AutoTvmConfig,
}

impl AutoTvmTuner {
    /// Creates the tuner with default hyperparameters.
    #[must_use]
    pub fn new() -> Self {
        Self {
            config: AutoTvmConfig::default(),
        }
    }

    /// Creates the tuner with explicit hyperparameters.
    #[must_use]
    pub fn with_config(config: AutoTvmConfig) -> Self {
        Self { config }
    }

    /// Enables transfer learning from foreign logs.
    #[must_use]
    pub fn with_transfer(mut self, logs: Vec<TuningHistory>) -> Self {
        self.config.transfer = logs;
        self
    }

    fn uses_transfer(&self) -> bool {
        !self.config.transfer.is_empty()
    }
}

impl Default for AutoTvmTuner {
    fn default() -> Self {
        Self::new()
    }
}

impl Tuner for AutoTvmTuner {
    fn name(&self) -> &str {
        if self.uses_transfer() {
            "AutoTVM+TL"
        } else {
            "AutoTVM"
        }
    }

    fn tune(&mut self, mut ctx: TuneContext<'_>) -> TuningOutcome {
        let mut rng = child_rng(ctx.seed, 0xA070_7111);
        let mut model = GbtCostModel::new(ctx.seed ^ 0x6B7);
        if self.uses_transfer() {
            let refs: Vec<&TuningHistory> = self.config.transfer.iter().collect();
            model.load_transfer(ctx.space, &refs, 64);
            // Transfer learning lets AutoTVM skip the random seeding phase:
            // the warm-started surrogate proposes the very first batch.
            model.fit(ctx.space, ctx.history());
        }

        // Phase 1: random initialization (skipped under transfer).
        if !model.is_fitted() {
            seed_uniform(&mut ctx, self.config.n_init, &mut rng);
        }

        // Phase 2: surrogate-guided annealing rounds from the incumbent
        // quarter plus random restarts.
        let round = AnnealRound {
            sa: SaParams {
                chains: self.config.sa_chains,
                max_steps: self.config.sa_steps,
                t_start: 1.0,
                t_end: 0.05,
                patience: 0,
            },
            incumbents: self.config.sa_chains / 4,
            take: self.config.batch_size,
        };
        while !ctx.exhausted() {
            model.fit(ctx.space, ctx.history());
            let space = ctx.space;
            let Some(mut batch) = anneal_round(&mut ctx, &mut rng, &round, |_, _| Vec::new(), |c| model.predict(space, c), |_| true) else {
                break;
            };
            // ε-greedy: replace a fraction with fresh random samples.
            let n_random = ((self.config.batch_size as f64) * self.config.epsilon).ceil() as usize;
            for _ in 0..n_random {
                let config = ctx.space.sample_uniform(&mut rng);
                if !ctx.seen(&config) && !batch.contains(&config) {
                    if batch.len() >= self.config.batch_size {
                        batch.pop();
                    }
                    batch.push(config);
                }
            }
            while batch.len() < self.config.batch_size {
                let config = ctx.space.sample_uniform(&mut rng);
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
    use crate::budget::Budget;
    use crate::random::RandomTuner;
    use glimpse_gpu_spec::database;
    use glimpse_sim::Measurer;
    use glimpse_space::templates;
    use glimpse_tensor_prog::models;

    fn run_tuner<T: Tuner>(mut tuner: T, task_idx: usize, budget: usize, seed: u64) -> TuningOutcome {
        let model = models::alexnet();
        let task = &model.tasks()[task_idx];
        let space = templates::space_for_task(task);
        let mut measurer = Measurer::new(database::find("RTX 2070 Super").unwrap().clone(), seed);
        let ctx = TuneContext::new(task, &space, &mut measurer, Budget::measurements(budget), seed);
        tuner.tune(ctx)
    }

    #[test]
    fn beats_random_search_at_equal_budget() {
        let budget = 160;
        let mut auto_wins = 0;
        for seed in [1u64, 2, 3] {
            let autotvm = run_tuner(AutoTvmTuner::new(), 2, budget, seed);
            let random = run_tuner(RandomTuner::new(), 2, budget, seed);
            if autotvm.best_gflops > random.best_gflops {
                auto_wins += 1;
            }
        }
        assert!(auto_wins >= 2, "AutoTVM won only {auto_wins}/3 seeds");
    }

    #[test]
    fn surrogate_cuts_invalid_fraction_vs_random() {
        // §4.3: learned cost models steer measurements toward valid configs.
        let autotvm = run_tuner(AutoTvmTuner::new(), 2, 200, 5);
        let random = run_tuner(RandomTuner::new(), 2, 200, 5);
        assert!(
            autotvm.invalid_fraction() < random.invalid_fraction(),
            "AutoTVM {} vs random {}",
            autotvm.invalid_fraction(),
            random.invalid_fraction()
        );
    }

    #[test]
    fn explorer_steps_accumulate() {
        let outcome = run_tuner(AutoTvmTuner::new(), 2, 80, 7);
        // 16 init steps + 4 rounds x 32 chains x 75 steps
        assert!(outcome.explorer_steps > 1000);
    }

    #[test]
    fn transfer_changes_name_and_seeds_model() {
        let donor = run_tuner(AutoTvmTuner::new(), 2, 80, 11);
        let tuner = AutoTvmTuner::new().with_transfer(vec![donor.history]);
        assert_eq!(tuner.name(), "AutoTVM+TL");
        let outcome = run_tuner(tuner, 2, 48, 12);
        assert!(outcome.best_gflops > 0.0);
    }

    #[test]
    fn respects_budget_exactly() {
        let outcome = run_tuner(AutoTvmTuner::new(), 2, 50, 13);
        assert!(outcome.measurements <= 50);
    }
}
