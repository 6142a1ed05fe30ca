//! Uniform random search — the weakest baseline in Fig. 4.

use crate::context::{TuneContext, Tuner, TuningOutcome};
use glimpse_mlkit::stats::child_rng;

/// Samples configurations uniformly at random until the budget is spent.
#[derive(Debug, Clone, Copy, Default)]
pub struct RandomTuner;

impl RandomTuner {
    /// Creates the tuner.
    #[must_use]
    pub fn new() -> Self {
        Self
    }
}

impl Tuner for RandomTuner {
    fn name(&self) -> &str {
        "Random"
    }

    fn tune(&mut self, mut ctx: TuneContext<'_>) -> TuningOutcome {
        let mut rng = child_rng(ctx.seed, 0x0BAD_5EED);
        while !ctx.exhausted() {
            // Resample on collision a few times, then accept the duplicate.
            let mut config = ctx.space.sample_uniform(&mut rng);
            for _ in 0..4 {
                if !ctx.seen(&config) {
                    break;
                }
                config = ctx.space.sample_uniform(&mut rng);
            }
            ctx.measure(&config);
            // One sample drawn = one (degenerate) explorer step.
            ctx.add_explorer_steps(1);
        }
        ctx.finish(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::Budget;
    use glimpse_gpu_spec::database;
    use glimpse_sim::Measurer;
    use glimpse_space::templates;
    use glimpse_tensor_prog::models;

    #[test]
    fn random_tuner_spends_entire_budget() {
        let model = models::alexnet();
        let task = &model.tasks()[2];
        let space = templates::space_for_task(task);
        let mut measurer = Measurer::new(database::find("Titan Xp").unwrap().clone(), 1);
        let ctx = TuneContext::new(task, &space, &mut measurer, Budget::measurements(30), 7);
        let outcome = RandomTuner::new().tune(ctx);
        assert_eq!(outcome.measurements, 30);
        assert_eq!(outcome.tuner, "Random");
        assert!(outcome.best_gflops > 0.0, "30 random samples should find at least one valid config");
    }

    #[test]
    fn deterministic_given_seed() {
        let model = models::alexnet();
        let task = &model.tasks()[2];
        let space = templates::space_for_task(task);
        let run = |seed| {
            let mut measurer = Measurer::new(database::find("Titan Xp").unwrap().clone(), 1);
            let ctx = TuneContext::new(task, &space, &mut measurer, Budget::measurements(20), seed);
            RandomTuner::new().tune(ctx).best_gflops
        };
        assert_eq!(run(5), run(5));
    }
}
