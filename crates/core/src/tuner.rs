//! The Glimpse tuner: Algorithm 1 of the paper.
//!
//! ```text
//! f̂ ← H(Π, Θ)                      (prior distributions from Blueprint)
//! for i ← 0 to n:
//!     Xs        ← simulated annealing with f̂ as energy    (§3.2)
//!     Xs_pruned ← meta-optimizer with Θ as hints          (§3.2)
//!     Xs_sampled← sampling to minimize invalid configs    (§3.3)
//!     measure Xs_sampled on real hardware; update f̂
//! ```
//!
//! The three ablation switches in [`GlimpseConfig`] turn each contribution
//! off independently (used by the ablation harness).

use crate::artifacts::GlimpseArtifacts;
use crate::blueprint::Blueprint;
use crate::health::ResolvedArtifacts;
use crate::sampler::{EnsembleSampler, DEFAULT_MEMBERS, DEFAULT_TAU};
use glimpse_gpu_spec::GpuSpec;
use glimpse_mlkit::sa::SaParams;
use glimpse_mlkit::stats::child_rng;
use glimpse_space::Config;
use glimpse_supervise::health::{Component, HealthCause, HealthReport};
use glimpse_tuners::cost_model::GbtCostModel;
use glimpse_tuners::round::{anneal_round, AnnealRound};
use glimpse_tuners::{TuneContext, Tuner, TuningOutcome};
use rand::rngs::StdRng;
use std::collections::BTreeMap;

/// Glimpse hyperparameters and ablation switches.
#[derive(Debug, Clone, Copy)]
pub struct GlimpseConfig {
    /// Initial measurements drawn from the prior.
    pub n_init: usize,
    /// Hardware measurements per iteration.
    pub batch_size: usize,
    /// Parallel annealing chains per round.
    pub sa_chains: usize,
    /// Steps per chain per round (small: the acquisition is well-aligned).
    pub sa_steps: usize,
    /// Early-stop patience within a chain.
    pub sa_patience: usize,
    /// Ensemble size of the hardware-aware sampler.
    pub ensemble_members: usize,
    /// Rejection threshold τ (paper: 1/3 by grid search).
    pub tau: f64,
    /// Ablation: use the prior generator `H` for initialization.
    pub use_prior: bool,
    /// Ablation: use the neural acquisition (else raw surrogate energy).
    pub use_acquisition: bool,
    /// Ablation: use hardware-aware sampling.
    pub use_sampler: bool,
}

impl Default for GlimpseConfig {
    fn default() -> Self {
        Self {
            n_init: 16,
            batch_size: 16,
            sa_chains: 24,
            sa_steps: 40,
            sa_patience: 16,
            ensemble_members: DEFAULT_MEMBERS,
            tau: DEFAULT_TAU,
            use_prior: true,
            use_acquisition: true,
            use_sampler: true,
        }
    }
}

/// The Glimpse tuner for one target GPU.
///
/// Always runnable: built from intact artifacts it runs every learned
/// component on rung 0; built via [`GlimpseTuner::from_resolved`] over a
/// damaged or missing bundle it walks each component down its fallback
/// ladder (uniform initial sampling, plain SA energy, validity-check-only
/// sampling, rank-by-measured-history cost model) and records why in its
/// [`HealthReport`]. Every rung is a deterministic function of
/// (seed, history), preserving the byte-identical-resume contract.
#[derive(Debug, Clone)]
pub struct GlimpseTuner<'a> {
    artifacts: Option<&'a GlimpseArtifacts>,
    blueprint: Blueprint,
    sampler: Option<EnsembleSampler>,
    health: HealthReport,
    config: GlimpseConfig,
}

impl<'a> GlimpseTuner<'a> {
    /// Builds the tuner for `target` from offline artifacts.
    #[must_use]
    pub fn new(artifacts: &'a GlimpseArtifacts, target: &GpuSpec) -> Self {
        Self::with_config(artifacts, target, GlimpseConfig::default())
    }

    /// Builds the tuner with explicit hyperparameters.
    #[must_use]
    pub fn with_config(artifacts: &'a GlimpseArtifacts, target: &GpuSpec, config: GlimpseConfig) -> Self {
        Self::build(Some(artifacts), HealthReport::healthy(), target, config)
    }

    /// Builds the tuner from a (possibly degraded) artifact resolution;
    /// each component runs the rung the resolution settled on.
    #[must_use]
    pub fn from_resolved(resolved: &'a ResolvedArtifacts, target: &GpuSpec, config: GlimpseConfig) -> Self {
        Self::build(resolved.artifacts.as_ref(), resolved.health.clone(), target, config)
    }

    fn build(artifacts: Option<&'a GlimpseArtifacts>, mut health: HealthReport, target: &GpuSpec, config: GlimpseConfig) -> Self {
        // A resolution claiming rung 0 without a bundle to back it cannot
        // be honored — demote everything rather than panic.
        if artifacts.is_none() && !health.any_degraded() {
            health = HealthReport::all_degraded(&HealthCause::ArtifactMissing);
        }
        let codec_healthy = health.rung(Component::BlueprintCodec) == 0;
        let blueprint = match artifacts {
            Some(artifacts) if codec_healthy => artifacts.encode(target),
            _ => Blueprint::raw_normalized(target),
        };
        // The threshold ensemble is generated from the codec's decode path,
        // so it needs both its own rung 0 and a healthy codec.
        let sampler = match artifacts {
            Some(artifacts) if codec_healthy && health.rung(Component::Sampler) == 0 => Some(EnsembleSampler::from_blueprint(
                &artifacts.codec,
                &blueprint,
                config.ensemble_members,
                config.tau,
            )),
            _ => None,
        };
        Self {
            artifacts,
            blueprint,
            sampler,
            health,
            config,
        }
    }

    /// The target's Blueprint.
    #[must_use]
    pub fn blueprint(&self) -> &Blueprint {
        &self.blueprint
    }

    /// The generated sampler ensemble (`None` when the sampler or codec is
    /// off rung 0: the simulator's validity check is the only guard).
    #[must_use]
    pub fn sampler(&self) -> Option<&EnsembleSampler> {
        self.sampler.as_ref()
    }

    /// The component-health resolution this tuner runs under.
    #[must_use]
    pub fn health(&self) -> &HealthReport {
        &self.health
    }

    /// Whether the prior net is usable on this run (rung 0 + bundle).
    fn prior_available(&self) -> bool {
        self.config.use_prior && self.artifacts.is_some() && self.health.rung(Component::Prior) == 0
    }
}

/// Rank-by-measured-history energy: the cost-model ladder bottom. Scores
/// a measured configuration by its normalized throughput and an unmeasured
/// one at zero, so annealing climbs toward (and explores around) the best
/// regions evidence already supports — a deterministic function of the
/// history alone, with no trained state to lose.
fn history_rank_energy(pairs: &[(&Config, f64)]) -> BTreeMap<Vec<usize>, f64> {
    let best = pairs.iter().map(|(_, g)| *g).fold(0.0f64, f64::max).max(1.0);
    pairs.iter().map(|(c, g)| (c.indices().to_vec(), g / best)).collect()
}

impl Tuner for GlimpseTuner<'_> {
    fn name(&self) -> &str {
        "Glimpse"
    }

    fn tune(&mut self, mut ctx: TuneContext<'_>) -> TuningOutcome {
        let mut rng = child_rng(ctx.seed, 0x0911_A95E);
        let space = ctx.space;
        let template = space.template();
        let total_budget = ctx.budget.max_measurements.max(1);
        // Validate the (disk-loaded) prior against the live space once; a
        // layout mismatch degrades to uniform sampling — demoting the
        // component's health — instead of panicking mid-search.
        let prior = match self.artifacts.map(|a| a.prior(template)) {
            Some(p) if self.prior_available() => match p.prior_weights(space, &self.blueprint) {
                Ok(_) => Some(p),
                Err(err) => {
                    self.health
                        .demote(Component::Prior, 1, HealthCause::ValidationFailed { detail: err.to_string() });
                    None
                }
            },
            _ => None,
        };
        let acquisition = self
            .artifacts
            .filter(|_| self.config.use_acquisition && self.health.rung(Component::Acquisition) == 0)
            .map(|a| a.acquisition(template));
        let sampler = if self.config.use_sampler { self.sampler.as_ref() } else { None };
        let blueprint = &self.blueprint;
        // Hardware-aware sampling: reject configurations the ensemble vetoes.
        let accept = |c: &Config| sampler.is_none_or(|s| s.accept(space, c));

        // Initial batch from the prior distributions (Algorithm 1, line 1),
        // filtered by the hardware-aware sampler.
        let initial: Vec<Config> = if let Some(prior) = prior {
            let raw = prior
                .sample_initial(space, blueprint, self.config.n_init * 3, &mut rng)
                .unwrap_or_default();
            let mut filtered: Vec<Config> = raw.into_iter().filter(|c| accept(c)).collect();
            filtered.truncate(self.config.n_init);
            let mut attempts = 0;
            while filtered.len() < self.config.n_init && attempts < 200 {
                attempts += 1;
                let extra = prior.sample_initial(space, blueprint, 4, &mut rng).unwrap_or_default();
                for config in extra {
                    if filtered.len() < self.config.n_init && !filtered.contains(&config) && accept(&config) {
                        filtered.push(config);
                    }
                }
            }
            filtered
        } else {
            (0..self.config.n_init).map(|_| space.sample_uniform(&mut rng)).collect()
        };
        ctx.measure_batch(&initial);

        // Cost-model ladder: rung 0 trains the GBT surrogate online; rung 1
        // ranks by measured history only (nothing trained, nothing to lose).
        let mut model = (self.health.rung(Component::CostModel) == 0).then(|| GbtCostModel::new(ctx.seed ^ 0x91));
        // Chain starts: the incumbent half, then fresh prior samples (the
        // prior keeps proposing plausible regions even mid-run).
        let round = AnnealRound {
            sa: SaParams {
                chains: self.config.sa_chains,
                max_steps: self.config.sa_steps,
                t_start: 0.6,
                t_end: 0.05,
                patience: self.config.sa_patience,
            },
            incumbents: self.config.sa_chains / 2,
            take: self.config.batch_size,
        };
        while !ctx.exhausted() {
            if let Some(model) = model.as_mut() {
                model.fit(space, ctx.history());
            }
            let t_frac = ctx.history().len() as f64 / total_budget as f64;
            let history_ranks = model.is_none().then(|| history_rank_energy(&ctx.history().ranked()));
            // Early in the run the meta-learned, Blueprint-conditioned
            // acquisition carries most of the signal; as local evidence
            // accumulates the online surrogate becomes the sharper guide.
            // Blending by optimization progress is the exploration ->
            // exploitation shift MetaBO's budget feature modulates (§3.2).
            let exploit = t_frac.clamp(0.0, 1.0);
            // Featurize each proposal once: the surrogate consumes the raw
            // row and the acquisition zero-pads the same row internally
            // (identical to its own featurization), halving the per-step
            // lattice work when both are on.
            let energy = |c: &Config| {
                let f = space.features(c);
                let mu = match (&model, &history_ranks) {
                    (Some(model), _) => model.predict_features(&f),
                    (None, Some(ranks)) => ranks.get(c.indices()).copied().unwrap_or(0.0),
                    (None, None) => 0.0,
                };
                if let Some(acquisition) = acquisition {
                    let acq = acquisition.score_features(&f, mu, t_frac, blueprint);
                    (1.0 - exploit) * acq + exploit * mu
                } else {
                    mu
                }
            };
            let prior_starts = |n: usize, rng: &mut StdRng| {
                prior.map_or_else(Vec::new, |prior| prior.sample_initial(space, blueprint, n, rng).unwrap_or_default())
            };
            let Some(mut batch) = anneal_round(&mut ctx, &mut rng, &round, prior_starts, energy, accept) else {
                break;
            };
            // Fill remainder from the prior (sampler-checked).
            let mut attempts = 0;
            while batch.len() < self.config.batch_size && attempts < 300 {
                attempts += 1;
                let config = if let Some(prior) = prior {
                    prior
                        .sample_initial(space, blueprint, 2, &mut rng)
                        .ok()
                        .and_then(|mut batch| batch.pop())
                        .unwrap_or_else(|| space.sample_uniform(&mut rng))
                } else {
                    space.sample_uniform(&mut rng)
                };
                if !ctx.seen(&config) && !batch.contains(&config) && accept(&config) {
                    batch.push(config);
                }
            }
            if batch.is_empty() {
                batch.push(space.sample_uniform(&mut rng));
            }
            ctx.measure_batch(&batch);
        }
        let mut outcome = ctx.finish(self.name());
        outcome.surrogate = model.as_ref().map(GbtCostModel::lifecycle);
        outcome.health = Some(self.health.clone());
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifacts::TrainingOptions;
    use glimpse_gpu_spec::database;
    use glimpse_sim::Measurer;
    use glimpse_space::templates;
    use glimpse_tensor_prog::models;
    use glimpse_tuners::autotvm::AutoTvmTuner;
    use glimpse_tuners::Budget;
    use std::sync::OnceLock;

    fn artifacts() -> &'static GlimpseArtifacts {
        static CELL: OnceLock<GlimpseArtifacts> = OnceLock::new();
        CELL.get_or_init(|| {
            let gpus: Vec<&glimpse_gpu_spec::GpuSpec> = vec![
                database::find("GTX 1080").unwrap(),
                database::find("GTX 1080 Ti").unwrap(),
                database::find("RTX 2060").unwrap(),
                database::find("RTX 2080").unwrap(),
                database::find("RTX 3070").unwrap(),
                database::find("RTX 3080").unwrap(),
            ];
            GlimpseArtifacts::train_with(&gpus, TrainingOptions::fast(), 21).unwrap()
        })
    }

    fn run_glimpse(config: GlimpseConfig, budget: usize, seed: u64) -> TuningOutcome {
        let target = database::find("RTX 2080 Ti").unwrap();
        let model = models::alexnet();
        let task = &model.tasks()[2];
        let space = templates::space_for_task(task);
        let mut measurer = Measurer::new(target.clone(), seed);
        let ctx = TuneContext::new(task, &space, &mut measurer, Budget::measurements(budget), seed);
        GlimpseTuner::with_config(artifacts(), target, config).tune(ctx)
    }

    fn run_autotvm(budget: usize, seed: u64) -> TuningOutcome {
        let target = database::find("RTX 2080 Ti").unwrap();
        let model = models::alexnet();
        let task = &model.tasks()[2];
        let space = templates::space_for_task(task);
        let mut measurer = Measurer::new(target.clone(), seed);
        let ctx = TuneContext::new(task, &space, &mut measurer, Budget::measurements(budget), seed);
        AutoTvmTuner::new().tune(ctx)
    }

    #[test]
    fn glimpse_produces_valid_outcome() {
        let outcome = run_glimpse(GlimpseConfig::default(), 64, 1);
        assert_eq!(outcome.tuner, "Glimpse");
        assert!(outcome.best_gflops > 0.0);
        assert!(outcome.measurements <= 64);
    }

    #[test]
    fn glimpse_has_fewer_invalids_than_autotvm() {
        let glimpse = run_glimpse(GlimpseConfig::default(), 128, 2);
        let autotvm = run_autotvm(128, 2);
        assert!(
            glimpse.invalid_fraction() <= autotvm.invalid_fraction(),
            "glimpse {} vs autotvm {}",
            glimpse.invalid_fraction(),
            autotvm.invalid_fraction()
        );
    }

    #[test]
    fn glimpse_uses_fewer_explorer_steps() {
        let glimpse = run_glimpse(GlimpseConfig::default(), 128, 3);
        let autotvm = run_autotvm(128, 3);
        assert!(
            (glimpse.explorer_steps as f64) < 0.6 * autotvm.explorer_steps as f64,
            "glimpse {} vs autotvm {}",
            glimpse.explorer_steps,
            autotvm.explorer_steps
        );
    }

    #[test]
    fn ablation_switches_change_behavior() {
        let full = run_glimpse(GlimpseConfig::default(), 64, 4);
        let no_sampler = run_glimpse(
            GlimpseConfig {
                use_sampler: false,
                ..GlimpseConfig::default()
            },
            64,
            4,
        );
        // Without the sampler, invalid measurements cannot decrease.
        assert!(no_sampler.invalid_measurements >= full.invalid_measurements);
    }

    #[test]
    fn blueprint_matches_artifact_dim() {
        let target = database::find("RTX 2080 Ti").unwrap();
        let tuner = GlimpseTuner::new(artifacts(), target);
        assert_eq!(tuner.blueprint().len(), artifacts().blueprint_dim());
        assert_eq!(tuner.sampler().expect("healthy run builds the ensemble").len(), DEFAULT_MEMBERS);
        assert!(!tuner.health().any_degraded());
    }

    fn run_resolved(resolved: &crate::health::ResolvedArtifacts, budget: usize, seed: u64) -> TuningOutcome {
        let target = database::find("RTX 2080 Ti").unwrap();
        let model = models::alexnet();
        let task = &model.tasks()[2];
        let space = templates::space_for_task(task);
        let mut measurer = Measurer::new(target.clone(), seed);
        let ctx = TuneContext::new(task, &space, &mut measurer, Budget::measurements(budget), seed);
        GlimpseTuner::from_resolved(resolved, target, GlimpseConfig::default()).tune(ctx)
    }

    #[test]
    fn fully_degraded_tuner_still_completes_with_health_attached() {
        use glimpse_supervise::health::HealthCause;
        let resolved = crate::health::ResolvedArtifacts::fallback(HealthCause::ChecksumMismatch);
        let outcome = run_resolved(&resolved, 48, 5);
        assert_eq!(outcome.tuner, "Glimpse");
        assert_eq!(outcome.measurements, 48, "degraded runs consume the full budget");
        assert!(outcome.best_gflops > 0.0);
        assert!(outcome.surrogate.is_none(), "rung-1 cost model trains no surrogate");
        let health = outcome.health.expect("health is always attached");
        assert!(health.any_degraded());
        assert_eq!(health.degraded_names().len(), 5);
    }

    #[test]
    fn degraded_runs_are_deterministic_functions_of_seed_and_history() {
        use glimpse_supervise::health::HealthCause;
        for cause in [HealthCause::ArtifactMissing, HealthCause::Truncated] {
            let resolved = crate::health::ResolvedArtifacts::fallback(cause);
            let a = run_resolved(&resolved, 32, 6);
            let b = run_resolved(&resolved, 32, 6);
            assert_eq!(a, b, "same seed + same rungs must reproduce bit-identically");
        }
    }

    #[test]
    fn single_component_injection_degrades_only_that_ladder() {
        use glimpse_supervise::health::Component;
        let resolved = crate::health::ResolvedArtifacts::healthy(artifacts().clone()).with_injected(Component::CostModel);
        let outcome = run_resolved(&resolved, 32, 7);
        assert_eq!(outcome.measurements, 32);
        assert!(outcome.surrogate.is_none(), "injected cost-model fault switches to history-rank");
        let health = outcome.health.expect("health attached");
        assert_eq!(health.degraded_names(), vec!["cost-model"]);

        // A sampler-only injection keeps the surrogate but drops the ensemble.
        let resolved = crate::health::ResolvedArtifacts::healthy(artifacts().clone()).with_injected(Component::Sampler);
        let target = database::find("RTX 2080 Ti").unwrap();
        let tuner = GlimpseTuner::from_resolved(&resolved, target, GlimpseConfig::default());
        assert!(tuner.sampler().is_none());
        assert_eq!(tuner.blueprint().len(), artifacts().blueprint_dim(), "codec stays on rung 0");
    }

    #[test]
    fn degraded_codec_falls_back_to_raw_normalized_features() {
        use glimpse_supervise::health::Component;
        let resolved = crate::health::ResolvedArtifacts::healthy(artifacts().clone()).with_injected(Component::BlueprintCodec);
        let target = database::find("RTX 2080 Ti").unwrap();
        let tuner = GlimpseTuner::from_resolved(&resolved, target, GlimpseConfig::default());
        assert_eq!(
            tuner.blueprint().len(),
            glimpse_gpu_spec::features::FEATURE_COUNT,
            "ladder bottom embeds the full feature width"
        );
        assert!(tuner.sampler().is_none(), "the ensemble needs a healthy codec");
    }
}
