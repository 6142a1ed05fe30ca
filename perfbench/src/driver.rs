//! The traced cell runner: AutoTVM, Glimpse and DGP rounds re-driven
//! through the layers' public calls, each call timed under its layer.
//!
//! Each loop mirrors its library tuner step for step (same RNG streams,
//! same call order, same floating-point expressions), and the runner
//! mirrors `run_supervised` (header, replay of a recovered prefix,
//! snapshot cadence, terminal flush). The benchmark proves the mirror
//! exact by comparing journal digests with the untraced run; a drift in
//! either copy fails the run instead of skewing the profile.
//!
//! Measurement goes through the simulator's `Measurer::measure` with the
//! fault-retry loop of `measure_with_retry` unrolled here, so simulated
//! GPU time splits into measurement and fault cost; the trial is then
//! appended with `RunJournal::append_trial` (timed on its own) and folded
//! into the context with `TuneContext::absorb`.

use crate::trace::{Cpu, Probe, Span, SPANS};
use crate::workload::{library_tuner, Cell, CellRunner, Setup, TunerKind};
use glimpse_core::sampler::EnsembleSampler;
use glimpse_core::tuner::{GlimpseConfig, GlimpseTuner};
use glimpse_mlkit::gp::{GaussianProcess, RbfKernel};
use glimpse_mlkit::parallel::{parallel_map, Threads};
use glimpse_mlkit::sa::{anneal_cancellable_in_place, SaParams};
use glimpse_mlkit::stats::child_rng;
use glimpse_sim::{MeasureResult, Measurer, PerfModel, RetryPolicy};
use glimpse_space::{Config, SearchSpace};
use glimpse_supervise::{CancelReason, CancelToken, CellStatus};
use glimpse_tuners::autotvm::AutoTvmConfig;
use glimpse_tuners::cost_model::GbtCostModel;
use glimpse_tuners::dgp::DgpConfig;
use glimpse_tuners::journal::{load_complete, JOURNAL_FILE};
use glimpse_tuners::{CheckpointSpec, RunControl, RunHeader, RunJournal, SupervisedOutcome, Trial, TuneContext, Tuner, TuningOutcome};
use rand::Rng;

/// GP target scale of the DGP tuner.
const DGP_SCALE: f64 = 1000.0;

/// Counters the traced run collects beside the probe's timers.
#[derive(Debug, Default)]
pub struct Stats {
    /// SA chain updates.
    pub sa_steps: u64,
    /// `GbtCostModel::fit` calls.
    pub fit_calls: u64,
    /// Scratch fits over all cells.
    pub scratch_fits: u64,
    /// Incremental fits over all cells.
    pub incremental_fits: u64,
    /// Largest surrogate training matrix.
    pub rows_max: u64,
    /// Spearman ρ per round: surrogate prediction vs measured batch.
    pub spearman: Vec<f64>,
    /// Feature-cache hits over all cells.
    pub cache_hits: u64,
    /// Feature-cache lookups over all cells.
    pub cache_lookups: u64,
    /// Live trial records appended.
    pub journal_records: u64,
    /// Appends that did not write a snapshot.
    pub plain_appends: u64,
    /// Records served from a recovered journal prefix.
    pub replay_records: u64,
    /// Best noise-free GFLOPS of the prior's initial batch over a uniform
    /// batch of the same size and seed, per cell.
    pub init_quality: Vec<f64>,
    /// Sampler verdicts against ground-truth validity.
    pub veto: Confusion,
    /// Live measurements.
    pub measure_calls: u64,
    /// Measurement attempts, retries included.
    pub attempts: u64,
    /// Attempts lost to injected faults.
    pub faults: u64,
    /// Simulated seconds of attempts that ran or were rejected.
    pub gpu_s_measure: f64,
    /// Simulated seconds of faulted attempts and retry backoff.
    pub gpu_s_fault: f64,
    /// `GaussianProcess::fit` calls.
    pub gp_fit_calls: u64,
}

/// Veto confusion counts; "positive" means vetoed.
#[derive(Debug, Default, Clone, Copy)]
pub struct Confusion {
    /// Vetoed and truly invalid.
    pub true_veto: u64,
    /// Vetoed but valid.
    pub false_veto: u64,
    /// Accepted but invalid.
    pub missed: u64,
    /// Accepted and valid.
    pub passed: u64,
}

impl Confusion {
    /// Share of checked configurations vetoed.
    #[must_use]
    pub fn veto_rate(&self) -> f64 {
        ratio(self.true_veto + self.false_veto, self.total())
    }

    /// Share of vetoes that hit an invalid configuration.
    #[must_use]
    pub fn precision(&self) -> f64 {
        ratio(self.true_veto, self.true_veto + self.false_veto)
    }

    /// Share of invalid configurations vetoed.
    #[must_use]
    pub fn recall(&self) -> f64 {
        ratio(self.true_veto, self.true_veto + self.missed)
    }

    fn total(&self) -> u64 {
        self.true_veto + self.false_veto + self.missed + self.passed
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// One row of the per-task breakdown.
#[derive(Debug, Clone)]
pub struct TaskRow {
    /// Cell name.
    pub name: String,
    /// Code template.
    pub template: String,
    /// Host self-ms per span (all legs that tuned the cell).
    pub host_ms: [f64; SPANS],
    /// Trials journaled.
    pub trials: usize,
    /// Invalid trials.
    pub invalid: usize,
    /// Trials still faulted after retry.
    pub faulted: usize,
    /// Simulated GPU seconds.
    pub gpu_s: f64,
    /// Best measured GFLOPS.
    pub best_gflops: f64,
}

/// The traced runner.
#[derive(Debug)]
pub struct Traced<'p> {
    probe: &'p Probe,
    /// Counters collected so far.
    pub stats: Stats,
    /// Per-cell rows in first-run order.
    pub rows: Vec<TaskRow>,
}

/// The appending end of a traced cell.
struct Live<'j> {
    journal: &'j mut RunJournal,
    snapshot_every: u64,
    replay_len: usize,
    cancel_at: Option<u64>,
    cancel: CancelToken,
    retried: usize,
}

impl<'p> Traced<'p> {
    /// A runner recording into `probe`.
    #[must_use]
    pub fn new(probe: &'p Probe) -> Self {
        Self {
            probe,
            stats: Stats::default(),
            rows: Vec::new(),
        }
    }

    /// Mirrors `TuneContext::measure`: replayed records come from the
    /// context, live ones are measured, journaled and absorbed here.
    fn measure(&mut self, ctx: &mut TuneContext<'_>, live: &mut Live<'_>, config: &Config) -> Option<f64> {
        let done = ctx.history().len();
        if done < live.replay_len {
            return ctx.measure(config);
        }
        if live.cancel_at.is_some_and(|n| done as u64 + 1 >= n) {
            live.cancel.cancel(CancelReason::Interrupted);
        }
        if ctx.exhausted() {
            return None;
        }
        let probe = self.probe;
        let (trial, attempts) = probe.span(Span::Measure, || {
            self.stats.retry_measure(ctx.measurer, ctx.space, config, &ctx.retry)
        });
        live.retried += attempts - 1;
        self.stats.measure_calls += 1;
        let record = glimpse_tuners::TrialRecord {
            trial,
            post: ctx.measurer.state(),
        };
        let snapshot = (live.journal.trials() + 1).is_multiple_of(live.snapshot_every);
        let span = if snapshot { Span::JournalSnapshot } else { Span::JournalAppend };
        if !probe.span(span, || live.journal.append_trial(&record)) {
            return None;
        }
        self.stats.journal_records += 1;
        self.stats.plain_appends += u64::from(!snapshot);
        let gflops = record.trial.gflops;
        ctx.absorb(record.trial);
        gflops
    }

    /// Measures `batch` in order, scoring the surrogate's predictions for
    /// it (made before measuring) against what was measured.
    fn measure_round(&mut self, ctx: &mut TuneContext<'_>, live: &mut Live<'_>, batch: &[Config], predict: impl Fn(&Config) -> f64) {
        let predicted: Vec<f64> = self.probe.exclude(|| batch.iter().map(&predict).collect());
        let mut pairs = (Vec::new(), Vec::new());
        for (config, p) in batch.iter().zip(predicted) {
            let before = ctx.history().len();
            self.measure(ctx, live, config);
            if let Some(trial) = ctx.history().trials.get(before).filter(|t| !t.is_fault()) {
                pairs.0.push(p);
                pairs.1.push(trial.gflops.unwrap_or(0.0));
            }
        }
        if pairs.0.len() >= 3 {
            let rho = glimpse_mlkit::rank::spearman_rho(&pairs.0, &pairs.1);
            if rho.is_finite() {
                self.stats.spearman.push(rho);
            }
        }
    }

    fn fit(&mut self, model: &mut GbtCostModel, ctx: &TuneContext<'_>) {
        self.probe.span(Span::SurrogateFit, || model.fit(ctx.space, ctx.history()));
        self.stats.fit_calls += 1;
    }

    fn record_model(&mut self, model: &GbtCostModel) {
        let life = model.lifecycle();
        self.stats.scratch_fits += life.scratch_fits as u64;
        self.stats.incremental_fits += life.incremental_fits as u64;
        self.stats.rows_max = self.stats.rows_max.max(life.training_rows as u64);
        self.stats.cache_hits += life.cache.hits;
        self.stats.cache_lookups += life.cache.lookups();
    }

    /// The sampler's verdict on `config`, scored against the simulator's
    /// ground-truth validity.
    fn accept(&mut self, sampler: &EnsembleSampler, space: &SearchSpace, config: &Config, truth: &PerfModel) -> bool {
        let accepted = self.probe.span(Span::Sampler, || sampler.accept(space, config));
        let valid = self.probe.exclude(|| truth.throughput_gflops(space, config).is_some());
        let v = &mut self.stats.veto;
        match (accepted, valid) {
            (false, false) => v.true_veto += 1,
            (false, true) => v.false_veto += 1,
            (true, false) => v.missed += 1,
            (true, true) => v.passed += 1,
        }
        accepted
    }

    /// `AutoTvmTuner::tune`, traced.
    fn autotvm(&mut self, mut ctx: TuneContext<'_>, live: &mut Live<'_>, name: &str) -> TuningOutcome {
        let probe = self.probe;
        let config = AutoTvmConfig::default();
        let mut rng = child_rng(ctx.seed, 0xA070_7111);
        let mut model = GbtCostModel::new(ctx.seed ^ 0x6B7);
        while !model.is_fitted() && ctx.history().len() < config.n_init && !ctx.exhausted() {
            let c = probe.span(Span::Select, || ctx.space.sample_uniform(&mut rng));
            self.measure(&mut ctx, live, &c);
            ctx.add_explorer_steps(1);
        }
        let cancel = ctx.cancel_token();
        while !ctx.exhausted() {
            self.fit(&mut model, &ctx);
            let space = ctx.space;
            let (starts, sa_seed) = probe.span(Span::Select, || {
                let mut ranked = ctx.history().valid_pairs();
                ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
                let mut starts: Vec<Config> = ranked.iter().map(|(c, _)| (*c).clone()).take(config.sa_chains / 4).collect();
                while starts.len() < config.sa_chains {
                    starts.push(space.sample_uniform(&mut rng));
                }
                let sa_seed: u64 = rng.gen();
                (starts, sa_seed)
            });
            let cpu = &probe.cpu;
            let surrogate = &model;
            let energy = |c: &Config| {
                let f = cpu.time(Cpu::Featurize, || space.features(c));
                cpu.time(Cpu::Predict, || surrogate.predict_features(&f))
            };
            let params = SaParams {
                chains: config.sa_chains,
                max_steps: config.sa_steps,
                t_start: 1.0,
                t_end: 0.05,
                patience: 0,
            };
            let annealed = probe.span(Span::Anneal, || {
                anneal_cancellable_in_place(
                    &starts,
                    energy,
                    |c: &Config, out: &mut Config, r: &mut _| space.neighbor_into(c, out, r),
                    params,
                    sa_seed,
                    &cancel,
                )
            });
            let Some(outcome) = annealed else {
                break;
            };
            ctx.add_explorer_steps(outcome.steps_executed);
            self.stats.sa_steps += outcome.steps_executed as u64;
            let batch = probe.span(Span::Select, || {
                let mut batch: Vec<Config> = Vec::new();
                for (c, _) in outcome.top_k(config.sa_chains) {
                    if batch.len() >= config.batch_size {
                        break;
                    }
                    if !ctx.seen(&c) && !batch.contains(&c) {
                        batch.push(c);
                    }
                }
                let n_random = ((config.batch_size as f64) * config.epsilon).ceil() as usize;
                for _ in 0..n_random {
                    let c = space.sample_uniform(&mut rng);
                    if !ctx.seen(&c) && !batch.contains(&c) {
                        if batch.len() >= config.batch_size {
                            batch.pop();
                        }
                        batch.push(c);
                    }
                }
                while batch.len() < config.batch_size {
                    let c = space.sample_uniform(&mut rng);
                    if !ctx.seen(&c) && !batch.contains(&c) {
                        batch.push(c);
                    }
                }
                batch
            });
            self.measure_round(&mut ctx, live, &batch, |c| model.predict(space, c));
        }
        let mut outcome = ctx.finish(name);
        outcome.surrogate = Some(model.lifecycle());
        self.record_model(&model);
        outcome
    }

    /// `GlimpseTuner::tune` on rung 0 for every component, traced.
    #[allow(clippy::too_many_lines)]
    fn glimpse(&mut self, mut ctx: TuneContext<'_>, live: &mut Live<'_>, setup: &Setup, cell: &Cell) -> Result<TuningOutcome, String> {
        let probe = self.probe;
        let resolved = setup.resolved.as_ref().ok_or("the Glimpse workload has no artifact bundle")?;
        let artifacts = resolved.artifacts.as_ref().ok_or("the artifact bundle did not load")?;
        let tuner = GlimpseTuner::from_resolved(resolved, cell.gpu, GlimpseConfig::default());
        let sampler = tuner.sampler().ok_or("the sampler is off rung 0")?;
        if tuner.health().any_degraded() {
            return Err(format!("Glimpse components are degraded: {:?}", tuner.health().degraded_names()));
        }
        let config = GlimpseConfig::default();
        let blueprint = tuner.blueprint();
        let truth = PerfModel::new(cell.gpu.clone());
        let space = ctx.space;
        let mut rng = child_rng(ctx.seed, 0x0911_A95E);
        let total_budget = ctx.budget.max_measurements.max(1);
        let prior = artifacts.prior(space.template());
        probe
            .span(Span::Prior, || prior.prior_weights(space, blueprint))
            .map_err(|e| format!("prior does not fit {}: {e}", cell.name))?;
        let acquisition = artifacts.acquisition(space.template());

        // Initial batch from the prior, filtered by the sampler.
        let raw = probe.span(Span::Prior, || {
            prior
                .sample_initial(space, blueprint, config.n_init * 3, &mut rng)
                .unwrap_or_default()
        });
        let mut initial: Vec<Config> = raw.into_iter().filter(|c| self.accept(sampler, space, c, &truth)).collect();
        initial.truncate(config.n_init);
        let mut attempts = 0;
        while initial.len() < config.n_init && attempts < 200 {
            attempts += 1;
            let extra = probe.span(Span::Prior, || {
                prior.sample_initial(space, blueprint, 4, &mut rng).unwrap_or_default()
            });
            for c in extra {
                if initial.len() < config.n_init && !initial.contains(&c) && self.accept(sampler, space, &c, &truth) {
                    initial.push(c);
                }
            }
        }
        let quality = probe.exclude(|| {
            let best = |configs: &[Config]| configs.iter().filter_map(|c| truth.throughput_gflops(space, c)).fold(0.0, f64::max);
            let mut uniform_rng = child_rng(ctx.seed, 0x0911_A95E);
            let uniform: Vec<Config> = (0..initial.len()).map(|_| space.sample_uniform(&mut uniform_rng)).collect();
            (best(&initial), best(&uniform))
        });
        if quality.0 > 0.0 && quality.1 > 0.0 {
            self.stats.init_quality.push(quality.0 / quality.1);
        }
        for c in &initial {
            self.measure(&mut ctx, live, c);
        }

        let mut model = GbtCostModel::new(ctx.seed ^ 0x91);
        let cancel = ctx.cancel_token();
        while !ctx.exhausted() {
            self.fit(&mut model, &ctx);
            let t_frac = ctx.history().len() as f64 / total_budget as f64;
            let (starts, sa_seed) = probe.span(Span::Select, || {
                let mut ranked = ctx.history().valid_pairs();
                ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
                let mut starts: Vec<Config> = ranked.iter().map(|(c, _)| (*c).clone()).take(config.sa_chains / 2).collect();
                let fresh = probe.span(Span::Prior, || {
                    prior
                        .sample_initial(space, blueprint, config.sa_chains - starts.len(), &mut rng)
                        .unwrap_or_default()
                });
                starts.extend(fresh);
                while starts.len() < config.sa_chains {
                    starts.push(space.sample_uniform(&mut rng));
                }
                let sa_seed: u64 = rng.gen();
                (starts, sa_seed)
            });
            let exploit = t_frac.clamp(0.0, 1.0);
            let cpu = &probe.cpu;
            let surrogate = &model;
            let energy = |c: &Config| {
                let f = cpu.time(Cpu::Featurize, || space.features(c));
                let mu = cpu.time(Cpu::Predict, || surrogate.predict_features(&f));
                let acq = cpu.time(Cpu::Acquisition, || acquisition.score_features(&f, mu, t_frac, blueprint));
                (1.0 - exploit) * acq + exploit * mu
            };
            let params = SaParams {
                chains: config.sa_chains,
                max_steps: config.sa_steps,
                t_start: 0.6,
                t_end: 0.05,
                patience: config.sa_patience,
            };
            let annealed = probe.span(Span::Anneal, || {
                anneal_cancellable_in_place(
                    &starts,
                    energy,
                    |c: &Config, out: &mut Config, r: &mut _| space.neighbor_into(c, out, r),
                    params,
                    sa_seed,
                    &cancel,
                )
            });
            let Some(outcome) = annealed else {
                break;
            };
            ctx.add_explorer_steps(outcome.steps_executed);
            self.stats.sa_steps += outcome.steps_executed as u64;

            let mut batch: Vec<Config> = Vec::new();
            probe.span(Span::Select, || {
                for (c, _) in outcome.top_k(config.sa_chains) {
                    if batch.len() >= config.batch_size {
                        break;
                    }
                    let fresh = !ctx.seen(&c) && !batch.contains(&c);
                    let accepted = self.accept(sampler, space, &c, &truth);
                    if fresh && accepted {
                        batch.push(c);
                    }
                }
                let mut attempts = 0;
                while batch.len() < config.batch_size && attempts < 300 {
                    attempts += 1;
                    let c = probe.span(Span::Prior, || {
                        prior
                            .sample_initial(space, blueprint, 2, &mut rng)
                            .ok()
                            .and_then(|mut b| b.pop())
                            .unwrap_or_else(|| space.sample_uniform(&mut rng))
                    });
                    let fresh = !ctx.seen(&c) && !batch.contains(&c);
                    let accepted = self.accept(sampler, space, &c, &truth);
                    if fresh && accepted {
                        batch.push(c);
                    }
                }
                if batch.is_empty() {
                    batch.push(space.sample_uniform(&mut rng));
                }
            });
            self.measure_round(&mut ctx, live, &batch, |c| model.predict(space, c));
        }
        let mut outcome = ctx.finish(tuner.name());
        outcome.surrogate = Some(model.lifecycle());
        outcome.health = Some(tuner.health().clone());
        self.record_model(&model);
        Ok(outcome)
    }

    /// `DgpTuner::tune` without transfer logs, traced.
    fn dgp(&mut self, mut ctx: TuneContext<'_>, live: &mut Live<'_>, name: &str) -> TuningOutcome {
        let probe = self.probe;
        let config = DgpConfig::default();
        let mut rng = child_rng(ctx.seed, 0xD6_9000);
        let prior = GbtCostModel::new(ctx.seed ^ 0x77);
        while ctx.history().len() < config.n_init && !ctx.exhausted() {
            let c = probe.span(Span::Select, || ctx.space.sample_uniform(&mut rng));
            self.measure(&mut ctx, live, &c);
            ctx.add_explorer_steps(1);
        }
        while !ctx.exhausted() {
            let space = ctx.space;
            let rows = probe.span(Span::FeatureCache, || {
                prior.features_batch(space, ctx.history().trials.iter().map(|t| &t.config))
            });
            let means: Vec<f64> = if prior.is_fitted() {
                parallel_map(Threads::AUTO, &rows, |_, f| prior.predict_features(f))
            } else {
                vec![0.0; rows.len()]
            };
            let mut obs: Vec<(&[f64], f64)> = rows
                .iter()
                .map(std::convert::AsRef::as_ref)
                .zip(&ctx.history().trials)
                .zip(means)
                .map(|((f, t), m)| (f, (t.gflops.unwrap_or(0.0) - m) / DGP_SCALE))
                .collect();
            if obs.len() > config.gp_cap {
                let skip = obs.len() - config.gp_cap;
                obs.drain(0..skip);
            }
            let (xs, ys): (Vec<Vec<f64>>, Vec<f64>) = obs.into_iter().map(|(f, y)| (f.to_vec(), y)).unzip();
            let kernel = RbfKernel {
                variance: 1.0,
                length_scale: 4.0,
            };
            let gp = probe.span(Span::GpFit, || GaussianProcess::fit(kernel, 1e-4, xs, &ys));
            self.stats.gp_fit_calls += 1;

            let best_y = ctx.history().best_gflops();
            let candidates = probe.span(Span::Select, || {
                let mut ranked = ctx.history().valid_pairs();
                ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
                let mut candidates: Vec<Config> = Vec::with_capacity(config.candidates);
                for i in 0..config.candidates {
                    let candidate = if i % 3 == 0 && !ranked.is_empty() {
                        let base = ranked[rng.gen_range(0..ranked.len().min(8))].0;
                        space.neighbor(base, &mut rng)
                    } else {
                        space.sample_uniform(&mut rng)
                    };
                    if !ctx.seen(&candidate) {
                        candidates.push(candidate);
                    }
                }
                candidates
            });
            let cpu = &probe.cpu;
            let mut scored: Vec<(Config, f64)> = match &gp {
                Ok(gp) => probe.span(Span::GpScore, || {
                    let scores = parallel_map(Threads::AUTO, &candidates, |_, c| {
                        let f = cpu.time(Cpu::Featurize, || space.features(c));
                        let m = if prior.is_fitted() { prior.predict_features(&f) } else { 0.0 };
                        gp.expected_improvement(&f, (best_y - m) / DGP_SCALE)
                    });
                    candidates.into_iter().zip(scores).collect()
                }),
                Err(_) => candidates.into_iter().map(|c| (c, rng.gen::<f64>())).collect(),
            };
            ctx.add_explorer_steps(scored.len());
            let batch = probe.span(Span::Select, || {
                scored.sort_by(|a, b| b.1.total_cmp(&a.1));
                let mut batch: Vec<Config> = Vec::new();
                for (c, _) in scored {
                    if batch.len() >= config.batch_size {
                        break;
                    }
                    if !batch.contains(&c) {
                        batch.push(c);
                    }
                }
                let mut attempts = 0;
                while batch.len() < config.batch_size && attempts < 100 {
                    attempts += 1;
                    let c = space.sample_uniform(&mut rng);
                    if !ctx.seen(&c) && !batch.contains(&c) {
                        batch.push(c);
                    }
                }
                batch
            });
            let posterior_mean = |c: &Config| gp.as_ref().map_or(0.0, |gp| gp.predict(&space.features(c)).0);
            self.measure_round(&mut ctx, live, &batch, posterior_mean);
        }
        let mut outcome = ctx.finish(name);
        outcome.surrogate = Some(prior.lifecycle());
        self.record_model(&prior);
        outcome
    }

    fn push_row(&mut self, cell: &Cell, before: [f64; SPANS], outcome: &TuningOutcome) {
        let after = self.probe.snapshot();
        let spent: [f64; SPANS] = std::array::from_fn(|i| after[i] - before[i]);
        let row = match self.rows.iter_mut().position(|r| r.name == cell.name) {
            Some(i) => &mut self.rows[i],
            None => {
                self.rows.push(TaskRow {
                    name: cell.name.clone(),
                    template: cell.task.template.to_string(),
                    host_ms: [0.0; SPANS],
                    trials: 0,
                    invalid: 0,
                    faulted: 0,
                    gpu_s: 0.0,
                    best_gflops: 0.0,
                });
                self.rows.last_mut().expect("just pushed")
            }
        };
        for (acc, ms) in row.host_ms.iter_mut().zip(spent) {
            *acc += ms;
        }
        row.trials = outcome.measurements;
        row.invalid = outcome.invalid_measurements;
        row.faulted = outcome.faulted_measurements;
        row.gpu_s = outcome.gpu_seconds;
        row.best_gflops = outcome.best_gflops;
    }
}

impl Stats {
    /// `measure_with_retry`, unrolled so every attempt's simulated cost is
    /// attributed to measurement or to faults. Returns the trial and the
    /// attempts it took.
    fn retry_measure(&mut self, measurer: &mut Measurer, space: &SearchSpace, config: &Config, policy: &RetryPolicy) -> (Trial, usize) {
        let allowed = policy.max_attempts.max(1);
        let mut total_cost_s = 0.0;
        let mut attempts = 0;
        loop {
            attempts += 1;
            let mut result: MeasureResult = measurer.measure(space, config);
            total_cost_s += result.cost_s;
            self.attempts += 1;
            if result.outcome.is_fault() {
                self.faults += 1;
                self.gpu_s_fault += result.cost_s;
            } else {
                self.gpu_s_measure += result.cost_s;
            }
            let retryable = result.outcome.fault().is_some_and(|f| f.is_retryable());
            if retryable && attempts < allowed {
                let backoff = policy.backoff_s(attempts);
                measurer.charge(backoff);
                total_cost_s += backoff;
                self.gpu_s_fault += backoff;
                continue;
            }
            result.cost_s = total_cost_s;
            return (Trial::from_measure(&result), attempts as usize);
        }
    }
}

impl CellRunner for Traced<'_> {
    fn run(
        &mut self,
        setup: &Setup,
        cell: &Cell,
        spec: &CheckpointSpec<'_>,
        measurer: &mut Measurer,
        control: &RunControl,
    ) -> Result<SupervisedOutcome, String> {
        let probe = self.probe;
        let before = probe.snapshot();
        let retry = RetryPolicy::default();
        let name = library_tuner(setup, cell)?.name().to_owned();
        let header = RunHeader {
            tuner: name.clone(),
            gpu: cell.gpu.name.clone(),
            model: cell.task.id.model.clone(),
            task_index: cell.task.id.index,
            template: cell.task.template,
            budget: setup.budget,
            seed: setup.seeds.tuner,
            retry,
            fault_seed: spec.fault_seed,
            fault_rates: spec.fault_rates,
            rungs: spec.rungs.to_vec(),
            start: measurer.state(),
        };
        let (mut journal, replay) = if spec.dir.join(JOURNAL_FILE).exists() {
            if !spec.resume {
                return Err(format!("journal in {} already exists", spec.dir.display()));
            }
            if let Some(outcome) = probe
                .span(Span::JournalResume, || load_complete(spec.dir))
                .map_err(|e| e.to_string())?
            {
                return Ok(SupervisedOutcome {
                    outcome,
                    status: CellStatus::Complete,
                    deadline_slack_s: None,
                });
            }
            let resumed = probe
                .span(Span::JournalResume, || {
                    RunJournal::resume(spec.dir, spec.storage, spec.snapshot_every)
                })
                .map_err(|e| e.to_string())?
                .ok_or_else(|| format!("journal header in {} was lost", spec.dir.display()))?;
            if resumed.header != header {
                return Err(format!("journal in {} belongs to a different run", spec.dir.display()));
            }
            measurer.restore_state(&resumed.header.start);
            (resumed.journal, resumed.records)
        } else {
            let created = probe.span(Span::JournalSnapshot, || {
                RunJournal::create(spec.dir, &header, spec.storage, spec.snapshot_every)
            });
            (created.map_err(|e| e.to_string())?, Vec::new())
        };
        self.stats.replay_records += replay.len() as u64;
        let mut live = Live {
            snapshot_every: spec.snapshot_every.max(1),
            replay_len: replay.len(),
            cancel_at: control.cancel_at_trial,
            cancel: control.cancel.clone(),
            retried: 0,
            journal: &mut journal,
        };
        let ctx = TuneContext::new(&cell.task, &cell.space, measurer, setup.budget, setup.seeds.tuner)
            .with_retry_policy(retry)
            .with_control(control.clone())
            .with_replay(replay);
        let mut outcome = match setup.tuner {
            TunerKind::AutoTvm => self.autotvm(ctx, &mut live, &name),
            TunerKind::Dgp => self.dgp(ctx, &mut live, &name),
            TunerKind::Glimpse => self.glimpse(ctx, &mut live, setup, cell)?,
        };
        outcome.retried_attempts += live.retried;
        if let Some(err) = journal.take_poison() {
            return Err(err.to_string());
        }
        let status = match control.cancel.reason() {
            Some(reason) => {
                probe
                    .span(Span::JournalSnapshot, || journal.flush_snapshot(&measurer.state()))
                    .map_err(|e| e.to_string())?;
                CellStatus::Degraded(reason.into())
            }
            None => {
                probe
                    .span(Span::JournalSnapshot, || journal.mark_complete(&outcome))
                    .map_err(|e| e.to_string())?;
                CellStatus::Complete
            }
        };
        self.push_row(cell, before, &outcome);
        Ok(SupervisedOutcome {
            outcome,
            status,
            deadline_slack_s: None,
        })
    }
}
