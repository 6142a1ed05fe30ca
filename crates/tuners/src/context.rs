//! The tuning loop contract: [`Tuner`], [`TuneContext`], [`TuningOutcome`].

use crate::budget::Budget;
use crate::cost_model::SurrogateLifecycle;
use crate::history::{Trial, TuningHistory};
use crate::journal::{RunJournal, TrialRecord};
use glimpse_sim::{measure_with_retry, Measurer, RetryPolicy};
use glimpse_space::{Config, SearchSpace};
use glimpse_supervise::{CancelReason, CancelToken, HealthReport, Heartbeat};
use glimpse_tensor_prog::Task;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeSet, VecDeque};

/// Supervision inputs for one tuning run: the cancellation token the run
/// polls at trial boundaries, optional deadlines on the simulated clock,
/// an optional heartbeat for the real-wall-clock watchdog, and a
/// deterministic cancel trigger for chaos tests.
///
/// Deadlines deliberately live *outside* [`Budget`] (and therefore outside
/// the journal header): a resumed run may carry a different deadline than
/// the original without failing header verification — the deadline bounds
/// *this invocation*, the budget bounds *the run*.
#[derive(Debug, Clone, Default)]
pub struct RunControl {
    /// Token polled at trial boundaries; trips on signals, deadlines, the
    /// watchdog, or [`RunControl::cancel_at_trial`].
    pub cancel: CancelToken,
    /// Per-cell limit on simulated GPU seconds for this invocation.
    pub deadline_s: Option<f64>,
    /// Campaign-wide wall budget remaining when this cell started
    /// (simulated seconds); trips `WallClockExceeded` instead of
    /// `DeadlineExceeded`.
    pub wall_deadline_s: Option<f64>,
    /// Campaign-level token (signal handler, watchdog) forwarded into
    /// `cancel` at trial boundaries, so one SIGINT stops every cell while
    /// each cell still owns its own per-cell token for deadlines.
    pub interrupt: Option<CancelToken>,
    /// Beaten once per consumed trial so the watchdog sees progress.
    pub heartbeat: Option<Heartbeat>,
    /// Chaos trigger: trip the token with `Interrupted` just before trial
    /// `n` would be measured, leaving exactly `n - 1` journaled trials —
    /// the same boundary `StorageFaults::crash_at_seq(n)` kills at.
    pub cancel_at_trial: Option<u64>,
}

impl RunControl {
    /// No supervision: a fresh token nothing trips, no deadlines.
    #[must_use]
    pub fn none() -> Self {
        Self::default()
    }

    /// Supervision under `cancel` with no deadlines.
    #[must_use]
    pub fn with_cancel(cancel: CancelToken) -> Self {
        Self { cancel, ..Self::default() }
    }

    /// Sets the per-cell deadline (simulated seconds).
    #[must_use]
    pub fn deadline_s(mut self, deadline: Option<f64>) -> Self {
        self.deadline_s = deadline;
        self
    }

    /// Sets the remaining campaign wall budget (simulated seconds).
    #[must_use]
    pub fn wall_deadline_s(mut self, deadline: Option<f64>) -> Self {
        self.wall_deadline_s = deadline;
        self
    }

    /// Forwards a campaign-level token (signals, watchdog) into the cell.
    #[must_use]
    pub fn interrupted_by(mut self, interrupt: CancelToken) -> Self {
        self.interrupt = Some(interrupt);
        self
    }

    /// Attaches a watchdog heartbeat.
    #[must_use]
    pub fn heartbeat(mut self, heartbeat: Heartbeat) -> Self {
        self.heartbeat = Some(heartbeat);
        self
    }

    /// Arms the deterministic cancel trigger at trial boundary `n`.
    #[must_use]
    pub fn cancel_at_trial(mut self, n: u64) -> Self {
        self.cancel_at_trial = Some(n);
        self
    }

    /// Simulated seconds left under the tightest configured deadline once
    /// `gpu_seconds` are spent (`None` without deadlines).
    #[must_use]
    pub(crate) fn deadline_slack(&self, gpu_seconds: f64) -> Option<f64> {
        [self.deadline_s, self.wall_deadline_s]
            .into_iter()
            .flatten()
            .reduce(f64::min)
            .map(|tightest| tightest - gpu_seconds)
    }
}

/// Everything a tuner needs for one run on one (GPU, task) pair.
#[derive(Debug)]
pub struct TuneContext<'a> {
    /// The task being tuned (identity + occurrence weight).
    pub task: &'a Task,
    /// The task's configuration space.
    pub space: &'a SearchSpace,
    /// Measurement channel to the target GPU.
    pub measurer: &'a mut Measurer,
    /// Stopping criteria.
    pub budget: Budget,
    /// Seed for the tuner's own randomness.
    pub seed: u64,
    /// Retry policy applied to faulted measurements.
    pub retry: RetryPolicy,
    history: TuningHistory,
    visited: BTreeSet<Vec<usize>>,
    gpu_seconds_at_start: f64,
    explorer_steps: usize,
    retried_attempts: usize,
    best_trajectory: Vec<f64>,
    control: RunControl,
    journal: Option<&'a mut RunJournal>,
    replay: VecDeque<TrialRecord>,
    // While replaying a recorded prefix, the measurer sits at the run's
    // *starting* state so the resumed timeline matches the original; this
    // carries the clock value as of the last replayed trial.
    replay_clock: Option<f64>,
}

impl<'a> TuneContext<'a> {
    /// Opens a tuning run.
    #[must_use]
    pub fn new(task: &'a Task, space: &'a SearchSpace, measurer: &'a mut Measurer, budget: Budget, seed: u64) -> Self {
        let gpu = measurer.gpu().name.clone();
        let gpu_seconds_at_start = measurer.elapsed_gpu_seconds();
        let history = TuningHistory::new(&gpu, &task.id.model, task.id.index, task.template);
        Self {
            task,
            space,
            measurer,
            budget,
            seed,
            retry: RetryPolicy::default(),
            history,
            visited: BTreeSet::new(),
            gpu_seconds_at_start,
            explorer_steps: 0,
            retried_attempts: 0,
            best_trajectory: Vec::new(),
            control: RunControl::none(),
            journal: None,
            replay: VecDeque::new(),
            replay_clock: None,
        }
    }

    /// Replaces the retry policy applied to faulted measurements.
    #[must_use]
    pub fn with_retry_policy(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Attaches supervision: the run polls `control.cancel` at every trial
    /// boundary and trips it itself when a deadline expires.
    #[must_use]
    pub fn with_control(mut self, control: RunControl) -> Self {
        self.control = control;
        self
    }

    /// A handle to the run's cancellation token (shared state; cloning is
    /// cheap). Tuners hand this to cancellable explorer fan-outs such as
    /// `anneal_cancellable` so an SA round in flight stops promptly.
    #[must_use]
    pub fn cancel_token(&self) -> CancelToken {
        self.control.cancel.clone()
    }

    /// Attaches a crash-safe journal: every trial is appended to the WAL
    /// before the tuner consumes it, and a journal failure (injected crash,
    /// torn write, IO error) poisons the run into fail-stop exhaustion.
    #[must_use]
    pub fn with_journal(mut self, journal: &'a mut RunJournal) -> Self {
        self.journal = Some(journal);
        self
    }

    /// Queues a recovered journal prefix to be served instead of live
    /// measurements. The measurer must be restored to the run's *starting*
    /// state; it is fast-forwarded to the last record's post-state when the
    /// queue drains. Each served record is verified against the tuner's
    /// requested configuration — a mismatch poisons the journal
    /// (determinism contract violation).
    #[must_use]
    pub fn with_replay(mut self, records: Vec<TrialRecord>) -> Self {
        self.replay = records.into();
        self
    }

    /// The journal so far.
    #[must_use]
    pub fn history(&self) -> &TuningHistory {
        &self.history
    }

    /// Simulated GPU seconds consumed by this run.
    #[must_use]
    pub fn gpu_seconds(&self) -> f64 {
        let now = self.replay_clock.unwrap_or_else(|| self.measurer.elapsed_gpu_seconds());
        now - self.gpu_seconds_at_start
    }

    /// Whether the run should stop (cancellation or an expired deadline,
    /// budget bounds, plateau convergence, the device having died
    /// permanently — there is nothing left to measure on a dead channel —
    /// or the journal having been poisoned by a write failure: fail-stop
    /// rather than run unjournaled).
    #[must_use]
    pub fn exhausted(&self) -> bool {
        self.check_deadlines();
        self.control.cancel.is_cancelled()
            || self
                .budget
                .exhausted(self.history.len(), self.gpu_seconds(), self.history.best_gflops())
            || self.budget.plateaued(&self.best_trajectory)
            || self.measurer.is_device_dead()
            || self.journal.as_ref().is_some_and(|j| j.poisoned())
    }

    /// Trips the token when the campaign interrupt fired or a
    /// simulated-clock deadline has expired. The interrupt is forwarded
    /// first (a signal beats a deadline), then the per-cell deadline, so
    /// when both deadlines are blown the cell reports `DeadlineExceeded`
    /// (first cancel wins).
    fn check_deadlines(&self) {
        if let Some(reason) = self.control.interrupt.as_ref().and_then(CancelToken::reason) {
            self.control.cancel.cancel(reason);
        }
        let elapsed = self.gpu_seconds();
        if self.control.deadline_s.is_some_and(|d| elapsed >= d) {
            self.control.cancel.cancel(CancelReason::DeadlineExceeded);
        }
        if self.control.wall_deadline_s.is_some_and(|d| elapsed >= d) {
            self.control.cancel.cancel(CancelReason::WallClockExceeded);
        }
    }

    /// Measurements still allowed by the budget's count cap.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.budget.remaining_measurements(self.history.len())
    }

    /// Records explorer work (SA chain updates, acquisition evaluations) —
    /// the "search steps" metric of Fig. 6.
    pub fn add_explorer_steps(&mut self, steps: usize) {
        self.explorer_steps += steps;
    }

    /// Whether a configuration was already measured in this run.
    #[must_use]
    pub fn seen(&self, config: &Config) -> bool {
        self.visited.contains(config.indices())
    }

    /// Measures one configuration (respecting the budget), returning its
    /// throughput if it was valid. Duplicate configurations are measured
    /// again only if `config` was never seen (callers should pre-filter
    /// with [`TuneContext::seen`] to save budget).
    pub fn measure(&mut self, config: &Config) -> Option<f64> {
        // The chaos trigger fires *before* trial n is journaled, leaving
        // exactly n-1 records — the same boundary crash_at_seq(n) kills at.
        if self.control.cancel_at_trial.is_some_and(|n| self.history.len() as u64 + 1 >= n) {
            self.control.cancel.cancel(CancelReason::Interrupted);
        }
        if self.exhausted() {
            return None;
        }
        self.visited.insert(config.indices().to_vec());
        if let Some(record) = self.next_replayed(config) {
            return self.consume(record.trial);
        }
        if !self.replay.is_empty() {
            // Replay divergence: the journal is poisoned; fail-stop.
            return None;
        }
        let retried = measure_with_retry(self.measurer, self.space, config, &self.retry);
        self.retried_attempts += retried.attempts.saturating_sub(1) as usize;
        let trial = Trial::from_measure(&retried.result);
        if !self.journal_live(&trial) {
            return None;
        }
        self.consume(trial)
    }

    /// Folds a trial the caller measured itself into this run's history
    /// and journal without re-measuring (the measurer's clock already
    /// advanced when the trial was taken — e.g. a driver that measures
    /// through its own instrumented path). Replay follows the same rules as
    /// [`TuneContext::measure`]: a recorded trial is served in place of
    /// `trial`, and a configuration the journal did not record poisons it.
    pub fn absorb(&mut self, trial: Trial) {
        self.visited.insert(trial.config.indices().to_vec());
        if let Some(record) = self.next_replayed(&trial.config) {
            let _ = self.consume(record.trial);
            return;
        }
        if !self.replay.is_empty() || !self.journal_live(&trial) {
            return;
        }
        let _ = self.consume(trial);
    }

    /// Serves the next replayed record, verifying the tuner asked for the
    /// configuration the journal recorded. On divergence, poisons the
    /// journal and drops the rest of the queue.
    fn next_replayed(&mut self, config: &Config) -> Option<TrialRecord> {
        let record = self.replay.pop_front()?;
        if record.trial.config != *config {
            if let Some(journal) = self.journal.as_mut() {
                journal.poison_divergence(self.history.len() as u64 + 1);
            }
            self.replay.clear();
            self.replay_clock = None;
            return None;
        }
        self.replay_clock = Some(record.post.clock_s);
        if self.replay.is_empty() {
            // End of the recorded prefix: fast-forward the measurer to the
            // last recorded post-state and go live.
            self.measurer.restore_state(&record.post);
            self.replay_clock = None;
        }
        Some(record)
    }

    /// Appends a live trial to the journal (no-op without one). Returns
    /// `false` when the append failed — the trial must not be consumed.
    fn journal_live(&mut self, trial: &Trial) -> bool {
        let Some(journal) = self.journal.as_mut() else {
            return true;
        };
        let record = TrialRecord {
            trial: trial.clone(),
            post: self.measurer.state(),
        };
        journal.append_trial(&record)
    }

    /// Pushes a trial into the run's history and trajectory bookkeeping.
    fn consume(&mut self, trial: Trial) -> Option<f64> {
        if let Some(heartbeat) = &self.control.heartbeat {
            heartbeat.beat();
        }
        let gflops = trial.gflops;
        self.history.push(trial);
        let best = self.best_trajectory.last().copied().unwrap_or(0.0).max(gflops.unwrap_or(0.0));
        self.best_trajectory.push(best);
        gflops
    }

    /// Measures a batch, stopping early if the budget runs out mid-batch.
    pub fn measure_batch(&mut self, configs: &[Config]) -> Vec<Option<f64>> {
        configs.iter().map(|c| self.measure(c)).collect()
    }

    /// Consumes the context into the final outcome.
    #[must_use]
    pub fn finish(self, tuner: &str) -> TuningOutcome {
        let gpu_seconds = self.gpu_seconds();
        TuningOutcome {
            tuner: tuner.to_owned(),
            best_gflops: self.history.best_gflops(),
            best_config: self.history.best_config().cloned(),
            measurements: self.history.len(),
            invalid_measurements: self.history.invalid_count(),
            faulted_measurements: self.history.fault_count(),
            explorer_steps: self.explorer_steps,
            retried_attempts: self.retried_attempts,
            gpu_seconds,
            surrogate: None,
            health: None,
            history: self.history,
        }
    }
}

/// Result of one tuning run, with the metrics the paper's figures compare.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TuningOutcome {
    /// Name of the tuner that produced this outcome.
    pub tuner: String,
    /// Best measured throughput (GFLOPS).
    pub best_gflops: f64,
    /// Best configuration, if any measurement succeeded.
    pub best_config: Option<Config>,
    /// Total hardware measurements.
    pub measurements: usize,
    /// Invalid (failed) measurements among them — Fig. 7's numerator.
    pub invalid_measurements: usize,
    /// Measurements lost to injected infrastructure faults (timeouts,
    /// launch failures, device loss) after retries were exhausted.
    pub faulted_measurements: usize,
    /// Explorer steps (Markov-chain updates / acquisition evaluations) —
    /// Fig. 6's metric.
    pub explorer_steps: usize,
    /// Extra measurement attempts spent on fault retries (total attempts
    /// minus one per measurement). Counted per invocation: a replayed
    /// journal prefix contributes zero, since retries are folded into the
    /// recorded trial.
    pub retried_attempts: usize,
    /// Simulated GPU seconds — Table 2's "GPU hours" contribution.
    pub gpu_seconds: f64,
    /// Surrogate lifecycle + featurization-cache diagnostics, for tuners
    /// that train a cost model (None for random/grid). Derived state: a
    /// replayed or resumed campaign reproduces the same counters.
    #[serde(default)]
    pub surrogate: Option<SurrogateLifecycle>,
    /// Component-health resolution the tuner ran under (None for tuners
    /// without learned components, and for outcomes recorded before health
    /// tracking existed). Derived at run construction from artifact
    /// integrity, so a resumed run reproduces the same report.
    #[serde(default)]
    pub health: Option<HealthReport>,
    /// The full measurement journal.
    pub history: TuningHistory,
}

impl TuningOutcome {
    /// Fraction of measurements that were invalid, over the fault-free
    /// population (a faulted measurement reveals nothing about the space).
    #[must_use]
    pub fn invalid_fraction(&self) -> f64 {
        let population = self.measurements.saturating_sub(self.faulted_measurements);
        if population == 0 {
            0.0
        } else {
            self.invalid_measurements as f64 / population as f64
        }
    }
}

/// A tensor-program auto-tuner (Algorithm 1's outer loop).
pub trait Tuner {
    /// Human-readable name used in reports.
    fn name(&self) -> &str;

    /// Runs the tuning loop until the context's budget is exhausted.
    fn tune(&mut self, ctx: TuneContext<'_>) -> TuningOutcome;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::{JournalError, RunHeader};
    use glimpse_gpu_spec::database;
    use glimpse_space::templates;
    use glimpse_tensor_prog::models;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn fixture() -> (glimpse_tensor_prog::Task, SearchSpace, Measurer) {
        let model = models::alexnet();
        let task = model.tasks()[2].clone();
        let space = templates::space_for_task(&task);
        let measurer = Measurer::new(database::find("Titan Xp").unwrap().clone(), 3);
        (task, space, measurer)
    }

    #[test]
    fn budget_stops_measurement() {
        let (task, space, mut measurer) = fixture();
        let mut ctx = TuneContext::new(&task, &space, &mut measurer, Budget::measurements(5), 1);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..20 {
            let c = space.sample_uniform(&mut rng);
            ctx.measure(&c);
        }
        assert_eq!(ctx.history().len(), 5);
        assert!(ctx.exhausted());
    }

    #[test]
    fn outcome_metrics_are_consistent() {
        let (task, space, mut measurer) = fixture();
        let mut ctx = TuneContext::new(&task, &space, &mut measurer, Budget::measurements(10), 1);
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..10 {
            let c = space.sample_uniform(&mut rng);
            ctx.measure(&c);
        }
        ctx.add_explorer_steps(42);
        let outcome = ctx.finish("test");
        assert_eq!(outcome.measurements, 10);
        assert_eq!(outcome.explorer_steps, 42);
        assert!(outcome.gpu_seconds > 0.0);
        assert_eq!(outcome.history.len(), 10);
        assert!(outcome.invalid_fraction() >= 0.0 && outcome.invalid_fraction() <= 1.0);
    }

    #[test]
    fn seen_tracks_visited_configs() {
        let (task, space, mut measurer) = fixture();
        let mut ctx = TuneContext::new(&task, &space, &mut measurer, Budget::measurements(10), 1);
        let mut rng = StdRng::seed_from_u64(3);
        let c = space.sample_uniform(&mut rng);
        assert!(!ctx.seen(&c));
        ctx.measure(&c);
        assert!(ctx.seen(&c));
    }

    #[test]
    fn deadline_trips_the_cell_token_at_a_trial_boundary() {
        let (task, space, mut measurer) = fixture();
        let control = RunControl::none().deadline_s(Some(0.0));
        let cancel = control.cancel.clone();
        let ctx = TuneContext::new(&task, &space, &mut measurer, Budget::measurements(100), 1).with_control(control);
        assert!(ctx.exhausted(), "a zero deadline exhausts the run immediately");
        assert_eq!(cancel.reason(), Some(CancelReason::DeadlineExceeded));
        let outcome = ctx.finish("test");
        assert_eq!(outcome.measurements, 0);
    }

    #[test]
    fn campaign_interrupt_forwards_into_the_cell_token() {
        let (task, space, mut measurer) = fixture();
        let interrupt = CancelToken::new();
        let control = RunControl::none().interrupted_by(interrupt.clone());
        let cell = control.cancel.clone();
        let mut ctx = TuneContext::new(&task, &space, &mut measurer, Budget::measurements(10), 1).with_control(control);
        let mut rng = StdRng::seed_from_u64(5);
        let c = space.sample_uniform(&mut rng);
        ctx.measure(&c);
        assert!(!ctx.exhausted());
        interrupt.cancel(CancelReason::Interrupted);
        assert!(ctx.exhausted(), "the forwarded interrupt must stop the cell");
        assert_eq!(cell.reason(), Some(CancelReason::Interrupted));
        assert_eq!(ctx.history().len(), 1, "cancellation lands on the trial boundary");
    }

    #[test]
    fn interrupt_beats_a_blown_deadline() {
        let (task, space, mut measurer) = fixture();
        let interrupt = CancelToken::new();
        interrupt.cancel(CancelReason::Stalled);
        let control = RunControl::none().deadline_s(Some(0.0)).interrupted_by(interrupt);
        let cell = control.cancel.clone();
        let ctx = TuneContext::new(&task, &space, &mut measurer, Budget::measurements(10), 1).with_control(control);
        assert!(ctx.exhausted());
        assert_eq!(cell.reason(), Some(CancelReason::Stalled));
    }

    fn header(task: &Task, measurer: &Measurer) -> RunHeader {
        RunHeader {
            tuner: "test".to_owned(),
            gpu: measurer.gpu().name.clone(),
            model: task.id.model.clone(),
            task_index: task.id.index,
            template: task.template,
            budget: Budget::measurements(10),
            seed: 1,
            retry: RetryPolicy::default(),
            fault_seed: 0,
            fault_rates: glimpse_sim::FaultRates::none(),
            rungs: Vec::new(),
            start: measurer.state(),
        }
    }

    fn reopen(dir: &std::path::Path) -> (RunJournal, Vec<TrialRecord>) {
        let resumed = RunJournal::resume(dir, glimpse_sim::StorageFaults::none(), 16)
            .unwrap()
            .expect("header survived");
        (resumed.journal, resumed.records)
    }

    #[test]
    fn absorb_journals_live_trials_serves_replay_and_poisons_on_divergence() {
        let (task, space, mut measurer) = fixture();
        let dir = std::env::temp_dir().join(format!("glimpse-absorb-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let header = header(&task, &measurer);
        let mut rng = StdRng::seed_from_u64(6);
        let recorded = space.sample_uniform(&mut rng);
        let mut other = space.sample_uniform(&mut rng);
        while other == recorded {
            other = space.sample_uniform(&mut rng);
        }
        let trial = Trial::from_measure(&measurer.measure(&space, &recorded));

        // Live: an absorbed trial is appended exactly once, unmeasured.
        let mut journal = RunJournal::create(&dir, &header, glimpse_sim::StorageFaults::none(), 16).unwrap();
        let clock = measurer.elapsed_gpu_seconds();
        let mut ctx = TuneContext::new(&task, &space, &mut measurer, Budget::measurements(10), 1).with_journal(&mut journal);
        ctx.absorb(trial.clone());
        assert!(ctx.seen(&recorded));
        assert_eq!(ctx.history().trials, vec![trial.clone()]);
        drop(ctx);
        assert_eq!(journal.trials(), 1);
        assert_eq!(
            measurer.elapsed_gpu_seconds().to_bits(),
            clock.to_bits(),
            "absorb must not re-measure"
        );
        drop(journal);

        // Replay: the journal's record is served in place of the absorbed
        // trial, and nothing new is appended.
        let (mut journal, records) = reopen(&dir);
        assert_eq!(records.len(), 1);
        let stale = Trial {
            gflops: Some(-1.0),
            ..trial.clone()
        };
        let mut ctx = TuneContext::new(&task, &space, &mut measurer, Budget::measurements(10), 1)
            .with_journal(&mut journal)
            .with_replay(records);
        ctx.absorb(stale);
        assert_eq!(ctx.history().trials, vec![trial.clone()]);
        drop(ctx);
        assert_eq!(journal.trials(), 1);
        assert!(!journal.poisoned());
        drop(journal);

        // Divergence: absorbing a configuration the journal did not record
        // poisons it, and the run fail-stops without consuming the trial.
        let (mut journal, records) = reopen(&dir);
        let divergent = Trial { config: other, ..trial };
        let mut ctx = TuneContext::new(&task, &space, &mut measurer, Budget::measurements(10), 1)
            .with_journal(&mut journal)
            .with_replay(records);
        ctx.absorb(divergent);
        assert!(ctx.history().is_empty());
        assert!(ctx.exhausted());
        drop(ctx);
        assert!(matches!(journal.take_poison(), Some(JournalError::ReplayDivergence { seq: 1 })));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn quality_target_short_circuits() {
        let (task, space, mut measurer) = fixture();
        // Any valid measurement exceeds 0.001 GFLOPS, so one valid sample ends it.
        let mut ctx = TuneContext::new(&task, &space, &mut measurer, Budget::measurements(1000).with_target(0.001), 1);
        let mut rng = StdRng::seed_from_u64(4);
        while !ctx.exhausted() {
            let c = space.sample_uniform(&mut rng);
            ctx.measure(&c);
        }
        assert!(ctx.history().len() < 1000);
    }
}
