//! Workload definitions, set-up, and the campaign runner shared by the
//! untraced and traced runs.
//!
//! A campaign tunes every (task, GPU) cell of a workload in order, each
//! cell journaled into its own directory under the run's scratch root. The
//! campaign is cancelled half-way, just before a fixed trial of its middle
//! cell (the trial-boundary cancel `glimpse tune` honours on SIGINT), and
//! then resumed: finished cells load their `complete.json`, the cut cell
//! recovers its WAL and replays the recorded prefix, and the remaining
//! cells run fresh.

use crate::host::{cpu_seconds, timed, Stopwatch};
use glimpse_core::artifacts::{GlimpseArtifacts, TrainingOptions};
use glimpse_core::health::ResolvedArtifacts;
use glimpse_core::tuner::{GlimpseConfig, GlimpseTuner};
use glimpse_gpu_spec::{database, GpuSpec};
use glimpse_sim::{FaultPlan, FaultRates, Measurer, PerfModel};
use glimpse_space::{templates, SearchSpace};
use glimpse_supervise::CellStatus;
use glimpse_tensor_prog::{models, Task};
use glimpse_tuners::autotvm::AutoTvmTuner;
use glimpse_tuners::dgp::DgpTuner;
use glimpse_tuners::journal::{COMPLETE_FILE, JOURNAL_FILE};
use glimpse_tuners::{run_supervised, Budget, CheckpointSpec, RunControl, SupervisedOutcome, Tuner, TuningOutcome};
use std::path::{Path, PathBuf};

/// The GPU the single-device workloads tune for.
pub const TARGET_GPU: &str = "RTX 2080 Ti";

/// Which tuner a workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TunerKind {
    /// The paper's tuner with every learned component on rung 0.
    Glimpse,
    /// AutoTVM (GBT surrogate + SA + ε-greedy).
    AutoTvm,
    /// DGP (Gaussian process + expected improvement).
    Dgp,
}

/// One benchmark workload.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// Tuner driven.
    pub tuner: TunerKind,
    /// Model whose tasks are tuned.
    pub model: &'static str,
    /// GPUs tuned, each over every task of the model.
    pub gpus: Vec<&'static GpuSpec>,
    /// Measurements per cell.
    pub trials: usize,
    /// Fault rates on every device (all zero for a healthy workload).
    pub fault_rates: FaultRates,
    /// `(cell index, trial)`: the campaign is cancelled just before this
    /// 1-based trial of this cell is measured, then resumed.
    pub interrupt: (usize, u64),
    /// Whether untraced runs first tune an uninterrupted reference campaign
    /// at `nproc` worker threads that the resumed single-thread campaigns
    /// must match.
    pub reference: bool,
}

/// Every workload the benchmark knows, in catalogue order.
#[must_use]
pub fn catalogue() -> Vec<Workload> {
    let target = || vec![database::find(TARGET_GPU).expect("the target GPU is in the database")];
    vec![
        Workload {
            name: "glimpse-resnet18",
            tuner: TunerKind::Glimpse,
            model: "resnet-18",
            gpus: target(),
            trials: 256,
            fault_rates: FaultRates::none(),
            interrupt: (8, 129),
            reference: false,
        },
        Workload {
            name: "autotvm-vgg16",
            tuner: TunerKind::AutoTvm,
            model: "vgg-16",
            gpus: target(),
            trials: glimpse_bench::e2e::AUTOTVM_TRIALS,
            fault_rates: FaultRates::none(),
            interrupt: (10, 257),
            reference: false,
        },
        Workload {
            name: "dgp-fleet-faults",
            tuner: TunerKind::Dgp,
            model: "alexnet",
            gpus: database::evaluation_gpus(),
            trials: 256,
            fault_rates: FaultRates {
                timeout: 0.03,
                launch_failure: 0.03,
                noise_spike: 0.0,
                device_lost: 0.01,
                device_dead: 0.0,
            },
            interrupt: (24, 129),
            reference: true,
        },
    ]
}

/// Looks a workload up by name.
///
/// # Errors
///
/// Unknown names list the known ones.
pub fn named(name: &str) -> Result<Workload, String> {
    let all = catalogue();
    let names: Vec<&str> = all.iter().map(|w| w.name).collect();
    all.into_iter()
        .find(|w| w.name == name)
        .ok_or_else(|| format!("unknown workload {name:?}; known: {}", names.join(", ")))
}

/// Seeds derived from the benchmark's `--seed`. The program only ever sees
/// these derived values.
#[derive(Debug, Clone, Copy)]
pub struct Seeds {
    /// Tuner seed.
    pub tuner: u64,
    /// Measurement-noise seed.
    pub measurer: u64,
    /// Fault-plan seed.
    pub faults: u64,
}

impl Seeds {
    /// Splits `seed` into independent streams.
    #[must_use]
    pub fn from_seed(seed: u64) -> Self {
        Self {
            tuner: splitmix(seed ^ 0x7E11),
            measurer: splitmix(seed ^ 0x3EA5),
            faults: splitmix(seed ^ 0xFA17),
        }
    }
}

fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One (task, GPU) cell.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Directory name of the cell.
    pub name: String,
    /// Device tuned.
    pub gpu: &'static GpuSpec,
    /// Task tuned.
    pub task: Task,
    /// The task's search space.
    pub space: SearchSpace,
}

/// Host-side timings of the Glimpse set-up steps (traced runs).
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// `BlueprintCodec::fit` on the training population (ms).
    pub codec_ms: f64,
    /// `corpus::generate` with the training options (ms).
    pub corpus_ms: f64,
    /// `GlimpseArtifacts::train_with` as a whole (ms).
    pub train_ms: f64,
    /// `GlimpseArtifacts::save` (ms).
    pub save_ms: f64,
    /// `envelope::verify_file` on the saved bundle (ms).
    pub verify_ms: f64,
    /// `ResolvedArtifacts::load` (ms).
    pub load_ms: f64,
}

/// Everything a campaign needs before its first trial.
#[derive(Debug)]
pub struct Setup {
    /// Tuner the campaign drives.
    pub tuner: TunerKind,
    /// Per-cell stopping criteria.
    pub budget: Budget,
    /// Seeds of the run.
    pub seeds: Seeds,
    /// Where a cancelled first leg stops (see [`Workload::interrupt`]).
    pub interrupt: (usize, u64),
    /// Cells in campaign order.
    pub cells: Vec<Cell>,
    /// Fault plan installed on every measurer.
    pub plan: FaultPlan,
    /// The verified artifact bundle (Glimpse only).
    pub resolved: Option<ResolvedArtifacts>,
    /// Ladder fingerprint recorded in every journal header.
    pub rungs: Vec<(String, u8)>,
}

impl Setup {
    /// Builds the cells, and for Glimpse meta-trains the fast-preset
    /// leave-one-out bundle, saves it enveloped under `dir` and loads it
    /// back verified — what `glimpse tune --tuner glimpse` does before its
    /// first trial. With `times`, the set-up layers are also timed one by
    /// one (the corpus and codec are rebuilt for that on the side).
    ///
    /// # Errors
    ///
    /// Training, IO, or a bundle that does not load back intact.
    pub fn build(workload: &Workload, seeds: Seeds, dir: &Path, times: Option<&mut SetupTimes>) -> Result<Self, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        let model = models::find(workload.model).ok_or_else(|| format!("unknown model {}", workload.model))?;
        let mut cells = Vec::new();
        for gpu in &workload.gpus {
            for task in model.tasks() {
                cells.push(Cell {
                    name: format!("{}-L{}", gpu.name.replace(' ', "_"), task.id.index),
                    gpu,
                    task: task.clone(),
                    space: templates::space_for_task(task),
                });
            }
        }
        let plan = FaultPlan::uniform(seeds.faults, workload.fault_rates);
        let resolved = match workload.tuner {
            TunerKind::Glimpse => Some(train_artifacts(workload.gpus[0], dir, times)?),
            TunerKind::AutoTvm | TunerKind::Dgp => None,
        };
        let rungs = resolved.as_ref().map(|r| r.health.rung_fingerprint()).unwrap_or_default();
        Ok(Self {
            tuner: workload.tuner,
            budget: Budget::measurements(workload.trials),
            seeds,
            interrupt: workload.interrupt,
            cells,
            plan,
            resolved,
            rungs,
        })
    }

    /// A fresh measurer for `cell`, as `glimpse tune` opens one per cell.
    #[must_use]
    pub fn measurer(&self, cell: &Cell) -> Measurer {
        Measurer::with_faults(cell.gpu.clone(), self.seeds.measurer, &self.plan)
    }
}

/// Meta-trains with the harness's fixed artifact seed, as `glimpse tune`
/// does: the workload seed varies the campaign, not the bundle.
fn train_artifacts(target: &GpuSpec, dir: &Path, times: Option<&mut SetupTimes>) -> Result<ResolvedArtifacts, String> {
    let seed = glimpse_bench::e2e::ARTIFACT_SEED;
    let population = database::training_gpus(&target.name);
    let options = TrainingOptions::fast();
    let path = dir.join("artifacts.json");
    let (artifacts, train_s) = timed(|| GlimpseArtifacts::train_with(&population, options, seed));
    let artifacts = artifacts.map_err(|e| format!("meta-training: {e}"))?;
    let (saved, save_s) = timed(|| artifacts.save(&path));
    saved.map_err(|e| format!("saving artifacts: {e}"))?;
    let (resolved, load_s) = timed(|| ResolvedArtifacts::load(&path));
    if resolved.health.any_degraded() {
        return Err(format!(
            "artifact bundle did not load back intact: {:?}",
            resolved.health.degraded_names()
        ));
    }
    if let Some(times) = times {
        let (_, codec_s) = timed(|| glimpse_core::blueprint::BlueprintCodec::fit(&population, options.blueprint_dim));
        let tasks = glimpse_core::corpus::training_tasks();
        let (_, corpus_s) = timed(|| glimpse_core::corpus::generate(&population, &tasks, options.samples_per_pair, seed));
        let (_, verify_s) = timed(|| glimpse_durable::envelope::verify_file(&path, glimpse_core::artifacts::ARTIFACTS_ENVELOPE));
        *times = SetupTimes {
            codec_ms: codec_s * 1e3,
            corpus_ms: corpus_s * 1e3,
            train_ms: train_s * 1e3,
            save_ms: save_s * 1e3,
            verify_ms: verify_s * 1e3,
            load_ms: load_s * 1e3,
        };
    }
    Ok(resolved)
}

/// Runs one cell to its terminal status. The untraced runner is
/// `run_supervised` over the library tuner; the traced runner replays the
/// same loop through public layer calls.
pub trait CellRunner {
    /// Tunes `cell` under `spec` and `control`.
    ///
    /// # Errors
    ///
    /// Journal errors, rendered.
    fn run(
        &mut self,
        setup: &Setup,
        cell: &Cell,
        spec: &CheckpointSpec<'_>,
        measurer: &mut Measurer,
        control: &RunControl,
    ) -> Result<SupervisedOutcome, String>;
}

/// The production path: the library tuner under `run_supervised`.
#[derive(Debug, Default)]
pub struct Untraced;

impl CellRunner for Untraced {
    fn run(
        &mut self,
        setup: &Setup,
        cell: &Cell,
        spec: &CheckpointSpec<'_>,
        measurer: &mut Measurer,
        control: &RunControl,
    ) -> Result<SupervisedOutcome, String> {
        let mut tuner = library_tuner(setup, cell)?;
        run_supervised(
            &mut *tuner,
            spec,
            &cell.task,
            &cell.space,
            measurer,
            setup.budget,
            setup.seeds.tuner,
            control,
        )
        .map_err(|e| e.to_string())
    }
}

/// The library tuner `glimpse tune` builds for `cell`.
///
/// # Errors
///
/// A Glimpse set-up without an artifact bundle.
pub fn library_tuner<'a>(setup: &'a Setup, cell: &'a Cell) -> Result<Box<dyn Tuner + 'a>, String> {
    Ok(match (setup.tuner, &setup.resolved) {
        (TunerKind::Glimpse, Some(resolved)) => Box::new(GlimpseTuner::from_resolved(resolved, cell.gpu, GlimpseConfig::default())),
        (TunerKind::Glimpse, None) => return Err("the Glimpse workload has no artifact bundle".into()),
        (TunerKind::AutoTvm, _) => Box::new(AutoTvmTuner::new()),
        (TunerKind::Dgp, _) => Box::new(DgpTuner::new()),
    })
}

/// One cell's result after the campaign's last leg.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// Final outcome (loaded from `complete.json` when the cell finished in
    /// an earlier leg).
    pub outcome: TuningOutcome,
    /// Whether the cell ended `Complete`.
    pub complete: bool,
    /// Process CPU seconds the first leg spent on the cell (0 when the leg
    /// was cancelled before reaching it).
    pub first_cpu_s: f64,
    /// Process CPU seconds the resume leg spent on the cell.
    pub resume_cpu_s: f64,
    /// Wall seconds both legs spent on the cell.
    pub wall_s: f64,
    /// Digest of `journal.wal` and `complete.json`.
    pub digest: u64,
    /// Digest of `journal.wal` alone.
    pub wal_digest: u64,
}

/// A finished campaign.
#[derive(Debug, Clone)]
pub struct Campaign {
    /// Per-cell results in campaign order.
    pub cells: Vec<CellResult>,
}

impl Campaign {
    /// Wall seconds of both legs.
    #[must_use]
    pub fn wall_s(&self) -> f64 {
        self.cells.iter().map(|c| c.wall_s).sum()
    }

    /// Process CPU seconds of both legs.
    #[must_use]
    pub fn cpu_s(&self) -> f64 {
        self.cells.iter().map(|c| c.first_cpu_s + c.resume_cpu_s).sum()
    }

    /// Trials recorded in the campaign's journals.
    #[must_use]
    pub fn trials(&self) -> usize {
        self.cells.iter().map(|c| c.outcome.measurements).sum()
    }

    /// Digest over every cell's journal and outcome files.
    #[must_use]
    pub fn digest(&self) -> u64 {
        fold(self.cells.iter().map(|c| c.digest))
    }

    /// Digest over every cell's journal alone.
    #[must_use]
    pub fn wal_digest(&self) -> u64 {
        fold(self.cells.iter().map(|c| c.wal_digest))
    }
}

fn fold(digests: impl Iterator<Item = u64>) -> u64 {
    let mut bytes = Vec::new();
    for d in digests {
        bytes.extend_from_slice(&d.to_le_bytes());
    }
    fnv1a(&bytes)
}

/// FNV-1a over `bytes`.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xCBF2_9CE4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3))
}

/// Runs the campaign in the fresh directory `root` with `runner`: a first
/// leg (cancelled at the workload's interrupt point when `interrupt` is
/// set) and a resume leg.
///
/// # Errors
///
/// Journal or IO errors.
pub fn run_campaign(setup: &Setup, root: &Path, runner: &mut dyn CellRunner, interrupt: bool) -> Result<Campaign, String> {
    let cut = interrupt.then_some(setup.interrupt);
    let first = run_leg(setup, root, runner, false, cut)?;
    let second = run_leg(setup, root, runner, true, None)?;
    let mut cells = Vec::with_capacity(setup.cells.len());
    for (i, (cell, (last, resume))) in setup.cells.iter().zip(second).enumerate() {
        let dir = root.join(&cell.name);
        let wal = read(&dir.join(JOURNAL_FILE))?;
        let complete = read(&dir.join(COMPLETE_FILE)).unwrap_or_default();
        let mut both = wal.clone();
        both.extend_from_slice(&complete);
        cells.push(CellResult {
            complete: last.status == CellStatus::Complete,
            first_cpu_s: first.get(i).map_or(0.0, |(_, t)| t.cpu_s),
            resume_cpu_s: resume.cpu_s,
            wall_s: first.get(i).map_or(0.0, |(_, t)| t.wall_s) + resume.wall_s,
            digest: fnv1a(&both),
            wal_digest: fnv1a(&wal),
            outcome: last.outcome,
        });
    }
    Ok(Campaign { cells })
}

fn read(path: &Path) -> Result<Vec<u8>, String> {
    std::fs::read(path).map_err(|e| format!("reading {}: {e}", path.display()))
}

/// Host time one leg spent on one cell.
#[derive(Debug, Clone, Copy)]
struct CellTime {
    wall_s: f64,
    cpu_s: f64,
}

/// Runs the cells in order until one ends short of `Complete`; the cells
/// after it are not started (a campaign-wide cancel).
fn run_leg(
    setup: &Setup,
    root: &Path,
    runner: &mut dyn CellRunner,
    resume: bool,
    cut: Option<(usize, u64)>,
) -> Result<Vec<(SupervisedOutcome, CellTime)>, String> {
    let mut out = Vec::with_capacity(setup.cells.len());
    for (i, cell) in setup.cells.iter().enumerate() {
        let dir: PathBuf = root.join(&cell.name);
        let spec = CheckpointSpec::new(&dir)
            .resuming(resume)
            .with_faults(setup.plan.seed, setup.plan.rates_for(&cell.gpu.name))
            .with_rungs(&setup.rungs);
        let mut control = RunControl::none();
        if let Some((_, trial)) = cut.filter(|(at, _)| *at == i) {
            control = control.cancel_at_trial(trial);
        }
        let (watch, cpu) = (Stopwatch::start(), cpu_seconds());
        let mut measurer = setup.measurer(cell);
        let supervised = runner.run(setup, cell, &spec, &mut measurer, &control)?;
        let time = CellTime {
            wall_s: watch.secs(),
            cpu_s: cpu_seconds() - cpu,
        };
        let stop = supervised.status != CellStatus::Complete;
        out.push((supervised, time));
        if stop {
            break;
        }
    }
    Ok(out)
}

/// Noise-free throughput of every cell's best configuration; `Err` names
/// the first cell whose best configuration is missing or invalid.
///
/// # Errors
///
/// A cell without a valid best configuration.
pub fn noise_free_bests(setup: &Setup, campaign: &Campaign) -> Result<Vec<(Task, f64, &'static GpuSpec)>, String> {
    let mut out = Vec::with_capacity(campaign.cells.len());
    for (cell, result) in setup.cells.iter().zip(&campaign.cells) {
        let best = result
            .outcome
            .best_config
            .as_ref()
            .ok_or_else(|| format!("cell {} found no valid configuration", cell.name))?;
        let gflops = PerfModel::new(cell.gpu.clone())
            .throughput_gflops(&cell.space, best)
            .ok_or_else(|| format!("cell {}: best configuration is invalid under the noise-free model", cell.name))?;
        out.push((cell.task.clone(), gflops, cell.gpu));
    }
    Ok(out)
}

/// Inference latency of the tuned model from noise-free bests (ms of the
/// simulated device), geometric mean over the workload's GPUs.
#[must_use]
pub fn model_latency_ms(workload: &Workload, bests: &[(Task, f64, &'static GpuSpec)]) -> f64 {
    let per_gpu: Vec<f64> = workload
        .gpus
        .iter()
        .map(|gpu| {
            let pairs: Vec<(Task, f64)> = bests
                .iter()
                .filter(|(_, _, g)| g.name == gpu.name)
                .map(|(t, f, _)| (t.clone(), *f))
                .collect();
            glimpse_bench::experiment::end_to_end_latency_ms(&pairs)
        })
        .collect();
    glimpse_mlkit::stats::geomean(&per_gpu)
}
