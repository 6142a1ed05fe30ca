//! Glimpse: mathematical embedding of hardware specification for neural
//! compilation (Ahn, Kinzer, Esmaeilzadeh — DAC 2022).
//!
//! Glimpse gives an auto-tuner *perception* of the target hardware through a
//! compact mathematical embedding of its public data sheet, the
//! [`Blueprint`](blueprint::Blueprint). The embedding feeds three components
//! wrapped around a Bayesian-optimization tuning loop (Algorithm 1):
//!
//! 1. **Prior distribution generation** (§3.1, [`prior`]) — a hypernetwork
//!    `H(layer, blueprint)` emits one distribution per search-space
//!    dimension; the initial measurement batch is drawn from their product,
//!    replacing blind random seeding (Fig. 4, Fig. 5).
//! 2. **Hardware-Aware Exploration** (§3.2, [`acquisition`]) — a
//!    meta-learned neural acquisition function conditioned on the Blueprint
//!    steers the annealing chains, cutting search steps (Fig. 6).
//! 3. **Hardware-Aware Sampling** (§3.3, [`sampler`]) — an ensemble of O(1)
//!    threshold predictors generated from the Blueprint votes out invalid
//!    configurations before they reach the GPU (Fig. 7, τ = 1/3).
//!
//! The offline side ([`corpus`], [`artifacts`]) builds the training corpus
//! (the TenSet-like dataset of §3.1) and meta-trains `H` and the acquisition
//! network across *other* GPUs and networks, leave-one-out with respect to
//! the evaluation target.
//!
//! # Examples
//!
//! ```no_run
//! use glimpse_core::artifacts::GlimpseArtifacts;
//! use glimpse_core::tuner::GlimpseTuner;
//! use glimpse_gpu_spec::database;
//! use glimpse_sim::Measurer;
//! use glimpse_space::templates;
//! use glimpse_tensor_prog::models;
//! use glimpse_tuners::{Budget, TuneContext, Tuner};
//!
//! let target = database::find("RTX 2080 Ti").unwrap();
//! let artifacts = GlimpseArtifacts::train_leave_one_out(target, 42).unwrap();
//! let model = models::resnet18();
//! let task = &model.tasks()[1];
//! let space = templates::space_for_task(task);
//! let mut measurer = Measurer::new(target.clone(), 7);
//! let ctx = TuneContext::new(task, &space, &mut measurer, Budget::measurements(200), 7);
//! let outcome = GlimpseTuner::new(&artifacts, target).tune(ctx);
//! println!("best: {:.0} GFLOPS", outcome.best_gflops);
//! ```

#![forbid(unsafe_code)]

pub mod acquisition;
pub mod artifacts;
pub mod blueprint;
pub mod corpus;
pub mod explain;
pub mod health;
pub mod prior;
pub mod sampler;
pub mod tuner;

pub use artifacts::GlimpseArtifacts;
pub use blueprint::{Blueprint, BlueprintCodec};
pub use health::ResolvedArtifacts;
pub use sampler::EnsembleSampler;
pub use tuner::{GlimpseConfig, GlimpseTuner};
