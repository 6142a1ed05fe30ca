//! Facade crate re-exporting the Glimpse reproduction workspace under one
//! name, so examples and integration tests can depend on a single crate.
//!
//! Each module aliases one workspace crate; see the crate-level docs of the
//! underlying crates for details.

#![forbid(unsafe_code)]

/// Fleet supervision: cancellation tokens, deadlines, watchdogs,
/// signal-driven shutdown, and the degradation report.
pub use glimpse_supervise as supervise;

/// Crash-consistent file IO: atomic writes, CRC32, and the write-ahead
/// trial log underlying checkpoint/resume.
pub use glimpse_durable as durable;

/// GPU specification sheets and the bundled device database.
pub use glimpse_gpu_spec as gpu_spec;

/// Tensor-program workloads (conv2d and friends) and model task lists.
pub use glimpse_tensor_prog as tensor_prog;

/// Schedule template search spaces and feature extraction.
pub use glimpse_space as space;

/// The measurement simulator: oracle cost model, fault injection, and
/// device pools.
pub use glimpse_sim as sim;

/// Small ML toolkit (GBT, k-means, ranking, linear algebra, statistics).
pub use glimpse_mlkit as mlkit;

/// Tuning loops: random/grid, AutoTVM, Chameleon, DGP, plus budget and
/// history bookkeeping shared by all of them.
pub use glimpse_tuners as tuners;

/// The Glimpse method itself: blueprint codec, hardware-aware sampler,
/// priors, acquisition, and the end-to-end tuner.
pub use glimpse_core as core;
