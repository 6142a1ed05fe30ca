//! `glimpse-lint` — workspace invariant analyzer.
//!
//! PR 1 and PR 2 established contracts the Rust compiler cannot check:
//! thread count is never a semantics knob (all randomness seed-splits via
//! `child_rng`, no wall clock or OS entropy in the search path), faulted
//! measurements never reach cost-model training data, and the crate DAG
//! flows `gpu-spec/tensor-prog/space → sim/mlkit → tuners → core →
//! bench/cli`. This crate turns those conventions into a static-analysis
//! pass that fails CI and `cargo test`:
//!
//! ```text
//! cargo run -p glimpse-lint -- check              # human-readable
//! cargo run -p glimpse-lint -- check --format json
//! cargo run -p glimpse-lint -- check --max-ms 500 # also fail on a slow pass
//! cargo run -p glimpse-lint -- rules              # rule table
//! ```
//!
//! The pass walks every `crates/*/src/**/*.rs` file with a small
//! comment/string/raw-string-aware lexer (no `syn` in the vendored dep
//! set), runs the rules in [`rules::RULES`], and reports violations with
//! `file:line` spans. Every run analyses the whole workspace from source;
//! nothing is cached between runs. A violation can be suppressed for one
//! statement with `// lint:allow(<RULE>) reason` — reasonless suppressions
//! are themselves violations (rule `A0`).
//!
//! The same engine runs as an in-tree test
//! (`crates/lint/tests/workspace_clean.rs`), so reintroducing a
//! `thread_rng()` call anywhere in the search path fails `cargo test`
//! locally before CI ever sees it. `clippy.toml` mirrors rules D1/D2 as
//! `disallowed-methods` / `disallowed-types` for editor-level feedback.

#![forbid(unsafe_code)]

pub mod callgraph;
pub mod clock;
pub mod effects;
pub mod engine;
pub mod lexer;
pub mod parser;
pub mod rules;
pub mod source;

pub use engine::{check_sources, check_workspace, collect_workspace_sources, find_workspace_root, JsonReport, Report};
pub use rules::{RuleInfo, Violation, RULES};
