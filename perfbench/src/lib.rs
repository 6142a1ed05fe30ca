//! End-to-end and per-layer benchmark of Glimpse tuning campaigns.
//!
//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! runs one workload (see [`workload::catalogue`]) and prints its metrics
//! (see [`metrics`]) followed by a one-line JSON result. See `README.md`
//! next to this crate for the metric definitions.

#![deny(unsafe_code)]

pub mod driver;
pub mod host;
pub mod metrics;
pub mod run;
pub mod trace;
pub mod workload;
