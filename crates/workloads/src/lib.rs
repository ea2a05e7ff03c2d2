//! Workload generation and the experiment runner.
//!
//! Drives a [`prcc_core::Cluster`] with randomized-but-seeded write
//! workloads interleaved with message deliveries, collects the oracle
//! verdict and all statistics into a [`RunReport`], and provides violation
//! search (run many seeds, report how many executions violate causal
//! consistency — the measurement behind the unsafe-baseline experiments
//! E05/E07/E13).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ops;
mod report;
mod runner;

pub use report::{RunReport, VerdictSummary};
pub use runner::{run_partitioned_workload, run_workload, violation_rate, WorkloadConfig};
