//! `prcc-perf` — the repo's benchmark.
//!
//! Four closed-loop workloads drive an in-process 4-node x 8-partition
//! [`prcc_service::LoopbackCluster`] through public API only, one client
//! connection per node, the whole process tree pinned to one CPU (README:
//! on a 2-vCPU VM cross-CPU wake-ups are most of the run-to-run spread).
//! A run of a workload is [`spec::REPS`] timed
//! repetitions, each a fresh child process (launch → connect → warm-up →
//! measure → drain → oracle verify → shutdown); every end-to-end metric is
//! the median over the repetitions. The per-layer list adds single-threaded
//! probes of each layer's public functions, boundary counts from the
//! metrics frame, and one traced repetition (`sample_every 1`, harness
//! spans kept in memory and written to `target/benchmark/` at exit) whose
//! throughput against the untraced runs is the tracing overhead.
//!
//! * [`catalog`] — every metric by name, unit, direction and bound.
//! * [`spec`] — the workloads, seeded script generation, the plan file a
//!   repetition's child receives (scripts only, never the seed).
//! * [`rep`] — one repetition.
//! * [`probes`] — the layer probes.
//! * [`run`] — repetitions + probes + traced run → one median per metric.
//! * [`results`] — result files and `prcc-perf diff`.
//! * [`trace`] — harness spans.
//! * [`json`] — the minimal JSON the above read and write.
//!
//! `README.md` beside this crate holds the metric tables, the predicted
//! layer → end-to-end effects, and the caveats.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod catalog;
pub mod json;
pub mod probes;
pub mod rep;
pub mod results;
pub mod run;
pub mod spec;
pub mod trace;
