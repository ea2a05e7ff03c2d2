//! `prcc` — Partially Replicated Causally Consistent shared memory.
//!
//! A facade crate re-exporting the whole workspace: a full reproduction of
//! Xiang & Vaidya, *"Partially Replicated Causally Consistent Shared Memory:
//! Lower Bounds and An Algorithm"* (PODC 2019).
//!
//! See the individual crates for details:
//!
//! * [`graph`] — share graphs, `(i, e_jk)`-loops, timestamp graphs, hoops.
//! * [`clock`] — edge-indexed vector timestamps, compression.
//! * [`net`] — deterministic discrete-event network simulation.
//! * [`core`] — the replica prototype and peer-to-peer clusters.
//! * [`checker`] — happened-before oracle, safety/liveness verification.
//! * [`baselines`] — full replication, hoop-based, bounded-loop, ring
//!   breaking.
//! * [`clientserver`] — the client-server architecture (Section 6).
//! * [`lowerbound`] — conflict graphs and timestamp-space lower bounds
//!   (Section 4).
//! * [`workloads`] — topology/workload generators and the metric runner.
//! * [`service`] — the networked TCP deployment: partition-tagged wire
//!   protocol, partition-routing nodes with update batching, single-node
//!   and key-routed client libraries, and the `prcc-serve` binary.
//! * [`telemetry`] — sharded metric registry (counters, gauges,
//!   mergeable log-bucketed histograms), update-lifecycle stage timing,
//!   and the crash flight recorder.

#![forbid(unsafe_code)]

pub use prcc_baselines as baselines;
pub use prcc_checker as checker;
pub use prcc_clientserver as clientserver;
pub use prcc_clock as clock;
pub use prcc_core as core;
pub use prcc_graph as graph;
pub use prcc_lowerbound as lowerbound;
pub use prcc_net as net;
pub use prcc_service as service;
pub use prcc_telemetry as telemetry;
pub use prcc_workloads as workloads;
