//! The replica prototype and peer-to-peer clusters.
//!
//! Implements the algorithm prototype of Section 2.1 generically over a
//! [`prcc_clock::Protocol`]:
//!
//! 1. `read(x)` answers from the local copy.
//! 2. `write(x, v)` atomically applies locally, `advance`s the timestamp,
//!    and sends `update(i, τ_i, x, v)` to every other replica storing `x`
//!    (or whatever the protocol's `recipients` says, for dummy-register
//!    baselines).
//! 3. Received updates join the `pending` set.
//! 4. Any pending update whose predicate `J` holds is applied atomically:
//!    value written (if the register is really stored), timestamps merged,
//!    update removed from `pending`.
//!
//! A [`Cluster`] runs `R` replicas over a simulated [`prcc_net::Network`]
//! and feeds every issue/apply event to the [`prcc_checker::Oracle`], so
//! each run yields a causal-consistency [`prcc_checker::Verdict`] plus
//! metadata/latency statistics.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cluster;
pub mod dedup;
mod error;
pub mod multicast;
mod replica;
mod stats;
mod update;

pub use cluster::Cluster;
pub use dedup::SeqWatermark;
pub use error::CoreError;
pub use multicast::CausalMulticast;
pub use replica::{Replica, ReplicaState};
pub use stats::ClusterStats;
pub use update::Update;
