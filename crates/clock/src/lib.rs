//! Timestamps for replica-centric causal consistency.
//!
//! This crate implements the metadata layer of Xiang & Vaidya (PODC 2019):
//!
//! * [`EdgeClock`] / [`EdgeProtocol`] — the paper's algorithm (Section 3.3):
//!   per-replica vector timestamps indexed by the edges of the replica's
//!   timestamp graph `G_i`, with the `advance` / `merge` functions and
//!   delivery predicate `J` exactly as specified — stored one counter per
//!   class of edges whose counters are provably equal (a vector clock
//!   under full replication, the identity on rings and trees).
//! * [`CompressedClock`] / [`CompressedProtocol`] — the register-level
//!   refinement sketched in Appendix D ("count the number of updates on x,
//!   y and z separately"): one counter per (source replica, register)
//!   instead of per edge.
//! * [`Protocol`] — the trait a generic replica is parameterized by, so the
//!   core system and every baseline share one implementation.
//!
//! Timestamps carry only counters on the wire; the index sets (`E_i`,
//! register universes) and counter layouts are static configuration known
//! to both endpoints, as in the paper's model where the share graph is
//! static.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod compressed;
mod edge_clock;
pub mod encoding;
mod traits;
pub mod wire;

pub use compressed::{CompressedClock, CompressedProtocol};
pub use edge_clock::{EdgeClock, EdgeProtocol};
pub use traits::{ClockState, Protocol};
pub use wire::WireClock;
