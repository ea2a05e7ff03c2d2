//! Deterministic discrete-event network simulation.
//!
//! The paper's system model (Section 2) is an asynchronous message-passing
//! system with reliable, **not necessarily FIFO**, point-to-point channels
//! between replicas. Its impossibility proofs (Theorem 8, Lemma 14) build
//! adversarial executions by delaying and reordering specific messages.
//!
//! This crate provides that substrate as a seeded, fully deterministic
//! simulator:
//!
//! * [`Network`] — an event queue of in-flight messages with virtual time;
//!   `send` schedules a delivery according to a [`DeliveryPolicy`],
//!   `deliver_next` pops the earliest one. Determinism: ties broken by send
//!   sequence number, randomness only from the caller-provided seeded RNG.
//! * [`DeliveryPolicy`] — pluggable delay models: [`UniformDelay`]
//!   (non-FIFO, the paper's default model), [`FixedDelay`] (FIFO),
//!   [`PerLinkDelay`] (heterogeneous links, used by the ring-breaking
//!   experiment E12).
//! * Link *hold-back* controls ([`Network::hold_link`] /
//!   [`Network::release_link`]) — the mechanism the proof executions use to
//!   "not deliver these update messages until a later time".
//! * [`NetStats`] — message and byte accounting for metadata-overhead
//!   experiments.
//! * [`chaos`] — seeded per-link fault schedules ([`LinkFaultStream`],
//!   [`FaultProfile`], and [`chaos::LinkSchedule`] with its rotating
//!   partition windows) shared between the simulator (via
//!   [`ChaosPolicy`]) and the TCP nemesis proxy in `prcc-chaos`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
mod network;
mod policy;
mod stats;
mod time;

pub use chaos::{ChaosPolicy, FaultOp, FaultProfile, LinkFaultStream};
pub use network::{Delivery, MessageId, Network};
pub use policy::{DeliveryPolicy, FixedDelay, PerLinkDelay, UniformDelay};
pub use stats::NetStats;
pub use time::VirtualTime;

/// Index of a node (replica or client) attached to the network.
///
/// The network is agnostic to what a node is; the core crate maps replica
/// ids and (in the client-server architecture) client ids onto node
/// indices.
pub type NodeIndex = usize;
