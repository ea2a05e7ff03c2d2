//! A networked TCP deployment of the partially-replicated causal-consistency
//! protocol.
//!
//! The simulator (`prcc-net`) validates the algorithm in one process; this
//! crate takes the same generic [`prcc_clock::Protocol`] replicas across
//! real sockets, as layers composed around one sans-I/O state machine:
//!
//! * [`wire`] — the length-prefixed binary wire protocol (version 11):
//!   `wire/peer.rs` has the versioned handshake (carrying the serialized
//!   [`prcc_graph::PartitionMap`], answered with the link's acknowledged
//!   resume offset), multi-partition flush frames (a `(partition, [(link
//!   seq, update)])` section per partition present, ids without the
//!   sender's node bits, per-update issue stamps), streamed acks and
//!   consistent-cut markers; `wire/client.rs` the partition-addressed
//!   client API and version-stamped `Status`/`Metrics`/`Cut` responses.
//! * [`link`] — the reliable link, sans I/O and sans replica:
//!   [`link::PeerLink`] sequences outbound updates into a capped resend
//!   window, refuses acknowledgements for what it never sent, and hands
//!   each inbound update up exactly once however often it is redelivered.
//! * `slot` — causal delivery, sans I/O and sans link: one
//!   `PartitionSlot` (a [`prcc_core::Replica`] plus its trace) per hosted
//!   partition, and `admit`, the one rule for which peer updates it sees.
//! * `core` — the composition, sans I/O: slots fed by the links' hand-ups
//!   and feeding their windows. `Core::step` turns one message into staged
//!   WAL records and effects without touching a socket, thread, file or
//!   clock; `Core::apply` is the one mutation path, shared with replay.
//! * `durable` — the durability layer under it: group commit of the
//!   core's staged records into a `prcc-storage` write-ahead log,
//!   periodic snapshots that truncate it, and boot-time recovery that
//!   replays `snapshot + log` through `Core::apply`, rebuilding clocks,
//!   stores, event logs and resend windows after a crash.
//! * `drivers` — every socket as a non-blocking `prcc-reactor` driver:
//!   peer senders that ship what each reactor tick delivered (no flush
//!   timer) as one multi-partition frame, redialing with backoff and
//!   resending the unacked window; peer receivers; client connections.
//! * [`node`] — configuration, [`spawn_node`], and the sweep loop: the one
//!   core thread that feeds messages to `Core::step`, commits the sweep's
//!   records, and only then releases its effects into the reactor.
//! * [`client`] — [`ServiceClient`] (blocking, single-node) and
//!   [`RoutedClient`] (key-routed over the whole cluster).
//! * [`cluster`] — [`LoopbackCluster`]: bind, spawn, drain-to-quiescence,
//!   trace collection, post-hoc per-partition [`prcc_checker`] oracle
//!   verification, and crash/restart fault injection
//!   (`crash_node`/`restart_node`).
//! * [`config`] — topology selection and argument scanning for the
//!   `prcc-serve` and `prcc-perf` binaries.
//!
//! The deployment is event-loop I/O without an async runtime: the hermetic
//! build environment has no tokio, so sockets are multiplexed onto a fixed
//! pool of epoll event-loop threads via the dependency-free `compat/mio`
//! shim and the `prcc-reactor` driver runtime. A node's thread count is a
//! configuration constant (`reactor_threads` workers plus the core loop),
//! independent of how many peers or clients are connected, while the core
//! keeps identical semantics: a run-to-completion loop fed by channels.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod cluster;
pub mod config;
mod core;
mod drivers;
mod durable;
pub mod link;
pub mod node;
mod slot;
mod stage;
pub mod wire;

pub use client::{RoutedClient, ServiceClient};
pub use cluster::LoopbackCluster;
pub use node::{spawn_node, NodeHandle, NodeSeed, ServiceConfig};
pub use wire::{NodeStatus, PartitionCounters, WIRE_VERSION};

pub use prcc_telemetry::MetricsSnapshot;
