//! Event-loop I/O for the service node.
//!
//! `prcc-service` versions 1–7 spent a thread per socket: one sender per
//! peer link, one reader per inbound peer connection, one handler per
//! client. That deployment wrapper caps a node at thousands of threads
//! long before the causal engine saturates. This crate replaces it with
//! a *reactor*: one epoll event-loop thread (built on the `compat/mio`
//! shim) that multiplexes every listener, peer link and client connection
//! of a node over non-blocking sockets, and owns the node's state beside
//! them, so the protocol steps on the thread that read its input.
//!
//! The pieces, each usable and tested on its own:
//!
//! * [`BufPool`] / [`Lease`] — the size-classed buffer pool (moved here
//!   from `prcc-service`; the service re-exports it), backing every
//!   frame buffer on both sides of the socket.
//! * [`FrameDecoder`] — resumable incremental decoding of
//!   length-prefixed frames, with the blocking readers' EOF/truncation/
//!   size-bound semantics carried over byte-for-byte, reading ahead so a
//!   burst of small frames costs one `read`.
//! * [`OutQueue`] — bounded per-connection outbound FIFO with vectored
//!   (`writev`) flush, mid-frame resume, and loud overflow.
//! * [`Reactor`] / [`ReactorHandle`] / [`Driver`] / [`Loop`] / [`Tick`] —
//!   the loop thread, its cross-thread handle, the per-connection
//!   protocol trait, the loop state every connection shares, and what
//!   that state may release at the end of a tick.
//!
//! Like every `prcc-*` crate this one forbids `unsafe`; the raw epoll /
//! eventfd / fcntl / non-blocking-connect syscall surface lives behind
//! the `compat/mio` shim.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bufpool;
mod decode;
mod outq;
mod reactor;

pub use bufpool::{BufPool, Lease};
pub use decode::{Decoded, FrameDecoder, MAX_FRAME_BYTES};
pub use outq::{FlushOutcome, OutQueue, QueueFull, WriteSink, MAX_IOV};
pub use reactor::{
    AcceptFn, ConnId, Ctx, Driver, Fate, Loop, Reactor, ReactorHandle, ReactorMetrics, Tick,
};
