//! Incremental frame decoding for non-blocking sockets.
//!
//! The blocking readers in `prcc-service`'s wire module
//! (`read_frame` / `read_frame_into`) park the thread until a whole
//! frame arrives. On the reactor's non-blocking sockets a read can stop
//! at *any* byte offset — mid-prefix, mid-payload — and must resume on
//! the next readable event. [`FrameDecoder`] is that resumable state
//! machine, with the blocking readers' semantics carried over
//! byte-for-byte:
//!
//! * `Ok(0)` from the socket at a frame boundary (zero prefix bytes
//!   consumed) is a clean EOF ([`Decoded::Eof`]).
//! * `Ok(0)` one-to-three bytes into the prefix is a truncated frame:
//!   `UnexpectedEof`, "connection closed after {n} bytes of a frame
//!   length prefix".
//! * A length above [`MAX_FRAME_BYTES`] is refused with `InvalidData`
//!   *before* any buffer is sized or pool lease taken.
//! * `Ok(0)` mid-payload mirrors `read_exact`'s `UnexpectedEof`
//!   ("failed to fill whole buffer").
//! * `Interrupted` is retried; `WouldBlock` parks the partial state and
//!   returns [`Decoded::Pending`].
//!
//! Payloads land in pooled [`Lease`] buffers, taken only after the
//! prefix arrives — an idle connection between frames holds zero
//! buffers, which keeps RSS bounded under thousands of mostly-idle
//! connections.

use crate::bufpool::{BufPool, Lease};
use std::io::{self, Read};

/// Upper bound on accepted frame payloads (64 MiB) — a garbage or hostile
/// length prefix is refused with a descriptive error *before* any
/// allocation or pool lease happens. (Moved here from the service wire
/// module, which re-exports it: the incremental decoder is now the
/// lowest layer that enforces it.)
pub const MAX_FRAME_BYTES: usize = 64 << 20;

/// One step of incremental decoding.
#[derive(Debug)]
pub enum Decoded {
    /// A complete frame payload.
    Frame(Lease),
    /// Clean EOF at a frame boundary (the peer closed between frames).
    Eof,
    /// The socket has no more bytes right now; state is parked and the
    /// caller should wait for the next readable event.
    Pending,
}

/// Resumable decoder state for one connection. See the module docs for
/// the exact semantics contract.
pub struct FrameDecoder {
    prefix: [u8; 4],
    prefix_got: usize,
    /// The payload in flight: the lease is pre-sized to the frame length,
    /// `filled` tracks how much of it has arrived.
    payload: Option<(Lease, usize)>,
}

impl FrameDecoder {
    /// A decoder at a frame boundary.
    pub fn new() -> FrameDecoder {
        FrameDecoder {
            prefix: [0; 4],
            prefix_got: 0,
            payload: None,
        }
    }

    /// Drops any partial frame (used when a connection is torn down and
    /// its decoder will be reused for the replacement socket).
    pub fn reset(&mut self) {
        self.prefix_got = 0;
        self.payload = None;
    }

    /// Whether the decoder sits at a frame boundary (no partial frame).
    pub fn at_boundary(&self) -> bool {
        self.prefix_got == 0 && self.payload.is_none()
    }

    /// Pulls bytes from `r` until a frame completes, the socket runs dry,
    /// or the stream ends. Call in a loop on each readable event until it
    /// returns [`Decoded::Pending`].
    // lint: hot-path
    pub fn next<R: Read>(&mut self, r: &mut R, pool: &BufPool) -> io::Result<Decoded> {
        if self.payload.is_none() {
            // Accumulate the 4-byte length prefix.
            while self.prefix_got < self.prefix.len() {
                match r.read(&mut self.prefix[self.prefix_got..]) {
                    Ok(0) if self.prefix_got == 0 => return Ok(Decoded::Eof),
                    Ok(0) => {
                        let got = self.prefix_got;
                        return Err(io::Error::new(
                            io::ErrorKind::UnexpectedEof,
                            // lint: allow(alloc) cold path: the peer died mid-prefix
                            format!("connection closed after {got} bytes of a frame length prefix"),
                        ));
                    }
                    Ok(n) => self.prefix_got += n,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(Decoded::Pending),
                    Err(e) => return Err(e),
                }
            }
            let len = u32::from_le_bytes(self.prefix) as usize;
            if len > MAX_FRAME_BYTES {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    // lint: allow(alloc) cold path: oversized frame tears the link down
                    format!("frame of {len} bytes exceeds MAX_FRAME_BYTES ({MAX_FRAME_BYTES})"),
                ));
            }
            self.prefix_got = 0;
            let mut lease = pool.lease(len);
            lease.resize(len, 0);
            self.payload = Some((lease, 0));
        }
        let (lease, filled) = self.payload.as_mut().expect("payload in flight");
        while *filled < lease.len() {
            match r.read(&mut lease[*filled..]) {
                Ok(0) => {
                    // Mirror `read_exact`'s truncation error.
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "failed to fill whole buffer",
                    ));
                }
                Ok(n) => *filled += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(Decoded::Pending),
                Err(e) => return Err(e),
            }
        }
        let (lease, _) = self.payload.take().expect("payload complete");
        Ok(Decoded::Frame(lease))
    }
    // lint: end-hot-path
}

impl Default for FrameDecoder {
    fn default() -> Self {
        FrameDecoder::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prcc_telemetry::Registry;

    /// A reader that serves a byte stream in caller-chosen chunks,
    /// returning `WouldBlock` between them — the shape of a non-blocking
    /// socket under an adversarial scheduler.
    struct ChoppyReader {
        data: Vec<u8>,
        at: usize,
        /// Bytes to serve per readable burst; `WouldBlock` after each.
        burst: usize,
        blocked: bool,
        /// When true, the end of `data` is a clean close; when false the
        /// reader keeps returning `WouldBlock` at the end (open, idle).
        eof_at_end: bool,
    }

    impl Read for ChoppyReader {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.blocked {
                self.blocked = false;
                return Err(io::Error::new(io::ErrorKind::WouldBlock, "not ready"));
            }
            if self.at == self.data.len() {
                if self.eof_at_end {
                    return Ok(0);
                }
                return Err(io::Error::new(io::ErrorKind::WouldBlock, "idle"));
            }
            let n = buf.len().min(self.burst).min(self.data.len() - self.at);
            buf[..n].copy_from_slice(&self.data[self.at..self.at + n]);
            self.at += n;
            self.blocked = true;
            Ok(n)
        }
    }

    fn wire(frames: &[&[u8]]) -> Vec<u8> {
        let mut out = Vec::new();
        for f in frames {
            out.extend_from_slice(&(f.len() as u32).to_le_bytes());
            out.extend_from_slice(f);
        }
        out
    }

    fn drain(
        decoder: &mut FrameDecoder,
        r: &mut ChoppyReader,
        pool: &BufPool,
    ) -> (Vec<Vec<u8>>, bool) {
        let mut frames = Vec::new();
        loop {
            match decoder.next(r, pool).unwrap() {
                Decoded::Frame(lease) => frames.push(lease.to_vec()),
                Decoded::Eof => return (frames, true),
                Decoded::Pending => {
                    if r.at == r.data.len() && !r.eof_at_end && !r.blocked {
                        return (frames, false);
                    }
                }
            }
        }
    }

    #[test]
    fn every_burst_size_reassembles_the_same_frames() {
        // The exhaustive chop test: for every burst size (1 byte up to
        // whole-stream), the decoder must produce identical frames —
        // every prefix/payload split point is exercised.
        let pool = BufPool::new(&Registry::new());
        let payloads: Vec<&[u8]> = vec![b"hello", b"", b"a much longer payload body here", b"x"];
        let stream = wire(&payloads);
        for burst in 1..=stream.len() {
            let mut r = ChoppyReader {
                data: stream.clone(),
                at: 0,
                burst,
                blocked: false,
                eof_at_end: true,
            };
            let mut decoder = FrameDecoder::new();
            let (frames, eof) = drain(&mut decoder, &mut r, &pool);
            assert!(eof, "burst {burst}: stream must end in clean EOF");
            assert_eq!(frames.len(), payloads.len(), "burst {burst}");
            for (got, want) in frames.iter().zip(&payloads) {
                assert_eq!(got.as_slice(), *want, "burst {burst}");
            }
            assert!(decoder.at_boundary());
        }
        assert_eq!(pool.outstanding(), 0, "all leases returned");
    }

    #[test]
    fn eof_inside_the_prefix_is_an_error_at_every_cut() {
        let pool = BufPool::new(&Registry::new());
        for cut in 1..4usize {
            let mut r = ChoppyReader {
                data: 7u32.to_le_bytes()[..cut].to_vec(),
                at: 0,
                burst: 1,
                blocked: false,
                eof_at_end: true,
            };
            let mut decoder = FrameDecoder::new();
            let err = loop {
                match decoder.next(&mut r, &pool) {
                    Ok(Decoded::Pending) => {}
                    Ok(other) => panic!("cut {cut}: unexpected {other:?}"),
                    Err(e) => break e,
                }
            };
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "cut {cut}");
            assert!(
                err.to_string().contains("length prefix"),
                "cut {cut}: undescriptive error {err}"
            );
        }
    }

    #[test]
    fn eof_at_a_frame_boundary_is_clean() {
        let pool = BufPool::new(&Registry::new());
        let mut r = ChoppyReader {
            data: Vec::new(),
            at: 0,
            burst: 1,
            blocked: false,
            eof_at_end: true,
        };
        let mut decoder = FrameDecoder::new();
        assert!(matches!(decoder.next(&mut r, &pool).unwrap(), Decoded::Eof));
    }

    #[test]
    fn eof_inside_the_payload_is_an_error_at_every_cut() {
        let pool = BufPool::new(&Registry::new());
        let full = wire(&[b"payload"]);
        for cut in 5..full.len() {
            let mut r = ChoppyReader {
                data: full[..cut].to_vec(),
                at: 0,
                burst: 3,
                blocked: false,
                eof_at_end: true,
            };
            let mut decoder = FrameDecoder::new();
            let err = loop {
                match decoder.next(&mut r, &pool) {
                    Ok(Decoded::Pending) => {}
                    Ok(other) => panic!("cut {cut}: unexpected {other:?}"),
                    Err(e) => break e,
                }
            };
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "cut {cut}");
        }
        assert_eq!(pool.outstanding(), 0, "error paths must return the lease");
    }

    #[test]
    fn oversized_prefix_refused_before_leasing() {
        let pool = BufPool::new(&Registry::new());
        let mut r = ChoppyReader {
            data: (u32::MAX).to_le_bytes().to_vec(),
            at: 0,
            burst: 4,
            blocked: false,
            eof_at_end: false,
        };
        let mut decoder = FrameDecoder::new();
        let err = loop {
            match decoder.next(&mut r, &pool) {
                Ok(Decoded::Pending) => {}
                Ok(other) => panic!("unexpected {other:?}"),
                Err(e) => break e,
            }
        };
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("exceeds MAX_FRAME_BYTES"));
        assert_eq!(pool.outstanding(), 0, "no lease for a refused prefix");
    }

    #[test]
    fn idle_open_connection_parks_without_leases_at_boundary() {
        // The RSS property: a connection with no partial frame holds no
        // pool buffer while idle.
        let pool = BufPool::new(&Registry::new());
        let mut r = ChoppyReader {
            data: wire(&[b"one"]),
            at: 0,
            burst: 64,
            blocked: false,
            eof_at_end: false,
        };
        let mut decoder = FrameDecoder::new();
        let frame = loop {
            match decoder.next(&mut r, &pool).unwrap() {
                Decoded::Frame(f) => break f,
                Decoded::Pending => {}
                Decoded::Eof => panic!("no EOF expected"),
            }
        };
        assert_eq!(&*frame, b"one");
        drop(frame);
        assert!(matches!(
            decoder.next(&mut r, &pool).unwrap(),
            Decoded::Pending
        ));
        assert!(decoder.at_boundary());
        assert_eq!(pool.outstanding(), 0, "idle-at-boundary holds no lease");
    }

    #[test]
    fn reset_drops_a_partial_frame() {
        let pool = BufPool::new(&Registry::new());
        let full = wire(&[b"abcdef"]);
        let mut r = ChoppyReader {
            data: full[..7].to_vec(), // prefix + 3 payload bytes
            at: 0,
            burst: 7,
            blocked: false,
            eof_at_end: false,
        };
        let mut decoder = FrameDecoder::new();
        assert!(matches!(
            decoder.next(&mut r, &pool).unwrap(),
            Decoded::Pending
        ));
        assert!(!decoder.at_boundary());
        assert_eq!(pool.outstanding(), 1, "partial payload holds its lease");
        decoder.reset();
        assert!(decoder.at_boundary());
        assert_eq!(pool.outstanding(), 0, "reset returns the lease");
    }
}
