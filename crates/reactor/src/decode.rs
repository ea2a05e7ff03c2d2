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
//!
//! ## Read-ahead
//!
//! The decoder does not ask the socket for a prefix and then for a
//! payload: at a frame boundary it reads whatever is there — up to
//! [`READ_AHEAD`] bytes — into a pooled read-ahead buffer and carves every
//! complete frame out of it, so a burst of small frames costs one `read`
//! instead of two per frame. The buffer is leased for the read and
//! returned the moment its last byte is consumed; only a frame cut
//! mid-prefix parks (at most three) bytes in it across events. A frame
//! that does not fit the bytes already buffered gets its own lease sized
//! to the frame, and the rest of it is read straight into that lease —
//! large frames are never staged.
//!
//! ## The short-read rule
//!
//! A `read` that returns fewer bytes than it had room for has emptied the
//! socket's receive queue. [`FrameDecoder::drained`] reports exactly that
//! (and that no complete frame is left buffered), and the event loop uses
//! it to skip the read whose only possible answer is `WouldBlock`. This is
//! safe *because the poll is level-triggered*: bytes that arrive after the
//! short read — or a peer close, which is readable too — make the socket
//! report readable again on the next `epoll_wait`, so nothing is lost by
//! not probing; under an edge-triggered poll the skipped read would be the
//! one that re-arms the edge. [`FrameDecoder::next`] itself never guesses:
//! it returns [`Decoded::Pending`] only when the reader said `WouldBlock`.

use crate::bufpool::{BufPool, Lease};
use std::io::{self, Read};

/// Upper bound on accepted frame payloads (64 MiB) — a garbage or hostile
/// length prefix is refused with a descriptive error *before* any
/// allocation or pool lease happens. (Moved here from the service wire
/// module, which re-exports it: the incremental decoder is now the
/// lowest layer that enforces it.)
pub const MAX_FRAME_BYTES: usize = 64 << 20;

/// Bytes one boundary read asks the socket for. Sized to the traffic: a
/// client request is ~10 B, a peer flush frame 30–300 B, so one pooled
/// 4 KiB buffer swallows a whole tick's burst on a connection.
const READ_AHEAD: usize = 4096;

/// Length of the little-endian frame length prefix.
const PREFIX: usize = 4;

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

/// The read-ahead buffer: a pooled `READ_AHEAD`-byte lease of which
/// `buf[start..end]` is read but not yet consumed.
struct Ahead {
    buf: Lease,
    start: usize,
    end: usize,
}

/// Resumable decoder state for one connection. See the module docs for
/// the exact semantics contract.
pub struct FrameDecoder {
    /// Bytes read past the last frame handed out; `None` whenever nothing
    /// is buffered, so a connection idle at a boundary holds no lease.
    ahead: Option<Ahead>,
    /// The payload in flight — a frame the buffered bytes did not cover:
    /// the lease is pre-sized to the frame length, `filled` tracks how
    /// much of it has arrived.
    payload: Option<(Lease, usize)>,
    /// Whether the last `read` came back with room to spare (the short-read
    /// rule; see [`FrameDecoder::drained`]).
    short: bool,
}

impl FrameDecoder {
    /// A decoder at a frame boundary.
    pub fn new() -> FrameDecoder {
        FrameDecoder {
            ahead: None,
            payload: None,
            short: false,
        }
    }

    /// Drops any partial frame (used when a connection is torn down and
    /// its decoder will be reused for the replacement socket).
    pub fn reset(&mut self) {
        self.ahead = None;
        self.payload = None;
        self.short = false;
    }

    /// Whether the decoder sits at a frame boundary (no partial frame).
    pub fn at_boundary(&self) -> bool {
        self.ahead.is_none() && self.payload.is_none()
    }

    // lint: hot-path
    /// The bytes read ahead and not yet consumed.
    fn buffered(&self) -> &[u8] {
        self.ahead.as_ref().map_or(&[], |a| &a.buf[a.start..a.end])
    }

    /// The length a buffered prefix announces, once all of it is buffered.
    fn buffered_len(&self) -> Option<usize> {
        let prefix = self.buffered().first_chunk::<PREFIX>()?;
        Some(u32::from_le_bytes(*prefix) as usize)
    }

    /// Whether the socket is known to be empty: the last read was short
    /// and no complete frame (or refusable prefix) is left buffered, so the
    /// next [`FrameDecoder::next`] could only probe for `WouldBlock`. The
    /// event loop asks after each frame and waits for the next readable
    /// event instead — sound under a level-triggered poll only (module
    /// docs). A fact about the *last* read: stale by the next event.
    pub fn drained(&self) -> bool {
        self.short
            && self
                .buffered_len()
                .is_none_or(|len| len <= MAX_FRAME_BYTES && self.buffered().len() - PREFIX < len)
    }

    /// Pulls bytes from `r` until a frame completes, the socket runs dry,
    /// or the stream ends. Call in a loop on each readable event until it
    /// returns [`Decoded::Pending`] (or [`FrameDecoder::drained`] says the
    /// next call would).
    pub fn next<R: Read>(&mut self, r: &mut R, pool: &BufPool) -> io::Result<Decoded> {
        loop {
            if let Some((lease, filled)) = self.payload.as_mut() {
                // A frame the read-ahead did not cover: the rest of it
                // lands directly in its own lease.
                while *filled < lease.len() {
                    let room = lease.len() - *filled;
                    match r.read(&mut lease[*filled..]) {
                        Ok(0) => {
                            // Mirror `read_exact`'s truncation error.
                            return Err(io::Error::new(
                                io::ErrorKind::UnexpectedEof,
                                "failed to fill whole buffer",
                            ));
                        }
                        Ok(n) => {
                            *filled += n;
                            self.short = n < room;
                        }
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                            return Ok(Decoded::Pending)
                        }
                        Err(e) => return Err(e),
                    }
                }
                let (lease, _) = self.payload.take().expect("payload complete");
                return Ok(Decoded::Frame(lease));
            }
            if let Some(len) = self.buffered_len() {
                if len > MAX_FRAME_BYTES {
                    self.ahead = None;
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        // lint: allow(alloc) cold path: oversized frame tears the link down
                        format!("frame of {len} bytes exceeds MAX_FRAME_BYTES ({MAX_FRAME_BYTES})"),
                    ));
                }
                let mut lease = pool.lease(len);
                let ahead = self.ahead.as_mut().expect("a prefix is buffered");
                let body = &ahead.buf[ahead.start + PREFIX..ahead.end];
                if body.len() < len {
                    // The frame runs past what is buffered: move its head
                    // into a lease of its own and read the rest in place.
                    let have = body.len();
                    lease.extend_from_slice(body);
                    lease.resize(len, 0);
                    self.ahead = None;
                    self.payload = Some((lease, have));
                    continue;
                }
                lease.extend_from_slice(&body[..len]);
                ahead.start += PREFIX + len;
                if ahead.start == ahead.end {
                    self.ahead = None;
                }
                return Ok(Decoded::Frame(lease));
            }
            // Less than a prefix buffered: read ahead, after moving the
            // parked fragment (at most three bytes) to the front.
            let ahead = self.ahead.get_or_insert_with(|| {
                let mut buf = pool.lease(READ_AHEAD);
                buf.resize(READ_AHEAD, 0);
                Ahead {
                    buf,
                    start: 0,
                    end: 0,
                }
            });
            if ahead.start > 0 {
                ahead.buf.copy_within(ahead.start..ahead.end, 0);
                ahead.end -= ahead.start;
                ahead.start = 0;
            }
            let room = READ_AHEAD - ahead.end;
            match r.read(&mut ahead.buf[ahead.end..]) {
                Ok(0) => {
                    let got = ahead.end;
                    self.ahead = None;
                    if got == 0 {
                        return Ok(Decoded::Eof);
                    }
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        // lint: allow(alloc) cold path: the peer died mid-prefix
                        format!("connection closed after {got} bytes of a frame length prefix"),
                    ));
                }
                Ok(n) => {
                    ahead.end += n;
                    self.short = n < room;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    if ahead.end == 0 {
                        self.ahead = None;
                    }
                    return Ok(Decoded::Pending);
                }
                Err(e) => return Err(e),
            }
        }
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

    /// A level-triggered socket: `readable` bytes of `data` have arrived
    /// (an event delivers more), a read takes what is there, `WouldBlock`
    /// when nothing is, `Ok(0)` once closed and read dry.
    struct EventReader {
        data: Vec<u8>,
        at: usize,
        readable: usize,
        closed: bool,
        reads: usize,
    }

    impl Read for EventReader {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.reads += 1;
            let n = buf.len().min(self.readable - self.at);
            if n == 0 {
                if self.closed {
                    return Ok(0);
                }
                return Err(io::Error::new(io::ErrorKind::WouldBlock, "drained"));
            }
            buf[..n].copy_from_slice(&self.data[self.at..self.at + n]);
            self.at += n;
            Ok(n)
        }
    }

    /// Plays `stream` through the event loop's read discipline, `chunk`
    /// bytes per readable event and a close after the last one — with or
    /// without the drained-socket query. Returns the frames, the reads
    /// issued and the passes the level-triggered poll had to raise.
    fn play(
        stream: &[u8],
        chunk: usize,
        query: bool,
        pool: &BufPool,
    ) -> (Vec<Vec<u8>>, usize, usize) {
        let mut r = EventReader {
            data: stream.to_vec(),
            at: 0,
            readable: 0,
            closed: false,
            reads: 0,
        };
        let mut decoder = FrameDecoder::new();
        let (mut frames, mut passes, mut eof) = (Vec::new(), 0, false);
        while !eof {
            r.readable = (r.readable + chunk).min(stream.len());
            r.closed = r.readable == stream.len();
            // Level-triggered: the event repeats while anything is unread.
            while r.at < r.readable || (r.closed && !eof) {
                passes += 1;
                assert!(
                    passes < 10 * stream.len() + 10,
                    "the loop must make progress"
                );
                loop {
                    match decoder.next(&mut r, pool).unwrap() {
                        Decoded::Frame(f) => {
                            frames.push(f.to_vec());
                            if query && decoder.drained() {
                                break;
                            }
                        }
                        Decoded::Pending => break,
                        Decoded::Eof => {
                            eof = true;
                            break;
                        }
                    }
                }
            }
        }
        assert!(decoder.at_boundary());
        (frames, r.reads, passes)
    }

    #[test]
    fn short_reads_yield_the_same_frames_with_and_without_the_drained_query() {
        // Every chunk size cuts the stream mid-prefix and mid-payload
        // somewhere; the query may only ever save reads, never frames.
        let pool = BufPool::new(&Registry::new());
        let big = vec![7u8; 3 * READ_AHEAD + 5];
        let payloads: Vec<&[u8]> = vec![b"hello", b"", &big, b"x", b"a longer payload body"];
        let stream = wire(&payloads);
        for chunk in (1..64).chain([READ_AHEAD - 1, READ_AHEAD, READ_AHEAD + 1, stream.len()]) {
            let (probing, probing_reads, _) = play(&stream, chunk, false, &pool);
            let (queried, queried_reads, _) = play(&stream, chunk, true, &pool);
            assert_eq!(probing.len(), payloads.len(), "chunk {chunk}");
            for (got, want) in probing.iter().zip(&payloads) {
                assert_eq!(got.as_slice(), *want, "chunk {chunk}");
            }
            assert_eq!(queried, probing, "chunk {chunk}");
            assert!(queried_reads <= probing_reads, "chunk {chunk}");
        }
        assert_eq!(pool.outstanding(), 0, "all leases returned");
    }

    #[test]
    fn a_burst_costs_one_read_and_eof_after_a_short_read_surfaces_on_the_next_event() {
        let pool = BufPool::new(&Registry::new());
        let payloads: Vec<&[u8]> = vec![b"one", b"two", b"three", b"four"];
        let stream = wire(&payloads);
        // The whole burst and the close land before the first event.
        let (frames, reads, passes) = play(&stream, stream.len(), true, &pool);
        assert_eq!(frames.len(), 4);
        assert_eq!(passes, 2, "the close is its own readable event");
        assert_eq!(reads, 2, "one read for four frames, one for the EOF");
        // Without the query every event ends on a probing read.
        let (_, reads, passes) = play(&stream, stream.len(), false, &pool);
        assert_eq!((reads, passes), (2, 1), "the probe finds the EOF at once");
    }

    #[test]
    fn a_frame_past_the_read_ahead_lands_in_its_own_lease() {
        let pool = BufPool::new(&Registry::new());
        let big = vec![9u8; 5 * READ_AHEAD];
        let stream = wire(&[&big]);
        let mut r = EventReader {
            data: stream.clone(),
            at: 0,
            readable: READ_AHEAD,
            closed: false,
            reads: 0,
        };
        let mut decoder = FrameDecoder::new();
        assert!(matches!(
            decoder.next(&mut r, &pool).unwrap(),
            Decoded::Pending
        ));
        assert_eq!(
            pool.outstanding(),
            1,
            "the read-ahead went back; the frame's lease stays"
        );
        r.readable = stream.len();
        let Decoded::Frame(frame) = decoder.next(&mut r, &pool).unwrap() else {
            panic!("the frame is complete");
        };
        assert_eq!(&*frame, &big[..]);
        assert_eq!(
            r.reads, 3,
            "read-ahead, the probe, then the rest in one read"
        );
        assert!(decoder.at_boundary());
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
