//! The crash flight recorder: a fixed-size ring of recent structured
//! events, dumped to disk when a node fail-stops or is crash-injected.
//!
//! Fault-injection failures are miserable to debug from a bare WAL: the log
//! says *what* was durable, not what the node was doing in its last
//! milliseconds. The recorder keeps the last N events (writes, WAL appends,
//! received frames, seals, snapshots, peer lifecycle) in memory at
//! essentially zero cost — it is owned by the core thread, so recording is
//! an unsynchronized ring push — and renders them as one readable line per
//! event on the way down.
//!
//! Events carry a static event code plus up to [`MAX_FIELDS`] `(key,
//! value)` integer fields, stored inline: there is deliberately no
//! formatting, string or heap allocation on the record path.

use std::collections::VecDeque;
use std::io::{self, Write};
use std::ops::Deref;
use std::path::Path;

/// Most `(key, value)` fields one event carries; extra fields are dropped.
pub const MAX_FIELDS: usize = 3;

/// An event's named integer fields, inline; reads as a slice.
#[derive(Debug, Clone, Copy)]
pub struct Fields {
    buf: [(&'static str, u64); MAX_FIELDS],
    len: u8,
}

impl Fields {
    fn new(fields: &[(&'static str, u64)]) -> Self {
        let len = fields.len().min(MAX_FIELDS);
        let mut buf = [("", 0); MAX_FIELDS];
        buf[..len].copy_from_slice(&fields[..len]);
        Fields {
            buf,
            len: len as u8,
        }
    }
}

impl Deref for Fields {
    type Target = [(&'static str, u64)];

    fn deref(&self) -> &Self::Target {
        &self.buf[..usize::from(self.len)]
    }
}

/// One recorded event: a micros timestamp, a static code, and
/// up to [`MAX_FIELDS`] integer fields.
#[derive(Debug, Clone)]
pub struct FlightEvent {
    /// Microseconds since `UNIX_EPOCH` when the event was recorded.
    pub at_us: u64,
    /// Static event code (e.g. `"wal_append"`).
    pub what: &'static str,
    /// Named integer payload fields.
    pub fields: Fields,
}

/// Bounded ring of [`FlightEvent`]s. `cap = 0` disables recording.
#[derive(Debug)]
pub struct FlightRecorder {
    cap: usize,
    ring: VecDeque<FlightEvent>,
    dropped: u64,
}

impl FlightRecorder {
    /// A recorder keeping the most recent `cap` events.
    pub fn new(cap: usize) -> Self {
        FlightRecorder {
            cap,
            ring: VecDeque::with_capacity(cap.min(4096)),
            dropped: 0,
        }
    }

    /// Records an event, evicting the oldest if the ring is full. The
    /// timestamp comes from the caller's clock `at_us` (the recorder's
    /// owner may be a sans-I/O state machine running on injected time),
    /// read only when the recorder is enabled. Fields past
    /// [`MAX_FIELDS`] are dropped.
    pub fn record(
        &mut self,
        at_us: impl FnOnce() -> u64,
        what: &'static str,
        fields: &[(&'static str, u64)],
    ) {
        if self.cap == 0 {
            return;
        }
        if self.ring.len() == self.cap {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back(FlightEvent {
            at_us: at_us(),
            what,
            fields: Fields::new(fields),
        });
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &FlightEvent> {
        self.ring.iter()
    }

    /// Renders the dump format: a header line, then one line per event —
    /// `@<micros-since-epoch> <code> key=value ...`, oldest first.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "flight recorder: {} events retained, {} older events dropped",
            self.ring.len(),
            self.dropped
        );
        for ev in &self.ring {
            let _ = write!(out, "@{} {}", ev.at_us, ev.what);
            for (k, v) in ev.fields.iter() {
                let _ = write!(out, " {k}={v}");
            }
            let _ = writeln!(out);
        }
        out
    }

    /// Writes the rendered dump to `path`, replacing any previous dump.
    pub fn dump_to(&self, path: &Path) -> io::Result<()> {
        let mut f = std::fs::File::create(path)?;
        f.write_all(self.render().as_bytes())?;
        f.sync_all()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_keeps_only_the_newest() {
        let mut fr = FlightRecorder::new(3);
        for i in 0..5u64 {
            fr.record(crate::wall_us, "tick", &[("i", i)]);
        }
        let kept: Vec<u64> = fr.events().map(|e| e.fields[0].1).collect();
        assert_eq!(kept, vec![2, 3, 4]);
        let text = fr.render();
        assert!(text.starts_with("flight recorder: 3 events retained, 2 older"));
        assert!(text.contains(" tick i=4\n"));
    }

    #[test]
    fn zero_capacity_disables_recording() {
        let mut fr = FlightRecorder::new(0);
        fr.record(crate::wall_us, "tick", &[]);
        assert_eq!(fr.events().count(), 0);
    }

    #[test]
    fn dump_writes_the_rendered_text() {
        let mut fr = FlightRecorder::new(8);
        fr.record(|| 42, "crash", &[("node", 2)]);
        let path =
            std::env::temp_dir().join(format!("prcc-flight-test-{}.log", std::process::id()));
        fr.dump_to(&path).expect("dump");
        let text = std::fs::read_to_string(&path).expect("read back");
        assert!(text.contains("@42 crash node=2"));
        std::fs::remove_file(&path).ok();
    }
}
