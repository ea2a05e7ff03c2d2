//! Harness spans: recorded from the benchmark's own files around the
//! calls into each layer (spans inside the program are a later change),
//! kept in memory, written out once when the traced run ends.

use std::fmt::Write as _;
use std::io::{self, Write as _};
use std::path::Path;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// One span. Times are nanoseconds since the Unix epoch so spans recorded
/// by the parent process and by the repetition's child line up.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique within one trace file.
    pub id: u64,
    /// The span that caused this one (0 = root).
    pub parent: u64,
    /// `phase.*`, `op.write`, `op.read`, or `probe.<metric>`.
    pub name: String,
    /// Client-op spans: index of the op in its connection's sequence.
    pub op: u64,
    /// Client-op spans: the node the connection talks to.
    pub node: u64,
    /// Start. The loop is closed, so an op is due when it starts.
    pub start_ns: u64,
    /// End.
    pub end_ns: u64,
}

impl Span {
    /// One plan-file line (names carry no spaces).
    pub fn encode(&self) -> String {
        format!(
            "{} {} {} {} {} {} {}",
            self.id, self.parent, self.name, self.op, self.node, self.start_ns, self.end_ns
        )
    }

    /// Inverse of [`Span::encode`].
    pub fn decode(line: &str) -> Option<Span> {
        let fields: Vec<&str> = line.split(' ').collect();
        let num = |i: usize| fields.get(i)?.parse::<u64>().ok();
        Some(Span {
            id: num(0)?,
            parent: num(1)?,
            name: (*fields.get(2)?).to_string(),
            op: num(3)?,
            node: num(4)?,
            start_ns: num(5)?,
            end_ns: num(6)?,
        })
    }
}

/// An in-memory span recorder. A disabled log records nothing, so the
/// untraced repetitions pay nothing for it.
#[derive(Debug)]
pub struct SpanLog {
    enabled: bool,
    next_id: u64,
    origin: Instant,
    origin_epoch_ns: u64,
    spans: Vec<Span>,
}

impl SpanLog {
    /// A log handing out ids from `first_id` (parent and child processes
    /// use disjoint ranges).
    pub fn new(enabled: bool, first_id: u64) -> SpanLog {
        SpanLog {
            enabled,
            next_id: first_id,
            origin: Instant::now(),
            origin_epoch_ns: SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .map_or(0, |d| d.as_nanos() as u64),
            spans: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Epoch nanoseconds of a monotonic instant.
    pub fn epoch_ns(&self, at: Instant) -> u64 {
        self.origin_epoch_ns + at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Reserves an id (for a parent span recorded after its children).
    pub fn reserve(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id - 1
    }

    /// Records a finished span under a reserved or fresh id.
    pub fn record(
        &mut self,
        id: Option<u64>,
        parent: u64,
        name: &str,
        start: Instant,
        end: Instant,
    ) {
        if self.enabled {
            let id = id.unwrap_or_else(|| self.reserve());
            self.push(Span {
                id,
                parent,
                name: name.to_string(),
                op: 0,
                node: 0,
                start_ns: self.epoch_ns(start),
                end_ns: self.epoch_ns(end),
            });
        }
    }

    /// Appends an already built span.
    pub fn push(&mut self, span: Span) {
        if self.enabled {
            self.spans.push(span);
        }
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the trace file: one JSON document, one span per line.
    ///
    /// # Errors
    ///
    /// I/O errors creating or writing the file.
    pub fn write(&self, path: &Path, workload: &str) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{{\"workload\": \"{workload}\", \"spans\": [")?;
        let mut line = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            line.clear();
            let _ = write!(
                line,
                "{{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"op\": {}, \"node\": {}, \
                 \"due_ns\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.id, s.parent, s.name, s.op, s.node, s.start_ns, s.start_ns, s.end_ns
            );
            if i + 1 < self.spans.len() {
                line.push(',');
            }
            writeln!(out, "{line}")?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn spans_round_trip_and_the_file_is_json() {
        let mut log = SpanLog::new(true, 10);
        let root = log.reserve();
        let t0 = Instant::now();
        log.record(None, root, "phase.launch", t0, Instant::now());
        log.record(Some(root), 0, "rep", t0, Instant::now());
        assert_eq!(log.spans()[0].id, 11);
        assert_eq!(log.spans()[1].id, 10);
        for span in log.spans() {
            assert_eq!(Span::decode(&span.encode()).as_ref(), Some(span));
            assert!(span.end_ns >= span.start_ns && span.start_ns > 1_577_836_800_000_000_000);
        }
        let dir = std::env::temp_dir().join(format!("prcc-perf-trace-{}", std::process::id()));
        let path = dir.join("t.json");
        log.write(&path, "w").unwrap();
        let doc = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(
            doc.get("spans").and_then(Json::as_arr).map(<[Json]>::len),
            Some(2)
        );
        std::fs::remove_dir_all(dir).unwrap();

        let mut off = SpanLog::new(false, 0);
        off.record(None, 0, "x", t0, t0);
        assert!(off.spans().is_empty());
    }
}
