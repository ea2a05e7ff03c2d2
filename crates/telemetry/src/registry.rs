//! The per-node metric registry and its mergeable, wire-encodable snapshot.
//!
//! A [`Registry`] hands out cheap clonable handles — [`Counter`], [`Gauge`],
//! and [`SharedHistogram`] — registered under stable string names. The hot
//! path never touches the registry lock: counters and gauges are a single
//! relaxed atomic op on a pre-fetched handle, and histogram records take one
//! uncontended shard mutex (each thread hashes to its own shard, so the
//! core thread, the peer senders, and the client handlers never collide).
//!
//! [`Registry::snapshot`] freezes everything into a [`MetricsSnapshot`]:
//! plain sorted name/value vectors plus full histograms. Snapshots merge
//! across nodes (sums for counters and gauges, exact bucket-wise merge for
//! histograms — that is what makes cluster-wide p99s honest rather than
//! averages-of-percentiles) and round-trip through the wire codec used by
//! the v6 `Metrics` frame.

use crate::hist::{HistSummary, Histogram};
use parking_lot::Mutex;
use prcc_clock::encoding::{read_varint_at, write_varint};
use std::collections::BTreeMap;
use std::io;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Monotonically increasing event count. Clone = another handle to the same
/// underlying atomic.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds `n` events.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one event.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A point-in-time level (queue depth, window occupancy). Unlike counters,
/// gauges are *set*, typically by mirroring authoritative state right before
/// a snapshot is taken.
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Overwrites the level.
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Raises the level to `v` if `v` is higher — the high-water-mark
    /// update, usable concurrently from many threads (a plain
    /// read-compare-`set` would race and lose peaks).
    #[inline]
    pub fn set_max(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Current level.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// How many independently locked shards back each [`SharedHistogram`].
/// Threads spread across shards by a per-thread index, so with a handful of
/// recorder threads per node the lock is effectively uncontended.
const HIST_SHARDS: usize = 8;

static NEXT_THREAD_SHARD: AtomicUsize = AtomicUsize::new(0);
thread_local! {
    static THREAD_SHARD: usize = NEXT_THREAD_SHARD.fetch_add(1, Ordering::Relaxed);
}

/// A histogram recordable from many threads. Records go to the calling
/// thread's shard; [`SharedHistogram::read`] merges the shards.
#[derive(Debug)]
pub struct SharedHistogram {
    shards: Vec<Mutex<Histogram>>,
}

impl Default for SharedHistogram {
    fn default() -> Self {
        SharedHistogram {
            shards: (0..HIST_SHARDS)
                .map(|_| Mutex::named(Histogram::new(), "telemetry.hist_shard"))
                .collect(),
        }
    }
}

impl SharedHistogram {
    /// Records one sample into the calling thread's shard.
    #[inline]
    pub fn record(&self, v: u64) {
        let shard = THREAD_SHARD.with(|s| *s) % self.shards.len();
        self.shards[shard].lock().record(v);
    }

    /// Merges all shards into one [`Histogram`].
    pub fn read(&self) -> Histogram {
        let mut out = Histogram::new();
        for shard in &self.shards {
            out.merge(&shard.lock());
        }
        out
    }
}

#[derive(Default)]
struct Inner {
    counters: BTreeMap<String, Counter>,
    gauges: BTreeMap<String, Gauge>,
    hists: BTreeMap<String, Arc<SharedHistogram>>,
}

/// A node's metric namespace. Registration (name lookup) takes a mutex and
/// is meant for startup; the returned handles are what the hot path keeps.
pub struct Registry {
    inner: Mutex<Inner>,
}

impl Default for Registry {
    fn default() -> Self {
        Registry {
            inner: Mutex::named(Inner::default(), "telemetry.registry"),
        }
    }
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Returns the counter registered under `name`, creating it on first
    /// use. Handles are cheap to clone and lock-free to update.
    pub fn counter(&self, name: &str) -> Counter {
        let mut inner = self.inner.lock();
        inner.counters.entry(name.to_string()).or_default().clone()
    }

    /// Returns the gauge registered under `name`, creating it on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut inner = self.inner.lock();
        inner.gauges.entry(name.to_string()).or_default().clone()
    }

    /// Returns the histogram registered under `name`, creating it on first
    /// use.
    pub fn histogram(&self, name: &str) -> Arc<SharedHistogram> {
        let mut inner = self.inner.lock();
        inner.hists.entry(name.to_string()).or_default().clone()
    }

    /// Freezes every metric into a plain, mergeable, encodable snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.inner.lock();
        MetricsSnapshot {
            counters: inner
                .counters
                .iter()
                .map(|(n, c)| (n.clone(), c.get()))
                .collect(),
            gauges: inner
                .gauges
                .iter()
                .map(|(n, g)| (n.clone(), g.get()))
                .collect(),
            hists: inner
                .hists
                .iter()
                .map(|(n, h)| (n.clone(), h.read()))
                .collect(),
        }
    }
}

/// A point-in-time copy of a registry: sorted `(name, value)` vectors plus
/// full histograms. This is the payload of the wire-v6 `Metrics` response
/// and the unit of cross-node aggregation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Monotonic counters, ascending by name.
    pub counters: Vec<(String, u64)>,
    /// Gauges, ascending by name.
    pub gauges: Vec<(String, u64)>,
    /// Histograms, ascending by name.
    pub hists: Vec<(String, Histogram)>,
}

/// Merges two ascending-by-name vectors with `fold` combining same-name
/// values.
fn merge_sorted<T: Clone>(
    mine: &mut Vec<(String, T)>,
    theirs: &[(String, T)],
    fold: impl Fn(&mut T, &T),
) {
    let mut out: Vec<(String, T)> = Vec::with_capacity(mine.len() + theirs.len());
    let (mut i, mut j) = (0, 0);
    while i < mine.len() || j < theirs.len() {
        let pick_mine = j >= theirs.len() || (i < mine.len() && mine[i].0 <= theirs[j].0);
        if pick_mine {
            let mut entry = mine[i].clone();
            if j < theirs.len() && theirs[j].0 == entry.0 {
                fold(&mut entry.1, &theirs[j].1);
                j += 1;
            }
            out.push(entry);
            i += 1;
        } else {
            out.push(theirs[j].clone());
            j += 1;
        }
    }
    *mine = out;
}

impl MetricsSnapshot {
    /// Folds `other` into `self`: counters and gauges sum, histograms merge
    /// bucket-wise. Metrics present on only one side pass through. Most
    /// gauges are cluster-additive levels (queue depths, pending updates,
    /// byte totals) and their sum means what it says. Three do not: a
    /// service node's `node` (its index), `core_max_window` and
    /// `reactor_outq_hiwat` (per-node high-water marks) sum to nothing
    /// meaningful — read them from the per-node snapshots.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        merge_sorted(&mut self.counters, &other.counters, |a, b| *a += *b);
        merge_sorted(&mut self.gauges, &other.gauges, |a, b| *a += *b);
        merge_sorted(&mut self.hists, &other.hists, |a: &mut Histogram, b| {
            a.merge(b)
        });
    }

    /// Value of the counter named `name`, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        lookup(&self.counters, name).copied()
    }

    /// Value of the gauge named `name`, if present.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        lookup(&self.gauges, name).copied()
    }

    /// The histogram named `name`, if present.
    pub fn hist(&self, name: &str) -> Option<&Histogram> {
        lookup(&self.hists, name)
    }

    /// Summary of the histogram named `name`, if present.
    pub fn hist_summary(&self, name: &str) -> Option<HistSummary> {
        self.hist(name).map(Histogram::summary)
    }

    /// Appends the wire encoding: three sections, each a varint length
    /// followed by (name, payload) entries. Strings are varint-length-
    /// prefixed UTF-8.
    pub fn encode(&self, out: &mut Vec<u8>) {
        write_varint(out, self.counters.len() as u64);
        for (name, v) in &self.counters {
            encode_str(out, name);
            write_varint(out, *v);
        }
        write_varint(out, self.gauges.len() as u64);
        for (name, v) in &self.gauges {
            encode_str(out, name);
            write_varint(out, *v);
        }
        write_varint(out, self.hists.len() as u64);
        for (name, h) in &self.hists {
            encode_str(out, name);
            h.encode(out);
        }
    }

    /// Decodes a snapshot produced by [`MetricsSnapshot::encode`],
    /// advancing `at`.
    pub fn decode(buf: &[u8], at: &mut usize) -> io::Result<Self> {
        let mut snap = MetricsSnapshot::default();
        let n = read_varint_at(buf, at)?;
        for _ in 0..n {
            let name = decode_str(buf, at)?;
            let v = read_varint_at(buf, at)?;
            snap.counters.push((name, v));
        }
        let n = read_varint_at(buf, at)?;
        for _ in 0..n {
            let name = decode_str(buf, at)?;
            let v = read_varint_at(buf, at)?;
            snap.gauges.push((name, v));
        }
        let n = read_varint_at(buf, at)?;
        for _ in 0..n {
            let name = decode_str(buf, at)?;
            let h = Histogram::decode(buf, at)?;
            snap.hists.push((name, h));
        }
        Ok(snap)
    }

    /// Renders the human-readable text exposition: one line per metric,
    /// histograms as their percentile summaries. Stable ordering (sorted by
    /// name within each section) so diffs between scrapes are meaningful.
    pub fn render_text(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for (name, v) in &self.counters {
            let _ = writeln!(out, "counter {name} {v}");
        }
        for (name, v) in &self.gauges {
            let _ = writeln!(out, "gauge {name} {v}");
        }
        for (name, h) in &self.hists {
            let s = h.summary();
            let _ = writeln!(
                out,
                "hist {name} count={} mean={:.1} p50={} p90={} p99={} p999={} max={}",
                s.count, s.mean_us, s.p50_us, s.p90_us, s.p99_us, s.p999_us, s.max_us
            );
        }
        out
    }
}

fn lookup<'a, T>(entries: &'a [(String, T)], name: &str) -> Option<&'a T> {
    entries.iter().find(|(n, _)| n == name).map(|(_, v)| v)
}

fn encode_str(out: &mut Vec<u8>, s: &str) {
    write_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

fn decode_str(buf: &[u8], at: &mut usize) -> io::Result<String> {
    let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
    let len = read_varint_at(buf, at)? as usize;
    if len > 4096 {
        return Err(bad("metric name longer than 4096 bytes"));
    }
    let end = at
        .checked_add(len)
        .filter(|&e| e <= buf.len())
        .ok_or_else(|| bad("metric name runs past the buffer"))?;
    let s = std::str::from_utf8(&buf[*at..end])
        .map_err(|_| bad("metric name is not UTF-8"))?
        .to_string();
    *at = end;
    Ok(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_are_shared_and_snapshot_sees_them() {
        let r = Registry::new();
        let c = r.counter("ops");
        let c2 = r.counter("ops");
        c.add(3);
        c2.inc();
        r.gauge("depth").set(9);
        r.histogram("lat_us").record(120);
        r.histogram("lat_us").record(8_000);

        let snap = r.snapshot();
        assert_eq!(snap.counter("ops"), Some(4));
        assert_eq!(snap.gauge("depth"), Some(9));
        let h = snap.hist("lat_us").expect("hist registered");
        assert_eq!(h.count(), 2);
        assert_eq!(h.max(), 8_000);
        assert_eq!(snap.counter("missing"), None);
    }

    #[test]
    fn shared_histogram_merges_across_threads() {
        let r = Registry::new();
        let h = r.histogram("x");
        let mut joins = Vec::new();
        for t in 0..4 {
            let h = Arc::clone(&h);
            joins.push(std::thread::spawn(move || {
                for i in 0..100u64 {
                    h.record(t * 1000 + i);
                }
            }));
        }
        for j in joins {
            j.join().expect("recorder thread");
        }
        assert_eq!(h.read().count(), 400);
    }

    #[test]
    fn merge_sums_and_unions() {
        let mut a = MetricsSnapshot {
            counters: vec![("a".into(), 1), ("c".into(), 10)],
            gauges: vec![("g".into(), 5)],
            hists: vec![("h".into(), {
                let mut h = Histogram::new();
                h.record(100);
                h
            })],
        };
        let b = MetricsSnapshot {
            counters: vec![("b".into(), 7), ("c".into(), 1)],
            gauges: vec![("g".into(), 2)],
            hists: vec![
                ("h".into(), {
                    let mut h = Histogram::new();
                    h.record(300);
                    h
                }),
                ("other".into(), Histogram::new()),
            ],
        };
        a.merge(&b);
        assert_eq!(
            a.counters,
            vec![("a".into(), 1), ("b".into(), 7), ("c".into(), 11)]
        );
        assert_eq!(a.gauges, vec![("g".into(), 7)]);
        assert_eq!(a.hists.len(), 2);
        assert_eq!(a.hist("h").expect("merged").count(), 2);
        assert_eq!(a.hist("h").expect("merged").max(), 300);
        // Names stay sorted after a union merge.
        let names: Vec<&str> = a.hists.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["h", "other"]);
    }

    #[test]
    fn snapshot_wire_round_trip() {
        let r = Registry::new();
        r.counter("net_bytes_out").add(12345);
        r.gauge("pending").set(3);
        let h = r.histogram("visibility_us");
        for v in [10u64, 20, 30_000] {
            h.record(v);
        }
        let snap = r.snapshot();
        let mut buf = Vec::new();
        snap.encode(&mut buf);
        let mut at = 0;
        let back = MetricsSnapshot::decode(&buf, &mut at).expect("decode");
        assert_eq!(at, buf.len());
        assert_eq!(back, snap);

        // Every truncation errors instead of panicking or half-parsing.
        for cut in 0..buf.len() {
            let mut at = 0;
            assert!(MetricsSnapshot::decode(&buf[..cut], &mut at).is_err());
        }
    }

    #[test]
    fn render_text_lists_every_metric() {
        let r = Registry::new();
        r.counter("ops").add(2);
        r.gauge("depth").set(1);
        r.histogram("lat_us").record(50);
        let text = r.snapshot().render_text();
        assert!(text.contains("counter ops 2"));
        assert!(text.contains("gauge depth 1"));
        assert!(text.contains("hist lat_us count=1"));
        assert!(text.contains("p999="));
    }
}
