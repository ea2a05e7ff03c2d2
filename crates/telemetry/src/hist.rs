//! Log-bucketed latency histograms and exact percentile helpers.
//!
//! [`Histogram`] is the accumulation type behind every per-stage latency
//! metric: fixed memory (496 buckets, ~4 KiB), O(1) record, mergeable across
//! shards and across nodes, and encodable on the wire as a sparse varint
//! list. Buckets are log-linear with 3 mantissa bits — 8 sub-buckets per
//! octave — so any reported percentile is within 12.5% of the true value,
//! and values below 8 are exact. That resolution is deliberate: the
//! quantities measured (microsecond latencies) span six orders of magnitude,
//! and a relative-error bound is the right contract for p99/p999 tails.
//!
//! [`exact_percentile`] is the other half: the ceil-based nearest-rank rule
//! over an exact sorted sample vector. It exists here so the client-side
//! latency summaries (`prcc-workloads`) and the histogram property tests
//! agree on one definition of "percentile" instead of drifting apart.

use prcc_clock::encoding::{read_varint_at, write_varint};
use std::io;

/// Mantissa bits per octave: 2^3 = 8 sub-buckets, relative error <= 1/8.
const MANTISSA_BITS: u32 = 3;
/// Bucket count: values 0..16 map 1:1, then 8 buckets per octave up to
/// `u64::MAX` (exponents 4..=63), for (63 - 2) * 8 = 488 + 8 = 496 total.
pub const NUM_BUCKETS: usize = 496;

/// Maps a value to its bucket index. Total order preserving: if `a <= b`
/// then `index(a) <= index(b)`.
#[inline]
fn bucket_index(v: u64) -> usize {
    if v < 16 {
        v as usize
    } else {
        let e = 63 - v.leading_zeros(); // >= 4
        let sub = (v >> (e - MANTISSA_BITS)) & 7;
        ((e - 2) * 8 + sub as u32) as usize
    }
}

/// Largest value that lands in bucket `idx` — what percentiles report.
#[inline]
fn bucket_upper(idx: usize) -> u64 {
    if idx < 16 {
        idx as u64
    } else {
        let e = (idx / 8) as u32 + 2;
        let sub = (idx % 8) as u64;
        // Bucket covers [(8+sub) << (e-3), ((8+sub+1) << (e-3)) - 1].
        ((8 + sub + 1) << (e - MANTISSA_BITS)).wrapping_sub(1)
    }
}

/// Fixed-size log-linear histogram of `u64` samples (microseconds, by
/// convention). Merge is exact: merging two histograms is indistinguishable
/// from recording both sample streams into one.
#[derive(Clone, PartialEq, Eq)]
pub struct Histogram {
    counts: Box<[u64; NUM_BUCKETS]>,
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count)
            .field("sum", &self.sum)
            .field("max", &self.max)
            .finish_non_exhaustive()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            counts: Box::new([0; NUM_BUCKETS]),
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_index(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        if v > self.max {
            self.max = v;
        }
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest recorded sample, exact (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean sample (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Folds `other` into `self`. Exact: bucket-wise sums plus max-of-max.
    pub fn merge(&mut self, other: &Histogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(other.counts.iter()) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// Ceil-based nearest-rank percentile, reported as the upper bound of
    /// the bucket holding that rank (clamped to the exact tracked max, so
    /// `percentile(1.0) == max()` exactly). Returns 0 when empty.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((self.count as f64 * q).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_upper(idx).min(self.max);
            }
        }
        self.max
    }

    /// Reduces to the fixed percentile set every report uses.
    pub fn summary(&self) -> HistSummary {
        HistSummary {
            count: self.count,
            mean_us: self.mean(),
            p50_us: self.percentile(0.50),
            p90_us: self.percentile(0.90),
            p99_us: self.percentile(0.99),
            p999_us: self.percentile(0.999),
            max_us: self.max,
        }
    }

    /// Appends the sparse wire encoding: count, sum, max, then the number
    /// of occupied buckets followed by (index, count) varint pairs.
    pub fn encode(&self, out: &mut Vec<u8>) {
        write_varint(out, self.count);
        write_varint(out, self.sum);
        write_varint(out, self.max);
        let occupied = self.counts.iter().filter(|&&c| c != 0).count() as u64;
        write_varint(out, occupied);
        for (idx, &c) in self.counts.iter().enumerate() {
            if c != 0 {
                write_varint(out, idx as u64);
                write_varint(out, c);
            }
        }
    }

    /// Decodes a histogram produced by [`Histogram::encode`], advancing
    /// `at`. Rejects out-of-range bucket indices and count mismatches.
    pub fn decode(buf: &[u8], at: &mut usize) -> io::Result<Self> {
        let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
        let mut h = Histogram::new();
        h.count = read_varint_at(buf, at)?;
        h.sum = read_varint_at(buf, at)?;
        h.max = read_varint_at(buf, at)?;
        let occupied = read_varint_at(buf, at)?;
        if occupied > NUM_BUCKETS as u64 {
            return Err(bad("histogram: occupied bucket count out of range"));
        }
        let mut total = 0u64;
        for _ in 0..occupied {
            let idx = read_varint_at(buf, at)?;
            if idx >= NUM_BUCKETS as u64 {
                return Err(bad("histogram: bucket index out of range"));
            }
            let c = read_varint_at(buf, at)?;
            let slot = &mut h.counts[idx as usize];
            if *slot != 0 {
                return Err(bad("histogram: duplicate bucket index"));
            }
            *slot = c;
            total = total
                .checked_add(c)
                .ok_or_else(|| bad("histogram: bucket counts overflow"))?;
        }
        if total != h.count {
            return Err(bad("histogram: bucket counts disagree with total"));
        }
        Ok(h)
    }
}

/// One histogram reduced to the percentile set reports carry. The `_us`
/// suffix reflects the workspace convention that latencies are recorded in
/// microseconds; the math itself is unit-agnostic.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HistSummary {
    /// Number of samples behind the summary.
    pub count: u64,
    /// Mean sample.
    pub mean_us: f64,
    /// Median (bucket upper bound, <= 12.5% relative error).
    pub p50_us: u64,
    /// 90th percentile.
    pub p90_us: u64,
    /// 99th percentile.
    pub p99_us: u64,
    /// 99.9th percentile.
    pub p999_us: u64,
    /// Worst observed sample, exact.
    pub max_us: u64,
}

/// Ceil-based nearest-rank percentile over an ascending-sorted slice:
/// the smallest sample with at least a `q` fraction of the distribution at
/// or below it. Returns 0 on an empty slice. This is the *exact* rule the
/// bucketed [`Histogram::percentile`] approximates; client-side latency
/// summaries use it directly on their raw sample vectors.
pub fn exact_percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (sorted.len() as f64 * q).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotone_and_in_range() {
        let mut last = 0usize;
        let mut v = 0u64;
        // Walk a geometric-ish sweep of the whole u64 range.
        loop {
            let idx = bucket_index(v);
            assert!(idx < NUM_BUCKETS, "v={v} idx={idx}");
            assert!(idx >= last, "v={v} idx={idx} < last={last}");
            assert!(bucket_upper(idx) >= v, "v={v} upper={}", bucket_upper(idx));
            last = idx;
            if v > u64::MAX / 2 {
                break;
            }
            v = if v < 4 { v + 1 } else { v * 2 - v / 3 };
        }
        assert_eq!(bucket_index(u64::MAX), NUM_BUCKETS - 1);
        assert_eq!(bucket_upper(NUM_BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = Histogram::new();
        for v in 0..16 {
            h.record(v);
        }
        for v in 0..16u64 {
            let q = (v + 1) as f64 / 16.0;
            assert_eq!(h.percentile(q), v);
        }
    }

    #[test]
    fn relative_error_is_bounded() {
        for v in [17u64, 100, 999, 12_345, 1 << 33, u64::MAX / 3] {
            let upper = bucket_upper(bucket_index(v));
            assert!(upper >= v);
            // Reported value overshoots by at most 12.5%.
            assert!((upper - v) as f64 <= v as f64 / 8.0, "v={v} upper={upper}");
        }
    }

    #[test]
    fn percentile_of_extremes_is_exact_max() {
        let mut h = Histogram::new();
        h.record(1_000_003);
        assert_eq!(h.percentile(1.0), 1_000_003);
        assert_eq!(h.percentile(0.5), 1_000_003);
        assert_eq!(h.max(), 1_000_003);
    }

    #[test]
    fn merge_equals_recording_both_streams() {
        let (mut a, mut b, mut both) = (Histogram::new(), Histogram::new(), Histogram::new());
        for v in [3u64, 77, 3000, 3000, 812_999] {
            a.record(v);
            both.record(v);
        }
        for v in [0u64, 55_000, 9] {
            b.record(v);
            both.record(v);
        }
        a.merge(&b);
        assert_eq!(a, both);
    }

    #[test]
    fn wire_round_trip_preserves_everything() {
        let mut h = Histogram::new();
        for v in [0u64, 1, 15, 16, 999, 1 << 40, u64::MAX] {
            h.record(v);
        }
        let mut buf = Vec::new();
        h.encode(&mut buf);
        let mut at = 0;
        let back = Histogram::decode(&buf, &mut at).expect("decode");
        assert_eq!(at, buf.len());
        assert_eq!(back, h);
    }

    #[test]
    fn decode_rejects_corruption() {
        let mut h = Histogram::new();
        h.record(42);
        let mut buf = Vec::new();
        h.encode(&mut buf);
        // Truncations at every prefix either error or consume less input.
        for cut in 0..buf.len() {
            let mut at = 0;
            assert!(
                Histogram::decode(&buf[..cut], &mut at).is_err(),
                "cut={cut}"
            );
        }
        // A bucket index beyond the table is refused.
        let mut bogus = Vec::new();
        write_varint(&mut bogus, 1); // count
        write_varint(&mut bogus, 1); // sum
        write_varint(&mut bogus, 1); // max
        write_varint(&mut bogus, 1); // occupied
        write_varint(&mut bogus, NUM_BUCKETS as u64); // out of range
        write_varint(&mut bogus, 1);
        let mut at = 0;
        assert!(Histogram::decode(&bogus, &mut at).is_err());
    }

    #[test]
    fn exact_percentile_matches_latency_summary_rule() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(exact_percentile(&v, 0.50), 50);
        assert_eq!(exact_percentile(&v, 0.99), 99);
        assert_eq!(exact_percentile(&v, 0.999), 100);
        assert_eq!(exact_percentile(&v, 1.0), 100);
        assert_eq!(exact_percentile(&[7], 0.5), 7);
        assert_eq!(exact_percentile(&[], 0.5), 0);
        // A truncating rank would report the median as p99 here.
        assert_eq!(exact_percentile(&[1, 2, 3], 0.50), 2);
        assert_eq!(exact_percentile(&[1, 2, 3], 0.99), 3);
        let odd: Vec<u64> = (1..=101).collect();
        assert_eq!(exact_percentile(&odd, 0.50), 51);
        assert_eq!(exact_percentile(&odd, 0.99), 100);
        assert_eq!(exact_percentile(&odd, 0.999), 101);
    }

    #[test]
    fn empty_histogram_is_all_zeroes() {
        let h = Histogram::new();
        assert_eq!(h.percentile(0.5), 0);
        assert_eq!(h.summary(), HistSummary::default());
        let mut buf = Vec::new();
        h.encode(&mut buf);
        let mut at = 0;
        assert_eq!(Histogram::decode(&buf, &mut at).expect("decode"), h);
    }
}
