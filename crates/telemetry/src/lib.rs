//! Observability primitives for the PRCC stack: metric registry, latency
//! histograms, lifecycle sampling, and the crash flight recorder.
//!
//! The paper (Xiang & Vaidya, PODC 2019) is a *cost* argument — bounded
//! timestamp metadata against remote-visibility latency — so the
//! implementation has to be able to show where an update spends its life:
//! in the origin's WAL append, on the wire, stalled in a recipient's
//! pending queue behind a causal dependency (the protocol's
//! false-dependency cost), or applied. This crate provides the pieces every
//! layer shares:
//!
//! - [`Registry`] / [`MetricsSnapshot`]: named counters, gauges, and
//!   sharded histograms with a mergeable, wire-encodable snapshot — the
//!   payload of the service's v6 `Metrics` frame.
//! - [`Histogram`] / [`HistSummary`]: fixed-size log-bucketed latency
//!   distributions (p50/p90/p99/p999/max within 12.5% relative error,
//!   exact max) that merge exactly across threads and nodes.
//! - [`Sampler`]: the 1-in-N knob that bounds tracing's hot-path cost to
//!   at most one clock read per lifecycle stage.
//! - [`FlightRecorder`]: a per-node ring of recent structured events,
//!   dumped to the data dir on fail-stop or injected crash.
//! - [`exact_percentile`]: the one shared definition of ceil-based
//!   nearest-rank percentiles, used by client-side summaries and by the
//!   histogram property tests.
//!
//! A deliberate non-goal: nothing in this crate ever feeds back into
//! protocol or durable state. Lifecycle stamps ride the live wire only —
//! WAL records and snapshots never contain wall-clock bytes, which is what
//! keeps seeded recovery runs byte-identical.

#![forbid(unsafe_code)]

mod flight;
mod hist;
mod registry;
mod sampler;

pub use flight::{Fields, FlightEvent, FlightRecorder, MAX_FIELDS};
pub use hist::{exact_percentile, HistSummary, Histogram, NUM_BUCKETS};
pub use registry::{Counter, Gauge, MetricsSnapshot, Registry, SharedHistogram};
pub use sampler::Sampler;

/// Microseconds since `UNIX_EPOCH` — the one wall-clock read the telemetry
/// path uses. Micros (not nanos) keep stamps small on the wire; epoch base
/// (not process start) lets multi-process same-host deployments subtract
/// stamps taken by different nodes.
pub fn wall_us() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_micros() as u64)
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    #[test]
    fn wall_us_is_sane_and_monotonic_enough() {
        let a = super::wall_us();
        let b = super::wall_us();
        // After 2020-01-01 in micros, and not going backwards.
        assert!(a > 1_577_836_800_000_000);
        assert!(b >= a);
    }
}
