//! Run reports of the discrete-event simulator: [`RunReport`] and the
//! [`VerdictSummary`] of oracle outcomes it embeds.

use prcc_checker::Verdict;
use prcc_core::ClusterStats;
use serde::{Deserialize, Serialize};

/// Outcome of an oracle check, reduced to what reports track.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct VerdictSummary {
    /// Whether the run was causally consistent.
    pub consistent: bool,
    /// Number of safety violations observed.
    pub safety_violations: usize,
    /// Number of liveness violations at quiescence.
    pub liveness_violations: usize,
}

impl VerdictSummary {
    /// Reduces a full oracle verdict to its counts.
    pub fn from_verdict(v: &Verdict) -> Self {
        VerdictSummary {
            consistent: v.is_consistent(),
            safety_violations: v.safety.len(),
            liveness_violations: v.liveness.len(),
        }
    }
}

/// Everything an experiment table needs from one run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunReport {
    /// Protocol name.
    pub protocol: String,
    /// Workload seed.
    pub seed: u64,
    /// The oracle outcome.
    pub verdict: VerdictSummary,
    /// Cluster statistics (traffic, latency, metadata).
    pub stats: ClusterStats,
    /// Virtual duration of the run in ticks.
    pub duration_ticks: u64,
}

impl RunReport {
    /// Updates applied per 1000 virtual ticks — the simulator's throughput
    /// proxy.
    pub fn throughput(&self) -> f64 {
        if self.duration_ticks == 0 {
            0.0
        } else {
            self.stats.applies as f64 * 1000.0 / self.duration_ticks as f64
        }
    }

    /// Whether the run was causally consistent.
    pub fn consistent(&self) -> bool {
        self.verdict.consistent
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_math() {
        let r = RunReport {
            protocol: "x".into(),
            seed: 0,
            verdict: VerdictSummary {
                consistent: true,
                ..VerdictSummary::default()
            },
            stats: ClusterStats {
                applies: 50,
                ..Default::default()
            },
            duration_ticks: 1000,
        };
        assert_eq!(r.throughput(), 50.0);
        assert!(r.consistent());
        let zero = RunReport {
            duration_ticks: 0,
            ..r
        };
        assert_eq!(zero.throughput(), 0.0);
    }

    #[test]
    fn verdict_summary_reduces_counts() {
        let v = Verdict::default();
        let s = VerdictSummary::from_verdict(&v);
        assert!(s.consistent);
        assert_eq!((s.safety_violations, s.liveness_violations), (0, 0));
    }
}
