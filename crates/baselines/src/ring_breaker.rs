//! Breaking the ring with virtual registers (Appendix D, Figure 13).
//!
//! The ring share graph forces every replica to track all `2n` edges. If
//! direct communication between replicas `0` and `n−1` is disallowed, their
//! shared register `x` can still be maintained by *relaying*: an update to
//! `x` is piggybacked on a chain of updates to the virtual registers along
//! the path `0 → 1 → … → n−1`. The share graph seen by the metadata layer
//! becomes a line, whose timestamp graphs contain only incident edges
//! (`2 N_i ≤ 4` counters instead of `2n`).
//!
//! The price — measured by experiment E12 — is `n−1` messages and `n−1`
//! network hops per `x`-update instead of one.
//!
//! Implementation notes: the logical register `x` is represented by two
//! private registers (`x₀` at replica `0`, `x₁` at replica `n−1`); relayed
//! hops are ordinary protocol updates on the line's edge registers carrying
//! the `x` value as payload, so all causal-ordering guarantees come from the
//! unmodified protocol. Causal order between an `x`-update and subsequent
//! updates issued at the origin is preserved because the relay hop is issued
//! at the origin like any other update.

use prcc_checker::{UpdateId, Verdict};
use prcc_clock::{EdgeProtocol, Protocol as _};
use prcc_core::{Cluster, ClusterStats, CoreError};
use prcc_graph::{RegisterId, ReplicaId, ShareGraph};
use prcc_net::{DeliveryPolicy, VirtualTime};
use std::collections::HashMap;

/// Statistics specific to the relayed `x` register.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RingBreakerStats {
    /// Logical `x` updates issued at replica 0.
    pub x_updates: u64,
    /// Relay hop messages issued on their behalf (excluding the origin
    /// write).
    pub relay_hops: u64,
    /// Sum of end-to-end `x` latencies (origin write → applied at far end).
    pub total_x_latency: u64,
    /// Completed end-to-end deliveries.
    pub x_delivered: u64,
}

impl RingBreakerStats {
    /// Mean end-to-end latency of `x` updates in ticks.
    pub fn mean_x_latency(&self) -> f64 {
        if self.x_delivered == 0 {
            0.0
        } else {
            self.total_x_latency as f64 / self.x_delivered as f64
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct RelayState {
    payload: u64,
    origin_time: VirtualTime,
}

/// A ring of `n` replicas with the `0 ↔ n−1` link replaced by hop-by-hop
/// relaying over virtual registers.
pub struct RingBreaker {
    n: usize,
    cluster: Cluster<EdgeProtocol>,
    /// Hop update → relay continuation.
    relay: HashMap<UpdateId, RelayState>,
    x0: RegisterId,
    x1: RegisterId,
    stats: RingBreakerStats,
}

impl RingBreaker {
    /// Builds the broken ring.
    ///
    /// Registers `0..n−1` are the line's edge registers (register `p` shared
    /// by replicas `p` and `p+1`); `x₀ = n−1` and `x₁ = n` are the private
    /// halves of the logical `x`.
    ///
    /// # Panics
    ///
    /// Panics if `n < 3`.
    pub fn new(n: usize, policy: Box<dyn DeliveryPolicy>) -> Self {
        assert!(n >= 3, "a ring needs at least 3 replicas");
        let mut assignments: Vec<Vec<RegisterId>> = vec![Vec::new(); n];
        for p in 0..n - 1 {
            assignments[p].push(RegisterId(p as u32));
            assignments[p + 1].push(RegisterId(p as u32));
        }
        let x0 = RegisterId((n - 1) as u32);
        let x1 = RegisterId(n as u32);
        assignments[0].push(x0);
        assignments[n - 1].push(x1);
        let g = ShareGraph::from_assignments(assignments).expect("non-empty");
        let cluster = Cluster::new(EdgeProtocol::new(g), policy);
        RingBreaker {
            n,
            cluster,
            relay: HashMap::new(),
            x0,
            x1,
            stats: RingBreakerStats::default(),
        }
    }

    /// The line share graph the metadata layer sees.
    pub fn share_graph(&self) -> &ShareGraph {
        self.cluster.protocol().share_graph()
    }

    /// Writes the logical register `x` at replica 0 and starts the relay.
    ///
    /// # Errors
    ///
    /// Propagates any cluster write error (none expected for valid state).
    pub fn write_x(&mut self, v: u64) -> Result<(), CoreError> {
        let origin_time = self.cluster.net().now();
        self.cluster.write(ReplicaId(0), self.x0, v)?;
        self.stats.x_updates += 1;
        // First hop: 0 → 1 on the edge register 0.
        let hop = self.cluster.write(ReplicaId(0), RegisterId(0), v)?;
        self.stats.relay_hops += 1;
        self.relay.insert(
            hop,
            RelayState {
                payload: v,
                origin_time,
            },
        );
        Ok(())
    }

    /// Ordinary (non-relayed) traffic: replica `p` writes its edge register
    /// `p`.
    ///
    /// # Errors
    ///
    /// [`CoreError::NotStored`]-style errors for invalid indices.
    pub fn write_local(&mut self, p: ReplicaId, v: u64) -> Result<UpdateId, CoreError> {
        let reg = RegisterId(p.index() as u32);
        self.cluster.write(p, reg, v)
    }

    /// Pumps the network until quiescent, performing relay continuations as
    /// hop updates get applied.
    pub fn run_to_quiescence(&mut self) {
        while let Some((dst, applied)) = self.cluster.step_detailed() {
            for u in applied {
                let Some(state) = self.relay.remove(&u.id) else {
                    continue;
                };
                let p = dst.index();
                if p == self.n - 1 {
                    // Final hop: materialize x at the far end.
                    self.cluster
                        .write(dst, self.x1, state.payload)
                        .expect("far end stores x1");
                    let now = self.cluster.net().now();
                    self.stats.x_delivered += 1;
                    self.stats.total_x_latency += now.since(state.origin_time);
                } else {
                    // Forward: p writes edge register p (shared with p+1).
                    let hop = self
                        .cluster
                        .write(dst, RegisterId(p as u32), state.payload)
                        .expect("interior replica stores its edge register");
                    self.stats.relay_hops += 1;
                    self.relay.insert(hop, state);
                }
            }
        }
    }

    /// Reads the logical `x` at the far end.
    pub fn read_x_far(&self) -> Option<u64> {
        self.cluster.replica(ReplicaId(self.n - 1)).peek(self.x1)
    }

    /// Reads the logical `x` at the origin.
    pub fn read_x_origin(&self) -> Option<u64> {
        self.cluster.replica(ReplicaId(0)).peek(self.x0)
    }

    /// Per-replica timestamp entry counts (the headline metadata saving).
    pub fn timestamp_entries(&self) -> Vec<usize> {
        use prcc_clock::{ClockState, Protocol};
        (0..self.n)
            .map(|p| self.cluster.protocol().new_clock(ReplicaId(p)).entries())
            .collect()
    }

    /// Relay statistics.
    pub fn stats(&self) -> &RingBreakerStats {
        &self.stats
    }

    /// Underlying cluster statistics.
    pub fn cluster_stats(&self) -> ClusterStats {
        self.cluster.stats()
    }

    /// Causal-consistency verdict of the underlying cluster.
    pub fn verdict(&self) -> Verdict {
        self.cluster.verdict()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prcc_graph::topologies;
    use prcc_net::{FixedDelay, UniformDelay};

    #[test]
    fn metadata_graph_is_a_line() {
        let rb = RingBreaker::new(6, Box::new(FixedDelay(1)));
        assert!(rb.share_graph().is_forest());
        // Entries: ends track 2 edges, interiors 4 — vs 12 on the ring.
        let entries = rb.timestamp_entries();
        assert_eq!(entries[0], 2);
        assert_eq!(entries[3], 4);
        let ring_entries = prcc_graph::TimestampGraph::compute_all(&topologies::ring(6))
            .iter()
            .map(|t| t.len())
            .collect::<Vec<_>>();
        assert!(entries.iter().all(|&e| e < ring_entries[0]));
    }

    #[test]
    fn x_update_relays_end_to_end() {
        let mut rb = RingBreaker::new(5, Box::new(FixedDelay(10)));
        rb.write_x(42).unwrap();
        rb.run_to_quiescence();
        assert_eq!(rb.read_x_far(), Some(42));
        assert_eq!(rb.read_x_origin(), Some(42));
        let s = rb.stats();
        assert_eq!(s.x_updates, 1);
        assert_eq!(s.relay_hops, 4, "n−1 hops");
        assert_eq!(s.x_delivered, 1);
        // 4 hops × 10 ticks each.
        assert_eq!(s.mean_x_latency(), 40.0);
        assert!(rb.verdict().is_consistent());
    }

    #[test]
    fn multiple_x_updates_arrive_in_order() {
        let mut rb = RingBreaker::new(4, Box::new(UniformDelay::new(17, 1, 30)));
        for v in 1..=5 {
            rb.write_x(v).unwrap();
        }
        rb.run_to_quiescence();
        assert_eq!(rb.read_x_far(), Some(5), "last write wins in causal order");
        assert_eq!(rb.stats().x_delivered, 5);
        assert!(rb.verdict().is_consistent());
    }

    #[test]
    fn mixed_traffic_stays_consistent() {
        let mut rb = RingBreaker::new(5, Box::new(UniformDelay::new(23, 1, 40)));
        for round in 0..10u64 {
            rb.write_x(round).unwrap();
            rb.write_local(ReplicaId((round % 4) as usize), round)
                .unwrap();
        }
        rb.run_to_quiescence();
        assert!(rb.verdict().is_consistent());
        assert_eq!(rb.stats().x_delivered, 10);
    }
}
