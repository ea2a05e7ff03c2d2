//! A peer-to-peer cluster: replicas + simulated network + oracle.

use crate::dedup::SeqWatermark;
use crate::replica::Replica;
use crate::stats::ClusterStats;
use crate::update::Update;
use crate::CoreError;
use prcc_checker::{Oracle, UpdateId, Verdict};
use prcc_clock::{ClockState, Protocol};
use prcc_graph::{RegisterId, ReplicaId};
use prcc_net::{DeliveryPolicy, Network};
use prcc_telemetry::Histogram;

/// A complete peer-to-peer system (Figure 1a): `R` replicas over a
/// simulated asynchronous network, verified online by the oracle.
///
/// # Example
///
/// ```
/// use prcc_core::Cluster;
/// use prcc_clock::EdgeProtocol;
/// use prcc_graph::{topologies, RegisterId, ReplicaId};
/// use prcc_net::UniformDelay;
///
/// let g = topologies::ring(4);
/// let mut cluster = Cluster::new(
///     EdgeProtocol::new(g),
///     Box::new(UniformDelay::new(42, 1, 20)),
/// );
/// cluster.write(ReplicaId(0), RegisterId(0), 7)?;
/// cluster.run_to_quiescence();
/// assert!(cluster.verdict().is_consistent());
/// assert_eq!(cluster.read(ReplicaId(1), RegisterId(0))?, Some(7));
/// # Ok::<(), prcc_core::CoreError>(())
/// ```
pub struct Cluster<P: Protocol> {
    protocol: P,
    replicas: Vec<Replica<P>>,
    net: Network<(u64, Update<P::Clock>)>,
    /// Next per-link delivery sequence, `link_seq[src][dst]` (sequences
    /// start at 1; 0 is the unsequenced sentinel).
    link_seq: Vec<Vec<u64>>,
    /// Per-link receive watermarks, `recv[dst][src]`: exact duplicate
    /// suppression for at-least-once channels in O(reordering window)
    /// memory (replacing the per-replica O(history) id sets).
    recv: Vec<Vec<SeqWatermark>>,
    /// Duplicate deliveries suppressed, per receiving replica.
    dup_dropped: Vec<u64>,
    oracle: Oracle,
    verdict: Verdict,
    stats: ClusterStats,
    /// Distribution of (apply − issue) ticks; replaces the old running-sum
    /// counter so tables can report tails, not just means.
    apply_hist: Histogram,
    /// Distribution of (apply − receive) ticks spent blocked in `pending`.
    stall_hist: Histogram,
}

impl<P: Protocol> Cluster<P> {
    /// Builds a cluster for the protocol's share graph with the given
    /// delivery policy.
    pub fn new(protocol: P, policy: Box<dyn DeliveryPolicy>) -> Self {
        let g = protocol.share_graph();
        let n = g.num_replicas();
        let replicas: Vec<Replica<P>> = g.replicas().map(|i| Replica::new(&protocol, i)).collect();
        let net = Network::new(n, policy);
        let oracle = Oracle::new(g);
        let stats = ClusterStats {
            timestamp_entries: replicas.iter().map(|r| r.clock().entries()).collect(),
            ..Default::default()
        };
        Cluster {
            protocol,
            replicas,
            net,
            link_seq: vec![vec![0; n]; n],
            recv: vec![vec![SeqWatermark::new(); n]; n],
            dup_dropped: vec![0; n],
            oracle,
            verdict: Verdict::default(),
            stats,
            apply_hist: Histogram::new(),
            stall_hist: Histogram::new(),
        }
    }

    /// The protocol in use.
    pub fn protocol(&self) -> &P {
        &self.protocol
    }

    /// Client `write(x, v)` addressed to the peer at replica `i`
    /// (steps 2(i)–(iv) of the prototype).
    ///
    /// # Errors
    ///
    /// [`CoreError::NotStored`] if `x ∉ X_i`,
    /// [`CoreError::UnknownReplica`] for a bad id.
    pub fn write(&mut self, i: ReplicaId, x: RegisterId, v: u64) -> Result<UpdateId, CoreError> {
        if i.index() >= self.replicas.len() {
            return Err(CoreError::UnknownReplica(i));
        }
        let clock = self.replicas[i.index()].write(&self.protocol, x, v)?;
        let id = self.oracle.on_issue(i, x);
        self.stats.updates_issued += 1;
        let update = Update {
            id,
            issuer: i,
            register: x,
            value: v,
            clock,
            issued_at: self.net.now(),
            received_at: self.net.now(),
        };
        for k in self.protocol.recipients(i, x) {
            let carries_value = self.protocol.stores_value(k, x);
            let bytes = update.wire_size(carries_value);
            if !carries_value {
                self.stats.metadata_only_messages += 1;
            }
            self.stats.messages_sent += 1;
            self.stats.bytes_sent += bytes as u64;
            // Each copy carries its per-link delivery sequence: the
            // receiver's watermark dedups on it, so the at-least-once
            // tolerance costs O(reordering window), not O(history).
            self.link_seq[i.index()][k.index()] += 1;
            let seq = self.link_seq[i.index()][k.index()];
            self.net
                .send(i.index(), k.index(), bytes, (seq, update.clone()));
        }
        Ok(id)
    }

    /// Client `read(x)` at replica `i` (step 1).
    ///
    /// # Errors
    ///
    /// [`CoreError::NotStored`] if `x ∉ X_i`.
    pub fn read(&self, i: ReplicaId, x: RegisterId) -> Result<Option<u64>, CoreError> {
        if i.index() >= self.replicas.len() {
            return Err(CoreError::UnknownReplica(i));
        }
        self.replicas[i.index()].read(&self.protocol, x)
    }

    /// Delivers the next in-flight message and drains the receiver's
    /// pending buffer. Returns false when the network is idle.
    pub fn step(&mut self) -> bool {
        self.step_detailed().is_some()
    }

    /// Like [`Cluster::step`] but reports which updates were applied at the
    /// receiving replica (used by relay schemes such as the ring breaker of
    /// Appendix D, which re-issue piggybacked updates on apply).
    pub fn step_detailed(&mut self) -> Option<(ReplicaId, Vec<Update<P::Clock>>)> {
        let delivery = self.net.deliver_next()?;
        let dst = ReplicaId(delivery.dst);
        let now = delivery.time;
        let (seq, update) = delivery.msg;
        if !self.recv[dst.index()][delivery.src].observe(seq) {
            // At-least-once duplicate: suppressed at the link, before the
            // replica (a re-delivered copy could never satisfy predicate
            // `J`'s equality clause and would wedge the pending buffer).
            self.dup_dropped[dst.index()] += 1;
            self.stats.duplicates_dropped += 1;
            return Some((dst, Vec::new()));
        }
        self.replicas[dst.index()].receive(update, now);
        let applied = self.replicas[dst.index()].drain(&self.protocol);
        for u in &applied {
            // Oracle check: the update counts as applied at dst only when
            // the register is really stored; metadata-only deliveries
            // (dummy copies) are merges, not applications.
            if self.protocol.share_graph().stores(dst, u.register) {
                if let Err(v) = self.oracle.on_apply(dst, u.id) {
                    self.verdict.safety.push(v);
                }
            }
            self.stats.applies += 1;
            self.apply_hist.record(now.since(u.issued_at));
            self.stall_hist.record(now.since(u.received_at));
        }
        self.stats.max_pending = self
            .stats
            .max_pending
            .max(self.replicas[dst.index()].max_pending());
        Some((dst, applied))
    }

    /// Runs until no message is scheduled (held-back messages remain held).
    /// Returns the number of deliveries performed.
    pub fn run_to_quiescence(&mut self) -> usize {
        let mut n = 0;
        while self.step() {
            n += 1;
        }
        n
    }

    /// Releases all held links and runs to quiescence.
    pub fn release_and_settle(&mut self) -> usize {
        self.net.release_all();
        self.run_to_quiescence()
    }

    /// The verdict so far: safety violations observed during the run plus a
    /// liveness check against the current state.
    ///
    /// Meaningful at quiescence with no held-back messages; before that,
    /// in-flight updates show up as (transient) liveness gaps.
    pub fn verdict(&self) -> Verdict {
        let mut v = self.verdict.clone();
        v.liveness = self.oracle.check_liveness();
        v
    }

    /// Aggregate statistics; buffered-apply counters are folded in from the
    /// replicas, and the latency totals and percentile summaries from the
    /// apply/stall histograms.
    pub fn stats(&self) -> ClusterStats {
        let mut s = self.stats.clone();
        s.buffered_applies = self.replicas.iter().map(|r| r.buffered_applies()).sum();
        s.total_apply_latency = self.apply_hist.sum();
        s.total_pending_stall = self.stall_hist.sum();
        s.apply_latency = self.apply_hist.summary();
        s.pending_stall = self.stall_hist.summary();
        s
    }

    /// Access to the network, e.g. for hold/release link controls.
    pub fn net_mut(&mut self) -> &mut Network<(u64, Update<P::Clock>)> {
        &mut self.net
    }

    /// Read-only network access (stats, quiescence).
    pub fn net(&self) -> &Network<(u64, Update<P::Clock>)> {
        &self.net
    }

    /// Duplicate deliveries suppressed at replica `i`'s inbound links.
    pub fn dropped_duplicates(&self, i: ReplicaId) -> u64 {
        self.dup_dropped[i.index()]
    }

    /// Read-only replica access.
    pub fn replica(&self, i: ReplicaId) -> &Replica<P> {
        &self.replicas[i.index()]
    }

    /// The verification oracle.
    pub fn oracle(&self) -> &Oracle {
        &self.oracle
    }

    /// Total pending-buffer occupancy across replicas right now.
    pub fn pending_total(&self) -> usize {
        self.replicas.iter().map(|r| r.pending_len()).sum()
    }
}

impl<P: Protocol> std::fmt::Debug for Cluster<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster")
            .field("protocol", &self.protocol.name())
            .field("replicas", &self.replicas.len())
            .field("net", &self.net)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prcc_clock::{CompressedProtocol, EdgeProtocol};
    use prcc_graph::topologies;
    use prcc_net::{FixedDelay, UniformDelay};

    #[test]
    fn single_write_propagates() {
        let g = topologies::line(3);
        let mut c = Cluster::new(EdgeProtocol::new(g), Box::new(FixedDelay(3)));
        c.write(ReplicaId(1), RegisterId(0), 9).unwrap();
        c.write(ReplicaId(1), RegisterId(1), 8).unwrap();
        c.run_to_quiescence();
        assert_eq!(c.read(ReplicaId(0), RegisterId(0)).unwrap(), Some(9));
        assert_eq!(c.read(ReplicaId(2), RegisterId(1)).unwrap(), Some(8));
        assert!(c.verdict().is_consistent());
        let stats = c.stats();
        assert_eq!(stats.updates_issued, 2);
        assert_eq!(stats.messages_sent, 2);
        assert_eq!(stats.applies, 2);
    }

    #[test]
    fn random_workload_on_ring_is_consistent() {
        let g = topologies::ring(5);
        let mut c = Cluster::new(
            EdgeProtocol::new(g.clone()),
            Box::new(UniformDelay::new(11, 1, 50)),
        );
        // Interleave writes and deliveries.
        for round in 0..40u64 {
            let i = ReplicaId((round % 5) as usize);
            let regs: Vec<RegisterId> = g.registers_of(i).iter().collect();
            let x = regs[(round % 2) as usize];
            c.write(i, x, round).unwrap();
            if round % 3 == 0 {
                c.step();
            }
        }
        c.run_to_quiescence();
        let v = c.verdict();
        assert!(v.is_consistent(), "{v}");
        assert_eq!(c.pending_total(), 0, "pending must drain at quiescence");
    }

    #[test]
    fn compressed_protocol_matches_edge_protocol_results() {
        let g = topologies::figure5();
        let mut a = Cluster::new(
            EdgeProtocol::new(g.clone()),
            Box::new(UniformDelay::new(5, 1, 30)),
        );
        let mut b = Cluster::new(
            CompressedProtocol::new(g.clone()),
            Box::new(UniformDelay::new(5, 1, 30)),
        );
        for round in 0..30u64 {
            let i = ReplicaId((round % 4) as usize);
            let regs: Vec<RegisterId> = g.registers_of(i).iter().collect();
            let x = regs[(round as usize) % regs.len()];
            a.write(i, x, round).unwrap();
            b.write(i, x, round).unwrap();
        }
        a.run_to_quiescence();
        b.run_to_quiescence();
        assert!(a.verdict().is_consistent());
        assert!(b.verdict().is_consistent());
        // Same final register values everywhere (same seed → same delivery
        // schedule; both protocols enforce causal order).
        for i in g.replicas() {
            for x in g.registers_of(i).iter() {
                assert_eq!(
                    a.read(i, x).unwrap(),
                    b.read(i, x).unwrap(),
                    "replica {i} register {x}"
                );
            }
        }
    }

    #[test]
    fn held_links_delay_but_do_not_lose_updates() {
        let g = topologies::line(2);
        let mut c = Cluster::new(EdgeProtocol::new(g), Box::new(FixedDelay(1)));
        c.net_mut().hold_link(0, 1);
        c.write(ReplicaId(0), RegisterId(0), 5).unwrap();
        c.run_to_quiescence();
        // Not yet delivered.
        assert_eq!(c.read(ReplicaId(1), RegisterId(0)).unwrap(), None);
        assert!(!c.verdict().liveness.is_empty(), "transiently incomplete");
        c.release_and_settle();
        assert_eq!(c.read(ReplicaId(1), RegisterId(0)).unwrap(), Some(5));
        assert!(c.verdict().is_consistent());
    }

    #[test]
    fn duplicate_deliveries_are_tolerated() {
        // At-least-once channels: every 2nd message is delivered twice.
        // Without receiver-side dedup the duplicate could never satisfy
        // J's equality clause and would wedge the pending buffer.
        let g = topologies::ring(4);
        let mut c = Cluster::new(
            EdgeProtocol::new(g.clone()),
            Box::new(UniformDelay::new(13, 1, 25)),
        );
        c.net_mut().set_duplicate_every(2);
        for round in 0..30u64 {
            let i = ReplicaId((round % 4) as usize);
            let regs: Vec<RegisterId> = g.registers_of(i).iter().collect();
            c.write(i, regs[((round / 4) % 2) as usize], round).unwrap();
        }
        c.run_to_quiescence();
        assert!(c.verdict().is_consistent());
        assert_eq!(c.pending_total(), 0, "no wedged duplicates");
        let dropped: u64 = g.replicas().map(|i| c.dropped_duplicates(i)).sum();
        assert!(dropped > 0, "duplicates must actually have been injected");
        assert_eq!(c.stats().duplicates_dropped, dropped);
    }

    #[test]
    fn errors_are_propagated() {
        let g = topologies::line(2);
        let mut c = Cluster::new(EdgeProtocol::new(g), Box::new(FixedDelay(1)));
        assert!(c.write(ReplicaId(5), RegisterId(0), 1).is_err());
        assert!(c.write(ReplicaId(0), RegisterId(9), 1).is_err());
        assert!(c.read(ReplicaId(9), RegisterId(0)).is_err());
    }

    #[test]
    fn stats_track_latency() {
        let g = topologies::line(2);
        let mut c = Cluster::new(EdgeProtocol::new(g), Box::new(FixedDelay(7)));
        c.write(ReplicaId(0), RegisterId(0), 1).unwrap();
        c.run_to_quiescence();
        let s = c.stats();
        assert_eq!(s.applies, 1);
        assert_eq!(s.mean_apply_latency(), 7.0);
        assert_eq!(s.mean_pending_stall(), 0.0);
    }
}
