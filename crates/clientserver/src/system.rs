//! The simulated client-server system.

use crate::config::CsConfig;
use prcc_checker::{Oracle, SafetyViolation, UpdateId};
use prcc_clock::{ClockState, EdgeClock};
use prcc_graph::{AugmentedShareGraph, ClientId, RegisterId, ReplicaId};
use prcc_net::{DeliveryPolicy, Network, VirtualTime};
use std::fmt;

/// Errors returned by client operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum CsError {
    /// The client may not access this replica (`i ∉ R_c`).
    NotInReplicaSet {
        /// The client issuing the operation.
        client: ClientId,
        /// The replica it tried to reach.
        replica: ReplicaId,
    },
    /// The replica does not store the register.
    NotStored {
        /// The replica the operation was addressed to.
        replica: ReplicaId,
        /// The register it does not store.
        register: RegisterId,
    },
    /// The operation cannot complete: the network is quiescent but the
    /// request predicate still fails (would wait forever).
    Stalled,
}

impl fmt::Display for CsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CsError::NotInReplicaSet { client, replica } => {
                write!(f, "client {client} may not access replica {replica}")
            }
            CsError::NotStored { replica, register } => {
                write!(f, "replica {replica} does not store {register}")
            }
            CsError::Stalled => write!(
                f,
                "operation stalled: predicate unsatisfiable at quiescence"
            ),
        }
    }
}

impl std::error::Error for CsError {}

/// Verdict for a client-server run: replica-level safety/liveness plus
/// client-access safety (Definition 26's second clause).
#[derive(Debug, Clone, Default)]
pub struct CsVerdict {
    /// Replica-level safety violations.
    pub safety: Vec<SafetyViolation>,
    /// Liveness violations at quiescence.
    pub liveness: Vec<prcc_checker::LivenessViolation>,
    /// Client accesses served before the replica caught up:
    /// `(client, replica, missing update)`.
    pub access: Vec<(ClientId, ReplicaId, UpdateId)>,
}

impl CsVerdict {
    /// True when no violation of any kind was observed.
    pub fn is_consistent(&self) -> bool {
        self.safety.is_empty() && self.liveness.is_empty() && self.access.is_empty()
    }
}

/// Run statistics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CsStats {
    /// Writes served.
    pub writes: u64,
    /// Reads served.
    pub reads: u64,
    /// Inter-replica update messages.
    pub update_messages: u64,
    /// Request/response messages between clients and replicas.
    pub rpc_messages: u64,
    /// Total bytes (updates + RPCs, varint-encoded clocks).
    pub bytes: u64,
    /// Requests that had to buffer at the replica before `J1`/`J2` held.
    pub buffered_requests: u64,
}

#[derive(Debug, Clone)]
struct CsUpdate {
    id: UpdateId,
    issuer: ReplicaId,
    register: RegisterId,
    value: u64,
    clock: EdgeClock,
}

#[derive(Debug, Clone)]
enum Msg {
    Request {
        op: u64,
        client: ClientId,
        register: RegisterId,
        value: Option<u64>,
        mu: EdgeClock,
    },
    Response {
        op: u64,
        value: Option<u64>,
        tau: EdgeClock,
    },
    Update(CsUpdate),
}

#[derive(Debug)]
struct ReplicaState {
    store: Vec<Option<u64>>,
    tau: EdgeClock,
    pending_updates: Vec<CsUpdate>,
    pending_requests: Vec<(u64, ClientId, RegisterId, Option<u64>, EdgeClock, bool)>,
}

/// The full client-server deployment: replicas and clients on one simulated
/// network, driven by synchronous client operations.
pub struct CsSystem {
    cfg: CsConfig,
    replicas: Vec<ReplicaState>,
    clients: Vec<EdgeClock>,
    net: Network<Msg>,
    oracle: Oracle,
    verdict: CsVerdict,
    stats: CsStats,
    next_op: u64,
    /// Completed op results waiting for pickup.
    completed: Vec<(u64, Option<u64>)>,
}

impl CsSystem {
    /// Builds the system for an augmented share graph.
    pub fn new(aug: AugmentedShareGraph, policy: Box<dyn DeliveryPolicy>) -> Self {
        let cfg = CsConfig::new(aug);
        let g = cfg.augmented().share_graph().clone();
        let num_r = g.num_replicas();
        let num_c = cfg.augmented().num_clients();
        let replicas = g
            .replicas()
            .map(|i| ReplicaState {
                store: vec![None; g.num_registers()],
                tau: cfg.replica_clock(i),
                pending_updates: Vec::new(),
                pending_requests: Vec::new(),
            })
            .collect();
        let clients = cfg
            .augmented()
            .clients()
            .map(|c| cfg.client_clock(c))
            .collect();
        let oracle = Oracle::with_clients(&g, num_c);
        CsSystem {
            cfg,
            replicas,
            clients,
            net: Network::new(num_r + num_c, policy),
            oracle,
            verdict: CsVerdict::default(),
            stats: CsStats::default(),
            next_op: 0,
            completed: Vec::new(),
        }
    }

    fn client_node(&self, c: ClientId) -> usize {
        self.cfg.augmented().share_graph().num_replicas() + c.index()
    }

    fn validate(&self, c: ClientId, i: ReplicaId, x: RegisterId) -> Result<(), CsError> {
        if !self.cfg.augmented().replicas_of(c).contains(&i) {
            return Err(CsError::NotInReplicaSet {
                client: c,
                replica: i,
            });
        }
        if !self.cfg.augmented().share_graph().stores(i, x) {
            return Err(CsError::NotStored {
                replica: i,
                register: x,
            });
        }
        Ok(())
    }

    /// Synchronous client write through replica `i` (Appendix E client
    /// prototype): sends `write(x, v, c, µ_c)`, pumps the network until the
    /// acknowledgement arrives, merges the returned timestamp.
    ///
    /// # Errors
    ///
    /// Validation errors, or [`CsError::Stalled`] if the request can never
    /// be served.
    pub fn write(
        &mut self,
        c: ClientId,
        i: ReplicaId,
        x: RegisterId,
        v: u64,
    ) -> Result<(), CsError> {
        self.validate(c, i, x)?;
        let op = self.submit(c, i, x, Some(v));
        self.await_op(op).map(|_| ())
    }

    /// Synchronous client read through replica `i`.
    ///
    /// # Errors
    ///
    /// Validation errors, or [`CsError::Stalled`].
    pub fn read(
        &mut self,
        c: ClientId,
        i: ReplicaId,
        x: RegisterId,
    ) -> Result<Option<u64>, CsError> {
        self.validate(c, i, x)?;
        let op = self.submit(c, i, x, None);
        self.await_op(op)
    }

    fn submit(&mut self, c: ClientId, i: ReplicaId, x: RegisterId, v: Option<u64>) -> u64 {
        let op = self.next_op;
        self.next_op += 1;
        let mu = self.clients[c.index()].clone();
        let bytes = 16 + mu.encoded_len();
        self.stats.rpc_messages += 1;
        self.stats.bytes += bytes as u64;
        let node = self.client_node(c);
        self.net.send(
            node,
            i.index(),
            bytes,
            Msg::Request {
                op,
                client: c,
                register: x,
                value: v,
                mu,
            },
        );
        op
    }

    fn await_op(&mut self, op: u64) -> Result<Option<u64>, CsError> {
        loop {
            if let Some(pos) = self.completed.iter().position(|&(o, _)| o == op) {
                return Ok(self.completed.swap_remove(pos).1);
            }
            if !self.step() {
                return Err(CsError::Stalled);
            }
        }
    }

    /// Delivers one message and processes consequences. Returns false at
    /// quiescence.
    pub fn step(&mut self) -> bool {
        let Some(delivery) = self.net.deliver_next() else {
            return false;
        };
        let num_r = self.cfg.augmented().share_graph().num_replicas();
        match delivery.msg {
            Msg::Update(u) => {
                let i = ReplicaId(delivery.dst);
                self.replicas[delivery.dst].pending_updates.push(u);
                self.process_replica(i);
            }
            Msg::Request {
                op,
                client,
                register,
                value,
                mu,
            } => {
                let i = ReplicaId(delivery.dst);
                self.replicas[delivery.dst]
                    .pending_requests
                    .push((op, client, register, value, mu, false));
                self.process_replica(i);
            }
            Msg::Response { op, value, tau } => {
                let c = delivery.dst - num_r;
                // merge1/merge2: fold the replica's timestamp into µ_c.
                self.clients[c].merge_from(&tau);
                self.completed.push((op, value));
            }
        }
        true
    }

    /// Runs the network dry (serving whatever becomes serviceable).
    pub fn run_to_quiescence(&mut self) {
        while self.step() {}
    }

    /// Fixpoint at one replica: apply deliverable updates (J3) and serve
    /// ready requests (J1/J2) until neither makes progress.
    fn process_replica(&mut self, i: ReplicaId) {
        loop {
            let mut progressed = false;
            // Updates first (they can unblock requests).
            if let Some(pos) = {
                let st = &self.replicas[i.index()];
                st.pending_updates
                    .iter()
                    .position(|u| self.cfg.update_ready(i, &st.tau, u.issuer, &u.clock))
            } {
                let u = self.replicas[i.index()].pending_updates.swap_remove(pos);
                self.replicas[i.index()].store[u.register.index()] = Some(u.value);
                self.replicas[i.index()].tau.merge_from(&u.clock);
                if let Err(v) = self.oracle.on_apply(i, u.id) {
                    self.verdict.safety.push(v);
                }
                progressed = true;
            }
            if let Some(pos) = {
                let st = &self.replicas[i.index()];
                st.pending_requests
                    .iter()
                    .position(|(_, _, _, _, mu, _)| self.cfg.request_ready(i, &st.tau, mu))
            } {
                let (op, client, register, value, mu, was_buffered) =
                    self.replicas[i.index()].pending_requests.swap_remove(pos);
                if was_buffered {
                    self.stats.buffered_requests += 1;
                }
                self.serve(i, op, client, register, value, &mu);
                progressed = true;
            }
            if !progressed {
                break;
            }
        }
        // Mark the remaining requests as having buffered at least once.
        for r in &mut self.replicas[i.index()].pending_requests {
            r.5 = true;
        }
    }

    fn serve(
        &mut self,
        i: ReplicaId,
        op: u64,
        client: ClientId,
        register: RegisterId,
        value: Option<u64>,
        mu: &EdgeClock,
    ) {
        // Client-access safety check (before the oracle absorbs the access).
        if let Some(missing) = self.oracle.client_access_violation(client.index(), i) {
            self.verdict.access.push((client, i, missing));
        }
        let response_value;
        match value {
            None => {
                // Read: respond with the local copy and τ_i.
                self.oracle.on_client_access(client.index(), i);
                response_value = self.replicas[i.index()].store[register.index()];
                self.stats.reads += 1;
            }
            Some(v) => {
                // Write: apply locally, advance with µ, propagate updates.
                self.replicas[i.index()].store[register.index()] = Some(v);
                let mut tau = self.replicas[i.index()].tau.clone();
                self.cfg.advance(i, &mut tau, mu, register);
                self.replicas[i.index()].tau = tau.clone();
                let id = self.oracle.on_client_issue(client.index(), i, register);
                let update = CsUpdate {
                    id,
                    issuer: i,
                    register,
                    value: v,
                    clock: tau,
                };
                let g = self.cfg.augmented().share_graph();
                for k in g.recipients(i, register) {
                    let bytes = 16 + update.clock.encoded_len();
                    self.stats.update_messages += 1;
                    self.stats.bytes += bytes as u64;
                    self.net
                        .send(i.index(), k.index(), bytes, Msg::Update(update.clone()));
                }
                response_value = Some(v);
                self.stats.writes += 1;
            }
        }
        let tau = self.replicas[i.index()].tau.clone();
        let bytes = 16 + tau.encoded_len();
        self.stats.rpc_messages += 1;
        self.stats.bytes += bytes as u64;
        let node = self.client_node(client);
        self.net.send(
            i.index(),
            node,
            bytes,
            Msg::Response {
                op,
                value: response_value,
                tau,
            },
        );
    }

    /// The final verdict (includes a liveness check at the current state).
    pub fn verdict(&self) -> CsVerdict {
        let mut v = self.verdict.clone();
        v.liveness = self.oracle.check_liveness();
        v
    }

    /// Run statistics.
    pub fn stats(&self) -> &CsStats {
        &self.stats
    }

    /// The timestamp configuration (augmented graphs, clock shapes).
    pub fn config(&self) -> &CsConfig {
        &self.cfg
    }

    /// Direct peek at a replica's local copy (testing).
    pub fn peek(&self, i: ReplicaId, x: RegisterId) -> Option<u64> {
        self.replicas[i.index()].store[x.index()]
    }

    /// Current virtual time.
    pub fn now(&self) -> VirtualTime {
        self.net.now()
    }
}

impl fmt::Debug for CsSystem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CsSystem")
            .field("replicas", &self.replicas.len())
            .field("clients", &self.clients.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prcc_graph::topologies;
    use prcc_net::{FixedDelay, UniformDelay};

    fn bridge_system(seed: u64) -> CsSystem {
        // Line 0–1–2–3 with a client spanning the two ends and two local
        // clients.
        let g = topologies::line(4);
        let aug = AugmentedShareGraph::new(
            g,
            vec![
                vec![ReplicaId(0), ReplicaId(3)],
                vec![ReplicaId(0), ReplicaId(1)],
                vec![ReplicaId(2), ReplicaId(3)],
            ],
        )
        .unwrap();
        CsSystem::new(aug, Box::new(UniformDelay::new(seed, 1, 20)))
    }

    #[test]
    fn read_your_own_writes_through_one_replica() {
        let mut s = bridge_system(1);
        s.write(ClientId(1), ReplicaId(0), RegisterId(0), 5)
            .unwrap();
        assert_eq!(
            s.read(ClientId(1), ReplicaId(0), RegisterId(0)).unwrap(),
            Some(5)
        );
        s.run_to_quiescence();
        assert!(s.verdict().is_consistent());
    }

    #[test]
    fn session_guarantee_across_replicas() {
        // Client 0 writes register 0 through replica 0 (shared with 1);
        // client 1 reads it at replica 1 after propagation; client 0's
        // session via replica 3 blocks until replica 3 has caught up with
        // everything client 0 saw.
        let mut s = bridge_system(2);
        s.write(ClientId(0), ReplicaId(0), RegisterId(0), 9)
            .unwrap();
        // Access the far end: J1 requires replica 3 to be at least as
        // current as the client's µ — which here has only replica-0-side
        // knowledge; a read of register 2 at 3 is served once consistent.
        let _ = s.read(ClientId(0), ReplicaId(3), RegisterId(2)).unwrap();
        s.run_to_quiescence();
        let v = s.verdict();
        assert!(v.is_consistent(), "access violations: {:?}", v.access);
    }

    #[test]
    fn validation_errors() {
        let mut s = bridge_system(3);
        assert_eq!(
            s.write(ClientId(1), ReplicaId(3), RegisterId(2), 1),
            Err(CsError::NotInReplicaSet {
                client: ClientId(1),
                replica: ReplicaId(3)
            })
        );
        assert_eq!(
            s.read(ClientId(1), ReplicaId(0), RegisterId(2)),
            Err(CsError::NotStored {
                replica: ReplicaId(0),
                register: RegisterId(2)
            })
        );
    }

    #[test]
    fn mixed_workload_is_consistent() {
        let mut s = bridge_system(4);
        for round in 0..20u64 {
            s.write(ClientId(1), ReplicaId(0), RegisterId(0), round)
                .unwrap();
            s.write(ClientId(2), ReplicaId(2), RegisterId(2), round)
                .unwrap();
            if round % 3 == 0 {
                let _ = s.read(ClientId(0), ReplicaId(0), RegisterId(0)).unwrap();
                let _ = s.read(ClientId(0), ReplicaId(3), RegisterId(2)).unwrap();
            }
        }
        s.run_to_quiescence();
        assert!(s.verdict().is_consistent());
        let st = s.stats();
        assert_eq!(st.writes, 40);
        assert!(st.reads >= 14);
        assert!(st.update_messages > 0);
        assert!(st.bytes > 0);
    }

    #[test]
    fn fifo_network_still_buffers_nothing_wrongly() {
        let g = topologies::ring(4);
        let aug = AugmentedShareGraph::new(g, vec![vec![ReplicaId(0), ReplicaId(2)]]).unwrap();
        let mut s = CsSystem::new(aug, Box::new(FixedDelay(3)));
        s.write(ClientId(0), ReplicaId(0), RegisterId(0), 1)
            .unwrap();
        s.write(ClientId(0), ReplicaId(2), RegisterId(2), 2)
            .unwrap();
        s.run_to_quiescence();
        assert!(s.verdict().is_consistent());
        assert_eq!(s.peek(ReplicaId(1), RegisterId(0)), Some(1));
    }
}
