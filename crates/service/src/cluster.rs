//! Standing up and tearing down a loopback cluster.

use crate::client::{RoutedClient, ServiceClient};
use crate::node::{spawn_node, NodeHandle, NodeSeed, ServiceConfig};
use crate::wire::{NodeStatus, WIRE_SEQ_BITS};
use prcc_checker::trace::{TraceError, TraceEvent};
use prcc_checker::{
    verify_cut_closure, verify_partitions_checkpointed, CutSnapshot, CutVerdict, TraceCheckpoint,
    Verdict,
};
use prcc_clock::{Protocol, WireClock};
use prcc_graph::{PartitionId, PartitionMap};
use prcc_telemetry::MetricsSnapshot;
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A full cluster of nodes on 127.0.0.1, one pair of listeners each.
///
/// The harness supports fault injection: [`LoopbackCluster::crash_node`]
/// kills a node without a graceful drain, and
/// [`LoopbackCluster::restart_node`] respawns it on the *same* listener
/// addresses (peers reconnect through the sender backoff path) and — when
/// the deployment has a data dir — the same on-disk state, which the node
/// recovers from its snapshot + WAL.
pub struct LoopbackCluster {
    map: PartitionMap,
    nodes: Vec<NodeHandle>,
    /// What each node actually dials for each peer — the real peer
    /// listeners in a plain deployment, rewired through proxy
    /// addresses when a fault injector interposes on the links.
    /// `restart_node` reuses these, so a restarted node redials through
    /// the same interposition its first life used.
    dial_addrs: Vec<Vec<SocketAddr>>,
    durable: bool,
    spawner: Arc<dyn Fn(NodeSeed) -> io::Result<NodeHandle> + Send + Sync>,
}

impl std::fmt::Debug for LoopbackCluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LoopbackCluster")
            .field("map", &self.map)
            .field("nodes", &self.nodes)
            .finish()
    }
}

impl LoopbackCluster {
    /// Launches the unsharded deployment: one partition, role `i` on node
    /// `i` ([`PartitionMap::single`]).
    pub fn launch<P>(
        protocol: Arc<P>,
        cfg: &ServiceConfig,
        base_port: u16,
    ) -> io::Result<LoopbackCluster>
    where
        P: Protocol + 'static,
        P::Clock: WireClock,
    {
        let map = PartitionMap::single(protocol.share_graph().clone());
        Self::launch_partitioned(protocol, map, cfg, base_port)
    }

    /// Binds listeners for every node of the partition map (ephemeral ports
    /// when `base_port` is 0, else `base_port + 2i` / `base_port + 2i + 1`),
    /// then spawns the nodes with the full peer map.
    pub fn launch_partitioned<P>(
        protocol: Arc<P>,
        map: PartitionMap,
        cfg: &ServiceConfig,
        base_port: u16,
    ) -> io::Result<LoopbackCluster>
    where
        P: Protocol + 'static,
        P::Clock: WireClock,
    {
        Self::launch_partitioned_via(protocol, map, cfg, base_port, |_, real| real.to_vec())
    }

    /// [`LoopbackCluster::launch_partitioned`] with the peer links routed
    /// through an interposer: after every real peer listener is bound,
    /// `rewire(node, real_peer_addrs)` decides what addresses node `node`
    /// dials for its peers — typically a fault-injecting proxy's listener
    /// per directed link, with the node's own slot left at the real
    /// address. The rewired table sticks: [`LoopbackCluster::restart_node`]
    /// respawns through it.
    pub fn launch_partitioned_via<P>(
        protocol: Arc<P>,
        map: PartitionMap,
        cfg: &ServiceConfig,
        base_port: u16,
        rewire: impl Fn(usize, &[SocketAddr]) -> Vec<SocketAddr>,
    ) -> io::Result<LoopbackCluster>
    where
        P: Protocol + 'static,
        P::Clock: WireClock,
    {
        let n = map.num_nodes();
        let mut peer_listeners = Vec::with_capacity(n);
        let mut client_listeners = Vec::with_capacity(n);
        let mut peer_addrs = Vec::with_capacity(n);
        for i in 0..n {
            let (peer_port, client_port) = if base_port == 0 {
                (0, 0)
            } else {
                (base_port + 2 * i as u16, base_port + 2 * i as u16 + 1)
            };
            let peer = TcpListener::bind(("127.0.0.1", peer_port))?;
            let client = TcpListener::bind(("127.0.0.1", client_port))?;
            peer_addrs.push(peer.local_addr()?);
            peer_listeners.push(peer);
            client_listeners.push(client);
        }
        // The spawner closure lets restart_node respawn any node with the
        // exact launch configuration without the cluster being generic
        // over the protocol type.
        let spawner: Arc<dyn Fn(NodeSeed) -> io::Result<NodeHandle> + Send + Sync> = {
            let protocol = Arc::clone(&protocol);
            let map = map.clone();
            let cfg = cfg.clone();
            Arc::new(move |seed| spawn_node(Arc::clone(&protocol), map.clone(), seed, cfg.clone()))
        };
        let dial_addrs: Vec<Vec<SocketAddr>> = (0..n).map(|i| rewire(i, &peer_addrs)).collect();
        for (i, dials) in dial_addrs.iter().enumerate() {
            if dials.len() != n {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!(
                        "rewire produced {} addresses for node {i}, need {n}",
                        dials.len()
                    ),
                ));
            }
        }
        let mut nodes = Vec::with_capacity(n);
        for (i, (peer_listener, client_listener)) in
            peer_listeners.into_iter().zip(client_listeners).enumerate()
        {
            nodes.push(spawner(NodeSeed {
                node: i,
                peer_listener,
                client_listener,
                peer_addrs: dial_addrs[i].clone(),
            })?);
        }
        Ok(LoopbackCluster {
            map,
            nodes,
            dial_addrs,
            durable: cfg.data_dir.is_some(),
            spawner,
        })
    }

    /// The cluster's partition map.
    pub fn map(&self) -> &PartitionMap {
        &self.map
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the cluster has no nodes (never after a launch).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// `(peer, client)` listener addresses of node `i`.
    pub fn addrs(&self, i: usize) -> (SocketAddr, SocketAddr) {
        (self.nodes[i].peer_addr, self.nodes[i].client_addr)
    }

    /// Opens a fresh client to node `i`.
    pub fn client(&self, i: usize) -> io::Result<ServiceClient> {
        ServiceClient::connect(self.nodes[i].client_addr)
    }

    /// Opens a key-routing client over the whole cluster.
    pub fn routed_client(&self) -> io::Result<RoutedClient> {
        RoutedClient::with_map(
            self.map.clone(),
            self.nodes.iter().map(|n| n.client_addr).collect(),
        )
    }

    /// Snapshot of every node's counters.
    pub fn statuses(&self) -> io::Result<Vec<NodeStatus>> {
        self.nodes
            .iter()
            .map(|node| ServiceClient::connect(node.client_addr)?.status())
            .collect()
    }

    /// Scrapes every node's live metrics snapshot (wire-v6 `Metrics`
    /// request), unmerged.
    pub fn metrics_per_node(&self) -> io::Result<Vec<MetricsSnapshot>> {
        self.nodes
            .iter()
            .map(|node| ServiceClient::connect(node.client_addr)?.metrics())
            .collect()
    }

    /// Scrapes and merges the whole cluster's metrics into one snapshot:
    /// counters and gauges sum, histograms merge bucket-wise — so the
    /// cluster-wide percentiles are computed over the union of samples,
    /// not averaged across nodes.
    pub fn metrics(&self) -> io::Result<MetricsSnapshot> {
        let mut merged = MetricsSnapshot::default();
        for snap in self.metrics_per_node()? {
            merged.merge(&snap);
        }
        Ok(merged)
    }

    /// Fault injection: kills node `i` without a graceful shutdown — no
    /// drain, no final snapshot, every connection severed mid-stream.
    /// Clients of the node see their connections drop; peers see the link
    /// die and fall into the reconnect backoff path.
    pub fn crash_node(&mut self, i: usize) {
        self.nodes[i].crash();
    }

    /// Respawns a crashed node on its original listener addresses. With a
    /// data dir configured the node recovers its snapshot + WAL first, so
    /// it rejoins with its pre-crash clock, store and event log; peers'
    /// senders reconnect (backoff) and resend their unacked windows from
    /// the offset the recovered node acknowledges.
    ///
    /// # Errors
    ///
    /// Refused outright when the deployment has no data dir: a blank
    /// respawn would reissue wire ids its peers' dedup sets already hold,
    /// so its new writes would be silently dropped cluster-wide. Also
    /// fails on rebinding the listeners (the OS may briefly hold the
    /// port) or the respawn itself (e.g. an unrecoverable data dir).
    pub fn restart_node(&mut self, i: usize) -> io::Result<()> {
        if !self.durable {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "restarting a node without a data dir would reuse wire ids \
                 its peers have already seen; launch the cluster with \
                 ServiceConfig::data_dir to use crash/restart",
            ));
        }
        let (peer_addr, client_addr) = (self.nodes[i].peer_addr, self.nodes[i].client_addr);
        let peer_listener = bind_with_retry(peer_addr)?;
        let client_listener = bind_with_retry(client_addr)?;
        self.nodes[i] = (self.spawner)(NodeSeed {
            node: i,
            peer_listener,
            client_listener,
            peer_addrs: self.dial_addrs[i].clone(),
        })?;
        Ok(())
    }

    /// Runs one online consistent-cut audit *without stopping traffic*:
    /// injects marker `token` at node 0, polls every node for its recorded
    /// snapshot until all have reported (or `timeout` elapses), then checks
    /// the cut for causal closure. A node that never sees the marker — a
    /// crash or a severed link mid-audit — yields
    /// [`CutVerdict::Incomplete`], never a false verdict: retry with a
    /// fresh token.
    pub fn cut_audit(&self, token: u64, timeout: Duration) -> io::Result<CutVerdict> {
        self.client(0)?.cut_start(token)?;
        let deadline = Instant::now() + timeout;
        let mut snapshots: Vec<Option<CutSnapshot>> = vec![None; self.len()];
        loop {
            for (i, slot) in snapshots.iter_mut().enumerate() {
                if slot.is_none() {
                    // A node mid-restart refuses connections; that is "not
                    // yet", not an error — the deadline decides.
                    if let Ok(snap) = self.client(i).and_then(|mut c| c.cut_report(token)) {
                        *slot = snap;
                    }
                }
            }
            let done = snapshots.iter().all(Option::is_some);
            if done || Instant::now() >= deadline {
                let collected: Vec<CutSnapshot> = snapshots.into_iter().flatten().collect();
                return Ok(verify_cut_closure(&collected));
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// Polls until the cluster is quiescent: every pending buffer empty,
    /// every sent update copy received at least once — resend duplicates
    /// are *excluded* (`received - duplicates_dropped`), so a surplus of
    /// retransmissions cannot mask a genuinely undelivered update parked
    /// in an unacked sender window — and the counters stable across two
    /// consecutive polls. Returns `false` on timeout. Every node must be
    /// up (restart crashed nodes first).
    pub fn drain(&self, timeout: Duration) -> io::Result<bool> {
        // One persistent client per node: the poll loop runs every 10ms and
        // per-call connections would churn thousands of sockets per drain.
        let mut clients = self
            .nodes
            .iter()
            .map(|node| ServiceClient::connect(node.client_addr))
            .collect::<io::Result<Vec<_>>>()?;
        let deadline = Instant::now() + timeout;
        let mut previous: Option<Vec<NodeStatus>> = None;
        loop {
            let statuses = clients
                .iter_mut()
                .map(ServiceClient::status)
                .collect::<io::Result<Vec<_>>>()?;
            let sent: u64 = statuses.iter().map(|s| s.messages_sent).sum();
            let received: u64 = statuses.iter().map(|s| s.messages_received).sum();
            let duplicates: u64 = statuses.iter().map(|s| s.duplicates_dropped).sum();
            let pending: u64 = statuses.iter().map(|s| s.pending).sum();
            let settled = pending == 0 && received.saturating_sub(duplicates) >= sent;
            // Reactor telemetry moves with this drain's own status polling
            // (every request wakes an event-loop worker), so it must not
            // count against the two-identical-polls stability check.
            let mut normalized = statuses;
            for status in &mut normalized {
                status.reactor_wakeups = 0;
                status.reactor_events = 0;
                status.reactor_rearms = 0;
                status.reactor_outq_hiwat = 0;
            }
            if settled && previous.as_ref() == Some(&normalized) {
                return Ok(true);
            }
            previous = Some(normalized);
            if Instant::now() >= deadline {
                return Ok(false);
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    /// Collects every node's local event logs;
    /// `result[node][partition]` is that node's `(checkpoint, live
    /// suffix)` pair for the partition (empty when not hosted — a
    /// compacting node ships its sealed-prefix summary instead of full
    /// history).
    #[allow(clippy::type_complexity)]
    pub fn collect_traces(&self) -> io::Result<Vec<Vec<(TraceCheckpoint, Vec<TraceEvent>)>>> {
        self.nodes
            .iter()
            .map(|node| ServiceClient::connect(node.client_addr)?.trace())
            .collect()
    }

    /// Regroups collected traces for the per-partition oracle:
    /// `result[partition][role]` is the `(checkpoint, live log)` pair
    /// recorded by the node hosting that role.
    #[allow(clippy::type_complexity)]
    fn traces_by_partition(
        &self,
        traces: Vec<Vec<(TraceCheckpoint, Vec<TraceEvent>)>>,
    ) -> Vec<Vec<(TraceCheckpoint, Vec<TraceEvent>)>> {
        let roles = self.map.graph().num_replicas();
        let registers = self.map.graph().num_registers();
        let mut parts: Vec<Vec<(TraceCheckpoint, Vec<TraceEvent>)>> = self
            .map
            .partitions()
            .map(|_| vec![(TraceCheckpoint::new(roles, registers), Vec::new()); roles])
            .collect();
        for (node, mut logs) in traces.into_iter().enumerate() {
            for (p, pair) in logs.drain(..).enumerate() {
                if let Some(role) = self.map.role_on(PartitionId(p as u32), node) {
                    parts[p][role.index()] = pair;
                }
            }
        }
        parts
    }

    /// Stitches the collected checkpoint summaries and live trace suffixes
    /// partition by partition through the shared [`prcc_checker`] oracle —
    /// each partition is an independent share-graph instance, so
    /// verification cost scales with the partition size, not the cluster
    /// size (and, with compaction, with *live* state, not run length).
    /// Returns one verdict (or replay error) per partition.
    pub fn verify_partitions(&self) -> io::Result<Vec<Result<Verdict, TraceError>>> {
        let parts = self.traces_by_partition(self.collect_traces()?);
        let map = &self.map;
        let verdicts = verify_partitions_checkpointed(self.map.graph(), &parts, |p, wire| {
            // Wire ids encode the issuing node above the sequence bits;
            // the map resolves its role within the partition.
            map.role_on(PartitionId(p as u32), (wire >> WIRE_SEQ_BITS) as usize)
        });
        Ok(verdicts
            .into_iter()
            .map(|result| result.map(|stitched| stitched.verdict))
            .collect())
    }

    /// Replays the collected traces and folds all partitions into one
    /// verdict (any replay error short-circuits) — the post-hoc
    /// causal-consistency check of the whole deployment.
    pub fn verify(&self) -> io::Result<Result<Verdict, TraceError>> {
        let per_partition = self.verify_partitions()?;
        let mut combined = Verdict::default();
        for verdict in per_partition {
            match verdict {
                Ok(v) => {
                    combined.safety.extend(v.safety);
                    combined.liveness.extend(v.liveness);
                }
                Err(e) => return Ok(Err(e)),
            }
        }
        Ok(Ok(combined))
    }

    /// Gracefully shuts every node down and joins their core threads.
    pub fn shutdown(mut self) -> io::Result<()> {
        for node in &self.nodes {
            ServiceClient::connect(node.client_addr)?.shutdown()?;
        }
        for node in &mut self.nodes {
            node.join();
        }
        Ok(())
    }

    /// Blocks until every node has been shut down externally (used by
    /// `prcc-serve`).
    pub fn join(&mut self) {
        for node in &mut self.nodes {
            node.join();
        }
    }
}

/// Rebinds a listener on an exact address a crashed node just vacated,
/// retrying briefly: the old socket is closed by the crash switch, but the
/// OS may take a moment to release the port to a fresh `bind`.
fn bind_with_retry(addr: SocketAddr) -> io::Result<TcpListener> {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        match TcpListener::bind(addr) {
            Ok(listener) => return Ok(listener),
            Err(e) if Instant::now() >= deadline => return Err(e),
            Err(_) => std::thread::sleep(Duration::from_millis(20)),
        }
    }
}
