//! Client libraries for the node API.
//!
//! [`ServiceClient`] is the blocking single-node connection; it addresses
//! `(partition, register)` pairs directly. [`RoutedClient`] sits on top:
//! it fetches the cluster's [`PartitionMap`] from any node, then routes
//! flat *keys* — `key → (partition, register)` by key range, then to a node
//! hosting a holder of that register — opening per-node connections
//! lazily.

use crate::wire::{
    append_frame, decode_response, encode_request_into, read_frame_into, ClientRequest,
    ClientResponse, NodeStatus, WIRE_VERSION,
};
use prcc_checker::trace::TraceEvent;
use prcc_checker::{CutSnapshot, TraceCheckpoint};
use prcc_graph::{PartitionId, PartitionMap, RegisterId};
use prcc_telemetry::MetricsSnapshot;
use prcc_workloads::ops::key_affinity;
use std::io::{self, BufReader, Write};
use std::net::{SocketAddr, TcpStream};

/// A connection to one node's client API.
///
/// One request is in flight at a time (simple request/response framing);
/// open several clients for pipelined load. Request and response buffers
/// are owned by the connection and reused, so a warmed-up client issues
/// its round trips allocation-free, and responses are read through a small
/// read-ahead: a reply that fits it costs one `read`, not one for the
/// length prefix and one for the payload (a larger one bypasses it for
/// everything past the first read).
#[derive(Debug)]
pub struct ServiceClient {
    stream: BufReader<TcpStream>,
    wbuf: Vec<u8>,
    rbuf: Vec<u8>,
}

/// Read-ahead on a client connection: write acks and read replies are a
/// handful of bytes; a metrics scrape's histograms run to a few KiB and
/// read past the read-ahead in one more `read`.
const READ_AHEAD: usize = 1024;

fn protocol_error(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.to_string())
}

impl ServiceClient {
    /// Connects to a node's client listener.
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(ServiceClient {
            stream: BufReader::with_capacity(READ_AHEAD, stream),
            wbuf: Vec::new(),
            rbuf: Vec::new(),
        })
    }

    fn round_trip(&mut self, req: &ClientRequest) -> io::Result<ClientResponse> {
        self.wbuf.clear();
        append_frame(&mut self.wbuf, |out| encode_request_into(req, out))?;
        self.stream.get_mut().write_all(&self.wbuf)?;
        read_frame_into(&mut self.stream, &mut self.rbuf)?
            .ok_or_else(|| protocol_error("connection closed mid-request"))?;
        decode_response(&self.rbuf)
    }

    /// Issues `write(x, v)` in partition `p`, shipping `pad` extra payload
    /// bytes; resolves once the node has applied the write locally and
    /// enqueued the peer updates. Returns `false` if the node does not host
    /// `x` in `p`.
    pub fn write_padded(
        &mut self,
        p: PartitionId,
        x: RegisterId,
        v: u64,
        pad: usize,
    ) -> io::Result<bool> {
        match self.round_trip(&ClientRequest::Write {
            partition: p,
            register: x,
            value: v,
            pad,
        })? {
            ClientResponse::WriteAck { ok } => Ok(ok),
            _ => Err(protocol_error("unexpected response to write")),
        }
    }

    /// Issues `write(x, v)` in partition `p`.
    pub fn write_in(&mut self, p: PartitionId, x: RegisterId, v: u64) -> io::Result<bool> {
        self.write_padded(p, x, v, 0)
    }

    /// Issues `write(x, v)` in partition 0 — the whole register space of an
    /// unsharded deployment.
    pub fn write(&mut self, x: RegisterId, v: u64) -> io::Result<bool> {
        self.write_in(PartitionId(0), x, v)
    }

    /// Issues `read(x)` in partition `p`. `Err` is an I/O problem;
    /// `Ok(None)` means the node hosts `x` but no write has reached it (or
    /// does not host it — check with the partition map).
    pub fn read_in(&mut self, p: PartitionId, x: RegisterId) -> io::Result<Option<u64>> {
        match self.round_trip(&ClientRequest::Read {
            partition: p,
            register: x,
        })? {
            ClientResponse::ReadResp { value, .. } => Ok(value),
            _ => Err(protocol_error("unexpected response to read")),
        }
    }

    /// Issues `read(x)` in partition 0.
    pub fn read(&mut self, x: RegisterId) -> io::Result<Option<u64>> {
        self.read_in(PartitionId(0), x)
    }

    /// Fetches the node's counters: one [`ServiceClient::metrics`] scrape,
    /// read through [`NodeStatus::from_metrics`].
    pub fn status(&mut self) -> io::Result<NodeStatus> {
        self.metrics().map(|m| NodeStatus::from_metrics(&m))
    }

    /// Fetches the node's local event logs, indexed by partition: per
    /// partition, the sealed-prefix checkpoint summary plus the live
    /// suffix (a compacting node no longer retains full history).
    pub fn trace(&mut self) -> io::Result<Vec<(TraceCheckpoint, Vec<TraceEvent>)>> {
        match self.round_trip(&ClientRequest::Trace)? {
            ClientResponse::Trace(logs) => Ok(logs),
            _ => Err(protocol_error("unexpected response to trace")),
        }
    }

    /// Fetches the node's live metrics snapshot: the `net_*` / `core_*` /
    /// `wal_*` counters and gauges plus the update-lifecycle stage
    /// histograms. The response frame is version-stamped, so a node
    /// speaking a different wire protocol is refused at decode.
    pub fn metrics(&mut self) -> io::Result<MetricsSnapshot> {
        match self.round_trip(&ClientRequest::Metrics)? {
            ClientResponse::Metrics(snapshot) => Ok(snapshot),
            _ => Err(protocol_error("unexpected response to metrics")),
        }
    }

    /// Starts an online consistent-cut audit: the node snapshots its
    /// frontiers for `token` (first sighting only) and floods cut markers
    /// to every peer in channel order. Returns the node's own snapshot.
    /// Traffic keeps flowing — the audit never blocks the write path.
    pub fn cut_start(&mut self, token: u64) -> io::Result<Option<CutSnapshot>> {
        match self.round_trip(&ClientRequest::Cut { token, start: true })? {
            ClientResponse::Cut(snap) => Ok(snap),
            _ => Err(protocol_error("unexpected response to cut start")),
        }
    }

    /// Fetches the node's recorded snapshot for cut `token`, if the marker
    /// has reached it (and the token is recent enough to still be
    /// retained). `None` means "not yet" — poll again or give the cut up
    /// as incomplete.
    pub fn cut_report(&mut self, token: u64) -> io::Result<Option<CutSnapshot>> {
        match self.round_trip(&ClientRequest::Cut {
            token,
            start: false,
        })? {
            ClientResponse::Cut(snap) => Ok(snap),
            _ => Err(protocol_error("unexpected response to cut report")),
        }
    }

    /// Fetches the node's sharding configuration, refusing nodes that speak
    /// a different wire protocol version.
    pub fn config(&mut self) -> io::Result<PartitionMap> {
        match self.round_trip(&ClientRequest::Config)? {
            ClientResponse::Config { version, map } => {
                if version != WIRE_VERSION {
                    return Err(protocol_error(&format!(
                        "wire protocol version mismatch: node speaks v{version}, \
                         this client v{WIRE_VERSION}"
                    )));
                }
                Ok(map)
            }
            _ => Err(protocol_error("unexpected response to config")),
        }
    }

    /// Asks the node to shut down gracefully.
    pub fn shutdown(&mut self) -> io::Result<()> {
        match self.round_trip(&ClientRequest::Shutdown)? {
            ClientResponse::Bye => Ok(()),
            _ => Err(protocol_error("unexpected response to shutdown")),
        }
    }
}

/// A key-routing client over the whole cluster.
///
/// Holds the [`PartitionMap`] plus one lazily opened [`ServiceClient`] per
/// node, and routes each operation on flat key `k`: locate `(partition,
/// register)` by key range, pick a hosting node among the register's
/// holders (spread deterministically by key), and issue the single-node
/// operation there.
#[derive(Debug)]
pub struct RoutedClient {
    map: PartitionMap,
    client_addrs: Vec<SocketAddr>,
    clients: Vec<Option<ServiceClient>>,
}

impl RoutedClient {
    /// Connects to the cluster: fetches the partition map from the first
    /// address, then routes over all of them. `client_addrs[i]` must be
    /// node `i`'s client listener.
    pub fn connect(client_addrs: Vec<SocketAddr>) -> io::Result<Self> {
        let first = *client_addrs
            .first()
            .ok_or_else(|| protocol_error("no node addresses"))?;
        let map = ServiceClient::connect(first)?.config()?;
        Self::with_map(map, client_addrs)
    }

    /// Builds a router from an already known partition map (e.g. the
    /// harness that launched the cluster).
    ///
    /// # Errors
    ///
    /// Fails if the address list does not cover the map's nodes.
    pub fn with_map(map: PartitionMap, client_addrs: Vec<SocketAddr>) -> io::Result<Self> {
        if client_addrs.len() != map.num_nodes() {
            return Err(protocol_error("address list does not match node count"));
        }
        let clients = client_addrs.iter().map(|_| None).collect();
        Ok(RoutedClient {
            map,
            client_addrs,
            clients,
        })
    }

    /// The cluster's partition map.
    pub fn map(&self) -> &PartitionMap {
        &self.map
    }

    /// Routes key `k` to `(partition, register, node)`; `None` for keys
    /// outside the universe or registers without holders.
    pub fn route(&self, key: u64) -> Option<(PartitionId, RegisterId, usize)> {
        let (p, x) = self.map.locate(key)?;
        let holders = self.map.holder_nodes(p, x);
        if holders.is_empty() {
            return None;
        }
        // Deterministic spread, shared with the workload generators: one
        // key always talks to one node (session affinity keeps its ops
        // causally chained at that replica).
        let node = holders[key_affinity(key, holders.len())];
        Some((p, x, node))
    }

    fn client(&mut self, node: usize) -> io::Result<&mut ServiceClient> {
        if self.clients[node].is_none() {
            self.clients[node] = Some(ServiceClient::connect(self.client_addrs[node])?);
        }
        // lint: allow(unwrap) the None arm above just filled the slot
        Ok(self.clients[node].as_mut().expect("just connected"))
    }

    /// Runs one operation against `node`'s client, dropping the cached
    /// connection on any I/O error so the next operation redials instead of
    /// reusing a dead stream.
    fn with_client<T>(
        &mut self,
        node: usize,
        op: impl FnOnce(&mut ServiceClient) -> io::Result<T>,
    ) -> io::Result<T> {
        let result = self.client(node).and_then(op);
        if result.is_err() {
            self.clients[node] = None;
        }
        result
    }

    /// Writes `v` under key `k`, shipping `pad` extra payload bytes.
    ///
    /// # Errors
    ///
    /// I/O errors, unroutable keys, and nodes refusing the write all error.
    pub fn write_key_padded(&mut self, key: u64, v: u64, pad: usize) -> io::Result<()> {
        let (p, x, node) = self
            .route(key)
            .ok_or_else(|| protocol_error("key outside the partitioned universe"))?;
        if self.with_client(node, |c| c.write_padded(p, x, v, pad))? {
            Ok(())
        } else {
            Err(protocol_error("routed node refused the write"))
        }
    }

    /// Writes `v` under key `k`.
    pub fn write_key(&mut self, key: u64, v: u64) -> io::Result<()> {
        self.write_key_padded(key, v, 0)
    }

    /// Reads the value under key `k` from a node hosting it.
    pub fn read_key(&mut self, key: u64) -> io::Result<Option<u64>> {
        let (p, x, node) = self
            .route(key)
            .ok_or_else(|| protocol_error("key outside the partitioned universe"))?;
        self.with_client(node, |c| c.read_in(p, x))
    }
}
