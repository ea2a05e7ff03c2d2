//! `prcc-serve` — stand up a loopback TCP cluster and serve until every
//! node is shut down via the client API (`ServiceClient::shutdown`, e.g.
//! the `tcp_client` example), or `--duration` elapses.
//!
//! ```text
//! prcc-serve --nodes 4 --topology ring --base-port 7400
//! ```

#![forbid(unsafe_code)]

use prcc_clock::EdgeProtocol;
use prcc_graph::PartitionMap;
use prcc_service::config::{build_topology, Args};
use prcc_service::{LoopbackCluster, ServiceConfig};
use std::process::exit;
use std::sync::Arc;
use std::time::Duration;

/// Flags that take a value.
const VALUED: &[&str] = &[
    "--nodes",
    "--topology",
    "--partitions",
    "--seed",
    "--base-port",
    "--batch",
    "--value-bytes",
    "--data-dir",
    "--snapshot-every",
    "--fsync-every",
    "--compact-at",
    "--sample-every",
    "--metrics-every",
    "--duration",
];
/// Flags that take none.
const SWITCHES: &[&str] = &["--help", "--fsync"];

fn run() -> Result<(), String> {
    let args = Args::from_env();
    // Refused up front: a misspelled or value-less durability flag would
    // otherwise serve a volatile cluster and exit 0.
    args.check(VALUED, SWITCHES)?;
    if args.has("--help") {
        println!(
            "prcc-serve: stand up a loopback prcc cluster\n\n\
             \t--nodes N        cluster size (default 4)\n\
             \t--topology T     ring|line|star|clique|figure5|random (default ring)\n\
             \t--partitions P   shards of the register space (default 1)\n\
             \t--seed S         topology seed for 'random' (default 0)\n\
             \t--base-port P    first port; node i uses P+2i (peer) and P+2i+1 (client);\n\
             \t                 0 = ephemeral (default)\n\
             \t--batch N        max updates per peer flush frame (default 64); a link\n\
             \t                 ships what a reactor tick delivered when the tick\n\
             \t                 ends, so there is no flush interval to tune\n\
             \t--value-bytes B  extra payload bytes per update (default 0)\n\
             \t--data-dir PATH  enable durability: per-node WAL + snapshots under PATH\n\
             \t                 (nodes recover their state from it on restart)\n\
             \t--snapshot-every N  WAL records between snapshots (default 4096)\n\
             \t--fsync          group-commit every WAL append (power-loss durability)\n\
             \t--fsync-every N  group-commit cadence: fdatasync every N appends (0 = off)\n\
             \t--compact-at N   live trace events per node, summed over its partitions,\n\
             \t                 before checkpointed compaction seals every acked\n\
             \t                 prefix (default 1024)\n\
             \t--sample-every N sample 1-in-N update lifecycles for the stage\n\
             \t                 histograms (1 = every update, default 16)\n\
             \t--metrics-every S  every S seconds, scrape all nodes over the\n\
             \t                 client wire, merge, and print the text metrics\n\
             \t                 exposition to stderr (0 = off, default); includes\n\
             \t                 the hot-path pool_hits/pool_misses/pool_outstanding\n\
             \t                 and wal_writes series\n\
             \t--duration S     self-terminate after S seconds (default: serve forever)\n\n\
             The process serves until a client sends Shutdown to every node."
        );
        return Ok(());
    }
    let nodes = args.parse_or("--nodes", 4usize)?;
    let duration = args.parse_or("--duration", 0u64)?;
    let topology = args.value("--topology").unwrap_or("ring").to_string();
    let partitions = args.parse_or("--partitions", 1u32)?.max(1);
    let seed = args.parse_or("--seed", 0u64)?;
    let base_port = args.parse_or("--base-port", 0u16)?;
    let cfg = ServiceConfig {
        batch_max: args.parse_or("--batch", 64usize)?.max(1),
        pad_bytes: args.parse_or("--value-bytes", 0usize)?,
        data_dir: args.value("--data-dir").map(std::path::PathBuf::from),
        snapshot_every: args.parse_or("--snapshot-every", 4096u64)?,
        fsync_every: if args.has("--fsync") && args.value("--fsync-every").is_none() {
            1
        } else {
            args.parse_or("--fsync-every", 0u64)?
        },
        trace_compact_at: args.parse_or("--compact-at", 1024usize)?,
        sample_every: args.parse_or("--sample-every", 16u64)?,
        ..ServiceConfig::default()
    };
    let metrics_every = args.parse_or("--metrics-every", 0u64)?;
    let durability = match (&cfg.data_dir, cfg.fsync_every) {
        (None, 0) => "volatile".to_string(),
        (None, _) => return Err("--fsync / --fsync-every need --data-dir".into()),
        (Some(_), 0) => "durable (never fsynced)".to_string(),
        (Some(_), every) => format!("durable (fsync every {every})"),
    };

    let graph = build_topology(&topology, nodes, seed)?;
    let map = PartitionMap::rotated(graph.clone(), partitions, graph.num_replicas())
        .map_err(|e| format!("partition map: {e}"))?;
    let protocol = Arc::new(EdgeProtocol::new(graph.clone()));
    let mut cluster = LoopbackCluster::launch_partitioned(protocol, map, &cfg, base_port)
        .map_err(|e| format!("launch failed: {e}"))?;

    println!(
        "prcc-serve: {} nodes on topology '{topology}' ({} partitions x {} registers, {} keys), {durability}",
        cluster.len(),
        partitions,
        graph.num_registers(),
        cluster.map().num_keys()
    );
    for i in 0..cluster.len() {
        let (peer, client) = cluster.addrs(i);
        println!("  node {i}: peers at {peer}, clients at {client}");
    }
    if metrics_every > 0 {
        // Scrape over the public client wire — the same path any external
        // monitor would use — rather than reaching into the process. The
        // thread is detached: once the nodes shut down every dial fails and
        // the scraper just idles until process exit.
        let addrs: Vec<_> = (0..cluster.len()).map(|i| cluster.addrs(i).1).collect();
        std::thread::spawn(move || loop {
            std::thread::sleep(Duration::from_secs(metrics_every));
            let mut merged: Option<prcc_telemetry::MetricsSnapshot> = None;
            let mut scraped = 0usize;
            for addr in &addrs {
                let Ok(mut client) = prcc_service::ServiceClient::connect(*addr) else {
                    continue;
                };
                let Ok(snap) = client.metrics() else { continue };
                scraped += 1;
                match merged.as_mut() {
                    Some(m) => m.merge(&snap),
                    None => merged = Some(snap),
                }
            }
            if let Some(m) = merged {
                eprintln!(
                    "# prcc metrics ({scraped}/{} nodes)\n{}",
                    addrs.len(),
                    m.render_text()
                );
            }
        });
    }
    if duration > 0 {
        println!("serving for {duration}s.");
        std::thread::sleep(Duration::from_secs(duration));
        cluster
            .shutdown()
            .map_err(|e| format!("shutdown failed: {e}"))?;
    } else {
        println!("serving; send Shutdown via the client API to stop.");
        cluster.join();
    }
    println!("all nodes shut down.");
    Ok(())
}

fn main() {
    if let Err(message) = run() {
        eprintln!("prcc-serve: {message}");
        exit(2);
    }
}
