//! Workload definitions, seeded script generation, and the plan file a
//! repetition's child process is handed: the child receives the generated
//! scripts and the fixed configuration, never the seed.

use crate::trace::Span;
use prcc_graph::{PartitionId, PartitionMap, RegisterId, ShareGraph};
use prcc_service::config::build_topology;
use prcc_workloads::ops::{generate_keyed_ops, route_keyed_ops};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::fmt::Write as _;
use std::path::PathBuf;

/// Cluster shape shared by every workload: 4 nodes x 8 partitions, one
/// closed-loop client connection per node on its own driver thread.
/// 4 in flight keeps the processor saturated: 2 is bimodal on the
/// reference VM (its idle-wake), 8 and 16 spread again (README).
pub const NODES: usize = 4;
/// Partitions of the register space.
pub const PARTITIONS: u32 = 8;
/// Keyed ops generated per script set; each client cycles its share.
pub const SCRIPT_OPS: usize = 32_768;
/// Timed repetitions per end-to-end run; a metric is their median.
pub const REPS: usize = 3;
/// Warm-up before each measure window.
pub const WARMUP_MS: u64 = 1000;

/// One benchmark workload: a traffic mix on a topology.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    /// Final name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Share-graph family (`prcc_service::config::build_topology`).
    pub topology: &'static str,
    /// Fraction of client ops issued as reads.
    pub read_pct: f64,
    /// Extra value bytes per write.
    pub value_bytes: usize,
    /// WAL + snapshots on, `snapshot_every 4096`, `fsync_every 8`; the
    /// repetition also crashes node 1 after the window, restarts it from
    /// its data dir and verifies the complete trace.
    pub durable: bool,
    /// Why the workload exists (one line, as in `BENCHMARK.json`).
    pub why: &'static str,
}

/// The four workloads. Names are final.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "ring4_write_volatile",
        topology: "ring",
        read_pct: 0.0,
        value_bytes: 0,
        durable: false,
        why: "ring-4, write-only, 0 B, no data dir: node/reactor/wire/peer batching do all the work, storage none",
    },
    Workload {
        name: "ring4_write_wal256",
        topology: "ring",
        read_pct: 0.0,
        value_bytes: 256,
        durable: true,
        why: "ring-4, write-only, 256 B, WAL on (snapshot 4096, fsync every 8), crash/restart verified: storage dominates",
    },
    Workload {
        name: "ring4_read90_volatile",
        topology: "ring",
        read_pct: 0.9,
        value_bytes: 0,
        durable: false,
        why: "ring-4, 90% reads: the request path without wire, pending or storage, so a write-side gain that costs reads shows",
    },
    Workload {
        name: "clique4_write_volatile",
        topology: "clique",
        read_pct: 0.0,
        value_bytes: 0,
        durable: false,
        why: "clique-4 full replication, write-only: 3 peers and a 12-edge clock per write, so clock/core/wire do ~3x the work",
    },
];

impl Workload {
    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// The workload's share graph.
    pub fn graph(&self) -> ShareGraph {
        build_topology(self.topology, NODES, 0).expect("fixed topologies build")
    }

    /// The workload's partition map.
    pub fn map(&self) -> PartitionMap {
        PartitionMap::rotated(self.graph(), PARTITIONS, NODES).expect("4 roles on 4 nodes")
    }
}

/// One scripted client op at a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScriptOp {
    /// Target partition.
    pub partition: PartitionId,
    /// Target register.
    pub register: RegisterId,
    /// Value written (ignored by reads).
    pub value: u64,
    /// Issue as a read.
    pub read: bool,
}

/// Generates the per-node client scripts: `--seed` is the only input
/// besides the workload's fixed shape.
pub fn generate_scripts(workload: &Workload, seed: u64) -> Vec<Vec<ScriptOp>> {
    let map = workload.map();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let ops = generate_keyed_ops(&map, SCRIPT_OPS, None, &mut rng);
    route_keyed_ops(&map, &ops)
        .into_iter()
        .map(|script| {
            script
                .into_iter()
                .map(|(partition, register, value)| ScriptOp {
                    partition,
                    register,
                    value,
                    read: workload.read_pct > 0.0 && rng.gen_bool(workload.read_pct),
                })
                .collect()
        })
        .collect()
}

/// FNV-1a over the scripts — recorded with results so two runs can be
/// shown to have driven the same inputs.
pub fn script_digest(scripts: &[Vec<ScriptOp>]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |v: u64| {
        for byte in v.to_le_bytes() {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for script in scripts {
        eat(script.len() as u64);
        for op in script {
            eat(u64::from(op.partition.0));
            eat(u64::from(op.register.0));
            eat(op.value);
            eat(u64::from(op.read));
        }
    }
    hash
}

/// Everything one repetition needs. Serialized to a plan file for the
/// child process; the schema test passes it in-process.
#[derive(Debug, Clone, PartialEq)]
pub struct RepPlan {
    /// The workload (by name in the plan file).
    pub workload: Workload,
    /// Warm-up length in milliseconds.
    pub warmup_ms: u64,
    /// Measure window in milliseconds.
    pub window_ms: u64,
    /// `ServiceConfig::sample_every`: 16 shipping, 1 in the traced run.
    pub sample_every: u64,
    /// Scratch directory for the data dir (durable workloads).
    pub scratch: PathBuf,
    /// Traced run: record harness spans and write them here.
    pub trace_out: Option<PathBuf>,
    /// Spans recorded by the parent (probe batches), to be written with
    /// the repetition's own.
    pub parent_spans: Vec<Span>,
    /// Per-node client scripts.
    pub scripts: Vec<Vec<ScriptOp>>,
}

impl RepPlan {
    /// Renders the plan file.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "workload {}", self.workload.name);
        let _ = writeln!(out, "warmup_ms {}", self.warmup_ms);
        let _ = writeln!(out, "window_ms {}", self.window_ms);
        let _ = writeln!(out, "sample_every {}", self.sample_every);
        let _ = writeln!(out, "scratch {}", self.scratch.display());
        if let Some(path) = &self.trace_out {
            let _ = writeln!(out, "trace_out {}", path.display());
        }
        for span in &self.parent_spans {
            let _ = writeln!(out, "span {}", span.encode());
        }
        for script in &self.scripts {
            let _ = writeln!(out, "script {}", script.len());
            for op in script {
                let _ = writeln!(
                    out,
                    "{} {} {} {}",
                    op.partition.0,
                    op.register.0,
                    op.value,
                    u8::from(op.read)
                );
            }
        }
        out
    }

    /// Parses a plan file.
    ///
    /// # Errors
    ///
    /// Names the first malformed line.
    pub fn decode(text: &str) -> Result<RepPlan, String> {
        let mut plan = RepPlan {
            workload: WORKLOADS[0],
            warmup_ms: WARMUP_MS,
            window_ms: 0,
            sample_every: 16,
            scratch: PathBuf::new(),
            trace_out: None,
            parent_spans: Vec::new(),
            scripts: Vec::new(),
        };
        let mut lines = text.lines();
        while let Some(line) = lines.next() {
            let bad = || format!("plan file: malformed line '{line}'");
            let (key, rest) = line.split_once(' ').ok_or_else(bad)?;
            let number = || rest.parse::<u64>().map_err(|_| bad());
            match key {
                "workload" => plan.workload = Workload::by_name(rest).ok_or_else(bad)?,
                "warmup_ms" => plan.warmup_ms = number()?,
                "window_ms" => plan.window_ms = number()?,
                "sample_every" => plan.sample_every = number()?,
                "scratch" => plan.scratch = PathBuf::from(rest),
                "trace_out" => plan.trace_out = Some(PathBuf::from(rest)),
                "span" => plan.parent_spans.push(Span::decode(rest).ok_or_else(bad)?),
                "script" => {
                    let count = number()? as usize;
                    let mut script = Vec::with_capacity(count.min(SCRIPT_OPS));
                    for _ in 0..count {
                        let op_line = lines.next().ok_or("plan file: truncated script")?;
                        let mut fields = op_line.split(' ').map(str::parse::<u64>);
                        let mut next = || fields.next().and_then(Result::ok);
                        match (next(), next(), next(), next()) {
                            (Some(p), Some(x), Some(value), Some(read)) => script.push(ScriptOp {
                                partition: PartitionId(p as u32),
                                register: RegisterId(x as u32),
                                value,
                                read: read == 1,
                            }),
                            _ => return Err(format!("plan file: malformed op '{op_line}'")),
                        }
                    }
                    plan.scripts.push(script);
                }
                _ => return Err(bad()),
            }
        }
        if plan.scripts.len() != NODES || plan.window_ms == 0 {
            return Err("plan file: needs a window and one script per node".into());
        }
        Ok(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_seed_alone_decides_the_scripts() {
        for workload in &WORKLOADS {
            let a = script_digest(&generate_scripts(workload, 7));
            let b = script_digest(&generate_scripts(workload, 7));
            let c = script_digest(&generate_scripts(workload, 8));
            assert_eq!(a, b, "{}: same seed, different scripts", workload.name);
            assert_ne!(a, c, "{}: different seed, same scripts", workload.name);
        }
    }

    #[test]
    fn scripts_follow_the_workload_shape() {
        for workload in &WORKLOADS {
            let scripts = generate_scripts(workload, 3);
            assert_eq!(scripts.len(), NODES);
            let total: usize = scripts.iter().map(Vec::len).sum();
            assert_eq!(total, SCRIPT_OPS);
            let reads = scripts.iter().flatten().filter(|op| op.read).count();
            let share = reads as f64 / total as f64;
            assert!(
                (share - workload.read_pct).abs() < 0.02,
                "{}",
                workload.name
            );
            // Every node gets work, or a driver thread would spin on nothing.
            assert!(scripts.iter().all(|s| s.len() > SCRIPT_OPS / 16));
        }
    }

    #[test]
    fn plan_files_round_trip() {
        let workload = WORKLOADS[2];
        let plan = RepPlan {
            workload,
            warmup_ms: 10,
            window_ms: 300,
            sample_every: 1,
            scratch: PathBuf::from("/tmp/some dir"),
            trace_out: Some(PathBuf::from("target/benchmark/trace.x.json")),
            parent_spans: vec![Span {
                id: 3,
                parent: 1,
                name: "probe.clock.advance_ns".into(),
                op: 0,
                node: 0,
                start_ns: 5,
                end_ns: 9,
            }],
            scripts: generate_scripts(&workload, 1),
        };
        assert_eq!(RepPlan::decode(&plan.encode()).unwrap(), plan);
        assert!(RepPlan::decode("workload nope\n").is_err());
        assert!(RepPlan::decode("script 2\n0 0 0 0\n").is_err());
    }
}
