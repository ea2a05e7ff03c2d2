//! Running a workload: the timed repetitions (each a fresh child
//! process), the layer probes, the traced repetition, and the reduction
//! of their samples to one median per metric.

use crate::catalog::{END_TO_END, PER_LAYER};
use crate::probes::run_probes;
use crate::rep::{run_repetition, Sample};
use crate::results::{Summary, WorkloadResult};
use crate::spec::{generate_scripts, script_digest, RepPlan, ScriptOp, Workload, REPS, WARMUP_MS};
use crate::trace::SpanLog;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// How a repetition is executed.
#[derive(Debug, Clone)]
pub enum Runner {
    /// Spawn `<exe> child <plan file>`: clean RSS, CPU clock and
    /// allocator per repetition. What every real run uses.
    ChildProcess(PathBuf),
    /// Call [`run_repetition`] in this process (the schema test; RSS and
    /// CPU numbers then include the caller).
    InProcess,
}

/// What to run and where.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// `--seed`: the only input to script generation and probe inputs.
    pub seed: u64,
    /// Measured seconds per run; each repetition's window is
    /// `seconds / reps`.
    pub seconds: f64,
    /// Timed repetitions of an end-to-end run ([`REPS`]; the schema test
    /// uses 1).
    pub reps: usize,
    /// Measure the end-to-end list (`reps` untraced repetitions).
    pub end_to_end: bool,
    /// Measure the per-layer list (probes + one traced repetition, on top
    /// of at least one untraced repetition for the boundary counts).
    pub per_layer: bool,
    /// Probe iteration scale (1.0; the schema test uses 0.01).
    pub probe_scale: f64,
    /// Warm-up per repetition in milliseconds ([`WARMUP_MS`]).
    pub warmup_ms: u64,
    /// `<target>/benchmark`: trace files are written here.
    pub bench_dir: PathBuf,
    /// Scratch for plan files and data dirs; the caller removes it.
    pub scratch: PathBuf,
    /// How repetitions are executed.
    pub runner: Runner,
    /// Set when the benchmark pinned itself to one CPU: the CPU list it
    /// was allowed before (`0-1`), which the one all-CPUs repetition of
    /// the per-layer list is released onto with `taskset`.
    pub all_cpus: Option<String>,
}

impl RunOptions {
    /// A real run's options.
    pub fn new(seed: u64, seconds: f64, bench_dir: &Path, scratch: &Path, exe: PathBuf) -> Self {
        RunOptions {
            seed,
            seconds,
            reps: REPS,
            end_to_end: true,
            per_layer: true,
            probe_scale: 1.0,
            warmup_ms: WARMUP_MS,
            bench_dir: bench_dir.to_path_buf(),
            scratch: scratch.to_path_buf(),
            runner: Runner::ChildProcess(exe),
            all_cpus: None,
        }
    }

    /// Where the traced run of `workload` writes its spans.
    pub fn trace_path(&self, workload: &str) -> PathBuf {
        self.bench_dir.join(format!("trace.{workload}.json"))
    }

    fn run_rep(&self, plan: &RepPlan, on_all_cpus: bool) -> Result<Sample, String> {
        match &self.runner {
            Runner::InProcess => run_repetition(plan, Instant::now()),
            Runner::ChildProcess(exe) => {
                static PLAN: AtomicU64 = AtomicU64::new(0);
                let path = self
                    .scratch
                    .join(format!("plan.{}.txt", PLAN.fetch_add(1, Ordering::Relaxed)));
                std::fs::write(&path, plan.encode())
                    .map_err(|e| format!("writing {}: {e}", path.display()))?;
                let mut child = match self.all_cpus.as_deref().filter(|_| on_all_cpus) {
                    None => Command::new(exe),
                    Some(cpus) => {
                        let mut taskset = Command::new("taskset");
                        taskset.args(["-c", cpus]).arg(exe);
                        taskset
                    }
                };
                let output = child
                    .arg("child")
                    .arg(&path)
                    .stdin(Stdio::null())
                    .stderr(Stdio::inherit())
                    .output()
                    .map_err(|e| format!("spawning {}: {e}", exe.display()))?;
                let _ = std::fs::remove_file(&path);
                if !output.status.success() {
                    return Err(format!("repetition child exited with {}", output.status));
                }
                decode_sample(&String::from_utf8_lossy(&output.stdout))
            }
        }
    }
}

/// Renders a sample as the child's stdout: one `name value` line each.
pub fn encode_sample(sample: &Sample) -> String {
    sample.iter().map(|(k, v)| format!("{k} {v}\n")).collect()
}

fn decode_sample(text: &str) -> Result<Sample, String> {
    text.lines()
        .map(|line| {
            line.split_once(' ')
                .and_then(|(k, v)| Some((k.to_string(), v.parse::<f64>().ok()?)))
                .ok_or_else(|| format!("malformed sample line '{line}'"))
        })
        .collect()
}

/// Stage means come from the traced repetition (every update sampled),
/// never from the timed ones.
fn from_traced_run(name: &str) -> bool {
    name == "node.visibility_p99_us" || (name.starts_with("node.") && name.ends_with("_mean_us"))
}

fn get(sample: &Sample, name: &str) -> f64 {
    sample.get(name).copied().unwrap_or(0.0)
}

/// Runs one workload and reduces it to a [`WorkloadResult`].
///
/// # Errors
///
/// Harness failures (launch, I/O, a child that died, a probe whose own
/// check failed). Failed ops and oracle violations are reported in the
/// result, not as errors.
pub fn run_workload(workload: &Workload, opts: &RunOptions) -> Result<WorkloadResult, String> {
    let scripts: Vec<Vec<ScriptOp>> = generate_scripts(workload, opts.seed);
    let digest = script_digest(&scripts);
    let plan = |traced: Option<&SpanLog>| RepPlan {
        workload: *workload,
        warmup_ms: opts.warmup_ms,
        window_ms: ((opts.seconds * 1000.0 / opts.reps.max(1) as f64).round() as u64).max(1),
        sample_every: if traced.is_some() { 1 } else { 16 },
        scratch: opts.scratch.clone(),
        trace_out: traced.map(|_| opts.trace_path(workload.name)),
        parent_spans: traced.map_or_else(Vec::new, |log| log.spans().to_vec()),
        scripts: scripts.clone(),
    };

    let untraced = plan(None);
    let reps = if opts.end_to_end { opts.reps.max(1) } else { 1 };
    let mut samples = Vec::with_capacity(reps + 1);
    for _ in 0..reps {
        samples.push(opts.run_rep(&untraced, false)?);
    }
    let over_reps = |name: &str| -> Summary {
        let values: Vec<f64> = samples[..reps].iter().map(|s| get(s, name)).collect();
        Summary::of(&values)
    };
    let mut notes = vec![format!(
        "closed loop, 4 connections on 4 driver threads; loopback with no injected message \
         delay, so latency is processor time only; {} ops ({} writes, {} reads) timed in the \
         median repetition's {} ms window",
        over_reps("ops").median,
        over_reps("writes").median,
        over_reps("reads").median,
        untraced.window_ms
    )];
    let steal = over_reps("host.steal_ms");
    notes.push(format!(
        "hypervisor steal during the windows: {:.0}..{:.0} ms per repetition",
        steal.min, steal.max
    ));
    let end_to_end = if opts.end_to_end {
        END_TO_END
            .iter()
            .map(|def| (def.name.to_string(), over_reps(def.name)))
            .collect()
    } else {
        Vec::new()
    };

    let mut per_layer = Vec::new();
    let mut traced_ops = 0;
    if opts.per_layer {
        let mut log = SpanLog::new(true, 1);
        let probed = run_probes(
            workload,
            opts.seed,
            opts.probe_scale,
            &opts.scratch,
            &mut log,
        )?;
        let traced = opts.run_rep(&plan(Some(&log)), false)?;
        let unpinned = opts.run_rep(&untraced, true)?;
        let pinned_ops_s = over_reps("throughput_ops_s").median.max(f64::MIN_POSITIVE);
        let ops_s = |sample: &Sample| get(sample, "throughput_ops_s");
        for def in PER_LAYER {
            let probe = probed.iter().find(|(name, _)| name == def.name);
            let summary = match (probe, def.name) {
                (Some((_, summary)), _) => *summary,
                (None, "telemetry.trace_overhead_pct") => {
                    Summary::of(&[100.0 * (pinned_ops_s - ops_s(&traced)) / pinned_ops_s])
                }
                (None, "parallel.all_cpus_throughput_ops_s") => Summary::of(&[ops_s(&unpinned)]),
                (None, "parallel.all_cpus_speedup") => {
                    Summary::of(&[ops_s(&unpinned) / pinned_ops_s])
                }
                (None, name) if from_traced_run(name) => Summary::of(&[get(&traced, name)]),
                (None, name) => over_reps(name),
            };
            per_layer.push((def.name.to_string(), summary));
        }
        // Where an update's visibility latency goes, from the traced run
        // (sample_every 1). wire_us is measured from the issue stamp, so
        // it contains send_us; the residual is apply + unattributed.
        let t = |name: &str| get(&traced, name);
        let (send, wire, stall, visibility) = (
            t("node.send_mean_us"),
            t("node.wire_mean_us"),
            t("node.pending_stall_mean_us"),
            t("visibility_mean_us"),
        );
        notes.push(format!(
            "closure (traced run): visibility {visibility:.1} us = send {send:.1} + transit \
             {:.1} (wire {wire:.1} - send) + pending stall {stall:.1} + residual {:.1}",
            wire - send,
            visibility - wire - stall
        ));
        traced_ops = get(&traced, "ops") as u64;
        notes.push(format!(
            "traced run: {} op spans for {traced_ops} ops in {}",
            get(&traced, "op_spans"),
            opts.trace_path(workload.name).display()
        ));
        samples.push(traced);
        samples.push(unpinned);
    }

    let total = |name: &str| samples.iter().map(|s| get(s, name)).sum::<f64>() as u64;
    let attempted = total("attempted");
    let consistent = samples.iter().all(|s| get(s, "consistent") == 1.0);
    Ok(WorkloadResult {
        name: workload.name.to_string(),
        script_digest: digest,
        attempted,
        // An oracle violation fails every op: nothing the run returned
        // can be trusted.
        failed: if consistent {
            total("failed")
        } else {
            attempted
        },
        // The traced run keeps one span per op it reports.
        correct: consistent
            && samples[reps..]
                .first()
                .is_none_or(|traced| get(traced, "op_spans") == get(traced, "ops")),
        traced_ops,
        end_to_end,
        per_layer,
        notes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_survive_the_child_pipe() {
        let sample: Sample = [
            ("setup_s".to_string(), 1.0312345678),
            ("ops".to_string(), 3e5),
        ]
        .into_iter()
        .collect();
        assert_eq!(decode_sample(&encode_sample(&sample)).unwrap(), sample);
        assert!(decode_sample("no-value\n").is_err());
    }

    #[test]
    fn stage_means_are_taken_from_the_traced_run() {
        assert!(from_traced_run("node.send_mean_us"));
        assert!(from_traced_run("node.visibility_p99_us"));
        assert!(!from_traced_run("node.updates_per_batch"));
        assert!(!from_traced_run("visibility_mean_us"));
    }
}
