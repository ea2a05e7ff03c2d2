//! `prcc-perf` — run the benchmark, or compare two result files.
//!
//! ```text
//! prcc-perf --seed 7                      every workload, both metric lists;
//!                                         writes <target>/benchmark/results.json
//! prcc-perf --seed 7 --out set1.json      same, results to set1.json
//! prcc-perf --workload ring4_write_volatile --seed 3 --seconds 24 --trace 0
//!                                         one workload; --trace 0 = end-to-end
//!                                         list, --trace 1 = per-layer list; the
//!                                         last stdout line is one JSON object
//! prcc-perf diff set1.json set2.json      per workload x metric: medians,
//!                                         change, bound, ok/worse/unresolved;
//!                                         exits 1 on any end-to-end `worse`
//! ```

#![forbid(unsafe_code)]

use prcc_perf::rep::{run_repetition, RemoveOnDrop};
use prcc_perf::results::{diff, ResultSet};
use prcc_perf::run::{encode_sample, run_workload, RunOptions};
use prcc_perf::spec::{RepPlan, Workload, WORKLOADS};
use prcc_service::config::Args;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

/// `BENCHMARK.json`'s `run_seconds`: three repetitions of 8 s.
const DEFAULT_SECONDS: f64 = 24.0;

/// One repetition in a fresh process: `prcc-perf child <plan file>`.
fn child(args: &[String], started: Instant) -> Result<ExitCode, String> {
    let path = args.first().ok_or("child: missing plan file")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let sample = run_repetition(&RepPlan::decode(&text)?, started)?;
    print!("{}", encode_sample(&sample));
    Ok(ExitCode::SUCCESS)
}

fn diff_files(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err("usage: prcc-perf diff <a.json> <b.json>".into());
    };
    let load = |path: &String| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("reading {path}: {e}"))
            .and_then(|text| ResultSet::from_json(&text).map_err(|e| format!("{path}: {e}")))
    };
    let (table, any_worse) = diff(&load(a)?, &load(b)?);
    print!("{table}");
    Ok(if any_worse {
        println!("verdict: at least one end-to-end metric is worse than its bound allows");
        ExitCode::FAILURE
    } else {
        println!("verdict: no end-to-end metric worsened beyond its bound");
        ExitCode::SUCCESS
    })
}

/// Pins this process — and with it every repetition and probe it starts —
/// to the last CPU it may run on, and returns the CPU list it was allowed
/// before. Cluster and clients then share one always-busy CPU: no
/// cross-CPU wake-up IPIs and no halted vCPU to wake, which on the 2-vCPU
/// reference VM are three quarters of the run-to-run spread (README).
fn pin_to_one_cpu() -> Option<String> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let allowed = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?
        .trim();
    let last = allowed.rsplit([',', '-']).next()?;
    Command::new("taskset")
        .args(["-cp", last, &std::process::id().to_string()])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .is_ok_and(|status| status.success())
        .then(|| allowed.to_string())
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Where and on what the numbers were taken; warns when the box is busy.
fn environment(all_cpus: Option<&str>) -> Vec<(String, String)> {
    let read = |path: &str| {
        std::fs::read_to_string(path).map_or_else(|_| "unknown".into(), |s| s.trim().to_string())
    };
    // Counted from cpuinfo: this process is already pinned to one CPU, so
    // `available_parallelism` would say 1.
    let nproc = read("/proc/cpuinfo")
        .lines()
        .filter(|line| line.starts_with("processor"))
        .count()
        .max(1);
    let loadavg = read("/proc/loadavg");
    let load1: f64 = loadavg
        .split_whitespace()
        .next()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.0);
    if load1 > 0.5 * nproc as f64 {
        eprintln!(
            "prcc-perf: warning: 1-min loadavg {load1} exceeds half of {nproc} cores; \
             numbers from a busy box spread wider than the bounds assume"
        );
    }
    vec![
        ("nproc".into(), nproc.to_string()),
        (
            "cpus".into(),
            all_cpus.map_or("not pinned".into(), |cpus| {
                format!("pinned to the last of {cpus}")
            }),
        ),
        ("kernel".into(), read("/proc/sys/kernel/osrelease")),
        ("rustc".into(), command_line("rustc", &["--version"])),
        ("commit".into(), command_line("git", &["rev-parse", "HEAD"])),
        ("loadavg_at_start".into(), loadavg),
    ]
}

fn bench(args: &Args) -> Result<ExitCode, String> {
    if args.has("--help") {
        println!(
            "prcc-perf: the repo's benchmark\n\n\
             \t--seed S       script and probe-input seed (default 7)\n\
             \t--seconds N    measured seconds per workload run (default {DEFAULT_SECONDS})\n\
             \t--workload W   run one workload and end with one JSON result line\n\
             \t--trace 0|1    with --workload: 0 = end-to-end list, 1 = per-layer list\n\
             \t--out PATH     all-workload run: results file\n\
             \t               (default <target>/benchmark/results.json)\n\
             \tdiff A B       compare two results files against the bounds\n\n\
             workloads: {}",
            WORKLOADS.map(|w| w.name).join(", ")
        );
        return Ok(ExitCode::SUCCESS);
    }
    let seed = args.parse_or("--seed", 7u64)?;
    let seconds = args.parse_or("--seconds", DEFAULT_SECONDS)?;
    if !(seconds > 0.0 && seconds <= 3600.0) {
        return Err(format!("--seconds {seconds} is out of range"));
    }
    // <target>/<profile>/prcc-perf → <target>/benchmark: scratch data
    // dirs, plan files and traces stay inside the build directory.
    let exe = std::env::current_exe().map_err(|e| format!("locating this executable: {e}"))?;
    let bench_dir = exe
        .parent()
        .and_then(Path::parent)
        .ok_or("this executable has no target directory above it")?
        .join("benchmark");
    let scratch = RemoveOnDrop(bench_dir.join(format!("run.{}", std::process::id())));
    std::fs::create_dir_all(&scratch.0)
        .map_err(|e| format!("creating {}: {e}", scratch.0.display()))?;
    let mut opts = RunOptions::new(seed, seconds, &bench_dir, &scratch.0, exe);
    opts.all_cpus = pin_to_one_cpu();
    match &opts.all_cpus {
        Some(allowed) => println!("pinned to the last of CPUs {allowed}"),
        None => eprintln!(
            "prcc-perf: warning: could not pin to one CPU (no taskset?); \
             unpinned runs spread several times wider than the bounds assume"
        ),
    }

    if let Some(name) = args.value("--workload") {
        let workload = Workload::by_name(name).ok_or_else(|| {
            format!(
                "unknown workload '{name}' ({})",
                WORKLOADS.map(|w| w.name).join("|")
            )
        })?;
        match args.value("--trace") {
            None => {}
            Some("0") => opts.per_layer = false,
            Some("1") => opts.end_to_end = false,
            Some(other) => return Err(format!("invalid --trace '{other}' (0|1)")),
        }
        let result = run_workload(&workload, &opts)?;
        print!("seed {seed}, {seconds} s\n{}", result.render());
        println!("{}", result.driver_line());
        return Ok(if result.correct && result.failed == 0 {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        });
    }

    let env = environment(opts.all_cpus.as_deref());
    println!("prcc-perf: seed {seed}, {seconds} s per workload");
    for (key, value) in &env {
        println!("  {key}: {value}");
    }
    let mut set = ResultSet {
        seed,
        seconds,
        env,
        workloads: Vec::new(),
    };
    for workload in &WORKLOADS {
        let result = run_workload(workload, &opts)?;
        print!("{}", result.render());
        set.workloads.push(result);
    }
    let out = args
        .value("--out")
        .map_or_else(|| bench_dir.join("results.json"), PathBuf::from);
    std::fs::write(&out, set.to_json()).map_err(|e| format!("writing {}: {e}", out.display()))?;
    println!("results written to {}", out.display());
    let verified = set.workloads.iter().all(|w| w.correct && w.failed == 0);
    Ok(if verified {
        ExitCode::SUCCESS
    } else {
        eprintln!("prcc-perf: some operations failed or an oracle verdict was not clean");
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let started = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.first().map(String::as_str) {
        Some("child") => child(&argv[1..], started),
        Some("diff") => diff_files(&argv[1..]),
        _ => bench(&Args::from_vec(argv)),
    };
    outcome.unwrap_or_else(|message| {
        eprintln!("prcc-perf: {message}");
        ExitCode::from(2)
    })
}
