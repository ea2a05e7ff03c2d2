//! Schema smoke test: every workload through the library entry point at
//! a 0.3 s measure window, one repetition, probes at 1/100 iterations.
//! Checks names, units, presence and the verdict — never a timing, so the
//! suite stays load-independent.

use prcc_perf::catalog::{MetricDef, END_TO_END, PER_LAYER};
use prcc_perf::json::Json;
use prcc_perf::results::WorkloadResult;
use prcc_perf::run::{run_workload, RunOptions, Runner};
use prcc_perf::spec::{Workload, WORKLOADS};
use std::path::PathBuf;

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
        .expect("BENCHMARK.json parses")
}

fn text<'a>(entry: &'a Json, key: &str) -> &'a str {
    entry
        .get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("entry {entry:?} lacks string '{key}'"))
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn benchmark_json_lists_exactly_the_catalogue() {
    let doc = benchmark_json();
    let keys: Vec<&str> = doc
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    assert_eq!(
        doc.get("paths").unwrap().as_arr().unwrap(),
        [Json::Str("crates/perf".into())]
    );
    let workloads = doc.get("workloads").unwrap().as_arr().unwrap();
    assert_eq!(workloads.len(), WORKLOADS.len());
    for (listed, workload) in workloads.iter().zip(&WORKLOADS) {
        assert_eq!(text(listed, "name"), workload.name);
        assert_eq!(text(listed, "why"), workload.why);
        assert!(well_formed(workload.name) && workload.why.len() <= 200);
    }
    let check = |key: &str, defs: &[MetricDef], bounded: bool| {
        let listed = doc.get(key).unwrap().as_arr().unwrap();
        assert_eq!(listed.len(), defs.len(), "{key}");
        for (entry, def) in listed.iter().zip(defs) {
            assert_eq!(text(entry, "name"), def.name);
            assert_eq!(text(entry, "unit"), def.unit, "{}", def.name);
            assert_eq!(text(entry, "better"), def.better.as_str(), "{}", def.name);
            assert_eq!(
                entry.get("bound").and_then(Json::as_f64),
                bounded.then_some(def.bound),
                "{}",
                def.name
            );
            assert!(well_formed(def.name), "{}", def.name);
            assert!(def.unit.len() <= 16 && !def.unit.is_empty(), "{}", def.name);
            assert!(
                !bounded || (def.bound > 0.0 && def.bound <= 0.25),
                "{}",
                def.name
            );
        }
    };
    check("end_to_end", END_TO_END, true);
    check("per_layer", PER_LAYER, false);
    assert!(END_TO_END
        .iter()
        .any(|m| m.name == "setup_s" && m.unit == "s"));
    let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.name).collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(
        names.len(),
        END_TO_END.len() + PER_LAYER.len(),
        "a name is used twice"
    );
}

/// One workload, smoke-sized, in this process.
fn smoke(workload: &Workload) -> (WorkloadResult, PathBuf) {
    let bench_dir =
        PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("schema.{}", workload.name));
    let scratch = bench_dir.join("scratch");
    std::fs::create_dir_all(&scratch).unwrap();
    let opts = RunOptions {
        reps: 1,
        probe_scale: 0.01,
        warmup_ms: 100,
        runner: Runner::InProcess,
        ..RunOptions::new(11, 0.3, &bench_dir, &scratch, PathBuf::new())
    };
    let result = run_workload(workload, &opts).unwrap_or_else(|e| panic!("{}: {e}", workload.name));
    let trace = opts.trace_path(workload.name);
    // Scratch holds plan files and data dirs; every exit path of a
    // repetition removes its own, so nothing may be left behind.
    let leftovers: Vec<_> = std::fs::read_dir(&scratch).unwrap().flatten().collect();
    assert!(
        leftovers.is_empty(),
        "{}: scratch not clean: {leftovers:?}",
        workload.name
    );
    (result, trace)
}

fn check_workload(workload: &Workload) {
    let (result, trace) = smoke(workload);
    let name = workload.name;
    assert!(
        result.correct,
        "{name}: oracle verdict or span count off:\n{}",
        result.render()
    );
    assert_eq!(result.failed, 0, "{name}");
    assert_eq!(result.failed_ops_pct(), 0.0, "{name}");
    assert!(result.attempted > 0, "{name}");

    for (list, defs) in [
        (&result.end_to_end, END_TO_END),
        (&result.per_layer, PER_LAYER),
    ] {
        let emitted: Vec<&str> = list.iter().map(|(n, _)| n.as_str()).collect();
        let listed: Vec<&str> = defs.iter().map(|m| m.name).collect();
        assert_eq!(emitted, listed, "{name}");
        for (metric, summary) in list {
            for value in [summary.median, summary.min, summary.max] {
                assert!(value.is_finite(), "{name}: {metric} = {value}");
            }
            assert!(summary.n >= 1, "{name}: {metric}");
        }
    }
    let value = |metric: &str| {
        let all = result.end_to_end.iter().chain(&result.per_layer);
        all.clone().find(|(n, _)| n == metric).unwrap().1.median
    };
    // Present wherever the workload defines them (no magnitudes asserted).
    for metric in [
        "throughput_ops_s",
        "op_p50_us",
        "write_p50_us",
        "client.op_p99_us",
        "rss_peak_mb",
        "setup_s",
    ] {
        assert!(value(metric) > 0.0, "{name}: {metric} is not positive");
    }
    assert_eq!(
        value("storage.recover_ms") > 0.0,
        workload.durable,
        "{name}"
    );
    assert_eq!(
        value("node.wal_writes_per_op") > 0.0,
        workload.durable,
        "{name}"
    );
    assert_eq!(
        value("client.read_p50_us") > 0.0,
        workload.read_pct > 0.0,
        "{name}"
    );
    for probe in [
        "clock.advance_ns",
        "core.apply_ns",
        "wire.encode_ns_per_update_b64",
        "storage.append_ns_per_record_b16",
        "reactor.echo_frames_s",
        "checker.verify_events_s",
    ] {
        assert!(value(probe) > 0.0, "{name}: {probe} is not positive");
    }
    let expected_entries = if workload.topology == "clique" {
        4.0
    } else {
        8.0
    };
    assert_eq!(
        value("lowerbound.entries_per_ts"),
        expected_entries,
        "{name}"
    );

    // The driver's result line: exactly four keys, every metric with the
    // catalogue's unit.
    let line = Json::parse(&result.driver_line()).unwrap();
    let keys: Vec<&str> = line
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        ["correct", "attempted", "failed", "metrics"],
        "{name}"
    );
    let metrics = line.get("metrics").unwrap().as_obj().unwrap();
    assert_eq!(metrics.len(), END_TO_END.len() + PER_LAYER.len(), "{name}");
    for ((metric, entry), def) in metrics.iter().zip(END_TO_END.iter().chain(PER_LAYER)) {
        assert_eq!(metric, def.name);
        assert_eq!(text(entry, "unit"), def.unit, "{name}: {metric}");
        assert!(
            entry.get("value").and_then(Json::as_f64).is_some(),
            "{name}: {metric}"
        );
    }

    // The traced run's span file: one op span per op it reports, phase
    // spans, and the probe batches.
    let doc = Json::parse(&std::fs::read_to_string(&trace).unwrap()).unwrap();
    let spans = doc.get("spans").unwrap().as_arr().unwrap();
    let count = |prefix: &str| {
        spans
            .iter()
            .filter(|s| text(s, "name").starts_with(prefix))
            .count()
    };
    assert!(result.traced_ops > 0, "{name}");
    assert_eq!(count("op.") as u64, result.traced_ops, "{name}");
    assert_eq!(count("op.read") > 0, workload.read_pct > 0.0, "{name}");
    assert!(count("phase.") >= 5 && count("probe.") >= 20, "{name}");
    assert_eq!(
        count("phase.recover"),
        usize::from(workload.durable),
        "{name}"
    );
    let mut ids: Vec<u64> = spans
        .iter()
        .map(|s| s.get("id").unwrap().as_f64().unwrap() as u64)
        .collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), spans.len(), "{name}: span ids collide");
}

#[test]
fn ring4_write_volatile_emits_the_schema() {
    check_workload(&WORKLOADS[0]);
}

#[test]
fn ring4_write_wal256_emits_the_schema_across_its_crash_restart() {
    check_workload(&WORKLOADS[1]);
}

#[test]
fn ring4_read90_volatile_emits_the_schema() {
    check_workload(&WORKLOADS[2]);
}

#[test]
fn clique4_write_volatile_emits_the_schema() {
    check_workload(&WORKLOADS[3]);
}
