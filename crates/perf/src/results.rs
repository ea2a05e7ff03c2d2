//! Result documents: a median with its spread per metric per workload,
//! the JSON file a full run writes, and `prcc-perf diff`, which holds two
//! such files against the bounds in [`crate::catalog`].

use crate::catalog::{self, Better, MetricDef};
use crate::json::Json;
use std::fmt::Write as _;

/// A metric's value over the repetitions (or probe batches) of one run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// The reported value.
    pub median: f64,
    /// Smallest repetition.
    pub min: f64,
    /// Largest repetition.
    pub max: f64,
    /// Repetitions summarized.
    pub n: usize,
}

impl Summary {
    /// Summarizes `values` (all zero when empty).
    pub fn of(values: &[f64]) -> Summary {
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let median = match n {
            0 => 0.0,
            n if n % 2 == 1 => sorted[n / 2],
            n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
        };
        Summary {
            median,
            min: sorted.first().copied().unwrap_or(0.0),
            max: sorted.last().copied().unwrap_or(0.0),
            n,
        }
    }

    /// `(max - min) / median`: the run-to-run spread as a share of the
    /// median (0 for a zero median).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.max - self.min) / self.median.abs()
        }
    }

    fn to_json(self, unit: &str) -> Json {
        Json::obj([
            ("unit", Json::Str(unit.to_string())),
            ("median", Json::Num(self.median)),
            ("min", Json::Num(self.min)),
            ("max", Json::Num(self.max)),
            ("n", Json::Num(self.n as f64)),
        ])
    }

    fn from_json(value: &Json) -> Option<Summary> {
        Some(Summary {
            median: value.get("median")?.as_f64()?,
            min: value.get("min")?.as_f64()?,
            max: value.get("max")?.as_f64()?,
            n: value.get("n")?.as_f64()? as usize,
        })
    }
}

fn unit_of(metric: &str) -> &'static str {
    catalog::find(metric).map_or("", |m| m.unit)
}

/// Everything measured on one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadResult {
    /// Workload name.
    pub name: String,
    /// Digest of the seeded client scripts that were driven.
    pub script_digest: u64,
    /// Client ops attempted over all repetitions, warm-up included.
    pub attempted: u64,
    /// Ops rejected or errored — all of them if the oracle found a
    /// safety or liveness violation.
    pub failed: u64,
    /// Every repetition's oracle verdict was clean (for the durable
    /// workload: across its crash/restart) and the traced run wrote one
    /// span per op it reports.
    pub correct: bool,
    /// Ops the traced repetition timed (0 on a `--trace 0` run); its span
    /// file holds exactly this many `op.*` spans.
    pub traced_ops: u64,
    /// End-to-end metrics, in catalogue order (empty on a `--trace 1` run).
    pub end_to_end: Vec<(String, Summary)>,
    /// Per-layer metrics, in catalogue order (empty on a `--trace 0` run).
    pub per_layer: Vec<(String, Summary)>,
    /// Human-readable remarks (sample counts, the closure line).
    pub notes: Vec<String>,
}

impl WorkloadResult {
    /// `100 * failed / attempted`.
    pub fn failed_ops_pct(&self) -> f64 {
        if self.attempted == 0 {
            100.0
        } else {
            100.0 * self.failed as f64 / self.attempted as f64
        }
    }

    /// The human-readable report: every metric by name with its unit.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "workload {} (script digest {:016x})",
            self.name, self.script_digest
        );
        for (title, metrics) in [
            ("end to end", &self.end_to_end),
            ("per layer", &self.per_layer),
        ] {
            if metrics.is_empty() {
                continue;
            }
            let _ = writeln!(out, "  {title}:");
            for (name, s) in metrics {
                let _ = writeln!(
                    out,
                    "    {name:<42} {:>14.3} {:<10} (min {:.3}, max {:.3}, n {})",
                    s.median,
                    unit_of(name),
                    s.min,
                    s.max,
                    s.n
                );
            }
        }
        let _ = writeln!(
            out,
            "  failed_ops_pct {:.4} % ({} of {} ops); verdict: {}",
            self.failed_ops_pct(),
            self.failed,
            self.attempted,
            if self.correct {
                "causally consistent, outputs verified"
            } else {
                "NOT VERIFIED"
            }
        );
        for note in &self.notes {
            let _ = writeln!(out, "  {note}");
        }
        out
    }

    /// The driver's result line: the metrics of the lists that were run.
    pub fn driver_line(&self) -> String {
        let metrics = self
            .end_to_end
            .iter()
            .chain(&self.per_layer)
            .map(|(name, s)| {
                (
                    name.clone(),
                    Json::obj([
                        ("value", Json::Num(s.median)),
                        ("unit", Json::Str(unit_of(name).to_string())),
                    ]),
                )
            });
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted.max(1) as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::obj(metrics)),
        ])
        .compact()
    }

    fn to_json(&self) -> Json {
        let list = |metrics: &[(String, Summary)]| {
            Json::obj(
                metrics
                    .iter()
                    .map(|(name, s)| (name.clone(), s.to_json(unit_of(name)))),
            )
        };
        Json::obj([
            (
                "script_digest",
                Json::Str(format!("{:016x}", self.script_digest)),
            ),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("failed_ops_pct", Json::Num(self.failed_ops_pct())),
            ("correct", Json::Bool(self.correct)),
            ("traced_ops", Json::Num(self.traced_ops as f64)),
            ("end_to_end", list(&self.end_to_end)),
            ("per_layer", list(&self.per_layer)),
            (
                "notes",
                Json::Arr(self.notes.iter().cloned().map(Json::Str).collect()),
            ),
        ])
    }

    fn from_json(name: &str, value: &Json) -> Option<WorkloadResult> {
        let list = |key: &str| -> Option<Vec<(String, Summary)>> {
            value
                .get(key)?
                .as_obj()?
                .iter()
                .map(|(name, s)| Some((name.clone(), Summary::from_json(s)?)))
                .collect()
        };
        Some(WorkloadResult {
            name: name.to_string(),
            script_digest: u64::from_str_radix(value.get("script_digest")?.as_str()?, 16).ok()?,
            attempted: value.get("attempted")?.as_f64()? as u64,
            failed: value.get("failed")?.as_f64()? as u64,
            correct: value.get("correct")? == &Json::Bool(true),
            traced_ops: value.get("traced_ops")?.as_f64()? as u64,
            end_to_end: list("end_to_end")?,
            per_layer: list("per_layer")?,
            notes: value
                .get("notes")?
                .as_arr()?
                .iter()
                .filter_map(|n| n.as_str().map(str::to_string))
                .collect(),
        })
    }
}

/// One full run: every workload, with where and how it was measured.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultSet {
    /// `--seed`.
    pub seed: u64,
    /// `--seconds` per workload.
    pub seconds: f64,
    /// `(key, value)` facts about the box: nproc, kernel, rustc, commit,
    /// loadavg at start.
    pub env: Vec<(String, String)>,
    /// Per-workload results.
    pub workloads: Vec<WorkloadResult>,
}

impl ResultSet {
    /// Renders the results file.
    pub fn to_json(&self) -> String {
        Json::obj([
            ("benchmark", Json::Str("prcc-perf".into())),
            ("seed", Json::Num(self.seed as f64)),
            ("seconds", Json::Num(self.seconds)),
            (
                "env",
                Json::obj(
                    self.env
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Str(v.clone()))),
                ),
            ),
            (
                "workloads",
                Json::obj(self.workloads.iter().map(|w| (w.name.clone(), w.to_json()))),
            ),
        ])
        .pretty(4)
    }

    /// Parses a results file.
    ///
    /// # Errors
    ///
    /// Malformed JSON or a document of another shape.
    pub fn from_json(text: &str) -> Result<ResultSet, String> {
        let doc = Json::parse(text)?;
        let shape = || "not a prcc-perf results file".to_string();
        let parse = || -> Option<ResultSet> {
            Some(ResultSet {
                seed: doc.get("seed")?.as_f64()? as u64,
                seconds: doc.get("seconds")?.as_f64()?,
                env: doc
                    .get("env")?
                    .as_obj()?
                    .iter()
                    .map(|(k, v)| Some((k.clone(), v.as_str()?.to_string())))
                    .collect::<Option<_>>()?,
                workloads: doc
                    .get("workloads")?
                    .as_obj()?
                    .iter()
                    .map(|(name, w)| WorkloadResult::from_json(name, w))
                    .collect::<Option<_>>()?,
            })
        };
        parse().ok_or_else(shape)
    }
}

/// How one metric compares between two result sets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Within the bound, and the runs repeat tightly enough to say so.
    Ok,
    /// The median worsened by more than the bound.
    Worse,
    /// Within the bound, but a set's own spread is wider than the bound
    /// and the sets overlap: no statement can be made.
    Unresolved,
    /// Per-layer metric: reported, never gated.
    Info,
}

impl Status {
    fn as_str(self) -> &'static str {
        match self {
            Status::Ok => "ok",
            Status::Worse => "worse",
            Status::Unresolved => "unresolved",
            Status::Info => "-",
        }
    }
}

/// Relative worsening of `b` against `a` (positive = worse).
fn worsening(def: &MetricDef, a: f64, b: f64) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    let change = (b - a) / a.abs();
    match def.better {
        Better::Lower => change,
        Better::Higher => -change,
    }
}

/// Judges one end-to-end metric of set `b` against baseline `a`.
pub fn judge(def: &MetricDef, a: &Summary, b: &Summary) -> Status {
    if worsening(def, a.median, b.median) > def.bound {
        return Status::Worse;
    }
    let every_b_run_better = match def.better {
        Better::Lower => b.max < a.min,
        Better::Higher => b.min > a.max,
    };
    if (a.spread() > def.bound || b.spread() > def.bound) && !every_b_run_better {
        Status::Unresolved
    } else {
        Status::Ok
    }
}

/// Renders the comparison table; the flag is true when any end-to-end
/// metric on any workload is [`Status::Worse`].
pub fn diff(a: &ResultSet, b: &ResultSet) -> (String, bool) {
    let mut out = String::new();
    let mut any_worse = false;
    let _ = writeln!(
        out,
        "{:<24} {:<42} {:>14} {:>14} {:>9} {:>7} {:>8} {:>8}  status",
        "workload", "metric", "a.median", "b.median", "change", "bound", "a.spread", "b.spread"
    );
    for wa in &a.workloads {
        let Some(wb) = b.workloads.iter().find(|w| w.name == wa.name) else {
            let _ = writeln!(out, "{:<24} missing from the second file", wa.name);
            any_worse = true;
            continue;
        };
        if wa.script_digest != wb.script_digest {
            let _ = writeln!(
                out,
                "{:<24} note: script digests differ (different --seed)",
                wa.name
            );
        }
        let lists = [
            (&wa.end_to_end, &wb.end_to_end, true),
            (&wa.per_layer, &wb.per_layer, false),
        ];
        for (list_a, list_b, gated) in lists {
            for (name, sa) in list_a {
                let (Some((_, sb)), Some(def)) =
                    (list_b.iter().find(|(n, _)| n == name), catalog::find(name))
                else {
                    continue;
                };
                let status = if gated {
                    judge(def, sa, sb)
                } else {
                    Status::Info
                };
                any_worse |= status == Status::Worse;
                let change = if sa.median == 0.0 {
                    0.0
                } else {
                    100.0 * (sb.median - sa.median) / sa.median.abs()
                };
                let bound = if gated {
                    format!("{:.0}%", def.bound * 100.0)
                } else {
                    "-".to_string()
                };
                let _ = writeln!(
                    out,
                    "{:<24} {:<42} {:>14.3} {:>14.3} {:>+8.2}% {:>7} {:>7.1}% {:>7.1}%  {}",
                    wa.name,
                    name,
                    sa.median,
                    sb.median,
                    change,
                    bound,
                    sa.spread() * 100.0,
                    sb.spread() * 100.0,
                    status.as_str()
                );
            }
        }
        if !wb.correct || wb.failed > 0 {
            let _ = writeln!(
                out,
                "{:<24} second file: {} failed ops, verified: {}",
                wa.name, wb.failed, wb.correct
            );
            any_worse = true;
        }
    }
    (out, any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary(median: f64, min: f64, max: f64) -> Summary {
        Summary {
            median,
            min,
            max,
            n: 3,
        }
    }

    #[test]
    fn summaries_take_the_median() {
        assert_eq!(Summary::of(&[3.0, 1.0, 2.0]), summary(2.0, 1.0, 3.0));
        assert_eq!(Summary::of(&[4.0, 1.0]).median, 2.5);
        assert_eq!(Summary::of(&[]).n, 0);
        assert!((summary(10.0, 9.0, 11.0).spread() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn judging_respects_direction_bound_and_spread() {
        let metric = |better| MetricDef {
            name: "m",
            unit: "us",
            better,
            bound: 0.10,
        };
        let (lower, higher) = (&metric(Better::Lower), &metric(Better::Higher));
        let tight = |m: f64| summary(m, m * 0.99, m * 1.01);
        assert_eq!(judge(lower, &tight(100.0), &tight(105.0)), Status::Ok);
        assert_eq!(judge(lower, &tight(100.0), &tight(115.0)), Status::Worse);
        assert_eq!(judge(lower, &tight(100.0), &tight(50.0)), Status::Ok);
        assert_eq!(judge(higher, &tight(100.0), &tight(85.0)), Status::Worse);
        assert_eq!(judge(higher, &tight(100.0), &tight(130.0)), Status::Ok);
        // A set that does not repeat cannot vouch for "unchanged" ...
        let loose = summary(100.0, 80.0, 120.0);
        assert_eq!(judge(lower, &loose, &tight(101.0)), Status::Unresolved);
        // ... unless every run of b beats every run of a.
        assert_eq!(judge(lower, &loose, &tight(60.0)), Status::Ok);
    }

    #[test]
    fn result_files_round_trip_and_diff_flags_regressions() {
        let workload = |throughput: f64| WorkloadResult {
            name: "ring4_write_volatile".into(),
            script_digest: 0xfeed_0000_0000_0001,
            attempted: 1000,
            failed: 0,
            correct: true,
            traced_ops: 900,
            end_to_end: vec![(
                "throughput_ops_s".into(),
                summary(throughput, throughput * 0.99, throughput * 1.01),
            )],
            per_layer: vec![("clock.advance_ns".into(), summary(12.5, 12.0, 13.0))],
            notes: vec!["a note".into()],
        };
        let set = |throughput: f64| ResultSet {
            seed: 7,
            seconds: 15.0,
            env: vec![("nproc".into(), "2".into())],
            workloads: vec![workload(throughput)],
        };
        let a = set(30_000.0);
        assert_eq!(ResultSet::from_json(&a.to_json()).unwrap(), a);
        assert!(ResultSet::from_json("{\"seed\": 1}").is_err());
        let (table, worse) = diff(&a, &set(29_000.0));
        assert!(!worse, "{table}");
        assert!(table.contains("throughput_ops_s") && table.contains("clock.advance_ns"));
        let (table, worse) = diff(&a, &set(20_000.0));
        assert!(worse && table.contains("worse"), "{table}");
        let line = Json::parse(&workload(1.0).driver_line()).unwrap();
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(line.as_obj().map(<[_]>::len), Some(4));
    }
}
