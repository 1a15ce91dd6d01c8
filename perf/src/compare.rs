//! `perf compare A.json B.json`: the differ.
//!
//! Counts the registry marks exact must match exactly; end-to-end metrics
//! are compared by ratio against the bounds `BENCHMARK.json` fixes; more
//! failed operations in B is always a violation. Per-layer timings have no
//! bound: a large ratio is printed as a note, never as a violation.

use crate::json::{self, Json};
use crate::metrics::{self, Better};
use std::collections::BTreeMap;

/// A per-layer timing further than this from the other run's is noted.
const NOTE_RATIO: f64 = 1.25;

#[derive(Debug, Default)]
pub struct Report {
    /// Human-readable rows, one per workload and finding.
    pub rows: Vec<String>,
    pub violations: usize,
}

impl Report {
    fn violation(&mut self, row: String) {
        self.rows.push(format!("VIOLATION {row}"));
        self.violations += 1;
    }
}

/// `name -> (better, bound)` of the end-to-end metrics.
fn bounds(benchmark: &Json) -> Result<BTreeMap<String, (Better, f64)>, String> {
    let list = benchmark
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json: no end_to_end list")?;
    list.iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or("metric without a name")?;
            let bound = m
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or("metric without a bound")?;
            let better = match m.get("better").and_then(Json::as_str) {
                Some("lower") => Better::Lower,
                Some("higher") => Better::Higher,
                _ => return Err(format!("{name}: better must be lower or higher")),
            };
            Ok((name.to_string(), (better, bound)))
        })
        .collect()
}

fn workloads(doc: &Json) -> Result<BTreeMap<&str, &Json>, String> {
    doc.get("workloads")
        .and_then(Json::as_arr)
        .ok_or("result file: no workloads list")?
        .iter()
        .map(|w| {
            let name = w
                .get("name")
                .and_then(Json::as_str)
                .ok_or("workload without a name")?;
            Ok((name, w))
        })
        .collect()
}

fn value(run: Option<&Json>, metric: &str) -> Option<f64> {
    run?.get("metrics")?.get(metric)?.get("value")?.as_f64()
}

/// How much worse `b` is than `a`, as a share of `a` (negative: better).
fn worsening(a: f64, b: f64, better: Better) -> f64 {
    match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

/// Compare result document `b` against `a` under `benchmark`'s bounds.
pub fn compare(a: &Json, b: &Json, benchmark: &Json) -> Result<Report, String> {
    let bounds = bounds(benchmark)?;
    let (wa, wb) = (workloads(a)?, workloads(b)?);
    let defs = metrics::per_layer();
    let mut report = Report::default();
    if a.get("seed") != b.get("seed") {
        report.violation("the two files were run with different seeds".to_string());
    }
    for (name, run_a) in &wa {
        let Some(run_b) = wb.get(name) else {
            report.violation(format!("{name}: missing from B"));
            continue;
        };
        let (e2e_a, e2e_b) = (run_a.get("end_to_end"), run_b.get("end_to_end"));
        for (metric, &(better, bound)) in &bounds {
            let (Some(x), Some(y)) = (value(e2e_a, metric), value(e2e_b, metric)) else {
                report.violation(format!("{name}: {metric} missing"));
                continue;
            };
            let worse = worsening(x, y, better);
            let row = format!(
                "{name}: {metric} {x:.6} -> {y:.6} ({:+.1}%, bound {:.0}%)",
                100.0 * (y - x) / x,
                100.0 * bound
            );
            if worse > bound {
                report.violation(row);
            } else {
                report.rows.push(format!("ok        {row}"));
            }
        }
        for part in ["end_to_end", "per_layer"] {
            let failed = |run: &Json| {
                run.get(part)
                    .and_then(|r| r.get("failed"))
                    .and_then(Json::as_f64)
            };
            if let (Some(x), Some(y)) = (failed(run_a), failed(run_b)) {
                if y > x {
                    report.violation(format!("{name}: failed operations {x} -> {y} ({part})"));
                }
            }
        }
        let (pl_a, pl_b) = (run_a.get("per_layer"), run_b.get("per_layer"));
        for def in &defs {
            let (Some(x), Some(y)) = (value(pl_a, &def.name), value(pl_b, &def.name)) else {
                continue;
            };
            if def.exact {
                if x != y {
                    report.violation(format!(
                        "{name}: {} = {x} -> {y} (count must repeat exactly)",
                        def.name
                    ));
                }
            } else if x > 0.0 && y > 0.0 && (y / x > NOTE_RATIO || x / y > NOTE_RATIO) {
                report.rows.push(format!(
                    "note      {name}: {} {x:.4} -> {y:.4} {} (x{:.2}, {} is better)",
                    def.name,
                    def.unit,
                    y / x,
                    def.better.as_str()
                ));
            }
        }
    }
    for name in wb.keys() {
        if !wa.contains_key(name) {
            report.violation(format!("{name}: missing from A"));
        }
    }
    Ok(report)
}

/// The subcommand: read the three files, print the rows, say whether B is
/// within bounds of A.
pub fn run(a_path: &str, b_path: &str, benchmark_path: &str) -> Result<bool, String> {
    let read = |path: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let report = compare(&read(a_path)?, &read(b_path)?, &read(benchmark_path)?)?;
    for row in &report.rows {
        println!("{row}");
    }
    println!(
        "compare: {} violation(s) ({a_path} -> {b_path})",
        report.violations
    );
    Ok(report.violations == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn benchmark() -> Json {
        json::parse(
            r#"{"end_to_end":[
                {"name":"verdict_s","unit":"s","better":"lower","bound":0.1},
                {"name":"peak_heap_mb","unit":"MB","better":"lower","bound":0.05}]}"#,
        )
        .unwrap()
    }

    fn result(verdict_s: f64, heap: f64, states: f64, encode_ns: f64, failed: f64) -> Json {
        let metric = |v: f64| Json::obj([("value", Json::Num(v))]);
        Json::obj([
            ("seed", Json::Num(0.0)),
            (
                "workloads",
                Json::Arr(vec![Json::obj([
                    ("name", Json::Str("reach_full".into())),
                    (
                        "end_to_end",
                        Json::obj([
                            ("failed", Json::Num(failed)),
                            (
                                "metrics",
                                Json::obj([
                                    ("verdict_s", metric(verdict_s)),
                                    ("peak_heap_mb", metric(heap)),
                                ]),
                            ),
                        ]),
                    ),
                    (
                        "per_layer",
                        Json::obj([
                            ("failed", Json::Num(0.0)),
                            (
                                "metrics",
                                Json::obj([
                                    ("reach.states", metric(states)),
                                    ("codec.encode_ns", metric(encode_ns)),
                                ]),
                            ),
                        ]),
                    ),
                ])]),
            ),
        ])
    }

    #[test]
    fn a_five_percent_timing_change_is_tolerated() {
        let a = result(2.0, 100.0, 228_486.0, 40.0, 0.0);
        let b = result(2.1, 100.0, 228_486.0, 42.0, 0.0);
        let r = compare(&a, &b, &benchmark()).unwrap();
        assert_eq!(r.violations, 0, "{:?}", r.rows);
    }

    #[test]
    fn a_one_off_count_change_is_flagged() {
        let a = result(2.0, 100.0, 228_486.0, 40.0, 0.0);
        let b = result(2.0, 100.0, 228_487.0, 40.0, 0.0);
        let r = compare(&a, &b, &benchmark()).unwrap();
        assert_eq!(r.violations, 1);
        assert!(r.rows.iter().any(|row| row.contains("reach.states")));
    }

    #[test]
    fn regressions_beyond_the_bound_and_new_failures_are_flagged() {
        let a = result(2.0, 100.0, 1.0, 40.0, 0.0);
        let slower = result(2.3, 100.0, 1.0, 40.0, 0.0);
        assert_eq!(compare(&a, &slower, &benchmark()).unwrap().violations, 1);
        let fatter = result(2.0, 106.0, 1.0, 40.0, 0.0);
        assert_eq!(compare(&a, &fatter, &benchmark()).unwrap().violations, 1);
        let failing = result(2.0, 100.0, 1.0, 40.0, 1.0);
        assert_eq!(compare(&a, &failing, &benchmark()).unwrap().violations, 1);
        // Faster and leaner is never a violation; a far-off layer timing is
        // a note.
        let better = result(1.0, 50.0, 1.0, 80.0, 0.0);
        let r = compare(&a, &better, &benchmark()).unwrap();
        assert_eq!(r.violations, 0);
        assert!(r.rows.iter().any(|row| row.starts_with("note")));
    }
}
