//! The run protocol of one workload: set-up, timed passes, and the traced
//! pass with its outside-in decomposition.
//!
//! Single process, closed loop: one question at a time, the next asked only
//! when the previous has answered.

use crate::alloc;
use crate::json::Json;
use crate::layers::{self, Item};
use crate::metrics::{self, question_metric, Metrics};
use crate::stats::{median, summarize, Summary};
use crate::trace::Tracer;
use crate::workloads::{questions_of, Answer, Prepared};
use std::time::{Duration, Instant};

/// Set-ups per untraced run: `setup_s` is their median.
const SETUPS: usize = 3;
/// Fewest timed passes of an untraced run, however short `--seconds` is.
const MIN_TIMED_PASSES: usize = 5;
/// Fewest timed passes of a traced run (for the per-question medians and
/// the tracing overhead).
const MIN_TRACED_RUN_PASSES: usize = 3;

/// Operations attempted and failed: an operation is one question in one
/// pass, the cold passes of set-up included.
#[derive(Debug, Default, Clone, Copy)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
}

impl Ops {
    /// Count one answered question, checked against its expected answer.
    pub fn record(&mut self, p: &Prepared, answer: &Answer) {
        self.attempted += 1;
        if let Err(why) = p.check(answer) {
            self.failed += 1;
            eprintln!("FAILED {}: {why}", p.q.id);
        }
    }
}

/// One reported metric: the value that gates, and where it came from
/// several samples, their summary beside it.
pub struct Reported {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    pub samples: Option<Summary>,
}

/// The outcome of one run of one workload.
pub struct Outcome {
    pub ops: Ops,
    pub metrics: Vec<Reported>,
}

impl Outcome {
    /// `correct`, `attempted`, `failed` and `metrics`: the driver's last
    /// line, and with `with_samples` the result file's entry, which adds
    /// min, median, max and n where a value came from several samples.
    pub fn to_json(&self, with_samples: bool) -> Json {
        let metric = |r: &Reported| {
            let mut fields = vec![
                ("value".to_string(), Json::Num(r.value)),
                ("unit".to_string(), Json::Str(r.unit.to_string())),
            ];
            if let (true, Some(s)) = (with_samples, r.samples) {
                fields.extend([
                    ("min".to_string(), Json::Num(s.min)),
                    ("median".to_string(), Json::Num(s.median)),
                    ("max".to_string(), Json::Num(s.max)),
                    ("n".to_string(), Json::Num(s.n as f64)),
                ]);
            }
            (r.name.clone(), Json::Obj(fields))
        };
        Json::obj([
            ("correct", Json::Bool(self.ops.failed == 0)),
            ("attempted", Json::Num(self.ops.attempted as f64)),
            ("failed", Json::Num(self.ops.failed as f64)),
            (
                "metrics",
                Json::Obj(self.metrics.iter().map(metric).collect()),
            ),
        ])
    }

    /// Every metric by name with its unit, one per line.
    pub fn print(&self, workload: &str) {
        for r in &self.metrics {
            print!(
                "{workload:<13} {:<32} {:>16.6} {:<6}",
                r.name, r.value, r.unit
            );
            match r.samples {
                Some(s) => println!(
                    " (min {:.6}, median {:.6}, max {:.6}, n {})",
                    s.min, s.median, s.max, s.n
                ),
                None => println!(),
            }
        }
        let share = self.ops.failed as f64 / self.ops.attempted.max(1) as f64;
        println!(
            "{workload:<13} {:<32} {share:>16.6} ratio  (ops {}, ops_failed {})",
            "failed_share", self.ops.attempted, self.ops.failed
        );
    }
}

/// Build every model of the workload and answer every question once, cold:
/// lazy independence tables, width inference, codec construction and
/// allocator growth are all paid here.
fn set_up(workload: &str, seed: u64, ops: &mut Ops) -> Vec<Prepared> {
    let prepared: Vec<Prepared> = questions_of(workload)
        .map(|q| Prepared::new(q, seed))
        .collect();
    pass(&prepared, ops, &mut None);
    prepared
}

/// Ask every question once; per-question engine time, in table order.
/// Nothing is printed, sampled or traced here unless a tracer is passed in,
/// except on a failed operation.
fn pass(
    prepared: &[Prepared],
    ops: &mut Ops,
    tracer: &mut Option<&mut Tracer>,
) -> Vec<(Duration, Answer)> {
    prepared
        .iter()
        .map(|p| {
            if let Some(t) = tracer {
                t.set_context(p.q.workload, p.q.id);
            }
            let (elapsed, answer) = p.ask(tracer);
            ops.record(p, &answer);
            (elapsed, answer)
        })
        .collect()
}

/// Timed passes until `seconds` have gone by, and at least `min_passes`.
/// Returns per-pass totals of engine time and per-question samples.
fn timed_passes(
    prepared: &[Prepared],
    seconds: f64,
    min_passes: usize,
    ops: &mut Ops,
) -> (Vec<f64>, Vec<Vec<f64>>) {
    let mut totals = Vec::new();
    let mut per_question = vec![Vec::new(); prepared.len()];
    let start = Instant::now();
    while totals.len() < min_passes || start.elapsed().as_secs_f64() < seconds {
        let times = pass(prepared, ops, &mut None);
        let mut total = 0.0;
        for (samples, (elapsed, _)) in per_question.iter_mut().zip(&times) {
            samples.push(elapsed.as_secs_f64());
            total += elapsed.as_secs_f64();
        }
        totals.push(total);
    }
    (totals, per_question)
}

/// The untraced run: the end-to-end metrics.
pub fn end_to_end(workload: &str, seed: u64, seconds: f64) -> Outcome {
    let mut ops = Ops::default();
    let mut setups = Vec::new();
    let mut prepared = Vec::new();
    for _ in 0..SETUPS {
        drop(prepared);
        let start = Instant::now();
        prepared = set_up(workload, seed, &mut ops);
        setups.push(start.elapsed().as_secs_f64());
    }

    // What is live before the first pass (the models, and in a run of every
    // workload the spans and results kept so far) is not the engines'.
    let base = alloc::reset_peak();
    let (totals, per_question) = timed_passes(&prepared, seconds, MIN_TIMED_PASSES, &mut ops);
    let peak = alloc::peak_bytes() - base;

    for (p, samples) in prepared.iter().zip(&per_question) {
        let s = summarize(samples);
        println!(
            "{workload:<13} {:<32} {:>16.6} s      (median {:.6}, max {:.6}, n {})",
            question_metric(p.q.id),
            s.min,
            s.median,
            s.max,
            s.n
        );
    }
    let (passes, setups) = (summarize(&totals), summarize(&setups));
    // `verdict_s` is the fastest warm pass, `setup_s` the median set-up; see
    // the README on why the two differ.
    let values = [
        (passes.min, Some(passes)),
        (peak as f64 / 1e6, None),
        (setups.median, Some(setups)),
    ];
    Outcome {
        ops,
        metrics: metrics::END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), (value, samples))| Reported {
                name: name.to_string(),
                unit,
                value,
                samples,
            })
            .collect(),
    }
}

/// The traced run: one set-up, a few untraced timed passes (for the
/// per-question medians and as the base of the tracing overhead), one
/// traced pass with a span around every engine call, then the outside-in
/// decomposition. Spans go to `tracer`; the per-layer metrics come back.
pub fn per_layer(workload: &str, seed: u64, seconds: f64, tracer: &mut Tracer) -> Outcome {
    let cpu_before = process_cpu_seconds();
    let calls_before = alloc::alloc_calls();
    let mut ops = Ops::default();
    let prepared = set_up(workload, seed, &mut ops);
    let (_, per_question) = timed_passes(&prepared, seconds / 2.0, MIN_TRACED_RUN_PASSES, &mut ops);

    let mut m = Metrics::default();
    let mut untraced = 0.0;
    for (p, samples) in prepared.iter().zip(&per_question) {
        let med = median(samples);
        m.set(&question_metric(p.q.id), med);
        untraced += med;
    }

    let answers = pass(&prepared, &mut ops, &mut Some(&mut *tracer));
    let traced: f64 = answers.iter().map(|(d, _)| d.as_secs_f64()).sum();
    m.set("trace.overhead_ratio", metrics::ratio(traced, untraced));

    let items: Vec<Item> = prepared
        .iter()
        .zip(answers)
        .map(|(p, (traced, answer))| Item { p, answer, traced })
        .collect();
    layers::decompose(workload, &items, tracer, &mut m, &mut ops);

    m.set("process.cpu_s", process_cpu_seconds() - cpu_before);
    m.set(
        "process.alloc_calls",
        (alloc::alloc_calls() - calls_before) as f64,
    );

    let defs = metrics::per_layer();
    let values = m.in_order(&defs);
    Outcome {
        ops,
        metrics: defs
            .into_iter()
            .zip(values)
            .map(|(d, value)| Reported {
                name: d.name,
                unit: d.unit,
                value,
                samples: None,
            })
            .collect(),
    }
}

/// User plus system processor time of this process so far, from
/// `/proc/self/stat` (clock ticks of 1/100 s on Linux); 0 where that file
/// does not exist.
fn process_cpu_seconds() -> f64 {
    const TICKS_PER_SECOND: f64 = 100.0;
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // The command name, field 2, is parenthesised and may hold spaces;
    // fields 14 and 15 are utime and stime.
    let Some((_, rest)) = stat.rsplit_once(')') else {
        return 0.0;
    };
    let ticks: f64 = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse::<f64>().ok())
        .sum();
    ticks / TICKS_PER_SECOND
}
