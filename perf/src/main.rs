//! The verification-question benchmark.
//!
//! ```text
//! perf --workload W --seed N --seconds S --trace 0|1   one run of one workload;
//!                                                      the last line is the result
//! perf [--seed N] [--seconds S] [--out FILE]           every workload, untraced then
//!                                                      traced, every metric printed
//! perf compare A.json B.json                         the differ
//! perf --check-references                              the independent oracle
//! ```
//!
//! See `perf/README.md` for the metrics, the workloads and the protocol.

mod alloc;
mod compare;
mod families;
mod json;
mod layers;
mod metrics;
mod oracle;
mod run;
mod stats;
mod trace;
mod workloads;

use json::Json;
use std::process::ExitCode;
use trace::Tracer;
use workloads::WORKLOADS;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Where the trace and the result file go, relative to the working
/// directory (`run.sh` makes that the repository root).
const OUT_DIR: &str = "perf/out";
/// Where `compare` reads the bounds from.
const BENCHMARK: &str = "BENCHMARK.json";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: String,
}

fn usage() -> String {
    "usage: perf [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--out FILE]\n       \
     perf compare A.json B.json\n       \
     perf --check-references"
        .to_string()
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 0,
        seconds: 8.0,
        trace: false,
        out: format!("{OUT_DIR}/result.json"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if !WORKLOADS.iter().any(|w| w.name == name) {
                    return Err(format!("unknown workload {name:?}"));
                }
                parsed.workload = Some(name.clone());
            }
            "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(parsed.seconds > 0.0 && parsed.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--out" => parsed.out = value()?.clone(),
            other => return Err(format!("unknown argument {other:?}\n{}", usage())),
        }
    }
    Ok(parsed)
}

fn write_file(path: &str, text: &str) -> Result<(), String> {
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{path}: {e}"))
}

fn write_trace(tracer: &Tracer) -> Result<(), String> {
    let path = format!("{OUT_DIR}/trace.json");
    write_file(&path, &tracer.to_json().render())?;
    println!("trace: {} spans written to {path}", tracer.spans().len());
    Ok(())
}

/// One run of one workload, as the driver asks for it.
fn one_workload(args: &Args, workload: &str) -> Result<bool, String> {
    let outcome = if args.trace {
        let mut tracer = Tracer::new();
        let outcome = run::per_layer(workload, args.seed, args.seconds, &mut tracer);
        write_trace(&tracer)?;
        outcome
    } else {
        run::end_to_end(workload, args.seed, args.seconds)
    };
    outcome.print(workload);
    // A run that measured and reported has done its job: failed
    // operations are in the line, not in the exit code.
    println!("{}", outcome.to_json(false).render());
    Ok(true)
}

/// Every workload: the untraced run, then the traced one; every metric by
/// name with its unit; the result file and the trace.
fn all_workloads(args: &Args) -> Result<bool, String> {
    println!(
        "perf: seed {}, {} s per workload, available parallelism {} (engine threads are fixed per question at 1 or 2)",
        args.seed,
        args.seconds,
        std::thread::available_parallelism().map_or(0, usize::from)
    );
    let mut tracer = Tracer::new();
    let mut ok = true;
    let mut results = Vec::new();
    for w in &WORKLOADS {
        println!("{}: {}", w.name, w.why);
        let e2e = run::end_to_end(w.name, args.seed, args.seconds);
        e2e.print(w.name);
        let layers = run::per_layer(w.name, args.seed, args.seconds, &mut tracer);
        layers.print(w.name);
        ok &= e2e.ops.failed == 0 && layers.ops.failed == 0;
        results.push(Json::obj([
            ("name", Json::Str(w.name.to_string())),
            ("end_to_end", e2e.to_json(true)),
            ("per_layer", layers.to_json(true)),
        ]));
    }
    let doc = Json::obj([
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds)),
        ("workloads", Json::Arr(results)),
    ]);
    write_file(&args.out, &doc.render())?;
    println!("result: written to {}", args.out);
    write_trace(&tracer)?;
    Ok(ok)
}

fn dispatch(args: &[String]) -> Result<bool, String> {
    match args.first().map(String::as_str) {
        Some("compare") => {
            let [a, b] = &args[1..] else {
                return Err(usage());
            };
            compare::run(a, b, BENCHMARK)
        }
        Some("--check-references") => Ok(oracle::check_references()),
        Some("--help" | "-h") => {
            println!("{}", usage());
            Ok(true)
        }
        _ => {
            let parsed = parse_args(args)?;
            match &parsed.workload {
                Some(workload) => one_workload(&parsed, workload),
                None => all_workloads(&parsed),
            }
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("perf: {message}");
            ExitCode::from(2)
        }
    }
}
