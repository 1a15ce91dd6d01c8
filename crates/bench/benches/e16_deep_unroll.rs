//! E16 — deep-unroll BMC stress across restart policies.
//!
//! E14 shows BMC beating explicit search at moderate depth; this family
//! pushes the *solver* instead: a depth-60 planted bug behind 12 breadth
//! toggles unrolls to a formula roughly four times the e14 instance, and
//! the absence proof one step below the bug is a long UNSAT grind — the
//! regime where glue-aware clause management (LBD tiers, in-place
//! reduction, adaptive restarts) earns its keep.
//!
//! Asserted here (so the CI bench smoke enforces it):
//!
//! * **every restart policy agrees** — Luby, glucose, and hybrid all find
//!   the planted violation with exactly `DEPTH` steps and all prove its
//!   absence at `DEPTH - 1`; policies trade speed, never verdicts;
//! * **the run is healthy** — each policy clears the family under a
//!   fail-fast conflict ceiling and the whole sweep stays within a wall
//!   budget suitable for CI smoke;
//! * **the tiered DB is actually exercised** — the deep UNSAT run reports a
//!   populated learnt database and a nonzero average LBD (a silent
//!   fall-back to "never reduce" would show up here).
//!
//! One `BENCH {...}` JSON line per (policy, phase) records conflicts,
//! decisions, propagations, throughput, average glue, and tier sizes; the
//! schema is documented in `crates/bench/README.md`.

use bench::{planted, planted_invariant};
use bip_core::{StatePred, System};
use bip_verify::bmc::{BmcConfig, BmcOutcome, BmcReport};
use bip_verify::{Budget, StopReason};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use satkit::RestartPolicy;

/// Depth of the planted bug and breadth-padding toggle count — deliberately
/// past e14's 30×10 so per-depth clause growth compounds.
const DEPTH: usize = 60;
const TOGGLES: usize = 12;
/// Fail-fast ceiling on cumulative conflicts per run (far above healthy
/// need; tripping it fails the `Completed` asserts instead of hanging CI).
const CONFLICT_CEILING: u64 = 2_000_000;

fn policy_name(p: RestartPolicy) -> &'static str {
    match p {
        RestartPolicy::Luby { .. } => "luby",
        RestartPolicy::Glucose { .. } => "glucose",
        RestartPolicy::Hybrid { .. } => "hybrid",
    }
}

/// One capped deep-unroll run under `policy`; prints the BENCH line and
/// returns the report for cross-policy verdict comparison.
fn run(
    sys: &System,
    inv: &StatePred,
    bound: usize,
    policy: RestartPolicy,
    phase: &str,
) -> BmcReport {
    let t = std::time::Instant::now();
    let r = BmcConfig::new(sys)
        .bound(bound)
        .restart_policy(policy)
        .budget(Budget::unlimited().conflicts(CONFLICT_CEILING))
        .check_invariant(inv)
        .unwrap();
    let secs = t.elapsed().as_secs_f64().max(1e-9);
    assert_eq!(
        r.stop,
        StopReason::Completed,
        "{phase}/{}: the {CONFLICT_CEILING}-conflict fail-fast ceiling tripped",
        policy_name(policy)
    );
    let last = r.frames.last().expect("at least one decided depth");
    println!(
        "{:>12} {phase:<7} {:>7} conflicts  {:>9} props  {:>9.0} props/s  avg_lbd {:.2}  tiers {}/{}/{}  ({secs:.2}s)",
        policy_name(policy),
        last.conflicts,
        last.propagations,
        last.propagations as f64 / secs,
        last.avg_lbd_milli as f64 / 1000.0,
        last.tier_core,
        last.tier_mid,
        last.tier_local,
    );
    println!(
        "BENCH {{\"bench\":\"e16\",\"system\":\"planted-{DEPTH}x{TOGGLES}\",\"phase\":\"{phase}\",\"policy\":\"{}\",\"bound\":{bound},\"solver_vars\":{},\"solver_clauses\":{},\"conflicts\":{},\"decisions\":{},\"propagations\":{},\"props_per_sec\":{:.0},\"avg_lbd_milli\":{},\"tier_core\":{},\"tier_mid\":{},\"tier_local\":{},\"secs\":{secs:.3},\"wall_ms\":{},\"stop\":\"{:?}\"}}",
        policy_name(policy),
        last.vars,
        last.clauses,
        last.conflicts,
        last.decisions,
        last.propagations,
        last.propagations as f64 / secs,
        last.avg_lbd_milli,
        last.tier_core,
        last.tier_mid,
        last.tier_local,
        r.elapsed.millis(),
        r.stop,
    );
    r
}

fn table() {
    println!("\nE16: deep-unroll BMC stress (depth-{DEPTH} bug behind {TOGGLES} toggles) across restart policies\n");
    let sys = planted(DEPTH as i64, TOGGLES);
    let inv = planted_invariant(DEPTH as i64);
    let policies = [
        RestartPolicy::hybrid(),
        RestartPolicy::luby(),
        RestartPolicy::glucose(),
    ];

    // The absence proof one below the bug: a pure UNSAT grind per depth.
    for policy in policies {
        let below = run(&sys, &inv, DEPTH - 1, policy, "absence");
        assert!(
            matches!(below.outcome, BmcOutcome::NoViolationWithin(_)),
            "{}: counter cannot reach {DEPTH} in {} steps",
            policy_name(policy),
            DEPTH - 1
        );
        let last = below.frames.last().unwrap();
        assert!(
            last.learnts > 0 && last.avg_lbd_milli > 0,
            "{}: the deep UNSAT run must exercise the learnt database",
            policy_name(policy)
        );
    }

    // The witness at the bug depth: every policy finds the same-length trace.
    for policy in policies {
        let at = run(&sys, &inv, DEPTH, policy, "witness");
        let (trace, states) = at
            .violation()
            .unwrap_or_else(|| panic!("{}: planted bug must be found", policy_name(policy)));
        assert_eq!(trace.len(), DEPTH, "shortest witness is {DEPTH} increments");
        assert_eq!(states.len(), DEPTH + 1);
    }
    println!();
}

fn bench(c: &mut Criterion) {
    table();
    let mut g = c.benchmark_group("e16");
    g.sample_size(10);
    let sys = planted(30, TOGGLES);
    let inv = planted_invariant(30);
    for policy in [RestartPolicy::hybrid(), RestartPolicy::luby()] {
        g.bench_with_input(
            BenchmarkId::new("deep_unroll", policy_name(policy)),
            &sys,
            |b, sys| {
                b.iter(|| {
                    BmcConfig::new(sys)
                        .bound(30)
                        .restart_policy(policy)
                        .check_invariant(&inv)
                        .unwrap()
                        .violation()
                        .is_some()
                })
            },
        );
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
