//! E14 — SAT-based bounded model checking vs. explicit bounded search: the
//! symbolic engine's reason to exist is bugs that sit at *moderate depth*
//! under *huge breadth* (§4.3's state-explosion discussion from the other
//! side: when even the reduced interleaving graph outgrows the budget, depth
//! is the only tractable axis).
//!
//! The planted family makes that concrete: one guarded counter carries a bug
//! at depth `D` (`n == D` becomes reachable after exactly `D` increments)
//! while `m` independent two-location toggles pad the breadth — explicit BFS
//! must wade through ~`2^m` interleavings per level and exhausts a 20k-state
//! budget around depth 24, while BMC unrolls straight to the bug.
//!
//! Asserted here (so the CI bench smoke enforces it):
//!
//! * **explicit search is genuinely out of budget** — `check_invariant_with`
//!   at 20k states returns `complete == false` with *no* violation on the
//!   planted family;
//! * **BMC finds the planted bug** — bound `D` yields a violation whose
//!   (concretely replayed) trace has exactly `D` steps, and bound `D - 1`
//!   proves its absence;
//! * **one persistent solver** — per-frame variable counts are strictly
//!   monotone, the per-unrolling variable delta is *exactly constant* from
//!   depth 2 on (each unrolling allocates the same encoding structure — a
//!   fresh solver per depth would reset the count), and the original-clause
//!   count (total minus learnts) never decreases and grows per depth by at
//!   most the first unrolling's delta (no clause is ever re-added);
//! * **solver and encoding hold their ground** — the planted run stays
//!   under a conflict ceiling set 15 % above the current deterministic
//!   count (itself less than a quarter of the PR-7 measurement) and holds
//!   a propagation-throughput floor that trips on decision-loop blowups;
//! * **sanity on a real model** — two-phase dining philosophers reach the
//!   all-`hasL` configuration at depth exactly `n`, and BMC agrees with the
//!   exhaustive explicit engine at bounds `n - 1` and `n`.

use bench::{planted, planted_invariant};
use bip_core::{dining_philosophers, StatePred, System};
use bip_verify::bmc::{BmcConfig, BmcOutcome, BmcReport};
use bip_verify::reach::{check_invariant_with, ReachConfig};
use bip_verify::{Budget, StopReason};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

/// Depth of the planted bug (`n == DEPTH` first reachable after `DEPTH`
/// increments) and number of independent breadth-padding toggles.
const DEPTH: usize = 30;
const TOGGLES: usize = 10;
/// Explicit-state budget the planted family must exhaust.
const EXPLICIT_BUDGET: usize = 20_000;
/// Fail-fast ceiling on cumulative SAT conflicts: far above what a healthy
/// run needs, so a solver blowup truncates the run (`SolverBudget`) and the
/// `Completed` assertions below fail cleanly instead of hanging CI.
const CONFLICT_CEILING: u64 = 500_000;
/// Conflict history of the planted depth-30 family, each figure
/// deterministic at its commit: 9208 with the PR-7 solver (activity-only
/// clause DB, linear-scan VSIDS, fixed Luby restarts), 5253 with the
/// glue-aware solver on the case-split encoding (34 741 clauses), 2068 on
/// the structural encoding of the linear fragment (11 515 clauses — the
/// guard is a 5-gate comparator, the update one add-constant circuit). The
/// ceiling is the current count plus a 15 % regression guard, strictly
/// below every earlier figure.
const PR7_CONFLICT_BASELINE: u64 = 9208;
const PLANTED_CONFLICT_CEILING: u64 = 2378;
/// Propagation-throughput floor for the planted run. Absolute wall-clock
/// figures vary across CI hosts, so this is a blowup tripwire (an
/// accidental O(vars) scan per decision tanks props/s by ~10×), not a
/// benchmark: both PR-7 (~4.9M/s) and the glue-aware solver (~8.6M/s)
/// clear it by a wide margin on the reference box.
const PLANTED_PROPS_PER_SEC_FLOOR: f64 = 500_000.0;

/// Shared helper: a BMC run capped at [`CONFLICT_CEILING`], asserted to
/// have finished under it.
fn bmc_capped(sys: &System, bound: usize, inv: &StatePred, ctx: &str) -> BmcReport {
    let r = BmcConfig::new(sys)
        .bound(bound)
        .budget(Budget::unlimited().conflicts(CONFLICT_CEILING))
        .check_invariant(inv)
        .unwrap();
    assert_eq!(
        r.stop,
        StopReason::Completed,
        "{ctx}: the {CONFLICT_CEILING}-conflict fail-fast ceiling tripped"
    );
    r
}

/// Assert the single-persistent-solver frame-stat laws on a BMC report.
fn assert_incremental(r: &BmcReport, ctx: &str) {
    let vars: Vec<usize> = r.frames.iter().map(|f| f.vars).collect();
    assert!(
        vars.windows(2).all(|w| w[1] > w[0]),
        "{ctx}: variable counts must grow monotonically in one solver: {vars:?}"
    );
    let deltas: Vec<usize> = vars.windows(2).map(|w| w[1] - w[0]).collect();
    if deltas.len() >= 3 {
        assert!(
            deltas[1..].windows(2).all(|w| w[0] == w[1]),
            "{ctx}: each unrolling allocates the same structure, so variable \
             deltas must be constant from depth 2 on: {deltas:?}"
        );
    }
    let originals: Vec<usize> = r
        .frames
        .iter()
        .map(|f| f.clauses - f.learnts.min(f.clauses))
        .collect();
    assert!(
        originals.windows(2).all(|w| w[1] >= w[0]),
        "{ctx}: original clauses are never re-added or retracted: {originals:?}"
    );
    if originals.len() >= 3 {
        // Depth 0 holds only the initial frame; the first *unrolling* delta
        // is between depths 1 and 2 and bounds all later ones.
        let first = originals[2] - originals[1];
        assert!(
            originals[2..].windows(2).all(|w| w[1] - w[0] <= first),
            "{ctx}: per-depth original-clause growth bounded by the first \
             unrolling's delta: {originals:?}"
        );
    }
}

fn bench_planted() {
    let sys = planted(DEPTH as i64, TOGGLES);
    let inv = planted_invariant(DEPTH as i64);

    // Explicit bounded search drowns in breadth: budget exhausted, bug missed.
    let t = std::time::Instant::now();
    let explicit = check_invariant_with(&sys, &inv, &ReachConfig::bounded(EXPLICIT_BUDGET));
    let explicit_secs = t.elapsed().as_secs_f64();
    assert!(
        !explicit.complete,
        "planted family must exhaust the {EXPLICIT_BUDGET}-state budget"
    );
    assert!(
        explicit.violation.is_none(),
        "the depth-{DEPTH} bug must sit beyond the explicit budget"
    );

    // BMC one below the bug: a genuine depth-(D-1) absence proof.
    let t = std::time::Instant::now();
    let below = bmc_capped(&sys, DEPTH - 1, &inv, "planted/below");
    let below_secs = t.elapsed().as_secs_f64();
    assert!(
        matches!(below.outcome, BmcOutcome::NoViolationWithin(_)),
        "counter cannot reach {DEPTH} in {} steps",
        DEPTH - 1
    );
    assert_incremental(&below, "planted/below");

    // BMC at the bug depth: violation, replayed concretely, exactly D steps.
    let t = std::time::Instant::now();
    let at = bmc_capped(&sys, DEPTH, &inv, "planted/at");
    let bmc_secs = t.elapsed().as_secs_f64();
    let (trace, states) = at.violation().expect("BMC must find the planted bug");
    assert_eq!(trace.len(), DEPTH, "shortest witness is {DEPTH} increments");
    assert_eq!(states.len(), DEPTH + 1);
    assert_incremental(&at, "planted/at");

    let last = at.frames.last().unwrap();
    assert!(
        last.conflicts <= PLANTED_CONFLICT_CEILING,
        "the planted depth-{DEPTH} family must clear in at most \
         {PLANTED_CONFLICT_CEILING} conflicts (PR-7 baseline \
         {PR7_CONFLICT_BASELINE}), needed {}",
        last.conflicts
    );
    let props_per_sec = last.propagations as f64 / bmc_secs.max(1e-9);
    assert!(
        props_per_sec >= PLANTED_PROPS_PER_SEC_FLOOR,
        "propagation throughput collapsed: {props_per_sec:.0}/s < \
         {PLANTED_PROPS_PER_SEC_FLOOR:.0}/s floor"
    );
    println!(
        "{:>12} explicit: {} states, incomplete, no bug ({explicit_secs:.2}s)",
        format!("planted-{DEPTH}x{TOGGLES}"),
        explicit.states
    );
    println!(
        "{:>12} bmc: bound {DEPTH} -> {DEPTH}-step trace, {} vars, {} clauses, {} conflicts \
         ({bmc_secs:.2}s; absence proof at {} in {below_secs:.2}s)",
        "",
        last.vars,
        last.clauses,
        last.conflicts,
        DEPTH - 1
    );
    println!(
        "BENCH {{\"bench\":\"e14\",\"system\":\"planted-{DEPTH}x{TOGGLES}\",\"explicit_states\":{},\"explicit_complete\":false,\"explicit_found\":false,\"bmc_bound\":{DEPTH},\"bmc_trace_len\":{},\"solver_vars\":{},\"solver_clauses\":{},\"conflicts\":{},\"decisions\":{},\"propagations\":{},\"props_per_sec\":{props_per_sec:.0},\"avg_lbd_milli\":{},\"tier_core\":{},\"tier_mid\":{},\"tier_local\":{},\"explicit_secs\":{explicit_secs:.3},\"bmc_secs\":{bmc_secs:.3},\"wall_ms\":{},\"stop\":\"{:?}\"}}",
        explicit.states,
        trace.len(),
        last.vars,
        last.clauses,
        last.conflicts,
        last.decisions,
        last.propagations,
        last.avg_lbd_milli,
        last.tier_core,
        last.tier_mid,
        last.tier_local,
        at.elapsed.millis(),
        at.stop,
    );
}

fn bench_philosophers() {
    for n in [3usize, 4] {
        let sys = dining_philosophers(n, true).unwrap();
        // hasL is location index 1; all-hasL is the classic circular wait.
        let inv = StatePred::And((0..n).map(|i| StatePred::at_loc(i, 1)).collect()).not();

        let explicit = check_invariant_with(&sys, &inv, &ReachConfig::bounded(1_000_000));
        assert!(explicit.complete);
        let depth = explicit
            .violation
            .as_ref()
            .expect("two-phase deadlock")
            .1
            .len();
        assert_eq!(depth, n, "all-hasL is reachable in exactly n takeL steps");

        let below = bmc_capped(&sys, n - 1, &inv, "phil/below");
        assert!(matches!(below.outcome, BmcOutcome::NoViolationWithin(_)));
        let t = std::time::Instant::now();
        let at = bmc_capped(&sys, n, &inv, "phil/at");
        let secs = t.elapsed().as_secs_f64();
        let (trace, _) = at.violation().expect("violation at the exact depth");
        assert_eq!(trace.len(), n);
        assert_incremental(&at, "phil");

        let last = at.frames.last().unwrap();
        println!(
            "{:>12} bmc: bound {n} -> {n}-step trace, {} vars, {} conflicts ({secs:.2}s)",
            format!("phil-{n}"),
            last.vars,
            last.conflicts
        );
        println!(
            "BENCH {{\"bench\":\"e14\",\"system\":\"phil-{n}\",\"explicit_states\":{},\"explicit_complete\":true,\"explicit_found\":true,\"bmc_bound\":{n},\"bmc_trace_len\":{},\"solver_vars\":{},\"solver_clauses\":{},\"conflicts\":{},\"decisions\":{},\"propagations\":{},\"avg_lbd_milli\":{},\"tier_core\":{},\"tier_mid\":{},\"tier_local\":{},\"explicit_secs\":0,\"bmc_secs\":{secs:.3},\"wall_ms\":{},\"stop\":\"{:?}\"}}",
            explicit.states,
            trace.len(),
            last.vars,
            last.clauses,
            last.conflicts,
            last.decisions,
            last.propagations,
            last.avg_lbd_milli,
            last.tier_core,
            last.tier_mid,
            last.tier_local,
            at.elapsed.millis(),
            at.stop,
        );
    }
}

fn table() {
    println!("\nE14: SAT-based bounded model checking vs explicit bounded search");
    println!("(planted family: depth-{DEPTH} bug behind {TOGGLES} breadth-padding toggles)\n");
    bench_planted();
    bench_philosophers();
    println!();
}

fn bench(c: &mut Criterion) {
    table();
    let mut g = c.benchmark_group("e14");
    g.sample_size(10);
    let sys = planted(DEPTH as i64, TOGGLES);
    let inv = planted_invariant(DEPTH as i64);
    g.bench_with_input(BenchmarkId::new("bmc_planted", DEPTH), &sys, |b, sys| {
        b.iter(|| {
            BmcConfig::new(sys)
                .bound(DEPTH)
                .check_invariant(&inv)
                .unwrap()
                .violation()
                .is_some()
        })
    });
    let phil = dining_philosophers(4, true).unwrap();
    let phil_inv = StatePred::And((0..4).map(|i| StatePred::at_loc(i, 1)).collect()).not();
    g.bench_with_input(BenchmarkId::new("bmc_phil", 4), &phil, |b, sys| {
        b.iter(|| {
            BmcConfig::new(sys)
                .bound(4)
                .check_invariant(&phil_inv)
                .unwrap()
                .violation()
                .is_some()
        })
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
