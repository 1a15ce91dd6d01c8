//! E15 — the control layer: budgeted, cancellable, resumable verification.
//!
//! The model is the `unbounded_ring` family — genuinely infinite state
//! space, so *only* the control layer can end a run. Three properties are
//! asserted (and so enforced by the CI bench smoke):
//!
//! * **prompt stop** — a deadline-bounded exploration of the infinite
//!   family returns within one BFS level of the deadline (wall-clock
//!   asserted far below the hang threshold), with a *valid partial
//!   report*: `complete == false`, `stop == Deadline`, nonzero states,
//!   and a resumable checkpoint;
//! * **cancellation** — a token flipped from another thread stops the run
//!   the same way, with `stop == Cancelled` and a checkpoint;
//! * **bit-identical resume** — resuming either checkpoint under a state
//!   budget produces a report identical (states, transitions, deadlocks,
//!   footprint, peak bytes, stop) to an uninterrupted run under the same
//!   budget: interruption is invisible in the final answer. This works
//!   because budgets trip only at level boundaries, the one point where
//!   the engine's state is consistent regardless of history.
//!
//! A `BENCH {...}` JSON line per phase records wall_ms / peak_bytes / stop
//! for CI scraping; the schema is documented in `crates/bench/README.md`.

use std::time::Duration;

use bench::unbounded_ring;
use bip_verify::reach::{explore_resume, explore_with, ReachCheckpoint, ReachConfig, ReachReport};
use bip_verify::{Budget, CancelToken, StopReason};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

/// Engine bound: far beyond anything the budgets below allow, so every
/// stop in this bench is the control layer's doing.
const BOUND: usize = 50_000_000;
/// Deadline for the interrupted runs.
const DEADLINE_MS: u64 = 200;
/// Hang threshold: the run must return well within this (one BFS level
/// past the deadline, with a wide margin for slow shared runners).
const PROMPT_SECS: f64 = 30.0;
/// How far past the interruption point the resumed runs explore.
const GROW: usize = 40_000;

/// Full-report bit-identity (elapsed excluded by design: wall-clock is the
/// one field interruption is allowed to change).
fn assert_same(a: &ReachReport, b: &ReachReport, ctx: &str) {
    assert_eq!(a.states, b.states, "{ctx}: states");
    assert_eq!(a.transitions, b.transitions, "{ctx}: transitions");
    assert_eq!(a.deadlocks, b.deadlocks, "{ctx}: deadlocks");
    assert_eq!(a.complete, b.complete, "{ctx}: complete");
    assert_eq!(a.stored_bytes, b.stored_bytes, "{ctx}: footprint");
    assert_eq!(a.peak_bytes, b.peak_bytes, "{ctx}: peak bytes");
    assert_eq!(a.stop, b.stop, "{ctx}: stop reason");
}

fn bench_line(phase: &str, r: &ReachReport, wall_secs: f64) {
    println!(
        "BENCH {{\"bench\":\"e15\",\"phase\":\"{phase}\",\"states\":{},\"transitions\":{},\"complete\":{},\"stop\":\"{:?}\",\"wall_ms\":{:.1},\"peak_bytes\":{},\"checkpoint\":{}}}",
        r.states,
        r.transitions,
        r.complete,
        r.stop,
        wall_secs * 1e3,
        r.peak_bytes,
        r.checkpoint.is_some(),
    );
}

/// Interrupt an infinite exploration, assert the partial report is valid
/// and prompt, and hand back its checkpoint.
fn interrupted_run(sys: &bip_core::System, phase: &str, cfg: &ReachConfig) -> ReachCheckpoint {
    let t = std::time::Instant::now();
    let r = explore_with(sys, cfg);
    let wall = t.elapsed().as_secs_f64();
    assert!(
        wall < PROMPT_SECS,
        "{phase}: interrupted run must return promptly, took {wall:.1}s"
    );
    assert!(!r.complete, "{phase}: infinite family can never complete");
    assert!(r.stop.is_interrupted(), "{phase}: stop {:?}", r.stop);
    assert!(r.states > 0, "{phase}: partial report must show progress");
    assert!(
        r.elapsed >= Duration::ZERO && r.peak_bytes >= r.stored_bytes.min(r.peak_bytes),
        "{phase}: accounting fields populated"
    );
    println!(
        "{phase:>12} {:>8} states in {wall:.2}s  stop {:?}  checkpoint at level cut",
        r.states, r.stop
    );
    bench_line(phase, &r, wall);
    r.checkpoint
        .unwrap_or_else(|| panic!("{phase}: interrupted stop must carry a checkpoint"))
}

fn table() {
    println!("\nE15: budgets, cancellation, and bit-identical checkpoint resume");
    println!("(unbounded_ring(6): infinite state space — only the control layer can stop it)\n");
    let sys = unbounded_ring(6);

    // Deadline: the clock, not the state space, ends the run.
    let deadline_cfg = ReachConfig::bounded(BOUND)
        .threads(2)
        .budget(Budget::unlimited().deadline_in(Duration::from_millis(DEADLINE_MS)));
    let ck_deadline = interrupted_run(&sys, "deadline", &deadline_cfg);

    // Cancellation from another thread.
    let token = CancelToken::new();
    let canceller = {
        let token = token.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(DEADLINE_MS));
            token.cancel();
        })
    };
    let cancel_cfg = ReachConfig::bounded(BOUND).threads(2).cancel(&token);
    let ck_cancel = interrupted_run(&sys, "cancel", &cancel_cfg);
    canceller.join().unwrap();

    // Resume each checkpoint under a state budget, and compare against an
    // uninterrupted run under the *same* budget: the reports must be
    // bit-identical — the interruption must be invisible in the answer.
    for (phase, ck) in [("deadline", ck_deadline), ("cancel", ck_cancel)] {
        let target = ck.states() + GROW;
        let budget_cfg = ReachConfig::bounded(BOUND)
            .threads(2)
            .budget(Budget::unlimited().states(target));
        let t = std::time::Instant::now();
        let resumed = explore_resume(&sys, &budget_cfg, ck).expect("same mode and reduction");
        let wall = t.elapsed().as_secs_f64();
        let straight = explore_with(&sys, &budget_cfg);
        assert_same(&resumed, &straight, &format!("{phase}: resume"));
        assert_eq!(resumed.stop, StopReason::StateBudget);
        assert!(resumed.states >= target, "budget trips at a level boundary");
        println!(
            "{:>12} {:>8} states  resume == straight run (stop {:?})",
            format!("{phase}+resume"),
            resumed.states,
            resumed.stop,
        );
        bench_line(&format!("{phase}_resume"), &resumed, wall);
    }
    println!();
}

fn bench(c: &mut Criterion) {
    table();
    let mut g = c.benchmark_group("e15");
    g.sample_size(10);
    // Control-layer overhead: a state-budgeted run vs the engine's own
    // bound stopping at the same count — the budget checks at level
    // boundaries must be free.
    let sys = unbounded_ring(4);
    let n = 50_000usize;
    g.bench_with_input(BenchmarkId::new("engine_bound", n), &sys, |b, sys| {
        b.iter(|| explore_with(sys, &ReachConfig::bounded(n)).states)
    });
    g.bench_with_input(BenchmarkId::new("state_budget", n), &sys, |b, sys| {
        b.iter(|| {
            explore_with(
                sys,
                &ReachConfig::bounded(BOUND).budget(Budget::unlimited().states(n)),
            )
            .states
        })
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
