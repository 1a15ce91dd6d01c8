//! Checkpoint/resume invisibility for the reachability engine.
//!
//! The control layer's core guarantee: a run interrupted at *any* level
//! boundary and resumed produces a final report **bit-identical** to the
//! uninterrupted run — states, transitions, deadlock list (order
//! included), completeness, stored/peak footprint, and stop reason
//! (`elapsed` is the one field allowed to differ; it accumulates across
//! resumes by design).
//!
//! The proptests force an interruption at *every* level boundary by
//! chaining state-budgeted hops: start with `Budget::states(1)` (trips at
//! the first boundary), then repeatedly resume with the budget set one
//! state past the checkpoint, so each hop crosses exactly the next
//! boundary. The chain runs on random systems and philosophers, across
//! 1/2/8 worker threads and both `Reduction` modes, under both generous
//! and truncating engine bounds (a budget trip and the engine's own
//! `max_states` bound compose: the final hop ends exactly like the
//! straight run, `Completed` or `BoundExhausted`, with no checkpoint).
//!
//! The witness searches get the same treatment: a chained
//! `find_deadlock_resume` / `check_invariant_resume` run returns the
//! straight run's witness (trace included), counts, stop reason and peak
//! footprint — the footprint that, with the trace arena counted, is what a
//! `Budget::bytes` ceiling reads.
//! A release-only test holds deadline and cancellation cuts of an
//! infinite-state ring to the same contract, and to a prompt stop.

use bip_core::{dining_philosophers, State, StatePred, Step};
use bip_verify::reach::{
    check_invariant_resume, check_invariant_with, explore_resume, explore_with,
    find_deadlock_resume, find_deadlock_with, ReachCheckpoint, ReachConfig, ReachReport, Reduction,
};
use bip_verify::{Budget, CancelToken, StopReason};
use proptest::prelude::*;
use std::time::{Duration, Instant};

mod common;
use common::{random_system, unbounded_ring};

/// Bit-identity over every report field except `elapsed`.
fn assert_bit_identical(a: &ReachReport, b: &ReachReport, ctx: &str) -> Result<(), String> {
    if a.states != b.states || a.transitions != b.transitions {
        return Err(format!(
            "{ctx}: counts diverged: ({}, {}) vs ({}, {})",
            a.states, a.transitions, b.states, b.transitions
        ));
    }
    if a.deadlocks != b.deadlocks {
        return Err(format!("{ctx}: deadlock lists diverged"));
    }
    if a.complete != b.complete || a.stop != b.stop {
        return Err(format!(
            "{ctx}: termination diverged: ({}, {:?}) vs ({}, {:?})",
            a.complete, a.stop, b.complete, b.stop
        ));
    }
    if a.stored_bytes != b.stored_bytes || a.peak_bytes != b.peak_bytes {
        return Err(format!(
            "{ctx}: footprint diverged: ({}, {}) vs ({}, {})",
            a.stored_bytes, a.peak_bytes, b.stored_bytes, b.peak_bytes
        ));
    }
    if a.checkpoint.is_some() || b.checkpoint.is_some() {
        return Err(format!("{ctx}: a finished run must not carry a checkpoint"));
    }
    Ok(())
}

/// Run `sys` under `cfg`, interrupted at every level boundary: the first
/// run is budgeted to one state, every resume to one state past the
/// previous cut. Returns the final report and the number of resumes.
fn chained_resume(sys: &bip_core::System, cfg: &ReachConfig) -> (ReachReport, usize) {
    let mut hops = 0usize;
    let mut r = explore_with(sys, &cfg.clone().budget(Budget::unlimited().states(1)));
    loop {
        match r.checkpoint.take() {
            None => return (r, hops),
            Some(ck) => {
                hops += 1;
                assert_eq!(r.stop, StopReason::StateBudget, "hop {hops}: stop reason");
                assert!(!r.complete, "hop {hops}: interrupted runs are incomplete");
                let next = cfg
                    .clone()
                    .budget(Budget::unlimited().states(ck.states() + 1));
                r = explore_resume(sys, &next, ck).expect("same mode and reduction");
            }
        }
    }
}

/// One straight run vs the boundary-by-boundary chained run.
fn check(sys: &bip_core::System, cfg: &ReachConfig, ctx: &str) -> Result<(), String> {
    let straight = explore_with(sys, cfg);
    let (chained, hops) = chained_resume(sys, cfg);
    assert_bit_identical(&chained, &straight, &format!("{ctx} ({hops} hops)"))
}

fn configs(bound: usize, threads: usize, reduction: Reduction) -> ReachConfig {
    ReachConfig::bounded(bound)
        .threads(threads)
        .min_parallel_level(1)
        .reduction(reduction)
}

/// What a resumed witness search must reproduce: witness, states,
/// completeness, stop reason, peak footprint.
type WitnessKey = (Option<(State, Vec<Step>)>, usize, bool, StopReason, usize);

/// Run a witness search interrupted at every level boundary. `run` takes
/// the hop's budget and, after the first hop, the checkpoint to resume;
/// `split` reads a report's key and takes its checkpoint.
fn chained_witness_search<R>(
    mut run: impl FnMut(Budget, Option<ReachCheckpoint>) -> R,
    split: impl Fn(R) -> (WitnessKey, Option<ReachCheckpoint>),
) -> WitnessKey {
    let (mut key, mut ck) = split(run(Budget::unlimited().states(1), None));
    let mut hops = 0usize;
    while let Some(c) = ck {
        hops += 1;
        assert!(hops < 10_000, "resume chain must terminate");
        assert_eq!(key.3, StopReason::StateBudget, "hop {hops}: stop reason");
        let budget = Budget::unlimited().states(c.states() + 1);
        (key, ck) = split(run(budget, Some(c)));
    }
    key
}

/// Straight vs chained deadlock search and invariant check on `sys`.
fn check_witness_searches(
    sys: &bip_core::System,
    inv: &StatePred,
    cfg: &ReachConfig,
    ctx: &str,
) -> Result<(), String> {
    let dsplit = |r: bip_verify::DeadlockReport| {
        (
            (r.witness, r.states, r.complete, r.stop, r.peak_bytes),
            r.checkpoint,
        )
    };
    let straight = dsplit(find_deadlock_with(sys, cfg)).0;
    let chained = chained_witness_search(
        |b, ck| {
            let cfg = cfg.clone().budget(b);
            match ck {
                None => find_deadlock_with(sys, &cfg),
                Some(ck) => find_deadlock_resume(sys, &cfg, ck).expect("same mode and reduction"),
            }
        },
        dsplit,
    );
    if chained != straight {
        return Err(format!("{ctx}: chained deadlock search diverged"));
    }

    let isplit = |r: bip_verify::InvariantReport| {
        (
            (r.violation, r.states, r.complete, r.stop, r.peak_bytes),
            r.checkpoint,
        )
    };
    let straight = isplit(check_invariant_with(sys, inv, cfg)).0;
    let chained = chained_witness_search(
        |b, ck| {
            let cfg = cfg.clone().budget(b);
            match ck {
                None => check_invariant_with(sys, inv, &cfg),
                Some(ck) => {
                    check_invariant_resume(sys, inv, &cfg, ck).expect("same mode and reduction")
                }
            }
        },
        isplit,
    );
    if chained != straight {
        return Err(format!("{ctx}: chained invariant check diverged"));
    }
    Ok(())
}

#[test]
fn chained_witness_searches_on_philosophers() {
    // Deep enough to cross several boundaries before the witness: the
    // deadlock of two-phase phil-4, and a mutex that holds (so the chain
    // runs to completion and the peak footprint covers every trace node).
    let sys = dining_philosophers(4, true).unwrap();
    let inv = StatePred::mutex(&sys, [(0, "eating"), (1, "eating")]);
    for reduction in [Reduction::None, Reduction::Persistent] {
        for threads in [1usize, 2] {
            let cfg = configs(1_000_000, threads, reduction);
            check_witness_searches(
                &sys,
                &inv,
                &cfg,
                &format!("phil 4 t{threads} {reduction:?}"),
            )
            .unwrap();
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// Random systems: every-boundary resume is invisible for every thread
    /// count and both reduction modes, under a generous bound.
    #[test]
    fn chained_resume_is_bit_identical_on_random_systems(seed in 0u64..120) {
        let sys = random_system(seed);
        for reduction in [Reduction::None, Reduction::Persistent] {
            for threads in [1usize, 2, 8] {
                let cfg = configs(2_000, threads, reduction);
                if let Err(e) = check(&sys, &cfg, &format!("seed {seed} threads {threads} {reduction:?}")) {
                    prop_assert!(false, "{}", e);
                }
            }
        }
    }

    /// Truncating engine bounds compose with budget hops: the straight run
    /// ends `BoundExhausted`, and so must the chained run — at the same
    /// counts, with no checkpoint.
    #[test]
    fn chained_resume_respects_engine_bounds(seed in 0u64..80, bound in 5usize..60) {
        let sys = random_system(seed);
        for threads in [1usize, 8] {
            let cfg = configs(bound, threads, Reduction::None);
            if let Err(e) = check(&sys, &cfg, &format!("seed {seed} bound {bound} threads {threads}")) {
                prop_assert!(false, "{}", e);
            }
        }
    }

    /// Philosophers (both variants): the deadlock lists a chained run
    /// reports are identical, order included, to the straight run's.
    #[test]
    fn chained_resume_preserves_deadlocks_on_philosophers(n in 2usize..5, variant in 0u8..2) {
        let two_phase = variant == 1;
        let sys = dining_philosophers(n, two_phase).unwrap();
        for reduction in [Reduction::None, Reduction::Persistent] {
            for threads in [1usize, 2, 8] {
                let cfg = configs(1_000_000, threads, reduction);
                if let Err(e) = check(&sys, &cfg, &format!("phil {n} 2p={two_phase} threads {threads} {reduction:?}")) {
                    prop_assert!(false, "{}", e);
                }
            }
        }
    }

    /// Witness searches: every-boundary resume returns the straight run's
    /// witness, counts and peak footprint, for both reduction modes and
    /// thread counts.
    #[test]
    fn chained_witness_searches_are_bit_identical_on_random_systems(seed in 0u64..120) {
        let sys = random_system(seed);
        let inv = StatePred::at(&sys, 0, "l0");
        for reduction in [Reduction::None, Reduction::Persistent] {
            for threads in [1usize, 2] {
                let cfg = configs(500, threads, reduction);
                check_witness_searches(&sys, &inv, &cfg, &format!("seed {seed} threads {threads} {reduction:?}"))?;
            }
        }
    }
}

/// A deadline and a cancellation each stop an exploration of the
/// infinite-state `unbounded_ring(6)` within 30 s of a 200 ms trigger, with
/// a partial report (incomplete, interrupted, some states) and a
/// checkpoint. Resuming either checkpoint under a state budget 40 000
/// states further gives exactly the report an uninterrupted run under that
/// budget gives, stop and peak footprint included.
#[test]
#[ignore = "release: run with --ignored"]
fn deadline_and_cancel_stop_promptly_and_resume_bit_identically() {
    let sys = unbounded_ring(6);
    let cfg = ReachConfig::bounded(50_000_000).threads(2);
    let trigger = Duration::from_millis(200);
    let interrupted = |cfg: ReachConfig| -> ReachCheckpoint {
        let t = Instant::now();
        let r = explore_with(&sys, &cfg);
        assert!(t.elapsed() < Duration::from_secs(30), "{:?}", t.elapsed());
        assert!(!r.complete && r.stop.is_interrupted() && r.states > 0);
        r.checkpoint.expect("interrupted runs carry a checkpoint")
    };
    let deadline = interrupted(cfg.clone().budget(Budget::unlimited().deadline_in(trigger)));
    let token = CancelToken::new();
    let canceller = std::thread::spawn({
        let token = token.clone();
        move || {
            std::thread::sleep(trigger);
            token.cancel();
        }
    });
    let cancel = interrupted(cfg.clone().cancel(&token));
    canceller.join().unwrap();

    for ck in [deadline, cancel] {
        let target = ck.states() + 40_000;
        let budgeted = cfg.clone().budget(Budget::unlimited().states(target));
        let resumed = explore_resume(&sys, &budgeted, ck).expect("same mode and reduction");
        let straight = explore_with(&sys, &budgeted);
        let key = |r: &ReachReport| (r.states, r.transitions, r.deadlocks.clone(), r.stop);
        assert_eq!(key(&resumed), key(&straight));
        let bytes = |r: &ReachReport| (r.complete, r.stored_bytes, r.peak_bytes);
        assert_eq!(bytes(&resumed), bytes(&straight));
        assert_eq!(resumed.stop, StopReason::StateBudget);
        assert!(resumed.states >= target, "budgets trip at a level boundary");
    }
}
