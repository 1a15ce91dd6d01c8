//! Property tests for the fault-injection transform (`bip_core::fault`).
//!
//! Two laws on random systems (see `common::random_system` — random guarded
//! atoms, rendezvous/broadcast/singleton connectors, random priority
//! layers):
//!
//! 1. **Zero faults ⇒ bisimilar.** A `FaultSpec` with no fault enabled —
//!    either nothing crashable, or everything crashable under a
//!    `max_concurrent_faults` budget of 0 — must leave the behavior
//!    untouched: walking original and transformed systems in lockstep,
//!    every state has the same `successors()` set (steps and
//!    fault-projected states) in both.
//! 2. **Every introduced crash state is reachable.** Under an unrecoverable
//!    crash-all spec, each crashable component's `__crashed` location is
//!    reachable — already at depth 1, since the crash transition leaves
//!    every original location and the monitor budget starts free.
//!
//! Beside them, crash-recovery philosophers: every engine refutes the
//! unrecoverable variant; the fault-budgeted one is proved and live.

mod common;

use std::collections::{HashSet, VecDeque};

use bip_core::fault::{self, FaultSpec, RecoverSpec};
use bip_core::{dining_philosophers, system_to_dot, State, Step, System};
use bip_verify::bmc::BmcConfig;
use bip_verify::dfinder::DFinderConfig;
use bip_verify::kind::{certify_step, Verdict};
use bip_verify::reach::{
    check_invariant_with, explore_with, find_deadlock, ReachConfig, ReachReport,
};
use bip_verify::{Budget, IncrementalVerifier, InvariantOutcome, StopReason};
use common::{crash_recovery_philosophers, random_system};
use proptest::prelude::*;

/// Lockstep BFS over (original, transformed) state pairs, asserting the
/// successor sets agree step-for-step after projecting the transformed
/// states back onto the original's components.
fn assert_bisimilar(orig: &System, faulty: &System, max_states: usize) {
    let key = |step_dbg: &str, st: &State| format!("{step_dbg} -> {st:?}");
    let mut seen: HashSet<State> = HashSet::new();
    let mut queue: VecDeque<(State, State)> = VecDeque::new();
    let init = (orig.initial_state(), faulty.initial_state());
    assert_eq!(
        fault::project_state(orig, &init.1),
        init.0,
        "initial states must project onto each other"
    );
    seen.insert(init.0.clone());
    queue.push_back(init);
    while let Some((so, sf)) = queue.pop_front() {
        let mut succ_o: Vec<(String, State)> = orig
            .successors(&so)
            .into_iter()
            .map(|(step, st)| (format!("{step:?}"), st))
            .collect();
        let mut succ_f: Vec<(String, State, State)> = faulty
            .successors(&sf)
            .into_iter()
            .map(|(step, st)| {
                let proj = fault::project_state(orig, &st);
                (format!("{step:?}"), proj, st)
            })
            .collect();
        succ_o.sort_by_key(|(step, st)| key(step, st));
        succ_f.sort_by_key(|(step, proj, _)| key(step, proj));
        let keys_o: Vec<String> = succ_o.iter().map(|(s, st)| key(s, st)).collect();
        let keys_f: Vec<String> = succ_f.iter().map(|(s, proj, _)| key(s, proj)).collect();
        assert_eq!(
            keys_o, keys_f,
            "successor sets diverge at {so:?} (faulty side {sf:?})"
        );
        for ((_, st_o), (_, _, st_f)) in succ_o.into_iter().zip(succ_f) {
            if seen.len() < max_states && seen.insert(st_o.clone()) {
                queue.push_back((st_o, st_f));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// An empty spec is the identity transform, down to the DOT rendering.
    #[test]
    fn empty_spec_is_identity(seed in 0u64..192) {
        let sys = random_system(seed);
        let same = fault::inject(&sys, &FaultSpec::none()).unwrap();
        prop_assert_eq!(system_to_dot(&same), system_to_dot(&sys));
    }

    /// Crash machinery under a zero budget is invisible: the transformed
    /// system is step-for-step bisimilar to the original.
    #[test]
    fn zero_budget_is_bisimilar(seed in 0u64..192) {
        let sys = random_system(seed);
        let spec = FaultSpec::crash_all().unrecoverable().budget(0);
        let faulty = fault::inject(&sys, &spec).unwrap();
        assert_bisimilar(&sys, &faulty, 200);
    }

    /// Every crash state the transform introduces is reachable — at depth 1
    /// already, since crashes leave every location and the budget starts
    /// free.
    #[test]
    fn introduced_crash_states_are_reachable(seed in 0u64..192) {
        let sys = random_system(seed);
        let spec = FaultSpec::crash_all().unrecoverable();
        let faulty = fault::inject(&sys, &spec).unwrap();
        let crashable = fault::crashable_components(&faulty);
        prop_assert_eq!(crashable.len(), sys.num_components());
        let succ = faulty.successors(&faulty.initial_state());
        for c in crashable {
            let bot = fault::crashed_loc(&faulty, c).unwrap();
            prop_assert!(
                succ.iter().any(|(_, st)| st.locs[c] == bot),
                "component {}'s crash state must be a depth-1 successor",
                c
            );
        }
    }
}

/// Philosophers per table (six crashable components: philosophers and
/// forks) and the explicit-state budget both directions stay under.
const PHIL_N: usize = 3;
const EXPLICIT_BUDGET: usize = 500_000;

/// Replay a step trace through `System::successors` from the initial
/// state; every step must be live where it is taken.
fn replay(sys: &System, trace: &[Step]) -> State {
    let mut st = sys.initial_state();
    for (i, step) in trace.iter().enumerate() {
        st = sys
            .successors(&st)
            .into_iter()
            .find(|(s, _)| s == step)
            .unwrap_or_else(|| panic!("step {i} of the witness is not enabled: {step:?}"))
            .1;
    }
    st
}

/// The unrecoverable variant's planted bug, refuted by every engine:
/// explicit search finds the all-crashed state with a trace that replays to
/// it, BMC finds the shortest witness (one crash per component) and it
/// replays too, the all-crashed state is a deadlock, and the reach report
/// is identical across 1, 2 and 8 threads.
#[test]
fn unrecoverable_crashes_are_refuted_by_every_engine() {
    let doomed = crash_recovery_philosophers(PHIL_N, None, RecoverSpec::None);
    let crashable = fault::crashable_components(&doomed).len();
    assert_eq!(crashable, 2 * PHIL_N, "crash_all covers phils and forks");
    let inv = fault::all_crashed(&doomed).not();

    let explicit = check_invariant_with(&doomed, &inv, &ReachConfig::bounded(EXPLICIT_BUDGET));
    let (bad, steps) = explicit
        .violation
        .as_ref()
        .expect("all-crashed is reachable");
    assert_eq!(&replay(&doomed, steps), bad, "the reach witness replays");
    assert!(!inv.eval(&doomed, bad));

    let bmc = BmcConfig::new(&doomed)
        .bound(crashable)
        .budget(Budget::unlimited().conflicts(500_000))
        .check_invariant(&inv)
        .unwrap();
    let (trace, states) = bmc.violation().expect("BMC finds the bug");
    assert_eq!((trace.len(), states.len()), (crashable, crashable + 1));
    assert!(!inv.eval(&doomed, &replay(&doomed, trace)));

    assert!(find_deadlock(&doomed, EXPLICIT_BUDGET).found());

    let cfg = ReachConfig::bounded(EXPLICIT_BUDGET);
    let key = |r: ReachReport| {
        (
            r.states,
            r.transitions,
            r.complete,
            r.deadlocks,
            r.stored_bytes,
        )
    };
    let one = key(explore_with(&doomed, &cfg));
    assert!(one.2);
    for threads in [2usize, 8] {
        let r = explore_with(&doomed, &cfg.clone().threads(threads));
        assert_eq!(key(r), one, "threads={threads}");
    }
}

/// The fault-budgeted variant (at most one crash at a time, crashed
/// components restart from their initial valuation), through the
/// `IncrementalVerifier` fault helpers: the single-fault invariant is
/// proved by k-induction and certified by a fresh solver, the table never
/// deadlocks, and explicit search agrees the invariant holds everywhere.
#[test]
fn single_fault_recovery_is_proved_and_live() {
    let base = dining_philosophers(PHIL_N, false).unwrap();
    let spec = FaultSpec::crash_all()
        .recover(RecoverSpec::Restart)
        .budget(1);
    let saved = fault::inject(&base, &spec).unwrap();
    let inv = fault::single_fault_invariant(&saved);

    let inc = IncrementalVerifier::with_config(base, DFinderConfig::new().threads(2));
    let out = inc.verify_invariant_under(&spec, &inv, 4, EXPLICIT_BUDGET);
    let Ok(InvariantOutcome::Proof(report)) = &out else {
        panic!("the recovery invariant must be settled by proof, got {out:?}");
    };
    let (Verdict::Proved { k }, StopReason::Completed) = (report.verdict.clone(), report.stop)
    else {
        panic!("expected a completed proof, got {report:?}");
    };
    assert!(certify_step(&saved, &inv, k, 4096).unwrap());

    let dead = inc.find_deadlock_under(&spec, EXPLICIT_BUDGET).unwrap();
    assert!(dead.deadlock_free(), "recovery keeps the table live");
    let explicit = check_invariant_with(&saved, &inv, &ReachConfig::bounded(EXPLICIT_BUDGET));
    assert!(explicit.complete && explicit.violation.is_none());
}
