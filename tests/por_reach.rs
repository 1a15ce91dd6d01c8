//! Cross-checks for the persistent-set partial-order reduction
//! (`ReachConfig::reduction(Reduction::Persistent)`):
//!
//! * **verdict equivalence** with `Reduction::None` on random systems for
//!   `explore` / `check_invariant` / `find_deadlock`, at a tight bound that
//!   truncates both searches, a crossing bound sized to the reduced state
//!   count (complete for one mode, truncating for the other), and a
//!   generous bound where both complete — when both runs are complete the
//!   deadlock *sets*, the `deadlock_free()` / `holds()` / `found()`
//!   verdicts, and the completeness flags must coincide exactly;
//! * **definitiveness**: any witness the reduced search returns (deadlock
//!   or invariant violation) is replayed step-by-step from the initial
//!   state and checked for real — bounded or not;
//! * **bit-identity across thread counts** under reduction: the whole
//!   report (states, transitions, deadlock order, completeness) is
//!   identical at 1, 2, and 8 workers, like every other engine mode;
//! * **no ignoring**: an invisible cycle that the ample sets could spin on
//!   forever must not hide a visible step elsewhere (the cycle proviso).

use bip_core::{
    AtomBuilder, ConnectorBuilder, Expr, State, StatePred, Step, System, SystemBuilder,
};
use bip_verify::reach::{
    check_invariant_with, explore_with, find_deadlock_with, ReachConfig, Reduction,
};
use proptest::prelude::*;
use std::collections::HashSet;

mod common;
use common::random_system;

/// Replay a step trace from the initial state; returns the final state.
fn replay(sys: &System, trace: &[Step]) -> State {
    let mut st = sys.initial_state();
    for step in trace {
        match step {
            Step::Interaction {
                interaction,
                transitions,
            } => sys.fire_interaction(&mut st, interaction, transitions),
            Step::Internal {
                component,
                transition,
            } => sys.fire_local(&mut st, *component, *transition),
        }
    }
    st
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Explore: on complete runs the reduced search preserves the deadlock
    /// set and the completeness flag while never storing more states; on
    /// truncated runs its `complete == false` is honest in both modes.
    #[test]
    fn persistent_explore_matches_none_verdicts(seed in 0u64..200) {
        let sys = random_system(seed);
        let full = explore_with(&sys, &ReachConfig::bounded(8_000));
        let red = explore_with(
            &sys,
            &ReachConfig::bounded(8_000).reduction(Reduction::Persistent),
        );
        prop_assert!(red.states <= full.states, "reduction never grows the stored set");
        if full.complete {
            prop_assert!(red.complete, "reduced ⊆ full: a complete full run forces a complete reduced run");
            let a: HashSet<&State> = red.deadlocks.iter().collect();
            let b: HashSet<&State> = full.deadlocks.iter().collect();
            prop_assert_eq!(a, b);
            prop_assert_eq!(red.deadlock_free(), full.deadlock_free());
        }
        // Crossing bound: complete for the reduced graph, possibly
        // truncating the full one — verdicts that claim completeness must
        // still be trustworthy on the reduced side.
        if full.complete && red.states < full.states {
            let crossing = explore_with(
                &sys,
                &ReachConfig::bounded(red.states).reduction(Reduction::Persistent),
            );
            prop_assert!(crossing.complete, "bound == |reduced| loses nothing");
            let a: HashSet<&State> = crossing.deadlocks.iter().collect();
            let b: HashSet<&State> = full.deadlocks.iter().collect();
            prop_assert_eq!(a, b);
        }
        // Tight bound: both truncate; both must say so.
        let tight_full = explore_with(&sys, &ReachConfig::bounded(7));
        let tight_red = explore_with(
            &sys,
            &ReachConfig::bounded(7).reduction(Reduction::Persistent),
        );
        prop_assert_eq!(tight_full.states <= 7, true);
        prop_assert_eq!(tight_red.states <= 7, true);
        if !tight_full.complete {
            prop_assert!(!tight_full.deadlock_free());
        }
        if !tight_red.complete {
            prop_assert!(!tight_red.deadlock_free());
        }
    }

    /// Deadlock search: verdict equivalence on complete runs; a reduced
    /// witness is always a genuine deadlock with a replayable trace.
    #[test]
    fn persistent_find_deadlock_matches_none_verdicts(seed in 0u64..200) {
        let sys = random_system(seed);
        for bound in [4_000usize, 29] {
            let full = find_deadlock_with(&sys, &ReachConfig::bounded(bound));
            let red = find_deadlock_with(
                &sys,
                &ReachConfig::bounded(bound).reduction(Reduction::Persistent),
            );
            if full.complete && red.complete {
                prop_assert_eq!(full.found(), red.found());
                prop_assert_eq!(full.deadlock_free(), red.deadlock_free());
            }
            if let Some((st, trace)) = &red.witness {
                prop_assert_eq!(&replay(&sys, trace), st);
                prop_assert!(sys.successors(st).is_empty(), "witness is a real deadlock");
            }
            if full.complete && !full.found() {
                // Deadlock-freedom is preserved: the reduced search cannot
                // invent a deadlock the full one lacks.
                prop_assert!(!red.found());
            }
        }
    }

    /// Invariant checking: verdict equivalence on complete runs (the
    /// visibility check plus cycle proviso make the reduced verdict exact),
    /// and any reduced violation is genuine.
    #[test]
    fn persistent_check_invariant_matches_none_verdicts(seed in 0u64..200) {
        let sys = random_system(seed);
        let inv = StatePred::at(&sys, 0, "l0");
        for bound in [4_000usize, 29] {
            let full = check_invariant_with(&sys, &inv, &ReachConfig::bounded(bound));
            let red = check_invariant_with(
                &sys,
                &inv,
                &ReachConfig::bounded(bound).reduction(Reduction::Persistent),
            );
            if full.complete && red.complete {
                prop_assert_eq!(full.holds(), red.holds());
                prop_assert_eq!(full.violation.is_some(), red.violation.is_some());
            }
            if let Some((st, trace)) = &red.violation {
                prop_assert_eq!(&replay(&sys, trace), st);
                prop_assert!(!inv.eval(&sys, st), "witness genuinely violates");
            }
            if full.complete && full.violation.is_none() {
                prop_assert!(red.violation.is_none(), "no false positives under reduction");
            }
        }
    }

    /// Bit-identity across 1/2/8 worker threads under reduction, for every
    /// explorer, at a truncating and a generous bound.
    #[test]
    fn persistent_reports_are_thread_count_invariant(seed in 0u64..120) {
        let sys = random_system(seed);
        for bound in [6_000usize, 31] {
            let base = ReachConfig::bounded(bound).reduction(Reduction::Persistent);
            let e1 = explore_with(&sys, &base);
            let d1 = find_deadlock_with(&sys, &base);
            let inv = StatePred::at(&sys, 0, "l0");
            let i1 = check_invariant_with(&sys, &inv, &base);
            for threads in [2usize, 8] {
                let cfg = base.clone().threads(threads).min_parallel_level(1);
                let e = explore_with(&sys, &cfg);
                prop_assert_eq!(e.states, e1.states);
                prop_assert_eq!(e.transitions, e1.transitions);
                prop_assert_eq!(&e.deadlocks, &e1.deadlocks);
                prop_assert_eq!(e.complete, e1.complete);
                prop_assert_eq!(e.stored_bytes, e1.stored_bytes);
                let d = find_deadlock_with(&sys, &cfg);
                prop_assert_eq!(&d.witness, &d1.witness);
                prop_assert_eq!(d.states, d1.states);
                prop_assert_eq!(d.complete, d1.complete);
                let i = check_invariant_with(&sys, &inv, &cfg);
                prop_assert_eq!(&i.violation, &i1.violation);
                prop_assert_eq!(i.states, i1.states);
                prop_assert_eq!(i.complete, i1.complete);
            }
        }
    }
}

/// The ignoring problem: component A spins on an invisible internal
/// two-location loop, independent of everything; component B can take one
/// visible step into `bad`. Every state has the ample set {A's spin}, which
/// closes a cycle back to the initial state. Without the cycle proviso the
/// reduced search stores two states, never fires B's step, and reports the
/// invariant as holding. With it, the state whose ample successor closes
/// the cycle is expanded fully and the violation is found.
#[test]
fn persistent_invariant_does_not_ignore_a_visible_step() {
    let spinner = AtomBuilder::new("spinner")
        .location("a0")
        .location("a1")
        .initial("a0")
        .internal_transition("a0", Expr::t(), vec![], "a1")
        .internal_transition("a1", Expr::t(), vec![], "a0")
        .build()
        .unwrap();
    let stepper = AtomBuilder::new("stepper")
        .port("go")
        .location("ok")
        .location("bad")
        .initial("ok")
        .transition("ok", "go", "bad")
        .build()
        .unwrap();
    let mut sb = SystemBuilder::new();
    sb.add_instance("a", &spinner);
    let b = sb.add_instance("b", &stepper);
    sb.add_connector(ConnectorBuilder::singleton("go", b, "go"));
    let sys = sb.build().unwrap();
    let inv = StatePred::at(&sys, b, "ok");
    for threads in [1usize, 2] {
        let cfg = ReachConfig::bounded(100)
            .reduction(Reduction::Persistent)
            .threads(threads)
            .min_parallel_level(1);
        let r = check_invariant_with(&sys, &inv, &cfg);
        let (st, trace) = r
            .violation
            .as_ref()
            .unwrap_or_else(|| panic!("threads {threads}: the visible step was ignored"));
        assert!(!r.holds());
        assert_eq!(&replay(&sys, trace), st, "the witness replays");
        assert!(!inv.eval(&sys, st), "the witness violates the invariant");
    }
}
