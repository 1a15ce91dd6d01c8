//! `--check-references`: an independent oracle for the pinned answers.
//!
//! It never calls `reach`, `bmc`, `kind` or `dfinder`: a naive breadth-first
//! search over `HashSet<State>` and the Vec-returning `System::successors`
//! confirms the unreduced counts and verdicts the question table pins, and
//! that verdicts do not move under the seed permutation. Not timed, not part
//! of the benchmark command.

use crate::families::{self, Model};
use bip_core::{State, StatePred, System};
use std::collections::{HashSet, VecDeque};

/// What a naive exhaustive search sees.
#[derive(Debug, PartialEq, Eq)]
struct Census {
    states: usize,
    transitions: usize,
    deadlocks: Vec<State>,
    /// BFS depth of the first state violating the predicate, if any.
    violation_depth: Option<usize>,
}

fn census(sys: &System, pred: Option<&StatePred>) -> Census {
    let mut seen: HashSet<State> = HashSet::new();
    let mut queue = VecDeque::new();
    let init = sys.initial_state();
    seen.insert(init.clone());
    queue.push_back((init, 0usize));
    let mut out = Census {
        states: 0,
        transitions: 0,
        deadlocks: Vec::new(),
        violation_depth: None,
    };
    while let Some((st, depth)) = queue.pop_front() {
        if out.violation_depth.is_none() && pred.is_some_and(|p| !p.eval(sys, &st)) {
            out.violation_depth = Some(depth);
        }
        let succs = sys.successors(&st);
        if succs.is_empty() {
            out.deadlocks.push(st);
            continue;
        }
        for (_, next) in succs {
            out.transitions += 1;
            if seen.insert(next.clone()) {
                queue.push_back((next, depth + 1));
            }
        }
    }
    out.states = seen.len();
    out
}

fn all_has_left(sys: &System, st: &State, n: usize) -> bool {
    (0..n).all(|i| families::at(sys, &format!("phil{i}"), "hasL").eval(sys, st))
}

/// Run every reference check; `true` when all hold.
pub fn check_references() -> bool {
    let mut failures = 0;
    let mut check = |what: &str, ok: bool| {
        println!("{} {what}", if ok { "ok  " } else { "FAIL" });
        if !ok {
            failures += 1;
        }
    };

    let sys = Model::PhilTwoPhase(14).build(0);
    let got = census(&sys, None);
    check(
        "phil-14 two-phase: 228486 states, 2067856 transitions",
        (got.states, got.transitions) == (228_486, 2_067_856),
    );
    check(
        "phil-14 two-phase: exactly one deadlock, every philosopher in hasL",
        got.deadlocks.len() == 1 && all_has_left(&sys, &got.deadlocks[0], 14),
    );

    let sys = Model::CounterRing(6, 5).build(0);
    let mutex = families::ring_token_mutex(&sys, 6);
    let got = census(&sys, Some(&mutex));
    check(
        "cring-6x5: 279936 states, token mutex holds, no deadlock",
        got.states == 279_936 && got.violation_depth.is_none() && got.deadlocks.is_empty(),
    );

    let sys = Model::Planted(50, 0).build(0);
    let got = census(&sys, Some(&families::planted_invariant(&sys, 50)));
    check(
        "planted-50 counter alone: the bug sits at depth 50",
        got.violation_depth == Some(50),
    );

    // Verdicts and unreduced counts do not depend on declaration order.
    type Build = fn(&System) -> Option<StatePred>;
    let siblings: [(Model, Build, &str); 4] = [
        (Model::PhilTwoPhase(5), |_| None, "phil-5"),
        (
            Model::CounterRing(3, 2),
            |s| Some(families::ring_token_mutex(s, 3)),
            "cring-3x2",
        ),
        (
            Model::Planted(8, 3),
            |s| Some(families::planted_invariant(s, 8)),
            "planted-8x3",
        ),
        (Model::GasStation(4), |_| None, "gas-4"),
    ];
    for (model, pred_of, name) in siblings {
        let verdicts: Vec<(usize, usize, usize, Option<usize>)> = (0..4)
            .map(|seed| {
                let sys = model.build(seed);
                let got = census(&sys, pred_of(&sys).as_ref());
                if let Model::PhilTwoPhase(n) = model {
                    assert!(got.deadlocks.iter().all(|d| all_has_left(&sys, d, n)));
                }
                (
                    got.states,
                    got.transitions,
                    got.deadlocks.len(),
                    got.violation_depth,
                )
            })
            .collect();
        let expected_shape = match model {
            Model::PhilTwoPhase(_) => verdicts[0].2 == 1,
            Model::CounterRing(..) => verdicts[0].2 == 0 && verdicts[0].3.is_none(),
            Model::Planted(depth, _) => verdicts[0].3 == Some(depth as usize),
            Model::GasStation(_) => verdicts[0].2 == 0,
            _ => true,
        };
        check(
            &format!(
                "{name}: seeds 0-3 agree on (states, transitions, deadlocks, violation depth) = {:?}",
                verdicts[0]
            ),
            expected_shape && verdicts.iter().all(|v| *v == verdicts[0]),
        );
    }

    println!(
        "{}",
        if failures == 0 {
            "check-references: all references confirmed".to_string()
        } else {
            format!("check-references: {failures} FAILED")
        }
    );
    failures == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn census_of_a_small_ring_and_a_planted_counter() {
        let sys = Model::PhilTwoPhase(3).build(0);
        let got = census(&sys, None);
        assert_eq!(got.deadlocks.len(), 1);
        assert!(all_has_left(&sys, &got.deadlocks[0], 3));
        let sys = Model::Planted(5, 1).build(2);
        let got = census(&sys, Some(&families::planted_invariant(&sys, 5)));
        assert_eq!(got.violation_depth, Some(5));
        assert_eq!(got.states, 12);
    }
}
