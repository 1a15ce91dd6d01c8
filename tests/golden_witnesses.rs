//! Witness traces as a tier-1 golden table.
//!
//! The explicit engine stores no step per state: a witness is rebuilt by
//! re-expanding each ancestor and taking the recorded successor ordinal
//! (`bip_verify::reach`'s module docs). That is exact only if every
//! expansion is replayed as the engine ran it, so this table pins the
//! `Debug` text of `(trace, last state)` for searches whose witness paths
//! cross each way a replay could go wrong:
//!
//! * a component with two transitions on one port from one location, so
//!   the recorded successor is not the first of its interaction
//!   (`random_system(2)`);
//! * a reduced (ample) expansion and a full one forced by the cycle proviso
//!   on the same path (`random_system(103)` under `Reduction::Persistent`);
//! * a codec widen mid-search, from a deliberately narrowed codec, before
//!   the witness is found (`random_system(6)`, and seed 103 again with all
//!   three at once);
//! * a deadlock search resumed from a `Budget::states` checkpoint;
//!
//! each at one and two threads (the fused and the two-phase level paths).
//! A witness that moves is a changed verdict trail, not noise: re-pin
//! `tests/golden_witnesses.txt` only with the reason given in CHANGES.md.

use std::fmt::Write as _;

use bip_core::{dining_philosophers, GExpr, State, StatePred, Step, System};
use bip_verify::reach::{
    check_invariant_with, find_deadlock_resume, find_deadlock_with, ReachConfig, Reduction,
};
use bip_verify::Budget;

mod common;
use common::random_system;

const GOLDEN: &str = include_str!("golden_witnesses.txt");

/// The invariant a case checks, built against its system.
type PredOf = fn(&System) -> StatePred;

/// Sequential, and two threads forced onto every level.
fn configs(reduction: Reduction) -> [(usize, ReachConfig); 2] {
    let base = ReachConfig::bounded(4_000).reduction(reduction);
    [
        (1, base.clone()),
        (2, base.threads(2).min_parallel_level(1)),
    ]
}

/// `sys`'s adaptive codec with every variable squeezed to one bit, so the
/// search must widen as soon as a value outgrows it.
fn narrowed(sys: &System) -> bip_core::StateCodec {
    let nvars = sys.initial_state().vars.len();
    (0..nvars).fold(sys.adaptive_codec(), |codec, v| {
        codec.with_narrowed_var(sys, v, 1)
    })
}

fn row(out: &mut String, name: &str, witness: Option<(State, Vec<Step>)>) {
    let (state, trace) = witness.unwrap_or_else(|| panic!("{name}: expected a witness"));
    writeln!(out, "{name} {:?}", (trace, state)).unwrap();
}

fn reduction_tag(r: Reduction) -> &'static str {
    match r {
        Reduction::None => "full",
        Reduction::Persistent => "por",
    }
}

#[test]
fn witnesses_match_the_golden_table() {
    let mut got = String::new();

    // Deadlock on two-phase philosophers, straight and resumed after a
    // state-budget cut.
    let phil = dining_philosophers(4, true).unwrap();
    for red in [Reduction::None, Reduction::Persistent] {
        for (threads, cfg) in configs(red) {
            let tag = format!("phil4-deadlock-{}-t{threads}", reduction_tag(red));
            row(&mut got, &tag, find_deadlock_with(&phil, &cfg).witness);
            let cut = find_deadlock_with(&phil, &cfg.clone().budget(Budget::unlimited().states(5)));
            let ck = cut.checkpoint.expect("a state budget of 5 cuts phil-4");
            let resumed = find_deadlock_resume(&phil, &cfg, ck).unwrap();
            row(&mut got, &format!("{tag}-resumed"), resumed.witness);
        }
    }

    // (name, seed, predicate, reduction, narrowed codec)
    let cases: [(&str, u64, PredOf, Reduction, bool); 5] = [
        (
            "seed2-combo",
            2,
            |s| StatePred::at(s, 3, "l1").not(),
            Reduction::None,
            false,
        ),
        (
            "seed103-proviso",
            103,
            |_| StatePred::Le(GExpr::var(0, 0), GExpr::int(2)),
            Reduction::Persistent,
            false,
        ),
        (
            "seed6-widen",
            6,
            |_| StatePred::Le(GExpr::var(1, 1), GExpr::int(3)),
            Reduction::None,
            true,
        ),
        (
            "seed103-widen",
            103,
            |_| StatePred::Le(GExpr::var(0, 0), GExpr::int(3)),
            Reduction::Persistent,
            true,
        ),
        (
            "seed103-widen-full",
            103,
            |_| StatePred::Le(GExpr::var(0, 0), GExpr::int(3)),
            Reduction::None,
            true,
        ),
    ];
    for (name, seed, pred, red, narrow) in cases {
        let sys = random_system(seed);
        let inv = pred(&sys);
        for (threads, cfg) in configs(red) {
            let cfg = if narrow {
                cfg.with_codec(narrowed(&sys))
            } else {
                cfg
            };
            let r = check_invariant_with(&sys, &inv, &cfg);
            row(&mut got, &format!("{name}-t{threads}"), r.violation);
        }
    }

    let want: Vec<&str> = GOLDEN
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .collect();
    let got_lines: Vec<&str> = got.lines().collect();
    assert_eq!(
        got_lines, want,
        "\nwitnesses moved. If that is intended, re-pin tests/golden_witnesses.txt \
         to the table below and give the reason in CHANGES.md:\n\n{got}"
    );
}
