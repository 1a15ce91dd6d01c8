//! The SAT side's deterministic counts as a tier-1 golden table.
//!
//! `satkit` is deterministic, so the size of a formula (`vars`, `clauses`)
//! and the search it takes (`conflicts`, `k`) move only when `sym` emits a
//! different variable or clause sequence or the solver's heuristics change.
//! Either must be a decision, not an accident: a PR that moves a count
//! re-pins it in `tests/golden_counts.txt` (the failure message prints the
//! whole new table) and says why in CHANGES.md. The instances are the
//! debug-cheap relatives of the `perf/` workloads `bmc_deep`, `sym_wide`
//! and `kind_proof`, so a drift shows here before the ledger has to find it.
//!
//! The table's last rows are the explicit engine's counts and footprints
//! (relatives of `reach_full`, `reach_por` and `reach_intern`). Under
//! persistent-set reduction (the `-por` rows) the ample selector alone
//! decides them, so a selector change that is meant to be exact must leave
//! them be; a restructuring of `reach` must leave every one of them be.
//! The D-Finder rows close the table (relatives of `dfinder_comp`): trap,
//! invariant and net counts, a conflict-budget cut, and the trap reuse of
//! an incremental build-up, which a restructuring of trap enumeration must
//! leave be.
//!
//! The dispatch tests beside the table pin *which* encoder ran
//! ([`StepEncoder::enumerated_cases`]): a silent fallback from the linear
//! fragment's circuits to the case split would otherwise only show as a slow
//! run.

use std::fmt::Write as _;

use bip_core::fault::single_fault_invariant;
use bip_core::sym::StepEncoder;
use bip_core::{dining_philosophers, gas_station, Connector, RecoverSpec, StatePred, System};
use bip_verify::bmc::BmcConfig;
use bip_verify::dfinder::{DFinder, DFinderConfig};
use bip_verify::kind::{KindConfig, Verdict};
use bip_verify::reach::{
    check_invariant_with, explore_with, find_deadlock_with, ReachConfig, Reduction,
};
use bip_verify::{Budget, IncrementalVerifier};
use satkit::CnfBuilder;

mod common;
use common::{
    adjacent_mutex, counter_ring, crash_recovery_philosophers, planted, planted_invariant,
    restricted, ring_token_mutex, unbounded_ring,
};

const GOLDEN: &str = include_str!("golden_counts.txt");

/// Rows of one k-induction proof: `k` and the step side's formula and search.
fn kind_rows(out: &mut String, name: &str, sys: &System, inv: &StatePred, max_k: usize) {
    let r = KindConfig::new(sys).max_k(max_k).prove(inv).unwrap();
    let Verdict::Proved { k } = r.verdict else {
        panic!("{name}: expected a proof, got {:?}", r.verdict);
    };
    writeln!(out, "{name} k {k}").unwrap();
    writeln!(out, "{name} step_vars {}", r.stats.step_vars).unwrap();
    writeln!(out, "{name} step_clauses {}", r.stats.step_clauses).unwrap();
    writeln!(out, "{name} step_conflicts {}", r.stats.step_conflicts).unwrap();
}

#[test]
fn counts_match_the_golden_table() {
    let mut got = String::new();

    // BMC: the planted depth-30 bug behind 10 toggles, last frame's stats.
    let r = BmcConfig::new(&planted(30, 10))
        .bound(30)
        .check_invariant(&planted_invariant(30))
        .unwrap();
    let (trace, _) = r.violation().expect("the planted bug is 30 steps deep");
    let last = r.frames.last().unwrap();
    writeln!(got, "planted-30x10 trace_len {}", trace.len()).unwrap();
    writeln!(got, "planted-30x10 vars {}", last.vars).unwrap();
    writeln!(got, "planted-30x10 clauses {}", last.clauses).unwrap();
    writeln!(got, "planted-30x10 conflicts {}", last.conflicts).unwrap();

    // k-induction: a wide data guard, pure control, and a one-bit counter.
    kind_rows(
        &mut got,
        "ring-8x4000",
        &counter_ring(8, 4000),
        &ring_token_mutex(8),
        4,
    );
    kind_rows(
        &mut got,
        "cphil-5",
        &dining_philosophers(5, false).unwrap(),
        &adjacent_mutex(5),
        12,
    );
    let crash = crash_recovery_philosophers(4, Some(1), RecoverSpec::Restart);
    kind_rows(
        &mut got,
        "crashphil-4",
        &crash,
        &single_fault_invariant(&crash),
        4,
    );

    // The explicit engine on two-phase philosophers, exhaustive and under
    // persistent-set reduction (the `-por` rows, which the ample selector
    // alone decides): counts and footprints, which a restructuring of the
    // level loop must leave be.
    let phil8 = dining_philosophers(8, true).unwrap();
    let phil7 = dining_philosophers(7, true).unwrap();
    let never_both = StatePred::at(&phil7, 0, "eating")
        .and(StatePred::at(&phil7, 1, "eating"))
        .not();
    let phil6 = dining_philosophers(6, true).unwrap();
    for (tag, red) in [("", Reduction::None), ("-por", Reduction::Persistent)] {
        let cfg = ReachConfig::bounded(1_000_000).reduction(red);
        let r = explore_with(&phil8, &cfg);
        assert!(r.complete);
        writeln!(got, "phil-8-explore{tag} states {}", r.states).unwrap();
        writeln!(got, "phil-8-explore{tag} transitions {}", r.transitions).unwrap();
        writeln!(got, "phil-8-explore{tag} stored_bytes {}", r.stored_bytes).unwrap();
        writeln!(got, "phil-8-explore{tag} peak_bytes {}", r.peak_bytes).unwrap();
        let r = check_invariant_with(&phil7, &never_both, &cfg);
        assert!(r.holds());
        writeln!(got, "phil-7-mutex{tag} states {}", r.states).unwrap();
        writeln!(got, "phil-7-mutex{tag} peak_bytes {}", r.peak_bytes).unwrap();
        let r = find_deadlock_with(&phil6, &cfg);
        let (_, trace) = r.witness.expect("two-phase philosophers deadlock");
        writeln!(got, "phil-6-deadlock{tag} states {}", r.states).unwrap();
        writeln!(got, "phil-6-deadlock{tag} peak_bytes {}", r.peak_bytes).unwrap();
        writeln!(got, "phil-6-deadlock{tag} trace_len {}", trace.len()).unwrap();
    }
    // An infinite-state ring under a bound: every encode interns values.
    let r = explore_with(&unbounded_ring(3), &ReachConfig::bounded(3_000));
    assert!(!r.complete);
    writeln!(got, "uring-3-explore states {}", r.states).unwrap();
    writeln!(got, "uring-3-explore transitions {}", r.transitions).unwrap();
    writeln!(got, "uring-3-explore stored_bytes {}", r.stored_bytes).unwrap();

    // D-Finder (relatives of `dfinder_comp`): a whole gas station, a
    // budget-cut two-phase run, and the reuse of an incremental build-up.
    let r = DFinder::new(&gas_station(20).unwrap()).check_deadlock_freedom();
    assert!(r.verdict.is_deadlock_free());
    writeln!(got, "gas-20-dfinder traps {}", r.traps).unwrap();
    writeln!(
        got,
        "gas-20-dfinder linear_invariants {}",
        r.linear_invariants
    )
    .unwrap();
    writeln!(got, "gas-20-dfinder places {}", r.places).unwrap();
    writeln!(
        got,
        "gas-20-dfinder abstract_transitions {}",
        r.abstract_transitions
    )
    .unwrap();
    writeln!(got, "gas-20-dfinder sat_conflicts {}", r.sat_conflicts).unwrap();
    let cut = DFinderConfig::new()
        .max_traps(4)
        .budget(Budget::unlimited().conflicts(1));
    let r = DFinder::with_config(&phil6, &cut).check_deadlock_freedom();
    writeln!(got, "phil-6-dfinder-cut traps {}", r.traps).unwrap();
    writeln!(got, "phil-6-dfinder-cut stop {:?}", r.stop).unwrap();
    let cphil6 = dining_philosophers(6, false).unwrap();
    let is_eat = |c: &Connector| c.name.starts_with("eat");
    let mut inc = IncrementalVerifier::new(restricted(&cphil6, |c| !is_eat(c)));
    let mut sum = [0usize; 4];
    for conn in cphil6.connectors().iter().filter(|c| is_eat(c)) {
        let st = inc.add_interaction(conn.clone()).unwrap();
        for (s, v) in sum.iter_mut().zip([
            st.traps_reused,
            st.traps_dropped,
            st.traps_added,
            st.seeds_swept,
        ]) {
            *s += v;
        }
    }
    for (metric, v) in [
        "traps_reused",
        "traps_dropped",
        "traps_added",
        "seeds_swept",
    ]
    .iter()
    .zip(sum)
    {
        writeln!(got, "cphil-6-increment {metric} {v}").unwrap();
    }

    let want: Vec<&str> = GOLDEN
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .collect();
    assert_eq!(
        got.lines().collect::<Vec<_>>(),
        want,
        "\nCounts moved. If that is intended, re-pin tests/golden_counts.txt \
         to the table below and give the old values and the reason in CHANGES.md:\n\n{got}"
    );
}

/// Indicator cases one step plus `inv` cost on `sys`.
fn enumerated_cases(sys: &System, inv: &StatePred) -> u64 {
    let mut enc = StepEncoder::new(sys).unwrap();
    let mut b = CnfBuilder::new();
    let mut f0 = enc.new_frame(&mut b);
    let f1 = enc.new_frame(&mut b);
    enc.encode_step(&mut b, &mut f0, &f1).unwrap();
    enc.encode_pred(&mut b, &mut f0, inv).unwrap();
    enc.enumerated_cases()
}

#[test]
fn linear_fragment_systems_enumerate_nothing() {
    assert_eq!(
        enumerated_cases(&counter_ring(4, 4000), &ring_token_mutex(4)),
        0
    );
    assert_eq!(
        enumerated_cases(&planted(30, 10), &planted_invariant(30)),
        0
    );
}

#[test]
fn one_bit_counter_keeps_the_case_split() {
    // The fault monitor's `active ∈ [0, 1]` is one bit wide: its guards and
    // updates stay on the case split (which is its truth table), so the
    // crash-recovery formula is the one the search was tuned on.
    let sys = crash_recovery_philosophers(6, Some(1), RecoverSpec::Restart);
    assert!(enumerated_cases(&sys, &single_fault_invariant(&sys)) > 0);
}
