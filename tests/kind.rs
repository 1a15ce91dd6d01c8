//! Differential proof-checking harness: cross-validation of the k-induction
//! prover against the explicit-state engine, BMC, and an independent
//! certificate checker.
//!
//! The prover's three verdicts each get an adversary that shares as little
//! machinery with it as possible:
//!
//! * `Proved { k }` — exhaustive BFS must agree the invariant holds; the
//!   inductive step is re-derived by [`certify_step`] in a **fresh** solver
//!   sharing no state with the prover, and must be *rejected* at `k - 1`
//!   (the prover's step query there was SAT); and BMC at bound `k` must
//!   confirm the base case (`NoViolationWithin(k)`).
//! * `Violated { trace, states }` — exhaustive BFS must also find a
//!   violation at the same shortest depth; the trace is **re-replayed here**
//!   step-by-step through `System::successors` (not trusting the prover's
//!   own replay); and BMC at the trace depth must find an equal-length
//!   counterexample.
//! * `Unknown` — always tolerated (bounded resources), never wrong.
//!
//! The certificate itself has an oracle. [`certify_step`] replays the
//! prover's step-side schedule (one incremental query per depth, only the
//! last answer counting) in its own solver; `common::one_shot_step` rebuilds
//! the single-solve step formula from the public encoder API. On every seed
//! of the differential the two must give the same answer at every depth
//! `0..=MAX_K`, SAT answers included.
//!
//! Determinism: verdicts derive from SAT/UNSAT answers only, so reports must
//! be identical across restart policies (modulo `Wall`/stats), and repeated
//! identical runs must match field-for-field including solver statistics.

use bip_core::{dining_philosophers, StatePred, System};
use bip_verify::bmc::{BmcConfig, BmcOutcome};
use bip_verify::control::Budget;
use bip_verify::kind::{certify_step, KindConfig, Verdict};
use bip_verify::reach::{check_invariant_with, ReachConfig};
use bip_verify::{StopReason, UnrollError};
use proptest::prelude::*;
use satkit::RestartPolicy;

mod common;
use common::{
    adjacent_mutex, counter_ring, one_shot_step, random_bounded_system, random_system,
    ring_token_mutex,
};

/// Induction depth the harness attempts per seed.
const MAX_K: usize = 10;
/// Cumulative conflict ceiling per proof attempt (both solvers).
const CONFLICT_CAP: u64 = 50_000;

/// A seed-dependent invariant mixing location and data predicates (same
/// shape as the BMC harness, so the two differential suites stay
/// comparable).
fn pick_invariant(sys: &System, seed: u64) -> StatePred {
    let ty = sys.atom_type(0);
    let last_loc = (ty.locations().len() - 1) as u32;
    if seed % 2 == 1 && !ty.vars().is_empty() {
        StatePred::Eq(bip_core::GExpr::var(0, 0), bip_core::GExpr::int(2)).not()
    } else {
        StatePred::at_loc(0, last_loc).not()
    }
}

/// Re-replay a counterexample with machinery the prover never touches:
/// `System::successors` enumeration plus direct invariant evaluation.
fn independent_replay(
    sys: &System,
    inv: &StatePred,
    trace: &[bip_core::Step],
    states: &[bip_core::State],
) -> Result<(), String> {
    if states.len() != trace.len() + 1 {
        return Err(format!("{} states for {} steps", states.len(), trace.len()));
    }
    if states[0] != sys.initial_state() {
        return Err("trace does not start at the initial state".into());
    }
    for (i, step) in trace.iter().enumerate() {
        let ok = sys
            .successors(&states[i])
            .into_iter()
            .any(|(s, next)| &s == step && next == states[i + 1]);
        if !ok {
            return Err(format!("step {i} is not a concrete transition"));
        }
    }
    if inv.eval(sys, states.last().unwrap()) {
        return Err("final state does not violate the invariant".into());
    }
    Ok(())
}

/// The scheduled certificate against its one-shot oracle at every depth
/// `0..=MAX_K`; returns `Err` for proptest.
fn check_certificate_oracle(sys: &System, seed: u64) -> Result<(), String> {
    let inv = pick_invariant(sys, seed);
    for k in 0..=MAX_K {
        let scheduled = match certify_step(sys, &inv, k, 4096) {
            Ok(answer) => answer,
            // Declined encodings are typed; the oracle would decline too.
            Err(UnrollError::Encode(_)) => return Ok(()),
            Err(other) => return Err(format!("seed {seed}: certificate errored: {other}")),
        };
        let one_shot = one_shot_step(sys, &inv, k);
        if scheduled != one_shot {
            return Err(format!(
                "seed {seed}, k = {k}: scheduled certificate says {scheduled}, \
                 one-shot step formula says {one_shot}"
            ));
        }
    }
    Ok(())
}

/// Core differential check for one random system; returns `Err` for
/// proptest, and whether the case reached the prover.
fn check_agreement(sys: &System, seed: u64) -> Result<bool, String> {
    let inv = pick_invariant(sys, seed);

    let bfs = check_invariant_with(sys, &inv, &ReachConfig::bounded(100_000));
    if !bfs.complete {
        return Ok(false); // state space outgrew the budget; nothing exact to compare
    }

    let report = match KindConfig::new(sys)
        .max_k(MAX_K)
        .budget(Budget::unlimited().conflicts(CONFLICT_CAP))
        .prove(&inv)
    {
        Ok(r) => r,
        // The encoder may decline (unbounded variable / support too large);
        // that must be a typed decline, and then there is nothing to compare.
        Err(UnrollError::Encode(_)) => return Ok(false),
        Err(other) => return Err(format!("seed {seed}: unexpected kind error {other}")),
    };

    match &report.verdict {
        Verdict::Proved { k } => {
            if let Some((_, trace)) = &bfs.violation {
                return Err(format!(
                    "seed {seed}: k-induction claims a proof at k={k} but BFS finds a \
                     violation at depth {}",
                    trace.len()
                ));
            }
            // Certificate: the inductive step re-derived in a fresh solver…
            match certify_step(sys, &inv, *k, 4096) {
                Ok(true) => {}
                Ok(false) => {
                    return Err(format!(
                        "seed {seed}: fresh-solver certificate rejects the k={k} step"
                    ))
                }
                Err(e) => return Err(format!("seed {seed}: certificate errored: {e}")),
            }
            // …which must reject one depth earlier, where the prover's step
            // query was SAT…
            if *k > 0 && certify_step(sys, &inv, k - 1, 4096) != Ok(false) {
                return Err(format!(
                    "seed {seed}: fresh-solver certificate does not reject the k={} step",
                    k - 1
                ));
            }
            // …and the base case re-derived by BMC.
            let base = BmcConfig::new(sys)
                .bound(*k)
                .check_invariant(&inv)
                .map_err(|e| format!("seed {seed}: BMC base re-check errored: {e}"))?;
            if !matches!(base.outcome, BmcOutcome::NoViolationWithin(_)) {
                return Err(format!(
                    "seed {seed}: BMC refutes the k={k} base case of a claimed proof"
                ));
            }
        }
        Verdict::Violated { trace, states } => {
            let Some((_, bfs_trace)) = &bfs.violation else {
                return Err(format!(
                    "seed {seed}: k-induction reports a {}-step violation but exhaustive \
                     BFS proves the invariant",
                    trace.len()
                ));
            };
            if trace.len() != bfs_trace.len() {
                return Err(format!(
                    "seed {seed}: k-induction trace has {} steps, BFS shortest is {}",
                    trace.len(),
                    bfs_trace.len()
                ));
            }
            independent_replay(sys, &inv, trace, states)
                .map_err(|e| format!("seed {seed}: independent replay failed: {e}"))?;
            let bmc = BmcConfig::new(sys)
                .bound(trace.len())
                .check_invariant(&inv)
                .map_err(|e| format!("seed {seed}: BMC re-check errored: {e}"))?;
            match bmc.outcome {
                BmcOutcome::Violation { trace: t, .. } if t.len() == trace.len() => {}
                other => {
                    return Err(format!(
                        "seed {seed}: BMC at bound {} disagrees with the k-induction \
                         violation: {other:?}",
                        trace.len()
                    ))
                }
            }
        }
        Verdict::Unknown(_) => {} // bounded resources; never wrong
    }
    Ok(true)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random systems: every definitive k-induction verdict must survive
    /// its adversary (exhaustive BFS + fresh-solver certificate + BMC), and
    /// the certificate must agree with its one-shot oracle at every depth.
    #[test]
    fn kind_agrees_with_explicit_search_and_bmc(seed in 0u64..192) {
        let sys = random_system(seed);
        if let Err(msg) = check_certificate_oracle(&sys, seed) {
            prop_assert!(false, "{}", msg);
        }
        if let Err(msg) = check_agreement(&sys, seed) {
            prop_assert!(false, "{}", msg);
        }
    }
}

/// The same checks on guard-bounded random systems, which the step encoder
/// accepts: at least 90 % of the seeds must reach the prover, so a
/// generator change cannot quietly hollow the differential out.
#[test]
fn kind_agrees_on_guard_bounded_random_systems() {
    const SEEDS: u64 = 32;
    let mut reached = 0;
    for seed in 0..SEEDS {
        let sys = random_bounded_system(seed);
        check_certificate_oracle(&sys, seed).unwrap_or_else(|msg| panic!("{msg}"));
        reached += u64::from(check_agreement(&sys, seed).unwrap_or_else(|msg| panic!("{msg}")));
    }
    assert!(
        reached * 10 >= SEEDS * 9,
        "only {reached} of {SEEDS} guard-bounded seeds reached the prover"
    );
}

/// Verdicts derive from SAT/UNSAT answers only — semantic, hence identical
/// across restart policies. `ProofReport` equality covers verdict and stop
/// (stats and wall-clock compare equal by design).
#[test]
fn reports_are_identical_across_restart_policies() {
    let workloads: Vec<(System, StatePred)> = vec![
        (dining_philosophers(4, false).unwrap(), adjacent_mutex(4)),
        (random_system(7), pick_invariant(&random_system(7), 7)),
        (random_system(12), pick_invariant(&random_system(12), 12)),
    ];
    for (sys, inv) in &workloads {
        let run = |policy: RestartPolicy| {
            KindConfig::new(sys)
                .max_k(MAX_K)
                .budget(Budget::unlimited().conflicts(CONFLICT_CAP))
                .restart_policy(policy)
                .prove(inv)
        };
        let hybrid = run(RestartPolicy::hybrid());
        let luby = run(RestartPolicy::luby());
        let glucose = run(RestartPolicy::glucose());
        match (hybrid, luby, glucose) {
            (Ok(h), Ok(l), Ok(g)) => {
                assert_eq!(h, l, "hybrid vs luby");
                assert_eq!(h, g, "hybrid vs glucose");
            }
            (h, l, g) => panic!("runs errored: {h:?} {l:?} {g:?}"),
        }
    }
}

/// The solvers are deterministic: repeated identical runs must agree
/// field-for-field, *including* the Eq-excluded solver statistics.
#[test]
fn repeated_runs_are_bit_identical() {
    let sys = dining_philosophers(4, false).unwrap();
    let inv = adjacent_mutex(4);
    let run = || {
        KindConfig::new(&sys)
            .max_k(MAX_K)
            .prove(&inv)
            .expect("encodable")
    };
    let a = run();
    let b = run();
    assert_eq!(a.verdict, b.verdict);
    assert_eq!(a.stop, b.stop);
    assert_eq!(a.stats.base_conflicts, b.stats.base_conflicts);
    assert_eq!(a.stats.base_decisions, b.stats.base_decisions);
    assert_eq!(a.stats.base_propagations, b.stats.base_propagations);
    assert_eq!(a.stats.base_vars, b.stats.base_vars);
    assert_eq!(a.stats.base_clauses, b.stats.base_clauses);
    assert_eq!(a.stats.step_conflicts, b.stats.step_conflicts);
    assert_eq!(a.stats.step_decisions, b.stats.step_decisions);
    assert_eq!(a.stats.step_propagations, b.stats.step_propagations);
    assert_eq!(a.stats.step_vars, b.stats.step_vars);
    assert_eq!(a.stats.step_clauses, b.stats.step_clauses);
    assert_eq!(a.stats.core_frames, b.stats.core_frames);
}

/// A conflict budget of 1 must surface as `Unknown`, never as a wrong (or
/// lucky) verdict. The test self-validates: the unbudgeted run must actually
/// need more than one conflict, otherwise the cap would not bite.
#[test]
fn conflict_budget_of_one_is_unknown_never_wrong() {
    let sys = dining_philosophers(4, false).unwrap();
    let inv = adjacent_mutex(4);
    let free = KindConfig::new(&sys).max_k(MAX_K).prove(&inv).unwrap();
    assert!(
        matches!(free.verdict, Verdict::Proved { .. }),
        "workload sanity: {:?}",
        free.verdict
    );
    assert!(
        free.stats.base_conflicts + free.stats.step_conflicts > 1,
        "workload sanity: the unbudgeted proof must cost > 1 conflict \
         (base={}, step={})",
        free.stats.base_conflicts,
        free.stats.step_conflicts
    );
    let capped = KindConfig::new(&sys)
        .max_k(MAX_K)
        .budget(Budget::unlimited().conflicts(1))
        .prove(&inv)
        .unwrap();
    assert!(
        matches!(capped.verdict, Verdict::Unknown(_)),
        "a 1-conflict budget cannot produce a verdict, got {:?}",
        capped.verdict
    );
}

/// Sweeping the conflict budget from starved to generous: every capped run
/// returns either `Unknown` or *the same verdict* as the unbudgeted run —
/// budgets trade completeness for time, never soundness.
#[test]
fn budget_sweep_is_sound() {
    let sys = dining_philosophers(4, false).unwrap();
    let inv = adjacent_mutex(4);
    let free = KindConfig::new(&sys).max_k(MAX_K).prove(&inv).unwrap();
    for cap in [1u64, 10, 100, 1_000, 100_000] {
        let capped = KindConfig::new(&sys)
            .max_k(MAX_K)
            .budget(Budget::unlimited().conflicts(cap))
            .prove(&inv)
            .unwrap();
        match capped.verdict {
            Verdict::Unknown(_) => {}
            ref v => assert_eq!(
                *v, free.verdict,
                "cap {cap}: a budgeted verdict must match the unbudgeted one"
            ),
        }
    }
}

/// Regression for the widen-to-TOP lift: a counter guarded at 100 (beyond
/// the widening cadence) must encode *and* prove its own bound, end to end
/// through the public API.
#[test]
fn guard_bounded_counter_at_limit_100_proves() {
    let counter = bip_core::AtomBuilder::new("counter")
        .location("run")
        .initial("run")
        .var("n", 0)
        .internal_transition(
            "run",
            bip_core::Expr::var(0).lt(bip_core::Expr::int(100)),
            vec![("n", bip_core::Expr::var(0).add(bip_core::Expr::int(1)))],
            "run",
        )
        .build()
        .unwrap();
    let mut sb = bip_core::SystemBuilder::new();
    sb.add_instance("c", &counter);
    let sys = sb.build().unwrap();
    let inv = StatePred::Le(bip_core::GExpr::var(0, 0), bip_core::GExpr::int(100));
    let r = KindConfig::new(&sys).max_k(4).prove(&inv).unwrap();
    let Verdict::Proved { k } = r.verdict else {
        panic!("expected a proof, got {:?}", r.verdict);
    };
    assert!(certify_step(&sys, &inv, k, 4096).unwrap());
    // The same system refutes a tighter false bound, concretely replayed.
    let false_inv = StatePred::Le(bip_core::GExpr::var(0, 0), bip_core::GExpr::int(50));
    let r = KindConfig::new(&sys).max_k(64).prove(&false_inv).unwrap();
    let (trace, states) = r.violation().expect("n reaches 51");
    assert_eq!(trace.len(), 51);
    independent_replay(&sys, &false_inv, trace, states).unwrap();
}

/// A guard domain no enumeration budget covers: with one Tseitin case per
/// counter value the ring at limit 10⁶ was declined (`SupportTooLarge`);
/// the comparator and the add-constant circuit cost O(width) whatever the
/// limit, under the default budget, certificate included.
#[test]
fn million_wide_ring_proves_under_the_default_budget() {
    let sys = counter_ring(4, 1_000_000);
    let inv = ring_token_mutex(4);
    let r = KindConfig::new(&sys).max_k(4).prove(&inv).unwrap();
    assert_eq!(r.verdict, Verdict::Proved { k: 0 });
    assert!(certify_step(&sys, &inv, 0, bip_core::sym::DEFAULT_ENUM_BUDGET).unwrap());
}

/// Golden solver counts, captured at the commit before k-induction moved
/// onto the shared unroller (see the BMC twin in `tests/bmc.rs`):
/// conservative phil-5 adjacent mutex closes at k = 3. The base side's
/// `vars`/`clauses` are the parent's at `max_k(3)`: the parent encoded one
/// more base frame than the proof used whenever `max_k` left room for it.
#[test]
fn conservative_phil5_proof_solver_counts_are_pinned() {
    let sys = dining_philosophers(5, false).unwrap();
    let r = KindConfig::new(&sys)
        .max_k(MAX_K)
        .prove(&adjacent_mutex(5))
        .unwrap();
    assert_eq!(r.verdict, Verdict::Proved { k: 3 });
    let s = &r.stats;
    assert_eq!(
        (
            s.base_conflicts,
            s.base_decisions,
            s.base_propagations,
            s.base_vars,
            s.base_clauses
        ),
        (60, 82, 3913, 279, 739)
    );
    assert_eq!(
        (
            s.step_conflicts,
            s.step_decisions,
            s.step_propagations,
            s.step_vars,
            s.step_clauses
        ),
        (213, 499, 19738, 487, 1702)
    );
    assert_eq!(s.core_frames, 4);
}

/// The base side of a proof closed at `k` *is* a BMC run at bound `k`: same
/// unroller, same goals, and no frame encoded beyond the last one queried.
/// On the token ring (mutex is 1-inductive, `Proved { k: 0 }`) that means
/// the base solver never saw a step relation.
#[test]
fn base_side_of_a_closed_proof_is_bmc_at_the_closing_depth() {
    let workloads = [
        (counter_ring(4, 100), ring_token_mutex(4), 0usize),
        (dining_philosophers(5, false).unwrap(), adjacent_mutex(5), 3),
    ];
    for (sys, inv, closes_at) in &workloads {
        let r = KindConfig::new(sys).max_k(MAX_K).prove(inv).unwrap();
        assert_eq!(r.verdict, Verdict::Proved { k: *closes_at });
        let bmc = BmcConfig::new(sys)
            .bound(*closes_at)
            .check_invariant(inv)
            .unwrap();
        assert_eq!(bmc.outcome, BmcOutcome::NoViolationWithin(*closes_at));
        let last = bmc.frames.last().unwrap();
        assert_eq!(
            (
                r.stats.base_vars,
                r.stats.base_clauses,
                r.stats.base_conflicts,
                r.stats.base_decisions
            ),
            (last.vars, last.clauses, last.conflicts, last.decisions),
            "k = {closes_at}"
        );
    }
}

/// Prove `inv` under a 500 000-conflict fail-fast ceiling (far above
/// healthy need), require a completed `Proved { k }` whose step a fresh
/// solver certifies at `k` and rejects at `k - 1`, and return `k`.
fn prove_and_certify(sys: &System, inv: &StatePred, ctx: &str) -> usize {
    let r = KindConfig::new(sys)
        .max_k(16)
        .budget(Budget::unlimited().conflicts(500_000))
        .prove(inv)
        .unwrap();
    let (Verdict::Proved { k }, StopReason::Completed) = (r.verdict.clone(), r.stop) else {
        panic!("{ctx}: expected a completed proof, got {r:?}");
    };
    assert!(certify_step(sys, inv, k, 4096).unwrap(), "{ctx}: k = {k}");
    if k > 0 {
        assert!(
            !certify_step(sys, inv, k - 1, 4096).unwrap(),
            "{ctx}: k - 1 = {}",
            k - 1
        );
    }
    k
}

/// "Safe, period" where the bounded engines can only bound (E17): token
/// mutual exclusion on `counter_ring(4, 100)`, about 10⁸ reachable states.
/// Explicit search exhausts a 50 000-state budget; BMC at depth 60 says
/// only `NoViolationWithin(60)`; k-induction proves it, certified.
#[test]
fn ring_mutex_is_proved_where_bounded_engines_only_bound_it() {
    let (sys, inv) = (counter_ring(4, 100), ring_token_mutex(4));
    let explicit = check_invariant_with(&sys, &inv, &ReachConfig::bounded(50_000));
    assert!(!explicit.complete && explicit.violation.is_none());
    let bmc = BmcConfig::new(&sys)
        .bound(60)
        .budget(Budget::unlimited().conflicts(500_000))
        .check_invariant(&inv)
        .unwrap();
    assert_eq!(bmc.stop, StopReason::Completed);
    assert_eq!(bmc.outcome, BmcOutcome::NoViolationWithin(60));
    prove_and_certify(&sys, &inv, "ring-4x100");
}

/// Adjacent-eater mutual exclusion on the conservative philosophers is true
/// but not 1-inductive (a state with one philosopher eating says nothing
/// about its neighbour's fork): a `k = 0` proof would mean the step
/// encoding lost the counterexample to induction.
#[test]
fn adjacent_mutex_needs_induction_depth() {
    for n in [3usize, 4] {
        let sys = dining_philosophers(n, false).unwrap();
        assert!(prove_and_certify(&sys, &adjacent_mutex(n), &format!("phil-{n}")) > 0);
    }
}

/// A certificate must be able to say no. "Philosopher 0 never eats" holds
/// initially and fails one step later, so a fresh step query at `k = 0`
/// has a model (the eating step out of an arbitrary thinking state) and the
/// certificate rejects it.
#[test]
fn violated_invariant_is_rejected_at_k_zero() {
    let sys = dining_philosophers(3, false).unwrap();
    let inv = StatePred::at_loc(0, 1).not();
    assert!(inv.eval(&sys, &sys.initial_state()));
    let r = KindConfig::new(&sys).max_k(MAX_K).prove(&inv).unwrap();
    assert_eq!(r.violation().map(|(trace, _)| trace.len()), Some(1));
    assert!(!certify_step(&sys, &inv, 0, 4096).unwrap());
    assert!(!one_shot_step(&sys, &inv, 0));
}
