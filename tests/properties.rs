//! Property-based tests (proptest) on core invariants, spanning crates.

use bip_core::{AtomBuilder, ConnectorBuilder, Expr, SystemBuilder};
use proptest::prelude::*;

mod common;
use common::random_system;

/// Walk `sys` for up to `steps` random steps; at every state assert that
/// the incremental [`bip_core::EnabledSet`] protocol yields exactly the
/// interaction set (and internal steps) the legacy enumeration computes.
fn check_incremental_matches_legacy(
    sys: &bip_core::System,
    steps: usize,
    seed: u64,
) -> Result<(), String> {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let mut st = sys.initial_state();
    let mut es = sys.new_enabled_set();
    let mut compiled = Vec::new();
    for step_no in 0..steps {
        sys.refresh_enabled(&st, &mut es);
        compiled.clear();
        sys.for_each_enabled(&st, &es, |s| compiled.push(s));
        let legacy: Vec<bip_core::Interaction> = sys.enabled(&st);
        let compiled_inters: Vec<bip_core::Interaction> = compiled
            .iter()
            .filter_map(|s| match s {
                bip_core::EnabledStep::Interaction(ir) => Some(sys.resolve_ref(*ir)),
                _ => None,
            })
            .collect();
        if compiled_inters != legacy {
            return Err(format!(
                "interaction sets diverged at step {step_no}: compiled {compiled_inters:?} vs legacy {legacy:?}"
            ));
        }
        let legacy_internal = sys.internal_steps(&st).len();
        let compiled_internal = compiled
            .iter()
            .filter(|s| matches!(s, bip_core::EnabledStep::Internal { .. }))
            .count();
        if compiled_internal != legacy_internal {
            return Err(format!(
                "internal step counts diverged at step {step_no}: {compiled_internal} vs {legacy_internal}"
            ));
        }
        if compiled.is_empty() {
            break; // deadlock
        }
        let chosen = compiled[rng.gen_range(0..compiled.len())];
        sys.fire_enabled(&mut st, &mut es, chosen, |_, _, cands| {
            rng.gen_range(0..cands.len())
        });
    }
    Ok(())
}

/// Build a ring of `n` workers where worker i synchronizes with worker i+1,
/// guards parameterized by `limit`.
fn ring(n: usize, limit: i64) -> bip_core::System {
    let w = AtomBuilder::new("w")
        .var("c", 0)
        .port("left")
        .port("right")
        .location("l")
        .initial("l")
        .guarded_transition(
            "l",
            "left",
            Expr::var(0).lt(Expr::int(limit)),
            vec![("c", Expr::var(0).add(Expr::int(1)))],
            "l",
        )
        .transition("l", "right", "l")
        .build()
        .unwrap();
    let mut sb = SystemBuilder::new();
    let ids: Vec<usize> = (0..n)
        .map(|i| sb.add_instance(format!("w{i}"), &w))
        .collect();
    for i in 0..n {
        sb.add_connector(ConnectorBuilder::rendezvous(
            format!("link{i}"),
            [(ids[i], "left"), (ids[(i + 1) % n], "right")],
        ));
    }
    sb.build().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Priorities only *restrict*: the filtered enabled set is a subset of
    /// the unfiltered one, and never empties a non-empty set (so priorities
    /// cannot introduce deadlocks — the premise behind the D-Finder DIS
    /// encoding ignoring priorities).
    #[test]
    fn priorities_never_introduce_deadlock(n in 2usize..5, limit in 1i64..5, steps in 0usize..12, seed in 0u64..500) {
        use rand::{Rng, SeedableRng};
        let mut sys = ring(n, limit);
        // Add an arbitrary unconditional rule between two connectors.
        let a = bip_core::ConnId((seed % n as u64) as u32);
        let b = bip_core::ConnId(((seed / 7) % n as u64) as u32);
        sys.priority_mut().add_rule(a, b);
        sys.priority_mut().maximal_progress = seed % 2 == 0;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut st = sys.initial_state();
        for _ in 0..steps {
            let unfiltered = sys.enabled_unfiltered(&st);
            let filtered = sys.enabled(&st);
            for i in &filtered {
                prop_assert!(unfiltered.contains(i), "filtering added an interaction");
            }
            if !unfiltered.is_empty() {
                prop_assert!(!filtered.is_empty(), "priorities created a deadlock");
            }
            let succ = sys.successors(&st);
            if succ.is_empty() { break; }
            st = succ[rng.gen_range(0..succ.len())].1.clone();
        }
    }

    /// The simultaneous-update semantics of atoms: swapping twice is the
    /// identity on arbitrary starting values.
    #[test]
    fn swap_twice_is_identity(x in -1000i64..1000, y in -1000i64..1000) {
        let swap = AtomBuilder::new("swap")
            .var("x", x)
            .var("y", y)
            .port("go")
            .location("l")
            .initial("l")
            .guarded_transition("l", "go", Expr::t(),
                vec![("x", Expr::var(1)), ("y", Expr::var(0))], "l")
            .build().unwrap();
        let mut sb = SystemBuilder::new();
        let s = sb.add_instance("s", &swap);
        sb.add_connector(ConnectorBuilder::singleton("go", s, "go"));
        let sys = sb.build().unwrap();
        let mut st = sys.initial_state();
        sys.step(&mut st, |_| 0).unwrap();
        sys.step(&mut st, |_| 0).unwrap();
        prop_assert_eq!(sys.var_value(&st, s, 0), x);
        prop_assert_eq!(sys.var_value(&st, s, 1), y);
    }

    /// D-Finder soundness, property-based: on random ring systems, a
    /// DeadlockFree verdict implies the exact checker finds no deadlock.
    #[test]
    fn dfinder_sound_on_rings(n in 2usize..5, limit in 1i64..4) {
        let sys = ring(n, limit);
        let df = bip_verify::DFinder::new(&sys).check_deadlock_freedom();
        if df.verdict.is_deadlock_free() {
            let exact = bip_verify::reach::explore(&sys, 2_000_000);
            prop_assert!(exact.complete);
            prop_assert!(exact.deadlocks.is_empty());
        }
    }

    /// satkit: the model returned on SAT satisfies every clause (random
    /// 3-CNF near the phase transition).
    #[test]
    fn sat_models_are_models(seed in 0u64..300) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let nvars = 15usize;
        let mut s = satkit::Solver::new();
        s.reserve_vars(nvars);
        let mut clauses = Vec::new();
        for _ in 0..60 {
            let c: Vec<satkit::Lit> = (0..3)
                .map(|_| satkit::Lit::new(satkit::Var(rng.gen_range(0..nvars) as u32), rng.gen_bool(0.5)))
                .collect();
            s.add_clause(c.clone());
            clauses.push(c);
        }
        if s.solve().is_sat() {
            for c in &clauses {
                let ok = c.iter().any(|l| s.value(l.var()) == Some(l.sign()));
                prop_assert!(ok, "unsatisfied clause in model");
            }
        }
    }

    /// The compiled incremental enabled-set protocol agrees exactly with
    /// the legacy `enabled()` enumeration after every step of a random walk
    /// over dining-philosopher systems of varying size (both variants,
    /// satellite of the compiled-execution redesign).
    #[test]
    fn enabled_set_matches_legacy_on_philosophers(n in 2usize..8, seed in 0u64..1000) {
        let sys = bip_core::dining_philosophers(n, seed % 2 == 1).unwrap();
        if let Err(msg) = check_incremental_matches_legacy(&sys, 1000, seed) {
            prop_assert!(false, "{}", msg);
        }
    }

    /// Same agreement on fully random systems: random guarded atoms wired
    /// by random rendezvous/broadcast connectors under random priorities.
    #[test]
    fn enabled_set_matches_legacy_on_random_systems(seed in 0u64..400) {
        let sys = random_system(seed);
        if let Err(msg) = check_incremental_matches_legacy(&sys, 1000, seed ^ 0x9e37) {
            prop_assert!(false, "{}", msg);
        }
    }

    /// Timed execution: words produced under any φ are replayable in the
    /// untimed semantics (φ only slows things down, never invents steps).
    #[test]
    fn timed_words_replay_untimed(d0 in 0u64..6, d1 in 0u64..6, seed in 0u64..100) {
        let sys = bip_core::dining_philosophers(2, false).unwrap();
        let mut phi = bip_rt::DurationMap::ideal();
        phi.set(bip_core::ConnId(0), d0);
        phi.set(bip_core::ConnId(1), d1);
        let mut e = bip_rt::RtEngine::new(&sys, phi, bip_engine::RandomPolicy::new(seed));
        e.run(30);
        let mut st = sys.initial_state();
        for label in &e.context().trace.observable_word() {
            let succ = sys.successors(&st);
            let hit = succ.iter().find(|(s, _)| sys.step_label(s) == Some(label.as_str()));
            prop_assert!(hit.is_some(), "timed word not replayable at {label}");
            st = hit.unwrap().1.clone();
        }
    }
}
