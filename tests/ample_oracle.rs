//! `IndepInfo::select_ample` against the unpruned selector it replaced.
//!
//! The selector skips seeds that cannot strictly beat the best candidate,
//! cuts closures at the best size so far, and reads port offers from the
//! refreshed `EnabledSet`. Each of those is meant to change the work and
//! never the answer, so the return value *and* `ample()` must equal
//! [`common::AmpleOracle`]'s on every state, bit for bit. The states are
//! the BFS prefixes of random systems and philosophers (each without a
//! visibility row and with a pseudo-random one), of systems built to run
//! every disabled-member rule — priority domination, false connector
//! guards, disabled internal steps — and the states of a random walk that
//! keeps one incrementally refreshed `EnabledSet`.

use std::collections::{HashSet, VecDeque};

use bip_core::{
    dining_philosophers, AmpleScratch, AtomBuilder, ConnId, ConnectorBuilder, EnabledSet, Expr,
    PlaceSet, State, StateCodec, StatePred, System, SystemBuilder,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

mod common;
use common::{random_system, AmpleOracle, ClosureBranches};

/// The selector and the oracle side by side on one system.
struct Checker<'a> {
    sys: &'a System,
    codec: StateCodec,
    oracle: AmpleOracle,
    scratch: AmpleScratch,
    /// A visibility row marking each action with probability 1/3.
    visible: PlaceSet,
}

impl<'a> Checker<'a> {
    fn new(sys: &'a System, vis_seed: u64) -> Checker<'a> {
        let indep = sys.indep();
        let mut rng = StdRng::seed_from_u64(vis_seed ^ 0x5eed_fa11);
        let n = indep.num_actions();
        Checker {
            sys,
            codec: sys.state_codec(),
            oracle: AmpleOracle::new(sys, indep),
            scratch: indep.new_scratch(sys),
            visible: PlaceSet::from_places(n, (0..n).filter(|_| rng.gen_bool(1.0 / 3.0))),
        }
    }

    /// Compare the selector with the oracle at one refreshed state, with
    /// and without the visibility row, under the engine's scan-order seed
    /// (the canonical state hash) and two others. Returns how many of the
    /// six selections reduced.
    fn check(&mut self, st: &State, es: &EnabledSet, what: &str) -> usize {
        let sys = self.sys;
        let h = self.codec.state_hash(st);
        let mut reduced = 0;
        for visible in [None, Some(&self.visible)] {
            for hash in [h, h.rotate_left(17), 0] {
                let got = sys
                    .indep()
                    .select_ample(sys, st, es, hash, visible, &mut self.scratch)
                    .then(|| self.scratch.ample().to_vec());
                let want = self.oracle.select(sys, st, es, hash, visible);
                assert_eq!(got, want, "{what}: state {st:?}, hash {hash:#x}");
                reduced += got.is_some() as usize;
            }
        }
        reduced
    }
}

/// BFS over at most `max_states` states of `sys`, checking every state.
/// Returns how many selections reduced and which closure rules ran.
fn check_bfs(
    sys: &System,
    vis_seed: u64,
    max_states: usize,
    what: &str,
) -> (usize, ClosureBranches) {
    let mut checker = Checker::new(sys, vis_seed);
    let mut es = sys.new_enabled_set();
    let mut seen: HashSet<State> = HashSet::new();
    let mut queue = VecDeque::new();
    seen.insert(sys.initial_state());
    queue.push_back(sys.initial_state());
    let mut reduced = 0;
    while let Some(st) = queue.pop_front() {
        es.invalidate_all();
        sys.refresh_enabled(&st, &mut es);
        reduced += checker.check(&st, &es, what);
        for (_, next) in sys.successors(&st) {
            if seen.len() < max_states && seen.insert(next.clone()) {
                queue.push_back(next);
            }
        }
    }
    (reduced, checker.oracle.branches)
}

/// A random system built to reach every disabled-member rule of the
/// closure: counters exported to connector guards and data transfers,
/// internal steps, broadcasts under maximal progress, and plain and
/// location-guarded priority rules.
fn guarded_system(seed: u64) -> System {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.gen_range(3usize..6);
    let mut sb = SystemBuilder::new();
    for a in 0..n {
        let limit = rng.gen_range(1i64..4);
        let x = || Expr::var(0);
        let ty = AtomBuilder::new(format!("g{a}"))
            .var("x", rng.gen_range(0i64..2))
            .port_exporting("p", ["x"])
            .port_exporting("q", ["x"])
            .location("l0")
            .location("l1")
            .initial("l0")
            .guarded_transition(
                "l0",
                "p",
                x().lt(Expr::int(limit)),
                vec![("x", x().add(Expr::int(1)))],
                "l1",
            )
            .guarded_transition("l0", "q", Expr::t(), vec![("x", Expr::int(0))], "l0")
            .transition("l1", "q", "l0")
            .internal_transition(
                "l1",
                x().lt(Expr::int(limit)),
                vec![("x", x().add(Expr::int(1)))],
                "l1",
            )
            .build()
            .unwrap();
        sb.add_instance(format!("g{a}"), &ty);
    }
    let port = |rng: &mut StdRng| if rng.gen_bool(0.5) { "p" } else { "q" };
    for c in 0..rng.gen_range(3usize..7) {
        let a = rng.gen_range(0..n);
        let b = (a + rng.gen_range(1..n)) % n;
        let conn = match rng.gen_range(0..3) {
            0 => ConnectorBuilder::rendezvous(
                format!("c{c}"),
                [(a, port(&mut rng)), (b, port(&mut rng))],
            )
            .guard(Expr::param(0, 0).le(Expr::param(1, 0)))
            .transfer(1, 0, Expr::param(0, 0)),
            1 => {
                let mut receivers: Vec<(usize, &str)> = Vec::new();
                for r in (0..n).filter(|&r| r != a) {
                    if rng.gen_bool(0.5) {
                        receivers.push((r, port(&mut rng)));
                    }
                }
                if receivers.is_empty() {
                    ConnectorBuilder::singleton(format!("c{c}"), a, port(&mut rng))
                } else {
                    ConnectorBuilder::broadcast(format!("c{c}"), (a, port(&mut rng)), receivers)
                        .guard(Expr::param(0, 0).lt(Expr::int(2)))
                }
            }
            _ => ConnectorBuilder::singleton(format!("c{c}"), a, port(&mut rng))
                .guard(Expr::param(0, 0).eq(Expr::int(rng.gen_range(0i64..2)))),
        };
        sb.add_connector(conn);
    }
    let mut sys = sb.build().unwrap();
    let nc = sys.num_connectors() as u32;
    sys.priority_mut().maximal_progress = rng.gen_bool(0.5);
    for _ in 0..rng.gen_range(1..4) {
        let low = ConnId(rng.gen_range(0..nc));
        let high = ConnId(rng.gen_range(0..nc));
        if rng.gen_bool(0.5) {
            sys.priority_mut().add_rule(low, high);
        } else {
            let guard = StatePred::at(&sys, rng.gen_range(0..n), "l1");
            sys.priority_mut().add_guarded_rule(low, high, guard);
        }
    }
    sys
}

#[test]
fn selector_matches_oracle_on_random_systems() {
    let mut reduced = 0;
    for seed in 0..400 {
        reduced += check_bfs(
            &random_system(seed),
            seed,
            300,
            &format!("random_system({seed})"),
        )
        .0;
    }
    assert!(reduced > 0, "random systems admit reduction");
}

#[test]
fn selector_matches_oracle_on_philosophers() {
    for (n, two_phase) in [(3, false), (3, true), (5, false), (5, true), (8, true)] {
        let sys = dining_philosophers(n, two_phase).unwrap();
        let what = format!("philosophers({n}, {two_phase})");
        let (reduced, _) = check_bfs(&sys, n as u64, 2_000, &what);
        if two_phase {
            assert!(reduced > 0, "{what} admits reduction");
        }
    }
}

/// A rendezvous wider than `MAX_CONNECTOR_PORTS` has no recorded offered
/// mask: the selector scans its ports directly.
#[test]
fn selector_matches_oracle_on_a_wide_rendezvous() {
    let w = AtomBuilder::new("w")
        .port("step")
        .port("sync")
        .location("a")
        .location("b")
        .initial("a")
        .transition("a", "step", "b")
        .transition("b", "sync", "a")
        .transition("b", "step", "b")
        .build()
        .unwrap();
    let mut sb = SystemBuilder::new();
    let comps: Vec<usize> = (0..bip_core::MAX_CONNECTOR_PORTS + 2)
        .map(|i| sb.add_instance(format!("w{i}"), &w))
        .collect();
    for &c in &comps {
        sb.add_connector(ConnectorBuilder::singleton(format!("step{c}"), c, "step"));
    }
    sb.add_connector(ConnectorBuilder::rendezvous(
        "all",
        comps.iter().map(|&c| (c, "sync")).collect::<Vec<_>>(),
    ));
    let sys = sb.build().unwrap();
    let (reduced, b) = check_bfs(&sys, 7, 600, "wide rendezvous");
    assert!(reduced > 0 && b.unoffered > 0, "{b:?}");
}

#[test]
fn selector_matches_oracle_under_priorities_guards_and_internal_steps() {
    let mut total = ClosureBranches::default();
    for seed in 0..200 {
        let (_, b) = check_bfs(
            &guarded_system(seed),
            seed,
            300,
            &format!("guarded_system({seed})"),
        );
        total.internal += b.internal;
        total.dominated += b.dominated;
        total.unoffered += b.unoffered;
        total.guard_readers += b.guard_readers;
    }
    assert!(
        total.internal > 0 && total.dominated > 0 && total.unoffered > 0 && total.guard_readers > 0,
        "every disabled-member rule must run: {total:?}"
    );
}

/// A walk that never invalidates its `EnabledSet`: the offered-endpoint
/// masks the selector reads come from the incremental refresh of only the
/// connectors the last step dirtied.
#[test]
fn selector_matches_oracle_along_incremental_walks() {
    let systems = (0..60)
        .map(random_system)
        .chain((0..60).map(guarded_system))
        .chain([dining_philosophers(6, true).unwrap()]);
    for (i, sys) in systems.enumerate() {
        let mut checker = Checker::new(&sys, i as u64);
        let what = format!("walk {i}");
        let mut rng = StdRng::seed_from_u64(i as u64);
        let mut st = sys.initial_state();
        let mut es = sys.new_enabled_set();
        for _ in 0..150 {
            sys.refresh_enabled(&st, &mut es);
            checker.check(&st, &es, &what);
            let mut steps = Vec::new();
            sys.for_each_enabled(&st, &es, |s| steps.push(s));
            if steps.is_empty() {
                break;
            }
            let step = steps[rng.gen_range(0..steps.len())];
            sys.fire_enabled(&mut st, &mut es, step, |_, _, c| rng.gen_range(0..c.len()));
        }
    }
}
