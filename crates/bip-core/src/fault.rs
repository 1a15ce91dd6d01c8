//! Fault injection — deriving a *faulty variant* of a system as ordinary
//! BIP semantics.
//!
//! Resilience ("deadlock-free despite any single crash", "recovered within
//! the fault budget") is a property of a system *under faults*, and the
//! rigorous-system-design stance is that faults are not a new semantics but
//! a model transformation: [`inject`] takes any [`System`] and a
//! [`FaultSpec`] and produces a new `System` in which crashes, recoveries,
//! and message loss are plain transitions and connectors. Every engine in
//! the stack — explicit reach with POR, BMC, k-induction with
//! `certify_step`, D-Finder — then verifies resilience with **zero engine
//! changes**, and inherits its determinism guarantees (reports bit-identical
//! across thread counts and codecs) for free.
//!
//! # The transform
//!
//! For every component selected by [`CrashSpec`]:
//!
//! * a fresh ⊥ location [`CRASH_LOC`] is added, reachable from **every**
//!   location via an unguarded transition on a fresh port [`CRASH_PORT`]
//!   (a crashed component offers nothing else — every rendezvous through it
//!   blocks, like a real fail-stop node);
//! * under [`RecoverSpec::Restart`] / [`RecoverSpec::Resume`], a recovery
//!   transition on [`RECOVER_PORT`] leads back to the initial location,
//!   either resetting every variable to its initial value (`Restart` —
//!   amnesia) or keeping the pre-crash valuation (`Resume` — the
//!   stable-storage/checkpoint reading, where the last-written valuation
//!   survives the crash).
//!
//! One extra component, the **fault monitor** ([`MONITOR`]), carries a
//! counter variable `active` that every crash increments and every recovery
//! decrements through binary rendezvous connectors (`__crash_<inst>`,
//! `__recover_<inst>`, both silent). The crash transition of the monitor is
//! guarded by `active < cap` where `cap` is
//! [`FaultSpec::max_concurrent_faults`] clamped to the number of crashable
//! components — so the fault budget is enforced by ordinary guard
//! semantics, *and* the counter stays guard-bounded, which keeps the
//! transformed system encodable by [`crate::sym`] (BMC and k-induction keep
//! working; an unbounded counter would decline).
//!
//! Connectors named in [`FaultSpec::lossy_connectors`] gain a **skip
//! alternative** `<name>__loss`: a silent singleton connector on the
//! connector's first trigger endpoint (or endpoint 0 for a rendezvous —
//! the conventional "sender"). Firing it advances the sender's local
//! transition without synchronizing anyone else and without data transfer:
//! the message is lost in flight. If the original guard only reads the
//! sender's exports it is kept (remapped); otherwise the loss alternative
//! is unguarded — a deliberate adversarial over-approximation (loss may
//! strike whenever the sender can offer).
//!
//! # Priorities and POR
//!
//! By default crash interactions are **unprioritized**: a crash can
//! interleave anywhere, which is the adversarial model verification wants.
//! [`FaultSpec::deprioritize_crashes`] instead adds `crash ≺ c` rules
//! against every original connector, restricting crashes to states where
//! nothing else is enabled (a "minimally disruptive" fault model); note the
//! rule set is `O(crashable × connectors)`. Partial-order reduction needs
//! no special casing: all crash/recover connectors share the monitor
//! component, so the static independence tables conservatively serialize
//! them, and location predicates over [`CRASH_LOC`] make crash states
//! visible to the invariant-mode POR veto like any other location.
//!
//! # Example
//!
//! ```
//! use bip_core::fault::{self, FaultSpec};
//! use bip_core::dining_philosophers;
//!
//! let sys = dining_philosophers(3, false).unwrap();
//! // Philosophers (components 0..3) may crash, one at a time, and recover.
//! let faulty = fault::inject(&sys, &FaultSpec::crash_components(0..3).budget(1)).unwrap();
//! assert_eq!(faulty.num_components(), sys.num_components() + 1); // + monitor
//! // The crash states are ordinary reachable states:
//! let crashed0 = fault::crashed(&faulty, 0).unwrap();
//! assert!(faulty
//!     .successors(&faulty.initial_state())
//!     .iter()
//!     .any(|(_, st)| crashed0.eval(&faulty, st)));
//! ```

use crate::atom::{AtomBuilder, AtomType};
use crate::connector::ConnectorBuilder;
use crate::data::Expr;
use crate::error::ModelError;
use crate::predicate::{GExpr, StatePred};
use crate::system::{CompId, State, System};
use crate::SystemBuilder;

/// Name of the ⊥ location added to every crashable component.
pub const CRASH_LOC: &str = "__crashed";
/// Name of the crash port added to every crashable component.
pub const CRASH_PORT: &str = "__crash";
/// Name of the recovery port (present unless [`RecoverSpec::None`]).
pub const RECOVER_PORT: &str = "__recover";
/// Instance name of the fault-monitor component appended by [`inject`].
pub const MONITOR: &str = "__fault_monitor";

/// Which components may crash.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub enum CrashSpec {
    /// No component crashes (the transform may still add loss alternatives).
    #[default]
    None,
    /// Every component may crash.
    All,
    /// Exactly these component instances may crash (duplicates ignored).
    Components(Vec<CompId>),
}

/// What a crashed component may do next.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum RecoverSpec {
    /// Crashes are permanent (fail-stop): no recovery transition at all.
    None,
    /// Recovery returns to the initial location and **resets every
    /// variable to its initial value** — the amnesia restart.
    #[default]
    Restart,
    /// Recovery returns to the initial location but **keeps the pre-crash
    /// valuation** — the checkpoint/stable-storage reading, where the
    /// last-written state survives the crash.
    Resume,
}

/// Full description of the faults to inject. See the [module docs](self).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultSpec {
    /// Which components gain a crash location.
    pub crash: CrashSpec,
    /// What recovery (if any) crashed components get.
    pub recover: RecoverSpec,
    /// Names of connectors that gain a silent loss alternative.
    pub lossy_connectors: Vec<String>,
    /// Upper bound on *simultaneously* crashed components (`None` =
    /// unbounded, i.e. every crashable component at once). `Some(0)`
    /// disables crashes outright — useful as the "zero faults enabled"
    /// control in differential tests.
    pub max_concurrent_faults: Option<u32>,
    /// Add `crash ≺ c` priority rules against every original connector,
    /// restricting crashes to otherwise-quiescent states (off by default —
    /// the adversarial model lets crashes interleave anywhere).
    pub deprioritize_crashes: bool,
}

impl FaultSpec {
    /// No faults at all: [`inject`] returns a structurally identical system.
    pub fn none() -> FaultSpec {
        FaultSpec::default()
    }

    /// Every component may crash (and recover by [`RecoverSpec::Restart`]).
    pub fn crash_all() -> FaultSpec {
        FaultSpec {
            crash: CrashSpec::All,
            ..FaultSpec::default()
        }
    }

    /// The given components may crash (and recover by
    /// [`RecoverSpec::Restart`]).
    pub fn crash_components<I: IntoIterator<Item = CompId>>(comps: I) -> FaultSpec {
        FaultSpec {
            crash: CrashSpec::Components(comps.into_iter().collect()),
            ..FaultSpec::default()
        }
    }

    /// Set the recovery flavor.
    #[must_use]
    pub fn recover(mut self, r: RecoverSpec) -> FaultSpec {
        self.recover = r;
        self
    }

    /// Make crashes permanent ([`RecoverSpec::None`]).
    #[must_use]
    pub fn unrecoverable(mut self) -> FaultSpec {
        self.recover = RecoverSpec::None;
        self
    }

    /// Give the named connector a loss alternative.
    #[must_use]
    pub fn lossy(mut self, connector: impl Into<String>) -> FaultSpec {
        self.lossy_connectors.push(connector.into());
        self
    }

    /// Bound the number of simultaneously crashed components.
    #[must_use]
    pub fn budget(mut self, max_concurrent: u32) -> FaultSpec {
        self.max_concurrent_faults = Some(max_concurrent);
        self
    }

    /// Dominate crash interactions by every original connector.
    #[must_use]
    pub fn deprioritized(mut self) -> FaultSpec {
        self.deprioritize_crashes = true;
        self
    }
}

/// Derive the faulty variant of `sys` described by `spec`.
///
/// The result is an ordinary [`System`]: component indices, location ids,
/// variable ids, and connector ids of the original are all preserved
/// (everything new is appended), so state predicates written against the
/// original remain valid, and [`project_state`] recovers an original-shaped
/// state from a faulty one.
///
/// # Errors
///
/// Returns [`ModelError`] when `spec` names an unknown connector or
/// component, or when a fresh name (`__crash`, `__crashed`, `__recover`,
/// `__fault_monitor`, `<conn>__loss`, ...) collides with one the model
/// already uses.
pub fn inject(sys: &System, spec: &FaultSpec) -> Result<System, ModelError> {
    let n = sys.num_components();
    let crashable: Vec<CompId> = match &spec.crash {
        CrashSpec::None => Vec::new(),
        CrashSpec::All => (0..n).collect(),
        CrashSpec::Components(cs) => {
            let mut v = cs.clone();
            v.sort_unstable();
            v.dedup();
            if let Some(&bad) = v.iter().find(|&&c| c >= n) {
                return Err(ModelError::UnknownName {
                    kind: "component",
                    name: bad.to_string(),
                });
            }
            v
        }
    };
    let mut lossy = Vec::new();
    for name in &spec.lossy_connectors {
        let id = sys
            .connector_id(name)
            .ok_or_else(|| ModelError::UnknownName {
                kind: "connector",
                name: name.clone(),
            })?;
        lossy.push(id.0 as usize);
    }
    lossy.sort_unstable();
    lossy.dedup();

    let mut is_crashable = vec![false; n];
    for &c in &crashable {
        is_crashable[c] = true;
    }
    let has_recover = !matches!(spec.recover, RecoverSpec::None);

    let mut sb = SystemBuilder::new();
    for (c, &crashes) in is_crashable.iter().enumerate() {
        if crashes {
            let ty = faulty_atom(sys.atom_type(c), spec.recover)?;
            sb.add_instance(sys.instance_name(c).to_string(), &ty);
        } else {
            sb.add_instance(sys.instance_name(c).to_string(), sys.atom_type(c));
        }
    }
    let mon = if crashable.is_empty() {
        None
    } else {
        let cap = spec
            .max_concurrent_faults
            .map_or(crashable.len() as i64, |b| {
                (b as i64).min(crashable.len() as i64)
            });
        let mut b = AtomBuilder::new(MONITOR)
            .var("active", 0)
            .port("crash")
            .location("mon")
            .initial("mon")
            .guarded_transition(
                "mon",
                "crash",
                Expr::var(0).lt(Expr::int(cap)),
                vec![("active", Expr::var(0).add(Expr::int(1)))],
                "mon",
            );
        if has_recover {
            b = b.port("recover").guarded_transition(
                "mon",
                "recover",
                Expr::var(0).gt(Expr::int(0)),
                vec![("active", Expr::var(0).sub(Expr::int(1)))],
                "mon",
            );
        }
        Some(sb.add_instance(MONITOR, &b.build()?))
    };

    for conn in sys.connectors() {
        sb.add_connector(conn.clone());
    }
    let n_orig = sys.connectors().len();
    let mut next_id = n_orig as u32;
    for &ci in &lossy {
        let conn = &sys.connectors()[ci];
        // The "sender" of the interaction: the first trigger if the
        // connector is a broadcast, endpoint 0 by convention otherwise.
        let k = conn.trigger_indices().first().copied().unwrap_or(0);
        let mut cb = ConnectorBuilder::singleton(
            format!("{}__loss", conn.name),
            conn.ports[k].component,
            conn.ports[k].port.clone(),
        );
        if conn.guard_applies(&[k]) {
            cb = cb.guard(remap_param(&conn.guard, k as u32));
        }
        sb.add_connector(cb.silent());
        next_id += 1;
    }
    let mut crash_conns = Vec::new();
    if let Some(mon) = mon {
        for &c in &crashable {
            sb.add_connector(
                ConnectorBuilder::rendezvous(
                    format!("__crash_{}", sys.instance_name(c)),
                    [(c, CRASH_PORT), (mon, "crash")],
                )
                .silent(),
            );
            crash_conns.push(crate::connector::ConnId(next_id));
            next_id += 1;
            if has_recover {
                sb.add_connector(
                    ConnectorBuilder::rendezvous(
                        format!("__recover_{}", sys.instance_name(c)),
                        [(c, RECOVER_PORT), (mon, "recover")],
                    )
                    .silent(),
                );
                next_id += 1;
            }
        }
    }
    let mut prio = sys.priority().clone();
    if spec.deprioritize_crashes {
        for &low in &crash_conns {
            for high in 0..n_orig {
                prio.add_rule(low, crate::connector::ConnId(high as u32));
            }
        }
    }
    sb.set_priority(prio);
    sb.build()
}

/// The crashable variant of one atom type: ⊥ location, crash transitions
/// from every original location, and the recovery transition `recover`
/// prescribes. Everything original keeps its id (new items are appended).
fn faulty_atom(ty: &AtomType, recover: RecoverSpec) -> Result<AtomType, ModelError> {
    let mut b = AtomBuilder::new(format!("{}__faulty", ty.name()));
    for (name, init) in ty.vars() {
        b = b.var(name.clone(), *init);
    }
    for p in ty.ports() {
        if p.exports.is_empty() {
            b = b.port(p.name.clone());
        } else {
            b = b.port_exporting(
                p.name.clone(),
                p.exports.iter().map(|v| ty.var_name(*v).to_string()),
            );
        }
    }
    b = b.port(CRASH_PORT);
    if !matches!(recover, RecoverSpec::None) {
        b = b.port(RECOVER_PORT);
    }
    for l in ty.locations() {
        b = b.location(l.clone());
    }
    b = b.location(CRASH_LOC);
    let initial = ty.locations()[ty.initial().0 as usize].clone();
    b = b.initial(initial.clone());
    for t in ty.transitions() {
        let from = ty.loc_name(t.from).to_string();
        let to = ty.loc_name(t.to).to_string();
        let ups: Vec<(&str, Expr)> = t
            .updates
            .iter()
            .map(|(v, e)| (ty.var_name(*v), e.clone()))
            .collect();
        b = match t.port {
            Some(p) => {
                b.guarded_transition(from, ty.port_name(p).to_string(), t.guard.clone(), ups, to)
            }
            None => b.internal_transition(from, t.guard.clone(), ups, to),
        };
    }
    for l in ty.locations() {
        b = b.transition(l.clone(), CRASH_PORT, CRASH_LOC);
    }
    match recover {
        RecoverSpec::None => {}
        RecoverSpec::Restart => {
            let resets: Vec<(&str, Expr)> = ty
                .vars()
                .iter()
                .map(|(n, init)| (n.as_str(), Expr::int(*init)))
                .collect();
            b = b.guarded_transition(CRASH_LOC, RECOVER_PORT, Expr::t(), resets, initial);
        }
        RecoverSpec::Resume => {
            b = b.transition(CRASH_LOC, RECOVER_PORT, initial);
        }
    }
    b.build()
}

/// Rewrite `Param(k, v)` to `Param(0, v)` — the loss connector is a
/// singleton, so the surviving endpoint becomes endpoint 0.
fn remap_param(e: &Expr, k: u32) -> Expr {
    match e {
        Expr::Const(_) | Expr::Var(_) => e.clone(),
        Expr::Param(p, v) => {
            debug_assert_eq!(*p, k, "guard_applies admitted a foreign endpoint");
            Expr::Param(0, *v)
        }
        Expr::Unary(op, a) => Expr::Unary(*op, Box::new(remap_param(a, k))),
        Expr::Binary(op, a, b) => Expr::Binary(
            *op,
            Box::new(remap_param(a, k)),
            Box::new(remap_param(b, k)),
        ),
        Expr::Ite(c, t, f) => Expr::Ite(
            Box::new(remap_param(c, k)),
            Box::new(remap_param(t, k)),
            Box::new(remap_param(f, k)),
        ),
    }
}

/// The fault monitor's component index, if `sys` was produced by [`inject`]
/// with at least one crashable component.
pub fn monitor(sys: &System) -> Option<CompId> {
    (0..sys.num_components()).find(|&c| sys.instance_name(c) == MONITOR)
}

/// The ⊥ location id of `comp`, if it is crashable.
pub fn crashed_loc(sys: &System, comp: CompId) -> Option<u32> {
    sys.atom_type(comp).loc_id(CRASH_LOC).map(|l| l.0)
}

/// Components that gained a crash location.
pub fn crashable_components(sys: &System) -> Vec<CompId> {
    (0..sys.num_components())
        .filter(|&c| crashed_loc(sys, c).is_some())
        .collect()
}

/// "Component `comp` is crashed" (`None` if `comp` is not crashable).
pub fn crashed(sys: &System, comp: CompId) -> Option<StatePred> {
    crashed_loc(sys, comp).map(|l| StatePred::AtLoc(comp, l))
}

/// "Every crashable component is crashed simultaneously"
/// ([`StatePred::False`] when nothing is crashable).
pub fn all_crashed(sys: &System) -> StatePred {
    let cs = crashable_components(sys);
    if cs.is_empty() {
        return StatePred::False;
    }
    StatePred::And(cs.iter().map(|&c| crashed(sys, c).unwrap()).collect())
}

/// "Some crashable component is crashed" ([`StatePred::False`] when nothing
/// is crashable).
pub fn any_crashed(sys: &System) -> StatePred {
    let cs = crashable_components(sys);
    if cs.is_empty() {
        return StatePred::False;
    }
    StatePred::Or(cs.iter().map(|&c| crashed(sys, c).unwrap()).collect())
}

/// "The monitor counts at most `k` active faults" ([`StatePred::True`]
/// when there is no monitor).
pub fn active_faults_le(sys: &System, k: i64) -> StatePred {
    match monitor(sys) {
        None => StatePred::True,
        Some(m) => StatePred::Le(GExpr::var(m, 0), GExpr::int(k)),
    }
}

/// The recovery invariant of a **single-fault budget** (`budget(1)`)
/// injection: no two components are crashed simultaneously, and a crashed
/// component implies the monitor counts an active fault.
///
/// The second conjunct is what makes the predicate **1-inductive**: an
/// arbitrary step state with a crashed component must show `active ≥ 1`,
/// which disables the (`active < 1`-guarded) crash of a second component.
/// k-induction therefore proves this without strengthening —
/// `tests/fault.rs` asserts exactly that, certificate included.
pub fn single_fault_invariant(sys: &System) -> StatePred {
    let cs = crashable_components(sys);
    let Some(m) = monitor(sys) else {
        return StatePred::True;
    };
    let mut clauses = Vec::new();
    for (i, &a) in cs.iter().enumerate() {
        for &b in &cs[i + 1..] {
            clauses.push(crashed(sys, a).unwrap().and(crashed(sys, b).unwrap()).not());
        }
    }
    for &c in &cs {
        clauses.push(
            crashed(sys, c)
                .unwrap()
                .implies(StatePred::Le(GExpr::int(1), GExpr::var(m, 0))),
        );
    }
    StatePred::And(clauses)
}

/// Project a faulty-system state back onto the shape of the original
/// system [`inject`] transformed: the transform only ever *appends*
/// (locations within a component, the monitor component at the end), so
/// the projection is a truncation. Location ids of non-⊥ locations and
/// variable ids are preserved.
pub fn project_state(original: &System, st: &State) -> State {
    let init = original.initial_state();
    State {
        locs: st.locs[..init.locs.len()].to_vec(),
        vars: st.vars[..init.vars.len()].to_vec(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::dining_philosophers;
    use crate::{ConnectorBuilder, FxHashSet, SystemBuilder};

    /// Exhaustive BFS over `successors` (test-sized systems only).
    fn bfs(sys: &System, cap: usize) -> Vec<State> {
        let mut seen: FxHashSet<State> = FxHashSet::default();
        let mut order = Vec::new();
        let mut frontier = vec![sys.initial_state()];
        seen.insert(frontier[0].clone());
        order.push(frontier[0].clone());
        while let Some(st) = frontier.pop() {
            for (_, succ) in sys.successors(&st) {
                if seen.len() >= cap {
                    return order;
                }
                if seen.insert(succ.clone()) {
                    order.push(succ.clone());
                    frontier.push(succ);
                }
            }
        }
        order
    }

    #[test]
    fn unrecoverable_crashes_reach_all_crashed_and_deadlock() {
        let sys = dining_philosophers(3, false).unwrap();
        let faulty = inject(&sys, &FaultSpec::crash_components(0..3).unrecoverable()).unwrap();
        let all = all_crashed(&faulty);
        let states = bfs(&faulty, 100_000);
        let dead = states
            .iter()
            .find(|st| faulty.successors(st).is_empty())
            .expect("permanent crashes must deadlock the table");
        assert!(
            states.iter().any(|st| all.eval(&faulty, st)),
            "all-crashed state must be reachable"
        );
        // The all-crashed deadlock: forks offer nothing without their
        // philosophers.
        assert!(all_crashed(&faulty).eval(&faulty, dead) || !faulty.successors(dead).is_empty());
    }

    #[test]
    fn budget_zero_disables_crashes_and_preserves_behavior() {
        let sys = dining_philosophers(3, false).unwrap();
        let faulty = inject(&sys, &FaultSpec::crash_components(0..3).budget(0)).unwrap();
        let orig = bfs(&sys, 100_000);
        let got = bfs(&faulty, 100_000);
        assert_eq!(orig.len(), got.len(), "budget 0 must not add behavior");
        let any = any_crashed(&faulty);
        assert!(got.iter().all(|st| !any.eval(&faulty, st)));
        // Step-for-step: projected successor sets coincide at every state.
        for st in &got {
            let proj = project_state(&sys, st);
            let mut a: Vec<(crate::Step, State)> = faulty
                .successors(st)
                .into_iter()
                .map(|(step, s)| (step, project_state(&sys, &s)))
                .collect();
            let mut b = sys.successors(&proj);
            a.sort_by(|x, y| format!("{x:?}").cmp(&format!("{y:?}")));
            b.sort_by(|x, y| format!("{x:?}").cmp(&format!("{y:?}")));
            assert_eq!(a, b);
        }
    }

    #[test]
    fn single_fault_budget_never_shows_two_crashes() {
        let sys = dining_philosophers(3, false).unwrap();
        let faulty = inject(&sys, &FaultSpec::crash_components(0..3).budget(1)).unwrap();
        let inv = single_fault_invariant(&faulty);
        let states = bfs(&faulty, 100_000);
        assert!(states
            .iter()
            .any(|st| any_crashed(&faulty).eval(&faulty, st)));
        assert!(
            states.iter().all(|st| inv.eval(&faulty, st)),
            "budget 1 must keep the single-fault invariant"
        );
        // And the monitor variable stays guard-bounded, so the symbolic
        // engines keep working on the transformed system.
        let ranges = crate::width::infer_ranges(&faulty);
        let active = ranges.last().unwrap();
        assert_eq!(*active, Some((0, 1)), "monitor counter must infer [0,1]");
    }

    #[test]
    fn restart_resets_variables_resume_keeps_them() {
        // One component ticking a counter via a singleton connector.
        let counter = AtomBuilder::new("c")
            .var("n", 0)
            .port("tick")
            .location("run")
            .initial("run")
            .guarded_transition(
                "run",
                "tick",
                Expr::var(0).lt(Expr::int(3)),
                vec![("n", Expr::var(0).add(Expr::int(1)))],
                "run",
            )
            .build()
            .unwrap();
        let mut sb = SystemBuilder::new();
        let c = sb.add_instance("c", &counter);
        sb.add_connector(ConnectorBuilder::singleton("tick", c, "tick"));
        let sys = sb.build().unwrap();
        for (spec, survives) in [(RecoverSpec::Restart, false), (RecoverSpec::Resume, true)] {
            let faulty = inject(
                &sys,
                &FaultSpec::crash_components([c]).recover(spec).budget(1),
            )
            .unwrap();
            let states = bfs(&faulty, 10_000);
            let crash_pred = crashed(&faulty, c).unwrap();
            // A recovered state reached from a crash at n == 2.
            let recovered_with_memory = states.iter().any(|st| {
                !crash_pred.eval(&faulty, st)
                    && faulty.var_value(st, c, 0) == 2
                    && crate::fault::monitor(&faulty)
                        .is_some_and(|m| faulty.var_value(st, m, 0) == 0)
            });
            // In both flavors n == 2 occurs while running; distinguish via
            // a crashed predecessor: crash at n==2, then recover.
            let crashed_at_two = states
                .iter()
                .find(|st| crash_pred.eval(&faulty, st) && faulty.var_value(st, c, 0) == 2)
                .expect("crash can strike at n == 2");
            let after = faulty.successors(crashed_at_two);
            let resumed: Vec<i64> = after
                .iter()
                .filter(|(_, st)| !crash_pred.eval(&faulty, st))
                .map(|(_, st)| faulty.var_value(st, c, 0))
                .collect();
            assert!(!resumed.is_empty(), "recovery must be enabled from ⊥");
            if survives {
                assert!(resumed.contains(&2), "Resume keeps the valuation");
                assert!(recovered_with_memory);
            } else {
                assert!(resumed.iter().all(|&v| v == 0), "Restart resets to init");
            }
        }
    }

    #[test]
    fn lossy_connector_can_lose_the_token() {
        // A one-shot token pass: without loss the receiver always ends up
        // full; the loss alternative strands it empty.
        let sender = AtomBuilder::new("s")
            .port("put")
            .location("has")
            .location("sent")
            .initial("has")
            .transition("has", "put", "sent")
            .build()
            .unwrap();
        let receiver = AtomBuilder::new("r")
            .port("get")
            .location("empty")
            .location("full")
            .initial("empty")
            .transition("empty", "get", "full")
            .build()
            .unwrap();
        let mut sb = SystemBuilder::new();
        let s = sb.add_instance("s", &sender);
        let r = sb.add_instance("r", &receiver);
        sb.add_connector(ConnectorBuilder::rendezvous(
            "pass",
            [(s, "put"), (r, "get")],
        ));
        let sys = sb.build().unwrap();
        let lost = |sys: &System, states: &[State]| {
            states
                .iter()
                .any(|st| st.locs[s] == 1 && st.locs[r] == 0 && sys.successors(st).is_empty())
        };
        assert!(!lost(&sys, &bfs(&sys, 1000)), "no loss without injection");
        let faulty = inject(&sys, &FaultSpec::none().lossy("pass")).unwrap();
        assert!(
            lost(&faulty, &bfs(&faulty, 1000)),
            "the loss alternative must strand the receiver"
        );
    }

    #[test]
    fn unknown_names_are_rejected() {
        let sys = dining_philosophers(2, false).unwrap();
        assert!(matches!(
            inject(&sys, &FaultSpec::none().lossy("ghost")),
            Err(ModelError::UnknownName {
                kind: "connector",
                ..
            })
        ));
        assert!(matches!(
            inject(&sys, &FaultSpec::crash_components([99])),
            Err(ModelError::UnknownName {
                kind: "component",
                ..
            })
        ));
    }

    #[test]
    fn inject_is_deterministic() {
        let sys = dining_philosophers(3, false).unwrap();
        let spec = FaultSpec::crash_all().budget(2).lossy("eat0");
        let a = inject(&sys, &spec).unwrap();
        let b = inject(&sys, &spec).unwrap();
        assert_eq!(crate::dot::system_to_dot(&a), crate::dot::system_to_dot(&b));
    }

    #[test]
    fn deprioritized_crashes_wait_for_quiescence() {
        let sys = dining_philosophers(3, false).unwrap();
        let faulty = inject(
            &sys,
            &FaultSpec::crash_components(0..3)
                .unrecoverable()
                .deprioritized(),
        )
        .unwrap();
        // In the initial state every eat connector is enabled, so no crash
        // may fire yet.
        let init = faulty.initial_state();
        let any = any_crashed(&faulty);
        assert!(faulty
            .successors(&init)
            .iter()
            .all(|(_, st)| !any.eval(&faulty, st)));
    }
}
