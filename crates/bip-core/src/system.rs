//! Flattened systems and their operational semantics.
//!
//! A [`System`] is the result of flattening a hierarchy of composites: a
//! vector of atom instances, a set of connectors over them, and a priority
//! layer. Its semantics is the labelled transition system defined by
//! [`System::enabled`] / [`System::successors`]: from a global [`State`],
//! interactions (feasible connector subsets whose ports are all offered and
//! whose guard holds) compete, priorities filter, and firing an interaction
//! executes the connector's data transfer followed by each participant's
//! local transition.

use std::collections::HashMap;

use std::sync::OnceLock;

use crate::atom::{AtomType, PortId, TransitionId};
use crate::connector::{ConnId, Connector};
use crate::data::Value;
use crate::error::ModelError;
use crate::exec::CompiledExec;
use crate::indep::IndepInfo;
use crate::priority::Priority;

/// Index of a component instance in a [`System`].
pub type CompId = usize;

/// A global state: one control location per component plus the flat variable
/// store.
#[derive(Debug, PartialEq, Eq, Hash)]
pub struct State {
    /// Current location (as a raw `u32`) per component instance.
    pub locs: Vec<u32>,
    /// Flat variable store; each component's variables occupy a contiguous
    /// slice (see [`System::var_value`]).
    pub vars: Vec<Value>,
}

/// Written by hand so that `clone_from` copies into both existing buffers
/// instead of allocating a fresh state: the successor scratch overwrites
/// one `State` per successor.
impl Clone for State {
    fn clone(&self) -> State {
        State {
            locs: self.locs.clone(),
            vars: self.vars.clone(),
        }
    }

    fn clone_from(&mut self, source: &State) {
        self.locs.clone_from(&source.locs);
        self.vars.clone_from(&source.vars);
    }
}

/// An interaction: a connector together with the participating endpoint
/// subset (indices into the connector's port list, sorted ascending).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Interaction {
    /// The connector this interaction belongs to.
    pub connector: ConnId,
    /// Participating endpoints (indices into `Connector::ports`).
    pub endpoints: Vec<usize>,
}

/// One semantic step: either a (multi-party) interaction or an internal
/// (silent) transition of a single component.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Step {
    /// A connector interaction together with the transition chosen by each
    /// participant (`(component, transition)` pairs, in endpoint order).
    Interaction {
        /// The fired interaction.
        interaction: Interaction,
        /// Chosen local transition per participant.
        transitions: Vec<(CompId, TransitionId)>,
    },
    /// An internal step of one component.
    Internal {
        /// The stepping component.
        component: CompId,
        /// The fired transition.
        transition: TransitionId,
    },
}

impl Step {
    /// The interaction, if this step is one.
    pub fn interaction(&self) -> Option<&Interaction> {
        match self {
            Step::Interaction { interaction, .. } => Some(interaction),
            Step::Internal { .. } => None,
        }
    }
}

/// An immutable, flattened BIP system: atom instances + connectors +
/// priorities, with executable operational semantics.
///
/// Build one with [`crate::SystemBuilder`] or by flattening a
/// [`crate::Composite`].
#[derive(Debug, Clone)]
pub struct System {
    pub(crate) instance_names: Vec<String>,
    pub(crate) types: Vec<AtomType>,
    /// type index per instance.
    pub(crate) type_of: Vec<usize>,
    pub(crate) connectors: Vec<Connector>,
    /// Resolved endpoints per connector: (component, port id, trigger).
    pub(crate) resolved: Vec<Vec<(CompId, PortId, bool)>>,
    pub(crate) priority: Priority,
    /// First index of each component's variables in the flat store.
    pub(crate) var_offsets: Vec<usize>,
    pub(crate) total_vars: usize,
    /// The compiled schedule: feasible masks, watch lists (see
    /// [`crate::exec`]).
    pub(crate) compiled: CompiledExec,
    /// Static interaction-independence tables (see [`crate::indep`]),
    /// computed from the compiled schedule on first use — purely static
    /// data, but priced only for workloads that read it (verification;
    /// execution-only users never pay for the dependency matrix). Kept in
    /// a cell so [`System::priority_mut`] — which changes what the tables
    /// must conservatively record — can invalidate them; [`System::indep`]
    /// rebuilds on demand.
    pub(crate) indep: OnceLock<IndepInfo>,
}

impl System {
    pub(crate) fn from_parts(
        instance_names: Vec<String>,
        types: Vec<AtomType>,
        type_of: Vec<usize>,
        connectors: Vec<Connector>,
        priority: Priority,
    ) -> Result<System, ModelError> {
        if instance_names.is_empty() {
            return Err(ModelError::EmptySystem);
        }
        let mut var_offsets = Vec::with_capacity(type_of.len());
        let mut total_vars = 0usize;
        for &ti in &type_of {
            var_offsets.push(total_vars);
            total_vars += types[ti].vars().len();
        }
        // Resolve connector endpoints; validate.
        let mut names = std::collections::HashSet::new();
        let mut resolved = Vec::with_capacity(connectors.len());
        for c in &connectors {
            if !names.insert(c.name.clone()) {
                return Err(ModelError::DuplicateName {
                    kind: "connector",
                    name: c.name.clone(),
                });
            }
            if c.ports.is_empty() {
                return Err(ModelError::EmptyConnector {
                    connector: c.name.clone(),
                });
            }
            let mut seen_comp = std::collections::HashSet::new();
            let mut eps = Vec::with_capacity(c.ports.len());
            for pr in &c.ports {
                if pr.component >= instance_names.len() {
                    return Err(ModelError::BadComponentIndex {
                        connector: c.name.clone(),
                        index: pr.component,
                    });
                }
                if !seen_comp.insert(pr.component) {
                    return Err(ModelError::DuplicateParticipant {
                        connector: c.name.clone(),
                        component: instance_names[pr.component].clone(),
                    });
                }
                let ty = &types[type_of[pr.component]];
                let pid = ty.port_id(&pr.port).ok_or_else(|| ModelError::BadPortRef {
                    connector: c.name.clone(),
                    component: instance_names[pr.component].clone(),
                    port: pr.port.clone(),
                })?;
                eps.push((pr.component, pid, pr.trigger));
            }
            resolved.push(eps);
        }
        let compiled = CompiledExec::build(&connectors, &resolved, instance_names.len(), |c| {
            types[type_of[c]]
                .transitions()
                .iter()
                .any(|t| t.port.is_none())
        })?;
        Ok(System {
            instance_names,
            types,
            type_of,
            connectors,
            resolved,
            priority,
            var_offsets,
            total_vars,
            compiled,
            indep: OnceLock::new(),
        })
    }

    /// Number of component instances.
    pub fn num_components(&self) -> usize {
        self.instance_names.len()
    }

    /// Number of connectors.
    pub fn num_connectors(&self) -> usize {
        self.connectors.len()
    }

    /// Instance name of component `comp`.
    pub fn instance_name(&self, comp: CompId) -> &str {
        &self.instance_names[comp]
    }

    /// The atom type of component `comp`.
    pub fn atom_type(&self, comp: CompId) -> &AtomType {
        &self.types[self.type_of[comp]]
    }

    /// All connectors.
    pub fn connectors(&self) -> &[Connector] {
        &self.connectors
    }

    /// Connector by id.
    pub fn connector(&self, id: ConnId) -> &Connector {
        &self.connectors[id.0 as usize]
    }

    /// Resolve a connector name.
    pub fn connector_id(&self, name: &str) -> Option<ConnId> {
        self.connectors
            .iter()
            .position(|c| c.name == name)
            .map(|i| ConnId(i as u32))
    }

    /// The priority layer.
    pub fn priority(&self) -> &Priority {
        &self.priority
    }

    /// Mutable access to the priority layer (used by architecture
    /// application and incremental construction).
    ///
    /// Invalidates the cached independence tables ([`System::indep`]): the
    /// dependency a priority edge induces between otherwise-disjoint
    /// interactions must be recomputed after the layer changes.
    pub fn priority_mut(&mut self) -> &mut Priority {
        self.indep = OnceLock::new();
        &mut self.priority
    }

    /// The static interaction-independence tables (see [`crate::indep`]):
    /// pure build-time data (the compiled schedule, the connectors, the
    /// priority layer), materialized on first use and rebuilt on demand
    /// after [`System::priority_mut`].
    pub fn indep(&self) -> &IndepInfo {
        self.indep.get_or_init(|| IndepInfo::build(self))
    }

    /// Total number of variables in the flat global store.
    pub fn num_vars(&self) -> usize {
        self.total_vars
    }

    /// The flat-store index of variable `var` of component `comp` — the
    /// index space the independence support rows and [`State::vars`] use.
    pub fn global_var(&self, comp: CompId, var: u32) -> usize {
        self.var_offsets[comp] + var as usize
    }

    /// Resolve an instance name.
    pub fn component_id(&self, name: &str) -> Option<CompId> {
        self.instance_names.iter().position(|n| n == name)
    }

    /// The initial global state.
    pub fn initial_state(&self) -> State {
        let locs = self
            .type_of
            .iter()
            .map(|&ti| self.types[ti].initial().0)
            .collect();
        let mut vars = Vec::with_capacity(self.total_vars);
        for &ti in &self.type_of {
            vars.extend(self.types[ti].initial_vars());
        }
        State { locs, vars }
    }

    /// Value of variable `var` of component `comp` in `st`.
    pub fn var_value(&self, st: &State, comp: CompId, var: u32) -> Value {
        st.vars[self.var_offsets[comp] + var as usize]
    }

    /// Set variable `var` of component `comp` in `st`.
    pub fn set_var(&self, st: &mut State, comp: CompId, var: u32, value: Value) {
        st.vars[self.var_offsets[comp] + var as usize] = value;
    }

    /// The slice of `st.vars` belonging to component `comp`.
    pub fn comp_vars<'a>(&self, st: &'a State, comp: CompId) -> &'a [Value] {
        let off = self.var_offsets[comp];
        let n = self.atom_type(comp).vars().len();
        &st.vars[off..off + n]
    }

    fn loc_of(&self, st: &State, comp: CompId) -> crate::atom::LocId {
        crate::atom::LocId(st.locs[comp])
    }

    /// Enumerate enabled interactions in `st`, after priority filtering.
    pub fn enabled(&self, st: &State) -> Vec<Interaction> {
        let raw = self.enabled_unfiltered(st);
        if self.priority.is_empty() {
            return raw;
        }
        self.priority.filter(self, st, &raw)
    }

    /// Enumerate enabled interactions ignoring priorities.
    ///
    /// Compatibility wrapper over the compiled schedule (see
    /// [`crate::exec`]): feasibility and guard applicability were
    /// precomputed at build time, so this only tests offered ports and
    /// evaluates guards.
    pub fn enabled_unfiltered(&self, st: &State) -> Vec<Interaction> {
        let mut es = self.new_enabled_set();
        self.refresh_enabled(st, &mut es);
        let mut out = Vec::new();
        for ci in 0..self.connectors.len() {
            out.extend(es.masks(ConnId(ci as u32)).iter().map(|&mask| {
                self.resolve_ref(crate::exec::InteractionRef {
                    connector: ConnId(ci as u32),
                    mask,
                })
            }));
        }
        out
    }

    /// Internal (silent) steps available to individual components.
    pub fn internal_steps(&self, st: &State) -> Vec<Step> {
        let mut out = Vec::new();
        for comp in 0..self.num_components() {
            let ty = self.atom_type(comp);
            for tid in ty.enabled_internal(self.loc_of(st, comp), self.comp_vars(st, comp)) {
                out.push(Step::Internal {
                    component: comp,
                    transition: tid,
                });
            }
        }
        out
    }

    /// All semantic steps from `st` with their successor states — the
    /// transition relation used by the model checker.
    ///
    /// Enumerates, for every priority-surviving interaction, every
    /// combination of enabled local transitions of the participants, plus
    /// all internal steps.
    pub fn successors(&self, st: &State) -> Vec<(Step, State)> {
        let mut out = Vec::new();
        for inter in self.enabled(st) {
            self.expand_interaction(st, &inter, &mut out);
        }
        for step in self.internal_steps(st) {
            if let Step::Internal {
                component,
                transition,
            } = step
            {
                let mut next = st.clone();
                self.fire_local(&mut next, component, transition);
                out.push((
                    Step::Internal {
                        component,
                        transition,
                    },
                    next,
                ));
            }
        }
        out
    }

    pub(crate) fn expand_interaction(
        &self,
        st: &State,
        inter: &Interaction,
        out: &mut Vec<(Step, State)>,
    ) {
        let eps = &self.resolved[inter.connector.0 as usize];
        // Per participant: list of enabled transitions.
        let choices: Vec<(CompId, Vec<TransitionId>)> = inter
            .endpoints
            .iter()
            .map(|&i| {
                let (comp, port, _) = eps[i];
                let ts = self.atom_type(comp).enabled_transitions(
                    self.loc_of(st, comp),
                    port,
                    self.comp_vars(st, comp),
                );
                (comp, ts)
            })
            .collect();
        // Cartesian product of choices.
        let mut idx = vec![0usize; choices.len()];
        loop {
            let combo: Vec<(CompId, TransitionId)> = choices
                .iter()
                .zip(&idx)
                .map(|((c, ts), &i)| (*c, ts[i]))
                .collect();
            let mut next = st.clone();
            self.fire_interaction(&mut next, inter, &combo);
            out.push((
                Step::Interaction {
                    interaction: inter.clone(),
                    transitions: combo,
                },
                next,
            ));
            // Advance the odometer.
            let mut k = 0;
            loop {
                if k == idx.len() {
                    return;
                }
                idx[k] += 1;
                if idx[k] < choices[k].1.len() {
                    break;
                }
                idx[k] = 0;
                k += 1;
            }
        }
    }

    /// Fire `inter` in `st` (in place), using the given transition choice.
    ///
    /// Semantics: (1) the connector's data transfer executes over the
    /// pre-state (only assignments whose target endpoint participates);
    /// (2) each participant fires its local transition, updates reading the
    /// post-transfer store.
    pub fn fire_interaction(
        &self,
        st: &mut State,
        inter: &Interaction,
        transitions: &[(CompId, TransitionId)],
    ) {
        let arity = self.resolved[inter.connector.0 as usize].len();
        let mask = crate::exec::InteractionRef::of(inter, arity).mask;
        self.fire_interaction_masked(st, inter.connector, mask, transitions);
    }

    /// [`System::fire_interaction`] with the participant set given as an
    /// endpoint bitmask — the allocation-free form used by the compiled
    /// execution path.
    pub(crate) fn fire_interaction_masked(
        &self,
        st: &mut State,
        connector: ConnId,
        mask: u32,
        transitions: &[(CompId, TransitionId)],
    ) {
        let conn = &self.connectors[connector.0 as usize];
        let eps = &self.resolved[connector.0 as usize];
        if !conn.transfer.is_empty() {
            let pre = st.clone();
            for (ep, var, expr) in &conn.transfer {
                if !crate::exec::mask_contains(mask, *ep as usize) {
                    continue;
                }
                let value = expr.eval(&[], &|k, v| {
                    let (comp, _, _) = eps[k as usize];
                    self.var_value(&pre, comp, v)
                });
                let (comp, _, _) = eps[*ep as usize];
                self.set_var(st, comp, *var, value);
            }
        }
        for &(comp, tid) in transitions {
            self.fire_local(st, comp, tid);
        }
    }

    /// Fire a single local transition of `comp` in `st` (in place).
    pub fn fire_local(&self, st: &mut State, comp: CompId, tid: TransitionId) {
        let ty = self.atom_type(comp);
        let t = ty.transition(tid);
        if !t.updates.is_empty() {
            let off = self.var_offsets[comp];
            ty.apply_updates(tid, &mut st.vars[off..off + ty.vars().len()]);
        }
        st.locs[comp] = t.to.0;
    }

    /// Execute one step chosen by `pick` from the enabled steps; returns the
    /// step taken, or `None` if the system is deadlocked.
    pub fn step<F>(&self, st: &mut State, mut pick: F) -> Option<Step>
    where
        F: FnMut(&[(Step, State)]) -> usize,
    {
        let succ = self.successors(st);
        if succ.is_empty() {
            return None;
        }
        let i = pick(&succ).min(succ.len() - 1);
        let (step, next) = succ[i].clone();
        *st = next;
        Some(step)
    }

    /// The observable label of a step: the connector name for observable
    /// interactions, `None` (silent) for internal steps and connectors
    /// marked [`crate::ConnectorBuilder::silent`].
    pub fn step_label(&self, step: &Step) -> Option<&str> {
        match step {
            Step::Interaction { interaction, .. } => {
                let c = self.connector(interaction.connector);
                c.observable.then_some(c.name.as_str())
            }
            Step::Internal { .. } => None,
        }
    }

    /// A human-readable rendering of a step (for counterexample printing).
    pub fn describe_step(&self, step: &Step) -> String {
        match step {
            Step::Interaction { interaction, .. } => {
                let conn = self.connector(interaction.connector);
                let eps = &self.resolved[interaction.connector.0 as usize];
                let parts: Vec<String> = interaction
                    .endpoints
                    .iter()
                    .map(|&i| {
                        let (comp, port, _) = eps[i];
                        format!(
                            "{}.{}",
                            self.instance_name(comp),
                            self.atom_type(comp).port_name(port)
                        )
                    })
                    .collect();
                format!("{}({})", conn.name, parts.join(", "))
            }
            Step::Internal {
                component,
                transition,
            } => {
                let ty = self.atom_type(*component);
                let t = ty.transition(*transition);
                format!(
                    "τ:{}[{}→{}]",
                    self.instance_name(*component),
                    ty.loc_name(t.from),
                    ty.loc_name(t.to)
                )
            }
        }
    }

    /// A human-readable rendering of a state.
    pub fn describe_state(&self, st: &State) -> String {
        let mut parts = Vec::new();
        for comp in 0..self.num_components() {
            let ty = self.atom_type(comp);
            let mut s = format!(
                "{}@{}",
                self.instance_name(comp),
                ty.loc_name(self.loc_of(st, comp))
            );
            if !ty.vars().is_empty() {
                let vs: Vec<String> = ty
                    .vars()
                    .iter()
                    .enumerate()
                    .map(|(i, (n, _))| format!("{n}={}", self.var_value(st, comp, i as u32)))
                    .collect();
                s.push_str(&format!("[{}]", vs.join(",")));
            }
            parts.push(s);
        }
        parts.join(" ")
    }

    /// Group the resolved endpoints of a connector: `(component, port)`.
    pub fn connector_endpoints(&self, id: ConnId) -> Vec<(CompId, PortId)> {
        self.resolved[id.0 as usize]
            .iter()
            .map(|&(c, p, _)| (c, p))
            .collect()
    }

    /// Map each component to the connectors it participates in.
    ///
    /// Returns the index precomputed at build time (see
    /// [`crate::exec::CompiledExec`]); nothing is rebuilt per call. For the
    /// slice form, use `sys.compiled().watchers(comp)`.
    pub fn connectors_of_component(&self) -> &HashMap<CompId, Vec<ConnId>> {
        &self.compiled.watch_map
    }

    /// Two connectors *conflict* if they share a component (they compete for
    /// its ports) — the notion the conflict-resolution protocols of the
    /// distributed transformation must arbitrate.
    pub fn connectors_conflict(&self, a: ConnId, b: ConnId) -> bool {
        let ea = &self.resolved[a.0 as usize];
        let eb = &self.resolved[b.0 as usize];
        ea.iter()
            .any(|&(c, _, _)| eb.iter().any(|&(d, _, _)| c == d))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::AtomBuilder;
    use crate::builder::SystemBuilder;
    use crate::connector::ConnectorBuilder;
    use crate::data::Expr;

    fn pingpong() -> System {
        let ping = AtomBuilder::new("ping")
            .port("hit")
            .location("ready")
            .location("wait")
            .initial("ready")
            .transition("ready", "hit", "wait")
            .transition("wait", "hit", "ready")
            .build()
            .unwrap();
        let mut sb = SystemBuilder::new();
        let a = sb.add_instance("a", &ping);
        let b = sb.add_instance("b", &ping);
        sb.add_connector(ConnectorBuilder::rendezvous(
            "rally",
            [(a, "hit"), (b, "hit")],
        ));
        sb.build().unwrap()
    }

    #[test]
    fn initial_state_and_enabled() {
        let sys = pingpong();
        let st = sys.initial_state();
        assert_eq!(st.locs, vec![0, 0]);
        let en = sys.enabled(&st);
        assert_eq!(en.len(), 1);
        assert_eq!(en[0].endpoints, vec![0, 1]);
    }

    #[test]
    fn step_moves_both() {
        let sys = pingpong();
        let mut st = sys.initial_state();
        let step = sys.step(&mut st, |_| 0).unwrap();
        assert!(matches!(step, Step::Interaction { .. }));
        assert_eq!(st.locs, vec![1, 1]);
        sys.step(&mut st, |_| 0).unwrap();
        assert_eq!(st.locs, vec![0, 0]);
    }

    #[test]
    fn describe_helpers() {
        let sys = pingpong();
        let st = sys.initial_state();
        assert!(sys.describe_state(&st).contains("a@ready"));
        let (step, _) = &sys.successors(&st)[0];
        let d = sys.describe_step(step);
        assert!(d.contains("rally"), "{d}");
        assert!(d.contains("a.hit"), "{d}");
    }

    #[test]
    fn data_transfer_moves_values() {
        let src = AtomBuilder::new("src")
            .var("x", 42)
            .port_exporting("snd", ["x"])
            .location("l")
            .initial("l")
            .transition("l", "snd", "l")
            .build()
            .unwrap();
        let dst = AtomBuilder::new("dst")
            .var("y", 0)
            .port_exporting("rcv", ["y"])
            .location("l")
            .initial("l")
            .transition("l", "rcv", "l")
            .build()
            .unwrap();
        let mut sb = SystemBuilder::new();
        let s = sb.add_instance("s", &src);
        let d = sb.add_instance("d", &dst);
        sb.add_connector(
            ConnectorBuilder::rendezvous("xfer", [(s, "snd"), (d, "rcv")]).transfer(
                1,
                0,
                Expr::param(0, 0),
            ),
        );
        let sys = sb.build().unwrap();
        let mut st = sys.initial_state();
        sys.step(&mut st, |_| 0).unwrap();
        assert_eq!(sys.var_value(&st, d, 0), 42);
    }

    #[test]
    fn connector_guard_blocks() {
        let a = AtomBuilder::new("a")
            .var("x", 0)
            .port("p")
            .location("l")
            .initial("l")
            .guarded_transition(
                "l",
                "p",
                Expr::t(),
                vec![("x", Expr::var(0).add(Expr::int(1)))],
                "l",
            )
            .build()
            .unwrap();
        let mut sb = SystemBuilder::new();
        let c = sb.add_instance("c", &a);
        sb.add_connector(
            ConnectorBuilder::singleton("tick", c, "p").guard(Expr::param(0, 0).lt(Expr::int(2))),
        );
        let sys = sb.build().unwrap();
        let mut st = sys.initial_state();
        assert!(sys.step(&mut st, |_| 0).is_some());
        assert!(sys.step(&mut st, |_| 0).is_some());
        // x == 2 now: guard blocks, deadlock.
        assert!(sys.step(&mut st, |_| 0).is_none());
    }

    #[test]
    fn local_nondeterminism_enumerated() {
        // One port, two transitions with the same label: two successors.
        let a = AtomBuilder::new("a")
            .port("p")
            .location("l")
            .location("m")
            .location("r")
            .initial("l")
            .transition("l", "p", "m")
            .transition("l", "p", "r")
            .build()
            .unwrap();
        let mut sb = SystemBuilder::new();
        let c = sb.add_instance("c", &a);
        sb.add_connector(ConnectorBuilder::singleton("go", c, "p"));
        let sys = sb.build().unwrap();
        let st = sys.initial_state();
        let succ = sys.successors(&st);
        assert_eq!(succ.len(), 2);
        let locs: std::collections::HashSet<u32> = succ.iter().map(|(_, s)| s.locs[0]).collect();
        assert_eq!(locs.len(), 2);
    }

    #[test]
    fn internal_steps_are_successors() {
        let a = AtomBuilder::new("a")
            .location("l")
            .location("m")
            .initial("l")
            .internal_transition("l", Expr::t(), vec![], "m")
            .build()
            .unwrap();
        let b = AtomBuilder::new("b")
            .port("p")
            .location("l")
            .initial("l")
            .transition("l", "p", "l")
            .build()
            .unwrap();
        let mut sb = SystemBuilder::new();
        let x = sb.add_instance("x", &a);
        let y = sb.add_instance("y", &b);
        sb.add_connector(ConnectorBuilder::singleton("go", y, "p"));
        let sys = sb.build().unwrap();
        let st = sys.initial_state();
        let succ = sys.successors(&st);
        assert_eq!(succ.len(), 2);
        assert!(succ
            .iter()
            .any(|(s, _)| matches!(s, Step::Internal { component, .. } if *component == x)));
        // Internal step is silent.
        let internal = succ
            .iter()
            .find(|(s, _)| matches!(s, Step::Internal { .. }))
            .unwrap();
        assert_eq!(sys.step_label(&internal.0), None);
    }

    #[test]
    fn broadcast_partial_participation() {
        let talker = AtomBuilder::new("talker")
            .port("say")
            .location("l")
            .initial("l")
            .transition("l", "say", "l")
            .build()
            .unwrap();
        let listener = AtomBuilder::new("listener")
            .port("hear")
            .location("idle")
            .location("busy")
            .initial("idle")
            .transition("idle", "hear", "busy")
            .build()
            .unwrap();
        let mut sb = SystemBuilder::new();
        let t = sb.add_instance("t", &talker);
        let l1 = sb.add_instance("l1", &listener);
        let l2 = sb.add_instance("l2", &listener);
        sb.add_connector(ConnectorBuilder::broadcast(
            "cast",
            (t, "say"),
            [(l1, "hear"), (l2, "hear")],
        ));
        let sys = sb.build().unwrap();
        let st = sys.initial_state();
        // Feasible: {t}, {t,l1}, {t,l2}, {t,l1,l2} — all offered.
        assert_eq!(sys.enabled(&st).len(), 4);
        // After l1 moved to busy, only {t} and {t,l2} remain.
        let succ = sys.successors(&st);
        let (_, st2) = succ
            .iter()
            .find(|(step, _)| match step {
                Step::Interaction { interaction, .. } => interaction.endpoints == vec![0, 1],
                _ => false,
            })
            .unwrap();
        assert_eq!(sys.enabled(st2).len(), 2);
    }

    #[test]
    fn conflict_detection() {
        let sys = pingpong();
        // Single connector conflicts with itself trivially.
        assert!(sys.connectors_conflict(ConnId(0), ConnId(0)));
        let map = sys.connectors_of_component();
        assert_eq!(map[&0], vec![ConnId(0)]);
    }

    #[test]
    fn duplicate_connector_name_rejected() {
        let ping = AtomBuilder::new("p")
            .port("h")
            .location("l")
            .initial("l")
            .transition("l", "h", "l")
            .build()
            .unwrap();
        let mut sb = SystemBuilder::new();
        let a = sb.add_instance("a", &ping);
        sb.add_connector(ConnectorBuilder::singleton("c", a, "h"));
        sb.add_connector(ConnectorBuilder::singleton("c", a, "h"));
        assert!(matches!(
            sb.build(),
            Err(ModelError::DuplicateName {
                kind: "connector",
                ..
            })
        ));
    }

    #[test]
    fn bad_port_ref_rejected() {
        let ping = AtomBuilder::new("p")
            .port("h")
            .location("l")
            .initial("l")
            .transition("l", "h", "l")
            .build()
            .unwrap();
        let mut sb = SystemBuilder::new();
        let a = sb.add_instance("a", &ping);
        sb.add_connector(ConnectorBuilder::singleton("c", a, "ghost"));
        assert!(matches!(sb.build(), Err(ModelError::BadPortRef { .. })));
    }

    #[test]
    fn empty_system_rejected() {
        let sb = SystemBuilder::new();
        assert!(matches!(sb.build(), Err(ModelError::EmptySystem)));
    }
}
