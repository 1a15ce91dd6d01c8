//! Atomic components: behavior specified as a transition system — locations,
//! integer variables, and port-labelled guarded transitions with update
//! actions (§5.3.2 of the paper: "atomic components are characterized by
//! their behavior specified as a transition system").

use crate::data::{Expr, Value};
use crate::error::ModelError;

/// Identifier of a port within an [`AtomType`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PortId(pub u32);

/// Identifier of a control location within an [`AtomType`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LocId(pub u32);

/// Identifier of a variable within an [`AtomType`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub u32);

/// Identifier of a transition within an [`AtomType`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TransitionId(pub u32);

/// A port declaration: the atom's interface point used by connectors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PortDecl {
    /// Port name, unique within the atom.
    pub name: String,
    /// Indices of variables exported through this port (readable/writable by
    /// connector guards and data transfer when the port participates in an
    /// interaction).
    pub exports: Vec<VarId>,
}

/// A guarded, port-labelled transition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Transition {
    /// Source location.
    pub from: LocId,
    /// Destination location.
    pub to: LocId,
    /// The port that must participate in an interaction for this transition
    /// to fire; `None` marks an internal (silent) step that the component can
    /// take alone.
    pub port: Option<PortId>,
    /// Guard over the atom's variables; the transition is enabled only when
    /// it evaluates to non-zero.
    pub guard: Expr,
    /// Update action: simultaneous assignments `var := expr` evaluated over
    /// the pre-state.
    pub updates: Vec<(VarId, Expr)>,
}

/// The *type* of an atomic component: shared, immutable description that
/// [`crate::System`] instances refer to.
#[derive(Debug, Clone, PartialEq)]
pub struct AtomType {
    name: String,
    ports: Vec<PortDecl>,
    vars: Vec<(String, Value)>,
    locations: Vec<String>,
    transitions: Vec<Transition>,
    initial: LocId,
    /// transitions_from[loc] = transition ids ordered as declared.
    transitions_from: Vec<Vec<TransitionId>>,
    /// The port-offer tables; see [`PortTables`].
    offers: PortTables,
}

/// Number of ports the offer tables cover: ports `0..TABLE_PORTS` are one
/// bit of a `u64` word; higher-numbered ports fall back to scanning
/// `transitions_from`.
pub(crate) const TABLE_PORTS: usize = 64;

/// The port-offer tables of an [`AtomType`], derived once from its
/// transitions (all indexed by location; ports `< TABLE_PORTS` only).
///
/// A transition whose guard is a nonzero constant offers its port
/// unconditionally; one whose guard is the constant 0 never fires and is
/// left out; any other guard must be evaluated.
#[derive(Debug, Clone, PartialEq, Eq)]
struct PortTables {
    /// Ports the table covers: `min(ports, TABLE_PORTS)`.
    ports: usize,
    /// Per location: ports offered by some transition with a nonzero
    /// constant guard.
    always: Vec<u64>,
    /// Per location: ports with some transition whose guard is not
    /// constant.
    guarded: Vec<u64>,
    /// `trans[start[s]..start[s + 1]]` for slot `s = loc * ports + port`:
    /// that port's transitions from that location, declared order,
    /// constant-false guards dropped.
    start: Vec<u32>,
    trans: Vec<TransitionId>,
}

impl PortTables {
    fn build(nlocs: usize, nports: usize, transitions: &[Transition]) -> PortTables {
        let ports = nports.min(TABLE_PORTS);
        // The `(location, port)` of a tabled transition that can ever fire.
        let tabled = |t: &Transition| match (t.port, &t.guard) {
            (_, Expr::Const(0)) => None,
            (Some(p), _) if (p.0 as usize) < ports => Some((t.from.0 as usize, p.0 as usize)),
            _ => None,
        };
        let mut always = vec![0u64; nlocs];
        let mut guarded = vec![0u64; nlocs];
        let mut start = vec![0u32; nlocs * ports + 1];
        for t in transitions {
            let Some((l, p)) = tabled(t) else { continue };
            match t.guard {
                Expr::Const(_) => always[l] |= 1 << p,
                _ => guarded[l] |= 1 << p,
            }
            start[l * ports + p + 1] += 1;
        }
        for s in 1..start.len() {
            start[s] += start[s - 1];
        }
        let mut trans = vec![TransitionId(0); start[nlocs * ports] as usize];
        let mut fill = start.clone();
        for (i, t) in transitions.iter().enumerate() {
            if let Some((l, p)) = tabled(t) {
                let s = l * ports + p;
                trans[fill[s] as usize] = TransitionId(i as u32);
                fill[s] += 1;
            }
        }
        PortTables {
            ports,
            always,
            guarded,
            start,
            trans,
        }
    }
}

impl AtomType {
    /// The atom type's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Declared ports.
    pub fn ports(&self) -> &[PortDecl] {
        &self.ports
    }

    /// Declared variables as `(name, initial value)` pairs.
    pub fn vars(&self) -> &[(String, Value)] {
        &self.vars
    }

    /// Location names.
    pub fn locations(&self) -> &[String] {
        &self.locations
    }

    /// All transitions.
    pub fn transitions(&self) -> &[Transition] {
        &self.transitions
    }

    /// The initial location.
    pub fn initial(&self) -> LocId {
        self.initial
    }

    /// Transition ids with source `loc`.
    pub fn transitions_from(&self, loc: LocId) -> &[TransitionId] {
        &self.transitions_from[loc.0 as usize]
    }

    /// Look up a transition by id.
    pub fn transition(&self, id: TransitionId) -> &Transition {
        &self.transitions[id.0 as usize]
    }

    /// Resolve a port name.
    pub fn port_id(&self, name: &str) -> Option<PortId> {
        self.ports
            .iter()
            .position(|p| p.name == name)
            .map(|i| PortId(i as u32))
    }

    /// Resolve a location name.
    pub fn loc_id(&self, name: &str) -> Option<LocId> {
        self.locations
            .iter()
            .position(|l| l == name)
            .map(|i| LocId(i as u32))
    }

    /// Resolve a variable name.
    pub fn var_id(&self, name: &str) -> Option<VarId> {
        self.vars
            .iter()
            .position(|(n, _)| n == name)
            .map(|i| VarId(i as u32))
    }

    /// Name of a location.
    pub fn loc_name(&self, id: LocId) -> &str {
        &self.locations[id.0 as usize]
    }

    /// Name of a port.
    pub fn port_name(&self, id: PortId) -> &str {
        &self.ports[id.0 as usize].name
    }

    /// Name of a variable.
    pub fn var_name(&self, id: VarId) -> &str {
        &self.vars[id.0 as usize].0
    }

    /// Initial variable valuation.
    pub fn initial_vars(&self) -> Vec<Value> {
        self.vars.iter().map(|(_, v)| *v).collect()
    }

    /// Transitions from `loc` labelled by `port` whose guard holds in
    /// `vars`.
    pub fn enabled_transitions(
        &self,
        loc: LocId,
        port: PortId,
        vars: &[Value],
    ) -> Vec<TransitionId> {
        self.enabled_on_port(loc, port, vars).collect()
    }

    /// Internal (silent) transitions enabled at `loc` under `vars`.
    pub fn enabled_internal(&self, loc: LocId, vars: &[Value]) -> Vec<TransitionId> {
        self.transitions_from(loc)
            .iter()
            .copied()
            .filter(|&tid| {
                let t = self.transition(tid);
                t.port.is_none() && t.guard.eval_local(vars) != 0
            })
            .collect()
    }

    /// `true` if some transition from `loc` is labelled by `port` and its
    /// guard holds — i.e. the port is *offered* in this local state.
    pub fn port_enabled(&self, loc: LocId, port: PortId, vars: &[Value]) -> bool {
        if (port.0 as usize) < self.offers.ports {
            let bit = 1u64 << port.0;
            let l = loc.0 as usize;
            if self.offers.always[l] & bit != 0 {
                return true;
            }
            if self.offers.guarded[l] & bit == 0 {
                return false;
            }
        }
        self.enabled_on_port(loc, port, vars).next().is_some()
    }

    /// The transitions from `loc` labelled by `port` whose guard holds in
    /// `vars`, in declared order. Ports below [`TABLE_PORTS`] read their
    /// candidates from the offer tables and evaluate guards only when some
    /// candidate's guard is not constant; higher ports scan
    /// `transitions_from(loc)`.
    pub(crate) fn enabled_on_port<'a>(
        &'a self,
        loc: LocId,
        port: PortId,
        vars: &'a [Value],
    ) -> impl Iterator<Item = TransitionId> + 'a {
        let p = port.0 as usize;
        // A scan also evaluates: it must filter by port.
        let (cands, scan, eval) = if p < self.offers.ports {
            let l = loc.0 as usize;
            let s = l * self.offers.ports + p;
            let range = self.offers.start[s] as usize..self.offers.start[s + 1] as usize;
            let eval = self.offers.guarded[l] & (1u64 << p) != 0;
            (&self.offers.trans[range], false, eval)
        } else {
            (self.transitions_from(loc), true, true)
        };
        cands.iter().copied().filter(move |&tid| {
            !eval || {
                let t = self.transition(tid);
                (!scan || t.port == Some(port)) && t.guard.eval_local(vars) != 0
            }
        })
    }

    /// The offered-port word of the local state `(loc, vars())`: bit `p`
    /// is set iff port `p < TABLE_PORTS` is offered
    /// ([`AtomType::port_enabled`]). Only ports with a non-constant guard
    /// and no constant-true alternative are evaluated; `vars` is called
    /// only if there is one.
    #[inline]
    pub(crate) fn offered_ports<'v>(&self, loc: LocId, vars: impl FnOnce() -> &'v [Value]) -> u64 {
        let l = loc.0 as usize;
        let word = self.offers.always[l];
        let pending = self.offers.guarded[l] & !word;
        if pending == 0 {
            word
        } else {
            self.offered_guarded(loc, vars(), word, pending)
        }
    }

    /// [`AtomType::offered_ports`] past the constant ports: evaluate each
    /// `pending` port's candidates.
    fn offered_guarded(&self, loc: LocId, vars: &[Value], mut word: u64, mut pending: u64) -> u64 {
        while pending != 0 {
            let p = pending.trailing_zeros();
            pending &= pending - 1;
            if self.enabled_on_port(loc, PortId(p), vars).next().is_some() {
                word |= 1u64 << p;
            }
        }
        word
    }

    /// Execute a transition's update action on `vars` (simultaneous
    /// semantics: right-hand sides read the pre-state).
    pub fn apply_updates(&self, tid: TransitionId, vars: &mut [Value]) {
        match self.transition(tid).updates.as_slice() {
            [] => {}
            // A single assignment reads the pre-state without a copy.
            [(v, e)] => vars[v.0 as usize] = e.eval_local(vars),
            updates => {
                let pre = vars.to_vec();
                for (v, e) in updates {
                    vars[v.0 as usize] = e.eval_local(&pre);
                }
            }
        }
    }
}

/// A runtime instance pairing an [`AtomType`] with its mutable local state.
///
/// Used by the execution engines; the model checker works on flat
/// [`crate::State`] vectors instead.
#[derive(Debug, Clone)]
pub struct Atom {
    ty: AtomType,
    loc: LocId,
    vars: Vec<Value>,
}

impl Atom {
    /// Instantiate an atom type in its initial state.
    pub fn new(ty: AtomType) -> Atom {
        let loc = ty.initial();
        let vars = ty.initial_vars();
        Atom { ty, loc, vars }
    }

    /// The type of this instance.
    pub fn ty(&self) -> &AtomType {
        &self.ty
    }

    /// Current control location.
    pub fn loc(&self) -> LocId {
        self.loc
    }

    /// Current variable valuation.
    pub fn vars(&self) -> &[Value] {
        &self.vars
    }

    /// Mutable access to the variables (used by connector data transfer).
    pub fn vars_mut(&mut self) -> &mut Vec<Value> {
        &mut self.vars
    }

    /// Fire transition `tid`: apply updates and move the control location.
    ///
    /// # Panics
    ///
    /// Panics (debug) if the transition's source is not the current location.
    pub fn fire(&mut self, tid: TransitionId) {
        debug_assert_eq!(self.ty.transition(tid).from, self.loc);
        let ty = self.ty.clone();
        ty.apply_updates(tid, &mut self.vars);
        self.loc = ty.transition(tid).to;
    }

    /// Reset to the initial state.
    pub fn reset(&mut self) {
        self.loc = self.ty.initial();
        self.vars = self.ty.initial_vars();
    }
}

/// Builder for [`AtomType`], with name-based declarations and validation.
///
/// See the [crate-level example](crate) for usage.
#[derive(Debug, Clone)]
pub struct AtomBuilder {
    name: String,
    ports: Vec<PortDecl>,
    vars: Vec<(String, Value)>,
    locations: Vec<String>,
    initial: Option<String>,
    // (from, port-or-None, guard, updates, to) — all by name, resolved at build.
    #[allow(clippy::type_complexity)]
    transitions: Vec<(String, Option<String>, Expr, Vec<(String, Expr)>, String)>,
    // Ports whose exported-variable names await resolution at build time.
    pending_exports: Vec<(usize, Vec<String>)>,
}

impl AtomBuilder {
    /// Start building an atom type called `name`.
    pub fn new(name: impl Into<String>) -> AtomBuilder {
        AtomBuilder {
            name: name.into(),
            ports: Vec::new(),
            vars: Vec::new(),
            locations: Vec::new(),
            initial: None,
            transitions: Vec::new(),
            pending_exports: Vec::new(),
        }
    }

    /// Declare a port exporting no variables.
    pub fn port(mut self, name: impl Into<String>) -> Self {
        self.ports.push(PortDecl {
            name: name.into(),
            exports: Vec::new(),
        });
        self
    }

    /// Declare a port exporting the named variables (resolved at build time).
    ///
    /// Exported variables are visible to connector guards and writable by
    /// connector data transfer when this port participates in an interaction.
    pub fn port_exporting<I, S>(mut self, name: impl Into<String>, exports: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.ports.push(PortDecl {
            name: name.into(),
            exports: Vec::new(),
        });
        let idx = self.ports.len() - 1;
        let names: Vec<String> = exports.into_iter().map(Into::into).collect();
        self.pending_exports.push((idx, names));
        self
    }

    /// Declare a variable with an initial value.
    pub fn var(mut self, name: impl Into<String>, init: Value) -> Self {
        self.vars.push((name.into(), init));
        self
    }

    /// Declare a control location.
    pub fn location(mut self, name: impl Into<String>) -> Self {
        self.locations.push(name.into());
        self
    }

    /// Set the initial location (must have been declared).
    pub fn initial(mut self, name: impl Into<String>) -> Self {
        self.initial = Some(name.into());
        self
    }

    /// Add an unguarded transition with no updates.
    pub fn transition(
        self,
        from: impl Into<String>,
        port: impl Into<String>,
        to: impl Into<String>,
    ) -> Self {
        self.transition_full(from, Some(port.into()), Expr::t(), Vec::new(), to)
    }

    /// Add a guarded transition with updates, labelled by a port.
    pub fn guarded_transition(
        self,
        from: impl Into<String>,
        port: impl Into<String>,
        guard: Expr,
        updates: Vec<(&str, Expr)>,
        to: impl Into<String>,
    ) -> Self {
        let ups = updates
            .into_iter()
            .map(|(n, e)| (n.to_string(), e))
            .collect();
        self.transition_full(from, Some(port.into()), guard, ups, to)
    }

    /// Add an internal (silent) transition.
    pub fn internal_transition(
        self,
        from: impl Into<String>,
        guard: Expr,
        updates: Vec<(&str, Expr)>,
        to: impl Into<String>,
    ) -> Self {
        let ups = updates
            .into_iter()
            .map(|(n, e)| (n.to_string(), e))
            .collect();
        self.transition_full(from, None, guard, ups, to)
    }

    fn transition_full(
        mut self,
        from: impl Into<String>,
        port: Option<String>,
        guard: Expr,
        updates: Vec<(String, Expr)>,
        to: impl Into<String>,
    ) -> Self {
        self.transitions
            .push((from.into(), port, guard, updates, to.into()));
        self
    }

    /// Validate and construct the [`AtomType`].
    ///
    /// # Errors
    ///
    /// Returns [`ModelError`] on duplicate names, unresolved references,
    /// missing initial location, or variable indices out of range in guards
    /// and updates.
    pub fn build(self) -> Result<AtomType, ModelError> {
        let AtomBuilder {
            name,
            mut ports,
            vars,
            locations,
            initial,
            transitions,
            pending_exports,
        } = self;
        if locations.is_empty() {
            return Err(ModelError::EmptyBehavior { atom: name });
        }
        // Uniqueness checks.
        check_unique("port", ports.iter().map(|p| p.name.as_str()))?;
        check_unique("variable", vars.iter().map(|(n, _)| n.as_str()))?;
        check_unique("location", locations.iter().map(String::as_str))?;
        let var_id = |n: &str| -> Result<VarId, ModelError> {
            vars.iter()
                .position(|(vn, _)| vn == n)
                .map(|i| VarId(i as u32))
                .ok_or_else(|| ModelError::UnknownName {
                    kind: "variable",
                    name: n.to_string(),
                })
        };
        for (pidx, names) in pending_exports {
            let mut resolved = Vec::new();
            for n in &names {
                resolved.push(var_id(n)?);
            }
            ports[pidx].exports = resolved;
        }
        let loc_id = |n: &str| -> Result<LocId, ModelError> {
            locations
                .iter()
                .position(|l| l == n)
                .map(|i| LocId(i as u32))
                .ok_or_else(|| ModelError::UnknownName {
                    kind: "location",
                    name: n.to_string(),
                })
        };
        let port_id = |n: &str| -> Result<PortId, ModelError> {
            ports
                .iter()
                .position(|p| p.name == n)
                .map(|i| PortId(i as u32))
                .ok_or_else(|| ModelError::UnknownName {
                    kind: "port",
                    name: n.to_string(),
                })
        };
        let initial_name =
            initial.ok_or_else(|| ModelError::MissingInitial { atom: name.clone() })?;
        let initial = loc_id(&initial_name)?;

        let mut resolved = Vec::new();
        for (from, port, guard, updates, to) in transitions {
            if let Some(maxv) = guard.max_var() {
                if maxv as usize >= vars.len() {
                    return Err(ModelError::BadVarIndex {
                        context: format!("guard of transition {from}->{to} in atom {name}"),
                        index: maxv as usize,
                    });
                }
            }
            let mut ups = Vec::new();
            for (vn, e) in updates {
                if let Some(maxv) = e.max_var() {
                    if maxv as usize >= vars.len() {
                        return Err(ModelError::BadVarIndex {
                            context: format!("update of {vn} in atom {name}"),
                            index: maxv as usize,
                        });
                    }
                }
                ups.push((var_id(&vn)?, e));
            }
            resolved.push(Transition {
                from: loc_id(&from)?,
                to: loc_id(&to)?,
                port: port.as_deref().map(port_id).transpose()?,
                guard,
                updates: ups,
            });
        }

        let mut transitions_from = vec![Vec::new(); locations.len()];
        for (i, t) in resolved.iter().enumerate() {
            transitions_from[t.from.0 as usize].push(TransitionId(i as u32));
        }
        let offers = PortTables::build(locations.len(), ports.len(), &resolved);

        Ok(AtomType {
            name,
            ports,
            vars,
            locations,
            transitions: resolved,
            initial,
            transitions_from,
            offers,
        })
    }
}

fn check_unique<'a, I: Iterator<Item = &'a str>>(
    kind: &'static str,
    names: I,
) -> Result<(), ModelError> {
    let mut seen = std::collections::HashSet::new();
    for n in names {
        if !seen.insert(n) {
            return Err(ModelError::DuplicateName {
                kind,
                name: n.to_string(),
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counter() -> AtomType {
        AtomBuilder::new("counter")
            .port("tick")
            .port("read")
            .var("n", 0)
            .location("l0")
            .initial("l0")
            .guarded_transition(
                "l0",
                "tick",
                Expr::var(0).lt(Expr::int(3)),
                vec![("n", Expr::var(0).add(Expr::int(1)))],
                "l0",
            )
            .transition("l0", "read", "l0")
            .build()
            .unwrap()
    }

    #[test]
    fn build_and_lookup() {
        let c = counter();
        assert_eq!(c.name(), "counter");
        assert_eq!(c.ports().len(), 2);
        assert_eq!(c.port_id("tick"), Some(PortId(0)));
        assert_eq!(c.port_id("nope"), None);
        assert_eq!(c.loc_id("l0"), Some(LocId(0)));
        assert_eq!(c.var_id("n"), Some(VarId(0)));
        assert_eq!(c.loc_name(LocId(0)), "l0");
        assert_eq!(c.port_name(PortId(1)), "read");
        assert_eq!(c.var_name(VarId(0)), "n");
    }

    #[test]
    fn guard_limits_enabledness() {
        let c = counter();
        let tick = c.port_id("tick").unwrap();
        assert!(c.port_enabled(LocId(0), tick, &[0]));
        assert!(c.port_enabled(LocId(0), tick, &[2]));
        assert!(!c.port_enabled(LocId(0), tick, &[3]));
        // `read` stays enabled regardless.
        let read = c.port_id("read").unwrap();
        assert!(c.port_enabled(LocId(0), read, &[3]));
    }

    #[test]
    fn atom_instance_fires() {
        let mut a = Atom::new(counter());
        let tick = a.ty().port_id("tick").unwrap();
        for want in 1..=3 {
            let ts = a.ty().enabled_transitions(a.loc(), tick, a.vars());
            assert_eq!(ts.len(), 1);
            a.fire(ts[0]);
            assert_eq!(a.vars()[0], want);
        }
        assert!(a
            .ty()
            .enabled_transitions(a.loc(), tick, a.vars())
            .is_empty());
        a.reset();
        assert_eq!(a.vars()[0], 0);
    }

    #[test]
    fn simultaneous_updates_read_pre_state() {
        let swap = AtomBuilder::new("swap")
            .port("go")
            .var("x", 1)
            .var("y", 2)
            .location("l")
            .initial("l")
            .guarded_transition(
                "l",
                "go",
                Expr::t(),
                vec![("x", Expr::var(1)), ("y", Expr::var(0))],
                "l",
            )
            .build()
            .unwrap();
        let mut a = Atom::new(swap);
        let go = a.ty().port_id("go").unwrap();
        let ts = a.ty().enabled_transitions(a.loc(), go, a.vars());
        a.fire(ts[0]);
        assert_eq!(a.vars(), &[2, 1]);
    }

    #[test]
    fn internal_transitions() {
        let t = AtomBuilder::new("t")
            .var("x", 0)
            .location("a")
            .location("b")
            .initial("a")
            .internal_transition("a", Expr::t(), vec![("x", Expr::int(7))], "b")
            .build()
            .unwrap();
        let ints = t.enabled_internal(LocId(0), &[0]);
        assert_eq!(ints.len(), 1);
        assert!(t.enabled_internal(LocId(1), &[0]).is_empty());
    }

    #[test]
    fn rejects_duplicate_port() {
        let r = AtomBuilder::new("x")
            .port("p")
            .port("p")
            .location("l")
            .initial("l")
            .build();
        assert!(matches!(
            r,
            Err(ModelError::DuplicateName { kind: "port", .. })
        ));
    }

    #[test]
    fn rejects_unknown_initial() {
        let r = AtomBuilder::new("x").location("l").initial("m").build();
        assert!(matches!(
            r,
            Err(ModelError::UnknownName {
                kind: "location",
                ..
            })
        ));
    }

    #[test]
    fn rejects_missing_initial() {
        let r = AtomBuilder::new("x").location("l").build();
        assert!(matches!(r, Err(ModelError::MissingInitial { .. })));
    }

    #[test]
    fn rejects_empty_behavior() {
        let r = AtomBuilder::new("x").build();
        assert!(matches!(r, Err(ModelError::EmptyBehavior { .. })));
    }

    #[test]
    fn rejects_unknown_port_in_transition() {
        let r = AtomBuilder::new("x")
            .location("l")
            .initial("l")
            .transition("l", "ghost", "l")
            .build();
        assert!(matches!(
            r,
            Err(ModelError::UnknownName { kind: "port", .. })
        ));
    }

    #[test]
    fn rejects_bad_var_index_in_guard() {
        let r = AtomBuilder::new("x")
            .port("p")
            .location("l")
            .initial("l")
            .guarded_transition("l", "p", Expr::var(5), vec![], "l")
            .build();
        assert!(matches!(r, Err(ModelError::BadVarIndex { .. })));
    }

    #[test]
    fn port_exports_resolve() {
        let a = AtomBuilder::new("x")
            .var("v", 3)
            .port_exporting("p", ["v"])
            .location("l")
            .initial("l")
            .transition("l", "p", "l")
            .build()
            .unwrap();
        assert_eq!(a.ports()[0].exports, vec![VarId(0)]);
    }

    #[test]
    fn port_exports_unknown_var_rejected() {
        let r = AtomBuilder::new("x")
            .port_exporting("p", ["ghost"])
            .location("l")
            .initial("l")
            .build();
        assert!(matches!(
            r,
            Err(ModelError::UnknownName {
                kind: "variable",
                ..
            })
        ));
    }
}
