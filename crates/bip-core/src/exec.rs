//! Compiled execution: the allocation-free enabled-set protocol.
//!
//! `System::from_parts` compiles, once, everything about interaction
//! enabledness that does not depend on the state:
//!
//! * per connector, the **feasible endpoint masks** — the subsets allowed by
//!   the trigger/synchron typing *and* by guard applicability (a guard that
//!   reads endpoint `k` rules out subsets without `k`), as `u32` bitmasks in
//!   ascending order;
//! * per component, the **watch list** — the connectors whose enabledness
//!   can change when that component moves (exactly the connectors it
//!   participates in, since connector guards only read participant
//!   variables);
//! * which components can ever take internal (silent) steps.
//!
//! At run time an [`EnabledSet`] scratch buffer holds, per connector, the
//! currently enabled masks, and per component, the enabled internal
//! transitions. After firing a step, only the connectors watching the
//! components that moved are marked dirty and re-evaluated on the next
//! [`System::refresh_enabled`] — the hot loop allocates nothing once the
//! buffers have warmed up.
//!
//! The legacy [`System::enabled`] / [`System::successors`] APIs are thin
//! wrappers over this machinery, so both protocols always agree.

use std::collections::HashMap;

use crate::atom::TransitionId;
use crate::connector::{ConnId, Connector};
use crate::error::ModelError;
use crate::system::{CompId, Interaction, State, Step, System};

/// Endpoint-mask width. Connectors that enumerate endpoint *subsets*
/// (broadcast trigger/synchron typing) must have strictly fewer ports than
/// this. Pure rendezvous connectors — one feasible interaction, the full
/// endpoint set — may be arbitrarily wide; past 32 ports they use the
/// [`FULL_MASK`] sentinel.
pub const MAX_CONNECTOR_PORTS: usize = 32;

/// Sentinel mask meaning "every endpoint of the connector", whatever its
/// arity. For connectors of exactly 32 ports the exact full bitmask
/// coincides with this value — the meanings agree; connectors with fewer
/// ports can never produce it from a subset.
pub const FULL_MASK: u32 = u32::MAX;

/// `true` if endpoint `i` participates in `mask`.
#[inline]
pub fn mask_contains(mask: u32, i: usize) -> bool {
    mask == FULL_MASK || (i < 32 && mask & (1 << i) != 0)
}

/// Iterate the endpoints of `mask` for a connector of `arity` ports.
#[inline]
pub fn mask_endpoints(mask: u32, arity: usize) -> impl Iterator<Item = usize> {
    (0..arity).filter(move |&i| mask_contains(mask, i))
}

/// A connector interaction in compiled form: the connector plus the
/// participating-endpoint bitmask (bit `i` = endpoint `i` of the
/// connector; [`FULL_MASK`] = all endpoints, whatever the arity).
///
/// `Copy` and eight bytes — the currency of the allocation-free protocol.
/// Convert to the legacy [`Interaction`] with [`System::resolve_ref`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct InteractionRef {
    /// The connector.
    pub connector: ConnId,
    /// Participating endpoints as a bitmask over the connector's port list.
    pub mask: u32,
}

impl InteractionRef {
    /// Iterate the participating endpoint indices, ascending, given the
    /// connector's arity.
    pub fn endpoints(self, arity: usize) -> impl Iterator<Item = usize> {
        mask_endpoints(self.mask, arity)
    }

    /// Number of participating endpoints, given the connector's arity.
    pub fn participants(self, arity: usize) -> usize {
        if self.mask == FULL_MASK {
            arity
        } else {
            self.mask.count_ones() as usize
        }
    }

    /// Materialize the legacy (endpoint-vector) form, given the connector's
    /// arity (see [`System::resolve_ref`] for the by-system form).
    pub fn resolve(self, arity: usize) -> Interaction {
        Interaction {
            connector: self.connector,
            endpoints: self.endpoints(arity).collect(),
        }
    }

    /// Compiled form of a legacy interaction, given the connector's arity.
    ///
    /// Masks are canonical: exact bitmasks for connectors of ≤ 32 ports,
    /// [`FULL_MASK`] only for wider (necessarily full-participation)
    /// connectors.
    pub fn of(inter: &Interaction, arity: usize) -> InteractionRef {
        if arity > MAX_CONNECTOR_PORTS {
            debug_assert_eq!(
                inter.endpoints.len(),
                arity,
                "wide connectors only support full participation"
            );
            return InteractionRef {
                connector: inter.connector,
                mask: FULL_MASK,
            };
        }
        let mut mask = 0u32;
        for &e in &inter.endpoints {
            mask |= 1 << e;
        }
        InteractionRef {
            connector: inter.connector,
            mask,
        }
    }
}

/// One executable step in compiled form: a connector interaction or an
/// internal (silent) transition of a single component.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EnabledStep {
    /// A (multi-party) connector interaction.
    Interaction(InteractionRef),
    /// An internal step of one component.
    Internal {
        /// The stepping component.
        component: CompId,
        /// The fired transition.
        transition: TransitionId,
    },
}

/// The per-system compiled schedule, built once at construction.
#[derive(Debug, Clone)]
pub struct CompiledExec {
    /// Feasible ∧ guard-applicable endpoint masks per connector, ascending.
    pub(crate) feasible: Vec<Vec<u32>>,
    /// Connectors watching each component (the connectors it participates
    /// in), ascending.
    pub(crate) watch: Vec<Vec<ConnId>>,
    /// [`CompiledExec::watch`] in map form, for the legacy
    /// `connectors_of_component` API.
    pub(crate) watch_map: HashMap<CompId, Vec<ConnId>>,
    /// Components whose atom type declares at least one internal transition;
    /// all others are skipped entirely by the internal-step scan.
    pub(crate) internal_comps: Vec<CompId>,
    /// `true` at index `c` iff `c` is in `internal_comps`.
    pub(crate) has_internal: Vec<bool>,
}

impl CompiledExec {
    pub(crate) fn build(
        connectors: &[Connector],
        resolved: &[Vec<(CompId, crate::atom::PortId, bool)>],
        num_components: usize,
        has_internal_type: impl Fn(CompId) -> bool,
    ) -> Result<CompiledExec, ModelError> {
        let mut feasible = Vec::with_capacity(connectors.len());
        let mut watch: Vec<Vec<ConnId>> = vec![Vec::new(); num_components];
        for (ci, conn) in connectors.iter().enumerate() {
            // Only pure rendezvous can be arbitrarily wide: its single
            // feasible interaction is the full endpoint set, no enumeration.
            // Broadcast typing enumerates subsets, which the bitmask
            // representation (and tractability) caps — note `>=`: at exactly
            // 32 ports the 1<<n in the enumeration would already overflow.
            if !conn.is_rendezvous() && conn.ports.len() >= MAX_CONNECTOR_PORTS {
                return Err(ModelError::ConnectorTooWide {
                    connector: conn.name.clone(),
                    ports: conn.ports.len(),
                    limit: MAX_CONNECTOR_PORTS - 1,
                });
            }
            if conn.ports.len() > MAX_CONNECTOR_PORTS {
                feasible.push(vec![FULL_MASK]);
            } else {
                let masks: Vec<u32> = conn
                    .feasible_subsets()
                    .into_iter()
                    .filter(|subset| conn.guard_applies(subset))
                    .map(|subset| subset.iter().fold(0u32, |m, &i| m | (1 << i)))
                    .collect();
                debug_assert!(masks.windows(2).all(|w| w[0] < w[1]), "masks must ascend");
                feasible.push(masks);
            }
            for &(comp, _, _) in &resolved[ci] {
                watch[comp].push(ConnId(ci as u32));
            }
        }
        let watch_map = watch
            .iter()
            .enumerate()
            .map(|(c, w)| (c, w.clone()))
            .collect::<HashMap<_, _>>();
        let internal_comps: Vec<CompId> = (0..num_components)
            .filter(|&c| has_internal_type(c))
            .collect();
        let mut has_internal = vec![false; num_components];
        for &c in &internal_comps {
            has_internal[c] = true;
        }
        Ok(CompiledExec {
            feasible,
            watch,
            watch_map,
            internal_comps,
            has_internal,
        })
    }

    /// Feasible endpoint masks of a connector (ascending).
    pub fn feasible_masks(&self, conn: ConnId) -> &[u32] {
        &self.feasible[conn.0 as usize]
    }

    /// Connectors whose enabledness depends on `comp` (ascending).
    pub fn watchers(&self, comp: CompId) -> &[ConnId] {
        &self.watch[comp]
    }
}

/// Reusable scratch buffer holding the enabled steps of one state, with
/// incremental dirty tracking.
///
/// Create with [`System::new_enabled_set`]; bring up to date with
/// [`System::refresh_enabled`]; consume with [`System::for_each_enabled`];
/// advance with [`System::fire_enabled`]. All buffers retain their capacity
/// across steps, so a warmed-up execution loop performs no allocation.
///
/// An `EnabledSet` caches facts about one specific [`State`]. If the state
/// is mutated outside [`System::fire_enabled`] (direct writes,
/// [`System::set_var`], a fresh state), call [`EnabledSet::invalidate_all`]
/// before the next refresh.
#[derive(Debug, Clone)]
pub struct EnabledSet {
    /// Enabled endpoint masks per connector, ascending.
    pub(crate) per_conn: Vec<Vec<u32>>,
    /// Offered-endpoint bitmask per connector (bit `i` = endpoint `i`'s
    /// port is offered), recorded by the refresh that computed
    /// `per_conn`. Valid for connectors of ≤ [`MAX_CONNECTOR_PORTS`]
    /// endpoints; wider ones leave it 0.
    pub(crate) offered: Vec<u32>,
    /// Enabled internal transitions per component (empty for components
    /// whose type has none).
    pub(crate) internal: Vec<Vec<TransitionId>>,
    conn_dirty: Vec<bool>,
    comp_dirty: Vec<bool>,
    conn_queue: Vec<u32>,
    comp_queue: Vec<u32>,
    /// Total enabled interactions (pre-priority).
    interactions: usize,
    /// Total enabled internal transitions.
    internals: usize,
    /// Scratch for per-participant enabled-transition candidates.
    trans_scratch: Vec<TransitionId>,
}

impl EnabledSet {
    pub(crate) fn new(num_connectors: usize, num_components: usize) -> EnabledSet {
        let mut es = EnabledSet {
            per_conn: vec![Vec::new(); num_connectors],
            offered: vec![0; num_connectors],
            internal: vec![Vec::new(); num_components],
            conn_dirty: vec![false; num_connectors],
            comp_dirty: vec![false; num_components],
            conn_queue: Vec::with_capacity(num_connectors),
            comp_queue: Vec::with_capacity(num_components),
            interactions: 0,
            internals: 0,
            trans_scratch: Vec::new(),
        };
        es.invalidate_all();
        es
    }

    /// Mark everything dirty (the cached state is no longer trusted).
    pub fn invalidate_all(&mut self) {
        self.conn_queue.clear();
        self.comp_queue.clear();
        for ci in 0..self.per_conn.len() {
            self.conn_dirty[ci] = true;
            self.conn_queue.push(ci as u32);
        }
        for c in 0..self.internal.len() {
            self.comp_dirty[c] = true;
            self.comp_queue.push(c as u32);
        }
    }

    /// Mark one component (and every connector watching it) dirty.
    pub fn invalidate_component(&mut self, sys: &System, comp: CompId) {
        if !self.comp_dirty[comp] {
            self.comp_dirty[comp] = true;
            self.comp_queue.push(comp as u32);
        }
        for &conn in sys.compiled().watchers(comp) {
            let ci = conn.0 as usize;
            if !self.conn_dirty[ci] {
                self.conn_dirty[ci] = true;
                self.conn_queue.push(conn.0);
            }
        }
    }

    /// `true` while some connector or component awaits re-evaluation.
    pub fn is_dirty(&self) -> bool {
        !self.conn_queue.is_empty() || !self.comp_queue.is_empty()
    }

    /// Enabled interactions (pre-priority) currently cached.
    pub fn num_interactions(&self) -> usize {
        self.interactions
    }

    /// Enabled internal transitions currently cached.
    pub fn num_internal(&self) -> usize {
        self.internals
    }

    /// `true` if nothing at all is enabled (deadlock), post-refresh.
    pub fn is_deadlocked(&self) -> bool {
        debug_assert!(!self.is_dirty(), "refresh before querying an EnabledSet");
        self.interactions == 0 && self.internals == 0
    }

    /// Enabled masks of one connector (ascending), post-refresh.
    pub fn masks(&self, conn: ConnId) -> &[u32] {
        &self.per_conn[conn.0 as usize]
    }

    /// `true` if `conn` has some enabled interaction other than `except`.
    pub(crate) fn other_enabled(&self, conn: ConnId, except: InteractionRef) -> bool {
        let masks = &self.per_conn[conn.0 as usize];
        if conn != except.connector {
            !masks.is_empty()
        } else {
            masks.iter().any(|&m| m != except.mask)
        }
    }

    /// `true` if `conn` has an enabled strict superset of `mask`.
    pub(crate) fn superset_enabled(&self, conn: ConnId, mask: u32) -> bool {
        self.per_conn[conn.0 as usize]
            .iter()
            .any(|&m| m != mask && m & mask == mask)
    }
}

/// Reusable buffers for [`System::for_each_successor`]: the successor
/// state scratch plus the flattened local-transition choice lists of the
/// interaction being expanded. One instance per exploring worker; a warmed
/// scratch makes successor enumeration allocation-free.
pub struct SuccScratch {
    /// Successor state, overwritten per callback.
    next: State,
    /// Chosen `(component, transition)` pairs of the current combination.
    combo: Vec<(CompId, TransitionId)>,
    /// Flattened per-participant enabled-transition lists.
    pool: Vec<TransitionId>,
    /// Per participant: `(component, pool start, pool end)`.
    choices: Vec<(CompId, u32, u32)>,
    /// Odometer over `choices`.
    idx: Vec<u32>,
}

/// A borrowed successor-step descriptor handed out by
/// [`System::for_each_successor`]; call [`SuccStep::to_step`] to
/// materialize an owned [`Step`] when recording a trace.
#[derive(Debug, Clone, Copy)]
pub enum SuccStep<'a> {
    /// A connector interaction with the chosen local transitions.
    Interaction {
        /// The fired interaction in compiled form.
        iref: InteractionRef,
        /// Chosen local transition per participant, endpoint order.
        transitions: &'a [(CompId, TransitionId)],
    },
    /// An internal step of one component.
    Internal {
        /// The stepping component.
        component: CompId,
        /// The fired transition.
        transition: TransitionId,
    },
}

impl SuccStep<'_> {
    /// Materialize the owned legacy [`Step`] form (allocates).
    pub fn to_step(&self, sys: &System) -> Step {
        match self {
            SuccStep::Interaction { iref, transitions } => Step::Interaction {
                interaction: sys.resolve_ref(*iref),
                transitions: transitions.to_vec(),
            },
            SuccStep::Internal {
                component,
                transition,
            } => Step::Internal {
                component: *component,
                transition: *transition,
            },
        }
    }
}

impl System {
    /// The compiled schedule: feasible masks and watch lists.
    pub fn compiled(&self) -> &CompiledExec {
        &self.compiled
    }

    /// Number of endpoints of a connector.
    pub fn conn_arity(&self, conn: ConnId) -> usize {
        self.resolved[conn.0 as usize].len()
    }

    /// Materialize a compiled interaction in legacy (endpoint-vector) form.
    pub fn resolve_ref(&self, ir: InteractionRef) -> Interaction {
        ir.resolve(self.conn_arity(ir.connector))
    }

    /// `true` if `comp` *offers* `port` in `st`: some transition labelled
    /// by the port leaves the current location with its guard holding.
    /// The single definition of port-offeredness shared by the enabled-set
    /// refresh and the partial-order-reduction selector (which must agree
    /// on it for the reduction's soundness argument).
    #[inline]
    pub fn port_offered(&self, st: &State, comp: CompId, port: crate::atom::PortId) -> bool {
        self.atom_type(comp).port_enabled(
            crate::atom::LocId(st.locs[comp]),
            port,
            self.comp_vars(st, comp),
        )
    }

    /// Fresh scratch buffer for the enabled-set protocol (fully dirty; the
    /// first [`System::refresh_enabled`] populates it).
    pub fn new_enabled_set(&self) -> EnabledSet {
        EnabledSet::new(self.connectors.len(), self.num_components())
    }

    /// Bring `es` up to date with `st`, re-evaluating only what was marked
    /// dirty since the last refresh.
    pub fn refresh_enabled(&self, st: &State, es: &mut EnabledSet) {
        while let Some(ci) = es.conn_queue.pop() {
            let ci = ci as usize;
            es.conn_dirty[ci] = false;
            es.interactions -= es.per_conn[ci].len();
            let mut buf = std::mem::take(&mut es.per_conn[ci]);
            es.offered[ci] = self.refresh_connector_into(st, ci, &mut buf);
            es.per_conn[ci] = buf;
            es.interactions += es.per_conn[ci].len();
        }
        while let Some(c) = es.comp_queue.pop() {
            let c = c as usize;
            es.comp_dirty[c] = false;
            es.internals -= es.internal[c].len();
            es.internal[c].clear();
            if self.compiled.has_internal[c] {
                let ty = self.atom_type(c);
                let loc = crate::atom::LocId(st.locs[c]);
                let vars = self.comp_vars(st, c);
                for &tid in ty.transitions_from(loc) {
                    let t = ty.transition(tid);
                    if t.port.is_none() && t.guard.eval_local(vars) != 0 {
                        es.internal[c].push(tid);
                    }
                }
            }
            es.internals += es.internal[c].len();
        }
    }

    /// Recompute the enabled masks of connector `ci` in `st` into `out`,
    /// returning the offered-endpoint bitmask (0 for connectors wider than
    /// [`MAX_CONNECTOR_PORTS`], which do not build one).
    pub(crate) fn refresh_connector_into(&self, st: &State, ci: usize, out: &mut Vec<u32>) -> u32 {
        out.clear();
        let eps = &self.resolved[ci];
        let conn = &self.connectors[ci];
        let offered_at = |i: usize| {
            let (comp, port, _) = eps[i];
            self.port_offered(st, comp, port)
        };
        let guard_holds = || {
            conn.guard.eval_bool(&[], &|k, v| {
                let (comp, _, _) = eps[k as usize];
                self.var_value(st, comp, v)
            })
        };
        if eps.len() > MAX_CONNECTOR_PORTS {
            // Wide rendezvous: the single feasible interaction is the full
            // endpoint set.
            if (0..eps.len()).all(offered_at) && guard_holds() {
                out.push(FULL_MASK);
            }
            return 0;
        }
        // Offered-endpoint bitmask for this state.
        let mut offered = 0u32;
        for i in 0..eps.len() {
            if offered_at(i) {
                offered |= 1 << i;
            }
        }
        if offered == 0 {
            return 0;
        }
        // The guard reads endpoint variables, not the mask (compilation
        // already dropped masks the guard cannot apply to), so evaluate it
        // once per refresh, lazily.
        let mut guard_cache: Option<bool> = None;
        for &mask in &self.compiled.feasible[ci] {
            if mask & offered == mask && *guard_cache.get_or_insert_with(guard_holds) {
                out.push(mask);
            }
        }
        offered
    }

    /// Visit every enabled step of `st`: priority-surviving interactions
    /// (connectors ascending, masks ascending), then internal steps
    /// (components ascending). `es` must be refreshed for `st`.
    pub fn for_each_enabled<F>(&self, st: &State, es: &EnabledSet, mut f: F)
    where
        F: FnMut(EnabledStep),
    {
        debug_assert!(!es.is_dirty(), "refresh_enabled before for_each_enabled");
        let filtering = !self.priority.is_empty();
        for ci in 0..self.connectors.len() {
            let conn = ConnId(ci as u32);
            for &mask in &es.per_conn[ci] {
                let ir = InteractionRef {
                    connector: conn,
                    mask,
                };
                if filtering && self.priority.dominated_compiled(self, st, ir, es) {
                    continue;
                }
                f(EnabledStep::Interaction(ir));
            }
        }
        for &c in &self.compiled.internal_comps {
            for &tid in &es.internal[c] {
                f(EnabledStep::Internal {
                    component: c,
                    transition: tid,
                });
            }
        }
    }

    /// Fire `step` in `st` (in place), marking exactly the affected
    /// components and their watching connectors dirty in `es`, and writing
    /// the chosen `(component, transition)` pairs into `transitions` — the
    /// allocation-free firing primitive (all buffers are caller-owned or
    /// part of `es`).
    ///
    /// `choose_local` resolves local nondeterminism: given a participant and
    /// its enabled transitions for the connector port (never empty, often a
    /// single candidate), it returns the index of the transition to fire.
    pub fn fire_into<F>(
        &self,
        st: &mut State,
        es: &mut EnabledSet,
        step: EnabledStep,
        mut choose_local: F,
        transitions: &mut Vec<(CompId, TransitionId)>,
    ) where
        F: FnMut(&System, CompId, &[TransitionId]) -> usize,
    {
        transitions.clear();
        match step {
            EnabledStep::Internal {
                component,
                transition,
            } => {
                self.fire_local(st, component, transition);
                transitions.push((component, transition));
                es.invalidate_component(self, component);
            }
            EnabledStep::Interaction(ir) => {
                let eps = &self.resolved[ir.connector.0 as usize];
                let mut scratch = std::mem::take(&mut es.trans_scratch);
                for i in ir.endpoints(eps.len()) {
                    let (comp, port, _) = eps[i];
                    let ty = self.atom_type(comp);
                    scratch.clear();
                    let vars = self.comp_vars(st, comp);
                    for &tid in ty.transitions_from(crate::atom::LocId(st.locs[comp])) {
                        let t = ty.transition(tid);
                        if t.port == Some(port) && t.guard.eval_local(vars) != 0 {
                            scratch.push(tid);
                        }
                    }
                    debug_assert!(!scratch.is_empty(), "interaction fired while not enabled");
                    let k = if scratch.len() == 1 {
                        0
                    } else {
                        choose_local(self, comp, &scratch).min(scratch.len() - 1)
                    };
                    transitions.push((comp, scratch[k]));
                }
                es.trans_scratch = scratch;
                self.fire_interaction_masked(st, ir.connector, ir.mask, transitions);
                for &(comp, _) in transitions.iter() {
                    es.invalidate_component(self, comp);
                }
            }
        }
    }

    /// [`System::fire_into`], returning the fired step in legacy [`Step`]
    /// form (for traces, monitors, and counterexample printing).
    pub fn fire_enabled<F>(
        &self,
        st: &mut State,
        es: &mut EnabledSet,
        step: EnabledStep,
        choose_local: F,
    ) -> Step
    where
        F: FnMut(&System, CompId, &[TransitionId]) -> usize,
    {
        let mut transitions = Vec::new();
        self.fire_into(st, es, step, choose_local, &mut transitions);
        match step {
            EnabledStep::Internal {
                component,
                transition,
            } => Step::Internal {
                component,
                transition,
            },
            EnabledStep::Interaction(ir) => Step::Interaction {
                interaction: self.resolve_ref(ir),
                transitions,
            },
        }
    }

    /// Materialize the successor of one enabled step, resolving local
    /// nondeterminism with the first enabled transition per participant —
    /// the bridge from compiled [`EnabledStep`]s to the legacy
    /// `(Step, State)` shape (allocates; hot paths use
    /// [`System::fire_into`] instead).
    pub fn materialize(&self, st: &State, step: EnabledStep) -> (Step, State) {
        match step {
            EnabledStep::Internal {
                component,
                transition,
            } => {
                let mut next = st.clone();
                self.fire_local(&mut next, component, transition);
                (
                    Step::Internal {
                        component,
                        transition,
                    },
                    next,
                )
            }
            EnabledStep::Interaction(ir) => {
                let eps = &self.resolved[ir.connector.0 as usize];
                let mut transitions: Vec<(CompId, TransitionId)> =
                    Vec::with_capacity(ir.participants(eps.len()));
                for i in ir.endpoints(eps.len()) {
                    let (comp, port, _) = eps[i];
                    let ty = self.atom_type(comp);
                    let vars = self.comp_vars(st, comp);
                    let tid = ty
                        .transitions_from(crate::atom::LocId(st.locs[comp]))
                        .iter()
                        .copied()
                        .find(|&tid| {
                            let t = ty.transition(tid);
                            t.port == Some(port) && t.guard.eval_local(vars) != 0
                        })
                        .expect("interaction materialized while not enabled");
                    transitions.push((comp, tid));
                }
                let mut next = st.clone();
                self.fire_interaction_masked(&mut next, ir.connector, ir.mask, &transitions);
                (
                    Step::Interaction {
                        interaction: self.resolve_ref(ir),
                        transitions,
                    },
                    next,
                )
            }
        }
    }

    /// Fresh scratch for [`System::for_each_successor`].
    pub fn new_succ_scratch(&self) -> SuccScratch {
        SuccScratch {
            next: self.initial_state(),
            combo: Vec::new(),
            pool: Vec::new(),
            choices: Vec::new(),
            idx: Vec::new(),
        }
    }

    /// Visit every semantic step from `st` with its successor state,
    /// without allocating: the successor lives in `scratch` and is
    /// overwritten between callbacks, and the step is a borrowed
    /// [`SuccStep`] descriptor (materialize it with [`SuccStep::to_step`]
    /// only when a trace needs it).
    ///
    /// Successors are visited in exactly the order
    /// [`System::successors_into`] produces them: connectors ascending,
    /// masks ascending, local-transition combinations with the first
    /// participant varying fastest, then internal steps. `es` is refreshed
    /// for `st` as a side effect (callers exploring arbitrary states should
    /// `invalidate_all` first).
    pub fn for_each_successor<F>(
        &self,
        st: &State,
        es: &mut EnabledSet,
        scratch: &mut SuccScratch,
        mut f: F,
    ) where
        F: FnMut(SuccStep<'_>, &State),
    {
        self.refresh_enabled(st, es);
        let filtering = !self.priority.is_empty();
        for ci in 0..self.connectors.len() {
            let conn = ConnId(ci as u32);
            let arity = self.resolved[ci].len();
            for mi in 0..es.per_conn[ci].len() {
                let mask = es.per_conn[ci][mi];
                let ir = InteractionRef {
                    connector: conn,
                    mask,
                };
                if filtering && self.priority.dominated_compiled(self, st, ir, es) {
                    continue;
                }
                self.expand_interaction_compiled(st, ir, arity, scratch, &mut f);
            }
        }
        for &c in &self.compiled.internal_comps {
            for &tid in &es.internal[c] {
                scratch.next.clone_from(st);
                self.fire_local(&mut scratch.next, c, tid);
                f(
                    SuccStep::Internal {
                        component: c,
                        transition: tid,
                    },
                    &scratch.next,
                );
            }
        }
    }

    /// Visit every successor of one enabled step of `st` — the per-step
    /// slice of [`System::for_each_successor`], in the same order (an
    /// interaction enumerates its local-transition combinations, first
    /// participant varying fastest; an internal step has one successor).
    ///
    /// `step` must be enabled in `st`; callers select it from a refreshed
    /// [`EnabledSet`] (the partial-order-reduced explorer fires exactly its
    /// ample subset this way).
    pub fn for_each_step_successor<F>(
        &self,
        st: &State,
        scratch: &mut SuccScratch,
        step: EnabledStep,
        mut f: F,
    ) where
        F: FnMut(SuccStep<'_>, &State),
    {
        match step {
            EnabledStep::Interaction(ir) => {
                let arity = self.resolved[ir.connector.0 as usize].len();
                self.expand_interaction_compiled(st, ir, arity, scratch, &mut f);
            }
            EnabledStep::Internal {
                component,
                transition,
            } => {
                scratch.next.clone_from(st);
                self.fire_local(&mut scratch.next, component, transition);
                f(
                    SuccStep::Internal {
                        component,
                        transition,
                    },
                    &scratch.next,
                );
            }
        }
    }

    /// Enumerate the local-transition combinations of one enabled
    /// interaction and hand each successor to `f`.
    fn expand_interaction_compiled<F>(
        &self,
        st: &State,
        ir: InteractionRef,
        arity: usize,
        scratch: &mut SuccScratch,
        f: &mut F,
    ) where
        F: FnMut(SuccStep<'_>, &State),
    {
        let ci = ir.connector.0 as usize;
        // Per participant, the enabled local transitions for the
        // connector port, flattened into the pooled buffer.
        scratch.pool.clear();
        scratch.choices.clear();
        for i in mask_endpoints(ir.mask, arity) {
            let (comp, port, _) = self.resolved[ci][i];
            let ty = self.atom_type(comp);
            let vars = self.comp_vars(st, comp);
            let start = scratch.pool.len() as u32;
            for &tid in ty.transitions_from(crate::atom::LocId(st.locs[comp])) {
                let t = ty.transition(tid);
                if t.port == Some(port) && t.guard.eval_local(vars) != 0 {
                    scratch.pool.push(tid);
                }
            }
            debug_assert!(
                scratch.pool.len() as u32 > start,
                "enabled interaction without a local transition"
            );
            scratch
                .choices
                .push((comp, start, scratch.pool.len() as u32));
        }
        // Cartesian product over the choices (the odometer of
        // `expand_interaction`, first participant fastest).
        scratch.idx.clear();
        scratch.idx.resize(scratch.choices.len(), 0);
        'combos: loop {
            scratch.combo.clear();
            for (k, &(comp, lo, _)) in scratch.choices.iter().enumerate() {
                scratch
                    .combo
                    .push((comp, scratch.pool[(lo + scratch.idx[k]) as usize]));
            }
            scratch.next.clone_from(st);
            self.fire_interaction_masked(&mut scratch.next, ir.connector, ir.mask, &scratch.combo);
            f(
                SuccStep::Interaction {
                    iref: ir,
                    transitions: &scratch.combo,
                },
                &scratch.next,
            );
            let mut k = 0;
            loop {
                if k == scratch.idx.len() {
                    break 'combos;
                }
                scratch.idx[k] += 1;
                if scratch.idx[k] < scratch.choices[k].2 - scratch.choices[k].1 {
                    break;
                }
                scratch.idx[k] = 0;
                k += 1;
            }
        }
    }

    /// All semantic steps from `st` with successor states, written into
    /// `out` — the buffer-reusing form of [`System::successors`] used by the
    /// model checker. `es` is refreshed for `st` as a side effect (callers
    /// exploring arbitrary states should `invalidate_all` first; callers
    /// walking a trajectory can rely on [`System::fire_enabled`]'s precise
    /// dirtying).
    pub fn successors_into(&self, st: &State, es: &mut EnabledSet, out: &mut Vec<(Step, State)>) {
        out.clear();
        self.refresh_enabled(st, es);
        let filtering = !self.priority.is_empty();
        for ci in 0..self.connectors.len() {
            let conn = ConnId(ci as u32);
            for &mask in &es.per_conn[ci] {
                let ir = InteractionRef {
                    connector: conn,
                    mask,
                };
                if filtering && self.priority.dominated_compiled(self, st, ir, es) {
                    continue;
                }
                self.expand_interaction(st, &self.resolve_ref(ir), out);
            }
        }
        for &c in &self.compiled.internal_comps {
            for &tid in &es.internal[c] {
                let mut next = st.clone();
                self.fire_local(&mut next, c, tid);
                out.push((
                    Step::Internal {
                        component: c,
                        transition: tid,
                    },
                    next,
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::AtomBuilder;
    use crate::builder::{dining_philosophers, SystemBuilder};
    use crate::connector::ConnectorBuilder;

    /// The enabled-set protocol agrees with the legacy enumeration after
    /// every step of a guided walk.
    #[test]
    fn incremental_matches_legacy_along_walk() {
        let sys = dining_philosophers(5, false).unwrap();
        let mut st = sys.initial_state();
        let mut es = sys.new_enabled_set();
        for round in 0..200 {
            sys.refresh_enabled(&st, &mut es);
            let mut compiled: Vec<Interaction> = Vec::new();
            sys.for_each_enabled(&st, &es, |s| {
                if let EnabledStep::Interaction(ir) = s {
                    compiled.push(sys.resolve_ref(ir));
                }
            });
            let legacy = sys.enabled(&st);
            assert_eq!(compiled, legacy, "divergence at round {round}");
            if compiled.is_empty() {
                break;
            }
            // Deterministically pick an interaction, rotate by round.
            let pick = compiled[round % compiled.len()].clone();
            let ir = InteractionRef::of(&pick, sys.conn_arity(pick.connector));
            sys.fire_enabled(&mut st, &mut es, EnabledStep::Interaction(ir), |_, _, _| 0);
        }
    }

    #[test]
    fn interaction_ref_roundtrip() {
        let i = Interaction {
            connector: ConnId(3),
            endpoints: vec![0, 2, 5],
        };
        let r = InteractionRef::of(&i, 8);
        assert_eq!(r.mask, 0b100101);
        assert_eq!(r.participants(8), 3);
        assert_eq!(r.resolve(8), i);
        // Wide (rendezvous) connectors use the sentinel full mask.
        let full = Interaction {
            connector: ConnId(0),
            endpoints: (0..40).collect(),
        };
        let rf = InteractionRef::of(&full, 40);
        assert_eq!(rf.mask, FULL_MASK);
        assert_eq!(rf.participants(40), 40);
        assert_eq!(rf.resolve(40), full);
    }

    #[test]
    fn watch_lists_cover_participants() {
        let sys = dining_philosophers(3, false).unwrap();
        for ci in 0..sys.num_connectors() {
            for (comp, _) in sys.connector_endpoints(ConnId(ci as u32)) {
                assert!(
                    sys.compiled().watchers(comp).contains(&ConnId(ci as u32)),
                    "component {comp} must watch connector {ci}"
                );
            }
        }
    }

    #[test]
    fn dirty_tracking_is_precise() {
        // Two disjoint ping-pong pairs: firing pair A must not dirty pair B.
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
        let c = sb.add_instance("c", &ping);
        let d = sb.add_instance("d", &ping);
        sb.add_connector(ConnectorBuilder::rendezvous("ab", [(a, "hit"), (b, "hit")]));
        sb.add_connector(ConnectorBuilder::rendezvous("cd", [(c, "hit"), (d, "hit")]));
        let sys = sb.build().unwrap();
        let mut st = sys.initial_state();
        let mut es = sys.new_enabled_set();
        sys.refresh_enabled(&st, &mut es);
        let step = EnabledStep::Interaction(InteractionRef {
            connector: ConnId(0),
            mask: 0b11,
        });
        sys.fire_enabled(&mut st, &mut es, step, |_, _, _| 0);
        // Only connector 0 (watching a, b) is dirty; connector 1 untouched.
        assert!(es.conn_dirty[0]);
        assert!(!es.conn_dirty[1]);
        assert!(es.comp_dirty[a] && es.comp_dirty[b]);
        assert!(!es.comp_dirty[c] && !es.comp_dirty[d]);
    }

    #[test]
    fn successors_into_matches_successors() {
        let sys = dining_philosophers(4, true).unwrap();
        let mut es = sys.new_enabled_set();
        let mut out = Vec::new();
        let mut frontier = vec![sys.initial_state()];
        for _ in 0..3 {
            let mut next_frontier = Vec::new();
            for st in &frontier {
                es.invalidate_all();
                sys.successors_into(st, &mut es, &mut out);
                assert_eq!(out, sys.successors(st));
                next_frontier.extend(out.drain(..).map(|(_, s)| s));
            }
            frontier = next_frontier;
        }
    }

    /// The allocation-free enumeration yields exactly the successor list of
    /// `successors_into` — same steps, same states, same order (the order
    /// the model checker's deterministic replay relies on).
    #[test]
    fn for_each_successor_matches_successors_into() {
        for (n, two_phase) in [(3usize, false), (4, true)] {
            let sys = dining_philosophers(n, two_phase).unwrap();
            let mut es = sys.new_enabled_set();
            let mut scratch = sys.new_succ_scratch();
            let mut out = Vec::new();
            let mut frontier = vec![sys.initial_state()];
            for _ in 0..3 {
                let mut next_frontier = Vec::new();
                for st in &frontier {
                    es.invalidate_all();
                    sys.successors_into(st, &mut es, &mut out);
                    let mut streamed: Vec<(Step, State)> = Vec::new();
                    es.invalidate_all();
                    sys.for_each_successor(st, &mut es, &mut scratch, |s, next| {
                        streamed.push((s.to_step(&sys), next.clone()));
                    });
                    assert_eq!(out, streamed);
                    next_frontier.extend(out.drain(..).map(|(_, s)| s));
                }
                frontier = next_frontier;
            }
        }
    }

    #[test]
    fn wide_rendezvous_supported_wide_broadcast_rejected() {
        let p = AtomBuilder::new("p")
            .port("h")
            .location("l")
            .location("m")
            .initial("l")
            .transition("l", "h", "m")
            .build()
            .unwrap();
        // 40-party rendezvous: fine (single feasible interaction).
        let mut sb = SystemBuilder::new();
        let ids: Vec<usize> = (0..40)
            .map(|i| sb.add_instance(format!("p{i}"), &p))
            .collect();
        sb.add_connector(ConnectorBuilder::rendezvous(
            "wide",
            ids.iter().map(|&i| (i, "h")).collect::<Vec<_>>(),
        ));
        let sys = sb.build().unwrap();
        let mut st = sys.initial_state();
        let en = sys.enabled(&st);
        assert_eq!(en.len(), 1);
        assert_eq!(en[0].endpoints.len(), 40);
        let step = sys.step(&mut st, |_| 0).unwrap();
        assert!(matches!(step, Step::Interaction { .. }));
        assert!(st.locs.iter().all(|&l| l == 1), "every participant moved");
        assert!(sys.enabled(&st).is_empty(), "one-shot: all in m now");

        // Broadcasts need subset enumeration: rejected from exactly 32
        // ports up (1 << 32 would overflow the mask enumeration).
        for ports in [32usize, 33] {
            let mut sb = SystemBuilder::new();
            let ids: Vec<usize> = (0..ports)
                .map(|i| sb.add_instance(format!("p{i}"), &p))
                .collect();
            sb.add_connector(ConnectorBuilder::broadcast(
                "cast",
                (ids[0], "h"),
                ids[1..].iter().map(|&i| (i, "h")).collect::<Vec<_>>(),
            ));
            assert!(
                matches!(sb.build(), Err(ModelError::ConnectorTooWide { .. })),
                "{ports}-port broadcast must be rejected"
            );
        }
    }
}
