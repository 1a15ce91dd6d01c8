//! Compiled execution: the allocation-free enabled-set protocol.
//!
//! `System::from_parts` compiles, once, everything about interaction
//! enabledness that does not depend on the state:
//!
//! * per connector, the **feasible endpoint masks** — the subsets allowed by
//!   the trigger/synchron typing *and* by guard applicability (a guard that
//!   reads endpoint `k` rules out subsets without `k`), as `u32` bitmasks in
//!   ascending order, stored flat, and whether its guard is a nonzero
//!   constant;
//! * per component, the **watch list** — the connectors whose enabledness
//!   can change when that component moves (exactly the connectors it
//!   participates in, since connector guards only read participant
//!   variables);
//! * which components can ever take internal (silent) steps.
//!
//! Each [`crate::AtomType`] adds its **port-offer tables**, built with the
//! type: per location, the word of ports offered by a transition whose
//! guard is a nonzero constant, the word of ports with a guard to
//! evaluate, and per (location, port) that port's transitions in declared
//! order (constant-false guards dropped).
//!
//! At run time an [`EnabledSet`] scratch buffer holds, per component, its
//! **offered-port word** and enabled internal transitions, and per
//! connector, the currently enabled masks and the offered-endpoint mask.
//! [`System::refresh_enabled`] brings it up to date with one kernel per
//! component and one per connector:
//!
//! * a component's kernel reads its offered-port word off the tables,
//!   evaluating only ports with a guard and no constant-true alternative;
//! * a connector's kernel tests one bit of its endpoints' words per
//!   endpoint, keeps the feasible masks inside the offered set, and
//!   evaluates its guard at most once — never when it is constant-true.
//!
//! Two drivers run those kernels. After [`EnabledSet::invalidate_all`]
//! (every state of a breadth-first search) the refresh is one straight
//! pass over all components, then all connectors. After firing a step,
//! only the components that moved and the connectors watching them are
//! queued, and the refresh re-evaluates those — components first, since
//! connectors read their words. The hot loop allocates nothing once the
//! buffers have warmed up.
//!
//! Two shapes fall back to scanning a location's transitions: ports
//! numbered 64 and up, which have no bit in the offer words, and
//! rendezvous wider than [`MAX_CONNECTOR_PORTS`], which record no
//! offered-endpoint mask. Successor expansion draws each participant's
//! candidate transitions from the same (location, port) lists.
//!
//! The legacy [`System::enabled`] / [`System::successors`] APIs are thin
//! wrappers over this machinery, so both protocols always agree.

use std::collections::HashMap;

use crate::atom::{LocId, PortId, TransitionId, TABLE_PORTS};
use crate::connector::{ConnId, Connector};
use crate::data::Expr;
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

/// Where one connector's feasible masks live in [`CompiledExec`]'s flat
/// table, and whether its guard must be evaluated.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ConnPlan {
    /// First feasible mask in [`CompiledExec::feasible`].
    feas: u32,
    /// Number of feasible masks.
    nfeas: u32,
    /// The connector's guard is a nonzero constant (never evaluated).
    guard_true: bool,
    /// Every endpoint's port is below [`TABLE_PORTS`]: the offered
    /// endpoints are read off the components' offer words alone.
    tabled: bool,
}

/// The per-system compiled schedule, built once at construction.
#[derive(Debug, Clone)]
pub struct CompiledExec {
    /// Per connector, its slice of `feasible` and its guard flag.
    pub(crate) plans: Vec<ConnPlan>,
    /// Feasible ∧ guard-applicable endpoint masks, connector-major,
    /// ascending within a connector.
    pub(crate) feasible: Vec<u32>,
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
        resolved: &[Vec<(CompId, PortId, bool)>],
        num_components: usize,
        has_internal_type: impl Fn(CompId) -> bool,
    ) -> Result<CompiledExec, ModelError> {
        let mut plans = Vec::with_capacity(connectors.len());
        let mut feasible = Vec::new();
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
            let feas = feasible.len() as u32;
            if conn.ports.len() > MAX_CONNECTOR_PORTS {
                feasible.push(FULL_MASK);
            } else {
                feasible.extend(
                    conn.feasible_subsets()
                        .into_iter()
                        .filter(|subset| conn.guard_applies(subset))
                        .map(|subset| subset.iter().fold(0u32, |m, &i| m | (1 << i))),
                );
                debug_assert!(
                    feasible[feas as usize..].windows(2).all(|w| w[0] < w[1]),
                    "masks must ascend"
                );
            }
            for &(comp, _, _) in &resolved[ci] {
                watch[comp].push(ConnId(ci as u32));
            }
            plans.push(ConnPlan {
                feas,
                nfeas: feasible.len() as u32 - feas,
                guard_true: matches!(conn.guard, Expr::Const(v) if v != 0),
                tabled: resolved[ci]
                    .iter()
                    .all(|&(_, port, _)| (port.0 as usize) < TABLE_PORTS),
            });
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
            plans,
            feasible,
            watch,
            watch_map,
            internal_comps,
            has_internal,
        })
    }

    /// Feasible endpoint masks of a connector (ascending).
    pub fn feasible_masks(&self, conn: ConnId) -> &[u32] {
        let p = self.plans[conn.0 as usize];
        &self.feasible[p.feas as usize..(p.feas + p.nfeas) as usize]
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
    /// Enabled endpoint masks, connector-major: connector `ci`'s are
    /// `masks[slots[ci].0..][..slots[ci].1]`, ascending. Each connector
    /// owns as many slots as it has feasible masks.
    masks: Vec<u32>,
    /// Per connector: first slot in `masks`, enabled-mask count.
    slots: Vec<(u32, u32)>,
    /// Offered-endpoint bitmask per connector (bit `i` = endpoint `i`'s
    /// port is offered), recorded by the refresh that computed its
    /// masks. Valid for connectors of ≤ [`MAX_CONNECTOR_PORTS`]
    /// endpoints; wider ones leave it 0.
    pub(crate) offered: Vec<u32>,
    /// Enabled internal transitions per component (empty for components
    /// whose type has none).
    pub(crate) internal: Vec<Vec<TransitionId>>,
    /// Offered-port word per component (bit `p` = port `p` is offered, for
    /// ports below the offer tables' 64-port limit).
    comp_offer: Vec<u64>,
    /// Everything is dirty: the next refresh is one straight pass over all
    /// components and connectors. While set, the queues are empty and no
    /// per-entry dirty flag is set.
    all_dirty: bool,
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
    pub(crate) fn new(compiled: &CompiledExec, num_components: usize) -> EnabledSet {
        let num_connectors = compiled.plans.len();
        EnabledSet {
            masks: vec![0; compiled.feasible.len()],
            slots: compiled.plans.iter().map(|p| (p.feas, 0)).collect(),
            offered: vec![0; num_connectors],
            internal: vec![Vec::new(); num_components],
            comp_offer: vec![0; num_components],
            all_dirty: true,
            conn_dirty: vec![false; num_connectors],
            comp_dirty: vec![false; num_components],
            conn_queue: Vec::with_capacity(num_connectors),
            comp_queue: Vec::with_capacity(num_components),
            interactions: 0,
            internals: 0,
            trans_scratch: Vec::new(),
        }
    }

    /// Mark everything dirty (the cached state is no longer trusted).
    pub fn invalidate_all(&mut self) {
        for ci in self.conn_queue.drain(..) {
            self.conn_dirty[ci as usize] = false;
        }
        for c in self.comp_queue.drain(..) {
            self.comp_dirty[c as usize] = false;
        }
        self.all_dirty = true;
    }

    /// Mark one component (and every connector watching it) dirty.
    pub fn invalidate_component(&mut self, sys: &System, comp: CompId) {
        if self.all_dirty {
            return;
        }
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
        self.all_dirty || !self.conn_queue.is_empty() || !self.comp_queue.is_empty()
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
        let (start, len) = self.slots[conn.0 as usize];
        &self.masks[start as usize..(start + len) as usize]
    }

    /// `true` if `conn` has some enabled interaction other than `except`.
    pub(crate) fn other_enabled(&self, conn: ConnId, except: InteractionRef) -> bool {
        let masks = self.masks(conn);
        if conn != except.connector {
            !masks.is_empty()
        } else {
            masks.iter().any(|&m| m != except.mask)
        }
    }

    /// `true` if `conn` has an enabled strict superset of `mask`.
    pub(crate) fn superset_enabled(&self, conn: ConnId, mask: u32) -> bool {
        self.masks(conn)
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
    /// on it for the reduction's soundness argument): both read it off the
    /// type's port-offer tables, the refresh a whole location's word at a
    /// time.
    #[inline]
    pub fn port_offered(&self, st: &State, comp: CompId, port: PortId) -> bool {
        self.atom_type(comp)
            .port_enabled(LocId(st.locs[comp]), port, self.comp_vars(st, comp))
    }

    /// Fresh scratch buffer for the enabled-set protocol (fully dirty; the
    /// first [`System::refresh_enabled`] populates it).
    pub fn new_enabled_set(&self) -> EnabledSet {
        EnabledSet::new(&self.compiled, self.num_components())
    }

    /// Bring `es` up to date with `st`, re-evaluating only what was marked
    /// dirty since the last refresh.
    ///
    /// Two drivers share one per-component and one per-connector kernel:
    /// after [`EnabledSet::invalidate_all`] a straight pass over every
    /// component, then every connector; otherwise the dirty components,
    /// then the dirty connectors. Components go first because the
    /// connector kernel reads their offered-port words.
    pub fn refresh_enabled(&self, st: &State, es: &mut EnabledSet) {
        if es.all_dirty {
            es.all_dirty = false;
            for c in 0..self.num_components() {
                self.refresh_component(st, c, es);
            }
            let mut interactions = 0;
            let conns = self.compiled.plans.iter().zip(&self.resolved);
            let conns = conns.zip(es.slots.iter_mut().zip(&mut es.offered));
            for (ci, ((&plan, eps), (slot, offered))) in conns.enumerate() {
                let out = &mut es.masks[slot.0 as usize..];
                let (o, n) = self.connector_kernel(st, ci, plan, eps, &es.comp_offer, out);
                (*offered, slot.1) = (o, n as u32);
                interactions += n;
            }
            es.interactions = interactions;
            return;
        }
        while let Some(c) = es.comp_queue.pop() {
            let c = c as usize;
            es.comp_dirty[c] = false;
            self.refresh_component(st, c, es);
        }
        while let Some(ci) = es.conn_queue.pop() {
            let ci = ci as usize;
            es.conn_dirty[ci] = false;
            let out = &mut es.masks[es.slots[ci].0 as usize..];
            let (plan, eps) = (self.compiled.plans[ci], &self.resolved[ci]);
            let (offered, n) = self.connector_kernel(st, ci, plan, eps, &es.comp_offer, out);
            es.offered[ci] = offered;
            es.interactions = es.interactions - es.slots[ci].1 as usize + n;
            es.slots[ci].1 = n as u32;
        }
    }

    /// The per-component kernel: the offered-port word and the enabled
    /// internal transitions of component `c` in `st`.
    #[inline(always)]
    fn refresh_component(&self, st: &State, c: CompId, es: &mut EnabledSet) {
        let loc = LocId(st.locs[c]);
        es.comp_offer[c] = self
            .atom_type(c)
            .offered_ports(loc, || self.comp_vars(st, c));
        if self.compiled.has_internal[c] {
            self.refresh_internal(st, c, es);
        }
    }

    /// The enabled internal transitions of component `c` in `st`.
    #[inline(never)]
    fn refresh_internal(&self, st: &State, c: CompId, es: &mut EnabledSet) {
        let ty = self.atom_type(c);
        let vars = self.comp_vars(st, c);
        es.internals -= es.internal[c].len();
        es.internal[c].clear();
        for &tid in ty.transitions_from(LocId(st.locs[c])) {
            let t = ty.transition(tid);
            if t.port.is_none() && t.guard.eval_local(vars) != 0 {
                es.internal[c].push(tid);
            }
        }
        es.internals += es.internal[c].len();
    }

    /// The per-connector kernel: connector `ci`'s offered-endpoint mask
    /// in `st` (0 for connectors wider than [`MAX_CONNECTOR_PORTS`], which
    /// do not build one), and its enabled masks, written ascending to the
    /// front of `out` and counted. Reads the endpoints' offered-port words
    /// in `comp_offer`, so every participant must have been refreshed for
    /// `st`.
    #[inline(always)]
    fn connector_kernel(
        &self,
        st: &State,
        ci: usize,
        plan: ConnPlan,
        eps: &[(CompId, PortId, bool)],
        comp_offer: &[u64],
        out: &mut [u32],
    ) -> (u32, usize) {
        let feasible = &self.compiled.feasible[plan.feas as usize..][..plan.nfeas as usize];
        let out = &mut out[..feasible.len()];
        let offered_at = |&(comp, port, _): &(CompId, PortId, bool)| {
            if (port.0 as usize) < TABLE_PORTS {
                comp_offer[comp] & (1u64 << port.0) != 0
            } else {
                self.port_offered(st, comp, port)
            }
        };
        if eps.len() > MAX_CONNECTOR_PORTS {
            // Wide rendezvous: the single feasible interaction is the full
            // endpoint set.
            if eps.iter().all(offered_at) && (plan.guard_true || self.connector_guard(st, ci)) {
                out[0] = FULL_MASK;
                return (0, 1);
            }
            return (0, 0);
        }
        let mut offered = 0u32;
        if plan.tabled {
            for (i, &(comp, port, _)) in eps.iter().enumerate() {
                offered |= (((comp_offer[comp] >> port.0) & 1) as u32) << i;
            }
        } else {
            for (i, ep) in eps.iter().enumerate() {
                offered |= u32::from(offered_at(ep)) << i;
            }
        }
        let mut enabled = 0;
        if plan.guard_true {
            // Nothing to evaluate, so keeping a mask is branch-free: write
            // it to the next slot, and advance past it if offered.
            for &mask in feasible {
                out[enabled] = mask;
                enabled += usize::from(mask & offered == mask);
            }
        } else {
            // The guard is evaluated at most once, and only if some feasible
            // mask is offered (it reads endpoint variables, not the mask:
            // compilation already dropped the masks it cannot apply to).
            let mut guard = None;
            for &mask in feasible {
                if mask & offered == mask
                    && *guard.get_or_insert_with(|| self.connector_guard(st, ci))
                {
                    out[enabled] = mask;
                    enabled += 1;
                }
            }
        }
        (offered, enabled)
    }

    /// Evaluate connector `ci`'s guard over its endpoints' variables in
    /// `st`.
    #[inline(never)]
    fn connector_guard(&self, st: &State, ci: usize) -> bool {
        let eps = &self.resolved[ci];
        self.connectors[ci]
            .guard
            .eval_bool(&[], &|k, v| self.var_value(st, eps[k as usize].0, v))
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
            for &mask in es.masks(conn) {
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
                    scratch.clear();
                    scratch.extend(self.atom_type(comp).enabled_on_port(
                        LocId(st.locs[comp]),
                        port,
                        self.comp_vars(st, comp),
                    ));
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
    /// Successors are visited in exactly the order of the reference
    /// enumeration [`System::successors`]: connectors ascending,
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
            for &mask in es.masks(conn) {
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
        // connector port, flattened into the pooled buffer; the first
        // combination takes each participant's first.
        scratch.pool.clear();
        scratch.choices.clear();
        scratch.combo.clear();
        for i in mask_endpoints(ir.mask, arity) {
            let (comp, port, _) = self.resolved[ci][i];
            let start = scratch.pool.len() as u32;
            scratch.pool.extend(self.atom_type(comp).enabled_on_port(
                LocId(st.locs[comp]),
                port,
                self.comp_vars(st, comp),
            ));
            debug_assert!(
                scratch.pool.len() as u32 > start,
                "enabled interaction without a local transition"
            );
            scratch
                .choices
                .push((comp, start, scratch.pool.len() as u32));
            scratch.combo.push((comp, scratch.pool[start as usize]));
        }
        // Cartesian product over the choices (the odometer of
        // `expand_interaction`, first participant fastest), advancing
        // `combo` in place. With one candidate per participant there is
        // one combination.
        let single = scratch.pool.len() == scratch.choices.len();
        if !single {
            scratch.idx.clear();
            scratch.idx.resize(scratch.choices.len(), 0);
        }
        'combos: loop {
            scratch.next.clone_from(st);
            self.fire_interaction_masked(&mut scratch.next, ir.connector, ir.mask, &scratch.combo);
            f(
                SuccStep::Interaction {
                    iref: ir,
                    transitions: &scratch.combo,
                },
                &scratch.next,
            );
            if single {
                break;
            }
            for (k, &(_, lo, hi)) in scratch.choices.iter().enumerate() {
                scratch.idx[k] += 1;
                if scratch.idx[k] == hi - lo {
                    scratch.idx[k] = 0;
                }
                scratch.combo[k].1 = scratch.pool[(lo + scratch.idx[k]) as usize];
                if scratch.idx[k] != 0 {
                    continue 'combos;
                }
            }
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::AtomBuilder;
    use crate::builder::{dining_philosophers, SystemBuilder};
    use crate::connector::ConnectorBuilder;
    use crate::system::Step;

    /// The enabled-set protocol agrees with the legacy enumeration after
    /// every step of a guided walk, on a small table and a 64-philosopher
    /// one (where each step touches a tiny share of the connectors).
    #[test]
    fn incremental_matches_legacy_along_walk() {
        for n in [5usize, 64] {
            let sys = dining_philosophers(n, false).unwrap();
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
                assert_eq!(compiled, legacy, "n={n}: divergence at round {round}");
                if compiled.is_empty() {
                    break;
                }
                // Deterministically pick an interaction, rotate by round.
                let pick = compiled[round % compiled.len()].clone();
                let ir = InteractionRef::of(&pick, sys.conn_arity(pick.connector));
                sys.fire_enabled(&mut st, &mut es, EnabledStep::Interaction(ir), |_, _, _| 0);
            }
        }
    }

    /// Guarded and unguarded transitions on one port from one location,
    /// constant-false guards (one hiding a port entirely), guarded internal
    /// steps, a connector guard, a broadcast, priority rules and maximal
    /// progress.
    fn guards_system() -> System {
        use crate::data::Expr;
        let x = || Expr::var(0);
        let mixed = AtomBuilder::new("mixed")
            .var("x", 0)
            .port("p")
            .port("q")
            .port("r")
            .location("l0")
            .location("l1")
            .initial("l0")
            .guarded_transition(
                "l0",
                "p",
                x().lt(Expr::int(3)),
                vec![("x", x().add(Expr::int(1)))],
                "l0",
            )
            .transition("l0", "p", "l1")
            .guarded_transition("l0", "q", x().eq(Expr::int(2)), vec![], "l1")
            .guarded_transition(
                "l1",
                "p",
                x().gt(Expr::int(0)),
                vec![("x", x().sub(Expr::int(1)))],
                "l1",
            )
            .guarded_transition("l1", "q", Expr::f(), vec![], "l0")
            .guarded_transition("l1", "r", Expr::t(), vec![("x", Expr::int(0))], "l0")
            .guarded_transition("l0", "r", Expr::f(), vec![], "l1")
            .internal_transition(
                "l1",
                x().lt(Expr::int(2)),
                vec![("x", x().add(Expr::int(1)))],
                "l1",
            )
            .build()
            .unwrap();
        let mut sb = SystemBuilder::new();
        let m0 = sb.add_instance("m0", &mixed);
        let m1 = sb.add_instance("m1", &mixed);
        let m2 = sb.add_instance("m2", &mixed);
        sb.add_connector(
            ConnectorBuilder::rendezvous("pq", [(m0, "p"), (m1, "q")])
                .guard(Expr::param(0, 0).lt(Expr::param(1, 0).add(Expr::int(2)))),
        );
        sb.add_connector(ConnectorBuilder::singleton("p0", m0, "p"));
        sb.add_connector(ConnectorBuilder::singleton("r1", m1, "r"));
        sb.add_connector(ConnectorBuilder::singleton("p2", m2, "p"));
        sb.add_connector(ConnectorBuilder::broadcast(
            "cast",
            (m2, "r"),
            [(m0, "r"), (m1, "p")],
        ));
        let mut sys = sb.build().unwrap();
        sys.priority_mut().add_rule(ConnId(1), ConnId(0));
        sys.priority_mut().maximal_progress = true;
        sys
    }

    /// An atom with 70 ports: ports 64 and up take the scanning fallback.
    fn many_ports_system() -> System {
        use crate::data::Expr;
        let mut b = AtomBuilder::new("wide").var("x", 0);
        for p in 0..70 {
            b = b.port(format!("p{p}"));
        }
        let wide = b
            .location("a")
            .location("b")
            .initial("a")
            .transition("a", "p3", "b")
            .guarded_transition(
                "a",
                "p65",
                Expr::var(0).lt(Expr::int(4)),
                vec![("x", Expr::var(0).add(Expr::int(1)))],
                "a",
            )
            .transition("a", "p65", "b")
            .transition("b", "p69", "a")
            .guarded_transition("b", "p64", Expr::f(), vec![], "a")
            .guarded_transition(
                "b",
                "p63",
                Expr::var(0).gt(Expr::int(1)),
                vec![("x", Expr::int(0))],
                "b",
            )
            .build()
            .unwrap();
        let mut sb = SystemBuilder::new();
        let w0 = sb.add_instance("w0", &wide);
        let w1 = sb.add_instance("w1", &wide);
        sb.add_connector(ConnectorBuilder::rendezvous(
            "x01",
            [(w0, "p65"), (w1, "p3")],
        ));
        sb.add_connector(ConnectorBuilder::rendezvous(
            "x10",
            [(w1, "p65"), (w0, "p3")],
        ));
        sb.add_connector(ConnectorBuilder::singleton("back0", w0, "p69"));
        sb.add_connector(ConnectorBuilder::singleton("back1", w1, "p69"));
        sb.add_connector(ConnectorBuilder::singleton("dead0", w0, "p64"));
        sb.add_connector(ConnectorBuilder::singleton("reset1", w1, "p63"));
        sb.add_connector(ConnectorBuilder::singleton("solo0", w0, "p65"));
        sb.build().unwrap()
    }

    /// Two rendezvous wider than [`MAX_CONNECTOR_PORTS`], one guarded, plus
    /// singleton steps that move single participants in and out.
    fn wide_rendezvous_system() -> System {
        use crate::data::Expr;
        let t = AtomBuilder::new("t")
            .var("x", 0)
            .port("h")
            .port("s")
            .location("a")
            .location("b")
            .initial("a")
            .transition("a", "h", "b")
            .transition("b", "h", "a")
            .guarded_transition(
                "a",
                "s",
                Expr::var(0).lt(Expr::int(2)),
                vec![("x", Expr::var(0).add(Expr::int(1)))],
                "b",
            )
            .guarded_transition("b", "s", Expr::t(), vec![("x", Expr::int(0))], "a")
            .build()
            .unwrap();
        let mut sb = SystemBuilder::new();
        let ids: Vec<CompId> = (0..40)
            .map(|i| sb.add_instance(format!("t{i}"), &t))
            .collect();
        sb.add_connector(ConnectorBuilder::rendezvous(
            "all",
            ids.iter().map(|&i| (i, "h")).collect::<Vec<_>>(),
        ));
        sb.add_connector(
            ConnectorBuilder::rendezvous(
                "most",
                ids[..36].iter().map(|&i| (i, "s")).collect::<Vec<_>>(),
            )
            .guard(Expr::param(0, 0).lt(Expr::int(1))),
        );
        for &i in &ids[30..] {
            sb.add_connector(ConnectorBuilder::singleton(format!("s{i}"), i, "s"));
        }
        sb.build().unwrap()
    }

    /// `es` (refreshed for `st`) against a from-scratch refresh, the legacy
    /// enumeration, and a scan of every endpoint's transitions.
    fn assert_refresh_consistent(sys: &System, st: &State, es: &EnabledSet, ctx: &str) {
        let mut fresh = sys.new_enabled_set();
        fresh.invalidate_all();
        sys.refresh_enabled(st, &mut fresh);
        for ci in 0..sys.num_connectors() {
            let conn = ConnId(ci as u32);
            assert_eq!(es.masks(conn), fresh.masks(conn), "{ctx}: masks of {ci}");
            assert_eq!(es.offered[ci], fresh.offered[ci], "{ctx}: offered of {ci}");
            let eps = &sys.resolved[ci];
            if eps.len() > MAX_CONNECTOR_PORTS {
                assert_eq!(es.offered[ci], 0, "{ctx}: wide connectors record no mask");
                continue;
            }
            for (i, &(comp, port, _)) in eps.iter().enumerate() {
                let ty = sys.atom_type(comp);
                let scanned = ty
                    .transitions_from(LocId(st.locs[comp]))
                    .iter()
                    .any(|&tid| {
                        let t = ty.transition(tid);
                        t.port == Some(port) && t.guard.eval_local(sys.comp_vars(st, comp)) != 0
                    });
                let bit = es.offered[ci] & (1 << i) != 0;
                assert_eq!(bit, sys.port_offered(st, comp, port), "{ctx}: {ci}.{i}");
                assert_eq!(bit, scanned, "{ctx}: {ci}.{i} against a scan");
            }
        }
        assert_eq!(es.internal, fresh.internal, "{ctx}: internal steps");
        assert_eq!(es.num_interactions(), fresh.num_interactions(), "{ctx}");
        assert_eq!(es.num_internal(), fresh.num_internal(), "{ctx}");
        let mut inters = Vec::new();
        let mut internals = Vec::new();
        sys.for_each_enabled(st, es, |step| match step {
            EnabledStep::Interaction(ir) => inters.push(sys.resolve_ref(ir)),
            EnabledStep::Internal {
                component,
                transition,
            } => internals.push(Step::Internal {
                component,
                transition,
            }),
        });
        assert_eq!(inters, sys.enabled(st), "{ctx}: legacy enabled");
        assert_eq!(
            internals,
            sys.internal_steps(st),
            "{ctx}: legacy internal steps"
        );
    }

    /// The refresh kernel's two drivers agree along random walks: the
    /// incremental refresh after each fire equals a full refresh after
    /// `invalidate_all`, both equal the legacy enumeration, and every
    /// recorded offered-endpoint bit equals `port_offered` and a direct
    /// scan of the endpoint's transitions.
    #[test]
    fn refresh_kernel_drivers_agree_along_random_walks() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        for (name, sys) in [
            ("guards", guards_system()),
            ("many ports", many_ports_system()),
            ("wide rendezvous", wide_rendezvous_system()),
            ("philosophers", dining_philosophers(4, true).unwrap()),
        ] {
            let mut rng = StdRng::seed_from_u64(7);
            let mut st = sys.initial_state();
            let mut es = sys.new_enabled_set();
            let mut fired = 0;
            for step in 0..1000 {
                sys.refresh_enabled(&st, &mut es);
                assert_refresh_consistent(&sys, &st, &es, &format!("{name} step {step}"));
                let mut steps = Vec::new();
                sys.for_each_enabled(&st, &es, |s| steps.push(s));
                if steps.is_empty() {
                    st = sys.initial_state();
                    es.invalidate_all();
                    continue;
                }
                let pick = steps[rng.gen_range(0..steps.len())];
                sys.fire_enabled(&mut st, &mut es, pick, |_, _, ts| {
                    rng.gen_range(0..ts.len())
                });
                fired += 1;
            }
            assert!(fired > 500, "{name}: the walk kept moving ({fired} steps)");
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

    /// The allocation-free enumeration yields exactly the reference
    /// successor list of `successors` — same steps, same states, same order
    /// (the order the model checker's deterministic replay relies on). The
    /// guards system's interactions have several local-transition
    /// combinations.
    #[test]
    fn for_each_successor_matches_successors() {
        for (sys, combos) in [
            (dining_philosophers(3, false).unwrap(), false),
            (dining_philosophers(4, true).unwrap(), false),
            (guards_system(), true),
        ] {
            let mut es = sys.new_enabled_set();
            let mut scratch = sys.new_succ_scratch();
            let mut frontier = vec![sys.initial_state()];
            let mut repeated = 0;
            for _ in 0..3 {
                let mut next_frontier = Vec::new();
                for st in &frontier {
                    let out = sys.successors(st);
                    let mut streamed: Vec<(Step, State)> = Vec::new();
                    es.invalidate_all();
                    sys.for_each_successor(st, &mut es, &mut scratch, |s, next| {
                        streamed.push((s.to_step(&sys), next.clone()));
                    });
                    assert_eq!(out, streamed);
                    repeated += out
                        .windows(2)
                        .filter(|w| match (&w[0].0, &w[1].0) {
                            (
                                Step::Interaction { interaction: a, .. },
                                Step::Interaction { interaction: b, .. },
                            ) => a == b,
                            _ => false,
                        })
                        .count();
                    next_frontier.extend(out.into_iter().map(|(_, s)| s));
                }
                frontier = next_frontier;
            }
            assert_eq!(
                repeated > 0,
                combos,
                "an interaction with several combinations"
            );
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
