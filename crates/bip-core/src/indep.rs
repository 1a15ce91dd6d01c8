//! Static interaction independence — the support analysis behind
//! partial-order reduction.
//!
//! The paper's rigorous-design thesis is that BIP's structured glue makes
//! coordination analyses *static*: a connector's support — the components
//! it synchronizes and the variables its guard, transfer, and the
//! participants' transitions read and write — is syntactically available
//! when the system is built. Two interactions whose supports are disjoint
//! are **independent**: firing one neither enables, disables, nor changes
//! the effect of the other, in either order. That is precisely the
//! information a partial-order reduction needs, and none of it has to be
//! discovered during state-space search.
//!
//! [`IndepInfo`] is derived entirely from build-time data — the compiled
//! schedule ([`crate::exec::CompiledExec`]), the connectors, and the
//! priority layer — and materialized once per system, on first use of
//! `System::indep()` (execution-only workloads never pay for the
//! dependency matrix). It enumerates every **action**
//! of the system — one per feasible `(connector, endpoint mask)` pair, in
//! connector-ascending/mask-ascending order, then one per internal
//! transition in component-ascending order — and stores, per action, packed
//! [`PlaceSet`] bitset rows:
//!
//! * the **component support** (endpoint components, or the internal
//!   stepper);
//! * the **read** and **written** variables, as indices into the flat
//!   global store (transition guards and update right-hand sides, connector
//!   guards, data-transfer sources and targets);
//! * the **priority-release components**: the components whose movement
//!   could end a priority domination of the action's connector (the high
//!   connectors' endpoints, the rule guards' support, and — under maximal
//!   progress — the connector's own endpoints);
//! * the symmetric **static dependency row** over actions, and per
//!   component the **touch row** of actions whose support contains it.
//!
//! On top of the rows sits [`IndepInfo::select_ample`]: a deterministic
//! **persistent-set** (stubborn-set style) selector used by
//! `bip-verify::reach`'s reduction. Given a state's refreshed
//! [`EnabledSet`], it closes every enabled action as a candidate seed under
//! the classical two rules — an *enabled* member pulls in its whole static
//! dependency row; a *disabled* member pulls in only the actions touching
//! one syntactically-chosen component that must move before it can fire —
//! and keeps the smallest enabled-member set any closure produced. The
//! scan order (and therefore the tie-break among equally small candidates)
//! is seeded from the canonical [`crate::StateCodec::state_hash`], so the
//! selection is a pure function of the state and the system: thread-count-
//! and codec-invariant by construction.
//!
//! The result is defined as "the first seed, in scan order, whose closure
//! has the fewest enabled members among the closures with no enabled
//! visible member and fewer members than the enabled set". A seed changes
//! the running best only if it beats it *strictly*. So a seed that
//! provably cannot do that can be skipped without changing the selection.
//! Three prunes do exactly that, and each decides only from the state,
//! the static tables and the best size found so far, which is itself a
//! function of the state:
//!
//! 1. **Dependency-row pre-filter.** An enabled seed pulls its whole
//!    dependency row into its closure. So `|dep[seed] ∩ enabled|` is a
//!    lower bound on the seed's candidate size, and an enabled visible
//!    action in that row is in the candidate for certain. Either one
//!    rules the seed out before its closure starts.
//! 2. **Closures cut at the best size so far.** A closure only grows.
//!    Once it holds as many enabled actions as the best candidate (or the
//!    whole enabled set), or any enabled visible action, its final
//!    candidate can no longer be accepted, so the closure stops there.
//! 3. **Offered endpoints from the refresh.** The disabled-member rule
//!    reads the first unoffered endpoint of an interaction from the
//!    offered-endpoint mask the [`EnabledSet`] refresh already recorded
//!    for that state. It does not re-evaluate port guards. The bit is the
//!    same [`System::port_offered`] answer, so the chosen component is the
//!    same.
//!
//! ```
//! use bip_core::dining_philosophers;
//!
//! let sys = dining_philosophers(4, true).unwrap();
//! let indep = sys.indep();
//! // takeL0 = (phil0, fork0) and takeL2 = (phil2, fork2) share nothing.
//! let a = indep.interaction_action(sys.connector_id("takeL0").unwrap(), 0);
//! let b = indep.interaction_action(sys.connector_id("takeL2").unwrap(), 0);
//! assert!(indep.independent(a, b));
//! // takeL0 and takeR3 compete for fork0.
//! let c = indep.interaction_action(sys.connector_id("takeR3").unwrap(), 0);
//! assert!(!indep.independent(a, c));
//! ```

use crate::atom::TransitionId;
use crate::connector::ConnId;
use crate::data::Expr;
use crate::exec::{mask_endpoints, EnabledSet, EnabledStep, InteractionRef, MAX_CONNECTOR_PORTS};
use crate::placeset::PlaceSet;
use crate::predicate::{GExpr, StatePred};
use crate::priority::Priority;
use crate::system::{CompId, State, System};

/// Index of an action in the dense action table of an [`IndepInfo`].
pub type ActionId = usize;

/// Action-count ceiling for the quadratic dependency matrix. Systems with
/// more actions (only reachable through very wide broadcast enumerations)
/// keep their support rows but skip the matrix; [`IndepInfo::select_ample`]
/// then always declines to reduce, which is conservative and sound.
const MAX_DEP_ACTIONS: usize = 4096;

/// The static independence tables of a [`System`], built once per system
/// from build-time data (see [module docs](self) for what each row means;
/// `System::indep()` materializes and caches them).
#[derive(Debug, Clone)]
pub struct IndepInfo {
    /// Dense action table: interactions in (connector, mask) order, then
    /// internal transitions in (component, transition) order.
    actions: Vec<EnabledStep>,
    /// First action id of each connector's feasible masks; one trailing
    /// entry, so connector `c` owns `conn_base[c]..conn_base[c + 1]`.
    conn_base: Vec<u32>,
    /// Internal-action range per component (empty for components without
    /// internal transitions); ids ascend with the transition id.
    internal_of: Vec<(u32, u32)>,
    /// Per action: the components it synchronizes/moves.
    comps: Vec<PlaceSet>,
    /// Per action: global variable indices it may read.
    reads: Vec<PlaceSet>,
    /// Per action: global variable indices it may write.
    writes: Vec<PlaceSet>,
    /// Per action: the symmetric static dependency row over actions.
    /// Empty when the matrix was skipped (see [`MAX_DEP_ACTIONS`]).
    dep: Vec<PlaceSet>,
    /// Per component: the actions whose component support contains it.
    touch: Vec<PlaceSet>,
    /// Per connector: components read by the connector guard (empty for
    /// constant guards).
    guard_comps: Vec<Vec<CompId>>,
    /// Per connector: components whose movement could release a priority
    /// domination of this connector's interactions.
    prio_comps: Vec<Vec<CompId>>,
    /// `true` when the dependency matrix was skipped.
    oversized: bool,
}

/// Reusable per-worker scratch for [`IndepInfo::select_ample`]; create with
/// [`IndepInfo::new_scratch`]. All buffers retain capacity across states.
#[derive(Debug, Clone)]
pub struct AmpleScratch {
    /// Enabled (post-priority) actions of the current state.
    enabled: PlaceSet,
    /// Enabled action ids, ascending.
    enabled_list: Vec<u32>,
    /// Enabled visible actions of the current state (empty without a
    /// visibility row).
    visible: PlaceSet,
    /// Closure membership, packed like a [`PlaceSet`]'s words (updated a
    /// word at a time, so it keeps no member count).
    in_t: Vec<u64>,
    /// Closure worklist.
    stack: Vec<u32>,
    /// The selected ample action ids, ascending — the selector's output.
    ample: Vec<u32>,
    /// Candidate buffer of the seed currently being closed.
    cand: Vec<u32>,
}

impl AmpleScratch {
    /// The ample action ids selected by the last
    /// [`IndepInfo::select_ample`] call that returned `true`, ascending.
    pub fn ample(&self) -> &[u32] {
        &self.ample
    }
}

/// Collect the local variable indices an expression reads.
fn collect_vars(e: &Expr, out: &mut Vec<u32>) {
    match e {
        Expr::Const(_) => {}
        Expr::Var(i) => out.push(*i),
        Expr::Param(_, _) => {}
        Expr::Unary(_, a) => collect_vars(a, out),
        Expr::Binary(_, a, b) => {
            collect_vars(a, out);
            collect_vars(b, out);
        }
        Expr::Ite(c, t, f) => {
            collect_vars(c, out);
            collect_vars(t, out);
            collect_vars(f, out);
        }
    }
}

/// Collect the `(endpoint, variable)` pairs an expression reads through
/// connector parameters.
fn collect_params(e: &Expr, out: &mut Vec<(u32, u32)>) {
    match e {
        Expr::Const(_) | Expr::Var(_) => {}
        Expr::Param(k, v) => out.push((*k, *v)),
        Expr::Unary(_, a) => collect_params(a, out),
        Expr::Binary(_, a, b) => {
            collect_params(a, out);
            collect_params(b, out);
        }
        Expr::Ite(c, t, f) => {
            collect_params(c, out);
            collect_params(t, out);
            collect_params(f, out);
        }
    }
}

fn gexpr_support(e: &GExpr, comps: &mut PlaceSet, vars: &mut PlaceSet, sys: &System) {
    match e {
        GExpr::Const(_) => {}
        GExpr::Var(c, v) => {
            comps.insert(*c);
            vars.insert(sys.global_var(*c, *v));
        }
        GExpr::Add(a, b) | GExpr::Sub(a, b) | GExpr::Mul(a, b) => {
            gexpr_support(a, comps, vars, sys);
            gexpr_support(b, comps, vars, sys);
        }
    }
}

/// The support of a global state predicate: the components whose location
/// it inspects or whose variables it reads, and the read variables as
/// global store indices. Used both for priority-rule guards (domination
/// release) and for the verifier's visibility check.
pub fn pred_support(sys: &System, pred: &StatePred) -> (PlaceSet, PlaceSet) {
    let mut comps = PlaceSet::new(sys.num_components());
    let mut vars = PlaceSet::new(sys.num_vars());
    pred_support_into(sys, pred, &mut comps, &mut vars);
    (comps, vars)
}

fn pred_support_into(sys: &System, pred: &StatePred, comps: &mut PlaceSet, vars: &mut PlaceSet) {
    match pred {
        StatePred::True | StatePred::False => {}
        StatePred::AtLoc(c, _) => {
            comps.insert(*c);
        }
        StatePred::Eq(a, b) | StatePred::Le(a, b) => {
            gexpr_support(a, comps, vars, sys);
            gexpr_support(b, comps, vars, sys);
        }
        StatePred::Not(p) => pred_support_into(sys, p, comps, vars),
        StatePred::And(ps) | StatePred::Or(ps) => {
            for p in ps {
                pred_support_into(sys, p, comps, vars);
            }
        }
    }
}

impl IndepInfo {
    /// Build the tables from a fully-constructed system (called once per
    /// system by `System::indep`, lazily; inputs are all build-time data).
    pub(crate) fn build(sys: &System) -> IndepInfo {
        let ncomps = sys.num_components();
        let nvars = sys.num_vars();
        let nconns = sys.num_connectors();

        // ---- Action table. ----
        let mut actions: Vec<EnabledStep> = Vec::new();
        let mut conn_base: Vec<u32> = Vec::with_capacity(nconns + 1);
        for ci in 0..nconns {
            conn_base.push(actions.len() as u32);
            for &mask in sys.compiled().feasible_masks(ConnId(ci as u32)) {
                actions.push(EnabledStep::Interaction(InteractionRef {
                    connector: ConnId(ci as u32),
                    mask,
                }));
            }
        }
        conn_base.push(actions.len() as u32);
        let mut internal_of: Vec<(u32, u32)> = Vec::with_capacity(ncomps);
        for comp in 0..ncomps {
            let start = actions.len() as u32;
            let ty = sys.atom_type(comp);
            for (ti, t) in ty.transitions().iter().enumerate() {
                if t.port.is_none() {
                    actions.push(EnabledStep::Internal {
                        component: comp,
                        transition: TransitionId(ti as u32),
                    });
                }
            }
            internal_of.push((start, actions.len() as u32));
        }
        let nactions = actions.len();

        // ---- Per-action support rows. ----
        let mut comps: Vec<PlaceSet> = Vec::with_capacity(nactions);
        let mut reads: Vec<PlaceSet> = Vec::with_capacity(nactions);
        let mut writes: Vec<PlaceSet> = Vec::with_capacity(nactions);
        let mut vbuf: Vec<u32> = Vec::new();
        let mut pbuf: Vec<(u32, u32)> = Vec::new();
        for act in &actions {
            let mut cset = PlaceSet::new(ncomps);
            let mut rset = PlaceSet::new(nvars);
            let mut wset = PlaceSet::new(nvars);
            match *act {
                EnabledStep::Interaction(ir) => {
                    let conn = sys.connector(ir.connector);
                    let eps = sys.connector_endpoints(ir.connector);
                    for i in mask_endpoints(ir.mask, eps.len()) {
                        let (comp, port) = eps[i];
                        cset.insert(comp);
                        // Any transition labelled with the port may fire:
                        // union their guard reads and update reads/writes.
                        let ty = sys.atom_type(comp);
                        for t in ty.transitions() {
                            if t.port != Some(port) {
                                continue;
                            }
                            vbuf.clear();
                            collect_vars(&t.guard, &mut vbuf);
                            for (_, e) in &t.updates {
                                collect_vars(e, &mut vbuf);
                            }
                            for &v in &vbuf {
                                rset.insert(sys.global_var(comp, v));
                            }
                            for (v, _) in &t.updates {
                                wset.insert(sys.global_var(comp, v.0));
                            }
                        }
                    }
                    pbuf.clear();
                    collect_params(&conn.guard, &mut pbuf);
                    for (ep, var, expr) in &conn.transfer {
                        if !crate::exec::mask_contains(ir.mask, *ep as usize) {
                            continue;
                        }
                        collect_params(expr, &mut pbuf);
                        let (comp, _) = eps[*ep as usize];
                        wset.insert(sys.global_var(comp, *var));
                    }
                    for &(k, v) in &pbuf {
                        let (comp, _) = eps[k as usize];
                        rset.insert(sys.global_var(comp, v));
                    }
                }
                EnabledStep::Internal {
                    component,
                    transition,
                } => {
                    cset.insert(component);
                    let t = sys.atom_type(component).transition(transition);
                    vbuf.clear();
                    collect_vars(&t.guard, &mut vbuf);
                    for (_, e) in &t.updates {
                        collect_vars(e, &mut vbuf);
                    }
                    for &v in &vbuf {
                        rset.insert(sys.global_var(component, v));
                    }
                    for (v, _) in &t.updates {
                        wset.insert(sys.global_var(component, v.0));
                    }
                }
            }
            comps.push(cset);
            reads.push(rset);
            writes.push(wset);
        }

        // ---- Connector guard supports and priority-release components. ----
        let mut guard_comps: Vec<Vec<CompId>> = Vec::with_capacity(nconns);
        for ci in 0..nconns {
            let conn = sys.connector(ConnId(ci as u32));
            let eps = sys.connector_endpoints(ConnId(ci as u32));
            pbuf.clear();
            collect_params(&conn.guard, &mut pbuf);
            let mut cs: Vec<CompId> = pbuf.iter().map(|&(k, _)| eps[k as usize].0).collect();
            cs.sort_unstable();
            cs.dedup();
            guard_comps.push(cs);
        }
        let prio_comps = prio_release_comps(sys, sys.priority(), nconns);

        // ---- Touch rows. ----
        let mut touch: Vec<PlaceSet> = (0..ncomps).map(|_| PlaceSet::new(nactions)).collect();
        for (a, cset) in comps.iter().enumerate() {
            for c in cset.iter() {
                touch[c].insert(a);
            }
        }

        // ---- Symmetric dependency matrix. ----
        // Two actions are dependent when either one's support touches a
        // component the other's filtered enabledness depends on: its own
        // endpoints plus its connector's priority-release components.
        let oversized = nactions > MAX_DEP_ACTIONS;
        let mut dep: Vec<PlaceSet> = Vec::new();
        if !oversized {
            let depc: Vec<PlaceSet> = actions
                .iter()
                .enumerate()
                .map(|(a, act)| {
                    let mut d = comps[a].clone();
                    if let EnabledStep::Interaction(ir) = act {
                        for &c in &prio_comps[ir.connector.0 as usize] {
                            d.insert(c);
                        }
                    }
                    d
                })
                .collect();
            dep = (0..nactions).map(|_| PlaceSet::new(nactions)).collect();
            for a in 0..nactions {
                dep[a].insert(a);
                for b in (a + 1)..nactions {
                    // Component coupling covers enabledness (guards only
                    // read participant variables) and location effects.
                    // Variable coupling must be checked separately: a
                    // partial broadcast's transfer may *read* a variable of
                    // an endpoint outside the firing mask, so disjoint
                    // component supports do not imply commuting effects —
                    // the write/read rows carry exactly that case.
                    let coupled = comps[a].intersects(&depc[b])
                        || comps[b].intersects(&depc[a])
                        || writes[a].intersects(&reads[b])
                        || writes[b].intersects(&reads[a])
                        || writes[a].intersects(&writes[b]);
                    if coupled {
                        dep[a].insert(b);
                        dep[b].insert(a);
                    }
                }
            }
        }

        IndepInfo {
            actions,
            conn_base,
            internal_of,
            comps,
            reads,
            writes,
            dep,
            touch,
            guard_comps,
            prio_comps,
            oversized,
        }
    }

    /// Number of actions (feasible interactions plus internal transitions).
    pub fn num_actions(&self) -> usize {
        self.actions.len()
    }

    /// The action at `id` in compiled form.
    pub fn action(&self, id: ActionId) -> EnabledStep {
        self.actions[id]
    }

    /// The action id of the `mask_index`-th feasible mask of `conn`.
    pub fn interaction_action(&self, conn: ConnId, mask_index: usize) -> ActionId {
        let base = self.conn_base[conn.0 as usize] as usize;
        debug_assert!(base + mask_index < self.conn_base[conn.0 as usize + 1] as usize);
        base + mask_index
    }

    /// The component support row of an action.
    pub fn action_comps(&self, id: ActionId) -> &PlaceSet {
        &self.comps[id]
    }

    /// The read-variable support row of an action (global store indices).
    pub fn action_reads(&self, id: ActionId) -> &PlaceSet {
        &self.reads[id]
    }

    /// The written-variable support row of an action (global store
    /// indices).
    pub fn action_writes(&self, id: ActionId) -> &PlaceSet {
        &self.writes[id]
    }

    /// `true` when the quadratic dependency matrix was skipped because the
    /// action table is too large; [`IndepInfo::select_ample`] then never
    /// reduces.
    pub fn is_oversized(&self) -> bool {
        self.oversized
    }

    /// Static independence of two actions: disjoint component supports, no
    /// variable conflict (neither writes what the other reads or writes —
    /// a partial broadcast's transfer may read a variable of a
    /// non-participating endpoint, so this is not implied by component
    /// disjointness), and no priority edge lets either affect the other's
    /// filtered enabledness. Symmetric; an action is never independent of
    /// itself.
    ///
    /// # Panics
    ///
    /// Panics if the dependency matrix was skipped
    /// ([`IndepInfo::is_oversized`]).
    pub fn independent(&self, a: ActionId, b: ActionId) -> bool {
        assert!(
            !self.oversized,
            "dependency matrix skipped (too many actions)"
        );
        !self.dep[a].contains(b)
    }

    /// The actions that can change the value of `pred` — their component
    /// support intersects the locations `pred` inspects, or their write set
    /// intersects the variables it reads. The verifier refuses to reduce an
    /// ample set containing a visible action, which is what keeps invariant
    /// verdicts exact under reduction.
    pub fn visible_actions(&self, sys: &System, pred: &StatePred) -> PlaceSet {
        let (pcomps, pvars) = pred_support(sys, pred);
        let mut vis = PlaceSet::new(self.actions.len());
        for a in 0..self.actions.len() {
            if self.comps[a].intersects(&pcomps) || self.writes[a].intersects(&pvars) {
                vis.insert(a);
            }
        }
        vis
    }

    /// Fresh selector scratch sized for this system.
    pub fn new_scratch(&self, _sys: &System) -> AmpleScratch {
        AmpleScratch {
            enabled: PlaceSet::new(self.actions.len()),
            enabled_list: Vec::new(),
            visible: PlaceSet::new(self.actions.len()),
            in_t: vec![0; self.actions.len().div_ceil(64)],
            stack: Vec::new(),
            ample: Vec::new(),
            cand: Vec::new(),
        }
    }

    /// The first endpoint of `mask` (ascending) whose port is not offered
    /// by its component in `st`, if any. Connectors of ≤
    /// [`MAX_CONNECTOR_PORTS`] endpoints read the offered-endpoint mask the
    /// refresh of `es` recorded; wider (pure rendezvous) ones scan directly.
    fn first_unoffered(
        sys: &System,
        st: &State,
        es: &EnabledSet,
        ci: usize,
        mask: u32,
    ) -> Option<usize> {
        let eps = &sys.resolved[ci];
        if eps.len() > MAX_CONNECTOR_PORTS {
            return mask_endpoints(mask, eps.len()).find(|&i| {
                let (comp, port, _) = eps[i];
                !sys.port_offered(st, comp, port)
            });
        }
        // Masks of connectors this narrow are exact bitmasks.
        let missing = mask & !es.offered[ci];
        (missing != 0).then(|| missing.trailing_zeros() as usize)
    }

    /// Select a persistent subset of the enabled actions of `st`, or
    /// decline.
    ///
    /// Returns `true` when a *strict* subset was selected — read it from
    /// [`AmpleScratch::ample`] (ascending action ids). Returns `false` when
    /// no reduction applies (a single enabled action, a closure that swept
    /// every enabled action, a visible action in the candidate set, or an
    /// oversized action table): the caller then expands the state fully.
    ///
    /// `hash` must be the canonical state hash
    /// ([`crate::StateCodec::state_hash`]); it seeds the scan order over
    /// the enabled actions — every enabled action is a closure seed, in
    /// rotation order starting at `hash % |enabled|`, and the strictly
    /// smallest resulting ample set wins (first found on ties).
    /// The selection is therefore a pure function of the state and the
    /// system: identical for every thread count and codec. `visible`, when
    /// present, is a [`IndepInfo::visible_actions`] row; a candidate ample
    /// set containing a visible action is rejected (another seed may still
    /// produce an invisible one).
    ///
    /// Seeds that cannot strictly beat the best candidate so far are cut
    /// short, which changes the work but not the answer:
    ///
    /// * a seed whose dependency row already holds at least as many
    ///   enabled actions as the best candidate (or all of them), or an
    ///   enabled visible action, is skipped unclosed — its closure
    ///   contains that row;
    /// * a closure stops as soon as it holds that many enabled actions, or
    ///   one enabled visible action — closures only grow;
    /// * the first unoffered endpoint of a disabled interaction is read
    ///   from the offered-endpoint mask `es` recorded at refresh, the same
    ///   [`System::port_offered`] bits a fresh scan would compute.
    ///
    /// Every cut depends only on `st`, the static tables and the best size
    /// so far, so the selection stays a pure function of the state.
    ///
    /// The selected set is **persistent**: every sequence of actions the
    /// full semantics can take from `st` without firing an ample action
    /// consists of actions statically independent of the whole ample set.
    /// The closure guaranteeing that follows the stubborn-set discipline:
    ///
    /// * an **enabled** member pulls its entire static dependency row into
    ///   the closure (so everything left outside commutes with it);
    /// * a **disabled** member pulls in only the actions touching one
    ///   syntactically-chosen component that must move before the member
    ///   can fire: the first unoffered endpoint, the connector-guard
    ///   readers when every endpoint is offered, or the priority-release
    ///   components when the member is merely dominated.
    ///
    /// `es` must be refreshed for `st`.
    pub fn select_ample(
        &self,
        sys: &System,
        st: &State,
        es: &EnabledSet,
        hash: u64,
        visible: Option<&PlaceSet>,
        scratch: &mut AmpleScratch,
    ) -> bool {
        if self.oversized {
            return false;
        }

        // ---- Enabled actions (post-priority), ascending. ----
        scratch.enabled.clear();
        scratch.enabled_list.clear();
        let filtering = !sys.priority().is_empty();
        for ci in 0..sys.num_connectors() {
            let conn = ConnId(ci as u32);
            let feas = sys.compiled().feasible_masks(conn);
            for &mask in es.masks(conn) {
                let ir = InteractionRef {
                    connector: conn,
                    mask,
                };
                if filtering && sys.priority().dominated_compiled(sys, st, ir, es) {
                    continue;
                }
                let mi = feas.binary_search(&mask).expect("enabled mask is feasible");
                let a = self.conn_base[ci] as usize + mi;
                scratch.enabled.insert(a);
                scratch.enabled_list.push(a as u32);
            }
        }
        for (comp, &(start, end)) in self.internal_of.iter().enumerate() {
            if start == end {
                continue;
            }
            for &tid in &es.internal[comp] {
                // Internal actions of a component ascend with the
                // transition id; find tid's slot in the range.
                let a = (start..end)
                    .find(|&a| {
                        matches!(self.actions[a as usize], EnabledStep::Internal { transition, .. } if transition == tid)
                    })
                    .expect("enabled internal transition is in the action table");
                scratch.enabled.insert(a as usize);
                scratch.enabled_list.push(a);
            }
        }
        let n_enabled = scratch.enabled_list.len();
        if n_enabled <= 1 {
            return false;
        }
        scratch.visible.clear();
        if let Some(vis) = visible {
            for &a in &scratch.enabled_list {
                if vis.contains(a as usize) {
                    scratch.visible.insert(a as usize);
                }
            }
        }

        // ---- Stubborn closures, every enabled seed in hash-rotated scan
        // order; the strictly smallest ample wins (first found on ties).
        let mut best_len = usize::MAX;
        for k in 0..n_enabled {
            let seed = scratch.enabled_list[((k as u64 + hash) % n_enabled as u64) as usize];
            // A candidate of `limit` or more enabled actions cannot win.
            let limit = best_len.min(n_enabled);
            let row = &self.dep[seed as usize];
            if row.intersection_len(&scratch.enabled) >= limit || row.intersects(&scratch.visible) {
                continue; // the seed's closure contains its row
            }
            let Some(len) = self.close(sys, st, es, seed, limit, scratch) else {
                continue;
            };
            // Candidate ample = enabled ∩ closure, ascending.
            scratch.cand.clear();
            for &a in &scratch.enabled_list {
                if scratch.in_t[a as usize / 64] >> (a % 64) & 1 == 1 {
                    scratch.cand.push(a);
                }
            }
            debug_assert_eq!(scratch.cand.len(), len);
            best_len = len;
            std::mem::swap(&mut scratch.ample, &mut scratch.cand);
            if best_len == 1 {
                break; // nothing smaller exists
            }
        }
        best_len < n_enabled
    }

    /// Close `seed` under the stubborn-set rules into `scratch.in_t`.
    /// Returns the number of enabled members, or `None` as soon as the
    /// closure holds `limit` enabled actions or an enabled visible one.
    fn close(
        &self,
        sys: &System,
        st: &State,
        es: &EnabledSet,
        seed: u32,
        limit: usize,
        scratch: &mut AmpleScratch,
    ) -> Option<usize> {
        scratch.in_t.fill(0);
        scratch.in_t[seed as usize / 64] = 1 << (seed % 64);
        scratch.stack.clear();
        scratch.stack.push(seed);
        let mut swept = 1usize;
        while let Some(t) = scratch.stack.pop() {
            let t = t as usize;
            if scratch.enabled.contains(t) {
                Self::absorb(&self.dep[t], &mut swept, limit, scratch)?;
                continue;
            }
            // Disabled member: add the actions touching the components
            // that must move first.
            match self.actions[t] {
                EnabledStep::Internal { component, .. } => {
                    Self::absorb(&self.touch[component], &mut swept, limit, scratch)?;
                }
                EnabledStep::Interaction(ir) => {
                    let ci = ir.connector.0 as usize;
                    let raw_enabled = es.masks(ir.connector).binary_search(&ir.mask).is_ok();
                    // Dominated by priority: domination ends only when a
                    // release component moves. Every endpoint offered: the
                    // connector guard is false; a constant-false guard can
                    // never change, otherwise one of its readers must move.
                    // Otherwise the first unoffered endpoint's component
                    // must move before this interaction can fire.
                    let movers: &[CompId] = if raw_enabled {
                        &self.prio_comps[ci]
                    } else {
                        match Self::first_unoffered(sys, st, es, ci, ir.mask) {
                            Some(i) => std::slice::from_ref(&sys.resolved[ci][i].0),
                            None => &self.guard_comps[ci],
                        }
                    };
                    for &comp in movers {
                        Self::absorb(&self.touch[comp], &mut swept, limit, scratch)?;
                    }
                }
            }
        }
        Some(swept)
    }

    /// Add every action of `row` not yet in the closure, a word at a time,
    /// counting the enabled ones into `swept`; `None` once `swept` reaches
    /// `limit` or an enabled visible action enters.
    fn absorb(
        row: &PlaceSet,
        swept: &mut usize,
        limit: usize,
        scratch: &mut AmpleScratch,
    ) -> Option<()> {
        let enabled = scratch.enabled.words();
        let visible = scratch.visible.words();
        for (wi, (&r, member)) in row.words().iter().zip(&mut scratch.in_t).enumerate() {
            let mut fresh = r & !*member;
            if fresh == 0 {
                continue;
            }
            *member |= fresh;
            let fresh_enabled = fresh & enabled[wi];
            if fresh_enabled != 0 {
                *swept += fresh_enabled.count_ones() as usize;
                if *swept >= limit || fresh_enabled & visible[wi] != 0 {
                    return None;
                }
            }
            while fresh != 0 {
                scratch.stack.push(wi as u32 * 64 + fresh.trailing_zeros());
                fresh &= fresh - 1;
            }
        }
        Some(())
    }
}

/// Per connector, the components whose movement could release a priority
/// domination of its interactions: the endpoints of every dominating
/// connector, the support of the rules' guards, and — under maximal
/// progress — the connector's own endpoints (a larger interaction of the
/// same connector dominates).
fn prio_release_comps(sys: &System, priority: &Priority, nconns: usize) -> Vec<Vec<CompId>> {
    let mut out: Vec<Vec<CompId>> = vec![Vec::new(); nconns];
    for rule in &priority.rules {
        let low = rule.low.0 as usize;
        for (comp, _) in sys.connector_endpoints(rule.high) {
            out[low].push(comp);
        }
        let (comps, _) = pred_support(sys, &rule.guard);
        out[low].extend(comps.iter());
    }
    if priority.maximal_progress {
        for (ci, row) in out.iter_mut().enumerate() {
            for (comp, _) in sys.connector_endpoints(ConnId(ci as u32)) {
                row.push(comp);
            }
        }
    }
    for row in &mut out {
        row.sort_unstable();
        row.dedup();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::AtomBuilder;
    use crate::builder::{dining_philosophers, SystemBuilder};
    use crate::connector::ConnectorBuilder;

    #[test]
    fn action_table_covers_interactions_and_internals() {
        let a = AtomBuilder::new("a")
            .port("p")
            .location("l")
            .location("m")
            .initial("l")
            .transition("l", "p", "m")
            .internal_transition("m", Expr::t(), vec![], "l")
            .build()
            .unwrap();
        let mut sb = SystemBuilder::new();
        let x = sb.add_instance("x", &a);
        sb.add_connector(ConnectorBuilder::singleton("go", x, "p"));
        let sys = sb.build().unwrap();
        let indep = sys.indep();
        assert_eq!(indep.num_actions(), 2);
        assert!(matches!(
            indep.action(0),
            EnabledStep::Interaction(ir) if ir.connector == ConnId(0)
        ));
        assert!(matches!(
            indep.action(1),
            EnabledStep::Internal { component, .. } if component == x
        ));
        assert!(indep.action_comps(0).contains(x));
        assert!(!indep.independent(0, 1), "same component: dependent");
    }

    #[test]
    fn philosophers_supports_and_independence() {
        let sys = dining_philosophers(4, true).unwrap();
        let indep = sys.indep();
        // 12 connectors, each a single rendezvous mask, no internals.
        assert_eq!(indep.num_actions(), 12);
        let a = indep.interaction_action(sys.connector_id("takeL0").unwrap(), 0);
        let b = indep.interaction_action(sys.connector_id("takeL1").unwrap(), 0);
        // Neighboring takeL share no component (fork i vs fork i+1).
        assert!(indep.independent(a, b));
        // rel0 puts down fork0 and fork1 — dependent on both takeLs.
        let r = indep.interaction_action(sys.connector_id("rel0").unwrap(), 0);
        assert!(!indep.independent(a, r));
        assert!(!indep.independent(b, r));
    }

    #[test]
    fn variable_support_rows_track_reads_and_writes() {
        let src = AtomBuilder::new("src")
            .var("x", 7)
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
        let indep = sys.indep();
        let a = indep.interaction_action(ConnId(0), 0);
        // Transfer reads s.x (global 0) and writes d.y (global 1).
        assert!(indep.action_reads(a).contains(0));
        assert!(indep.action_writes(a).contains(1));
        assert!(!indep.action_writes(a).contains(0));
    }

    #[test]
    fn transfer_reading_nonparticipant_var_is_dependent() {
        // A partial broadcast `{t}` whose transfer reads the *receiver's*
        // variable even when the receiver does not participate: the firing
        // mask's component support is {t} alone, but its effect depends on
        // o.y — so it must be dependent on the singleton that bumps o.y,
        // despite the disjoint component supports.
        let t = AtomBuilder::new("t")
            .var("x", 0)
            .port_exporting("snd", ["x"])
            .location("l")
            .location("m")
            .initial("l")
            .transition("l", "snd", "m")
            .build()
            .unwrap();
        let o = AtomBuilder::new("o")
            .var("y", 0)
            .port_exporting("rcv", ["y"])
            .port("bump")
            .location("l")
            .location("m")
            .initial("l")
            .transition("l", "rcv", "m")
            .guarded_transition(
                "l",
                "bump",
                Expr::var(0).lt(Expr::int(1)),
                vec![("y", Expr::var(0).add(Expr::int(1)))],
                "l",
            )
            .build()
            .unwrap();
        let mut sb = SystemBuilder::new();
        let ti = sb.add_instance("t", &t);
        let oi = sb.add_instance("o", &o);
        sb.add_connector(
            ConnectorBuilder::broadcast("bc", (ti, "snd"), [(oi, "rcv")]).transfer(
                0,
                0,
                Expr::param(1, 0),
            ),
        );
        sb.add_connector(ConnectorBuilder::singleton("bump", oi, "bump"));
        let sys = sb.build().unwrap();
        let indep = sys.indep();
        // bc's feasible masks are {t} and {t, o}; bump is the third action.
        let bc_solo = indep.interaction_action(ConnId(0), 0);
        let bump = indep.interaction_action(ConnId(1), 0);
        assert!(indep.action_reads(bc_solo).contains(sys.global_var(oi, 0)));
        assert!(indep.action_writes(bump).contains(sys.global_var(oi, 0)));
        assert!(
            !indep.independent(bc_solo, bump),
            "writes(bump) ∩ reads(bc solo mask) = {{o.y}} ⇒ dependent"
        );
    }

    #[test]
    fn priority_makes_disjoint_connectors_dependent() {
        let w = AtomBuilder::new("w")
            .port("p")
            .location("l")
            .initial("l")
            .transition("l", "p", "l")
            .build()
            .unwrap();
        let mut sb = SystemBuilder::new();
        let a = sb.add_instance("a", &w);
        let b = sb.add_instance("b", &w);
        sb.add_connector(ConnectorBuilder::singleton("ca", a, "p"));
        sb.add_connector(ConnectorBuilder::singleton("cb", b, "p"));
        let mut sys = sb.build().unwrap();
        let indep = sys.indep();
        let ia = indep.interaction_action(ConnId(0), 0);
        let ib = indep.interaction_action(ConnId(1), 0);
        assert!(indep.independent(ia, ib), "no priority: disjoint comps");
        // With ca ≺ cb, firing cb's component can change ca's filtered
        // enabledness — mutating the layer invalidates the cached tables
        // and the rebuilt ones must record the dependency.
        sys.priority_mut().add_rule(ConnId(0), ConnId(1));
        assert!(!sys.indep().independent(ia, ib));
    }

    #[test]
    fn pred_support_walks_locations_and_vars() {
        let c = AtomBuilder::new("c")
            .port("t")
            .var("n", 0)
            .location("l")
            .initial("l")
            .transition("l", "t", "l")
            .build()
            .unwrap();
        let mut sb = SystemBuilder::new();
        for i in 0..3 {
            sb.add_instance(format!("a{i}"), &c);
        }
        sb.add_connector(ConnectorBuilder::singleton("t0", 0, "t"));
        let sys = sb.build().unwrap();
        let pred = StatePred::at(&sys, 1, "l").or(StatePred::Eq(
            GExpr::var(2, 0).add(GExpr::int(1)),
            GExpr::int(5),
        ));
        let (comps, vars) = pred_support(&sys, &pred);
        assert!(comps.contains(1) && comps.contains(2) && !comps.contains(0));
        assert!(vars.contains(sys.global_var(2, 0)));
        assert!(!vars.contains(sys.global_var(1, 0)));
    }

    #[test]
    fn select_ample_reduces_and_is_deterministic() {
        let sys = dining_philosophers(5, true).unwrap();
        let indep = sys.indep();
        let mut es = sys.new_enabled_set();
        let mut scratch = indep.new_scratch(&sys);
        // Walk one step so some philosopher holds a fork; at such states the
        // selector should find genuine reductions somewhere along a run.
        let mut st = sys.initial_state();
        let codec = sys.state_codec();
        let mut reduced_somewhere = false;
        for step in 0..40 {
            sys.refresh_enabled(&st, &mut es);
            let h = codec.state_hash(&st);
            let r1 = indep.select_ample(&sys, &st, &es, h, None, &mut scratch);
            let ample1 = scratch.ample().to_vec();
            let mut scratch2 = indep.new_scratch(&sys);
            let r2 = indep.select_ample(&sys, &st, &es, h, None, &mut scratch2);
            assert_eq!(r1, r2, "selector must be a pure function of the state");
            if r1 {
                // `ample()` is only meaningful after a `true` return.
                assert_eq!(ample1, scratch2.ample());
                reduced_somewhere = true;
                assert!(!ample1.is_empty(), "ample sets are never empty");
            }
            // Advance deterministically.
            let succ = sys.successors(&st);
            if succ.is_empty() {
                break;
            }
            st = succ[step % succ.len()].1.clone();
            es.invalidate_all();
        }
        assert!(reduced_somewhere, "philosophers admit reduction");
    }
}
