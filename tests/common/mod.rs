//! Shared generators for the workspace integration tests.
#![allow(dead_code)] // each test binary uses a subset

use std::collections::{HashMap, HashSet, VecDeque};

use bip_core::exec::mask_endpoints;
use bip_core::{
    AtomBuilder, AtomType, CompId, ConnId, ConnectorBuilder, EnabledSet, EnabledStep, Expr,
    FaultSpec, GExpr, IndepInfo, PlaceSet, RecoverSpec, State, StatePred, System, SystemBuilder,
};
use bip_verify::dfinder::{Abstraction, LinearInvariant, Place};
use bip_verify::reach::ReachReport;
use bip_verify::StopReason;

/// How a generated variable behaves across transitions.
#[derive(Debug, Clone, Copy)]
enum VarStyle {
    /// The original location-heavy flavor: small random ±1 drifts under
    /// occasional small comparison guards.
    Drift,
    /// A guard-bounded counter: increments guarded by `v < limit` (with
    /// occasional resets to 0), so the interval-width analysis and the
    /// simple-path bit encoding both get a real workout. Limits are mostly
    /// small (state spaces stay explorable) but sometimes land above the
    /// widening cadence (≈ 64) to exercise threshold widening.
    Counter { limit: i64 },
}

/// A random flat system: a handful of randomly generated atoms (guarded,
/// variable-updating transitions over random small location graphs) wired by
/// random rendezvous/broadcast/singleton connectors. Used to stress the
/// compiled enabled-set protocol and the packed-state explorers on shapes no
/// hand-written model covers. Variables are a mix of drifting values and
/// guard-bounded counters (see [`VarStyle`]).
pub fn random_system(seed: u64) -> System {
    random_system_inner(seed, false, false)
}

/// [`random_system`] with every drift update guarded (`v < 4` before a +0
/// or +1 step, `-4 < v` before a -1 step), so every variable has a finite
/// inferred range and the SAT engines' step encoder accepts the system.
pub fn random_bounded_system(seed: u64) -> System {
    random_system_inner(seed, false, true)
}

/// [`random_system`] plus an independent two-location spinner (the last
/// component, outside the priority layer): every state has an invisible
/// cycle, on which a reduced search without a cycle proviso can spin and
/// ignore every visible step.
pub fn random_system_with_spinner(seed: u64) -> System {
    random_system_inner(seed, true, false)
}

fn random_system_inner(seed: u64, spinner: bool, bounded_drift: bool) -> System {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let n_atoms = rng.gen_range(2usize..6);
    let mut sb = SystemBuilder::new();
    let mut port_counts = Vec::new();
    for a in 0..n_atoms {
        let n_ports = rng.gen_range(1usize..4);
        let n_locs = rng.gen_range(1usize..4);
        let n_vars = rng.gen_range(0usize..3);
        let styles: Vec<VarStyle> = (0..n_vars)
            .map(|_| {
                if rng.gen_bool(0.4) {
                    let limit = if rng.gen_bool(0.2) {
                        rng.gen_range(80i64..110)
                    } else {
                        rng.gen_range(2i64..8)
                    };
                    VarStyle::Counter { limit }
                } else {
                    VarStyle::Drift
                }
            })
            .collect();
        let mut b = AtomBuilder::new(format!("t{a}"));
        for (v, style) in styles.iter().enumerate() {
            let init = match style {
                VarStyle::Drift => rng.gen_range(-2i64..3),
                VarStyle::Counter { .. } => 0,
            };
            b = b.var(format!("v{v}"), init);
        }
        for p in 0..n_ports {
            b = b.port(format!("p{p}"));
        }
        for l in 0..n_locs {
            b = b.location(format!("l{l}"));
        }
        b = b.initial("l0");
        // Random transitions; always at least one per location so systems
        // aren't trivially stuck.
        for l in 0..n_locs {
            for _ in 0..rng.gen_range(1usize..3) {
                let port = format!("p{}", rng.gen_range(0..n_ports));
                let to = format!("l{}", rng.gen_range(0..n_locs));
                // Updates first: an incrementing counter *forces* its own
                // bound as the transition guard — the guard-bounded shape
                // the interval-width analysis can prove finite.
                let mut forced_guard = None;
                let updates = if n_vars > 0 && rng.gen_bool(0.5) {
                    let v = rng.gen_range(0..n_vars);
                    let e = match styles[v] {
                        // Counters mostly advance toward their guard bound;
                        // sometimes they reset, closing a modular loop.
                        VarStyle::Counter { limit } => {
                            if rng.gen_bool(0.8) {
                                forced_guard = Some(Expr::var(v as u32).lt(Expr::int(limit)));
                                Expr::var(v as u32).add(Expr::int(1))
                            } else {
                                Expr::int(0)
                            }
                        }
                        VarStyle::Drift => {
                            let d = rng.gen_range(-1i64..2);
                            if bounded_drift {
                                forced_guard = Some(if d < 0 {
                                    Expr::int(-4).lt(Expr::var(v as u32))
                                } else {
                                    Expr::var(v as u32).lt(Expr::int(4))
                                });
                            }
                            Expr::var(v as u32).add(Expr::int(d))
                        }
                    };
                    vec![(format!("v{v}"), e)]
                } else {
                    vec![]
                };
                let guard = if let Some(g) = forced_guard {
                    g
                } else if n_vars > 0 && rng.gen_bool(0.4) {
                    let v = rng.gen_range(0..n_vars);
                    match styles[v] {
                        VarStyle::Counter { limit } => Expr::var(v as u32).lt(Expr::int(limit)),
                        VarStyle::Drift => {
                            Expr::var(v as u32).lt(Expr::int(rng.gen_range(1i64..5)))
                        }
                    }
                } else {
                    Expr::t()
                };
                b = b.guarded_transition(
                    format!("l{l}"),
                    port,
                    guard,
                    updates
                        .iter()
                        .map(|(v, e)| (v.as_str(), e.clone()))
                        .collect(),
                    to,
                );
            }
        }
        let ty = b.build().unwrap();
        port_counts.push(n_ports);
        sb.add_instance(format!("a{a}"), &ty);
    }
    let n_conns = rng.gen_range(1usize..6);
    for c in 0..n_conns {
        let kind = rng.gen_range(0..3);
        let pick_port =
            |rng: &mut StdRng, comp: usize| format!("p{}", rng.gen_range(0..port_counts[comp]));
        match kind {
            0 => {
                let comp = rng.gen_range(0..n_atoms);
                let port = pick_port(&mut rng, comp);
                sb.add_connector(ConnectorBuilder::singleton(format!("c{c}"), comp, port));
            }
            1 => {
                // Rendezvous over a random subset of ≥ 2 distinct atoms.
                let mut comps: Vec<usize> = (0..n_atoms).collect();
                for i in (1..comps.len()).rev() {
                    comps.swap(i, rng.gen_range(0..i + 1));
                }
                comps.truncate(rng.gen_range(2..n_atoms.max(2) + 1));
                let ports: Vec<(usize, String)> = comps
                    .iter()
                    .map(|&co| (co, pick_port(&mut rng, co)))
                    .collect();
                sb.add_connector(ConnectorBuilder::rendezvous(format!("c{c}"), ports));
            }
            _ => {
                let trigger = rng.gen_range(0..n_atoms);
                let mut receivers: Vec<(usize, String)> = Vec::new();
                for co in 0..n_atoms {
                    if co != trigger && rng.gen_bool(0.6) {
                        let p = pick_port(&mut rng, co);
                        receivers.push((co, p));
                    }
                }
                let tp = pick_port(&mut rng, trigger);
                if receivers.is_empty() {
                    sb.add_connector(ConnectorBuilder::singleton(format!("c{c}"), trigger, tp));
                } else {
                    sb.add_connector(ConnectorBuilder::broadcast(
                        format!("c{c}"),
                        (trigger, tp),
                        receivers,
                    ));
                }
            }
        }
    }
    if spinner {
        let c = sb.add_instance("spin", &toggle());
        sb.add_connector(ConnectorBuilder::singleton("spin", c, "t"));
    }
    let mut sys = sb.build().unwrap();
    // Random priority layer half the time.
    if rng.gen_bool(0.5) {
        let nc = n_conns as u32;
        sys.priority_mut().maximal_progress = rng.gen_bool(0.5);
        for _ in 0..rng.gen_range(0..3) {
            sys.priority_mut().add_rule(
                bip_core::ConnId(rng.gen_range(0..nc)),
                bip_core::ConnId(rng.gen_range(0..nc)),
            );
        }
    }
    sys
}

/// `full` keeping only the connectors `keep` accepts.
pub fn restricted(full: &System, keep: impl Fn(&bip_core::Connector) -> bool) -> System {
    let mut sb = SystemBuilder::new();
    for c in 0..full.num_components() {
        sb.add_instance(full.instance_name(c).to_string(), full.atom_type(c));
    }
    for conn in full.connectors().iter().filter(|c| keep(c)) {
        sb.add_connector(conn.clone());
    }
    sb.build().unwrap()
}

/// No trap is listed twice.
pub fn assert_duplicate_free(traps: &[PlaceSet], ctx: &str) {
    let mut seen = HashSet::new();
    for t in traps {
        assert!(seen.insert(t), "{ctx}: duplicate trap {t:?}");
    }
}

/// The shape the seed partition gives every enumerated trap list:
/// duplicate-free and non-decreasing in minimum place. Each trap holds its
/// seed and no smaller place, seeds are merged in order, and within a seed
/// a listed trap is blocked with its supersets — which is what lets trap
/// enumeration merge without a dedup store. (An incremental verifier's list
/// is its kept traps followed by one such enumeration.)
pub fn assert_seed_ordered(traps: &[PlaceSet], ctx: &str) {
    assert_duplicate_free(traps, ctx);
    for w in traps.windows(2) {
        assert!(
            w[0].min() <= w[1].min(),
            "{ctx}: minimum places out of order: {:?} before {:?}",
            w[0],
            w[1]
        );
    }
}

/// Exact rational for the dense oracle's elimination.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Rat {
    n: i128,
    d: i128, // > 0
}

impl Rat {
    const ZERO: Rat = Rat { n: 0, d: 1 };

    fn new(n: i128, d: i128) -> Rat {
        debug_assert!(d != 0);
        let g = gcd(n.unsigned_abs(), d.unsigned_abs()) as i128;
        let s = if d < 0 { -1 } else { 1 };
        Rat {
            n: s * n / g,
            d: s * d / g,
        }
    }

    fn from_int(n: i128) -> Rat {
        Rat { n, d: 1 }
    }

    fn is_zero(self) -> bool {
        self.n == 0
    }

    fn sub(self, o: Rat) -> Rat {
        Rat::new(self.n * o.d - o.n * self.d, self.d * o.d)
    }

    fn mul(self, o: Rat) -> Rat {
        Rat::new(self.n * o.n, self.d * o.d)
    }

    fn div(self, o: Rat) -> Rat {
        Rat::new(self.n * o.d, self.d * o.n)
    }
}

fn gcd(a: u128, b: u128) -> u128 {
    if b == 0 {
        a.max(1)
    } else {
        gcd(b, a % b)
    }
}

fn lcm(a: i128, b: i128) -> i128 {
    (a / gcd(a.unsigned_abs(), b.unsigned_abs()) as i128) * b
}

/// The dense Gaussian elimination `bip_verify::dfinder::linear_invariants`
/// ran before it became a sparse incremental RREF, kept verbatim as the
/// oracle the kernel is compared against: every effect row as a full
/// `num_places`-wide vector of rationals, leftmost-pivot elimination, the
/// null-space vectors read off the free columns. Unchecked arithmetic — fine
/// on the small-coefficient systems the tests feed it.
pub fn dense_linear_invariants(
    abs: &Abstraction,
    max_coeff: i64,
    max_support: usize,
) -> Vec<LinearInvariant> {
    // Deduplicate transitions and build effect rows.
    let mut rows: Vec<Vec<Rat>> = Vec::new();
    let mut seen = HashSet::new();
    for (pre, post) in &abs.transitions {
        let key = (pre.clone(), post.clone());
        if !seen.insert(key) {
            continue;
        }
        let mut row = vec![Rat::ZERO; abs.num_places];
        for &p in pre {
            row[p] = row[p].sub(Rat::from_int(1));
        }
        for &q in post {
            row[q] = row[q].sub(Rat::from_int(-1));
        }
        if row.iter().any(|r| !r.is_zero()) {
            rows.push(row);
        }
    }
    // Gaussian elimination to row echelon form; record pivot columns.
    let ncols = abs.num_places;
    let mut pivot_col_of_row = Vec::new();
    let mut r = 0usize;
    for c in 0..ncols {
        // Find a pivot.
        let Some(pr) = (r..rows.len()).find(|&i| !rows[i][c].is_zero()) else {
            continue;
        };
        rows.swap(r, pr);
        let piv = rows[r][c];
        for x in rows[r].iter_mut() {
            *x = x.div(piv);
        }
        let pivot_row = rows[r].clone();
        for (i, row) in rows.iter_mut().enumerate() {
            if i != r && !row[c].is_zero() {
                let f = row[c];
                for (x, pv) in row.iter_mut().zip(&pivot_row) {
                    *x = x.sub(f.mul(*pv));
                }
            }
        }
        pivot_col_of_row.push(c);
        r += 1;
        if r == rows.len() {
            break;
        }
    }
    let pivot_cols: HashSet<usize> = pivot_col_of_row.iter().copied().collect();
    let initial: HashSet<Place> = abs.initial.iter().copied().collect();
    // Each free column yields a null-space basis vector.
    let mut out = Vec::new();
    for free in 0..ncols {
        if pivot_cols.contains(&free) {
            continue;
        }
        // y[free] = 1; y[pivot c of row i] = -rows[i][free].
        let mut y = vec![Rat::ZERO; ncols];
        y[free] = Rat::from_int(1);
        for (i, &pc) in pivot_col_of_row.iter().enumerate() {
            y[pc] = Rat::ZERO.sub(rows[i][free]);
        }
        // Scale to primitive integer vector.
        let mut denom: i128 = 1;
        for v in &y {
            if !v.is_zero() {
                denom = lcm(denom, v.d);
            }
        }
        let ints: Vec<i128> = y.iter().map(|v| v.n * (denom / v.d)).collect();
        let g = ints
            .iter()
            .filter(|&&v| v != 0)
            .fold(0u128, |acc, &v| gcd(acc, v.unsigned_abs()))
            .max(1) as i128;
        let coeffs: Vec<(Place, i64)> = ints
            .iter()
            .enumerate()
            .filter(|(_, &v)| v != 0)
            .map(|(p, &v)| (p, (v / g) as i64))
            .collect();
        if coeffs.is_empty()
            || coeffs.len() > max_support
            || coeffs.iter().any(|&(_, a)| a.abs() > max_coeff)
        {
            continue;
        }
        let value: i64 = coeffs
            .iter()
            .map(|&(p, a)| if initial.contains(&p) { a } else { 0 })
            .sum();
        out.push(LinearInvariant { coeffs, value });
    }
    out
}

/// Which disabled-member rule of the stubborn-set closure ran, counted by
/// [`AmpleOracle::select`] so a test can show every branch was exercised.
#[derive(Debug, Default, Clone, Copy)]
pub struct ClosureBranches {
    /// A disabled internal action: its component must move.
    pub internal: u64,
    /// A raw-enabled interaction dominated by priority.
    pub dominated: u64,
    /// An interaction with an unoffered endpoint.
    pub unoffered: u64,
    /// An interaction with every endpoint offered and a false guard.
    pub guard_readers: u64,
}

/// The persistent-set selector `IndepInfo::select_ample` ran before its
/// seeds were pruned, kept as the oracle the selector is compared against:
/// every enabled action closed as a seed to its fixpoint (only a closure
/// sweeping the whole enabled set stops early), port offers re-evaluated
/// from the state, the strictly smallest candidate without a visible
/// action kept. Its tables are rebuilt from the public API alone.
pub struct AmpleOracle {
    /// The action table.
    steps: Vec<EnabledStep>,
    /// Action id of every compiled step.
    id_of: std::collections::HashMap<EnabledStep, u32>,
    /// Per action: the actions it depends on, itself included.
    dep: Vec<Vec<usize>>,
    /// Per component: the actions whose component support contains it.
    touch: Vec<Vec<usize>>,
    /// Per connector: the components its guard reads.
    guard_comps: Vec<Vec<CompId>>,
    /// Per connector: the components that can end a priority domination.
    prio_comps: Vec<Vec<CompId>>,
    oversized: bool,
    pub branches: ClosureBranches,
}

fn collect_param_endpoints(e: &Expr, out: &mut Vec<usize>) {
    match e {
        Expr::Const(_) | Expr::Var(_) => {}
        Expr::Param(k, _) => out.push(*k as usize),
        Expr::Unary(_, a) => collect_param_endpoints(a, out),
        Expr::Binary(_, a, b) => {
            collect_param_endpoints(a, out);
            collect_param_endpoints(b, out);
        }
        Expr::Ite(c, t, f) => {
            collect_param_endpoints(c, out);
            collect_param_endpoints(t, out);
            collect_param_endpoints(f, out);
        }
    }
}

impl AmpleOracle {
    pub fn new(sys: &System, indep: &IndepInfo) -> AmpleOracle {
        let n = indep.num_actions();
        let steps: Vec<EnabledStep> = (0..n).map(|a| indep.action(a)).collect();
        let id_of = (0..n).map(|a| (steps[a], a as u32)).collect();
        let oversized = indep.is_oversized();
        let dep = if oversized {
            Vec::new()
        } else {
            (0..n)
                .map(|a| (0..n).filter(|&b| !indep.independent(a, b)).collect())
                .collect()
        };
        let touch = (0..sys.num_components())
            .map(|c| {
                (0..n)
                    .filter(|&a| indep.action_comps(a).contains(c))
                    .collect()
            })
            .collect();
        let nconns = sys.num_connectors();
        let mut guard_comps = Vec::with_capacity(nconns);
        for ci in 0..nconns {
            let eps = sys.connector_endpoints(ConnId(ci as u32));
            let mut ks = Vec::new();
            collect_param_endpoints(&sys.connector(ConnId(ci as u32)).guard, &mut ks);
            let mut cs: Vec<CompId> = ks.iter().map(|&k| eps[k].0).collect();
            cs.sort_unstable();
            cs.dedup();
            guard_comps.push(cs);
        }
        let prio = sys.priority();
        let mut prio_comps: Vec<Vec<CompId>> = vec![Vec::new(); nconns];
        for rule in &prio.rules {
            let low = rule.low.0 as usize;
            for (comp, _) in sys.connector_endpoints(rule.high) {
                prio_comps[low].push(comp);
            }
            let (comps, _) = bip_core::indep::pred_support(sys, &rule.guard);
            prio_comps[low].extend(comps.iter());
        }
        if prio.maximal_progress {
            for (ci, row) in prio_comps.iter_mut().enumerate() {
                for (comp, _) in sys.connector_endpoints(ConnId(ci as u32)) {
                    row.push(comp);
                }
            }
        }
        for row in &mut prio_comps {
            row.sort_unstable();
            row.dedup();
        }
        AmpleOracle {
            steps,
            id_of,
            dep,
            touch,
            guard_comps,
            prio_comps,
            oversized,
            branches: ClosureBranches::default(),
        }
    }

    /// The ample set `select_ample` must choose for `st` (ascending action
    /// ids), or `None` where it must decline. `es` must be refreshed for
    /// `st`.
    pub fn select(
        &mut self,
        sys: &System,
        st: &State,
        es: &EnabledSet,
        hash: u64,
        visible: Option<&PlaceSet>,
    ) -> Option<Vec<u32>> {
        if self.oversized {
            return None;
        }
        let mut enabled_list: Vec<u32> = Vec::new();
        sys.for_each_enabled(st, es, |step| enabled_list.push(self.id_of[&step]));
        let n_enabled = enabled_list.len();
        if n_enabled <= 1 {
            return None;
        }
        let is_enabled = |a: usize| enabled_list.contains(&(a as u32));
        let mut best: Option<Vec<u32>> = None;
        for k in 0..n_enabled {
            let seed = enabled_list[((k as u64 + hash) % n_enabled as u64) as usize] as usize;
            let mut in_t = vec![false; self.dep.len()];
            let mut stack = vec![seed];
            in_t[seed] = true;
            let mut swept = 1usize;
            while let Some(t) = stack.pop() {
                let row: Vec<usize> = if is_enabled(t) {
                    self.dep[t].clone()
                } else {
                    self.movers(sys, st, es, t)
                        .into_iter()
                        .flat_map(|c| self.touch[c].iter().copied())
                        .collect()
                };
                for j in row {
                    if !in_t[j] {
                        in_t[j] = true;
                        stack.push(j);
                        if is_enabled(j) {
                            swept += 1;
                        }
                    }
                }
                if swept >= n_enabled {
                    break;
                }
            }
            let best_len = best.as_ref().map_or(usize::MAX, Vec::len);
            if swept >= best_len.min(n_enabled) {
                continue;
            }
            let cand: Vec<u32> = enabled_list
                .iter()
                .copied()
                .filter(|&a| in_t[a as usize])
                .collect();
            if visible.is_some_and(|vis| cand.iter().any(|&a| vis.contains(a as usize))) {
                continue;
            }
            let done = cand.len() == 1;
            best = Some(cand);
            if done {
                break;
            }
        }
        best
    }

    /// The components one of which must move before the disabled action
    /// `t` can fire.
    fn movers(&mut self, sys: &System, st: &State, es: &EnabledSet, t: usize) -> Vec<CompId> {
        match self.steps[t] {
            EnabledStep::Internal { component, .. } => {
                self.branches.internal += 1;
                vec![component]
            }
            EnabledStep::Interaction(ir) => {
                let ci = ir.connector.0 as usize;
                if es.masks(ir.connector).binary_search(&ir.mask).is_ok() {
                    self.branches.dominated += 1;
                    return self.prio_comps[ci].clone();
                }
                let eps = sys.connector_endpoints(ir.connector);
                let unoffered = mask_endpoints(ir.mask, eps.len()).find(|&i| {
                    let (comp, port) = eps[i];
                    !sys.port_offered(st, comp, port)
                });
                match unoffered {
                    Some(i) => {
                        self.branches.unoffered += 1;
                        vec![eps[i].0]
                    }
                    None => {
                        self.branches.guard_readers += 1;
                        self.guard_comps[ci].clone()
                    }
                }
            }
        }
    }
}

/// The first sequential explorer, kept verbatim as the reachability
/// reference (heap `State` keys, a FIFO queue, a `HashMap` seen set).
/// Successors pruned at `max_states` still count as transitions, so its
/// reports equal the engine's edge for edge only on complete runs.
pub fn pr1_explore(sys: &System, max_states: usize) -> ReachReport {
    let start = std::time::Instant::now();
    let mut seen: HashMap<State, ()> = HashMap::new();
    let mut queue = VecDeque::new();
    let mut transitions = 0usize;
    let mut deadlocks = Vec::new();
    let mut complete = true;
    let init = sys.initial_state();
    seen.insert(init.clone(), ());
    queue.push_back(init);
    while let Some(st) = queue.pop_front() {
        let succ = sys.successors(&st);
        if succ.is_empty() {
            deadlocks.push(st.clone());
        }
        for (_, next) in succ {
            transitions += 1;
            if !seen.contains_key(&next) {
                if seen.len() >= max_states {
                    complete = false;
                    continue;
                }
                seen.insert(next.clone(), ());
                queue.push_back(next);
            }
        }
    }
    ReachReport {
        states: seen.len(),
        transitions,
        deadlocks,
        complete,
        // The reference seen set has no packed footprint.
        stored_bytes: 0,
        stop: if complete {
            StopReason::Completed
        } else {
            StopReason::BoundExhausted
        },
        elapsed: start.elapsed(),
        peak_bytes: 0,
        checkpoint: None,
    }
}

/// The intern-heavy token ring: `n` nodes whose counters are unbounded (the
/// holder's `work` increments with no guard), so the adaptive codec interns
/// every counter. The state space is infinite: explorations must be bounded.
pub fn unbounded_ring(n: usize) -> System {
    token_ring(n, Expr::t())
}

/// The var-heavy token ring: the holder may `work` while its counter is
/// below `k`. About `n · (k+1)^n` states, whose footprint is dominated by
/// the counters: 64 bits each under the full-width codec,
/// `ceil(log2(k+1))` under the adaptive one.
pub fn counter_ring(n: usize, k: i64) -> System {
    assert!(k >= 1);
    token_ring(n, Expr::var(0).lt(Expr::int(k)))
}

/// The planted-bug family: a counter (component 0) stepping `n := n + 1`
/// while `n < limit`, so `n == d` sits exactly `d` steps deep, beside
/// `toggles` independent two-location components that pad the breadth.
pub fn planted(limit: i64, toggles: usize) -> System {
    let counter = AtomBuilder::new("counter")
        .location("run")
        .initial("run")
        .var("n", 0)
        .internal_transition(
            "run",
            Expr::var(0).lt(Expr::int(limit)),
            vec![("n", Expr::var(0).add(Expr::int(1)))],
            "run",
        )
        .build()
        .unwrap();
    let toggle = toggle();
    let mut sb = SystemBuilder::new();
    sb.add_instance("cnt", &counter);
    for i in 0..toggles {
        let c = sb.add_instance(format!("tgl{i}"), &toggle);
        sb.add_connector(ConnectorBuilder::singleton(format!("flip{i}"), c, "t"));
    }
    sb.build().unwrap()
}

/// A two-location component flipping on its one port `t`.
fn toggle() -> AtomType {
    AtomBuilder::new("toggle")
        .port("t")
        .location("a")
        .location("b")
        .initial("a")
        .transition("a", "t", "b")
        .transition("b", "t", "a")
        .build()
        .unwrap()
}

/// The counter of [`planted`] never reaches `depth`.
pub fn planted_invariant(depth: i64) -> StatePred {
    StatePred::Eq(GExpr::var(0, 0), GExpr::int(depth)).not()
}

/// At most one node of a token ring holds the token (`hold` is location 1
/// of every [`counter_ring`] / [`unbounded_ring`] node).
pub fn ring_token_mutex(n: usize) -> StatePred {
    let mut pairs = Vec::new();
    for i in 0..n {
        for j in i + 1..n {
            pairs.push(StatePred::at_loc(i, 1).and(StatePred::at_loc(j, 1)).not());
        }
    }
    StatePred::And(pairs)
}

/// Adjacent philosophers never eat together (`eating` is location 1 of
/// every philosopher of the conservative [`bip_core::dining_philosophers`]).
pub fn adjacent_mutex(n: usize) -> StatePred {
    StatePred::And(
        (0..n)
            .map(|i| {
                StatePred::at_loc(i, 1)
                    .and(StatePred::at_loc((i + 1) % n, 1))
                    .not()
            })
            .collect(),
    )
}

/// The conservative dining philosophers with every component crashable.
/// Unbudgeted and unrecoverable, the all-crashed deadlock is reachable;
/// with `budget = Some(1)` and a recovery spec
/// [`bip_core::fault::single_fault_invariant`] is 1-inductive.
pub fn crash_recovery_philosophers(n: usize, budget: Option<u32>, recover: RecoverSpec) -> System {
    let base = bip_core::dining_philosophers(n, false).unwrap();
    let mut spec = FaultSpec::crash_all().recover(recover);
    if let Some(b) = budget {
        spec = spec.budget(b);
    }
    bip_core::fault::inject(&base, &spec).unwrap()
}

/// The one-shot inductive-step formula at depth `k`, rebuilt from the public
/// `StepEncoder` and `CnfBuilder` API alone: `k + 2` pairwise-distinct
/// frames chained by the step relation, `inv` asserted on frames `0..=k`,
/// its negation on frame `k + 1`, one cold solve. Returns whether it is
/// unsatisfiable — the answer `bip_verify::kind::certify_step` must give.
/// Panics if the system does not encode under the default enumeration
/// budget; call it only where `certify_step` encoded.
pub fn one_shot_step(sys: &System, inv: &StatePred, k: usize) -> bool {
    let mut enc = bip_core::sym::StepEncoder::new(sys).expect("the system encodes");
    let mut b = satkit::CnfBuilder::new();
    let mut frames = vec![enc.new_frame(&mut b)];
    for _ in 0..=k {
        let next = enc.new_frame(&mut b);
        let prev = frames.last_mut().expect("frame 0 exists");
        enc.encode_step(&mut b, prev, &next)
            .expect("the step encodes");
        for earlier in &frames {
            enc.assert_frames_distinct(&mut b, earlier, &next);
        }
        frames.push(next);
    }
    for (i, frame) in frames.iter_mut().enumerate() {
        let holds = enc
            .encode_pred(&mut b, frame, inv)
            .expect("the invariant encodes");
        b.assert_lit(if i <= k { holds } else { !holds });
    }
    b.solver_mut().solve().is_unsat()
}

/// The ring families' topology: one token passed between neighbouring
/// `put`/`get` ports, and a `work` self-loop incrementing the holder's
/// counter while `work_guard` holds.
fn token_ring(n: usize, work_guard: Expr) -> System {
    assert!(n >= 2);
    let node = |first: bool| {
        AtomBuilder::new(if first { "holder" } else { "node" })
            .var("c", 0)
            .port("get")
            .port("put")
            .port("work")
            .location("idle")
            .location("hold")
            .initial(if first { "hold" } else { "idle" })
            .transition("idle", "get", "hold")
            .transition("hold", "put", "idle")
            .guarded_transition(
                "hold",
                "work",
                work_guard.clone(),
                vec![("c", Expr::var(0).add(Expr::int(1)))],
                "hold",
            )
            .build()
            .unwrap()
    };
    let holder = node(true);
    let idle = node(false);
    let mut sb = SystemBuilder::new();
    for i in 0..n {
        sb.add_instance(format!("n{i}"), if i == 0 { &holder } else { &idle });
    }
    for i in 0..n {
        sb.add_connector(ConnectorBuilder::rendezvous(
            format!("pass{i}"),
            [(i, "put"), ((i + 1) % n, "get")],
        ));
        sb.add_connector(ConnectorBuilder::singleton(format!("work{i}"), i, "work"));
    }
    sb.build().unwrap()
}
