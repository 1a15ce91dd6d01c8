//! The CDCL solver core.

use crate::{Lit, Var};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Result of a [`Solver::solve`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[must_use = "a solve verdict should be inspected, not dropped"]
pub enum SolveResult {
    /// A satisfying assignment was found; read it with [`Solver::value`].
    Sat,
    /// The formula is unsatisfiable.
    Unsat,
    /// The solve was cut short by a resource limit ([`SolveLimits`]) or an
    /// external interrupt flag ([`Solver::set_interrupt`]) before reaching a
    /// verdict. The formula's status is undetermined; the solver state stays
    /// valid and a later (larger-budget) solve may continue where learning
    /// left off.
    Unknown,
}

impl SolveResult {
    /// `true` if the result is [`SolveResult::Sat`].
    #[must_use]
    pub fn is_sat(self) -> bool {
        matches!(self, SolveResult::Sat)
    }

    /// `true` if the result is [`SolveResult::Unsat`].
    #[must_use]
    pub fn is_unsat(self) -> bool {
        matches!(self, SolveResult::Unsat)
    }

    /// `true` if the result is [`SolveResult::Unknown`].
    #[must_use]
    pub fn is_unknown(self) -> bool {
        matches!(self, SolveResult::Unknown)
    }
}

/// Resource ceilings for a single [`Solver::solve_limited`] call.
///
/// Ceilings are *per call*: they bound how much additional work this solve
/// may do on top of the cumulative [`Solver::conflicts`] /
/// [`Solver::propagations`] counters. `None` means unlimited. A tripped
/// ceiling yields [`SolveResult::Unknown`], never a wrong verdict, and is
/// deterministic for a given formula and assumption sequence (unlike
/// wall-clock deadlines).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolveLimits {
    /// Maximum conflicts this call may spend.
    pub max_conflicts: Option<u64>,
    /// Maximum unit propagations this call may spend.
    pub max_propagations: Option<u64>,
}

impl SolveLimits {
    /// No limits: `solve_limited` behaves exactly like `solve_with`.
    #[must_use]
    pub fn unlimited() -> SolveLimits {
        SolveLimits::default()
    }

    /// Limit the conflicts this call may spend.
    #[must_use]
    pub fn conflicts(mut self, n: u64) -> SolveLimits {
        self.max_conflicts = Some(n);
        self
    }

    /// Limit the unit propagations this call may spend.
    #[must_use]
    pub fn propagations(mut self, n: u64) -> SolveLimits {
        self.max_propagations = Some(n);
        self
    }
}

/// When to restart the search (throw away the current partial assignment
/// and re-descend with fresh decision ordering).
///
/// Restarts trade re-derivation cost against escaping a bad subtree. The
/// right trade-off depends on the workload, so the policy is a per-solver
/// config ([`Solver::set_restart_policy`]):
///
/// * [`RestartPolicy::Luby`] — the classic reluctant-doubling schedule;
///   robust on short solves (D-Finder's per-seed trap instances) where
///   adaptive state has no time to calibrate.
/// * [`RestartPolicy::Glucose`] — restart when the *fast* exponential
///   moving average of recent learnt-clause LBDs exceeds the *slow* one by
///   `threshold_percent` (the search is currently producing worse-than-
///   typical glue, so the subtree is bad). Suited to one long persistent
///   solve (BMC deep unrolls).
/// * [`RestartPolicy::Hybrid`] — alternate Glucose-adaptive phases with
///   Luby stabilization phases every `phase_conflicts` conflicts, glucose-4
///   style: adaptive phases drill through UNSAT cores, stable phases let
///   SAT-leaning assignments survive long enough to complete. The default.
///
/// All policies are deterministic: restart points are a pure function of
/// the conflict sequence, so solver runs stay reproducible.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RestartPolicy {
    /// Luby sequence scaled by `base` conflicts (1·base, 1·base, 2·base, …).
    Luby {
        /// Conflicts per Luby unit.
        base: u64,
    },
    /// Glucose-style adaptive restarts from fast/slow LBD EMAs.
    Glucose {
        /// Minimum conflicts between restarts (the EMA gate is only
        /// consulted after this many conflicts since the last restart).
        min_interval: u64,
        /// Restart when `ema_fast * 100 > ema_slow * threshold_percent`.
        threshold_percent: u64,
    },
    /// Alternate [`RestartPolicy::Glucose`] phases with
    /// [`RestartPolicy::Luby`] stabilization phases.
    Hybrid {
        /// Conflicts per Luby unit in stabilization phases.
        base: u64,
        /// Minimum conflicts between adaptive restarts.
        min_interval: u64,
        /// Adaptive trigger: `ema_fast * 100 > ema_slow * threshold_percent`.
        threshold_percent: u64,
        /// Conflicts per phase before switching adaptive <-> stable.
        phase_conflicts: u64,
    },
}

impl RestartPolicy {
    /// The classic Luby schedule with the conventional 64-conflict base.
    #[must_use]
    pub fn luby() -> RestartPolicy {
        RestartPolicy::Luby { base: 64 }
    }

    /// Glucose-style adaptive restarts with conventional parameters
    /// (50-conflict minimum interval, 1.25× threshold).
    #[must_use]
    pub fn glucose() -> RestartPolicy {
        RestartPolicy::Glucose {
            min_interval: 50,
            threshold_percent: 125,
        }
    }

    /// The default: adaptive restarts alternating with Luby stabilization
    /// every 5000 conflicts.
    #[must_use]
    pub fn hybrid() -> RestartPolicy {
        RestartPolicy::Hybrid {
            base: 64,
            min_interval: 50,
            threshold_percent: 125,
            phase_conflicts: 5000,
        }
    }
}

impl Default for RestartPolicy {
    fn default() -> RestartPolicy {
        RestartPolicy::hybrid()
    }
}

/// Incremental Luby-sequence generator (Knuth's "reluctant doubling":
/// `(u, v) -> if u & -u == v { (u+1, 1) } else { (u, 2v) }` yields
/// 1 1 2 1 1 2 4 …). O(1) per step — the solver carries this state across
/// restarts instead of recomputing the sequence from the restart index.
#[derive(Debug, Clone, Copy)]
struct LubyGen {
    u: u64,
    v: u64,
}

impl LubyGen {
    fn new() -> LubyGen {
        LubyGen { u: 1, v: 1 }
    }

    fn next(&mut self) -> u64 {
        let out = self.v;
        if self.u & self.u.wrapping_neg() == self.v {
            self.u += 1;
            self.v = 1;
        } else {
            self.v *= 2;
        }
        out
    }
}

/// Per-solve restart driver: policy + Luby generator + phase bookkeeping.
#[derive(Debug)]
struct RestartCtl {
    policy: RestartPolicy,
    luby: LubyGen,
    /// Current Luby interval (conflicts until restart, Luby-mode phases).
    interval: u64,
    /// Conflicts since the last restart.
    since: u64,
    /// Hybrid only: currently in a Luby stabilization phase?
    stable: bool,
    /// Hybrid only: conflicts left in the current phase.
    phase_left: u64,
}

impl RestartCtl {
    fn new(policy: RestartPolicy) -> RestartCtl {
        let mut luby = LubyGen::new();
        let (interval, stable, phase_left) = match policy {
            RestartPolicy::Luby { base } => (luby.next() * base, true, u64::MAX),
            RestartPolicy::Glucose { .. } => (0, false, u64::MAX),
            // Hybrid starts adaptive (glucose-4 style) and stabilizes later.
            RestartPolicy::Hybrid {
                base,
                phase_conflicts,
                ..
            } => (luby.next() * base, false, phase_conflicts),
        };
        RestartCtl {
            policy,
            luby,
            interval,
            since: 0,
            stable,
            phase_left,
        }
    }

    fn on_conflict(&mut self) {
        self.since += 1;
        if let RestartPolicy::Hybrid {
            phase_conflicts, ..
        } = self.policy
        {
            self.phase_left -= 1;
            if self.phase_left == 0 {
                self.stable = !self.stable;
                self.phase_left = phase_conflicts;
                self.since = 0;
            }
        }
    }

    fn should_restart(&self, ema_fast: f64, ema_slow: f64) -> bool {
        let adaptive = |min_interval: u64, threshold_percent: u64| {
            self.since >= min_interval && ema_fast * 100.0 > ema_slow * threshold_percent as f64
        };
        match self.policy {
            RestartPolicy::Luby { .. } => self.since >= self.interval,
            RestartPolicy::Glucose {
                min_interval,
                threshold_percent,
            } => adaptive(min_interval, threshold_percent),
            RestartPolicy::Hybrid {
                min_interval,
                threshold_percent,
                ..
            } => {
                if self.stable {
                    self.since >= self.interval
                } else {
                    adaptive(min_interval, threshold_percent)
                }
            }
        }
    }

    fn on_restart(&mut self) {
        self.since = 0;
        let base = match self.policy {
            RestartPolicy::Luby { base } => Some(base),
            RestartPolicy::Hybrid { base, .. } if self.stable => Some(base),
            _ => None,
        };
        if let Some(base) = base {
            self.interval = self.luby.next() * base;
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Value {
    True,
    False,
    Unassigned,
}

/// Learnt-clause tier, derived from the clause's literal-block distance
/// (LBD, "glue"): the number of distinct decision levels among its
/// literals. Low-LBD clauses chain propagations across few levels and are
/// empirically the ones worth keeping forever.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Tier {
    /// LBD ≤ 2 ("glue clauses"): kept forever, never reduced.
    Core = 0,
    /// 2 < LBD ≤ 6: kept, but demoted to Local if untouched for a whole
    /// reduction round.
    Mid = 1,
    /// LBD > 6 (or demoted): the reduction pool — worst half dropped when
    /// the learnt ceiling trips.
    Local = 2,
}

/// Core tier: LBD at or below this is kept forever.
const CORE_LBD_MAX: u32 = 2;
/// Mid tier ceiling; above this a learnt clause starts in the Local pool.
const MID_LBD_MAX: u32 = 6;
/// Geometric growth factor of the learnt-clause ceiling per reduction.
const LEARNT_CEILING_GROWTH: f64 = 1.1;
/// Default initial learnt-clause ceiling (Local-tier clauses) unless
/// overridden by [`Solver::set_learnt_ceiling`]; the per-formula initial
/// ceiling is `max(this, clauses/3)`.
const LEARNT_CEILING_MIN: f64 = 2000.0;

fn tier_for(lbd: u32) -> Tier {
    if lbd <= CORE_LBD_MAX {
        Tier::Core
    } else if lbd <= MID_LBD_MAX {
        Tier::Mid
    } else {
        Tier::Local
    }
}

/// Reference to a clause in the arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ClauseRef(u32);

#[derive(Debug, Clone)]
struct Clause {
    lits: Vec<Lit>,
    learnt: bool,
    /// Activity for clause-DB reduction (tie-break within equal LBD).
    activity: f64,
    /// Literal-block distance at learning time, updated downward whenever
    /// the clause is touched during conflict analysis. 0 for problem
    /// clauses (whose LBD is never consulted).
    lbd: u32,
    /// Current tier (meaningful for learnt clauses only).
    tier: Tier,
    /// Touched since the last reduction round with an improved LBD:
    /// spared from that round, then the flag is cleared.
    protected: bool,
}

/// Indexed binary max-heap over variables, ordered by activity with
/// deterministic index tie-breaking (lower index wins, matching the old
/// linear scan's first-max choice). Replaces the O(vars) scan per decision
/// in `pick_branch_var`: decisions are O(log vars), bumps are O(log vars),
/// and backtracking reinserts lazily.
#[derive(Debug, Default)]
struct VarOrder {
    /// Heap of variable indices.
    heap: Vec<u32>,
    /// `pos[v]` = index of `v` in `heap`, or `ABSENT`.
    pos: Vec<u32>,
}

const ABSENT: u32 = u32::MAX;

impl VarOrder {
    /// `a` orders strictly before `b` (max-heap: higher activity first,
    /// then lower index).
    #[inline]
    fn better(activity: &[f64], a: u32, b: u32) -> bool {
        let (aa, ab) = (activity[a as usize], activity[b as usize]);
        aa > ab || (aa == ab && a < b)
    }

    /// Register a freshly created variable and insert it.
    fn push_var(&mut self, activity: &[f64]) {
        let v = self.pos.len() as u32;
        self.pos.push(ABSENT);
        self.insert(v, activity);
    }

    fn contains(&self, v: u32) -> bool {
        self.pos[v as usize] != ABSENT
    }

    fn insert(&mut self, v: u32, activity: &[f64]) {
        if self.contains(v) {
            return;
        }
        self.pos[v as usize] = self.heap.len() as u32;
        self.heap.push(v);
        self.sift_up(self.heap.len() - 1, activity);
    }

    /// Restore the heap property after `v`'s activity increased.
    fn bumped(&mut self, v: u32, activity: &[f64]) {
        if self.contains(v) {
            self.sift_up(self.pos[v as usize] as usize, activity);
        }
    }

    fn pop(&mut self, activity: &[f64]) -> Option<u32> {
        let top = *self.heap.first()?;
        self.pos[top as usize] = ABSENT;
        let last = self.heap.pop().expect("non-empty");
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.pos[last as usize] = 0;
            self.sift_down(0, activity);
        }
        Some(top)
    }

    fn sift_up(&mut self, mut i: usize, activity: &[f64]) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if Self::better(activity, self.heap[i], self.heap[parent]) {
                self.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut i: usize, activity: &[f64]) {
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let mut best = i;
            if l < self.heap.len() && Self::better(activity, self.heap[l], self.heap[best]) {
                best = l;
            }
            if r < self.heap.len() && Self::better(activity, self.heap[r], self.heap[best]) {
                best = r;
            }
            if best == i {
                break;
            }
            self.swap(i, best);
            i = best;
        }
    }

    fn swap(&mut self, i: usize, j: usize) {
        self.heap.swap(i, j);
        self.pos[self.heap[i] as usize] = i as u32;
        self.pos[self.heap[j] as usize] = j as u32;
    }
}

#[derive(Debug, Clone, Copy)]
struct Watch {
    clause: ClauseRef,
    /// The other watched literal; lets us skip clause inspection when it is
    /// already true (blocking literal optimization).
    blocker: Lit,
}

/// Per-variable trail bookkeeping.
#[derive(Debug, Clone, Copy)]
struct VarInfo {
    reason: Option<ClauseRef>,
    level: u32,
}

/// A conflict-driven clause-learning SAT solver.
///
/// See the crate docs for an example. Clauses may be added at any time before
/// [`Solver::solve`]; solving is restartable (assumptions are supported via
/// [`Solver::solve_with`]).
#[derive(Debug, Default)]
pub struct Solver {
    clauses: Vec<Clause>,
    /// watches[lit.index()] = clauses watching `lit` (i.e. containing `!lit`
    /// watched... we watch the literal itself: watches are indexed by the
    /// *falsified* literal).
    watches: Vec<Vec<Watch>>,
    assigns: Vec<Value>,
    var_info: Vec<VarInfo>,
    /// Saved phases for phase-saving.
    phase: Vec<bool>,
    activity: Vec<f64>,
    /// Decision order: indexed max-heap on `activity` (lazy deletion of
    /// assigned variables; backtracking reinserts).
    order: VarOrder,
    var_inc: f64,
    cla_inc: f64,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    /// Set when an empty clause (or conflicting units) was added.
    ok: bool,
    /// Statistics: number of conflicts encountered so far.
    conflicts: u64,
    decisions: u64,
    propagations: u64,
    restarts: u64,
    /// Number of learnt clauses currently in the database (maintained
    /// incrementally so [`Solver::num_learnts`] is O(1)).
    num_learnts: usize,
    /// Learnt clauses per tier (`[Core, Mid, Local]`), maintained
    /// incrementally across attach / promotion / demotion / reduction.
    tier_counts: [usize; 3],
    /// Restart schedule for subsequent solve calls.
    restart_policy: RestartPolicy,
    /// Live restart controller. Kept across solve calls for the hybrid
    /// policy (its adaptive/stable phase schedule spans queries on a
    /// persistent solver); recreated per call otherwise.
    restart_ctl: Option<RestartCtl>,
    /// Level-stamp scratch for O(|clause|) LBD computation.
    lbd_stamp: Vec<u64>,
    lbd_token: u64,
    /// Cumulative sum/count of learnt-clause LBDs (drives `avg_lbd`).
    lbd_sum: u64,
    lbd_count: u64,
    /// Fast (1/32) and slow (1/4096) exponential moving averages of recent
    /// learnt-clause LBDs; the adaptive restart signal.
    ema_fast: f64,
    ema_slow: f64,
    /// Local-tier clause ceiling driving `reduce_db`; grows geometrically.
    /// 0.0 = not yet initialized (first solve derives it from formula size).
    max_learnts: f64,
    /// Number of clause-DB reductions performed.
    reduces: u64,
    /// External interrupt flag, polled once per search-loop iteration.
    interrupt: Option<Arc<AtomicBool>>,
    /// Failing assumption subset of the most recent UNSAT `solve_with` /
    /// `solve_limited` call (empty after Sat/Unknown or a root-level UNSAT).
    failed: Vec<Lit>,
}

impl Solver {
    /// Create an empty solver.
    pub fn new() -> Solver {
        Solver {
            var_inc: 1.0,
            cla_inc: 1.0,
            ok: true,
            ..Default::default()
        }
    }

    /// Number of variables created so far.
    #[must_use]
    pub fn num_vars(&self) -> usize {
        self.assigns.len()
    }

    /// Number of clauses (original + learnt) currently in the database.
    #[must_use]
    pub fn num_clauses(&self) -> usize {
        self.clauses.len()
    }

    /// Number of learnt clauses currently in the database (shrinks when
    /// clause-DB reduction discards inactive learnts).
    #[must_use]
    pub fn num_learnts(&self) -> usize {
        self.num_learnts
    }

    /// Number of conflicts encountered across all `solve` calls.
    #[must_use]
    pub fn conflicts(&self) -> u64 {
        self.conflicts
    }

    /// Number of decisions made across all `solve` calls.
    #[must_use]
    pub fn decisions(&self) -> u64 {
        self.decisions
    }

    /// Number of unit propagations performed across all `solve` calls.
    #[must_use]
    pub fn propagations(&self) -> u64 {
        self.propagations
    }

    /// Number of restarts performed across all `solve` calls.
    #[must_use]
    pub fn restarts(&self) -> u64 {
        self.restarts
    }

    /// Number of learnt-clause database reductions performed.
    #[must_use]
    pub fn reduces(&self) -> u64 {
        self.reduces
    }

    /// Mean literal-block distance (LBD, "glue") over every clause learnt
    /// so far; `0.0` before the first conflict. Low values mean the search
    /// is producing strong, level-local clauses.
    #[must_use]
    pub fn avg_lbd(&self) -> f64 {
        if self.lbd_count == 0 {
            0.0
        } else {
            self.lbd_sum as f64 / self.lbd_count as f64
        }
    }

    /// [`Solver::avg_lbd`] in fixed-point milli-units (`avg * 1000`,
    /// truncated). Integer-exact and deterministic, so reports that derive
    /// `Eq` can carry it.
    #[must_use]
    pub fn avg_lbd_milli(&self) -> u64 {
        (self.lbd_sum * 1000)
            .checked_div(self.lbd_count)
            .unwrap_or(0)
    }

    /// Fast exponential moving average (1/32 step) of recent learnt-clause
    /// LBDs — the numerator of the adaptive restart signal.
    #[must_use]
    pub fn lbd_ema_fast(&self) -> f64 {
        self.ema_fast
    }

    /// Slow exponential moving average (1/4096 step) of learnt-clause
    /// LBDs — the adaptive restart baseline.
    #[must_use]
    pub fn lbd_ema_slow(&self) -> f64 {
        self.ema_slow
    }

    /// Current learnt-clause counts per tier: `(core, mid, local)`. Core
    /// (LBD ≤ 2) is kept forever; Mid (LBD ≤ 6) survives reductions but
    /// demotes to Local when untouched for a round; Local is the reduction
    /// pool.
    #[must_use]
    pub fn tier_sizes(&self) -> (usize, usize, usize) {
        (
            self.tier_counts[0],
            self.tier_counts[1],
            self.tier_counts[2],
        )
    }

    /// The restart schedule used by subsequent solve calls.
    #[must_use]
    pub fn restart_policy(&self) -> RestartPolicy {
        self.restart_policy
    }

    /// Set the restart schedule for subsequent solve calls (the default is
    /// [`RestartPolicy::hybrid`]). Takes effect at the next solve call;
    /// adaptive EMA state persists across calls either way.
    pub fn set_restart_policy(&mut self, policy: RestartPolicy) {
        self.restart_policy = policy;
        // Drop any carried schedule: the next solve starts the new policy
        // from its initial phase.
        self.restart_ctl = None;
    }

    /// Override the Local-tier learnt-clause ceiling that triggers
    /// database reduction (it still grows geometrically from here). The
    /// default is derived from the formula size at the first solve call.
    /// Mainly a testing/tuning hook — lowering it forces frequent
    /// reductions.
    pub fn set_learnt_ceiling(&mut self, ceiling: usize) {
        self.max_learnts = (ceiling as f64).max(1.0);
    }

    /// Install (or clear) an external interrupt flag.
    ///
    /// While set, every solve variant polls the flag once per search-loop
    /// iteration and returns [`SolveResult::Unknown`] as soon as it reads
    /// `true`. The flag is shared (callers keep a clone and set it from
    /// another thread); it persists across solve calls and is *not* reset by
    /// the solver, so a cancelled token keeps cutting subsequent solves
    /// short until the caller clears it.
    pub fn set_interrupt(&mut self, flag: Option<Arc<AtomicBool>>) {
        self.interrupt = flag;
    }

    /// The failing assumption subset of the most recent solve call, in the
    /// order the assumptions were passed.
    ///
    /// After an [`SolveResult::Unsat`] answer from [`Solver::solve_with`] /
    /// [`Solver::solve_limited`], this is a subset `C` of the assumptions
    /// such that the formula is already unsatisfiable under `C` alone
    /// (computed MiniSat-`analyzeFinal` style from the final conflict). An
    /// *empty* core after UNSAT-under-assumptions means the formula is
    /// unsatisfiable regardless of any assumptions. After Sat/Unknown the
    /// slice is empty.
    #[must_use]
    pub fn failed_assumptions(&self) -> &[Lit] {
        &self.failed
    }

    /// Snapshot of the full assignment after a [`SolveResult::Sat`] answer.
    ///
    /// Index `i` holds the value of `Var(i)`; `None` marks variables left
    /// unassigned (created after solving, or before any solve). Taking one
    /// snapshot is cheaper than calling [`Solver::value`] per variable in a
    /// decode loop, and the snapshot stays valid after further clauses are
    /// added (which would invalidate the in-solver model).
    #[must_use]
    pub fn model(&self) -> Vec<Option<bool>> {
        self.assigns
            .iter()
            .map(|v| match v {
                Value::True => Some(true),
                Value::False => Some(false),
                Value::Unassigned => None,
            })
            .collect()
    }

    /// Create a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var(self.assigns.len() as u32);
        self.assigns.push(Value::Unassigned);
        self.var_info.push(VarInfo {
            reason: None,
            level: 0,
        });
        self.phase.push(false);
        self.activity.push(0.0);
        self.order.push_var(&self.activity);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        v
    }

    /// Ensure variables `0..n` exist.
    pub fn reserve_vars(&mut self, n: usize) {
        while self.num_vars() < n {
            self.new_var();
        }
    }

    /// Add a clause (a disjunction of literals).
    ///
    /// Returns `false` if the solver is already known to be unsatisfiable
    /// (adding an empty clause, or a unit contradicting an earlier unit).
    pub fn add_clause<I: IntoIterator<Item = Lit>>(&mut self, lits: I) -> bool {
        if !self.ok {
            return false;
        }
        // Incremental use: drop any leftover decisions from a previous solve
        // (this invalidates the current model, so read it first).
        self.cancel_until(0);
        let mut lits: Vec<Lit> = lits.into_iter().collect();
        lits.sort();
        lits.dedup();
        // Remove false literals; drop tautologies and satisfied clauses.
        let mut i = 0;
        while i + 1 < lits.len() {
            if lits[i].var() == lits[i + 1].var() {
                return true; // tautology: contains l and !l
            }
            i += 1;
        }
        lits.retain(|&l| self.lit_value(l) != Value::False);
        if lits.iter().any(|&l| self.lit_value(l) == Value::True) {
            return true;
        }
        match lits.len() {
            0 => {
                self.ok = false;
                false
            }
            1 => {
                self.unchecked_enqueue(lits[0], None);
                self.ok = self.propagate().is_none();
                self.ok
            }
            _ => {
                self.attach_clause(lits, false, 0);
                true
            }
        }
    }

    fn attach_clause(&mut self, lits: Vec<Lit>, learnt: bool, lbd: u32) -> ClauseRef {
        debug_assert!(lits.len() >= 2);
        let cr = ClauseRef(self.clauses.len() as u32);
        let w0 = lits[0];
        let w1 = lits[1];
        let tier = tier_for(lbd);
        if learnt {
            self.num_learnts += 1;
            self.tier_counts[tier as usize] += 1;
        }
        self.clauses.push(Clause {
            lits,
            learnt,
            activity: 0.0,
            lbd,
            tier,
            protected: false,
        });
        // A clause is watched by the negations of its first two literals:
        // when `!w0` is assigned (w0 becomes false) we visit the clause.
        self.watches[(!w0).index()].push(Watch {
            clause: cr,
            blocker: w1,
        });
        self.watches[(!w1).index()].push(Watch {
            clause: cr,
            blocker: w0,
        });
        cr
    }

    fn lit_value(&self, l: Lit) -> Value {
        match self.assigns[l.var().index()] {
            Value::Unassigned => Value::Unassigned,
            Value::True => {
                if l.sign() {
                    Value::True
                } else {
                    Value::False
                }
            }
            Value::False => {
                if l.sign() {
                    Value::False
                } else {
                    Value::True
                }
            }
        }
    }

    /// The model value of `v` after a [`SolveResult::Sat`] answer.
    ///
    /// Returns `None` if the variable is unassigned (possible for variables
    /// created after solving, or before any solve).
    pub fn value(&self, v: Var) -> Option<bool> {
        match self.assigns[v.index()] {
            Value::True => Some(true),
            Value::False => Some(false),
            Value::Unassigned => None,
        }
    }

    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    fn unchecked_enqueue(&mut self, l: Lit, reason: Option<ClauseRef>) {
        debug_assert_eq!(self.lit_value(l), Value::Unassigned);
        self.assigns[l.var().index()] = if l.sign() { Value::True } else { Value::False };
        self.var_info[l.var().index()] = VarInfo {
            reason,
            level: self.decision_level(),
        };
        self.trail.push(l);
    }

    /// Propagate all enqueued assignments. Returns the conflicting clause, if
    /// any.
    fn propagate(&mut self) -> Option<ClauseRef> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.propagations += 1;
            // Visit clauses watching !p (p just became true, so !p is false).
            let false_lit = !p;
            let mut i = 0;
            let mut watches = std::mem::take(&mut self.watches[p.index()]);
            // Note: watches for literal `q` are stored at index of `!q`... we
            // store at (!w).index() in attach, so watches[p.index()] holds
            // clauses in which `!p`... Let us re-derive: attach pushes to
            // watches[(!w0).index()] where w0 is in the clause. When p is
            // assigned true, literal !p is falsified; clauses containing !p
            // as a watched literal live in watches[(!(!p)).index()] =
            // watches[p.index()]. Correct.
            'watches: while i < watches.len() {
                let w = watches[i];
                if self.lit_value(w.blocker) == Value::True {
                    i += 1;
                    continue;
                }
                let cr = w.clause;
                // Find the falsified watched literal in the clause and try to
                // move the watch elsewhere.
                {
                    let clause = &mut self.clauses[cr.0 as usize];
                    // Normalize: put the falsified literal at position 1.
                    if clause.lits[0] == false_lit {
                        clause.lits.swap(0, 1);
                    }
                    debug_assert_eq!(clause.lits[1], false_lit);
                }
                let first = self.clauses[cr.0 as usize].lits[0];
                if first != w.blocker && self.lit_value(first) == Value::True {
                    watches[i] = Watch {
                        clause: cr,
                        blocker: first,
                    };
                    i += 1;
                    continue;
                }
                // Look for a new literal to watch.
                let len = self.clauses[cr.0 as usize].lits.len();
                for k in 2..len {
                    let lk = self.clauses[cr.0 as usize].lits[k];
                    if self.lit_value(lk) != Value::False {
                        self.clauses[cr.0 as usize].lits.swap(1, k);
                        self.watches[(!lk).index()].push(Watch {
                            clause: cr,
                            blocker: first,
                        });
                        watches.swap_remove(i);
                        continue 'watches;
                    }
                }
                // No new watch: clause is unit or conflicting.
                if self.lit_value(first) == Value::False {
                    // Conflict. Restore remaining watches and bail out.
                    self.watches[p.index()] = watches;
                    self.qhead = self.trail.len();
                    return Some(cr);
                }
                self.unchecked_enqueue(first, Some(cr));
                i += 1;
            }
            self.watches[p.index()] = watches;
        }
        None
    }

    fn var_bump(&mut self, v: Var) {
        self.activity[v.index()] += self.var_inc;
        if self.activity[v.index()] > 1e100 {
            // Uniform rescale preserves relative order, so the heap
            // invariant is untouched.
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        self.order.bumped(v.0, &self.activity);
    }

    fn var_decay(&mut self) {
        self.var_inc /= 0.95;
    }

    fn clause_bump(&mut self, cr: ClauseRef) {
        let c = &mut self.clauses[cr.0 as usize];
        c.activity += self.cla_inc;
        if c.activity > 1e20 {
            // Rescale only learnt clauses: problem clauses never compete in
            // reduction, so their activity is never read — touching the
            // whole arena here was pure overhead.
            for c in self.clauses.iter_mut().filter(|c| c.learnt) {
                c.activity *= 1e-20;
            }
            self.cla_inc *= 1e-20;
        }
    }

    /// Literal-block distance of clause `ci` under the current assignment:
    /// the number of distinct non-root decision levels among its literals.
    /// O(|clause|) via a stamped level array (no clearing between calls).
    fn clause_lbd(&mut self, ci: usize) -> u32 {
        self.lbd_token += 1;
        let token = self.lbd_token;
        let mut lbd = 0u32;
        for k in 0..self.clauses[ci].lits.len() {
            let lvl = self.var_info[self.clauses[ci].lits[k].var().index()].level as usize;
            if lvl == 0 {
                continue;
            }
            if self.lbd_stamp.len() <= lvl {
                self.lbd_stamp.resize(lvl + 1, 0);
            }
            if self.lbd_stamp[lvl] != token {
                self.lbd_stamp[lvl] = token;
                lbd += 1;
            }
        }
        lbd
    }

    /// [`Solver::clause_lbd`] for a not-yet-attached literal slice.
    fn lits_lbd(&mut self, lits: &[Lit]) -> u32 {
        self.lbd_token += 1;
        let token = self.lbd_token;
        let mut lbd = 0u32;
        for &l in lits {
            let lvl = self.var_info[l.var().index()].level as usize;
            if lvl == 0 {
                continue;
            }
            if self.lbd_stamp.len() <= lvl {
                self.lbd_stamp.resize(lvl + 1, 0);
            }
            if self.lbd_stamp[lvl] != token {
                self.lbd_stamp[lvl] = token;
                lbd += 1;
            }
        }
        lbd
    }

    /// A learnt reason clause was touched during conflict analysis: bump
    /// its activity, refresh its LBD downward, promote its tier if the new
    /// LBD warrants it, and protect it from the next reduction round.
    fn clause_touched(&mut self, cr: ClauseRef) {
        self.clause_bump(cr);
        let ci = cr.0 as usize;
        if !self.clauses[ci].learnt {
            return;
        }
        let new = self.clause_lbd(ci);
        if new < self.clauses[ci].lbd {
            let old_tier = self.clauses[ci].tier;
            let new_tier = tier_for(new);
            if new_tier != old_tier {
                self.tier_counts[old_tier as usize] -= 1;
                self.tier_counts[new_tier as usize] += 1;
                self.clauses[ci].tier = new_tier;
            }
            self.clauses[ci].lbd = new;
            self.clauses[ci].protected = true;
        }
    }

    /// First-UIP conflict analysis. Returns the learnt clause (asserting
    /// literal first), the backtrack level, and the clause's literal-block
    /// distance (computed here, while the conflicting assignment is live).
    fn analyze(&mut self, confl: ClauseRef) -> (Vec<Lit>, u32, u32) {
        let mut learnt: Vec<Lit> = vec![Lit::from_index(0)]; // placeholder for UIP
        let mut seen = vec![false; self.num_vars()];
        let mut counter = 0u32;
        let mut p: Option<Lit> = None;
        let mut index = self.trail.len();
        let mut confl = Some(confl);

        loop {
            let cr = confl.expect("conflict analysis requires a reason");
            self.clause_touched(cr);
            let start = usize::from(p.is_some());
            for k in start..self.clauses[cr.0 as usize].lits.len() {
                let q = self.clauses[cr.0 as usize].lits[k];
                let vi = q.var().index();
                let lvl = self.var_info[vi].level;
                if !seen[vi] && lvl > 0 {
                    seen[vi] = true;
                    self.var_bump(q.var());
                    if lvl >= self.decision_level() {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Select next literal to look at.
            loop {
                index -= 1;
                let l = self.trail[index];
                if seen[l.var().index()] {
                    p = Some(l);
                    break;
                }
            }
            let pv = p.expect("found trail literal").var();
            seen[pv.index()] = false;
            counter -= 1;
            if counter == 0 {
                learnt[0] = !p.expect("UIP literal");
                break;
            }
            confl = self.var_info[pv.index()].reason;
        }

        // Clause minimization: drop literals implied by the rest.
        let keep: Vec<Lit> = learnt[1..]
            .iter()
            .copied()
            .filter(|&l| {
                let vi = l.var().index();
                match self.var_info[vi].reason {
                    None => true,
                    Some(r) => {
                        // Keep unless every other literal of the reason is seen.
                        self.clauses[r.0 as usize].lits.iter().skip(1).any(|&q| {
                            !seen[q.var().index()] && self.var_info[q.var().index()].level > 0
                        })
                    }
                }
            })
            .collect();
        let mut minimized = vec![learnt[0]];
        minimized.extend(keep);

        // Backtrack level = max level among non-UIP literals.
        let bt = minimized[1..]
            .iter()
            .map(|&l| self.var_info[l.var().index()].level)
            .max()
            .unwrap_or(0);
        // Put a literal of the backtrack level in position 1 (second watch).
        if minimized.len() > 1 {
            let pos = minimized[1..]
                .iter()
                .position(|&l| self.var_info[l.var().index()].level == bt)
                .expect("literal at backtrack level")
                + 1;
            minimized.swap(1, pos);
        }
        let lbd = self.lits_lbd(&minimized);
        (minimized, bt, lbd)
    }

    /// MiniSat-style `analyzeFinal`: trace the implication graph backwards
    /// from `seeds` (the literals of a conflicting clause, or a falsified
    /// asserting unit) and collect the assumption decisions reached —
    /// reason-free trail literals above level 0, which under an assumption
    /// prefix are exactly the enqueued assumptions. `extra` lets the caller
    /// include an assumption that conflicted before it could be enqueued.
    /// Returns the failing subset in `assumptions` order, deduplicated.
    fn analyze_final(&self, seeds: &[Lit], extra: Option<Lit>, assumptions: &[Lit]) -> Vec<Lit> {
        let mut seen = vec![false; self.num_vars()];
        let mut hit: Vec<Lit> = Vec::new();
        if let Some(a) = extra {
            hit.push(a);
        }
        for &l in seeds {
            if self.var_info[l.var().index()].level > 0 {
                seen[l.var().index()] = true;
            }
        }
        for k in (0..self.trail.len()).rev() {
            let l = self.trail[k];
            let vi = l.var().index();
            if !seen[vi] {
                continue;
            }
            seen[vi] = false;
            match self.var_info[vi].reason {
                None => {
                    if self.var_info[vi].level > 0 {
                        hit.push(l);
                    }
                }
                Some(r) => {
                    // lits[0] is the implied literal; its antecedents follow.
                    for &q in &self.clauses[r.0 as usize].lits[1..] {
                        if self.var_info[q.var().index()].level > 0 {
                            seen[q.var().index()] = true;
                        }
                    }
                }
            }
        }
        assumptions
            .iter()
            .copied()
            .enumerate()
            .filter(|&(i, a)| hit.contains(&a) && !assumptions[..i].contains(&a))
            .map(|(_, a)| a)
            .collect()
    }

    fn cancel_until(&mut self, level: u32) {
        if self.decision_level() <= level {
            return;
        }
        let lim = self.trail_lim[level as usize];
        for k in (lim..self.trail.len()).rev() {
            let l = self.trail[k];
            let vi = l.var().index();
            self.phase[vi] = l.sign();
            self.assigns[vi] = Value::Unassigned;
            self.var_info[vi].reason = None;
            // Lazy heap reinsertion: unassigned variables always live in
            // the order heap (pick_branch_var discards stale entries).
            self.order.insert(l.var().0, &self.activity);
        }
        self.trail.truncate(lim);
        self.trail_lim.truncate(level as usize);
        self.qhead = self.trail.len();
    }

    fn pick_branch_var(&mut self) -> Option<Var> {
        // O(log vars) heap pop, discarding entries assigned since they were
        // inserted (lazy deletion). Ties break on the lower variable index,
        // matching the old linear scan's first-max choice, so decision
        // sequences stay deterministic.
        while let Some(v) = self.order.pop(&self.activity) {
            if self.assigns[v as usize] == Value::Unassigned {
                return Some(Var(v));
            }
        }
        None
    }

    /// A clause is locked while it is the reason of the assignment of its
    /// first literal (propagation always enqueues `lits[0]`, and the watch
    /// normalization cannot displace a true watched literal).
    fn locked(&self, ci: u32) -> bool {
        let c = &self.clauses[ci as usize];
        self.var_info[c.lits[0].var().index()].reason == Some(ClauseRef(ci))
    }

    /// Tier-aware in-place reduction of the learnt-clause database.
    ///
    /// Core-tier (glue) and binary clauses are kept unconditionally; Mid
    /// clauses untouched since the last round demote to Local; the worst
    /// half of the Local pool (highest LBD, then lowest activity, then
    /// youngest) is dropped — except clauses protected this round or
    /// currently locked as a propagation reason. Compaction is in place:
    /// an index remap vector, watch lists patched entry-by-entry (never
    /// rebuilt), reasons remapped. No hashing anywhere.
    fn reduce_db(&mut self) {
        self.reduces += 1;
        let n = self.clauses.len();
        // Demote Mid-tier clauses that were never touched since the last
        // reduction; touched ones keep their tier (and their protection is
        // consumed below either way).
        for c in &mut self.clauses {
            if c.learnt && c.tier == Tier::Mid && !c.protected {
                c.tier = Tier::Local;
                self.tier_counts[Tier::Mid as usize] -= 1;
                self.tier_counts[Tier::Local as usize] += 1;
            }
        }
        // The reduction pool: Local-tier learnt clauses, minus protected
        // and reason-locked ones. (Local implies LBD > 2, which implies
        // length > 2; the length guard documents the binary-clause
        // invariant rather than filtering anything in practice.)
        let mut pool: Vec<u32> = (0..n as u32)
            .filter(|&i| {
                let c = &self.clauses[i as usize];
                c.learnt
                    && c.tier == Tier::Local
                    && c.lits.len() > 2
                    && !c.protected
                    && !self.locked(i)
            })
            .collect();
        // Worst first: higher LBD, then lower activity, then younger
        // (higher index). Fully deterministic total order.
        pool.sort_unstable_by(|&a, &b| {
            let (ca, cb) = (&self.clauses[a as usize], &self.clauses[b as usize]);
            cb.lbd
                .cmp(&ca.lbd)
                .then(
                    ca.activity
                        .partial_cmp(&cb.activity)
                        .unwrap_or(std::cmp::Ordering::Equal),
                )
                .then(b.cmp(&a))
        });
        let ndrop = pool.len() / 2;
        let mut dropped = vec![false; n];
        for &i in &pool[..ndrop] {
            dropped[i as usize] = true;
        }
        // Protection lasts exactly one round.
        for c in &mut self.clauses {
            c.protected = false;
        }
        #[cfg(debug_assertions)]
        for i in 0..n as u32 {
            let c = &self.clauses[i as usize];
            debug_assert!(
                !dropped[i as usize]
                    || (c.learnt && c.tier == Tier::Local && c.lits.len() > 2 && !self.locked(i)),
                "reduce_db must only drop unlocked non-binary Local learnts"
            );
        }
        // In-place compaction with an index remap vector.
        let mut remap: Vec<u32> = vec![u32::MAX; n];
        let mut write = 0usize;
        for i in 0..n {
            if dropped[i] {
                self.num_learnts -= 1;
                self.tier_counts[Tier::Local as usize] -= 1;
                continue;
            }
            remap[i] = write as u32;
            self.clauses.swap(write, i);
            write += 1;
        }
        self.clauses.truncate(write);
        // Patch watch lists in place: drop entries of dropped clauses,
        // remap the survivors. Watched literal positions are untouched by
        // compaction, so no re-derivation is needed.
        for wl in &mut self.watches {
            wl.retain_mut(|w| {
                let m = remap[w.clause.0 as usize];
                if m == u32::MAX {
                    false
                } else {
                    w.clause = ClauseRef(m);
                    true
                }
            });
        }
        // Remap reasons (locked clauses were never dropped).
        for vi in &mut self.var_info {
            if let Some(r) = vi.reason {
                let m = remap[r.0 as usize];
                debug_assert_ne!(m, u32::MAX, "a reason-locked clause was dropped");
                vi.reason = Some(ClauseRef(m));
            }
        }
        #[cfg(debug_assertions)]
        self.check_invariants()
            .expect("reduce_db left the solver inconsistent");
    }

    /// Validate the solver's structural invariants; a debugging/testing
    /// aid (runs automatically after every reduction in debug builds).
    ///
    /// Checks: every arena clause has ≥ 2 literals and is watched exactly
    /// by the negations of its first two literals (with a blocker that is
    /// a literal of the clause), watch entries reference live clauses,
    /// every assignment reason points at a clause whose first literal is
    /// the assigned (true) literal, learnt/tier counters match a recount,
    /// and every unassigned variable is present in the order heap.
    ///
    /// # Errors
    ///
    /// A description of the first violated invariant.
    pub fn check_invariants(&self) -> Result<(), String> {
        let n = self.clauses.len();
        let mut watch_count = vec![0u32; n];
        for (idx, wl) in self.watches.iter().enumerate() {
            for w in wl {
                let ci = w.clause.0 as usize;
                if ci >= n {
                    return Err(format!("watch on list {idx} references dead clause {ci}"));
                }
                let c = &self.clauses[ci];
                let watched_here = (!c.lits[0]).index() == idx || (!c.lits[1]).index() == idx;
                if !watched_here {
                    return Err(format!(
                        "clause {ci} appears in watch list {idx} but its watched \
                         literals are {} and {}",
                        c.lits[0], c.lits[1]
                    ));
                }
                if !c.lits.contains(&w.blocker) {
                    return Err(format!("clause {ci}: blocker {} not in clause", w.blocker));
                }
                watch_count[ci] += 1;
            }
        }
        let mut learnt = 0usize;
        let mut tiers = [0usize; 3];
        for (ci, c) in self.clauses.iter().enumerate() {
            if c.lits.len() < 2 {
                return Err(format!("clause {ci} has {} literals", c.lits.len()));
            }
            if watch_count[ci] != 2 {
                return Err(format!(
                    "clause {ci} has {} watch entries, expected 2",
                    watch_count[ci]
                ));
            }
            if c.learnt {
                learnt += 1;
                tiers[c.tier as usize] += 1;
            }
        }
        if learnt != self.num_learnts {
            return Err(format!(
                "num_learnts {} but recount {learnt}",
                self.num_learnts
            ));
        }
        if tiers != self.tier_counts {
            return Err(format!(
                "tier_counts {:?} but recount {tiers:?}",
                self.tier_counts
            ));
        }
        for (v, vi) in self.var_info.iter().enumerate() {
            if let Some(r) = vi.reason {
                let ci = r.0 as usize;
                if ci >= n {
                    return Err(format!("var {v} reason references dead clause {ci}"));
                }
                let first = self.clauses[ci].lits[0];
                if first.var().index() != v {
                    return Err(format!(
                        "var {v} reason clause {ci} starts with {first}, not the var"
                    ));
                }
                if self.lit_value(first) != Value::True {
                    return Err(format!("var {v} reason literal {first} is not true"));
                }
            }
        }
        for v in 0..self.num_vars() {
            if self.assigns[v] == Value::Unassigned && !self.order.contains(v as u32) {
                return Err(format!("unassigned var {v} missing from the order heap"));
            }
        }
        Ok(())
    }

    /// Does the current assignment satisfy every clause the solver holds —
    /// original and learnt — and every one of `assumptions`? The check a
    /// `Sat` answer must pass on its way out (debug builds): unit clauses
    /// live on the root trail and need no look, everything else is here.
    fn model_holds(&self, assumptions: &[Lit]) -> bool {
        let holds = |l: &Lit| self.lit_value(*l) == Value::True;
        self.clauses.iter().all(|c| c.lits.iter().any(holds)) && assumptions.iter().all(holds)
    }

    /// Solve the formula. Returns [`SolveResult::Sat`] or
    /// [`SolveResult::Unsat`] (or [`SolveResult::Unknown`] if an interrupt
    /// flag installed via [`Solver::set_interrupt`] trips mid-search).
    pub fn solve(&mut self) -> SolveResult {
        self.solve_with(&[])
    }

    /// Solve under the given assumptions (literals forced true for this call
    /// only).
    ///
    /// Assumption handling is by restart: the assumptions are decided first
    /// at successive levels; a conflict below the assumption levels means
    /// UNSAT under assumptions (the responsible subset is then available
    /// from [`Solver::failed_assumptions`]). Honors an installed interrupt
    /// flag but applies no resource ceilings; see [`Solver::solve_limited`].
    pub fn solve_with(&mut self, assumptions: &[Lit]) -> SolveResult {
        self.solve_limited(assumptions, SolveLimits::unlimited())
    }

    /// Solve under assumptions with per-call resource ceilings.
    ///
    /// Returns [`SolveResult::Unknown`] — never a wrong verdict — as soon as
    /// a ceiling in `limits` or the installed interrupt flag trips. The
    /// solver remains usable: learnt clauses, phases, and activities are
    /// kept, so re-solving with a larger budget resumes the search rather
    /// than restarting it.
    pub fn solve_limited(&mut self, assumptions: &[Lit], limits: SolveLimits) -> SolveResult {
        self.failed.clear();
        if !self.ok {
            return SolveResult::Unsat;
        }
        self.cancel_until(0);
        let conflict_cut = limits
            .max_conflicts
            .map(|n| self.conflicts.saturating_add(n));
        let prop_cut = limits
            .max_propagations
            .map(|n| self.propagations.saturating_add(n));
        // First solve on this formula: derive the initial learnt-clause
        // ceiling from the problem size (growing geometrically from there).
        if self.max_learnts == 0.0 {
            self.max_learnts = (self.clauses.len() as f64 / 3.0).max(LEARNT_CEILING_MIN);
        }
        // The hybrid policy's adaptive/stable phase schedule spans solve
        // calls: on a persistent solver (e.g. BMC's per-depth queries) each
        // call is far shorter than one phase, so recreating the controller
        // per call would pin the search in its opening adaptive phase
        // forever. Luby and glucose carry no cross-call schedule and
        // restart their sequence per call.
        match (&mut self.restart_ctl, self.restart_policy) {
            (Some(ctl), RestartPolicy::Hybrid { .. }) => ctl.since = 0,
            (ctl, policy) => *ctl = Some(RestartCtl::new(policy)),
        }

        loop {
            // Budget / interrupt check: two counter compares plus one relaxed
            // atomic load per iteration, on the existing cumulative counters.
            if conflict_cut.is_some_and(|c| self.conflicts >= c)
                || prop_cut.is_some_and(|c| self.propagations >= c)
                || self
                    .interrupt
                    .as_ref()
                    .is_some_and(|f| f.load(Ordering::Relaxed))
            {
                self.cancel_until(0);
                return SolveResult::Unknown;
            }
            if let Some(confl) = self.propagate() {
                self.conflicts += 1;
                self.restart_ctl
                    .as_mut()
                    .expect("set at solve entry")
                    .on_conflict();
                if self.decision_level() <= assumptions.len() as u32 {
                    // Conflict within assumptions (or at root): UNSAT.
                    if self.decision_level() == 0 {
                        self.ok = false;
                    } else {
                        let seeds = self.clauses[confl.0 as usize].lits.clone();
                        self.failed = self.analyze_final(&seeds, None, assumptions);
                    }
                    self.cancel_until(0);
                    return SolveResult::Unsat;
                }
                let (learnt, bt, lbd) = self.analyze(confl);
                // Glue statistics drive both reporting (`avg_lbd`) and the
                // adaptive restart signal (fast/slow EMAs).
                self.lbd_sum += lbd as u64;
                self.lbd_count += 1;
                self.ema_fast += (lbd as f64 - self.ema_fast) / 32.0;
                self.ema_slow += (lbd as f64 - self.ema_slow) / 4096.0;
                let bt = bt
                    .max(assumptions.len() as u32)
                    .min(self.decision_level() - 1);
                self.cancel_until(bt);
                if learnt.len() == 1 {
                    if self.lit_value(learnt[0]) == Value::False {
                        // Asserting unit contradicts assumptions.
                        if assumptions.is_empty() {
                            self.ok = false;
                        } else {
                            self.failed = self.analyze_final(&[learnt[0]], None, assumptions);
                        }
                        self.cancel_until(0);
                        return SolveResult::Unsat;
                    }
                    if self.lit_value(learnt[0]) == Value::Unassigned {
                        self.unchecked_enqueue(learnt[0], None);
                    }
                } else {
                    let asserting = learnt[0];
                    let cr = self.attach_clause(learnt, true, lbd);
                    if self.lit_value(asserting) == Value::Unassigned {
                        self.unchecked_enqueue(asserting, Some(cr));
                    }
                }
                self.var_decay();
                self.cla_inc /= 0.999;
            } else {
                let restart = self.restart_ctl.as_ref().expect("set at solve entry");
                if restart.should_restart(self.ema_fast, self.ema_slow) {
                    self.restarts += 1;
                    self.restart_ctl
                        .as_mut()
                        .expect("set at solve entry")
                        .on_restart();
                    self.cancel_until(assumptions.len() as u32);
                }
                // Reduce when the Local pool outgrows the ceiling; the
                // ceiling then grows geometrically so reductions stay
                // amortized as the database (and the formula) scale up.
                if self.tier_counts[Tier::Local as usize] as f64 >= self.max_learnts {
                    self.reduce_db();
                    self.max_learnts *= LEARNT_CEILING_GROWTH;
                }
                // Enqueue assumptions first.
                if (self.decision_level() as usize) < assumptions.len() {
                    let a = assumptions[self.decision_level() as usize];
                    match self.lit_value(a) {
                        Value::True => {
                            // Already satisfied: open an empty level to keep
                            // indices aligned.
                            self.trail_lim.push(self.trail.len());
                        }
                        Value::False => {
                            // `a` is falsified by earlier assumptions (or
                            // root units): core = {a} plus what implies !a.
                            self.failed = self.analyze_final(&[a], Some(a), assumptions);
                            self.cancel_until(0);
                            return SolveResult::Unsat;
                        }
                        Value::Unassigned => {
                            self.trail_lim.push(self.trail.len());
                            self.unchecked_enqueue(a, None);
                        }
                    }
                    continue;
                }
                match self.pick_branch_var() {
                    None => {
                        debug_assert!(
                            self.model_holds(assumptions),
                            "Sat answer whose model falsifies a held clause or an assumption"
                        );
                        return SolveResult::Sat;
                    }
                    Some(v) => {
                        self.decisions += 1;
                        self.trail_lim.push(self.trail.len());
                        let l = Lit::new(v, self.phase[v.index()]);
                        self.unchecked_enqueue(l, None);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(i: i32) -> Lit {
        let v = Var((i.abs() - 1) as u32);
        Lit::new(v, i > 0)
    }

    fn solver_with(nvars: usize, clauses: &[&[i32]]) -> Solver {
        let mut s = Solver::new();
        s.reserve_vars(nvars);
        for c in clauses {
            s.add_clause(c.iter().map(|&i| lit(i)));
        }
        s
    }

    #[test]
    fn empty_formula_is_sat() {
        let mut s = Solver::new();
        assert!(s.solve().is_sat());
    }

    #[test]
    fn model_check_rejects_a_falsified_clause_or_assumption() {
        let mut s = solver_with(2, &[&[1, 2]]);
        assert!(s.solve_with(&[lit(-1)]).is_sat());
        assert!(s.model_holds(&[lit(-1)]));
        assert!(!s.model_holds(&[lit(1)]), "x1 is false in the model");
        // Corrupt the model: x2 is what satisfies the clause.
        s.assigns[1] = Value::False;
        assert!(!s.model_holds(&[]));
    }

    #[test]
    fn single_unit() {
        let mut s = solver_with(1, &[&[1]]);
        assert!(s.solve().is_sat());
        assert_eq!(s.value(Var(0)), Some(true));
    }

    #[test]
    fn contradicting_units_unsat() {
        let mut s = solver_with(1, &[&[1], &[-1]]);
        assert!(s.solve().is_unsat());
    }

    #[test]
    fn empty_clause_unsat() {
        let mut s = Solver::new();
        assert!(!s.add_clause([]));
        assert!(s.solve().is_unsat());
    }

    #[test]
    fn tautology_ignored() {
        let mut s = solver_with(1, &[&[1, -1]]);
        assert!(s.solve().is_sat());
    }

    #[test]
    fn simple_implication_chain() {
        // a, a->b, b->c  (as clauses: a; !a|b; !b|c)
        let mut s = solver_with(3, &[&[1], &[-1, 2], &[-2, 3]]);
        assert!(s.solve().is_sat());
        assert_eq!(s.value(Var(0)), Some(true));
        assert_eq!(s.value(Var(1)), Some(true));
        assert_eq!(s.value(Var(2)), Some(true));
    }

    #[test]
    fn unsat_triangle() {
        // (a|b) & (!a|b) & (a|!b) & (!a|!b) is UNSAT.
        let mut s = solver_with(2, &[&[1, 2], &[-1, 2], &[1, -2], &[-1, -2]]);
        assert!(s.solve().is_unsat());
    }

    #[test]
    fn requires_learning() {
        // XOR-ish structure forcing backtracking.
        let mut s = solver_with(
            4,
            &[
                &[1, 2],
                &[-1, 3],
                &[-2, 3],
                &[-3, 4],
                &[-4, -1, -2, 3],
                &[-3, -4, 1, 2],
            ],
        );
        assert!(s.solve().is_sat());
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // i,j index a 2-D grid
    fn pigeonhole_3_into_2_unsat() {
        // p_{ij}: pigeon i in hole j; i in 0..3, j in 0..2.
        let mut s = Solver::new();
        let mut p = [[Var(0); 2]; 3];
        for row in &mut p {
            for slot in row.iter_mut() {
                *slot = s.new_var();
            }
        }
        for row in &p {
            s.add_clause(row.iter().map(|&v| Lit::pos(v)));
        }
        for j in 0..2 {
            for i1 in 0..3 {
                for i2 in (i1 + 1)..3 {
                    s.add_clause([Lit::neg(p[i1][j]), Lit::neg(p[i2][j])]);
                }
            }
        }
        assert!(s.solve().is_unsat());
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // i,j index a 2-D grid
    fn pigeonhole_5_into_5_sat() {
        let n = 5;
        let mut s = Solver::new();
        let mut p = vec![vec![Var(0); n]; n];
        for row in &mut p {
            for slot in row.iter_mut() {
                *slot = s.new_var();
            }
        }
        for row in &p {
            s.add_clause(row.iter().map(|&v| Lit::pos(v)));
        }
        for j in 0..n {
            for i1 in 0..n {
                for i2 in (i1 + 1)..n {
                    s.add_clause([Lit::neg(p[i1][j]), Lit::neg(p[i2][j])]);
                }
            }
        }
        assert!(s.solve().is_sat());
        // Model must be a valid assignment.
        for j in 0..n {
            let cnt = (0..n).filter(|&i| s.value(p[i][j]) == Some(true)).count();
            assert!(cnt <= 1, "hole {j} hosts {cnt} pigeons");
        }
    }

    #[test]
    fn assumptions_sat_then_unsat() {
        let mut s = solver_with(2, &[&[-1, 2]]); // a -> b
        assert!(s.solve_with(&[lit(1)]).is_sat());
        // Under a & !b it must be UNSAT, but the formula itself stays SAT.
        assert!(s.solve_with(&[lit(1), lit(-2)]).is_unsat());
        assert!(s.solve().is_sat());
    }

    #[test]
    fn assumptions_conflicting_directly() {
        let mut s = solver_with(1, &[]);
        assert!(s.solve_with(&[lit(1), lit(-1)]).is_unsat());
        assert!(s.solve().is_sat());
    }

    #[test]
    fn model_satisfies_all_clauses_random() {
        // Deterministic pseudo-random 3-SAT near/below the phase transition;
        // check the returned model actually satisfies the formula.
        let mut state = 0x12345678u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };
        for round in 0..20 {
            let nvars = 20;
            let nclauses = 60 + round;
            let mut clauses: Vec<Vec<i32>> = Vec::new();
            for _ in 0..nclauses {
                let mut c = Vec::new();
                for _ in 0..3 {
                    let v = (next() % nvars as u32) as i32 + 1;
                    let sign = if next() % 2 == 0 { 1 } else { -1 };
                    c.push(v * sign);
                }
                clauses.push(c);
            }
            let refs: Vec<&[i32]> = clauses.iter().map(|c| c.as_slice()).collect();
            let mut s = solver_with(nvars, &refs);
            if s.solve().is_sat() {
                for c in &clauses {
                    let ok = c.iter().any(|&i| {
                        let val = s.value(Var((i.abs() - 1) as u32)).unwrap_or(false);
                        (i > 0) == val
                    });
                    assert!(ok, "model does not satisfy clause {c:?}");
                }
            }
        }
    }

    #[test]
    fn luby_sequence_prefix() {
        // The incremental reluctant-doubling generator must emit the Luby
        // sequence with O(1) work per step.
        let want = [1u64, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8];
        let mut gen = LubyGen::new();
        for (i, &w) in want.iter().enumerate() {
            assert_eq!(gen.next(), w, "luby({i})");
        }
    }

    #[test]
    fn stats_accumulate() {
        let mut s = solver_with(2, &[&[1, 2], &[-1, 2], &[1, -2], &[-1, -2]]);
        let _ = s.solve();
        assert!(s.conflicts() > 0);
    }

    #[test]
    fn model_snapshot_matches_value() {
        let mut s = solver_with(3, &[&[1], &[-1, 2], &[-2, 3]]);
        assert!(s.solve().is_sat());
        let m = s.model();
        assert_eq!(m.len(), s.num_vars());
        for (i, &mv) in m.iter().enumerate() {
            assert_eq!(mv, s.value(Var(i as u32)));
        }
        assert_eq!(m[0], Some(true));
    }

    #[test]
    fn model_snapshot_survives_clause_addition() {
        let mut s = solver_with(2, &[&[1, 2]]);
        assert!(s.solve().is_sat());
        let m = s.model();
        // Adding a clause cancels to level 0 and invalidates the in-solver
        // model, but the snapshot keeps the old assignment.
        s.add_clause([lit(-1), lit(-2)]);
        assert!(m[0] == Some(true) || m[1] == Some(true));
    }

    #[test]
    fn learnt_counter_tracks_learning() {
        let mut s = solver_with(
            4,
            &[
                &[1, 2],
                &[-1, 3],
                &[-2, 3],
                &[-3, 4],
                &[-4, -1, -2, 3],
                &[-3, -4, 1, 2],
            ],
        );
        assert_eq!(s.num_learnts(), 0);
        let _ = s.solve();
        assert!(s.num_learnts() <= s.num_clauses());
    }

    #[test]
    fn restart_counter_monotone() {
        let mut s = solver_with(2, &[&[1, 2]]);
        let before = s.restarts();
        let _ = s.solve();
        assert!(s.restarts() >= before);
    }

    /// Pigeonhole `n+1` into `n`: UNSAT, and hard enough to burn conflicts.
    fn pigeonhole(n: usize) -> Solver {
        let mut s = Solver::new();
        let mut p = vec![vec![Var(0); n]; n + 1];
        for row in &mut p {
            for slot in row.iter_mut() {
                *slot = s.new_var();
            }
        }
        for row in &p {
            s.add_clause(row.iter().map(|&v| Lit::pos(v)));
        }
        for i1 in 0..n + 1 {
            for i2 in (i1 + 1)..n + 1 {
                for (&a, &b) in p[i1].iter().zip(&p[i2]) {
                    s.add_clause([Lit::neg(a), Lit::neg(b)]);
                }
            }
        }
        s
    }

    #[test]
    fn conflict_budget_returns_unknown_then_resumes() {
        let mut s = pigeonhole(7);
        let r = s.solve_limited(&[], SolveLimits::unlimited().conflicts(5));
        assert!(r.is_unknown(), "5 conflicts cannot refute PHP(8,7)");
        assert!(s.failed_assumptions().is_empty());
        // The budget is per call and the verdict is never wrong: re-solving
        // without a ceiling still finds UNSAT.
        assert!(s.solve().is_unsat());
    }

    #[test]
    fn propagation_budget_returns_unknown() {
        let mut s = pigeonhole(7);
        let r = s.solve_limited(&[], SolveLimits::unlimited().propagations(3));
        assert!(r.is_unknown());
        assert!(s.solve().is_unsat());
    }

    #[test]
    fn budget_never_flips_an_easy_verdict() {
        // A formula decided before the ceiling trips reports normally.
        let mut s = solver_with(3, &[&[1], &[-1, 2], &[-2, 3]]);
        let r = s.solve_limited(&[], SolveLimits::unlimited().conflicts(1_000));
        assert!(r.is_sat());
        assert_eq!(s.value(Var(2)), Some(true));
    }

    #[test]
    fn interrupt_flag_cuts_solve_short() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;
        let mut s = pigeonhole(7);
        let flag = Arc::new(AtomicBool::new(true));
        s.set_interrupt(Some(flag.clone()));
        assert!(s.solve().is_unknown());
        assert!(s.solve_with(&[Lit::pos(Var(0))]).is_unknown());
        // Clearing the flag restores normal operation on the same instance.
        flag.store(false, Ordering::Relaxed);
        assert!(s.solve().is_unsat());
    }

    #[test]
    fn failed_assumptions_direct_contradiction() {
        let mut s = solver_with(3, &[]);
        let r = s.solve_with(&[lit(3), lit(1), lit(-1)]);
        assert!(r.is_unsat());
        // x3 is irrelevant; the core is {x1, !x1} in assumption order.
        assert_eq!(s.failed_assumptions(), &[lit(1), lit(-1)]);
        assert!(s.solve().is_sat());
        assert!(s.failed_assumptions().is_empty());
    }

    #[test]
    fn failed_assumptions_through_implications() {
        // a -> b, c -> d, b & d incompatible. Assume [e, a, c]: e irrelevant.
        let mut s = solver_with(5, &[&[-1, 2], &[-3, 4], &[-2, -4]]);
        let r = s.solve_with(&[lit(5), lit(1), lit(3)]);
        assert!(r.is_unsat());
        let core = s.failed_assumptions().to_vec();
        assert!(!core.contains(&lit(5)), "e is not responsible: {core:?}");
        assert!(core.contains(&lit(1)) || core.contains(&lit(3)));
        // The core alone must already be UNSAT.
        assert!(s.solve_with(&core).is_unsat());
        // And the formula without assumptions stays SAT.
        assert!(s.solve().is_sat());
    }

    #[test]
    fn failed_assumptions_on_root_unsat_formula() {
        let mut s = solver_with(2, &[&[1, 2], &[-1, 2], &[1, -2], &[-1, -2]]);
        assert!(s.solve_with(&[lit(1)]).is_unsat());
        // Cores are sound but not minimal: whatever subset is reported must
        // itself be assumed literals and UNSAT on its own.
        let core = s.failed_assumptions().to_vec();
        assert!(core.iter().all(|&l| l == lit(1)));
        assert!(s.solve_with(&core).is_unsat());
        // Once the solver proves root-level UNSAT, the core is empty.
        assert!(s.solve().is_unsat());
        assert!(s.failed_assumptions().is_empty());
    }

    #[test]
    fn failed_assumptions_subset_is_unsat_random() {
        // Random instances: whenever UNSAT-under-assumptions, the reported
        // core must itself be UNSAT (checked by re-solving with the core).
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };
        let mut unsat_seen = 0;
        for round in 0..40 {
            let nvars = 12;
            let mut clauses: Vec<Vec<i32>> = Vec::new();
            for _ in 0..(30 + round) {
                let mut c = Vec::new();
                for _ in 0..3 {
                    let v = (next() % nvars as u32) as i32 + 1;
                    let sign = if next() % 2 == 0 { 1 } else { -1 };
                    c.push(v * sign);
                }
                clauses.push(c);
            }
            let refs: Vec<&[i32]> = clauses.iter().map(|c| c.as_slice()).collect();
            let mut s = solver_with(nvars, &refs);
            let assumptions: Vec<Lit> = (1..=6)
                .map(|v| lit(if next() % 2 == 0 { v } else { -v }))
                .collect();
            if s.solve_with(&assumptions).is_unsat() {
                unsat_seen += 1;
                let core = s.failed_assumptions().to_vec();
                for l in &core {
                    assert!(assumptions.contains(l), "core lit {l} not assumed");
                }
                assert!(
                    s.solve_with(&core).is_unsat(),
                    "core {core:?} must be UNSAT on its own"
                );
            }
        }
        assert!(unsat_seen > 0, "test never exercised the UNSAT path");
    }

    /// Accumulate learnt clauses, then drive a few decision levels by hand
    /// so some learnt clauses become propagation reasons (solve_limited
    /// cancels to level 0 before returning, so locked state must be built
    /// manually).
    fn solver_with_locked_learnts() -> Solver {
        let mut s = pigeonhole(7);
        let r = s.solve_limited(&[], SolveLimits::unlimited().conflicts(300));
        assert!(r.is_unknown());
        assert!(s.num_learnts() > 50, "need a populated learnt DB");
        while s.decision_level() < 24 {
            let Some(v) = s.pick_branch_var() else { break };
            s.trail_lim.push(s.trail.len());
            let l = Lit::new(v, s.phase[v.index()]);
            s.unchecked_enqueue(l, None);
            if s.propagate().is_some() {
                // A conflict mid-construction is fine: stop stacking levels
                // (watches were restored by propagate before returning).
                break;
            }
        }
        s
    }

    #[test]
    fn reduce_db_preserves_locked_core_and_binary_clauses() {
        let mut s = solver_with_locked_learnts();
        let locked_lits: Vec<Vec<Lit>> = s
            .var_info
            .iter()
            .filter_map(|vi| vi.reason)
            .map(|r| s.clauses[r.0 as usize].lits.clone())
            .collect();
        let (core_before, _, _) = s.tier_sizes();
        let binary_before = s
            .clauses
            .iter()
            .filter(|c| c.learnt && c.lits.len() == 2)
            .count();
        let learnts_before = s.num_learnts();
        s.reduce_db();
        s.check_invariants().expect("invariants after reduce_db");
        assert!(
            s.num_learnts() < learnts_before,
            "the reduction must actually drop clauses ({learnts_before} before)"
        );
        // Every reason still points at a clause with the same literals.
        for (lits, vi) in locked_lits.iter().zip(
            s.var_info
                .iter()
                .filter(|vi| vi.reason.is_some())
                .collect::<Vec<_>>(),
        ) {
            let r = vi.reason.expect("still locked");
            assert_eq!(
                &s.clauses[r.0 as usize].lits, lits,
                "reason clause must survive reduction unchanged"
            );
        }
        let (core_after, _, _) = s.tier_sizes();
        assert_eq!(core_after, core_before, "Core tier is kept forever");
        let binary_after = s
            .clauses
            .iter()
            .filter(|c| c.learnt && c.lits.len() == 2)
            .count();
        assert_eq!(binary_after, binary_before, "binary learnts never dropped");
    }

    #[test]
    fn reduce_db_repeated_rounds_stay_consistent() {
        let mut s = solver_with_locked_learnts();
        for _ in 0..3 {
            s.reduce_db();
            s.check_invariants().expect("watch lists stay consistent");
        }
        // The solver must still function after stacked in-place compactions.
        assert!(s.solve().is_unsat());
    }

    #[test]
    fn tiny_learnt_ceiling_forces_reductions_and_keeps_verdicts() {
        let mut s = pigeonhole(7);
        s.set_learnt_ceiling(8);
        assert!(s.solve().is_unsat());
        assert!(s.reduces() > 0, "an 8-clause ceiling must trip reductions");
        s.check_invariants().expect("invariants after solving");

        let mut s = solver_with(
            4,
            &[&[1, 2], &[-1, 3], &[-2, 3], &[-3, 4], &[-4, -1, -2, 3]],
        );
        s.set_learnt_ceiling(1);
        assert!(s.solve().is_sat());
    }

    #[test]
    fn glue_statistics_populate() {
        let mut s = pigeonhole(6);
        assert!(s.solve().is_unsat());
        assert!(s.avg_lbd() > 0.0);
        assert_eq!(s.avg_lbd_milli(), (s.avg_lbd() * 1000.0).floor() as u64);
        assert!(s.lbd_ema_fast() > 0.0);
        assert!(s.lbd_ema_slow() > 0.0);
        let (core, mid, local) = s.tier_sizes();
        assert_eq!(
            core + mid + local,
            s.num_learnts(),
            "every learnt clause sits in exactly one tier"
        );
    }

    #[test]
    fn restart_policies_agree_on_verdicts() {
        for policy in [
            RestartPolicy::luby(),
            RestartPolicy::glucose(),
            RestartPolicy::hybrid(),
        ] {
            let mut s = pigeonhole(6);
            s.set_restart_policy(policy);
            assert!(s.solve().is_unsat(), "{policy:?} must refute PHP(7,6)");
            let mut s = solver_with(3, &[&[1], &[-1, 2], &[-2, 3]]);
            s.set_restart_policy(policy);
            assert!(s.solve().is_sat(), "{policy:?} must satisfy the chain");
        }
    }

    #[test]
    fn identical_runs_produce_identical_stats() {
        let run = || {
            let mut s = pigeonhole(7);
            s.set_restart_policy(RestartPolicy::hybrid());
            s.set_learnt_ceiling(64);
            let verdict = s.solve();
            (
                verdict,
                s.conflicts(),
                s.decisions(),
                s.propagations(),
                s.restarts(),
                s.reduces(),
                s.num_learnts(),
                s.tier_sizes(),
                s.avg_lbd_milli(),
            )
        };
        assert_eq!(run(), run(), "solver runs must be bit-reproducible");
    }

    #[test]
    fn heap_decisions_match_first_max_tie_break() {
        // All activities start equal, so the first decision must pick the
        // lowest-indexed unassigned variable — the old linear scan's choice.
        let mut s = solver_with(3, &[&[1, 2, 3]]);
        assert!(s.solve().is_sat());
        assert_eq!(
            s.value(Var(0)),
            Some(false),
            "saved-phase default is negative, so x1 decided false first"
        );
    }

    #[test]
    fn incremental_reuse_after_reduction() {
        // Clauses added after a reduced solve must still propagate; the
        // order heap must pick up late-created variables.
        let mut s = pigeonhole(7);
        s.set_learnt_ceiling(16);
        assert!(s.solve().is_unsat());
        let mut s2 = Solver::new();
        s2.reserve_vars(2);
        s2.add_clause([lit(1), lit(2)]);
        assert!(s2.solve().is_sat());
        let v = s2.new_var();
        s2.add_clause([Lit::pos(v)]);
        assert!(s2.solve().is_sat());
        assert_eq!(s2.value(v), Some(true));
    }
}
