//! SAT-based bounded model checking over the [`bip_core::sym`] encoding.
//!
//! The transition relation is unrolled **incrementally in one persistent
//! [`satkit::Solver`]** by the crate's shared unroller: the clauses of frame
//! `d → d+1` are added once and stay; the depth-`d` "invariant violated
//! here" goal is guarded by a fresh per-depth **activation literal** passed
//! to the solver as an assumption. When the depth-`d` query comes back UNSAT
//! the engine asserts the activation literal's negation (retiring the goal)
//! and the next goal extends the unrolling by one frame — so conflict
//! clauses learned at shallow depths keep pruning at deeper ones instead of
//! being rediscovered per bound.
//!
//! Verdicts are asymmetric by design:
//!
//! * [`BmcOutcome::Violation`] is **definitive**: the decoded trace is
//!   replayed step-by-step through the concrete executor
//!   ([`System::for_each_successor`]) before being reported, so a decode or
//!   encode bug can surface only as [`UnrollError::InvalidTrace`], never as
//!   a false alarm.
//! * [`BmcOutcome::NoViolationWithin`] carries an explicit completeness
//!   caveat: it says nothing about states deeper than the bound.
//!
//! # Example
//!
//! The two-phase dining philosophers reach the all-`hasL` deadlock
//! configuration in exactly `n` steps:
//!
//! ```
//! use bip_core::{dining_philosophers, StatePred};
//! use bip_verify::bmc::{BmcConfig, BmcOutcome};
//!
//! let sys = dining_philosophers(3, true).unwrap();
//! // "Not every philosopher holds its left fork" (hasL is location 1).
//! let inv = StatePred::Not(Box::new(StatePred::And(
//!     (0..3).map(|i| StatePred::AtLoc(i, 1)).collect(),
//! )));
//!
//! // Two steps are not enough...
//! let report = BmcConfig::new(&sys).bound(2).check_invariant(&inv).unwrap();
//! assert!(matches!(report.outcome, BmcOutcome::NoViolationWithin(2)));
//!
//! // ...three are: the trace below replayed on the concrete executor.
//! let report = BmcConfig::new(&sys).bound(3).check_invariant(&inv).unwrap();
//! match &report.outcome {
//!     BmcOutcome::Violation { trace, states } => {
//!         assert_eq!(trace.len(), 3);
//!         assert_eq!(states.len(), 4);
//!     }
//!     other => panic!("expected a violation, got {other:?}"),
//! }
//! ```

use crate::control::{Budget, CancelToken, StopReason, Wall};
use crate::unroll::{Answer, UnrollError, Unroller};
use bip_core::sym::StepEncoder;
use bip_core::{State, StatePred, Step, System};
use satkit::{RestartPolicy, Solver};
use std::time::Instant;

/// Builder for a bounded model-checking run (mirrors
/// [`crate::reach::ReachConfig`]'s builder/report shape).
#[derive(Debug, Clone)]
pub struct BmcConfig<'a> {
    sys: &'a System,
    bound: usize,
    enum_budget: u64,
    budget: Budget,
    cancel: CancelToken,
    restart_policy: RestartPolicy,
}

impl<'a> BmcConfig<'a> {
    /// A configuration for `sys` with the default bound of 10 steps.
    pub fn new(sys: &'a System) -> BmcConfig<'a> {
        BmcConfig {
            sys,
            bound: 10,
            enum_budget: bip_core::sym::DEFAULT_ENUM_BUDGET,
            budget: Budget::unlimited(),
            cancel: CancelToken::new(),
            // One persistent solver accumulates learnt clauses across
            // depths, so the hybrid policy's stable (Luby) phases pay off.
            restart_policy: RestartPolicy::hybrid(),
        }
    }

    /// Override the persistent solver's restart policy (default:
    /// [`RestartPolicy::hybrid`], tuned for one long-lived incremental
    /// solver; D-Finder's many short per-seed solves use Luby instead).
    #[must_use]
    pub fn restart_policy(mut self, policy: RestartPolicy) -> BmcConfig<'a> {
        self.restart_policy = policy;
        self
    }

    /// Set the unrolling depth: states reachable in at most `k` steps are
    /// examined.
    #[must_use]
    pub fn bound(mut self, k: usize) -> BmcConfig<'a> {
        self.bound = k;
        self
    }

    /// Set the encoder's expression-enumeration budget (see
    /// [`StepEncoder::enum_budget`]).
    #[must_use]
    pub fn enum_budget(mut self, budget: u64) -> BmcConfig<'a> {
        self.enum_budget = budget;
        self
    }

    /// Bound the run's resources. `max_conflicts` is a *cumulative* ceiling
    /// over the one persistent solver; the deadline is checked between
    /// per-depth queries. Either trip ends the run with a sound partial
    /// verdict (see [`BmcReport::stop`]) — never a wrong one.
    #[must_use]
    pub fn budget(mut self, budget: Budget) -> BmcConfig<'a> {
        self.budget = budget;
        self
    }

    /// Observe `token` for cancellation. The token is installed as the
    /// solver's interrupt flag, so cancellation cuts even a long-running
    /// depth query short (the query returns unknown, the run stops with
    /// [`StopReason::Cancelled`]).
    #[must_use]
    pub fn cancel(mut self, token: &CancelToken) -> BmcConfig<'a> {
        self.cancel = token.clone();
        self
    }

    /// Check that `inv` holds on every state reachable within the bound.
    ///
    /// # Errors
    ///
    /// [`UnrollError::Encode`] if the system cannot be encoded (unbounded
    /// variable, enumeration budget); [`UnrollError::InvalidTrace`] if a
    /// satisfying model fails concrete replay (an encoder bug — never a
    /// property of the system).
    pub fn check_invariant(&self, inv: &StatePred) -> Result<BmcReport, UnrollError> {
        let start = Instant::now();
        let enc = StepEncoder::new(self.sys)?.enum_budget(self.enum_budget);
        let mut u = Unroller::new(
            self.sys,
            enc,
            self.budget,
            &self.cancel,
            self.restart_policy,
        )
        .init_pinned();
        let mut frames: Vec<FrameStats> = Vec::new();
        let report = |outcome, frames, stop| BmcReport {
            outcome,
            frames,
            stop,
            elapsed: Wall(start.elapsed()),
        };
        // What an interrupted run may still claim: verdicts for the depths
        // already decided are final, so `NoViolationWithin` shrinks to the
        // deepest one — and to no claim at all if there is none.
        let cleared = |frames: &[FrameStats]| match frames.last() {
            Some(f) => BmcOutcome::NoViolationWithin(f.depth),
            None => BmcOutcome::Undecided,
        };

        for depth in 0..=self.bound {
            if let Some(stop) = u.interrupted(0) {
                return Ok(report(cleared(&frames), frames, stop));
            }
            // Goal: the invariant is violated at this depth — guarded by a
            // fresh activation literal so it can be retired after the query.
            let inv_lit = u.pred(depth, inv)?;
            let act = u.guarded(!inv_lit);
            match u.query(&[act], 0) {
                Answer::Unknown(stop) => return Ok(report(cleared(&frames), frames, stop)),
                Answer::Sat => {
                    frames.push(FrameStats::snapshot(depth, u.solver()));
                    let (trace, states) = u.witness(depth, inv)?;
                    let outcome = BmcOutcome::Violation { trace, states };
                    return Ok(report(outcome, frames, StopReason::Completed));
                }
                Answer::Unsat { core_empty } => {
                    frames.push(FrameStats::snapshot(depth, u.solver()));
                    // The formula is UNSAT on its own, whatever is assumed:
                    // no execution of length `depth` exists at all (every
                    // run of the system halts earlier), so no deeper frame
                    // is satisfiable either and the full bound is cleared
                    // without unrolling further.
                    if core_empty {
                        break;
                    }
                    // Retire the goal permanently.
                    u.assert_lit(!act);
                }
            }
        }
        let outcome = BmcOutcome::NoViolationWithin(self.bound);
        Ok(report(outcome, frames, StopReason::Completed))
    }
}

/// Solver statistics snapshot taken right after the depth-`d` query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameStats {
    /// The queried depth.
    pub depth: usize,
    /// Total solver variables at this point (monotone across depths — the
    /// single persistent solver only ever grows).
    pub vars: usize,
    /// Total clauses (original + currently kept learnt clauses).
    pub clauses: usize,
    /// Learnt clauses currently in the database — carried across depths.
    pub learnts: usize,
    /// Cumulative conflicts.
    pub conflicts: u64,
    /// Cumulative decisions.
    pub decisions: u64,
    /// Cumulative propagations (literals enqueued).
    pub propagations: u64,
    /// Mean LBD of all clauses learnt so far, in thousandths (an integer so
    /// the report stays `Eq` and bit-reproducible; divide by 1000.0 for the
    /// conventional average-glue figure). 0 until the first conflict.
    pub avg_lbd_milli: u64,
    /// Learnt clauses in the Core tier (glue ≤ 2, kept forever).
    pub tier_core: usize,
    /// Learnt clauses in the mid tier (glue ≤ 6, demoted if untouched).
    pub tier_mid: usize,
    /// Learnt clauses in the Local tier (the reduction pool).
    pub tier_local: usize,
}

impl FrameStats {
    fn snapshot(depth: usize, s: &Solver) -> FrameStats {
        let (tier_core, tier_mid, tier_local) = s.tier_sizes();
        FrameStats {
            depth,
            vars: s.num_vars(),
            clauses: s.num_clauses(),
            learnts: s.num_learnts(),
            conflicts: s.conflicts(),
            decisions: s.decisions(),
            propagations: s.propagations(),
            avg_lbd_milli: s.avg_lbd_milli(),
            tier_core,
            tier_mid,
            tier_local,
        }
    }
}

/// Verdict of a bounded model-checking run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BmcOutcome {
    /// A reachable state within the bound violates the invariant. The trace
    /// has been **replayed on the concrete executor** — `states[0]` is the
    /// initial state, `states[i+1]` is the (verified) successor of
    /// `states[i]` under `trace[i]`, and the last state violates the
    /// invariant.
    Violation {
        /// The steps of the counterexample, in order.
        trace: Vec<Step>,
        /// The states along the counterexample (`trace.len() + 1` entries).
        states: Vec<State>,
    },
    /// No violation exists within the given depth: the solver refuted every
    /// depth `0..=d`. **Completeness caveat**: this says nothing about
    /// deeper states — it is not a proof of the invariant unless the bound
    /// exceeds the system's diameter.
    NoViolationWithin(usize),
    /// The run was interrupted before any depth was decided — not even the
    /// initial state has been checked against the invariant.
    Undecided,
}

/// Result of [`BmcConfig::check_invariant`].
#[must_use = "inspect the outcome; NoViolationWithin is not a proof"]
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BmcReport {
    /// The verdict.
    pub outcome: BmcOutcome,
    /// Per-depth solver statistics (one entry per *decided* depth, in
    /// order — a query cut short by a budget or cancellation leaves no
    /// entry). `vars` is monotone across entries: all depths share one
    /// solver.
    pub frames: Vec<FrameStats>,
    /// Why the run stopped. [`StopReason::Completed`] means the outcome
    /// covers the full configured bound; an interrupted stop
    /// ([`StopReason::SolverBudget`] / [`StopReason::Deadline`] /
    /// [`StopReason::Cancelled`]) means `NoViolationWithin` shrank to the
    /// deepest depth actually cleared, or the outcome is
    /// [`BmcOutcome::Undecided`] when `frames` is empty — the verdict is
    /// still sound, never wrong.
    pub stop: StopReason,
    /// Wall-clock the run took (excluded from report equality).
    pub elapsed: Wall,
}

impl BmcReport {
    /// The counterexample, if the run found one.
    pub fn violation(&self) -> Option<(&[Step], &[State])> {
        match &self.outcome {
            BmcOutcome::Violation { trace, states } => Some((trace, states)),
            BmcOutcome::NoViolationWithin(_) | BmcOutcome::Undecided => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bip_core::{dining_philosophers, AtomBuilder, Expr, GExpr, SystemBuilder};

    fn counter_system(limit: i64) -> System {
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
        let mut sb = SystemBuilder::new();
        sb.add_instance("c", &counter);
        sb.build().unwrap()
    }

    /// "not all philosophers hold their left fork" — violated exactly at
    /// depth n in the two-phase variant.
    fn all_has_left(n: usize) -> StatePred {
        StatePred::Not(Box::new(StatePred::And(
            (0..n).map(|i| StatePred::AtLoc(i, 1)).collect(),
        )))
    }

    #[test]
    fn counter_violation_at_exact_depth() {
        let sys = counter_system(5);
        // n == 4 is first reached after 4 steps.
        let inv = StatePred::Not(Box::new(StatePred::Eq(GExpr::var(0, 0), GExpr::int(4))));
        let r = BmcConfig::new(&sys).bound(3).check_invariant(&inv).unwrap();
        assert_eq!(r.outcome, BmcOutcome::NoViolationWithin(3));
        let r = BmcConfig::new(&sys).bound(4).check_invariant(&inv).unwrap();
        let (trace, states) = r.violation().expect("violated at depth 4");
        assert_eq!(trace.len(), 4);
        assert_eq!(states.last().unwrap().vars[0], 4);
        // A larger bound still finds it (at the same shortest depth or not —
        // either way the replay validated it).
        let r = BmcConfig::new(&sys).bound(7).check_invariant(&inv).unwrap();
        assert!(r.violation().is_some());
    }

    #[test]
    fn philosophers_deadlock_depth() {
        let sys = dining_philosophers(3, true).unwrap();
        let inv = all_has_left(3);
        let r = BmcConfig::new(&sys).bound(2).check_invariant(&inv).unwrap();
        assert_eq!(r.outcome, BmcOutcome::NoViolationWithin(2));
        let r = BmcConfig::new(&sys).bound(3).check_invariant(&inv).unwrap();
        let (trace, states) = r.violation().expect("all-hasL reached at depth 3");
        assert_eq!(trace.len(), 3);
        assert_eq!(states.len(), 4);
    }

    #[test]
    fn conservative_philosophers_never_all_has_left() {
        // The 3-way rendezvous variant takes both forks atomically: the
        // philosopher location 1 is "eating", and no two neighbours can eat
        // at once — but with 4 philosophers two opposite ones can.
        let sys = dining_philosophers(4, false).unwrap();
        let both_eat = StatePred::Not(Box::new(StatePred::And(vec![
            StatePred::AtLoc(0, 1),
            StatePred::AtLoc(2, 1),
        ])));
        let r = BmcConfig::new(&sys)
            .bound(2)
            .check_invariant(&both_eat)
            .unwrap();
        let (trace, _) = r.violation().expect("opposite philosophers eat");
        assert_eq!(trace.len(), 2);
        // Adjacent philosophers share a fork: never both eating.
        let adjacent = StatePred::Not(Box::new(StatePred::And(vec![
            StatePred::AtLoc(0, 1),
            StatePred::AtLoc(1, 1),
        ])));
        let r = BmcConfig::new(&sys)
            .bound(6)
            .check_invariant(&adjacent)
            .unwrap();
        assert_eq!(r.outcome, BmcOutcome::NoViolationWithin(6));
    }

    #[test]
    fn solver_is_reused_across_depths() {
        let sys = dining_philosophers(3, true).unwrap();
        let inv = all_has_left(3);
        let r = BmcConfig::new(&sys).bound(5).check_invariant(&inv).unwrap();
        // One stats entry per queried depth until the violation at 3.
        assert_eq!(r.frames.len(), 4);
        for w in r.frames.windows(2) {
            assert!(
                w[1].vars > w[0].vars,
                "variable count must grow monotonically in the one persistent solver"
            );
        }
    }

    #[test]
    fn unbounded_system_is_declined() {
        let counter = AtomBuilder::new("counter")
            .location("run")
            .initial("run")
            .var("n", 0)
            .internal_transition(
                "run",
                Expr::t(),
                vec![("n", Expr::var(0).add(Expr::int(1)))],
                "run",
            )
            .build()
            .unwrap();
        let mut sb = SystemBuilder::new();
        sb.add_instance("c", &counter);
        let sys = sb.build().unwrap();
        let err = BmcConfig::new(&sys)
            .bound(3)
            .check_invariant(&StatePred::True)
            .unwrap_err();
        assert!(matches!(
            err,
            UnrollError::Encode(bip_core::sym::SymError::UnboundedVar { .. })
        ));
        assert!(err.to_string().contains("no finite bound"));
    }

    #[test]
    fn bound_zero_checks_only_the_initial_state() {
        let sys = counter_system(3);
        let at_zero = StatePred::Not(Box::new(StatePred::Eq(GExpr::var(0, 0), GExpr::int(0))));
        let r = BmcConfig::new(&sys)
            .bound(0)
            .check_invariant(&at_zero)
            .unwrap();
        let (trace, states) = r.violation().expect("initial state violates");
        assert!(trace.is_empty());
        assert_eq!(states.len(), 1);
        let r = BmcConfig::new(&sys)
            .bound(0)
            .check_invariant(&StatePred::True)
            .unwrap();
        assert_eq!(r.outcome, BmcOutcome::NoViolationWithin(0));
    }

    #[test]
    fn zero_conflict_budget_stops_before_any_query() {
        let sys = dining_philosophers(3, true).unwrap();
        let r = BmcConfig::new(&sys)
            .bound(6)
            .budget(Budget::unlimited().conflicts(0))
            .check_invariant(&all_has_left(3))
            .unwrap();
        assert_eq!(r.stop, StopReason::SolverBudget);
        assert_eq!(r.outcome, BmcOutcome::Undecided);
        assert!(r.frames.is_empty(), "no depth was decided");
    }

    #[test]
    fn generous_conflict_budget_matches_unbudgeted_verdict() {
        let sys = dining_philosophers(3, true).unwrap();
        let inv = all_has_left(3);
        let free = BmcConfig::new(&sys).bound(3).check_invariant(&inv).unwrap();
        let capped = BmcConfig::new(&sys)
            .bound(3)
            .budget(Budget::unlimited().conflicts(1_000_000))
            .check_invariant(&inv)
            .unwrap();
        assert_eq!(capped.outcome, free.outcome);
        assert_eq!(capped.stop, StopReason::Completed);
    }

    #[test]
    fn cancelled_token_stops_bmc() {
        let sys = dining_philosophers(3, true).unwrap();
        let token = CancelToken::new();
        token.cancel();
        let r = BmcConfig::new(&sys)
            .bound(6)
            .cancel(&token)
            .check_invariant(&all_has_left(3))
            .unwrap();
        assert_eq!(r.stop, StopReason::Cancelled);
        assert_eq!(r.outcome, BmcOutcome::Undecided);
    }

    #[test]
    fn interrupted_before_depth_zero_claims_nothing_about_the_initial_state() {
        // The initial state itself violates "n != 0": a run cancelled before
        // its first query has not looked at it and must not clear depth 0.
        let sys = counter_system(3);
        let at_zero = StatePred::Not(Box::new(StatePred::Eq(GExpr::var(0, 0), GExpr::int(0))));
        let token = CancelToken::new();
        token.cancel();
        let r = BmcConfig::new(&sys)
            .bound(4)
            .cancel(&token)
            .check_invariant(&at_zero)
            .unwrap();
        assert_eq!(r.stop, StopReason::Cancelled);
        assert!(
            !matches!(r.outcome, BmcOutcome::NoViolationWithin(_)),
            "unchecked initial state cleared: {:?}",
            r.outcome
        );
        assert!(r.violation().is_none());
    }

    #[test]
    fn expired_deadline_stops_bmc() {
        use std::time::{Duration, Instant};
        let sys = dining_philosophers(3, true).unwrap();
        let r = BmcConfig::new(&sys)
            .bound(6)
            .budget(Budget::unlimited().deadline(Instant::now() - Duration::from_millis(1)))
            .check_invariant(&all_has_left(3))
            .unwrap();
        assert_eq!(r.stop, StopReason::Deadline);
        assert_eq!(r.outcome, BmcOutcome::Undecided);
    }

    #[test]
    fn terminating_system_clears_deep_bounds_without_full_unrolling() {
        // The counter halts after 2 steps: once the unrolled formula is
        // UNSAT on its own (empty failed-assumption core), depths through
        // the full bound are cleared without extending the unrolling.
        let sys = counter_system(2);
        let inv = StatePred::Not(Box::new(StatePred::Eq(GExpr::var(0, 0), GExpr::int(5))));
        let r = BmcConfig::new(&sys)
            .bound(10)
            .check_invariant(&inv)
            .unwrap();
        assert_eq!(r.outcome, BmcOutcome::NoViolationWithin(10));
        assert_eq!(r.stop, StopReason::Completed);
        assert!(
            r.frames.len() < 11,
            "expected an early absence proof, queried {} depths",
            r.frames.len()
        );
    }

    #[test]
    fn agrees_with_explicit_search_on_philosophers() {
        use crate::reach::{check_invariant_with, ReachConfig, Reduction};
        let sys = dining_philosophers(3, true).unwrap();
        let inv = all_has_left(3);
        for reduction in [Reduction::None, Reduction::Persistent] {
            let explicit = check_invariant_with(
                &sys,
                &inv,
                &ReachConfig::bounded(100_000).reduction(reduction),
            );
            let (_, trace) = (
                explicit
                    .violation
                    .as_ref()
                    .expect("explicit finds it")
                    .0
                    .clone(),
                explicit.violation.as_ref().unwrap().1.clone(),
            );
            let r = BmcConfig::new(&sys)
                .bound(trace.len())
                .check_invariant(&inv)
                .unwrap();
            assert!(
                r.violation().is_some(),
                "BMC at the explicit trace depth must find the violation"
            );
        }
    }
}
