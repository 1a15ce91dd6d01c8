//! Unbounded safety proofs by k-induction over the [`bip_core::sym`]
//! encoding.
//!
//! Where [`crate::bmc`] only refutes (every `NoViolationWithin(k)` is a
//! bounded verdict), this engine can answer **"safe, period"**. It runs two
//! persistent [`satkit::Solver`]s in lock-step, one per side of the
//! induction — two instances of the crate's shared unroller:
//!
//! * the **base** side is BMC's incremental unrolling, by construction —
//!   frame 0 pinned to the initial state, the depth-`k` "invariant violated
//!   here" goal guarded by an activation literal and retired after each
//!   UNSAT answer; a proof closed at `k` leaves the base solver with the
//!   counters of a BMC run at bound `k`;
//! * the **step** side unrolls the same relation over *arbitrary* frames
//!   (no initial-state constraint). A per-frame assumption literal `p_i`
//!   asserts the invariant at frame `i`; the iteration-`k` query asks for a
//!   model where the invariant holds on frames `0..=k` but fails at `k+1`,
//!   under **simple-path constraints**: every pair of frames is pairwise
//!   distinct, encoded bitwise over the packed state bits
//!   ([`StepEncoder::assert_frames_distinct`]) and added incrementally as
//!   each new frame arrives.
//!
//! When the base query at depth `k` is UNSAT (no reachable violation within
//! `k` steps) and the step query at `k` is UNSAT (no transition path of
//! `k + 2` pairwise-distinct states carries the invariant on its first
//! `k + 1` frames into a violation), the invariant holds on **every**
//! reachable state: a shortest counterexample path from the initial state is
//! loop-free, longer than `k` (base), and its `(k + 2)`-state suffix would
//! satisfy the step formula — contradiction. The simple-path constraints
//! also make the method complete at the recurrence diameter: a system whose
//! longest loop-free path has `d` states is proved at `k ≤ d - 1` because no
//! chain of `k + 2` distinct states exists at all, so termination-style
//! proofs fall out of the step side with no special casing.
//!
//! Verdicts mirror BMC's asymmetry and the repo's determinism rule:
//!
//! * [`Verdict::Violated`] traces are **replayed concretely** through
//!   [`System::for_each_successor`] before being reported;
//! * [`Verdict::Proved`] can be re-derived from scratch by [`certify_step`]
//!   plus any bounded engine covering the base — the differential harness
//!   does exactly that. The certificate runs in a fresh solver of its own
//!   but on the step side's schedule (one incremental query per depth
//!   `0..=k`, each learning for the next), so it costs about what the
//!   proof's step side cost; its last query is the one-shot step formula
//!   plus retired activation clauses, and only that answer counts;
//! * every verdict is derived from SAT/UNSAT answers only, which are
//!   semantic and hence identical across restart policies. The
//!   failed-assumption core of the final UNSAT step query is recorded as a
//!   diagnostic ([`KindStats::core_frames`] — how many frame assumptions the
//!   refutation actually used) but never steers the verdict: core contents
//!   are search-dependent, and using them (as BMC's empty-core early exit
//!   does) would break bit-reproducibility across policies.

use crate::control::{Budget, CancelToken, StopReason, Wall};
use crate::unroll::{Answer, UnrollError, Unroller};
use bip_core::sym::StepEncoder;
use bip_core::{State, StatePred, Step, System};
use satkit::{Lit, RestartPolicy};
use std::time::Instant;

/// Builder for a k-induction proof run (mirrors [`crate::bmc::BmcConfig`]).
#[derive(Debug, Clone)]
pub struct KindConfig<'a> {
    sys: &'a System,
    max_k: usize,
    enum_budget: u64,
    budget: Budget,
    cancel: CancelToken,
    restart_policy: RestartPolicy,
}

impl<'a> KindConfig<'a> {
    /// A configuration for `sys` with the default induction depth of 64.
    pub fn new(sys: &'a System) -> KindConfig<'a> {
        KindConfig {
            sys,
            max_k: 64,
            enum_budget: bip_core::sym::DEFAULT_ENUM_BUDGET,
            budget: Budget::unlimited(),
            cancel: CancelToken::new(),
            restart_policy: RestartPolicy::hybrid(),
        }
    }

    /// Set the deepest induction depth to attempt before giving up with
    /// [`StopReason::BoundExhausted`].
    #[must_use]
    pub fn max_k(mut self, k: usize) -> KindConfig<'a> {
        self.max_k = k;
        self
    }

    /// Set the encoder's expression-enumeration budget (see
    /// [`StepEncoder::enum_budget`]).
    #[must_use]
    pub fn enum_budget(mut self, budget: u64) -> KindConfig<'a> {
        self.enum_budget = budget;
        self
    }

    /// Override both solvers' restart policy (default
    /// [`RestartPolicy::hybrid`]). The verdict is identical under any
    /// policy; only the [`KindStats`] diagnostics move.
    #[must_use]
    pub fn restart_policy(mut self, policy: RestartPolicy) -> KindConfig<'a> {
        self.restart_policy = policy;
        self
    }

    /// Bound the run's resources. `max_conflicts` is a cumulative ceiling
    /// over **both** persistent solvers; the deadline is checked between
    /// queries. Either trip ends the run with [`Verdict::Unknown`] — never a
    /// wrong verdict.
    #[must_use]
    pub fn budget(mut self, budget: Budget) -> KindConfig<'a> {
        self.budget = budget;
        self
    }

    /// Observe `token` for cancellation. The token is installed as both
    /// solvers' interrupt flag, so cancellation cuts even a long-running
    /// query short.
    #[must_use]
    pub fn cancel(mut self, token: &CancelToken) -> KindConfig<'a> {
        self.cancel = token.clone();
        self
    }

    /// Prove that `inv` holds on every reachable state, refute it with a
    /// concrete trace, or give up within the configured resources.
    ///
    /// # Errors
    ///
    /// [`UnrollError::Encode`] if the system cannot be encoded (unbounded
    /// variable, enumeration budget); [`UnrollError::InvalidTrace`] if a
    /// base model fails concrete replay (an encoder bug — never a property
    /// of the system).
    pub fn prove(&self, inv: &StatePred) -> Result<ProofReport, UnrollError> {
        let start = Instant::now();
        let enc = StepEncoder::new(self.sys)?.enum_budget(self.enum_budget);
        // The step side drives its own solver: fork the encoder so neither
        // side's cached literals leak into the other's variable space.
        let senc = enc.fork();
        let unroller = |enc| {
            Unroller::new(
                self.sys,
                enc,
                self.budget,
                &self.cancel,
                self.restart_policy,
            )
        };
        let mut base = unroller(enc).init_pinned();
        // Step frames are *not* pinned to the initial state: they quantify
        // over arbitrary in-domain states.
        let mut step = unroller(senc).simple_path();
        let (verdict, core_frames) = self.induct(&mut base, &mut step, inv)?;
        Ok(ProofReport {
            stop: match verdict {
                Verdict::Unknown(stop) => stop,
                _ => StopReason::Completed,
            },
            verdict,
            stats: KindStats::collect(&mut base, &mut step, core_frames),
            elapsed: Wall(start.elapsed()),
        })
    }

    /// The induction loop: the verdict, and with it the number of frame
    /// assumptions in the closing query's core ([`KindStats::core_frames`]).
    fn induct(
        &self,
        base: &mut Unroller,
        step: &mut Unroller,
        inv: &StatePred,
    ) -> Result<(Verdict, usize), UnrollError> {
        // `p_lits[i]` assumes the invariant at step frame `i`.
        let mut p_lits: Vec<Lit> = Vec::new();
        for k in 0..=self.max_k {
            // Resource check between queries; the conflict ceiling is
            // cumulative over both solvers.
            if let Some(stop) = base.interrupted(step.solver().conflicts()) {
                return Ok((Verdict::Unknown(stop), 0));
            }

            // ---- base case: no reachable violation at depth k ----------
            let inv_lit = base.pred(k, inv)?;
            let act = base.guarded(!inv_lit);
            match base.query(&[act], step.solver().conflicts()) {
                Answer::Unknown(stop) => return Ok((Verdict::Unknown(stop), 0)),
                Answer::Sat => {
                    let (trace, states) = base.witness(k, inv)?;
                    return Ok((Verdict::Violated { trace, states }, 0));
                }
                // Retire the goal. Unlike BMC, do NOT act on an empty
                // failed-assumption core: core emptiness is
                // search-dependent, and the step side below proves
                // terminating systems deterministically anyway (no
                // (k+2)-state simple path exists ⇒ step UNSAT).
                Answer::Unsat { .. } => base.assert_lit(!act),
            }

            // ---- inductive step: inv on frames 0..=k, ¬inv at k + 1 ----
            // Frame k + 1 (pairwise-distinct from every earlier frame) is
            // addressed *before* the hypothesis on frame k is encoded: the
            // step relation out of frame k caches literals the predicate
            // encoding then reuses, and the solver must see that order.
            step.extend_to(k + 1)?;
            // Assumption literal for "inv holds at frame k".
            let inv_k = step.pred(k, inv)?;
            p_lits.push(step.guarded(inv_k));
            // Goal: inv fails at frame k + 1, guarded for later retirement.
            let inv_next = step.pred(k + 1, inv)?;
            let act_s = step.guarded(!inv_next);

            let mut assumptions = p_lits.clone();
            assumptions.push(act_s);
            match step.query(&assumptions, base.solver().conflicts()) {
                Answer::Unknown(stop) => return Ok((Verdict::Unknown(stop), 0)),
                Answer::Unsat { .. } => {
                    // Base cleared depths 0..=k and no simple path carries
                    // the invariant over k + 1 frames into a violation:
                    // proved. The core is a diagnostic only (see module
                    // docs) — count how many frame assumptions it used.
                    let core = step.solver().failed_assumptions();
                    let core_frames = core.iter().filter(|l| p_lits.contains(l)).count();
                    return Ok((Verdict::Proved { k }, core_frames));
                }
                // A counterexample-to-induction exists at this depth;
                // retire the goal and deepen.
                Answer::Sat => step.assert_lit(!act_s),
            }
        }
        Ok((Verdict::Unknown(StopReason::BoundExhausted), 0))
    }
}

/// Verdict of a k-induction run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// The invariant holds on **every** reachable state — an unbounded
    /// proof, discharged at induction depth `k`. Independently re-checkable:
    /// [`certify_step`] re-derives the inductive step in a fresh solver (on
    /// the step side's incremental schedule, answering for the depth-`k`
    /// query alone), and any bounded engine (BMC at depth `k`, explicit
    /// search) re-derives the base.
    Proved {
        /// The induction depth the proof closed at.
        k: usize,
    },
    /// A reachable state violates the invariant. The trace has been
    /// **replayed on the concrete executor** — `states[0]` is the initial
    /// state, `states[i+1]` the verified successor of `states[i]` under
    /// `trace[i]`, and the last state violates the invariant.
    Violated {
        /// The steps of the counterexample, in order.
        trace: Vec<Step>,
        /// The states along the counterexample (`trace.len() + 1` entries).
        states: Vec<State>,
    },
    /// Neither proved nor refuted within the configured resources (depth,
    /// conflicts, deadline, cancellation). Never wrong — just unfinished.
    Unknown(StopReason),
}

/// Solver diagnostics of a k-induction run, split per side.
///
/// Like [`Wall`], stats compare equal to everything: conflict and decision
/// counts vary across restart policies while the *verdict* does not, and
/// [`ProofReport`] equality is about the verdict. Fields are still exact for
/// a single run (the solvers are deterministic), so repeated identical runs
/// produce field-identical stats.
#[derive(Debug, Clone, Default)]
pub struct KindStats {
    /// Conflicts in the base (BMC) solver.
    pub base_conflicts: u64,
    /// Decisions in the base solver.
    pub base_decisions: u64,
    /// Propagations in the base solver.
    pub base_propagations: u64,
    /// Variables allocated in the base solver.
    pub base_vars: usize,
    /// Clauses (original + kept learnts) in the base solver.
    pub base_clauses: usize,
    /// Conflicts in the inductive-step solver.
    pub step_conflicts: u64,
    /// Decisions in the step solver.
    pub step_decisions: u64,
    /// Propagations in the step solver.
    pub step_propagations: u64,
    /// Variables allocated in the step solver.
    pub step_vars: usize,
    /// Clauses (original + kept learnts) in the step solver.
    pub step_clauses: usize,
    /// On [`Verdict::Proved`]: how many of the per-frame invariant
    /// assumptions appear in the final step query's failed-assumption core —
    /// a (search-dependent, diagnostic-only) measure of how much of the
    /// induction hypothesis the refutation actually used. 0 otherwise.
    pub core_frames: usize,
}

impl KindStats {
    fn collect(base: &mut Unroller, step: &mut Unroller, core_frames: usize) -> KindStats {
        let (b, s) = (base.solver(), step.solver());
        KindStats {
            base_conflicts: b.conflicts(),
            base_decisions: b.decisions(),
            base_propagations: b.propagations(),
            base_vars: b.num_vars(),
            base_clauses: b.num_clauses(),
            step_conflicts: s.conflicts(),
            step_decisions: s.decisions(),
            step_propagations: s.propagations(),
            step_vars: s.num_vars(),
            step_clauses: s.num_clauses(),
            core_frames,
        }
    }
}

impl PartialEq for KindStats {
    fn eq(&self, _: &KindStats) -> bool {
        true
    }
}

impl Eq for KindStats {}

/// Result of [`KindConfig::prove`].
#[must_use = "inspect the verdict; Unknown is not a proof"]
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProofReport {
    /// The verdict.
    pub verdict: Verdict,
    /// Why the run stopped. [`StopReason::Completed`] accompanies a
    /// definitive verdict; everything else accompanies
    /// [`Verdict::Unknown`].
    pub stop: StopReason,
    /// Solver diagnostics (excluded from report equality, like `elapsed`).
    pub stats: KindStats,
    /// Wall-clock the run took (excluded from report equality).
    pub elapsed: Wall,
}

impl ProofReport {
    /// The counterexample, if the run found one.
    pub fn violation(&self) -> Option<(&[Step], &[State])> {
        match &self.verdict {
            Verdict::Violated { trace, states } => Some((trace, states)),
            _ => None,
        }
    }

    /// Whether the run established the invariant outright.
    pub fn is_proved(&self) -> bool {
        matches!(self.verdict, Verdict::Proved { .. })
    }
}

/// Re-derive the inductive step of a [`Verdict::Proved`]`{ k }` verdict in a
/// **fresh** solver sharing no state with the prover, and return whether no
/// path of `k + 2` pairwise-distinct states carries the invariant on frames
/// `0..=k` into a violation at `k + 1`.
///
/// The check replays the prover's step-side schedule with its own loop: for
/// each depth `j` in `0..=k` it addresses frame `j + 1`, adds a guarded
/// hypothesis on frame `j`, queries under every hypothesis plus a guarded
/// violation at `j + 1`, and retires that goal. Each query learns for the
/// next, so the check costs about what the proof's step side cost instead of
/// one cold solve. Only the answer at `j == k` counts: its formula is the
/// one-shot one (hypotheses on `0..=k`, violation at `k + 1`) plus the
/// retired goals, whose activation literals nothing else mentions, so they
/// exclude no model of it: a certificate means exactly that the one-shot
/// formula is unsatisfiable. Together with an
/// independent base check (BMC `NoViolationWithin(k)` or explicit search to
/// depth `k`) this is a complete proof certificate check.
///
/// # Errors
///
/// [`UnrollError::Encode`] if the system cannot be encoded.
pub fn certify_step(
    sys: &System,
    inv: &StatePred,
    k: usize,
    enum_budget: u64,
) -> Result<bool, UnrollError> {
    let enc = StepEncoder::new(sys)?.enum_budget(enum_budget);
    // Its own encoder, solver, token and (unlimited) budget: nothing the
    // prover holds can reach this check.
    let mut u = Unroller::new(
        sys,
        enc,
        Budget::unlimited(),
        &CancelToken::new(),
        RestartPolicy::default(),
    )
    .simple_path();
    // Deliberately not `KindConfig::induct`: a bug in the prover's loop must
    // not be able to certify itself. Frame j + 1 is addressed before the
    // hypothesis on frame j, as on the prover's step side.
    let mut hyps: Vec<Lit> = Vec::with_capacity(k + 2);
    let mut answer = Answer::Sat;
    for j in 0..=k {
        u.extend_to(j + 1)?;
        let holds = u.pred(j, inv)?;
        hyps.push(u.guarded(holds));
        let next = u.pred(j + 1, inv)?;
        let act = u.guarded(!next);
        hyps.push(act);
        // An UNSAT before `k` does not end the loop: only the last answer
        // is the certificate.
        answer = u.query(&hyps, 0);
        hyps.pop();
        u.assert_lit(!act);
    }
    // With no budget and a token nobody cancels, `Unknown` cannot happen;
    // if it ever did, it certifies nothing.
    Ok(matches!(answer, Answer::Unsat { .. }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bmc::{BmcConfig, BmcOutcome};
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

    /// "philosophers i and i+1 never eat at once" in the conservative
    /// (atomic two-fork) variant — a true invariant that is *not*
    /// 1-inductive: an arbitrary state with philosopher 0 eating says
    /// nothing about fork 1, so a CTI exists at small k.
    fn adjacent_mutex(n: usize) -> StatePred {
        StatePred::And(
            (0..n)
                .map(|i| {
                    StatePred::Not(Box::new(StatePred::And(vec![
                        StatePred::AtLoc(i, 1),
                        StatePred::AtLoc((i + 1) % n, 1),
                    ])))
                })
                .collect(),
        )
    }

    #[test]
    fn violation_found_at_exact_depth_and_replayed() {
        let sys = counter_system(5);
        let inv = StatePred::Not(Box::new(StatePred::Eq(GExpr::var(0, 0), GExpr::int(4))));
        let r = KindConfig::new(&sys).prove(&inv).unwrap();
        let (trace, states) = r.violation().expect("n reaches 4");
        assert_eq!(trace.len(), 4, "shortest counterexample has 4 steps");
        assert_eq!(states.last().unwrap().vars[0], 4);
        assert_eq!(r.stop, StopReason::Completed);
    }

    #[test]
    fn terminating_counter_is_proved_without_special_casing() {
        // n stops at 5; "n ≤ 5" is beyond any bounded check's reach but the
        // step side closes as soon as no simple path of k+2 states exists.
        let sys = counter_system(5);
        let inv = StatePred::Le(GExpr::var(0, 0), GExpr::int(5));
        let r = KindConfig::new(&sys).prove(&inv).unwrap();
        let Verdict::Proved { k } = r.verdict else {
            panic!("expected a proof, got {:?}", r.verdict);
        };
        assert_eq!(r.stop, StopReason::Completed);
        assert!(certify_step(&sys, &inv, k, 4096).unwrap(), "certificate");
    }

    #[test]
    fn adjacent_mutex_is_proved_and_certified() {
        let sys = dining_philosophers(3, false).unwrap();
        let inv = adjacent_mutex(3);
        let r = KindConfig::new(&sys).prove(&inv).unwrap();
        let Verdict::Proved { k } = r.verdict else {
            panic!("expected a proof, got {:?}", r.verdict);
        };
        // Certificate: fresh-solver inductive step + independent base.
        assert!(certify_step(&sys, &inv, k, 4096).unwrap());
        let base = BmcConfig::new(&sys).bound(k).check_invariant(&inv).unwrap();
        assert_eq!(base.outcome, BmcOutcome::NoViolationWithin(k));
    }

    #[test]
    fn max_k_exhaustion_is_unknown_not_wrong() {
        // The counter violates "n ≠ 4" at depth 4: with max_k 2 the run must
        // give up, never claim a proof.
        let sys = counter_system(5);
        let inv = StatePred::Not(Box::new(StatePred::Eq(GExpr::var(0, 0), GExpr::int(4))));
        let r = KindConfig::new(&sys).max_k(2).prove(&inv).unwrap();
        assert_eq!(r.verdict, Verdict::Unknown(StopReason::BoundExhausted));
        assert_eq!(r.stop, StopReason::BoundExhausted);
    }

    #[test]
    fn cancelled_token_stops_kind() {
        let sys = dining_philosophers(3, false).unwrap();
        let token = CancelToken::new();
        token.cancel();
        let r = KindConfig::new(&sys)
            .cancel(&token)
            .prove(&adjacent_mutex(3))
            .unwrap();
        assert_eq!(r.verdict, Verdict::Unknown(StopReason::Cancelled));
    }

    #[test]
    fn expired_deadline_stops_kind() {
        use std::time::{Duration, Instant};
        let sys = dining_philosophers(3, false).unwrap();
        let r = KindConfig::new(&sys)
            .budget(Budget::unlimited().deadline(Instant::now() - Duration::from_millis(1)))
            .prove(&adjacent_mutex(3))
            .unwrap();
        assert_eq!(r.verdict, Verdict::Unknown(StopReason::Deadline));
        assert_eq!(r.stop, StopReason::Deadline);
    }

    #[test]
    fn wide_guarded_counter_is_proved_at_its_limit() {
        // Limit 100 exceeds the old widen-to-TOP cadence: this system used
        // to be declined outright; now it encodes *and* proves.
        let sys = counter_system(100);
        let inv = StatePred::Le(GExpr::var(0, 0), GExpr::int(100));
        let r = KindConfig::new(&sys).prove(&inv).unwrap();
        assert!(r.is_proved(), "got {:?}", r.verdict);
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
        let err = KindConfig::new(&sys).prove(&StatePred::True).unwrap_err();
        assert!(matches!(
            err,
            UnrollError::Encode(bip_core::sym::SymError::UnboundedVar { .. })
        ));
        assert!(err.to_string().contains("no finite bound"));
    }
}
