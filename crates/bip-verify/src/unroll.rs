//! The one incremental unrolling under [`crate::bmc`], both sides of
//! [`crate::kind`], and [`crate::kind::certify_step`].
//!
//! An [`Unroller`] owns one [`StepEncoder`], one persistent solver (cancel
//! token installed as its interrupt flag, restart policy set once), and the
//! frames and step relations encoded so far. Its users differ only in two
//! flags (is frame 0 pinned to the initial state? are frames kept pairwise
//! distinct?) and in the goals they hang off it — `docs/ARCHITECTURE.md`
//! §6/§8 tabulate them.
//!
//! **On-demand frames.** Frame `d` and the step relation `d-1 → d` are
//! encoded the first time something names frame `d`, in order, never ahead
//! of need: a run that stops at depth `d` has paid for `d` step relations.
//!
//! **Solver-visible order.** satkit is deterministic, so reports stay
//! bit-identical only while the solver is fed the same variable and clause
//! sequence: `new_frame` (+ `assert_initial` on a pinned frame 0) →
//! `encode_step` from the previous frame → `assert_frames_distinct` against
//! frames `0..d` in order → `encode_pred` → fresh activation variable →
//! implication → solve → unit retiring the goal. `tests/{bmc,kind}.rs` pin
//! the resulting counts.

use crate::control::{Budget, CancelToken, StopReason};
use bip_core::sym::{StepEncoder, StepVars, SymError, SymFrame};
use bip_core::{State, StatePred, Step, System};
use satkit::{CnfBuilder, Lit, RestartPolicy, SolveResult, Solver};

/// Why a symbolic run ([`crate::bmc`], [`crate::kind`]) failed, as opposed
/// to returning a verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UnrollError {
    /// The system could not be encoded to CNF (see [`SymError`]).
    Encode(SymError),
    /// A satisfying model did not replay on the concrete executor. This is
    /// diagnostic of an encoder/decoder bug; it is never a system property.
    InvalidTrace(String),
}

impl std::fmt::Display for UnrollError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UnrollError::Encode(e) => write!(f, "unroll: {e}"),
            UnrollError::InvalidTrace(msg) => {
                write!(f, "unroll: counterexample failed concrete replay: {msg}")
            }
        }
    }
}

impl std::error::Error for UnrollError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            UnrollError::Encode(e) => Some(e),
            UnrollError::InvalidTrace(_) => None,
        }
    }
}

impl From<SymError> for UnrollError {
    fn from(e: SymError) -> UnrollError {
        UnrollError::Encode(e)
    }
}

/// Answer of one [`Unroller::query`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Answer {
    /// A model exists; decode it with [`Unroller::witness`].
    Sat,
    /// No model under the assumptions; with `core_empty`, none whatever is
    /// assumed (the failed-assumption core is empty). Search-dependent — see
    /// `kind`'s module docs for why only BMC may act on it.
    Unsat { core_empty: bool },
    /// Cut short: cancelled, past the deadline, or out of conflicts.
    Unknown(StopReason),
}

/// One incremental unrolling of a system's transition relation in one
/// persistent solver (see the [module docs](self)).
pub(crate) struct Unroller<'a> {
    sys: &'a System,
    enc: StepEncoder<'a>,
    b: CnfBuilder,
    budget: Budget,
    cancel: CancelToken,
    init_pinned: bool,
    simple_path: bool,
    frames: Vec<SymFrame>,
    /// `steps[i]` relates frame `i` to frame `i + 1`.
    steps: Vec<StepVars>,
}

impl<'a> Unroller<'a> {
    /// An unrolling over arbitrary in-domain states, nothing encoded yet.
    /// `enc` must not have driven another solver ([`StepEncoder::fork`] one
    /// that has): its cached literals live in one variable space.
    pub(crate) fn new(
        sys: &'a System,
        enc: StepEncoder<'a>,
        budget: Budget,
        cancel: &CancelToken,
        restart_policy: RestartPolicy,
    ) -> Unroller<'a> {
        let mut b = CnfBuilder::new();
        b.solver_mut().set_interrupt(Some(cancel.flag()));
        b.solver_mut().set_restart_policy(restart_policy);
        Unroller {
            sys,
            enc,
            b,
            budget,
            cancel: cancel.clone(),
            init_pinned: false,
            simple_path: false,
            frames: Vec::new(),
            steps: Vec::new(),
        }
    }

    /// Pin frame 0 to the initial state ([`StepEncoder::assert_initial`]).
    pub(crate) fn init_pinned(mut self) -> Unroller<'a> {
        self.init_pinned = true;
        self
    }

    /// Keep the frames pairwise distinct: each new one gets
    /// [`StepEncoder::assert_frames_distinct`] against every earlier one.
    pub(crate) fn simple_path(mut self) -> Unroller<'a> {
        self.simple_path = true;
        self
    }

    /// Address frame `d`: encode every frame up to it that does not exist
    /// yet, each chained to its predecessor by the step relation.
    pub(crate) fn extend_to(&mut self, d: usize) -> Result<(), SymError> {
        while self.frames.len() <= d {
            let next = self.enc.new_frame(&mut self.b);
            match self.frames.last_mut() {
                None if self.init_pinned => self.enc.assert_initial(&mut self.b, &next),
                None => {}
                Some(prev) => {
                    let sv = self.enc.encode_step(&mut self.b, prev, &next)?;
                    self.steps.push(sv);
                }
            }
            if self.simple_path {
                for earlier in &self.frames {
                    self.enc.assert_frames_distinct(&mut self.b, earlier, &next);
                }
            }
            self.frames.push(next);
        }
        Ok(())
    }

    /// The literal of `pred` at frame `d` (addressing the frame first).
    pub(crate) fn pred(&mut self, d: usize, pred: &StatePred) -> Result<Lit, SymError> {
        self.extend_to(d)?;
        self.enc.encode_pred(&mut self.b, &mut self.frames[d], pred)
    }

    /// A fresh activation literal `a` with `a → l`: assume `a` to impose
    /// `l` for one query, [`Unroller::assert_lit`] `!a` to retire it.
    pub(crate) fn guarded(&mut self, l: Lit) -> Lit {
        let a = Lit::pos(self.b.solver_mut().new_var());
        self.b.implies(a, l);
        a
    }

    /// Assert `l` for good.
    pub(crate) fn assert_lit(&mut self, l: Lit) {
        self.b.assert_lit(l);
    }

    /// The solver, for reading counters and the failed-assumption core.
    pub(crate) fn solver(&mut self) -> &Solver {
        self.b.solver_mut()
    }

    /// The poll between queries, where stopping is always sound (every
    /// answer so far is final). The conflict ceiling is cumulative over this
    /// solver plus `elsewhere`, the conflicts of the run's other solver.
    pub(crate) fn interrupted(&mut self, elsewhere: u64) -> Option<StopReason> {
        let spent = self.solver().conflicts() + elsewhere;
        let spent_out = self.budget.max_conflicts.is_some_and(|m| spent >= m);
        let interrupted = self.budget.interrupted(&self.cancel);
        interrupted.or(spent_out.then_some(StopReason::SolverBudget))
    }

    /// Solve under `assumptions` with whatever the cumulative conflict
    /// ceiling leaves (`elsewhere` as in [`Unroller::interrupted`]).
    pub(crate) fn query(&mut self, assumptions: &[Lit], elsewhere: u64) -> Answer {
        let spent = self.solver().conflicts() + elsewhere;
        let limits = self.budget.solve_limits(spent);
        let solver = self.b.solver_mut();
        match solver.solve_limited(assumptions, limits) {
            SolveResult::Sat => Answer::Sat,
            SolveResult::Unsat => Answer::Unsat {
                core_empty: solver.failed_assumptions().is_empty(),
            },
            SolveResult::Unknown => {
                let stop = self.budget.interrupted(&self.cancel);
                Answer::Unknown(stop.unwrap_or(StopReason::SolverBudget))
            }
        }
    }

    /// After [`Answer::Sat`] on an init-pinned unrolling: decode the run
    /// through frames `0..=d` and **replay it on the concrete executor**, so
    /// an encoder bug is an [`UnrollError::InvalidTrace`], not a false alarm.
    pub(crate) fn witness(
        &mut self,
        d: usize,
        inv: &StatePred,
    ) -> Result<(Vec<Step>, Vec<State>), UnrollError> {
        let model = self.b.solver_mut().model();
        let states: Vec<State> = self.frames[..=d]
            .iter()
            .map(|f| self.enc.decode_state(f, &model))
            .collect();
        let mut trace = Vec::with_capacity(d);
        for sv in &self.steps[..d] {
            trace.push(self.enc.decode_step(sv, &model).ok_or_else(|| {
                UnrollError::InvalidTrace("model selects no action in an unrolled frame".into())
            })?);
        }
        replay(self.sys, inv, &states, &trace)?;
        Ok((trace, states))
    }
}

/// Validate a decoded counterexample against the concrete semantics: every
/// `(state, step, state)` triple must be an actual transition enumerated by
/// `for_each_successor`, and the final state must violate the invariant.
fn replay(
    sys: &System,
    inv: &StatePred,
    states: &[State],
    trace: &[Step],
) -> Result<(), UnrollError> {
    if states.len() != trace.len() + 1 {
        return Err(UnrollError::InvalidTrace(format!(
            "{} states for {} steps",
            states.len(),
            trace.len()
        )));
    }
    if states[0] != sys.initial_state() {
        return Err(UnrollError::InvalidTrace(
            "frame 0 does not decode to the initial state".into(),
        ));
    }
    let mut es = sys.new_enabled_set();
    let mut scratch = sys.new_succ_scratch();
    for (i, step) in trace.iter().enumerate() {
        let mut matched = false;
        es.invalidate_all();
        sys.for_each_successor(&states[i], &mut es, &mut scratch, |s, next| {
            if !matched && next == &states[i + 1] && &s.to_step(sys) == step {
                matched = true;
            }
        });
        if !matched {
            return Err(UnrollError::InvalidTrace(format!(
                "step {i} is not a concrete transition between the decoded states"
            )));
        }
    }
    if inv.eval(sys, states.last().expect("non-empty")) {
        return Err(UnrollError::InvalidTrace(
            "final state does not violate the invariant".into(),
        ));
    }
    Ok(())
}
