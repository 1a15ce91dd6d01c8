//! The unified execution API: the [`Engine`] trait and the shared
//! [`ExecContext`].
//!
//! Every runtime — [`crate::SequentialEngine`], [`crate::ThreadedEngine`],
//! and `bip_rt::RtEngine` — drives the same compiled enabled-set protocol
//! ([`bip_core::EnabledSet`]) and carries the same [`ExecContext`] (policy,
//! safety monitors, trace), so backends are interchangeable: code written
//! against `impl Engine` can execute single-threaded, one-thread-per-atom,
//! or under a real-time duration assignment without change. Each step of
//! each backend is one [`ExecContext::choose_and_fire`] call; the backends
//! differ only in which enabled steps they admit.

use bip_core::{EnabledSet, EnabledStep, State, StatePred, Step, System};

use crate::monitor::{Monitor, MonitorVerdict};
use crate::policy::Policy;
use crate::trace::Trace;

/// Why a run stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The step budget was exhausted.
    BudgetExhausted,
    /// No step was enabled (deadlock).
    Deadlock,
    /// A monitor flagged a violation and the engine was configured to stop.
    MonitorViolation,
}

/// Summary of a run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Steps actually executed.
    pub steps: usize,
    /// Why the run ended.
    pub stop: StopReason,
    /// Monitor violation counts, by monitor name.
    pub monitor_violations: Vec<(String, usize)>,
}

/// The execution context shared by every engine: the scheduling [`Policy`],
/// runtime [`Monitor`]s, the recorded [`Trace`], and run bookkeeping.
///
/// `P` defaults to a boxed policy so heterogeneous engines can share one
/// context type; engines with a statically-known policy avoid the vtable.
#[derive(Debug)]
pub struct ExecContext<P: Policy = Box<dyn Policy>> {
    /// Resolves the nondeterminism left after priorities.
    pub policy: P,
    /// Safety monitors checked on every visited state.
    pub monitors: Vec<Monitor>,
    /// The recorded trace (empty while `record_trace` is off).
    pub trace: Trace,
    /// Stop the run at the first monitor violation.
    pub stop_on_violation: bool,
    /// Record fired steps into `trace` (on by default; turn off for
    /// allocation-free hot loops).
    pub record_trace: bool,
    /// Steps executed across all runs of this context.
    steps_total: usize,
    /// Stop reason of the most recent run.
    last_stop: StopReason,
    /// Reusable buffer of enabled steps offered to the policy.
    scratch: Vec<EnabledStep>,
}

impl<P: Policy> ExecContext<P> {
    /// Fresh context around a policy.
    pub fn new(policy: P) -> ExecContext<P> {
        ExecContext {
            policy,
            monitors: Vec::new(),
            trace: Trace::new(),
            stop_on_violation: false,
            record_trace: true,
            steps_total: 0,
            last_stop: StopReason::BudgetExhausted,
            scratch: Vec::new(),
        }
    }

    /// Attach a safety monitor.
    pub fn add_monitor(&mut self, name: impl Into<String>, pred: StatePred) {
        self.monitors.push(Monitor::new(name, pred));
    }

    /// Check every monitor against `st`; `true` if any flags a violation.
    pub fn check_monitors(&mut self, sys: &System, st: &State) -> bool {
        let mut violated = false;
        for m in &mut self.monitors {
            if m.check(sys, st) == MonitorVerdict::Violation {
                violated = true;
            }
        }
        violated
    }

    /// One engine step: bring `es` up to date with `st`, offer the policy
    /// the priority-surviving enabled steps that `admit` accepts, fire its
    /// choice in place (local nondeterminism resolved by
    /// [`Policy::choose_local`]) and record it. `None` when no enabled step
    /// is admitted; `st` and `es` are then untouched but refreshed.
    pub fn choose_and_fire(
        &mut self,
        sys: &System,
        st: &mut State,
        es: &mut EnabledSet,
        mut admit: impl FnMut(EnabledStep) -> bool,
    ) -> Option<Step> {
        sys.refresh_enabled(st, es);
        let scratch = &mut self.scratch;
        scratch.clear();
        sys.for_each_enabled(st, es, |s| {
            if admit(s) {
                scratch.push(s);
            }
        });
        if scratch.is_empty() {
            return None;
        }
        let i = self.policy.choose(sys, st, scratch).min(scratch.len() - 1);
        let chosen = scratch[i];
        let policy = &mut self.policy;
        let step = sys.fire_enabled(st, es, chosen, |sys, comp, cands| {
            policy.choose_local(sys, comp, cands)
        });
        self.note_step(sys, &step);
        Some(step)
    }

    /// Record a fired step (trace + step counter).
    pub fn note_step(&mut self, sys: &System, step: &Step) {
        self.steps_total += 1;
        if self.record_trace {
            self.trace.push(sys, step.clone());
        }
    }

    /// Record how the most recent run ended.
    pub fn note_stop(&mut self, stop: StopReason) {
        self.last_stop = stop;
    }

    /// Steps executed across all runs of this context.
    pub fn steps_total(&self) -> usize {
        self.steps_total
    }

    /// Reset trace and counters (monitors and policy are kept).
    pub fn reset(&mut self) {
        self.trace = Trace::new();
        self.steps_total = 0;
        self.last_stop = StopReason::BudgetExhausted;
    }

    /// Snapshot of the context's counters as a [`RunReport`].
    pub fn report(&self) -> RunReport {
        RunReport {
            steps: self.steps_total,
            stop: self.last_stop,
            monitor_violations: self
                .monitors
                .iter()
                .map(|m| (m.name().to_string(), m.violations()))
                .collect(),
        }
    }
}

/// A BIP execution backend.
///
/// The trait is the paper's engine concept (§5.6) made uniform: advance the
/// system one semantic step at a time under the context's policy, observe
/// every visited state with the context's monitors, and summarize runs.
/// Implementations: [`crate::SequentialEngine`] (single thread, compiled
/// hot path), [`crate::ThreadedEngine`] (one thread per atom plus the
/// engine), and `bip_rt::RtEngine` (discrete time under a duration map).
pub trait Engine {
    /// The system being executed.
    fn system(&self) -> &System;

    /// The engine's current global state.
    fn state(&self) -> &State;

    /// Execute one step; `None` when nothing is enabled (for a real-time
    /// engine: nothing will ever fire again).
    fn step(&mut self) -> Option<Step>;

    /// Execute up to `budget` steps, checking monitors on every visited
    /// state (including the state current at entry), honoring
    /// `stop_on_violation`.
    fn run(&mut self, budget: usize) -> RunReport;

    /// Summary of everything executed so far.
    fn report(&self) -> RunReport;
}

/// Expands to the shared `run` loop body: monitor the entry state, then
/// step until the budget, a deadlock, or a stopping violation. A macro
/// (rather than a generic function) so each engine keeps the disjoint field
/// borrows (`$self.ctx` vs. its system/state fields) the borrow checker can
/// see through. `$sys`/`$state` are accessor expressions over `$self`
/// (e.g. `&self.sys` or `self.exec.system()`); every `Engine` backend —
/// including `bip_rt::RtEngine` — expands this same definition, so run
/// semantics cannot diverge across backends.
#[doc(hidden)]
#[macro_export]
macro_rules! run_loop {
    ($self:ident, $budget:expr, |$eng:ident| $step:expr, $sys:expr, $state:expr) => {{
        let mut steps = 0usize;
        let mut stop = $crate::StopReason::BudgetExhausted;
        // Monitors observe the state current at entry, like every later one.
        let violated = $self.ctx.check_monitors($sys, $state);
        if violated && $self.ctx.stop_on_violation {
            stop = $crate::StopReason::MonitorViolation;
        } else {
            while steps < $budget {
                let $eng = &mut *$self;
                match $step {
                    None => {
                        stop = $crate::StopReason::Deadlock;
                        break;
                    }
                    Some(_) => {
                        steps += 1;
                        let violated = $self.ctx.check_monitors($sys, $state);
                        if violated && $self.ctx.stop_on_violation {
                            stop = $crate::StopReason::MonitorViolation;
                            break;
                        }
                    }
                }
            }
        }
        $self.ctx.note_stop(stop);
        let mut report = $self.ctx.report();
        report.steps = steps;
        report.stop = stop;
        report
    }};
}
