//! The sequential engine: single-threaded execution of a BIP system on the
//! compiled enabled-set protocol, with monitors and trace recording.

use bip_core::{EnabledSet, State, StatePred, Step, System};

use crate::engine::{Engine, ExecContext, RunReport};
use crate::monitor::Monitor;
use crate::policy::Policy;
use crate::run_loop;
use crate::trace::Trace;

/// Single-threaded BIP execution engine.
///
/// The hot loop drives [`System::refresh_enabled`] /
/// [`System::for_each_enabled`] / [`System::fire_into`]: after the first
/// step, only connectors watching components that moved are re-evaluated,
/// and no allocation happens while the trace is off.
///
/// # Example
///
/// ```
/// use bip_core::dining_philosophers;
/// use bip_engine::{SequentialEngine, RandomPolicy};
///
/// let sys = dining_philosophers(5, false)?;
/// let mut engine = SequentialEngine::new(sys, RandomPolicy::new(7));
/// let report = engine.run(1000);
/// assert_eq!(report.steps, 1000); // conservative philosophers never block
/// # Ok::<(), bip_core::ModelError>(())
/// ```
#[derive(Debug)]
pub struct SequentialEngine<P: Policy> {
    sys: System,
    state: State,
    es: EnabledSet,
    ctx: ExecContext<P>,
}

impl<P: Policy> SequentialEngine<P> {
    /// Create an engine at the system's initial state.
    pub fn new(sys: System, policy: P) -> SequentialEngine<P> {
        let state = sys.initial_state();
        let es = sys.new_enabled_set();
        SequentialEngine {
            sys,
            state,
            es,
            ctx: ExecContext::new(policy),
        }
    }

    /// Attach a safety monitor.
    pub fn add_monitor(&mut self, name: impl Into<String>, pred: StatePred) -> &mut Self {
        self.ctx.add_monitor(name, pred);
        self
    }

    /// Stop the run at the first monitor violation.
    pub fn stop_on_violation(&mut self, yes: bool) -> &mut Self {
        self.ctx.stop_on_violation = yes;
        self
    }

    /// Record fired steps into the trace (default on; turn off for
    /// allocation-free hot loops).
    pub fn record_trace(&mut self, yes: bool) -> &mut Self {
        self.ctx.record_trace = yes;
        self
    }

    /// The system being executed.
    pub fn system(&self) -> &System {
        &self.sys
    }

    /// Current state.
    pub fn state(&self) -> &State {
        &self.state
    }

    /// The recorded trace so far.
    pub fn trace(&self) -> &Trace {
        &self.ctx.trace
    }

    /// Attached monitors.
    pub fn monitors(&self) -> &[Monitor] {
        &self.ctx.monitors
    }

    /// The shared execution context (policy, monitors, trace).
    pub fn context(&self) -> &ExecContext<P> {
        &self.ctx
    }

    /// Mutable access to the execution context.
    pub fn context_mut(&mut self) -> &mut ExecContext<P> {
        &mut self.ctx
    }

    /// Reset to the initial state (keeps monitors and policy; clears the
    /// trace and run counters).
    pub fn reset(&mut self) {
        self.state = self.sys.initial_state();
        self.es.invalidate_all();
        self.ctx.reset();
    }

    /// Execute one step under the policy; `None` on deadlock.
    pub fn step(&mut self) -> Option<Step> {
        self.ctx
            .choose_and_fire(&self.sys, &mut self.state, &mut self.es, |_| true)
    }

    /// Execute up to `budget` steps.
    pub fn run(&mut self, budget: usize) -> RunReport {
        run_loop!(self, budget, |eng| eng.step(), &self.sys, &self.state)
    }

    /// Summary of everything executed so far.
    pub fn report(&self) -> RunReport {
        self.ctx.report()
    }
}

impl<P: Policy> Engine for SequentialEngine<P> {
    fn system(&self) -> &System {
        &self.sys
    }

    fn state(&self) -> &State {
        &self.state
    }

    fn step(&mut self) -> Option<Step> {
        SequentialEngine::step(self)
    }

    fn run(&mut self, budget: usize) -> RunReport {
        SequentialEngine::run(self, budget)
    }

    fn report(&self) -> RunReport {
        SequentialEngine::report(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::StopReason;
    use crate::policy::RandomPolicy;
    use bip_core::dining_philosophers;

    #[test]
    fn runs_to_budget_on_live_system() {
        let sys = dining_philosophers(3, false).unwrap();
        let mut e = SequentialEngine::new(sys, RandomPolicy::new(1));
        let r = e.run(500);
        assert_eq!(r.steps, 500);
        assert_eq!(r.stop, StopReason::BudgetExhausted);
        assert_eq!(e.trace().len(), 500);
    }

    /// Prefers left-fork grabs — drives two-phase philosophers into the
    /// all-hold-left circular wait.
    struct GreedyLeft;

    impl crate::policy::Policy for GreedyLeft {
        fn choose(
            &mut self,
            sys: &bip_core::System,
            _st: &bip_core::State,
            options: &[bip_core::EnabledStep],
        ) -> usize {
            options
                .iter()
                .position(|s| match s {
                    bip_core::EnabledStep::Interaction(ir) => {
                        sys.connector(ir.connector).name.starts_with("takeL")
                    }
                    _ => false,
                })
                .unwrap_or(0)
        }
        fn name(&self) -> &str {
            "greedy-left"
        }
    }

    #[test]
    fn detects_deadlock() {
        let sys = dining_philosophers(3, true).unwrap();
        let mut e = SequentialEngine::new(sys, GreedyLeft);
        let r = e.run(10_000);
        assert_eq!(r.stop, StopReason::Deadlock);
        assert_eq!(r.steps, 3, "three left grabs then circular wait");
    }

    #[test]
    fn monitors_observe_mutual_exclusion() {
        let sys = dining_philosophers(4, false).unwrap();
        let mutex = bip_core::StatePred::mutex(&sys, [(0, "eating"), (1, "eating")]);
        let mut e = SequentialEngine::new(sys, RandomPolicy::new(3));
        e.add_monitor("mutex01", mutex);
        let r = e.run(2000);
        assert_eq!(r.monitor_violations, vec![("mutex01".to_string(), 0)]);
    }

    #[test]
    fn stop_on_violation_halts() {
        let sys = dining_philosophers(2, false).unwrap();
        // "phil0 never eats" will be violated eventually.
        let never = bip_core::StatePred::at(&sys, 0, "eating").not();
        let mut e = SequentialEngine::new(sys, RandomPolicy::new(9));
        e.add_monitor("never-eat", never);
        e.stop_on_violation(true);
        let r = e.run(10_000);
        assert_eq!(r.stop, StopReason::MonitorViolation);
        assert!(e.monitors()[0].violations() >= 1);
    }

    #[test]
    fn reset_restores_initial_state() {
        let sys = dining_philosophers(2, false).unwrap();
        let init = sys.initial_state();
        let mut e = SequentialEngine::new(sys, RandomPolicy::new(5));
        // Odd step count: each eat/rel pair cancels, so an odd total cannot
        // land back on the initial state.
        e.run(11);
        assert_ne!(e.state(), &init);
        e.reset();
        assert_eq!(e.state(), &init);
        assert!(e.trace().is_empty());
    }

    #[test]
    fn reset_clears_report_counters() {
        let sys = dining_philosophers(2, false).unwrap();
        let mut e = SequentialEngine::new(sys, RandomPolicy::new(5));
        e.run(100);
        assert_eq!(e.report().steps, 100);
        e.reset();
        assert_eq!(
            e.report().steps,
            0,
            "report must agree with the empty trace"
        );
        assert!(e.trace().is_empty());
    }

    #[test]
    fn engine_trait_object_runs() {
        let sys = dining_philosophers(3, false).unwrap();
        let mut e = SequentialEngine::new(sys, RandomPolicy::new(4));
        let engine: &mut dyn Engine = &mut e;
        let r = engine.run(100);
        assert_eq!(r.steps, 100);
        assert_eq!(engine.report().steps, 100);
    }

    #[test]
    fn trace_off_still_counts_steps() {
        let sys = dining_philosophers(3, false).unwrap();
        let mut e = SequentialEngine::new(sys, RandomPolicy::new(2));
        e.record_trace(false);
        let r = e.run(250);
        assert_eq!(r.steps, 250);
        assert!(e.trace().is_empty());
        assert_eq!(e.report().steps, 250);
    }

    #[test]
    fn engine_agrees_with_legacy_successors_walk() {
        // Same policy decisions → the engine's visited states must be
        // reachable via the legacy successor relation at every step.
        let sys = dining_philosophers(3, false).unwrap();
        let mut e = SequentialEngine::new(sys.clone(), RandomPolicy::new(17));
        for _ in 0..100 {
            let before = e.state().clone();
            let step = e.step().expect("live system");
            let succ = sys.successors(&before);
            assert!(
                succ.iter().any(|(s, next)| *s == step && next == e.state()),
                "engine step not in legacy successor set"
            );
        }
    }
}
