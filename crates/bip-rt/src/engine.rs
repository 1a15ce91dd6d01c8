//! The real-time engine: the unified [`Engine`] trait over
//! [`TimedExecution`].
//!
//! [`RtEngine`] is the third interchangeable backend of the execution API
//! (§5.6's single-thread real-time engine) and the only timed runner: steps
//! are chosen by the shared [`ExecContext::choose_and_fire`] among the
//! *fireable* steps (enabled ∧ all participants idle), time advances
//! automatically when nothing is fireable, and monitors/trace behave
//! exactly as in the sequential and threaded engines.

use bip_core::{State, StatePred, Step, System};
use bip_engine::{Engine, ExecContext, Policy, RunReport};

use crate::timedsys::{all_idle, DurationMap, TimedExecution};

/// Real-time execution engine over a duration assignment φ.
#[derive(Debug)]
pub struct RtEngine<'a, P: Policy> {
    exec: TimedExecution<'a>,
    ctx: ExecContext<P>,
}

impl<'a, P: Policy> RtEngine<'a, P> {
    /// Start at the initial state, time 0, everyone idle.
    pub fn new(sys: &'a System, phi: DurationMap, policy: P) -> RtEngine<'a, P> {
        RtEngine {
            exec: TimedExecution::new(sys, phi),
            ctx: ExecContext::new(policy),
        }
    }

    /// Current time.
    pub fn now(&self) -> u64 {
        self.exec.now()
    }

    /// The underlying timed execution.
    pub fn timed(&self) -> &TimedExecution<'a> {
        &self.exec
    }

    /// The shared execution context (policy, monitors, trace).
    pub fn context(&self) -> &ExecContext<P> {
        &self.ctx
    }

    /// Mutable access to the execution context.
    pub fn context_mut(&mut self) -> &mut ExecContext<P> {
        &mut self.ctx
    }

    /// Attach a safety monitor.
    pub fn add_monitor(&mut self, name: impl Into<String>, pred: StatePred) -> &mut Self {
        self.ctx.add_monitor(name, pred);
        self
    }

    /// Fire one step, advancing time as needed; `None` when nothing can
    /// ever fire again (timed deadlock).
    pub fn step(&mut self) -> Option<Step> {
        loop {
            let ex = &mut self.exec;
            let (sys, busy_until, now) = (ex.sys, &ex.busy_until, ex.now);
            let fired = self
                .ctx
                .choose_and_fire(sys, &mut ex.state, &mut ex.es, |s| {
                    all_idle(sys, busy_until, now, s)
                });
            if let Some(step) = fired {
                ex.occupy(&step);
                return Some(step);
            }
            if !ex.advance() {
                return None;
            }
        }
    }

    /// Execute up to `budget` steps, checking monitors on every visited
    /// state (same shared loop as the sequential and threaded engines).
    pub fn run(&mut self, budget: usize) -> RunReport {
        bip_engine::run_loop!(
            self,
            budget,
            |eng| eng.step(),
            self.exec.system(),
            self.exec.state()
        )
    }

    /// Summary of everything executed so far.
    pub fn report(&self) -> RunReport {
        self.ctx.report()
    }
}

impl<P: Policy> Engine for RtEngine<'_, P> {
    fn system(&self) -> &System {
        self.exec.system()
    }

    fn state(&self) -> &State {
        self.exec.state()
    }

    fn step(&mut self) -> Option<Step> {
        RtEngine::step(self)
    }

    fn run(&mut self, budget: usize) -> RunReport {
        RtEngine::run(self, budget)
    }

    fn report(&self) -> RunReport {
        RtEngine::report(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bip_core::dining_philosophers;
    use bip_engine::{FirstEnabled, RandomPolicy};

    #[test]
    fn rt_engine_runs_under_ideal_time() {
        let sys = dining_philosophers(3, false).unwrap();
        let mut e = RtEngine::new(&sys, DurationMap::ideal(), RandomPolicy::new(3));
        let r = e.run(100);
        assert_eq!(r.steps, 100);
        assert_eq!(e.now(), 0, "φ = 0: infinite performance, no time passes");
        assert_eq!(e.report().steps, 100);
        let mut first = RtEngine::new(&sys, DurationMap::ideal(), FirstEnabled);
        assert_eq!(first.run(50).steps, 50);
        assert_eq!(first.now(), 0);
    }

    #[test]
    fn rt_engine_advances_time_under_durations() {
        let sys = dining_philosophers(2, false).unwrap();
        let phi = DurationMap::from_names(&sys, &[("eat0", 10), ("eat1", 10)]);
        let mut e = RtEngine::new(&sys, phi, FirstEnabled);
        let r = e.run(40);
        assert_eq!(r.steps, 40);
        assert!(e.now() > 0, "busy windows force time to advance");
    }

    #[test]
    fn rt_engine_word_replays_untimed() {
        let sys = dining_philosophers(3, false).unwrap();
        let phi =
            DurationMap::from_names(&sys, &[("eat0", 5), ("eat1", 3), ("eat2", 7), ("rel0", 1)]);
        let mut e = RtEngine::new(&sys, phi, RandomPolicy::new(11));
        e.run(60);
        let word = e.context().trace.observable_word();
        assert!(!word.is_empty());
        let mut st = sys.initial_state();
        for label in &word {
            let succ = sys.successors(&st);
            let hit = succ
                .iter()
                .find(|(s, _)| sys.step_label(s) == Some(label.as_str()));
            st = hit
                .expect("timed word must replay in the ideal model")
                .1
                .clone();
        }
    }

    #[test]
    fn rt_engine_monitors_via_context() {
        let sys = dining_philosophers(2, false).unwrap();
        let mutex = bip_core::StatePred::mutex(&sys, [(0, "eating"), (1, "eating")]);
        let phi = DurationMap::from_names(&sys, &[("eat0", 4), ("eat1", 4)]);
        let mut e = RtEngine::new(&sys, phi, RandomPolicy::new(2));
        e.add_monitor("mutex", mutex);
        let r = e.run(200);
        assert_eq!(r.monitor_violations, vec![("mutex".to_string(), 0)]);
    }

    #[test]
    fn engines_are_interchangeable_behind_the_trait() {
        // The same driver code runs sequential, threaded, and rt backends.
        fn drive(engine: &mut dyn Engine, budget: usize) -> usize {
            engine.run(budget).steps
        }
        let sys = dining_philosophers(3, false).unwrap();
        let mut seq = bip_engine::SequentialEngine::new(sys.clone(), RandomPolicy::new(1));
        let mut thr = bip_engine::ThreadedEngine::new(sys.clone(), RandomPolicy::new(2));
        let mut rt = RtEngine::new(&sys, DurationMap::ideal(), RandomPolicy::new(3));
        assert_eq!(drive(&mut seq, 50), 50);
        assert_eq!(drive(&mut thr, 50), 50);
        assert_eq!(drive(&mut rt, 50), 50);
    }
}
