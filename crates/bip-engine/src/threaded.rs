//! The multi-threaded engine (§5.6).
//!
//! Architecture exactly as the paper describes: "each atomic component is
//! assigned to a thread, with the engine itself being a thread.
//! Communication occurs only between atomic components and the engine —
//! never directly between different atomic components."
//!
//! Protocol per round:
//!
//! 1. every component thread sends its local state (location + variables)
//!    to the engine;
//! 2. the engine reassembles the global state, brings its incremental
//!    [`bip_core::EnabledSet`] up to date (only connectors watching
//!    components that moved last round are re-evaluated), applies
//!    priorities, picks one step with its [`Policy`], evaluates the data
//!    transfer, and sends each participant its chosen transition (plus
//!    variable writes); non-participants are told to hold;
//! 3. participants fire locally and the next round begins.
//!
//! The result is observationally a sequential run — the engine is the
//! synchronization point — which is what makes the schedule checkable
//! against [`bip_core::System::successors`] (see tests).
//!
//! [`ThreadedEngine`] keeps the component threads alive across calls and
//! implements the unified [`Engine`] trait.

use std::thread;

use bip_core::{EnabledSet, State, StatePred, Step, System, TransitionId, Value};
use crossbeam::channel::{unbounded, Receiver, Sender};

use crate::engine::{Engine, ExecContext, RunReport};
use crate::policy::{Policy, RandomPolicy};
use crate::run_loop;
use crate::trace::Trace;

/// What a component thread reports to the engine each round.
#[derive(Debug, Clone)]
struct LocalState {
    comp: usize,
    loc: u32,
    vars: Vec<Value>,
}

/// Engine-to-component commands.
#[derive(Debug, Clone)]
enum Command {
    /// Fire this transition after overwriting the given variables.
    Fire {
        transition: TransitionId,
        writes: Vec<(u32, Value)>,
    },
    /// Stay put this round.
    Hold,
    /// Terminate the thread.
    Stop,
}

/// One thread per atomic component plus the engine, kept alive across
/// [`Engine::step`] / [`Engine::run`] calls.
#[derive(Debug)]
pub struct ThreadedEngine<P: Policy = RandomPolicy> {
    sys: System,
    state: State,
    es: EnabledSet,
    ctx: ExecContext<P>,
    to_comps: Vec<Sender<Command>>,
    from_comps: Receiver<LocalState>,
    handles: Vec<thread::JoinHandle<()>>,
    /// Set once nothing is enabled; the engine stops gathering reports.
    dead: bool,
    /// Scratch for per-participant variable writes.
    writes_scratch: Vec<Command>,
}

impl<P: Policy> ThreadedEngine<P> {
    /// Spawn one thread per component, all at their initial local states.
    pub fn new(sys: System, policy: P) -> ThreadedEngine<P> {
        let n = sys.num_components();
        let (to_engine, from_comps) = unbounded();
        let mut to_comps = Vec::with_capacity(n);
        let mut handles = Vec::with_capacity(n);
        for comp in 0..n {
            let (tx, rx): (Sender<Command>, Receiver<Command>) = unbounded();
            to_comps.push(tx);
            let ty = sys.atom_type(comp).clone();
            let report = to_engine.clone();
            handles.push(thread::spawn(move || {
                let mut loc = ty.initial();
                let mut vars = ty.initial_vars();
                loop {
                    if report
                        .send(LocalState {
                            comp,
                            loc: loc.0,
                            vars: vars.clone(),
                        })
                        .is_err()
                    {
                        return; // engine gone
                    }
                    match rx.recv() {
                        Ok(Command::Fire { transition, writes }) => {
                            for (v, val) in writes {
                                vars[v as usize] = val;
                            }
                            ty.apply_updates(transition, &mut vars);
                            loc = ty.transition(transition).to;
                        }
                        Ok(Command::Hold) => {}
                        Ok(Command::Stop) | Err(_) => return,
                    }
                }
            }));
        }
        let state = sys.initial_state();
        let es = sys.new_enabled_set();
        ThreadedEngine {
            sys,
            state,
            es,
            ctx: ExecContext::new(policy),
            to_comps,
            from_comps,
            handles,
            dead: false,
            writes_scratch: Vec::new(),
        }
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

    /// The recorded trace so far.
    pub fn trace(&self) -> &Trace {
        &self.ctx.trace
    }

    /// `true` once the system deadlocked (no further steps possible).
    pub fn deadlocked(&self) -> bool {
        self.dead
    }

    /// Receive this round's report from every component and reassemble the
    /// global state.
    fn gather_reports(&mut self) {
        let n = self.sys.num_components();
        for _ in 0..n {
            let r = self.from_comps.recv().expect("component threads alive");
            let c = r.comp;
            // The engine predicted these values when it dispatched the last
            // round; reconciling here keeps the channel protocol the single
            // source of truth (and catches drift in debug builds).
            debug_assert_eq!(self.state.locs[c], r.loc, "component {c} diverged");
            self.state.locs[c] = r.loc;
            for (i, v) in r.vars.iter().enumerate() {
                self.sys.set_var(&mut self.state, c, i as u32, *v);
            }
        }
    }

    /// One engine round: gather, pick, dispatch. `None` on deadlock.
    pub fn step(&mut self) -> Option<Step> {
        if self.dead {
            return None;
        }
        self.gather_reports();
        // Fire on the engine's copy first: this resolves local
        // nondeterminism and computes the post-transfer store. The
        // pre-state is kept to isolate the transfer's writes below.
        let pre = self.state.clone();
        let Some(step) = self
            .ctx
            .choose_and_fire(&self.sys, &mut self.state, &mut self.es, |_| true)
        else {
            // Components stay parked on `recv` until shutdown.
            self.dead = true;
            return None;
        };
        // Dispatch: participants get their transition plus the variable
        // writes the data transfer produced; everyone else holds.
        let n = self.sys.num_components();
        let mut cmd = std::mem::take(&mut self.writes_scratch);
        cmd.clear();
        cmd.resize(n, Command::Hold);
        if let Step::Interaction {
            interaction,
            transitions,
        } = &step
        {
            // Replay the transfer alone on the pre-state to isolate its
            // writes (participant updates run component-side after them).
            if !self
                .sys
                .connector(interaction.connector)
                .transfer
                .is_empty()
            {
                let mut transfer_state = pre.clone();
                self.sys
                    .fire_interaction(&mut transfer_state, interaction, &[]);
                for &(comp, tid) in transitions {
                    let nvars = self.sys.atom_type(comp).vars().len();
                    let writes: Vec<(u32, Value)> = (0..nvars as u32)
                        .filter(|&v| {
                            self.sys.var_value(&transfer_state, comp, v)
                                != self.sys.var_value(&pre, comp, v)
                        })
                        .map(|v| (v, self.sys.var_value(&transfer_state, comp, v)))
                        .collect();
                    cmd[comp] = Command::Fire {
                        transition: tid,
                        writes,
                    };
                }
            } else {
                for &(comp, tid) in transitions {
                    cmd[comp] = Command::Fire {
                        transition: tid,
                        writes: Vec::new(),
                    };
                }
            }
        } else if let Step::Internal {
            component,
            transition,
        } = &step
        {
            cmd[*component] = Command::Fire {
                transition: *transition,
                writes: Vec::new(),
            };
        }
        for (c, tx) in self.to_comps.iter().enumerate() {
            tx.send(std::mem::replace(&mut cmd[c], Command::Hold))
                .expect("component thread alive");
        }
        self.writes_scratch = cmd;
        Some(step)
    }

    /// Execute up to `budget` interactions.
    pub fn run(&mut self, budget: usize) -> RunReport {
        run_loop!(self, budget, |eng| eng.step(), &self.sys, &self.state)
    }

    /// Summary of everything executed so far.
    pub fn report(&self) -> RunReport {
        self.ctx.report()
    }

    /// The engine's view of the global state.
    pub fn state(&self) -> &State {
        &self.state
    }

    fn shutdown(&mut self) {
        for tx in &self.to_comps {
            let _ = tx.send(Command::Stop);
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

impl<P: Policy> Drop for ThreadedEngine<P> {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl<P: Policy> Engine for ThreadedEngine<P> {
    fn system(&self) -> &System {
        &self.sys
    }

    fn state(&self) -> &State {
        &self.state
    }

    fn step(&mut self) -> Option<Step> {
        ThreadedEngine::step(self)
    }

    fn run(&mut self, budget: usize) -> RunReport {
        ThreadedEngine::run(self, budget)
    }

    fn report(&self) -> RunReport {
        ThreadedEngine::report(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::StopReason;
    use bip_core::dining_philosophers;
    use bip_core::{AtomBuilder, ConnectorBuilder, Expr, SystemBuilder};

    #[test]
    fn threaded_run_completes_budget() {
        let sys = dining_philosophers(3, false).unwrap();
        let mut e = ThreadedEngine::new(sys, RandomPolicy::new(11));
        let r = e.run(200);
        assert_eq!(r.steps, 200);
        assert_eq!(r.stop, StopReason::BudgetExhausted);
        assert!(!e.deadlocked());
        assert_eq!(e.trace().observable_word().len(), 200);
    }

    #[test]
    fn threaded_state_matches_sequential_replay() {
        // Replaying the threaded engine's word in the sequential semantics
        // must be possible (schedule validity).
        let sys = dining_philosophers(3, false).unwrap();
        let mut e = ThreadedEngine::new(sys.clone(), RandomPolicy::new(23));
        e.run(50);
        let mut st = sys.initial_state();
        for label in &e.trace().observable_word() {
            let succ = sys.successors(&st);
            let found = succ
                .iter()
                .find(|(s, _)| sys.step_label(s) == Some(label.as_str()));
            let (_, next) = found.unwrap_or_else(|| panic!("label {label} not enabled"));
            st = next.clone();
        }
    }

    #[test]
    fn threaded_detects_deadlock() {
        // A two-component one-shot handshake: deadlocks after one step.
        let once = AtomBuilder::new("once")
            .port("go")
            .location("a")
            .location("b")
            .initial("a")
            .transition("a", "go", "b")
            .build()
            .unwrap();
        let mut sb = SystemBuilder::new();
        let x = sb.add_instance("x", &once);
        let y = sb.add_instance("y", &once);
        sb.add_connector(ConnectorBuilder::rendezvous("h", [(x, "go"), (y, "go")]));
        let sys = sb.build().unwrap();
        let mut e = ThreadedEngine::new(sys, RandomPolicy::new(0));
        let r = e.run(100);
        assert_eq!(r.steps, 1);
        assert_eq!(r.stop, StopReason::Deadlock);
        assert!(e.deadlocked());
    }

    #[test]
    fn threaded_transfers_data() {
        let src = AtomBuilder::new("src")
            .var("x", 9)
            .port_exporting("snd", ["x"])
            .location("l")
            .location("m")
            .initial("l")
            .transition("l", "snd", "m")
            .build()
            .unwrap();
        let dst = AtomBuilder::new("dst")
            .var("y", 0)
            .var("z", 0)
            .port_exporting("rcv", ["y"])
            .location("l")
            .location("m")
            .initial("l")
            .guarded_transition(
                "l",
                "rcv",
                Expr::t(),
                vec![("z", Expr::var(0).add(Expr::int(1)))],
                "m",
            )
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
        let mut e = ThreadedEngine::new(sys.clone(), RandomPolicy::new(0));
        assert_eq!(e.run(10).steps, 1);
        // y received 9 via transfer; z = y+1 computed *after* transfer.
        assert_eq!(sys.var_value(e.state(), d, 0), 9);
        assert_eq!(sys.var_value(e.state(), d, 1), 10);
    }

    #[test]
    fn persistent_engine_resumes_across_runs() {
        let sys = dining_philosophers(3, false).unwrap();
        let mut e = ThreadedEngine::new(sys.clone(), RandomPolicy::new(5));
        let r1 = e.run(50);
        assert_eq!(r1.steps, 50);
        let r2 = e.run(50);
        assert_eq!(r2.steps, 50);
        assert_eq!(e.report().steps, 100, "context accumulates across runs");
        // The whole 100-step word replays sequentially.
        let word = e.trace().observable_word();
        assert_eq!(word.len(), 100);
        let mut st = sys.initial_state();
        for label in &word {
            let succ = sys.successors(&st);
            let hit = succ
                .iter()
                .find(|(s, _)| sys.step_label(s) == Some(label.as_str()));
            st = hit.expect("replayable").1.clone();
        }
    }

    #[test]
    fn threaded_engine_monitors_via_context() {
        let sys = dining_philosophers(4, false).unwrap();
        let mutex = bip_core::StatePred::mutex(&sys, [(0, "eating"), (1, "eating")]);
        let mut e = ThreadedEngine::new(sys, RandomPolicy::new(8));
        e.add_monitor("mutex01", mutex);
        let r = e.run(300);
        assert_eq!(r.steps, 300);
        assert_eq!(r.monitor_violations, vec![("mutex01".to_string(), 0)]);
    }
}
