//! Discrete-time execution of BIP systems under a duration assignment φ.
//!
//! States of the timed semantics are `(untimed state, now, busy-until per
//! component)`. An interaction can fire when every participant is idle; it
//! then occupies all participants for `φ(a)` ticks. When nothing can fire,
//! time advances to the next release instant. `φ = 0` recovers the ideal
//! (zero-time) model, so "the two models coincide and performance is
//! infinite" (§5.2.2).

use std::collections::HashMap;

use bip_core::{CompId, ConnId, EnabledSet, EnabledStep, State, Step, System, TransitionId};
use bip_engine::RandomPolicy;

use crate::engine::RtEngine;

/// Duration assignment φ: connector → execution time in ticks.
///
/// Connectors absent from the map take duration 0.
#[derive(Debug, Clone, Default)]
pub struct DurationMap {
    map: HashMap<ConnId, u64>,
}

impl DurationMap {
    /// The ideal model: every action is instantaneous.
    pub fn ideal() -> DurationMap {
        DurationMap::default()
    }

    /// Build from `(connector name, duration)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if a name does not resolve (test/bench convenience).
    pub fn from_names(sys: &System, pairs: &[(&str, u64)]) -> DurationMap {
        let mut map = HashMap::new();
        for (name, d) in pairs {
            let id = sys
                .connector_id(name)
                .unwrap_or_else(|| panic!("no connector named {name:?}"));
            map.insert(id, *d);
        }
        DurationMap { map }
    }

    /// Set a duration.
    pub fn set(&mut self, conn: ConnId, d: u64) {
        self.map.insert(conn, d);
    }

    /// Duration of a connector.
    pub fn get(&self, conn: ConnId) -> u64 {
        self.map.get(&conn).copied().unwrap_or(0)
    }

    /// Pointwise comparison: `self ≤ other` (faster or equal everywhere).
    pub fn le(&self, other: &DurationMap, sys: &System) -> bool {
        (0..sys.num_connectors() as u32).all(|i| self.get(ConnId(i)) <= other.get(ConnId(i)))
    }
}

/// The timed state of an execution over a BIP system: the untimed state,
/// the current time, and each component's busy window. [`crate::RtEngine`]
/// runs it under a policy.
///
/// Internally maintains an incremental [`EnabledSet`]: after a fire, only
/// connectors watching the participants that moved are re-evaluated when
/// the next fireable set is computed.
#[derive(Debug)]
pub struct TimedExecution<'a> {
    pub(crate) sys: &'a System,
    phi: DurationMap,
    pub(crate) state: State,
    pub(crate) now: u64,
    pub(crate) busy_until: Vec<u64>,
    pub(crate) es: EnabledSet,
}

/// `true` if every participant of `step` is idle at `now`: the real-time
/// engine's admissibility test.
pub(crate) fn all_idle(sys: &System, busy_until: &[u64], now: u64, step: EnabledStep) -> bool {
    match step {
        EnabledStep::Interaction(ir) => {
            let ports = &sys.connector(ir.connector).ports;
            ir.endpoints(ports.len())
                .all(|i| busy_until[ports[i].component] <= now)
        }
        EnabledStep::Internal { component, .. } => busy_until[component] <= now,
    }
}

impl<'a> TimedExecution<'a> {
    /// Start at the initial state, time 0, everyone idle.
    pub fn new(sys: &'a System, phi: DurationMap) -> TimedExecution<'a> {
        TimedExecution {
            sys,
            phi,
            state: sys.initial_state(),
            now: 0,
            busy_until: vec![0; sys.num_components()],
            es: sys.new_enabled_set(),
        }
    }

    /// The system being executed.
    pub fn system(&self) -> &System {
        self.sys
    }

    /// Current time.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Current untimed state.
    pub fn state(&self) -> &State {
        &self.state
    }

    /// Steps currently fireable, written into `out`: enabled steps whose
    /// participants are all idle. Buffer-reusing; the incremental enabled
    /// set re-evaluates only connectors dirtied by the last fire.
    pub fn fireable_into(&mut self, out: &mut Vec<EnabledStep>) {
        out.clear();
        self.sys.refresh_enabled(&self.state, &mut self.es);
        let (sys, busy_until, now) = (self.sys, &self.busy_until, self.now);
        sys.for_each_enabled(&self.state, &self.es, |s| {
            if all_idle(sys, busy_until, now, s) {
                out.push(s);
            }
        });
    }

    /// Fire a fireable step (as returned by
    /// [`TimedExecution::fireable_into`]), resolving local nondeterminism
    /// with `choose_local`, and occupy its participants for φ.
    pub fn fire<F>(&mut self, step: EnabledStep, choose_local: F) -> Step
    where
        F: FnMut(&System, CompId, &[TransitionId]) -> usize,
    {
        let fired = self
            .sys
            .fire_enabled(&mut self.state, &mut self.es, step, choose_local);
        self.occupy(&fired);
        fired
    }

    /// Occupy the participants of a just-fired interaction for φ of its
    /// connector (internal steps take no time).
    pub(crate) fn occupy(&mut self, fired: &Step) {
        if let Step::Interaction {
            interaction,
            transitions,
        } = fired
        {
            let d = self.phi.get(interaction.connector);
            for &(comp, _) in transitions {
                self.busy_until[comp] = self.now + d;
            }
        }
    }

    /// Advance time to the next instant at which some component becomes
    /// idle. Returns `false` if no component is busy (time cannot progress
    /// usefully).
    pub fn advance(&mut self) -> bool {
        let next = self
            .busy_until
            .iter()
            .copied()
            .filter(|&t| t > self.now)
            .min();
        match next {
            Some(t) => {
                self.now = t;
                true
            }
            None => false,
        }
    }
}

/// Check that every observable word of the physical model (bounded run set
/// explored breadth-first over pick choices is expensive; here: a sampled
/// set of seeded runs of [`RtEngine`] under [`RandomPolicy`]) also occurs
/// as a word of the ideal model — the "safe implementation" condition of
/// §5.2.2 in its testable form.
pub fn sampled_safety_check(sys: &System, phi: &DurationMap, runs: u64, steps: usize) -> bool {
    for seed in 0..runs {
        let mut phys = RtEngine::new(sys, phi.clone(), RandomPolicy::new(seed));
        phys.run(steps);
        // The word must be replayable in the ideal (untimed) semantics.
        let mut st = sys.initial_state();
        for label in phys.context().trace.observable_word() {
            let succ = sys.successors(&st);
            match succ
                .iter()
                .find(|(s, _)| sys.step_label(s) == Some(label.as_str()))
            {
                Some((_, next)) => st = next.clone(),
                None => return false,
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use bip_core::dining_philosophers;

    #[test]
    fn durations_serialize_conflicting_interactions() {
        let sys = dining_philosophers(2, false).unwrap();
        let phi = DurationMap::from_names(
            &sys,
            &[("eat0", 10), ("eat1", 10), ("rel0", 1), ("rel1", 1)],
        );
        let mut e = RtEngine::new(&sys, phi, bip_engine::FirstEnabled);
        let r = e.run(20);
        assert_eq!(r.steps, 20);
        // Forks are shared: eating is serialized, and each eat+rel cycle
        // takes 11 ticks.
        assert!(e.now() >= 11 * (r.steps as u64 / 2 - 1));
    }

    #[test]
    fn physical_words_are_ideal_words() {
        let sys = dining_philosophers(3, false).unwrap();
        let phi = DurationMap::from_names(
            &sys,
            &[
                ("eat0", 5),
                ("eat1", 3),
                ("eat2", 7),
                ("rel0", 1),
                ("rel1", 1),
                ("rel2", 2),
            ],
        );
        assert!(sampled_safety_check(&sys, &phi, 10, 60));
    }

    #[test]
    fn duration_map_comparison() {
        let sys = dining_philosophers(2, false).unwrap();
        let slow = DurationMap::from_names(&sys, &[("eat0", 10)]);
        let fast = DurationMap::from_names(&sys, &[("eat0", 5)]);
        assert!(fast.le(&slow, &sys));
        assert!(!slow.le(&fast, &sys));
        assert!(DurationMap::ideal().le(&fast, &sys));
    }

    #[test]
    fn busy_components_block_interactions() {
        let sys = dining_philosophers(2, false).unwrap();
        let phi = DurationMap::from_names(&sys, &[("eat0", 100)]);
        let mut ex = TimedExecution::new(&sys, phi);
        let mut opts = Vec::new();
        // Fire eat0 (both forks + phil0 busy for 100).
        ex.fireable_into(&mut opts);
        let eat0 = opts
            .iter()
            .find(|s| matches!(s, EnabledStep::Interaction(ir) if sys.connector(ir.connector).name == "eat0"))
            .copied()
            .unwrap();
        let fired = ex.fire(eat0, |_, _, _| 0);
        assert_eq!(sys.step_label(&fired), Some("eat0"));
        // phil1 needs both forks, which are busy: nothing fireable now.
        ex.fireable_into(&mut opts);
        assert!(opts.is_empty());
        assert!(ex.advance());
        assert_eq!(ex.now(), 100);
        ex.fireable_into(&mut opts);
        assert!(!opts.is_empty(), "after the busy window, rel0 can fire");
    }
}
