//! Scheduling policies: how an engine chooses among enabled steps.
//!
//! Priorities already filtered the enabled set (they are part of the model,
//! §5.5); a policy resolves the *remaining* nondeterminism — the paper's
//! "reducing non-determinism (through scheduling)" design parameter (§3.3).

use bip_core::{CompId, EnabledStep, State, System, TransitionId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A deterministic-by-seed strategy for picking one of the enabled steps.
///
/// Every engine offers the policy the compiled [`EnabledStep`]s that
/// survived priorities (no successor states materialized) through
/// [`Policy::choose`], then lets [`Policy::choose_local`] resolve which
/// local transition each participant fires.
pub trait Policy {
    /// Pick an index into `options` (guaranteed non-empty).
    fn choose(&mut self, sys: &System, st: &State, options: &[EnabledStep]) -> usize;

    /// Resolve local nondeterminism: which of `candidates` (never empty)
    /// should participant `comp` fire? Defaults to the first.
    fn choose_local(
        &mut self,
        _sys: &System,
        _comp: CompId,
        _candidates: &[TransitionId],
    ) -> usize {
        0
    }

    /// Name for reports.
    fn name(&self) -> &str;
}

impl<T: Policy + ?Sized> Policy for Box<T> {
    fn choose(&mut self, sys: &System, st: &State, options: &[EnabledStep]) -> usize {
        (**self).choose(sys, st, options)
    }

    fn choose_local(&mut self, sys: &System, comp: CompId, candidates: &[TransitionId]) -> usize {
        (**self).choose_local(sys, comp, candidates)
    }

    fn name(&self) -> &str {
        (**self).name()
    }
}

/// Uniformly random choice with a fixed seed — the default exploration
/// policy (reproducible runs).
#[derive(Debug)]
pub struct RandomPolicy {
    rng: StdRng,
}

impl RandomPolicy {
    /// Create with a seed.
    pub fn new(seed: u64) -> RandomPolicy {
        RandomPolicy {
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl Policy for RandomPolicy {
    fn choose(&mut self, _sys: &System, _st: &State, options: &[EnabledStep]) -> usize {
        self.rng.gen_range(0..options.len())
    }

    fn choose_local(&mut self, _sys: &System, _comp: CompId, candidates: &[TransitionId]) -> usize {
        self.rng.gen_range(0..candidates.len())
    }

    fn name(&self) -> &str {
        "random"
    }
}

/// Always the first enabled step (deterministic, useful in tests).
#[derive(Debug, Default)]
pub struct FirstEnabled;

impl Policy for FirstEnabled {
    fn choose(&mut self, _sys: &System, _st: &State, _options: &[EnabledStep]) -> usize {
        0
    }

    fn name(&self) -> &str {
        "first-enabled"
    }
}

/// Round-robin over connectors: prefers the connector least recently fired,
/// giving a crude fairness guarantee.
#[derive(Debug, Default)]
pub struct RoundRobinPolicy {
    last_fired: Vec<u64>,
    clock: u64,
}

impl RoundRobinPolicy {
    /// Create a fresh round-robin policy.
    pub fn new() -> RoundRobinPolicy {
        RoundRobinPolicy::default()
    }
}

impl Policy for RoundRobinPolicy {
    fn choose(&mut self, sys: &System, _st: &State, options: &[EnabledStep]) -> usize {
        if self.last_fired.len() < sys.num_connectors() {
            self.last_fired.resize(sys.num_connectors(), 0);
        }
        self.clock += 1;
        let conn_of = |step: &EnabledStep| match step {
            EnabledStep::Interaction(ir) => Some(ir.connector.0 as usize),
            EnabledStep::Internal { .. } => None,
        };
        let mut best = 0usize;
        let mut best_age = u64::MAX;
        for (i, opt) in options.iter().enumerate() {
            // Internal steps rank oldest.
            let age = conn_of(opt).map_or(0, |c| self.last_fired[c]);
            if age < best_age {
                best_age = age;
                best = i;
            }
        }
        if let Some(c) = conn_of(&options[best]) {
            self.last_fired[c] = self.clock;
        }
        best
    }

    fn name(&self) -> &str {
        "round-robin"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bip_core::{dining_philosophers, ConnId};

    /// Walk `steps` choices of `p` from the initial state over the compiled
    /// enabled set: each chosen index and the step it named.
    fn walk(sys: &System, p: &mut impl Policy, steps: usize) -> Vec<(usize, EnabledStep)> {
        let mut st = sys.initial_state();
        let mut es = sys.new_enabled_set();
        let mut opts = Vec::new();
        let mut picks = Vec::new();
        for _ in 0..steps {
            sys.refresh_enabled(&st, &mut es);
            opts.clear();
            sys.for_each_enabled(&st, &es, |s| opts.push(s));
            let i = p.choose(sys, &st, &opts);
            picks.push((i, opts[i]));
            sys.fire_enabled(&mut st, &mut es, opts[i], |_, _, _| 0);
        }
        picks
    }

    #[test]
    fn random_policy_is_reproducible() {
        let sys = dining_philosophers(3, false).unwrap();
        let run = |seed| walk(&sys, &mut RandomPolicy::new(seed), 20);
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43), "different seeds should diverge");
    }

    #[test]
    fn first_enabled_is_constant() {
        let sys = dining_philosophers(2, false).unwrap();
        let mut p = FirstEnabled;
        assert!(walk(&sys, &mut p, 10).iter().all(|&(i, _)| i == 0));
        assert_eq!(p.name(), "first-enabled");
    }

    #[test]
    fn round_robin_rotates_connectors() {
        let sys = dining_philosophers(3, false).unwrap();
        let fired: std::collections::HashSet<ConnId> = walk(&sys, &mut RoundRobinPolicy::new(), 30)
            .into_iter()
            .filter_map(|(_, s)| match s {
                EnabledStep::Interaction(ir) => Some(ir.connector),
                EnabledStep::Internal { .. } => None,
            })
            .collect();
        assert!(
            fired.len() >= 4,
            "round robin should visit many connectors: {fired:?}"
        );
    }
}
