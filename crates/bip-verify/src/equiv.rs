//! Refinement and equivalence modulo an observation criterion (§5.5.3).
//!
//! The paper's refinement relation `S ≥ S'` requires:
//!
//! 1. all traces of `S'` are traces of `S` modulo the observation criterion
//!    (silent coordination interactions are erased, finishing interactions
//!    map to the abstract interaction they implement);
//! 2. if `S` is deadlock-free then `S'` is deadlock-free.
//!
//! [`refines`] checks exactly this on finite systems: weak (stuttering)
//! trace inclusion via determinization with τ-closure, plus exact deadlock
//! analysis on both sides. [`weak_trace_equivalent`] checks inclusion both
//! ways. These are the certificates used by `bip-distributed` and the
//! architecture layer to establish *vertical correctness*.
//!
//! The observable-LTS extraction here deliberately does **not** apply the
//! partial-order reduction of [`crate::reach`]
//! (`ReachConfig::reduction`): trace inclusion quantifies over the
//! *observable orderings* of interactions, and collapsing interleavings
//! of independent-but-observable interactions would change the very
//! relation being decided. Reduction stays a reachability-side
//! optimization; the equivalence checker enumerates the full LTS.

use std::collections::{BTreeSet, VecDeque};
use std::time::{Duration, Instant};

use bip_core::{FxHashMap, FxHashSet, PackedState, StateCodec, SuccStep, System};

use crate::control::{Budget, CancelToken, StopReason};

/// Result of a refinement check.
#[derive(Debug, Clone)]
pub struct RefinementReport {
    /// Clause 1: observable traces of the concrete system are included in
    /// those of the abstract one.
    pub trace_included: bool,
    /// A shortest observable trace of the concrete system that the abstract
    /// system cannot perform (when inclusion fails).
    pub counterexample: Option<Vec<String>>,
    /// Whether the abstract system is deadlock-free (exact, bounded).
    pub abstract_deadlock_free: bool,
    /// Whether the concrete system is deadlock-free (exact, bounded).
    pub concrete_deadlock_free: bool,
    /// Product states explored during the inclusion check.
    pub product_states: usize,
    /// Why the check stopped: [`StopReason::Completed`] unless a budget,
    /// deadline, or cancellation interrupted it — then every clause only
    /// covers the explored region and [`Self::refines`] refuses to certify.
    /// A found counterexample is still a real counterexample.
    pub stop: StopReason,
    /// Wall-clock the whole check took (both LTS extractions plus the
    /// product search).
    pub elapsed: Duration,
}

impl RefinementReport {
    /// The paper's `≥`: trace inclusion and deadlock-freedom preservation.
    /// An interrupted check (`stop != Completed`) never certifies.
    pub fn refines(&self) -> bool {
        self.stop == StopReason::Completed
            && self.trace_included
            && (!self.abstract_deadlock_free || self.concrete_deadlock_free)
    }
}

/// An observable LTS: explicit states, observable-labelled edges, τ edges.
#[derive(Debug, Clone)]
struct ObsLts {
    /// tau[s] = τ-successors of s.
    tau: Vec<Vec<usize>>,
    /// obs[s] = (label, successor) pairs.
    obs: Vec<Vec<(String, usize)>>,
    has_deadlock: bool,
    complete: bool,
    /// `Completed` unless the budget/token cut the extraction short.
    stop: StopReason,
}

/// Extract the observable LTS of `sys`. Each step's label comes from
/// [`System::step_label`] passed through `rename`; `None` results are τ.
///
/// States are interned through the adaptive narrow-width [`StateCodec`], so
/// the index keys are a word or two each instead of full heap-backed
/// states; a value overflowing its inferred width widens the codec and
/// rebuilds the LTS from scratch (rare, and the construction is
/// deterministic, so the result is identical to a never-widened run).
fn obs_lts<F>(
    sys: &System,
    rename: &F,
    max_states: usize,
    budget: &Budget,
    cancel: &CancelToken,
) -> ObsLts
where
    F: Fn(&str) -> Option<String>,
{
    let mut codec = StateCodec::adaptive(sys);
    'retry: loop {
        let mut index: FxHashMap<PackedState, usize> = FxHashMap::default();
        let mut queue: VecDeque<PackedState> = VecDeque::new();
        let mut tau: Vec<Vec<usize>> = Vec::new();
        let mut obs: Vec<Vec<(String, usize)>> = Vec::new();
        let mut has_deadlock = false;
        let mut complete = true;
        let mut stop = StopReason::Completed;
        let mut st = sys.initial_state();
        let mut es = sys.new_enabled_set();
        let mut scratch = sys.new_succ_scratch();
        let pinit = match codec.try_encode(&st) {
            Ok(p) => p,
            Err(r) => {
                codec = codec.widen(sys, r);
                continue 'retry;
            }
        };
        index.insert(pinit.clone(), 0);
        tau.push(Vec::new());
        obs.push(Vec::new());
        queue.push_back(pinit);
        while let Some(packed) = queue.pop_front() {
            // Budget trip: the extraction is a plain BFS with no
            // checkpointing, so a trip just truncates it — the caller's
            // report carries the reason and refuses to certify.
            let trip = budget
                .interrupted(cancel)
                .or_else(|| budget.exceeded(index.len(), 0));
            if let Some(reason) = trip {
                complete = false;
                stop = reason;
                break;
            }
            let src = index[&packed];
            codec.decode_into(&packed, &mut st);
            es.invalidate_all();
            let mut any = false;
            // A successor overflowing the codec's widths: widen and
            // restart once the enumeration returns.
            let mut overflow = None;
            sys.for_each_successor(&st, &mut es, &mut scratch, |step, next| {
                any = true;
                if overflow.is_some() {
                    return;
                }
                let pnext = match codec.try_encode(next) {
                    Ok(p) => p,
                    Err(r) => {
                        overflow = Some(r);
                        return;
                    }
                };
                let dst = match index.get(&pnext) {
                    Some(&d) => d,
                    None => {
                        if index.len() >= max_states {
                            complete = false;
                            return;
                        }
                        let d = index.len();
                        index.insert(pnext.clone(), d);
                        tau.push(Vec::new());
                        obs.push(Vec::new());
                        queue.push_back(pnext);
                        d
                    }
                };
                let label = match step {
                    SuccStep::Interaction { iref, .. } => {
                        let c = sys.connector(iref.connector);
                        c.observable.then_some(c.name.as_str()).and_then(rename)
                    }
                    SuccStep::Internal { .. } => None,
                };
                match label {
                    Some(label) => obs[src].push((label, dst)),
                    None => tau[src].push(dst),
                }
            });
            if let Some(r) = overflow {
                codec = codec.widen(sys, r);
                continue 'retry;
            }
            if !any {
                has_deadlock = true;
            }
        }
        return ObsLts {
            tau,
            obs,
            has_deadlock,
            complete,
            stop,
        };
    }
}

/// τ-closure of a state set.
fn closure(lts: &ObsLts, set: &BTreeSet<usize>) -> BTreeSet<usize> {
    let mut out = set.clone();
    let mut stack: Vec<usize> = out.iter().copied().collect();
    while let Some(s) = stack.pop() {
        for &t in &lts.tau[s] {
            if out.insert(t) {
                stack.push(t);
            }
        }
    }
    out
}

/// Observable successors of a state set under `label`.
fn obs_step(lts: &ObsLts, set: &BTreeSet<usize>, label: &str) -> BTreeSet<usize> {
    let mut out = BTreeSet::new();
    for &s in set {
        for (l, t) in &lts.obs[s] {
            if l == label {
                out.insert(*t);
            }
        }
    }
    closure(lts, &out)
}

/// All observable labels available from a state set.
fn obs_labels(lts: &ObsLts, set: &BTreeSet<usize>) -> Vec<String> {
    let mut labels: Vec<String> = set
        .iter()
        .flat_map(|&s| lts.obs[s].iter().map(|(l, _)| l.clone()))
        .collect();
    labels.sort();
    labels.dedup();
    labels
}

/// Check the paper's refinement `abstract ≥ concrete`.
///
/// * `rename_concrete` maps the concrete system's observable connector names
///   onto abstract labels (return `None` for coordination internals — the
///   observation criterion of §5.5.3);
/// * abstract labels are the abstract system's own observable connector
///   names (identity).
///
/// `max_states` bounds both reachable sets; incomplete exploration is
/// reported as non-refinement only if a counterexample was actually found
/// (the deadlock clauses use the explored region).
pub fn refines<F>(
    abstract_sys: &System,
    concrete_sys: &System,
    rename_concrete: F,
    max_states: usize,
) -> RefinementReport
where
    F: Fn(&str) -> Option<String>,
{
    refines_with(
        abstract_sys,
        concrete_sys,
        rename_concrete,
        max_states,
        &Budget::unlimited(),
        &CancelToken::new(),
    )
}

/// [`refines`] under a [`Budget`] and [`CancelToken`].
///
/// The `max_states` ceiling of `budget` applies to each of the three
/// explorations in turn (both observable-LTS extractions and the product
/// search); the deadline and the token are absolute. An interrupted run
/// reports the trip in `stop` and [`RefinementReport::refines`] then
/// returns `false` — the check never certifies a refinement it did not
/// finish, but a counterexample found before the trip is still real.
pub fn refines_with<F>(
    abstract_sys: &System,
    concrete_sys: &System,
    rename_concrete: F,
    max_states: usize,
    budget: &Budget,
    cancel: &CancelToken,
) -> RefinementReport
where
    F: Fn(&str) -> Option<String>,
{
    let start = Instant::now();
    let a = obs_lts(
        abstract_sys,
        &|l: &str| Some(l.to_string()),
        max_states,
        budget,
        cancel,
    );
    let c = obs_lts(concrete_sys, &rename_concrete, max_states, budget, cancel);
    let incl = inclusion(&c, &a, budget, cancel);
    // First interrupted stage wins: extraction order (abstract, concrete)
    // then the product search — the earliest truncation is the one that
    // invalidated everything after it.
    let stop = [a.stop, c.stop, incl.stop]
        .into_iter()
        .find(|s| *s != StopReason::Completed)
        .unwrap_or(StopReason::Completed);
    RefinementReport {
        trace_included: incl.counterexample.is_none(),
        counterexample: incl.counterexample,
        abstract_deadlock_free: a.complete && !a.has_deadlock,
        concrete_deadlock_free: c.complete && !c.has_deadlock,
        product_states: incl.product_states,
        stop,
        elapsed: start.elapsed(),
    }
}

/// Weak trace equivalence: inclusion in both directions under the given
/// renaming of the concrete side (the abstract side uses identity labels).
pub fn weak_trace_equivalent<F>(
    abstract_sys: &System,
    concrete_sys: &System,
    rename_concrete: F,
    max_states: usize,
) -> bool
where
    F: Fn(&str) -> Option<String> + Copy,
{
    let (unlimited, run) = (Budget::unlimited(), CancelToken::new());
    let a = obs_lts(
        abstract_sys,
        &|l: &str| Some(l.to_string()),
        max_states,
        &unlimited,
        &run,
    );
    let c = obs_lts(concrete_sys, &rename_concrete, max_states, &unlimited, &run);
    // Concrete traces are abstract traces, and abstract traces are
    // realizable by the concrete system.
    let included = |left, right| {
        inclusion(left, right, &unlimited, &run)
            .counterexample
            .is_none()
    };
    included(&c, &a) && included(&a, &c)
}

/// What a trace-inclusion search found.
struct Inclusion {
    /// A shortest observable trace of the left LTS that the right one
    /// cannot perform.
    counterexample: Option<Vec<String>>,
    /// Product states explored.
    product_states: usize,
    /// `Completed` unless the budget or token cut the search short.
    stop: StopReason,
}

/// Weak trace inclusion `left ⊆ right` by determinized simulation: explore
/// pairs (left subset, right subset) breadth first; inclusion fails at the
/// first label the left side offers that the right side cannot match.
fn inclusion(left: &ObsLts, right: &ObsLts, budget: &Budget, cancel: &CancelToken) -> Inclusion {
    let l0 = closure(left, &BTreeSet::from([0usize]));
    let r0 = closure(right, &BTreeSet::from([0usize]));
    let mut seen = FxHashSet::default();
    seen.insert((l0.clone(), r0.clone()));
    let mut queue = VecDeque::from([(l0, r0, Vec::new())]);
    let mut counterexample = None;
    let mut stop = StopReason::Completed;
    'bfs: while let Some((ls, rs, trace)) = queue.pop_front() {
        let trip = budget
            .interrupted(cancel)
            .or_else(|| budget.exceeded(seen.len(), 0));
        if let Some(reason) = trip {
            stop = reason;
            break;
        }
        for label in obs_labels(left, &ls) {
            let rn = obs_step(right, &rs, &label);
            let mut t2 = trace.clone();
            t2.push(label.clone());
            if rn.is_empty() {
                counterexample = Some(t2);
                break 'bfs;
            }
            let ln = obs_step(left, &ls, &label);
            if seen.insert((ln.clone(), rn.clone())) {
                queue.push_back((ln, rn, t2));
            }
        }
    }
    Inclusion {
        counterexample,
        product_states: seen.len(),
        stop,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bip_core::{AtomBuilder, ConnectorBuilder, SystemBuilder};

    /// System that alternates a.b forever, observable as connectors "a","b".
    fn alternator() -> System {
        let t = AtomBuilder::new("t")
            .port("pa")
            .port("pb")
            .location("A")
            .location("B")
            .initial("A")
            .transition("A", "pa", "B")
            .transition("B", "pb", "A")
            .build()
            .unwrap();
        let mut sb = SystemBuilder::new();
        let x = sb.add_instance("x", &t);
        sb.add_connector(ConnectorBuilder::singleton("a", x, "pa"));
        sb.add_connector(ConnectorBuilder::singleton("b", x, "pb"));
        sb.build().unwrap()
    }

    /// Alternator with an interleaved silent bookkeeping step.
    fn alternator_with_tau() -> System {
        let t = AtomBuilder::new("t")
            .port("pa")
            .port("pb")
            .port("sync")
            .location("A")
            .location("Amid")
            .location("B")
            .initial("A")
            .transition("A", "pa", "Amid")
            .transition("Amid", "sync", "B")
            .transition("B", "pb", "A")
            .build()
            .unwrap();
        let mut sb = SystemBuilder::new();
        let x = sb.add_instance("x", &t);
        sb.add_connector(ConnectorBuilder::singleton("a", x, "pa"));
        sb.add_connector(ConnectorBuilder::singleton("b", x, "pb"));
        sb.add_connector(ConnectorBuilder::singleton("s", x, "sync").silent());
        sb.build().unwrap()
    }

    /// A system that can do "a" then stops.
    fn a_then_stop() -> System {
        let t = AtomBuilder::new("t")
            .port("pa")
            .location("A")
            .location("B")
            .initial("A")
            .transition("A", "pa", "B")
            .build()
            .unwrap();
        let mut sb = SystemBuilder::new();
        let x = sb.add_instance("x", &t);
        sb.add_connector(ConnectorBuilder::singleton("a", x, "pa"));
        sb.build().unwrap()
    }

    fn ident(l: &str) -> Option<String> {
        Some(l.to_string())
    }

    #[test]
    fn reflexive_refinement() {
        let s = alternator();
        let r = refines(&s, &s, ident, 10_000);
        assert!(r.trace_included);
        assert!(r.refines());
    }

    #[test]
    fn tau_insertion_preserves_traces() {
        let abs = alternator();
        let conc = alternator_with_tau();
        assert!(weak_trace_equivalent(&abs, &conc, ident, 10_000));
    }

    #[test]
    fn prefix_system_refines_but_not_equivalent() {
        let abs = alternator();
        let conc = a_then_stop();
        let r = refines(&abs, &conc, ident, 10_000);
        assert!(r.trace_included, "a ⊑ (ab)*-prefixes");
        // But the abstract system is deadlock-free while the concrete
        // deadlocks — the paper's clause 2 rejects the refinement.
        assert!(r.abstract_deadlock_free);
        assert!(!r.concrete_deadlock_free);
        assert!(!r.refines());
        assert!(!weak_trace_equivalent(&abs, &conc, ident, 10_000));
    }

    #[test]
    fn inclusion_failure_yields_counterexample() {
        let abs = a_then_stop();
        let conc = alternator();
        let r = refines(&abs, &conc, ident, 10_000);
        assert!(!r.trace_included);
        let cex = r.counterexample.unwrap();
        assert_eq!(cex, vec!["a".to_string(), "b".to_string()]);
    }

    #[test]
    fn renaming_maps_implementation_to_spec() {
        // Concrete has "a_impl"; renaming maps it to "a".
        let t = AtomBuilder::new("t")
            .port("pa")
            .location("A")
            .location("B")
            .initial("A")
            .transition("A", "pa", "B")
            .build()
            .unwrap();
        let mut sb = SystemBuilder::new();
        let x = sb.add_instance("x", &t);
        sb.add_connector(ConnectorBuilder::singleton("a_impl", x, "pa"));
        let conc = sb.build().unwrap();
        let abs = a_then_stop();
        let r = refines(
            &abs,
            &conc,
            |l| {
                if l == "a_impl" {
                    Some("a".to_string())
                } else {
                    None
                }
            },
            10_000,
        );
        assert!(r.trace_included);
        assert!(
            r.refines(),
            "neither is deadlock-free... abstract deadlocks so clause 2 vacuous"
        );
    }

    #[test]
    fn cancelled_token_never_certifies() {
        let token = CancelToken::new();
        token.cancel();
        let s = alternator();
        let r = refines_with(&s, &s, ident, 10_000, &Budget::unlimited(), &token);
        assert_eq!(r.stop, StopReason::Cancelled);
        assert!(!r.refines(), "an interrupted check must not certify");
        assert!(
            r.counterexample.is_none(),
            "no counterexample was found, only a truncation"
        );
    }

    #[test]
    fn expired_deadline_reports_deadline_stop() {
        let s = alternator();
        let budget = Budget::unlimited().deadline(std::time::Instant::now());
        let r = refines_with(&s, &s, ident, 10_000, &budget, &CancelToken::new());
        assert_eq!(r.stop, StopReason::Deadline);
        assert!(!r.refines());
    }

    #[test]
    fn state_budget_truncates_but_counterexample_survives() {
        // The concrete label "z" (via renaming) is impossible for the
        // abstract system and shows up on the very first product state —
        // before the tiny state budget trips. The counterexample is real
        // even though both extractions were truncated.
        let abs = a_then_stop();
        let conc = a_then_stop();
        let r = refines_with(
            &abs,
            &conc,
            |_| Some("z".to_string()),
            10_000,
            &Budget::unlimited().states(2),
            &CancelToken::new(),
        );
        assert!(!r.trace_included);
        assert_eq!(r.counterexample, Some(vec!["z".to_string()]));
        assert_eq!(r.stop, StopReason::StateBudget);
        assert!(!r.refines());
    }

    #[test]
    fn generous_budget_matches_unbudgeted_run() {
        let abs = alternator();
        let conc = alternator_with_tau();
        let plain = refines(&abs, &conc, ident, 10_000);
        let budgeted = refines_with(
            &abs,
            &conc,
            ident,
            10_000,
            &Budget::unlimited().states(1_000_000),
            &CancelToken::new(),
        );
        assert_eq!(plain.trace_included, budgeted.trace_included);
        assert_eq!(plain.product_states, budgeted.product_states);
        assert_eq!(plain.stop, StopReason::Completed);
        assert_eq!(budgeted.stop, StopReason::Completed);
        assert_eq!(plain.refines(), budgeted.refines());
    }

    #[test]
    fn erased_labels_are_silent() {
        // Concrete = alternator, but "b" renamed to silent: traces collapse
        // to a*; not included in a-then-stop (aa is impossible there).
        let abs = a_then_stop();
        let conc = alternator();
        let r = refines(
            &abs,
            &conc,
            |l| {
                if l == "a" {
                    Some("a".to_string())
                } else {
                    None
                }
            },
            10_000,
        );
        assert!(!r.trace_included, "trace 'a a' must be rejected");
    }

    /// An unbounded counter interns one value per state, so past
    /// 2^`INTERN_START_BITS` states it overflows the adaptive codec's
    /// first index width mid-extraction: the restart after widening must
    /// still build the plain chain, edge for edge.
    #[test]
    fn widening_restart_rebuilds_the_same_lts() {
        let sys = bip_core::parse_system(
            "atom C {\n port tick\n var x = 0\n location l init\n \
             on tick from l to l do x := x + 1\n}\n\
             system {\n instance c : C\n connector tick = c.tick\n}\n",
        )
        .unwrap();
        let n = (1 << bip_core::codec::INTERN_START_BITS) + 100;
        let codec = StateCodec::adaptive(&sys);
        let mut st = sys.initial_state();
        let widens = (0..n as i64).any(|v| {
            sys.set_var(&mut st, 0, 0, v);
            codec.try_encode(&st).is_err()
        });
        assert!(widens, "the chain must force a widening");
        let lts = obs_lts(
            &sys,
            &|l: &str| Some(l.to_string()),
            n,
            &Budget::unlimited(),
            &CancelToken::new(),
        );
        assert_eq!(lts.obs.len(), n);
        assert!(!lts.complete && !lts.has_deadlock);
        for (s, edges) in lts.obs.iter().enumerate() {
            let want = if s + 1 < n {
                vec![("tick".to_string(), s + 1)]
            } else {
                Vec::new()
            };
            assert_eq!(edges, &want, "state {s}");
        }
        assert!(lts.tau.iter().all(Vec::is_empty));
    }
}
