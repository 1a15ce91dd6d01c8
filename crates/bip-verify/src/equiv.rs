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
//! Both observable LTSs are read off [`crate::reach::explore_edges`], with
//! its bound, budget, codec and deadlock list. A side cut short never
//! certifies, and a mismatch counts as a counterexample only where the
//! right-hand side was fully expanded along the whole trace.
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

use bip_core::{FxHashSet, SuccStep, System};

use crate::control::{Budget, CancelToken, StopReason};
use crate::reach::{explore_edges, ReachConfig};

/// Result of a refinement check.
#[derive(Debug, Clone)]
pub struct RefinementReport {
    /// Clause 1: observable traces of the concrete system are included in
    /// those of the abstract one. Established only by a finished check
    /// (`stop == Completed`) that found no counterexample.
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
    /// Why the check stopped: the first stage (abstract extraction,
    /// concrete extraction, product search) that did not complete —
    /// [`StopReason::BoundExhausted`] when `max_states` cut a side short.
    /// Then every clause only covers the explored region and
    /// [`Self::refines`] refuses to certify; a found counterexample is real.
    pub stop: StopReason,
    /// Wall-clock the whole check took (both LTS extractions plus the
    /// product search).
    pub elapsed: Duration,
}

impl RefinementReport {
    /// The paper's `≥`: trace inclusion and deadlock-freedom preservation.
    /// A cut-off or interrupted check (`stop != Completed`) never certifies.
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
    /// closed[s]: `s` was expanded and the bound dropped none of its edges.
    closed: Vec<bool>,
    has_deadlock: bool,
    complete: bool,
    /// `Completed` unless the bound, budget or token cut the extraction.
    stop: StopReason,
}

/// Extract the observable LTS of `sys` from [`explore_edges`]: an observable
/// connector's name passed through `rename` labels its interactions; `None`
/// results and internal steps are τ.
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
    let cfg = ReachConfig::bounded(max_states)
        .budget(*budget)
        .cancel(cancel);
    let mut edges = Vec::new();
    let report = explore_edges(sys, &cfg, |src, step, dst| {
        let label = match step {
            SuccStep::Interaction { iref, .. } => {
                let c = sys.connector(iref.connector);
                c.observable.then_some(c.name.as_str()).and_then(rename)
            }
            SuccStep::Internal { .. } => None,
        };
        edges.push((src, label, dst));
    });
    let n = report.states;
    // An interrupted run leaves its last frontier unexpanded: there, only
    // the states seen as a source count as expanded.
    let mut closed = vec![!report.stop.is_interrupted(); n];
    let (mut tau, mut obs, mut dropped) = (vec![Vec::new(); n], vec![Vec::new(); n], Vec::new());
    for (src, label, dst) in edges {
        closed[src] = true;
        match (label, dst) {
            (_, None) => dropped.push(src),
            (Some(label), Some(dst)) => obs[src].push((label, dst)),
            (None, Some(dst)) => tau[src].push(dst),
        }
    }
    dropped.into_iter().for_each(|s| closed[s] = false);
    ObsLts {
        tau,
        obs,
        closed,
        has_deadlock: !report.deadlocks.is_empty(),
        complete: report.complete,
        stop: report.stop,
    }
}

/// The observable LTSs of a refinement question, `[abstract, concrete]`:
/// the abstract side labelled by its own connector names, the concrete
/// side through `rename_concrete`.
fn extract_pair<F>(
    abstract_sys: &System,
    concrete_sys: &System,
    rename_concrete: &F,
    max_states: usize,
    budget: &Budget,
    cancel: &CancelToken,
) -> [ObsLts; 2]
where
    F: Fn(&str) -> Option<String>,
{
    let ident = |l: &str| Some(l.to_string());
    [
        obs_lts(abstract_sys, &ident, max_states, budget, cancel),
        obs_lts(concrete_sys, rename_concrete, max_states, budget, cancel),
    ]
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
/// `max_states` bounds both reachable sets. A side it cuts short sets
/// `stop` to [`StopReason::BoundExhausted`]: the check then neither
/// certifies nor establishes `trace_included`, but a counterexample it
/// finds is still real.
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
    let [a, c] = extract_pair(
        abstract_sys,
        concrete_sys,
        &rename_concrete,
        max_states,
        budget,
        cancel,
    );
    let incl = inclusion(&c, &a, budget, cancel);
    // First interrupted stage wins: extraction order (abstract, concrete)
    // then the product search — the earliest truncation is the one that
    // invalidated everything after it.
    let stop = [a.stop, c.stop, incl.stop]
        .into_iter()
        .find(|s| *s != StopReason::Completed)
        .unwrap_or(StopReason::Completed);
    RefinementReport {
        trace_included: stop == StopReason::Completed && incl.counterexample.is_none(),
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
/// `false` unless both state spaces fit `max_states`.
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
    let [a, c] = extract_pair(
        abstract_sys,
        concrete_sys,
        &rename_concrete,
        max_states,
        &unlimited,
        &run,
    );
    // Concrete traces are abstract traces, and abstract traces are
    // realizable by the concrete system.
    let included = |left, right| {
        inclusion(left, right, &unlimited, &run)
            .counterexample
            .is_none()
    };
    a.complete && c.complete && included(&c, &a) && included(&a, &c)
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
///
/// A right-hand subset holding a state that is not closed (unexpanded, or
/// with a successor the bound dropped) may lack moves the right system
/// has, so the search goes no further from it: every mismatch it reports
/// comes from a path of closed right-hand subsets and is a real
/// counterexample. Left-hand edges are always real edges.
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
        if !rs.iter().all(|&s| right.closed[s]) {
            continue;
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
    use bip_core::{AtomBuilder, ConnectorBuilder, StateCodec, SystemBuilder};

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

    /// An unbounded counter stepping on connector "a": `a` forever, a new
    /// state per step.
    fn counter_a() -> System {
        bip_core::parse_system(
            "atom C {\n port tick\n var x = 0\n location l init\n \
             on tick from l to l do x := x + 1\n}\n\
             system {\n instance c : C\n connector a = c.tick\n}\n",
        )
        .unwrap()
    }

    fn ident(l: &str) -> Option<String> {
        Some(l.to_string())
    }

    #[test]
    fn cut_off_concrete_side_never_certifies() {
        // Two states of the counter show only the trace "a", which the
        // one-shot system performs; the third state would show "a a".
        let abs = a_then_stop();
        let conc = counter_a();
        let r = refines(&abs, &conc, ident, 2);
        assert_eq!(r.stop, StopReason::BoundExhausted);
        assert!(!r.trace_included, "inclusion was not established");
        assert!(!r.refines(), "a cut-off check must not certify");
        assert!(!weak_trace_equivalent(&abs, &conc, ident, 2));
        let full = refines(&abs, &conc, ident, 1000);
        assert_eq!(
            full.counterexample,
            Some(vec!["a".to_string(), "a".to_string()])
        );
        // Equal systems are not certified equivalent from a cut either.
        assert!(!weak_trace_equivalent(&conc, &conc, ident, 10));
        assert!(!refines(&conc, &conc, ident, 10).refines());
    }

    #[test]
    fn cut_off_abstract_side_gives_no_spurious_counterexample() {
        // The abstract counter performs every aⁿ; a bound that cuts it must
        // not turn the concrete aⁿ into a counterexample.
        let abs = counter_a();
        let conc = alternator();
        for bound in [2, 100] {
            let r = refines(&abs, &conc, |_| Some("a".to_string()), bound);
            assert_eq!(r.counterexample, None, "bound {bound}");
            assert_eq!(r.stop, StopReason::BoundExhausted, "bound {bound}");
            assert!(!r.trace_included && !r.refines(), "bound {bound}");
        }
        // Likewise when a budget stops the abstract side before it expands
        // its last frontier: a τ step leads to the `a` the loop matches.
        let t = AtomBuilder::new("t")
            .port("pa")
            .port("sync")
            .location("A")
            .location("Amid")
            .location("B")
            .initial("A")
            .transition("A", "sync", "Amid")
            .transition("Amid", "pa", "B")
            .build()
            .unwrap();
        let mut sb = SystemBuilder::new();
        let x = sb.add_instance("x", &t);
        sb.add_connector(ConnectorBuilder::singleton("a", x, "pa"));
        sb.add_connector(ConnectorBuilder::singleton("s", x, "sync").silent());
        let tau_then_a = sb.build().unwrap();
        let aloop = bip_core::parse_system(
            "atom L {\n port tick\n location l init\n on tick from l to l\n}\n\
             system {\n instance c : L\n connector a = c.tick\n}\n",
        )
        .unwrap();
        let budget = Budget::unlimited().states(2);
        let r = refines_with(
            &tau_then_a,
            &aloop,
            ident,
            100,
            &budget,
            &CancelToken::new(),
        );
        assert_eq!(r.counterexample, None);
        assert_eq!(r.stop, StopReason::StateBudget);
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
