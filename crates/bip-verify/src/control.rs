//! Run control: budgets, cancellation, and structured stop reasons.
//!
//! The ROADMAP's service framing — a long-lived verifier serving many
//! simultaneous jobs — needs every engine to bound and report its own
//! resource use. This module is the single control layer they all share:
//!
//! * [`Budget`] — declarative ceilings (states, bytes, wall-clock deadline,
//!   SAT conflicts). All engines accept one; `Default` is unlimited, so
//!   existing call sites keep their run-to-completion behavior.
//! * [`CancelToken`] — a shareable flag a supervisor flips from another
//!   thread. Explicit-state engines poll it at level boundaries; SAT-backed
//!   engines hand it to `satkit` as the solver interrupt flag, so even a
//!   worker buried in a hard SAT instance observes it mid-solve.
//! * [`StopReason`] — *why* a run ended, on every report, next to the
//!   engine's existing `complete: bool`.
//!
//! Engines poll through two calls: [`Budget::interrupted`] (cancelled? past
//! the deadline? — in that order, everywhere) at their consistency points,
//! and [`Budget::solve_limits`] for the conflict allowance of each SAT call.
//! None reads [`Budget::deadline`] or the clock itself.
//!
//! Check points are deliberately coarse: the explicit engines test the
//! budget between BFS levels (where the level-synchronous design already
//! yields a consistent snapshot — see `reach::ReachCheckpoint`), the
//! symbolic engines between solver calls plus the in-solver conflict
//! ceiling/interrupt. A tripped budget therefore stops a run *within one
//! level / one depth / one solve* of the trip, never mid-mutation.
//!
//! Determinism: `max_states`-, `max_bytes`-, and conflict-budget stops are
//! reproducible for a given model and configuration. `deadline` and
//! cancellation stops are inherently timing-dependent — but resuming an
//! interrupted reach run from its checkpoint still converges to a final
//! report bit-identical to an uninterrupted run (asserted in
//! `tests/checkpoint_reach.rs`, whose release-only test also holds a
//! deadline and a cancellation on an infinite-state ring to a prompt stop).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use satkit::SolveLimits;

/// Resource ceilings for one verification run. `None` everywhere (the
/// default) means run to completion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Budget {
    /// Stop once at least this many states are stored (checked at level
    /// boundaries; distinct from an engine's own configured bound, which
    /// reports [`StopReason::BoundExhausted`]).
    pub max_states: Option<usize>,
    /// Stop once the engine's working set exceeds this many bytes.
    pub max_bytes: Option<usize>,
    /// Stop at this wall-clock instant.
    pub deadline: Option<Instant>,
    /// Ceiling on SAT-solver conflicts (per solver call in `dfinder`, so
    /// trap enumeration stays thread-count invariant; cumulative across the
    /// single persistent solver in `bmc`).
    pub max_conflicts: Option<u64>,
}

impl Budget {
    /// No ceilings: run to completion.
    #[must_use]
    pub fn unlimited() -> Budget {
        Budget::default()
    }

    /// Stop once at least `n` states are stored.
    #[must_use]
    pub fn states(mut self, n: usize) -> Budget {
        self.max_states = Some(n);
        self
    }

    /// Stop once the working set exceeds `n` bytes.
    #[must_use]
    pub fn bytes(mut self, n: usize) -> Budget {
        self.max_bytes = Some(n);
        self
    }

    /// Stop at `t`.
    #[must_use]
    pub fn deadline(mut self, t: Instant) -> Budget {
        self.deadline = Some(t);
        self
    }

    /// Stop `d` from now. Absolute once set: re-running with the same
    /// `Budget` (e.g. an incremental re-verification) keeps the original
    /// deadline rather than granting a fresh allowance.
    #[must_use]
    pub fn deadline_in(self, d: Duration) -> Budget {
        self.deadline(Instant::now() + d)
    }

    /// Ceiling on SAT-solver conflicts.
    #[must_use]
    pub fn conflicts(mut self, n: u64) -> Budget {
        self.max_conflicts = Some(n);
        self
    }

    /// `true` if no ceiling is set.
    #[must_use]
    pub fn is_unlimited(&self) -> bool {
        *self == Budget::default()
    }

    /// Why a run must stop *now*, whatever its accounting: `cancel` was
    /// cancelled, or the deadline has passed. Cancellation is tested first —
    /// the supervisor's explicit request outranks the clock. Also the reason
    /// behind a SAT call that came back `Unknown`:
    /// `interrupted(..).unwrap_or(StopReason::SolverBudget)`.
    #[must_use]
    pub fn interrupted(&self, cancel: &CancelToken) -> Option<StopReason> {
        if cancel.is_cancelled() {
            Some(StopReason::Cancelled)
        } else if self.deadline.is_some_and(|d| Instant::now() >= d) {
            Some(StopReason::Deadline)
        } else {
            None
        }
    }

    /// The conflict allowance of one SAT call: what [`Budget::max_conflicts`]
    /// leaves after `spent`. Engines with a cumulative ceiling (`bmc`,
    /// `kind`) pass the conflicts their persistent solvers have used so far;
    /// engines with a per-solve ceiling (`dfinder`) pass 0.
    #[must_use]
    pub fn solve_limits(&self, spent: u64) -> SolveLimits {
        match self.max_conflicts {
            Some(m) => SolveLimits::unlimited().conflicts(m.saturating_sub(spent)),
            None => SolveLimits::unlimited(),
        }
    }

    /// The first tripped ceiling given the run's current accounting, or
    /// `None` while everything is within budget. Engines call this at their
    /// natural consistency points; `conflicts` ceilings are enforced inside
    /// the solver instead (see [`Budget::max_conflicts`]).
    #[must_use]
    pub fn exceeded(&self, states: usize, bytes: usize) -> Option<StopReason> {
        if self.deadline.is_some_and(|d| Instant::now() >= d) {
            Some(StopReason::Deadline)
        } else if self.max_bytes.is_some_and(|m| bytes > m) {
            Some(StopReason::MemoryBudget)
        } else if self.max_states.is_some_and(|m| states >= m) {
            Some(StopReason::StateBudget)
        } else {
            None
        }
    }
}

/// A shareable cancellation flag.
///
/// Cloning shares the underlying flag; [`CancelToken::cancel`] is observed
/// by every engine holding a clone — explicit-state engines poll it at
/// level boundaries, SAT-backed engines install it as the `satkit`
/// interrupt flag and observe it mid-solve. Cancellation is sticky: a
/// cancelled token stays cancelled (a new run wants a new token).
///
/// The `Default` token is real (not inert): cancelling it stops runs that
/// share it. Equality is identity — two tokens are equal iff they share the
/// flag — so configurations holding a token can still derive `Eq`.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, uncancelled token.
    #[must_use]
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Request cancellation; all clones observe it.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Release);
    }

    /// `true` once [`CancelToken::cancel`] has been called on any clone.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }

    /// The raw shared flag, for installing as a `satkit`
    /// [`Solver::set_interrupt`](satkit::Solver::set_interrupt) hook or a
    /// worker-loop cancel flag.
    #[must_use]
    pub fn flag(&self) -> Arc<AtomicBool> {
        self.0.clone()
    }
}

impl PartialEq for CancelToken {
    fn eq(&self, other: &CancelToken) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

impl Eq for CancelToken {}

/// Why a verification run ended. Every engine report carries one next to
/// its `complete: bool`; `complete == true` implies
/// [`StopReason::Completed`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum StopReason {
    /// The run finished its job: state space exhausted, witness found, or
    /// verdict reached.
    #[default]
    Completed,
    /// The engine's own configured bound ran out (e.g. `ReachConfig`'s
    /// `max_states`, `BmcConfig`'s unrolling bound): the usual, pre-budget
    /// meaning of `complete == false`.
    BoundExhausted,
    /// [`Budget::max_states`] tripped.
    StateBudget,
    /// [`Budget::max_bytes`] tripped.
    MemoryBudget,
    /// [`Budget::deadline`] passed.
    Deadline,
    /// The run's [`CancelToken`] was cancelled.
    Cancelled,
    /// A SAT solve hit its conflict ceiling ([`Budget::max_conflicts`]) and
    /// returned `Unknown`.
    SolverBudget,
}

impl StopReason {
    /// `true` if the run was cut short by a budget, deadline, or
    /// cancellation (as opposed to finishing or exhausting its own bound) —
    /// exactly the stops a `ReachCheckpoint` is captured for.
    #[must_use]
    pub fn is_interrupted(self) -> bool {
        !matches!(self, StopReason::Completed | StopReason::BoundExhausted)
    }
}

/// Wall-clock span that compares equal to any other span.
///
/// Engine reports that derive `Eq` and are asserted bit-identical across
/// thread counts (e.g. `DFinderReport`) still want elapsed-time accounting;
/// wrapping the `Duration` in `Wall` keeps the identity assertions about
/// *content*, not timing.
#[derive(Debug, Clone, Copy, Default)]
pub struct Wall(pub Duration);

impl PartialEq for Wall {
    fn eq(&self, _: &Wall) -> bool {
        true
    }
}

impl Eq for Wall {}

impl std::hash::Hash for Wall {
    fn hash<H: std::hash::Hasher>(&self, _: &mut H) {}
}

impl From<Duration> for Wall {
    fn from(d: Duration) -> Wall {
        Wall(d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_budget_is_unlimited() {
        let b = Budget::default();
        assert!(b.is_unlimited());
        assert_eq!(b.exceeded(usize::MAX, usize::MAX), None);
    }

    #[test]
    fn budget_trip_order_and_thresholds() {
        let b = Budget::unlimited().states(100).bytes(1 << 20);
        assert_eq!(b.exceeded(99, 0), None);
        assert_eq!(b.exceeded(100, 0), Some(StopReason::StateBudget));
        assert_eq!(b.exceeded(0, (1 << 20) + 1), Some(StopReason::MemoryBudget));
        // Bytes outrank states when both trip (memory pressure is the more
        // urgent signal); deadline outranks both.
        assert_eq!(b.exceeded(100, 1 << 21), Some(StopReason::MemoryBudget));
        let due = b.deadline(Instant::now() - Duration::from_millis(1));
        assert_eq!(due.exceeded(100, 1 << 21), Some(StopReason::Deadline));
    }

    #[test]
    fn interrupted_tests_cancellation_before_the_deadline() {
        let token = CancelToken::new();
        assert_eq!(Budget::unlimited().interrupted(&token), None);
        let late = Budget::unlimited().deadline(Instant::now() - Duration::from_millis(1));
        assert_eq!(late.interrupted(&token), Some(StopReason::Deadline));
        let far = Budget::unlimited().deadline_in(Duration::from_secs(3600));
        assert_eq!(far.interrupted(&token), None);
        token.cancel();
        assert_eq!(far.interrupted(&token), Some(StopReason::Cancelled));
        // Cancelled beats an expired deadline.
        assert_eq!(late.interrupted(&token), Some(StopReason::Cancelled));
    }

    #[test]
    fn solve_limits_is_what_the_ceiling_leaves() {
        assert_eq!(
            Budget::unlimited().solve_limits(7),
            SolveLimits::unlimited()
        );
        let b = Budget::unlimited().conflicts(10);
        assert_eq!(b.solve_limits(0).max_conflicts, Some(10));
        assert_eq!(b.solve_limits(4).max_conflicts, Some(6));
        // Overspent ceilings saturate at an empty allowance.
        assert_eq!(b.solve_limits(10).max_conflicts, Some(0));
        assert_eq!(b.solve_limits(11).max_conflicts, Some(0));
    }

    #[test]
    fn cancel_token_is_shared_and_sticky() {
        let t = CancelToken::new();
        let clone = t.clone();
        assert!(!clone.is_cancelled());
        t.cancel();
        assert!(clone.is_cancelled());
        assert!(t.is_cancelled());
        // Identity equality: clones are equal, fresh tokens are not.
        assert_eq!(t, clone);
        assert_ne!(t, CancelToken::new());
    }

    #[test]
    fn stop_reason_classification() {
        assert!(!StopReason::Completed.is_interrupted());
        assert!(!StopReason::BoundExhausted.is_interrupted());
        for s in [
            StopReason::StateBudget,
            StopReason::MemoryBudget,
            StopReason::Deadline,
            StopReason::Cancelled,
            StopReason::SolverBudget,
        ] {
            assert!(s.is_interrupted());
        }
    }

    #[test]
    fn wall_compares_equal_across_timings() {
        let a = Wall(Duration::from_secs(1));
        let b = Wall(Duration::from_secs(2));
        assert_eq!(a, b);
        assert_eq!(
            Wall::from(Duration::from_millis(1500)).0,
            Duration::from_millis(1500)
        );
    }
}
