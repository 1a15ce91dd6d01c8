//! Incremental verification (§5.6).
//!
//! "We recently improved this method to take advantage of the incremental
//! system design process, which proceeds by adding new interactions to a
//! component under construction. [...] The incremental verification
//! technique uses sufficient conditions to ensure the preservation of
//! invariants when new interactions are added. If these conditions are not
//! satisfied, D-Finder generates new invariants by reusing invariants of the
//! constituent components."
//!
//! Here: adding a connector only *adds* abstract transitions, and the
//! verifier's effort follows the added transitions, not the system:
//!
//! * **Traps.** An existing trap is preserved iff the new transitions
//!   respect the trap condition on it (the sufficient condition, one
//!   word-wise [`bip_core::PlaceSet`] intersection test per added transition
//!   per trap). Broken traps are dropped, and only the seed subspaces that
//!   *lost* a trap are re-enumerated (on the parallel seed-partitioned
//!   engine of [`crate::dfinder`], each blocking the traps it kept). Adding
//!   transitions only removes traps, so while the previous enumeration ran
//!   to completion under the cap, every trap of the grown net with minimum
//!   `s` still contains a listed trap of seed `s` — unless one of seed
//!   `s`'s traps was dropped. A seed that lost nothing would answer UNSAT at
//!   once and is skipped. After a truncated enumeration (trap cap reached,
//!   or a budget, deadline or cancellation stop) the cover no longer holds
//!   and the next addition sweeps every seed.
//! * **Linear invariants.** The verifier keeps the reduced row-echelon form
//!   of the effect matrix and inserts only the added transitions' rows; the
//!   RREF of a row space is unique, so the invariants read off it equal a
//!   from-scratch [`DFinder`]'s by construction.
//!
//! What is rebuilt per addition is the [`System`] and its place/interaction
//! abstraction — linear in the model, no solving.
//!
//! ```
//! use bip_core::{dining_philosophers, SystemBuilder};
//! use bip_verify::dfinder::DFinderConfig;
//! use bip_verify::IncrementalVerifier;
//!
//! // Philosophers without the eat interactions, added one at a time.
//! let full = dining_philosophers(3, false).unwrap();
//! let mut sb = SystemBuilder::new();
//! for c in 0..full.num_components() {
//!     sb.add_instance(full.instance_name(c).to_string(), full.atom_type(c));
//! }
//! for conn in full.connectors().iter().filter(|c| c.name.starts_with("rel")) {
//!     sb.add_connector(conn.clone());
//! }
//! let mut inc = IncrementalVerifier::with_config(
//!     sb.build().unwrap(),
//!     DFinderConfig::new().threads(2), // results never depend on threads
//! );
//! for conn in full.connectors().iter().filter(|c| c.name.starts_with("eat")) {
//!     let stats = inc.add_interaction(conn.clone()).unwrap();
//!     assert_eq!(stats.traps_reused + stats.traps_added, inc.traps().len());
//! }
//! assert!(inc.check_deadlock_freedom().verdict.is_deadlock_free());
//! ```

use bip_core::FxHashSet;

use bip_core::{Connector, FaultSpec, ModelError, PlaceSet, StatePred, System, SystemBuilder};

use crate::control::StopReason;
use crate::dfinder::{
    enumerate_traps_inner, Abstraction, DFinder, DFinderConfig, DFinderReport, LinearInvariant,
};
use crate::kind::{KindConfig, Verdict as ProofVerdict};
use crate::reach::{check_invariant_with, InvariantReport, ReachConfig};

/// Statistics of one incremental step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IncrementStats {
    /// Traps that survived the sufficient condition (reused for free).
    pub traps_reused: usize,
    /// Traps invalidated by the new interaction.
    pub traps_dropped: usize,
    /// New traps found by the bounded re-enumeration.
    pub traps_added: usize,
    /// Seed subspaces handed to the re-enumeration: the seeds that lost a
    /// trap (so at most `traps_dropped`), or every reachable place when the
    /// previous enumeration was truncated. A budget, deadline or
    /// cancellation can stop the sweep before it reaches them all — the
    /// next [`DFinderReport::stop`] says so.
    pub seeds_swept: usize,
}

/// A verifier that maintains trap invariants across interaction additions.
#[derive(Debug)]
pub struct IncrementalVerifier {
    sys: System,
    /// The compositional verifier of `sys`, its invariants kept current by
    /// [`Self::add_interaction`] instead of being recomputed.
    df: DFinder,
}

impl IncrementalVerifier {
    /// Start from a system (computes the initial invariants from scratch).
    pub fn new(sys: System) -> IncrementalVerifier {
        Self::with_config(sys, DFinderConfig::new())
    }

    /// Start with an explicit trap bound.
    pub fn with_max_traps(sys: System, max_traps: usize) -> IncrementalVerifier {
        Self::with_config(sys, DFinderConfig::new().max_traps(max_traps))
    }

    /// Start under `cfg` — every (re-)enumeration this verifier runs uses
    /// `cfg.threads` workers, and like [`DFinder::with_config`] the results
    /// never depend on the thread count.
    pub fn with_config(sys: System, cfg: DFinderConfig) -> IncrementalVerifier {
        let df = DFinder::with_config(&sys, &cfg);
        IncrementalVerifier { sys, df }
    }

    /// The current system.
    pub fn system(&self) -> &System {
        &self.sys
    }

    /// Current trap invariants.
    pub fn traps(&self) -> &[PlaceSet] {
        self.df.traps()
    }

    /// Current linear invariants — equal to those of a from-scratch
    /// [`DFinder`] on [`Self::system`].
    pub fn linear(&self) -> &[LinearInvariant] {
        self.df.linear()
    }

    /// Add a connector, preserving invariants where the sufficient condition
    /// allows, and recomputing only the rest.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError`] if the connector does not validate against the
    /// system (unknown ports, duplicate name, ...).
    pub fn add_interaction(&mut self, conn: Connector) -> Result<IncrementStats, ModelError> {
        // Rebuild the system with the extra connector (systems are immutable).
        let mut sb = SystemBuilder::new();
        for c in 0..self.sys.num_components() {
            sb.add_instance(self.sys.instance_name(c).to_string(), self.sys.atom_type(c));
        }
        for c in self.sys.connectors() {
            sb.add_connector(c.clone());
        }
        sb.add_connector(conn);
        sb.set_priority(self.sys.priority().clone());
        let new_sys = sb.build()?;
        let new_abs = Abstraction::new(&new_sys);
        debug_assert_eq!(
            new_abs.num_places, self.df.abs.num_places,
            "adding a connector never adds places"
        );
        if new_abs.truncated() {
            // The grown net lacks transitions of the system: like a
            // `DFinder` built on it, keep CI only. Adding connectors never
            // un-truncates a net, so neither the traps nor the `Rref` are
            // read again.
            let dropped = self.df.traps.len();
            self.sys = new_sys;
            self.df.abs = new_abs;
            self.df.traps.clear();
            self.df.linear.clear();
            self.df.build_stop = StopReason::Completed;
            return Ok(IncrementStats {
                traps_reused: 0,
                traps_dropped: dropped,
                traps_added: 0,
                seeds_swept: 0,
            });
        }

        // Sufficient condition: the *new* abstract transitions preserve each
        // existing trap. (Old transitions are a prefix of the new transition
        // list only structurally; we simply check all traps against the new
        // abstraction's transitions that were not present before.)
        let old: FxHashSet<&(PlaceSet, PlaceSet)> =
            self.df.abs.packed_transitions().iter().collect();
        let added: Vec<&(PlaceSet, PlaceSet)> = new_abs
            .packed_transitions()
            .iter()
            .filter(|t| !old.contains(*t))
            .collect();

        // Only an untruncated trap list covers the net seed by seed (see
        // the module docs); read that off before the list changes.
        let covered = !self.df.enumeration_truncated();
        let mut kept = Vec::new();
        let mut dropped = 0usize;
        let mut lost = new_abs.place_set();
        for trap in &self.df.traps {
            let ok = added
                .iter()
                .all(|(pre, post)| !pre.intersects(trap) || post.intersects(trap));
            if ok {
                kept.push(trap.clone());
            } else {
                dropped += 1;
                lost.insert(trap.min().expect("a trap holds its seed"));
            }
        }

        // Bounded re-enumeration for replacements, over the seeds that lost
        // a trap, each blocking the traps it kept (and running on the
        // configured worker count). The clone carries the config's `Budget`
        // and cancel token along, so a re-verification honors the
        // *original* resource ceilings — the deadline is absolute, not a
        // fresh allowance per increment.
        let remaining = self.df.cfg.max_traps.saturating_sub(kept.len());
        let mut added_traps = 0usize;
        let mut seeds_swept = 0usize;
        self.df.build_stop = StopReason::Completed;
        if remaining > 0 {
            let mut seeds = new_abs.seeds();
            if covered {
                seeds.retain(|&s| lost.contains(s));
            }
            let cfg = self.df.cfg.clone().max_traps(remaining);
            let (fresh, stop) = enumerate_traps_inner(&new_abs, &kept, &seeds, &cfg);
            seeds_swept = seeds.len();
            added_traps = fresh.len();
            kept.extend(fresh);
            self.df.build_stop = stop;
        }

        let reused = kept.len() - added_traps;
        // Linear invariants: the reduced effect matrix absorbs the added
        // rows and the invariants are read off it again.
        for (pre, post) in added {
            self.df.rref.insert_effect(pre, post);
        }
        self.df.linear = self.df.rref.invariants(
            &new_abs,
            DFinder::DEFAULT_MAX_COEFF,
            DFinder::DEFAULT_MAX_SUPPORT,
        );
        self.sys = new_sys;
        self.df.abs = new_abs;
        self.df.traps = kept;
        Ok(IncrementStats {
            traps_reused: reused,
            traps_dropped: dropped,
            traps_added: added_traps,
            seeds_swept,
        })
    }

    /// Check a state invariant, trying an **unbounded k-induction proof**
    /// before falling back to explicit re-enumeration.
    ///
    /// The proof attempt ([`KindConfig::prove`], induction depth up to
    /// `max_k`) settles most invariants without touching the state space at
    /// all — the natural first move after [`Self::add_interaction`], whose
    /// whole point is to avoid re-exploring. Only when the prover declines
    /// the system (unbounded variable), errs, or returns
    /// [`ProofVerdict::Unknown`] does the verifier fall back to the bounded
    /// explicit search (`explicit_bound` states, the config's thread count).
    /// Both attempts honor the config's [`crate::control::Budget`] deadline
    /// and [`crate::control::CancelToken`].
    pub fn verify_invariant(
        &self,
        inv: &StatePred,
        max_k: usize,
        explicit_bound: usize,
    ) -> InvariantOutcome {
        self.verify_invariant_on(&self.sys, inv, max_k, explicit_bound)
    }

    /// Proof-then-explicit pipeline against an arbitrary system (shared by
    /// [`Self::verify_invariant`] and the fault-injection helpers).
    fn verify_invariant_on(
        &self,
        sys: &System,
        inv: &StatePred,
        max_k: usize,
        explicit_bound: usize,
    ) -> InvariantOutcome {
        let proof = KindConfig::new(sys)
            .max_k(max_k)
            .budget(self.df.cfg.budget)
            .cancel(&self.df.cfg.cancel)
            .prove(inv);
        match proof {
            Ok(report)
                if matches!(
                    report.verdict,
                    ProofVerdict::Proved { .. } | ProofVerdict::Violated { .. }
                ) =>
            {
                InvariantOutcome::Proof(report)
            }
            _ => {
                let cfg = ReachConfig::bounded(explicit_bound)
                    .threads(self.df.cfg.threads)
                    .budget(self.df.cfg.budget)
                    .cancel(&self.df.cfg.cancel);
                InvariantOutcome::Explicit(check_invariant_with(sys, inv, &cfg))
            }
        }
    }

    /// Derive the fault-injected variant of the current system
    /// ([`bip_core::fault::inject`]) without disturbing this verifier's
    /// incremental state. Resilience properties are ordinary invariants of
    /// the returned system.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError`] when the spec names unknown components or
    /// connectors.
    pub fn inject_faults(&self, spec: &FaultSpec) -> Result<System, ModelError> {
        bip_core::fault::inject(&self.sys, spec)
    }

    /// Check a resilience invariant **under a fault spec**: the invariant is
    /// verified against the fault-injected variant of the current system,
    /// with the same proof-then-explicit pipeline (and the same budget,
    /// cancellation, and thread-count-invariance guarantees) as
    /// [`Self::verify_invariant`].
    ///
    /// Note the invariant is evaluated on the *transformed* system —
    /// build it with the helpers in [`bip_core::fault`]
    /// (`crashed`, `single_fault_invariant`, ...) or against the injected
    /// system from [`Self::inject_faults`].
    ///
    /// # Errors
    ///
    /// Returns [`ModelError`] when the spec does not validate.
    pub fn verify_invariant_under(
        &self,
        spec: &FaultSpec,
        inv: &StatePred,
        max_k: usize,
        explicit_bound: usize,
    ) -> Result<InvariantOutcome, ModelError> {
        let faulty = self.inject_faults(spec)?;
        Ok(self.verify_invariant_on(&faulty, inv, max_k, explicit_bound))
    }

    /// Explicitly search the fault-injected variant for deadlocks (e.g.
    /// "deadlock-free despite any single crash"). Uses the config's thread
    /// count, budget, and cancel token; the report is bit-identical across
    /// thread counts like every reach report.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError`] when the spec does not validate.
    pub fn find_deadlock_under(
        &self,
        spec: &FaultSpec,
        explicit_bound: usize,
    ) -> Result<crate::reach::DeadlockReport, ModelError> {
        let faulty = self.inject_faults(spec)?;
        let cfg = ReachConfig::bounded(explicit_bound)
            .threads(self.df.cfg.threads)
            .budget(self.df.cfg.budget)
            .cancel(&self.df.cfg.cancel);
        Ok(crate::reach::find_deadlock_with(&faulty, &cfg))
    }

    /// Run the deadlock-freedom check with the current invariants — it *is*
    /// [`DFinder::check_deadlock_freedom`], asked of the verifier this one
    /// maintains. A truncated trap re-enumeration surfaces as the report's
    /// `stop` even when the verdict is decisive.
    pub fn check_deadlock_freedom(&self) -> DFinderReport {
        self.df.check_deadlock_freedom()
    }
}

/// How [`IncrementalVerifier::verify_invariant`] settled an invariant:
/// by unbounded proof/refutation, or by (possibly bounded) explicit search.
#[derive(Debug, Clone)]
pub enum InvariantOutcome {
    /// The k-induction engine answered definitively — no state enumeration
    /// happened at all.
    Proof(crate::kind::ProofReport),
    /// The prover was inconclusive (or the system is not encodable); the
    /// verdict comes from explicit search and inherits its completeness
    /// caveat ([`InvariantReport::complete`]).
    Explicit(InvariantReport),
}

impl InvariantOutcome {
    /// Whether the invariant is established on **every** reachable state
    /// (an unbounded proof, or a *complete* explicit search with no
    /// violation).
    pub fn is_proved(&self) -> bool {
        match self {
            InvariantOutcome::Proof(r) => r.is_proved(),
            InvariantOutcome::Explicit(r) => r.complete && r.violation.is_none(),
        }
    }

    /// Whether a concrete violating trace was found.
    pub fn found_violation(&self) -> bool {
        match self {
            InvariantOutcome::Proof(r) => r.violation().is_some(),
            InvariantOutcome::Explicit(r) => r.violation.is_some(),
        }
    }

    /// Whether the outcome is neither a proof nor a violation (bounded or
    /// interrupted search, exhausted induction depth).
    pub fn is_inconclusive(&self) -> bool {
        !self.is_proved() && !self.found_violation()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bip_core::ConnectorBuilder;

    /// `full` keeping only the connectors `keep` accepts.
    fn restricted(full: &System, keep: impl Fn(&Connector) -> bool) -> System {
        let mut sb = SystemBuilder::new();
        for c in 0..full.num_components() {
            sb.add_instance(full.instance_name(c).to_string(), full.atom_type(c));
        }
        for conn in full.connectors().iter().filter(|c| keep(c)) {
            sb.add_connector(conn.clone());
        }
        sb.build().unwrap()
    }

    /// Philosophers built one interaction at a time.
    fn base_philosophers(n: usize) -> System {
        // Start with all release connectors; eat connectors arrive
        // incrementally in the tests.
        let full = bip_core::builder::dining_philosophers(n, false).unwrap();
        restricted(&full, |c| c.name.starts_with("rel"))
    }

    #[test]
    fn incremental_matches_from_scratch() {
        let n = 4;
        let full = bip_core::builder::dining_philosophers(n, false).unwrap();
        let mut inc = IncrementalVerifier::new(base_philosophers(n));
        for conn in full.connectors() {
            if conn.name.starts_with("eat") {
                inc.add_interaction(conn.clone()).unwrap();
            }
        }
        let inc_report = inc.check_deadlock_freedom();
        let scratch = DFinder::new(&full).check_deadlock_freedom();
        assert_eq!(
            inc_report.verdict.is_deadlock_free(),
            scratch.verdict.is_deadlock_free()
        );
        assert!(inc_report.verdict.is_deadlock_free());
    }

    #[test]
    fn reuse_dominates() {
        let n = 6;
        let full = bip_core::builder::dining_philosophers(n, false).unwrap();
        let mut inc = IncrementalVerifier::new(base_philosophers(n));
        let mut total_reused = 0usize;
        let mut total_added = 0usize;
        let mut total_swept = 0usize;
        let seeds = inc.df.abs.seeds().len();
        for conn in full.connectors() {
            if conn.name.starts_with("eat") {
                let covered = !inc.df.enumeration_truncated();
                let st = inc.add_interaction(conn.clone()).unwrap();
                if covered {
                    assert!(st.seeds_swept <= st.traps_dropped, "{st:?}");
                } else if st.traps_dropped > 0 {
                    // A list at the cap is swept in full again as soon as a
                    // dropped trap makes room.
                    assert_eq!(st.seeds_swept, seeds, "{st:?}");
                }
                total_reused += st.traps_reused;
                total_added += st.traps_added;
                total_swept += st.seeds_swept;
            }
        }
        assert!(
            total_reused > 0,
            "the sufficient condition should preserve some invariants (reused={total_reused}, added={total_added})"
        );
        assert!(
            total_swept < n * seeds,
            "some addition should re-enumerate fewer seeds than a full sweep ({total_swept} of {n}×{seeds})"
        );
    }

    /// Grow `full` from the connectors `in_base` keeps to the whole system,
    /// one connector at a time, on two verifiers: one as shipped, one whose
    /// previous enumeration is declared truncated before every addition, so
    /// that it sweeps every seed. Skipped seeds would have answered UNSAT
    /// at once: trap lists (order included) and counts must be equal at
    /// every step.
    fn assert_filtered_sweep_equals_full_sweep(
        full: &System,
        in_base: impl Fn(&Connector) -> bool,
    ) {
        let base = restricted(full, &in_base);
        let cfg = DFinderConfig::new().max_traps(512);
        let mut filtered = IncrementalVerifier::with_config(base.clone(), cfg.clone());
        let mut full_sweep = IncrementalVerifier::with_config(base, cfg);
        let seeds = filtered.df.abs.seeds().len();
        let mut skipped = 0usize;
        for conn in full.connectors().iter().filter(|c| !in_base(c)) {
            assert!(
                !filtered.df.enumeration_truncated(),
                "the chain must stay under the cap to exercise the filter"
            );
            full_sweep.df.build_stop = StopReason::SolverBudget;
            let f = filtered.add_interaction(conn.clone()).unwrap();
            let a = full_sweep.add_interaction(conn.clone()).unwrap();
            assert_eq!(filtered.traps(), full_sweep.traps(), "after {}", conn.name);
            assert_eq!(a.seeds_swept, seeds, "after {}", conn.name);
            assert!(
                f.seeds_swept <= f.traps_dropped,
                "after {}: {f:?}",
                conn.name
            );
            assert_eq!(
                IncrementStats {
                    seeds_swept: a.seeds_swept,
                    ..f
                },
                a,
                "after {}",
                conn.name
            );
            skipped += seeds - f.seeds_swept;
        }
        assert!(skipped > 0, "no addition skipped a seed");
        assert_eq!(
            filtered.check_deadlock_freedom(),
            full_sweep.check_deadlock_freedom()
        );
    }

    #[test]
    fn filtered_sweep_equals_full_sweep_along_the_chains() {
        // Replacements found at one step are kept, blocked, and sometimes
        // dropped again at a later one: several additions per chain.
        for two_phase in [false, true] {
            let phil = bip_core::builder::dining_philosophers(5, two_phase).unwrap();
            assert_filtered_sweep_equals_full_sweep(&phil, |c| c.name.starts_with("rel"));
            assert_filtered_sweep_equals_full_sweep(&phil, |_| false);
        }
        // The station with its last two customers' six connectors held back.
        let held_back = [
            "prepay4", "start4", "finish4", "prepay5", "start5", "finish5",
        ];
        assert_filtered_sweep_equals_full_sweep(&bip_core::gas_station(6).unwrap(), |c| {
            !held_back.contains(&c.name.as_str())
        });
    }

    #[test]
    fn add_bad_interaction_rejected() {
        let mut inc = IncrementalVerifier::new(base_philosophers(3));
        let bad = ConnectorBuilder::singleton("oops", 0, "ghost").into_connector();
        assert!(inc.add_interaction(bad).is_err());
    }

    #[test]
    fn traps_remain_traps_after_additions() {
        let n = 3;
        let full = bip_core::builder::dining_philosophers(n, false).unwrap();
        let mut inc = IncrementalVerifier::new(base_philosophers(n));
        for conn in full.connectors() {
            if conn.name.starts_with("eat") {
                inc.add_interaction(conn.clone()).unwrap();
            }
        }
        let abs = Abstraction::new(inc.system());
        for t in inc.traps() {
            assert!(abs.is_trap(t), "stale trap kept: {t:?}");
        }
    }

    #[test]
    fn cancelled_config_yields_unknown_through_the_facade() {
        use crate::control::CancelToken;
        let token = CancelToken::new();
        let inc = IncrementalVerifier::with_config(
            base_philosophers(3),
            DFinderConfig::new().cancel(&token),
        );
        token.cancel();
        let report = inc.check_deadlock_freedom();
        assert!(report.verdict.is_unknown());
        assert!(!report.verdict.is_deadlock_free());
        assert_eq!(report.stop, StopReason::Cancelled);
    }

    #[test]
    fn cancelled_config_truncates_reenumeration() {
        use crate::control::CancelToken;
        let n = 3;
        let full = bip_core::builder::dining_philosophers(n, false).unwrap();
        let token = CancelToken::new();
        let mut inc = IncrementalVerifier::with_config(
            base_philosophers(n),
            DFinderConfig::new().cancel(&token),
        );
        token.cancel();
        // Additions still succeed structurally — only the re-enumeration is
        // cut short, and the final report surfaces that. The first addition
        // follows the complete from-scratch enumeration and schedules only
        // the seeds that lost a trap; every later one follows a cancelled
        // sweep, whose list covers nothing, and schedules them all.
        let seeds = inc.df.abs.seeds().len();
        for (i, conn) in full
            .connectors()
            .iter()
            .filter(|c| c.name.starts_with("eat"))
            .enumerate()
        {
            let st = inc.add_interaction(conn.clone()).unwrap();
            assert_eq!(st.traps_added, 0);
            if i == 0 {
                assert!(0 < st.seeds_swept && st.seeds_swept <= st.traps_dropped);
            } else {
                assert_eq!(st.seeds_swept, seeds);
            }
        }
        let report = inc.check_deadlock_freedom();
        assert_eq!(report.stop, StopReason::Cancelled);
        assert!(report.verdict.is_unknown());
    }

    #[test]
    fn capped_enumeration_makes_the_next_addition_sweep_every_seed() {
        use crate::control::Budget;
        // Philosophers with the last connector held back, enumerated under
        // a ceiling that cuts the from-scratch sweep short.
        let full = bip_core::builder::dining_philosophers(4, false).unwrap();
        let last = full.connectors().last().unwrap();
        let base = restricted(&full, |c| c.name != last.name);
        let conflict_capped = DFinderConfig::new().budget(Budget::unlimited().conflicts(1));
        let trap_capped = DFinderConfig::new().max_traps(4);
        for (cfg, stop) in [
            (conflict_capped, StopReason::SolverBudget),
            (trap_capped, StopReason::Completed),
        ] {
            let mut inc = IncrementalVerifier::with_config(base.clone(), cfg);
            assert_eq!(inc.df.build_stop, stop);
            assert!(inc.df.enumeration_truncated());
            let st = inc.add_interaction(last.clone()).unwrap();
            assert!(st.traps_dropped > 0, "room under the trap cap: {st:?}");
            assert_eq!(st.seeds_swept, inc.df.abs.seeds().len());
        }
    }

    #[test]
    fn verify_invariant_proves_without_enumeration() {
        let n = 3;
        let full = bip_core::builder::dining_philosophers(n, false).unwrap();
        let mut inc = IncrementalVerifier::new(base_philosophers(n));
        for conn in full.connectors() {
            if conn.name.starts_with("eat") {
                inc.add_interaction(conn.clone()).unwrap();
            }
        }
        // Adjacent philosophers share a fork: never both eating.
        let inv = StatePred::And(
            (0..n)
                .map(|i| {
                    StatePred::Not(Box::new(StatePred::And(vec![
                        StatePred::AtLoc(i, 1),
                        StatePred::AtLoc((i + 1) % n, 1),
                    ])))
                })
                .collect(),
        );
        let out = inc.verify_invariant(&inv, 16, 10_000);
        assert!(
            matches!(out, InvariantOutcome::Proof(_)),
            "k-induction should settle this without enumeration"
        );
        assert!(out.is_proved());
        assert!(!out.found_violation());
    }

    #[test]
    fn verify_invariant_falls_back_on_undecidable_encodings() {
        // An unguarded counter declines the symbolic encoding entirely:
        // the facade must fall back to explicit search and still find the
        // concrete violation.
        let counter = bip_core::AtomBuilder::new("counter")
            .location("run")
            .initial("run")
            .var("n", 0)
            .internal_transition(
                "run",
                bip_core::Expr::t(),
                vec![("n", bip_core::Expr::var(0).add(bip_core::Expr::int(1)))],
                "run",
            )
            .build()
            .unwrap();
        let mut sb = SystemBuilder::new();
        sb.add_instance("c", &counter);
        let inc = IncrementalVerifier::new(sb.build().unwrap());
        let inv = StatePred::Not(Box::new(StatePred::Eq(
            bip_core::GExpr::var(0, 0),
            bip_core::GExpr::int(3),
        )));
        let out = inc.verify_invariant(&inv, 8, 100);
        assert!(matches!(out, InvariantOutcome::Explicit(_)));
        assert!(out.found_violation());
        assert!(!out.is_proved());
    }

    #[test]
    fn unbounded_crashes_kill_philosophers_but_a_budget_saves_them() {
        use bip_core::fault::{self, FaultSpec, RecoverSpec};
        let n = 3;
        let full = bip_core::builder::dining_philosophers(n, false).unwrap();
        let inc = IncrementalVerifier::new(full);

        // Unrecoverable crashes: everyone can die, nobody comes back —
        // the explicit search finds a deadlock.
        let dead = inc
            .find_deadlock_under(&FaultSpec::crash_all().unrecoverable(), 100_000)
            .unwrap();
        assert!(dead.found(), "unrecoverable crash-all must deadlock");

        // A zero budget disables crashes entirely: deadlock-free again.
        let safe = inc
            .find_deadlock_under(&FaultSpec::crash_all().unrecoverable().budget(0), 100_000)
            .unwrap();
        assert!(safe.deadlock_free());

        // Single-fault budget with recovery: the recovery invariant is a
        // 1-inductive property of the transformed system, k-induction
        // proves it without enumeration.
        let spec = FaultSpec::crash_all()
            .recover(RecoverSpec::Restart)
            .budget(1);
        let faulty = inc.inject_faults(&spec).unwrap();
        let inv = fault::single_fault_invariant(&faulty);
        let out = inc.verify_invariant_under(&spec, &inv, 4, 100_000).unwrap();
        assert!(
            matches!(out, InvariantOutcome::Proof(_)),
            "recovery invariant should be settled by proof"
        );
        assert!(out.is_proved());
    }

    #[test]
    fn fault_helpers_reject_bad_specs() {
        use bip_core::FaultSpec;
        let inc = IncrementalVerifier::new(base_philosophers(3));
        let bad = FaultSpec::none().lossy("no_such_connector");
        assert!(inc.inject_faults(&bad).is_err());
        assert!(inc.find_deadlock_under(&bad, 100).is_err());
        assert!(inc
            .verify_invariant_under(&bad, &StatePred::True, 2, 100)
            .is_err());
    }

    #[test]
    fn incremental_is_thread_count_invariant() {
        let n = 4;
        let full = bip_core::builder::dining_philosophers(n, false).unwrap();
        let mut reports = Vec::new();
        for threads in [1usize, 2, 8] {
            let mut inc = IncrementalVerifier::with_config(
                base_philosophers(n),
                DFinderConfig::new().threads(threads),
            );
            let mut stats = Vec::new();
            for conn in full.connectors() {
                if conn.name.starts_with("eat") {
                    stats.push(inc.add_interaction(conn.clone()).unwrap());
                }
            }
            reports.push((inc.traps().to_vec(), stats, inc.check_deadlock_freedom()));
        }
        let (t1, s1, r1) = &reports[0];
        for (t, s, r) in &reports[1..] {
            assert_eq!(t, t1, "trap sets must not depend on threads");
            assert_eq!(s, s1, "increment stats must not depend on threads");
            assert_eq!(r, r1, "reports must not depend on threads");
        }
    }
}
