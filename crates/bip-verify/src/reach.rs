//! Monolithic explicit-state model checking over bit-packed states.
//!
//! This is the baseline of experiment E1: it enumerates the global state
//! space, whose size "increases exponentially with the number of the
//! components of the system to be verified" (§4.3) — the state-explosion
//! phenomenon that motivates the compositional method in [`crate::dfinder`].
//!
//! # Architecture
//!
//! The three explorers — [`explore`], [`check_invariant`],
//! [`find_deadlock`] — run on one engine: a **level-synchronous
//! breadth-first search** over bit-packed states (see
//! [`bip_core::StateCodec`]).
//!
//! States are packed by the **adaptive codec** by default
//! ([`ReachConfig::codec`]): bounded variables cost their inferred width,
//! unbounded ones an interned-overflow index. If a runtime value overflows
//! its inferred width, the engine **repacks**: the codec widens
//! deterministically, every stored state migrates to the new layout, the
//! current BFS level restarts, and the search continues — reports are
//! bit-identical whether or not a widen occurred, and identical between the
//! adaptive and full-width codecs.
//!
//! The `seen` set is partitioned into a fixed number of shards by the
//! codec-invariant [`bip_core::StateCodec::state_hash`]. Each shard is an
//! **open-addressing table over a bump arena**: packed words live
//! contiguously in the shard's arena, and table slots hold
//! `(fingerprint, state index)` pairs — no per-state allocation on insert,
//! no pointer chase on probe, and the arena slice *is* the stored state, so
//! the frontier carries compact `shard << 48 | index` references instead of
//! owned packed states.
//!
//! The witness-tracing modes keep, beside every stored state and at the
//! same arena index, a 16-byte trace node: the parent state's reference,
//! the state's ordinal in the parent's successor stream, and whether that
//! expansion fired a reduced (ample) subset. No step is stored: a witness
//! walks the nodes back to the root and rebuilds each step by re-expanding
//! the parent exactly as the engine did. Successor enumeration and the
//! ample selector are pure functions of the state, so the rebuilt step is
//! the one the engine fired.
//!
//! A BFS level is one **expansion** routine (decode, plan the ample
//! subset, cycle proviso, fire, then encode — as a patch of the parent's
//! words, re-encoding only the step's participants — shard and hash each
//! successor and count its ordinal) feeding one **admission** routine
//! (probe, bound, insert with trace node, violation check, next-frontier
//! bucket), under one of two schedulers. The *fused* scheduler runs both in
//! a single stream-order pass on the calling thread, inserting in place. The
//! *parallel* one expands chunks of the frontier on up to
//! [`ReachConfig::threads`] workers against the read-only seen set (phase
//! A), then merges (phase B): shard-parallel when every candidate will be
//! stored, otherwise through the same admission in stream order. Every run
//! ends in one exit, which builds the report.
//!
//! [`explore_edges`] is the engine's edge entry: after a level commits, it
//! re-expands the level's frontier against the read-only seen set and
//! hands each edge to a visitor. Every explicit LTS in the stack — the
//! refinement checks of [`crate::equiv`], the bisimulation experiment of
//! [`crate::expressiveness`] — is read off it.
//!
//! # Partial-order reduction
//!
//! [`ReachConfig::reduction`] selects between exhaustive interleaving
//! ([`Reduction::None`], the default) and a **persistent-set partial-order
//! reduction** ([`Reduction::Persistent`]) driven by the static
//! independence tables of [`bip_core::indep`]: at each expanded state a
//! deterministic stubborn-set closure — seeded from the canonical
//! [`bip_core::StateCodec::state_hash`], so the choice is thread-count- and
//! codec-invariant — picks a provably sufficient subset of the enabled
//! interactions to fire. Interleavings of statically independent
//! interactions collapse, so `states`/`transitions` (and `stored_bytes`)
//! legitimately shrink, while every *verdict* is preserved:
//!
//! * [`find_deadlock_with`] and the deadlock list of [`explore_with`] are
//!   deadlock-preserving unconditionally — every reachable deadlock of the
//!   full semantics is reached (persistent sets are never empty at
//!   non-deadlock states, and a deadlock has no interleavings to cut);
//! * [`check_invariant_with`] additionally refuses any reduced set
//!   containing an action whose write support intersects the predicate's
//!   support (the visibility check, reusing the same
//!   [`bip_core::indep::IndepInfo`] rows), and closes the classical cycle
//!   proviso through the level-synchronous structure: a state whose ample
//!   set was reduced and that has a successor already stored at its
//!   level's entry — the only way a cycle can close under BFS — is
//!   re-expanded in full.
//!
//! For a fixed `Reduction` mode, reports remain bit-identical across
//! thread counts and codecs; across modes the verdicts (deadlock
//! found/free, invariant holds/violated, the completeness flag on complete
//! runs) agree.
//!
//! ```
//! use bip_core::dining_philosophers;
//! use bip_verify::reach::{explore_with, ReachConfig, Reduction};
//!
//! let sys = dining_philosophers(6, true).unwrap();
//! let full = explore_with(&sys, &ReachConfig::bounded(1_000_000));
//! let red = explore_with(
//!     &sys,
//!     &ReachConfig::bounded(1_000_000).reduction(Reduction::Persistent),
//! );
//! assert!(red.states < full.states, "independent interleavings collapse");
//! assert_eq!(red.complete, full.complete);
//! assert_eq!(red.deadlock_free(), full.deadlock_free());
//! let a: std::collections::HashSet<_> = red.deadlocks.iter().collect();
//! let b: std::collections::HashSet<_> = full.deadlocks.iter().collect();
//! assert_eq!(a, b, "every deadlock is preserved");
//! ```
//!
//! Results are **deterministic and independent of the thread count and the
//! codec**: shard assignment hashes canonical location/value content (not
//! layout-dependent packed words), chunk order and merge order are fixed by
//! the system alone, and any level that could cross `max_states` (or
//! contains an invariant violation) is merged in a single deterministic
//! stream order — so `threads = 1` (the default of the plain function
//! forms) and `threads = N` return identical reports, bounded or not, under
//! any codec in the widening ladder.
//!
//! # Bounded-exploration semantics
//!
//! Every explorer takes a `max_states` bound and reports honestly at the
//! bound:
//!
//! * `complete == true` means the reachable set was exhausted within the
//!   bound; `complete == false` means states were discarded, so *absence*
//!   results (no deadlock found, invariant never violated) only cover the
//!   visited region. [`ReachReport::deadlock_free`],
//!   [`InvariantReport::holds`], and [`DeadlockReport::deadlock_free`] all
//!   require `complete`.
//! * A **found** violation or deadlock witness is definitive even when
//!   `complete == false`: it is a real reachable state with a real trace.
//! * `transitions` counts only edges between *stored* states — successors
//!   pruned by the bound are not counted, so the number is exactly the edge
//!   count of the explored region.
//!
//! ```
//! use bip_core::dining_philosophers;
//! use bip_verify::reach::{explore_with, find_deadlock_with, ReachConfig};
//!
//! let sys = dining_philosophers(4, true).unwrap();
//! let cfg = ReachConfig::bounded(1_000_000).threads(4);
//! let report = explore_with(&sys, &cfg);
//! assert!(report.complete && !report.deadlocks.is_empty());
//!
//! // Same report at any thread count; a found witness is definitive.
//! let d = find_deadlock_with(&sys, &ReachConfig::bounded(1_000_000));
//! assert!(d.found() && !d.deadlock_free());
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use crate::control::{Budget, CancelToken, StopReason};
use bip_core::hash::FxHasher;
use bip_core::indep::IndepInfo;
use bip_core::{
    AmpleScratch, CodecSnapshot, CompId, EnabledSet, FxHashMap, PackedState, PlaceSet, State,
    StateCodec, StatePred, Step, SuccScratch, SuccStep, System, WidenReq,
};
use std::hash::Hasher;

/// Number of `seen`-set shards. Fixed (rather than `= threads`) so shard
/// assignment — and therefore frontier order, bounded truncation, and
/// witness selection — is identical for every thread count.
const SHARDS: usize = 64;

/// Sentinel parent reference of the initial state's trace node.
const NO_NODE: u64 = u64::MAX;

/// Low 48 bits of a `shard << 48 | index` reference.
const REF_MASK: u64 = (1u64 << 48) - 1;

/// Empty slot sentinel of the open-addressing tables.
const EMPTY_SLOT: u64 = u64::MAX;

/// The membership hash of a packed word slice (fingerprint in the high 32
/// bits, probe start in the low bits). Layout-dependent — used only inside
/// one shard's table, never for shard assignment.
#[inline]
fn word_hash(words: &[u64]) -> u64 {
    let mut h = FxHasher::default();
    h.write_usize(words.len());
    for &w in words {
        h.write_u64(w);
    }
    h.finish()
}

/// The owning shard of a state: canonical content hash, so every codec in a
/// widening ladder (and the full-width reference codec) agrees.
#[inline]
fn shard_index(codec: &StateCodec, st: &State) -> usize {
    (codec.state_hash(st) % SHARDS as u64) as usize
}

/// Pack a `(shard, index)` pair into a compact reference.
fn node_ref(shard: usize, index: usize) -> u64 {
    debug_assert!(index < (1usize << 48));
    ((shard as u64) << 48) | index as u64
}

/// How the engine packs stored states; see [`ReachConfig::codec`].
#[derive(Debug, Clone, Default)]
pub enum CodecMode {
    /// Adaptive narrow-width packing ([`StateCodec::adaptive`]); values that
    /// overflow their inferred width trigger a deterministic repack.
    #[default]
    Adaptive,
    /// Full 64-bit variable images ([`StateCodec::new`]); infallible, the
    /// PR-2 behavior and the differential-testing reference.
    FullWidth,
    /// Start from a caller-supplied codec (a tuning/testing hook — e.g. a
    /// deliberately narrowed codec to exercise the repack path). The engine
    /// still widens it as needed.
    Custom(StateCodec),
}

/// Interleaving-reduction strategy of an exploration; see the
/// [module docs](self) and [`ReachConfig::reduction`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Reduction {
    /// Enumerate every interleaving (the exhaustive baseline).
    #[default]
    None,
    /// Persistent-set partial-order reduction over the static independence
    /// tables of [`bip_core::indep`]. Verdicts are preserved;
    /// `states`/`transitions` counts legitimately shrink. Reports stay
    /// bit-identical across thread counts and codecs for this mode.
    Persistent,
}

/// Configuration for a state-space exploration.
#[derive(Debug, Clone)]
pub struct ReachConfig {
    /// Stop storing new states once this many are seen (the exploration
    /// still drains its frontier, so edges into stored states are counted).
    pub max_states: usize,
    /// Worker threads for expansion and shard merging; `1` (the default)
    /// runs everything inline on the calling thread.
    pub threads: usize,
    /// BFS levels narrower than this run on the calling thread even when
    /// `threads > 1` — spawning would cost more than the work, and results
    /// are identical either way. Lower it (e.g. to 1) to force the
    /// parallel machinery onto small frontiers, as the equivalence tests
    /// do. `0` is normalized to `1` (every level at least considers the
    /// configured thread count).
    pub min_parallel_level: usize,
    /// State packing profile (reports do not depend on it).
    pub codec: CodecMode,
    /// Interleaving-reduction strategy ([`Reduction::None`] by default;
    /// verdicts do not depend on it, state/transition counts do).
    pub reduction: Reduction,
    /// Resource budget, checked at level boundaries (unlimited by default).
    /// Distinct from `max_states`: exhausting the engine bound keeps
    /// draining the frontier and reports [`StopReason::BoundExhausted`];
    /// tripping the budget stops the run at the next level boundary with a
    /// resumable [`ReachCheckpoint`].
    pub budget: Budget,
    /// Cancellation token, polled at level boundaries (a fresh, private
    /// token by default).
    pub cancel: CancelToken,
}

impl ReachConfig {
    /// Sequential exploration bounded at `max_states`.
    #[must_use]
    pub fn bounded(max_states: usize) -> ReachConfig {
        ReachConfig {
            max_states,
            threads: 1,
            min_parallel_level: 128,
            codec: CodecMode::Adaptive,
            reduction: Reduction::None,
            budget: Budget::unlimited(),
            cancel: CancelToken::new(),
        }
    }

    /// Set the worker-thread count (clamped to at least 1).
    #[must_use]
    pub fn threads(mut self, threads: usize) -> ReachConfig {
        self.threads = threads.max(1);
        self
    }

    /// Set the level width below which work stays on the calling thread
    /// (clamped to at least 1 — `0` would otherwise read as "parallelize
    /// even empty levels", which is the same thing).
    #[must_use]
    pub fn min_parallel_level(mut self, width: usize) -> ReachConfig {
        self.min_parallel_level = width.max(1);
        self
    }

    /// Pack stored states with the full-width reference codec.
    #[must_use]
    pub fn full_width_codec(mut self) -> ReachConfig {
        self.codec = CodecMode::FullWidth;
        self
    }

    /// Start from a caller-supplied codec (widened on demand).
    #[must_use]
    pub fn with_codec(mut self, codec: StateCodec) -> ReachConfig {
        self.codec = CodecMode::Custom(codec);
        self
    }

    /// Set the interleaving-reduction strategy (see the
    /// [module docs](self)).
    #[must_use]
    pub fn reduction(mut self, reduction: Reduction) -> ReachConfig {
        self.reduction = reduction;
        self
    }

    /// Set the resource budget (see [`ReachConfig::budget`]).
    #[must_use]
    pub fn budget(mut self, budget: Budget) -> ReachConfig {
        self.budget = budget;
        self
    }

    /// Observe `token` for cancellation: once any clone of it is cancelled,
    /// the run stops at the next level boundary with a checkpoint.
    #[must_use]
    pub fn cancel(mut self, token: &CancelToken) -> ReachConfig {
        self.cancel = token.clone();
        self
    }
}

/// Result of a state-space exploration.
#[must_use = "inspect `complete` and the deadlock list; an unread report hides bound exhaustion"]
#[derive(Debug, Clone)]
pub struct ReachReport {
    /// Number of distinct states stored.
    pub states: usize,
    /// Number of transitions between stored states (edges pruned by the
    /// bound are not counted).
    pub transitions: usize,
    /// Deadlock states found (no successor at all), in BFS order.
    pub deadlocks: Vec<State>,
    /// `true` if exploration exhausted the reachable set within the bound.
    pub complete: bool,
    /// Bytes the packed `seen` set occupied when the exploration returned:
    /// arena words plus open-addressing slots, summed over the shards. The
    /// footprint metric `tests/parallel_reach.rs` compares across codecs;
    /// deterministic for a given
    /// system and codec mode (but *not* part of report equality — the
    /// adaptive codec exists to shrink it).
    pub stored_bytes: usize,
    /// Why the run stopped. `complete == true` implies
    /// [`StopReason::Completed`]; an interrupted stop comes with a
    /// [`ReachCheckpoint`] in `checkpoint`.
    pub stop: StopReason,
    /// Wall-clock the run took, accumulated across checkpoint resumes.
    pub elapsed: Duration,
    /// Largest `seen`-set footprint observed at any level boundary (same
    /// metric as `stored_bytes`; deterministic per system and codec mode).
    pub peak_bytes: usize,
    /// Present iff the run was interrupted by a budget/deadline/
    /// cancellation: resume it with [`explore_resume`].
    pub checkpoint: Option<ReachCheckpoint>,
}

impl ReachReport {
    /// `true` when the exploration completed and found no deadlock.
    pub fn deadlock_free(&self) -> bool {
        self.complete && self.deadlocks.is_empty()
    }

    /// Average stored bytes per state (0 when nothing was stored).
    pub fn bytes_per_state(&self) -> f64 {
        if self.states == 0 {
            0.0
        } else {
            self.stored_bytes as f64 / self.states as f64
        }
    }
}

/// Result of checking a state invariant over the reachable states.
#[must_use = "inspect `holds()`; an unread report hides bound exhaustion"]
#[derive(Debug, Clone)]
pub struct InvariantReport {
    /// Number of distinct states stored when the check returned.
    pub states: usize,
    /// A reachable state violating the invariant, with a shortest trace of
    /// steps from the initial state, if any. A present violation is
    /// **definitive** even when `complete` is `false`.
    pub violation: Option<(State, Vec<Step>)>,
    /// `true` if exploration exhausted the reachable set within the bound.
    /// When a violation is returned this reflects the bound status at that
    /// moment (no state had been discarded yet), not a completed sweep.
    pub complete: bool,
    /// Why the run stopped (see [`ReachReport::stop`]).
    pub stop: StopReason,
    /// Wall-clock the run took, accumulated across checkpoint resumes.
    pub elapsed: Duration,
    /// Largest footprint observed at any level boundary: the `seen` set
    /// plus the trace arena (16 bytes per stored state) — the figure a
    /// [`Budget::bytes`] ceiling is checked against.
    pub peak_bytes: usize,
    /// Present iff the run was interrupted; resume it with
    /// [`check_invariant_resume`].
    pub checkpoint: Option<ReachCheckpoint>,
}

impl InvariantReport {
    /// `true` when the invariant holds on every reachable state (and the
    /// exploration was complete).
    pub fn holds(&self) -> bool {
        self.complete && self.violation.is_none()
    }
}

/// Result of searching for a deadlock state.
///
/// Unlike a bare `Option`, this keeps "no deadlock found" distinguishable
/// from "the bound was exhausted before the search could finish":
/// [`DeadlockReport::deadlock_free`] is only `true` for a complete search.
#[must_use = "inspect `deadlock_free()`; an unread report hides bound exhaustion"]
#[derive(Debug, Clone)]
pub struct DeadlockReport {
    /// Number of distinct states stored when the search returned.
    pub states: usize,
    /// A deadlock state with a shortest trace from the initial state, if
    /// one was found. A present witness is **definitive** even when
    /// `complete` is `false`.
    pub witness: Option<(State, Vec<Step>)>,
    /// `true` if the search exhausted the reachable set within the bound.
    pub complete: bool,
    /// Why the run stopped (see [`ReachReport::stop`]).
    pub stop: StopReason,
    /// Wall-clock the run took, accumulated across checkpoint resumes.
    pub elapsed: Duration,
    /// Largest footprint observed at any level boundary: the `seen` set
    /// plus the trace arena (16 bytes per stored state) — the figure a
    /// [`Budget::bytes`] ceiling is checked against. A found witness
    /// reports the boundary at the entry of its level (like `states`), on
    /// every thread count.
    pub peak_bytes: usize,
    /// Present iff the run was interrupted; resume it with
    /// [`find_deadlock_resume`].
    pub checkpoint: Option<ReachCheckpoint>,
}

impl DeadlockReport {
    /// `true` when a deadlock witness was found.
    pub fn found(&self) -> bool {
        self.witness.is_some()
    }

    /// `true` when the search was complete and found no deadlock. A `false`
    /// answer with `witness == None` means the bound was hit — *not* that
    /// the system is deadlock-free.
    pub fn deadlock_free(&self) -> bool {
        self.complete && self.witness.is_none()
    }
}

/// Partial-order-reduction context of one engine run: the system's static
/// independence tables plus, in invariant mode, the visible-action row
/// (whose presence also switches on the BFS cycle proviso).
struct PorCtx<'a> {
    indep: &'a IndepInfo,
    visible: Option<PlaceSet>,
}

/// What one engine run searches: the system, the mode, and the reduction
/// context.
struct Ctx<'a> {
    sys: &'a System,
    mode: Mode<'a>,
    por: Option<PorCtx<'a>>,
}

impl Ctx<'_> {
    /// Invariant mode: whether `st` violates the predicate.
    fn violates(&self, st: &State) -> bool {
        matches!(self.mode, Mode::Invariant(inv) if !inv.eval(self.sys, st))
    }
}

/// The successor generator: the compiled enabled-set, the allocation-free
/// successor scratch, a decode target, and — under partial-order reduction
/// — the ample-selector scratch.
struct Expander {
    es: EnabledSet,
    scratch: SuccScratch,
    state: State,
    ample: Option<AmpleScratch>,
}

impl Expander {
    fn new(sys: &System, por: bool) -> Expander {
        Expander {
            es: sys.new_enabled_set(),
            scratch: sys.new_succ_scratch(),
            state: sys.initial_state(),
            ample: por.then(|| sys.indep().new_scratch(sys)),
        }
    }

    /// Decode `words` and, under partial-order reduction, refresh the
    /// enabled set and run the ample selector. BFS visits arbitrary states,
    /// so the enabled set is fully invalidated. Returns whether a strict
    /// reduction was selected; the decoded state and enabled set stay in
    /// `self` for [`Expander::fire`].
    fn plan(
        &mut self,
        sys: &System,
        codec: &StateCodec,
        words: &[u64],
        por: Option<&PorCtx<'_>>,
    ) -> bool {
        codec.decode_words_into(words, &mut self.state);
        self.es.invalidate_all();
        let Some(por) = por else {
            return false;
        };
        sys.refresh_enabled(&self.state, &mut self.es);
        por.indep.select_ample(
            sys,
            &self.state,
            &self.es,
            codec.state_hash(&self.state),
            por.visible.as_ref(),
            self.ample.as_mut().expect("POR worker carries a selector"),
        )
    }

    /// Fire the planned expansion: the ample subset when `reduced`, the
    /// full successor set otherwise. Returns whether the state had any
    /// successor.
    fn fire<F>(&mut self, sys: &System, por: Option<&PorCtx<'_>>, reduced: bool, mut f: F) -> bool
    where
        F: FnMut(SuccStep<'_>, &State),
    {
        if reduced {
            let por = por.expect("a reduction implies POR");
            let ample = self.ample.as_ref().expect("planned before firing");
            for &aid in ample.ample() {
                sys.for_each_step_successor(
                    &self.state,
                    &mut self.scratch,
                    por.indep.action(aid as usize),
                    &mut f,
                );
            }
            // A strict reduction implies ≥ 2 enabled actions, each with at
            // least one successor.
            true
        } else {
            let mut any = false;
            sys.for_each_successor(&self.state, &mut self.es, &mut self.scratch, |s, next| {
                any = true;
                f(s, next);
            });
            any
        }
    }
}

/// One successor handed to an expansion's visitor.
struct Succ<'a> {
    /// The step that produced it.
    step: SuccStep<'a>,
    next: &'a State,
    packed: &'a PackedState,
    /// Owning shard (canonical hash).
    shard: usize,
    /// Membership hash of `packed`.
    hash: u64,
    /// The trace node the successor gets if it is stored.
    node: Node,
}

/// A search worker: the successor generator plus the packing buffers of
/// the expansion routine. A warmed worker allocates nothing per expanded
/// edge; what grows per *stored* state is the arena words and, when
/// tracing, one fixed-size trace node.
struct Worker {
    ex: Expander,
    enc: PackedState,
    probe: PackedState,
    /// The expanded state's packed words, copied out of the store: every
    /// successor is encoded as a patch of them, and the fused level's
    /// arena may grow (and move) while its successors are admitted.
    parent: Vec<u64>,
    /// The components one successor step touched, ascending.
    touched: Vec<CompId>,
}

/// The components `step` may change, ascending: its participants, or the
/// stepping component.
fn touched_components(step: SuccStep<'_>, out: &mut Vec<CompId>) {
    out.clear();
    match step {
        SuccStep::Interaction { transitions, .. } => {
            out.extend(transitions.iter().map(|&(c, _)| c));
            out.sort_unstable();
        }
        SuccStep::Internal { component, .. } => out.push(component),
    }
}

impl Worker {
    fn new(sys: &System, por: bool) -> Worker {
        Worker {
            ex: Expander::new(sys, por),
            enc: PackedState::zeroed(0),
            probe: PackedState::zeroed(0),
            parent: Vec::new(),
            touched: Vec::new(),
        }
    }

    /// Expand the stored state `sref` — the one expansion routine both
    /// level schedulers run.
    ///
    /// Decode and plan; then, in invariant mode, the cycle proviso: a
    /// reduced state with an ample successor stored at an arena index below
    /// `entry` (its shard's length at the level's entry) could close a
    /// cycle, so it expands fully. Same-level inserts are next-level states
    /// and never close one, so the fused level, which inserts as it goes,
    /// decides exactly as phase A, which only reads. The pre-pass
    /// re-enumerates the ample successors: it runs only for reduced states
    /// in invariant mode, where the shrunk graph amortizes it.
    ///
    /// Both passes encode each successor as a patch of the parent's words
    /// ([`StateCodec::try_encode_patch_into`]), which are copied out of
    /// the store first: the fused level's arena can grow under them.
    ///
    /// Then fire, and hand each successor to `visit` — encoded, sharded,
    /// hashed, and with the trace node it gets if stored — until `visit`
    /// returns `false`. `store` holds the shards — phase A's read-only
    /// slice, or the seen set the fused level admits into — and goes to
    /// `visit` with each successor. Returns whether the state had any
    /// successor, or the widen request of the first successor that
    /// overflows the codec.
    fn expand<S, V>(
        &mut self,
        cx: &Ctx<'_>,
        codec: &StateCodec,
        store: &mut S,
        entry: &[usize],
        sref: u64,
        mut visit: V,
    ) -> Result<bool, WidenReq>
    where
        S: AsRef<[Shard]>,
        V: FnMut(&mut S, Succ<'_>) -> bool,
    {
        let por = cx.por.as_ref();
        self.parent.clear();
        self.parent
            .extend_from_slice(ref_words(store.as_ref(), sref));
        let (parent, touched) = (&self.parent, &mut self.touched);
        let mut reduced = self.ex.plan(cx.sys, codec, parent, por);
        if reduced && por.is_some_and(|pc| pc.visible.is_some()) {
            let shards = store.as_ref();
            let probe = &mut self.probe;
            let mut hit = false;
            self.ex.fire(cx.sys, por, true, |step, next| {
                if hit {
                    return;
                }
                touched_components(step, touched);
                // An overflow surfaces in the main pass.
                if codec
                    .try_encode_patch_into(parent, next, touched, probe)
                    .is_ok()
                {
                    let si = shard_index(codec, next);
                    hit = shards[si]
                        .find(probe.words(), word_hash(probe.words()))
                        .is_some_and(|idx| idx < entry[si]);
                }
            });
            reduced = !hit;
        }
        let (mut ordinal, mut live, mut widen) = (0u32, true, None);
        let enc = &mut self.enc;
        let any = self.ex.fire(cx.sys, por, reduced, |step, next| {
            let succ = ordinal;
            ordinal += 1;
            if !live {
                return;
            }
            touched_components(step, touched);
            if let Err(r) = codec.try_encode_patch_into(parent, next, touched, enc) {
                widen = Some(r);
                live = false;
                return;
            }
            let node = Node {
                src: sref,
                succ,
                reduced,
            };
            let shard = shard_index(codec, next);
            let hash = word_hash(enc.words());
            live = visit(
                store,
                Succ {
                    step,
                    next,
                    packed: enc,
                    shard,
                    hash,
                    node,
                },
            );
        });
        widen.map_or(Ok(any), Err)
    }
}

/// What the engine is looking for.
#[derive(Clone, Copy)]
enum Mode<'a> {
    /// Count states/transitions and collect all deadlock states.
    Explore,
    /// Stop at the first deadlock with a witness trace.
    Deadlock,
    /// Stop at the first state violating the predicate, with a trace.
    Invariant(&'a StatePred),
}

impl Mode<'_> {
    /// Whether trace nodes must be recorded for witnesses.
    fn tracing(&self) -> bool {
        !matches!(self, Mode::Explore)
    }

    fn tag(&self) -> SearchMode {
        match self {
            Mode::Explore => SearchMode::Explore,
            Mode::Deadlock => SearchMode::Deadlock,
            Mode::Invariant(_) => SearchMode::Invariant,
        }
    }
}

/// Which entry point a [`ReachCheckpoint`] was captured by (the invariant
/// predicate itself is not stored; [`check_invariant_resume`] re-supplies
/// it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SearchMode {
    /// [`explore_with`].
    Explore,
    /// [`find_deadlock_with`].
    Deadlock,
    /// [`check_invariant_with`].
    Invariant,
}

impl std::fmt::Display for SearchMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            SearchMode::Explore => "explore",
            SearchMode::Deadlock => "find_deadlock",
            SearchMode::Invariant => "check_invariant",
        })
    }
}

/// Why a `*_resume` entry point refused a checkpoint. Nothing ran, but the
/// checkpoint was consumed: clone it first to retry under a matching
/// config.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResumeError {
    /// The checkpoint was captured by a different entry point.
    ModeMismatch {
        /// The entry point that captured the checkpoint.
        captured: SearchMode,
        /// The entry point asked to resume it.
        resumed: SearchMode,
    },
    /// The checkpoint was captured under a different
    /// [`ReachConfig::reduction`] mode than the resuming config requests.
    ReductionMismatch {
        /// The reduction mode of the captured run.
        captured: Reduction,
        /// The reduction mode of the resuming config.
        resumed: Reduction,
    },
}

impl std::fmt::Display for ResumeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ResumeError::ModeMismatch { captured, resumed } => write!(
                f,
                "checkpoint was captured by `{captured}`, resumed as `{resumed}`"
            ),
            ResumeError::ReductionMismatch { captured, resumed } => write!(
                f,
                "checkpoint was captured under reduction mode {captured:?}, resumed under {resumed:?}"
            ),
        }
    }
}

impl std::error::Error for ResumeError {}

/// A paused reachability run, captured at a completed BFS level boundary.
///
/// The level-synchronous engine only mutates its sharded seen set while a
/// level is in flight, so a level boundary is a consistent cut: the
/// checkpoint is the sharded arenas and tables verbatim, the pending
/// frontier, the run counters, and a self-contained [`CodecSnapshot`] of
/// the packing schedule (including the interned overflow values, replayed
/// index-exact on restore). Resuming — with the matching `*_resume` entry
/// point — continues from exactly that cut and converges to a final report
/// **bit-identical** to an uninterrupted run's, for every thread count and
/// codec mode, because frontier order, shard assignment, and the widen
/// ladder are all deterministic from the captured state onward.
///
/// A checkpoint is only captured for *interrupted* stops
/// ([`StopReason::is_interrupted`]); completed or bound-exhausted runs have
/// nothing to resume.
#[derive(Clone)]
pub struct ReachCheckpoint {
    codec: CodecSnapshot,
    shards: Vec<Shard>,
    frontier: Vec<u64>,
    stored: usize,
    transitions: usize,
    complete: bool,
    deadlocks: Vec<State>,
    mode: SearchMode,
    reduction: Reduction,
    elapsed: Duration,
    peak_bytes: usize,
}

impl ReachCheckpoint {
    /// Number of distinct states stored at the capture point.
    #[must_use]
    pub fn states(&self) -> usize {
        self.stored
    }

    /// Number of frontier states awaiting expansion.
    #[must_use]
    pub fn frontier_len(&self) -> usize {
        self.frontier.len()
    }
}

impl std::fmt::Debug for ReachCheckpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReachCheckpoint")
            .field("mode", &self.mode)
            .field("states", &self.stored)
            .field("transitions", &self.transitions)
            .field("frontier", &self.frontier.len())
            .field("elapsed", &self.elapsed)
            .finish_non_exhaustive()
    }
}

/// How a stored state was discovered, stored at the state's own arena index
/// (so a state reference is also its node reference). The step itself is
/// not kept: [`rebuild_trace`] recovers it by re-expanding `src`.
#[derive(Clone, Copy)]
struct Node {
    /// `shard << 48 | index` reference of the parent state (`NO_NODE` for
    /// the initial state).
    src: u64,
    /// This state's ordinal in the parent's successor stream, counting
    /// every successor the expansion produced (already-stored ones too).
    succ: u32,
    /// Whether the parent's expansion fired its ample subset (after the
    /// cycle proviso) rather than every enabled step.
    reduced: bool,
}

/// The initial state's trace node.
const ROOT: Node = Node {
    src: NO_NODE,
    succ: 0,
    reduced: false,
};

/// One `seen` partition: an open-addressing table over a bump arena.
///
/// `arena` holds `stride` packed words per stored state, appended in
/// insertion order — the state's index in that order is its identity, and
/// `arena[idx * stride ..]` *is* the stored state (no box, no clone).
/// `slots` is a power-of-two linear-probing table whose entries pack a
/// 32-bit hash fingerprint over a 32-bit state index; a probe touches the
/// arena only on fingerprint match. `nodes` is the trace arena: in the
/// witness-tracing modes `nodes[idx]` is state `idx`'s [`Node`]; in explore
/// mode it stays empty.
#[derive(Clone)]
struct Shard {
    slots: Vec<u64>,
    len: usize,
    stride: usize,
    arena: Vec<u64>,
    nodes: Vec<Node>,
}

impl Shard {
    fn new(stride: usize) -> Shard {
        Shard {
            slots: vec![EMPTY_SLOT; 64],
            len: 0,
            stride,
            arena: Vec::new(),
            nodes: Vec::new(),
        }
    }

    /// The packed words of the `idx`-th stored state.
    #[inline]
    fn state_words(&self, idx: usize) -> &[u64] {
        &self.arena[idx * self.stride..idx * self.stride + self.stride]
    }

    /// Membership probe returning the stored state's arena index (its
    /// insertion rank — the cycle proviso compares it against the
    /// level-entry snapshot). Shared-read safe: phase A probes while the
    /// shard is immutable.
    #[inline]
    fn find(&self, words: &[u64], hash: u64) -> Option<usize> {
        let mask = self.slots.len() - 1;
        let fp = (hash >> 32) as u32;
        let mut i = hash as usize & mask;
        loop {
            let s = self.slots[i];
            if s == EMPTY_SLOT {
                return None;
            }
            let idx = (s & 0xffff_ffff) as usize;
            if (s >> 32) as u32 == fp && self.state_words(idx) == words {
                return Some(idx);
            }
            i = (i + 1) & mask;
        }
    }

    /// Insert if absent, with its trace node in the tracing modes; returns
    /// the new state's index, or `None` when the state was already stored.
    /// The table only grows on an actual insert (never on a duplicate
    /// probe), so its capacity — and therefore
    /// [`ReachReport::stored_bytes`] — depends only on the stored set, not
    /// on which engine path filtered the duplicates.
    fn insert(&mut self, words: &[u64], hash: u64, node: Option<Node>) -> Option<usize> {
        let mask = self.slots.len() - 1;
        let fp = (hash >> 32) as u32;
        let mut i = hash as usize & mask;
        loop {
            let s = self.slots[i];
            if s == EMPTY_SLOT {
                break;
            }
            if (s >> 32) as u32 == fp && self.state_words((s & 0xffff_ffff) as usize) == words {
                return None;
            }
            i = (i + 1) & mask;
        }
        if (self.len + 1) * 4 > self.slots.len() * 3 {
            self.grow();
            let mask = self.slots.len() - 1;
            i = hash as usize & mask;
            while self.slots[i] != EMPTY_SLOT {
                i = (i + 1) & mask;
            }
        }
        let idx = self.len;
        // Slot entries pack the state index into the low 32 bits; beyond
        // that the fingerprint field would be corrupted silently.
        assert!(idx < u32::MAX as usize, "shard state index overflow");
        self.slots[i] = ((fp as u64) << 32) | idx as u64;
        self.arena.extend_from_slice(words);
        if let Some(node) = node {
            debug_assert_eq!(self.nodes.len(), idx, "node index = state index");
            self.nodes.push(node);
        }
        self.len += 1;
        Some(idx)
    }

    fn grow(&mut self) {
        let ncap = self.slots.len() * 2;
        let mut slots = vec![EMPTY_SLOT; ncap];
        let mask = ncap - 1;
        for idx in 0..self.len {
            let h = word_hash(self.state_words(idx));
            let mut i = h as usize & mask;
            while slots[i] != EMPTY_SLOT {
                i = (i + 1) & mask;
            }
            slots[i] = ((h >> 32) << 32) | idx as u64;
        }
        self.slots = slots;
    }

    /// Bytes this shard occupies: arena words, table slots and trace nodes
    /// (none in explore mode).
    fn bytes(&self) -> usize {
        self.arena.len() * 8 + self.slots.len() * 8 + self.nodes.len() * std::mem::size_of::<Node>()
    }
}

fn shard_bytes(shards: &[Shard]) -> usize {
    shards.iter().map(Shard::bytes).sum()
}

/// The packed words behind a `shard << 48 | index` state reference.
#[inline]
fn ref_words(shards: &[Shard], sref: u64) -> &[u64] {
    shards[(sref >> 48) as usize].state_words((sref & REF_MASK) as usize)
}

/// The steps from the initial state to the stored state `sref`.
///
/// Walks the trace nodes back to the root and, per hop, replays the
/// parent's expansion exactly as the engine ran it — the planned ample
/// subset or the full successor set, as the node records — taking the
/// `succ`-th successor. Enumeration order and the ample selector are pure
/// functions of the (decoded, codec-independent) state, so the rebuilt step
/// is the one the engine fired, whatever the thread count, codec, widen
/// history or checkpoint resumes in between.
fn rebuild_trace(cx: &Ctx<'_>, codec: &StateCodec, shards: &[Shard], mut sref: u64) -> Vec<Step> {
    let por = cx.por.as_ref();
    let mut ex = Expander::new(cx.sys, por.is_some());
    let mut trace = Vec::new();
    loop {
        let node = shards[(sref >> 48) as usize].nodes[(sref & REF_MASK) as usize];
        if node.src == NO_NODE {
            break;
        }
        let mut step = None;
        let mut ordinal = 0u32;
        ex.plan(cx.sys, codec, ref_words(shards, node.src), por);
        ex.fire(cx.sys, por, node.reduced, |s, _| {
            if ordinal == node.succ {
                step = Some(s.to_step(cx.sys));
            }
            ordinal += 1;
        });
        trace.push(step.expect("a recorded ordinal lies in its parent's successor stream"));
        sref = node.src;
    }
    trace.reverse();
    trace
}

/// Widen `codec` for `req` and migrate every stored state (the per-shard
/// state-count prefixes in `keep`) and its trace node to the new layout.
///
/// Shard assignment is canonical (content-hashed), so each state stays in
/// its shard and keeps its arena index — every outstanding
/// `shard << 48 | index` reference in frontiers and trace nodes survives
/// the migration untouched. Migration itself can discover that the ladder
/// must climb further (an interned prefix larger than the new index field),
/// in which case it widens again and restarts from the old shards, which it
/// never mutates.
fn widen_and_migrate(
    sys: &System,
    codec: &mut StateCodec,
    shards: &mut Vec<Shard>,
    keep: &[usize],
    req: WidenReq,
) {
    let mut next = codec.widen(sys, req);
    'retry: loop {
        let stride = next.words();
        let mut st = sys.initial_state();
        let mut enc = next.new_packed();
        let mut out: Vec<Shard> = Vec::with_capacity(shards.len());
        for (sh, &kstates) in shards.iter().zip(keep) {
            let mut ns = Shard::new(stride);
            // Explore mode keeps no nodes; the tracing modes one per state.
            ns.nodes
                .extend_from_slice(&sh.nodes[..kstates.min(sh.nodes.len())]);
            for idx in 0..kstates {
                codec.decode_words_into(sh.state_words(idx), &mut st);
                match next.try_encode_into(&st, &mut enc) {
                    Ok(()) => {}
                    Err(r) => {
                        next = next.widen(sys, r);
                        continue 'retry;
                    }
                }
                let inserted = ns.insert(enc.words(), word_hash(enc.words()), None);
                debug_assert_eq!(inserted, Some(idx), "migration must preserve indices");
            }
            out.push(ns);
        }
        *shards = out;
        *codec = next;
        return;
    }
}

/// The sharded seen set and the run counters that admission updates.
struct Seen {
    shards: Vec<Shard>,
    /// Next-frontier references per shard, filled while a level runs and
    /// drained shard-major into the next frontier.
    buckets: Vec<Vec<u64>>,
    stored: usize,
    transitions: usize,
    complete: bool,
    /// Explore mode: deadlock states in BFS order.
    deadlocks: Vec<State>,
    max_states: usize,
    tracing: bool,
}

impl AsRef<[Shard]> for Seen {
    fn as_ref(&self) -> &[Shard] {
        &self.shards
    }
}

/// A level's entry: what a widen rolls the level back to, and what a
/// deadlock found in the level reports.
struct Entry {
    stored: usize,
    transitions: usize,
    complete: bool,
    deadlocks: usize,
    /// Per-shard stored-state counts (bump arenas: this level's inserts
    /// occupy each arena's tail).
    lens: Vec<usize>,
}

impl Seen {
    fn entry(&self) -> Entry {
        Entry {
            stored: self.stored,
            transitions: self.transitions,
            complete: self.complete,
            deadlocks: self.deadlocks.len(),
            lens: self.shards.iter().map(|s| s.len).collect(),
        }
    }

    /// Reset the counters and the next frontier to `entry` (the caller
    /// migrates or abandons the shards).
    fn rollback(&mut self, entry: &Entry) {
        self.stored = entry.stored;
        self.transitions = entry.transitions;
        self.complete = entry.complete;
        self.deadlocks.truncate(entry.deadlocks);
        self.buckets.iter_mut().for_each(Vec::clear);
    }

    /// Admit one edge, in stream order — the one admission routine of the
    /// fused level and the ordered merge. An already-stored target only
    /// counts the edge; past the bound a new target is dropped and the run
    /// marked incomplete; otherwise the target is stored with its trace
    /// node and, unless `violates()`, queued for the next level. Returns
    /// the reference of a stored violating target.
    fn admit(
        &mut self,
        si: usize,
        words: &[u64],
        hash: u64,
        node: Node,
        violates: impl FnOnce() -> bool,
    ) -> Option<u64> {
        let shard = &mut self.shards[si];
        let idx = if self.stored < self.max_states {
            shard.insert(words, hash, self.tracing.then_some(node))
        } else if shard.find(words, hash).is_some() {
            None
        } else {
            self.complete = false;
            return None;
        };
        self.transitions += 1;
        let sref = node_ref(si, idx?);
        self.stored += 1;
        if violates() {
            return Some(sref);
        }
        self.buckets[si].push(sref);
        None
    }

    /// A frontier state `sref` without successors: listed in explore mode;
    /// in deadlock mode it ends the search, reporting the level's entry
    /// (the parallel level finds it before merging anything).
    fn deadlock(
        &mut self,
        mode: Mode<'_>,
        codec: &StateCodec,
        sref: u64,
        entry: &Entry,
    ) -> Option<End> {
        match mode {
            Mode::Explore => {
                let st = codec.decode_words(ref_words(&self.shards, sref));
                self.deadlocks.push(st);
                None
            }
            Mode::Deadlock => {
                self.rollback(entry);
                Some(End::Deadlock(sref))
            }
            Mode::Invariant(_) => None,
        }
    }
}

/// Why a search ended.
enum End {
    /// The frontier ran dry (`complete` tells whether the bound cut it).
    Drained,
    /// A budget or the cancel token tripped at a level boundary.
    Interrupted(StopReason),
    /// The stored frontier state is a deadlock.
    Deadlock(u64),
    /// The stored state violates the invariant.
    Violation(u64),
}

/// A level either completes (`Ok(None)`: its inserts wait in the buckets),
/// ends the search, or asks for a wider codec before it can be replayed.
type Level = Result<Option<End>, WidenReq>;

/// A witness state with a shortest trace from the initial state.
type Witness = (State, Vec<Step>);

/// `run`'s edge visitor: `(source, step, target)` state references.
type EdgeVisitor<'a> = &'a mut dyn FnMut(u64, SuccStep<'_>, Option<u64>);

/// A successor produced by phase A, waiting to be merged.
struct Candidate {
    packed: PackedState,
    /// Membership hash of `packed` (computed once at expansion).
    hash: u64,
    /// Owning shard (canonical hash, precomputed so merges don't rehash).
    shard: u32,
    /// The trace node the target gets if this candidate stores it.
    node: Node,
    /// Invariant mode: whether this successor violates the predicate.
    violates: bool,
}

/// Expansion output of one contiguous frontier chunk.
#[derive(Default)]
struct ChunkOut {
    /// Candidates whose target was *not* already stored at expansion time
    /// (already-seen targets are only counted — their edge verdict can
    /// never change, so they need no materialization).
    cands: Vec<Candidate>,
    /// Edges into states already stored when the chunk was expanded.
    dup_transitions: usize,
    /// Chunk states with no successors, in frontier order.
    deadlocks: Vec<u64>,
}

/// Phase A on one chunk of the frontier: expand each state, drop (but
/// count) successors already stored — phase A holds the seen sets
/// read-only, so the probe is safe and saves materializing the duplicate
/// majority — and keep the rest as candidates.
fn expand_chunk(
    cx: &Ctx<'_>,
    codec: &StateCodec,
    mut shards: &[Shard],
    entry: &[usize],
    refs: &[u64],
    w: &mut Worker,
) -> Result<ChunkOut, WidenReq> {
    let mut out = ChunkOut::default();
    for &sref in refs {
        let any = w.expand(cx, codec, &mut shards, entry, sref, |shards, s| {
            if shards[s.shard].find(s.packed.words(), s.hash).is_some() {
                out.dup_transitions += 1;
            } else {
                out.cands.push(Candidate {
                    packed: s.packed.clone(),
                    hash: s.hash,
                    shard: s.shard as u32,
                    node: s.node,
                    violates: cx.violates(s.next),
                });
            }
            true
        })?;
        if !any {
            out.deadlocks.push(sref);
        }
    }
    Ok(out)
}

/// The sequential scheduler: expansion and admission in one stream-order
/// pass. Semantically this *is* the parallel level's ordered merge (same
/// stream order, same bound and violation rules, same shard-major next
/// frontier), with no candidate materialized at all — a duplicate edge
/// costs one encode and one probe, zero allocations.
fn fused_level(
    cx: &Ctx<'_>,
    codec: &StateCodec,
    seen: &mut Seen,
    frontier: &[u64],
    entry: &Entry,
    w: &mut Worker,
) -> Level {
    for &sref in frontier {
        let mut violation = None;
        let any = w.expand(cx, codec, seen, &entry.lens, sref, |seen, s| {
            violation = seen.admit(s.shard, s.packed.words(), s.hash, s.node, || {
                cx.violates(s.next)
            });
            violation.is_none()
        })?;
        if let Some(v) = violation {
            return Ok(Some(End::Violation(v)));
        }
        if !any {
            if let Some(end) = seen.deadlock(cx.mode, codec, sref, entry) {
                return Ok(Some(end));
            }
        }
    }
    Ok(None)
}

/// The parallel scheduler. Phase A expands the frontier in chunks on every
/// worker against the read-only seen set; chunk geometry affects only load
/// balancing, since the candidate stream is read back in frontier order.
/// Phase B merges: shard-parallel when every candidate's target will be
/// stored (no bound crossing, no violation — then the merge is
/// order-independent across shards, and each shard receives its candidates
/// in stream order, so the arenas and frontier match the fused level's),
/// otherwise through the ordered admission of the fused level.
fn parallel_level(
    cx: &Ctx<'_>,
    codec: &StateCodec,
    seen: &mut Seen,
    frontier: &[u64],
    entry: &Entry,
    workers: &mut [Worker],
) -> Level {
    let threads = workers.len();
    let chunk = frontier.len().div_ceil(threads * 4).max(16);
    let nchunks = frontier.len().div_ceil(chunk);
    let next = &AtomicUsize::new(0);
    let shards = &seen.shards[..];
    let mut outs: Vec<(usize, ChunkOut)> = Vec::with_capacity(nchunks);
    let mut widen = None;
    std::thread::scope(|s| {
        let handles: Vec<_> = workers
            .iter_mut()
            .map(|w| {
                s.spawn(move || {
                    let mut local = Vec::new();
                    loop {
                        let c = next.fetch_add(1, Ordering::Relaxed);
                        if c >= nchunks {
                            break Ok(local);
                        }
                        let refs = &frontier[c * chunk..((c + 1) * chunk).min(frontier.len())];
                        match expand_chunk(cx, codec, shards, &entry.lens, refs, w) {
                            Ok(out) => local.push((c, out)),
                            Err(r) => break Err(r),
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            match h.join().expect("expansion worker panicked") {
                Ok(local) => outs.extend(local),
                Err(r) => widen = Some(r),
            }
        }
    });
    if let Some(r) = widen {
        return Err(r);
    }
    outs.sort_unstable_by_key(|(c, _)| *c);
    for &sref in outs.iter().flat_map(|(_, o)| &o.deadlocks) {
        if let Some(end) = seen.deadlock(cx.mode, codec, sref, entry) {
            return Ok(Some(end));
        }
    }

    // Edges into already-stored targets were fully resolved in phase A.
    seen.transitions += outs.iter().map(|(_, o)| o.dup_transitions).sum::<usize>();
    let total: usize = outs.iter().map(|(_, o)| o.cands.len()).sum();
    let violating = outs.iter().any(|(_, o)| o.cands.iter().any(|c| c.violates));
    if seen.stored + total > seen.max_states || violating {
        for c in outs.into_iter().flat_map(|(_, o)| o.cands) {
            let v = seen.admit(c.shard as usize, c.packed.words(), c.hash, c.node, || {
                c.violates
            });
            if let Some(v) = v {
                return Ok(Some(End::Violation(v)));
            }
        }
        return Ok(None);
    }
    seen.transitions += total;
    let mut per_shard: Vec<Vec<Candidate>> = (0..SHARDS).map(|_| Vec::new()).collect();
    for c in outs.into_iter().flat_map(|(_, o)| o.cands) {
        per_shard[c.shard as usize].push(c);
    }
    let tracing = seen.tracing;
    // Whole shards go to the workers in contiguous batches; each batch owns
    // its shards and buckets, so no locking is needed.
    let mut work: Vec<_> = (seen.shards.iter_mut().zip(&mut seen.buckets))
        .zip(per_shard)
        .enumerate()
        .collect();
    let per = work.len().div_ceil(threads);
    std::thread::scope(|s| {
        while !work.is_empty() {
            let batch: Vec<_> = work.drain(..per.min(work.len())).collect();
            s.spawn(move || {
                for (si, ((shard, bucket), cands)) in batch {
                    for c in cands {
                        let node = tracing.then_some(c.node);
                        if let Some(idx) = shard.insert(c.packed.words(), c.hash, node) {
                            bucket.push(node_ref(si, idx));
                        }
                    }
                }
            });
        }
    });
    seen.stored += seen.buckets.iter().map(Vec::len).sum::<usize>();
    Ok(None)
}

/// Resume `mode` from `ck` under `cfg`, after checking that the checkpoint
/// was captured by the same entry point and reduction mode.
fn resume_run(
    sys: &System,
    cfg: &ReachConfig,
    mode: Mode<'_>,
    ck: ReachCheckpoint,
) -> Result<(ReachReport, Option<Witness>), ResumeError> {
    if ck.mode != mode.tag() {
        return Err(ResumeError::ModeMismatch {
            captured: ck.mode,
            resumed: mode.tag(),
        });
    }
    if ck.reduction != cfg.reduction {
        return Err(ResumeError::ReductionMismatch {
            captured: ck.reduction,
            resumed: cfg.reduction,
        });
    }
    Ok(run(sys, cfg, mode, Some(ck), None))
}

/// The level-synchronous sharded BFS all public explorers run on. With
/// `resume`, the engine restarts from a captured level boundary instead of
/// the initial state (the checkpoint's codec overrides `cfg.codec`; its
/// mode and reduction were checked by [`resume_run`]). `edges` gets every
/// committed level's edges (see [`explore_edges`]). Every run ends in one
/// exit: the explore report, plus the witness of the searching modes.
fn run(
    sys: &System,
    cfg: &ReachConfig,
    mode: Mode<'_>,
    resume: Option<ReachCheckpoint>,
    mut edges: Option<EdgeVisitor<'_>>,
) -> (ReachReport, Option<Witness>) {
    let start = Instant::now();
    // Partial-order reduction context. Deadlock search and plain
    // exploration are deadlock-preserving under any persistent selection;
    // invariant checking additionally carries the predicate's
    // visible-action row, which both vetoes reduced sets that could hide a
    // violation and switches on the cycle proviso. An oversized action
    // table (no dependency matrix) means the selector always declines, so
    // the whole POR dispatch is skipped rather than paid per state.
    let por = match (cfg.reduction, mode) {
        (Reduction::None, _) => None,
        (Reduction::Persistent, _) if sys.indep().is_oversized() => None,
        (Reduction::Persistent, Mode::Invariant(inv)) => Some(PorCtx {
            indep: sys.indep(),
            visible: Some(sys.indep().visible_actions(sys, inv)),
        }),
        (Reduction::Persistent, _) => Some(PorCtx {
            indep: sys.indep(),
            visible: None,
        }),
    };
    let cx = Ctx { sys, mode, por };
    let mut seen = Seen {
        shards: Vec::new(),
        buckets: (0..SHARDS).map(|_| Vec::new()).collect(),
        stored: 1,
        transitions: 0,
        complete: true,
        deadlocks: Vec::new(),
        max_states: cfg.max_states,
        tracing: mode.tracing(),
    };
    let (mut codec, mut frontier, base_elapsed, mut peak_bytes);
    let mut root_violation = None;
    if let Some(ck) = resume {
        // Continue from a captured level boundary: the sharded seen set,
        // trace nodes, frontier, and counters verbatim; the restored codec
        // decodes the arenas bit-identically (see `StateCodec::restore`).
        debug_assert!(ck.mode == mode.tag() && ck.reduction == cfg.reduction);
        codec = StateCodec::restore(sys, &ck.codec);
        seen.shards = ck.shards;
        seen.stored = ck.stored;
        seen.transitions = ck.transitions;
        seen.complete = ck.complete;
        seen.deadlocks = ck.deadlocks;
        (frontier, base_elapsed, peak_bytes) = (ck.frontier, ck.elapsed, ck.peak_bytes);
    } else {
        codec = match &cfg.codec {
            CodecMode::Adaptive => StateCodec::adaptive(sys),
            CodecMode::FullWidth => StateCodec::new(sys),
            CodecMode::Custom(c) => c.clone(),
        };
        // Encode the initial state, climbing the widening ladder until it
        // fits.
        let init = sys.initial_state();
        let pinit = loop {
            match codec.try_encode(&init) {
                Ok(p) => break p,
                Err(r) => codec = codec.widen(sys, r),
            }
        };
        seen.shards = (0..SHARDS).map(|_| Shard::new(codec.words())).collect();
        let si = shard_index(&codec, &init);
        let node = seen.tracing.then_some(ROOT);
        let idx = seen.shards[si].insert(pinit.words(), word_hash(pinit.words()), node);
        let root = node_ref(si, idx.expect("fresh table"));
        // The initial state is checked (and stored) unconditionally,
        // matching the classical sequential semantics even for degenerate
        // bounds.
        if cx.violates(&init) {
            root_violation = Some(End::Violation(root));
        }
        (frontier, base_elapsed, peak_bytes) = (vec![root], Duration::ZERO, 0);
    }
    let mut workers: Vec<Worker> = (0..cfg.threads.max(1))
        .map(|_| Worker::new(sys, cx.por.is_some()))
        .collect();

    let end = match root_violation {
        Some(end) => end,
        None => loop {
            if frontier.is_empty() {
                break End::Drained;
            }
            // Budget/cancel check at the level boundary — the one point
            // where the sharded seen set, counters, and frontier are
            // mutually consistent, so the checkpoint captured here resumes
            // bit-identically (see `ReachCheckpoint`).
            let bytes = shard_bytes(&seen.shards);
            peak_bytes = peak_bytes.max(bytes);
            let trip = cfg
                .budget
                .interrupted(&cfg.cancel)
                .or_else(|| cfg.budget.exceeded(seen.stored, bytes));
            if let Some(stop) = trip {
                break End::Interrupted(stop);
            }
            let entry = seen.entry();
            // Small levels run on the calling thread whatever the
            // configured count — spawning would cost more than the work,
            // and results are thread-count-invariant either way.
            let level = if workers.len() == 1 || frontier.len() < cfg.min_parallel_level.max(1) {
                fused_level(&cx, &codec, &mut seen, &frontier, &entry, &mut workers[0])
            } else {
                parallel_level(&cx, &codec, &mut seen, &frontier, &entry, &mut workers)
            };
            match level {
                Ok(None) => {
                    // The level committed (a widen rolls back before this):
                    // replay its frontier against the read-only shards.
                    if let Some(visit) = edges.as_deref_mut() {
                        let mut shards = &seen.shards[..];
                        for &src in &frontier {
                            let w = &mut workers[0];
                            w.expand(&cx, &codec, &mut shards, &entry.lens, src, |shards, s| {
                                let dst = shards[s.shard].find(s.packed.words(), s.hash);
                                visit(src, s.step, dst.map(|idx| node_ref(s.shard, idx)));
                                true
                            })
                            .expect("a committed level encoded every successor");
                        }
                    }
                    frontier.clear();
                    for b in &mut seen.buckets {
                        frontier.append(b);
                    }
                }
                Ok(Some(end)) => break end,
                // Repack-on-widen: roll the level back to its entry,
                // migrate the kept prefix to the widened codec, and replay
                // the level. The replay is deterministic, so any witness
                // skipped by the abort is re-found in the same stream
                // position.
                Err(req) => {
                    widen_and_migrate(sys, &mut codec, &mut seen.shards, &entry.lens, req);
                    seen.rollback(&entry);
                }
            }
        },
    };

    // The one exit. A deadlock reports its level's entry, so its footprint
    // is the peak measured there; every other end reports the seen set as
    // it stands.
    let elapsed = base_elapsed + start.elapsed();
    let stored_bytes = shard_bytes(&seen.shards);
    if !matches!(end, End::Deadlock(_)) {
        peak_bytes = peak_bytes.max(stored_bytes);
    }
    let witness = match end {
        End::Deadlock(w) | End::Violation(w) => Some((
            codec.decode_words(ref_words(&seen.shards, w)),
            rebuild_trace(&cx, &codec, &seen.shards, w),
        )),
        End::Drained | End::Interrupted(_) => None,
    };
    let (stop, checkpoint) = match end {
        End::Interrupted(stop) => (
            stop,
            Some(ReachCheckpoint {
                codec: codec.snapshot(),
                shards: seen.shards,
                frontier,
                stored: seen.stored,
                transitions: seen.transitions,
                complete: seen.complete,
                deadlocks: seen.deadlocks.clone(),
                mode: mode.tag(),
                reduction: cfg.reduction,
                elapsed,
                peak_bytes,
            }),
        ),
        End::Drained if !seen.complete => (StopReason::BoundExhausted, None),
        _ => (StopReason::Completed, None),
    };
    let report = ReachReport {
        states: seen.stored,
        transitions: seen.transitions,
        deadlocks: seen.deadlocks,
        complete: seen.complete && checkpoint.is_none(),
        stored_bytes,
        stop,
        elapsed,
        peak_bytes,
        checkpoint,
    };
    (report, witness)
}

/// Exhaustively explore the reachable states of `sys`, up to `max_states`,
/// sequentially. See [`explore_with`] for the parallel form.
pub fn explore(sys: &System, max_states: usize) -> ReachReport {
    explore_with(sys, &ReachConfig::bounded(max_states))
}

/// Explore the reachable states of `sys` under `cfg`.
///
/// Returns state/transition counts and all deadlock states found. When
/// `max_states` is hit, `complete` is `false` and the deadlock list covers
/// only the visited region. The report is identical for every
/// `cfg.threads` value and every `cfg.codec` choice.
pub fn explore_with(sys: &System, cfg: &ReachConfig) -> ReachReport {
    run(sys, cfg, Mode::Explore, None, None).0
}

/// [`explore_with`], handing every explored edge to `visit` as `(source,
/// step, target)`: states numbered densely in order of first appearance
/// (the initial state `0`), `target` `None` when the bound kept it out.
/// An interrupted run shows no edge out of its checkpoint frontier. The
/// stream is identical for every thread count and codec.
pub fn explore_edges(
    sys: &System,
    cfg: &ReachConfig,
    mut visit: impl FnMut(usize, SuccStep<'_>, Option<usize>),
) -> ReachReport {
    let mut ids: FxHashMap<u64, usize> = FxHashMap::default();
    let mut id = |sref: u64| {
        let fresh = ids.len();
        *ids.entry(sref).or_insert(fresh)
    };
    let mut edge =
        |src, step: SuccStep<'_>, dst: Option<u64>| visit(id(src), step, dst.map(&mut id));
    run(sys, cfg, Mode::Explore, None, Some(&mut edge)).0
}

/// Resume an interrupted [`explore_with`] run from its checkpoint.
///
/// `cfg` supplies the *resources* for the continuation — threads, budget,
/// cancel token, `max_states` bound — while the checkpoint supplies the
/// search state (including the codec: `cfg.codec` is ignored). Running to
/// completion yields a report bit-identical to an uninterrupted run with
/// the same bound.
///
/// # Errors
///
/// [`ResumeError::ModeMismatch`] if the checkpoint was captured by a
/// different entry point ([`check_invariant_with`] /
/// [`find_deadlock_with`]); [`ResumeError::ReductionMismatch`] if it was
/// captured under a different [`ReachConfig::reduction`] mode than `cfg`
/// requests.
pub fn explore_resume(
    sys: &System,
    cfg: &ReachConfig,
    ckpt: ReachCheckpoint,
) -> Result<ReachReport, ResumeError> {
    resume_run(sys, cfg, Mode::Explore, ckpt).map(|(r, _)| r)
}

/// Check a state invariant on all reachable states, sequentially; on
/// violation, return the offending state and the step trace leading to it.
/// See [`check_invariant_with`] for the parallel form.
pub fn check_invariant(sys: &System, inv: &StatePred, max_states: usize) -> InvariantReport {
    check_invariant_with(sys, inv, &ReachConfig::bounded(max_states))
}

/// Check a state invariant on all reachable states under `cfg`.
///
/// A returned violation is definitive (BFS order makes its trace shortest)
/// even if the bound was hit; `holds()` additionally requires the sweep to
/// have been complete.
pub fn check_invariant_with(sys: &System, inv: &StatePred, cfg: &ReachConfig) -> InvariantReport {
    invariant_report(run(sys, cfg, Mode::Invariant(inv), None, None))
}

/// Resume an interrupted [`check_invariant_with`] run from its checkpoint.
///
/// Same contract as [`explore_resume`]: `cfg` supplies resources, the
/// checkpoint supplies the search state, and running to completion yields
/// a report bit-identical to an uninterrupted run. `inv` must be the same
/// predicate the original run checked (states stored before the
/// interruption were already checked and are not re-examined).
///
/// # Errors
///
/// A [`ResumeError`] if the checkpoint came from a different entry point
/// or a different [`ReachConfig::reduction`] mode.
pub fn check_invariant_resume(
    sys: &System,
    inv: &StatePred,
    cfg: &ReachConfig,
    ckpt: ReachCheckpoint,
) -> Result<InvariantReport, ResumeError> {
    resume_run(sys, cfg, Mode::Invariant(inv), ckpt).map(invariant_report)
}

fn invariant_report((r, violation): (ReachReport, Option<Witness>)) -> InvariantReport {
    InvariantReport {
        states: r.states,
        violation,
        complete: r.complete,
        stop: r.stop,
        elapsed: r.elapsed,
        peak_bytes: r.peak_bytes,
        checkpoint: r.checkpoint,
    }
}

/// Find a deadlock state (if any) with a shortest witness trace,
/// sequentially. See [`find_deadlock_with`] for the parallel form.
///
/// Unlike the historical `Option` return, the [`DeadlockReport`] keeps "no
/// deadlock found" distinguishable from "bound exhausted": check
/// [`DeadlockReport::deadlock_free`], not just the witness.
pub fn find_deadlock(sys: &System, max_states: usize) -> DeadlockReport {
    find_deadlock_with(sys, &ReachConfig::bounded(max_states))
}

/// Find a deadlock state (if any) with a shortest witness trace, under
/// `cfg`.
pub fn find_deadlock_with(sys: &System, cfg: &ReachConfig) -> DeadlockReport {
    deadlock_report(run(sys, cfg, Mode::Deadlock, None, None))
}

/// Resume an interrupted [`find_deadlock_with`] run from its checkpoint.
///
/// Same contract as [`explore_resume`].
///
/// # Errors
///
/// A [`ResumeError`] if the checkpoint came from a different entry point
/// or a different [`ReachConfig::reduction`] mode.
pub fn find_deadlock_resume(
    sys: &System,
    cfg: &ReachConfig,
    ckpt: ReachCheckpoint,
) -> Result<DeadlockReport, ResumeError> {
    resume_run(sys, cfg, Mode::Deadlock, ckpt).map(deadlock_report)
}

fn deadlock_report((r, witness): (ReachReport, Option<Witness>)) -> DeadlockReport {
    DeadlockReport {
        states: r.states,
        witness,
        complete: r.complete,
        stop: r.stop,
        elapsed: r.elapsed,
        peak_bytes: r.peak_bytes,
        checkpoint: r.checkpoint,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bip_core::builder::dining_philosophers;
    use bip_core::{AtomBuilder, ConnectorBuilder, Expr, GExpr, SystemBuilder};

    #[test]
    fn philosophers_conservative_deadlock_free() {
        let sys = dining_philosophers(3, false).unwrap();
        let r = explore(&sys, 100_000);
        assert!(r.complete);
        assert!(r.deadlock_free(), "one-shot fork grab cannot deadlock");
        assert!(r.states > 1);
        assert!(r.stored_bytes > 0, "footprint metric is populated");
    }

    #[test]
    fn philosophers_two_phase_deadlocks() {
        let sys = dining_philosophers(3, true).unwrap();
        let r = explore(&sys, 100_000);
        assert!(r.complete);
        assert!(
            !r.deadlocks.is_empty(),
            "all pick left fork -> circular wait"
        );
        let d = find_deadlock(&sys, 100_000);
        let (dead, trace) = d.witness.unwrap();
        // In the deadlock state every philosopher holds its left fork.
        for i in 0..3 {
            let ty = sys.atom_type(i);
            assert_eq!(ty.loc_name(bip_core::LocId(dead.locs[i])), "hasL");
        }
        assert_eq!(trace.len(), 3, "shortest deadlock: three takeL steps");
    }

    #[test]
    fn state_count_grows_with_n() {
        let s3 = explore(&dining_philosophers(3, true).unwrap(), 1_000_000).states;
        let s5 = explore(&dining_philosophers(5, true).unwrap(), 1_000_000).states;
        assert!(s5 > 3 * s3, "state explosion: {s3} -> {s5}");
    }

    #[test]
    fn invariant_violation_with_trace() {
        // A counter that can reach 3; invariant says it stays below 3.
        let c = AtomBuilder::new("c")
            .port("tick")
            .var("n", 0)
            .location("l")
            .initial("l")
            .guarded_transition(
                "l",
                "tick",
                Expr::var(0).lt(Expr::int(5)),
                vec![("n", Expr::var(0).add(Expr::int(1)))],
                "l",
            )
            .build()
            .unwrap();
        let mut sb = SystemBuilder::new();
        let a = sb.add_instance("a", &c);
        sb.add_connector(ConnectorBuilder::singleton("t", a, "tick"));
        let sys = sb.build().unwrap();
        let inv = StatePred::Le(GExpr::var(0, 0), GExpr::int(2));
        let r = check_invariant(&sys, &inv, 1000);
        assert!(!r.holds());
        let (bad, trace) = r.violation.expect("must violate");
        assert_eq!(sys.var_value(&bad, 0, 0), 3);
        assert_eq!(trace.len(), 3, "BFS gives the shortest violation");
        assert!(r.complete, "no state was discarded before the violation");
    }

    #[test]
    fn invariant_holds_when_bounded() {
        let sys = dining_philosophers(2, false).unwrap();
        // Mutual exclusion: neighbors cannot eat simultaneously.
        let inv = StatePred::mutex(&sys, [(0, "eating"), (1, "eating")]);
        let r = check_invariant(&sys, &inv, 100_000);
        assert!(r.holds(), "adjacent philosophers share a fork");
    }

    #[test]
    fn bounded_exploration_reports_incomplete() {
        let sys = dining_philosophers(4, true).unwrap();
        let r = explore(&sys, 5);
        assert!(!r.complete);
        assert!(r.states <= 5, "bound caps the stored set");
    }

    #[test]
    fn initial_violation_detected() {
        let sys = dining_philosophers(2, false).unwrap();
        let inv = bip_core::StatePred::at(&sys, 0, "eating"); // false initially
        let r = check_invariant(&sys, &inv, 100);
        let (_, trace) = r.violation.unwrap();
        assert!(trace.is_empty());
    }

    /// A deterministic chain `n = 0,1,...,5` (6 states, 5 edges, deadlock
    /// at the end) for precise bounded-semantics assertions.
    fn chain6() -> System {
        let c = AtomBuilder::new("c")
            .port("tick")
            .var("n", 0)
            .location("l")
            .initial("l")
            .guarded_transition(
                "l",
                "tick",
                Expr::var(0).lt(Expr::int(5)),
                vec![("n", Expr::var(0).add(Expr::int(1)))],
                "l",
            )
            .build()
            .unwrap();
        let mut sb = SystemBuilder::new();
        let a = sb.add_instance("a", &c);
        sb.add_connector(ConnectorBuilder::singleton("t", a, "tick"));
        sb.build().unwrap()
    }

    #[test]
    fn transitions_count_only_explored_edges() {
        let sys = chain6();
        let full = explore(&sys, 1000);
        assert!(full.complete);
        assert_eq!(full.states, 6);
        assert_eq!(full.transitions, 5);
        assert_eq!(full.deadlocks.len(), 1, "n == 5 has no successor");
        // Bounded at 3 states: {0,1,2} stored, edges 0→1 and 1→2 inside the
        // region; the pruned edge 2→3 must NOT be counted.
        let bounded = explore(&sys, 3);
        assert!(!bounded.complete);
        assert_eq!(bounded.states, 3);
        assert_eq!(bounded.transitions, 2);
        assert!(
            bounded.deadlocks.is_empty(),
            "the cut-off state is not a deadlock"
        );
    }

    #[test]
    fn find_deadlock_reports_bound_exhaustion() {
        let sys = chain6();
        let complete = find_deadlock(&sys, 1000);
        assert!(complete.found());
        assert!(!complete.deadlock_free());
        // Bounded: the deadlock at n == 5 is beyond 3 stored states. The
        // old API returned a bare `None` here — indistinguishable from
        // deadlock freedom.
        let bounded = find_deadlock(&sys, 3);
        assert!(bounded.witness.is_none());
        assert!(!bounded.complete);
        assert!(
            !bounded.deadlock_free(),
            "bound exhaustion must not read as deadlock freedom"
        );
    }

    #[test]
    fn check_invariant_reports_bound_exhaustion() {
        let sys = chain6();
        // Violated only at n == 5, which lies beyond a 3-state bound.
        let inv = StatePred::Le(GExpr::var(0, 0), GExpr::int(4));
        let bounded = check_invariant(&sys, &inv, 3);
        assert!(bounded.violation.is_none());
        assert!(!bounded.complete);
        assert!(
            !bounded.holds(),
            "bound exhaustion must not read as invariant holding"
        );
        let full = check_invariant(&sys, &inv, 1000);
        assert!(full.violation.is_some());
    }

    #[test]
    fn explore_bound_propagates_incomplete() {
        let sys = dining_philosophers(4, true).unwrap();
        let full = explore(&sys, 1_000_000);
        assert!(full.complete);
        for bound in [1, 2, full.states - 1] {
            let r = explore(&sys, bound);
            assert!(!r.complete, "bound {bound} must report incomplete");
            assert!(r.states <= bound.max(1));
        }
        let exact = explore(&sys, full.states);
        assert!(exact.complete, "bound == |reach| loses nothing");
        assert_eq!(exact.states, full.states);
        assert_eq!(exact.transitions, full.transitions);
    }

    fn assert_reports_match(a: &ReachReport, b: &ReachReport, ctx: &str) {
        assert_eq!(a.states, b.states, "{ctx}: states");
        assert_eq!(a.transitions, b.transitions, "{ctx}: transitions");
        assert_eq!(a.deadlocks, b.deadlocks, "{ctx}: deadlock order");
        assert_eq!(a.complete, b.complete, "{ctx}: complete");
    }

    #[test]
    fn parallel_reports_match_sequential() {
        for (n, two_phase) in [(3usize, true), (4, true), (3, false)] {
            let sys = dining_philosophers(n, two_phase).unwrap();
            let seq = explore_with(&sys, &ReachConfig::bounded(1_000_000));
            for threads in [2usize, 4, 8] {
                let par = explore_with(
                    &sys,
                    &ReachConfig::bounded(1_000_000)
                        .threads(threads)
                        .min_parallel_level(1),
                );
                assert_reports_match(&par, &seq, &format!("{n}/{two_phase}/{threads}"));
                assert_eq!(
                    par.stored_bytes, seq.stored_bytes,
                    "arena footprint is thread-count-invariant"
                );
            }
        }
    }

    #[test]
    fn parallel_bounded_reports_match_sequential() {
        let sys = dining_philosophers(4, true).unwrap();
        for bound in [1usize, 7, 50, 500] {
            let seq = explore_with(&sys, &ReachConfig::bounded(bound));
            let par = explore_with(
                &sys,
                &ReachConfig::bounded(bound).threads(4).min_parallel_level(1),
            );
            assert_reports_match(&par, &seq, &format!("bound {bound}"));
        }
    }

    #[test]
    fn parallel_witnesses_match_sequential() {
        let sys = dining_philosophers(4, true).unwrap();
        let seq = find_deadlock(&sys, 1_000_000);
        let par = find_deadlock_with(
            &sys,
            &ReachConfig::bounded(1_000_000)
                .threads(4)
                .min_parallel_level(1),
        );
        assert_eq!(seq.witness, par.witness, "same witness, same trace");
        assert_eq!(seq.states, par.states);
        let inv = StatePred::mutex(&sys, [(0, "eating"), (1, "eating")]);
        let si = check_invariant(&sys, &inv, 1_000_000);
        let pi = check_invariant_with(
            &sys,
            &inv,
            &ReachConfig::bounded(1_000_000)
                .threads(4)
                .min_parallel_level(1),
        );
        assert_eq!(si.violation, pi.violation);
        assert_eq!(si.states, pi.states);
        assert_eq!(si.complete, pi.complete);
    }

    #[test]
    fn codecs_agree_and_adaptive_is_smaller() {
        // Four bounded counters advancing in lockstep: the full-width codec
        // spends 4 × 64 bits (4 words) per state, the adaptive codec packs
        // all four in one word, and the reports coincide.
        let c = AtomBuilder::new("c")
            .port("tick")
            .var("n", 0)
            .location("l")
            .initial("l")
            .guarded_transition(
                "l",
                "tick",
                Expr::var(0).lt(Expr::int(5)),
                vec![("n", Expr::var(0).add(Expr::int(1)))],
                "l",
            )
            .build()
            .unwrap();
        let mut sb = SystemBuilder::new();
        for i in 0..4 {
            sb.add_instance(format!("a{i}"), &c);
        }
        sb.add_connector(ConnectorBuilder::rendezvous(
            "tick",
            (0..4).map(|i| (i, "tick")),
        ));
        let sys = sb.build().unwrap();
        let full = explore_with(&sys, &ReachConfig::bounded(1000).full_width_codec());
        let ad = explore_with(&sys, &ReachConfig::bounded(1000));
        assert_reports_match(&ad, &full, "adaptive vs full-width");
        assert!(
            ad.stored_bytes < full.stored_bytes,
            "adaptive {} must beat full-width {}",
            ad.stored_bytes,
            full.stored_bytes
        );
    }

    #[test]
    fn reduction_preserves_verdicts_and_shrinks() {
        for (n, two_phase) in [(5usize, true), (5, false), (8, true)] {
            let sys = dining_philosophers(n, two_phase).unwrap();
            let cfg = ReachConfig::bounded(1_000_000);
            let rcfg = cfg.clone().reduction(Reduction::Persistent);
            let full = explore_with(&sys, &cfg);
            let red = explore_with(&sys, &rcfg);
            assert!(full.complete && red.complete);
            assert!(
                red.states < full.states,
                "{n}/{two_phase}: reduction must shrink ({} vs {})",
                red.states,
                full.states
            );
            // Every deadlock is preserved (as a set; BFS order may differ).
            let a: std::collections::HashSet<&State> = red.deadlocks.iter().collect();
            let b: std::collections::HashSet<&State> = full.deadlocks.iter().collect();
            assert_eq!(a, b, "{n}/{two_phase}: deadlock sets");
            assert_eq!(red.deadlock_free(), full.deadlock_free());

            let df = find_deadlock_with(&sys, &cfg);
            let dr = find_deadlock_with(&sys, &rcfg);
            assert_eq!(df.found(), dr.found(), "{n}/{two_phase}");
            assert_eq!(df.deadlock_free(), dr.deadlock_free());
            if let Some((st, trace)) = &dr.witness {
                // A reduced witness is definitive: replay it.
                let mut cur = sys.initial_state();
                for step in trace {
                    match step {
                        Step::Interaction {
                            interaction,
                            transitions,
                        } => sys.fire_interaction(&mut cur, interaction, transitions),
                        Step::Internal {
                            component,
                            transition,
                        } => sys.fire_local(&mut cur, *component, *transition),
                    }
                }
                assert_eq!(&cur, st, "witness trace replays to the deadlock");
                assert!(sys.successors(st).is_empty(), "witness is a deadlock");
            }
        }
    }

    #[test]
    fn reduction_preserves_deadlocks_under_cross_component_transfer_reads() {
        // Regression: a partial broadcast `{t}` whose transfer reads the
        // *non-participating* receiver's variable. Component supports are
        // disjoint from the receiver's bump action, but the effects do not
        // commute (x := y before vs after the bump differ), so the
        // reduction must treat them as dependent — an earlier dependency
        // matrix that only intersected component supports dropped the
        // x = 0 deadlock here.
        let t = AtomBuilder::new("t")
            .var("x", 0)
            .port_exporting("snd", ["x"])
            .location("l")
            .location("m")
            .initial("l")
            .transition("l", "snd", "m")
            .build()
            .unwrap();
        let o = AtomBuilder::new("o")
            .var("y", 0)
            .port_exporting("rcv", ["y"])
            .port("bump")
            .location("l")
            .location("m")
            .initial("l")
            .transition("l", "rcv", "m")
            .guarded_transition(
                "l",
                "bump",
                Expr::var(0).lt(Expr::int(1)),
                vec![("y", Expr::var(0).add(Expr::int(1)))],
                "l",
            )
            .build()
            .unwrap();
        let mut sb = SystemBuilder::new();
        let ti = sb.add_instance("t", &t);
        let oi = sb.add_instance("o", &o);
        sb.add_connector(
            ConnectorBuilder::broadcast("bc", (ti, "snd"), [(oi, "rcv")]).transfer(
                0,
                0,
                Expr::param(1, 0),
            ),
        );
        sb.add_connector(ConnectorBuilder::singleton("bump", oi, "bump"));
        let sys = sb.build().unwrap();
        let full = explore(&sys, 1000);
        let red = explore_with(
            &sys,
            &ReachConfig::bounded(1000).reduction(Reduction::Persistent),
        );
        assert!(full.complete && red.complete);
        let a: std::collections::HashSet<&State> = full.deadlocks.iter().collect();
        let b: std::collections::HashSet<&State> = red.deadlocks.iter().collect();
        assert_eq!(a, b, "every x/y combination must survive the reduction");
    }

    #[test]
    fn reduction_is_thread_count_invariant() {
        for (n, two_phase) in [(6usize, true), (5, false)] {
            let sys = dining_philosophers(n, two_phase).unwrap();
            let seq = explore_with(
                &sys,
                &ReachConfig::bounded(1_000_000).reduction(Reduction::Persistent),
            );
            for threads in [2usize, 4, 8] {
                let par = explore_with(
                    &sys,
                    &ReachConfig::bounded(1_000_000)
                        .reduction(Reduction::Persistent)
                        .threads(threads)
                        .min_parallel_level(1),
                );
                assert_reports_match(&par, &seq, &format!("POR {n}/{two_phase}/{threads}"));
                assert_eq!(par.stored_bytes, seq.stored_bytes, "POR footprint");
            }
        }
    }

    #[test]
    fn reduction_preserves_invariant_verdicts() {
        // Mutual exclusion holds on the conservative variant; POR with the
        // visibility check and the cycle proviso must agree, including in
        // parallel.
        let sys = dining_philosophers(5, false).unwrap();
        let inv = StatePred::mutex(&sys, [(0, "eating"), (1, "eating")]);
        let full = check_invariant(&sys, &inv, 1_000_000);
        assert!(full.holds());
        for threads in [1usize, 4] {
            let red = check_invariant_with(
                &sys,
                &inv,
                &ReachConfig::bounded(1_000_000)
                    .reduction(Reduction::Persistent)
                    .threads(threads)
                    .min_parallel_level(1),
            );
            assert!(red.holds(), "threads {threads}: POR must preserve holds()");
        }
        // A violated invariant stays violated, and the reduced witness is
        // a genuine violation.
        let bad = StatePred::at(&sys, 0, "eating").not();
        for threads in [1usize, 4] {
            let red = check_invariant_with(
                &sys,
                &bad,
                &ReachConfig::bounded(1_000_000)
                    .reduction(Reduction::Persistent)
                    .threads(threads)
                    .min_parallel_level(1),
            );
            let (st, _) = red.violation.expect("phil0 does eventually eat");
            assert!(!bad.eval(&sys, &st), "witness genuinely violates");
        }
    }

    #[test]
    fn reduction_bounded_runs_stay_thread_invariant() {
        let sys = dining_philosophers(6, true).unwrap();
        for bound in [1usize, 13, 200] {
            let seq = explore_with(
                &sys,
                &ReachConfig::bounded(bound).reduction(Reduction::Persistent),
            );
            let par = explore_with(
                &sys,
                &ReachConfig::bounded(bound)
                    .reduction(Reduction::Persistent)
                    .threads(4)
                    .min_parallel_level(1),
            );
            assert_reports_match(&par, &seq, &format!("POR bound {bound}"));
        }
    }

    #[test]
    fn reduction_with_forced_widen_replays() {
        // The selector is keyed by the canonical state hash, so repacking
        // mid-search must not change the reduced report.
        let sys = chain6();
        let reference = explore_with(
            &sys,
            &ReachConfig::bounded(1000)
                .reduction(Reduction::Persistent)
                .full_width_codec(),
        );
        let narrowed = sys.adaptive_codec().with_narrowed_var(&sys, 0, 1);
        let r = explore_with(
            &sys,
            &ReachConfig::bounded(1000)
                .reduction(Reduction::Persistent)
                .with_codec(narrowed),
        );
        assert_reports_match(&r, &reference, "POR + forced widen");
    }

    #[test]
    fn min_parallel_level_zero_normalizes_to_one() {
        // Builder normalization: 0 and 1 are the same configuration.
        assert_eq!(
            ReachConfig::bounded(10)
                .min_parallel_level(0)
                .min_parallel_level,
            1
        );
        let sys = dining_philosophers(4, true).unwrap();
        let a = explore_with(
            &sys,
            &ReachConfig::bounded(100_000)
                .threads(4)
                .min_parallel_level(0),
        );
        let b = explore_with(
            &sys,
            &ReachConfig::bounded(100_000)
                .threads(4)
                .min_parallel_level(1),
        );
        assert_reports_match(&a, &b, "min_parallel_level 0 vs 1");
        assert_eq!(a.stored_bytes, b.stored_bytes);
        // Direct struct construction bypasses the builder; the dispatch
        // site's own clamp keeps 0 from underflowing the width test.
        let cfg = ReachConfig {
            min_parallel_level: 0,
            ..ReachConfig::bounded(100_000).threads(4)
        };
        let c = explore_with(&sys, &cfg);
        assert_reports_match(&c, &b, "raw min_parallel_level 0");
    }

    #[test]
    fn min_parallel_level_boundary_widths() {
        // The initial frontier has width 1 and the philosophers' second
        // level width 4: thresholds at, above, and below those widths pick
        // different dispatch paths, and every one of them must produce the
        // same report (that is what makes the threshold a pure performance
        // knob).
        let sys = dining_philosophers(4, true).unwrap();
        let reference = explore_with(&sys, &ReachConfig::bounded(100_000));
        for w in [1usize, 2, 4, 5, usize::MAX] {
            let r = explore_with(
                &sys,
                &ReachConfig::bounded(100_000)
                    .threads(4)
                    .min_parallel_level(w),
            );
            assert_reports_match(&r, &reference, &format!("threshold {w}"));
        }
    }

    #[test]
    fn forced_widen_replays_deterministically() {
        // Start from a deliberately wrong 1-bit width for the counter: the
        // engine must widen mid-search and still produce the reference
        // report, sequentially and in parallel.
        let sys = chain6();
        let reference = explore_with(&sys, &ReachConfig::bounded(1000).full_width_codec());
        for threads in [1usize, 4] {
            let narrowed = sys.adaptive_codec().with_narrowed_var(&sys, 0, 1);
            let r = explore_with(
                &sys,
                &ReachConfig::bounded(1000)
                    .threads(threads)
                    .min_parallel_level(1)
                    .with_codec(narrowed),
            );
            assert_reports_match(&r, &reference, &format!("forced widen, threads {threads}"));
        }
        // Witness searches survive the repack too (the violation lies past
        // the widen point).
        let inv = StatePred::Le(GExpr::var(0, 0), GExpr::int(4));
        let narrowed = sys.adaptive_codec().with_narrowed_var(&sys, 0, 1);
        let r = check_invariant_with(&sys, &inv, &ReachConfig::bounded(1000).with_codec(narrowed));
        let full = check_invariant(&sys, &inv, 1000);
        assert_eq!(r.violation, full.violation);
        assert_eq!(r.states, full.states);
    }

    /// Bit-identity including the budget-era fields (`elapsed` is timing,
    /// excluded by construction).
    fn assert_resumed_matches(a: &ReachReport, b: &ReachReport, ctx: &str) {
        assert_reports_match(a, b, ctx);
        assert_eq!(a.stored_bytes, b.stored_bytes, "{ctx}: stored_bytes");
        assert_eq!(a.peak_bytes, b.peak_bytes, "{ctx}: peak_bytes");
        assert_eq!(a.stop, b.stop, "{ctx}: stop");
        assert!(a.checkpoint.is_none() && b.checkpoint.is_none(), "{ctx}");
    }

    #[test]
    fn state_budget_stops_with_checkpoint_and_resume_is_bit_identical() {
        let sys = dining_philosophers(4, true).unwrap();
        let cfg = ReachConfig::bounded(1_000_000);
        let reference = explore_with(&sys, &cfg);
        assert_eq!(reference.stop, StopReason::Completed);
        assert!(reference.checkpoint.is_none());

        let cut = explore_with(&sys, &cfg.clone().budget(Budget::unlimited().states(10)));
        assert_eq!(cut.stop, StopReason::StateBudget);
        assert!(!cut.complete);
        assert!(cut.states >= 10, "trips at the first boundary at/past 10");
        assert!(cut.states < reference.states);
        let ck = cut.checkpoint.expect("interrupted runs carry a checkpoint");
        assert_eq!(ck.states(), cut.states);
        assert!(ck.frontier_len() > 0);

        let resumed = explore_resume(&sys, &cfg, ck).unwrap();
        assert_resumed_matches(&resumed, &reference, "resume to completion");
        assert!(
            resumed.elapsed >= cut.elapsed,
            "elapsed accumulates across the resume"
        );
    }

    #[test]
    fn memory_budget_stops_and_resumes() {
        let sys = dining_philosophers(4, true).unwrap();
        let cfg = ReachConfig::bounded(1_000_000);
        let reference = explore_with(&sys, &cfg);
        let cut = explore_with(&sys, &cfg.clone().budget(Budget::unlimited().bytes(1)));
        assert_eq!(cut.stop, StopReason::MemoryBudget);
        assert!(cut.peak_bytes > 1);
        let resumed = explore_resume(&sys, &cfg, cut.checkpoint.unwrap()).unwrap();
        assert_resumed_matches(&resumed, &reference, "resume after memory trip");
    }

    #[test]
    fn expired_deadline_stops_promptly() {
        let sys = dining_philosophers(4, true).unwrap();
        let cfg = ReachConfig::bounded(1_000_000)
            .budget(Budget::unlimited().deadline(Instant::now() - Duration::from_millis(1)));
        let r = explore_with(&sys, &cfg);
        assert_eq!(r.stop, StopReason::Deadline);
        assert_eq!(r.states, 1, "nothing past the initial state");
        assert!(r.checkpoint.is_some());
    }

    #[test]
    fn cancelled_token_stops_with_resumable_checkpoint() {
        let sys = dining_philosophers(4, true).unwrap();
        let reference = explore_with(&sys, &ReachConfig::bounded(1_000_000));
        let token = CancelToken::new();
        token.cancel();
        let r = explore_with(&sys, &ReachConfig::bounded(1_000_000).cancel(&token));
        assert_eq!(r.stop, StopReason::Cancelled);
        assert!(!r.complete);
        // Resume with a fresh (uncancelled) config.
        let resumed = explore_resume(
            &sys,
            &ReachConfig::bounded(1_000_000),
            r.checkpoint.unwrap(),
        )
        .unwrap();
        assert_resumed_matches(&resumed, &reference, "resume after cancel");
    }

    #[test]
    fn chained_resumes_cross_every_level_boundary() {
        // Stop at every level boundary in turn (each level stores >= 1 new
        // state, so `states + 1` trips exactly one boundary later), across
        // thread counts and both reduction modes.
        for (threads, reduction) in [
            (1usize, Reduction::None),
            (4, Reduction::None),
            (1, Reduction::Persistent),
            (4, Reduction::Persistent),
        ] {
            let sys = dining_philosophers(3, true).unwrap();
            let cfg = ReachConfig::bounded(1_000_000)
                .threads(threads)
                .min_parallel_level(1)
                .reduction(reduction);
            let reference = explore_with(&sys, &cfg);
            let mut r = explore_with(&sys, &cfg.clone().budget(Budget::unlimited().states(1)));
            let mut hops = 0usize;
            while let Some(ck) = r.checkpoint.take() {
                assert_eq!(r.stop, StopReason::StateBudget);
                let next_budget = Budget::unlimited().states(r.states + 1);
                r = explore_resume(&sys, &cfg.clone().budget(next_budget), ck).unwrap();
                hops += 1;
                assert!(hops < 10_000, "resume chain must terminate");
            }
            assert!(hops >= 2, "exercised several boundaries ({hops})");
            assert_resumed_matches(
                &r,
                &reference,
                &format!("chained resume t={threads} {reduction:?}"),
            );
        }
    }

    #[test]
    fn resume_works_for_invariant_and_deadlock_modes() {
        let sys = dining_philosophers(4, true).unwrap();
        let budget = Budget::unlimited().states(5);

        let dref = find_deadlock_with(&sys, &ReachConfig::bounded(1_000_000));
        let dcut = find_deadlock_with(&sys, &ReachConfig::bounded(1_000_000).budget(budget));
        assert_eq!(dcut.stop, StopReason::StateBudget);
        let dres = find_deadlock_resume(
            &sys,
            &ReachConfig::bounded(1_000_000),
            dcut.checkpoint.unwrap(),
        )
        .unwrap();
        assert_eq!(dres.witness, dref.witness, "same shortest witness");
        assert_eq!(dres.states, dref.states);
        assert_eq!(dres.stop, dref.stop);

        let inv = StatePred::mutex(&sys, [(0, "eating"), (1, "eating")]);
        let iref = check_invariant_with(&sys, &inv, &ReachConfig::bounded(1_000_000));
        let icut =
            check_invariant_with(&sys, &inv, &ReachConfig::bounded(1_000_000).budget(budget));
        assert_eq!(icut.stop, StopReason::StateBudget);
        let ires = check_invariant_resume(
            &sys,
            &inv,
            &ReachConfig::bounded(1_000_000),
            icut.checkpoint.unwrap(),
        )
        .unwrap();
        assert_eq!(ires.violation, iref.violation);
        assert_eq!(ires.states, iref.states);
        assert_eq!(ires.complete, iref.complete);
    }

    #[test]
    fn budget_stop_composes_with_engine_bound() {
        // Budget trip and the engine's own bound stay distinguishable.
        let sys = dining_philosophers(4, true).unwrap();
        let bound = explore(&sys, 5);
        assert_eq!(bound.stop, StopReason::BoundExhausted);
        assert!(
            bound.checkpoint.is_none(),
            "bound exhaustion is final, not resumable"
        );
        // A resumed run still honors the fresh config's engine bound.
        let cut = explore_with(
            &sys,
            &ReachConfig::bounded(1_000_000).budget(Budget::unlimited().states(3)),
        );
        let resumed =
            explore_resume(&sys, &ReachConfig::bounded(5), cut.checkpoint.unwrap()).unwrap();
        assert_eq!(resumed.stop, StopReason::BoundExhausted);
        assert!(!resumed.complete);
        assert!(resumed.states <= 5);
    }

    #[test]
    fn resume_mode_mismatch_panics() {
        // Historical name: the mismatch is now a typed error, not a panic.
        let sys = dining_philosophers(3, true).unwrap();
        let cut = explore_with(
            &sys,
            &ReachConfig::bounded(1_000_000).budget(Budget::unlimited().states(1)),
        );
        let err = find_deadlock_resume(
            &sys,
            &ReachConfig::bounded(1_000_000),
            cut.checkpoint.unwrap(),
        )
        .unwrap_err();
        assert_eq!(
            err,
            ResumeError::ModeMismatch {
                captured: SearchMode::Explore,
                resumed: SearchMode::Deadlock,
            }
        );
        assert_eq!(
            err.to_string(),
            "checkpoint was captured by `explore`, resumed as `find_deadlock`"
        );
    }

    #[test]
    fn resume_reduction_mismatch_panics() {
        // Historical name: the mismatch is now a typed error, not a panic.
        let sys = dining_philosophers(3, true).unwrap();
        let cut = explore_with(
            &sys,
            &ReachConfig::bounded(1_000_000).budget(Budget::unlimited().states(1)),
        );
        let err = explore_resume(
            &sys,
            &ReachConfig::bounded(1_000_000).reduction(Reduction::Persistent),
            cut.checkpoint.unwrap(),
        )
        .unwrap_err();
        assert_eq!(
            err,
            ResumeError::ReductionMismatch {
                captured: Reduction::None,
                resumed: Reduction::Persistent,
            }
        );
    }

    #[test]
    fn resume_survives_codec_widening_after_checkpoint() {
        // Checkpoint under a codec that must widen *after* the resume point:
        // the restored codec keeps widening mid-run and the report still
        // matches the uninterrupted reference.
        let sys = chain6();
        let reference = explore_with(&sys, &ReachConfig::bounded(1000));
        let narrowed = sys.adaptive_codec().with_narrowed_var(&sys, 0, 1);
        let cut = explore_with(
            &sys,
            &ReachConfig::bounded(1000)
                .with_codec(narrowed)
                .budget(Budget::unlimited().states(1)),
        );
        assert_eq!(cut.stop, StopReason::StateBudget);
        let resumed =
            explore_resume(&sys, &ReachConfig::bounded(1000), cut.checkpoint.unwrap()).unwrap();
        assert_reports_match(&resumed, &reference, "widen after resume");
    }

    #[test]
    fn trace_nodes_stay_small() {
        // One node per stored state: the parent reference, the ordinal and
        // the reduction flag — no step, no heap.
        assert!(std::mem::size_of::<Node>() <= 16);
    }

    #[test]
    fn byte_budget_counts_the_trace_arena() {
        let sys = dining_philosophers(6, true).unwrap();
        let inv = StatePred::mutex(&sys, [(0, "eating"), (1, "eating")]);
        let cfg = ReachConfig::bounded(1_000_000);
        // The invariant holds, so the invariant search stores exactly what
        // exploration stores — plus one trace node per state.
        let states = Budget::unlimited().states(40);
        let seen_only = explore_with(&sys, &cfg.clone().budget(states));
        let traced = check_invariant_with(&sys, &inv, &cfg.clone().budget(states));
        assert_eq!(traced.stop, StopReason::StateBudget);
        assert_eq!(traced.states, seen_only.states);
        assert_eq!(
            traced.peak_bytes,
            seen_only.peak_bytes + traced.states * std::mem::size_of::<Node>()
        );

        // A byte ceiling at the seen set's footprint of that cut: the
        // seen set alone only exceeds it a level later, the traced
        // footprint already does at that boundary.
        let bytes = Budget::unlimited().bytes(seen_only.peak_bytes);
        let e = explore_with(&sys, &cfg.clone().budget(bytes));
        assert!(e.states > seen_only.states);
        let cut = check_invariant_with(&sys, &inv, &cfg.clone().budget(bytes));
        assert_eq!(cut.stop, StopReason::MemoryBudget);
        assert!(cut.states <= traced.states);

        // Resuming the byte-cut run is invisible in the final report.
        let reference = check_invariant_with(&sys, &inv, &cfg);
        let resumed = check_invariant_resume(&sys, &inv, &cfg, cut.checkpoint.unwrap()).unwrap();
        assert!(resumed.holds() && reference.holds());
        assert_eq!(resumed.states, reference.states);
        assert_eq!(resumed.peak_bytes, reference.peak_bytes);
        assert_eq!(resumed.stop, reference.stop);
    }
}
