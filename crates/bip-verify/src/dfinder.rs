//! D-Finder-style compositional verification (§5.6).
//!
//! The method: compute increasingly strong invariants of the composite as
//! the conjunction of
//!
//! * **component invariants (CI)** — over-approximations of each atom's
//!   reachable control locations, obtained by local static analysis, and
//! * **interaction invariants (II)** — global constraints derived from
//!   *traps* of the finite place/interaction abstraction of the system (the
//!   way "glue operators restrict the product space of the composed atomic
//!   components"),
//!
//! then show that no state satisfying `CI ∧ II` can satisfy **DIS**, the
//! condition that every interaction is disabled. Unsatisfiability — decided
//! by the [`satkit`] CDCL solver — proves deadlock-freedom *without ever
//! enumerating the product state space*, which is why the method scales
//! where monolithic checking explodes (experiment E1).
//!
//! # Packed place sets and parallel trap enumeration
//!
//! Place sets — trap candidates, transition pre/post sets — are
//! [`bip_core::PlaceSet`] bitsets sized from the abstraction, so the hot
//! trap-condition check is a handful of word-wise `AND`s instead of hash
//! probes. Trap enumeration is **partitioned by minimum place**: every
//! initially-marked trap has a unique smallest place, so the subspace
//! "traps whose minimum is `p`" can be enumerated by an independent SAT
//! instance per seed place. One worker loop serves every
//! [`DFinderConfig::threads`] value (at one thread the caller runs it and
//! nothing is spawned): workers claim seeds in index order, each seed may
//! find as many traps as the cap leaves after the completed seed prefix,
//! and seeds still running once that prefix fills the cap are aborted as
//! past the merge horizon. The merge concatenates the seed outputs **in
//! seed order** up to the cap; the partition makes them distinct, so
//! nothing is deduplicated. A per-solve conflict cut counts only if it came
//! before its seed filled its room in the merge, which is when a one-thread
//! run makes the same solve. So the trap list — and therefore the whole
//! [`DFinderReport`], down to `sat_conflicts` and `stop` — is bit-identical
//! for every thread count.
//!
//! ```
//! use bip_core::dining_philosophers;
//! use bip_verify::dfinder::{DFinder, DFinderConfig};
//!
//! let sys = dining_philosophers(4, false).unwrap();
//! let seq = DFinder::with_config(&sys, &DFinderConfig::new()).check_deadlock_freedom();
//! let par = DFinder::with_config(&sys, &DFinderConfig::new().threads(4))
//!     .check_deadlock_freedom();
//! assert!(seq.verdict.is_deadlock_free());
//! assert_eq!(seq, par, "reports are thread-count invariant");
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use bip_core::FxHashSet;

use crate::control::{Budget, CancelToken, StopReason, Wall};
use bip_core::{PlaceSet, StatePred, System};
use satkit::{CnfBuilder, Lit, RestartPolicy};

/// A place of the abstraction: `(component, location)` as a dense index.
pub type Place = usize;

/// The place/interaction abstraction: a 1-safe Petri-net view of the system
/// where each interaction consumes the participants' source locations and
/// produces their target locations.
#[derive(Debug, Clone)]
pub struct Abstraction {
    /// First place index of each component.
    pub place_base: Vec<usize>,
    /// Total number of places.
    pub num_places: usize,
    /// Abstract transitions: (pre-set, post-set) of places.
    pub transitions: Vec<(Vec<Place>, Vec<Place>)>,
    /// Initially marked places (one per component).
    pub initial: Vec<Place>,
    /// Locally reachable places (component invariants).
    pub reachable: Vec<bool>,
    /// Per interaction (connector, feasible subset): for each participant,
    /// the places where its port is *definitely offered* (an unguarded
    /// transition labelled by the port leaves that location). Guarded
    /// connectors are flagged `maybe_disabled`.
    pub interactions: Vec<InteractionAbs>,
    /// `transitions` with pre/post packed as [`PlaceSet`] bitsets and exact
    /// duplicates removed — the representation every trap check runs on.
    packed: Vec<(PlaceSet, PlaceSet)>,
    /// Some connector's move combinations were cut at the transition cap.
    truncated: bool,
}

/// Abstract transitions [`Abstraction::new`] expands from connectors before
/// it stops (and marks the net [`Abstraction::truncated`]).
const MAX_ABSTRACT_TRANSITIONS: usize = 200_000;

/// Abstraction of one interaction for the DIS encoding.
#[derive(Debug, Clone)]
pub struct InteractionAbs {
    /// Human-readable name (connector name + subset).
    pub name: String,
    /// Per participant: the set of places where the port is definitely
    /// offered.
    pub offered_at: Vec<Vec<Place>>,
    /// `true` if a data guard may disable the interaction regardless of
    /// locations (makes its DIS conjunct trivially true — sound but weaker).
    pub maybe_disabled: bool,
}

impl Abstraction {
    /// Build the abstraction of a system. A connector whose local-move
    /// combinations would take the net past 200 000 transitions is cut
    /// there, and the net is marked [`Abstraction::truncated`].
    pub fn new(sys: &System) -> Abstraction {
        Self::with_cap(sys, MAX_ABSTRACT_TRANSITIONS)
    }

    /// [`Abstraction::new`] with the connector-transition cap as a
    /// parameter.
    fn with_cap(sys: &System, cap: usize) -> Abstraction {
        let n = sys.num_components();
        let mut place_base = Vec::with_capacity(n);
        let mut num_places = 0usize;
        for c in 0..n {
            place_base.push(num_places);
            num_places += sys.atom_type(c).locations().len();
        }
        let place = |c: usize, l: u32| place_base[c] + l as usize;

        // Component invariants: local location reachability, ignoring guards
        // and port availability (a sound over-approximation).
        let mut reachable = vec![false; num_places];
        for c in 0..n {
            let ty = sys.atom_type(c);
            let mut stack = vec![ty.initial()];
            let mut seen = vec![false; ty.locations().len()];
            seen[ty.initial().0 as usize] = true;
            while let Some(l) = stack.pop() {
                reachable[place(c, l.0)] = true;
                for &tid in ty.transitions_from(l) {
                    let to = ty.transition(tid).to;
                    if !seen[to.0 as usize] {
                        seen[to.0 as usize] = true;
                        stack.push(to);
                    }
                }
            }
        }

        let initial: Vec<Place> = (0..n)
            .map(|c| place(c, sys.atom_type(c).initial().0))
            .collect();

        // Abstract transitions + DIS data per interaction.
        let mut transitions = Vec::new();
        let mut interactions = Vec::new();
        let mut truncated = false;
        for (ci, conn) in sys.connectors().iter().enumerate() {
            let eps = sys.connector_endpoints(bip_core::ConnId(ci as u32));
            let guarded = conn.guard != bip_core::Expr::Const(1);
            for subset in conn.feasible_subsets() {
                // Per participant: (component, list of (from, to) location
                // pairs via unguarded transitions, list of definitely-offering
                // locations).
                let mut offered_at = Vec::new();
                let mut moves_per_part: Vec<(usize, Vec<(u32, u32)>)> = Vec::new();
                for &k in &subset {
                    let (comp, port) = eps[k];
                    let ty = sys.atom_type(comp);
                    let mut offering = FxHashSet::default();
                    let mut moves = Vec::new();
                    for (li, _) in ty.locations().iter().enumerate() {
                        for &tid in ty.transitions_from(bip_core::LocId(li as u32)) {
                            let t = ty.transition(tid);
                            if t.port != Some(port) {
                                continue;
                            }
                            moves.push((li as u32, t.to.0));
                            if t.guard == bip_core::Expr::Const(1) {
                                offering.insert(place(comp, li as u32));
                            }
                        }
                    }
                    let mut offering: Vec<Place> = offering.into_iter().collect();
                    offering.sort_unstable();
                    offered_at.push(offering);
                    moves_per_part.push((comp, moves));
                }
                interactions.push(InteractionAbs {
                    name: format!("{}#{:?}", conn.name, subset),
                    offered_at,
                    maybe_disabled: guarded,
                });
                // Abstract net transitions: one per combination of local
                // moves, up to the cap.
                truncated |=
                    push_move_combinations(&moves_per_part, &place_base, &mut transitions, cap);
            }
        }
        // Internal transitions.
        for c in 0..n {
            let ty = sys.atom_type(c);
            for t in ty.transitions() {
                if t.port.is_none() {
                    transitions.push((vec![place(c, t.from.0)], vec![place(c, t.to.0)]));
                }
            }
        }
        let packed = pack_transitions(num_places, &transitions);
        Abstraction {
            place_base,
            num_places,
            transitions,
            initial,
            reachable,
            interactions,
            packed,
            truncated,
        }
    }

    /// `true` when some connector's move combinations were cut at the
    /// transition cap. Such a net *under*-approximates the system — it lacks
    /// moves the system makes — so its traps and linear invariants need not
    /// hold of the system; [`DFinder`] keeps only the component invariants
    /// on it.
    pub fn truncated(&self) -> bool {
        self.truncated
    }

    /// The component owning a place.
    pub fn component_of(&self, p: Place) -> usize {
        match self.place_base.binary_search(&p) {
            Ok(i) => i,
            Err(i) => i - 1,
        }
    }

    /// The location index of a place within its component.
    pub fn location_of(&self, p: Place) -> u32 {
        (p - self.place_base[self.component_of(p)]) as u32
    }

    /// The abstract transitions with pre/post sets packed as [`PlaceSet`]
    /// bitsets: the distinct `(pre, post)` pairs of
    /// [`Abstraction::transitions`] in first-occurrence order. Exact
    /// duplicates are removed, so this list may be *shorter* than
    /// `transitions` — never zip the two by index.
    pub fn packed_transitions(&self) -> &[(PlaceSet, PlaceSet)] {
        &self.packed
    }

    /// The trap-enumeration seeds, ascending: the places that can be a
    /// trap's minimum at all (the locally reachable ones).
    pub(crate) fn seeds(&self) -> Vec<Place> {
        (0..self.num_places)
            .filter(|&p| self.reachable[p])
            .collect()
    }

    /// An empty [`PlaceSet`] over this abstraction's places.
    pub fn place_set(&self) -> PlaceSet {
        PlaceSet::new(self.num_places)
    }

    /// Is `set` a trap? (Every transition consuming from the set produces
    /// into it.) One word-wise intersection test per abstract transition.
    pub fn is_trap(&self, set: &PlaceSet) -> bool {
        self.packed
            .iter()
            .all(|(pre, post)| !pre.intersects(set) || post.intersects(set))
    }
}

/// Pack raw transition pre/post lists into deduplicated [`PlaceSet`] pairs.
fn pack_transitions(
    num_places: usize,
    transitions: &[(Vec<Place>, Vec<Place>)],
) -> Vec<(PlaceSet, PlaceSet)> {
    let mut seen = FxHashSet::default();
    let mut packed = Vec::new();
    for (pre, post) in transitions {
        let ppre = PlaceSet::from_places(num_places, pre.iter().copied());
        let ppost = PlaceSet::from_places(num_places, post.iter().copied());
        if seen.insert((ppre.clone(), ppost.clone())) {
            packed.push((ppre, ppost));
        }
    }
    packed
}

/// Append one abstract transition per combination of the participants'
/// local moves, stopping once `out` holds `cap` transitions. Returns `true`
/// when a combination was dropped at the cap.
fn push_move_combinations(
    moves_per_part: &[(usize, Vec<(u32, u32)>)],
    place_base: &[usize],
    out: &mut Vec<(Vec<Place>, Vec<Place>)>,
    cap: usize,
) -> bool {
    if moves_per_part.iter().any(|(_, m)| m.is_empty()) {
        return false; // some participant can never offer the port: interaction dead
    }
    let mut idx = vec![0usize; moves_per_part.len()];
    loop {
        if out.len() >= cap {
            return true;
        }
        let mut pre = Vec::with_capacity(idx.len());
        let mut post = Vec::with_capacity(idx.len());
        for (j, (comp, moves)) in moves_per_part.iter().enumerate() {
            let (from, to) = moves[idx[j]];
            pre.push(place_base[*comp] + from as usize);
            post.push(place_base[*comp] + to as usize);
        }
        out.push((pre, post));
        let mut k = 0;
        loop {
            if k == idx.len() {
                return false;
            }
            idx[k] += 1;
            if idx[k] < moves_per_part[k].1.len() {
                break;
            }
            idx[k] = 0;
            k += 1;
        }
    }
}

/// A linear (place-)invariant of the abstraction: on every reachable state,
/// `Σ coeff(p) · marked(p) = value`.
///
/// Computed from the left null space of the net's incidence matrix — the
/// arithmetic half of D-Finder's invariant generation (the role played by
/// the Omega back-end in the original tool).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinearInvariant {
    /// Non-zero coefficients as `(place, coefficient)` pairs.
    pub coeffs: Vec<(Place, i64)>,
    /// The conserved value (evaluated on the initial marking).
    pub value: i64,
}

impl LinearInvariant {
    /// Evaluate the left-hand side on a marking given as a place predicate.
    pub fn lhs<F: Fn(Place) -> bool>(&self, marked: F) -> i64 {
        self.coeffs
            .iter()
            .map(|&(p, a)| if marked(p) { a } else { 0 })
            .sum()
    }

    /// Does firing the abstract transition `pre → post` leave the left-hand
    /// side unchanged? (The abstraction is 1-safe, so membership is
    /// multiplicity.)
    fn conserved_by(&self, pre: &PlaceSet, post: &PlaceSet) -> bool {
        let delta: i128 = self
            .coeffs
            .iter()
            .map(|&(p, a)| i128::from(a) * (post.contains(p) as i128 - pre.contains(p) as i128))
            .sum();
        delta == 0
    }
}

/// Exact rational for the elimination. Every operation is checked: `None`
/// means an `i128` overflowed, and the caller drops the whole linear set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Rat {
    n: i128,
    d: i128, // > 0
}

impl Rat {
    const ZERO: Rat = Rat { n: 0, d: 1 };
    const ONE: Rat = Rat { n: 1, d: 1 };

    fn new(n: i128, d: i128) -> Option<Rat> {
        debug_assert!(d != 0);
        let g = i128::try_from(gcd(n.unsigned_abs(), d.unsigned_abs())).ok()?;
        let (n, d) = (n / g, d / g);
        if d < 0 {
            Some(Rat {
                n: n.checked_neg()?,
                d: d.checked_neg()?,
            })
        } else {
            Some(Rat { n, d })
        }
    }

    fn is_zero(self) -> bool {
        self.n == 0
    }

    fn sub(self, o: Rat) -> Option<Rat> {
        let n = self
            .n
            .checked_mul(o.d)?
            .checked_sub(o.n.checked_mul(self.d)?)?;
        Rat::new(n, self.d.checked_mul(o.d)?)
    }

    fn mul(self, o: Rat) -> Option<Rat> {
        Rat::new(self.n.checked_mul(o.n)?, self.d.checked_mul(o.d)?)
    }

    /// `self / o` for `o ≠ 0`.
    fn div(self, o: Rat) -> Option<Rat> {
        Rat::new(self.n.checked_mul(o.d)?, self.d.checked_mul(o.n)?)
    }
}

fn gcd(a: u128, b: u128) -> u128 {
    if b == 0 {
        a.max(1)
    } else {
        gcd(b, a % b)
    }
}

fn lcm(a: i128, b: i128) -> Option<i128> {
    (a / i128::try_from(gcd(a.unsigned_abs(), b.unsigned_abs())).ok()?).checked_mul(b)
}

/// A sparse matrix row: the non-zero entries, ascending by column.
type Row = Vec<(Place, Rat)>;

/// `row − f · piv`, merging the two sorted entry lists.
fn sub_scaled(row: &[(Place, Rat)], f: Rat, piv: &[(Place, Rat)]) -> Option<Row> {
    let mut out = Vec::with_capacity(row.len() + piv.len());
    let (mut i, mut j) = (0, 0);
    loop {
        let entry = match (row.get(i), piv.get(j)) {
            (None, None) => break,
            (Some(&(p, x)), Some(&(q, y))) if p == q => {
                i += 1;
                j += 1;
                (p, x.sub(f.mul(y)?)?)
            }
            (Some(&(p, x)), Some(&(q, _))) if p < q => {
                i += 1;
                (p, x)
            }
            (Some(&(p, x)), None) => {
                i += 1;
                (p, x)
            }
            (_, Some(&(q, y))) => {
                j += 1;
                (q, Rat::ZERO.sub(f.mul(y)?)?)
            }
        };
        if !entry.1.is_zero() {
            out.push(entry);
        }
    }
    Some(out)
}

/// The reduced row-echelon form of the abstract transitions' effect rows
/// (`post − pre` over the places), exact and sparse, grown one row at a
/// time.
///
/// The RREF of a row space is unique, so the matrix — and every invariant
/// read off it — depends only on the *set* of rows inserted, never on their
/// order or on how many insertions built it: a [`DFinder`] that inserted a
/// net's transitions in one go and an [`crate::incremental`] verifier that
/// received them addition by addition hold the same `Rref`.
///
/// Arithmetic is checked `i128` rationals. An overflow poisons the form:
/// from then on [`Rref::invariants`] returns the empty set, which is sound
/// (fewer invariants only weaken `LI`), where a half-reduced matrix could
/// emit a vector that is no invariant at all.
#[derive(Debug, Clone)]
pub(crate) struct Rref {
    /// Pivot rows: each starts with a 1 in its pivot column and is zero in
    /// every other row's pivot column.
    rows: Vec<Row>,
    /// Per column, the index in `rows` of the row it is the pivot of.
    pivot_row: Vec<Option<usize>>,
    overflowed: bool,
}

impl Rref {
    /// The form of no rows over `ncols` columns.
    fn new(ncols: usize) -> Rref {
        Rref {
            rows: Vec::new(),
            pivot_row: vec![None; ncols],
            overflowed: false,
        }
    }

    /// The form of every abstract transition of `abs`.
    fn of(abs: &Abstraction) -> Rref {
        let mut rref = Rref::new(abs.num_places);
        for (pre, post) in &abs.packed {
            rref.insert_effect(pre, post);
        }
        rref
    }

    /// Insert the effect row of one abstract transition: `−1` on the places
    /// it only consumes, `+1` on those it only produces.
    pub(crate) fn insert_effect(&mut self, pre: &PlaceSet, post: &PlaceSet) {
        let consumed = pre.iter().filter(|&p| !post.contains(p));
        let produced = post.iter().filter(|&q| !pre.contains(q));
        let mut row: Row = consumed
            .map(|p| (p, Rat { n: -1, d: 1 }))
            .chain(produced.map(|q| (q, Rat::ONE)))
            .collect();
        row.sort_unstable_by_key(|&(p, _)| p);
        self.insert(row);
    }

    fn insert(&mut self, row: Row) {
        if !self.overflowed && self.try_insert(row).is_none() {
            self.overflowed = true;
        }
    }

    /// Reduce `row` by the pivot rows; if something is left, normalise it,
    /// clear its pivot column from the other rows and adopt it. `None` on
    /// overflow, leaving `self` half-updated (the caller poisons it).
    fn try_insert(&mut self, mut row: Row) -> Option<()> {
        // One pass suffices: a pivot row is zero in every other pivot
        // column, so subtracting it never refills one already cleared.
        while let Some((r, f)) = row
            .iter()
            .find_map(|&(c, f)| self.pivot_row[c].map(|r| (r, f)))
        {
            row = sub_scaled(&row, f, &self.rows[r])?;
        }
        let Some(&(pivot, lead)) = row.first() else {
            return Some(()); // linearly dependent on the rows already in
        };
        for entry in &mut row {
            entry.1 = entry.1.div(lead)?;
        }
        for other in &mut self.rows {
            if let Ok(k) = other.binary_search_by_key(&pivot, |&(c, _)| c) {
                *other = sub_scaled(other, other[k].1, &row)?;
            }
        }
        self.pivot_row[pivot] = Some(self.rows.len());
        self.rows.push(row);
        Some(())
    }

    /// The null-space basis read off the free columns, in ascending
    /// free-column order: for free column `f`, `y[f] = 1` and
    /// `y[pivot of row i] = −rows[i][f]`. Vectors are scaled to primitive
    /// integers; only those with every |coefficient| ≤ `max_coeff` and
    /// support ≤ `max_support` are kept. `abs` supplies the initial marking
    /// the conserved values are taken on, and must be the abstraction whose
    /// every transition has been inserted.
    pub(crate) fn invariants(
        &self,
        abs: &Abstraction,
        max_coeff: i64,
        max_support: usize,
    ) -> Vec<LinearInvariant> {
        let out = self
            .null_space(abs, max_coeff, max_support)
            .unwrap_or_default();
        debug_assert!(
            out.iter().all(|inv| abs
                .packed
                .iter()
                .all(|(pre, post)| inv.conserved_by(pre, post))),
            "an emitted vector is not orthogonal to every effect row"
        );
        out
    }

    /// `None` if the form is poisoned or the scaling overflows.
    fn null_space(
        &self,
        abs: &Abstraction,
        max_coeff: i64,
        max_support: usize,
    ) -> Option<Vec<LinearInvariant>> {
        if self.overflowed {
            return None;
        }
        let ncols = self.pivot_row.len();
        // Transpose the free part: per free column, its vector's entries on
        // the pivot columns.
        let mut vectors: Vec<Row> = vec![Vec::new(); ncols];
        for row in &self.rows {
            let pivot = row[0].0;
            for &(free, v) in &row[1..] {
                vectors[free].push((pivot, Rat::ZERO.sub(v)?));
            }
        }
        let initial = PlaceSet::from_places(ncols, abs.initial.iter().copied());
        let bound = u128::try_from(max_coeff).unwrap_or(0);
        let mut out = Vec::new();
        for (free, mut y) in vectors.into_iter().enumerate() {
            if self.pivot_row[free].is_some() || y.len() >= max_support {
                continue;
            }
            y.push((free, Rat::ONE));
            y.sort_unstable_by_key(|&(p, _)| p);
            // Scale to the primitive integer vector.
            let denom = y.iter().try_fold(1i128, |acc, &(_, v)| lcm(acc, v.d))?;
            let ints = y
                .iter()
                .map(|&(p, v)| Some((p, v.n.checked_mul(denom / v.d)?)))
                .collect::<Option<Vec<(Place, i128)>>>()?;
            let g = ints
                .iter()
                .fold(0, |acc, &(_, v)| gcd(acc, v.unsigned_abs()));
            if ints.iter().any(|&(_, v)| v.unsigned_abs() / g > bound) {
                continue;
            }
            // |v| / g ≤ bound ≤ i64::MAX from here on: the casts are exact.
            let g = g as i128;
            let coeffs: Vec<(Place, i64)> =
                ints.iter().map(|&(p, v)| (p, (v / g) as i64)).collect();
            let value: i128 = coeffs
                .iter()
                .filter(|&&(p, _)| initial.contains(p))
                .map(|&(_, a)| i128::from(a))
                .sum();
            let Ok(value) = i64::try_from(value) else {
                continue;
            };
            out.push(LinearInvariant { coeffs, value });
        }
        Some(out)
    }
}

/// Compute linear invariants from the left null space of the incidence
/// matrix. Vectors are scaled to primitive integers; only invariants with
/// all |coefficients| ≤ `max_coeff` and support ≤ `max_support` are kept
/// (larger ones are too expensive to encode propositionally).
///
/// The elimination is sparse and exact. Inserting a transition's effect
/// row (two non-zeros per participant) merges it with each pivot row it
/// meets and with each row holding its new pivot column, so the cost
/// follows the **non-zeros** of the rows touched, plus one binary search
/// per pivot row — not `transitions × places`. If the exact arithmetic
/// would overflow `i128` the result is the empty set: sound, only weaker.
pub fn linear_invariants(
    abs: &Abstraction,
    max_coeff: i64,
    max_support: usize,
) -> Vec<LinearInvariant> {
    Rref::of(abs).invariants(abs, max_coeff, max_support)
}

/// Encode a linear invariant over the `at` literals using the exactly-k
/// totalizer: negatives are rewritten via `−x = (1−x) − 1`.
fn encode_linear(b: &mut CnfBuilder, at: &[Lit], inv: &LinearInvariant) {
    let mut lits = Vec::new();
    let mut k = inv.value;
    for &(p, a) in &inv.coeffs {
        if a > 0 {
            for _ in 0..a {
                lits.push(at[p]);
            }
        } else {
            for _ in 0..(-a) {
                lits.push(!at[p]);
            }
            k += -a;
        }
    }
    if k < 0 || k as usize > lits.len() {
        // The invariant excludes every 0/1 marking: encode falsum (cannot
        // happen for invariants derived from a feasible initial marking).
        b.clause([]);
        return;
    }
    b.exactly_k(lits, k as usize);
}

/// Verdict of a compositional deadlock-freedom check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// `CI ∧ II ∧ DIS` is unsatisfiable: the system is deadlock-free.
    DeadlockFree,
    /// Satisfiable: the model gives candidate deadlock location vectors
    /// (may be spurious — the abstraction over-approximates).
    PotentialDeadlock(Vec<Vec<u32>>),
    /// The final `CI ∧ II ∧ DIS` check was cut short by a budget, deadline,
    /// or cancellation before the solver could decide it. Never a wrong
    /// verdict — just no verdict.
    Unknown(StopReason),
}

impl Verdict {
    /// `true` for [`Verdict::DeadlockFree`].
    pub fn is_deadlock_free(&self) -> bool {
        matches!(self, Verdict::DeadlockFree)
    }

    /// `true` for [`Verdict::Unknown`].
    pub fn is_unknown(&self) -> bool {
        matches!(self, Verdict::Unknown(_))
    }
}

/// Configuration for compositional verification, mirroring the
/// [`crate::reach::ReachConfig`] contract: the *results* never depend on
/// `threads` — only the wall-clock does.
///
/// ```
/// use bip_verify::dfinder::DFinderConfig;
///
/// let cfg = DFinderConfig::new().threads(8).max_traps(256);
/// assert_eq!((cfg.threads, cfg.max_traps), (8, 256));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DFinderConfig {
    /// Worker threads for trap enumeration; `1` (the default) runs
    /// everything inline on the calling thread. Reports are identical for
    /// every value.
    pub threads: usize,
    /// Bound on the number of traps kept as interaction invariants.
    pub max_traps: usize,
    /// Resource ceilings. `max_conflicts` is a **per-solve** ceiling here
    /// (each trap-enumeration iterate and the final DIS check get the same
    /// allowance), which keeps budget-cut trap lists — and therefore whole
    /// reports — thread-count invariant. A seed whose iterate goes over
    /// stops enumerating; the traps it already found are kept (fewer traps
    /// only *weaken* II, so verdicts stay sound). The deadline is observed
    /// between SAT iterations and at the seed-merge horizon.
    pub budget: Budget,
    /// Cancellation token, installed as every solver's interrupt flag, so
    /// even a worker buried in a hard SAT instance stops mid-solve.
    pub cancel: CancelToken,
}

impl DFinderConfig {
    /// Sequential enumeration with the default trap bound.
    #[must_use]
    pub fn new() -> DFinderConfig {
        DFinderConfig {
            threads: 1,
            max_traps: DFinder::DEFAULT_MAX_TRAPS,
            budget: Budget::unlimited(),
            cancel: CancelToken::new(),
        }
    }

    /// Set the worker-thread count (clamped to at least 1).
    #[must_use]
    pub fn threads(mut self, threads: usize) -> DFinderConfig {
        self.threads = threads.max(1);
        self
    }

    /// Set the trap bound.
    #[must_use]
    pub fn max_traps(mut self, max_traps: usize) -> DFinderConfig {
        self.max_traps = max_traps;
        self
    }

    /// Bound the run's resources (see [`DFinderConfig::budget`]).
    #[must_use]
    pub fn budget(mut self, budget: Budget) -> DFinderConfig {
        self.budget = budget;
        self
    }

    /// Observe `token` for cancellation (see [`DFinderConfig::cancel`]).
    #[must_use]
    pub fn cancel(mut self, token: &CancelToken) -> DFinderConfig {
        self.cancel = token.clone();
        self
    }
}

impl Default for DFinderConfig {
    fn default() -> DFinderConfig {
        DFinderConfig::new()
    }
}

/// Report of a [`DFinder`] run.
///
/// Derives `Eq`: the report is **bit-identical for every
/// [`DFinderConfig::threads`] value**, which `tests/dfinder_parallel.rs`
/// asserts by direct comparison.
#[must_use = "inspect `verdict`; an unread report silently drops the analysis"]
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DFinderReport {
    /// The verdict.
    pub verdict: Verdict,
    /// Number of traps used as interaction invariants.
    pub traps: usize,
    /// Number of linear invariants used.
    pub linear_invariants: usize,
    /// Number of abstract transitions in the Petri abstraction.
    pub abstract_transitions: usize,
    /// Number of places.
    pub places: usize,
    /// SAT conflicts spent in the final check.
    pub sat_conflicts: u64,
    /// SAT decisions spent in the final check.
    pub sat_decisions: u64,
    /// SAT propagations (literals enqueued) in the final check.
    pub sat_propagations: u64,
    /// Mean LBD of the final check's learnt clauses, in thousandths
    /// (integer so the report stays `Eq`; 0 if the check never conflicted).
    pub avg_lbd_milli: u64,
    /// Why the run stopped. [`StopReason::Completed`] means nothing was
    /// truncated. With a [`Verdict::Unknown`] verdict this is the final
    /// check's stop reason; with a decisive verdict it can still be a
    /// budget reason when *trap enumeration* was truncated — the verdict is
    /// sound either way (a truncated II is weaker, never wrong).
    pub stop: StopReason,
    /// Wall-clock for construction + final check (compares equal to any
    /// other timing, so report equality stays about content).
    pub wall: Wall,
}

/// The compositional verifier. Holds the abstraction and the computed trap
/// and linear invariants; reusable for several queries.
#[derive(Debug)]
pub struct DFinder {
    // `pub(crate)`: `incremental` keeps these current across additions.
    pub(crate) abs: Abstraction,
    pub(crate) traps: Vec<PlaceSet>,
    pub(crate) linear: Vec<LinearInvariant>,
    /// The reduced effect matrix `linear` is read off; additions insert
    /// their new rows here instead of eliminating afresh.
    pub(crate) rref: Rref,
    pub(crate) cfg: DFinderConfig,
    /// Why the most recent trap (re-)enumeration stopped.
    pub(crate) build_stop: StopReason,
    build_elapsed: std::time::Duration,
}

impl DFinder {
    /// Default bound on the number of traps enumerated.
    pub const DEFAULT_MAX_TRAPS: usize = 128;
    /// Default bound on linear-invariant coefficients.
    pub const DEFAULT_MAX_COEFF: i64 = 4;
    /// Default bound on linear-invariant support size.
    pub const DEFAULT_MAX_SUPPORT: usize = 16;

    /// Build the abstraction and compute trap + linear invariants.
    pub fn new(sys: &System) -> DFinder {
        Self::with_config(sys, &DFinderConfig::new())
    }

    /// Build with an explicit trap bound.
    pub fn with_max_traps(sys: &System, max_traps: usize) -> DFinder {
        Self::with_config(sys, &DFinderConfig::new().max_traps(max_traps))
    }

    /// Build under `cfg` (possibly enumerating traps in parallel; the
    /// result does not depend on the thread count).
    pub fn with_config(sys: &System, cfg: &DFinderConfig) -> DFinder {
        let start = Instant::now();
        Self::from_abstraction(Abstraction::new(sys), cfg, start)
    }

    /// Compute the invariants of `abs`. A truncated net keeps CI only: its
    /// missing transitions could make a non-trap look like a trap and a
    /// non-invariant look conserved, so II and LI are left empty — weaker,
    /// never wrong. `start` is when building `abs` began, so the reported
    /// wall time includes it.
    fn from_abstraction(abs: Abstraction, cfg: &DFinderConfig, start: Instant) -> DFinder {
        let (traps, build_stop, rref, linear) = if abs.truncated() {
            let rref = Rref::new(abs.num_places);
            (Vec::new(), StopReason::Completed, rref, Vec::new())
        } else {
            let (traps, build_stop) = enumerate_traps_inner(&abs, &[], &abs.seeds(), cfg);
            let rref = Rref::of(&abs);
            let linear = rref.invariants(&abs, Self::DEFAULT_MAX_COEFF, Self::DEFAULT_MAX_SUPPORT);
            (traps, build_stop, rref, linear)
        };
        DFinder {
            abs,
            traps,
            linear,
            rref,
            cfg: cfg.clone(),
            build_stop,
            build_elapsed: start.elapsed(),
        }
    }

    /// The computed traps (as packed place sets).
    pub fn traps(&self) -> &[PlaceSet] {
        &self.traps
    }

    /// The computed linear invariants.
    pub fn linear(&self) -> &[LinearInvariant] {
        &self.linear
    }

    /// The abstraction.
    pub fn abstraction(&self) -> &Abstraction {
        &self.abs
    }

    /// Did the last trap (re-)enumeration stop before every seed subspace
    /// was exhausted — cut by a budget, deadline or cancellation, or with
    /// the trap list at its cap? Only an untruncated list *covers* the net:
    /// every initially-marked trap with minimum `s` contains a listed trap
    /// with minimum `s`.
    pub(crate) fn enumeration_truncated(&self) -> bool {
        self.build_stop != StopReason::Completed || self.traps.len() >= self.cfg.max_traps
    }

    /// Run the deadlock-freedom check: is `CI ∧ II ∧ DIS` satisfiable? The
    /// one DIS check in the crate — [`crate::incremental`] asks it too.
    pub fn check_deadlock_freedom(&self) -> DFinderReport {
        let (mut builder, at) = self.encode_ci_ii();
        // DIS: every interaction disabled.
        for inter in &self.abs.interactions {
            if inter.maybe_disabled {
                continue; // conjunct trivially true
            }
            // disabled = OR over participants of "no offering place marked".
            let mut blocked_lits = Vec::new();
            for offering in &inter.offered_at {
                if offering.is_empty() {
                    // This participant can never definitely offer: the
                    // interaction may always be disabled; conjunct trivial.
                    blocked_lits.clear();
                    break;
                }
                let conj: Vec<Lit> = offering.iter().map(|&p| !at[p]).collect();
                let b = builder.and(conj);
                blocked_lits.push(b);
            }
            if blocked_lits.is_empty() {
                continue;
            }
            let disabled = builder.or(blocked_lits);
            builder.assert_lit(disabled);
        }
        let start = Instant::now();
        let (budget, cancel) = (&self.cfg.budget, &self.cfg.cancel);
        let solver = builder.solver_mut();
        solver.set_interrupt(Some(cancel.flag()));
        let verdict = match budget.interrupted(cancel) {
            Some(stop) => Verdict::Unknown(stop),
            None => {
                // `max_conflicts` is a per-solve allowance here (see
                // [`DFinderConfig::budget`]): nothing counts as spent.
                let sat = solver.solve_limited(&[], budget.solve_limits(0));
                if sat.is_unknown() {
                    let stop = budget.interrupted(cancel);
                    Verdict::Unknown(stop.unwrap_or(StopReason::SolverBudget))
                } else if sat.is_unsat() {
                    Verdict::DeadlockFree
                } else {
                    // Read back one candidate location vector.
                    let mut locs = vec![0u32; self.abs.place_base.len()];
                    for p in 0..self.abs.num_places {
                        if solver.value(at[p].var()) == Some(true) {
                            locs[self.abs.component_of(p)] = self.abs.location_of(p);
                        }
                    }
                    Verdict::PotentialDeadlock(vec![locs])
                }
            }
        };
        let stop = match &verdict {
            Verdict::Unknown(stop) => *stop,
            _ => self.build_stop,
        };
        DFinderReport {
            verdict,
            traps: self.traps.len(),
            linear_invariants: self.linear.len(),
            abstract_transitions: self.abs.transitions.len(),
            places: self.abs.num_places,
            sat_conflicts: solver.conflicts(),
            sat_decisions: solver.decisions(),
            sat_propagations: solver.propagations(),
            avg_lbd_milli: solver.avg_lbd_milli(),
            stop,
            wall: Wall(self.build_elapsed + start.elapsed()),
        }
    }

    /// Try to *prove* a location-based state invariant compositionally:
    /// holds if `CI ∧ II ∧ ¬P` is unsatisfiable.
    ///
    /// Returns `None` when the predicate mentions data (outside the
    /// location abstraction) — the caller should fall back to
    /// [`crate::reach::check_invariant`].
    pub fn prove_location_invariant(&self, pred: &StatePred) -> Option<bool> {
        let (mut builder, at) = self.encode_ci_ii();
        let p = encode_pred(&mut builder, &self.abs, &at, pred)?;
        builder.assert_lit(!p);
        Some(builder.solver_mut().solve().is_unsat())
    }

    /// Encode `CI ∧ II` into a fresh CNF builder; returns the at-place
    /// literals.
    fn encode_ci_ii(&self) -> (CnfBuilder, Vec<Lit>) {
        let mut b = query_builder();
        let at: Vec<Lit> = (0..self.abs.num_places)
            .map(|_| Lit::pos(b.fresh()))
            .collect();
        // Control structure: exactly one location per component.
        let ncomp = self.abs.place_base.len();
        for c in 0..ncomp {
            let lo = self.abs.place_base[c];
            let hi = if c + 1 < ncomp {
                self.abs.place_base[c + 1]
            } else {
                self.abs.num_places
            };
            b.exactly_one((lo..hi).map(|p| at[p]));
        }
        // CI: locally unreachable places are never marked.
        for (p, reach) in self.abs.reachable.iter().enumerate() {
            if !reach {
                b.assert_lit(!at[p]);
            }
        }
        // II: every initially-marked trap stays marked.
        for trap in &self.traps {
            b.clause(trap.iter().map(|p| at[p]));
        }
        // LI: linear place-invariants.
        for inv in &self.linear {
            encode_linear(&mut b, &at, inv);
        }
        (b, at)
    }
}

fn encode_pred(b: &mut CnfBuilder, abs: &Abstraction, at: &[Lit], pred: &StatePred) -> Option<Lit> {
    match pred {
        StatePred::True => {
            let v = Lit::pos(b.fresh());
            b.assert_lit(v);
            Some(v)
        }
        StatePred::False => {
            let v = Lit::pos(b.fresh());
            b.assert_lit(!v);
            Some(v)
        }
        StatePred::AtLoc(c, l) => Some(at[abs.place_base[*c] + *l as usize]),
        StatePred::Not(p) => encode_pred(b, abs, at, p).map(|l| !l),
        StatePred::And(ps) => {
            let mut lits = Vec::new();
            for p in ps {
                lits.push(encode_pred(b, abs, at, p)?);
            }
            if lits.is_empty() {
                return encode_pred(b, abs, at, &StatePred::True);
            }
            Some(b.and(lits))
        }
        StatePred::Or(ps) => {
            let mut lits = Vec::new();
            for p in ps {
                lits.push(encode_pred(b, abs, at, p)?);
            }
            if lits.is_empty() {
                return encode_pred(b, abs, at, &StatePred::False);
            }
            Some(b.or(lits))
        }
        StatePred::Eq(_, _) | StatePred::Le(_, _) => None, // data: out of scope
    }
}

/// A fresh CNF builder for one D-Finder query. D-Finder fires many *short*
/// solves, too brief for glucose's LBD averages to stabilise, so every one
/// restarts on plain Luby (BMC's one persistent solver keeps the hybrid
/// default).
fn query_builder() -> CnfBuilder {
    let mut b = CnfBuilder::new();
    b.solver_mut().set_restart_policy(RestartPolicy::luby());
    b
}

/// Build the trap CNF for one seed place: trap condition per (packed)
/// transition, initial marking, reachability pruning, the min-place
/// partition constraints (`s[seed]`, `¬s[q]` for `q < seed`), and blocking
/// clauses for the already-known traps *of this seed* — those whose minimum
/// place it is. (A known trap with a smaller minimum cannot recur here, and
/// one with a larger minimum belongs to that seed's subspace: a from-scratch
/// enumeration never sees it either.)
fn seed_cnf(abs: &Abstraction, seed: Place, known: &[PlaceSet]) -> (CnfBuilder, Vec<Lit>) {
    let mut b = query_builder();
    let s: Vec<Lit> = (0..abs.num_places).map(|_| Lit::pos(b.fresh())).collect();
    for (pre, post) in &abs.packed {
        for p in pre.iter() {
            let mut clause = vec![!s[p]];
            clause.extend(post.iter().map(|q| s[q]));
            b.clause(clause);
        }
    }
    b.clause(abs.initial.iter().map(|&p| s[p]));
    for (p, reach) in abs.reachable.iter().enumerate() {
        if !reach {
            b.assert_lit(!s[p]);
        }
    }
    for &below in &s[..seed] {
        b.assert_lit(!below);
    }
    b.assert_lit(s[seed]);
    for t in known.iter().filter(|t| t.min() == Some(seed)) {
        b.clause(t.iter().map(|p| !s[p]));
    }
    (b, s)
}

/// What one seed's enumeration produced.
#[derive(Default)]
struct SeedTraps {
    /// The traps found, in discovery order.
    traps: Vec<PlaceSet>,
    /// A solve went over the conflict budget before the seed had filled its
    /// allowance or exhausted its subspace.
    cut: bool,
}

/// Enumerate up to `allowance` (approximately minimal) initially-marked
/// traps whose minimum place is `seed`, blocking supersets of found traps
/// and of the `known` traps of this seed.
///
/// `held` counts the traps of the completed seed prefix. Once they fill the
/// cap, a seed still running lies beyond the merge horizon: it aborts
/// between SAT iterations, and its output is dropped unread.
fn enumerate_seed(
    abs: &Abstraction,
    seed: Place,
    known: &[PlaceSet],
    allowance: usize,
    held: &AtomicUsize,
    cfg: &DFinderConfig,
) -> SeedTraps {
    let (mut b, s) = seed_cnf(abs, seed, known);
    let mut out = SeedTraps::default();
    let solver = b.solver_mut();
    // The config's cancel token interrupts even mid-solve; the budget's
    // conflict ceiling applies per solve call (deterministic, so a
    // budget-cut seed yields the same traps on every thread count).
    solver.set_interrupt(Some(cfg.cancel.flag()));
    let limits = cfg.budget.solve_limits(0);
    while out.traps.len() < allowance && held.load(Ordering::Acquire) < cfg.max_traps {
        if cfg.budget.interrupted(&cfg.cancel).is_some() {
            break;
        }
        let v = solver.solve_limited(&[], limits);
        if v.is_unknown() {
            out.cut = !cfg.cancel.is_cancelled();
            break;
        }
        if v.is_unsat() {
            break;
        }
        let mut set = abs.place_set();
        for (p, lit) in s.iter().enumerate().skip(seed) {
            if solver.value(lit.var()) == Some(true) {
                set.insert(p);
            }
        }
        // Greedy minimization in ascending place order, preserving trap-ness
        // and the initial marking. The seed stays put: it witnesses the
        // partition, so no other seed can rediscover this trap.
        for p in set.to_vec() {
            if p == seed {
                continue;
            }
            set.remove(p);
            let still_marked = abs.initial.iter().any(|&q| set.contains(q));
            if !(still_marked && abs.is_trap(&set)) {
                set.insert(p);
            }
        }
        // Block this trap and all its supersets. Minimization only removes
        // places, so a later model — a superset of no listed trap — cannot
        // shrink to a listed one: the seed's list is duplicate-free.
        solver.add_clause(set.iter().map(|p| !s[p]));
        out.traps.push(set);
    }
    out
}

/// Enumerate (approximately minimal) initially-marked traps of the
/// abstraction: iterated SAT with blocking clauses, partitioned by minimum
/// place. Sequential compatibility form of [`enumerate_traps_with`].
pub fn enumerate_traps(abs: &Abstraction, max_traps: usize) -> Vec<PlaceSet> {
    enumerate_traps_with(abs, &DFinderConfig::new().max_traps(max_traps))
}

/// Enumerate initially-marked traps under `cfg`; see the [module
/// docs](self) for the seed partition and the determinism argument. The
/// result is identical for every `cfg.threads` value.
pub fn enumerate_traps_with(abs: &Abstraction, cfg: &DFinderConfig) -> Vec<PlaceSet> {
    enumerate_traps_inner(abs, &[], &abs.seeds(), cfg).0
}

/// Seed outputs as they complete, and the contiguous completed prefix.
struct SeedOutputs {
    /// Per seed index, its output once it completed inside the horizon.
    by_seed: Vec<Option<SeedTraps>>,
    /// Seeds `0..prefix` have all completed.
    prefix: usize,
}

/// Core enumeration over the subspaces of `seeds` (ascending), each blocking
/// the `known` traps it owns: at most `cfg.max_traps` traps in seed order,
/// and why it stopped ([`StopReason::Completed`] unless a budget, deadline
/// or cancellation truncated the sweep). Truncation is sound — a shorter
/// trap list only weakens II.
///
/// The [module docs](self) give the one worker loop, the per-seed
/// allowance, the merge horizon and the cut rule. At one thread a seed's
/// allowance is exactly the room the merge leaves it, so a one-thread run
/// makes precisely the solves the merge reads.
pub(crate) fn enumerate_traps_inner(
    abs: &Abstraction,
    known: &[PlaceSet],
    seeds: &[Place],
    cfg: &DFinderConfig,
) -> (Vec<PlaceSet>, StopReason) {
    let cap = cfg.max_traps;
    let next = AtomicUsize::new(0);
    // Traps of the completed seed prefix. Written and re-read under the
    // lock, so no seed completing past the horizon is recorded; the
    // lock-free reads only abort early.
    let held = AtomicUsize::new(0);
    let outputs = Mutex::new(SeedOutputs {
        by_seed: seeds.iter().map(|_| None).collect(),
        prefix: 0,
    });
    let work = || loop {
        // The deadline and cancellation also stop new seeds from starting.
        if held.load(Ordering::Acquire) >= cap || cfg.budget.interrupted(&cfg.cancel).is_some() {
            break;
        }
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= seeds.len() {
            break;
        }
        let allowance = cap.saturating_sub(held.load(Ordering::Acquire));
        let out = enumerate_seed(abs, seeds[i], known, allowance, &held, cfg);
        let mut guard = outputs.lock().expect("a trap worker panicked");
        if held.load(Ordering::Acquire) >= cap {
            break; // past the horizon: the merge never reads this seed
        }
        let o = &mut *guard;
        o.by_seed[i] = Some(out);
        while let Some(Some(done)) = o.by_seed.get(o.prefix) {
            held.fetch_add(done.traps.len(), Ordering::Release);
            o.prefix += 1;
        }
    };
    let threads = cfg.threads.min(seeds.len()).max(1);
    std::thread::scope(|scope| {
        for _ in 1..threads {
            scope.spawn(work);
        }
        work();
    });
    let by_seed = outputs
        .into_inner()
        .expect("a trap worker panicked")
        .by_seed;
    let mut traps = Vec::new();
    let mut cut = false;
    for out in by_seed.into_iter().flatten() {
        let room = cap - traps.len();
        cut |= out.cut && out.traps.len() < room;
        traps.extend(out.traps.into_iter().take(room));
        if traps.len() >= cap {
            break;
        }
    }
    let stop = cfg.budget.interrupted(&cfg.cancel);
    let stop = stop.or(cut.then_some(StopReason::SolverBudget));
    (traps, stop.unwrap_or(StopReason::Completed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bip_core::builder::dining_philosophers;
    use bip_core::{AtomBuilder, ConnectorBuilder, SystemBuilder};

    #[test]
    fn conservative_philosophers_proved_deadlock_free() {
        let sys = dining_philosophers(4, false).unwrap();
        let df = DFinder::new(&sys);
        let report = df.check_deadlock_freedom();
        assert!(report.verdict.is_deadlock_free(), "{report:?}");
        assert!(report.traps > 0);
    }

    #[test]
    fn two_phase_philosophers_flagged() {
        let sys = dining_philosophers(4, true).unwrap();
        let df = DFinder::new(&sys);
        let report = df.check_deadlock_freedom();
        match report.verdict {
            Verdict::PotentialDeadlock(cands) => {
                assert!(!cands.is_empty());
                // The exact checker confirms the system really deadlocks, so
                // the flag is not a false alarm.
                assert!(crate::reach::find_deadlock(&sys, 1_000_000).found());
            }
            Verdict::DeadlockFree => panic!("missed a real deadlock"),
            Verdict::Unknown(stop) => panic!("unbudgeted run stopped: {stop:?}"),
        }
    }

    #[test]
    fn linear_invariants_hold_on_reachable_states() {
        for &two_phase in &[false, true] {
            let sys = dining_philosophers(3, two_phase).unwrap();
            let df = DFinder::new(&sys);
            assert!(
                !df.linear().is_empty(),
                "philosophers have conservation laws"
            );
            let abs = df.abstraction();
            let mut seen = FxHashSet::default();
            let mut queue = std::collections::VecDeque::new();
            let init = sys.initial_state();
            seen.insert(init.clone());
            queue.push_back(init);
            while let Some(st) = queue.pop_front() {
                for inv in df.linear() {
                    let lhs = inv.lhs(|p| st.locs[abs.component_of(p)] == abs.location_of(p));
                    assert_eq!(lhs, inv.value, "violated in {}", sys.describe_state(&st));
                }
                for (_, next) in sys.successors(&st) {
                    if seen.insert(next.clone()) {
                        queue.push_back(next);
                    }
                }
            }
        }
    }

    /// A `parts`-way rendezvous whose every participant has `moves` local
    /// moves on its port (a ring of `moves` locations), so the connector
    /// expands to `moves^parts` abstract transitions; then a two-location
    /// toggle `x` (instance `parts`) declared `b` before `a`, starting in
    /// `a`, so its `a → b` move comes second and is the one a cut drops.
    fn wide_rendezvous_then_toggle(parts: usize, moves: usize) -> System {
        let mut ring = AtomBuilder::new("ring").port("p");
        for l in 0..moves {
            ring = ring.location(format!("l{l}"));
        }
        ring = ring.initial("l0");
        for l in 0..moves {
            ring = ring.transition(format!("l{l}"), "p", format!("l{}", (l + 1) % moves));
        }
        let ring = ring.build().unwrap();
        let toggle = AtomBuilder::new("toggle")
            .port("t")
            .location("b")
            .location("a")
            .initial("a")
            .transition("b", "t", "a")
            .transition("a", "t", "b")
            .build()
            .unwrap();
        let mut sb = SystemBuilder::new();
        for i in 0..parts {
            sb.add_instance(format!("r{i}"), &ring);
        }
        let x = sb.add_instance("x", &toggle);
        sb.add_connector(ConnectorBuilder::rendezvous(
            "all",
            (0..parts).map(|i| (i, "p")),
        ));
        sb.add_connector(ConnectorBuilder::singleton("flip", x, "t"));
        sb.build().unwrap()
    }

    #[test]
    fn truncated_net_keeps_component_invariants_only() {
        // 27 rendezvous combinations against a cap of 20: the toggle's
        // `a → b` is cut, so on the net `{x.a}` is an initially marked
        // trap — an interaction invariant "x stays at a" that the system
        // breaks in one step.
        let sys = wide_rendezvous_then_toggle(3, 3);
        let x_at_a = StatePred::at(&sys, 3, "a");
        let cut = Abstraction::with_cap(&sys, 20);
        assert!(cut.truncated());
        let mut trap = cut.place_set();
        trap.insert(cut.place_base[3] + 1);
        assert!(cut.is_trap(&trap), "the cut net has the false trap");

        let df = DFinder::from_abstraction(cut, &DFinderConfig::new(), Instant::now());
        assert!(df.traps().is_empty() && df.linear().is_empty());
        assert_eq!(
            df.prove_location_invariant(&x_at_a),
            Some(false),
            "x leaves a in one step: no proof"
        );
        let report = df.check_deadlock_freedom();
        assert_eq!((report.traps, report.linear_invariants), (0, 0));

        // Under the default cap the same system is whole and equally unproved.
        let whole = DFinder::new(&sys);
        assert!(!whole.abstraction().truncated());
        assert_eq!(whole.abstraction().transitions.len(), 27 + 2);
        assert_eq!(whole.prove_location_invariant(&x_at_a), Some(false));
    }

    #[test]
    fn abstraction_flags_the_transition_cap() {
        // 8^6 = 262 144 move combinations: the default cap cuts the
        // rendezvous and the toggle's connector after it.
        let abs = Abstraction::new(&wide_rendezvous_then_toggle(6, 8));
        assert!(abs.truncated());
        assert_eq!(abs.transitions.len(), MAX_ABSTRACT_TRANSITIONS);
    }

    /// A four-place abstraction with no transitions at all: whatever rows a
    /// test feeds an [`Rref`] by hand, no effect row contradicts them.
    fn four_idle_places() -> Abstraction {
        let atom = AtomBuilder::new("idle")
            .location("l0")
            .location("l1")
            .location("l2")
            .location("l3")
            .initial("l3")
            .build()
            .unwrap();
        let mut sb = SystemBuilder::new();
        sb.add_instance("a", &atom);
        let abs = Abstraction::new(&sb.build().unwrap());
        assert_eq!((abs.num_places, abs.packed.len()), (4, 0));
        abs
    }

    #[test]
    fn overflow_drops_the_whole_linear_set() {
        let abs = four_idle_places();
        let int = |n: i128| Rat { n, d: 1 };
        let unfiltered = |rref: &Rref| rref.invariants(&abs, i64::MAX, usize::MAX);
        // The shape with small entries: rank 3, place 3 free and conserved.
        let mut small = Rref::new(4);
        small.insert(vec![(0, int(2)), (2, int(1))]);
        small.insert(vec![(1, int(3)), (2, int(1))]);
        small.insert(vec![(0, int(1)), (1, int(1))]);
        let e3 = LinearInvariant {
            coeffs: vec![(3, 1)],
            value: 1,
        };
        assert_eq!(unfiltered(&small), vec![e3]);

        // The same shape with coprime 2^100 and 3^60 as leading entries.
        let mut big = Rref::new(4);
        big.insert(vec![(0, int(1 << 100)), (2, int(1))]);
        big.insert(vec![(1, int(3i128.pow(60))), (2, int(1))]);
        // Reading place 2's vector needs the common denominator 2^100 · 3^60
        // > i128::MAX: the whole set goes, place 3's harmless vector too.
        assert!(!big.overflowed);
        assert!(unfiltered(&big).is_empty());
        // Reducing the third row needs that denominator inside the matrix:
        // the form is poisoned, and stays so whatever arrives later.
        big.insert(vec![(0, int(1)), (1, int(1))]);
        assert!(big.overflowed);
        big.insert(vec![(3, int(1))]);
        assert!(unfiltered(&big).is_empty());
    }

    #[test]
    fn checked_rationals_refuse_to_wrap() {
        let max = Rat { n: i128::MAX, d: 1 };
        assert_eq!(max.mul(Rat { n: 2, d: 1 }), None);
        assert_eq!(max.sub(Rat { n: -1, d: 1 }), None);
        assert_eq!(Rat::ONE.div(Rat { n: 1, d: i128::MAX }), Some(max));
        assert_eq!(Rat { n: 1, d: i128::MAX }.div(max), None);
        assert_eq!(Rat::new(i128::MIN, -1), None);
        assert_eq!(lcm(i128::MAX, 2), None);
    }

    /// The assertion behind every emitted set: a form that has not seen all
    /// of the net's transitions spans too small a row space, so its null
    /// space holds vectors some transition does not conserve.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "not orthogonal to every effect row")]
    fn invariants_of_a_partial_form_trip_the_orthogonality_assertion() {
        let sys = dining_philosophers(2, false).unwrap();
        let abs = Abstraction::new(&sys);
        let mut rref = Rref::new(abs.num_places);
        let (pre, post) = &abs.packed[0];
        rref.insert_effect(pre, post);
        let _ = rref.invariants(&abs, i64::MAX, usize::MAX);
    }

    #[test]
    fn soundness_vs_monolithic_on_family() {
        // On every family member, DeadlockFree verdicts must agree with the
        // exact monolithic result.
        for n in 2..=5 {
            for &two_phase in &[false, true] {
                let sys = dining_philosophers(n, two_phase).unwrap();
                let df = DFinder::new(&sys).check_deadlock_freedom();
                let exact = crate::reach::explore(&sys, 5_000_000);
                assert!(exact.complete);
                if df.verdict.is_deadlock_free() {
                    assert!(
                        exact.deadlocks.is_empty(),
                        "unsound verdict on n={n} two_phase={two_phase}"
                    );
                }
                if !two_phase {
                    assert!(
                        df.verdict.is_deadlock_free(),
                        "imprecise on easy case n={n}"
                    );
                }
            }
        }
    }

    #[test]
    fn traps_are_traps() {
        let sys = dining_philosophers(3, true).unwrap();
        let abs = Abstraction::new(&sys);
        let traps = enumerate_traps(&abs, 64);
        assert!(!traps.is_empty());
        for t in &traps {
            assert!(abs.is_trap(t), "not a trap: {t:?}");
            assert!(abs.initial.iter().any(|&p| t.contains(p)), "unmarked trap");
        }
    }

    #[test]
    fn trap_enumeration_is_thread_count_invariant() {
        for (n, two_phase) in [(4usize, false), (4, true)] {
            let sys = dining_philosophers(n, two_phase).unwrap();
            let abs = Abstraction::new(&sys);
            let seq = enumerate_traps_with(&abs, &DFinderConfig::new());
            for threads in [2usize, 3, 8] {
                let par = enumerate_traps_with(&abs, &DFinderConfig::new().threads(threads));
                assert_eq!(seq, par, "n={n} two_phase={two_phase} threads={threads}");
            }
            let seq_report =
                DFinder::with_config(&sys, &DFinderConfig::new()).check_deadlock_freedom();
            let par_report = DFinder::with_config(&sys, &DFinderConfig::new().threads(8))
                .check_deadlock_freedom();
            assert_eq!(seq_report, par_report, "report must be bit-identical");
        }
    }

    #[test]
    fn traps_partition_by_minimum_place() {
        // Every enumerated trap's minimum place is its seed: distinct traps
        // never collide across seeds, which is what makes the seed-order
        // merge deduplication-free by construction.
        let sys = dining_philosophers(4, true).unwrap();
        let abs = Abstraction::new(&sys);
        let traps = enumerate_traps(&abs, 256);
        let mut seen = FxHashSet::default();
        for t in &traps {
            assert!(seen.insert(t.clone()), "duplicate trap {t:?}");
        }
        assert!(traps.windows(2).all(|w| w[0].min() <= w[1].min()));
    }

    #[test]
    fn trap_invariants_hold_on_reachable_states() {
        // Every enumerated trap must indeed stay marked along real runs.
        let sys = dining_philosophers(3, false).unwrap();
        let df = DFinder::new(&sys);
        let abs = df.abstraction();
        let mut seen = FxHashSet::default();
        let mut queue = std::collections::VecDeque::new();
        let init = sys.initial_state();
        seen.insert(init.clone());
        queue.push_back(init);
        while let Some(st) = queue.pop_front() {
            for trap in df.traps() {
                let marked = trap.iter().any(|p| {
                    let c = abs.component_of(p);
                    st.locs[c] == abs.location_of(p)
                });
                assert!(
                    marked,
                    "trap {trap:?} unmarked in {}",
                    sys.describe_state(&st)
                );
            }
            for (_, next) in sys.successors(&st) {
                if seen.insert(next.clone()) {
                    queue.push_back(next);
                }
            }
        }
    }

    #[test]
    fn proves_mutual_exclusion_compositionally() {
        let sys = dining_philosophers(2, false).unwrap();
        let df = DFinder::new(&sys);
        let mutex = StatePred::mutex(&sys, [(0, "eating"), (1, "eating")]);
        assert_eq!(df.prove_location_invariant(&mutex), Some(true));
    }

    #[test]
    fn refuses_data_predicates() {
        let sys = dining_philosophers(2, false).unwrap();
        let df = DFinder::new(&sys);
        let data = StatePred::Eq(bip_core::GExpr::int(1), bip_core::GExpr::int(1));
        assert_eq!(df.prove_location_invariant(&data), None);
    }

    #[test]
    fn does_not_prove_false_invariant() {
        let sys = dining_philosophers(2, false).unwrap();
        let df = DFinder::new(&sys);
        // "phil0 never eats" is violated.
        let never = StatePred::at(&sys, 0, "eating").not();
        assert_eq!(df.prove_location_invariant(&never), Some(false));
    }

    #[test]
    fn guarded_connectors_are_conservative() {
        // A system whose only interaction has a data guard: D-Finder cannot
        // exclude a deadlock and must say PotentialDeadlock.
        let a = AtomBuilder::new("a")
            .var("x", 0)
            .port("p")
            .location("l")
            .initial("l")
            .transition("l", "p", "l")
            .build()
            .unwrap();
        let mut sb = SystemBuilder::new();
        let c = sb.add_instance("c", &a);
        sb.add_connector(
            ConnectorBuilder::singleton("t", c, "p")
                .guard(bip_core::Expr::param(0, 0).lt(bip_core::Expr::int(1))),
        );
        let sys = sb.build().unwrap();
        let df = DFinder::new(&sys);
        assert!(!df.check_deadlock_freedom().verdict.is_deadlock_free());
    }

    #[test]
    fn abstraction_shape() {
        let sys = dining_philosophers(2, false).unwrap();
        let abs = Abstraction::new(&sys);
        // 2 phils × 2 locs + 2 forks × 2 locs = 8 places.
        assert_eq!(abs.num_places, 8);
        assert_eq!(abs.initial.len(), 4);
        assert!(abs.transitions.len() >= 4);
        assert_eq!(abs.component_of(0), 0);
        assert_eq!(abs.component_of(7), 3);
        assert_eq!(abs.location_of(7), 1);
    }

    #[test]
    fn cancelled_token_yields_unknown_verdict() {
        let token = CancelToken::new();
        token.cancel();
        let sys = dining_philosophers(4, false).unwrap();
        let df = DFinder::with_config(&sys, &DFinderConfig::new().cancel(&token));
        let report = df.check_deadlock_freedom();
        assert_eq!(report.verdict, Verdict::Unknown(StopReason::Cancelled));
        assert_eq!(report.stop, StopReason::Cancelled);
    }

    #[test]
    fn expired_deadline_yields_unknown_verdict() {
        let sys = dining_philosophers(4, false).unwrap();
        let cfg = DFinderConfig::new().budget(Budget::unlimited().deadline(Instant::now()));
        let report = DFinder::with_config(&sys, &cfg).check_deadlock_freedom();
        assert_eq!(report.verdict, Verdict::Unknown(StopReason::Deadline));
        assert_eq!(report.stop, StopReason::Deadline);
    }

    #[test]
    fn generous_conflict_budget_matches_unbudgeted_report() {
        let sys = dining_philosophers(4, true).unwrap();
        let plain = DFinder::new(&sys).check_deadlock_freedom();
        let cfg = DFinderConfig::new().budget(Budget::unlimited().conflicts(1_000_000));
        let budgeted = DFinder::with_config(&sys, &cfg).check_deadlock_freedom();
        assert_eq!(plain, budgeted);
        assert_eq!(budgeted.stop, StopReason::Completed);
    }

    #[test]
    fn conflict_budget_keeps_results_thread_invariant() {
        // Per-solve conflict ceilings truncate enumeration deterministically
        // per seed, so even budget-cut trap lists (and the report built on
        // them) are identical for every worker count.
        let sys = dining_philosophers(6, true).unwrap();
        let runs: Vec<_> = [1usize, 2, 8]
            .iter()
            .map(|&threads| {
                let cfg = DFinderConfig::new()
                    .threads(threads)
                    .budget(Budget::unlimited().conflicts(1));
                let df = DFinder::with_config(&sys, &cfg);
                (df.traps().to_vec(), df.check_deadlock_freedom())
            })
            .collect();
        for (traps, report) in &runs[1..] {
            assert_eq!(
                traps, &runs[0].0,
                "budget-cut trap sets must not depend on threads"
            );
            assert_eq!(
                report, &runs[0].1,
                "budget-cut reports must not depend on threads"
            );
        }
    }

    #[test]
    fn unknown_verdict_never_claims_freedom() {
        let token = CancelToken::new();
        token.cancel();
        // Two-phase philosophers really deadlock; a cancelled run must say
        // Unknown, not DeadlockFree.
        let sys = dining_philosophers(4, true).unwrap();
        let report = DFinder::with_config(&sys, &DFinderConfig::new().cancel(&token))
            .check_deadlock_freedom();
        assert!(report.verdict.is_unknown());
        assert!(!report.verdict.is_deadlock_free());
    }
}
