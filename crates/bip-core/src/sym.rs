//! Symbolic (CNF) encoding of one step of a [`System`]'s transition relation.
//!
//! This module bit-blasts the compiled operational semantics to CNF so that
//! SAT-based engines (bounded model checking in `bip-verify::bmc`, and the
//! k-induction/IC3 work queued behind it) can reason about executions without
//! enumerating states:
//!
//! * **Locations** — each component's control location is a binary-encoded
//!   bit-vector of `ceil(log2(num_locations))` bits.
//! * **Data variables** — each flat store slot is a bit-vector whose width
//!   comes from the [`crate::width`] interval analysis: a variable proven to
//!   stay in `[lo, hi]` is stored as an offset binary code of
//!   `ceil(log2(hi - lo + 1))` bits (constants cost **zero** bits). A
//!   variable the analysis cannot bound makes [`StepEncoder::new`] *decline*
//!   with [`SymError::UnboundedVar`] — the encoder never silently truncates.
//! * **Expressions** — guards, connector guards, transfers, updates and
//!   state-predicate comparisons are compiled *structurally* where they are
//!   in the linear fragment below and by *exact enumeration* everywhere
//!   else; both are exact, and which one runs is decided by the shape of the
//!   expression and the width of its support, never by an option.
//! * **Interactions** — one selector literal per (connector, feasible mask)
//!   pair and per internal transition; selectors imply enabledness (offered
//!   ports + connector guard), imply the absence of priority vetoes
//!   (mirroring `dominated_compiled`: guarded rules and maximal progress),
//!   and exactly one selector fires per frame. Components untouched by the
//!   fired action keep their location and variables (frame condition).
//!
//! # The linear fragment
//!
//! Every data expression the repository's models, [`crate::fault::inject`]
//! and the random-system generators write is `var ⋈ const`, `var ± const`
//! or an identity transfer. On the offset binary code those have O(width)
//! circuits, so a guard over 10⁶ values costs 20 gates, not 10⁶ cases:
//!
//! | shape | encoding | cost |
//! |---|---|---|
//! | **term**: `Const`, `Var` / `Param` / `GExpr::Var`, `term + c`, `c + term`, `term − c` | the leaf's *own bits* under a shifted `[lo, hi]` | 0 clauses |
//! | **atom**: `term ⋈ c`, `c ⋈ term` for `<` `≤` `>` `≥` | `unsigned(bits) ≤ m`, possibly negated | ≤ 1 gate per bit |
//! | **atom**: `term = c`, `term ≠ c` | one AND over the code's bits | 1 gate |
//! | `And` / `Or` / `Not` / constants over atoms (guards), `StatePred::{Eq, Le}` of a `GExpr` term against a constant | gates over the atoms' literals, constants folded | 1 gate per operator |
//! | **assignment** of a term (update, transfer pass-through, unchanged variable) | one add-constant ripple circuit on the offset difference | ≤ 2 gates + 2 clauses per bit |
//! | a transfer whose right-hand side is a term | the term itself becomes the mid-state value | 0 clauses |
//!
//! Why each is exact:
//!
//! * **Same-bits shift.** A variable is `lo + code`; `var + c` is then
//!   `(lo + c) + code` — the same code under a shifted interval. `eval`
//!   wraps at every node, which agrees with the summed offset modulo 2⁶⁴,
//!   so the shift is exact whenever the summed offset and the shifted
//!   interval stay inside `i64` (`checked_add`); when they do not, the
//!   expression is enumerated and wrapping stays exact the slow way.
//! * **The `≤ m` chain.** `term ≤ c` is `code ≤ m` with `m = c − lo`.
//!   Scanning from the least significant bit, `le` means "the bits so far
//!   are ≤ `m`'s": at a 1-bit of `m` a 0-bit of the code decides (`¬x ∨ le`),
//!   at a 0-bit it is required (`¬x ∧ le`). `<`, `>`, `≥` are `≤` at `c − 1`
//!   and negations. A `c` outside `[lo, hi]` folds to a constant because
//!   the frame's domain clauses already keep `code ≤ hi − lo`.
//! * **Add-constant assignment.** Forcing `target = src` under `conds` means
//!   `target.code = src.code + e` with `e = src.lo − target.lo` (for `e < 0`,
//!   `src.code = target.code + |e|`), as *integers*: a ripple adder with one
//!   constant operand, each sum bit tied to the other side's bit and every
//!   sum bit beyond the other side's width required to be 0. That pins the
//!   target uniquely, has no solution exactly when the value is below
//!   `target.lo`, and a value above `target.hi` is a code the target's own
//!   domain clauses reject — so an out-of-range value forbids `conds`, the
//!   rule the case split states directly. With `e = 0` every sum bit folds
//!   to the source bit and the circuit *is* the plain two-clause bit copy.
//!
//! **The one-bit rule.** A support variable of at most one bit (domain ≤ 2)
//! keeps the case split: two cases *are* its truth table, so there is
//! nothing to save, and there is something to lose. The crash-recovery
//! proof (`crashphil24-recovery` in `perf/`) is search-chaotic — 1 358 step
//! conflicts, 2 100–2 905 under declaration shuffles — and giving its
//! one-bit fault counter `active` the circuits instead (equivalent
//! formula, a few gates and subsumed clauses more per update) measured
//! 4 345 conflicts on that query and took `kind_proof` from 1.64 s to
//! 4.54 s and from 7.1 to 18.5 MB peak heap. With the rule that formula is
//! bit-identical to the case-split one.
//!
//! **Everything else is enumerated**: `Mul`, `Div`, `Rem`, `Min`, `Max`,
//! `Neg`, `Ite`, `var ⋈ var`, `c − var`, a bare variable used as a truth
//! value, and updates or transfers that are not terms. The (interval-
//! bounded) support of such a sub-expression is enumerated, each assignment
//! gets a Tseitin indicator literal, and the concrete [`Expr::eval`]
//! computes the case's value, so symbolic and concrete semantics agree by
//! construction (including wrapping arithmetic, `x/0 = 0`, and `x%0 = x`).
//! A support whose domain product exceeds [`StepEncoder::enum_budget`] is
//! declined with [`SymError::SupportTooLarge`], whose context names the
//! operator that forced the enumeration.
//! [`StepEncoder::enumerated_cases`] counts the cases emitted, so a silent
//! fallback is visible as a number. Enumeration is also the reference the
//! unit tests compare the circuits against.
//!
//! # Example
//!
//! Encode one step of a one-component counter and ask the solver for the
//! state after the step:
//!
//! ```
//! use bip_core::sym::StepEncoder;
//! use bip_core::{AtomBuilder, Expr, SystemBuilder};
//! use satkit::CnfBuilder;
//!
//! let counter = AtomBuilder::new("counter")
//!     .location("run")
//!     .initial("run")
//!     .var("n", 0)
//!     .internal_transition(
//!         "run",
//!         Expr::var(0).lt(Expr::int(3)),
//!         vec![("n", Expr::var(0).add(Expr::int(1)))],
//!         "run",
//!     )
//!     .build()
//!     .unwrap();
//! let mut sb = SystemBuilder::new();
//! sb.add_instance("c", &counter);
//! let sys = sb.build().unwrap();
//!
//! let mut enc = StepEncoder::new(&sys).unwrap();
//! let mut b = CnfBuilder::new();
//! let mut f0 = enc.new_frame(&mut b);
//! let f1 = enc.new_frame(&mut b);
//! enc.assert_initial(&mut b, &f0);
//! let _step = enc.encode_step(&mut b, &mut f0, &f1).unwrap();
//! assert!(b.solver_mut().solve().is_sat());
//! let model = b.solver_mut().model();
//! let after = enc.decode_state(&f1, &model);
//! assert_eq!(after.vars[0], 1); // n was incremented by the only action
//! ```

use std::collections::{BTreeMap, BTreeSet};

use satkit::{CnfBuilder, Lit};

use crate::atom::{PortId, TransitionId};
use crate::connector::ConnId;
use crate::data::{BinOp, Expr, UnOp, Value};
use crate::exec::mask_endpoints;
use crate::hash::FxHashMap;
use crate::predicate::{GExpr, StatePred};
use crate::system::{CompId, Interaction, State, Step, System};
use crate::width::infer_ranges;

/// Default budget for expression-support enumeration: the product of the
/// domain sizes of an expression's support variables must not exceed this.
pub const DEFAULT_ENUM_BUDGET: u64 = 4096;

/// Why the encoder declined a system (soundness guard: the encoder refuses
/// rather than producing a CNF that disagrees with the concrete semantics).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SymError {
    /// The [`crate::width`] interval analysis could not bound a variable, so
    /// no finite bit-vector represents it exactly.
    UnboundedVar {
        /// Instance name of the owning component.
        component: String,
        /// Name of the unbounded variable.
        variable: String,
    },
    /// An expression's support would need more enumerated assignments than
    /// the configured budget allows (see [`StepEncoder::enum_budget`]).
    SupportTooLarge {
        /// Human-readable description of the expression being encoded.
        context: String,
        /// Number of assignments the enumeration would need.
        combinations: u128,
        /// The configured budget it exceeded.
        budget: u64,
    },
}

impl std::fmt::Display for SymError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SymError::UnboundedVar {
                component,
                variable,
            } => write!(
                f,
                "cannot encode: variable {variable:?} of component {component:?} has no finite \
                 bound (interval analysis returned TOP)"
            ),
            SymError::SupportTooLarge {
                context,
                combinations,
                budget,
            } => write!(
                f,
                "cannot encode {context}: support enumeration needs {combinations} assignments, \
                 budget is {budget}"
            ),
        }
    }
}

impl std::error::Error for SymError {}

/// An offset binary bit-vector: the represented value is
/// `lo + Σ 2^j · bits[j]`, constrained to stay `≤ hi`. `bits` is empty for
/// compile-time constants (`lo == hi`).
#[derive(Debug, Clone)]
struct Bv {
    lo: i64,
    hi: i64,
    bits: Vec<Lit>,
}

impl Bv {
    fn constant(v: i64) -> Bv {
        Bv {
            lo: v,
            hi: v,
            bits: Vec::new(),
        }
    }

    /// Domain size as `u128` (never overflows: the domain is a sub-range of
    /// `i64`).
    fn domain(&self) -> u128 {
        (self.hi as i128 - self.lo as i128 + 1) as u128
    }

    /// The literals that hold exactly when the vector's value is the
    /// in-range `v`: each bit in the polarity `v`'s code gives it.
    fn code_lits(&self, v: i64) -> impl Iterator<Item = Lit> + '_ {
        debug_assert!((self.lo..=self.hi).contains(&v));
        let code = (v as i128 - self.lo as i128) as u128;
        self.bits
            .iter()
            .enumerate()
            .map(move |(j, &bit)| if code >> j & 1 == 1 { bit } else { !bit })
    }
}

/// A literal or a known truth value: what the structural circuits compute
/// with, so that a constant operand folds away instead of costing a gate.
#[derive(Debug, Clone, Copy)]
enum Sig {
    Const(bool),
    Lit(Lit),
}

impl std::ops::Not for Sig {
    type Output = Sig;

    fn not(self) -> Sig {
        match self {
            Sig::Const(v) => Sig::Const(!v),
            Sig::Lit(l) => Sig::Lit(!l),
        }
    }
}

fn sig_and(b: &mut CnfBuilder, x: Sig, y: Sig) -> Sig {
    match (x, y) {
        (Sig::Const(false), _) | (_, Sig::Const(false)) => Sig::Const(false),
        (Sig::Const(true), s) | (s, Sig::Const(true)) => s,
        (Sig::Lit(p), Sig::Lit(q)) => Sig::Lit(b.and([p, q])),
    }
}

fn sig_or(b: &mut CnfBuilder, x: Sig, y: Sig) -> Sig {
    !sig_and(b, !x, !y)
}

fn sig_xor(b: &mut CnfBuilder, x: Sig, y: Sig) -> Sig {
    match (x, y) {
        (Sig::Const(v), s) | (s, Sig::Const(v)) => {
            if v {
                !s
            } else {
                s
            }
        }
        (Sig::Lit(p), Sig::Lit(q)) => Sig::Lit(b.xor(p, q)),
    }
}

/// A term of the linear fragment, `leaf + offset` (no leaf: a constant) —
/// the only value shape the structural encoder has circuits for.
#[derive(Debug, Clone, Copy)]
struct Linear {
    leaf: Option<Key>,
    offset: i64,
}

impl Linear {
    fn constant(offset: i64) -> Linear {
        Linear { leaf: None, offset }
    }

    fn leaf(key: Key) -> Linear {
        Linear {
            leaf: Some(key),
            offset: 0,
        }
    }

    /// `self + rhs`, while at most one side has a leaf. The offsets add
    /// *checked*: `eval` wraps at every node, which agrees with the summed
    /// offset modulo 2⁶⁴, so the term is exact as long as the sum itself
    /// (and, in [`StepEncoder::term_bv`], the shifted interval) stays in
    /// `i64`; anything else is left to enumeration.
    fn plus(self, rhs: Linear) -> Option<Linear> {
        let leaf = match (self.leaf, rhs.leaf) {
            (Some(_), Some(_)) => return None,
            (l, None) | (None, l) => l,
        };
        Some(Linear {
            leaf,
            offset: self.offset.checked_add(rhs.offset)?,
        })
    }

    /// `self − rhs` for a constant `rhs`.
    fn minus(self, rhs: Linear) -> Option<Linear> {
        if rhs.leaf.is_some() {
            return None;
        }
        Some(Linear {
            leaf: self.leaf,
            offset: self.offset.checked_sub(rhs.offset)?,
        })
    }
}

/// `e` as a linear term, if it is one.
fn linear_expr(e: &Expr) -> Option<Linear> {
    match e {
        Expr::Const(c) => Some(Linear::constant(*c)),
        Expr::Var(i) => Some(Linear::leaf(Key::Local(*i))),
        Expr::Param(k, v) => Some(Linear::leaf(Key::Param(*k, *v))),
        Expr::Binary(BinOp::Add, x, y) => linear_expr(x)?.plus(linear_expr(y)?),
        Expr::Binary(BinOp::Sub, x, y) => linear_expr(x)?.minus(linear_expr(y)?),
        _ => None,
    }
}

/// `g` as a linear term, if it is one.
fn linear_gexpr(sys: &System, g: &GExpr) -> Option<Linear> {
    match g {
        GExpr::Const(c) => Some(Linear::constant(*c)),
        GExpr::Var(comp, v) => Some(Linear::leaf(Key::Global(sys.global_var(*comp, *v)))),
        GExpr::Add(x, y) => linear_gexpr(sys, x)?.plus(linear_gexpr(sys, y)?),
        GExpr::Sub(x, y) => linear_gexpr(sys, x)?.minus(linear_gexpr(sys, y)?),
        GExpr::Mul(..) => None,
    }
}

/// Where the support variables of the expression being encoded live.
#[derive(Clone, Copy)]
enum Scope<'s> {
    /// A local expression of component `.0`: `Var(i)` is its pre-state slot,
    /// unless `.1` holds a transferred (mid-state) value for it.
    Local(CompId, Option<&'s FxHashMap<u32, Bv>>),
    /// An expression of connector `.0`: `Param(k, v)` is variable `v` of
    /// endpoint `k`'s component.
    Conn(usize),
    /// A [`GExpr`]: flat store slots.
    Global,
}

/// Bits needed to represent `0..domain` values.
fn width_for(domain: u128) -> usize {
    if domain <= 1 {
        0
    } else {
        (128 - (domain - 1).leading_zeros()) as usize
    }
}

/// A support variable of an expression.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Key {
    /// `Expr::Var(i)` — local variable of the component being encoded.
    Local(u32),
    /// `Expr::Param(k, v)` — variable `v` of connector endpoint `k`.
    Param(u32, u32),
    /// `GExpr::Var` resolved to a flat store index.
    Global(usize),
}

/// Result of enumerating an expression: either the same value on every
/// in-domain assignment, or one `(indicator, value)` case per assignment.
/// The indicators are exhaustive and mutually exclusive over in-domain
/// states, so derived facts (`value == c`, `value != 0`, …) are exact.
enum Cases {
    Const(i64),
    Split(Vec<(Lit, i64)>),
}

/// One frame (time-step) of the unrolled transition relation: the bit-vector
/// state variables plus per-frame caches of derived literals. Create frames
/// with [`StepEncoder::new_frame`]; frames are only meaningful together with
/// the encoder (and `CnfBuilder`) that produced them.
#[derive(Debug)]
pub struct SymFrame {
    /// Location bit-vector per component.
    locs: Vec<Bv>,
    /// Bit-vector per flat store slot.
    vars: Vec<Bv>,
    /// Cache: `(comp, loc)` → "comp is at loc" literal.
    at_loc: FxHashMap<(CompId, u32), Lit>,
    /// Cache: `(comp, transition)` → transition-guard literal (pre-state).
    guards: FxHashMap<(CompId, u32), Lit>,
    /// Cache: `(comp, port)` → "comp offers port" literal.
    offered: FxHashMap<(CompId, u32), Lit>,
    /// Cache: connector index → connector-guard literal.
    conn_guards: FxHashMap<usize, Lit>,
}

/// One action of an encoded step: either a `(connector, mask)` interaction
/// with its per-endpoint transition choice literals, or an internal
/// transition of a single component.
#[derive(Debug, Clone)]
enum ActionVar {
    Interaction {
        conn: usize,
        mask: u32,
        sel: Lit,
        /// Per participating endpoint (in endpoint order): the component and
        /// its candidate `(transition, choice literal)` pairs.
        choices: Vec<(CompId, Vec<(TransitionId, Lit)>)>,
    },
    Internal {
        comp: CompId,
        tid: TransitionId,
        sel: Lit,
    },
}

/// The selector/choice literals of one encoded step, as returned by
/// [`StepEncoder::encode_step`]. Feed a satisfying model to
/// [`StepEncoder::decode_step`] to recover the fired [`Step`].
#[derive(Debug)]
pub struct StepVars {
    actions: Vec<ActionVar>,
}

/// Tseitin encoder for one step of a [`System`]'s transition relation.
///
/// Construction runs the [`crate::width`] interval analysis and **declines**
/// ([`SymError::UnboundedVar`]) if any variable cannot be finitely
/// represented. The encoder is then used frame-by-frame:
/// [`StepEncoder::new_frame`] allocates the state bits of one time step,
/// [`StepEncoder::assert_initial`] pins frame 0 to the initial state, and
/// [`StepEncoder::encode_step`] adds the transition-relation clauses between
/// two consecutive frames.
pub struct StepEncoder<'a> {
    sys: &'a System,
    /// Proven `[lo, hi]` bound per flat store slot.
    ranges: Vec<(i64, i64)>,
    budget: u64,
    /// Lazily created literal that is constrained true (shared by all
    /// constant-valued gates).
    const_true: Option<Lit>,
    /// Indicator cases emitted so far (see [`StepEncoder::enumerated_cases`]).
    enumerated: u64,
}

impl<'a> StepEncoder<'a> {
    /// Build an encoder for `sys`.
    ///
    /// # Errors
    ///
    /// Returns [`SymError::UnboundedVar`] if the interval analysis cannot
    /// bound some variable — encoding such a system exactly is impossible
    /// with finite bit-vectors, and the encoder refuses to truncate.
    pub fn new(sys: &'a System) -> Result<StepEncoder<'a>, SymError> {
        let inferred = infer_ranges(sys);
        let mut ranges = Vec::with_capacity(inferred.len());
        for (flat, r) in inferred.iter().enumerate() {
            match r {
                Some((lo, hi)) => ranges.push((*lo, *hi)),
                None => {
                    let (comp, var) = flat_owner(sys, flat);
                    return Err(SymError::UnboundedVar {
                        component: sys.instance_name(comp).to_string(),
                        variable: sys.atom_type(comp).var_name(var).to_string(),
                    });
                }
            }
        }
        Ok(StepEncoder {
            sys,
            ranges,
            budget: DEFAULT_ENUM_BUDGET,
            const_true: None,
            enumerated: 0,
        })
    }

    /// Replace the support-enumeration budget (default
    /// [`DEFAULT_ENUM_BUDGET`]). It bounds only what is enumerated: shapes
    /// of the linear fragment (see the module docs) cost O(width) whatever
    /// their domain.
    #[must_use]
    pub fn enum_budget(mut self, budget: u64) -> StepEncoder<'a> {
        self.budget = budget.max(1);
        self
    }

    /// Indicator cases the case-split encoder has emitted through this
    /// encoder so far — 0 while every guard, update, transfer and comparison
    /// met was in the linear fragment. The observable face of the dispatch:
    /// a silent fallback shows as a count, not as a slow run.
    #[must_use]
    pub fn enumerated_cases(&self) -> u64 {
        self.enumerated
    }

    /// The proven `[lo, hi]` interval of flat store slot `flat`.
    #[must_use]
    pub fn var_range(&self, flat: usize) -> (i64, i64) {
        self.ranges[flat]
    }

    /// Total state bits per frame (location bits + variable bits).
    #[must_use]
    pub fn state_bits(&self) -> usize {
        let loc_bits: usize = (0..self.sys.num_components())
            .map(|c| width_for(self.sys.atom_type(c).locations().len() as u128))
            .sum();
        let var_bits: usize = self
            .ranges
            .iter()
            .map(|&(lo, hi)| width_for((hi as i128 - lo as i128 + 1) as u128))
            .sum();
        loc_bits + var_bits
    }

    // ---- constants and small gates -------------------------------------

    fn lit_const(&mut self, b: &mut CnfBuilder, v: bool) -> Lit {
        let t = *self.const_true.get_or_insert_with(|| {
            let l = Lit::pos(b.fresh());
            b.assert_lit(l);
            l
        });
        if v {
            t
        } else {
            !t
        }
    }

    fn and_lits(&mut self, b: &mut CnfBuilder, ls: Vec<Lit>) -> Lit {
        if ls.is_empty() {
            self.lit_const(b, true)
        } else {
            b.and(ls)
        }
    }

    fn or_lits(&mut self, b: &mut CnfBuilder, ls: Vec<Lit>) -> Lit {
        if ls.is_empty() {
            self.lit_const(b, false)
        } else {
            b.or(ls)
        }
    }

    fn sig_lit(&mut self, b: &mut CnfBuilder, s: Sig) -> Lit {
        match s {
            Sig::Const(v) => self.lit_const(b, v),
            Sig::Lit(l) => l,
        }
    }

    fn eq_lit(&mut self, b: &mut CnfBuilder, bv: &Bv, v: i64) -> Lit {
        let s = eq_sig(b, bv, v);
        self.sig_lit(b, s)
    }

    // ---- frames --------------------------------------------------------

    /// Allocate the state bit-vectors of one frame and constrain every code
    /// to its proven domain (`unsigned(bits) ≤ hi - lo`, the standard
    /// lexicographic comparison clauses — O(width²) literals, never an
    /// enumeration of forbidden codes).
    pub fn new_frame(&self, b: &mut CnfBuilder) -> SymFrame {
        let sys = self.sys;
        let mut locs = Vec::with_capacity(sys.num_components());
        for c in 0..sys.num_components() {
            let n = sys.atom_type(c).locations().len() as i64;
            locs.push(alloc_bv(b, 0, n - 1));
        }
        let vars = self
            .ranges
            .iter()
            .map(|&(lo, hi)| alloc_bv(b, lo, hi))
            .collect();
        SymFrame {
            locs,
            vars,
            at_loc: FxHashMap::default(),
            guards: FxHashMap::default(),
            offered: FxHashMap::default(),
            conn_guards: FxHashMap::default(),
        }
    }

    /// Pin `frame` to the system's initial state (unit clauses).
    pub fn assert_initial(&self, b: &mut CnfBuilder, frame: &SymFrame) {
        self.assert_state(b, frame, &self.sys.initial_state());
    }

    /// Pin `frame` to `st` (unit clauses).
    fn assert_state(&self, b: &mut CnfBuilder, frame: &SymFrame, st: &State) {
        for (c, bv) in frame.locs.iter().enumerate() {
            assert_bv_value(b, bv, i64::from(st.locs[c]));
        }
        for (i, bv) in frame.vars.iter().enumerate() {
            assert_bv_value(b, bv, st.vars[i]);
        }
    }

    /// Decode `frame`'s state bits out of a solver model (as returned by
    /// `satkit::Solver::model`). Unassigned bits decode as 0.
    #[must_use]
    pub fn decode_state(&self, frame: &SymFrame, model: &[Option<bool>]) -> State {
        let locs = frame
            .locs
            .iter()
            .map(|bv| decode_bv(bv, model) as u32)
            .collect();
        let vars = frame.vars.iter().map(|bv| decode_bv(bv, model)).collect();
        State { locs, vars }
    }

    /// An independent encoder over the same system: same inferred ranges and
    /// enumeration budget, but no cached per-builder literals, so it is safe
    /// to drive a *different* [`CnfBuilder`] (e.g. a second persistent solver
    /// running the inductive-step side of a k-induction proof while this one
    /// runs the base case). Reusing one encoder across builders would leak
    /// its cached constant-true literal into a foreign variable space.
    #[must_use]
    pub fn fork(&self) -> StepEncoder<'a> {
        StepEncoder {
            sys: self.sys,
            ranges: self.ranges.clone(),
            budget: self.budget,
            const_true: None,
            enumerated: 0,
        }
    }

    /// The packed state bits of `frame` in a fixed order (per-component
    /// location bits, then per-slot variable bits). Two frames of the same
    /// encoder denote equal states iff these literals take equal values —
    /// the variable map that simple-path distinctness constraints need.
    #[must_use]
    pub fn frame_bits(&self, frame: &SymFrame) -> Vec<Lit> {
        frame
            .locs
            .iter()
            .chain(frame.vars.iter())
            .flat_map(|bv| bv.bits.iter().copied())
            .collect()
    }

    /// Assert that two frames denote *different* states: for each state-bit
    /// pair a fresh difference literal `d` with `d → x ≠ y`, then one clause
    /// requiring some `d` true. With zero state bits (a one-state system)
    /// the clause is empty and the formula becomes unsatisfiable — correct,
    /// since no two distinct states exist.
    pub fn assert_frames_distinct(&self, b: &mut CnfBuilder, f: &SymFrame, g: &SymFrame) {
        let xs = self.frame_bits(f);
        let ys = self.frame_bits(g);
        debug_assert_eq!(xs.len(), ys.len());
        let mut diffs = Vec::with_capacity(xs.len());
        for (&x, &y) in xs.iter().zip(&ys) {
            let d = Lit::pos(b.fresh());
            b.clause([!d, x, y]);
            b.clause([!d, !x, !y]);
            diffs.push(d);
        }
        b.clause(diffs);
    }

    // ---- expression enumeration ----------------------------------------

    /// Enumerate `eval` over the product of the `items` domains.
    fn enumerate<F: Fn(&BTreeMap<Key, i64>) -> i64>(
        &mut self,
        b: &mut CnfBuilder,
        items: &[(Key, &Bv)],
        ctx: &dyn Fn() -> String,
        eval: F,
    ) -> Result<Cases, SymError> {
        let mut combos: u128 = 1;
        for (_, bv) in items {
            combos = combos.saturating_mul(bv.domain());
        }
        if combos > u128::from(self.budget) {
            return Err(SymError::SupportTooLarge {
                context: ctx(),
                combinations: combos,
                budget: self.budget,
            });
        }
        // Pass 1: concrete values for every assignment.
        let mut vals: Vec<i64> = items.iter().map(|(_, bv)| bv.lo).collect();
        let mut outs: Vec<i64> = Vec::with_capacity(combos as usize);
        'outer: loop {
            let m: BTreeMap<Key, i64> = items
                .iter()
                .zip(&vals)
                .map(|((k, _), &v)| (*k, v))
                .collect();
            outs.push(eval(&m));
            let mut i = 0;
            loop {
                if i == vals.len() {
                    break 'outer;
                }
                if vals[i] < items[i].1.hi {
                    vals[i] += 1;
                    break;
                }
                vals[i] = items[i].1.lo;
                i += 1;
            }
        }
        let first = outs[0];
        if outs.iter().all(|&v| v == first) {
            return Ok(Cases::Const(first));
        }
        // Pass 2: indicator literal per assignment. The indicators are
        // exhaustive (domain constraints forbid out-of-range codes) and
        // mutually exclusive (distinct assignments differ in some bit).
        let mut cases = Vec::with_capacity(outs.len());
        let mut vals: Vec<i64> = items.iter().map(|(_, bv)| bv.lo).collect();
        let mut idx = 0;
        'outer2: loop {
            let mut inds = Vec::with_capacity(items.len());
            for ((_, bv), &v) in items.iter().zip(&vals) {
                inds.push(self.eq_lit(b, bv, v));
            }
            let ind = self.and_lits(b, inds);
            cases.push((ind, outs[idx]));
            idx += 1;
            let mut i = 0;
            loop {
                if i == vals.len() {
                    break 'outer2;
                }
                if vals[i] < items[i].1.hi {
                    vals[i] += 1;
                    break;
                }
                vals[i] = items[i].1.lo;
                i += 1;
            }
        }
        self.enumerated += cases.len() as u64;
        Ok(Cases::Split(cases))
    }

    /// Turn enumerated cases into a derived bit-vector (fresh bits, pinned by
    /// the case indicators).
    fn cases_to_bv(&mut self, b: &mut CnfBuilder, cases: &Cases) -> Bv {
        match cases {
            Cases::Const(v) => Bv::constant(*v),
            Cases::Split(cs) => {
                let lo = cs.iter().map(|&(_, v)| v).min().expect("non-empty");
                let hi = cs.iter().map(|&(_, v)| v).max().expect("non-empty");
                let bv = alloc_bv_unconstrained(b, lo, hi);
                for &(ind, v) in cs {
                    for l in bv.code_lits(v) {
                        b.implies(ind, l);
                    }
                }
                bv
            }
        }
    }

    /// Turn enumerated cases into a truth value (`value != 0`).
    fn cases_to_pred(&mut self, b: &mut CnfBuilder, cases: &Cases) -> Sig {
        match cases {
            Cases::Const(v) => Sig::Const(*v != 0),
            Cases::Split(cs) => {
                let trues: Vec<Lit> = cs
                    .iter()
                    .filter(|&&(_, v)| v != 0)
                    .map(|&(l, _)| l)
                    .collect();
                if trues.len() == cs.len() {
                    Sig::Const(true)
                } else {
                    Sig::Lit(self.or_lits(b, trues))
                }
            }
        }
    }

    // ---- environments and the structural compiler -----------------------

    /// The bit-vector `key` denotes in `scope` over `frame`.
    fn key_bv<'f>(&self, frame: &'f SymFrame, scope: Scope<'f>, key: Key) -> &'f Bv {
        let sys = self.sys;
        match (scope, key) {
            (Scope::Local(comp, overrides), Key::Local(i)) => overrides
                .and_then(|o| o.get(&i))
                .unwrap_or(&frame.vars[sys.global_var(comp, i)]),
            (Scope::Conn(ci), Key::Param(k, v)) => {
                let (comp, _, _) = sys.resolved[ci][k as usize];
                &frame.vars[sys.global_var(comp, v)]
            }
            (Scope::Global, Key::Global(flat)) => &frame.vars[flat],
            _ => unreachable!("{key:?} is not a support variable of this scope"),
        }
    }

    /// The bit-vector of a linear term: the leaf's *own bits* under a
    /// shifted interval — zero clauses. `None` sends the caller to the case
    /// split: when the shifted interval leaves `i64` (wrapping must stay
    /// exact), and when the leaf is at most one bit wide — the case split of
    /// a one-bit variable *is* its truth table, and the formulas the search
    /// was tuned on keep their shape (module docs, "the one-bit rule").
    fn term_bv(&self, frame: &SymFrame, scope: Scope<'_>, t: Linear) -> Option<Bv> {
        let Some(key) = t.leaf else {
            return Some(Bv::constant(t.offset));
        };
        let bv = self.key_bv(frame, scope, key);
        if bv.bits.len() <= 1 {
            return None;
        }
        Some(Bv {
            lo: bv.lo.checked_add(t.offset)?,
            hi: bv.hi.checked_add(t.offset)?,
            bits: bv.bits.clone(),
        })
    }

    /// `x ⋈ y` with a term on one side and a constant on the other, as a
    /// comparator on the term's code. `None` outside the fragment.
    fn atom(
        &self,
        b: &mut CnfBuilder,
        frame: &SymFrame,
        scope: Scope<'_>,
        op: BinOp,
        x: Linear,
        y: Linear,
    ) -> Option<Sig> {
        let (term, c, op) = match (x.leaf, y.leaf) {
            (_, None) => (x, y.offset, op),
            (None, Some(_)) => (y, x.offset, mirrored(op)),
            (Some(_), Some(_)) => return None,
        };
        let bv = self.term_bv(frame, scope, term)?;
        cmp_const(b, &bv, op, c)
    }

    /// Truth (`value ≠ 0`) of `e` over `frame`: a comparison of the linear
    /// fragment is a comparator circuit, `And` / `Or` / `Not` / constants
    /// compose, and any other sub-expression is enumerated as a leaf.
    fn truth(
        &mut self,
        b: &mut CnfBuilder,
        frame: &SymFrame,
        scope: Scope<'_>,
        e: &Expr,
        ctx: &dyn Fn() -> String,
    ) -> Result<Sig, SymError> {
        match e {
            Expr::Const(c) => return Ok(Sig::Const(*c != 0)),
            Expr::Unary(UnOp::Not, x) => return Ok(!self.truth(b, frame, scope, x, ctx)?),
            Expr::Binary(op @ (BinOp::And | BinOp::Or), x, y) => {
                let p = self.truth(b, frame, scope, x, ctx)?;
                let q = self.truth(b, frame, scope, y, ctx)?;
                return Ok(if *op == BinOp::And {
                    sig_and(b, p, q)
                } else {
                    sig_or(b, p, q)
                });
            }
            Expr::Binary(op, x, y) => {
                if let (Some(x), Some(y)) = (linear_expr(x), linear_expr(y)) {
                    if let Some(s) = self.atom(b, frame, scope, *op, x, y) {
                        return Ok(s);
                    }
                }
            }
            _ => {}
        }
        let cases = self.expr_cases(b, frame, scope, e, ctx)?;
        Ok(self.cases_to_pred(b, &cases))
    }

    /// `e` as a term's bit-vector, if it is one (see [`Self::term_bv`]).
    fn term(&self, frame: &SymFrame, scope: Scope<'_>, e: &Expr) -> Option<Bv> {
        self.term_bv(frame, scope, linear_expr(e)?)
    }

    /// Enumerate `expr` over the product of its support's domains in
    /// `scope` — the encoder of everything outside the linear fragment.
    fn expr_cases(
        &mut self,
        b: &mut CnfBuilder,
        frame: &SymFrame,
        scope: Scope<'_>,
        expr: &Expr,
        ctx: &dyn Fn() -> String,
    ) -> Result<Cases, SymError> {
        let mut keys = BTreeSet::new();
        collect_expr_keys(expr, &mut keys);
        let items: Vec<(Key, &Bv)> = keys
            .iter()
            .map(|&k| (k, self.key_bv(frame, scope, k)))
            .collect();
        let nlocals = expr.max_var().map_or(0, |m| m as usize + 1);
        self.enumerate(
            b,
            &items,
            &|| format!("{}: {}", ctx(), outside_fragment(expr)),
            |m| {
                let mut locals = vec![0i64; nlocals];
                for (&k, &v) in m {
                    if let Key::Local(i) = k {
                        locals[i as usize] = v;
                    }
                }
                expr.eval(&locals, &|k, v| {
                    m.get(&Key::Param(k, v)).copied().unwrap_or(0)
                })
            },
        )
    }

    // ---- cached per-frame semantic literals ----------------------------

    /// Literal: component `comp` is at location `loc` in `frame`.
    fn at_loc_lit(
        &mut self,
        b: &mut CnfBuilder,
        frame: &mut SymFrame,
        comp: CompId,
        loc: u32,
    ) -> Lit {
        if let Some(&l) = frame.at_loc.get(&(comp, loc)) {
            return l;
        }
        let l = self.eq_lit(b, &frame.locs[comp], i64::from(loc));
        frame.at_loc.insert((comp, loc), l);
        l
    }

    /// Literal: the guard of transition `tid` of `comp` holds on `frame`'s
    /// pre-state.
    fn guard_lit(
        &mut self,
        b: &mut CnfBuilder,
        frame: &mut SymFrame,
        comp: CompId,
        tid: TransitionId,
    ) -> Result<Lit, SymError> {
        if let Some(&l) = frame.guards.get(&(comp, tid.0)) {
            return Ok(l);
        }
        let sys = self.sys;
        let guard = &sys.atom_type(comp).transition(tid).guard;
        let ctx = || {
            format!(
                "guard of transition {} of component {:?}",
                tid.0,
                sys.instance_name(comp)
            )
        };
        let s = self.truth(b, frame, Scope::Local(comp, None), guard, &ctx)?;
        let l = self.sig_lit(b, s);
        frame.guards.insert((comp, tid.0), l);
        Ok(l)
    }

    /// Literal: `comp` offers `port` in `frame` (some transition from the
    /// current location is labelled `port` and its guard holds).
    fn offered_lit(
        &mut self,
        b: &mut CnfBuilder,
        frame: &mut SymFrame,
        comp: CompId,
        port: PortId,
    ) -> Result<Lit, SymError> {
        if let Some(&l) = frame.offered.get(&(comp, port.0)) {
            return Ok(l);
        }
        let sys = self.sys;
        let ty = sys.atom_type(comp);
        let mut alts = Vec::new();
        for (i, t) in ty.transitions().iter().enumerate() {
            if t.port != Some(port) {
                continue;
            }
            let at = self.at_loc_lit(b, frame, comp, t.from.0);
            let g = self.guard_lit(b, frame, comp, TransitionId(i as u32))?;
            alts.push(self.and_lits(b, vec![at, g]));
        }
        let l = self.or_lits(b, alts);
        frame.offered.insert((comp, port.0), l);
        Ok(l)
    }

    /// Literal: connector `ci`'s guard holds on `frame`'s pre-state.
    fn conn_guard_lit(
        &mut self,
        b: &mut CnfBuilder,
        frame: &mut SymFrame,
        ci: usize,
    ) -> Result<Lit, SymError> {
        if let Some(&l) = frame.conn_guards.get(&ci) {
            return Ok(l);
        }
        let sys = self.sys;
        let conn = sys.connector(ConnId(ci as u32));
        let ctx = || format!("guard of connector {:?}", conn.name);
        let s = self.truth(b, frame, Scope::Conn(ci), &conn.guard, &ctx)?;
        let l = self.sig_lit(b, s);
        frame.conn_guards.insert(ci, l);
        Ok(l)
    }

    /// Literal: interaction `(ci, mask)` is enabled in `frame` (all masked
    /// endpoints offered ∧ connector guard). Not priority-filtered.
    fn int_enabled_lit(
        &mut self,
        b: &mut CnfBuilder,
        frame: &mut SymFrame,
        ci: usize,
        mask: u32,
    ) -> Result<Lit, SymError> {
        let sys = self.sys;
        let arity = sys.resolved[ci].len();
        let mut parts = Vec::new();
        for ep in mask_endpoints(mask, arity) {
            let (comp, port, _) = sys.resolved[ci][ep];
            parts.push(self.offered_lit(b, frame, comp, port)?);
        }
        parts.push(self.conn_guard_lit(b, frame, ci)?);
        Ok(self.and_lits(b, parts))
    }

    // ---- state predicates ----------------------------------------------

    /// Encode a [`StatePred`] over `frame` as a literal (Tseitin; exact).
    ///
    /// # Errors
    ///
    /// [`SymError::SupportTooLarge`] if a comparison's support exceeds the
    /// enumeration budget.
    pub fn encode_pred(
        &mut self,
        b: &mut CnfBuilder,
        frame: &mut SymFrame,
        pred: &StatePred,
    ) -> Result<Lit, SymError> {
        match pred {
            StatePred::True => Ok(self.lit_const(b, true)),
            StatePred::False => Ok(self.lit_const(b, false)),
            StatePred::AtLoc(comp, loc) => Ok(self.at_loc_lit(b, frame, *comp, *loc)),
            StatePred::Eq(x, y) => self.encode_cmp(b, frame, x, y, false),
            StatePred::Le(x, y) => self.encode_cmp(b, frame, x, y, true),
            StatePred::Not(p) => Ok(!self.encode_pred(b, frame, p)?),
            StatePred::And(ps) => {
                let mut ls = Vec::with_capacity(ps.len());
                for p in ps {
                    ls.push(self.encode_pred(b, frame, p)?);
                }
                Ok(self.and_lits(b, ls))
            }
            StatePred::Or(ps) => {
                let mut ls = Vec::with_capacity(ps.len());
                for p in ps {
                    ls.push(self.encode_pred(b, frame, p)?);
                }
                Ok(self.or_lits(b, ls))
            }
        }
    }

    /// `x ≤ y` / `x = y`: a comparator when one side is a term of the linear
    /// fragment and the other a constant, the case split otherwise.
    fn encode_cmp(
        &mut self,
        b: &mut CnfBuilder,
        frame: &SymFrame,
        x: &GExpr,
        y: &GExpr,
        le: bool,
    ) -> Result<Lit, SymError> {
        let sys = self.sys;
        if let (Some(p), Some(q)) = (linear_gexpr(sys, x), linear_gexpr(sys, y)) {
            let op = if le { BinOp::Le } else { BinOp::Eq };
            if let Some(s) = self.atom(b, frame, Scope::Global, op, p, q) {
                return Ok(self.sig_lit(b, s));
            }
        }
        let mut keys = BTreeSet::new();
        collect_gexpr_keys(sys, x, &mut keys);
        collect_gexpr_keys(sys, y, &mut keys);
        let items: Vec<(Key, &Bv)> = keys
            .iter()
            .map(|&k| (k, self.key_bv(frame, Scope::Global, k)))
            .collect();
        let ctx = || {
            format!(
                "{} state predicate: {NOT_LINEAR_SHAPE}",
                if le { "Le" } else { "Eq" }
            )
        };
        let cases = self.enumerate(b, &items, &ctx, |m| {
            let a = geval(sys, x, m);
            let bb = geval(sys, y, m);
            i64::from(if le { a <= bb } else { a == bb })
        })?;
        let s = self.cases_to_pred(b, &cases);
        Ok(self.sig_lit(b, s))
    }

    // ---- the transition relation ---------------------------------------

    /// Add the clauses constraining `next` to be a successor of `cur`:
    /// exactly one enabled, priority-surviving action fires, with the
    /// concrete transfer/update/frame-condition effects.
    ///
    /// If the system has no statically possible action at all, the frame is
    /// unsatisfiable (an empty clause is added) — correct, since no state
    /// has a successor.
    ///
    /// # Errors
    ///
    /// [`SymError::SupportTooLarge`] if some guard, transfer, or update
    /// exceeds the enumeration budget.
    pub fn encode_step(
        &mut self,
        b: &mut CnfBuilder,
        cur: &mut SymFrame,
        next: &SymFrame,
    ) -> Result<StepVars, SymError> {
        let sys = self.sys;
        let nconn = sys.num_connectors();

        // 1. Enabledness literal per (connector, feasible mask) — needed both
        //    by the selectors and by the priority vetoes.
        let mut enabled: Vec<Vec<(u32, Lit)>> = Vec::with_capacity(nconn);
        for ci in 0..nconn {
            let masks = sys.compiled.feasible_masks(ConnId(ci as u32));
            let mut row = Vec::with_capacity(masks.len());
            for &mask in masks {
                let l = self.int_enabled_lit(b, cur, ci, mask)?;
                row.push((mask, l));
            }
            enabled.push(row);
        }

        // 2. Selectors: one per feasible interaction, one per internal
        //    transition. A selector implies enabledness and the absence of
        //    every priority veto (mirroring `dominated_compiled`).
        let mut actions: Vec<ActionVar> = Vec::new();
        for ci in 0..nconn {
            for mi in 0..enabled[ci].len() {
                let (mask, en) = enabled[ci][mi];
                let sel = Lit::pos(b.fresh());
                b.implies(sel, en);

                // Guarded priority rules: `low < high when guard`.
                for rule in &sys.priority().rules {
                    if rule.low.0 as usize != ci {
                        continue;
                    }
                    let hi = rule.high.0 as usize;
                    let higher: Vec<Lit> = enabled[hi]
                        .iter()
                        .filter(|&&(m, _)| hi != ci || m != mask)
                        .map(|&(_, l)| l)
                        .collect();
                    if higher.is_empty() {
                        continue;
                    }
                    let gp = self.encode_pred(b, cur, &rule.guard)?;
                    let any_higher = self.or_lits(b, higher);
                    let veto = self.and_lits(b, vec![gp, any_higher]);
                    b.implies(sel, !veto);
                }

                // Maximal progress: a strictly larger enabled interaction of
                // the same connector vetoes this one.
                if sys.priority().maximal_progress {
                    let sups: Vec<Lit> = enabled[ci]
                        .iter()
                        .filter(|&&(m, _)| m != mask && m & mask == mask)
                        .map(|&(_, l)| l)
                        .collect();
                    if !sups.is_empty() {
                        let any_sup = self.or_lits(b, sups);
                        b.implies(sel, !any_sup);
                    }
                }

                // Per-endpoint transition choice.
                let arity = sys.resolved[ci].len();
                let mut choices = Vec::new();
                for ep in mask_endpoints(mask, arity) {
                    let (comp, port, _) = sys.resolved[ci][ep];
                    let ty = sys.atom_type(comp);
                    let mut cands = Vec::new();
                    for (i, t) in ty.transitions().iter().enumerate() {
                        if t.port != Some(port) {
                            continue;
                        }
                        let tid = TransitionId(i as u32);
                        let ch = Lit::pos(b.fresh());
                        b.implies(ch, sel);
                        let at = self.at_loc_lit(b, cur, comp, t.from.0);
                        b.implies(ch, at);
                        let g = self.guard_lit(b, cur, comp, tid)?;
                        b.implies(ch, g);
                        cands.push((tid, ch));
                    }
                    // The selector forces a choice at this endpoint, and at
                    // most one choice is taken.
                    let mut cl: Vec<Lit> = cands.iter().map(|&(_, c)| c).collect();
                    cl.push(!sel);
                    b.clause(cl);
                    b.at_most_one(cands.iter().map(|&(_, c)| c));
                    choices.push((comp, cands));
                }
                actions.push(ActionVar::Interaction {
                    conn: ci,
                    mask,
                    sel,
                    choices,
                });
            }
        }
        for comp in 0..sys.num_components() {
            let ty = sys.atom_type(comp);
            for (i, t) in ty.transitions().iter().enumerate() {
                if t.port.is_some() {
                    continue;
                }
                let tid = TransitionId(i as u32);
                let sel = Lit::pos(b.fresh());
                let at = self.at_loc_lit(b, cur, comp, t.from.0);
                b.implies(sel, at);
                let g = self.guard_lit(b, cur, comp, tid)?;
                b.implies(sel, g);
                actions.push(ActionVar::Internal { comp, tid, sel });
            }
        }

        // 3. Exactly one action fires.
        let sels: Vec<Lit> = actions.iter().map(action_sel).collect();
        b.exactly_one(sels.iter().copied());

        // 4. Effects.
        let mut movers: Vec<Vec<Lit>> = vec![Vec::new(); sys.num_components()];
        for action in &actions {
            match action {
                ActionVar::Interaction {
                    conn: ci,
                    mask,
                    sel,
                    choices,
                } => {
                    self.encode_interaction_effects(b, cur, next, *ci, *mask, *sel, choices)?;
                    for &(comp, _) in choices {
                        movers[comp].push(*sel);
                    }
                }
                ActionVar::Internal { comp, tid, sel } => {
                    self.encode_local_effects(b, cur, next, *comp, *tid, &[*sel], None)?;
                    movers[*comp].push(*sel);
                }
            }
        }

        // 5. Frame condition: a component not touched by the fired action
        //    keeps its location and variables.
        for (comp, moved) in movers.iter().enumerate() {
            let keep_iff = |b: &mut CnfBuilder, a: Lit, z: Lit| {
                let mut cl: Vec<Lit> = moved.clone();
                cl.push(!a);
                cl.push(z);
                b.clause(cl);
                let mut cl: Vec<Lit> = moved.clone();
                cl.push(a);
                cl.push(!z);
                b.clause(cl);
            };
            for (a, z) in cur.locs[comp].bits.iter().zip(&next.locs[comp].bits) {
                keep_iff(b, *a, *z);
            }
            let base = sys.var_offsets[comp];
            let nvars = sys.atom_type(comp).vars().len();
            for flat in base..base + nvars {
                for (a, z) in cur.vars[flat].bits.iter().zip(&next.vars[flat].bits) {
                    keep_iff(b, *a, *z);
                }
            }
        }

        Ok(StepVars { actions })
    }

    /// Effects of interaction `(ci, mask)` under `sel`: data transfer over
    /// the pre-state, then per-participant location change and updates.
    #[allow(clippy::too_many_arguments)]
    fn encode_interaction_effects(
        &mut self,
        b: &mut CnfBuilder,
        cur: &SymFrame,
        next: &SymFrame,
        ci: usize,
        mask: u32,
        sel: Lit,
        choices: &[(CompId, Vec<(TransitionId, Lit)>)],
    ) -> Result<(), SymError> {
        let sys = self.sys;
        // Transfer: simultaneous over the pre-state, last write wins,
        // restricted to participating endpoints. A transferred term *is*
        // its source's bits; anything else gets fresh bits pinned per case.
        let mut mid: FxHashMap<(CompId, u32), Bv> = FxHashMap::default();
        let conn = sys.connector(ConnId(ci as u32));
        for (ep, var, expr) in &conn.transfer {
            if !crate::exec::mask_contains(mask, *ep as usize) {
                continue;
            }
            let (comp, _, _) = sys.resolved[ci][*ep as usize];
            let scope = Scope::Conn(ci);
            let bv = match self.term(cur, scope, expr) {
                Some(term) => term,
                None => {
                    let ctx = || format!("transfer to endpoint {ep} of connector {:?}", conn.name);
                    let cases = self.expr_cases(b, cur, scope, expr, &ctx)?;
                    self.cases_to_bv(b, &cases)
                }
            };
            mid.insert((comp, *var), bv);
        }
        for (comp, cands) in choices {
            let comp = *comp;
            let per_comp: FxHashMap<u32, Bv> = mid
                .iter()
                .filter(|((c, _), _)| *c == comp)
                .map(|((_, v), bv)| (*v, bv.clone()))
                .collect();
            let overrides = if per_comp.is_empty() {
                None
            } else {
                Some(per_comp)
            };
            for &(tid, ch) in cands {
                self.encode_local_effects(b, cur, next, comp, tid, &[sel, ch], overrides.as_ref())?;
            }
        }
        Ok(())
    }

    /// Effects of one component firing transition `tid` under `conds`:
    /// location change, updates over the (post-transfer) mid-state, and
    /// pass-through of every variable the transition does not update.
    #[allow(clippy::too_many_arguments)]
    fn encode_local_effects(
        &mut self,
        b: &mut CnfBuilder,
        cur: &SymFrame,
        next: &SymFrame,
        comp: CompId,
        tid: TransitionId,
        conds: &[Lit],
        overrides: Option<&FxHashMap<u32, Bv>>,
    ) -> Result<(), SymError> {
        let sys = self.sys;
        let ty = sys.atom_type(comp);
        let t = ty.transition(tid);
        assign_value(b, conds, i64::from(t.to.0), &next.locs[comp]);
        // Simultaneous updates over the mid-state; a later update of the
        // same variable overwrites an earlier one (matching `apply_updates`).
        let mut effective: BTreeMap<u32, &Expr> = BTreeMap::new();
        for (v, e) in &t.updates {
            effective.insert(v.0, e);
        }
        let scope = Scope::Local(comp, overrides);
        let nvars = ty.vars().len() as u32;
        for v in 0..nvars {
            let target = &next.vars[sys.global_var(comp, v)];
            let Some(expr) = effective.get(&v) else {
                assign_bv(b, conds, self.key_bv(cur, scope, Key::Local(v)), target);
                continue;
            };
            if let Some(src) = self.term(cur, scope, expr) {
                assign_bv(b, conds, &src, target);
            } else {
                let ctx = || {
                    format!(
                        "update of {:?} in transition {} of component {:?}",
                        ty.var_name(crate::atom::VarId(v)),
                        tid.0,
                        sys.instance_name(comp)
                    )
                };
                let cases = self.expr_cases(b, cur, scope, expr, &ctx)?;
                assign_cases(b, conds, &cases, target);
            }
        }
        Ok(())
    }

    // ---- decoding -------------------------------------------------------

    /// Decode the [`Step`] fired between two frames out of a solver model.
    /// Returns `None` if no selector (or no endpoint choice) is set — which
    /// indicates an encoder bug, never a property of the system.
    #[must_use]
    pub fn decode_step(&self, sv: &StepVars, model: &[Option<bool>]) -> Option<Step> {
        let sys = self.sys;
        for action in &sv.actions {
            match action {
                ActionVar::Interaction {
                    conn,
                    mask,
                    sel,
                    choices,
                } => {
                    if !lit_true(model, *sel) {
                        continue;
                    }
                    let arity = sys.resolved[*conn].len();
                    let endpoints: Vec<usize> = mask_endpoints(*mask, arity).collect();
                    let mut transitions = Vec::with_capacity(choices.len());
                    for (comp, cands) in choices {
                        let (tid, _) = cands.iter().find(|&&(_, c)| lit_true(model, c))?;
                        transitions.push((*comp, *tid));
                    }
                    return Some(Step::Interaction {
                        interaction: Interaction {
                            connector: ConnId(*conn as u32),
                            endpoints,
                        },
                        transitions,
                    });
                }
                ActionVar::Internal { comp, tid, sel } => {
                    if lit_true(model, *sel) {
                        return Some(Step::Internal {
                            component: *comp,
                            transition: *tid,
                        });
                    }
                }
            }
        }
        None
    }
}

/// The selector literal of an action.
fn action_sel(a: &ActionVar) -> Lit {
    match a {
        ActionVar::Interaction { sel, .. } | ActionVar::Internal { sel, .. } => *sel,
    }
}

/// Truth of `l` in a model snapshot (unassigned counts as false).
fn lit_true(model: &[Option<bool>], l: Lit) -> bool {
    model.get(l.var().index()).copied().flatten() == Some(l.sign())
}

/// Which component owns flat store slot `flat`, and which local variable it
/// is.
fn flat_owner(sys: &System, flat: usize) -> (CompId, crate::atom::VarId) {
    let mut comp = 0;
    for c in 0..sys.num_components() {
        if sys.var_offsets[c] <= flat {
            comp = c;
        } else {
            break;
        }
    }
    (
        comp,
        crate::atom::VarId((flat - sys.var_offsets[comp]) as u32),
    )
}

/// `bv == v` (exact; constant false if out of range): one AND over the
/// code's bits.
fn eq_sig(b: &mut CnfBuilder, bv: &Bv, v: i64) -> Sig {
    if v < bv.lo || v > bv.hi {
        return Sig::Const(false);
    }
    if bv.bits.is_empty() {
        return Sig::Const(true);
    }
    Sig::Lit(b.and(bv.code_lits(v)))
}

/// `bv ≤ c` as `unsigned(bits) ≤ m` with `m = c − lo`: scanning from the
/// least significant bit, `le` says "the bits so far are ≤ `m`'s"; a
/// 1-bit of `m` lets a 0-bit of the code decide (`¬x ∨ le`), a 0-bit
/// demands one (`¬x ∧ le`). One gate per bit, constants folded; `c`
/// outside `[lo, hi]` folds to a constant because the frame's domain
/// clauses keep the code within `hi − lo`.
fn le_const(b: &mut CnfBuilder, bv: &Bv, c: i64) -> Sig {
    if c < bv.lo {
        return Sig::Const(false);
    }
    if c >= bv.hi {
        return Sig::Const(true);
    }
    let m = (c as i128 - bv.lo as i128) as u128;
    let mut le = Sig::Const(true);
    for (j, &x) in bv.bits.iter().enumerate() {
        le = if m >> j & 1 == 1 {
            sig_or(b, Sig::Lit(!x), le)
        } else {
            sig_and(b, Sig::Lit(!x), le)
        };
    }
    le
}

/// `bv ⋈ c` for the six comparison operators (`None` for any other).
fn cmp_const(b: &mut CnfBuilder, bv: &Bv, op: BinOp, c: i64) -> Option<Sig> {
    // `bv < c` is `bv ≤ c − 1`; nothing is below `i64::MIN`.
    let lt = |b: &mut CnfBuilder| {
        c.checked_sub(1)
            .map_or(Sig::Const(false), |c1| le_const(b, bv, c1))
    };
    Some(match op {
        BinOp::Le => le_const(b, bv, c),
        BinOp::Gt => !le_const(b, bv, c),
        BinOp::Lt => lt(b),
        BinOp::Ge => !lt(b),
        BinOp::Eq => eq_sig(b, bv, c),
        BinOp::Ne => !eq_sig(b, bv, c),
        _ => return None,
    })
}

/// `op` with its operands exchanged (`c ⋈ term` read as `term ⋈' c`).
fn mirrored(op: BinOp) -> BinOp {
    match op {
        BinOp::Lt => BinOp::Gt,
        BinOp::Le => BinOp::Ge,
        BinOp::Gt => BinOp::Lt,
        BinOp::Ge => BinOp::Le,
        other => other,
    }
}

/// Under `conds` (all true), force `target == v`. Values outside the
/// target's proven domain forbid `conds` instead — sound because the
/// interval analysis guarantees in-domain results exactly when the
/// guard/selector conditions implied by `conds` hold.
fn assign_value(b: &mut CnfBuilder, conds: &[Lit], v: i64, target: &Bv) {
    if v < target.lo || v > target.hi {
        b.clause(conds.iter().map(|&c| !c));
        return;
    }
    for l in target.code_lits(v) {
        b.clause(conds.iter().map(|&c| !c).chain([l]));
    }
}

/// Under `conds`, force `target` to take the enumerated value.
fn assign_cases(b: &mut CnfBuilder, conds: &[Lit], cases: &Cases, target: &Bv) {
    match cases {
        Cases::Const(v) => assign_value(b, conds, *v, target),
        Cases::Split(cs) => {
            for &(ind, v) in cs {
                let mut c2 = conds.to_vec();
                c2.push(ind);
                assign_value(b, &c2, v, target);
            }
        }
    }
}

/// Under `conds`, force `target == src` for two bit-vectors: one
/// add-constant circuit on the difference of their offsets,
/// `e = src.lo − target.lo`. The codes must satisfy `target = src + e`
/// (`e ≥ 0`) or `src = target + |e|` (`e < 0`) *as integers*, which
/// determines the target uniquely and has no solution exactly when
/// `src`'s value is below `target.lo`; a value above `target.hi` is a code
/// the target's own domain clauses reject. Either way an out-of-range value
/// forbids `conds` — the rule [`assign_value`] states. With `e = 0` every
/// sum bit folds to the source bit and this is the plain bit copy.
fn assign_bv(b: &mut CnfBuilder, conds: &[Lit], src: &Bv, target: &Bv) {
    let e = src.lo as i128 - target.lo as i128;
    if e >= 0 {
        assign_sum(b, conds, &src.bits, e as u128, &target.bits);
    } else {
        assign_sum(b, conds, &target.bits, e.unsigned_abs(), &src.bits);
    }
}

/// Under `conds`: `unsigned(y) = unsigned(x) + k`, exactly (no wrap-around).
/// A ripple adder with one constant operand: per bit one XOR for the sum and
/// one AND (`k`'s bit 0) or OR (bit 1) for the carry, constants folded; sum
/// bit `j` is tied to `y[j]`, and a sum bit beyond `y`'s width must be 0.
fn assign_sum(b: &mut CnfBuilder, conds: &[Lit], x: &[Lit], k: u128, y: &[Lit]) {
    let not_conds: Vec<Lit> = conds.iter().map(|&c| !c).collect();
    let under = |b: &mut CnfBuilder, ls: &[Lit]| {
        b.clause(not_conds.iter().chain(ls).copied());
    };
    // One bit past the wider operand holds the last carry; above it the sum
    // is all zeros.
    let k_width = (128 - k.leading_zeros()) as usize;
    let sum_width = x.len().max(k_width) + 1;
    let mut carry = Sig::Const(false);
    for j in 0..sum_width.max(y.len()) {
        let a = x.get(j).map_or(Sig::Const(false), |&l| Sig::Lit(l));
        let kj = k >> j & 1 == 1;
        let s = sig_xor(b, a, carry);
        let s = if kj { !s } else { s };
        carry = if kj {
            sig_or(b, a, carry)
        } else {
            sig_and(b, a, carry)
        };
        match (y.get(j), s) {
            (Some(&t), Sig::Lit(s)) => {
                under(b, &[!s, t]);
                under(b, &[s, !t]);
            }
            (Some(&t), Sig::Const(v)) => under(b, &[if v { t } else { !t }]),
            (None, Sig::Lit(s)) => under(b, &[!s]),
            (None, Sig::Const(true)) => under(b, &[]),
            (None, Sig::Const(false)) => {}
        }
    }
}

/// Allocate a `[lo, hi]` bit-vector with domain constraints
/// (`unsigned(bits) ≤ hi - lo` via lexicographic comparison clauses).
fn alloc_bv(b: &mut CnfBuilder, lo: i64, hi: i64) -> Bv {
    let bv = alloc_bv_unconstrained(b, lo, hi);
    if bv.bits.is_empty() {
        return bv;
    }
    let m = (hi as i128 - lo as i128) as u128;
    let w = bv.bits.len();
    for j in 0..w {
        if m >> j & 1 == 1 {
            continue;
        }
        // x_j = 1 forces some higher bit below its bound-bit.
        let mut cl = vec![!bv.bits[j]];
        for i in j + 1..w {
            if m >> i & 1 == 1 {
                cl.push(!bv.bits[i]);
            }
        }
        b.clause(cl);
    }
    bv
}

/// Allocate `[lo, hi]` bits without domain constraints (for derived values
/// whose bits are pinned by exhaustive indicators).
fn alloc_bv_unconstrained(b: &mut CnfBuilder, lo: i64, hi: i64) -> Bv {
    debug_assert!(lo <= hi);
    let w = width_for((hi as i128 - lo as i128 + 1) as u128);
    let bits = (0..w).map(|_| Lit::pos(b.fresh())).collect();
    Bv { lo, hi, bits }
}

/// Pin a bit-vector to a concrete value with unit clauses.
fn assert_bv_value(b: &mut CnfBuilder, bv: &Bv, v: i64) {
    assert!(
        (bv.lo..=bv.hi).contains(&v),
        "value {v} outside proven domain [{}, {}]",
        bv.lo,
        bv.hi
    );
    for l in bv.code_lits(v) {
        b.assert_lit(l);
    }
}

/// Value of a bit-vector in a model snapshot.
fn decode_bv(bv: &Bv, model: &[Option<bool>]) -> i64 {
    let mut code: i128 = 0;
    for (j, &bit) in bv.bits.iter().enumerate() {
        if lit_true(model, bit) {
            code |= 1 << j;
        }
    }
    (bv.lo as i128 + code) as i64
}

/// Said in a decline's context when no single operator is to blame.
const NOT_LINEAR_SHAPE: &str = "not a `var ± const ⋈ const` shape (a product, two variables, \
                                `const − var`, or a support of at most one bit)";

/// Why `e` was enumerated, for a decline's context: the first operator
/// (pre-order) that the linear fragment has no circuit for, else the shape.
fn outside_fragment(e: &Expr) -> String {
    fn culprit(e: &Expr) -> Option<String> {
        match e {
            Expr::Const(_) | Expr::Var(_) | Expr::Param(..) => None,
            Expr::Unary(UnOp::Not, x) => culprit(x),
            Expr::Unary(op, _) => Some(format!("{op:?}")),
            Expr::Binary(
                op @ (BinOp::Mul | BinOp::Div | BinOp::Rem | BinOp::Min | BinOp::Max),
                ..,
            ) => Some(format!("{op:?}")),
            Expr::Binary(_, x, y) => culprit(x).or_else(|| culprit(y)),
            Expr::Ite(..) => Some("Ite".to_string()),
        }
    }
    match culprit(e) {
        Some(op) => format!("`{op}` is outside the linear fragment"),
        None => NOT_LINEAR_SHAPE.to_string(),
    }
}

fn collect_expr_keys(e: &Expr, out: &mut BTreeSet<Key>) {
    match e {
        Expr::Const(_) => {}
        Expr::Var(i) => {
            out.insert(Key::Local(*i));
        }
        Expr::Param(k, v) => {
            out.insert(Key::Param(*k, *v));
        }
        Expr::Unary(_, x) => collect_expr_keys(x, out),
        Expr::Binary(_, x, y) => {
            collect_expr_keys(x, out);
            collect_expr_keys(y, out);
        }
        Expr::Ite(c, t, f) => {
            collect_expr_keys(c, out);
            collect_expr_keys(t, out);
            collect_expr_keys(f, out);
        }
    }
}

fn collect_gexpr_keys(sys: &System, g: &GExpr, out: &mut BTreeSet<Key>) {
    match g {
        GExpr::Const(_) => {}
        GExpr::Var(comp, v) => {
            out.insert(Key::Global(sys.global_var(*comp, *v)));
        }
        GExpr::Add(x, y) | GExpr::Sub(x, y) | GExpr::Mul(x, y) => {
            collect_gexpr_keys(sys, x, out);
            collect_gexpr_keys(sys, y, out);
        }
    }
}

/// Concrete evaluation of a [`GExpr`] over an enumerated assignment
/// (wrapping arithmetic, matching `GExpr::eval`).
fn geval(sys: &System, g: &GExpr, m: &BTreeMap<Key, i64>) -> Value {
    match g {
        GExpr::Const(c) => *c,
        GExpr::Var(comp, v) => m
            .get(&Key::Global(sys.global_var(*comp, *v)))
            .copied()
            .unwrap_or(0),
        GExpr::Add(x, y) => geval(sys, x, m).wrapping_add(geval(sys, y, m)),
        GExpr::Sub(x, y) => geval(sys, x, m).wrapping_sub(geval(sys, y, m)),
        GExpr::Mul(x, y) => geval(sys, x, m).wrapping_mul(geval(sys, y, m)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{dining_philosophers, SystemBuilder};
    use crate::{AtomBuilder, ConnectorBuilder};
    use std::collections::BTreeSet as Set;

    /// Enumerate all `(step, successor)` pairs of `st` concretely.
    fn concrete_successors(sys: &System, st: &State) -> Vec<(Step, State)> {
        sys.successors(st)
    }

    /// Enumerate all `(step, successor)` pairs of `start` symbolically by
    /// blocking models, and compare with the concrete set.
    fn assert_one_step_agrees(sys: &System, start: &State, max_models: usize) {
        let mut enc = StepEncoder::new(sys).expect("encodable");
        let mut b = CnfBuilder::new();
        let mut f0 = enc.new_frame(&mut b);
        let f1 = enc.new_frame(&mut b);
        enc.assert_state(&mut b, &f0, start);
        let sv = enc
            .encode_step(&mut b, &mut f0, &f1)
            .expect("encodable step");

        let want: Set<(Vec<u8>, Vec<u8>)> = concrete_successors(sys, start)
            .into_iter()
            .map(|(step, s)| (fmt_step(&step), fmt_state(&s)))
            .collect();

        let mut got = Set::new();
        for _ in 0..max_models {
            if !b.solver_mut().solve().is_sat() {
                break;
            }
            let model = b.solver_mut().model();
            let step = enc.decode_step(&sv, &model).expect("a selector is set");
            let succ = enc.decode_state(&f1, &model);
            assert_eq!(
                &enc.decode_state(&f0, &model),
                start,
                "frame 0 must decode to the start state"
            );
            got.insert((fmt_step(&step), fmt_state(&succ)));
            // Block this (step, successor) pair: at least one decision bit
            // must differ. Blocking on the selector/choice/successor bits is
            // enough to enumerate distinct pairs.
            let mut block = Vec::new();
            for a in &sv.actions {
                let sel = action_sel(a);
                block.push(if lit_true(&model, sel) { !sel } else { sel });
                if let ActionVar::Interaction { choices, .. } = a {
                    for (_, cands) in choices {
                        for &(_, c) in cands {
                            block.push(if lit_true(&model, c) { !c } else { c });
                        }
                    }
                }
            }
            for bv in f1.locs.iter().chain(f1.vars.iter()) {
                for &bit in &bv.bits {
                    block.push(if lit_true(&model, bit) { !bit } else { bit });
                }
            }
            b.clause(block);
        }
        assert_eq!(
            got, want,
            "symbolic and concrete one-step successors of {start:?} differ"
        );
    }

    /// [`assert_one_step_agrees`] from every reachable state (at most `cap`).
    fn assert_every_step_agrees(sys: &System, cap: usize) {
        let mut seen = vec![sys.initial_state()];
        let mut next = 0;
        while next < seen.len() {
            let st = seen[next].clone();
            next += 1;
            assert_one_step_agrees(sys, &st, 64);
            for (_, succ) in sys.successors(&st) {
                if !seen.contains(&succ) {
                    assert!(seen.len() < cap, "more than {cap} reachable states");
                    seen.push(succ);
                }
            }
        }
    }

    fn fmt_state(s: &State) -> Vec<u8> {
        format!("{s:?}").into_bytes()
    }

    fn fmt_step(s: &Step) -> Vec<u8> {
        format!("{s:?}").into_bytes()
    }

    /// One component `c` with one variable `n` and one internal self-loop.
    fn one_counter(init: i64, guard: Expr, update: Expr) -> System {
        let counter = AtomBuilder::new("counter")
            .location("run")
            .initial("run")
            .var("n", init)
            .internal_transition("run", guard, vec![("n", update)], "run")
            .build()
            .unwrap();
        let mut sb = SystemBuilder::new();
        sb.add_instance("c", &counter);
        sb.build().unwrap()
    }

    /// `n` steps from `lo` up to `hi`, so the analysis proves `[lo, hi]`.
    fn up_counter(lo: i64, hi: i64) -> System {
        one_counter(
            lo,
            Expr::var(0).lt(Expr::int(hi)),
            Expr::var(0).add(Expr::int(1)),
        )
    }

    fn counter_system(limit: i64) -> System {
        up_counter(0, limit)
    }

    /// The literals pinning `bv` to `v`, as solver assumptions.
    fn pin(bv: &Bv, v: i64) -> Vec<Lit> {
        bv.code_lits(v).collect()
    }

    const CMP_OPS: [BinOp; 6] = [
        BinOp::Lt,
        BinOp::Le,
        BinOp::Gt,
        BinOp::Ge,
        BinOp::Eq,
        BinOp::Ne,
    ];

    /// The compiled truth of `e` over `frame`'s only variable is forced to
    /// `Expr::eval`'s answer at every value of its range.
    fn assert_truth_matches_eval(
        enc: &mut StepEncoder,
        b: &mut CnfBuilder,
        frame: &SymFrame,
        e: &Expr,
    ) {
        let ctx = || "test".to_string();
        let s = enc.truth(b, frame, Scope::Local(0, None), e, &ctx).unwrap();
        let l = enc.sig_lit(b, s);
        let (lo, hi) = enc.var_range(0);
        for v in lo..=hi {
            let want = e.eval_local(&[v]) != 0;
            let mut assume = pin(&frame.vars[0], v);
            assume.push(l);
            let holds = b.solver_mut().solve_with(&assume).is_sat();
            *assume.last_mut().unwrap() = !l;
            let fails = b.solver_mut().solve_with(&assume).is_sat();
            assert_eq!(
                (holds, fails),
                (want, !want),
                "{e:?} at n = {v} over [{lo}, {hi}]"
            );
        }
    }

    #[test]
    fn comparators_match_eval_on_every_value() {
        for lo in [-5i64, 0, 3] {
            for span in [1i64, 2, 4, 6, 7, 12] {
                let hi = lo + span;
                let sys = up_counter(lo, hi);
                let mut enc = StepEncoder::new(&sys).unwrap();
                assert_eq!(enc.var_range(0), (lo, hi));
                let mut b = CnfBuilder::new();
                let f = enc.new_frame(&mut b);
                let consts = (lo - 2..=hi + 2).chain([i64::MIN, i64::MAX]);
                for c in consts {
                    for op in CMP_OPS {
                        let (var, k) = (Box::new(Expr::var(0)), Box::new(Expr::int(c)));
                        for e in [
                            Expr::Binary(op, var.clone(), k.clone()),
                            Expr::Binary(op, k, var),
                        ] {
                            assert_truth_matches_eval(&mut enc, &mut b, &f, &e);
                        }
                    }
                }
                // Two bits and up are circuits; one bit keeps the case split.
                assert_eq!(enc.enumerated_cases() == 0, span > 1, "[{lo}, {hi}]");
            }
        }
    }

    #[test]
    fn offsets_that_leave_i64_keep_wrapping_exact() {
        // `eval` wraps; a shifted interval cannot, so these terms go to the
        // case split — and offsets that only pass through an extreme and
        // come back (`n + MAX − MAX`) stay circuits.
        let sys = up_counter(-3, 4);
        let n = || Expr::var(0);
        let wrapping = [
            n().add(Expr::int(i64::MAX)).lt(Expr::int(0)),
            n().add(Expr::int(i64::MIN)).gt(Expr::int(0)),
            n().sub(Expr::int(i64::MAX)).le(Expr::int(-i64::MAX)),
            n().sub(Expr::int(i64::MIN)).ge(Expr::int(0)),
            n().add(Expr::int(i64::MAX))
                .add(Expr::int(i64::MAX))
                .eq(Expr::int(-1)),
        ];
        for e in &wrapping {
            let mut enc = StepEncoder::new(&sys).unwrap();
            let mut b = CnfBuilder::new();
            let f = enc.new_frame(&mut b);
            assert_truth_matches_eval(&mut enc, &mut b, &f, e);
            assert!(enc.enumerated_cases() > 0, "{e:?} must not be a circuit");
        }
        let back = n()
            .add(Expr::int(i64::MAX))
            .sub(Expr::int(i64::MAX))
            .lt(Expr::int(2));
        let mut enc = StepEncoder::new(&sys).unwrap();
        let mut b = CnfBuilder::new();
        let f = enc.new_frame(&mut b);
        assert_truth_matches_eval(&mut enc, &mut b, &f, &back);
        assert_eq!(enc.enumerated_cases(), 0);
    }

    #[test]
    fn assignment_is_exact_on_every_value() {
        // (source, target) intervals: overlapping, nested either way,
        // missing each other on either side, below zero, and a constant on
        // either side.
        let pairs = [
            ((0, 5), (3, 9)),
            ((2, 4), (0, 12)),
            ((0, 12), (3, 6)),
            ((0, 3), (10, 13)),
            ((10, 13), (0, 3)),
            ((-5, 1), (-2, 4)),
            ((7, 7), (0, 9)),
            ((0, 9), (3, 3)),
        ];
        for ((slo, shi), (tlo, thi)) in pairs {
            for d in -4i64..=4 {
                let mut b = CnfBuilder::new();
                let var = alloc_bv(&mut b, slo, shi);
                let src = Bv {
                    lo: slo + d,
                    hi: shi + d,
                    bits: var.bits.clone(),
                };
                let target = alloc_bv(&mut b, tlo, thi);
                let cond = Lit::pos(b.fresh());
                assign_bv(&mut b, &[cond], &src, &target);
                for v in slo..=shi {
                    let ctx = format!("[{slo}, {shi}] + {d} -> [{tlo}, {thi}] at {v}");
                    let mut assume = pin(&var, v);
                    assume.push(cond);
                    let sat = b.solver_mut().solve_with(&assume).is_sat();
                    assert_eq!(sat, (tlo..=thi).contains(&(v + d)), "{ctx}");
                    if sat {
                        let model = b.solver_mut().model();
                        assert_eq!(decode_bv(&target, &model), v + d, "{ctx}");
                        // Unique: no target bit can take the other value.
                        for &bit in &target.bits {
                            let other = if lit_true(&model, bit) { !bit } else { bit };
                            assume.push(other);
                            assert!(b.solver_mut().solve_with(&assume).is_unsat(), "{ctx}");
                            assume.pop();
                        }
                    }
                    // Without `conds` the target is free.
                    *assume.last_mut().unwrap() = !cond;
                    for t in tlo..=thi {
                        let mut free = assume.clone();
                        free.extend(pin(&target, t));
                        assert!(b.solver_mut().solve_with(&free).is_sat(), "{ctx}");
                    }
                }
            }
        }
    }

    /// One component with `v0 ∈ [-3, 4]`, `v1 ∈ [0, 5]` and the one-bit
    /// `v2 ∈ [0, 1]`: the support of the random expressions below.
    fn three_var_system() -> System {
        let step = |v: u32, hi: i64| {
            (
                Expr::var(v).lt(Expr::int(hi)),
                Expr::var(v).add(Expr::int(1)),
            )
        };
        let mut atom = AtomBuilder::new("vars")
            .location("l")
            .initial("l")
            .var("v0", -3)
            .var("v1", 0)
            .var("v2", 0);
        for (v, name, hi) in [(0u32, "v0", 4i64), (1, "v1", 5), (2, "v2", 1)] {
            let (guard, update) = step(v, hi);
            atom = atom.internal_transition("l", guard, vec![(name, update)], "l");
        }
        let mut sb = SystemBuilder::new();
        sb.add_instance("c", &atom.build().unwrap());
        sb.build().unwrap()
    }

    /// A random integer expression: linear terms mixed with operators the
    /// fragment has no circuit for, and now and then an `i64` extreme so
    /// that the overflow fallbacks run.
    fn random_value(rng: &mut rand::rngs::StdRng, depth: u32) -> Expr {
        use rand::Rng;
        let constant = |rng: &mut rand::rngs::StdRng| match rng.gen_range(0u32..12) {
            0 => Expr::int(i64::MAX),
            1 => Expr::int(i64::MIN),
            _ => Expr::int(rng.gen_range(-6i64..7)),
        };
        if depth == 0 || rng.gen_bool(0.3) {
            return if rng.gen_bool(0.3) {
                constant(rng)
            } else {
                Expr::var(rng.gen_range(0u32..3))
            };
        }
        let x = random_value(rng, depth - 1);
        match rng.gen_range(0u32..10) {
            0 | 1 => x.add(constant(rng)),
            2 => constant(rng).add(x),
            3 | 4 => x.sub(constant(rng)),
            5 => constant(rng).sub(x),
            6 => x.add(random_value(rng, depth - 1)),
            7 => x.mul(random_value(rng, depth - 1)),
            8 => x.min(random_value(rng, depth - 1)).neg(),
            _ => random_truth(rng, depth - 1).ite(x, random_value(rng, depth - 1)),
        }
    }

    /// A random guard over [`random_value`]s.
    fn random_truth(rng: &mut rand::rngs::StdRng, depth: u32) -> Expr {
        use rand::Rng;
        if depth > 0 && rng.gen_bool(0.4) {
            let x = random_truth(rng, depth - 1);
            return match rng.gen_range(0u32..3) {
                0 => x.and(random_truth(rng, depth - 1)),
                1 => x.or(random_truth(rng, depth - 1)),
                _ => x.not(),
            };
        }
        match rng.gen_range(0u32..10) {
            0 => Expr::int(rng.gen_range(0i64..2)),
            1 => random_value(rng, depth),
            _ => Expr::Binary(
                CMP_OPS[rng.gen_range(0usize..6)],
                Box::new(random_value(rng, depth)),
                Box::new(random_value(rng, depth)),
            ),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

        /// Structural ≡ enumeration ≡ `Expr::eval`: the compiled guard and
        /// the case split of the same expression are equivalent literals
        /// over the frame's domain, both answer as `eval` does on every
        /// in-domain assignment, and a value the fragment takes as a term
        /// decodes to what `eval` computes.
        #[test]
        fn structural_matches_enumeration_and_eval(seed in 0u64..u64::MAX) {
            use rand::SeedableRng;
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let guard = random_truth(&mut rng, 3);
            let value = random_value(&mut rng, 2);

            let sys = three_var_system();
            let mut enc = StepEncoder::new(&sys).unwrap();
            let mut b = CnfBuilder::new();
            let f = enc.new_frame(&mut b);
            let scope = Scope::Local(0, None);
            let ctx = || "test".to_string();
            let s = enc.truth(&mut b, &f, scope, &guard, &ctx).unwrap();
            let compiled = enc.sig_lit(&mut b, s);
            let cases = enc.expr_cases(&mut b, &f, scope, &guard, &ctx).unwrap();
            let s = enc.cases_to_pred(&mut b, &cases);
            let split = enc.sig_lit(&mut b, s);
            for differ in [[compiled, !split], [!compiled, split]] {
                proptest::prop_assert!(
                    b.solver_mut().solve_with(&differ).is_unsat(),
                    "{guard:?}: circuit and case split differ"
                );
            }
            let term = enc.term(&f, scope, &value);

            let ranges: Vec<(i64, i64)> = (0..3).map(|v| enc.var_range(v)).collect();
            for v0 in ranges[0].0..=ranges[0].1 {
                for v1 in ranges[1].0..=ranges[1].1 {
                    for v2 in ranges[2].0..=ranges[2].1 {
                        let locals = [v0, v1, v2];
                        let mut assume: Vec<Lit> = (0..3)
                            .flat_map(|v| pin(&f.vars[v], locals[v]))
                            .collect();
                        let want = guard.eval_local(&locals) != 0;
                        assume.push(if want { compiled } else { !compiled });
                        proptest::prop_assert!(
                            b.solver_mut().solve_with(&assume).is_sat(),
                            "{guard:?} at {locals:?}: eval says {want}"
                        );
                        *assume.last_mut().unwrap() = if want { !compiled } else { compiled };
                        proptest::prop_assert!(
                            b.solver_mut().solve_with(&assume).is_unsat(),
                            "{guard:?} at {locals:?}: eval says {want}"
                        );
                        if let Some(bv) = &term {
                            assume.pop();
                            proptest::prop_assert!(b.solver_mut().solve_with(&assume).is_sat());
                            let got = decode_bv(bv, &b.solver_mut().model());
                            proptest::prop_assert!(
                                got == value.eval_local(&locals),
                                "{value:?} at {locals:?}: the term decodes to {got}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn counters_agree_from_every_state() {
        // 5 is three bits; the increment's carry chain crosses a power of
        // two inside [0, 37] and at the very top of [0, 64].
        for limit in [5, 37, 64] {
            assert_every_step_agrees(&counter_system(limit), 100);
        }
        let down = one_counter(
            9,
            Expr::var(0).gt(Expr::int(0)),
            Expr::var(0).sub(Expr::int(1)),
        );
        assert_every_step_agrees(&down, 100);
    }

    #[test]
    fn counter_one_step() {
        let sys = counter_system(3);
        assert_one_step_agrees(&sys, &sys.initial_state(), 16);
    }

    #[test]
    fn philosophers_one_step() {
        let sys = dining_philosophers(3, true).unwrap();
        assert_one_step_agrees(&sys, &sys.initial_state(), 64);
    }

    #[test]
    fn philosophers_conservative_one_step() {
        let sys = dining_philosophers(3, false).unwrap();
        assert_one_step_agrees(&sys, &sys.initial_state(), 64);
    }

    #[test]
    fn transfer_one_step() {
        // Two components exchanging data through a connector transfer. The
        // update of `z` reads the *mid-state* value of `y` (post-transfer),
        // and `y` itself passes through the transfer untouched by updates —
        // exercising both effect paths.
        let src = AtomBuilder::new("src")
            .var("x", 5)
            .port_exporting("send", ["x"])
            .location("s")
            .initial("s")
            .transition("s", "send", "s")
            .build()
            .unwrap();
        let dst = AtomBuilder::new("dst")
            .var("y", 0)
            .var("z", 0)
            .port_exporting("recv", ["y", "z"])
            .location("d")
            .initial("d")
            .guarded_transition(
                "d",
                "recv",
                Expr::t(),
                vec![("z", Expr::var(0).add(Expr::int(1)))],
                "d",
            )
            .build()
            .unwrap();
        let mut sb = SystemBuilder::new();
        let a = sb.add_instance("a", &src);
        let c = sb.add_instance("b", &dst);
        let conn = ConnectorBuilder::rendezvous("move", [(a, "send"), (c, "recv")]).transfer(
            1,
            0,
            Expr::param(0, 0),
        );
        sb.add_connector(conn);
        let sys = sb.build().unwrap();
        // Transfer writes y := x = 5, then the update runs on the mid-state:
        // z := y + 1 = 6.
        let succs = sys.successors(&sys.initial_state());
        assert_eq!(succs.len(), 1);
        assert_eq!(succs[0].1.vars, vec![5, 5, 6]);
        assert_one_step_agrees(&sys, &sys.initial_state(), 8);
    }

    #[test]
    fn offset_transfer_agrees_from_every_state() {
        // `x` walks [5, 9]; the transfer hands `y` a term of `x` (its own
        // bits, range [5, 9] or shifted), so the pass-through into `y`
        // (range from 0) and the update `z := y + 1` both add a non-zero
        // offset difference.
        for sent in [Expr::param(0, 0), Expr::param(0, 0).sub(Expr::int(3))] {
            let src = AtomBuilder::new("src")
                .var("x", 5)
                .port_exporting("send", ["x"])
                .location("s")
                .initial("s")
                .transition("s", "send", "s")
                .internal_transition(
                    "s",
                    Expr::var(0).lt(Expr::int(9)),
                    vec![("x", Expr::var(0).add(Expr::int(1)))],
                    "s",
                )
                .build()
                .unwrap();
            let dst = AtomBuilder::new("dst")
                .var("y", 0)
                .var("z", 0)
                .port_exporting("recv", ["y", "z"])
                .location("d")
                .initial("d")
                .guarded_transition(
                    "d",
                    "recv",
                    Expr::t(),
                    vec![("z", Expr::var(0).add(Expr::int(1)))],
                    "d",
                )
                .build()
                .unwrap();
            let mut sb = SystemBuilder::new();
            let a = sb.add_instance("a", &src);
            let c = sb.add_instance("b", &dst);
            sb.add_connector(
                ConnectorBuilder::rendezvous("move", [(a, "send"), (c, "recv")])
                    .transfer(1, 0, sent),
            );
            let sys = sb.build().unwrap();
            let enc = StepEncoder::new(&sys).unwrap();
            assert_eq!(enc.var_range(0), (5, 9));
            assert_ne!(enc.var_range(1).0, enc.var_range(0).0, "offsets differ");
            assert_every_step_agrees(&sys, 200);
        }
    }

    #[test]
    fn unbounded_var_declines() {
        // A counter with no guard grows forever: interval analysis says TOP.
        let counter = AtomBuilder::new("counter")
            .location("run")
            .initial("run")
            .var("n", 0)
            .internal_transition(
                "run",
                Expr::t(),
                vec![("n", Expr::var(0).add(Expr::int(1)))],
                "run",
            )
            .build()
            .unwrap();
        let mut sb = SystemBuilder::new();
        sb.add_instance("c", &counter);
        let sys = sb.build().unwrap();
        match StepEncoder::new(&sys) {
            Err(SymError::UnboundedVar {
                component,
                variable,
            }) => {
                assert_eq!(component, "c");
                assert_eq!(variable, "n");
            }
            Ok(_) => panic!("expected UnboundedVar, got an encoder"),
            Err(other) => panic!("expected UnboundedVar, got {other:?}"),
        }
    }

    #[test]
    fn budget_declines_are_typed() {
        // n ranges over [0, 8]: nine values, more than the budget of 4 —
        // which only matters to the conjunct outside the linear fragment.
        let sys = one_counter(
            0,
            Expr::var(0)
                .lt(Expr::int(8))
                .and(Expr::var(0).mul(Expr::var(0)).lt(Expr::int(64))),
            Expr::var(0).add(Expr::int(1)),
        );
        let mut enc = StepEncoder::new(&sys).unwrap().enum_budget(4);
        assert_eq!(enc.var_range(0), (0, 8));
        let mut b = CnfBuilder::new();
        let mut f0 = enc.new_frame(&mut b);
        let f1 = enc.new_frame(&mut b);
        match enc.encode_step(&mut b, &mut f0, &f1) {
            Err(SymError::SupportTooLarge {
                context,
                combinations,
                budget,
            }) => {
                assert!(
                    context.contains("`Mul` is outside the linear fragment"),
                    "{context}"
                );
                assert_eq!(combinations, 9);
                assert_eq!(budget, 4);
            }
            other => panic!("expected SupportTooLarge, got {other:?}"),
        }
        // The same range under the same budget encodes once the guard is
        // `n < 8`: the fragment never consults the budget.
        let sys = counter_system(8);
        let mut enc = StepEncoder::new(&sys).unwrap().enum_budget(4);
        let mut b = CnfBuilder::new();
        let mut f0 = enc.new_frame(&mut b);
        let f1 = enc.new_frame(&mut b);
        enc.encode_step(&mut b, &mut f0, &f1).unwrap();
        assert_eq!(enc.enumerated_cases(), 0);
    }

    #[test]
    fn deadlocked_frame_is_unsat() {
        // A system whose only transition is disabled from the start.
        let stuck = AtomBuilder::new("stuck")
            .location("l")
            .initial("l")
            .internal_transition("l", Expr::f(), vec![], "l")
            .build()
            .unwrap();
        let mut sb = SystemBuilder::new();
        sb.add_instance("s", &stuck);
        let sys = sb.build().unwrap();
        let mut enc = StepEncoder::new(&sys).unwrap();
        let mut b = CnfBuilder::new();
        let mut f0 = enc.new_frame(&mut b);
        let f1 = enc.new_frame(&mut b);
        enc.assert_initial(&mut b, &f0);
        let _ = enc.encode_step(&mut b, &mut f0, &f1).unwrap();
        assert!(b.solver_mut().solve().is_unsat());
    }

    #[test]
    fn forked_encoder_drives_a_second_builder() {
        let sys = counter_system(3);
        let mut enc = StepEncoder::new(&sys).unwrap();
        // Prime the first builder's cached constant-true literal so a leak
        // into the second builder would misalign variable spaces.
        let mut b1 = CnfBuilder::new();
        let mut f0 = enc.new_frame(&mut b1);
        enc.assert_initial(&mut b1, &f0);
        let _ = enc.encode_pred(&mut b1, &mut f0, &StatePred::True).unwrap();

        let mut enc2 = enc.fork();
        let mut b2 = CnfBuilder::new();
        let mut g0 = enc2.new_frame(&mut b2);
        let g1 = enc2.new_frame(&mut b2);
        enc2.assert_initial(&mut b2, &g0);
        let _ = enc2.encode_step(&mut b2, &mut g0, &g1).unwrap();
        assert!(b2.solver_mut().solve().is_sat());
        let model = b2.solver_mut().model();
        // The only successor of n = 0 is n = 1.
        assert_eq!(enc2.decode_state(&g1, &model).vars, vec![1]);
    }

    #[test]
    fn frame_bits_cover_the_packed_state() {
        let sys = counter_system(3);
        let enc = StepEncoder::new(&sys).unwrap();
        let mut b = CnfBuilder::new();
        let f = enc.new_frame(&mut b);
        assert_eq!(enc.frame_bits(&f).len(), enc.state_bits());
    }

    #[test]
    fn distinct_frames_exclude_stutter() {
        // The only transition is a pure self-loop, so every step reproduces
        // the same state; distinctness must make the step UNSAT.
        let idle = AtomBuilder::new("idle")
            .location("l")
            .location("m")
            .initial("l")
            .internal_transition("l", Expr::t(), vec![], "l")
            .build()
            .unwrap();
        let mut sb = SystemBuilder::new();
        sb.add_instance("i", &idle);
        let sys = sb.build().unwrap();
        let mut enc = StepEncoder::new(&sys).unwrap();
        let mut b = CnfBuilder::new();
        let mut f0 = enc.new_frame(&mut b);
        let f1 = enc.new_frame(&mut b);
        enc.assert_initial(&mut b, &f0);
        let _ = enc.encode_step(&mut b, &mut f0, &f1).unwrap();
        assert!(b.solver_mut().solve().is_sat(), "a step exists");
        enc.assert_frames_distinct(&mut b, &f0, &f1);
        assert!(
            b.solver_mut().solve().is_unsat(),
            "self-loop cannot change state"
        );
    }

    #[test]
    fn distinct_frames_on_zero_state_bits_are_unsat() {
        // One location, no variables: zero state bits, so no two distinct
        // states exist and the distinctness clause is empty.
        let unit = AtomBuilder::new("unit")
            .location("l")
            .initial("l")
            .internal_transition("l", Expr::t(), vec![], "l")
            .build()
            .unwrap();
        let mut sb = SystemBuilder::new();
        sb.add_instance("u", &unit);
        let sys = sb.build().unwrap();
        let enc = StepEncoder::new(&sys).unwrap();
        assert_eq!(enc.state_bits(), 0);
        let mut b = CnfBuilder::new();
        let f0 = enc.new_frame(&mut b);
        let f1 = enc.new_frame(&mut b);
        enc.assert_frames_distinct(&mut b, &f0, &f1);
        assert!(b.solver_mut().solve().is_unsat());
    }

    #[test]
    fn state_pred_encoding_matches_eval() {
        let sys = counter_system(3);
        let pred = StatePred::Le(GExpr::var(0, 0), GExpr::int(0));
        let mut enc = StepEncoder::new(&sys).unwrap();
        let mut b = CnfBuilder::new();
        let mut f0 = enc.new_frame(&mut b);
        enc.assert_initial(&mut b, &f0);
        let l = enc.encode_pred(&mut b, &mut f0, &pred).unwrap();
        // Initially n = 0, so the predicate holds.
        b.assert_lit(l);
        assert!(b.solver_mut().solve().is_sat());
    }

    #[test]
    fn error_display_is_informative() {
        let e = SymError::UnboundedVar {
            component: "c".into(),
            variable: "n".into(),
        };
        assert!(e.to_string().contains("no finite bound"));
        let e = SymError::SupportTooLarge {
            context: "guard".into(),
            combinations: 100,
            budget: 10,
        };
        assert!(e.to_string().contains("budget is 10"));
    }

    #[test]
    fn priority_rule_vetoes_dominated_connector() {
        // Two singleton connectors on one component, both enabled; a rule
        // makes "low" dominated whenever "high" is enabled.
        let atom = AtomBuilder::new("a")
            .port("p")
            .port("q")
            .location("l")
            .initial("l")
            .transition("l", "p", "l")
            .transition("l", "q", "l")
            .build()
            .unwrap();
        let mut sb = SystemBuilder::new();
        let c = sb.add_instance("c", &atom);
        sb.add_connector(ConnectorBuilder::singleton("low", c, "p"));
        sb.add_connector(ConnectorBuilder::singleton("high", c, "q"));
        sb.priority_mut().rules.push(crate::PriorityRule {
            low: ConnId(0),
            high: ConnId(1),
            guard: StatePred::True,
        });
        let sys = sb.build().unwrap();
        // Concretely only "high" survives the priority filter.
        assert_eq!(sys.successors(&sys.initial_state()).len(), 1);
        assert_one_step_agrees(&sys, &sys.initial_state(), 8);
    }

    #[test]
    fn maximal_progress_vetoes_sub_broadcasts() {
        // A broadcast with two receivers: under maximal progress only the
        // largest enabled interaction per connector survives.
        let sender = AtomBuilder::new("sender")
            .port("snd")
            .location("l")
            .initial("l")
            .transition("l", "snd", "l")
            .build()
            .unwrap();
        let recv = AtomBuilder::new("recv")
            .port("rcv")
            .location("l")
            .initial("l")
            .transition("l", "rcv", "l")
            .build()
            .unwrap();
        let mut sb = SystemBuilder::new();
        let s = sb.add_instance("s", &sender);
        let r0 = sb.add_instance("r0", &recv);
        let r1 = sb.add_instance("r1", &recv);
        sb.add_connector(ConnectorBuilder::broadcast(
            "bcast",
            (s, "snd"),
            [(r0, "rcv"), (r1, "rcv")],
        ));
        sb.priority_mut().maximal_progress = true;
        let sys = sb.build().unwrap();
        // Without the filter there are 4 interactions ({s}, {s,r0}, {s,r1},
        // {s,r0,r1}); maximal progress keeps only the full one.
        assert_eq!(sys.successors(&sys.initial_state()).len(), 1);
        assert_one_step_agrees(&sys, &sys.initial_state(), 8);
    }
}
