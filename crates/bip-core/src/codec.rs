//! Bit-packed global states for explicit-state exploration.
//!
//! A [`State`] is heap-heavy: two `Vec` headers plus two allocations per
//! stored state, with each control location spending 32 bits regardless of
//! how many locations the component actually has. During monolithic model
//! checking (§4.3's state-explosion experiment) millions of states live in
//! the `seen` set at once, so their footprint — and the cost of hashing
//! them — dominates.
//!
//! [`StateCodec`] compiles, per system, a fixed packing schedule. Component
//! `c` with `L` locations always occupies `ceil(log2(L))` bits (zero bits
//! when `L == 1`). Data variables are packed according to one of two
//! profiles:
//!
//! * [`StateCodec::new`] — the **full-width** reference codec: every
//!   variable is stored as its 64-bit two's-complement image, so encoding
//!   is trivially lossless and infallible for *every* state, including
//!   states mutated out-of-band through [`System::set_var`].
//! * [`StateCodec::adaptive`] — the **adaptive** codec: a static
//!   value-range pass over each variable's update and guard expressions
//!   (see [`crate::width`]; initial values, constant assignments, guarded
//!   counters, bounded arithmetic like `% k`) picks a per-variable plan:
//!
//!   * a bounded variable with inferred range `[lo, hi]` is stored as
//!     `value - lo` in `ceil(log2(hi - lo + 1))` bits — a constant
//!     variable costs **zero** bits;
//!   * a variable the analysis cannot bound is stored as a small index
//!     into a shared, lock-free **interned overflow table** (out-of-line
//!     `i64` interning, [`crate::intern`]): rare wide values cost
//!     [`INTERN_START_BITS`] bits inline instead of 64.
//!
//! # Repack-on-widen
//!
//! The adaptive widths are inferred from *reachable* stores, but encoding
//! must stay total: a state built by hand (or an analysis imprecision) can
//! hold a value outside its variable's width. [`StateCodec::try_encode`]
//! therefore reports a [`WidenReq`] instead of corrupting bits, and
//! [`StateCodec::widen`] deterministically produces the next codec in the
//! ladder: the overflowing variable moves to the interned (wide) plan, or
//! the intern-index field grows by 8 bits. Callers re-encode (and migrate
//! any stored packed states) and continue; the model checker's explorers do
//! exactly this, so their reports are bit-identical whether or not a widen
//! occurred, and identical between the adaptive and full-width codecs.
//!
//! # Patch encode
//!
//! A step changes only its participants — one to three components in
//! typical models — yet a full encode rewrites every field.
//! [`StateCodec::try_encode_patch_into`] encodes a successor as a patch of
//! its parent instead: it copies the parent's packed words and overwrites
//! the location and variable fields of the touched components only, each
//! field cleared before it is set. The result is exactly the full
//! encode's, words and [`WidenReq`] alike, because:
//!
//! * an untouched field holds the same value as in the parent, which this
//!   codec already packed — so it cannot overflow, and an interned value
//!   already has its index;
//! * touched fields are encoded in flat-variable order, the order in which
//!   the full encode interns values and reports the first overflow;
//! * the parent's words are only valid under the codec that packed them,
//!   which is why callers re-encode stored states after a widen.
//!
//! Packed states from different codecs (including a codec and its widened
//! successor) must never be mixed: equality compares raw bit layouts. For a
//! layout-independent identity — shard assignment in the parallel explorer,
//! which must agree across codecs and across widens — use
//! [`StateCodec::state_hash`], which hashes canonical location/value
//! content rather than packed words.
//!
//! # Interning and determinism
//!
//! The intern table is shared through an `Arc` by every codec in a widen
//! ladder and is safe to use from concurrent encoders — it is a lock-free
//! append-only arena (see [`crate::intern`]), so parallel workers whose
//! states are intern-heavy never serialize on it. Index *assignment*
//! depends on encode interleaving, so two runs may pack the same wide value
//! differently — but an index never leaks out of the packed
//! representation: decoding returns the interned value, and every consumer
//! that needs run-independent identity hashes values, not words. Within one
//! codec, interning still guarantees the bijection `value ↔ index` that
//! packed-state equality relies on.
//!
//! [`PackedState`] stores up to two words inline (no heap traffic for
//! systems up to 128 packed bits); larger systems spill to a boxed slice.
//! Equality and hashing operate on the word slice, making shard selection
//! and seen-set membership far cheaper than hashing a [`State`].
//!
//! ```
//! use bip_core::dining_philosophers;
//!
//! let sys = dining_philosophers(12, true).unwrap();
//! let codec = sys.state_codec(); // full-width reference profile
//! // 12 philosophers x 2 bits + 12 forks x 1 bit: one word per state.
//! assert_eq!((codec.bits(), codec.words()), (36, 1));
//!
//! let st = sys.initial_state();
//! let packed = codec.encode(&st);
//! assert_eq!(codec.decode(&packed), st, "lossless");
//!
//! // The adaptive profile agrees on content identity for every state.
//! let adaptive = sys.adaptive_codec();
//! assert_eq!(adaptive.state_hash(&st), codec.state_hash(&st));
//! ```

use std::hash::{Hash, Hasher};
use std::sync::Arc;

use crate::data::Value;
use crate::hash::FxHasher;
use crate::intern::InternTable;
use crate::system::{CompId, State, System};
use crate::width::infer_ranges;

/// How many words a [`PackedState`] can hold without heap allocation.
const INLINE_WORDS: usize = 2;

/// Initial width of the interned-overflow index field, in bits.
pub const INTERN_START_BITS: u8 = 16;

/// Widest the intern index field can grow (a `u32` index).
const INTERN_MAX_BITS: u8 = 32;

/// A bit-packed global state produced by a [`StateCodec`].
///
/// Opaque: only the codec that produced it can decode it, and packed states
/// from different codecs must not be mixed (equality would compare
/// incompatible bit layouts).
pub struct PackedState {
    repr: Repr,
}

#[derive(Clone)]
enum Repr {
    Inline { len: u8, words: [u64; INLINE_WORDS] },
    Heap(Box<[u64]>),
}

impl PackedState {
    /// An all-zero packed state of `words` words.
    pub fn zeroed(words: usize) -> PackedState {
        let repr = if words <= INLINE_WORDS {
            Repr::Inline {
                len: words as u8,
                words: [0; INLINE_WORDS],
            }
        } else {
            Repr::Heap(vec![0u64; words].into_boxed_slice())
        };
        PackedState { repr }
    }

    /// The packed words.
    pub fn words(&self) -> &[u64] {
        match &self.repr {
            Repr::Inline { len, words } => &words[..*len as usize],
            Repr::Heap(b) => b,
        }
    }

    fn words_mut(&mut self) -> &mut [u64] {
        match &mut self.repr {
            Repr::Inline { len, words } => &mut words[..*len as usize],
            Repr::Heap(b) => b,
        }
    }

    fn clear(&mut self) {
        for w in self.words_mut() {
            *w = 0;
        }
    }

    /// Bytes this packed state occupies on the heap (0 when inline).
    pub fn heap_bytes(&self) -> usize {
        match &self.repr {
            Repr::Inline { .. } => 0,
            Repr::Heap(b) => std::mem::size_of_val(&**b),
        }
    }
}

impl Clone for PackedState {
    fn clone(&self) -> PackedState {
        PackedState {
            repr: self.repr.clone(),
        }
    }
}

impl PartialEq for PackedState {
    fn eq(&self, other: &PackedState) -> bool {
        self.words() == other.words()
    }
}

impl Eq for PackedState {}

impl Hash for PackedState {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Feed whole words, not the slice impl: `Hash for [u64]` lowers to
        // one raw-byte `write`, which word-oriented hashers (the model
        // checker's multiply-rotate hasher) would have to re-chunk a byte
        // at a time. `write_u64` keeps the hot seen-set probes on the
        // one-round-per-word fast path.
        let words = self.words();
        state.write_usize(words.len());
        for &w in words {
            state.write_u64(w);
        }
    }
}

impl std::fmt::Debug for PackedState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PackedState[")?;
        for (i, w) in self.words().iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{w:016x}")?;
        }
        write!(f, "]")
    }
}

/// Overwrite the `width` bits at bit offset `off` with `val`: clear the
/// field, then set it (the patch encode writes over a copied parent).
fn set_bits(words: &mut [u64], off: u32, width: u32, val: u64) {
    if width == 0 {
        return;
    }
    debug_assert!(width == 64 || val < (1u64 << width));
    let field = if width == 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    };
    let w = (off / 64) as usize;
    let b = off % 64;
    words[w] = (words[w] & !(field << b)) | (val << b);
    if b + width > 64 {
        words[w + 1] = (words[w + 1] & !(field >> (64 - b))) | (val >> (64 - b));
    }
}

/// Write `width` bits of `val` at bit offset `off`. The destination bits
/// must currently be zero (states are encoded into cleared buffers).
fn put_bits(words: &mut [u64], off: u32, width: u32, val: u64) {
    if width == 0 {
        return;
    }
    debug_assert!(width == 64 || val < (1u64 << width));
    let w = (off / 64) as usize;
    let b = off % 64;
    words[w] |= val << b;
    if b + width > 64 {
        words[w + 1] |= val >> (64 - b);
    }
}

/// Read `width` bits at bit offset `off`.
fn get_bits(words: &[u64], off: u32, width: u32) -> u64 {
    if width == 0 {
        return 0;
    }
    let w = (off / 64) as usize;
    let b = off % 64;
    let mut v = words[w] >> b;
    if b + width > 64 {
        v |= words[w + 1] << (64 - b);
    }
    if width < 64 {
        v &= (1u64 << width) - 1;
    }
    v
}

/// Why an encode could not complete under the current packing schedule; feed
/// it to [`StateCodec::widen`] to obtain the next codec in the ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WidenReq {
    /// The flat variable overflowed its inferred inline width; the widened
    /// codec stores it through the interned overflow table.
    Var(usize),
    /// The interned overflow table outgrew the inline index field; the
    /// widened codec grows the field by 8 bits.
    Intern,
}

/// How one flat variable is packed (offsets are assigned at layout time).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum VarKind {
    /// `value - bias` in `width` bits (`width <= 63`); a constant variable
    /// has `width == 0`.
    Inline { width: u8, bias: i64 },
    /// Full 64-bit two's-complement image (infallible).
    Wide,
    /// Index into the shared intern table, `intern_bits` wide.
    Interned,
}

/// A self-contained, serialization-shaped image of a [`StateCodec`]: the
/// per-variable packing plans plus the interned overflow values in index
/// order, captured at a consistent point (the model checker captures at a
/// BFS level boundary). Unlike a `StateCodec` clone, a snapshot does **not**
/// share the live `Arc` intern table — [`StateCodec::restore`] replays the
/// recorded values into a fresh table, reproducing the same dense index
/// assignment, so packed words encoded before the snapshot decode
/// bit-identically through the restored codec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecSnapshot {
    kinds: Vec<VarKind>,
    intern_bits: u8,
    intern_values: Vec<i64>,
}

/// Per-system packing schedule: bit offset and width of every component's
/// location, followed by the data variables under their per-variable plans
/// (see the module docs for the full-width vs. adaptive profiles and the
/// repack-on-widen protocol).
#[derive(Debug, Clone)]
pub struct StateCodec {
    /// Bit offset of each component's location field.
    loc_offsets: Vec<u32>,
    /// Bit width of each component's location field (`ceil(log2(locs))`).
    loc_widths: Vec<u8>,
    /// Packing plan per flat variable.
    kinds: Vec<VarKind>,
    /// Bit offset per flat variable.
    var_offsets: Vec<u32>,
    /// Component `c`'s variables are the flat variables
    /// `comp_vars[c]..comp_vars[c + 1]`.
    comp_vars: Vec<u32>,
    /// Width of interned index fields.
    intern_bits: u8,
    /// Shared overflow table (present iff some variable is interned).
    intern: Option<Arc<InternTable>>,
    /// Total packed bits.
    total_bits: u32,
    /// Words per packed state.
    words: usize,
}

impl StateCodec {
    fn layout(
        sys: &System,
        kinds: Vec<VarKind>,
        intern_bits: u8,
        intern: Option<Arc<InternTable>>,
    ) -> StateCodec {
        let mut loc_offsets = Vec::with_capacity(sys.num_components());
        let mut loc_widths = Vec::with_capacity(sys.num_components());
        let mut comp_vars = Vec::with_capacity(sys.num_components() + 1);
        let mut bits = 0u32;
        for c in 0..sys.num_components() {
            comp_vars.push(sys.global_var(c, 0) as u32);
            let nlocs = sys.atom_type(c).locations().len();
            let width = if nlocs <= 1 {
                0
            } else {
                u32::BITS - (nlocs as u32 - 1).leading_zeros()
            };
            loc_offsets.push(bits);
            loc_widths.push(width as u8);
            bits += width;
        }
        comp_vars.push(kinds.len() as u32);
        let mut var_offsets = Vec::with_capacity(kinds.len());
        for k in &kinds {
            var_offsets.push(bits);
            bits += match k {
                VarKind::Inline { width, .. } => *width as u32,
                VarKind::Wide => 64,
                VarKind::Interned => intern_bits as u32,
            };
        }
        let needs_table = kinds.iter().any(|k| matches!(k, VarKind::Interned));
        let intern = if needs_table {
            Some(intern.unwrap_or_default())
        } else {
            intern
        };
        StateCodec {
            loc_offsets,
            loc_widths,
            kinds,
            var_offsets,
            comp_vars,
            intern_bits,
            intern,
            total_bits: bits,
            words: (bits as usize).div_ceil(64),
        }
    }

    /// Compile the **full-width** reference schedule for `sys`: every
    /// variable as a 64-bit image. Infallible to encode, maximal footprint.
    pub fn new(sys: &System) -> StateCodec {
        Self::layout(
            sys,
            vec![VarKind::Wide; sys.total_vars],
            INTERN_START_BITS,
            None,
        )
    }

    /// Compile the **adaptive** schedule for `sys`: per-variable widths from
    /// the static value-range pass (see [`crate::width`]), with unbounded
    /// variables routed through the interned overflow table.
    pub fn adaptive(sys: &System) -> StateCodec {
        let kinds = infer_ranges(sys)
            .into_iter()
            .map(|r| match r {
                Some((lo, hi)) => {
                    let span = (hi as i128 - lo as i128) as u128;
                    let width = (u128::BITS - span.leading_zeros()) as u8;
                    if width <= 63 {
                        VarKind::Inline { width, bias: lo }
                    } else {
                        // A bounded range spanning (almost) the whole i64
                        // domain packs no better than the wide image.
                        VarKind::Wide
                    }
                }
                None => VarKind::Interned,
            })
            .collect();
        Self::layout(sys, kinds, INTERN_START_BITS, None)
    }

    /// The next codec in the widening ladder after `req` (see the module
    /// docs). Deterministic: the result depends only on the current plans
    /// and the request, never on *which value* overflowed. The intern table
    /// is shared with `self`, so already-interned indices stay valid.
    pub fn widen(&self, sys: &System, req: WidenReq) -> StateCodec {
        let mut kinds = self.kinds.clone();
        let mut intern_bits = self.intern_bits;
        match req {
            WidenReq::Var(i) => kinds[i] = VarKind::Interned,
            WidenReq::Intern => {
                intern_bits = (intern_bits + 8).min(INTERN_MAX_BITS);
                assert!(
                    intern_bits > self.intern_bits,
                    "intern index already at maximum width"
                );
            }
        }
        Self::layout(sys, kinds, intern_bits, self.intern.clone())
    }

    /// Override one variable's plan to an inline field of `width` bits with
    /// bias 0. A tuning/testing hook: it deliberately lets callers pick a
    /// width the range analysis would reject, which is the supported way to
    /// exercise the repack-on-widen path on systems whose inferred widths
    /// are already correct.
    pub fn with_narrowed_var(mut self, sys: &System, var: usize, width: u8) -> StateCodec {
        assert!(width <= 63);
        self.kinds[var] = VarKind::Inline { width, bias: 0 };
        Self::layout(sys, self.kinds, self.intern_bits, self.intern)
    }

    /// Words per packed state.
    pub fn words(&self) -> usize {
        self.words
    }

    /// Total packed bits per state.
    pub fn bits(&self) -> u32 {
        self.total_bits
    }

    /// Bits spent on variable `i` of the flat store under this schedule.
    pub fn var_bits(&self, i: usize) -> u32 {
        match self.kinds[i] {
            VarKind::Inline { width, .. } => width as u32,
            VarKind::Wide => 64,
            VarKind::Interned => self.intern_bits as u32,
        }
    }

    /// The shared intern table, if any variable is interned.
    pub fn intern_table(&self) -> Option<&Arc<InternTable>> {
        self.intern.as_ref()
    }

    /// Capture a self-contained [`CodecSnapshot`] of this codec's packing
    /// schedule and interned values (see the snapshot type's docs). The
    /// caller must ensure no concurrent encoder is interning while the
    /// snapshot is taken (the model checker captures between BFS levels).
    pub fn snapshot(&self) -> CodecSnapshot {
        CodecSnapshot {
            kinds: self.kinds.clone(),
            intern_bits: self.intern_bits,
            intern_values: self.intern.as_ref().map_or_else(Vec::new, |t| t.values()),
        }
    }

    /// Rebuild a codec from a [`CodecSnapshot`] taken on (a codec for) the
    /// same system. The restored codec has the identical bit layout, and its
    /// fresh intern table replays the snapshot's values in index order, so
    /// any packed words produced before the snapshot decode bit-identically.
    pub fn restore(sys: &System, snap: &CodecSnapshot) -> StateCodec {
        let intern = if snap.intern_values.is_empty() {
            None
        } else {
            let table = InternTable::default();
            for &v in &snap.intern_values {
                table.intern(v);
            }
            Some(Arc::new(table))
        };
        Self::layout(sys, snap.kinds.clone(), snap.intern_bits, intern)
    }

    /// Approximate bytes one stored state costs under this codec when kept
    /// as a standalone [`PackedState`] (struct plus heap spill), for
    /// capacity planning and bench reporting. Arena-backed seen sets store
    /// bare words; see `bip-verify`'s reach reports for measured footprints.
    pub fn packed_bytes(&self) -> usize {
        let heap = if self.words > INLINE_WORDS {
            self.words * 8
        } else {
            0
        };
        std::mem::size_of::<PackedState>() + heap
    }

    /// A zeroed packed state sized for this codec.
    pub fn new_packed(&self) -> PackedState {
        PackedState::zeroed(self.words)
    }

    /// A **canonical, layout-independent** hash of `st`: locations packed at
    /// their (codec-invariant) widths plus raw variable values. Two codecs
    /// of the same system — full-width, adaptive, widened — agree on this
    /// hash for every state, which is what the parallel explorer's shard
    /// assignment (and therefore its report determinism across codecs and
    /// widens) is built on.
    pub fn state_hash(&self, st: &State) -> u64 {
        let mut h = FxHasher::default();
        let mut acc = 0u64;
        let mut used = 0u32;
        for (c, &loc) in st.locs.iter().enumerate() {
            let w = self.loc_widths[c] as u32;
            if w == 0 {
                continue;
            }
            acc |= (loc as u64) << used;
            if used + w >= 64 {
                h.write_u64(acc);
                let rem = used + w - 64;
                acc = if rem > 0 {
                    (loc as u64) >> (w - rem)
                } else {
                    0
                };
                used = rem;
            } else {
                used += w;
            }
        }
        if used > 0 {
            h.write_u64(acc);
        }
        for &v in &st.vars {
            h.write_u64(v as u64);
        }
        h.finish()
    }

    /// Encode `st` into a fresh packed state, or report the widen the
    /// schedule needs first.
    pub fn try_encode(&self, st: &State) -> Result<PackedState, WidenReq> {
        let mut out = self.new_packed();
        self.try_encode_into(st, &mut out)?;
        Ok(out)
    }

    /// Encode `st` into `out`, reusing its buffer; on overflow `out` is left
    /// cleared and a [`WidenReq`] is returned.
    pub fn try_encode_into(&self, st: &State, out: &mut PackedState) -> Result<(), WidenReq> {
        if out.words().len() != self.words {
            *out = self.new_packed();
        } else {
            out.clear();
        }
        debug_assert_eq!(st.locs.len(), self.loc_offsets.len());
        debug_assert_eq!(st.vars.len(), self.kinds.len());
        let words = out.words_mut();
        for (c, &loc) in st.locs.iter().enumerate() {
            put_bits(
                words,
                self.loc_offsets[c],
                self.loc_widths[c] as u32,
                loc as u64,
            );
        }
        for (i, &v) in st.vars.iter().enumerate() {
            match self.var_field(i, v) {
                Ok((width, bits)) => put_bits(words, self.var_offsets[i], width, bits),
                Err(req) => {
                    out.clear();
                    return Err(req);
                }
            }
        }
        Ok(())
    }

    /// Encode `st` into `out` as a patch of its parent: copy `parent` — the
    /// parent state's words under this codec — then overwrite the location
    /// and variable fields of the `touched` components only.
    ///
    /// `touched` lists, ascending and without repeats, every component
    /// whose location or variables may differ between the parent and `st`
    /// (the participants of the step that led from one to the other). The
    /// result is exactly [`StateCodec::try_encode_into`]'s: the same words,
    /// or the same [`WidenReq`] with `out` left cleared. Untouched fields
    /// hold the parent's values, which this codec already packed, so they
    /// can neither overflow nor intern anything new; the touched fields are
    /// encoded in flat-variable order, the order the full encode interns
    /// and reports in.
    pub fn try_encode_patch_into(
        &self,
        parent: &[u64],
        st: &State,
        touched: &[CompId],
        out: &mut PackedState,
    ) -> Result<(), WidenReq> {
        debug_assert_eq!(parent.len(), self.words);
        debug_assert!(touched.windows(2).all(|w| w[0] < w[1]));
        if out.words().len() != self.words {
            *out = self.new_packed();
        }
        let words = out.words_mut();
        words.copy_from_slice(parent);
        for &c in touched {
            set_bits(
                words,
                self.loc_offsets[c],
                self.loc_widths[c] as u32,
                st.locs[c] as u64,
            );
            for i in self.comp_vars[c] as usize..self.comp_vars[c + 1] as usize {
                match self.var_field(i, st.vars[i]) {
                    Ok((width, bits)) => set_bits(words, self.var_offsets[i], width, bits),
                    Err(req) => {
                        out.clear();
                        return Err(req);
                    }
                }
            }
        }
        Ok(())
    }

    /// The packed field of flat variable `i` holding `v`: its width and
    /// bits, or the widen it needs first. Interns `v` under an interned
    /// plan.
    #[inline]
    fn var_field(&self, i: usize, v: Value) -> Result<(u32, u64), WidenReq> {
        match self.kinds[i] {
            VarKind::Inline { width, bias } => {
                let d = v as i128 - bias as i128;
                if d < 0 || (width < 64 && d >= 1i128 << width) {
                    return Err(WidenReq::Var(i));
                }
                Ok((width as u32, d as u64))
            }
            VarKind::Wide => Ok((64, v as u64)),
            VarKind::Interned => {
                let idx = self
                    .intern
                    .as_ref()
                    .expect("interned plan has table")
                    .intern(v);
                if self.intern_bits < 64 && (idx as u64) >= 1u64 << self.intern_bits {
                    return Err(WidenReq::Intern);
                }
                Ok((self.intern_bits as u32, idx as u64))
            }
        }
    }

    /// Encode `st` into a fresh packed state.
    ///
    /// # Panics
    ///
    /// Panics if the schedule needs widening first (never happens for the
    /// full-width codec of [`StateCodec::new`]); widen-aware callers use
    /// [`StateCodec::try_encode`].
    pub fn encode(&self, st: &State) -> PackedState {
        self.try_encode(st)
            .expect("value overflowed adaptive width")
    }

    /// Encode `st` into `out`, reusing its buffer. Panics like
    /// [`StateCodec::encode`] when the schedule needs widening.
    pub fn encode_into(&self, st: &State, out: &mut PackedState) {
        self.try_encode_into(st, out)
            .expect("value overflowed adaptive width")
    }

    /// Decode a packed state into a fresh [`State`].
    pub fn decode(&self, ps: &PackedState) -> State {
        let mut st = State {
            locs: vec![0; self.loc_offsets.len()],
            vars: vec![0; self.kinds.len()],
        };
        self.decode_into(ps, &mut st);
        st
    }

    /// Decode into `st`, reusing its buffers.
    pub fn decode_into(&self, ps: &PackedState, st: &mut State) {
        self.decode_words_into(ps.words(), st);
    }

    /// Decode raw packed words (an arena slice) into a fresh [`State`].
    pub fn decode_words(&self, words: &[u64]) -> State {
        let mut st = State {
            locs: vec![0; self.loc_offsets.len()],
            vars: vec![0; self.kinds.len()],
        };
        self.decode_words_into(words, &mut st);
        st
    }

    /// Decode from raw packed words (an arena slice) into `st`, reusing its
    /// buffers.
    pub fn decode_words_into(&self, words: &[u64], st: &mut State) {
        st.locs.resize(self.loc_offsets.len(), 0);
        st.vars.resize(self.kinds.len(), 0);
        for c in 0..self.loc_offsets.len() {
            st.locs[c] = get_bits(words, self.loc_offsets[c], self.loc_widths[c] as u32) as u32;
        }
        for i in 0..self.kinds.len() {
            let off = self.var_offsets[i];
            st.vars[i] = match self.kinds[i] {
                VarKind::Inline { width, bias } => {
                    bias.wrapping_add(get_bits(words, off, width as u32) as i64)
                }
                VarKind::Wide => get_bits(words, off, 64) as i64,
                VarKind::Interned => self
                    .intern
                    .as_ref()
                    .expect("interned plan has table")
                    .value(get_bits(words, off, self.intern_bits as u32) as u32),
            };
        }
    }
}

impl System {
    /// Build the full-width (infallible) [`StateCodec`] for this system's
    /// global states.
    pub fn state_codec(&self) -> StateCodec {
        StateCodec::new(self)
    }

    /// Build the adaptive narrow-width [`StateCodec`] (see
    /// [`StateCodec::adaptive`]).
    pub fn adaptive_codec(&self) -> StateCodec {
        StateCodec::adaptive(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::AtomBuilder;
    use crate::builder::{dining_philosophers, SystemBuilder};
    use crate::connector::ConnectorBuilder;
    use crate::data::Expr;

    fn roundtrip(sys: &System, st: &State) {
        let codec = sys.state_codec();
        let packed = codec.encode(st);
        assert_eq!(&codec.decode(&packed), st);
    }

    fn roundtrip_with(codec: &StateCodec, st: &State) {
        let packed = codec.encode(st);
        assert_eq!(&codec.decode(&packed), st);
    }

    #[test]
    fn philosophers_pack_into_one_word() {
        let sys = dining_philosophers(12, true).unwrap();
        let codec = sys.state_codec();
        // 12 phils × 2 bits + 12 forks × 1 bit = 36 bits.
        assert_eq!(codec.bits(), 36);
        assert_eq!(codec.words(), 1);
        roundtrip(&sys, &sys.initial_state());
        // No data variables: the adaptive codec collapses to the same
        // layout, and canonical hashes agree.
        let ad = sys.adaptive_codec();
        assert_eq!(ad.bits(), 36);
        let st = sys.initial_state();
        assert_eq!(ad.state_hash(&st), codec.state_hash(&st));
    }

    #[test]
    fn reachable_states_roundtrip() {
        let sys = dining_philosophers(4, true).unwrap();
        let codec = sys.state_codec();
        // Walk a few hundred states and check losslessness plus injectivity.
        let mut seen = std::collections::HashMap::new();
        let mut stack = vec![sys.initial_state()];
        while let Some(st) = stack.pop() {
            if seen.len() > 500 {
                break;
            }
            let p = codec.encode(&st);
            assert_eq!(codec.decode(&p), st, "lossless");
            if let Some(prev) = seen.insert(p, st.clone()) {
                assert_eq!(prev, st, "encode must be injective");
                continue;
            }
            for (_, next) in sys.successors(&st) {
                stack.push(next);
            }
        }
    }

    #[test]
    fn variables_keep_full_i64_range() {
        let a = AtomBuilder::new("a")
            .var("x", i64::MIN)
            .var("y", i64::MAX)
            .var("z", -1)
            .port("p")
            .location("l")
            .initial("l")
            .transition("l", "p", "l")
            .build()
            .unwrap();
        let mut sb = SystemBuilder::new();
        let c = sb.add_instance("c", &a);
        sb.add_connector(ConnectorBuilder::singleton("t", c, "p"));
        let sys = sb.build().unwrap();
        let mut st = sys.initial_state();
        roundtrip(&sys, &st);
        sys.set_var(&mut st, c, 2, 0x0123_4567_89ab_cdefu64 as i64);
        roundtrip(&sys, &st);
    }

    #[test]
    fn single_location_components_cost_zero_bits() {
        let a = AtomBuilder::new("a")
            .port("p")
            .location("only")
            .initial("only")
            .transition("only", "p", "only")
            .build()
            .unwrap();
        let mut sb = SystemBuilder::new();
        for i in 0..10 {
            sb.add_instance(format!("c{i}"), &a);
        }
        sb.add_connector(ConnectorBuilder::singleton("t", 0, "p"));
        let sys = sb.build().unwrap();
        let codec = sys.state_codec();
        assert_eq!(codec.bits(), 0);
        assert_eq!(codec.words(), 0);
        roundtrip(&sys, &sys.initial_state());
    }

    #[test]
    fn wide_systems_spill_to_heap_and_cross_words() {
        // 40 three-location components: 80 bits, crossing a word boundary;
        // plus a variable pushing past the inline capacity.
        let a = AtomBuilder::new("a")
            .var("v", 7)
            .port("p")
            .location("l0")
            .location("l1")
            .location("l2")
            .initial("l1")
            .transition("l1", "p", "l2")
            .build()
            .unwrap();
        let mut sb = SystemBuilder::new();
        for i in 0..40 {
            sb.add_instance(format!("c{i}"), &a);
        }
        sb.add_connector(ConnectorBuilder::singleton("t", 0, "p"));
        let sys = sb.build().unwrap();
        let codec = sys.state_codec();
        assert_eq!(codec.bits(), 40 * 2 + 40 * 64);
        assert!(codec.words() > INLINE_WORDS);
        let st = sys.initial_state();
        let p = codec.encode(&st);
        assert!(p.heap_bytes() > 0);
        roundtrip(&sys, &st);
        // Mutate a late component so high words carry information.
        let mut st2 = st.clone();
        st2.locs[39] = 2;
        sys.set_var(&mut st2, 39, 0, -12345);
        assert_ne!(codec.encode(&st2), codec.encode(&st));
        roundtrip(&sys, &st2);
        // The adaptive codec sees 40 constant variables: zero bits each.
        let ad = sys.adaptive_codec();
        assert_eq!(ad.bits(), 80);
        assert_eq!(ad.words(), 2);
        roundtrip_with(&ad, &st);
    }

    #[test]
    fn encode_into_reuses_and_clears() {
        let sys = dining_philosophers(3, false).unwrap();
        let codec = sys.state_codec();
        let st = sys.initial_state();
        let (_, next) = &sys.successors(&st)[0];
        let mut buf = codec.encode(next);
        codec.encode_into(&st, &mut buf);
        assert_eq!(buf, codec.encode(&st), "stale bits must be cleared");
    }

    /// One guarded mod-8 counter: adaptive width 4 bits ([0, 8] after the
    /// crossing step), full width 64.
    fn counter_sys() -> System {
        let a = AtomBuilder::new("a")
            .port("p")
            .var("n", 0)
            .location("l")
            .initial("l")
            .guarded_transition(
                "l",
                "p",
                Expr::var(0).lt(Expr::int(8)),
                vec![("n", Expr::var(0).add(Expr::int(1)))],
                "l",
            )
            .build()
            .unwrap();
        let mut sb = SystemBuilder::new();
        let c = sb.add_instance("c", &a);
        sb.add_connector(ConnectorBuilder::singleton("t", c, "p"));
        sb.build().unwrap()
    }

    #[test]
    fn adaptive_narrows_bounded_counters() {
        let sys = counter_sys();
        let full = sys.state_codec();
        let ad = sys.adaptive_codec();
        assert_eq!(full.bits(), 64);
        assert_eq!(ad.bits(), 4, "[0, 8] needs 4 bits");
        assert_eq!(ad.var_bits(0), 4);
        // Every reachable value roundtrips and hashes canonically.
        let mut st = sys.initial_state();
        for _ in 0..=8 {
            roundtrip_with(&ad, &st);
            assert_eq!(ad.state_hash(&st), full.state_hash(&st));
            if sys.step(&mut st, |_| 0).is_none() {
                break;
            }
        }
    }

    #[test]
    fn overflow_reports_widen_and_ladder_recovers() {
        let sys = counter_sys();
        let ad = sys.adaptive_codec();
        let mut st = sys.initial_state();
        sys.set_var(&mut st, 0, 0, 1_000_000); // far outside [0, 8]
        let req = ad.try_encode(&st).unwrap_err();
        assert_eq!(req, WidenReq::Var(0));
        let wide = ad.widen(&sys, req);
        roundtrip_with(&wide, &st);
        // The widened codec interns out-of-line: the inline field is the
        // intern index, not 64 bits.
        assert_eq!(wide.var_bits(0), INTERN_START_BITS as u32);
        assert_eq!(wide.intern_table().unwrap().len(), 1);
        // In-range values still roundtrip through the widened codec.
        let st0 = sys.initial_state();
        roundtrip_with(&wide, &st0);
        assert_eq!(wide.state_hash(&st), ad.state_hash(&st), "canonical hash");
    }

    #[test]
    fn forced_narrow_width_exercises_widen() {
        let sys = counter_sys();
        let narrowed = sys.adaptive_codec().with_narrowed_var(&sys, 0, 1);
        let mut st = sys.initial_state();
        roundtrip_with(&narrowed, &st); // 0 fits one bit
        sys.set_var(&mut st, 0, 0, 1);
        roundtrip_with(&narrowed, &st); // 1 fits one bit
        sys.set_var(&mut st, 0, 0, 2);
        let req = narrowed.try_encode(&st).unwrap_err();
        assert_eq!(req, WidenReq::Var(0));
        roundtrip_with(&narrowed.widen(&sys, req), &st);
    }

    #[test]
    fn intern_index_field_grows_on_demand() {
        let sys = counter_sys();
        // Start from an interned plan with the narrowest possible ladder
        // step: force the var interned via widen, then shrink intern_bits by
        // interning more values than a tiny field can index. Interning 3
        // values with a 1-bit index must request an intern widen.
        let mut codec = sys.adaptive_codec().widen(&sys, WidenReq::Var(0));
        codec.intern_bits = 1;
        let mut st = sys.initial_state();
        let mut widened = false;
        for v in [100i64, 200, 300, 400] {
            sys.set_var(&mut st, 0, 0, v);
            match codec.try_encode(&st) {
                Ok(p) => assert_eq!(codec.decode(&p), st),
                Err(WidenReq::Intern) => {
                    codec = codec.widen(&sys, WidenReq::Intern);
                    widened = true;
                    roundtrip_with(&codec, &st);
                }
                Err(r) => panic!("unexpected {r:?}"),
            }
        }
        assert!(widened, "a 1-bit index cannot address 4 values");
        assert_eq!(codec.intern_bits, 9);
    }

    #[test]
    fn snapshot_restore_preserves_packed_layout_and_indices() {
        let sys = counter_sys();
        // Build an interned codec and encode several wide values so the
        // intern table carries real index assignments.
        let codec = sys.adaptive_codec().widen(&sys, WidenReq::Var(0));
        let mut st = sys.initial_state();
        let mut packed = Vec::new();
        for v in [1_000_000i64, -7, 42, 1_000_000, i64::MIN] {
            sys.set_var(&mut st, 0, 0, v);
            packed.push((codec.encode(&st), st.clone()));
        }
        let snap = codec.snapshot();
        // The original table keeps growing after the capture; the snapshot
        // must not see post-capture values.
        sys.set_var(&mut st, 0, 0, 999);
        let _ = codec.encode(&st);
        let restored = StateCodec::restore(&sys, &snap);
        assert_eq!(restored.bits(), codec.bits());
        assert_eq!(restored.words(), codec.words());
        assert_eq!(restored.intern_table().unwrap().len(), 4, "pre-capture");
        for (p, want) in &packed {
            // Bit-identical words decode to the same state through the
            // restored codec, and re-encoding reproduces the same words.
            assert_eq!(&restored.decode(p), want);
            assert_eq!(restored.encode(want), *p);
        }
        // The restored ladder keeps working: new values intern fresh.
        sys.set_var(&mut st, 0, 0, 31337);
        roundtrip_with(&restored, &st);
    }

    #[test]
    fn snapshot_restore_without_interning() {
        let sys = dining_philosophers(5, true).unwrap();
        let codec = sys.adaptive_codec();
        let restored = StateCodec::restore(&sys, &codec.snapshot());
        let st = sys.initial_state();
        assert_eq!(restored.encode(&st), codec.encode(&st));
        assert_eq!(restored.bits(), codec.bits());
    }

    /// Patch-encode `next` over `parent`'s words and check the result
    /// against the full encode: the same words, or the same widen request.
    fn assert_patch_exact(codec: &StateCodec, parent: &State, next: &State, touched: &[CompId]) {
        let parent_words = codec.encode(parent);
        let mut patched = codec.encode(parent);
        let got = codec.try_encode_patch_into(parent_words.words(), next, touched, &mut patched);
        let mut full = codec.new_packed();
        let want = codec.try_encode_into(next, &mut full);
        assert_eq!(got, want, "same widen request");
        assert_eq!(patched, full, "same words");
    }

    /// `n` two-location toggles (one location bit each), then one atom
    /// with a two-location control and one counter variable `v`.
    fn toggles_then_counter(n: usize) -> System {
        let toggle = AtomBuilder::new("toggle")
            .port("t")
            .location("a")
            .location("b")
            .initial("a")
            .transition("a", "t", "b")
            .transition("b", "t", "a")
            .build()
            .unwrap();
        let counter = AtomBuilder::new("counter")
            .port("p")
            .var("v", 0)
            .location("l0")
            .location("l1")
            .initial("l0")
            .guarded_transition(
                "l0",
                "p",
                Expr::t(),
                vec![("v", Expr::var(0).add(Expr::int(1)))],
                "l1",
            )
            .build()
            .unwrap();
        let mut sb = SystemBuilder::new();
        for i in 0..n {
            let c = sb.add_instance(format!("t{i}"), &toggle);
            sb.add_connector(ConnectorBuilder::singleton(format!("t{i}"), c, "t"));
        }
        let c = sb.add_instance("c", &counter);
        sb.add_connector(ConnectorBuilder::singleton("p", c, "p"));
        sb.build().unwrap()
    }

    #[test]
    fn patch_overwrites_a_field_straddling_a_word_boundary() {
        // 62 toggle bits, the counter's location bit at 62, and its 10-bit
        // variable at bits 63..73: across the first word boundary.
        let sys = toggles_then_counter(62);
        let c = 62;
        let codec = sys.adaptive_codec().with_narrowed_var(&sys, 0, 10);
        assert_eq!(codec.bits(), 73);
        let mut parent = sys.initial_state();
        parent.locs[5] = 1;
        sys.set_var(&mut parent, c, 0, 0b10_1010_1010);
        let mut next = parent.clone();
        next.locs[c] = 1;
        sys.set_var(&mut next, c, 0, 0b01_0101_0101);
        assert_patch_exact(&codec, &parent, &next, &[c]);
        // An overflow of the straddling field reports the full encode's
        // request and clears the buffer.
        sys.set_var(&mut next, c, 0, 1 << 10);
        assert_patch_exact(&codec, &parent, &next, &[c]);
    }

    #[test]
    fn patch_overwrites_wide_fields() {
        // Full-width: the variable is a 64-bit image after `n` toggle bits
        // and the counter's location bit — at bits 1 and 63 it straddles a
        // word boundary, at bit 64 it fills the second word.
        for n in [0usize, 62, 63] {
            let sys = toggles_then_counter(n);
            let codec = sys.state_codec();
            let mut parent = sys.initial_state();
            sys.set_var(&mut parent, n, 0, -1);
            for v in [i64::MIN, 0x0123_4567_89ab_cdef, 0, i64::MAX] {
                let mut next = parent.clone();
                next.locs[n] = 1;
                sys.set_var(&mut next, n, 0, v);
                assert_patch_exact(&codec, &parent, &next, &[n]);
            }
        }
    }

    #[test]
    fn patch_clears_a_field_going_to_zero() {
        // A patch that ORed instead of overwriting would keep the parent's
        // bits of every field below.
        let sys = toggles_then_counter(3);
        let codec = sys.adaptive_codec().with_narrowed_var(&sys, 0, 4);
        let mut parent = sys.initial_state();
        parent.locs = vec![1, 1, 1, 1];
        sys.set_var(&mut parent, 3, 0, 15);
        let mut next = parent.clone();
        next.locs = vec![1, 0, 1, 0];
        sys.set_var(&mut next, 3, 0, 0);
        assert_patch_exact(&codec, &parent, &next, &[1, 3]);
        assert_eq!(codec.encode(&next).words(), &[0b101]);
    }

    #[test]
    fn patch_interns_like_the_full_encode() {
        // A 1-bit intern index holds two values: the third new value asks
        // for an intern widen through the patch exactly as through the full
        // encode, and the widened codec patches it in.
        let sys = counter_sys();
        let mut codec = sys.adaptive_codec().widen(&sys, WidenReq::Var(0));
        codec.intern_bits = 1;
        let parent = sys.initial_state();
        let mut next = parent.clone();
        for v in [7i64, 0, 9] {
            sys.set_var(&mut next, 0, 0, v);
            assert_patch_exact(&codec, &parent, &next, &[0]);
        }
        let mut out = codec.new_packed();
        let pw = codec.encode(&parent);
        assert_eq!(
            codec.try_encode_patch_into(pw.words(), &next, &[0], &mut out),
            Err(WidenReq::Intern)
        );
        let codec = codec.widen(&sys, WidenReq::Intern);
        assert_patch_exact(&codec, &parent, &next, &[0]);
    }

    #[test]
    fn interning_is_idempotent_and_concurrent() {
        let table = InternTable::default();
        let vals: Vec<i64> = (0..200).map(|i| i * 7 - 300).collect();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for &v in &vals {
                        let i1 = table.intern(v);
                        assert_eq!(table.intern(v), i1);
                        assert_eq!(table.value(i1), v);
                    }
                });
            }
        });
        assert_eq!(table.len(), vals.len());
    }
}
