//! Fixed-width bitsets over dense index universes.
//!
//! The compositional verifier (`bip-verify::dfinder`) manipulates *sets of
//! places* of a Petri-net abstraction: trap candidates, transition pre/post
//! sets, invariant supports. The universe — the number of places — is fixed
//! and known when the abstraction is built, and it is *dense*: places are
//! `0..num_places`. A hash set of `usize` is the wrong shape for that
//! workload: every membership test hashes, every set costs an allocation
//! per element, and the hot trap-condition check (`pre ∩ S = ∅ ∨
//! post ∩ S ≠ ∅`, once per abstract transition per candidate shrink) walks
//! a heap structure.
//!
//! [`PlaceSet`] packs the universe into `u64` words: membership is one
//! shift-and-mask, intersection tests are word-wise `AND`s, and a whole set
//! is a contiguous word slice that can live inline in an arena at a fixed
//! `words_per_set` stride. The
//! capacity is part of the value: sets of different capacities compare
//! unequal and must not be mixed, mirroring how packed states of different
//! codecs must not be mixed.
//!
//! ```
//! use bip_core::PlaceSet;
//!
//! let mut s = PlaceSet::new(100);
//! s.insert(3);
//! s.insert(97);
//! assert!(s.contains(3) && !s.contains(4));
//! assert_eq!(s.iter().collect::<Vec<_>>(), vec![3, 97]);
//!
//! let t = PlaceSet::from_places(100, [97, 99]);
//! assert!(s.intersects(&t));
//! assert!(!s.is_subset(&t));
//! ```

use std::hash::{Hash, Hasher};

/// A fixed-capacity bitset over a dense `0..capacity` index universe.
///
/// See the [module docs](self) for the workload this is shaped for. The
/// word layout is public through [`PlaceSet::words`] /
/// [`PlaceSet::from_words`] so arena-backed stores can keep bare words and
/// rebuild sets without re-inserting bit by bit.
#[derive(Clone)]
pub struct PlaceSet {
    /// Universe size in indices (bits); fixed for the set's lifetime.
    capacity: usize,
    /// Packed membership bits, `capacity.div_ceil(64)` words, unused high
    /// bits always zero (equality and hashing rely on it).
    words: Box<[u64]>,
    /// Cached population count, maintained by every mutation.
    len: usize,
}

impl PlaceSet {
    /// An empty set over the universe `0..capacity`.
    pub fn new(capacity: usize) -> PlaceSet {
        PlaceSet {
            capacity,
            words: vec![0u64; capacity.div_ceil(64)].into_boxed_slice(),
            len: 0,
        }
    }

    /// An empty set over the same universe as `self`.
    pub fn empty_like(&self) -> PlaceSet {
        PlaceSet::new(self.capacity)
    }

    /// Build a set from an iterator of indices.
    ///
    /// # Panics
    ///
    /// Panics if any index is `>= capacity`.
    pub fn from_places<I: IntoIterator<Item = usize>>(capacity: usize, places: I) -> PlaceSet {
        let mut s = PlaceSet::new(capacity);
        for p in places {
            s.insert(p);
        }
        s
    }

    /// Rebuild a set from raw words (an arena slice). `words` must be the
    /// exact word count for `capacity` with no stray high bits — the shape
    /// produced by [`PlaceSet::words`].
    pub fn from_words(capacity: usize, words: &[u64]) -> PlaceSet {
        assert_eq!(words.len(), capacity.div_ceil(64), "word count mismatch");
        if let Some(&last) = words.last() {
            let used = capacity % 64;
            if used != 0 {
                assert_eq!(last >> used, 0, "stray bits beyond the capacity");
            }
        }
        PlaceSet {
            capacity,
            words: words.into(),
            len: words.iter().map(|w| w.count_ones() as usize).sum(),
        }
    }

    /// The universe size this set ranges over.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The packed membership words (fixed length for a given capacity).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no index is a member.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, p: usize) -> bool {
        debug_assert!(p < self.capacity);
        self.words[p / 64] >> (p % 64) & 1 == 1
    }

    /// Insert `p`; returns `true` if it was absent.
    ///
    /// # Panics
    ///
    /// Panics if `p >= capacity` (the universe is fixed at construction).
    #[inline]
    pub fn insert(&mut self, p: usize) -> bool {
        assert!(p < self.capacity, "index {p} outside universe");
        let w = &mut self.words[p / 64];
        let bit = 1u64 << (p % 64);
        let fresh = *w & bit == 0;
        *w |= bit;
        self.len += fresh as usize;
        fresh
    }

    /// Remove `p`; returns `true` if it was present.
    #[inline]
    pub fn remove(&mut self, p: usize) -> bool {
        debug_assert!(p < self.capacity);
        let w = &mut self.words[p / 64];
        let bit = 1u64 << (p % 64);
        let had = *w & bit != 0;
        *w &= !bit;
        // A branch, not `len -= had as usize`: rustc 1.95 at opt-level 3
        // drops that decrement (release builds kept `len` unchanged).
        if had {
            self.len -= 1;
        }
        had
    }

    /// Remove every member.
    pub fn clear(&mut self) {
        self.words.fill(0);
        self.len = 0;
    }

    /// `true` when the sets share at least one member (word-wise `AND`).
    ///
    /// # Panics
    ///
    /// Panics on a capacity mismatch — zipping differently-sized word
    /// slices would silently ignore the high indices, and a wrong answer
    /// here flows into soundness-critical checks (`Abstraction::is_trap`).
    pub fn intersects(&self, other: &PlaceSet) -> bool {
        assert_eq!(self.capacity, other.capacity, "capacity mismatch");
        self.words
            .iter()
            .zip(other.words.iter())
            .any(|(a, b)| a & b != 0)
    }

    /// Number of members the sets share (word-wise `AND` and popcount).
    ///
    /// # Panics
    ///
    /// Panics on a capacity mismatch (see [`PlaceSet::intersects`]).
    pub fn intersection_len(&self, other: &PlaceSet) -> usize {
        assert_eq!(self.capacity, other.capacity, "capacity mismatch");
        self.words
            .iter()
            .zip(other.words.iter())
            .map(|(a, b)| (a & b).count_ones() as usize)
            .sum()
    }

    /// `true` when every member of `self` is in `other`.
    ///
    /// # Panics
    ///
    /// Panics on a capacity mismatch (see [`PlaceSet::intersects`]).
    pub fn is_subset(&self, other: &PlaceSet) -> bool {
        assert_eq!(self.capacity, other.capacity, "capacity mismatch");
        self.words
            .iter()
            .zip(other.words.iter())
            .all(|(a, b)| a & !b == 0)
    }

    /// Add every member of `other` to `self`.
    ///
    /// # Panics
    ///
    /// Panics on a capacity mismatch (see [`PlaceSet::intersects`]).
    pub fn union_with(&mut self, other: &PlaceSet) {
        assert_eq!(self.capacity, other.capacity, "capacity mismatch");
        let mut len = 0;
        for (a, b) in self.words.iter_mut().zip(other.words.iter()) {
            *a |= b;
            len += a.count_ones() as usize;
        }
        self.len = len;
    }

    /// The smallest member, if any.
    pub fn min(&self) -> Option<usize> {
        for (wi, &w) in self.words.iter().enumerate() {
            if w != 0 {
                return Some(wi * 64 + w.trailing_zeros() as usize);
            }
        }
        None
    }

    /// Iterate members in ascending order.
    pub fn iter(&self) -> PlaceSetIter<'_> {
        PlaceSetIter {
            set: self,
            word: 0,
            bits: self.words.first().copied().unwrap_or(0),
        }
    }

    /// The members as a sorted `Vec` (the legacy trap representation).
    pub fn to_vec(&self) -> Vec<usize> {
        self.iter().collect()
    }
}

/// Ascending member iterator of a [`PlaceSet`].
pub struct PlaceSetIter<'a> {
    set: &'a PlaceSet,
    word: usize,
    bits: u64,
}

impl Iterator for PlaceSetIter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        while self.bits == 0 {
            self.word += 1;
            if self.word >= self.set.words.len() {
                return None;
            }
            self.bits = self.set.words[self.word];
        }
        let b = self.bits.trailing_zeros() as usize;
        self.bits &= self.bits - 1;
        Some(self.word * 64 + b)
    }
}

impl<'a> IntoIterator for &'a PlaceSet {
    type Item = usize;
    type IntoIter = PlaceSetIter<'a>;

    fn into_iter(self) -> PlaceSetIter<'a> {
        self.iter()
    }
}

impl PartialEq for PlaceSet {
    fn eq(&self, other: &PlaceSet) -> bool {
        self.capacity == other.capacity && self.words == other.words
    }
}

impl Eq for PlaceSet {}

impl Hash for PlaceSet {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Whole words, like `PackedState`: keeps the multiply-rotate hasher
        // on its one-round-per-word fast path.
        state.write_usize(self.capacity);
        for &w in self.words.iter() {
            state.write_u64(w);
        }
    }
}

impl std::fmt::Debug for PlaceSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_contains() {
        let mut s = PlaceSet::new(130);
        assert!(s.is_empty());
        assert!(s.insert(0));
        assert!(s.insert(129));
        assert!(!s.insert(129), "double insert");
        assert_eq!(s.len(), 2);
        assert!(s.contains(0) && s.contains(129) && !s.contains(64));
        assert!(s.remove(0));
        assert!(!s.remove(0), "double remove");
        assert_eq!(s.len(), 1);
        assert_eq!(s.min(), Some(129));
    }

    #[test]
    fn len_tracks_remove_and_reinsert() {
        // D-Finder's greedy trap minimisation: drop a place, maybe put it
        // back. `len` must agree with the words after every step.
        let mut s = PlaceSet::from_places(100, [1, 2, 70]);
        for p in [1, 70, 2] {
            assert!(s.remove(p));
            assert_eq!(s.len(), s.iter().count());
            assert!(s.insert(p));
            assert_eq!(s.len(), 3);
        }
        for p in [1, 2, 70] {
            s.remove(p);
        }
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
    }

    #[test]
    fn iteration_is_ascending() {
        let s = PlaceSet::from_places(200, [199, 0, 64, 63, 65]);
        assert_eq!(s.to_vec(), vec![0, 63, 64, 65, 199]);
        assert_eq!(s.iter().count(), s.len());
    }

    #[test]
    fn set_algebra() {
        let a = PlaceSet::from_places(70, [1, 65]);
        let b = PlaceSet::from_places(70, [65, 66]);
        assert!(a.intersects(&b));
        assert_eq!(a.intersection_len(&b), 1);
        assert_eq!(a.intersection_len(&a), 2);
        assert!(!a.is_subset(&b));
        assert!(a.is_subset(&a));
        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(u.to_vec(), vec![1, 65, 66]);
        assert_eq!(u.len(), 3);
        let empty = PlaceSet::new(70);
        assert!(!empty.intersects(&a));
        assert!(empty.is_subset(&a));
    }

    #[test]
    fn words_roundtrip() {
        let s = PlaceSet::from_places(100, [0, 50, 99]);
        let r = PlaceSet::from_words(100, s.words());
        assert_eq!(r, s);
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn equality_and_hash_include_capacity() {
        use std::hash::BuildHasher;
        let a = PlaceSet::from_places(64, [3]);
        let b = PlaceSet::from_places(65, [3]);
        assert_ne!(a, b);
        let h = crate::hash::FxBuildHasher::default();
        assert_ne!(h.hash_one(&a), h.hash_one(&b));
    }

    #[test]
    #[should_panic(expected = "outside universe")]
    fn insert_outside_universe_panics() {
        PlaceSet::new(10).insert(10);
    }
}
