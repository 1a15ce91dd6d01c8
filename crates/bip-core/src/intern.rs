//! Lock-free append-only `i64` interning.
//!
//! The adaptive [`crate::StateCodec`] stores variables its range analysis
//! cannot bound as small indices into a shared [`InternTable`]: rare wide
//! values cost an inline index field instead of 64 bits. On workloads where
//! wide variables are *not* rare — genuinely unbounded counters, where
//! every encode of every state interns — the table is on the hot path of
//! every worker of the parallel explorer at once. The previous
//! implementation serialized those encodes through 16 shard `RwLock`s; this
//! one takes no locks at all.
//!
//! # Design
//!
//! Two append-only structures, both allocated on demand and never moved:
//!
//! * **Claim tables** — a ladder of fixed-capacity open-addressing tables
//!   (4× the capacity per level). A slot is claimed with one
//!   compare-and-swap on its `meta` word (`EMPTY → CLAIMING`), then
//!   published (`→ READY`) after the key, index, and value are written.
//!   Probers never skip a slot they have not classified: an `EMPTY` slot is
//!   CAS-raced, a `CLAIMING` slot is spun on until published, a `READY`
//!   slot is key-compared — which is exactly the argument for why one value
//!   can never be assigned two indices. A level whose probe window is
//!   exhausted (all `READY` with other keys) overflows to the next, larger
//!   level; slots never empty out, so the overflow decision is stable.
//! * **Value segments** — a geometric ladder of `AtomicU64` arrays indexed
//!   by the dense interned index, so [`InternTable::value`] is two loads
//!   (segment pointer, then value) with no search and no lock. Indices are
//!   assigned from one global counter, so they are dense: index fields in
//!   packed states grow only when the number of *distinct* values demands
//!   it.
//!
//! Index *assignment* still depends on encode interleaving (two runs may
//! number the same values differently) — unchanged from the locked table,
//! and fine for the same reason: indices never leak out of packed
//! representations, and every consumer needing run-independent identity
//! hashes values, not indices (see [`crate::StateCodec::state_hash`]).
//!
//! ```
//! use bip_core::InternTable;
//!
//! let t = InternTable::default();
//! let i = t.intern(1 << 40);
//! assert_eq!(t.intern(1 << 40), i, "idempotent");
//! assert_eq!(t.value(i), 1 << 40);
//! assert_eq!(t.len(), 1);
//! ```

// Every `unsafe` block below states why it is sound; clippy's
// `-D warnings` gate holds the rule.
#![deny(clippy::undocumented_unsafe_blocks)]

use std::hash::Hasher;
use std::ptr;
use std::sync::atomic::{AtomicPtr, AtomicU32, AtomicU64, Ordering};

use crate::hash::FxHasher;

/// Capacity of the first claim table; levels grow 4× each.
const LEVEL0_CAP: usize = 1 << 10;

/// Claim-table levels: capacities 2^10, 2^12, …, 2^28 — far beyond the
/// widest index field a codec can address.
const NUM_LEVELS: usize = 10;

/// Linear probes per level before overflowing to the next level. Identical
/// for every prober of a level, which the no-duplicate argument needs.
const PROBE_LIMIT: usize = 64;

/// Entries of the first value segment; segments double thereafter.
const SEG0_CAP: usize = 1 << 10;

/// Value segments: `SEG0_CAP * (2^22 - 1)` entries exceed `u32::MAX`.
const NUM_SEGS: usize = 22;

/// Slot states of a claim table.
const EMPTY: u32 = 0;
const CLAIMING: u32 = 1;
const READY: u32 = 2;

/// One claim-table slot. All fields are plain atomics: the `Release` store
/// of `READY` into `meta` publishes `key` and `idx`, and the matching
/// `Acquire` load makes them visible — no `unsafe` cell anywhere.
struct Slot {
    meta: AtomicU32,
    key: AtomicU64,
    idx: AtomicU32,
}

/// A fixed-capacity open-addressing claim table (one ladder level).
struct Level {
    slots: Box<[Slot]>,
}

impl Level {
    fn new(cap: usize) -> Level {
        debug_assert!(cap.is_power_of_two());
        Level {
            slots: (0..cap)
                .map(|_| Slot {
                    meta: AtomicU32::new(EMPTY),
                    key: AtomicU64::new(0),
                    idx: AtomicU32::new(0),
                })
                .collect(),
        }
    }
}

/// The lock-free `i64` interning table behind the adaptive codec's
/// interned-variable plans; see the [module docs](self) for the design and
/// the no-duplicate argument.
///
/// A value segment is stored as a thin pointer to the first element of a
/// leaked `Box<[AtomicU64]>` (segment `k` has the statically known length
/// `SEG0_CAP << k`), so [`InternTable::value`] dereferences the segment
/// pointer and the element — no second box to chase on the decode hot
/// path.
pub struct InternTable {
    levels: [AtomicPtr<Level>; NUM_LEVELS],
    segs: [AtomicPtr<AtomicU64>; NUM_SEGS],
    /// Next dense index; also the published length.
    next: AtomicU32,
}

impl Default for InternTable {
    fn default() -> InternTable {
        InternTable {
            levels: std::array::from_fn(|_| AtomicPtr::new(ptr::null_mut())),
            segs: std::array::from_fn(|_| AtomicPtr::new(ptr::null_mut())),
            next: AtomicU32::new(0),
        }
    }
}

impl std::fmt::Debug for InternTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InternTable")
            .field("len", &self.len())
            .finish_non_exhaustive()
    }
}

/// `(segment, offset)` of a dense index in the geometric segment ladder.
#[inline]
fn seg_of(idx: u32) -> (usize, usize) {
    let q = idx as usize / SEG0_CAP + 1;
    let k = (usize::BITS - 1 - q.leading_zeros()) as usize;
    (k, idx as usize - SEG0_CAP * ((1 << k) - 1))
}

/// Get-or-create behind an `AtomicPtr`: allocate, CAS-install, and drop the
/// loser's allocation on a race. Pointers installed here are only freed in
/// [`InternTable::drop`], so every dereference of an installed pointer is
/// valid for the table's lifetime.
fn get_or_install<T>(cell: &AtomicPtr<T>, make: impl FnOnce() -> T) -> &T {
    let p = cell.load(Ordering::Acquire);
    if !p.is_null() {
        // SAFETY: a non-null pointer in `cell` came from `Box::into_raw` and
        // was installed by the CAS below; the `Acquire` load pairs with that
        // CAS's release, so the pointee is initialized, and it is freed only
        // in `InternTable::drop`, which `&self` borrows outlive.
        return unsafe { &*p };
    }
    let raw = Box::into_raw(Box::new(make()));
    match cell.compare_exchange(ptr::null_mut(), raw, Ordering::AcqRel, Ordering::Acquire) {
        // SAFETY: `raw` is a live `Box` allocation that this CAS just
        // published; from now on only `InternTable::drop` frees it.
        Ok(_) => unsafe { &*raw },
        Err(cur) => {
            // Lost the install race: free ours, use the winner's.
            // SAFETY: the CAS failed, so `raw` was never published: this
            // thread still owns the allocation `Box::into_raw` returned.
            drop(unsafe { Box::from_raw(raw) });
            // SAFETY: `cur` is the non-null winner's pointer, installed by a
            // successful CAS (the `Acquire` failure ordering pairs with its
            // release) and freed only in `InternTable::drop`.
            unsafe { &*cur }
        }
    }
}

/// Get-or-create a value segment: like [`get_or_install`], but the cell
/// holds a thin pointer to the first element of a leaked `len`-element
/// slice (reassembled from the same `len` in [`InternTable::drop`]).
fn get_or_install_seg(cell: &AtomicPtr<AtomicU64>, len: usize) -> &[AtomicU64] {
    let p = cell.load(Ordering::Acquire);
    if !p.is_null() {
        // SAFETY: a non-null pointer in `cell` is the first element of a
        // leaked `len`-element slice installed by the CAS below (every
        // caller passes the same `len` for a given cell); the `Acquire`
        // load pairs with the CAS's release, and the slice is freed only in
        // `InternTable::drop`.
        return unsafe { std::slice::from_raw_parts(p, len) };
    }
    let boxed: Box<[AtomicU64]> = (0..len).map(|_| AtomicU64::new(0)).collect();
    let raw = Box::into_raw(boxed) as *mut AtomicU64;
    match cell.compare_exchange(ptr::null_mut(), raw, Ordering::AcqRel, Ordering::Acquire) {
        // SAFETY: `raw` points at the `len` initialized elements of the
        // slice this CAS just published; only `InternTable::drop` frees it.
        Ok(_) => unsafe { std::slice::from_raw_parts(raw, len) },
        Err(cur) => {
            // SAFETY: the CAS failed, so this thread still owns the
            // `len`-element allocation behind `raw`; rebuilding the fat
            // pointer from the same `len` frees it with its own layout.
            drop(unsafe { Box::from_raw(ptr::slice_from_raw_parts_mut(raw, len)) });
            // SAFETY: `cur` is the winner's published `len`-element slice
            // (same `len` for this cell), visible through the `Acquire`
            // failure ordering and freed only in `InternTable::drop`.
            unsafe { std::slice::from_raw_parts(cur, len) }
        }
    }
}

impl InternTable {
    /// Intern `value`, returning its dense index (idempotent: the same
    /// value always maps to the same index, from any thread).
    pub fn intern(&self, value: i64) -> u32 {
        let mut h = FxHasher::default();
        h.write_u64(value as u64);
        let hash = h.finish();
        let key = value as u64;
        for li in 0..NUM_LEVELS {
            let cap = LEVEL0_CAP << (2 * li);
            let level = get_or_install(&self.levels[li], || Level::new(cap));
            let mask = cap - 1;
            let mut i = hash as usize & mask;
            for _ in 0..PROBE_LIMIT.min(cap) {
                let slot = &level.slots[i];
                let mut meta = slot.meta.load(Ordering::Acquire);
                if meta == EMPTY {
                    match slot.meta.compare_exchange(
                        EMPTY,
                        CLAIMING,
                        Ordering::Acquire,
                        Ordering::Acquire,
                    ) {
                        Ok(_) => {
                            // Slot owned: assign the next dense index,
                            // publish the value, then the slot.
                            let idx = self.next.fetch_add(1, Ordering::Relaxed);
                            assert!(idx != u32::MAX, "intern table overflow");
                            self.store_value(idx, value);
                            slot.key.store(key, Ordering::Relaxed);
                            slot.idx.store(idx, Ordering::Relaxed);
                            slot.meta.store(READY, Ordering::Release);
                            return idx;
                        }
                        Err(cur) => meta = cur,
                    }
                }
                if meta == CLAIMING {
                    // Another thread is publishing this slot; its key may be
                    // ours, so wait (bounded spin, then yield) — never skip.
                    let mut spins = 0u32;
                    loop {
                        meta = slot.meta.load(Ordering::Acquire);
                        if meta == READY {
                            break;
                        }
                        spins += 1;
                        if spins < 64 {
                            std::hint::spin_loop();
                        } else {
                            std::thread::yield_now();
                        }
                    }
                }
                debug_assert_eq!(meta, READY);
                if slot.key.load(Ordering::Relaxed) == key {
                    return slot.idx.load(Ordering::Relaxed);
                }
                i = (i + 1) & mask;
            }
            // Probe window exhausted (all READY with other keys, and slots
            // never empty out): overflow to the next, 4× larger level.
        }
        panic!("intern table overflow: every level's probe window exhausted");
    }

    /// Write `value` at `idx` in the segment ladder (called exactly once
    /// per index, by the claimer, before the slot is published).
    fn store_value(&self, idx: u32, value: i64) {
        let (k, off) = seg_of(idx);
        let seg = get_or_install_seg(&self.segs[k], SEG0_CAP << k);
        seg[off].store(value as u64, Ordering::Release);
    }

    /// The value behind an interned index.
    ///
    /// No lock, no search: the dense index names one fixed cell of the
    /// segment ladder, reached through the segment pointer and one element
    /// load.
    pub fn value(&self, idx: u32) -> i64 {
        debug_assert!(idx < self.next.load(Ordering::Acquire), "foreign index");
        let (k, off) = seg_of(idx);
        let seg = self.segs[k].load(Ordering::Acquire);
        assert!(!seg.is_null(), "index from a different table");
        debug_assert!(off < SEG0_CAP << k);
        // SAFETY: `seg` is non-null (asserted), so it is segment `k`'s
        // installed `SEG0_CAP << k`-element slice, alive until `drop`;
        // `seg_of` keeps `off` below that length, so `seg.add(off)` stays
        // in bounds of one allocation.
        unsafe { &*seg.add(off) }.load(Ordering::Acquire) as i64
    }

    /// Number of distinct interned values.
    pub fn len(&self) -> usize {
        self.next.load(Ordering::Acquire) as usize
    }

    /// `true` when nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All interned values in index order: `values()[i]` is the value behind
    /// index `i`. The table is append-only, so the snapshot is a stable
    /// prefix of any later state — replaying it into a fresh table with
    /// [`InternTable::intern`] reproduces the same index assignment, which
    /// is what checkpoint serialization of a codec ladder relies on.
    pub fn values(&self) -> Vec<i64> {
        (0..self.len() as u32).map(|i| self.value(i)).collect()
    }
}

impl Drop for InternTable {
    fn drop(&mut self) {
        for cell in self.levels.iter() {
            let p = cell.swap(ptr::null_mut(), Ordering::AcqRel);
            if !p.is_null() {
                // SAFETY: `&mut self` rules out other users; `p` came from
                // `Box::into_raw` in `get_or_install`, and swapping in null
                // makes this the only free.
                drop(unsafe { Box::from_raw(p) });
            }
        }
        for (k, cell) in self.segs.iter().enumerate() {
            let p = cell.swap(ptr::null_mut(), Ordering::AcqRel);
            if !p.is_null() {
                let len = SEG0_CAP << k;
                // SAFETY: `&mut self` rules out other users; `p` is segment
                // `k`'s leaked slice, allocated in `get_or_install_seg` with
                // exactly `len` elements, and swapping in null makes this
                // the only free.
                drop(unsafe { Box::from_raw(ptr::slice_from_raw_parts_mut(p, len)) });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_indices_in_insertion_order() {
        let t = InternTable::default();
        assert!(t.is_empty());
        for (expect, v) in [7i64, -7, i64::MAX, i64::MIN, 0].into_iter().enumerate() {
            let idx = t.intern(v);
            assert_eq!(idx as usize, expect, "indices are dense");
            assert_eq!(t.value(idx), v);
        }
        assert_eq!(t.len(), 5);
    }

    #[test]
    fn idempotent_under_heavy_contention() {
        // Many threads interning overlapping value sets: every value must
        // get exactly one index, and len() must equal the distinct count.
        let t = InternTable::default();
        let distinct = 3_000i64;
        let indices: Vec<Vec<u32>> = std::thread::scope(|s| {
            (0..8)
                .map(|off| {
                    let t = &t;
                    s.spawn(move || {
                        (0..distinct)
                            .map(|i| t.intern((i + off) % distinct - distinct / 2))
                            .collect()
                    })
                })
                .map(|h| h.join().unwrap())
                .collect()
        });
        assert_eq!(t.len(), distinct as usize);
        // All threads agree on every value's index.
        for (off, per_thread) in indices.iter().enumerate() {
            for (i, &idx) in per_thread.iter().enumerate() {
                let v = (i as i64 + off as i64) % distinct - distinct / 2;
                assert_eq!(t.value(idx), v);
                assert_eq!(t.intern(v), idx);
            }
        }
    }

    #[test]
    fn survives_level_overflow() {
        // More values than one probe window can hold forces the ladder to
        // higher levels; indices stay dense and lookups stay exact.
        let t = InternTable::default();
        let n = (LEVEL0_CAP * 2) as i64;
        let idxs: Vec<u32> = (0..n).map(|v| t.intern(v * 104_729)).collect();
        assert_eq!(t.len(), n as usize);
        for (v, &idx) in idxs.iter().enumerate() {
            assert_eq!(t.value(idx), v as i64 * 104_729);
            assert_eq!(t.intern(v as i64 * 104_729), idx);
        }
    }

    #[test]
    fn segment_geometry_is_a_partition() {
        // Every index maps to exactly one (segment, offset) cell and the
        // ladder is contiguous.
        let mut expect = 0usize;
        for k in 0..6 {
            for off in 0..(SEG0_CAP << k) {
                let (kk, o) = seg_of(expect as u32);
                assert_eq!((kk, o), (k, off), "idx {expect}");
                expect += 1;
            }
        }
    }
}
