//! Exactness of the patch encode (`StateCodec::try_encode_patch_into`):
//! for every successor of every state reached up to a bound, re-encoding
//! only the step's participants over the parent's packed words yields
//! exactly what the full encode yields — the same words, or the same
//! `WidenReq`.
//!
//! The two encodes run on twin codecs with independent intern tables (the
//! patch side restored from a snapshot of the full side), so equal words
//! also prove that the patch interns new values in the full encode's order.
//! Four codec plans are covered: the adaptive codec and the full-width
//! codec on random systems, the adaptive codec with every variable narrowed
//! to one bit (drifting values then overflow, and both sides must request
//! the same widen at the same successor), and the interned plan of the
//! unbounded token ring.

use std::collections::{HashSet, VecDeque};

use bip_core::{CompId, PackedState, State, StateCodec, SuccStep, System};

mod common;
use common::random_system;

/// The components a step may change, ascending.
fn touched(step: SuccStep<'_>) -> Vec<CompId> {
    let mut comps: Vec<CompId> = match step {
        SuccStep::Interaction { transitions, .. } => transitions.iter().map(|&(c, _)| c).collect(),
        SuccStep::Internal { component, .. } => vec![component],
    };
    comps.sort_unstable();
    comps
}

/// Breadth-first search from the initial state, storing up to `bound`
/// states, checking every successor's patch encode against its full encode
/// and climbing the widening ladder on both codecs in step. Returns the
/// number of successors checked and of widens taken.
fn check_patch_exact(
    sys: &System,
    start: StateCodec,
    bound: usize,
    ctx: &str,
) -> Result<(usize, usize), String> {
    let mut full = start;
    let mut patch = StateCodec::restore(sys, &full.snapshot());
    let mut es = sys.new_enabled_set();
    let mut scratch = sys.new_succ_scratch();
    let init = sys.initial_state();
    let mut seen: HashSet<State> = HashSet::from([init.clone()]);
    let mut queue = VecDeque::from([init]);
    let (mut checked, mut widens) = (0, 0);
    let (mut want, mut got, mut parent) = (
        PackedState::zeroed(0),
        PackedState::zeroed(0),
        PackedState::zeroed(0),
    );
    while let Some(st) = queue.pop_front() {
        let mut succs = Vec::new();
        es.invalidate_all();
        sys.for_each_successor(&st, &mut es, &mut scratch, |step, next| {
            succs.push((touched(step), next.clone()));
        });
        'retry: loop {
            let a = full.try_encode_into(&st, &mut want);
            let b = patch.try_encode_into(&st, &mut parent);
            if a != b || want != parent {
                return Err(format!("{ctx}: twin codecs diverged on a parent"));
            }
            if let Err(req) = a {
                full = full.widen(sys, req);
                patch = patch.widen(sys, req);
                widens += 1;
                continue;
            }
            for (comps, next) in &succs {
                let a = full.try_encode_into(next, &mut want);
                let b = patch.try_encode_patch_into(parent.words(), next, comps, &mut got);
                if a != b || want != got {
                    return Err(format!(
                        "{ctx}: patch {b:?} {got:?} != full {a:?} {want:?} \
                         for {next:?} from {st:?} touching {comps:?}"
                    ));
                }
                checked += 1;
                if let Err(req) = a {
                    full = full.widen(sys, req);
                    patch = patch.widen(sys, req);
                    widens += 1;
                    continue 'retry;
                }
            }
            break;
        }
        for (_, next) in succs {
            if seen.len() < bound && seen.insert(next.clone()) {
                queue.push_back(next);
            }
        }
    }
    Ok((checked, widens))
}

#[test]
fn patch_encode_matches_full_encode_on_random_systems() {
    let (mut checked, mut widens) = (0, 0);
    for seed in 0u64..80 {
        let sys = random_system(seed);
        let mut narrowed = sys.adaptive_codec();
        for v in 0..sys.num_vars() {
            narrowed = narrowed.with_narrowed_var(&sys, v, 1);
        }
        for (name, codec) in [
            ("adaptive", sys.adaptive_codec()),
            ("full-width", sys.state_codec()),
            ("narrowed", narrowed),
        ] {
            let (c, w) = check_patch_exact(&sys, codec, 300, &format!("seed {seed} {name}"))
                .unwrap_or_else(|e| panic!("{e}"));
            checked += c;
            widens += w;
        }
    }
    assert!(checked > 10_000, "only {checked} successors checked");
    assert!(widens > 0, "no case exercised a widen");
}

#[test]
fn patch_encode_matches_full_encode_on_interned_ring() {
    let sys = bench::unbounded_ring(4);
    let codec = sys.adaptive_codec();
    assert!(codec.intern_table().is_some(), "the ring's counters intern");
    let (checked, _) =
        check_patch_exact(&sys, codec, 3_000, "uring4").unwrap_or_else(|e| panic!("{e}"));
    assert!(checked > 3_000);
}
