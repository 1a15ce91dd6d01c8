//! Cross-checks for the packed-state parallel reachability engine:
//!
//! * the sharded parallel BFS returns *identical* reports for every thread
//!   count, bounded or complete, on random systems and philosophers;
//! * on complete explorations the new engine agrees exactly with a verbatim
//!   reference of the PR-1 sequential explorer (full-`State` `HashMap`);
//! * the [`bip_core::StateCodec`] round-trips every reachable state of
//!   random systems losslessly and injectively — under the full-width
//!   reference codec *and* the adaptive narrow-width codec (whose width
//!   inference is thereby property-tested for soundness on reachable
//!   states);
//! * `explore`/`find_deadlock`/`check_invariant` reports are bit-identical
//!   between the adaptive and full-width codecs, for every thread count,
//!   bounded or not (differential codec testing);
//! * a deliberately narrowed starting codec ([`CodecMode::Custom`]) forces
//!   the repack-on-widen path mid-search and must change nothing about the
//!   reports;
//! * the adaptive codec stores at least 3× fewer bytes per state than the
//!   full-width codec on var-heavy counter rings, and never more anywhere
//!   (random systems and philosophers included);
//! * the edge stream of `explore_edges` is identical for every thread count
//!   and codec, lists exactly each state's successors on complete runs, and
//!   shows no edge out of an interrupted run's checkpoint frontier.
//!
//! The two differential properties run in the default suite at a reduced
//! completing bound; their full-size twins are `#[ignore]`d and run in
//! release: `cargo test --release --test parallel_reach -- --ignored`.

use std::collections::{HashMap, HashSet, VecDeque};

use bip_core::{dining_philosophers, State, StateCodec, StatePred, Step, System};
use bip_verify::control::Budget;
use bip_verify::reach::{
    check_invariant_with, explore_edges, explore_with, find_deadlock_with, CodecMode, ReachConfig,
    ReachReport,
};
use proptest::prelude::*;

mod common;
use bip_verify::StopReason;
use common::{
    counter_ring, pr1_explore as reference_explore, random_bounded_system, random_system,
};

fn assert_reports_equal(a: &ReachReport, b: &ReachReport, ctx: &str) -> Result<(), String> {
    if a.states != b.states
        || a.transitions != b.transitions
        || a.complete != b.complete
        || a.deadlocks != b.deadlocks
    {
        return Err(format!(
            "{ctx}: reports diverged: ({}, {}, {}, {} deadlocks) vs ({}, {}, {}, {} deadlocks)",
            a.states,
            a.transitions,
            a.complete,
            a.deadlocks.len(),
            b.states,
            b.transitions,
            b.complete,
            b.deadlocks.len()
        ));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Parallel and sequential `explore` agree exactly — states,
    /// transitions, deadlock list (order included), completeness — on
    /// random systems, both under a generous bound and under a tight one
    /// that truncates the search.
    #[test]
    fn parallel_explore_matches_sequential_on_random_systems(seed in 0u64..200) {
        let sys = random_system(seed);
        for bound in [8_000usize, 37] {
            let seq = explore_with(&sys, &ReachConfig::bounded(bound));
            for threads in [2usize, 4] {
                let par = explore_with(&sys, &ReachConfig::bounded(bound).threads(threads).min_parallel_level(1));
                if let Err(e) = assert_reports_equal(&par, &seq, &format!("seed {seed} bound {bound} threads {threads}")) {
                    prop_assert!(false, "{}", e);
                }
            }
        }
    }

    /// On complete explorations the new engine reproduces the PR-1
    /// reference explorer exactly (the deadlock *set* — discovery order
    /// within a BFS level may differ from the FIFO reference).
    #[test]
    fn new_engine_matches_pr1_reference_when_complete(seed in 0u64..200) {
        let sys = random_system(seed);
        let new = explore_with(&sys, &ReachConfig::bounded(8_000));
        if new.complete {
            let reference = reference_explore(&sys, 8_000);
            prop_assert!(reference.complete);
            prop_assert_eq!(new.states, reference.states);
            prop_assert_eq!(new.transitions, reference.transitions);
            let a: HashSet<State> = new.deadlocks.iter().cloned().collect();
            let b: HashSet<State> = reference.deadlocks.iter().cloned().collect();
            prop_assert_eq!(a, b);
        }
    }

    /// Deadlock search and invariant checking return the same witness,
    /// state count, and completeness for every thread count.
    #[test]
    fn parallel_witness_searches_match_sequential(seed in 0u64..120) {
        let sys = random_system(seed);
        for bound in [4_000usize, 29] {
            let ds = find_deadlock_with(&sys, &ReachConfig::bounded(bound));
            let dp = find_deadlock_with(&sys, &ReachConfig::bounded(bound).threads(4).min_parallel_level(1));
            prop_assert_eq!(&ds.witness, &dp.witness);
            prop_assert_eq!(ds.states, dp.states);
            prop_assert_eq!(ds.complete, dp.complete);
            prop_assert_eq!(ds.peak_bytes, dp.peak_bytes);
            prop_assert_eq!(ds.stop, dp.stop);

            let inv = StatePred::at(&sys, 0, "l0");
            let is = check_invariant_with(&sys, &inv, &ReachConfig::bounded(bound));
            let ip = check_invariant_with(&sys, &inv, &ReachConfig::bounded(bound).threads(4).min_parallel_level(1));
            prop_assert_eq!(&is.violation, &ip.violation);
            prop_assert_eq!(is.states, ip.states);
            prop_assert_eq!(is.complete, ip.complete);
            prop_assert_eq!(is.peak_bytes, ip.peak_bytes);
            prop_assert_eq!(is.stop, ip.stop);
        }
    }

    /// The codec round-trips every state reachable within a budget,
    /// losslessly and injectively.
    #[test]
    fn codec_roundtrips_reachable_states(seed in 0u64..200) {
        let sys = random_system(seed);
        let codec = sys.state_codec();
        let mut rev: HashMap<bip_core::PackedState, State> = HashMap::new();
        let mut queue = VecDeque::new();
        queue.push_back(sys.initial_state());
        while let Some(st) = queue.pop_front() {
            if rev.len() >= 2_000 {
                break;
            }
            let p = codec.encode(&st);
            prop_assert_eq!(&codec.decode(&p), &st);
            match rev.get(&p) {
                Some(prev) => {
                    prop_assert_eq!(prev, &st);
                    continue;
                }
                None => {
                    rev.insert(p, st.clone());
                }
            }
            for (_, next) in sys.successors(&st) {
                queue.push_back(next);
            }
        }
    }

    /// Philosophers: thread-count invariance holds on both variants at
    /// tight, crossing, and generous bounds (the bound-crossing level takes
    /// the deterministic merge path).
    #[test]
    fn philosophers_thread_invariance(n in 2usize..6, seed in 0u64..40) {
        let sys = dining_philosophers(n, seed % 2 == 1).unwrap();
        let bound = [3usize, 17, 100, 1_000_000][(seed % 4) as usize];
        let seq = explore_with(&sys, &ReachConfig::bounded(bound));
        let par = explore_with(&sys, &ReachConfig::bounded(bound).threads(4).min_parallel_level(1));
        if let Err(e) = assert_reports_equal(&par, &seq, &format!("phil {n} bound {bound}")) {
            prop_assert!(false, "{}", e);
        }
    }

    /// The adaptive codec round-trips every state reachable within a budget,
    /// losslessly and injectively — which also property-tests the width
    /// inference for soundness: a reachable value outside its inferred
    /// range would make `try_encode` fail here.
    #[test]
    fn adaptive_codec_roundtrips_reachable_states(seed in 0u64..200) {
        let sys = random_system(seed);
        let codec = sys.adaptive_codec();
        let full = sys.state_codec();
        let mut rev: HashMap<bip_core::PackedState, State> = HashMap::new();
        let mut queue = VecDeque::new();
        queue.push_back(sys.initial_state());
        while let Some(st) = queue.pop_front() {
            if rev.len() >= 2_000 {
                break;
            }
            let p = match codec.try_encode(&st) {
                Ok(p) => p,
                Err(r) => return Err(format!(
                    "reachable state overflowed inferred width: {r:?} in {}",
                    sys.describe_state(&st)
                )),
            };
            prop_assert_eq!(&codec.decode(&p), &st);
            // Canonical hashes agree across codecs on every state.
            prop_assert_eq!(codec.state_hash(&st), full.state_hash(&st));
            match rev.get(&p) {
                Some(prev) => {
                    prop_assert_eq!(prev, &st);
                    continue;
                }
                None => {
                    rev.insert(p, st.clone());
                }
            }
            for (_, next) in sys.successors(&st) {
                queue.push_back(next);
            }
        }
    }

    /// Differential codec testing: every explorer returns bit-identical
    /// reports under the adaptive and the full-width codec, sequentially
    /// and in parallel, bounded or not (tier-1 size; the full-size twin is
    /// [`adaptive_and_full_width_codecs_agree_full_size`]).
    #[test]
    fn adaptive_and_full_width_codecs_agree(seed in 0u64..120) {
        codecs_agree(seed, TIER1_BOUNDS)?;
    }

    /// Repack-on-widen: starting from a deliberately narrowed codec (every
    /// variable squeezed to 1 bit), the engine must widen mid-search and
    /// still reproduce the full-width reports exactly, for every thread
    /// count and under truncating bounds (tier-1 size; the full-size twin
    /// is [`forced_widen_preserves_reports_full_size`]).
    #[test]
    fn forced_widen_preserves_reports(seed in 0u64..120) {
        widen_preserves_reports(seed, TIER1_BOUNDS)?;
    }
}

/// `CodecMode` is part of the public configuration surface; make sure the
/// custom variant is constructible the documented way.
#[test]
fn codec_mode_custom_is_usable() {
    let sys = dining_philosophers(3, true).unwrap();
    let cfg = ReachConfig {
        codec: CodecMode::Custom(StateCodec::adaptive(&sys)),
        ..ReachConfig::bounded(10_000)
    };
    let custom = explore_with(&sys, &cfg);
    let default = explore_with(&sys, &ReachConfig::bounded(10_000));
    assert_eq!(custom.states, default.states);
    assert_eq!(custom.transitions, default.transitions);
    assert_eq!(custom.deadlocks, default.deadlocks);
    assert_eq!(custom.stored_bytes, default.stored_bytes);
}

/// A deadlock search reports the footprint of the level the deadlock was
/// found at on entry, whichever scheduler ran that level: on these seeds
/// the sequential level stores successors of earlier frontier states before
/// it reaches the deadlock, which must not count.
#[test]
fn deadlock_peak_bytes_is_thread_count_invariant() {
    for seed in [63u64, 165, 166, 197] {
        let sys = random_system(seed);
        let seq = find_deadlock_with(&sys, &ReachConfig::bounded(100_000));
        let par = find_deadlock_with(
            &sys,
            &ReachConfig::bounded(100_000)
                .threads(2)
                .min_parallel_level(1),
        );
        assert!(seq.found(), "seed {seed} deadlocks");
        assert_eq!(seq.witness, par.witness, "seed {seed}: witness");
        assert_eq!(seq.states, par.states, "seed {seed}: states");
        assert_eq!(seq.peak_bytes, par.peak_bytes, "seed {seed}: peak_bytes");
    }
}

/// Engine bounds of the tier-1 differential properties: one that completes
/// most random systems and one that truncates nearly all of them.
const TIER1_BOUNDS: &[usize] = &[1_500, 31];

/// The full-size bounds, run by the `#[ignore]`d twins (in release, by a CI
/// step of their own: `cargo test --release --test parallel_reach --
/// --ignored`).
const FULL_BOUNDS: &[usize] = &[6_000, 31];

/// Every explorer agrees between the adaptive and the full-width codec on
/// `random_system(seed)`, for 1 and 4 threads, at each bound, and the
/// adaptive codec never stores more bytes.
fn codecs_agree(seed: u64, bounds: &[usize]) -> Result<(), String> {
    let sys = random_system(seed);
    for &bound in bounds {
        let full = explore_with(&sys, &ReachConfig::bounded(bound).full_width_codec());
        for threads in [1usize, 4] {
            let cfg = ReachConfig::bounded(bound)
                .threads(threads)
                .min_parallel_level(1);
            let ad = explore_with(&sys, &cfg);
            assert_reports_equal(
                &ad,
                &full,
                &format!("seed {seed} bound {bound} threads {threads}"),
            )?;
            prop_assert!(
                ad.stored_bytes <= full.stored_bytes,
                "seed {seed} bound {bound}: the adaptive codec grew the footprint"
            );

            let df = find_deadlock_with(&sys, &cfg.clone().full_width_codec());
            let da = find_deadlock_with(&sys, &cfg);
            prop_assert_eq!(&da.witness, &df.witness);
            prop_assert_eq!(da.states, df.states);
            prop_assert_eq!(da.complete, df.complete);

            let inv = StatePred::at(&sys, 0, "l0");
            let ifull = check_invariant_with(&sys, &inv, &cfg.clone().full_width_codec());
            let iad = check_invariant_with(&sys, &inv, &cfg);
            prop_assert_eq!(&iad.violation, &ifull.violation);
            prop_assert_eq!(iad.states, ifull.states);
            prop_assert_eq!(iad.complete, ifull.complete);
        }
    }
    Ok(())
}

/// Starting from a codec with every variable narrowed to one bit, explore
/// and deadlock search widen mid-search and still match the full-width
/// reports, for 1 and 4 threads, at each bound.
fn widen_preserves_reports(seed: u64, bounds: &[usize]) -> Result<(), String> {
    let sys = random_system(seed);
    let nvars = sys.initial_state().vars.len();
    if nvars == 0 {
        // Nothing to narrow: no variables, no widen path to exercise.
        return Ok(());
    }
    let narrowed = || {
        let mut codec = sys.adaptive_codec();
        for v in 0..nvars {
            codec = codec.with_narrowed_var(&sys, v, 1);
        }
        codec
    };
    for &bound in bounds {
        let full = explore_with(&sys, &ReachConfig::bounded(bound).full_width_codec());
        for threads in [1usize, 4] {
            let cfg = ReachConfig::bounded(bound)
                .threads(threads)
                .min_parallel_level(1)
                .with_codec(narrowed());
            let r = explore_with(&sys, &cfg);
            assert_reports_equal(
                &r,
                &full,
                &format!("widen seed {seed} bound {bound} threads {threads}"),
            )?;
            let df = find_deadlock_with(
                &sys,
                &ReachConfig::bounded(bound)
                    .threads(threads)
                    .min_parallel_level(1)
                    .full_width_codec(),
            );
            let dn = find_deadlock_with(&sys, &cfg);
            prop_assert_eq!(&dn.witness, &df.witness);
            prop_assert_eq!(dn.states, df.states);
            prop_assert_eq!(dn.complete, df.complete);
        }
    }
    Ok(())
}

/// [`adaptive_and_full_width_codecs_agree`] at full size, on every seed the
/// property samples from.
#[test]
#[ignore = "full size: run in release with --ignored"]
fn adaptive_and_full_width_codecs_agree_full_size() {
    for seed in 0u64..120 {
        codecs_agree(seed, FULL_BOUNDS).unwrap();
    }
}

/// [`forced_widen_preserves_reports`] at full size, on every seed the
/// property samples from.
#[test]
#[ignore = "full size: run in release with --ignored"]
fn forced_widen_preserves_reports_full_size() {
    for seed in 0u64..120 {
        widen_preserves_reports(seed, FULL_BOUNDS).unwrap();
    }
}

/// One system under the reference explorer, the full-width codec and the
/// adaptive codec at each thread count: reports agree (the reference's only
/// where it completed; deadlocks as a set), adaptive runs agree across
/// thread counts footprint included, and the adaptive codec stores at least
/// `min_shrink` times fewer bytes per state than the full-width one.
fn assert_codec_footprint(name: &str, sys: &System, threads: &[usize], min_shrink: f64) {
    let cfg = ReachConfig::bounded(2_000_000);
    let key = |r: &ReachReport| {
        let deadlocks: HashSet<State> = r.deadlocks.iter().cloned().collect();
        (r.states, r.transitions, r.complete, deadlocks)
    };
    let reference = reference_explore(sys, 2_000_000);
    let full = explore_with(sys, &cfg.clone().full_width_codec());
    assert!(!reference.complete || key(&reference) == key(&full));
    let adaptive = explore_with(sys, &cfg);
    assert_eq!(key(&adaptive), key(&full), "{name}: codecs");
    for &th in threads {
        let r = explore_with(sys, &cfg.clone().threads(th));
        assert_eq!(key(&r), key(&adaptive), "{name}/{th}");
        assert_eq!(r.stored_bytes, adaptive.stored_bytes, "{name}/{th}");
    }
    let (fb, ab) = (full.bytes_per_state(), adaptive.bytes_per_state());
    assert!(ab * min_shrink <= fb + 1e-9, "{name}: {fb:.1} -> {ab:.1}");
}

/// Debug-cheap instances of the footprint contract (3× on the counter
/// ring, never worse on philosophers).
#[test]
fn adaptive_codec_footprint_on_small_families() {
    let threads = [1usize, 2];
    let phil = dining_philosophers(6, true).unwrap();
    assert_codec_footprint("phil-6", &phil, &threads, 1.0);
    assert_codec_footprint("cring-6x2", &counter_ring(6, 2), &threads, 3.0);
}

/// The footprint contract at full size, at 1, 2 and 4 threads: never worse
/// on two-phase philosophers 10, 12 and 13, 3× on two counter rings.
#[test]
#[ignore = "release: run with --ignored"]
fn adaptive_codec_footprint_on_the_full_size_families() {
    let threads = [1usize, 2, 4];
    for n in [10usize, 12, 13] {
        let sys = dining_philosophers(n, true).unwrap();
        assert_codec_footprint(&format!("phil-{n}"), &sys, &threads, 1.0);
    }
    for (n, k) in [(6usize, 4i64), (7, 3)] {
        let sys = counter_ring(n, k);
        assert_codec_footprint(&format!("cring-{n}x{k}"), &sys, &threads, 3.0);
    }
}

/// One streamed edge over decoded states: `(source, step, target)`.
type Edge = (State, Step, Option<State>);

/// `explore_edges`' stream over decoded states, plus the states by id.
/// Each target is rebuilt by firing the step on its source with
/// `System::successors`, which also checks that ids are dense, in order of
/// first appearance, and stable.
fn edge_stream(sys: &System, cfg: &ReachConfig) -> (ReachReport, Vec<State>, Vec<Edge>) {
    let mut states = vec![sys.initial_state()];
    let mut succs = (usize::MAX, Vec::new());
    let mut edges = Vec::new();
    let report = explore_edges(sys, cfg, |src, step, dst| {
        if succs.0 != src {
            succs = (src, sys.successors(&states[src]));
        }
        let step = step.to_step(sys);
        let (_, next) = succs
            .1
            .iter()
            .find(|(s, _)| *s == step)
            .expect("a successor step");
        if let Some(d) = dst {
            assert!(
                d <= states.len(),
                "ids are dense in order of first appearance"
            );
            if d == states.len() {
                states.push(next.clone());
            }
            assert_eq!(&states[d], next, "a state keeps its id");
        }
        edges.push((states[src].clone(), step, dst.map(|_| next.clone())));
    });
    assert_eq!(
        states.len(),
        report.states,
        "every stored state is streamed"
    );
    (report, states, edges)
}

/// The edge stream is identical at 1 and 4 threads and under either codec;
/// its report is `explore_with`'s, its stored-target edges are the
/// report's transitions, and on a complete run each state's edges are its
/// successors, as a multiset.
#[test]
fn edge_stream_is_invariant_and_lists_every_successor() {
    for seed in 0..48u64 {
        let sys = random_bounded_system(seed);
        for bound in [1_000usize, 31] {
            let cfg = ReachConfig::bounded(bound);
            let ctx = format!("seed {seed} bound {bound}");
            let (report, states, edges) = edge_stream(&sys, &cfg);
            assert_reports_equal(&report, &explore_with(&sys, &cfg), &ctx).unwrap();
            let stored = edges.iter().filter(|(_, _, to)| to.is_some()).count();
            assert_eq!(stored, report.transitions, "{ctx}: transitions");
            let parallel = cfg.clone().threads(4).min_parallel_level(1);
            for variant in [parallel, cfg.clone().full_width_codec()] {
                let (r, _, e) = edge_stream(&sys, &variant);
                assert_reports_equal(&r, &report, &ctx).unwrap();
                assert!(e == edges, "{ctx}: edge streams differ");
            }
            if !report.complete {
                continue;
            }
            let mut by_source: HashMap<&State, HashMap<(&Step, &State), usize>> = HashMap::new();
            for (from, step, to) in &edges {
                let to = to.as_ref().expect("a complete run keeps every target");
                *by_source
                    .entry(from)
                    .or_default()
                    .entry((step, to))
                    .or_default() += 1;
            }
            for st in &states {
                let succs = sys.successors(st);
                let mut want: HashMap<(&Step, &State), usize> = HashMap::new();
                for (step, next) in &succs {
                    *want.entry((step, next)).or_default() += 1;
                }
                let got = by_source.remove(st).unwrap_or_default();
                assert_eq!(got, want, "{ctx}: edges of {st:?}");
            }
        }
    }
}

/// A `Budget::states` stop streams the complete run's prefix up to its
/// checkpoint frontier — the states of the deepest level — and no edge out
/// of that frontier.
#[test]
fn budget_stop_shows_no_edge_out_of_its_frontier() {
    let mut stopped = 0;
    for seed in 0..48u64 {
        let sys = random_bounded_system(seed);
        let cfg = ReachConfig::bounded(1_000);
        let (_, _, full) = edge_stream(&sys, &cfg);
        let budget = cfg.budget(Budget::unlimited().states(20));
        let (report, _, edges) = edge_stream(&sys, &budget);
        let Some(ck) = &report.checkpoint else {
            continue; // the whole space fits the budget
        };
        stopped += 1;
        assert_eq!(report.stop, StopReason::StateBudget, "seed {seed}");
        assert!(full.starts_with(&edges), "seed {seed}: not a prefix");
        let mut depth = HashMap::from([(sys.initial_state(), 0usize)]);
        for (from, _, to) in &edges {
            let d = depth[from] + 1;
            depth
                .entry(to.clone().expect("below the bound"))
                .or_insert(d);
        }
        let deepest = depth.values().copied().max().unwrap();
        let frontier = depth.values().filter(|&&d| d == deepest).count();
        assert_eq!(frontier, ck.frontier_len(), "seed {seed}: frontier");
        assert!(
            edges.iter().all(|(from, _, _)| depth[from] < deepest),
            "seed {seed}: an edge out of the checkpoint frontier"
        );
    }
    assert!(stopped > 0, "some seed must outgrow the budget");
}
