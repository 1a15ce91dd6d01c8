//! Parallel compositional verification: the deterministic-parallelism
//! contract of `bip-verify::dfinder` (reports bit-identical for every
//! thread count, budget-cut runs included) on hand-written and random
//! systems, plus invariant preservation across incremental growth. In
//! release (`--ignored`) the same contract runs on ≥ 24-component models,
//! with a ≥ 2× trap-enumeration speedup gate on hosts of ≥ 4 cores.

use bip_core::{dining_philosophers, gas_station, System};
use bip_verify::dfinder::{enumerate_traps_with, Abstraction, DFinder, DFinderConfig};
use bip_verify::reach::{explore_with, ReachConfig};
use bip_verify::{Budget, IncrementalVerifier, StopReason};
use proptest::prelude::*;
use std::time::Instant;

mod common;
use common::{
    assert_duplicate_free, assert_seed_ordered, counter_ring, random_system, restricted,
    unbounded_ring,
};

/// Trap list and report of one `DFinder` run.
fn run(
    sys: &bip_core::System,
    cfg: &DFinderConfig,
) -> (Vec<bip_core::PlaceSet>, bip_verify::DFinderReport) {
    let df = DFinder::with_config(sys, cfg);
    (df.traps().to_vec(), df.check_deadlock_freedom())
}

/// Three traps at most, one conflict per solve: budget cuts land inside
/// the merge horizon and beyond it.
fn cut() -> DFinderConfig {
    DFinderConfig::new()
        .max_traps(3)
        .budget(Budget::unlimited().conflicts(1))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Parallel trap enumeration ≡ sequential on random systems: the trap
    /// list — order included — and the full `DFinderReport` must be
    /// bit-identical for `threads ∈ {1, 2, 8}`, unbudgeted and cut.
    #[test]
    fn parallel_trap_enumeration_matches_sequential(seed in 0u64..200) {
        let sys = random_system(seed);
        let abs = Abstraction::new(&sys);
        let seq = enumerate_traps_with(&abs, &DFinderConfig::new());
        for threads in [2usize, 8] {
            let par = enumerate_traps_with(&abs, &DFinderConfig::new().threads(threads));
            prop_assert_eq!(&par, &seq);
        }
        // Every enumerated trap is a real, initially-marked trap.
        for t in &seq {
            prop_assert!(abs.is_trap(t), "seed {}: not a trap: {:?}", seed, t);
            prop_assert!(
                abs.initial.iter().any(|&p| t.contains(p)),
                "seed {}: unmarked trap {:?}", seed, t
            );
        }
        assert_seed_ordered(&seq, &format!("seed {seed}"));
        let r1 = DFinder::with_config(&sys, &DFinderConfig::new()).check_deadlock_freedom();
        let r8 = DFinder::with_config(&sys, &DFinderConfig::new().threads(8))
            .check_deadlock_freedom();
        prop_assert_eq!(r1, r8);
        let one = run(&sys, &cut());
        for threads in [2usize, 8] {
            prop_assert_eq!(&run(&sys, &cut().threads(threads)), &one);
        }
    }
}

/// `DFinderReport` bit-identity across `threads ∈ {1, 2, 8}` on the
/// experiment-E1 family.
#[test]
fn reports_bit_identical_across_thread_counts_on_philosophers() {
    for n in [3usize, 6] {
        for two_phase in [false, true] {
            let sys = dining_philosophers(n, two_phase).unwrap();
            let r1 = DFinder::with_config(&sys, &DFinderConfig::new()).check_deadlock_freedom();
            for threads in [2usize, 8] {
                let rt = DFinder::with_config(&sys, &DFinderConfig::new().threads(threads))
                    .check_deadlock_freedom();
                assert_eq!(r1, rt, "n={n} two_phase={two_phase} threads={threads}");
            }
        }
    }
}

/// Regression: under a conflict budget `DFinderReport::stop` must not
/// depend on the thread count. Parallel seeds used to enumerate up to the
/// whole cap, and a conflict cut counted even where the merge dropped the
/// traps after it, or in a seed past the merge horizon: these four runs
/// said `Completed` at 1 thread and `SolverBudget` at 2 and 8.
#[test]
fn budget_cut_stop_is_thread_count_invariant() {
    for (seed, cap) in [(8u64, 3usize), (21, 4), (41, 2), (44, 3)] {
        let sys = random_system(seed);
        let cfg = cut().max_traps(cap);
        let one = run(&sys, &cfg);
        for threads in [2usize, 8] {
            assert_eq!(
                run(&sys, &cfg.clone().threads(threads)),
                one,
                "seed {seed}, cap {cap}, threads {threads}"
            );
        }
    }
}

/// Two-phase philosophers: the trap lists of every size are seed-ordered
/// and duplicate-free, with no dedup store behind the merge.
#[test]
fn philosopher_trap_lists_are_seed_ordered() {
    for n in [3usize, 4, 6] {
        let abs = Abstraction::new(&dining_philosophers(n, true).unwrap());
        for threads in [1usize, 2] {
            let cfg = DFinderConfig::new().max_traps(512).threads(threads);
            assert_seed_ordered(&enumerate_traps_with(&abs, &cfg), &format!("phil-{n}"));
        }
    }
}

/// `IncrementalVerifier::add_interaction` keeps exactly the traps the new
/// abstract transitions preserve (the sufficient condition), over many
/// additions on a trap list a few hundred long, run on two workers. After
/// every addition the list is duplicate-free, and the traps the
/// re-enumeration appended are seed-ordered.
#[test]
fn incremental_preserves_traps_across_additions() {
    let n = 8;
    let full = dining_philosophers(n, false).unwrap();
    // Start from the release connectors only; add the eat interactions one
    // at a time, checking preservation at every step.
    let base = restricted(&full, |c| c.name.starts_with("rel"));
    let mut inc =
        IncrementalVerifier::with_config(base, DFinderConfig::new().max_traps(512).threads(2));
    assert!(!inc.traps().is_empty());

    for conn in full.connectors() {
        if !conn.name.starts_with("eat") {
            continue;
        }
        let before = inc.traps().to_vec();
        // Predict which traps the sufficient condition keeps: those the
        // *new* abstract transitions preserve.
        let mut sb = bip_core::SystemBuilder::new();
        for c in 0..inc.system().num_components() {
            sb.add_instance(
                inc.system().instance_name(c).to_string(),
                inc.system().atom_type(c),
            );
        }
        for c in inc.system().connectors() {
            sb.add_connector(c.clone());
        }
        sb.add_connector(conn.clone());
        let new_abs = Abstraction::new(&sb.build().unwrap());
        let expected_kept: Vec<_> = before
            .iter()
            .filter(|t| new_abs.is_trap(t))
            .cloned()
            .collect();

        let stats = inc.add_interaction(conn.clone()).unwrap();
        assert_eq!(
            stats.traps_reused,
            expected_kept.len(),
            "reuse count must match the sufficient condition"
        );
        for t in &expected_kept {
            assert!(
                inc.traps().contains(t),
                "preserved trap lost after {}: {t:?}",
                conn.name
            );
        }
        let (traps, ctx) = (inc.traps(), format!("after {}", conn.name));
        assert_duplicate_free(traps, &ctx);
        assert_seed_ordered(&traps[traps.len() - stats.traps_added..], &ctx);
    }
    // The grown invariant set still proves the conservative family safe.
    assert!(inc.check_deadlock_freedom().verdict.is_deadlock_free());
}

/// Up to 256 traps, every solve capped at 200 000 conflicts: far above
/// healthy need, so a solver blowup shows as a `SolverBudget` stop
/// (asserted `Completed` below) instead of a hang.
fn traps_cfg() -> DFinderConfig {
    DFinderConfig::new()
        .max_traps(256)
        .budget(Budget::unlimited().conflicts(200_000))
}

/// Trap lists and whole reports of `sys` are identical at every thread
/// count, and the conflict ceiling never trips.
fn assert_trap_contract(name: &str, sys: &System, threads: &[usize]) {
    let abs = Abstraction::new(sys);
    let traps = enumerate_traps_with(&abs, &traps_cfg());
    let report = DFinder::with_config(sys, &traps_cfg()).check_deadlock_freedom();
    assert_eq!(report.stop, StopReason::Completed, "{name}");
    for &th in threads {
        let cfg = traps_cfg().threads(th);
        assert_eq!(
            enumerate_traps_with(&abs, &cfg),
            traps,
            "{name}, {th} threads"
        );
        let r = DFinder::with_config(sys, &cfg).check_deadlock_freedom();
        assert_eq!(r, report, "{name}, {th} threads");
    }
}

/// Bounded exploration of the intern-hot `unbounded_ring(4)` (every encode
/// interns every counter) is identical across thread counts.
fn assert_intern_reach_contract(bound: usize, threads: &[usize]) {
    let key = |th: usize| {
        let r = explore_with(&unbounded_ring(4), &ReachConfig::bounded(bound).threads(th));
        (r.states, r.transitions, r.complete, r.stored_bytes)
    };
    let one = key(1);
    assert!(threads.iter().all(|&th| key(th) == one));
}

/// The thread-count contract on the trap-sparse gas station, a counter
/// ring and both philosopher variants, at debug-cheap sizes.
#[test]
fn trap_contract_on_small_families() {
    let threads = [2usize, 8];
    assert_trap_contract("gas-24", &gas_station(24).unwrap(), &threads);
    assert_trap_contract("cring-8x2", &counter_ring(8, 2), &threads);
    for two_phase in [false, true] {
        let sys = dining_philosophers(8, two_phase).unwrap();
        assert_trap_contract(&format!("phil-8/{two_phase}"), &sys, &threads);
    }
    assert_intern_reach_contract(10_000, &threads);
}

/// The full-size contract: gas station 240 (242 components), counter ring
/// 24×2 and both 12-philosopher variants at 1, 2 and 8 threads, and the
/// intern-hot ring to 150 000 states. On hosts of ≥ 4 cores the trap-sparse
/// gas station must also enumerate at least 2× faster at the best thread
/// count than at one (best of three runs per count, one re-measurement
/// before failing). Trap-dense philosophers gate identity only: one seed
/// fills the budget there, so parallelism can only break even.
#[test]
#[ignore = "release: run with --ignored"]
fn trap_contract_and_speedup_on_the_full_size_families() {
    let threads = [1usize, 2, 8];
    let gas = gas_station(240).unwrap();
    assert_trap_contract("gas-240", &gas, &threads);
    assert_trap_contract("cring-24x2", &counter_ring(24, 2), &threads);
    for two_phase in [false, true] {
        let sys = dining_philosophers(12, two_phase).unwrap();
        assert_trap_contract(&format!("phil-12/{two_phase}"), &sys, &threads);
    }
    assert_intern_reach_contract(150_000, &threads);

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores < 4 {
        eprintln!("gas-240: the 2x speedup floor needs >= 4 cores, host has {cores}");
        return;
    }
    let abs = Abstraction::new(&gas);
    let best_secs = |th: usize| {
        let cfg = traps_cfg().threads(th);
        (0..3)
            .map(|_| {
                let t = Instant::now();
                enumerate_traps_with(&abs, &cfg);
                t.elapsed().as_secs_f64().max(1e-9)
            })
            .fold(f64::INFINITY, f64::min)
    };
    let speedup = || {
        let one = best_secs(1);
        [2, 8]
            .map(|th| one / best_secs(th))
            .into_iter()
            .fold(0.0, f64::max)
    };
    let best = Some(speedup())
        .filter(|&s| s >= 2.0)
        .unwrap_or_else(speedup);
    assert!(best >= 2.0, "gas-240: {best:.2}x trap-enumeration speedup");
}
