//! Integration tests for experiments E1 and E2: compositional vs
//! monolithic verification agree, the cost gap has the claimed shape
//! ("D-Finder can run exponentially faster than existing monolithic
//! verification tools", §5.6), and incremental verification re-does only
//! the work an added interaction invalidates.

use bip_core::{dining_philosophers, gas_station, Connector, System};
use bip_verify::dfinder::Abstraction;
use bip_verify::reach::explore;
use bip_verify::{DFinder, DFinderConfig, IncrementalVerifier};

mod common;
use common::restricted;

#[test]
fn verdicts_agree_with_exact_checker_across_family() {
    for n in 2..=6 {
        for &two_phase in &[false, true] {
            let sys = dining_philosophers(n, two_phase).unwrap();
            let df = DFinder::new(&sys).check_deadlock_freedom();
            let exact = explore(&sys, 10_000_000);
            assert!(exact.complete, "n={n}");
            if df.verdict.is_deadlock_free() {
                assert!(
                    exact.deadlocks.is_empty(),
                    "unsound at n={n} two_phase={two_phase}"
                );
            } else {
                // Our candidates are allowed to be spurious in general, but
                // on this family they never are:
                assert!(
                    !exact.deadlocks.is_empty(),
                    "imprecise at n={n} two_phase={two_phase}"
                );
            }
        }
    }
}

#[test]
fn monolithic_state_count_grows_exponentially() {
    // Conservative variant: reachable states are independent sets on a
    // cycle (Lucas numbers, ratio → φ ≈ 1.62); two-phase adds the hasL
    // interleavings and grows faster. Both are exponential.
    for &two_phase in &[false, true] {
        let counts: Vec<usize> = (2..=9)
            .map(|n| explore(&dining_philosophers(n, two_phase).unwrap(), 10_000_000).states)
            .collect();
        for w in counts.windows(2) {
            assert!(
                w[1] as f64 / w[0] as f64 >= 1.25,
                "two_phase={two_phase}: {counts:?}"
            );
        }
        assert!(
            *counts.last().unwrap() as f64 / counts[0] as f64 >= 8.0,
            "two_phase={two_phase}: {counts:?}"
        );
    }
}

/// The compositional side of E1's table: on the same family, n = 2..=9,
/// D-Finder proves deadlock-freedom on an abstraction of exactly 4n places.
#[test]
fn compositional_abstraction_grows_linearly() {
    for n in 2..=9 {
        let sys = dining_philosophers(n, false).unwrap();
        let rep = DFinder::new(&sys).check_deadlock_freedom();
        assert_eq!(rep.places, 4 * n);
        assert!(rep.verdict.is_deadlock_free(), "n={n}: {rep:?}");
    }
}

#[test]
fn gas_station_benchmark() {
    // The other standard D-Finder benchmark: one pump, k customers, an
    // operator. Customers prepay the operator, then pump.
    for k in 2..=4 {
        let sys = gas_station(k).unwrap();
        let df = DFinder::new(&sys).check_deadlock_freedom();
        let exact = explore(&sys, 1_000_000);
        assert!(exact.complete);
        assert!(exact.deadlocks.is_empty());
        assert!(df.verdict.is_deadlock_free(), "k={k}: {df:?}");
    }
}

/// One DIS check under both front ends: an `IncrementalVerifier` that has
/// added nothing holds the same invariants as a from-scratch `DFinder`, so
/// the whole report — verdict, traps, conflicts, decisions, propagations,
/// average LBD — must be equal, not just the verdict.
#[test]
fn incremental_and_scratch_reports_are_identical() {
    for sys in [
        dining_philosophers(6, false).unwrap(),
        gas_station(8).unwrap(),
    ] {
        let cfg = DFinderConfig::new();
        let scratch = DFinder::with_config(&sys, &cfg).check_deadlock_freedom();
        let incremental = IncrementalVerifier::with_config(sys, cfg).check_deadlock_freedom();
        assert_eq!(incremental, scratch);
        assert!(scratch.verdict.is_deadlock_free());
    }
}

/// E2's invariant-reuse table: add the connectors `base` lacks one at a
/// time. After a complete enumeration under the cap only the seeds that
/// lost a trap are swept again; after one stopped at the cap, every seed
/// (locally reachable place) is. The end is deadlock-free.
fn assert_reuse_row(full: &System, base: System, max_traps: usize) {
    let mut inc = IncrementalVerifier::with_max_traps(base, max_traps);
    let seeds = Abstraction::new(full)
        .reachable
        .iter()
        .filter(|&&r| r)
        .count();
    let held_back: Vec<Connector> = full
        .connectors()
        .iter()
        .filter(|c| inc.system().connectors().iter().all(|b| b.name != c.name))
        .cloned()
        .collect();
    for conn in held_back {
        // Unbudgeted: the last enumeration was complete iff under the cap.
        let covered = inc.traps().len() < max_traps;
        let st = inc.add_interaction(conn).unwrap();
        if covered {
            assert!(st.seeds_swept <= st.traps_dropped, "{st:?}");
        } else if st.traps_dropped > 0 {
            assert_eq!(st.seeds_swept, seeds, "{st:?}");
        }
    }
    assert!(inc.check_deadlock_freedom().verdict.is_deadlock_free());
}

#[test]
fn incremental_additions_sweep_only_the_seeds_that_lost_a_trap() {
    for n in [4usize, 6, 8] {
        let full = dining_philosophers(n, false).unwrap();
        let base = restricted(&full, |c| c.name.starts_with("rel"));
        assert_reuse_row(&full, base, DFinder::DEFAULT_MAX_TRAPS);
    }
    // The gas station with its last customer's three connectors held back.
    let full = gas_station(40).unwrap();
    let base = restricted(&full, |c| !c.name.ends_with("39"));
    assert_reuse_row(&full, base, 512);
}
