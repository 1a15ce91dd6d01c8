//! Integration tests for experiment E1: compositional vs monolithic
//! verification agree, and the cost gap has the claimed shape.

use bip_core::dining_philosophers;
use bip_verify::reach::explore;
use bip_verify::{DFinder, DFinderConfig, IncrementalVerifier};

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
        let counts: Vec<usize> = (2..=7)
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

#[test]
fn compositional_abstraction_grows_linearly() {
    let sizes: Vec<usize> = (2..=8)
        .map(|n| {
            let sys = dining_philosophers(n, false).unwrap();
            let df = DFinder::new(&sys);
            df.abstraction().num_places
        })
        .collect();
    // Places = 4n: exactly linear.
    for (i, &s) in sizes.iter().enumerate() {
        assert_eq!(s, 4 * (i + 2));
    }
}

#[test]
fn gas_station_benchmark() {
    // The other standard D-Finder benchmark: one pump, k customers, an
    // operator. Customers prepay the operator, then pump.
    for k in 2..=4 {
        let sys = bench::gas_station(k);
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
        bench::gas_station(8),
    ] {
        let cfg = DFinderConfig::new();
        let scratch = DFinder::with_config(&sys, &cfg).check_deadlock_freedom();
        let incremental = IncrementalVerifier::with_config(sys, cfg).check_deadlock_freedom();
        assert_eq!(incremental, scratch);
        assert!(scratch.verdict.is_deadlock_free());
    }
}
