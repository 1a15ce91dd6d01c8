//! The linear-invariant kernel of `bip-verify::dfinder`: the sparse
//! incremental RREF emits what the dense elimination it replaced emitted,
//! bit for bit, and an `IncrementalVerifier` that grew its matrix one
//! connector at a time holds the set a from-scratch `DFinder` computes.

use bip_core::{dining_philosophers, System, SystemBuilder};
use bip_verify::dfinder::{linear_invariants, Abstraction, DFinder, DFinderConfig};
use bip_verify::IncrementalVerifier;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

mod common;
use common::{assert_duplicate_free, assert_seed_ordered, dense_linear_invariants, random_system};

/// The default `(max_coeff, max_support)` filter and no filter at all.
const FILTERS: [(i64, usize); 2] = [
    (DFinder::DEFAULT_MAX_COEFF, DFinder::DEFAULT_MAX_SUPPORT),
    (i64::MAX, usize::MAX),
];

fn assert_kernel_matches_oracle(name: &str, sys: &System) {
    let abs = Abstraction::new(sys);
    for (max_coeff, max_support) in FILTERS {
        assert_eq!(
            linear_invariants(&abs, max_coeff, max_support),
            dense_linear_invariants(&abs, max_coeff, max_support),
            "{name}, filter ({max_coeff}, {max_support})"
        );
    }
}

#[test]
fn sparse_kernel_matches_dense_oracle_on_families() {
    for two_phase in [false, true] {
        for n in [2usize, 5, 9] {
            let sys = dining_philosophers(n, two_phase).unwrap();
            assert_kernel_matches_oracle(&format!("phil-{n} two_phase={two_phase}"), &sys);
        }
    }
    for k in [3usize, 20, 100] {
        assert_kernel_matches_oracle(&format!("gas-{k}"), &bip_core::gas_station(k).unwrap());
    }
}

#[test]
fn sparse_kernel_matches_dense_oracle_on_random_systems() {
    for seed in 0..48 {
        assert_kernel_matches_oracle(&format!("random seed {seed}"), &random_system(seed));
    }
}

/// `full` with every connector removed: the start of a shuffled build-up.
fn without_connectors(full: &System) -> System {
    let mut sb = SystemBuilder::new();
    for c in 0..full.num_components() {
        sb.add_instance(full.instance_name(c).to_string(), full.atom_type(c));
    }
    sb.build().unwrap()
}

/// After *every* addition of a shuffled connector order the incremental
/// linear set equals the from-scratch one (RREF uniqueness: the reduced
/// matrix depends on the rows, not on their arrival order), and the two
/// verdicts agree (both trap lists cover the net, so both IIs are the
/// same constraint).
#[test]
fn incremental_linear_set_equals_from_scratch_after_every_addition() {
    let cfg = DFinderConfig::new().max_traps(512);
    for (name, full) in [
        ("phil-5", dining_philosophers(5, false).unwrap()),
        ("phil-4 two-phase", dining_philosophers(4, true).unwrap()),
        ("gas-4", bip_core::gas_station(4).unwrap()),
    ] {
        for shuffle in 0..3u64 {
            let mut order: Vec<_> = full.connectors().to_vec();
            let mut rng = StdRng::seed_from_u64(shuffle);
            for i in (1..order.len()).rev() {
                order.swap(i, rng.gen_range(0..i + 1));
            }
            let mut inc = IncrementalVerifier::with_config(without_connectors(&full), cfg.clone());
            for conn in order {
                let added = conn.name.clone();
                let st = inc.add_interaction(conn).unwrap();
                let scratch = DFinder::with_config(inc.system(), &cfg);
                let ctx = format!("{name}, shuffle {shuffle}, after {added}");
                let traps = inc.traps();
                assert_duplicate_free(traps, &ctx);
                assert_seed_ordered(&traps[traps.len() - st.traps_added..], &ctx);
                assert_seed_ordered(scratch.traps(), &ctx);
                assert_eq!(inc.linear(), scratch.linear(), "{ctx}");
                assert_eq!(
                    inc.check_deadlock_freedom().verdict.is_deadlock_free(),
                    scratch.check_deadlock_freedom().verdict.is_deadlock_free(),
                    "{ctx}"
                );
            }
        }
    }
}
