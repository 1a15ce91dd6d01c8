//! Integration tests for experiment E9: architecture application and
//! composition (§5.5.2, [4]).

use bip_arch::{
    at_most_as_permissive, client_critical, clients, compose, fifo_scheduler, mutual_exclusion,
    tmr, token_ring,
};
use bip_verify::reach::{check_invariant, explore};

/// E9's table, left half: mutual exclusion and the token ring applied to
/// 2 to 5 clients enforce their characteristic property without deadlock.
#[test]
fn architectures_enforce_and_preserve_across_sizes() {
    for n in 2..=5 {
        let base = clients(n);
        for arch in [
            mutual_exclusion(client_critical(n)),
            token_ring(client_critical(n)),
        ] {
            let sys = arch.apply(&base).unwrap();
            let prop = arch.characteristic_property(&sys);
            assert!(
                check_invariant(&sys, &prop, 1_000_000).holds(),
                "{} n={n}",
                arch.name
            );
            assert!(
                explore(&sys, 1_000_000).deadlock_free(),
                "{} n={n}",
                arch.name
            );
        }
    }
}

/// E9's table, the ⊕ rows: mutex ⊕ FIFO over 2 to 5 clients.
#[test]
fn composition_satisfies_both_characteristic_properties() {
    for n in 2..=5 {
        let base = clients(n);
        let m = mutual_exclusion(client_critical(n));
        let f = fifo_scheduler(client_critical(n));
        let sys = compose(&base, &m, &f).unwrap();
        assert!(check_invariant(&sys, &m.characteristic_property(&sys), 1_000_000).holds());
        assert!(check_invariant(&sys, &f.characteristic_property(&sys), 1_000_000).holds());
        assert!(explore(&sys, 1_000_000).deadlock_free());
    }
}

#[test]
fn lattice_order_is_a_preorder_on_applications() {
    let base = clients(2);
    let ring = token_ring(client_critical(2)).apply(&base).unwrap();
    let mutex = mutual_exclusion(client_critical(2)).apply(&base).unwrap();
    // Reflexivity.
    assert!(at_most_as_permissive(&ring, &ring, 100_000));
    assert!(at_most_as_permissive(&mutex, &mutex, 100_000));
    // Strictness: ring < mutex.
    assert!(at_most_as_permissive(&ring, &mutex, 100_000));
    assert!(!at_most_as_permissive(&mutex, &ring, 100_000));
}

#[test]
fn tmr_is_a_correct_fault_tolerant_architecture() {
    let (sys, prop) = tmr();
    assert!(check_invariant(&sys, &prop, 1_000_000).holds());
    assert!(explore(&sys, 1_000_000).deadlock_free());
}
