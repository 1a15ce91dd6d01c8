//! Integration tests for experiment E6: Fig. 5.4 interaction refinement.

use bip_distributed::fig54::fig54_conflict_pair;
use bip_distributed::refine_interactions;
use bip_verify::reach::{explore, find_deadlock};
use bip_verify::{refines, weak_trace_equivalent};

/// The top half of Fig. 5.4, widened to an `n`-party barrier for n = 2..=4
/// (E6): a single conflict-free interaction refines to Send/Receive with
/// weak trace equivalence and a passing certificate.
#[test]
fn top_half_single_interaction_equivalent() {
    let t = bip_core::AtomBuilder::new("t")
        .port("p")
        .location("l")
        .initial("l")
        .transition("l", "p", "l")
        .build()
        .unwrap();
    for n in 2..=4 {
        let mut sb = bip_core::SystemBuilder::new();
        let ids: Vec<usize> = (0..n)
            .map(|i| sb.add_instance(format!("C{i}"), &t))
            .collect();
        sb.add_connector(bip_core::ConnectorBuilder::rendezvous(
            "a",
            ids.iter().map(|&c| (c, "p".to_string())),
        ));
        let orig = sb.build().unwrap();
        let refined = refine_interactions(&orig).unwrap();
        assert!(
            weak_trace_equivalent(&orig, &refined.system, &refined.rename(), 100_000),
            "n={n}"
        );
        let cert = refines(&orig, &refined.system, refined.rename(), 500_000);
        assert!(cert.trace_included && cert.refines(), "n={n}");
    }
}

/// The bottom half: the refined conflict cycle keeps every trace but
/// introduces a deadlock, so the certificate fails on stability.
#[test]
fn bottom_half_conflicts_break_stability() {
    let (orig, refined) = fig54_conflict_pair();
    assert!(explore(&orig, 100_000).deadlock_free());
    let dead = find_deadlock(&refined.system, 500_000);
    assert!(dead.found(), "circular str commitment must deadlock");
    let cert = refines(&orig, &refined.system, refined.rename(), 500_000);
    assert!(cert.trace_included, "the conflict cycle loses no trace");
    assert!(!cert.refines());
}

/// Naively refined philosophers lose trace inclusion outright: the refined
/// model can fire `eat0` then `eat1`, which the source model cannot.
#[test]
fn naive_philosopher_refinement_adds_a_trace() {
    let phils = bip_core::dining_philosophers(2, false).unwrap();
    let naive = refine_interactions(&phils).unwrap();
    let cert = refines(&phils, &naive.system, naive.rename(), 2_000_000);
    assert!(!cert.trace_included);
    assert_eq!(
        cert.counterexample,
        Some(vec!["eat0".to_string(), "eat1".to_string()])
    );
}

#[test]
fn sr_systems_are_binary_only() {
    let (_, refined) = fig54_conflict_pair();
    for c in refined.system.connectors() {
        assert!(
            c.ports.len() <= 2,
            "S/R-BIP must use binary interactions: {}",
            c.name
        );
    }
}
