//! Glue expressiveness (§5.3.2; Bliudze & Sifakis, "A Notion of Glue
//! Expressiveness for Component-Based Systems" \[5\]).
//!
//! The paper's claim: BIP glue — interactions **plus priorities** — is
//! universally expressive, and loses universality if either layer is
//! removed; in particular, interaction-only glues (process-algebra style)
//! cannot express the coordination achieved by broadcast-with-maximal-
//! progress *on the same components*, not even weakly.
//!
//! This module provides the machinery to check such statements exhaustively
//! on small components: an LTS extractor with *structural* labels (the set
//! of `(component, port)` pairs of each interaction), a strong-bisimulation
//! checker, and an enumerator of all interaction-only glues over given
//! interfaces. The experiment E3 (`tests/expressiveness.rs`) runs the
//! refutation. The LTS is read off [`crate::reach::explore_edges`].

use std::collections::HashMap;

use bip_core::glue::Glue;
use bip_core::{AtomBuilder, AtomType, ConnId, ConnectorBuilder, Priority, SuccStep, System};

use crate::reach::{explore_edges, ReachConfig};

/// A structural interaction label: sorted `(component, port-index)` pairs.
/// Internal steps are labelled `None` by [`extract_lts`].
pub type Label = Vec<(usize, u32)>;

/// An explicit finite LTS extracted from a system's reachable state space.
#[derive(Debug, Clone)]
pub struct Lts {
    /// Number of states; state 0 is initial.
    pub num_states: usize,
    /// Transitions `(source, label, target)`; `None` label = silent.
    pub transitions: Vec<(usize, Option<Label>, usize)>,
}

/// Extract the reachable LTS of `sys`, up to `max_states` states.
///
/// Returns `None` unless the whole reachable set fits the bound (callers
/// choose systems small enough that this should not happen in the
/// expressiveness experiments).
pub fn extract_lts(sys: &System, max_states: usize) -> Option<Lts> {
    let mut transitions = Vec::new();
    let report = explore_edges(sys, &ReachConfig::bounded(max_states), |src, step, dst| {
        let label = match step {
            SuccStep::Interaction { iref, .. } => {
                let eps = sys.connector_endpoints(iref.connector);
                let mut l: Label = iref
                    .endpoints(eps.len())
                    .map(|i| {
                        let (c, p) = eps[i];
                        (c, p.0)
                    })
                    .collect();
                l.sort_unstable();
                Some(l)
            }
            SuccStep::Internal { .. } => None,
        };
        transitions.extend(dst.map(|dst| (src, label, dst)));
    });
    report.complete.then_some(Lts {
        num_states: report.states,
        transitions,
    })
}

/// Check strong bisimilarity of two finite LTSs (initial states related).
///
/// Standard partition-refinement on the disjoint union.
pub fn strongly_bisimilar(a: &Lts, b: &Lts) -> bool {
    let n = a.num_states + b.num_states;
    // Collect the label alphabet.
    let mut labels: Vec<Option<Label>> = Vec::new();
    let mut label_ids: HashMap<Option<Label>, usize> = HashMap::new();
    let mut trans: Vec<Vec<(usize, usize)>> = vec![Vec::new(); n]; // state -> [(label id, target)]
    for (s, l, t) in &a.transitions {
        let id = *label_ids.entry(l.clone()).or_insert_with(|| {
            labels.push(l.clone());
            labels.len() - 1
        });
        trans[*s].push((id, *t));
    }
    for (s, l, t) in &b.transitions {
        let id = *label_ids.entry(l.clone()).or_insert_with(|| {
            labels.push(l.clone());
            labels.len() - 1
        });
        trans[a.num_states + s].push((id, a.num_states + t));
    }
    // Partition refinement: block id per state.
    let mut block: Vec<usize> = vec![0; n];
    loop {
        // Signature of a state: sorted set of (label, target block).
        let mut sigs: HashMap<Vec<(usize, usize)>, usize> = HashMap::new();
        let mut new_block = vec![0usize; n];
        let mut changed = false;
        for s in 0..n {
            let mut sig: Vec<(usize, usize)> =
                trans[s].iter().map(|&(l, t)| (l, block[t])).collect();
            sig.sort_unstable();
            sig.dedup();
            // Include current block to keep refinement monotone.
            sig.push((usize::MAX, block[s]));
            let nb = sigs.len();
            let id = *sigs.entry(sig).or_insert(nb);
            new_block[s] = id;
        }
        for s in 0..n {
            if new_block[s] != block[s] {
                changed = true;
            }
        }
        block = new_block;
        if !changed {
            break;
        }
    }
    block[0] == block[a.num_states]
}

/// Enumerate every interaction-only glue over components with the given
/// numbers of ports: each glue is a non-empty set of rendezvous connectors,
/// each connector a subset (size ≥ 1) of the port universe with at most one
/// port per component.
///
/// The number of glues is `2^I − 1` where `I` is the number of candidate
/// interactions — callers keep interfaces small.
pub fn interaction_only_glues(ports_per_component: &[usize]) -> Vec<Glue> {
    // Candidate interactions: choose, for each component, either "absent" or
    // one of its ports; drop the all-absent combination.
    let mut candidates: Vec<Vec<(usize, u32)>> = Vec::new();
    let mut choice = vec![0usize; ports_per_component.len()]; // 0 = absent, k = port k-1
    loop {
        let inter: Vec<(usize, u32)> = choice
            .iter()
            .enumerate()
            .filter(|&(_, &k)| k > 0)
            .map(|(c, &k)| (c, (k - 1) as u32))
            .collect();
        if !inter.is_empty() {
            candidates.push(inter);
        }
        // Odometer.
        let mut i = 0;
        loop {
            if i == choice.len() {
                // Enumerate glues from candidates and return.
                return glues_from_candidates(ports_per_component.len(), &candidates);
            }
            choice[i] += 1;
            if choice[i] <= ports_per_component[i] {
                break;
            }
            choice[i] = 0;
            i += 1;
        }
    }
}

fn glues_from_candidates(arity: usize, candidates: &[Vec<(usize, u32)>]) -> Vec<Glue> {
    assert!(
        candidates.len() <= 20,
        "interaction universe too large to enumerate"
    );
    let mut out = Vec::new();
    for mask in 1u32..(1 << candidates.len()) {
        let mut g = Glue::identity(arity);
        for (i, cand) in candidates.iter().enumerate() {
            if mask & (1 << i) != 0 {
                let ports: Vec<(usize, String)> =
                    cand.iter().map(|&(c, p)| (c, format!("p{p}"))).collect();
                g = g.with_connector(ConnectorBuilder::rendezvous(format!("i{i}"), ports));
            }
        }
        out.push(g);
    }
    out
}

/// Outcome of the broadcast-refutation experiment (E3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BroadcastRefutation {
    /// Number of interaction-only glues enumerated.
    pub glues_checked: usize,
    /// How many were strongly bisimilar to the broadcast reference (the
    /// claim is that this is zero).
    pub equivalent_found: usize,
    /// States in the reference LTS.
    pub reference_states: usize,
}

/// Build the reference components for the broadcast experiment: a sender
/// that counts how often it fired alone vs. with the receiver, and a
/// receiver that can be detached.
///
/// Components (all ports named `p0`, `p1`, ... to match the enumerator):
/// * component 0 — sender with port `p0` (always ready);
/// * component 1 — receiver with port `p0` (ready only in its initial
///   location; consuming it moves to a sink).
pub fn broadcast_components() -> Vec<AtomType> {
    let sender = AtomBuilder::new("sender")
        .port("p0")
        .location("l")
        .initial("l")
        .transition("l", "p0", "l")
        .build()
        .expect("sender atom");
    let receiver = AtomBuilder::new("receiver")
        .port("p0")
        .location("ready")
        .location("done")
        .initial("ready")
        .transition("ready", "p0", "done")
        .build()
        .expect("receiver atom");
    vec![sender, receiver]
}

/// The reference system: broadcast from the sender to the receiver with
/// maximal progress — the receiver participates whenever it can.
pub fn broadcast_reference() -> System {
    let atoms = broadcast_components();
    let g = Glue::identity(2)
        .with_connector(ConnectorBuilder::broadcast(
            "bc",
            (0, "p0"),
            [(1usize, "p0")],
        ))
        .with_priority(Priority::maximal_progress());
    g.apply(&[("s", &atoms[0]), ("r", &atoms[1])])
        .expect("reference system")
}

/// Run the exhaustive refutation: no interaction-only glue over the same
/// two components is strongly bisimilar to [`broadcast_reference`].
pub fn refute_broadcast_with_interactions() -> BroadcastRefutation {
    let atoms = broadcast_components();
    let reference =
        extract_lts(&broadcast_reference(), 1000).expect("reference LTS fits the bound");
    let mut checked = 0;
    let mut equivalent = 0;
    for g in interaction_only_glues(&[1, 1]) {
        let sys = match g.apply(&[("s", &atoms[0]), ("r", &atoms[1])]) {
            Ok(s) => s,
            Err(_) => continue,
        };
        checked += 1;
        if let Some(lts) = extract_lts(&sys, 1000) {
            if strongly_bisimilar(&reference, &lts) {
                equivalent += 1;
            }
        }
    }
    BroadcastRefutation {
        glues_checked: checked,
        equivalent_found: equivalent,
        reference_states: reference.num_states,
    }
}

/// The positive direction: priorities *do* recover broadcast semantics.
/// Returns `true` if the maximal-progress broadcast is bisimilar to the
/// explicitly-constructed "fire {s,r} while possible, then {s}" system.
pub fn priorities_express_broadcast() -> bool {
    let atoms = broadcast_components();
    // Hand-built equivalent using two rendezvous connectors and a static
    // priority: `alone ≺ both`.
    let mut g = Glue::identity(2)
        .with_connector(ConnectorBuilder::rendezvous(
            "both",
            [(0usize, "p0"), (1usize, "p0")],
        ))
        .with_connector(ConnectorBuilder::singleton("alone", 0, "p0"));
    let mut p = Priority::none();
    p.add_rule(ConnId(1), ConnId(0));
    g = g.with_priority(p);
    let sys = g
        .apply(&[("s", &atoms[0]), ("r", &atoms[1])])
        .expect("priority system");
    let a = extract_lts(&broadcast_reference(), 1000).expect("reference LTS");
    let b = extract_lts(&sys, 1000).expect("priority LTS");
    strongly_bisimilar(&a, &b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lts_extraction_counts() {
        let sys = broadcast_reference();
        let lts = extract_lts(&sys, 100).unwrap();
        // States: (l, ready) and (l, done).
        assert_eq!(lts.num_states, 2);
    }

    #[test]
    fn bisimilarity_reflexive() {
        let sys = broadcast_reference();
        let a = extract_lts(&sys, 100).unwrap();
        assert!(strongly_bisimilar(&a, &a.clone()));
    }

    #[test]
    fn bisimilarity_distinguishes() {
        // Reference vs. plain rendezvous-only glue: not bisimilar (the
        // rendezvous system deadlocks once the receiver is done).
        let atoms = broadcast_components();
        let g = Glue::identity(2).with_connector(ConnectorBuilder::rendezvous(
            "both",
            [(0usize, "p0"), (1usize, "p0")],
        ));
        let sys = g.apply(&[("s", &atoms[0]), ("r", &atoms[1])]).unwrap();
        let a = extract_lts(&broadcast_reference(), 100).unwrap();
        let b = extract_lts(&sys, 100).unwrap();
        assert!(!strongly_bisimilar(&a, &b));
    }

    #[test]
    fn enumerator_counts() {
        // Two components with one port each: candidates {0}, {1}, {0,1} → 7 glues.
        let glues = interaction_only_glues(&[1, 1]);
        assert_eq!(glues.len(), 7);
        // Two ports on one component: candidates {a0},{a1},{b0},{a0 b0},{a1 b0} → 2^5-1.
        let glues = interaction_only_glues(&[2, 1]);
        assert_eq!(glues.len(), 31);
    }

    #[test]
    fn broadcast_not_expressible_by_interactions_alone() {
        let r = refute_broadcast_with_interactions();
        assert_eq!(r.glues_checked, 7);
        assert_eq!(
            r.equivalent_found, 0,
            "paper claim: no interaction-only glue matches"
        );
    }

    #[test]
    fn priorities_recover_broadcast() {
        assert!(priorities_express_broadcast());
    }
}
