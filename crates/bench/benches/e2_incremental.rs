//! E2 — incremental verification "considerably reduces the verification
//! effort" (§5.6): re-verifying after adding one interaction vs. from
//! scratch, plus the invariant-reuse table.

use bip_core::{dining_philosophers, Connector, System};
use bip_verify::dfinder::Abstraction;
use bip_verify::{DFinder, IncrementalVerifier};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

/// `full` keeping only the connectors `keep` accepts.
fn restricted(full: &System, keep: impl Fn(&Connector) -> bool) -> System {
    let mut sb = bip_core::SystemBuilder::new();
    for c in 0..full.num_components() {
        sb.add_instance(full.instance_name(c).to_string(), full.atom_type(c));
    }
    for conn in full.connectors().iter().filter(|c| keep(c)) {
        sb.add_connector(conn.clone());
    }
    sb.build().unwrap()
}

/// Start from `base`, add the connectors of `full` it lacks one at a time,
/// print the summed reuse counts and assert the sweep bound: an addition
/// that follows a complete enumeration under the cap re-enumerates only the
/// seeds that lost a trap, one that follows a capped enumeration all of
/// them. Counts only — no wall-clock assertion.
fn row(name: &str, full: &System, base: System, max_traps: usize) {
    let held_back: Vec<&Connector> = full
        .connectors()
        .iter()
        .filter(|c| base.connectors().iter().all(|b| b.name != c.name))
        .collect();
    let mut inc = IncrementalVerifier::with_max_traps(base, max_traps);
    // Every locally reachable place seeds one trap subspace.
    let seeds = Abstraction::new(full)
        .reachable
        .iter()
        .filter(|&&r| r)
        .count();
    let (mut reused, mut dropped, mut added, mut swept) = (0usize, 0usize, 0usize, 0usize);
    for conn in &held_back {
        // Under the cap and unbudgeted, so the previous enumeration was
        // complete exactly when the list is short of the cap.
        let covered = inc.traps().len() < max_traps;
        let st = inc.add_interaction((*conn).clone()).unwrap();
        if covered {
            assert!(st.seeds_swept <= st.traps_dropped, "{name}: {st:?}");
        } else if st.traps_dropped > 0 {
            // A list at the cap covers nothing: every seed is swept again
            // as soon as a dropped trap makes room.
            assert_eq!(st.seeds_swept, seeds, "{name}: {st:?}");
        }
        reused += st.traps_reused;
        dropped += st.traps_dropped;
        added += st.traps_added;
        swept += st.seeds_swept;
    }
    let of = held_back.len() * seeds;
    println!("{name:>8} {reused:>9} {dropped:>9} {added:>9} {swept:>7}/{of}");
    assert!(inc.check_deadlock_freedom().verdict.is_deadlock_free());
}

/// The philosophers system with the `eat` connectors removed (the starting
/// point of the incremental construction).
fn base(n: usize) -> System {
    let full = dining_philosophers(n, false).unwrap();
    restricted(&full, |c| c.name.starts_with("rel"))
}

fn table() {
    println!("\nE2: invariant reuse when interactions are added incrementally");
    println!(
        "{:>8} {:>9} {:>9} {:>9} {:>7}",
        "model", "reused", "dropped", "added", "seeds swept/of"
    );
    for n in [4usize, 6, 8] {
        let full = dining_philosophers(n, false).unwrap();
        row(
            &format!("phil-{n}"),
            &full,
            base(n),
            DFinder::DEFAULT_MAX_TRAPS,
        );
    }
    // The gas station with its last customer's three connectors held back
    // (the shape of the perf benchmark's `gas100-increment` question).
    let full = bench::gas_station(40);
    let last = ["prepay39", "start39", "finish39"];
    let base = restricted(&full, |c| !last.contains(&c.name.as_str()));
    row("gas-40", &full, base, 512);
    println!();
}

fn bench(c: &mut Criterion) {
    table();
    let mut g = c.benchmark_group("e2");
    g.sample_size(10);
    for n in [4usize, 6] {
        let full = dining_philosophers(n, false).unwrap();
        let eats: Vec<Connector> = full
            .connectors()
            .iter()
            .filter(|c| c.name.starts_with("eat"))
            .cloned()
            .collect();
        // Incremental: one add_interaction step on a prepared verifier.
        g.bench_with_input(BenchmarkId::new("incremental_step", n), &n, |b, _| {
            b.iter_batched(
                || {
                    let mut inc = IncrementalVerifier::new(base(n));
                    for conn in &eats[..eats.len() - 1] {
                        inc.add_interaction(conn.clone()).unwrap();
                    }
                    inc
                },
                |mut inc| {
                    inc.add_interaction(eats.last().unwrap().clone()).unwrap();
                    inc.check_deadlock_freedom().verdict.is_deadlock_free()
                },
                criterion::BatchSize::LargeInput,
            )
        });
        // From scratch on the full system.
        g.bench_with_input(BenchmarkId::new("from_scratch", n), &full, |b, full| {
            b.iter(|| {
                DFinder::new(full)
                    .check_deadlock_freedom()
                    .verdict
                    .is_deadlock_free()
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
