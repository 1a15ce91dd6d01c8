//! End-to-end integration: the rigorous design flow of Fig. 5.6 (E11).

use bip_distributed::deploy::{block_per_connector, k_blocks, single_block};
use bip_distributed::{deploy, refine_interactions, Crp};
use bip_embed::{embed_program, integrator};
use bip_verify::{refines, DFinder};
use netsim::Latency;

#[test]
fn full_pipeline_integrator() {
    // Embed.
    let program = integrator();
    let embedded = embed_program(&program).unwrap();
    // Verify the application model compositionally.
    let report = DFinder::new(&embedded.system).check_deadlock_freedom();
    assert!(report.verdict.is_deadlock_free());
    // Execute and compare with the reference interpreter.
    let xs = vec![vec![2, -1, 5, 0, 3]];
    assert_eq!(embedded.run(&xs, 5), program.eval(&xs, 5));
}

#[test]
fn full_pipeline_distribution() {
    let sys = bip_core::dining_philosophers(4, false).unwrap();
    // Compositional certificate on the source model.
    assert!(DFinder::new(&sys)
        .check_deadlock_freedom()
        .verdict
        .is_deadlock_free());
    // Deploy under every CRP; the observable word must replay in the
    // source semantics (vertical correctness, runtime-checked).
    for crp in Crp::all() {
        let run = deploy(&sys, &single_block(&sys), crp, 15_000, Latency::Fixed(2), 3);
        assert!(run.total_interactions > 0, "{}", crp.name());
        let mut st = sys.initial_state();
        for label in &run.word {
            let succ = sys.successors(&st);
            let hit = succ
                .iter()
                .find(|(s, _)| sys.step_label(s) == Some(label.as_str()))
                .unwrap_or_else(|| panic!("{}: fired {label} not enabled", crp.name()));
            st = hit.1.clone();
        }
    }
}

#[test]
fn refinement_certificate_gates_the_flow() {
    // Conflict-free: certificate passes, flow proceeds.
    let barrier = {
        let w = bip_core::AtomBuilder::new("w")
            .port("sync")
            .location("run")
            .initial("run")
            .transition("run", "sync", "run")
            .build()
            .unwrap();
        let mut sb = bip_core::SystemBuilder::new();
        let a = sb.add_instance("a", &w);
        let b = sb.add_instance("b", &w);
        sb.add_connector(bip_core::ConnectorBuilder::rendezvous(
            "s",
            [(a, "sync"), (b, "sync")],
        ));
        sb.build().unwrap()
    };
    let ref1 = refine_interactions(&barrier).unwrap();
    assert!(refines(&barrier, &ref1.system, ref1.rename(), 100_000).refines());

    // Conflicting: certificate fails — the flow must fall back to layer 3.
    let phils = bip_core::dining_philosophers(2, false).unwrap();
    let ref2 = refine_interactions(&phils).unwrap();
    assert!(!refines(&phils, &ref2.system, ref2.rename(), 2_000_000).refines());
}

/// "The degree of parallelism of the distributed model depends on the
/// choice of both the interactions' partition and the conflict resolution
/// protocol" (§5.6, E7). Eight philosophers, fixed latency 2, horizon
/// 4 000: interactions fired and messages sent per protocol and partition
/// (one block, four blocks, one block per connector). The centralized
/// arbiter is blind to the partition; the token ring fires strictly less
/// the finer the partition; the locks protocol depends on it too; and at
/// every partition the three protocols differ in what they fire or send.
#[test]
fn crp_and_partition_set_the_degree_of_parallelism() {
    let sys = bip_core::dining_philosophers(8, false).unwrap();
    let partitions = [
        single_block(&sys),
        k_blocks(&sys, 4),
        block_per_connector(&sys),
    ];
    let table = Crp::all().map(|crp| {
        partitions.each_ref().map(|p| {
            let r = deploy(&sys, p, crp, 4_000, Latency::Fixed(2), 17);
            (r.total_interactions, r.messages)
        })
    });
    assert_eq!(
        table,
        [
            [(2000, 22024), (2000, 22024), (2000, 22024)],
            [(2000, 24025), (1144, 15757), (500, 7532)],
            [(994, 17025), (848, 19433), (848, 19433)],
        ],
        "rows: centralized, token ring, locks"
    );
    let fired = table.map(|row| row.map(|(f, _)| f));
    assert!(fired[0].iter().all(|&f| f == fired[0][0]));
    assert!(fired[1][0] > fired[1][1] && fired[1][1] > fired[1][2]);
    assert_ne!(fired[2][0], fired[2][2]);
    let [central, ring, locks] = table;
    for (p, ((a, b), c)) in central.iter().zip(&ring).zip(&locks).enumerate() {
        assert!(a != b && b != c && a != c, "partition {p}");
    }
}
