//! Integration tests for experiment E4: the Lustre embedding is
//! semantics-preserving and size-linear (Fig. 5.2, §5.6).

use bip_embed::lustre::Program;
use bip_embed::{embed_program, integrator};

#[test]
fn integrator_reproduces_figure_streams() {
    let p = integrator();
    let e = embed_program(&p).unwrap();
    let xs = vec![vec![1, 1, 1, 1, 1, 1]];
    assert_eq!(e.run(&xs, 6), vec![vec![1, 2, 3, 4, 5, 6]]);
}

#[test]
fn embedding_agrees_with_interpreter_over_many_programs() {
    for seed in 0..20 {
        let p = Program::random(10, seed);
        let e = embed_program(&p).unwrap();
        let xs = vec![(0..16).map(|i| (7 - i) as i64).collect::<Vec<i64>>()];
        assert_eq!(e.run(&xs, 16), p.eval(&xs, 16), "seed {seed}");
    }
}

/// E4's table: for programs of 4 to 256 nodes the embedded model has one
/// atom per node plus one, at most three connectors more than nodes, and a
/// near-constant number of transitions per atom.
#[test]
fn model_size_is_linear_in_program_size() {
    for seed in [1u64, 7] {
        let mut per_node = Vec::new();
        for k in [4usize, 8, 16, 32, 64, 128, 256] {
            let p = Program::random(k, seed);
            let e = embed_program(&p).unwrap();
            let (atoms, conns, trans) = e.size();
            assert_eq!(atoms, k + 1);
            per_node.push(trans as f64 / (k + 1) as f64);
            assert!(conns <= k + 3);
        }
        // Transitions per node stay bounded (linear overall): the max/min
        // ratio across the sweep is close to 1.
        let max = per_node.iter().cloned().fold(f64::MIN, f64::max);
        let min = per_node.iter().cloned().fold(f64::MAX, f64::min);
        assert!(
            max / min < 1.5,
            "seed {seed}: per-node cost must be ~constant: {per_node:?}"
        );
    }
}
