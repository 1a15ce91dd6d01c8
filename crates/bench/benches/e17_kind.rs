//! E17 — unbounded safety proofs by k-induction: the first engine in the
//! stack that can answer **"safe, period"** on a family neither bounded
//! engine can close.
//!
//! The workload is the var-heavy token ring (`counter_ring(n, 100)`): one
//! circulating token, per-node counters guard-bounded at 100, reachable set
//! ≈ `n · 101^n` (~10⁸ states at n = 4). Mutual exclusion of the token
//! ("at most one node in `hold`") is a true invariant that:
//!
//! * **explicit search cannot prove** — `check_invariant_with` at a 50k
//!   state budget returns `complete == false` (asserted), no violation;
//! * **BMC cannot prove** — depth 60 returns the *bounded*
//!   `NoViolationWithin(60)` (asserted), which says nothing about depth 61;
//! * **k-induction proves outright** — `Verdict::Proved { k }` (asserted),
//!   re-checked by a fresh-solver certificate ([`certify_step`]).
//!
//! The counter limit of 100 is deliberate: it sits beyond the interval
//! analysis's 64-round widening cadence, so this family only encodes at all
//! because of threshold widening — the same PR that added this prover.
//!
//! A second workload needs actual induction depth: adjacent-eater mutual
//! exclusion on the conservative dining philosophers is true but *not*
//! 1-inductive (an arbitrary state with one philosopher eating says nothing
//! about its neighbour's fork), so the prover must strengthen through
//! simple-path-constrained depths before the step side closes.

use bench::{adjacent_mutex, counter_ring, ring_token_mutex};
use bip_core::{dining_philosophers, StatePred, System};
use bip_verify::bmc::{BmcConfig, BmcOutcome};
use bip_verify::kind::{certify_step, KindConfig, ProofReport, Verdict};
use bip_verify::reach::{check_invariant_with, ReachConfig};
use bip_verify::{Budget, StopReason};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

/// Ring size and counter limit of the flagship family.
const RING_N: usize = 4;
const RING_LIMIT: i64 = 100;
/// Explicit-state budget the ring must exhaust (reachable ≈ n·101^n).
const EXPLICIT_BUDGET: usize = 50_000;
/// BMC depth that must come back bounded, not proved.
const BMC_BOUND: usize = 60;
/// Fail-fast ceiling on cumulative SAT conflicts per proof attempt: far
/// above what a healthy run needs, so a blowup truncates (`SolverBudget`)
/// and the `Proved` assertions fail cleanly instead of hanging CI.
const CONFLICT_CEILING: u64 = 500_000;

/// A k-induction run capped at [`CONFLICT_CEILING`], asserted `Proved` and
/// certified by a fresh solver.
fn prove_and_certify(
    sys: &System,
    inv: &StatePred,
    max_k: usize,
    ctx: &str,
) -> (ProofReport, usize) {
    let t = std::time::Instant::now();
    let report = KindConfig::new(sys)
        .max_k(max_k)
        .budget(Budget::unlimited().conflicts(CONFLICT_CEILING))
        .prove(inv)
        .unwrap();
    let secs = t.elapsed().as_secs_f64();
    let Verdict::Proved { k } = report.verdict else {
        panic!(
            "{ctx}: expected an unbounded proof, got {:?}",
            report.verdict
        );
    };
    assert_eq!(report.stop, StopReason::Completed);
    assert!(
        certify_step(sys, inv, k, 4096).unwrap(),
        "{ctx}: fresh-solver certificate must accept the k={k} step"
    );
    println!(
        "{ctx:>16} kind: Proved {{ k: {k} }} in {secs:.2}s \
         (base {} + step {} conflicts, core used {} frame assumptions)",
        report.stats.base_conflicts, report.stats.step_conflicts, report.stats.core_frames
    );
    (report, k)
}

fn bench_ring() {
    let sys = counter_ring(RING_N, RING_LIMIT);
    let inv = ring_token_mutex(RING_N);

    // Explicit search drowns: budget exhausted, nothing proved.
    let t = std::time::Instant::now();
    let explicit = check_invariant_with(&sys, &inv, &ReachConfig::bounded(EXPLICIT_BUDGET));
    let explicit_secs = t.elapsed().as_secs_f64();
    assert!(
        !explicit.complete,
        "ring-{RING_N}x{RING_LIMIT} must exhaust the {EXPLICIT_BUDGET}-state budget"
    );
    assert!(explicit.violation.is_none());

    // BMC stays bounded: depth 60 is a caveat, not a proof.
    let t = std::time::Instant::now();
    let bmc = BmcConfig::new(&sys)
        .bound(BMC_BOUND)
        .budget(Budget::unlimited().conflicts(CONFLICT_CEILING))
        .check_invariant(&inv)
        .unwrap();
    let bmc_secs = t.elapsed().as_secs_f64();
    assert_eq!(
        bmc.stop,
        StopReason::Completed,
        "BMC fail-fast ceiling tripped"
    );
    assert!(
        matches!(bmc.outcome, BmcOutcome::NoViolationWithin(BMC_BOUND)),
        "BMC can only ever bound this family: {:?}",
        bmc.outcome
    );

    // k-induction closes it outright.
    let (report, k) = prove_and_certify(&sys, &inv, 16, &format!("ring-{RING_N}x{RING_LIMIT}"));
    println!(
        "{:>16} explicit: {} states, incomplete ({explicit_secs:.2}s); \
         bmc: NoViolationWithin({BMC_BOUND}) ({bmc_secs:.2}s)",
        "", explicit.states
    );
    println!(
        "BENCH {{\"bench\":\"e17\",\"system\":\"ring-{RING_N}x{RING_LIMIT}\",\"k\":{k},\"conflicts\":{},\"base_conflicts\":{},\"step_conflicts\":{},\"core_frames\":{},\"explicit_states\":{},\"explicit_complete\":false,\"bmc_bound\":{BMC_BOUND},\"bmc_proved\":false,\"explicit_secs\":{explicit_secs:.3},\"bmc_secs\":{bmc_secs:.3},\"wall_ms\":{},\"stop\":\"{:?}\"}}",
        report.stats.base_conflicts + report.stats.step_conflicts,
        report.stats.base_conflicts,
        report.stats.step_conflicts,
        report.stats.core_frames,
        explicit.states,
        report.elapsed.millis(),
        report.stop,
    );
}

/// The same ring with counters guard-bounded at 10⁶: a guard domain no
/// enumeration budget covers (one Tseitin case per value was declined with
/// `SupportTooLarge`), encoded as a 20-gate comparator and one add-constant
/// circuit per node. Still `Proved`, still certified.
fn bench_wide_ring() {
    const WIDE_LIMIT: i64 = 1_000_000;
    let sys = counter_ring(RING_N, WIDE_LIMIT);
    let inv = ring_token_mutex(RING_N);
    let (report, k) = prove_and_certify(&sys, &inv, 16, &format!("ring-{RING_N}x{WIDE_LIMIT}"));
    println!(
        "BENCH {{\"bench\":\"e17\",\"system\":\"ring-{RING_N}x{WIDE_LIMIT}\",\"k\":{k},\"conflicts\":{},\"base_conflicts\":{},\"step_conflicts\":{},\"core_frames\":{},\"step_clauses\":{},\"wall_ms\":{},\"stop\":\"{:?}\"}}",
        report.stats.base_conflicts + report.stats.step_conflicts,
        report.stats.base_conflicts,
        report.stats.step_conflicts,
        report.stats.core_frames,
        report.stats.step_clauses,
        report.elapsed.millis(),
        report.stop,
    );
}

fn bench_philosophers() {
    for n in [3usize, 4] {
        let sys = dining_philosophers(n, false).unwrap();
        let inv = adjacent_mutex(n);
        let (report, k) = prove_and_certify(&sys, &inv, 16, &format!("phil-{n}"));
        assert!(
            k > 0,
            "adjacent mutual exclusion is not 1-inductive; a k=0 proof means \
             the step encoding lost the counterexample-to-induction"
        );
        println!(
            "BENCH {{\"bench\":\"e17\",\"system\":\"phil-{n}\",\"k\":{k},\"conflicts\":{},\"base_conflicts\":{},\"step_conflicts\":{},\"core_frames\":{},\"explicit_states\":0,\"explicit_complete\":true,\"bmc_bound\":0,\"bmc_proved\":false,\"wall_ms\":{},\"stop\":\"{:?}\"}}",
            report.stats.base_conflicts + report.stats.step_conflicts,
            report.stats.base_conflicts,
            report.stats.step_conflicts,
            report.stats.core_frames,
            report.elapsed.millis(),
            report.stop,
        );
    }
}

fn table() {
    println!("\nE17: unbounded safety proofs by k-induction");
    println!(
        "(token ring, counters guard-bounded at {RING_LIMIT}: explicit search and BMC both \
         stay bounded; k-induction answers \"safe, period\")\n"
    );
    bench_ring();
    bench_wide_ring();
    bench_philosophers();
    println!();
}

fn bench(c: &mut Criterion) {
    table();
    let mut g = c.benchmark_group("e17");
    g.sample_size(10);
    let sys = counter_ring(RING_N, RING_LIMIT);
    let inv = ring_token_mutex(RING_N);
    g.bench_with_input(BenchmarkId::new("kind_ring", RING_N), &sys, |b, sys| {
        b.iter(|| {
            KindConfig::new(sys)
                .max_k(16)
                .prove(&inv)
                .unwrap()
                .is_proved()
        })
    });
    let phil = dining_philosophers(4, false).unwrap();
    let phil_inv = adjacent_mutex(4);
    g.bench_with_input(BenchmarkId::new("kind_phil", 4), &phil, |b, sys| {
        b.iter(|| {
            KindConfig::new(sys)
                .max_k(16)
                .prove(&phil_inv)
                .unwrap()
                .is_proved()
        })
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
