//! E18 — resilience under injected faults, verified by every engine.
//!
//! The model half runs the crash-recovery philosophers
//! ([`bench::crash_recovery_philosophers`]) in both directions:
//!
//! * **refutation** — the unrecoverable variant (any philosopher or fork may
//!   die and never come back) has a planted bug: the all-crashed global
//!   deadlock is reachable. Explicit reach finds it (violation state +
//!   trace, replayed step by step here), BMC finds the *shortest* witness
//!   (exactly one crash interaction per component, asserted), and
//!   `find_deadlock` confirms the dead end — with the reach report
//!   bit-identical across 1/2/8 threads;
//! * **proof** — the fault-budgeted variant (at most one concurrent crash,
//!   crashed components restart from their initial valuation) satisfies
//!   [`bip_core::fault::single_fault_invariant`], which is 1-inductive by
//!   construction: k-induction proves it outright, a fresh-solver
//!   [`certify_step`] certificate re-checks the step relation, and the
//!   explicit engine agrees the variant is deadlock-free. The
//!   [`IncrementalVerifier`] fault helpers (`verify_invariant_under`,
//!   `find_deadlock_under`) drive both checks.
//!
//! The runtime half exercises the adversarial `netsim` fault engine:
//!
//! * **lossy ring election** at 10²–10³ nodes — max-flooding leader
//!   election with periodic retransmission under uniform message loss;
//!   every node must still learn the global maximum id (asserted), and
//!   same-seed runs must produce identical [`netsim::Stats`] (asserted);
//! * **partition-and-heal relay chain** — a 64-node chain relaying a
//!   sequence across a scheduled partition and a crash/restart (the
//!   [`netsim::Process::on_restart`] hook re-arms the node); blackout-era
//!   sequence numbers are lost, post-heal traffic flows, and the run is
//!   bit-reproducible.
//!
//! The tail reruns Graham's timing-anomaly experiment (`bip_rt::anomaly`) so
//! the robustness counterpoint — faster parts, slower system — is asserted
//! in CI alongside the fault families.

use bench::{crash_recovery_philosophers, thread_counts};
use bip_core::fault::{self, FaultSpec, RecoverSpec};
use bip_core::{Step, System};
use bip_rt::anomaly::{anomaly_experiment, partitioned_makespan, JobShop};
use bip_verify::bmc::BmcConfig;
use bip_verify::dfinder::DFinderConfig;
use bip_verify::kind::{certify_step, KindConfig, Verdict};
use bip_verify::reach::{check_invariant_with, explore_with, find_deadlock, ReachConfig};
use bip_verify::{Budget, IncrementalVerifier, InvariantOutcome, StopReason};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use netsim::{Context, FaultPlan, Latency, Network, Process};

/// Philosophers per table (components = 2·n: philosophers + forks).
const PHIL_N: usize = 3;
/// Explicit-state budget; both variants stay comfortably under it.
const EXPLICIT_BUDGET: usize = 500_000;
/// Fail-fast ceiling on SAT conflicts (same idiom as e14/e17).
const CONFLICT_CEILING: u64 = 500_000;

/// Replay a step trace concretely from the initial state; every step must
/// be among the live successors at its position. Returns the final state.
fn replay(sys: &System, trace: &[Step]) -> bip_core::State {
    let mut st = sys.initial_state();
    for (i, step) in trace.iter().enumerate() {
        let succ = sys.successors(&st);
        let next = succ
            .iter()
            .find(|(s, _)| s == step)
            .unwrap_or_else(|| panic!("step {i} of the witness is not enabled: {step:?}"))
            .1
            .clone();
        st = next;
    }
    st
}

fn bench_model_refutation() {
    let doomed = crash_recovery_philosophers(PHIL_N, None, RecoverSpec::None);
    let crashable = fault::crashable_components(&doomed).len();
    assert_eq!(crashable, 2 * PHIL_N, "crash_all covers phils and forks");
    let inv = fault::all_crashed(&doomed).not();

    // Explicit reach finds the planted bug and hands back a concrete trace.
    let t = std::time::Instant::now();
    let explicit = check_invariant_with(&doomed, &inv, &ReachConfig::bounded(EXPLICIT_BUDGET));
    let reach_secs = t.elapsed().as_secs_f64();
    let (bad, steps) = explicit
        .violation
        .as_ref()
        .expect("unrecoverable crash-all: the all-crashed state must be reachable");
    let end = replay(&doomed, steps);
    assert_eq!(
        &end, bad,
        "reach witness must replay to the violating state"
    );
    assert!(!inv.eval(&doomed, &end));

    // BMC finds the shortest witness: one crash interaction per component.
    let t = std::time::Instant::now();
    let bmc = BmcConfig::new(&doomed)
        .bound(crashable)
        .budget(Budget::unlimited().conflicts(CONFLICT_CEILING))
        .check_invariant(&inv)
        .unwrap();
    let bmc_secs = t.elapsed().as_secs_f64();
    let (trace, states) = bmc
        .violation()
        .expect("BMC within the crash count must find the bug");
    assert_eq!(
        trace.len(),
        crashable,
        "shortest all-crashed witness is one crash per component"
    );
    assert_eq!(states.len(), crashable + 1);
    let end = replay(&doomed, trace);
    assert!(
        !inv.eval(&doomed, &end),
        "BMC witness must replay concretely"
    );

    // The all-crashed state is a dead end.
    let dead = find_deadlock(&doomed, EXPLICIT_BUDGET);
    assert!(dead.found(), "nobody recovers: the crash cascade deadlocks");

    // Fault-transformed reach is bit-identical across thread counts.
    let threads = thread_counts("E18_THREADS", &[1, 2, 8]);
    let base = explore_with(&doomed, &ReachConfig::bounded(EXPLICIT_BUDGET));
    assert!(base.complete);
    for &th in &threads {
        let r = explore_with(&doomed, &ReachConfig::bounded(EXPLICIT_BUDGET).threads(th));
        assert_eq!(r.states, base.states, "threads={th}: states");
        assert_eq!(r.transitions, base.transitions, "threads={th}: transitions");
        assert_eq!(r.complete, base.complete, "threads={th}: complete");
        assert_eq!(r.deadlocks, base.deadlocks, "threads={th}: deadlock order");
        assert_eq!(r.stored_bytes, base.stored_bytes, "threads={th}: footprint");
    }

    println!(
        "{:>16} refute: reach {} states ({reach_secs:.2}s), bmc {}-step witness \
         ({bmc_secs:.2}s), deadlock found, threads {threads:?} identical",
        format!("crash-phil-{PHIL_N}"),
        base.states,
        trace.len(),
    );
    println!(
        "BENCH {{\"bench\":\"e18\",\"family\":\"crash-phil\",\"variant\":\"unrecoverable\",\"n\":{PHIL_N},\"crashable\":{crashable},\"states\":{},\"bug_found\":true,\"bmc_trace_len\":{},\"deadlock_found\":true,\"threads_identical\":true,\"reach_secs\":{reach_secs:.3},\"bmc_secs\":{bmc_secs:.3}}}",
        base.states,
        trace.len(),
    );
}

fn bench_model_proof() {
    // The same table, fault-budgeted: at most one concurrent crash, crashed
    // components restart from their initial valuation.
    let base = bip_core::dining_philosophers(PHIL_N, false).unwrap();
    let spec = FaultSpec::crash_all()
        .recover(RecoverSpec::Restart)
        .budget(1);
    let saved = fault::inject(&base, &spec).unwrap();
    let inv = fault::single_fault_invariant(&saved);

    // Drive the proof through the IncrementalVerifier fault helpers — the
    // resilience API this bench exists to exercise.
    let inc = IncrementalVerifier::with_config(base, DFinderConfig::new().threads(2));
    let t = std::time::Instant::now();
    let out = inc
        .verify_invariant_under(&spec, &inv, 4, EXPLICIT_BUDGET)
        .unwrap();
    let prove_secs = t.elapsed().as_secs_f64();
    let InvariantOutcome::Proof(report) = &out else {
        panic!("recovery invariant must be settled by proof, got explicit fallback");
    };
    let Verdict::Proved { k } = report.verdict else {
        panic!("expected an unbounded proof, got {:?}", report.verdict);
    };
    assert_eq!(report.stop, StopReason::Completed);
    assert!(
        certify_step(&saved, &inv, k, 4096).unwrap(),
        "fresh-solver certificate must accept the k={k} step"
    );

    // And the budgeted variant never deadlocks: a crash is always either
    // available (budget free) or recoverable (budget spent).
    let dead = inc.find_deadlock_under(&spec, EXPLICIT_BUDGET).unwrap();
    assert!(dead.deadlock_free(), "recovery keeps the table live");

    // Sanity on the explicit side: the invariant really holds everywhere.
    let explicit = check_invariant_with(&saved, &inv, &ReachConfig::bounded(EXPLICIT_BUDGET));
    assert!(explicit.complete && explicit.violation.is_none());

    println!(
        "{:>16} prove: kind Proved {{ k: {k} }} + certificate ({prove_secs:.2}s), \
         deadlock-free, explicit agrees on {} states",
        format!("crash-phil-{PHIL_N}"),
        explicit.states,
    );
    println!(
        "BENCH {{\"bench\":\"e18\",\"family\":\"crash-phil\",\"variant\":\"budget1-restart\",\"n\":{PHIL_N},\"proved_k\":{k},\"certified\":true,\"deadlock_free\":true,\"states\":{},\"base_conflicts\":{},\"step_conflicts\":{},\"prove_secs\":{prove_secs:.3}}}",
        explicit.states,
        report.stats.base_conflicts,
        report.stats.step_conflicts,
    );
}

// ---------------------------------------------------------------------------
// Runtime half: netsim fault families.
// ---------------------------------------------------------------------------

/// Max-flooding ring election with periodic retransmission: every `PERIOD`
/// ticks each node re-sends the largest id it has seen to its successor,
/// for a fixed number of rounds. Loss only delays convergence — the
/// retransmissions make the protocol self-stabilizing against drops.
#[derive(Debug, Clone)]
struct Elector {
    id: u64,
    succ: usize,
    max_seen: u64,
    rounds_left: u32,
}

const ELECT_PERIOD: u64 = 3;

impl Process<u64> for Elector {
    fn on_start(&mut self, ctx: &mut Context<u64>) {
        self.max_seen = self.id;
        ctx.set_timer(ELECT_PERIOD, 0);
    }

    fn on_message(&mut self, _from: usize, msg: u64, _ctx: &mut Context<u64>) {
        self.max_seen = self.max_seen.max(msg);
    }

    fn on_timer(&mut self, _token: u64, ctx: &mut Context<u64>) {
        ctx.send(self.succ, self.max_seen);
        self.rounds_left -= 1;
        if self.rounds_left > 0 {
            ctx.set_timer(ELECT_PERIOD, 0);
        }
    }
}

fn election_run(n: usize, drop_rate: f64, seed: u64) -> (netsim::Stats, bool) {
    // Ids are a fixed permutation of 0..n (37 is odd, n is a power of two),
    // so the winner sits at an arbitrary ring position.
    let rounds = 2 * n as u32;
    let procs: Vec<Elector> = (0..n)
        .map(|i| Elector {
            id: ((i as u64) * 37 + 5) % n as u64,
            succ: (i + 1) % n,
            max_seen: 0,
            rounds_left: rounds,
        })
        .collect();
    let mut net = Network::with_seed(procs, Latency::Fixed(1), seed);
    net.set_faults(FaultPlan::lossy(drop_rate))
        .expect("drop rate is a probability");
    net.run_until_quiet(ELECT_PERIOD * u64::from(rounds) + 100);
    let max_id = n as u64 - 1;
    let elected = (0..n).all(|i| net.process(i).max_seen == max_id);
    (net.stats().clone(), elected)
}

fn bench_election() {
    for (n, drop_rate) in [(128usize, 0.10), (1024, 0.05)] {
        let t = std::time::Instant::now();
        let (stats, elected) = election_run(n, drop_rate, 7);
        let secs = t.elapsed().as_secs_f64();
        assert!(
            elected,
            "ring-{n}: every node must learn the global max id despite {drop_rate} loss"
        );
        assert!(stats.messages_dropped > 0, "the loss plan must bite");

        // Same-seed determinism under faults (acceptance criterion).
        let (again, _) = election_run(n, drop_rate, 7);
        assert_eq!(stats, again, "ring-{n}: same seed, same Stats");

        println!(
            "{:>16} election: {} sent, {} dropped, leader learned everywhere ({secs:.2}s)",
            format!("ring-{n}"),
            stats.messages_sent,
            stats.messages_dropped,
        );
        println!(
            "BENCH {{\"bench\":\"e18\",\"family\":\"election\",\"n\":{n},\"drop_rate\":{drop_rate},\"sent\":{},\"dropped\":{},\"delivered\":{},\"elected\":true,\"deterministic\":true,\"secs\":{secs:.3}}}",
            stats.messages_sent, stats.messages_dropped, stats.messages_delivered,
        );
    }
}

/// A relay chain: node 0 emits an increasing sequence, every node forwards
/// to its right neighbour, the last node records arrivals. Survives a
/// scheduled partition (heals) and a crash/restart of a middle relay
/// (`on_restart` re-arms nothing — relays are stateless forwarders — but
/// counts the event).
#[derive(Debug, Clone, Default)]
struct ChainNode {
    next: Option<usize>,
    emit: u64, // how many seqs node 0 still emits
    seq: u64,
    got: Vec<u64>,
    restarts: u64,
}

const CHAIN_PERIOD: u64 = 10;

impl Process<u64> for ChainNode {
    fn on_start(&mut self, ctx: &mut Context<u64>) {
        if ctx.me() == 0 && self.emit > 0 {
            ctx.set_timer(CHAIN_PERIOD, 0);
        }
    }

    fn on_message(&mut self, _from: usize, msg: u64, ctx: &mut Context<u64>) {
        match self.next {
            Some(next) => ctx.send(next, msg),
            None => self.got.push(msg),
        }
    }

    fn on_timer(&mut self, _token: u64, ctx: &mut Context<u64>) {
        self.seq += 1;
        ctx.send(1, self.seq);
        if self.seq < self.emit {
            ctx.set_timer(CHAIN_PERIOD, 0);
        }
    }

    fn on_restart(&mut self, _ctx: &mut Context<u64>) {
        self.restarts += 1;
    }
}

fn chain_run(n: usize, total: u64) -> (netsim::Stats, Vec<u64>, u64) {
    let procs: Vec<ChainNode> = (0..n)
        .map(|i| ChainNode {
            next: (i + 1 < n).then_some(i + 1),
            emit: if i == 0 { total } else { 0 },
            ..ChainNode::default()
        })
        .collect();
    let mut net = Network::with_seed(procs, Latency::Fixed(1), 11);
    // Right half partitioned off for 150 ticks, then heals; relay 20
    // crashes later and restarts 70 ticks on.
    let island: Vec<usize> = (n / 2..n).collect();
    net.set_faults(
        FaultPlan::none()
            .partition(island, 150, 300)
            .crash_restart(20, 350, 420),
    )
    .expect("plan names chain nodes only");
    net.run_until_quiet(20_000);
    let restarts = net.process(20).restarts;
    (
        net.stats().clone(),
        net.process(n - 1).got.clone(),
        restarts,
    )
}

fn bench_chain() {
    let (n, total) = (64usize, 60u64);
    let t = std::time::Instant::now();
    let (stats, got, restarts) = chain_run(n, total);
    let secs = t.elapsed().as_secs_f64();

    assert_eq!(restarts, 1, "on_restart must run exactly once");
    assert_eq!(stats.crash_events, 1);
    assert_eq!(stats.restarts, 1);
    assert!(
        stats.messages_dropped > 0,
        "blackout-era sequence numbers must be lost"
    );
    // Arrivals stay in order (FIFO per link, no reorder windows here)...
    assert!(got.windows(2).all(|w| w[0] < w[1]), "chain must stay FIFO");
    // ...the blackout actually cost us traffic, and post-heal traffic flows:
    // the final sequence number is emitted long after every fault window.
    assert!(
        got.len() < total as usize,
        "some seqs must be lost: {got:?}"
    );
    assert_eq!(got.last(), Some(&total), "post-heal traffic must flow");

    // Bit-reproducibility of the whole run, inbox included.
    let (s2, g2, r2) = chain_run(n, total);
    assert_eq!((&stats, &got, restarts), (&s2, &g2, r2));

    println!(
        "{:>16} chain: {}/{total} seqs delivered through partition+crash, \
         {} dropped, 1 restart ({secs:.2}s)",
        format!("chain-{n}"),
        got.len(),
        stats.messages_dropped,
    );
    println!(
        "BENCH {{\"bench\":\"e18\",\"family\":\"relay-chain\",\"n\":{n},\"emitted\":{total},\"delivered\":{},\"dropped\":{},\"crash_events\":{},\"restarts\":{},\"deterministic\":true,\"secs\":{secs:.3}}}",
        got.len(),
        stats.messages_dropped,
        stats.crash_events,
        stats.restarts,
    );
}

fn bench_anomaly() {
    // Graham's anomaly: every job gets faster, the greedy schedule gets
    // slower — while the deterministic (partitioned) schedule is monotone.
    let shop = JobShop::graham();
    let out = anomaly_experiment(&shop, 1);
    assert!(
        out.anomalous,
        "speeding every job up must lengthen the greedy makespan: {out:?}"
    );
    let det_wcet = partitioned_makespan(&shop);
    let det_faster = partitioned_makespan(&shop.speed_up(1));
    assert!(
        det_faster <= det_wcet,
        "the deterministic schedule must be time-robust"
    );
    println!(
        "{:>16} anomaly: greedy {} -> {} (anomalous), partitioned {} -> {} (robust)",
        "graham", out.makespan_wcet, out.makespan_faster, det_wcet, det_faster,
    );
    println!(
        "BENCH {{\"bench\":\"e18\",\"family\":\"anomaly\",\"system\":\"graham\",\"makespan_wcet\":{},\"makespan_faster\":{},\"anomalous\":true,\"partitioned_wcet\":{det_wcet},\"partitioned_faster\":{det_faster},\"robust\":true}}",
        out.makespan_wcet, out.makespan_faster,
    );
}

fn table() {
    println!("\nE18: resilience under injected faults");
    println!(
        "(crash-recovery philosophers refuted unbounded / proved budgeted; \
         adversarial netsim families; Graham anomaly counterpoint)\n"
    );
    bench_model_refutation();
    bench_model_proof();
    bench_election();
    bench_chain();
    bench_anomaly();
    println!();
}

fn bench(c: &mut Criterion) {
    table();
    let mut g = c.benchmark_group("e18");
    g.sample_size(10);

    // Transform cost: fault-inject a 16-philosopher table.
    let base = bip_core::dining_philosophers(16, false).unwrap();
    let spec = FaultSpec::crash_all()
        .recover(RecoverSpec::Restart)
        .budget(1);
    g.bench_with_input(BenchmarkId::new("inject_phil", 16), &base, |b, sys| {
        b.iter(|| fault::inject(sys, &spec).unwrap().num_components())
    });

    // Proof cost on the budgeted variant.
    let saved = crash_recovery_philosophers(PHIL_N, Some(1), RecoverSpec::Restart);
    let inv = fault::single_fault_invariant(&saved);
    g.bench_with_input(
        BenchmarkId::new("kind_crash_phil", PHIL_N),
        &saved,
        |b, sys| {
            b.iter(|| {
                KindConfig::new(sys)
                    .max_k(4)
                    .prove(&inv)
                    .unwrap()
                    .is_proved()
            })
        },
    );

    // Lossy election end-to-end at the small size.
    g.bench_function(BenchmarkId::new("election", 128), |b| {
        b.iter(|| election_run(128, 0.10, 7).1)
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
