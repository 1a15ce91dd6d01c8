//! Integration tests for the adversarial fault engine: partitions with
//! heal times, per-link drop/delay/duplicate/reorder windows, process
//! crash/restart schedules with the `on_restart` hook, and the headline
//! determinism contract — same seed, same plan ⇒ identical [`Stats`].

use netsim::{Context, FaultPlan, Latency, LinkFault, Network, Process, Stats};

/// A beacon: node 0 sends one numbered message to every other node each
/// time a periodic timer fires; everyone records what they receive.
#[derive(Debug, Default, Clone)]
struct Beacon {
    rounds: u64,
    sent: u64,
    received: Vec<(u64, u64)>, // (arrival time, round number)
    restarts: u64,
}

impl Process<u64> for Beacon {
    fn on_start(&mut self, ctx: &mut Context<u64>) {
        if ctx.me() == 0 {
            ctx.set_timer(1, 0);
        }
    }

    fn on_message(&mut self, _from: usize, msg: u64, ctx: &mut Context<u64>) {
        self.received.push((ctx.now(), msg));
    }

    fn on_timer(&mut self, _token: u64, ctx: &mut Context<u64>) {
        self.sent += 1;
        for dst in 1..NODES {
            ctx.send(dst, self.sent);
        }
        if self.sent < self.rounds {
            ctx.set_timer(10, 0);
        }
    }

    fn on_restart(&mut self, ctx: &mut Context<u64>) {
        self.restarts += 1;
        // Memory survives a restart; timers do not — re-arm the beacon.
        if ctx.me() == 0 && self.sent < self.rounds {
            ctx.set_timer(1, 0);
        }
    }
}

const NODES: usize = 4;

fn beacon_net(seed: u64, rounds: u64, plan: FaultPlan) -> Network<u64, Beacon> {
    let procs: Vec<Beacon> = (0..NODES)
        .map(|_| Beacon {
            rounds,
            ..Beacon::default()
        })
        .collect();
    let mut net = Network::with_seed(procs, Latency::Fixed(2), seed);
    net.set_faults(plan).expect("well-formed plan");
    net
}

#[test]
fn partition_drops_then_heals() {
    // Nodes {3} cut off from {0,1,2} during [0, 55); the beacon runs for
    // 10 rounds (ticks at t=1, 11, ..., 91, arrivals two later). Rounds
    // sent while partitioned never reach node 3; later rounds do.
    let mut net = beacon_net(1, 10, FaultPlan::none().partition(vec![3], 0, 55));
    net.run_until_quiet(10_000);

    let reached_3: Vec<u64> = net.process(3).received.iter().map(|&(_, r)| r).collect();
    assert!(
        !reached_3.is_empty(),
        "healed partition must let late rounds through"
    );
    // Rounds 1..=6 are sent at t=1..=51 (inside the window) and dropped.
    assert!(
        reached_3.iter().all(|&r| r > 6),
        "partitioned-era rounds leaked through: {reached_3:?}"
    );
    // Nodes inside the majority island were never affected.
    assert_eq!(net.process(1).received.len(), 10);
    assert_eq!(net.process(2).received.len(), 10);
    assert_eq!(net.stats().messages_dropped, 6);
}

#[test]
fn link_window_delays_and_counts() {
    // Extra delay of 50 on 0→1 during the first 5 rounds. Base latency 2.
    let plan = FaultPlan::none().link(LinkFault::window(0, 1, 0, 55).delay(50));
    let mut net = beacon_net(2, 10, plan);
    net.run_until_quiet(10_000);

    let got = &net.process(1).received;
    assert_eq!(got.len(), 10, "delay must not lose messages");
    // Round 1 is sent at t=1: delayed arrival no earlier than 1+2+50.
    let first = got.iter().find(|&&(_, r)| r == 1).unwrap();
    assert!(
        first.0 >= 53,
        "round 1 should arrive late, got t={}",
        first.0
    );
    assert_eq!(net.stats().messages_delayed, 6);
    // Delay raises the FIFO floor, so later undelayed rounds cannot
    // overtake: round order is preserved on the link.
    let rounds: Vec<u64> = got.iter().map(|&(_, r)| r).collect();
    assert_eq!(rounds, (1..=10).collect::<Vec<u64>>());
}

#[test]
fn duplicate_rate_one_delivers_twice() {
    let plan = FaultPlan::none().link(LinkFault::window(0, 1, 0, u64::MAX).duplicate(1.0));
    let mut net = beacon_net(3, 5, plan);
    net.run_until_quiet(10_000);

    assert_eq!(net.stats().messages_duplicated, 5);
    assert_eq!(net.process(1).received.len(), 10, "every message twice");
    assert_eq!(net.process(2).received.len(), 5, "other links untouched");
}

#[test]
fn reorder_window_is_counted() {
    let plan = FaultPlan::none().link(LinkFault::window(0, 1, 0, u64::MAX).reorder(1.0));
    let mut net = beacon_net(4, 8, plan);
    net.run_until_quiet(10_000);

    assert_eq!(net.stats().messages_reordered, 8);
    assert_eq!(net.process(1).received.len(), 8, "reorder never loses");
}

#[test]
fn crash_and_restart_invokes_hook() {
    // Crash the beacon source at t=25 (after rounds 1–3 are sent at
    // t=1,11,21), restart at t=60. `on_restart` re-arms the timer, so the
    // remaining rounds flow afterwards. Memory (`sent`) survives.
    let plan = FaultPlan::none().crash_restart(0, 25, 60);
    let mut net = beacon_net(5, 6, plan);
    net.run_until_quiet(10_000);

    assert_eq!(net.process(0).restarts, 1, "on_restart must run once");
    assert_eq!(net.process(0).sent, 6, "state survives the crash");
    assert_eq!(net.stats().crash_events, 1);
    assert_eq!(net.stats().restarts, 1);
    assert!(!net.is_crashed(0));
    // All 6 rounds eventually reach node 1: 3 before the crash, 3 after.
    assert_eq!(net.process(1).received.len(), 6);
    // The pending t=31 timer died with the crash; post-restart rounds
    // only start after t=60.
    let late: Vec<u64> = net
        .process(1)
        .received
        .iter()
        .filter(|&&(t, _)| t > 60)
        .map(|&(_, r)| r)
        .collect();
    assert_eq!(late, vec![4, 5, 6]);
}

#[test]
fn permanent_crash_swallows_traffic() {
    let plan = FaultPlan::none().crash(1, 20);
    let mut net = beacon_net(6, 6, plan);
    net.run_until_quiet(10_000);

    assert!(net.is_crashed(1));
    assert_eq!(net.stats().crash_events, 1);
    assert_eq!(net.stats().restarts, 0);
    // Rounds 1–2 arrive (t=3, 13); rounds sent at t≥21 hit a dead node.
    assert_eq!(net.process(1).received.len(), 2);
    assert_eq!(net.stats().messages_dropped, 4);
    // The other nodes still get everything.
    assert_eq!(net.process(2).received.len(), 6);
}

/// The adversarial kitchen sink used by the determinism regression.
fn adversarial_plan() -> FaultPlan {
    FaultPlan::lossy(0.1)
        .sever(3, 0)
        .link(
            LinkFault::window(0, 1, 10, 60)
                .drop(0.3)
                .delay(7)
                .duplicate(0.5)
                .reorder(0.4),
        )
        .partition(vec![2], 30, 50)
        .crash_restart(2, 55, 70)
        .crash(3, 80)
}

fn adversarial_run(seed: u64) -> (Stats, Vec<Vec<(u64, u64)>>) {
    let mut net = beacon_net(seed, 12, adversarial_plan());
    net.run_until_quiet(10_000);
    let inboxes = (0..NODES)
        .map(|i| net.process(i).received.clone())
        .collect();
    (net.stats().clone(), inboxes)
}

#[test]
fn same_seed_same_stats_under_full_adversity() {
    // Satellite: same-seed runs with faults enabled must produce
    // identical `Stats` — and, stronger, identical per-node inboxes.
    let (s1, in1) = adversarial_run(42);
    let (s2, in2) = adversarial_run(42);
    assert_eq!(s1, s2, "same seed must reproduce Stats exactly");
    assert_eq!(in1, in2, "same seed must reproduce every inbox");

    // The plan actually bites: adversity counters are live.
    assert!(s1.messages_dropped > 0);
    assert!(s1.crash_events == 2 && s1.restarts == 1);

    // And a different seed takes a different trajectory (the RNG is
    // actually consulted, not bypassed).
    let (s3, _) = adversarial_run(43);
    assert_ne!(s1, s3, "different seeds should diverge under 10% loss");
}

/// Max-flooding ring election with retransmission: every 3 ticks, for
/// `rounds_left` rounds, each node re-sends the largest id it has seen to
/// its successor. Loss only delays convergence.
#[derive(Debug, Clone)]
struct Elector {
    id: u64,
    succ: usize,
    max_seen: u64,
    rounds_left: u32,
}

impl Process<u64> for Elector {
    fn on_start(&mut self, ctx: &mut Context<u64>) {
        self.max_seen = self.id;
        ctx.set_timer(3, 0);
    }

    fn on_message(&mut self, _from: usize, msg: u64, _ctx: &mut Context<u64>) {
        self.max_seen = self.max_seen.max(msg);
    }

    fn on_timer(&mut self, _token: u64, ctx: &mut Context<u64>) {
        ctx.send(self.succ, self.max_seen);
        self.rounds_left -= 1;
        if self.rounds_left > 0 {
            ctx.set_timer(3, 0);
        }
    }
}

/// Leader election on an `n`-node ring (`n` a power of two, so the ids
/// `(37 i + 5) mod n` are a permutation) under uniform loss: every node
/// learns the maximum id, the plan drops messages, and the same seed gives
/// the same `Stats`.
fn assert_election_converges(n: usize, drop_rate: f64) {
    let run = || {
        let procs = (0..n).map(|i| Elector {
            id: (i as u64 * 37 + 5) % n as u64,
            succ: (i + 1) % n,
            max_seen: 0,
            rounds_left: 2 * n as u32,
        });
        let mut net = Network::with_seed(procs.collect(), Latency::Fixed(1), 7);
        net.set_faults(FaultPlan::lossy(drop_rate)).unwrap();
        net.run_until_quiet(6 * n as u64 + 100);
        let elected = (0..n).all(|i| net.process(i).max_seen == n as u64 - 1);
        (net.stats().clone(), elected)
    };
    let (stats, elected) = run();
    assert!(elected && stats.messages_dropped > 0, "ring-{n}: {stats:?}");
    assert_eq!(run().0, stats, "ring-{n}: same seed");
}

#[test]
fn lossy_ring_election_converges_deterministically() {
    assert_election_converges(128, 0.10);
}

/// The election at 10³ nodes: about two million messages.
#[test]
#[ignore = "release: run with --ignored"]
fn lossy_ring_election_converges_at_a_thousand_nodes() {
    assert_election_converges(1024, 0.05);
}
