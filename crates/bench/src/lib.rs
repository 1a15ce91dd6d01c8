//! Shared helpers for the experiment benches and the workspace test suite.

use std::collections::{HashMap, VecDeque};

/// Worker-thread counts for a bench sweep: `--threads a,b,c` on the
/// command line beats the `env_var` environment variable beats `default`.
/// The shared parser of the e11/e12/e13 benches.
pub fn thread_counts(env_var: &str, default: &[usize]) -> Vec<usize> {
    let from_args = std::env::args()
        .skip_while(|a| a != "--threads")
        .nth(1)
        .or_else(|| std::env::var(env_var).ok());
    let parsed: Vec<usize> = from_args
        .map(|s| s.split(',').filter_map(|t| t.trim().parse().ok()).collect())
        .unwrap_or_default();
    if parsed.is_empty() {
        default.to_vec()
    } else {
        parsed
    }
}

use bip_core::{State, System};
use bip_verify::reach::ReachReport;

/// Verbatim PR-1 `explore` (heap `State` keys, FIFO queue, per-edge `State`
/// clones, `HashMap<State, ()>` seen set): the semantic and performance
/// baseline that E11 measures against and the parallel-reach property tests
/// verify against. Note its historical bound quirk, faithfully preserved:
/// successors pruned at `max_states` still count as transitions, so
/// baseline reports are only comparable edge-for-edge on complete runs.
pub fn pr1_explore(sys: &System, max_states: usize) -> ReachReport {
    let start = std::time::Instant::now();
    let mut seen: HashMap<State, ()> = HashMap::new();
    let mut queue = VecDeque::new();
    let mut transitions = 0usize;
    let mut deadlocks = Vec::new();
    let mut complete = true;
    let init = sys.initial_state();
    seen.insert(init.clone(), ());
    queue.push_back(init);
    while let Some(st) = queue.pop_front() {
        let succ = sys.successors(&st);
        if succ.is_empty() {
            deadlocks.push(st.clone());
        }
        for (_, next) in succ {
            transitions += 1;
            if !seen.contains_key(&next) {
                if seen.len() >= max_states {
                    complete = false;
                    continue;
                }
                seen.insert(next.clone(), ());
                queue.push_back(next);
            }
        }
    }
    ReachReport {
        states: seen.len(),
        transitions,
        deadlocks,
        complete,
        // The PR-1 seen set has no packed footprint; the E11 bench measures
        // its `State`-based cost separately.
        stored_bytes: 0,
        stop: if complete {
            bip_verify::StopReason::Completed
        } else {
            bip_verify::StopReason::BoundExhausted
        },
        elapsed: start.elapsed(),
        peak_bytes: 0,
        checkpoint: None,
    }
}

/// The gas-station family: one operator, one pump, `customers` customers
/// (prepay the operator, pump, leave) — the other standard D-Finder
/// benchmark, and the E12 trap-sparse workload.
///
/// Its trap mass is *spread thin*: a few dozen small traps scattered over
/// the whole place set, so a bounded enumeration must prove exhaustion of
/// nearly every min-place subspace before it can stop. That makes the
/// family the honest parallel-speedup workload — every seed's SAT instance
/// is real work, and none dominates.
pub fn gas_station(customers: usize) -> System {
    use bip_core::{AtomBuilder, ConnectorBuilder, SystemBuilder};
    let operator = AtomBuilder::new("operator")
        .port("prepay")
        .port("change")
        .location("idle")
        .location("serving")
        .initial("idle")
        .transition("idle", "prepay", "serving")
        .transition("serving", "change", "idle")
        .build()
        .unwrap();
    let pump = AtomBuilder::new("pump")
        .port("start")
        .port("finish")
        .location("free")
        .location("pumping")
        .initial("free")
        .transition("free", "start", "pumping")
        .transition("pumping", "finish", "free")
        .build()
        .unwrap();
    let customer = AtomBuilder::new("customer")
        .port("pay")
        .port("pump")
        .port("done")
        .location("arrive")
        .location("paid")
        .location("fueling")
        .initial("arrive")
        .transition("arrive", "pay", "paid")
        .transition("paid", "pump", "fueling")
        .transition("fueling", "done", "arrive")
        .build()
        .unwrap();
    let mut sb = SystemBuilder::new();
    let op = sb.add_instance("op", &operator);
    let pu = sb.add_instance("pump", &pump);
    for i in 0..customers {
        let c = sb.add_instance(format!("cust{i}"), &customer);
        sb.add_connector(ConnectorBuilder::rendezvous(
            format!("prepay{i}"),
            [(c, "pay"), (op, "prepay")],
        ));
        sb.add_connector(ConnectorBuilder::rendezvous(
            format!("start{i}"),
            [(c, "pump"), (pu, "start"), (op, "change")],
        ));
        sb.add_connector(ConnectorBuilder::rendezvous(
            format!("finish{i}"),
            [(c, "done"), (pu, "finish")],
        ));
    }
    sb.build().unwrap()
}

/// The intern-heavy token-ring family: `n` nodes whose per-node counters
/// are **genuinely unbounded** — the holder's `work` transition increments
/// with no guard, so the static range analysis must give up on every
/// counter and the adaptive codec routes all of them through the interned
/// overflow table ([`bip_core::InternTable`]).
///
/// The reachable state space is infinite; explorations must be bounded.
/// That is the point: within the bound, *every* encode of *every* state
/// interns `n` values, so the intern table sits on the hot path of every
/// worker at once — the workload the lock-free append-only arena exists
/// for, and the one the E12 bench measures across thread counts.
pub fn unbounded_ring(n: usize) -> System {
    token_ring(n, bip_core::Expr::t())
}

/// The var-heavy token-ring family: `n` nodes, each with a per-node counter
/// bounded by `k` through a transition guard.
///
/// One token circulates (`pass{i}` rendezvous between neighbor `put`/`get`
/// ports); the holder may also `work` (a singleton connector) any number of
/// times, incrementing its counter while `c < k`. Counters are independent,
/// so the reachable set is ≈ `n · (k+1)^n` — data-rich state spaces whose
/// per-state footprint is dominated by the counters. The full-width codec
/// spends 64 bits per counter; the adaptive codec infers `[0, k]` from the
/// guard and packs each in `ceil(log2(k+1))` bits, which is the footprint
/// gap E11's var-heavy table measures.
pub fn counter_ring(n: usize, k: i64) -> System {
    use bip_core::Expr;
    assert!(k >= 1);
    token_ring(n, Expr::var(0).lt(Expr::int(k)))
}

/// The planted-bug family (E14/E16): one counter stepping `n := n + 1`
/// while `n < limit` (internal transitions, so the bug at `n == d` sits
/// exactly `d` steps deep) beside `toggles` independent two-location
/// components on singleton connectors, which pad every frame's breadth.
/// The counter is component 0, so [`planted_invariant`] addresses it.
pub fn planted(limit: i64, toggles: usize) -> System {
    use bip_core::{AtomBuilder, ConnectorBuilder, Expr, SystemBuilder};
    let counter = AtomBuilder::new("counter")
        .location("run")
        .initial("run")
        .var("n", 0)
        .internal_transition(
            "run",
            Expr::var(0).lt(Expr::int(limit)),
            vec![("n", Expr::var(0).add(Expr::int(1)))],
            "run",
        )
        .build()
        .unwrap();
    let toggle = AtomBuilder::new("toggle")
        .port("t")
        .location("a")
        .location("b")
        .initial("a")
        .transition("a", "t", "b")
        .transition("b", "t", "a")
        .build()
        .unwrap();
    let mut sb = SystemBuilder::new();
    sb.add_instance("cnt", &counter);
    for i in 0..toggles {
        let c = sb.add_instance(format!("tgl{i}"), &toggle);
        sb.add_connector(ConnectorBuilder::singleton(format!("flip{i}"), c, "t"));
    }
    sb.build().unwrap()
}

/// The planted invariant: the counter of [`planted`] never reaches `depth`.
pub fn planted_invariant(depth: i64) -> bip_core::StatePred {
    use bip_core::{GExpr, StatePred};
    StatePred::Eq(GExpr::var(0, 0), GExpr::int(depth)).not()
}

/// "At most one node of a token ring holds the token" (`hold` is location
/// 1 of every [`counter_ring`] / [`unbounded_ring`] node).
pub fn ring_token_mutex(n: usize) -> bip_core::StatePred {
    use bip_core::StatePred;
    let mut pairs = Vec::new();
    for i in 0..n {
        for j in i + 1..n {
            pairs.push(StatePred::at_loc(i, 1).and(StatePred::at_loc(j, 1)).not());
        }
    }
    StatePred::And(pairs)
}

/// "Adjacent philosophers never eat together" (`eating` is location 1 of
/// every philosopher of [`bip_core::dining_philosophers`]).
pub fn adjacent_mutex(n: usize) -> bip_core::StatePred {
    use bip_core::StatePred;
    StatePred::And(
        (0..n)
            .map(|i| {
                StatePred::at_loc(i, 1)
                    .and(StatePred::at_loc((i + 1) % n, 1))
                    .not()
            })
            .collect(),
    )
}

/// The crash-recovery philosophers family (E18): the deadlock-free
/// conservative dining philosophers run through [`bip_core::fault::inject`]
/// with every philosopher crashable.
///
/// With `budget = None` and [`bip_core::RecoverSpec::None`] this is the **planted
/// bug**: any philosopher can die holding the table hostage and never come
/// back, so the all-crashed global deadlock is reachable (E18's refutation
/// direction — reach and BMC both find and replay it). With
/// `budget = Some(1)` and a recovery spec, at most one philosopher is down
/// at a time and [`bip_core::fault::single_fault_invariant`] is 1-inductive
/// (E18's proof direction — k-induction proves it, `certify_step` certifies
/// the step relation).
pub fn crash_recovery_philosophers(
    n: usize,
    budget: Option<u32>,
    recover: bip_core::RecoverSpec,
) -> System {
    use bip_core::FaultSpec;
    let base = bip_core::dining_philosophers(n, false).unwrap();
    let mut spec = FaultSpec::crash_all().recover(recover);
    if let Some(b) = budget {
        spec = spec.budget(b);
    }
    bip_core::fault::inject(&base, &spec).unwrap()
}

/// Shared topology of the token-ring families: one circulating token
/// (`pass{i}` rendezvous between neighbor `put`/`get` ports) and a
/// per-node `work` self-loop incrementing the node's counter while
/// `work_guard` holds — the guard is the only thing the families differ in.
fn token_ring(n: usize, work_guard: bip_core::Expr) -> System {
    use bip_core::{AtomBuilder, ConnectorBuilder, Expr, SystemBuilder};
    assert!(n >= 2);
    let node = |first: bool| {
        AtomBuilder::new(if first { "holder" } else { "node" })
            .var("c", 0)
            .port("get")
            .port("put")
            .port("work")
            .location("idle")
            .location("hold")
            .initial(if first { "hold" } else { "idle" })
            .transition("idle", "get", "hold")
            .transition("hold", "put", "idle")
            .guarded_transition(
                "hold",
                "work",
                work_guard.clone(),
                vec![("c", Expr::var(0).add(Expr::int(1)))],
                "hold",
            )
            .build()
            .unwrap()
    };
    let holder = node(true);
    let idle = node(false);
    let mut sb = SystemBuilder::new();
    for i in 0..n {
        sb.add_instance(format!("n{i}"), if i == 0 { &holder } else { &idle });
    }
    for i in 0..n {
        sb.add_connector(ConnectorBuilder::rendezvous(
            format!("pass{i}"),
            [(i, "put"), ((i + 1) % n, "get")],
        ));
        sb.add_connector(ConnectorBuilder::singleton(format!("work{i}"), i, "work"));
    }
    sb.build().unwrap()
}
