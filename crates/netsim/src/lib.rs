//! `netsim` — a deterministic discrete-event network simulator.
//!
//! Substrate for deploying distributed (S/R-BIP) systems: the paper's tool
//! chain generates "an MPI program or a set of plain C/C++ programs that use
//! TCP/IP communication" (§5.6); we substitute a simulator that preserves
//! what the distribution experiments measure — message counts, causal
//! ordering over FIFO point-to-point links, and achievable parallelism —
//! while staying reproducible (seeded latency jitter, deterministic event
//! ordering).
//!
//! # Model
//!
//! * A fixed set of **nodes**, each hosting a user-provided [`Process`];
//! * point-to-point **FIFO links** with a [`Latency`] model;
//! * an event queue ordered by `(time, sequence number)`;
//! * processes react to messages and timers through a [`Context`] handle.
//!
//! # Fault injection
//!
//! [`FaultPlan`] describes an adversarial but **seed-deterministic** fault
//! schedule: uniform message loss, severed links, network [`Partition`]s
//! with heal times, per-link [`LinkFault`] windows (drop / extra delay /
//! duplication / FIFO-violating reordering), and process [`CrashEvent`]
//! schedules with optional restarts (the [`Process::on_restart`] hook).
//! Every random decision draws from the same seeded RNG in a fixed order,
//! so two runs with the same seed and plan produce identical [`Stats`] —
//! the property the regression tests pin down.
//!
//! # Example
//!
//! ```
//! use netsim::{Latency, Network, Process, Context};
//!
//! struct Echo;
//! impl Process<String> for Echo {
//!     fn on_start(&mut self, ctx: &mut Context<String>) {
//!         if ctx.me() == 0 {
//!             ctx.send(1, "ping".to_string());
//!         }
//!     }
//!     fn on_message(&mut self, from: usize, msg: String, ctx: &mut Context<String>) {
//!         if msg == "ping" {
//!             ctx.send(from, "pong".to_string());
//!         }
//!     }
//! }
//!
//! let mut net = Network::new(vec![Echo, Echo], Latency::Fixed(5));
//! net.run_until_quiet(1_000);
//! assert_eq!(net.stats().messages_delivered, 2);
//! ```

use std::collections::{BinaryHeap, VecDeque};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Simulated time (abstract ticks).
pub type Time = u64;

/// Link latency models.
#[derive(Debug, Clone)]
pub enum Latency {
    /// Every message takes exactly this long.
    Fixed(Time),
    /// Base latency plus seeded uniform jitter in `0..jitter`.
    Jittered {
        /// Minimum latency.
        base: Time,
        /// Exclusive upper bound on the added jitter.
        jitter: Time,
    },
}

impl Latency {
    fn sample(&self, rng: &mut StdRng) -> Time {
        match self {
            Latency::Fixed(t) => *t,
            Latency::Jittered { base, jitter } => {
                base + if *jitter == 0 {
                    0
                } else {
                    rng.gen_range(0..*jitter)
                }
            }
        }
    }
}

/// A process hosted on a node. `M` is the message type.
pub trait Process<M> {
    /// Called once at time 0.
    fn on_start(&mut self, _ctx: &mut Context<M>) {}

    /// Called when a message from `from` is delivered.
    fn on_message(&mut self, from: usize, msg: M, ctx: &mut Context<M>);

    /// Called when a timer set via [`Context::set_timer`] fires.
    fn on_timer(&mut self, _token: u64, _ctx: &mut Context<M>) {}

    /// Called when this node restarts after a scheduled crash (see
    /// [`FaultPlan::crash_restart`]). Process memory is **retained** across
    /// the crash — implementations decide what to reset, re-announce, or
    /// re-arm (timers and messages that targeted the node while it was down
    /// are gone). Default: no-op, so existing processes are unaffected.
    fn on_restart(&mut self, _ctx: &mut Context<M>) {}
}

/// Handle through which a process interacts with the network.
#[derive(Debug)]
pub struct Context<'a, M> {
    me: usize,
    now: Time,
    outbox: &'a mut Vec<(usize, M)>,
    timers: &'a mut Vec<(Time, u64)>,
    halted: &'a mut bool,
}

impl<M> Context<'_, M> {
    /// This node's id.
    pub fn me(&self) -> usize {
        self.me
    }

    /// Current simulated time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Send `msg` to node `to` (delivered after the link latency; FIFO per
    /// ordered pair of nodes).
    pub fn send(&mut self, to: usize, msg: M) {
        self.outbox.push((to, msg));
    }

    /// Arrange for [`Process::on_timer`] with `token` after `delay` ticks.
    pub fn set_timer(&mut self, delay: Time, token: u64) {
        self.timers.push((self.now + delay, token));
    }

    /// Stop the whole simulation after this handler returns.
    pub fn halt(&mut self) {
        *self.halted = true;
    }
}

/// Aggregate statistics of a run.
///
/// `Stats` is `Eq` on purpose: two runs with the same seed, processes, and
/// [`FaultPlan`] must produce *identical* statistics, and the determinism
/// regression tests compare whole `Stats` values.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Stats {
    /// Messages handed to [`Context::send`].
    pub messages_sent: usize,
    /// Messages delivered to [`Process::on_message`] (duplicates included).
    pub messages_delivered: usize,
    /// Messages lost to fault injection: uniform loss, severed links,
    /// active partitions, link-fault drops, and deliveries to a crashed
    /// node.
    pub messages_dropped: usize,
    /// Extra copies enqueued by [`LinkFault::duplicate`] windows.
    pub messages_duplicated: usize,
    /// Sends whose active [`LinkFault`] window added extra delay.
    pub messages_delayed: usize,
    /// Sends that bypassed the FIFO floor through a [`LinkFault::reorder`]
    /// window (they may overtake earlier messages on the link).
    pub messages_reordered: usize,
    /// Timer events fired.
    pub timers_fired: usize,
    /// Timer events discarded because the node was crashed when they came
    /// due.
    pub timers_dropped: usize,
    /// Scheduled crashes that took effect.
    pub crash_events: usize,
    /// Scheduled restarts that took effect ([`Process::on_restart`] calls).
    pub restarts: usize,
    /// Final simulated time.
    pub end_time: Time,
    /// Per-node delivered-message counts.
    pub per_node_delivered: Vec<usize>,
}

#[derive(Debug)]
enum Payload<M> {
    Message { from: usize, msg: M },
    Timer { token: u64 },
    Crash,
    Restart,
}

#[derive(Debug)]
struct Event<M> {
    time: Time,
    seq: u64,
    dst: usize,
    payload: Payload<M>,
}

impl<M> PartialEq for Event<M> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<M> Eq for Event<M> {}
impl<M> PartialOrd for Event<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Event<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reverse for the max-heap: earliest (time, seq) first.
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

/// Why [`Network::set_faults`] rejected a [`FaultPlan`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultPlanError {
    /// A rate is not a probability in `[0.0, 1.0]` (NaN included).
    BadRate {
        /// Which rate (e.g. `"FaultPlan drop rate"`).
        what: &'static str,
        /// The offending value.
        rate: f64,
    },
    /// A node index is not below the network's node count.
    NodeOutOfRange {
        /// Where the index appears (e.g. `"CrashEvent node"`).
        what: &'static str,
        /// The offending index.
        node: usize,
        /// The network's node count.
        nodes: usize,
    },
}

impl std::fmt::Display for FaultPlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultPlanError::BadRate { what, rate } => {
                write!(f, "{what} must be a probability in [0.0, 1.0], got {rate}")
            }
            FaultPlanError::NodeOutOfRange { what, node, nodes } => {
                write!(f, "{what} {node} out of range for {nodes} nodes")
            }
        }
    }
}

impl std::error::Error for FaultPlanError {}

/// `Ok` if `rate` is a probability (NaN fails the range test).
fn check_rate(rate: f64, what: &'static str) -> Result<(), FaultPlanError> {
    if (0.0..=1.0).contains(&rate) {
        Ok(())
    } else {
        Err(FaultPlanError::BadRate { what, rate })
    }
}

/// `Ok` if `node` indexes one of `nodes` nodes.
fn check_node(node: usize, nodes: usize, what: &'static str) -> Result<(), FaultPlanError> {
    if node < nodes {
        Ok(())
    } else {
        Err(FaultPlanError::NodeOutOfRange { what, node, nodes })
    }
}

/// One adversity window on a directed link: while `from <= now < until`
/// (decided at **send** time), messages from `src` to `dst` are dropped
/// with `drop_rate`, delayed by `extra_delay` extra ticks, duplicated with
/// `duplicate_rate`, and allowed to overtake (FIFO-floor bypass) with
/// `reorder_rate`. Build with [`LinkFault::window`] and the chainable
/// setters.
#[derive(Debug, Clone)]
pub struct LinkFault {
    /// Sending node.
    pub src: usize,
    /// Receiving node.
    pub dst: usize,
    /// First tick the window is active.
    pub from: Time,
    /// First tick the window is no longer active (exclusive).
    pub until: Time,
    /// Per-message drop probability inside the window.
    pub drop_rate: f64,
    /// Extra latency added to every message inside the window.
    pub extra_delay: Time,
    /// Probability that a message is enqueued twice (independent latency
    /// samples; both copies respect the FIFO floor).
    pub duplicate_rate: f64,
    /// Probability that a message bypasses the FIFO floor and may overtake
    /// earlier traffic on the link.
    pub reorder_rate: f64,
}

impl LinkFault {
    /// An all-pass window on `src → dst` over `[from, until)`; chain the
    /// setters to make it hostile.
    pub fn window(src: usize, dst: usize, from: Time, until: Time) -> LinkFault {
        LinkFault {
            src,
            dst,
            from,
            until,
            drop_rate: 0.0,
            extra_delay: 0,
            duplicate_rate: 0.0,
            reorder_rate: 0.0,
        }
    }

    /// Set the drop probability (checked by [`Network::set_faults`]).
    #[must_use]
    pub fn drop(mut self, rate: f64) -> LinkFault {
        self.drop_rate = rate;
        self
    }

    /// Set the extra per-message delay.
    #[must_use]
    pub fn delay(mut self, extra: Time) -> LinkFault {
        self.extra_delay = extra;
        self
    }

    /// Set the duplication probability (checked by [`Network::set_faults`]).
    #[must_use]
    pub fn duplicate(mut self, rate: f64) -> LinkFault {
        self.duplicate_rate = rate;
        self
    }

    /// Set the reorder probability (checked by [`Network::set_faults`]).
    #[must_use]
    pub fn reorder(mut self, rate: f64) -> LinkFault {
        self.reorder_rate = rate;
        self
    }

    fn active(&self, now: Time) -> bool {
        self.from <= now && now < self.until
    }
}

/// A network partition: while `from <= now < until` (decided at send
/// time), messages crossing the boundary between `island` and the rest of
/// the network — in either direction — are dropped. The partition **heals**
/// at `until`.
#[derive(Debug, Clone)]
pub struct Partition {
    /// Nodes on one side of the cut.
    pub island: Vec<usize>,
    /// First tick of the partition.
    pub from: Time,
    /// Heal time (exclusive — traffic flows again at `until`).
    pub until: Time,
}

/// A scheduled fail-stop crash of one node, with an optional restart.
///
/// While crashed, the node's handlers never run: messages delivered to it
/// count as dropped, due timers are discarded. At `restart_at` the node
/// comes back (process memory retained) and [`Process::on_restart`] runs.
#[derive(Debug, Clone)]
pub struct CrashEvent {
    /// The crashing node.
    pub node: usize,
    /// Crash time.
    pub at: Time,
    /// Restart time (`None` = the node stays down forever).
    pub restart_at: Option<Time>,
}

/// Fault-injection plan: deterministic (seeded) adversity.
///
/// All probabilistic decisions are made at **send** time from the
/// network's seeded RNG in a fixed order, so a plan is reproducible:
/// same seed, same processes, same plan ⇒ identical [`Stats`]. FIFO order
/// of delivered messages is preserved except through explicit
/// [`LinkFault::reorder`] windows.
///
/// Crash/restart schedules are read when the simulation starts — install
/// the plan (via [`Network::set_faults`]) before the first step.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Probability (0.0–1.0) that any message is silently dropped.
    pub drop_rate: f64,
    /// Links `(src, dst)` that drop *everything* (a cut cable).
    pub severed: Vec<(usize, usize)>,
    /// Scheduled per-link adversity windows. When several windows cover
    /// the same link at the same instant, the **first** matching one in
    /// this list applies.
    pub links: Vec<LinkFault>,
    /// Scheduled partitions with heal times.
    pub partitions: Vec<Partition>,
    /// Scheduled process crashes/restarts.
    pub crashes: Vec<CrashEvent>,
}

impl FaultPlan {
    /// No faults.
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// Uniform message loss. `drop_rate` must be a probability in
    /// `[0.0, 1.0]`; [`Network::set_faults`] rejects the plan otherwise.
    pub fn lossy(drop_rate: f64) -> FaultPlan {
        FaultPlan {
            drop_rate,
            ..FaultPlan::default()
        }
    }

    /// Cut the directed link `src → dst` permanently.
    #[must_use]
    pub fn sever(mut self, src: usize, dst: usize) -> FaultPlan {
        self.severed.push((src, dst));
        self
    }

    /// Add a per-link adversity window.
    #[must_use]
    pub fn link(mut self, fault: LinkFault) -> FaultPlan {
        self.links.push(fault);
        self
    }

    /// Partition `island` from the rest of the network over `[from, until)`.
    #[must_use]
    pub fn partition(mut self, island: Vec<usize>, from: Time, until: Time) -> FaultPlan {
        self.partitions.push(Partition {
            island,
            from,
            until,
        });
        self
    }

    /// Crash `node` at `at`, permanently.
    #[must_use]
    pub fn crash(mut self, node: usize, at: Time) -> FaultPlan {
        self.crashes.push(CrashEvent {
            node,
            at,
            restart_at: None,
        });
        self
    }

    /// Crash `node` at `at` and restart it at `restart_at`.
    #[must_use]
    pub fn crash_restart(mut self, node: usize, at: Time, restart_at: Time) -> FaultPlan {
        assert!(at < restart_at, "restart must come after the crash");
        self.crashes.push(CrashEvent {
            node,
            at,
            restart_at: Some(restart_at),
        });
        self
    }

    /// Check that every rate is a probability and every node index is
    /// below `n`. Called by [`Network::set_faults`].
    fn validate(&self, n: usize) -> Result<(), FaultPlanError> {
        check_rate(self.drop_rate, "FaultPlan drop rate")?;
        for &(src, dst) in &self.severed {
            check_node(src, n, "severed link endpoint")?;
            check_node(dst, n, "severed link endpoint")?;
        }
        for l in &self.links {
            check_rate(l.drop_rate, "LinkFault drop rate")?;
            check_rate(l.duplicate_rate, "LinkFault duplicate rate")?;
            check_rate(l.reorder_rate, "LinkFault reorder rate")?;
            check_node(l.src, n, "LinkFault endpoint")?;
            check_node(l.dst, n, "LinkFault endpoint")?;
        }
        for p in &self.partitions {
            for &x in &p.island {
                check_node(x, n, "Partition node")?;
            }
        }
        for c in &self.crashes {
            check_node(c.node, n, "CrashEvent node")?;
        }
        Ok(())
    }
}

/// The simulated network: nodes + event queue.
#[derive(Debug)]
pub struct Network<M, P: Process<M>> {
    procs: Vec<P>,
    queue: BinaryHeap<Event<M>>,
    latency: Latency,
    rng: StdRng,
    seq: u64,
    now: Time,
    stats: Stats,
    /// Per (src,dst) pair: earliest admissible delivery time, enforcing FIFO.
    fifo_floor: Vec<Time>,
    started: bool,
    halted: bool,
    n: usize,
    faults: FaultPlan,
    /// Nodes currently down (fail-stop, see [`CrashEvent`]).
    crashed: Vec<bool>,
}

impl<M: Clone, P: Process<M>> Network<M, P> {
    /// Create a network with one node per process and a shared latency
    /// model; the default seed is 0.
    pub fn new(procs: Vec<P>, latency: Latency) -> Network<M, P> {
        Self::with_seed(procs, latency, 0)
    }

    /// Create with an explicit jitter seed.
    pub fn with_seed(procs: Vec<P>, latency: Latency, seed: u64) -> Network<M, P> {
        let n = procs.len();
        Network {
            procs,
            queue: BinaryHeap::new(),
            latency,
            rng: StdRng::seed_from_u64(seed),
            seq: 0,
            now: 0,
            stats: Stats {
                per_node_delivered: vec![0; n],
                ..Stats::default()
            },
            fifo_floor: vec![0; n * n],
            started: false,
            halted: false,
            n,
            faults: FaultPlan::none(),
            crashed: vec![false; n],
        }
    }

    /// Install a fault-injection plan.
    ///
    /// Loss/partition/link windows take effect immediately (they are
    /// consulted at send time); crash/restart schedules are enqueued when
    /// the simulation starts, so install the plan **before** the first
    /// step. A malformed plan (a rate outside `[0, 1]`, a node index out of
    /// range) is rejected and the installed plan is kept.
    pub fn set_faults(&mut self, plan: FaultPlan) -> Result<(), FaultPlanError> {
        plan.validate(self.n)?;
        self.faults = plan;
        Ok(())
    }

    /// Whether `node` is currently crashed.
    pub fn is_crashed(&self, node: usize) -> bool {
        self.crashed[node]
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// Statistics so far.
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// Current simulated time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Access a process (e.g., to read results after a run).
    pub fn process(&self, node: usize) -> &P {
        &self.procs[node]
    }

    /// Mutable access to a process.
    pub fn process_mut(&mut self, node: usize) -> &mut P {
        &mut self.procs[node]
    }

    fn dispatch(&mut self, node: usize, payload: Payload<M>) {
        if matches!(payload, Payload::Crash) {
            if !self.crashed[node] {
                self.crashed[node] = true;
                self.stats.crash_events += 1;
            }
            return;
        }
        if self.crashed[node] {
            // A dead node's handlers never run; its traffic evaporates.
            match payload {
                Payload::Message { .. } => self.stats.messages_dropped += 1,
                Payload::Timer { .. } => self.stats.timers_dropped += 1,
                Payload::Restart => {
                    self.crashed[node] = false;
                    self.stats.restarts += 1;
                    self.run_handler(node, |p, ctx| p.on_restart(ctx));
                }
                Payload::Crash => unreachable!(),
            }
            return;
        }
        match payload {
            Payload::Message { from, msg } => {
                self.stats.messages_delivered += 1;
                self.stats.per_node_delivered[node] += 1;
                self.run_handler(node, |p, ctx| p.on_message(from, msg, ctx));
            }
            Payload::Timer { token } => {
                self.stats.timers_fired += 1;
                self.run_handler(node, |p, ctx| p.on_timer(token, ctx));
            }
            // A restart for a node that never crashed (or already
            // restarted) is a no-op.
            Payload::Restart => {}
            Payload::Crash => unreachable!(),
        }
    }

    /// Run one process handler with full context plumbing, then flush its
    /// outbox and timers.
    fn run_handler(&mut self, node: usize, f: impl FnOnce(&mut P, &mut Context<M>)) {
        let mut outbox = Vec::new();
        let mut timers = Vec::new();
        let mut halted = self.halted;
        {
            let mut ctx = Context {
                me: node,
                now: self.now,
                outbox: &mut outbox,
                timers: &mut timers,
                halted: &mut halted,
            };
            f(&mut self.procs[node], &mut ctx);
        }
        self.halted = halted;
        for (to, msg) in outbox {
            self.enqueue_message(node, to, msg);
        }
        for (at, token) in timers {
            self.seq += 1;
            self.queue.push(Event {
                time: at,
                seq: self.seq,
                dst: node,
                payload: Payload::Timer { token },
            });
        }
    }

    /// Whether an active partition separates `from` and `to` right now.
    fn partitioned(&self, from: usize, to: usize) -> bool {
        self.faults.partitions.iter().any(|p| {
            p.from <= self.now
                && self.now < p.until
                && (p.island.contains(&from) != p.island.contains(&to))
        })
    }

    fn enqueue_message(&mut self, from: usize, to: usize, msg: M) {
        assert!(to < self.n, "destination {to} out of range");
        self.stats.messages_sent += 1;
        if self.faults.severed.contains(&(from, to)) || self.partitioned(from, to) {
            self.stats.messages_dropped += 1;
            return;
        }
        // First matching active link window applies (documented contract).
        let now = self.now;
        let (link_drop, extra_delay, dup_rate, reorder_rate) = self
            .faults
            .links
            .iter()
            .find(|l| l.src == from && l.dst == to && l.active(now))
            .map_or((0.0, 0, 0.0, 0.0), |l| {
                (l.drop_rate, l.extra_delay, l.duplicate_rate, l.reorder_rate)
            });
        if (link_drop > 0.0 && self.rng.gen_bool(link_drop))
            || (self.faults.drop_rate > 0.0 && self.rng.gen_bool(self.faults.drop_rate))
        {
            self.stats.messages_dropped += 1;
            return;
        }
        if extra_delay > 0 {
            self.stats.messages_delayed += 1;
        }
        let duplicate = if dup_rate > 0.0 && self.rng.gen_bool(dup_rate) {
            self.stats.messages_duplicated += 1;
            Some(msg.clone())
        } else {
            None
        };
        self.push_message(from, to, msg, extra_delay, reorder_rate);
        if let Some(copy) = duplicate {
            self.push_message(from, to, copy, extra_delay, reorder_rate);
        }
    }

    /// Sample latency/reorder for one copy and enqueue it.
    fn push_message(
        &mut self,
        from: usize,
        to: usize,
        msg: M,
        extra_delay: Time,
        reorder_rate: f64,
    ) {
        let lat = self.latency.sample(&mut self.rng) + extra_delay;
        let at = if reorder_rate > 0.0 && self.rng.gen_bool(reorder_rate) {
            // Bypass the FIFO floor: this copy may overtake earlier
            // traffic, and does not hold later traffic back.
            self.stats.messages_reordered += 1;
            self.now + lat
        } else {
            let floor = &mut self.fifo_floor[from * self.n + to];
            let at = (self.now + lat).max(*floor);
            *floor = at;
            at
        };
        self.seq += 1;
        self.queue.push(Event {
            time: at,
            seq: self.seq,
            dst: to,
            payload: Payload::Message { from, msg },
        });
    }

    fn start_if_needed(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        // Crash/restart schedules become ordinary events, ordered before
        // same-tick traffic (they are enqueued first).
        for ce in self.faults.crashes.clone() {
            self.seq += 1;
            self.queue.push(Event {
                time: ce.at,
                seq: self.seq,
                dst: ce.node,
                payload: Payload::Crash,
            });
            if let Some(r) = ce.restart_at {
                self.seq += 1;
                self.queue.push(Event {
                    time: r,
                    seq: self.seq,
                    dst: ce.node,
                    payload: Payload::Restart,
                });
            }
        }
        for node in 0..self.n {
            self.run_handler(node, |p, ctx| p.on_start(ctx));
        }
    }

    /// Process a single event. Returns `false` when the queue is empty or
    /// the simulation was halted.
    pub fn step(&mut self) -> bool {
        self.start_if_needed();
        if self.halted {
            return false;
        }
        let Some(ev) = self.queue.pop() else {
            return false;
        };
        self.now = ev.time;
        self.stats.end_time = self.now;
        self.dispatch(ev.dst, ev.payload);
        true
    }

    /// Run until no events remain, the deadline passes, or a process calls
    /// [`Context::halt`]. Returns the number of events processed.
    pub fn run_until_quiet(&mut self, deadline: Time) -> usize {
        self.start_if_needed();
        let mut events = 0usize;
        while !self.halted {
            match self.queue.peek() {
                None => break,
                Some(ev) if ev.time > deadline => break,
                Some(_) => {}
            }
            if !self.step() {
                break;
            }
            events += 1;
        }
        events
    }
}

/// A simple record-and-forward process useful in tests and examples: relays
/// every message to a fixed next hop and keeps a log.
#[derive(Debug, Default)]
pub struct Relay {
    /// Next hop (None = sink).
    pub next: Option<usize>,
    /// Log of received payloads.
    pub log: VecDeque<(usize, i64)>,
}

impl Process<i64> for Relay {
    fn on_message(&mut self, from: usize, msg: i64, ctx: &mut Context<i64>) {
        self.log.push_back((from, msg));
        if let Some(n) = self.next {
            ctx.send(n, msg + 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Pinger {
        n: usize,
        received: usize,
    }

    impl Process<u32> for Pinger {
        fn on_start(&mut self, ctx: &mut Context<u32>) {
            if ctx.me() == 0 {
                for to in 1..self.n {
                    ctx.send(to, 1);
                }
            }
        }
        fn on_message(&mut self, from: usize, msg: u32, ctx: &mut Context<u32>) {
            self.received += 1;
            if msg == 1 {
                ctx.send(from, 2);
            }
        }
    }

    #[test]
    fn ping_all_get_pongs() {
        let n = 5;
        let procs: Vec<Pinger> = (0..n).map(|_| Pinger { n, received: 0 }).collect();
        let mut net = Network::new(procs, Latency::Fixed(3));
        net.run_until_quiet(1000);
        assert_eq!(net.stats().messages_sent, 2 * (n - 1));
        assert_eq!(net.process(0).received, n - 1);
        assert_eq!(net.now(), 6, "two fixed-latency hops");
    }

    #[test]
    fn fifo_order_is_preserved_with_jitter() {
        struct Burst;
        impl Process<i64> for Burst {
            fn on_start(&mut self, ctx: &mut Context<i64>) {
                if ctx.me() == 0 {
                    for i in 0..20 {
                        ctx.send(1, i);
                    }
                }
            }
            fn on_message(&mut self, _f: usize, _m: i64, _c: &mut Context<i64>) {}
        }
        struct Sink {
            got: Vec<i64>,
        }
        impl Process<i64> for Sink {
            fn on_message(&mut self, _f: usize, m: i64, _c: &mut Context<i64>) {
                self.got.push(m);
            }
        }
        // Heterogeneous processes via enum wrapper.
        enum P {
            B(Burst),
            S(Sink),
        }
        impl Process<i64> for P {
            fn on_start(&mut self, ctx: &mut Context<i64>) {
                match self {
                    P::B(b) => b.on_start(ctx),
                    P::S(_) => {}
                }
            }
            fn on_message(&mut self, f: usize, m: i64, ctx: &mut Context<i64>) {
                match self {
                    P::B(b) => b.on_message(f, m, ctx),
                    P::S(s) => s.on_message(f, m, ctx),
                }
            }
        }
        let mut net = Network::with_seed(
            vec![P::B(Burst), P::S(Sink { got: Vec::new() })],
            Latency::Jittered {
                base: 1,
                jitter: 10,
            },
            99,
        );
        net.run_until_quiet(10_000);
        let P::S(sink) = net.process(1) else { panic!() };
        assert_eq!(sink.got, (0..20).collect::<Vec<i64>>(), "FIFO violated");
    }

    #[test]
    fn determinism_same_seed_same_schedule() {
        let run = |seed| {
            let procs: Vec<Pinger> = (0..4).map(|_| Pinger { n: 4, received: 0 }).collect();
            let mut net = Network::with_seed(procs, Latency::Jittered { base: 2, jitter: 7 }, seed);
            net.run_until_quiet(1000);
            (net.stats().clone(), net.now())
        };
        assert_eq!(run(5), run(5));
    }

    #[test]
    fn timers_fire() {
        struct T {
            fired: Vec<u64>,
        }
        impl Process<()> for T {
            fn on_start(&mut self, ctx: &mut Context<()>) {
                ctx.set_timer(10, 1);
                ctx.set_timer(5, 2);
            }
            fn on_message(&mut self, _f: usize, _m: (), _c: &mut Context<()>) {}
            fn on_timer(&mut self, token: u64, _ctx: &mut Context<()>) {
                self.fired.push(token);
            }
        }
        let mut net = Network::new(vec![T { fired: Vec::new() }], Latency::Fixed(1));
        net.run_until_quiet(100);
        assert_eq!(net.process(0).fired, vec![2, 1], "timer order by time");
        assert_eq!(net.stats().timers_fired, 2);
    }

    #[test]
    fn halt_stops_everything() {
        struct H;
        impl Process<u8> for H {
            fn on_start(&mut self, ctx: &mut Context<u8>) {
                ctx.send(0, 0); // self-message
            }
            fn on_message(&mut self, _f: usize, _m: u8, ctx: &mut Context<u8>) {
                ctx.send(0, 0);
                ctx.halt();
            }
        }
        let mut net = Network::new(vec![H], Latency::Fixed(1));
        let events = net.run_until_quiet(1_000_000);
        assert_eq!(events, 1, "halted after the first delivery");
    }

    #[test]
    fn deadline_bounds_run() {
        let mut net = Network::new(
            vec![
                Relay {
                    next: Some(1),
                    log: VecDeque::new(),
                },
                Relay {
                    next: Some(0),
                    log: VecDeque::new(),
                },
            ],
            Latency::Fixed(10),
        );
        // Kick off an infinite ping-pong.
        net.start_if_needed();
        net.enqueue_message(0, 1, 0);
        let _ = net.run_until_quiet(100);
        assert!(net.now() <= 100);
        assert!(net.stats().messages_delivered >= 9);
    }

    #[test]
    fn fault_injection_drops_messages() {
        let procs: Vec<Pinger> = (0..4).map(|_| Pinger { n: 4, received: 0 }).collect();
        let mut net = Network::with_seed(procs, Latency::Fixed(1), 3);
        net.set_faults(FaultPlan::lossy(1.0)).unwrap();
        net.run_until_quiet(1000);
        assert_eq!(net.stats().messages_delivered, 0);
        assert_eq!(net.stats().messages_dropped, net.stats().messages_sent);
    }

    #[test]
    fn severed_link_is_one_directional() {
        let procs: Vec<Pinger> = (0..2).map(|_| Pinger { n: 2, received: 0 }).collect();
        let mut net = Network::with_seed(procs, Latency::Fixed(1), 3);
        net.set_faults(FaultPlan::none().sever(1, 0)).unwrap();
        net.run_until_quiet(1000);
        // Ping 0→1 arrives; pong 1→0 is cut.
        assert_eq!(net.process(1).received, 1);
        assert_eq!(net.process(0).received, 0);
        assert_eq!(net.stats().messages_dropped, 1);
    }

    #[test]
    fn partial_loss_is_deterministic_per_seed() {
        let run = |seed| {
            let procs: Vec<Pinger> = (0..6).map(|_| Pinger { n: 6, received: 0 }).collect();
            let mut net = Network::with_seed(procs, Latency::Fixed(1), seed);
            net.set_faults(FaultPlan::lossy(0.5)).unwrap();
            net.run_until_quiet(1000);
            (net.stats().messages_delivered, net.stats().messages_dropped)
        };
        assert_eq!(run(9), run(9));
        let (delivered, dropped) = run(9);
        assert!(
            delivered > 0 && dropped > 0,
            "0.5 loss should split the traffic"
        );
    }

    /// A two-node network to install plans on.
    fn pair() -> Network<i64, Relay> {
        Network::new(vec![Relay::default(), Relay::default()], Latency::Fixed(1))
    }

    #[test]
    fn lossy_accepts_the_boundaries() {
        // The contract: exactly [0.0, 1.0] is accepted.
        for rate in [0.0, 0.5, 1.0] {
            assert_eq!(pair().set_faults(FaultPlan::lossy(rate)), Ok(()));
        }
    }

    #[test]
    fn lossy_rejects_rates_above_one() {
        let err = pair().set_faults(FaultPlan::lossy(1.0001)).unwrap_err();
        assert_eq!(
            err,
            FaultPlanError::BadRate {
                what: "FaultPlan drop rate",
                rate: 1.0001
            }
        );
        assert!(err.to_string().contains("must be a probability"));
    }

    #[test]
    fn lossy_rejects_negative_rates() {
        let err = pair().set_faults(FaultPlan::lossy(-0.1)).unwrap_err();
        assert!(matches!(err, FaultPlanError::BadRate { rate, .. } if rate == -0.1));
    }

    #[test]
    fn lossy_rejects_nan() {
        let err = pair().set_faults(FaultPlan::lossy(f64::NAN)).unwrap_err();
        assert!(matches!(err, FaultPlanError::BadRate { rate, .. } if rate.is_nan()));
    }

    #[test]
    fn set_faults_validates_node_indices() {
        let mut net = pair();
        for (plan, what, node) in [
            (FaultPlan::none().crash(7, 10), "CrashEvent node", 7),
            (FaultPlan::none().sever(0, 2), "severed link endpoint", 2),
            (
                FaultPlan::none().partition(vec![1, 5], 0, 9),
                "Partition node",
                5,
            ),
        ] {
            let nodes = 2;
            let err = FaultPlanError::NodeOutOfRange { what, node, nodes };
            assert_eq!(net.set_faults(plan), Err(err));
            assert!(err.to_string().contains("out of range"));
        }
        // A rejected plan leaves the installed one in place.
        net.set_faults(FaultPlan::none().crash(1, 0)).unwrap();
        assert!(net.set_faults(FaultPlan::lossy(2.0)).is_err());
        net.run_until_quiet(10);
        assert!(net.is_crashed(1));
    }

    #[test]
    fn relay_chain_increments() {
        let mut net = Network::new(
            vec![
                Relay {
                    next: Some(1),
                    log: VecDeque::new(),
                },
                Relay {
                    next: Some(2),
                    log: VecDeque::new(),
                },
                Relay {
                    next: None,
                    log: VecDeque::new(),
                },
            ],
            Latency::Fixed(1),
        );
        net.start_if_needed();
        net.enqueue_message(0, 0, 7);
        net.run_until_quiet(100);
        assert_eq!(net.process(2).log.front(), Some(&(1, 9)));
    }
}
