//! `bip-rt` — timed BIP: physical time, resources, and real-time execution.
//!
//! The paper's separation-of-concerns step "from application software to
//! implementation" (§5.2.2) equips models with **resource variables** and
//! studies the relation between an *ideal* model (unlimited resources,
//! zero-time actions) and a *physical* model where a function `φ` assigns to
//! each action the quantity of resources (here: time) needed to execute it.
//! This crate implements that machinery plus the paper's headline
//! observations:
//!
//! * [`timedsys`] — discrete-time execution of a BIP system under a duration
//!   assignment `φ`: firing an interaction occupies its participants for
//!   `φ(a)` ticks; the ideal model is `φ = 0`. Safety of an implementation
//!   is observable-trace inclusion in the ideal model (§5.2.2 / \[1\]).
//! * [`anomaly`] — **timing anomalies** (E8): a nondeterministic scheduled
//!   workload that meets its deadline at worst-case execution times but
//!   *misses* it when one duration shrinks — "safety for WCET does not
//!   guarantee safety for smaller execution times" — and the deterministic
//!   variant which is *time-robust* (monotone), matching the result of \[1\]
//!   that time robustness holds for deterministic models. The module's unit
//!   tests assert both halves on Graham's instance.
//! * [`delay`] — the unit-delay timed automaton of Fig. 5.3 (E5),
//!   generalized to `k` admissible input changes per time unit; states and
//!   clocks grow linearly with `k` exactly as the paper states.
//! * [`sched`] — fixed-priority and EDF scheduling with classical
//!   schedulability analysis (response-time analysis, utilization bounds) —
//!   the "scheduling theory allows predictable response times" toolbox of
//!   §4.2, realized as executable analysis plus simulation.

pub mod anomaly;
pub mod delay;
pub mod engine;
pub mod sched;
pub mod timedsys;

pub use engine::RtEngine;

pub use anomaly::{
    anomaly_experiment, greedy_makespan, partitioned_makespan, AnomalyOutcome, JobShop,
};
pub use delay::{reference_delay, DelayAutomaton, Edge};
pub use sched::{
    edf_schedulable, rta_fixed_priority, simulate, utilization, SimOutcome, SimPolicy, Task,
};
pub use timedsys::{sampled_safety_check, DurationMap, TimedExecution};
