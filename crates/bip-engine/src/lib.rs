//! `bip-engine` — runtime engines for BIP systems (§5.6, Fig. 5.7).
//!
//! "To implement BIP on single-core platforms we use engines — dedicated
//! middleware for the execution of the code generated from BIP
//! descriptions. The BIP toolset currently provides two engines: one for
//! real-time single-thread and one for multi-thread execution. For
//! multi-thread execution, each atomic component is assigned to a thread,
//! with the engine itself being a thread. Communication occurs only between
//! atomic components and the engine — never directly between different
//! atomic components."
//!
//! # The unified execution API
//!
//! All runtimes implement one [`Engine`] trait — `step` / `run` / `report`
//! — and carry one [`ExecContext`], which owns the scheduling [`Policy`],
//! the runtime [`Monitor`]s (safety observers over
//! [`bip_core::StatePred`]), and the recorded [`Trace`]. Code written
//! against `impl Engine` (or `&mut dyn Engine`) is backend-agnostic:
//!
//! * [`SequentialEngine`] — single-threaded, on the compiled enabled-set
//!   protocol ([`bip_core::EnabledSet`]): after each fire only the
//!   connectors watching the moved components are re-evaluated, and with
//!   trace recording off the hot loop is allocation-free;
//! * [`ThreadedEngine`] — the paper's multi-threaded architecture: one
//!   persistent thread per atom plus the engine as the synchronization
//!   point, channels only, same incremental enabled set on the engine side;
//! * `bip_rt::RtEngine` — discrete time under a duration assignment φ
//!   (time needs its own semantics, so it lives in `bip-rt`).
//!
//! Every backend makes the same choice through one routine,
//! [`ExecContext::choose_and_fire`]: the priority-surviving compiled
//! [`bip_core::EnabledStep`]s that the backend admits (all of them, or for
//! the real-time engine those whose participants are idle) are offered to
//! [`Policy::choose`] without materializing any successor state, and
//! [`Policy::choose_local`] resolves which local transition each
//! participant fires. A policy therefore drives every backend to the same
//! trace from the same seed wherever their admitted sets agree.

mod engine;
mod monitor;
mod policy;
mod sequential;
mod threaded;
mod trace;

pub use engine::{Engine, ExecContext, RunReport, StopReason};
pub use monitor::{Monitor, MonitorVerdict};
pub use policy::{FirstEnabled, Policy, RandomPolicy, RoundRobinPolicy};
pub use sequential::SequentialEngine;
pub use threaded::ThreadedEngine;
pub use trace::{Trace, TraceEntry};
