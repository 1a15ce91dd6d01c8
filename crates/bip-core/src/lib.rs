//! `bip-core` — the BIP (Behavior, Interaction, Priority) component
//! framework: kernel model and operational semantics.
//!
//! This crate implements the paper's primary contribution (J. Sifakis,
//! *Rigorous System Design*, §5): composite, hierarchically structured
//! systems are built from **atomic components** (automata extended with data)
//! coordinated by the layered application of **interactions** (connectors
//! combining rendezvous and broadcast) and **priorities** (filters steering
//! system evolution).
//!
//! The central types are:
//!
//! * [`AtomType`] / [`AtomBuilder`] — behavior: locations, variables, and
//!   port-labelled guarded transitions;
//! * [`Connector`] — an n-ary interaction pattern with *trigger*/*synchron*
//!   port typing (no triggers = strong rendezvous; triggers = broadcast),
//!   a guard, and a data-transfer action;
//! * [`PriorityRule`] and maximal progress — the second glue layer;
//! * [`Composite`] — hierarchical composition, flattened to a [`System`];
//! * [`System`] — a flat model with well-defined operational semantics.
//!
//! # Execution: the compiled enabled-set protocol
//!
//! Building a [`System`] compiles a schedule ([`CompiledExec`]): per
//! connector, the feasible endpoint subsets as bitmasks (trigger/synchron
//! typing ∧ guard applicability, both state-independent); per component,
//! the *watch list* of connectors whose enabledness can change when that
//! component moves. Execution then goes through a reusable [`EnabledSet`]
//! scratch buffer:
//!
//! * [`System::new_enabled_set`] — create the buffer (fully dirty);
//! * [`System::refresh_enabled`] — re-evaluate exactly the dirty
//!   connectors/components;
//! * [`System::for_each_enabled`] — visit the priority-surviving
//!   [`EnabledStep`]s (`Copy`, no allocation);
//! * [`System::fire_into`] / [`System::fire_enabled`] — fire in place and
//!   mark only the connectors watching the moved components dirty.
//!
//! A warmed-up execution loop allocates nothing, and after a fire only the
//! neighborhood of the fired interaction is re-examined — steps on large
//! systems cost O(neighborhood), not O(system).
//!
//! The model checker enumerates successors with the allocation-free
//! [`System::for_each_successor`] / [`System::for_each_step_successor`]
//! kernel over the same enabled set. The allocating enumeration API —
//! [`System::enabled`], [`System::successors`], [`System::step`] — is the
//! reference the kernel is tested against: it shares the refresh (one full
//! refresh per call) but filters priorities and expands local-transition
//! combinations on its own path.
//!
//! # Example
//!
//! ```
//! use bip_core::{AtomBuilder, SystemBuilder, ConnectorBuilder};
//!
//! // A one-place buffer: alternates `put` and `get`.
//! let buffer = AtomBuilder::new("buffer")
//!     .port("put")
//!     .port("get")
//!     .location("empty")
//!     .location("full")
//!     .initial("empty")
//!     .transition("empty", "put", "full")
//!     .transition("full", "get", "empty")
//!     .build()
//!     .unwrap();
//!
//! let producer = AtomBuilder::new("producer")
//!     .port("out")
//!     .location("ready")
//!     .initial("ready")
//!     .transition("ready", "out", "ready")
//!     .build()
//!     .unwrap();
//!
//! let mut sb = SystemBuilder::new();
//! let p = sb.add_instance("p", &producer);
//! let b = sb.add_instance("b", &buffer);
//! sb.add_connector(ConnectorBuilder::rendezvous("prod", [(p, "out"), (b, "put")]));
//! let system = sb.build().unwrap();
//!
//! let s0 = system.initial_state();
//! let enabled = system.enabled(&s0);
//! assert_eq!(enabled.len(), 1);
//! ```

mod atom;
pub mod builder;
pub mod codec;
mod composite;
mod connector;
mod data;
mod dot;
mod error;
pub mod exec;
pub mod fault;
pub mod glue;
pub mod hash;
pub mod indep;
pub mod intern;
pub mod parse;
pub mod placeset;
mod predicate;
mod priority;
pub mod sym;
mod system;
pub mod width;

pub use atom::{
    Atom, AtomBuilder, AtomType, LocId, PortDecl, PortId, Transition, TransitionId, VarId,
};
pub use builder::{dining_philosophers, gas_station, SystemBuilder};
pub use codec::{CodecSnapshot, PackedState, StateCodec, WidenReq};
pub use composite::{Composite, CompositeBuilder, InstanceRef};
pub use connector::{ConnId, Connector, ConnectorBuilder, PortRef};
pub use data::{BinOp, Expr, UnOp, Value};
pub use dot::{atom_to_dot, system_to_dot};
pub use error::ModelError;
pub use exec::{
    CompiledExec, EnabledSet, EnabledStep, InteractionRef, SuccScratch, SuccStep, FULL_MASK,
    MAX_CONNECTOR_PORTS,
};
pub use fault::{inject, CrashSpec, FaultSpec, RecoverSpec};
pub use hash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use indep::{ActionId, AmpleScratch, IndepInfo};
pub use intern::InternTable;
pub use parse::{parse_system, ParseError};
pub use placeset::PlaceSet;
pub use predicate::{GExpr, StatePred};
pub use priority::{Priority, PriorityRule};
pub use sym::{StepEncoder, SymError};
pub use system::{CompId, Interaction, State, Step, System};
