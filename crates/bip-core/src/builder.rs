//! Ergonomic construction of flat systems.

use crate::atom::AtomType;
use crate::connector::{Connector, ConnectorBuilder};
use crate::error::ModelError;
use crate::priority::Priority;
use crate::system::{CompId, System};

/// Builder for a flat [`System`]: add atom instances, connectors, and an
/// optional priority layer, then [`SystemBuilder::build`].
///
/// See the [crate-level example](crate).
#[derive(Debug, Default)]
pub struct SystemBuilder {
    instance_names: Vec<String>,
    types: Vec<AtomType>,
    type_of: Vec<usize>,
    connectors: Vec<Connector>,
    priority: Priority,
}

impl SystemBuilder {
    /// Start an empty system.
    pub fn new() -> SystemBuilder {
        SystemBuilder::default()
    }

    /// Add an instance of `ty` named `name`; returns its component index.
    ///
    /// Atom types are deduplicated by name+structure, so instantiating the
    /// same type many times shares one description.
    pub fn add_instance(&mut self, name: impl Into<String>, ty: &AtomType) -> CompId {
        let ti = match self.types.iter().position(|t| t == ty) {
            Some(i) => i,
            None => {
                self.types.push(ty.clone());
                self.types.len() - 1
            }
        };
        self.instance_names.push(name.into());
        self.type_of.push(ti);
        self.instance_names.len() - 1
    }

    /// Add a connector.
    pub fn add_connector(&mut self, c: impl Into<Connector>) -> &mut Self {
        self.connectors.push(c.into());
        self
    }

    /// Replace the priority layer.
    pub fn set_priority(&mut self, p: Priority) -> &mut Self {
        self.priority = p;
        self
    }

    /// Mutable access to the priority layer.
    pub fn priority_mut(&mut self) -> &mut Priority {
        &mut self.priority
    }

    /// Number of instances added so far.
    pub fn num_instances(&self) -> usize {
        self.instance_names.len()
    }

    /// Validate and build the [`System`].
    ///
    /// # Errors
    ///
    /// Returns [`ModelError`] for duplicate instance names, unresolved
    /// connector endpoints, duplicate connector names, or an empty system.
    pub fn build(self) -> Result<System, ModelError> {
        let mut seen = std::collections::HashSet::new();
        for n in &self.instance_names {
            if !seen.insert(n.clone()) {
                return Err(ModelError::DuplicateName {
                    kind: "instance",
                    name: n.clone(),
                });
            }
        }
        System::from_parts(
            self.instance_names,
            self.types,
            self.type_of,
            self.connectors,
            self.priority,
        )
    }
}

/// Convenience: build the n-philosopher dining system used throughout the
/// paper's verification discussion (and by the D-Finder benchmark set).
///
/// Each philosopher needs both adjacent forks; `eat_i` is a 3-party
/// rendezvous between philosopher i and forks i and i+1 taking both forks
/// atomically (the deadlock-free "conservative" variant), or — with
/// `two_phase` — separate `left_i`/`right_i` connectors taking one fork at a
/// time (the classic deadlock-prone variant).
pub fn dining_philosophers(n: usize, two_phase: bool) -> Result<System, ModelError> {
    use crate::atom::AtomBuilder;
    assert!(n >= 2, "need at least two philosophers");
    let fork = AtomBuilder::new("fork")
        .port("take")
        .port("put")
        .location("free")
        .location("taken")
        .initial("free")
        .transition("free", "take", "taken")
        .transition("taken", "put", "free")
        .build()?;
    let phil = if two_phase {
        AtomBuilder::new("phil2")
            .port("takeL")
            .port("takeR")
            .port("release")
            .location("thinking")
            .location("hasL")
            .location("eating")
            .initial("thinking")
            .transition("thinking", "takeL", "hasL")
            .transition("hasL", "takeR", "eating")
            .transition("eating", "release", "thinking")
            .build()?
    } else {
        AtomBuilder::new("phil")
            .port("eat")
            .port("release")
            .location("thinking")
            .location("eating")
            .initial("thinking")
            .transition("thinking", "eat", "eating")
            .transition("eating", "release", "thinking")
            .build()?
    };
    let mut sb = SystemBuilder::new();
    let mut phils = Vec::new();
    let mut forks = Vec::new();
    for i in 0..n {
        phils.push(sb.add_instance(format!("phil{i}"), &phil));
    }
    for i in 0..n {
        forks.push(sb.add_instance(format!("fork{i}"), &fork));
    }
    for i in 0..n {
        let left = forks[i];
        let right = forks[(i + 1) % n];
        if two_phase {
            sb.add_connector(ConnectorBuilder::rendezvous(
                format!("takeL{i}"),
                [(phils[i], "takeL"), (left, "take")],
            ));
            sb.add_connector(ConnectorBuilder::rendezvous(
                format!("takeR{i}"),
                [(phils[i], "takeR"), (right, "take")],
            ));
            sb.add_connector(ConnectorBuilder::rendezvous(
                format!("rel{i}"),
                [(phils[i], "release"), (left, "put"), (right, "put")],
            ));
        } else {
            sb.add_connector(ConnectorBuilder::rendezvous(
                format!("eat{i}"),
                [(phils[i], "eat"), (left, "take"), (right, "take")],
            ));
            sb.add_connector(ConnectorBuilder::rendezvous(
                format!("rel{i}"),
                [(phils[i], "release"), (left, "put"), (right, "put")],
            ));
        }
    }
    sb.build()
}

/// Convenience: build the gas station, the other standard D-Finder
/// benchmark: one operator, one pump and `customers` customers who prepay,
/// pump and leave. Deadlock-free; its few small traps are spread over the
/// whole place set, so trap enumeration must exhaust nearly every seed.
pub fn gas_station(customers: usize) -> Result<System, ModelError> {
    use crate::atom::AtomBuilder;
    let operator = AtomBuilder::new("operator")
        .port("prepay")
        .port("change")
        .location("idle")
        .location("serving")
        .initial("idle")
        .transition("idle", "prepay", "serving")
        .transition("serving", "change", "idle")
        .build()?;
    let pump = AtomBuilder::new("pump")
        .port("start")
        .port("finish")
        .location("free")
        .location("pumping")
        .initial("free")
        .transition("free", "start", "pumping")
        .transition("pumping", "finish", "free")
        .build()?;
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
        .build()?;
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
    sb.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::AtomBuilder;

    #[test]
    fn duplicate_instance_name_rejected() {
        let a = AtomBuilder::new("a")
            .location("l")
            .initial("l")
            .build()
            .unwrap();
        let mut sb = SystemBuilder::new();
        sb.add_instance("x", &a);
        sb.add_instance("x", &a);
        assert!(matches!(
            sb.build(),
            Err(ModelError::DuplicateName {
                kind: "instance",
                ..
            })
        ));
    }

    #[test]
    fn type_deduplication() {
        let a = AtomBuilder::new("a")
            .location("l")
            .initial("l")
            .build()
            .unwrap();
        let mut sb = SystemBuilder::new();
        sb.add_instance("x", &a);
        sb.add_instance("y", &a);
        let sys = sb.build().unwrap();
        assert_eq!(sys.num_components(), 2);
        assert_eq!(sys.types.len(), 1);
    }

    #[test]
    fn philosophers_conservative_has_moves() {
        let sys = dining_philosophers(3, false).unwrap();
        assert_eq!(sys.num_components(), 6);
        let st = sys.initial_state();
        assert_eq!(sys.enabled(&st).len(), 3);
    }

    #[test]
    fn philosophers_two_phase_has_moves() {
        let sys = dining_philosophers(3, true).unwrap();
        let st = sys.initial_state();
        // Each philosopher can take their left fork (takeR needs hasL).
        assert_eq!(sys.enabled(&st).len(), 3);
    }

    #[test]
    fn component_lookup() {
        let sys = dining_philosophers(2, false).unwrap();
        assert_eq!(sys.component_id("phil0"), Some(0));
        assert_eq!(sys.component_id("fork1"), Some(3));
        assert_eq!(sys.component_id("ghost"), None);
        assert!(sys.connector_id("eat0").is_some());
    }
}
