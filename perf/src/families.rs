//! The benchmark's own copies of the model families, and the seed
//! permutation.
//!
//! Nothing here depends on `crates/bench`: an edit there cannot move a
//! workload. Every family is declared in the canonical order of the
//! existing benches, so at seed 0 exact counts line up with history; a
//! seed above 0 re-declares the same instances and connectors in a
//! shuffled order ([`permute`]). Semantics, verdicts and unreduced state
//! counts do not depend on declaration order; hash and shard layout, POR
//! tie-breaks and solver variable numbering do.

use bip_core::{
    AtomBuilder, CompId, ConnectorBuilder, Expr, FaultSpec, GExpr, RecoverSpec, StatePred, System,
    SystemBuilder,
};

/// A member of a model family, as named in the question table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Model {
    /// `dining_philosophers(n, true)`: one fork at a time, deadlocks.
    PhilTwoPhase(usize),
    /// `dining_philosophers(n, false)`: both forks atomically, deadlock-free.
    PhilConservative(usize),
    /// Token ring of `n` nodes, each counter guarded by `c < k`.
    CounterRing(usize, i64),
    /// Token ring of `n` nodes with unguarded counters (infinite state).
    UnboundedRing(usize),
    /// A counter reaching `depth` after `depth` steps beside `toggles`
    /// independent two-state distractors.
    Planted(i64, usize),
    /// One operator, one pump, `n` customers.
    GasStation(usize),
}

impl Model {
    /// Build the member with its declaration order shuffled by `seed`
    /// (seed 0: canonical order).
    pub fn build(self, seed: u64) -> System {
        let canonical = match self {
            Model::PhilTwoPhase(n) => bip_core::dining_philosophers(n, true).expect("valid model"),
            Model::PhilConservative(n) => {
                bip_core::dining_philosophers(n, false).expect("valid model")
            }
            Model::CounterRing(n, k) => {
                assert!(k >= 1);
                token_ring(n, Expr::var(0).lt(Expr::int(k)))
            }
            Model::UnboundedRing(n) => token_ring(n, Expr::t()),
            Model::Planted(depth, toggles) => planted(depth, toggles),
            Model::GasStation(n) => gas_station(n),
        };
        permute(&canonical, seed)
    }
}

/// xorshift64*: the benchmark's only source of randomness.
#[derive(Debug, Clone)]
pub struct XorShift(u64);

impl XorShift {
    pub fn new(seed: u64) -> XorShift {
        // splitmix64 scramble so that neighbouring seeds diverge at once
        // and the state is never zero.
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        XorShift((z ^ (z >> 31)) | 1)
    }

    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is irrelevant here.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// A Fisher–Yates shuffle of `0..n`: entry `i` is the canonical index
/// declared `i`-th.
pub fn permutation(n: usize, rng: &mut XorShift) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.below(i + 1));
    }
    order
}

/// Re-declare `sys` with instance and connector order shuffled by `seed`
/// (seed 0: the identity). Names are kept, so anything resolved by name
/// means the same thing.
///
/// The families carry no priority layer; one would have to be re-declared
/// here too.
pub fn permute(sys: &System, seed: u64) -> System {
    if seed == 0 {
        return sys.clone();
    }
    assert!(
        sys.priority().is_empty(),
        "permute does not carry priorities"
    );
    let mut rng = XorShift::new(seed);
    let comp_order = permutation(sys.num_components(), &mut rng);
    let conn_order = permutation(sys.num_connectors(), &mut rng);
    let mut new_id = vec![0; comp_order.len()];
    let mut sb = SystemBuilder::new();
    for &old in &comp_order {
        new_id[old] = sb.add_instance(sys.instance_name(old), sys.atom_type(old));
    }
    for &ci in &conn_order {
        let mut conn = sys.connectors()[ci].clone();
        for port in &mut conn.ports {
            port.component = new_id[port.component];
        }
        sb.add_connector(conn);
    }
    sb.build().expect("a permuted valid system is valid")
}

fn token_ring(n: usize, work_guard: Expr) -> System {
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
            .expect("valid atom")
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
    sb.build().expect("valid model")
}

fn planted(depth: i64, toggles: usize) -> System {
    let counter = AtomBuilder::new("counter")
        .location("run")
        .initial("run")
        .var("n", 0)
        .internal_transition(
            "run",
            Expr::var(0).lt(Expr::int(depth)),
            vec![("n", Expr::var(0).add(Expr::int(1)))],
            "run",
        )
        .build()
        .expect("valid atom");
    let toggle = AtomBuilder::new("toggle")
        .port("t")
        .location("a")
        .location("b")
        .initial("a")
        .transition("a", "t", "b")
        .transition("b", "t", "a")
        .build()
        .expect("valid atom");
    let mut sb = SystemBuilder::new();
    sb.add_instance("cnt", &counter);
    for i in 0..toggles {
        let c = sb.add_instance(format!("tgl{i}"), &toggle);
        sb.add_connector(ConnectorBuilder::singleton(format!("flip{i}"), c, "t"));
    }
    sb.build().expect("valid model")
}

fn gas_station(customers: usize) -> System {
    let operator = AtomBuilder::new("operator")
        .port("prepay")
        .port("change")
        .location("idle")
        .location("serving")
        .initial("idle")
        .transition("idle", "prepay", "serving")
        .transition("serving", "change", "idle")
        .build()
        .expect("valid atom");
    let pump = AtomBuilder::new("pump")
        .port("start")
        .port("finish")
        .location("free")
        .location("pumping")
        .initial("free")
        .transition("free", "start", "pumping")
        .transition("pumping", "finish", "free")
        .build()
        .expect("valid atom");
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
        .expect("valid atom");
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
    sb.build().expect("valid model")
}

/// The crash-recovery fault spec of the E18 proof direction: every
/// philosopher and fork may crash, at most one at a time, and restarts from
/// its initial valuation.
pub fn single_crash_spec() -> FaultSpec {
    FaultSpec::crash_all()
        .recover(RecoverSpec::Restart)
        .budget(1)
}

/// Remove the three connectors of the last customer of a gas station: the
/// starting point of the incremental question. Returns the reduced system
/// and the removed connectors in the order they are to be added back.
pub fn without_last_customer(sys: &System, customers: usize) -> (System, Vec<bip_core::Connector>) {
    let last = customers - 1;
    let held_back = [
        format!("prepay{last}"),
        format!("start{last}"),
        format!("finish{last}"),
    ];
    let mut sb = SystemBuilder::new();
    for c in 0..sys.num_components() {
        sb.add_instance(sys.instance_name(c), sys.atom_type(c));
    }
    let mut removed = Vec::new();
    for conn in sys.connectors() {
        if held_back.contains(&conn.name) {
            removed.push(conn.clone());
        } else {
            sb.add_connector(conn.clone());
        }
    }
    removed.sort_by_key(|c| held_back.iter().position(|n| *n == c.name));
    assert_eq!(removed.len(), 3, "the last customer has three connectors");
    (sb.build().expect("valid model"), removed)
}

// ---- predicates, always resolved by instance name -----------------------

/// The component named `name`.
pub fn comp(sys: &System, name: &str) -> CompId {
    sys.component_id(name)
        .unwrap_or_else(|| panic!("no instance named {name:?}"))
}

/// "`name` is at location `loc`".
pub fn at(sys: &System, name: &str, loc: &str) -> StatePred {
    StatePred::at(sys, comp(sys, name), loc)
}

/// "At most one ring node holds the token."
pub fn ring_token_mutex(sys: &System, n: usize) -> StatePred {
    let names: Vec<String> = (0..n).map(|i| format!("n{i}")).collect();
    StatePred::mutex(sys, names.iter().map(|nm| (comp(sys, nm), "hold")))
}

/// "Philosophers `a` and `b` never eat at once."
pub fn never_both_eating(sys: &System, a: usize, b: usize) -> StatePred {
    at(sys, &format!("phil{a}"), "eating")
        .and(at(sys, &format!("phil{b}"), "eating"))
        .not()
}

/// "No two adjacent philosophers eat at once."
pub fn adjacent_mutex(sys: &System, n: usize) -> StatePred {
    StatePred::And(
        (0..n)
            .map(|i| never_both_eating(sys, i, (i + 1) % n))
            .collect(),
    )
}

/// "The planted counter never reaches `depth`."
pub fn planted_invariant(sys: &System, depth: i64) -> StatePred {
    let cnt = comp(sys, "cnt");
    let n = sys.atom_type(cnt).var_id("n").expect("counter has n");
    StatePred::Eq(GExpr::var(cnt, n.0), GExpr::int(depth)).not()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_zero_is_the_identity() {
        let sys = Model::GasStation(3).build(0);
        let names: Vec<&str> = (0..sys.num_components())
            .map(|c| sys.instance_name(c))
            .collect();
        assert_eq!(names, ["op", "pump", "cust0", "cust1", "cust2"]);
        assert_eq!(sys.connectors()[0].name, "prepay0");
    }

    #[test]
    fn seeded_permutation_is_a_bijection() {
        for seed in 1..50u64 {
            let mut p = permutation(31, &mut XorShift::new(seed));
            p.sort_unstable();
            assert_eq!(p, (0..31).collect::<Vec<_>>(), "seed {seed}");
        }
        let order = |seed| permutation(31, &mut XorShift::new(seed));
        assert_eq!(order(7), order(7), "same seed, same order");
        assert_ne!(order(7), order(8));
    }

    #[test]
    fn permuted_system_keeps_names_and_endpoints() {
        let canon = Model::PhilTwoPhase(4).build(0);
        let shuffled = Model::PhilTwoPhase(4).build(3);
        assert_eq!(canon.num_components(), shuffled.num_components());
        assert_eq!(canon.num_connectors(), shuffled.num_connectors());
        for conn in canon.connectors() {
            let id = shuffled.connector_id(&conn.name).expect("connector kept");
            let other = shuffled.connector(id);
            let ends = |s: &System, c: &bip_core::Connector| -> Vec<(String, String)> {
                c.ports
                    .iter()
                    .map(|p| (s.instance_name(p.component).to_string(), p.port.clone()))
                    .collect()
            };
            assert_eq!(ends(&canon, conn), ends(&shuffled, other));
        }
    }

    #[test]
    fn held_back_connectors_come_back_in_order() {
        let sys = Model::GasStation(4).build(5);
        let (base, removed) = without_last_customer(&sys, 4);
        assert_eq!(base.num_connectors(), 9);
        let names: Vec<&str> = removed.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["prepay3", "start3", "finish3"]);
    }
}
