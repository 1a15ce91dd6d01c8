//! The names, units and directions of every metric the benchmark reports:
//! the one place that knows the schema. `BENCHMARK.json` lists the same
//! names (a unit test compares the two), and `compare` reads from here
//! which per-layer metrics are counts that must repeat exactly.

use crate::workloads::QUESTIONS;
use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone)]
pub struct MetricDef {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
    /// A count that repeats exactly for one seed and one commit: diffed
    /// exactly, never by ratio.
    pub exact: bool,
}

/// What a user of the system sees, per workload, lower being better for
/// all three: the engine time of the fastest warm pass over the workload's
/// questions, the peak of live heap during the timed passes above its level
/// at their start (MB = 10^6 bytes), and the median time of a set-up.
/// `failed_share` is not here: it is 0 on a healthy tree, and the run's
/// `attempted` and `failed` carry it instead.
pub const END_TO_END: [(&str, &str); 3] =
    [("verdict_s", "s"), ("peak_heap_mb", "MB"), ("setup_s", "s")];

use Better::{Higher, Lower};

/// `(name, unit, better, exact)` of the per-layer metrics, layer by layer,
/// outermost data first. The `q.<question>.s` names are appended from the
/// question table.
const PER_LAYER: [(&str, &str, Better, bool); 78] = [
    // system / fault
    ("system.build_ms", "ms", Lower, false),
    ("fault.inject_ms", "ms", Lower, false),
    // exec
    ("exec.succ_ns", "ns", Lower, false),
    ("exec.refresh_ns", "ns", Lower, false),
    ("exec.succ_per_state", "ratio", Lower, true),
    ("exec.share", "ratio", Lower, false),
    // width / codec / hash / intern
    ("width.infer_ms", "ms", Lower, false),
    ("codec.build_ms", "ms", Lower, false),
    ("codec.bits", "bits", Lower, true),
    ("codec.encode_ns", "ns", Lower, false),
    ("codec.decode_ns", "ns", Lower, false),
    ("codec.share", "ratio", Lower, false),
    ("hash.state_hash_ns", "ns", Lower, false),
    ("intern.ops_per_s", "1/s", Higher, false),
    ("intern.distinct", "count", Lower, true),
    // indep
    ("indep.build_ms", "ms", Lower, false),
    ("indep.actions", "count", Lower, true),
    ("indep.select_ns", "ns", Lower, false),
    ("indep.hit_ratio", "ratio", Higher, true),
    ("indep.ample_ratio", "ratio", Lower, true),
    ("indep.share", "ratio", Lower, false),
    // reach
    ("reach.states", "count", Lower, true),
    ("reach.transitions", "count", Lower, true),
    ("reach.peak_bytes", "bytes", Lower, true),
    ("reach.bytes_per_state", "bytes", Lower, false),
    ("reach.states_per_s", "1/s", Higher, false),
    ("reach.elapsed_ms", "ms", Lower, false),
    ("reach.por_state_ratio", "ratio", Lower, true),
    ("reach.par_speedup", "ratio", Higher, false),
    ("reach.store_share", "ratio", Lower, false),
    // sym
    ("sym.encoder_new_ms", "ms", Lower, false),
    ("sym.frame_encode_ms", "ms", Lower, false),
    ("sym.vars_per_frame", "count", Lower, true),
    ("sym.clauses_per_frame", "count", Lower, true),
    ("sym.distinct_ms", "ms", Lower, false),
    ("sym.pred_encode_ms", "ms", Lower, false),
    ("sym.share", "ratio", Lower, false),
    // satkit
    ("satkit.solve_ms", "ms", Lower, false),
    ("satkit.conflicts", "count", Lower, true),
    ("satkit.decisions", "count", Lower, true),
    ("satkit.propagations", "count", Lower, true),
    ("satkit.restarts", "count", Lower, true),
    ("satkit.reduces", "count", Lower, true),
    ("satkit.props_per_s", "1/s", Higher, false),
    ("satkit.conflicts_per_s", "1/s", Higher, false),
    ("satkit.share", "ratio", Lower, false),
    // bmc
    ("bmc.elapsed_ms", "ms", Lower, false),
    ("bmc.vars", "count", Lower, true),
    ("bmc.clauses", "count", Lower, true),
    ("bmc.learnts", "count", Lower, true),
    ("bmc.conflicts", "count", Lower, true),
    ("bmc.propagations", "count", Lower, true),
    ("bmc.trace_len", "count", Lower, true),
    ("bmc.replay_ms", "ms", Lower, false),
    // kind
    ("kind.prove_ms", "ms", Lower, false),
    ("kind.certify_ms", "ms", Lower, false),
    ("kind.k", "count", Lower, true),
    ("kind.base_conflicts", "count", Lower, true),
    ("kind.step_conflicts", "count", Lower, true),
    ("kind.step_clauses", "count", Lower, true),
    // dfinder / incremental
    ("dfinder.abstraction_ms", "ms", Lower, false),
    ("dfinder.places", "count", Lower, true),
    ("dfinder.traps_ms", "ms", Lower, false),
    ("dfinder.traps", "count", Lower, true),
    ("dfinder.traps_per_s", "1/s", Higher, false),
    ("dfinder.linear_ms", "ms", Lower, false),
    ("dfinder.linear_invariants", "count", Lower, true),
    ("dfinder.check_ms", "ms", Lower, false),
    ("dfinder.sat_conflicts", "count", Lower, true),
    ("incremental.add_ms", "ms", Lower, false),
    ("incremental.traps_reused", "count", Higher, true),
    ("incremental.traps_added", "count", Lower, true),
    ("incremental.vs_scratch_ratio", "ratio", Lower, false),
    // control
    ("control.cancel_latency_ms", "ms", Lower, false),
    ("control.deadline_overshoot_ms", "ms", Lower, false),
    // harness
    ("process.cpu_s", "s", Lower, false),
    ("process.alloc_calls", "count", Lower, false),
    ("trace.overhead_ratio", "ratio", Lower, false),
];

/// Every per-layer metric, in reporting order.
pub fn per_layer() -> Vec<MetricDef> {
    let mut defs: Vec<MetricDef> = PER_LAYER
        .iter()
        .map(|&(name, unit, better, exact)| MetricDef {
            name: name.to_string(),
            unit,
            better,
            exact,
        })
        .collect();
    defs.extend(QUESTIONS.iter().map(|q| MetricDef {
        name: question_metric(q.id),
        unit: "s",
        better: Lower,
        exact: false,
    }));
    defs
}

/// The per-question time of the untraced timed passes.
pub fn question_metric(id: &str) -> String {
    format!("q.{id}.s")
}

/// Per-layer values of one traced run. A metric no layer of the workload
/// touched stays at 0: on that workload the layer did no work.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<String, f64>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64) {
        self.0.insert(name.to_string(), value);
    }

    /// Accumulate: counts and times of a workload's questions add up.
    pub fn add(&mut self, name: &str, value: f64) {
        *self.0.entry(name.to_string()).or_insert(0.0) += value;
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// Values in registry order.
    ///
    /// # Panics
    ///
    /// Panics if a value was recorded under a name the registry does not
    /// list: a bug in this program, which would otherwise drop the value
    /// silently.
    pub fn in_order(&self, defs: &[MetricDef]) -> Vec<f64> {
        for name in self.0.keys() {
            assert!(
                defs.iter().any(|d| &d.name == name),
                "metric {name:?} is not in the registry"
            );
        }
        defs.iter().map(|d| self.get(&d.name)).collect()
    }
}

/// `numerator / denominator`, 0 when nothing was counted.
pub fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let defs = per_layer();
        assert!(defs.len() <= 128);
        let mut names: Vec<&str> = defs.iter().map(|d| d.name.as_str()).collect();
        names.extend(END_TO_END.iter().map(|(n, _)| *n));
        let unique: std::collections::HashSet<&str> = names.iter().copied().collect();
        assert_eq!(unique.len(), names.len());
        for n in names {
            assert!(n.len() <= 64 && n.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
    }

    /// `BENCHMARK.json` at the repository root lists exactly the
    /// registry's names, units and directions, and exactly the workloads
    /// of the question table.
    #[test]
    fn benchmark_json_matches_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let listed = |key: &str| -> Vec<(String, String, String)> {
            doc.get(key)
                .and_then(json::Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| {
                    let s = |k| m.get(k).and_then(json::Json::as_str).unwrap().to_string();
                    (s("name"), s("unit"), s("better"))
                })
                .collect()
        };
        let want: Vec<(String, String, String)> = per_layer()
            .iter()
            .map(|d| {
                (
                    d.name.clone(),
                    d.unit.to_string(),
                    d.better.as_str().to_string(),
                )
            })
            .collect();
        assert_eq!(listed("per_layer"), want);
        let want: Vec<(String, String, String)> = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string(), "lower".to_string()))
            .collect();
        assert_eq!(listed("end_to_end"), want);
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(json::Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(json::Json::as_str).unwrap())
            .collect();
        let want: Vec<&str> = crate::workloads::WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(workloads, want);
    }

    #[test]
    #[should_panic(expected = "not in the registry")]
    fn an_unregistered_name_is_a_bug() {
        let mut m = Metrics::default();
        m.set("no.such_metric", 1.0);
        let _ = m.in_order(&per_layer());
    }
}
