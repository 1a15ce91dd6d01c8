//! Integration: the engines execute a textually-parsed model and agree
//! with the semantics (Fig. 5.7's multiple compilation/execution chains).

use bip_engine::{RandomPolicy, SequentialEngine, StopReason, ThreadedEngine};
use bip_rt::{DurationMap, RtEngine};

const MODEL: &str = r#"
atom Sensor {
  port sample, emit
  var reading = 0
  location idle init
  location got
  on sample from idle to got when reading < 50 do reading := reading + 7
  on emit from got to idle
}

atom Bus {
  port push, pop
  location empty init
  location full
  on push from empty to full
  on pop from full to empty
}

system {
  instance s0 : Sensor
  instance s1 : Sensor
  instance bus : Bus
  connector emit0 = s0.emit + bus.push
  connector emit1 = s1.emit + bus.push
  connector drain = bus.pop
  connector sample0 = s0.sample
  connector sample1 = s1.sample
  priority sample1 < sample0
}
"#;

#[test]
fn sequential_engine_runs_parsed_model() {
    let sys = bip_core::parse_system(MODEL).unwrap();
    let mut engine = SequentialEngine::new(sys, RandomPolicy::new(5));
    let report = engine.run(100);
    // Guards eventually stop the sensors (reading caps at 50+7), so either
    // budget exhaustion or a quiescent deadlock is acceptable — but steps
    // must have happened.
    assert!(report.steps > 10);
    assert!(matches!(
        report.stop,
        StopReason::BudgetExhausted | StopReason::Deadlock
    ));
}

#[test]
fn threaded_engine_agrees_with_semantics_on_parsed_model() {
    let sys = bip_core::parse_system(MODEL).unwrap();
    let mut engine = ThreadedEngine::new(sys.clone(), RandomPolicy::new(11));
    engine.run(40);
    // The observable word must be replayable in the sequential semantics.
    let mut st = sys.initial_state();
    for label in &engine.trace().observable_word() {
        let succ = sys.successors(&st);
        let hit = succ
            .iter()
            .find(|(s, _)| sys.step_label(s) == Some(label.as_str()))
            .unwrap_or_else(|| panic!("threaded fired {label}, not enabled sequentially"));
        st = hit.1.clone();
    }
}

#[test]
fn parsed_priorities_are_respected() {
    let sys = bip_core::parse_system(MODEL).unwrap();
    let st = sys.initial_state();
    // Both sample connectors would be enabled; priority keeps only sample0.
    let enabled: Vec<&str> = sys
        .enabled(&st)
        .iter()
        .map(|i| sys.connector(i.connector).name.as_str())
        .collect();
    assert!(enabled.contains(&"sample0"));
    assert!(!enabled.contains(&"sample1"), "{enabled:?}");
}

/// A worker whose `go` port has two transitions out of `idle` (local
/// nondeterminism), synchronized with a bell whose `tick` is dominated by
/// `start` under the one priority rule.
const LOCAL_CHOICE: &str = r#"
atom Worker {
  port go, back
  location idle init
  location left
  location right
  on go from idle to left
  on go from idle to right
  on back from left to idle
  on back from right to idle
}

atom Bell {
  port ring, tick
  location l init
  on ring from l to l
  on tick from l to l
}

system {
  instance w : Worker
  instance b : Bell
  connector start = w.go + b.ring
  connector stop = w.back
  connector tick = b.tick
  priority tick < start
}
"#;

/// Every engine chooses among the same compiled enabled steps: under the
/// ideal duration map the real-time engine admits every enabled step, so
/// from the same seed it must take exactly the sequential engine's steps,
/// local-transition choices included.
#[test]
fn rt_engine_under_ideal_time_matches_sequential_engine() {
    let sys = bip_core::parse_system(LOCAL_CHOICE).unwrap();
    for seed in [0, 1, 7, 42] {
        let mut seq = SequentialEngine::new(sys.clone(), RandomPolicy::new(seed));
        let mut rt = RtEngine::new(&sys, DurationMap::ideal(), RandomPolicy::new(seed));
        let report = |r: bip_engine::RunReport| (r.steps, r.stop, r.monitor_violations);
        let seq_report = report(seq.run(200));
        assert_eq!(seq_report, report(rt.run(200)), "seed {seed}");
        assert_eq!(seq_report, report(rt.report()), "seed {seed}");
        assert_eq!(seq_report.0, 200);
        let steps = |entries: &[bip_engine::TraceEntry]| {
            entries.iter().map(|e| e.step.clone()).collect::<Vec<_>>()
        };
        let seq_steps = steps(seq.trace().entries());
        assert_eq!(
            seq_steps,
            steps(rt.context().trace.entries()),
            "seed {seed}"
        );
        assert_eq!(seq.state(), rt.timed().state(), "seed {seed}");
        // Both local transitions of `go` were taken: the choice was live.
        let targets: std::collections::HashSet<_> = seq_steps
            .iter()
            .filter(|s| sys.step_label(s) == Some("start"))
            .map(|s| match s {
                bip_core::Step::Interaction { transitions, .. } => transitions.clone(),
                bip_core::Step::Internal { .. } => unreachable!(),
            })
            .collect();
        assert_eq!(targets.len(), 2, "seed {seed}");
    }
}
