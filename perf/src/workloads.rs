//! The fixed question set: one table holding every question's model, engine
//! call, thread count and hand-written expected answer, and the code that
//! asks a question through the public API and checks what comes back.

use crate::families::{self, Model};
use crate::trace::{spanned, Tracer};
use bip_core::{fault, Connector, FaultSpec, State, StatePred, Step, System};
use bip_verify::bmc::{BmcConfig, BmcOutcome, BmcReport};
use bip_verify::dfinder::{DFinder, DFinderConfig, DFinderReport};
use bip_verify::incremental::{IncrementStats, IncrementalVerifier, InvariantOutcome};
use bip_verify::kind::{certify_step, KindConfig, ProofReport, Verdict as ProofVerdict};
use bip_verify::reach::{
    check_invariant_with, explore_with, InvariantReport, ReachConfig, ReachReport, Reduction,
};
use bip_verify::{Budget, StopReason};
use std::time::{Duration, Instant};

/// Every question runs under this deadline through the control layer; a
/// tripped deadline is a failed operation.
pub const QUESTION_DEADLINE: Duration = Duration::from_secs(60);

/// The encoder's expression-enumeration budget, as every bench uses it.
pub const ENUM_BUDGET: u64 = bip_core::sym::DEFAULT_ENUM_BUDGET;

/// Names of the engine-call spans whose durations the per-layer metrics are
/// read back from.
pub mod call {
    pub const PROVE: &str = "prove";
    pub const VERIFY_UNDER: &str = "verify_invariant_under";
    pub const CERTIFY_STEP: &str = "certify_step";
    pub const CHECK_DEADLOCK_FREEDOM: &str = "check_deadlock_freedom";
    pub const ADD_INTERACTION: &str = "add_interaction";
}

/// Explicit-search fallback bound of the proof-first facade. The fallback
/// must never run here: the expected outcome is a proof.
const EXPLICIT_FALLBACK: usize = 1_000_000;

pub struct Workload {
    pub name: &'static str,
    /// One line: which layers do the work and which do none.
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 7] = [
    Workload {
        name: "reach_full",
        why: "exhaustive explicit search without reduction: exec, codec, hash and the seen set do all the work, sequential and 2-thread paths; indep, sym, satkit, dfinder do none",
    },
    Workload {
        name: "reach_por",
        why: "the same search under persistent-set reduction: indep's selector dominates, once where it pays and once where visibility vetoes nearly every reduction",
    },
    Workload {
        name: "reach_intern",
        why: "bounded search of an infinite-state ring: every encode interns values through the lock-free table instead of packing bits; the sound bounded-verdict path",
    },
    Workload {
        name: "bmc_deep",
        why: "one persistent solver unrolled to depth 50 on a planted bug: satkit's CDCL search is nearly all of the time, sym a few percent, explicit layers none",
    },
    Workload {
        name: "kind_proof",
        why: "k-induction proofs with certificates: two solvers under assumptions and simple-path constraints, and the fault-injection facade; long clauses, few conflicts",
    },
    Workload {
        name: "sym_wide",
        why: "proofs that close at k=0 on wide counter rings: sym's exact enumeration of large guard domains is nearly all of the time, satkit search almost none",
    },
    Workload {
        name: "dfinder_comp",
        why: "compositional and incremental deadlock checking: linear invariants and trap enumeration dominate, satkit runs as many tiny fresh solves",
    },
];

/// A state predicate, named so that it can sit in a constant table and be
/// built against the (possibly permuted) system by instance name.
#[derive(Debug, Clone, Copy)]
pub enum Pred {
    RingTokenMutex(usize),
    NeverBothEating(usize, usize),
    AdjacentMutex(usize),
    PlantedNeverReaches(i64),
}

impl Pred {
    fn build(self, sys: &System) -> StatePred {
        match self {
            Pred::RingTokenMutex(n) => families::ring_token_mutex(sys, n),
            Pred::NeverBothEating(a, b) => families::never_both_eating(sys, a, b),
            Pred::AdjacentMutex(n) => families::adjacent_mutex(sys, n),
            Pred::PlantedNeverReaches(d) => families::planted_invariant(sys, d),
        }
    }
}

/// The engine call of a question.
#[derive(Debug, Clone, Copy)]
pub enum Ask {
    /// `reach::explore_with`.
    Explore {
        reduction: Reduction,
        threads: usize,
        max_states: usize,
    },
    /// `reach::check_invariant_with`.
    Invariant {
        pred: Pred,
        reduction: Reduction,
        threads: usize,
    },
    /// `BmcConfig::bound(bound).check_invariant`.
    Bmc { pred: Pred, bound: usize },
    /// `KindConfig::max_k(max_k).prove`, then `certify_step` when asked.
    Prove {
        pred: Pred,
        max_k: usize,
        certify: bool,
    },
    /// `IncrementalVerifier::verify_invariant_under` the single-crash spec
    /// with `fault::single_fault_invariant`, then `certify_step`.
    ProveUnderSingleCrash { max_k: usize },
    /// `DFinder::with_config(max_traps, threads 1)` and
    /// `check_deadlock_freedom`.
    DeadlockFreedom { max_traps: usize },
    /// An `IncrementalVerifier` on the station without its last customer's
    /// connectors (built outside the timed region), then `add_interaction`
    /// for each of the three and `check_deadlock_freedom`.
    Increment { customers: usize, max_traps: usize },
}

impl Ask {
    /// The same reach call under other search settings (the traced pass
    /// compares a question with variants of itself); any other call
    /// unchanged.
    pub fn reach_variant(self, reduction: Reduction, threads: usize) -> Ask {
        match self {
            Ask::Explore { max_states, .. } => Ask::Explore {
                reduction,
                threads,
                max_states,
            },
            Ask::Invariant { pred, .. } => Ask::Invariant {
                pred,
                reduction,
                threads,
            },
            other => other,
        }
    }
}

/// The hand-written expected answer of a question.
#[derive(Debug, Clone, Copy)]
pub enum Expect {
    /// A complete search whose only deadlock is "every philosopher holds
    /// its left fork"; `counts` pins `(states, transitions)` where the
    /// search is unreduced.
    OneDeadlockAllHasLeft {
        philosophers: usize,
        counts: Option<(usize, usize)>,
    },
    /// `complete == false`, `BoundExhausted`, exactly `states` stored, and
    /// no claim of deadlock-freedom.
    BoundExhausted { states: usize },
    /// The invariant holds on a complete search (`states` pinned where the
    /// search is unreduced).
    Holds { states: Option<usize> },
    /// `NoViolationWithin(bound)`, `Completed`.
    NoViolationWithin(usize),
    /// A violation trace of exactly `steps` steps that replays on the
    /// harness's own walker and ends with the planted counter at `steps`.
    PlantedWitness { steps: usize },
    /// `Proved`, `Completed`; the certificate, when asked for, accepts.
    Proved,
    /// D-Finder's verdict.
    DeadlockFree(bool),
}

pub struct Question {
    pub id: &'static str,
    pub workload: &'static str,
    pub model: Model,
    /// Whether the seed shuffles the model's declaration order. It does
    /// wherever the engine's work is (nearly) the same for every order.
    /// Where the amount of work itself depends on the order — the length of
    /// a SAT search, a bounded trap enumeration, the fill-in of a Gaussian
    /// elimination — re-declaring moves the time by tens of percent and can
    /// flip a sound-but-incomplete verdict, so the model is declared
    /// canonically at every seed (measurements in the README).
    pub shuffled: bool,
    pub ask: Ask,
    pub expect: Expect,
}

/// Far above every finite search in the table, so that the engine bound
/// never binds where a complete search is expected.
const UNBOUNDED: usize = 4_000_000;

pub const QUESTIONS: [Question; 15] = [
    Question {
        id: "phil14-explore",
        workload: "reach_full",
        model: Model::PhilTwoPhase(14),
        shuffled: true,
        ask: Ask::Explore {
            reduction: Reduction::None,
            threads: 1,
            max_states: UNBOUNDED,
        },
        expect: Expect::OneDeadlockAllHasLeft {
            philosophers: 14,
            counts: Some((228_486, 2_067_856)),
        },
    },
    Question {
        id: "cring6x5-mutex",
        workload: "reach_full",
        model: Model::CounterRing(6, 5),
        shuffled: true,
        ask: Ask::Invariant {
            pred: Pred::RingTokenMutex(6),
            reduction: Reduction::None,
            threads: 2,
        },
        expect: Expect::Holds {
            states: Some(279_936),
        },
    },
    Question {
        id: "phil17-explore-por",
        workload: "reach_por",
        model: Model::PhilTwoPhase(17),
        shuffled: true,
        ask: Ask::Explore {
            reduction: Reduction::Persistent,
            threads: 1,
            max_states: UNBOUNDED,
        },
        expect: Expect::OneDeadlockAllHasLeft {
            philosophers: 17,
            counts: None,
        },
    },
    Question {
        id: "phil13-mutex-por",
        workload: "reach_por",
        model: Model::PhilTwoPhase(13),
        shuffled: true,
        ask: Ask::Invariant {
            pred: Pred::NeverBothEating(0, 1),
            reduction: Reduction::Persistent,
            threads: 1,
        },
        expect: Expect::Holds { states: None },
    },
    Question {
        id: "uring4-bounded",
        workload: "reach_intern",
        model: Model::UnboundedRing(4),
        shuffled: true,
        ask: Ask::Explore {
            reduction: Reduction::None,
            threads: 1,
            max_states: 1_000_000,
        },
        expect: Expect::BoundExhausted { states: 1_000_000 },
    },
    Question {
        id: "planted50x12-absence",
        workload: "bmc_deep",
        model: Model::Planted(50, 12),
        shuffled: true,
        ask: Ask::Bmc {
            pred: Pred::PlantedNeverReaches(50),
            bound: 49,
        },
        expect: Expect::NoViolationWithin(49),
    },
    Question {
        id: "planted50x12-witness",
        workload: "bmc_deep",
        model: Model::Planted(50, 12),
        shuffled: true,
        ask: Ask::Bmc {
            pred: Pred::PlantedNeverReaches(50),
            bound: 50,
        },
        expect: Expect::PlantedWitness { steps: 50 },
    },
    Question {
        id: "cphil7-adjacent",
        workload: "kind_proof",
        model: Model::PhilConservative(7),
        shuffled: true,
        ask: Ask::Prove {
            pred: Pred::AdjacentMutex(7),
            max_k: 12,
            certify: true,
        },
        expect: Expect::Proved,
    },
    Question {
        id: "crashphil24-recovery",
        workload: "kind_proof",
        model: Model::PhilConservative(24),
        shuffled: false,
        ask: Ask::ProveUnderSingleCrash { max_k: 4 },
        expect: Expect::Proved,
    },
    Question {
        id: "cring8x4000-mutex",
        workload: "sym_wide",
        model: Model::CounterRing(8, 4000),
        shuffled: true,
        ask: Ask::Prove {
            pred: Pred::RingTokenMutex(8),
            max_k: 4,
            certify: false,
        },
        expect: Expect::Proved,
    },
    Question {
        id: "cring16x4000-mutex",
        workload: "sym_wide",
        model: Model::CounterRing(16, 4000),
        shuffled: true,
        ask: Ask::Prove {
            pred: Pred::RingTokenMutex(16),
            max_k: 4,
            certify: false,
        },
        expect: Expect::Proved,
    },
    Question {
        id: "cring24x2000-mutex",
        workload: "sym_wide",
        model: Model::CounterRing(24, 2000),
        shuffled: true,
        ask: Ask::Prove {
            pred: Pred::RingTokenMutex(24),
            max_k: 4,
            certify: false,
        },
        expect: Expect::Proved,
    },
    Question {
        id: "gas100-dis",
        workload: "dfinder_comp",
        model: Model::GasStation(100),
        shuffled: false,
        ask: Ask::DeadlockFreedom { max_traps: 512 },
        expect: Expect::DeadlockFree(true),
    },
    Question {
        id: "gas100-increment",
        workload: "dfinder_comp",
        model: Model::GasStation(100),
        shuffled: false,
        ask: Ask::Increment {
            customers: 100,
            max_traps: 512,
        },
        expect: Expect::DeadlockFree(true),
    },
    Question {
        id: "phil12x2-dis",
        workload: "dfinder_comp",
        model: Model::PhilTwoPhase(12),
        shuffled: true,
        ask: Ask::DeadlockFreedom { max_traps: 512 },
        expect: Expect::DeadlockFree(false),
    },
];

/// What an engine call returned, kept whole so that it can be checked (and,
/// in the traced pass, read for counts) after the clock has stopped.
pub enum Answer {
    Explored(ReachReport),
    Invariant(InvariantReport),
    Bmc(Result<BmcReport, String>),
    Proof {
        report: Result<ProofReport, String>,
        /// `certify_step`'s answer, when the question asks for it and the
        /// proof succeeded.
        certified: Option<bool>,
    },
    DFinder(DFinderReport),
    Increment {
        steps: Vec<IncrementStats>,
        report: DFinderReport,
    },
}

/// What set-up builds beyond the system itself.
enum Extra {
    None,
    SingleCrash {
        spec: FaultSpec,
        faulty: System,
    },
    Increment {
        base: System,
        held_back: Vec<Connector>,
    },
}

/// A question with its model built for one seed.
pub struct Prepared {
    pub q: &'static Question,
    /// The seed the model was built with: the run's, or 0 where the
    /// question is not shuffled.
    pub seed: u64,
    pub sys: System,
    pub pred: Option<StatePred>,
    /// Time to construct the model (`system` layer).
    pub build: Duration,
    /// Time `fault::inject` took during set-up (`fault` layer).
    pub inject: Duration,
    extra: Extra,
}

fn budget() -> Budget {
    Budget::unlimited().deadline_in(QUESTION_DEADLINE)
}

impl Prepared {
    pub fn new(q: &'static Question, seed: u64) -> Prepared {
        let t = Instant::now();
        let seed = if q.shuffled { seed } else { 0 };
        let sys = q.model.build(seed);
        let build = t.elapsed();
        let mut inject = Duration::ZERO;
        let (pred, extra) = match q.ask {
            Ask::Invariant { pred, .. } | Ask::Bmc { pred, .. } | Ask::Prove { pred, .. } => {
                (Some(pred.build(&sys)), Extra::None)
            }
            Ask::ProveUnderSingleCrash { .. } => {
                let spec = families::single_crash_spec();
                let t = Instant::now();
                let faulty = fault::inject(&sys, &spec).expect("the spec names no one");
                inject = t.elapsed();
                let inv = fault::single_fault_invariant(&faulty);
                (Some(inv), Extra::SingleCrash { spec, faulty })
            }
            Ask::Increment { customers, .. } => {
                let (base, held_back) = families::without_last_customer(&sys, customers);
                (None, Extra::Increment { base, held_back })
            }
            Ask::Explore { .. } | Ask::DeadlockFreedom { .. } => (None, Extra::None),
        };
        Prepared {
            q,
            seed,
            sys,
            pred,
            build,
            inject,
            extra,
        }
    }

    /// The system the proof is about (the fault-injected one for the crash
    /// question): what a certificate or an outside-in decomposition must
    /// encode.
    pub fn proof_system(&self) -> &System {
        match &self.extra {
            Extra::SingleCrash { faulty, .. } => faulty,
            _ => &self.sys,
        }
    }

    fn pred(&self) -> &StatePred {
        self.pred.as_ref().expect("the question has a predicate")
    }

    /// Ask the question once. Only the engine calls are on the clock;
    /// per-pass staging (the incremental verifiers' starting points) is
    /// done before it starts. With a tracer, each call into a layer's
    /// public function is one span.
    pub fn ask(&self, tracer: &mut Option<&mut Tracer>) -> (Duration, Answer) {
        self.ask_as(self.q.ask, tracer)
    }

    /// [`Prepared::ask`] with the engine call replaced by `ask` (the traced
    /// pass compares a question with a variant of itself: unreduced, or on
    /// one thread).
    pub fn ask_as(&self, ask: Ask, tracer: &mut Option<&mut Tracer>) -> (Duration, Answer) {
        let sys = &self.sys;
        match ask {
            Ask::Explore {
                reduction,
                threads,
                max_states,
            } => {
                let start = Instant::now();
                let cfg = ReachConfig::bounded(max_states)
                    .threads(threads)
                    .reduction(reduction)
                    .budget(budget());
                let r = spanned(tracer, "reach", "explore_with", || explore_with(sys, &cfg));
                (start.elapsed(), Answer::Explored(r))
            }
            Ask::Invariant {
                reduction, threads, ..
            } => {
                let start = Instant::now();
                let cfg = ReachConfig::bounded(UNBOUNDED)
                    .threads(threads)
                    .reduction(reduction)
                    .budget(budget());
                let r = spanned(tracer, "reach", "check_invariant_with", || {
                    check_invariant_with(sys, self.pred(), &cfg)
                });
                (start.elapsed(), Answer::Invariant(r))
            }
            Ask::Bmc { bound, .. } => {
                let start = Instant::now();
                let r = spanned(tracer, "bmc", "check_invariant", || {
                    BmcConfig::new(sys)
                        .bound(bound)
                        .budget(budget())
                        .check_invariant(self.pred())
                });
                (start.elapsed(), Answer::Bmc(r.map_err(|e| e.to_string())))
            }
            Ask::Prove { max_k, certify, .. } => {
                let start = Instant::now();
                let report = spanned(tracer, "kind", call::PROVE, || {
                    KindConfig::new(sys)
                        .max_k(max_k)
                        .budget(budget())
                        .prove(self.pred())
                });
                let certified = match &report {
                    Ok(ProofReport {
                        verdict: ProofVerdict::Proved { k },
                        ..
                    }) if certify => Some(spanned(tracer, "kind", call::CERTIFY_STEP, || {
                        certify_step(sys, self.pred(), *k, ENUM_BUDGET).unwrap_or(false)
                    })),
                    _ => None,
                };
                (
                    start.elapsed(),
                    Answer::Proof {
                        report: report.map_err(|e| e.to_string()),
                        certified,
                    },
                )
            }
            Ask::ProveUnderSingleCrash { max_k } => {
                let Extra::SingleCrash { spec, faulty } = &self.extra else {
                    unreachable!("set-up built the crash spec");
                };
                // Staging: the facade computes the base system's D-Finder
                // invariants on construction, which this question never
                // reads.
                let cfg = DFinderConfig::new().threads(1).budget(budget());
                let inc = IncrementalVerifier::with_config(sys.clone(), cfg);
                let start = Instant::now();
                let outcome = spanned(tracer, "incremental", call::VERIFY_UNDER, || {
                    inc.verify_invariant_under(spec, self.pred(), max_k, EXPLICIT_FALLBACK)
                });
                let report = match outcome {
                    Ok(InvariantOutcome::Proof(report)) => Ok(report),
                    Ok(InvariantOutcome::Explicit(_)) => {
                        Err("settled by the explicit fallback, not by proof".to_string())
                    }
                    Err(e) => Err(e.to_string()),
                };
                let certified = match &report {
                    Ok(ProofReport {
                        verdict: ProofVerdict::Proved { k },
                        ..
                    }) => Some(spanned(tracer, "kind", call::CERTIFY_STEP, || {
                        certify_step(faulty, self.pred(), *k, ENUM_BUDGET).unwrap_or(false)
                    })),
                    _ => None,
                };
                (start.elapsed(), Answer::Proof { report, certified })
            }
            Ask::DeadlockFreedom { max_traps } => {
                let start = Instant::now();
                let cfg = DFinderConfig::new()
                    .max_traps(max_traps)
                    .threads(1)
                    .budget(budget());
                let df = spanned(tracer, "dfinder", "with_config", || {
                    DFinder::with_config(sys, &cfg)
                });
                let r = spanned(tracer, "dfinder", call::CHECK_DEADLOCK_FREEDOM, || {
                    df.check_deadlock_freedom()
                });
                (start.elapsed(), Answer::DFinder(r))
            }
            Ask::Increment { max_traps, .. } => {
                let Extra::Increment { base, held_back } = &self.extra else {
                    unreachable!("set-up held the connectors back");
                };
                // Staging: the verifier one customer short.
                let cfg = DFinderConfig::new()
                    .max_traps(max_traps)
                    .threads(1)
                    .budget(budget());
                let mut inc = IncrementalVerifier::with_config(base.clone(), cfg);
                let start = Instant::now();
                let mut steps = Vec::new();
                for conn in held_back {
                    let st = spanned(tracer, "incremental", call::ADD_INTERACTION, || {
                        inc.add_interaction(conn.clone())
                    });
                    steps.push(st.expect("the held-back connector validates"));
                }
                let report = spanned(tracer, "incremental", call::CHECK_DEADLOCK_FREEDOM, || {
                    inc.check_deadlock_freedom()
                });
                (start.elapsed(), Answer::Increment { steps, report })
            }
        }
    }

    /// Compare an answer with the hand-written expectation.
    pub fn check(&self, answer: &Answer) -> Result<(), String> {
        match (self.q.expect, answer) {
            (
                Expect::OneDeadlockAllHasLeft {
                    philosophers,
                    counts,
                },
                Answer::Explored(r),
            ) => {
                ensure(r.complete, "search incomplete")?;
                ensure_eq(r.stop, StopReason::Completed, "stop")?;
                if let Some((states, transitions)) = counts {
                    ensure_eq(r.states, states, "states")?;
                    ensure_eq(r.transitions, transitions, "transitions")?;
                }
                ensure_eq(r.deadlocks.len(), 1, "deadlocks")?;
                ensure(!r.deadlock_free(), "claims deadlock-freedom")?;
                let dead = &r.deadlocks[0];
                for i in 0..philosophers {
                    let pred = families::at(&self.sys, &format!("phil{i}"), "hasL");
                    ensure(pred.eval(&self.sys, dead), "a philosopher is not in hasL")?;
                }
                ensure(
                    self.sys.successors(dead).is_empty(),
                    "the reported deadlock has a successor",
                )
            }
            (Expect::BoundExhausted { states }, Answer::Explored(r)) => {
                ensure(
                    !r.complete,
                    "a bounded search of an infinite space is complete",
                )?;
                ensure_eq(r.stop, StopReason::BoundExhausted, "stop")?;
                ensure_eq(r.states, states, "states")?;
                ensure(
                    !r.deadlock_free(),
                    "an incomplete search claims deadlock-freedom",
                )
            }
            (Expect::Holds { states }, Answer::Invariant(r)) => {
                ensure(r.complete, "search incomplete")?;
                ensure_eq(r.stop, StopReason::Completed, "stop")?;
                ensure(r.holds(), "invariant reported violated")?;
                match states {
                    Some(n) => ensure_eq(r.states, n, "states"),
                    None => Ok(()),
                }
            }
            (Expect::NoViolationWithin(bound), Answer::Bmc(Ok(r))) => {
                ensure_eq(r.stop, StopReason::Completed, "stop")?;
                ensure_eq(&r.outcome, &BmcOutcome::NoViolationWithin(bound), "outcome")
            }
            (Expect::PlantedWitness { steps }, Answer::Bmc(Ok(r))) => {
                ensure_eq(r.stop, StopReason::Completed, "stop")?;
                let Some((trace, states)) = r.violation() else {
                    return Err(format!("no witness: {:?}", r.outcome));
                };
                ensure_eq(trace.len(), steps, "trace length")?;
                ensure(
                    replays(&self.sys, states, trace),
                    "the witness does not replay",
                )?;
                let last = states.last().expect("a replayed trace has states");
                ensure(
                    !self.pred().eval(&self.sys, last),
                    "the witness ends in a legal state",
                )
            }
            (Expect::Proved, Answer::Proof { report, certified }) => {
                let r = report.as_ref().map_err(Clone::clone)?;
                ensure_eq(r.stop, StopReason::Completed, "stop")?;
                ensure(r.is_proved(), "not proved")?;
                let wants_certificate = matches!(
                    self.q.ask,
                    Ask::Prove { certify: true, .. } | Ask::ProveUnderSingleCrash { .. }
                );
                if wants_certificate {
                    ensure_eq(*certified, Some(true), "certificate")?;
                }
                Ok(())
            }
            (Expect::DeadlockFree(expected), Answer::DFinder(r))
            | (Expect::DeadlockFree(expected), Answer::Increment { report: r, .. }) => {
                ensure(!r.verdict.is_unknown(), "no verdict")?;
                ensure_eq(r.stop, StopReason::Completed, "stop")?;
                ensure_eq(r.verdict.is_deadlock_free(), expected, "deadlock-free")
            }
            (_, Answer::Bmc(Err(e))) => Err(e.clone()),
            _ => Err("the answer is of the wrong kind for the question".to_string()),
        }
    }
}

fn ensure(cond: bool, what: &str) -> Result<(), String> {
    if cond {
        Ok(())
    } else {
        Err(what.to_string())
    }
}

fn ensure_eq<T: PartialEq + std::fmt::Debug>(got: T, want: T, what: &str) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("{what}: got {got:?}, expected {want:?}"))
    }
}

/// The harness's own walker: does `trace` lead from the initial state
/// through `states`, each step one of the successors the Vec-returning
/// semantics enumerates? Shares nothing with the engines' replay.
pub fn replays(sys: &System, states: &[State], trace: &[Step]) -> bool {
    states.len() == trace.len() + 1
        && states[0] == sys.initial_state()
        && trace.iter().enumerate().all(|(i, step)| {
            sys.successors(&states[i])
                .iter()
                .any(|(s, next)| s == step && next == &states[i + 1])
        })
}

/// The questions of `workload`, in table order.
pub fn questions_of(workload: &str) -> impl Iterator<Item = &'static Question> + '_ {
    QUESTIONS.iter().filter(move |q| q.workload == workload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn the_table_is_well_formed() {
        let ids: HashSet<&str> = QUESTIONS.iter().map(|q| q.id).collect();
        assert_eq!(ids.len(), QUESTIONS.len(), "question ids are unique");
        for q in &QUESTIONS {
            assert!(
                WORKLOADS.iter().any(|w| w.name == q.workload),
                "{}: unknown workload",
                q.id
            );
            // Engine threads are fixed per question at 1 or 2, never read
            // from the host.
            if let Ask::Explore { threads, .. } | Ask::Invariant { threads, .. } = q.ask {
                assert!((1..=2).contains(&threads), "{}: threads", q.id);
            }
        }
        for w in &WORKLOADS {
            assert!(questions_of(w.name).count() >= 1, "{}: empty", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
    }

    /// Small siblings of every kind of question go through the same
    /// ask-and-check code and pass; a wrong expectation fails.
    #[test]
    fn small_siblings_pass_and_a_wrong_expectation_fails() {
        static SMALL: [Question; 4] = [
            Question {
                id: "phil4-explore",
                workload: "reach_full",
                model: Model::PhilTwoPhase(4),
                shuffled: true,
                ask: Ask::Explore {
                    reduction: Reduction::Persistent,
                    threads: 1,
                    max_states: UNBOUNDED,
                },
                expect: Expect::OneDeadlockAllHasLeft {
                    philosophers: 4,
                    counts: None,
                },
            },
            Question {
                id: "planted6x2-witness",
                workload: "bmc_deep",
                model: Model::Planted(6, 2),
                shuffled: true,
                ask: Ask::Bmc {
                    pred: Pred::PlantedNeverReaches(6),
                    bound: 6,
                },
                expect: Expect::PlantedWitness { steps: 6 },
            },
            Question {
                id: "crashphil3-recovery",
                workload: "kind_proof",
                model: Model::PhilConservative(3),
                shuffled: true,
                ask: Ask::ProveUnderSingleCrash { max_k: 4 },
                expect: Expect::Proved,
            },
            Question {
                id: "gas3-increment",
                workload: "dfinder_comp",
                model: Model::GasStation(3),
                shuffled: true,
                ask: Ask::Increment {
                    customers: 3,
                    max_traps: 512,
                },
                expect: Expect::DeadlockFree(true),
            },
        ];
        for q in &SMALL {
            for seed in [0, 1] {
                let p = Prepared::new(q, seed);
                let (_, answer) = p.ask(&mut None);
                assert_eq!(p.check(&answer), Ok(()), "{} seed {seed}", q.id);
            }
        }
        static WRONG: Question = Question {
            id: "planted6x2-absence-wrong",
            workload: "bmc_deep",
            model: Model::Planted(6, 2),
            shuffled: true,
            ask: Ask::Bmc {
                pred: Pred::PlantedNeverReaches(6),
                bound: 6,
            },
            expect: Expect::NoViolationWithin(6),
        };
        let p = Prepared::new(&WRONG, 0);
        let (_, answer) = p.ask(&mut None);
        assert!(p.check(&answer).is_err());
    }

    #[test]
    fn the_walker_rejects_a_doctored_witness() {
        let sys = Model::Planted(3, 1).build(0);
        let s0 = sys.initial_state();
        let (step, s1) = sys.successors(&s0).swap_remove(0);
        let trace = [step];
        assert!(replays(&sys, &[s0.clone(), s1.clone()], &trace));
        assert!(!replays(&sys, &[s0.clone(), s0.clone()], &trace));
        assert!(!replays(&sys, &[s1.clone(), s1], &trace));
    }
}
