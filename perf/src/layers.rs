//! The outside-in per-layer decomposition of the traced pass.
//!
//! This change may not instrument the engines, so the harness takes each
//! question apart from outside, calling each layer's public functions one
//! by one under its own spans:
//!
//! * reach questions: a deterministic sample of reachable states gathered
//!   by the harness's own BFS, over which `exec`, `codec`, `hash`, `intern`
//!   and `indep` are timed per call; the engine's own `states` and
//!   `transitions` scale those into estimated shares;
//! * BMC and k-induction questions: the same unrolling rebuilt with the
//!   public `StepEncoder` and `CnfBuilder`, so that `sym` encoding and
//!   `satkit` solving are separate spans;
//! * D-Finder questions: abstraction, trap enumeration and linear
//!   invariants called one by one.
//!
//! Shares are therefore sampled estimates until spans exist inside the
//! engines. Counts come from the engines' own reports.

use crate::metrics::{ratio, Metrics};
use crate::run::Ops;
use crate::trace::Tracer;
use crate::workloads::{call, replays, Answer, Ask, Prepared, ENUM_BUDGET};
use bip_core::sym::{StepEncoder, SymFrame};
use bip_core::{InternTable, State, StateCodec, StatePred, System};
use bip_verify::dfinder::{enumerate_traps_with, linear_invariants, Abstraction, DFinder};
use bip_verify::kind::Verdict as ProofVerdict;
use bip_verify::reach::{explore_with, ReachConfig, Reduction};
use bip_verify::{Budget, CancelToken, DFinderConfig};
use satkit::{CnfBuilder, Lit, RestartPolicy, Solver};
use std::collections::{HashSet, VecDeque};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// States in the reach sample.
const SAMPLE_STATES: usize = 50_000;

/// One question of the traced pass: its model, what the engine answered
/// and how long the traced engine call took.
pub struct Item<'a> {
    pub p: &'a Prepared,
    pub answer: Answer,
    pub traced: Duration,
}

fn ms(nanos: u64) -> f64 {
    nanos as f64 / 1e6
}

/// Take every question of one workload apart; record spans in `t`,
/// per-layer values in `m`, and in `ops` the comparison runs it asks on the
/// way (each is checked like any other operation).
pub fn decompose(workload: &str, items: &[Item], t: &mut Tracer, m: &mut Metrics, ops: &mut Ops) {
    let mut reach = ReachSums::default();
    let mut sat = SatSums::default();
    for it in items {
        t.set_context(workload, it.p.q.id);
        let root = t.enter("harness", "decompose");
        m.add("system.build_ms", ms(it.p.build.as_nanos() as u64));
        m.add("fault.inject_ms", ms(it.p.inject.as_nanos() as u64));
        match it.p.q.ask {
            Ask::Explore { .. } | Ask::Invariant { .. } => reach_layers(it, t, m, &mut reach, ops),
            Ask::Bmc { bound, .. } => bmc_layers(it, bound, t, m, &mut sat),
            Ask::Prove { .. } | Ask::ProveUnderSingleCrash { .. } => {
                kind_layers(it, t, m, &mut sat)
            }
            Ask::DeadlockFreedom { max_traps } => dfinder_layers(it, max_traps, t, m),
            Ask::Increment { .. } => increment_layers(it, t, m),
        }
        t.exit(root);
    }
    reach.finish(m);
    sat.finish(m);
}

// ---- reach ---------------------------------------------------------------

/// Raw sums over the reach questions of a workload; ratios are taken over
/// the pooled sums, so that a workload reads as one number per metric.
#[derive(Default)]
struct ReachSums {
    sample_states: u64,
    sample_succs: u64,
    refresh_ns: u64,
    succ_ns: u64,
    encode_ns: u64,
    decode_ns: u64,
    hash_ns: u64,
    intern_ns: u64,
    intern_ops: u64,
    select_ns: u64,
    select_tried: u64,
    select_hits: u64,
    ample: u64,
    enabled: u64,
    states: u64,
    peak_bytes: u64,
    elapsed_ns: u64,
    /// Engine wall time × engine threads: the processor time the shares
    /// are taken of.
    busy_ns: f64,
    est_exec_ns: f64,
    est_codec_ns: f64,
    est_indep_ns: f64,
    /// The unreduced questions on one engine thread and on two.
    one_thread_ns: u64,
    two_thread_ns: u64,
}

impl ReachSums {
    fn finish(&self, m: &mut Metrics) {
        if self.sample_states == 0 {
            return;
        }
        let states = self.sample_states as f64;
        m.set("exec.refresh_ns", self.refresh_ns as f64 / states);
        m.set(
            "exec.succ_ns",
            ratio(self.succ_ns as f64, self.sample_succs as f64),
        );
        m.set("exec.succ_per_state", self.sample_succs as f64 / states);
        m.set("codec.encode_ns", self.encode_ns as f64 / states);
        m.set("codec.decode_ns", self.decode_ns as f64 / states);
        m.set("hash.state_hash_ns", self.hash_ns as f64 / states);
        m.set(
            "intern.ops_per_s",
            ratio(self.intern_ops as f64 * 1e9, self.intern_ns as f64),
        );
        m.set(
            "indep.select_ns",
            ratio(self.select_ns as f64, self.select_tried as f64),
        );
        m.set(
            "indep.hit_ratio",
            ratio(self.select_hits as f64, self.select_tried as f64),
        );
        m.set(
            "indep.ample_ratio",
            ratio(self.ample as f64, self.enabled as f64),
        );
        m.set(
            "reach.bytes_per_state",
            ratio(self.peak_bytes as f64, self.states as f64),
        );
        m.set(
            "reach.states_per_s",
            ratio(self.states as f64 * 1e9, self.elapsed_ns as f64),
        );
        m.set(
            "reach.par_speedup",
            ratio(self.one_thread_ns as f64, self.two_thread_ns as f64),
        );
        m.set("exec.share", ratio(self.est_exec_ns, self.busy_ns));
        m.set("codec.share", ratio(self.est_codec_ns, self.busy_ns));
        m.set("indep.share", ratio(self.est_indep_ns, self.busy_ns));
        let outside = self.est_exec_ns + self.est_codec_ns + self.est_indep_ns;
        m.set(
            "reach.store_share",
            (1.0 - ratio(outside, self.busy_ns)).max(0.0),
        );
    }
}

/// The harness's own BFS over `for_each_successor`: the first
/// [`SAMPLE_STATES`] reachable states in discovery order.
fn sample_states(sys: &System) -> Vec<State> {
    let mut seen: HashSet<State> = HashSet::new();
    let mut order = Vec::new();
    let mut queue = VecDeque::new();
    let mut es = sys.new_enabled_set();
    let mut scratch = sys.new_succ_scratch();
    let init = sys.initial_state();
    seen.insert(init.clone());
    order.push(init.clone());
    queue.push_back(init);
    while let Some(st) = queue.pop_front() {
        if order.len() >= SAMPLE_STATES {
            break;
        }
        es.invalidate_all();
        sys.for_each_successor(&st, &mut es, &mut scratch, |_, next| {
            if order.len() < SAMPLE_STATES && !seen.contains(next) {
                seen.insert(next.clone());
                order.push(next.clone());
                queue.push_back(next.clone());
            }
        });
    }
    order
}

fn reach_layers(it: &Item, t: &mut Tracer, m: &mut Metrics, sums: &mut ReachSums, ops: &mut Ops) {
    let (reduction, threads) = match it.p.q.ask {
        Ask::Explore {
            reduction, threads, ..
        }
        | Ask::Invariant {
            reduction, threads, ..
        } => (reduction, threads),
        _ => unreachable!("reach_layers takes reach questions"),
    };
    let reduced = reduction == Reduction::Persistent;

    // A fresh system, so that what a system computes lazily and keeps
    // (independence tables) is computed again here, under a span.
    let fresh = t.span("system", "build", || it.p.q.model.build(it.p.seed));
    let sys = &fresh;
    let (_, ns) = t.timed("width", "infer_ranges", || {
        black_box(bip_core::width::infer_ranges(sys))
    });
    m.add("width.infer_ms", ms(ns));
    let (mut codec, ns) = t.timed("codec", "adaptive", || StateCodec::adaptive(sys));
    m.add("codec.build_ms", ms(ns));
    if reduced {
        let (_, ns) = t.timed("indep", "build", || {
            black_box(sys.indep().num_actions());
        });
        m.add("indep.build_ms", ms(ns));
        m.add("indep.actions", sys.indep().num_actions() as f64);
    }

    let sample = t.span("harness", "sample_states", || sample_states(sys));
    let n = sample.len() as u64;
    sums.sample_states += n;

    // exec: enabled-set refresh alone, then full successor enumeration.
    let mut es = sys.new_enabled_set();
    let mut scratch = sys.new_succ_scratch();
    let (_, ns) = t.timed("exec", "refresh_enabled", || {
        for st in &sample {
            es.invalidate_all();
            sys.refresh_enabled(st, &mut es);
        }
    });
    t.count_last("states", n);
    sums.refresh_ns += ns;
    let mut succs = 0u64;
    let (_, ns) = t.timed("exec", "for_each_successor", || {
        for st in &sample {
            es.invalidate_all();
            sys.for_each_successor(st, &mut es, &mut scratch, |_, next| {
                succs += 1;
                black_box(next);
            });
        }
    });
    t.count_last("states", n);
    t.count_last("successors", succs);
    sums.succ_ns += ns;
    sums.sample_succs += succs;
    let succ_ns_each = ratio(ns as f64, succs as f64);

    // codec: climb the widening ladder off the clock, as the engine's
    // repack does, then time encode, decode and the canonical hash.
    let mut packed = codec.new_packed();
    for st in &sample {
        while let Err(req) = codec.try_encode_into(st, &mut packed) {
            codec = codec.widen(sys, req);
            packed = codec.new_packed();
        }
    }
    m.add("codec.bits", f64::from(codec.bits()));
    let mut packed_all = Vec::with_capacity(sample.len());
    let (_, encode_ns) = t.timed("codec", "encode_into", || {
        for st in &sample {
            codec.encode_into(st, &mut packed);
            black_box(&packed);
        }
    });
    t.count_last("states", n);
    for st in &sample {
        packed_all.push(codec.encode(st));
    }
    let mut decoded = sys.initial_state();
    let (_, decode_ns) = t.timed("codec", "decode_into", || {
        for ps in &packed_all {
            codec.decode_into(ps, &mut decoded);
            black_box(&decoded);
        }
    });
    t.count_last("states", n);
    let (_, hash_ns) = t.timed("hash", "state_hash", || {
        for st in &sample {
            black_box(codec.state_hash(st));
        }
    });
    t.count_last("states", n);
    sums.encode_ns += encode_ns;
    sums.decode_ns += decode_ns;
    sums.hash_ns += hash_ns;

    // intern: a fresh table, fed every variable value of the sample, when
    // the codec routes values through one.
    if codec.intern_table().is_some() {
        let table = InternTable::default();
        let (_, ns) = t.timed("intern", "intern", || {
            for st in &sample {
                for &v in &st.vars {
                    black_box(table.intern(v));
                }
            }
        });
        let ops: u64 = sample.iter().map(|st| st.vars.len() as u64).sum();
        t.count_last("ops", ops);
        t.count_last("distinct", table.len() as u64);
        sums.intern_ns += ns;
        sums.intern_ops += ops;
        m.add("intern.distinct", table.len() as f64);
    }

    // indep: the persistent-set selector, state by state. The refresh it
    // needs is paid off the clock; the clock reads cost tens of
    // nanoseconds against microseconds per selection.
    let mut select_ns_each = 0.0;
    if reduced {
        let indep = sys.indep();
        // The predicate was built against `it.p.sys`; the fresh system is
        // the same build, so its indices mean the same.
        let visible =
            it.p.pred
                .as_ref()
                .map(|pred| indep.visible_actions(sys, pred));
        let mut ample = indep.new_scratch(sys);
        let span = t.enter("indep", "select_ample");
        let (mut ns, mut hits) = (0u64, 0u64);
        for st in &sample {
            es.invalidate_all();
            sys.refresh_enabled(st, &mut es);
            let hash = codec.state_hash(st);
            let enabled = (es.num_interactions() + es.num_internal()) as u64;
            let start = Instant::now();
            let hit = indep.select_ample(sys, st, &es, hash, visible.as_ref(), &mut ample);
            ns += start.elapsed().as_nanos() as u64;
            sums.enabled += enabled;
            if hit {
                hits += 1;
                sums.ample += ample.ample().len() as u64;
            } else {
                sums.ample += enabled;
            }
        }
        t.exit(span);
        t.count(span, "selector_ns", ns);
        t.count(span, "states", n);
        t.count(span, "reduced", hits);
        sums.select_ns += ns;
        sums.select_tried += n;
        sums.select_hits += hits;
        select_ns_each = ns as f64 / n as f64;
    }

    // The engine's own report, and the estimates it scales.
    let (states, transitions, peak_bytes, elapsed) = match &it.answer {
        Answer::Explored(r) => (r.states, Some(r.transitions), r.peak_bytes, r.elapsed),
        Answer::Invariant(r) => (r.states, None, r.peak_bytes, r.elapsed),
        _ => unreachable!("a reach question has a reach answer"),
    };
    m.add("reach.states", states as f64);
    m.add("reach.transitions", transitions.unwrap_or(0) as f64);
    m.add("reach.peak_bytes", peak_bytes as f64);
    m.add("reach.elapsed_ms", elapsed.as_secs_f64() * 1e3);
    sums.states += states as u64;
    sums.peak_bytes += peak_bytes as u64;
    sums.elapsed_ns += elapsed.as_nanos() as u64;
    sums.busy_ns += elapsed.as_nanos() as f64 * threads as f64;
    // Successors generated: the engine's count where it reports one, the
    // sample's branching factor otherwise.
    let generated = transitions.map_or(states as f64 * succs as f64 / n as f64, |x| x as f64);
    let per_state = |ns: u64| ns as f64 / n as f64;
    sums.est_exec_ns += generated * succ_ns_each;
    sums.est_codec_ns += generated * (per_state(encode_ns) + per_state(hash_ns))
        + states as f64 * per_state(decode_ns);
    sums.est_indep_ns += states as f64 * select_ns_each;

    // Comparison runs: the same question under other search settings, held
    // to the same expected answer.
    let mut variant = |reduction: Reduction, threads: usize, t: &mut Tracer| {
        let ask = it.p.q.ask.reach_variant(reduction, threads);
        let (elapsed, answer) = it.p.ask_as(ask, &mut Some(t));
        ops.record(it.p, &answer);
        (elapsed, answer)
    };
    if reduced {
        // Unreduced, where that is feasible (the invariant question): how
        // much did reduction store?
        if matches!(it.p.q.ask, Ask::Invariant { .. }) {
            if let (_, Answer::Invariant(full)) = variant(Reduction::None, threads, t) {
                m.set(
                    "reach.por_state_ratio",
                    ratio(states as f64, full.states as f64),
                );
            }
        }
    } else {
        // On the other thread count: what does the second thread buy?
        let other_count = if threads == 1 { 2 } else { 1 };
        let (other, _) = variant(reduction, other_count, t);
        let (one, two) = if threads == 1 {
            (it.traced, other)
        } else {
            (other, it.traced)
        };
        sums.one_thread_ns += one.as_nanos() as u64;
        sums.two_thread_ns += two.as_nanos() as u64;
    }
    if matches!(it.p.q.model, crate::families::Model::UnboundedRing(_)) {
        control_probes(sys, t, m);
    }
}

/// How promptly does an unbounded exploration stop? Cancelled from a
/// second thread after 100 ms, and separately given a 100 ms deadline; both
/// are polled at level boundaries, so this guards the polling cadence.
fn control_probes(sys: &System, t: &mut Tracer, m: &mut Metrics) {
    const AFTER: Duration = Duration::from_millis(100);
    let token = CancelToken::new();
    let cfg = ReachConfig::bounded(usize::MAX).threads(2).cancel(&token);
    let span = t.enter("control", "cancel");
    let (cancelled_at, returned_at) = std::thread::scope(|scope| {
        let canceller = scope.spawn(|| {
            std::thread::sleep(AFTER);
            token.cancel();
            Instant::now()
        });
        let _ = black_box(explore_with(sys, &cfg));
        let returned_at = Instant::now();
        (
            canceller.join().expect("the canceller does not panic"),
            returned_at,
        )
    });
    t.exit(span);
    m.set(
        "control.cancel_latency_ms",
        returned_at
            .saturating_duration_since(cancelled_at)
            .as_secs_f64()
            * 1e3,
    );

    let cfg = ReachConfig::bounded(usize::MAX)
        .threads(2)
        .budget(Budget::unlimited().deadline_in(AFTER));
    let (_, ns) = t.timed("control", "deadline", || black_box(explore_with(sys, &cfg)));
    m.set(
        "control.deadline_overshoot_ms",
        (ms(ns) - AFTER.as_secs_f64() * 1e3).max(0.0),
    );
}

// ---- sym + satkit (bmc, kind) -------------------------------------------

/// Raw sums over the rebuilt unrollings of a workload.
#[derive(Default)]
struct SatSums {
    frames: u64,
    frame_ns: u64,
    frame_vars: u64,
    frame_clauses: u64,
    sym_ns: u64,
    solve_ns: u64,
    conflicts: u64,
    propagations: u64,
}

impl SatSums {
    fn finish(&self, m: &mut Metrics) {
        if self.sym_ns + self.solve_ns == 0 {
            return;
        }
        let frames = self.frames as f64;
        m.set("sym.frame_encode_ms", ratio(ms(self.frame_ns), frames));
        m.set("sym.vars_per_frame", ratio(self.frame_vars as f64, frames));
        m.set(
            "sym.clauses_per_frame",
            ratio(self.frame_clauses as f64, frames),
        );
        m.set(
            "satkit.props_per_s",
            ratio(self.propagations as f64 * 1e9, self.solve_ns as f64),
        );
        m.set(
            "satkit.conflicts_per_s",
            ratio(self.conflicts as f64 * 1e9, self.solve_ns as f64),
        );
        let total = (self.sym_ns + self.solve_ns) as f64;
        m.set("sym.share", self.sym_ns as f64 / total);
        m.set("satkit.share", self.solve_ns as f64 / total);
    }

    fn solver_totals(&mut self, s: &Solver, m: &mut Metrics) {
        m.add("satkit.conflicts", s.conflicts() as f64);
        m.add("satkit.decisions", s.decisions() as f64);
        m.add("satkit.propagations", s.propagations() as f64);
        m.add("satkit.restarts", s.restarts() as f64);
        m.add("satkit.reduces", s.reduces() as f64);
        self.conflicts += s.conflicts();
        self.propagations += s.propagations();
    }
}

/// Original (not learnt) clauses in the solver.
fn originals(s: &Solver) -> u64 {
    (s.num_clauses() - s.num_learnts()) as u64
}

/// One more frame and the step relation into it, under one `sym` span.
fn push_frame(
    enc: &mut StepEncoder,
    b: &mut CnfBuilder,
    frames: &mut Vec<SymFrame>,
    t: &mut Tracer,
    sums: &mut SatSums,
) -> Option<bip_core::sym::StepVars> {
    let (vars0, clauses0) = (b.solver_mut().num_vars() as u64, originals(b.solver_mut()));
    let (step, ns) = t.timed("sym", "encode_step", || {
        let next = enc.new_frame(b);
        let prev = frames.last_mut().expect("frame 0 exists");
        let step = enc.encode_step(b, prev, &next).ok();
        frames.push(next);
        step
    });
    let vars = b.solver_mut().num_vars() as u64 - vars0;
    let clauses = originals(b.solver_mut()) - clauses0;
    t.count_last("vars", vars);
    t.count_last("clauses", clauses);
    sums.frames += 1;
    sums.frame_ns += ns;
    sums.sym_ns += ns;
    sums.frame_vars += vars;
    sums.frame_clauses += clauses;
    step
}

fn encode_pred(
    enc: &mut StepEncoder,
    b: &mut CnfBuilder,
    frame: &mut SymFrame,
    pred: &StatePred,
    t: &mut Tracer,
    m: &mut Metrics,
    sums: &mut SatSums,
) -> Lit {
    let (lit, ns) = t.timed("sym", "encode_pred", || {
        enc.encode_pred(b, frame, pred)
            .expect("the engine encoded the same predicate")
    });
    m.add("sym.pred_encode_ms", ms(ns));
    sums.sym_ns += ns;
    lit
}

fn new_encoder<'a>(
    sys: &'a System,
    t: &mut Tracer,
    m: &mut Metrics,
    sums: &mut SatSums,
) -> StepEncoder<'a> {
    let (enc, ns) = t.timed("sym", "encoder_new", || {
        StepEncoder::new(sys)
            .expect("the engine encoded the same system")
            .enum_budget(ENUM_BUDGET)
    });
    m.add("sym.encoder_new_ms", ms(ns));
    sums.sym_ns += ns;
    enc
}

/// BMC's own loop, rebuilt: one persistent solver, one activation literal
/// per depth, the same restart policy, so the solver takes the same path
/// and its counters can be held against the engine's `FrameStats`.
fn bmc_layers(it: &Item, bound: usize, t: &mut Tracer, m: &mut Metrics, sums: &mut SatSums) {
    let Answer::Bmc(Ok(report)) = &it.answer else {
        return;
    };
    m.add("bmc.elapsed_ms", report.elapsed.0.as_secs_f64() * 1e3);
    if let Some(last) = report.frames.last() {
        m.add("bmc.vars", last.vars as f64);
        m.add("bmc.clauses", last.clauses as f64);
        m.add("bmc.learnts", last.learnts as f64);
        m.add("bmc.conflicts", last.conflicts as f64);
        m.add("bmc.propagations", last.propagations as f64);
    }
    let sys = &it.p.sys;
    if let Some((trace, states)) = report.violation() {
        m.add("bmc.trace_len", trace.len() as f64);
        let (ok, ns) = t.timed("bmc", "replay", || replays(sys, states, trace));
        assert!(ok, "the pass already checked this witness");
        m.add("bmc.replay_ms", ms(ns));
    }

    let pred = it.p.pred.as_ref().expect("a bmc question has a predicate");
    let mut enc = new_encoder(sys, t, m, sums);
    let mut b = CnfBuilder::new();
    b.solver_mut().set_restart_policy(RestartPolicy::hybrid());
    let mut frames = vec![enc.new_frame(&mut b)];
    enc.assert_initial(&mut b, &frames[0]);
    for depth in 0..=bound {
        let inv = encode_pred(&mut enc, &mut b, &mut frames[depth], pred, t, m, sums);
        let act = Lit::pos(b.solver_mut().new_var());
        b.implies(act, !inv);
        let (verdict, ns) = t.timed("satkit", "solve", || b.solver_mut().solve_with(&[act]));
        t.count_last("conflicts_so_far", b.solver_mut().conflicts());
        m.add("satkit.solve_ms", ms(ns));
        sums.solve_ns += ns;
        if verdict.is_sat() || b.solver_mut().failed_assumptions().is_empty() {
            break;
        }
        b.assert_lit(!act);
        if depth < bound {
            push_frame(&mut enc, &mut b, &mut frames, t, sums);
        }
    }
    sums.solver_totals(b.solver_mut(), m);
}

/// `certify_step`'s unrolling, rebuilt at the depth the proof closed at:
/// `k + 2` pairwise-distinct frames, the invariant on the first `k + 1`,
/// its negation on the last, one solve.
fn kind_layers(it: &Item, t: &mut Tracer, m: &mut Metrics, sums: &mut SatSums) {
    let Answer::Proof {
        report: Ok(report), ..
    } = &it.answer
    else {
        return;
    };
    let ProofVerdict::Proved { k } = report.verdict else {
        return;
    };
    m.add("kind.k", k as f64);
    m.add("kind.base_conflicts", report.stats.base_conflicts as f64);
    m.add("kind.step_conflicts", report.stats.step_conflicts as f64);
    m.add("kind.step_clauses", report.stats.step_clauses as f64);
    for span in t.spans() {
        if span.question == it.p.q.id && span.parent.is_none() {
            match span.name {
                call::PROVE | call::VERIFY_UNDER => {
                    m.add("kind.prove_ms", ms(span.duration_ns()));
                }
                call::CERTIFY_STEP => m.add("kind.certify_ms", ms(span.duration_ns())),
                _ => {}
            }
        }
    }

    let sys = it.p.proof_system();
    let pred =
        it.p.pred
            .as_ref()
            .expect("a proof question has a predicate");
    let mut enc = new_encoder(sys, t, m, sums);
    let mut b = CnfBuilder::new();
    let mut frames = vec![enc.new_frame(&mut b)];
    for _ in 0..=k {
        push_frame(&mut enc, &mut b, &mut frames, t, sums);
        let (_, ns) = t.timed("sym", "assert_frames_distinct", || {
            let (last, earlier) = frames.split_last().expect("at least two frames");
            for f in earlier {
                enc.assert_frames_distinct(&mut b, f, last);
            }
        });
        m.add("sym.distinct_ms", ms(ns));
        sums.sym_ns += ns;
    }
    for (i, frame) in frames.iter_mut().enumerate() {
        let lit = encode_pred(&mut enc, &mut b, frame, pred, t, m, sums);
        b.assert_lit(if i <= k { lit } else { !lit });
    }
    let (verdict, ns) = t.timed("satkit", "solve", || b.solver_mut().solve());
    t.count_last("conflicts_so_far", b.solver_mut().conflicts());
    assert!(verdict.is_unsat(), "the rebuilt step query must agree");
    m.add("satkit.solve_ms", ms(ns));
    sums.solve_ns += ns;
    sums.solver_totals(b.solver_mut(), m);
}

// ---- dfinder / incremental ----------------------------------------------

fn dfinder_layers(it: &Item, max_traps: usize, t: &mut Tracer, m: &mut Metrics) {
    let Answer::DFinder(report) = &it.answer else {
        return;
    };
    m.add("dfinder.places", report.places as f64);
    m.add("dfinder.traps", report.traps as f64);
    m.add("dfinder.linear_invariants", report.linear_invariants as f64);
    m.add("dfinder.sat_conflicts", report.sat_conflicts as f64);
    for span in t.spans() {
        if span.question == it.p.q.id && span.name == call::CHECK_DEADLOCK_FREEDOM {
            m.add("dfinder.check_ms", ms(span.duration_ns()));
        }
    }

    let sys = &it.p.sys;
    let cfg = DFinderConfig::new().max_traps(max_traps).threads(1);
    let (abs, ns) = t.timed("dfinder", "abstraction", || Abstraction::new(sys));
    m.add("dfinder.abstraction_ms", ms(ns));
    let (traps, ns) = t.timed("dfinder", "enumerate_traps", || {
        enumerate_traps_with(&abs, &cfg)
    });
    t.count_last("traps", traps.len() as u64);
    m.add("dfinder.traps_ms", ms(ns));
    assert_eq!(
        traps.len(),
        report.traps,
        "same enumeration as the engine's"
    );
    let (_, ns) = t.timed("dfinder", "linear_invariants", || {
        black_box(linear_invariants(
            &abs,
            DFinder::DEFAULT_MAX_COEFF,
            DFinder::DEFAULT_MAX_SUPPORT,
        ))
    });
    m.add("dfinder.linear_ms", ms(ns));
    m.set(
        "dfinder.traps_per_s",
        ratio(m.get("dfinder.traps") * 1e3, m.get("dfinder.traps_ms")),
    );
}

fn increment_layers(it: &Item, t: &mut Tracer, m: &mut Metrics) {
    let Answer::Increment { steps, .. } = &it.answer else {
        return;
    };
    for st in steps {
        m.add("incremental.traps_reused", st.traps_reused as f64);
        m.add("incremental.traps_added", st.traps_added as f64);
    }
    let add_ns: u64 = t
        .spans()
        .iter()
        .filter(|s| s.question == it.p.q.id && s.name == call::ADD_INTERACTION)
        .map(|s| s.duration_ns())
        .sum();
    m.add("incremental.add_ms", ms(add_ns));
    // One addition against building the whole station's invariants from
    // nothing: near 1.0 means nothing was saved.
    let Ask::Increment { max_traps, .. } = it.p.q.ask else {
        unreachable!("increment_layers takes the increment question");
    };
    let cfg = DFinderConfig::new().max_traps(max_traps).threads(1);
    let (_, scratch_ns) = t.timed("dfinder", "with_config", || {
        black_box(DFinder::with_config(&it.p.sys, &cfg));
    });
    m.set(
        "incremental.vs_scratch_ratio",
        ratio(add_ns as f64 / steps.len() as f64, scratch_ns as f64),
    );
}
