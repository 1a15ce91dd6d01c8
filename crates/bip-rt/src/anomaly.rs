//! Timing anomalies and time robustness (§5.2.2, E8).
//!
//! "Unfortunately, the intuitive idea that safety of implementation is
//! preserved for increasing performance turns out to be wrong. That is if
//! φ′ < φ, safety for φ does not imply safety for φ′. [...] A direct
//! consequence of timing anomalies is that safety for WCET does not
//! guarantee safety for smaller execution times. Preservation of safety by
//! time-performance is called time robustness in \[1\] where it is shown that
//! this property holds for deterministic models."
//!
//! We reproduce the phenomenon with the classical multiprocessor
//! list-scheduling anomaly (Graham): a job DAG scheduled greedily on `m`
//! processors can take *longer* when a job gets *faster*, because the freed
//! processor makes a worse nondeterministic choice available. A
//! deterministic variant (jobs statically assigned to processors) is
//! monotone — time-robust — exactly as the paper states.

use std::collections::HashMap;

/// A job-shop instance: jobs with durations and precedence constraints,
/// scheduled on `processors` identical machines.
#[derive(Debug, Clone)]
pub struct JobShop {
    /// Number of processors.
    pub processors: usize,
    /// Job durations, indexed by job id.
    pub durations: Vec<u64>,
    /// Precedences `(before, after)`.
    pub precedences: Vec<(usize, usize)>,
    /// Priority list: lower index = scheduled first among ready jobs
    /// (list scheduling; this is the nondeterminism-resolution rule whose
    /// interplay with durations produces the anomaly).
    pub priority: Vec<usize>,
}

impl JobShop {
    /// The classical 9-job Graham-style instance exhibiting the anomaly on
    /// 3 processors: at the original durations the greedy list schedule
    /// finishes at 12; with every duration reduced by 1 it finishes at 13.
    ///
    /// Jobs `T1=3, T2=2, T3=2, T4=2, T5..T8=4, T9=9`; `T4 ≺ T5..T8` and
    /// `T1 ≺ T9`. Shrinking the early jobs frees processors at an instant
    /// where the priority list prefers the four medium jobs over the long
    /// `T9`, which then starts late.
    pub fn graham() -> JobShop {
        let durations = vec![3, 2, 2, 2, 4, 4, 4, 4, 9];
        let precedences = vec![(3, 4), (3, 5), (3, 6), (3, 7), (0, 8)];
        JobShop {
            processors: 3,
            durations,
            precedences,
            priority: (0..9).collect(),
        }
    }

    /// Same structure with all durations reduced by `delta` (saturating) —
    /// the "faster machine" φ′ < φ.
    pub fn speed_up(&self, delta: u64) -> JobShop {
        let mut j = self.clone();
        for d in &mut j.durations {
            *d = d.saturating_sub(delta).max(1);
        }
        j
    }
}

/// Outcome of the anomaly experiment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnomalyOutcome {
    /// Makespan with the original (worst-case) durations.
    pub makespan_wcet: u64,
    /// Makespan with the *reduced* durations.
    pub makespan_faster: u64,
    /// `true` if the anomaly manifests (faster durations, longer makespan).
    pub anomalous: bool,
}

/// Greedy list scheduling (nondeterministic model resolved by the priority
/// list): whenever a processor is free, start the highest-priority ready
/// job. Returns the makespan.
#[must_use]
pub fn greedy_makespan(shop: &JobShop) -> u64 {
    let n = shop.durations.len();
    let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n];
    for &(b, a) in &shop.precedences {
        preds[a].push(b);
    }
    let mut finish: HashMap<usize, u64> = HashMap::new();
    let mut proc_free: Vec<u64> = vec![0; shop.processors];
    let mut started: Vec<bool> = vec![false; n];
    let mut now = 0u64;
    let mut running: Vec<(u64, usize)> = Vec::new(); // (end, job)
    loop {
        // Complete jobs finishing at `now`.
        running.retain(|&(end, job)| {
            if end <= now {
                finish.insert(job, end);
                false
            } else {
                true
            }
        });
        // Start ready jobs on free processors, in priority order.
        loop {
            let free_proc = proc_free.iter().position(|&t| t <= now);
            let Some(p) = free_proc else { break };
            let ready = shop.priority.iter().copied().find(|&j| {
                !started[j]
                    && preds[j]
                        .iter()
                        .all(|&q| finish.get(&q).is_some_and(|&e| e <= now))
            });
            match ready {
                Some(j) => {
                    started[j] = true;
                    let end = now + shop.durations[j];
                    proc_free[p] = end;
                    running.push((end, j));
                }
                None => break,
            }
        }
        if finish.len() == n {
            return finish.values().copied().max().unwrap_or(0);
        }
        // Advance to the next completion.
        let next = running.iter().map(|&(e, _)| e).min();
        match next {
            Some(t) => now = now.max(t),
            None => {
                // No job running and none ready: cyclic precedence.
                panic!("precedence cycle in job shop");
            }
        }
    }
}

/// Deterministic (statically partitioned) schedule: job `j` always runs on
/// processor `j % m`, in priority order per processor. Monotone in the
/// durations — the time-robust reference.
#[must_use]
pub fn partitioned_makespan(shop: &JobShop) -> u64 {
    let n = shop.durations.len();
    let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n];
    for &(b, a) in &shop.precedences {
        preds[a].push(b);
    }
    let mut finish: Vec<Option<u64>> = vec![None; n];
    let mut proc_free: Vec<u64> = vec![0; shop.processors];
    // Schedule jobs in priority order, respecting the static assignment:
    // iterate until all placed (precedences may delay).
    let mut remaining: Vec<usize> = shop.priority.clone();
    while !remaining.is_empty() {
        let mut progressed = false;
        let mut next_round = Vec::new();
        for &j in &remaining {
            let ready = preds[j].iter().all(|&q| finish[q].is_some());
            if !ready {
                next_round.push(j);
                continue;
            }
            let release = preds[j]
                .iter()
                .map(|&q| finish[q].unwrap_or(0))
                .max()
                .unwrap_or(0);
            let p = j % shop.processors;
            let start = proc_free[p].max(release);
            let end = start + shop.durations[j];
            proc_free[p] = end;
            finish[j] = Some(end);
            progressed = true;
        }
        assert!(progressed, "precedence cycle in job shop");
        remaining = next_round;
    }
    finish.into_iter().flatten().max().unwrap_or(0)
}

/// Run the anomaly experiment: schedule at WCET and at reduced durations.
/// On [`JobShop::graham`] with `delta = 1` the outcome is anomalous (unit
/// test `graham_anomaly_manifests`).
#[must_use]
pub fn anomaly_experiment(shop: &JobShop, delta: u64) -> AnomalyOutcome {
    let wcet = greedy_makespan(shop);
    let faster = greedy_makespan(&shop.speed_up(delta));
    AnomalyOutcome {
        makespan_wcet: wcet,
        makespan_faster: faster,
        anomalous: faster > wcet,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn graham_anomaly_manifests() {
        let shop = JobShop::graham();
        let out = anomaly_experiment(&shop, 1);
        assert!(
            out.anomalous,
            "reducing every duration must increase the greedy makespan: {out:?}"
        );
        assert!(out.makespan_faster > out.makespan_wcet);
    }

    #[test]
    fn partitioned_schedule_is_time_robust() {
        // The deterministic (static) schedule is monotone under speed-ups
        // across a sweep of deltas.
        let shop = JobShop::graham();
        let mut prev = partitioned_makespan(&shop);
        for delta in 1..=3 {
            let faster = partitioned_makespan(&shop.speed_up(delta));
            assert!(
                faster <= prev,
                "deterministic model must be monotone: delta={delta}, {faster} > {prev}"
            );
            prev = faster;
        }
    }

    #[test]
    fn greedy_respects_precedences() {
        let shop = JobShop {
            processors: 1,
            durations: vec![2, 3],
            precedences: vec![(0, 1)],
            priority: vec![1, 0], // priority says job 1 first, but it must wait
        };
        assert_eq!(greedy_makespan(&shop), 5);
    }

    #[test]
    fn single_processor_is_sum() {
        let shop = JobShop {
            processors: 1,
            durations: vec![1, 2, 3],
            precedences: vec![],
            priority: vec![0, 1, 2],
        };
        assert_eq!(greedy_makespan(&shop), 6);
        assert_eq!(partitioned_makespan(&shop), 6);
    }

    #[test]
    fn more_processors_never_hurt_deterministic() {
        let shop = JobShop {
            processors: 2,
            durations: vec![4, 4, 4, 4],
            precedences: vec![],
            priority: vec![0, 1, 2, 3],
        };
        assert_eq!(greedy_makespan(&shop), 8);
    }

    #[test]
    #[should_panic(expected = "precedence cycle")]
    fn cycle_detected() {
        let shop = JobShop {
            processors: 1,
            durations: vec![1, 1],
            precedences: vec![(0, 1), (1, 0)],
            priority: vec![0, 1],
        };
        let _ = greedy_makespan(&shop);
    }
}
