//! A prototype multi-job arbiter (§4.4's future work).
//!
//! "We plan to extend Jockey to reach globally optimal allocations when
//! managing multiple SLO-bound jobs. Doing so requires an additional
//! inter-job arbiter that dynamically shifts resources from jobs with
//! low expected marginal utility to those with high expected marginal
//! utility." This module implements the natural greedy version: starting
//! from each job's minimum, repeatedly grant one token to the job whose
//! expected utility improves the most, until the budget is exhausted or
//! no job benefits.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

use crate::predict::CompletionModel;
use crate::utility::UtilityFunction;

/// One job's state as seen by the arbiter.
#[derive(Clone)]
pub struct ArbiterJob {
    /// Completion model (typically a trained [`crate::cpa::CpaModel`]).
    pub model: Arc<dyn CompletionModel>,
    /// The job's utility function.
    pub utility: UtilityFunction,
    /// Current progress (from the job's indicator).
    pub progress: f64,
    /// Per-stage completion fractions (for Amdahl-style models).
    pub stage_fraction: Vec<f64>,
    /// Seconds since the job started.
    pub elapsed_secs: f64,
    /// Prediction slack multiplier.
    pub slack: f64,
}

impl ArbiterJob {
    fn utility_at(&self, allocation: u32) -> f64 {
        let remaining = self.slack
            * self
                .model
                .remaining_secs(&self.stage_fraction, self.progress, allocation);
        self.utility.eval(self.elapsed_secs + remaining)
    }
}

/// Greedily splits `budget` tokens across `jobs` by marginal utility.
///
/// Every job receives at least one token — the **1-token floor**: a
/// running job stripped to zero guaranteed tokens would be evicted
/// wholesale, so the floor is the smallest allocation that keeps it
/// schedulable. The floor is why callers managing a fixed budget must
/// keep `jobs.len() <= budget`; the [`crate::plane::ControlPlane`]
/// does so through admission and counts any breach in
/// [`crate::plane::PlaneStats::over_committed_rounds`]. Remaining
/// tokens go one at a time to the job with the highest marginal utility
/// gain; allocation stops early when no job's utility improves by more
/// than `1e-12` (granting tokens that help nobody would only hurt the
/// rest of the cluster). Each job is also capped at its model's
/// [`CompletionModel::max_allocation`].
///
/// Returns the per-job allocations, in input order.
///
/// Tokens are granted in **jumps** along each job's concave utility
/// envelope: a job's candidate is the jump size maximizing average
/// utility gain per token, not just the next single token. On concave
/// curves (closed-form models) the best jump is always one token and
/// the loop matches the classic single-token greedy exactly. The jump
/// matters for *learned* models ([`crate::online::ModelHandle`]): a
/// pessimistic learned row sitting below optimistic unexplored rows
/// makes utility non-concave in allocation, and a single-token scan
/// stalls in the zero-or-negative-gain valley right below a large
/// improvement — exactly the shape a drifted `C(p, a)` produces, where
/// it starves jobs below the allocation admission reserved for them.
///
/// A job's candidate jump changes only when *it* is granted tokens, so
/// the grant loop keeps one candidate per job in a max-heap and
/// re-inserts only the winner's next jump: O((jobs + budget) × (log
/// jobs + cap)) per split, where cap is the model allocation grid —
/// still far below the naive O(budget × jobs × cap) full rescan at a
/// 10k-job fleet. Ties are broken by the lowest job index, then the
/// smallest jump, matching the single-token rescan on concave inputs.
/// Allocation stops early when no job's average gain per token exceeds
/// `1e-12` (granting tokens that help nobody would only hurt the rest
/// of the cluster). Each job is capped at its model's
/// [`CompletionModel::max_allocation`].
///
/// # Panics
///
/// Panics if `budget < jobs.len()` (cannot give everyone a token) and
/// `jobs` is non-empty.
pub fn arbitrate(jobs: &[ArbiterJob], budget: u32) -> Vec<u32> {
    if jobs.is_empty() {
        return Vec::new();
    }
    assert!(
        budget as usize >= jobs.len(),
        "budget {budget} below job count {}",
        jobs.len()
    );
    let mut alloc: Vec<u32> = vec![1; jobs.len()];
    let mut remaining = budget - jobs.len() as u32;

    // Best jump from allocation `a`, scanning at most `limit` tokens
    // ahead: the (average gain per token, jump size) pair with the
    // highest rate. Non-finite gains are floored to -inf so a NaN
    // utility can never win tokens. Ties keep the smallest jump so
    // concave curves degrade to the single-token greedy.
    let best_jump = |job: &ArbiterJob, a: u32, limit: u32| -> Option<(f64, u32)> {
        let cap = job.model.max_allocation();
        if a >= cap || limit == 0 {
            return None; // At cap (or dry pool): no further candidate.
        }
        let base = job.utility_at(a);
        let mut best: Option<(f64, u32)> = None;
        for k in 1..=limit.min(cap - a) {
            let g = job.utility_at(a + k) - base;
            let rate = if g.is_finite() {
                g / f64::from(k)
            } else {
                f64::NEG_INFINITY
            };
            if best.is_none_or(|(r, _)| rate > r) {
                best = Some((rate, k));
            }
        }
        best
    };

    // (rate, Reverse(job), jump): pops the highest average gain, lowest
    // index first. One live entry per job; granting pushes the job's
    // next jump, so no entry ever goes stale — though a jump sized
    // before other grants shrank the pool may no longer fit and is
    // re-scanned under the tighter limit when popped.
    let mut heap: BinaryHeap<(OrderedGain, Reverse<usize>, u32)> =
        BinaryHeap::with_capacity(jobs.len());
    for (i, job) in jobs.iter().enumerate() {
        if let Some((rate, k)) = best_jump(job, 1, remaining) {
            heap.push((OrderedGain(rate), Reverse(i), k));
        }
    }
    while remaining > 0 {
        let Some((OrderedGain(rate), Reverse(i), k)) = heap.pop() else {
            break; // Every job is at its cap.
        };
        if rate <= 1e-12 {
            break; // Granting tokens that help nobody hurts the cluster.
        }
        if k > remaining {
            // Sized against a larger pool: re-scan within what's left.
            if let Some((r, k2)) = best_jump(&jobs[i], alloc[i], remaining) {
                heap.push((OrderedGain(r), Reverse(i), k2));
            }
            continue;
        }
        alloc[i] += k;
        remaining -= k;
        if let Some((r, k2)) = best_jump(&jobs[i], alloc[i], remaining) {
            heap.push((OrderedGain(r), Reverse(i), k2));
        }
    }
    alloc
}

/// A totally ordered f64 wrapper for the arbitration heap (inputs are
/// NaN-free by construction — `arbitrate` floors non-finite gains).
#[derive(PartialEq)]
struct OrderedGain(f64);

impl Eq for OrderedGain {}

impl PartialOrd for OrderedGain {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrderedGain {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jockey_simrt::time::SimDuration;

    /// remaining = work * (1 - progress) / a.
    struct Toy {
        work: f64,
    }

    impl CompletionModel for Toy {
        fn remaining_secs(&self, _fs: &[f64], progress: f64, allocation: u32) -> f64 {
            self.work * (1.0 - progress) / f64::from(allocation.max(1))
        }
        fn max_allocation(&self) -> u32 {
            100
        }
    }

    fn job(work: f64, deadline_mins: u64, progress: f64, elapsed_secs: f64) -> ArbiterJob {
        ArbiterJob {
            model: Arc::new(Toy { work }),
            utility: UtilityFunction::deadline(SimDuration::from_mins(deadline_mins)),
            progress,
            stage_fraction: vec![],
            elapsed_secs,
            slack: 1.0,
        }
    }

    #[test]
    fn tight_deadline_wins_tokens() {
        // Same work; one job has half the time left.
        let jobs = [job(36_000.0, 60, 0.0, 0.0), job(36_000.0, 120, 0.0, 0.0)];
        let alloc = arbitrate(&jobs, 20);
        assert!(alloc.iter().sum::<u32>() <= 20);
        assert!(alloc[0] > alloc[1], "{alloc:?}");
        // The tight job needs 10 tokens (36000/3600) to be on time.
        assert!(alloc[0] >= 10, "{alloc:?}");
    }

    #[test]
    fn stops_when_no_marginal_gain() {
        // Tiny jobs: one token each already maximizes utility.
        let jobs = [job(60.0, 60, 0.0, 0.0), job(60.0, 60, 0.0, 0.0)];
        let alloc = arbitrate(&jobs, 50);
        assert_eq!(alloc, vec![1, 1]);
    }

    #[test]
    fn budget_is_respected() {
        let jobs = [
            job(100_000.0, 30, 0.0, 0.0),
            job(100_000.0, 30, 0.0, 0.0),
            job(100_000.0, 30, 0.0, 0.0),
        ];
        let alloc = arbitrate(&jobs, 10);
        assert_eq!(alloc.iter().sum::<u32>(), 10);
    }

    #[test]
    fn progressed_jobs_release_demand() {
        let jobs = [job(36_000.0, 60, 0.9, 600.0), job(36_000.0, 60, 0.0, 600.0)];
        let alloc = arbitrate(&jobs, 20);
        assert!(alloc[1] > alloc[0], "{alloc:?}");
    }

    #[test]
    fn empty_input_is_empty_output() {
        assert!(arbitrate(&[], 10).is_empty());
    }

    /// remaining = table[a - 1]: arbitrary per-allocation curves, the
    /// shape a learned-with-floor model produces.
    struct Table {
        remaining: Vec<f64>,
    }

    impl CompletionModel for Table {
        fn remaining_secs(&self, _fs: &[f64], _progress: f64, allocation: u32) -> f64 {
            self.remaining[(allocation as usize - 1).min(self.remaining.len() - 1)]
        }
        fn max_allocation(&self) -> u32 {
            self.remaining.len() as u32
        }
    }

    #[test]
    fn jump_grants_escape_a_non_concave_valley() {
        // A drifted learned model blended with an optimistic floor: the
        // learned row at 2 tokens is *slower* than the floor's answer at
        // 1, so the single-token marginal gain at the floor is negative
        // — but three tokens meet the deadline outright. The jump grant
        // must climb out of the valley instead of stranding the job at
        // its 1-token floor.
        let jobs = [ArbiterJob {
            model: Arc::new(Table {
                remaining: vec![3_600.0, 5_460.0, 1_200.0, 900.0, 720.0],
            }),
            utility: UtilityFunction::deadline(SimDuration::from_secs_f64(3_000.0)),
            progress: 0.0,
            stage_fraction: vec![],
            elapsed_secs: 0.0,
            slack: 1.0,
        }];
        let alloc = arbitrate(&jobs, 12);
        assert_eq!(alloc, vec![3], "stranded below the valley");
    }

    #[test]
    fn oversized_jumps_rescan_within_the_shrunken_pool() {
        // Accelerating gains: both jobs' best jump is 2 tokens straight
        // to the 600-second rung, but after the first job takes it only
        // one token is left. The second job's stale 2-token candidate
        // must be re-scanned under the tighter limit and settle for the
        // single useful step to 8 000 s instead of stalling at the
        // floor.
        let table = || Table {
            remaining: vec![9_000.0, 8_000.0, 600.0, 300.0],
        };
        let mk = || ArbiterJob {
            model: Arc::new(table()),
            utility: UtilityFunction::deadline(SimDuration::from_secs_f64(1_000.0)),
            progress: 0.0,
            stage_fraction: vec![],
            elapsed_secs: 0.0,
            slack: 1.0,
        };
        let jobs = [mk(), mk()];
        let alloc = arbitrate(&jobs, 5);
        assert_eq!(alloc, vec![3, 2], "jump then clamped rescan");
    }

    #[test]
    #[should_panic(expected = "budget")]
    fn budget_below_job_count_panics() {
        let jobs = [job(1.0, 60, 0.0, 0.0), job(1.0, 60, 0.0, 0.0)];
        arbitrate(&jobs, 1);
    }

    /// The naive O(budget × jobs) rescan the heap version replaced:
    /// re-evaluates every job's marginal gain on every grant, taking the
    /// first index among ties.
    fn arbitrate_rescan(jobs: &[ArbiterJob], budget: u32) -> Vec<u32> {
        let mut alloc: Vec<u32> = vec![1; jobs.len()];
        let mut remaining = budget - jobs.len() as u32;
        let mut current_u: Vec<f64> = jobs.iter().map(|j| j.utility_at(1)).collect();
        while remaining > 0 {
            let mut best: Option<(usize, f64, f64)> = None;
            for (i, job) in jobs.iter().enumerate() {
                if alloc[i] >= job.model.max_allocation() {
                    continue;
                }
                let u_next = job.utility_at(alloc[i] + 1);
                let gain = u_next - current_u[i];
                if best.is_none_or(|(_, g, _)| gain > g) {
                    best = Some((i, gain, u_next));
                }
            }
            match best {
                Some((i, gain, u_next)) if gain > 1e-12 => {
                    alloc[i] += 1;
                    current_u[i] = u_next;
                    remaining -= 1;
                }
                _ => break,
            }
        }
        alloc
    }

    #[test]
    fn heap_grant_loop_matches_the_full_rescan() {
        // Pseudo-random fleets: mixed works, deadlines, progress and
        // elapsed times, across budgets from the floor to saturation.
        let mut state = 0x9e37_79b9_u64;
        let mut next = |m: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % m
        };
        for trial in 0..40 {
            let n = 1 + next(12) as usize;
            let jobs: Vec<ArbiterJob> = (0..n)
                .map(|_| {
                    job(
                        1_000.0 + next(50_000) as f64,
                        10 + next(110),
                        next(90) as f64 / 100.0,
                        next(3_600) as f64,
                    )
                })
                .collect();
            let budget = n as u32 + next(60) as u32;
            assert_eq!(
                arbitrate(&jobs, budget),
                arbitrate_rescan(&jobs, budget),
                "trial {trial}: {n} jobs, budget {budget}"
            );
        }
    }
}
