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

use crate::predict::CompletionModel;
use crate::utility::UtilityFunction;

/// One job's state as seen by the arbiter. The job's completion model
/// is passed beside it (see [`arbitrate`]), so a caller lends its
/// models for one split instead of storing them with the job.
#[derive(Clone)]
pub struct ArbiterJob {
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
    /// The job's utility if it finishes `remaining_secs` from now.
    fn utility_after(&self, remaining_secs: f64) -> f64 {
        self.utility
            .eval(self.elapsed_secs + self.slack * remaining_secs)
    }

    /// Appends the job's utility at allocations `1, 2, …` to `out`, up
    /// to `reach` or its **ceiling point**, whichever comes first: the
    /// first allocation whose utility equals
    /// [`UtilityFunction::ceiling`]. A job whose floor is already that
    /// point (on track) or whose reach is one token appends nothing.
    /// Each entry is one utility evaluation, and none is made past the
    /// point. The model is asked in requests that double what is
    /// filled (allocation 1, then 2, 3–4, 5–8, …), so a curve that
    /// stops early is not computed to its reach either.
    ///
    /// The curve stops at the point only while the gain up to it from
    /// every finite utility before it is finite; see [`arbitrate`] for
    /// why that makes the cut exact.
    fn push_curve(&self, model: &dyn CompletionModel, reach: usize, out: &mut Vec<f64>) {
        if reach <= 1 {
            return;
        }
        let ceiling = self.utility.ceiling();
        let start = out.len();
        // The lowest finite utility before the point; `INFINITY` while
        // there is none.
        let mut lowest = f64::INFINITY;
        let mut filled = 0;
        while filled < reach {
            let len = filled.max(1).min(reach - filled);
            out.resize(start + filled + len, 0.0);
            let chunk = &mut out[start + filled..];
            model.remaining_curve(
                &self.stage_fraction,
                self.progress,
                filled as u32 + 1,
                chunk,
            );
            for (j, v) in chunk.iter_mut().enumerate() {
                *v = self.utility_after(*v);
                if Some(*v) == ceiling && (lowest == f64::INFINITY || (*v - lowest).is_finite()) {
                    let end = filled + j + 1;
                    out.truncate(if end == 1 { start } else { start + end });
                    return;
                }
                if v.is_finite() {
                    lowest = lowest.min(*v);
                }
            }
            filled += len;
        }
    }
}

/// The buffers of one split, kept by a caller that splits repeatedly
/// (the [`crate::plane::ControlPlane`] keeps one under its refresh
/// gate), so a split of a fleet no larger than an earlier one
/// allocates nothing.
#[derive(Default)]
pub(crate) struct ArbiterScratch {
    /// The split: one allocation per job, in input order.
    alloc: Vec<u32>,
    /// `utility[offsets[i]..offsets[i + 1]]` is job `i`'s curve.
    offsets: Vec<usize>,
    /// Every job's utility curve, back to back.
    utility: Vec<f64>,
    /// The grant heap's storage.
    heap: Vec<(OrderedGain, Reverse<usize>, u32)>,
}

/// Greedily splits `budget` tokens across `jobs` by marginal utility,
/// predicting job `i`'s completion with `models[i]` (typically a
/// trained [`crate::cpa::CpaModel`]).
///
/// Every job receives at least one token — the **1-token floor**: a
/// running job stripped to zero guaranteed tokens would be evicted
/// wholesale, so the floor is the smallest allocation that keeps it
/// schedulable. The floor is why callers managing a fixed budget must
/// keep `jobs.len() <= budget`; the [`crate::plane::ControlPlane`]
/// does so through admission and counts any breach in
/// [`crate::plane::PlaneStats::over_committed_rounds`]. Remaining
/// tokens go to the job with the highest marginal utility gain;
/// allocation stops early when no job's average gain per token exceeds
/// `1e-12` (granting tokens that help nobody would only hurt the rest
/// of the cluster). Each job is also capped at its model's
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
/// Each job's utility curve is filled once, before any grant, and
/// every scan reads it. The curve stops at the job's **ceiling
/// point**, the first allocation whose utility equals
/// [`UtilityFunction::ceiling`] — the most its utility can ever
/// return, so for the paper's deadline utility the smallest
/// allocation that meets the deadline. Both cuts below are exact: the
/// split is bit for bit the one scanning every allocation gives.
///
/// - **On track.** A job whose floor is its ceiling point cannot gain
///   from any grant: every gain is at most zero or not finite, so its
///   candidates' rates are at most 0. The grant loop ends at the first
///   pop whose rate is at most `1e-12`; such a candidate could only
///   end it, and the next pop, of no higher rate, ends it just the
///   same. So the job keeps its floor with an empty curve and no grant
///   candidate, after one model query.
/// - **Behind.** Let a job at allocation `a` have its point at `p > a`
///   with a finite gain `g` from `a` to `p`; `g > 0`, since the
///   utility at `a` is below the ceiling. No utility exceeds the
///   ceiling, so every gain past `p` is at most `g` over a longer jump
///   (or not finite, rate `-inf`): a rate no higher than the jump to
///   `p`'s (IEEE rounding is monotone). A scan replaces its pick only
///   on a strictly greater rate, so it never picks a jump past `p`,
///   and a job granted up to `p` is on track there. Where no utility before `p` is finite, every gain from
///   them is not finite and every scan picks the one-token jump. The
///   curve is not cut where a gain to `p` would overflow.
///
/// A job's candidate jump changes only when *it* is granted tokens, so
/// the grant loop keeps one candidate per job in a max-heap and
/// re-inserts only the winner's next jump: O(jobs) floor queries,
/// O(behind × point) curve work for the jobs not on track, plus
/// O(budget × (log jobs + point)) for the grants, where a job's point
/// is at most the smaller of its model's allocation cap and one past
/// the pool — far below the naive O(budget × jobs × cap) full rescan
/// at a 10k-job fleet. Ties are broken by the lowest job index, then
/// the smallest jump, matching the single-token rescan on concave
/// inputs.
///
/// # Panics
///
/// Panics if `models` and `jobs` differ in length, or if
/// `budget < jobs.len()` (cannot give everyone a token) and `jobs` is
/// non-empty.
pub fn arbitrate(jobs: &[ArbiterJob], models: &[&dyn CompletionModel], budget: u32) -> Vec<u32> {
    let mut scratch = ArbiterScratch::default();
    arbitrate_into(jobs, models, budget, &mut scratch);
    scratch.alloc
}

/// [`arbitrate`] into `scratch`'s buffers, returning the split they
/// now hold.
pub(crate) fn arbitrate_into<'s>(
    jobs: &[ArbiterJob],
    models: &[&dyn CompletionModel],
    budget: u32,
    scratch: &'s mut ArbiterScratch,
) -> &'s [u32] {
    assert_eq!(models.len(), jobs.len(), "one model per job");
    let ArbiterScratch {
        alloc,
        offsets,
        utility,
        heap,
    } = scratch;
    alloc.clear();
    if jobs.is_empty() {
        return alloc;
    }
    assert!(
        budget as usize >= jobs.len(),
        "budget {budget} below job count {}",
        jobs.len()
    );
    alloc.resize(jobs.len(), 1);
    let mut remaining = budget - jobs.len() as u32;
    if remaining == 0 {
        return alloc;
    }

    // Job `i`'s curve covers allocations 1, 2, … up to its ceiling
    // point or its reach — all it can ever be granted (the pool, on top
    // of its floor, within its cap) — whichever comes first. A job that
    // can gain nothing, on track at its floor or capped at one token,
    // gets an empty curve, so it never enters the grant heap.
    // `offsets[i + 1]` first holds job `i`'s reach, which bounds its
    // curve, so the buffer is reserved once for a fleet of this size;
    // then the end of its curve.
    offsets.clear();
    offsets.push(0);
    offsets.extend(
        models
            .iter()
            .map(|model| model.max_allocation().min(remaining + 1) as usize),
    );
    utility.clear();
    utility.reserve(offsets.iter().sum());
    for (i, (job, model)) in jobs.iter().zip(models).enumerate() {
        job.push_curve(*model, offsets[i + 1], utility);
        offsets[i + 1] = utility.len();
    }
    let curve = |i: usize| &utility[offsets[i]..offsets[i + 1]];

    // Best jump from allocation `a` along utility curve `u`, scanning
    // at most `limit` tokens ahead: the (average gain per token, jump
    // size) pair with the highest rate. Non-finite gains are floored to
    // -inf so a NaN utility can never win tokens. Ties keep the
    // smallest jump so concave curves degrade to the single-token
    // greedy.
    let best_jump = |u: &[f64], a: u32, limit: u32| -> Option<(f64, u32)> {
        let reach = u.len() as u32;
        if a >= reach || limit == 0 {
            return None; // At the curve's end (or dry pool): no candidate.
        }
        let base = u[a as usize - 1];
        let ahead = &u[a as usize..(a + limit.min(reach - a)) as usize];
        let mut best: Option<(f64, u32)> = None;
        for (k, &next) in (1..).zip(ahead) {
            let g = next - base;
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
    // re-scanned under the tighter limit when popped. The first
    // entries are heapified in O(n); every key holds a distinct job
    // index, so the pop order is the one n pushes would give.
    heap.clear();
    heap.reserve(jobs.len());
    heap.extend((0..jobs.len()).filter_map(|i| {
        let (rate, k) = best_jump(curve(i), 1, remaining)?;
        Some((OrderedGain(rate), Reverse(i), k))
    }));
    let mut grants = BinaryHeap::from(std::mem::take(heap));
    while remaining > 0 {
        let Some((OrderedGain(rate), Reverse(i), k)) = grants.pop() else {
            break; // Every job is at its cap.
        };
        if rate <= 1e-12 {
            break; // Granting tokens that help nobody hurts the cluster.
        }
        if k > remaining {
            // Sized against a larger pool: re-scan within what's left.
            if let Some((r, k2)) = best_jump(curve(i), alloc[i], remaining) {
                grants.push((OrderedGain(r), Reverse(i), k2));
            }
            continue;
        }
        alloc[i] += k;
        remaining -= k;
        if let Some((r, k2)) = best_jump(curve(i), alloc[i], remaining) {
            grants.push((OrderedGain(r), Reverse(i), k2));
        }
    }
    *heap = grants.into_vec();
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
    use std::sync::Mutex;

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

    /// Jobs with the models that predict them, as `arbitrate` takes
    /// them apart.
    type Fleet = [(ArbiterJob, Box<dyn CompletionModel>)];

    fn split(fleet: &Fleet, budget: u32) -> Vec<u32> {
        let jobs: Vec<ArbiterJob> = fleet.iter().map(|(job, _)| job.clone()).collect();
        let models: Vec<&dyn CompletionModel> = fleet.iter().map(|(_, m)| m.as_ref()).collect();
        arbitrate(&jobs, &models, budget)
    }

    fn state(utility: UtilityFunction, progress: f64, elapsed_secs: f64) -> ArbiterJob {
        ArbiterJob {
            utility,
            progress,
            stage_fraction: vec![],
            elapsed_secs,
            slack: 1.0,
        }
    }

    fn job(
        work: f64,
        deadline_mins: u64,
        progress: f64,
        elapsed_secs: f64,
    ) -> (ArbiterJob, Box<dyn CompletionModel>) {
        let utility = UtilityFunction::deadline(SimDuration::from_mins(deadline_mins));
        (
            state(utility, progress, elapsed_secs),
            Box::new(Toy { work }),
        )
    }

    #[test]
    fn tight_deadline_wins_tokens() {
        // Same work; one job has half the time left.
        let jobs = [job(36_000.0, 60, 0.0, 0.0), job(36_000.0, 120, 0.0, 0.0)];
        let alloc = split(&jobs, 20);
        assert!(alloc.iter().sum::<u32>() <= 20);
        assert!(alloc[0] > alloc[1], "{alloc:?}");
        // The tight job needs 10 tokens (36000/3600) to be on time.
        assert!(alloc[0] >= 10, "{alloc:?}");
    }

    #[test]
    fn stops_when_no_marginal_gain() {
        // Tiny jobs: one token each already maximizes utility.
        let jobs = [job(60.0, 60, 0.0, 0.0), job(60.0, 60, 0.0, 0.0)];
        let alloc = split(&jobs, 50);
        assert_eq!(alloc, vec![1, 1]);
    }

    #[test]
    fn budget_is_respected() {
        let jobs = [
            job(100_000.0, 30, 0.0, 0.0),
            job(100_000.0, 30, 0.0, 0.0),
            job(100_000.0, 30, 0.0, 0.0),
        ];
        let alloc = split(&jobs, 10);
        assert_eq!(alloc.iter().sum::<u32>(), 10);
    }

    #[test]
    fn progressed_jobs_release_demand() {
        let jobs = [job(36_000.0, 60, 0.9, 600.0), job(36_000.0, 60, 0.0, 600.0)];
        let alloc = split(&jobs, 20);
        assert!(alloc[1] > alloc[0], "{alloc:?}");
    }

    #[test]
    fn empty_input_is_empty_output() {
        assert!(arbitrate(&[], &[], 10).is_empty());
    }

    #[test]
    #[should_panic(expected = "one model per job")]
    fn a_missing_model_panics() {
        let (state, _) = job(1.0, 60, 0.0, 0.0);
        arbitrate(&[state], &[], 10);
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

    fn table_job(
        remaining: Vec<f64>,
        utility: UtilityFunction,
    ) -> (ArbiterJob, Box<dyn CompletionModel>) {
        (state(utility, 0.0, 0.0), Box::new(Table { remaining }))
    }

    #[test]
    fn jump_grants_escape_a_non_concave_valley() {
        // A drifted learned model blended with an optimistic floor: the
        // learned row at 2 tokens is *slower* than the floor's answer at
        // 1, so the single-token marginal gain at the floor is negative
        // — but three tokens meet the deadline outright. The jump grant
        // must climb out of the valley instead of stranding the job at
        // its 1-token floor.
        let jobs = [table_job(
            vec![3_600.0, 5_460.0, 1_200.0, 900.0, 720.0],
            UtilityFunction::deadline(SimDuration::from_secs_f64(3_000.0)),
        )];
        let alloc = split(&jobs, 12);
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
        let mk = || {
            table_job(
                vec![9_000.0, 8_000.0, 600.0, 300.0],
                UtilityFunction::deadline(SimDuration::from_secs_f64(1_000.0)),
            )
        };
        let jobs = [mk(), mk()];
        let alloc = split(&jobs, 5);
        assert_eq!(alloc, vec![3, 2], "jump then clamped rescan");
    }

    #[test]
    #[should_panic(expected = "budget")]
    fn budget_below_job_count_panics() {
        let jobs = [job(1.0, 60, 0.0, 0.0), job(1.0, 60, 0.0, 0.0)];
        split(&jobs, 1);
    }

    /// A [`Toy`] that records every allocation it is asked about.
    struct Asked {
        toy: Toy,
        asked: Mutex<Vec<u32>>,
    }

    impl CompletionModel for Asked {
        fn remaining_secs(&self, fs: &[f64], progress: f64, allocation: u32) -> f64 {
            self.asked.lock().unwrap().push(allocation);
            self.toy.remaining_secs(fs, progress, allocation)
        }
        fn max_allocation(&self) -> u32 {
            self.toy.max_allocation()
        }
    }

    #[test]
    fn on_track_jobs_are_asked_for_their_floor_only() {
        let asked = |work| Asked {
            toy: Toy { work },
            asked: Mutex::new(Vec::new()),
        };
        // Job 0 meets its hour at one token; job 1 is behind and needs
        // ten; job 2 would also finish in time at one token, but its
        // utility keeps rising the earlier it finishes, so it has no
        // ceiling to be on track at.
        let models = [asked(600.0), asked(36_000.0), asked(600.0)];
        let hour = UtilityFunction::deadline(SimDuration::from_mins(60));
        let rising = UtilityFunction::from_knots(vec![(0.0, 1.0), (3_600.0, 0.0)]);
        let jobs = [
            state(hour.clone(), 0.0, 0.0),
            state(hour, 0.0, 0.0),
            state(rising, 0.0, 0.0),
        ];
        let refs: Vec<&dyn CompletionModel> = models.iter().map(|m| m as _).collect();
        let alloc = arbitrate(&jobs, &refs, 40);
        assert_eq!(alloc[0], 1, "{alloc:?}");
        assert!(alloc[1] >= 10, "{alloc:?}");
        let asked: Vec<Vec<u32>> = models
            .iter()
            .map(|m| m.asked.lock().unwrap().clone())
            .collect();
        assert_eq!(asked[0], vec![1], "an on-track job is asked past its floor");
        // Job 1's curve stops at ten tokens, inside the request for
        // 9..=16; job 2's runs to its reach.
        assert_eq!(asked[1], (1..=16).collect::<Vec<_>>());
        assert_eq!(asked[2], (1..=38).collect::<Vec<_>>());
    }

    #[test]
    fn behind_jobs_curves_stop_at_their_ceiling_point() {
        // 36 000 s of work first meets the hour at ten tokens.
        let hour = UtilityFunction::deadline(SimDuration::from_mins(60));
        let job = state(hour, 0.0, 0.0);
        let model = Asked {
            toy: Toy { work: 36_000.0 },
            asked: Mutex::new(Vec::new()),
        };
        let mut curve = vec![f64::NAN];
        job.push_curve(&model, 38, &mut curve);
        // One utility evaluation per entry, the last at the point; the
        // entry already in the buffer is kept.
        assert_eq!(curve.len(), 1 + 10, "{curve:?}");
        assert!(curve[0].is_nan());
        assert_eq!(curve[10], 1.0);
        assert!(curve[1..10].iter().all(|&u| u < 1.0), "{curve:?}");
        // The model is asked in requests that double the curve: 1, 2,
        // 3..=4, 5..=8 and 9..=16, never up to the reach.
        assert_eq!(*model.asked.lock().unwrap(), (1..=16).collect::<Vec<_>>());
    }

    /// A job's utility at `allocation`, queried from its model directly.
    fn utility_at(job: &ArbiterJob, model: &dyn CompletionModel, allocation: u32) -> f64 {
        let remaining =
            job.slack * model.remaining_secs(&job.stage_fraction, job.progress, allocation);
        job.utility.eval(job.elapsed_secs + remaining)
    }

    /// The naive full rescan the heap version replaced: on every grant,
    /// re-evaluates every job's best jump within the pool left, one
    /// model query per allocation and no memo, and grants the highest
    /// average gain per token (first index, then smallest jump, among
    /// ties). On concave curves every best jump is one token and this
    /// is the classic single-token greedy. It scans on-track jobs like
    /// every other.
    fn arbitrate_rescan(fleet: &Fleet, budget: u32) -> Vec<u32> {
        let mut alloc: Vec<u32> = vec![1; fleet.len()];
        let mut remaining = budget - fleet.len() as u32;
        while remaining > 0 {
            let mut best: Option<(f64, usize, u32)> = None;
            for (i, (job, model)) in fleet.iter().enumerate() {
                let cap = model.max_allocation();
                if alloc[i] >= cap {
                    continue;
                }
                let base = utility_at(job, model.as_ref(), alloc[i]);
                for k in 1..=remaining.min(cap - alloc[i]) {
                    let g = utility_at(job, model.as_ref(), alloc[i] + k) - base;
                    let rate = if g.is_finite() {
                        g / f64::from(k)
                    } else {
                        f64::NEG_INFINITY
                    };
                    if best.is_none_or(|(r, _, _)| rate > r) {
                        best = Some((rate, i, k));
                    }
                }
            }
            match best {
                Some((rate, i, k)) if rate > 1e-12 => {
                    alloc[i] += k;
                    remaining -= k;
                }
                _ => break,
            }
        }
        alloc
    }

    /// A small linear congruential generator: `next(m)` is uniform-ish
    /// in `0..m`.
    fn lcg(mut state: u64) -> impl FnMut(u64) -> u64 {
        move |m| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % m
        }
    }

    #[test]
    fn heap_grant_loop_matches_the_full_rescan() {
        // Pseudo-random fleets: mixed works, deadlines, progress and
        // elapsed times, across budgets from the floor to saturation.
        let mut next = lcg(0x9e37_79b9);
        for trial in 0..40 {
            let n = 1 + next(12) as usize;
            let jobs: Vec<_> = (0..n)
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
                split(&jobs, budget),
                arbitrate_rescan(&jobs, budget),
                "trial {trial}: {n} jobs, budget {budget}"
            );
        }
    }

    /// Property: on arbitrary per-allocation curves — NaN and infinite
    /// predictions (at the floor too), utilities that reach ±inf, caps
    /// above and below the pool, zero-gain plateaus in front of large
    /// drops, utilities whose knots never rise (flat prefixes, tied
    /// values, shifted deadlines) beside ones with a rising knot, and
    /// fleets where most jobs are on track at their floor, and fleets
    /// whose jobs first meet their ceiling at every allocation from 2
    /// to the reach, and past it — the memoised heap split, with its
    /// on-track skip and its curves cut at the ceiling point, equals
    /// the per-query full rescan.
    #[test]
    fn memoised_split_matches_the_rescan_on_arbitrary_curves() {
        let mut next = lcg(0x2545_f491_4f6c_dd1d);
        let mut on_track = 0;
        let mut jobs_seen = 0;
        // `within[p]`: jobs whose ceiling point `p` lay within their
        // reach; `beyond`: jobs whose point lay past a pool too small
        // for the jump to it.
        let mut within = [0; 25];
        let mut beyond = 0;
        for trial in 0..600 {
            let n = 1 + next(8) as usize;
            // One trial in three is a fleet mostly on track: loose
            // deadlines and short work. Another is a fleet of jobs
            // behind below a drawn allocation and meeting the deadline
            // at it.
            let easy = trial % 3 == 0;
            let pointed = trial % 3 == 1;
            let jobs: Vec<_> = (0..n)
                .map(|_| {
                    // The drawn allocation, and a cap at or above it.
                    let point = 2 + next(23) as usize;
                    let cap = if pointed {
                        point + next(25 - point as u64) as usize
                    } else {
                        1 + next(24) as usize
                    };
                    let mut cur = if easy {
                        50.0 + next(500) as f64
                    } else {
                        500.0 + next(9_000) as f64
                    };
                    let mut remaining: Vec<f64> = (0..cap)
                        .map(|_| match next(12) {
                            0 => f64::NAN,
                            1 => f64::INFINITY,
                            2 => f64::NEG_INFINITY,
                            // A plateau: the same answer as the last
                            // allocation, a zero-gain step.
                            3 | 4 => cur,
                            // A drop, large or small.
                            _ => {
                                cur = (cur - next(3_000) as f64).max(1.0);
                                cur
                            }
                        })
                        .collect();
                    // Non-finite predictions at the floor, more often
                    // than the draw above gives them.
                    match next(10) {
                        0 => remaining[0] = f64::NAN,
                        1 => remaining[0] = f64::INFINITY,
                        2 => remaining[0] = f64::NEG_INFINITY,
                        _ => {}
                    }
                    if pointed {
                        // Far behind below the point (NaN and +inf
                        // stay: they are never at the ceiling), a short
                        // remainder at it, the draw above it.
                        for r in &mut remaining[..point - 1] {
                            if !(r.is_nan() || *r == f64::INFINITY) {
                                *r = 20_000.0 + next(10_000) as f64;
                            }
                        }
                        remaining[point - 1] = next(100) as f64;
                    }
                    let horizon = if easy { 20_000 } else { 6_000 };
                    let deadline = UtilityFunction::deadline(SimDuration::from_secs_f64(
                        600.0 + next(horizon) as f64,
                    ));
                    let utility = match next(6) {
                        // A rising knot: the utility has no ceiling and
                        // its final slope reaches +inf.
                        0 => UtilityFunction::from_knots(vec![(0.0, 0.0), (1_000.0, 1.0)]),
                        // Never rising, with a flat prefix and tied
                        // values.
                        1 => {
                            let top = next(5) as f64;
                            let t = 200.0 + next(horizon) as f64;
                            UtilityFunction::from_knots(vec![
                                (0.0, top),
                                (t, top),
                                (t + 300.0, top),
                                (t + 600.0, top - 1.0),
                                (t + 900.0, top - 1.0),
                                (t + 5_000.0, top - 50.0),
                            ])
                        }
                        // Rising after a flat prefix.
                        2 => UtilityFunction::from_knots(vec![
                            (0.0, 1.0),
                            (500.0, 1.0),
                            (2_000.0, 0.0),
                            (4_000.0, 0.5),
                        ]),
                        // The control loop's dead zone: knots before 0.
                        3 => deadline
                            .shifted_left(SimDuration::from_secs_f64(next(1_500) as f64 + 0.25)),
                        _ => deadline,
                    };
                    let job = ArbiterJob {
                        utility,
                        progress: 0.0,
                        stage_fraction: vec![],
                        elapsed_secs: next(if pointed { 200 } else { 1_200 }) as f64,
                        slack: 1.0 + next(3) as f64 / 10.0,
                    };
                    let model: Box<dyn CompletionModel> = Box::new(Table { remaining });
                    if !pointed {
                        jobs_seen += 1;
                        if job.utility.ceiling() == Some(utility_at(&job, model.as_ref(), 1)) {
                            on_track += 1;
                        }
                    }
                    (job, model)
                })
                .collect();
            let budget = n as u32 + next(40) as u32;
            assert_eq!(
                split(&jobs, budget),
                arbitrate_rescan(&jobs, budget),
                "trial {trial}: {n} jobs, budget {budget}"
            );
            let pool = (budget - n as u32) as usize;
            for (job, model) in &jobs {
                let cap = model.max_allocation();
                let point = (2..=cap)
                    .find(|&a| job.utility.ceiling() == Some(utility_at(job, model.as_ref(), a)));
                match point {
                    Some(p) if p as usize <= pool + 1 => within[p as usize] += 1,
                    Some(_) => beyond += 1,
                    None => {}
                }
            }
        }
        // Outside the pointed fleets, both kinds of job are well
        // represented; the ceiling point lands everywhere.
        assert!(
            on_track * 4 > jobs_seen && on_track * 4 < 3 * jobs_seen,
            "{on_track} of {jobs_seen} jobs on track"
        );
        assert!(within[2..].iter().all(|&k| k > 0), "{within:?}");
        assert!(beyond > 0);
    }
}
