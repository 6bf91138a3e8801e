//! Completion-time prediction: the [`CompletionModel`] trait and the
//! modified Amdahl's-Law model (§4.1).
//!
//! §4.1 derives the Amdahl model as follows: let `S` be the critical
//! path length and `P` the aggregate CPU time off the critical path;
//! with `N` processors the job takes `S + P/N`. At runtime, across
//! stages with unfinished tasks,
//!
//! ```text
//! S_t = max_{s: f_s<1} (1 − f_s)·l_s + L_s
//! P_t = Σ_{s: f_s<1} (1 − f_s)·T_s
//! remaining(a) = S_t + P_t / a
//! ```
//!
//! where `l_s` is the longest task runtime in stage `s`, `L_s` the
//! longest path from `s` to the end of the job, and `T_s` the stage's
//! total CPU time — all estimable from a prior run.

use std::sync::Arc;

use jockey_jobgraph::graph::JobGraph;
use jockey_jobgraph::profile::JobProfile;
use jockey_simrt::time::SimDuration;

/// Predicts the remaining completion time of a job.
///
/// Implementations receive both the raw per-stage completion fractions
/// `fs` and the scalar `progress` (from a [`crate::progress::IndicatorContext`]):
/// the Amdahl model uses `fs`, the `C(p, a)` model uses `progress`.
pub trait CompletionModel: Send + Sync {
    /// Estimated remaining seconds until completion given per-stage
    /// fractions `fs`, scalar progress `progress`, and token
    /// allocation `allocation`.
    fn remaining_secs(&self, fs: &[f64], progress: f64, allocation: u32) -> f64;

    /// The largest allocation worth considering (the search upper
    /// bound for the control loop).
    fn max_allocation(&self) -> u32;

    /// The remaining-time curve over consecutive allocations: writes
    /// `remaining_secs(fs, progress, first + i)` to `out[i]` for every
    /// `i`, each value equal to the single query bit for bit.
    ///
    /// So an entry does not depend on where the request starts or how
    /// long it is: [`crate::arbiter::arbitrate`] asks for a job's floor
    /// allocation alone, then for allocations `2`, `3..=4`, `5..=8`, …
    /// until the job's utility reaches its ceiling, and relies on the
    /// requests answering what one curve from 1 would.
    ///
    /// A few calls answer what an arbitration refresh asks of a job
    /// that is behind — every allocation its grant scans can reach —
    /// and one call what a [`crate::control::JockeyController`] tick
    /// asks — every candidate of the §4.3 argmin — so a model whose
    /// per-query work repeats (a table lookup, a grid search, Amdahl's
    /// per-stage sums) does that work once per request, not once per
    /// allocation. The default asks the single query per allocation.
    fn remaining_curve(&self, fs: &[f64], progress: f64, first: u32, out: &mut [f64]) {
        for (a, v) in (first..).zip(out.iter_mut()) {
            *v = self.remaining_secs(fs, progress, a);
        }
    }

    /// The smallest allocation whose slack-inflated fresh prediction
    /// (progress 0, per-stage fractions `fs`) meets `deadline`, if any
    /// does — the a-priori sizing used by admission control.
    ///
    /// The default cannot assume the prediction is monotone in the
    /// allocation, so it uses [`min_feasible_allocation`]'s exhaustive
    /// scan; models that *know* their fresh-latency curve is monotone
    /// (e.g. [`crate::cpa::CpaModel`]'s checked grid column) call the
    /// same helper with the binary-search fast path enabled.
    fn size_for_deadline(&self, fs: &[f64], deadline: SimDuration, slack: f64) -> Option<u32> {
        let d = deadline.as_secs_f64();
        min_feasible_allocation(self.max_allocation(), false, |a| {
            self.remaining_secs(fs, 0.0, a) * slack <= d
        })
    }

    /// A frozen view to answer one batch of queries from — one
    /// arbitration refresh — or `None` (the default) when the model
    /// already answers from fixed state and is queried directly.
    ///
    /// A model that resolves shared state on every query, such as
    /// [`crate::online::ModelHandle`] reading its store's newest
    /// snapshot, returns that state resolved once: the batch pays the
    /// resolution once instead of per query, and every answer in it
    /// comes from the same generation. The view must answer exactly
    /// what the model would have answered at the moment it was taken.
    fn pinned(&self) -> Option<Arc<dyn CompletionModel>> {
        None
    }
}

/// The smallest allocation in `1..=max` satisfying `fits`, or `None`.
///
/// This is the single deadline-sizing search shared by every model:
/// with `monotone` the predicate is trusted to be non-decreasing in the
/// allocation (`false…false true…true`) and the answer is found by
/// binary search after one feasibility probe at `max`; without it, an
/// exhaustive ascending scan runs. Both paths return identical answers
/// whenever the predicate really is monotone — the equivalence test
/// below sweeps randomized grids to hold them to that.
pub fn min_feasible_allocation(
    max: u32,
    monotone: bool,
    fits: impl Fn(u32) -> bool,
) -> Option<u32> {
    if max == 0 {
        return None;
    }
    if !monotone {
        return (1..=max).find(|&a| fits(a));
    }
    if !fits(max) {
        return None;
    }
    // Invariant: fits(hi); find the first fitting allocation.
    let (mut lo, mut hi) = (1_u32, max);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if fits(mid) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    Some(hi)
}

/// The modified Amdahl's-Law model, used by "Jockey w/o simulator".
#[derive(Clone, Debug)]
pub struct AmdahlModel {
    /// `l_s` per stage.
    max_runtime: Vec<f64>,
    /// `L_s` per stage.
    longest_path: Vec<f64>,
    /// `T_s` per stage.
    total_exec: Vec<f64>,
    /// Search upper bound for allocations.
    max_allocation: u32,
}

impl AmdahlModel {
    /// Builds the model from a training profile.
    ///
    /// # Panics
    ///
    /// Panics if the profile and graph disagree on stage count, or
    /// `max_allocation` is zero.
    pub fn new(graph: &JobGraph, profile: &JobProfile, max_allocation: u32) -> Self {
        assert!(max_allocation > 0);
        assert_eq!(graph.num_stages(), profile.stages.len());
        AmdahlModel {
            max_runtime: profile.max_runtimes(),
            longest_path: profile.longest_paths(graph),
            total_exec: profile.stages.iter().map(|s| s.total_exec()).collect(),
            max_allocation,
        }
    }

    /// `S_t`: remaining critical path at fractions `fs`.
    pub fn remaining_critical_path(&self, fs: &[f64]) -> f64 {
        let mut st: f64 = 0.0;
        for (s, &f) in fs.iter().enumerate() {
            if f < 1.0 {
                st = st.max((1.0 - f) * self.max_runtime[s] + self.longest_path[s]);
            }
        }
        st
    }

    /// `P_t`: total remaining CPU seconds at fractions `fs`.
    pub fn remaining_work(&self, fs: &[f64]) -> f64 {
        fs.iter()
            .enumerate()
            .filter(|&(_, &f)| f < 1.0)
            .map(|(s, &f)| (1.0 - f) * self.total_exec[s])
            .sum()
    }

    /// `(S_t, P_t)` at fractions `fs`, where §4.1's `P` is the
    /// aggregate CPU time *minus the time on the critical path*: work
    /// on the critical path is already accounted for by the serial
    /// term `S_t`.
    fn serial_and_parallel(&self, fs: &[f64]) -> (f64, f64) {
        assert_eq!(fs.len(), self.max_runtime.len(), "fs length mismatch");
        let st = self.remaining_critical_path(fs);
        (st, (self.remaining_work(fs) - st).max(0.0))
    }
}

impl CompletionModel for AmdahlModel {
    fn remaining_secs(&self, fs: &[f64], _progress: f64, allocation: u32) -> f64 {
        let (st, pt) = self.serial_and_parallel(fs);
        st + pt / f64::from(allocation.max(1))
    }

    /// `S_t` and `P_t` summed once for the whole curve.
    fn remaining_curve(&self, fs: &[f64], _progress: f64, first: u32, out: &mut [f64]) {
        let (st, pt) = self.serial_and_parallel(fs);
        for (a, v) in (first..).zip(out.iter_mut()) {
            *v = st + pt / f64::from(a.max(1));
        }
    }

    fn max_allocation(&self) -> u32 {
        self.max_allocation
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jockey_jobgraph::graph::{EdgeKind, JobGraphBuilder};
    use jockey_jobgraph::profile::ProfileBuilder;
    use jockey_jobgraph::StageId;

    /// map(4 tasks x 10 s) --barrier--> reduce(2 tasks x 30 s).
    fn fixture() -> (JobGraph, JobProfile) {
        let mut b = JobGraphBuilder::new("f");
        let m = b.stage("map", 4);
        let r = b.stage("reduce", 2);
        b.edge(m, r, EdgeKind::AllToAll);
        let g = b.build().unwrap();
        let mut pb = ProfileBuilder::new(&g);
        for _ in 0..4 {
            pb.record_task(StageId(0), 0.0, 10.0, false);
        }
        for _ in 0..2 {
            pb.record_task(StageId(1), 0.0, 30.0, false);
        }
        let p = pb.finish(70.0, 1.0);
        (g, p)
    }

    #[test]
    fn full_job_prediction_matches_formula() {
        let (g, p) = fixture();
        let m = AmdahlModel::new(&g, &p, 100);
        // S_0 = 10 + 30 = 40; total work 100, so P_0 = 100 - 40 = 60
        // (§4.1 subtracts the critical-path time from the parallel
        // term).
        let fs = [0.0, 0.0];
        assert_eq!(m.remaining_critical_path(&fs), 40.0);
        assert_eq!(m.remaining_work(&fs), 100.0);
        assert_eq!(m.remaining_secs(&fs, 0.0, 10), 40.0 + 6.0);
        assert_eq!(m.remaining_secs(&fs, 0.0, 1), 100.0);
        assert_eq!(m.max_allocation(), 100);
    }

    #[test]
    fn partial_progress_shrinks_both_terms() {
        let (g, p) = fixture();
        let m = AmdahlModel::new(&g, &p, 100);
        // Map half done: S_t = max(0.5*10 + 30, 30 + 0) = 35;
        // P_t = 0.5*40 + 60 = 80.
        let fs = [0.5, 0.0];
        assert_eq!(m.remaining_critical_path(&fs), 35.0);
        assert_eq!(m.remaining_work(&fs), 80.0);
        // Map fully done: S_t = 30, work 60, parallel term 30.
        let fs = [1.0, 0.0];
        assert_eq!(m.remaining_secs(&fs, 0.0, 60), 30.5);
    }

    #[test]
    fn finished_job_has_zero_remaining() {
        let (g, p) = fixture();
        let m = AmdahlModel::new(&g, &p, 100);
        assert_eq!(m.remaining_secs(&[1.0, 1.0], 1.0, 50), 0.0);
    }

    #[test]
    fn more_allocation_never_slower() {
        let (g, p) = fixture();
        let m = AmdahlModel::new(&g, &p, 100);
        let fs = [0.25, 0.0];
        let mut prev = f64::INFINITY;
        for a in 1..=100 {
            let r = m.remaining_secs(&fs, 0.0, a);
            assert!(r <= prev);
            prev = r;
        }
        // Asymptotically bounded below by the critical path.
        assert!(prev >= m.remaining_critical_path(&fs));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Property: a curve from any start, of any length, equals the
        /// single query bit for bit — over random per-stage profiles,
        /// fractions that include finished (`1.0`) and out-of-range
        /// stages, and starts from the zero allocation (read as one)
        /// to past the cap.
        #[test]
        fn remaining_curve_matches_single_queries_bit_for_bit(
            stages in proptest::collection::vec(
                (0.0..500.0_f64, 0.0..5_000.0_f64, 0.0..50_000.0_f64, -0.2..1.2_f64),
                1..8,
            ),
            progress in -0.1..1.1_f64,
            first in 0_u32..=210,
            len in 0_usize..=220,
        ) {
            let m = AmdahlModel {
                max_runtime: stages.iter().map(|s| s.0).collect(),
                longest_path: stages.iter().map(|s| s.1).collect(),
                total_exec: stages.iter().map(|s| s.2).collect(),
                max_allocation: 200,
            };
            // About one stage in seven exactly finished (`1.0`), some
            // fractions negative.
            let fs: Vec<f64> = stages.iter().map(|s| if s.3 > 1.0 { 1.0 } else { s.3 }).collect();
            let mut out = vec![f64::NAN; len];
            m.remaining_curve(&fs, progress, first, &mut out);
            for (a, v) in (first..).zip(&out) {
                proptest::prop_assert_eq!(
                    v.to_bits(),
                    m.remaining_secs(&fs, progress, a).to_bits(),
                    "a={}", a
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "fs length mismatch")]
    fn remaining_curve_keeps_the_stage_count_check() {
        let (g, p) = fixture();
        let m = AmdahlModel::new(&g, &p, 100);
        m.remaining_curve(&[0.0], 0.0, 1, &mut [0.0; 4]);
    }

    #[test]
    fn zero_allocation_is_treated_as_one() {
        let (g, p) = fixture();
        let m = AmdahlModel::new(&g, &p, 100);
        assert_eq!(
            m.remaining_secs(&[0.0, 0.0], 0.0, 0),
            m.remaining_secs(&[0.0, 0.0], 0.0, 1)
        );
    }

    /// Satellite: the consolidated sizing search. Over randomized
    /// monotone latency grids, the binary-search fast path and the
    /// exhaustive scan must agree on every deadline — including
    /// never-feasible and always-feasible ones — and the scan remains
    /// the reference on non-monotone grids.
    #[test]
    fn min_feasible_allocation_fast_path_matches_scan_on_random_grids() {
        use jockey_simrt::rng::SeedDeriver;
        use rand::Rng;

        let mut rng = SeedDeriver::new(99).rng("sizing-grids");
        for trial in 0..200 {
            let max: u32 = rng.gen_range(1..=64);
            // A non-increasing latency curve with random plateaus.
            let mut latency = vec![0.0_f64; (max + 1) as usize];
            let mut cur: f64 = rng.gen_range(10.0..1000.0);
            for a in (1..=max).rev() {
                latency[a as usize] = cur;
                if rng.gen_bool(0.7) {
                    cur += rng.gen_range(0.0..50.0);
                }
            }
            let deadline: f64 = rng.gen_range(0.0..1200.0);
            let fits = |a: u32| latency[a as usize] <= deadline;
            let fast = min_feasible_allocation(max, true, fits);
            let slow = min_feasible_allocation(max, false, fits);
            assert_eq!(fast, slow, "trial {trial}: max {max} deadline {deadline}");
        }
        // Degenerate inputs.
        assert_eq!(min_feasible_allocation(0, true, |_| true), None);
        assert_eq!(min_feasible_allocation(5, true, |_| false), None);
        assert_eq!(min_feasible_allocation(5, false, |_| false), None);
        assert_eq!(min_feasible_allocation(5, true, |_| true), Some(1));
    }
}
