//! Job progress indicators (§4.2, §5.4).
//!
//! A progress indicator maps the per-stage completion fractions `f_s`
//! of a running job to a scalar in `[0, 1]` used to index the
//! `C(p, a)` distributions. The paper builds six and finds
//! `totalworkWithQ` — total queueing-plus-execution time of completed
//! tasks — to work best; the structural indicators (`cp`, `minstage`)
//! get "stuck" during long stages, confusing the control loop.

use jockey_jobgraph::graph::JobGraph;
use jockey_jobgraph::profile::JobProfile;

/// The six indicator families of §4.2/§5.4.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ProgressIndicator {
    /// `Σ_s f_s (Q_s + T_s)` — completed tasks' queueing plus execution
    /// time (Jockey's default).
    TotalWorkWithQ,
    /// `Σ_s f_s T_s` — completed tasks' execution time only.
    TotalWork,
    /// Fraction of all vertices completed.
    VertexFrac,
    /// Fraction of the critical path completed
    /// (`1 − S_t / S_0` with `S_t` from the Amdahl inputs).
    CriticalPath,
    /// The stage furthest from its typical completion time, with stage
    /// windows taken from the previous run.
    MinStage,
    /// Like `MinStage`, but stage windows come from an
    /// unconstrained-resources simulation (critical-path focused).
    MinStageInf,
}

impl ProgressIndicator {
    /// All indicator variants, in the order of the paper's Fig. 10.
    pub const ALL: [ProgressIndicator; 6] = [
        ProgressIndicator::TotalWorkWithQ,
        ProgressIndicator::TotalWork,
        ProgressIndicator::VertexFrac,
        ProgressIndicator::CriticalPath,
        ProgressIndicator::MinStage,
        ProgressIndicator::MinStageInf,
    ];

    /// The name used in the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            ProgressIndicator::TotalWorkWithQ => "totalworkWithQ",
            ProgressIndicator::TotalWork => "totalwork",
            ProgressIndicator::VertexFrac => "vertexfrac",
            ProgressIndicator::CriticalPath => "CP",
            ProgressIndicator::MinStage => "minstage",
            ProgressIndicator::MinStageInf => "minstage-inf",
        }
    }
}

/// Precomputed per-stage data enabling O(stages) progress evaluation.
///
/// Built once per (job, indicator) from the training profile; at
/// runtime only the completion fractions `f_s` change.
#[derive(Clone, Debug)]
pub struct IndicatorContext {
    kind: ProgressIndicator,
    /// `Q_s + T_s` per stage.
    work_with_q: Weights,
    /// `T_s` per stage.
    work: Weights,
    /// Task counts per stage.
    tasks: Weights,
    /// `l_s` per stage (longest task runtime).
    max_runtime: Vec<f64>,
    /// `L_s` per stage (longest path from completion to job end).
    longest_path: Vec<f64>,
    /// Critical path at job start.
    cp_total: f64,
    /// Relative stage windows `(tb_s, te_s)` from the training run.
    rel: Vec<(f64, f64)>,
    /// Relative stage windows from an unconstrained run (for
    /// `minstage-inf`); falls back to `rel` when not supplied.
    rel_inf: Vec<(f64, f64)>,
}

impl IndicatorContext {
    /// Builds a context for `kind` from a training profile.
    ///
    /// `rel_inf` supplies the unconstrained-run stage windows needed by
    /// [`ProgressIndicator::MinStageInf`]; pass `None` to fall back to
    /// the profile's own windows (see
    /// [`crate::cpa::unconstrained_rel_windows`] for the standard way
    /// to obtain them).
    ///
    /// # Panics
    ///
    /// Panics if the profile's stage count differs from the graph's, or
    /// if `rel_inf` has the wrong length.
    pub fn new(
        kind: ProgressIndicator,
        graph: &JobGraph,
        profile: &JobProfile,
        rel_inf: Option<Vec<(f64, f64)>>,
    ) -> Self {
        assert_eq!(graph.num_stages(), profile.stages.len());
        let work_with_q: Vec<f64> = profile
            .stages
            .iter()
            .map(|s| s.total_exec() + s.total_queue())
            .collect();
        let work: Vec<f64> = profile.stages.iter().map(|s| s.total_exec()).collect();
        let tasks: Vec<f64> = profile.stages.iter().map(|s| f64::from(s.tasks)).collect();
        let max_runtime = profile.max_runtimes();
        let longest_path = profile.longest_paths(graph);
        let cp_total = profile.critical_path(graph);
        let rel: Vec<(f64, f64)> = profile
            .stages
            .iter()
            .map(|s| (s.rel_start, s.rel_end))
            .collect();
        let rel_inf = match rel_inf {
            Some(r) => {
                assert_eq!(r.len(), rel.len(), "rel_inf length mismatch");
                r
            }
            None => rel.clone(),
        };
        IndicatorContext {
            kind,
            work_with_q: Weights::new(work_with_q),
            work: Weights::new(work),
            tasks: Weights::new(tasks),
            max_runtime,
            longest_path,
            cp_total,
            rel,
            rel_inf,
        }
    }

    /// Which indicator this context evaluates.
    pub fn kind(&self) -> ProgressIndicator {
        self.kind
    }

    /// Number of stages this context was built for.
    pub fn stage_count(&self) -> usize {
        self.tasks.per_stage.len()
    }

    /// Evaluates the indicator at completion fractions `fs`, returning
    /// progress in `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `fs.len()` differs from the stage count.
    pub fn progress(&self, fs: &[f64]) -> f64 {
        assert_eq!(fs.len(), self.tasks.per_stage.len(), "fs length mismatch");
        let p = match self.kind {
            ProgressIndicator::TotalWorkWithQ => self.work_with_q.fraction(fs),
            ProgressIndicator::TotalWork => self.work.fraction(fs),
            ProgressIndicator::VertexFrac => self.tasks.fraction(fs),
            ProgressIndicator::CriticalPath => {
                if self.cp_total <= 0.0 {
                    1.0
                } else {
                    1.0 - self.remaining_critical_path(fs) / self.cp_total
                }
            }
            ProgressIndicator::MinStage => min_stage(fs, &self.rel),
            ProgressIndicator::MinStageInf => min_stage(fs, &self.rel_inf),
        };
        p.clamp(0.0, 1.0)
    }

    /// `S_t`: the remaining critical path at fractions `fs`
    /// (§4.1: `max_{s: f_s<1} (1−f_s) l_s + L_s`).
    pub fn remaining_critical_path(&self, fs: &[f64]) -> f64 {
        let mut st: f64 = 0.0;
        for (s, &f) in fs.iter().enumerate() {
            if f < 1.0 {
                st = st.max((1.0 - f) * self.max_runtime[s] + self.longest_path[s]);
            }
        }
        st
    }
}

/// Per-stage weights with their sum, taken once at construction
/// rather than on every progress evaluation.
#[derive(Clone, Debug)]
struct Weights {
    per_stage: Vec<f64>,
    /// `Σ w_s`, summed in stage order.
    total: f64,
}

impl Weights {
    fn new(per_stage: Vec<f64>) -> Self {
        let total = per_stage.iter().sum();
        Weights { per_stage, total }
    }

    /// `Σ f_s w_s / Σ w_s`, or 1 when the weights sum to zero.
    fn fraction(&self, fs: &[f64]) -> f64 {
        if self.total <= 0.0 {
            return 1.0;
        }
        fs.iter()
            .zip(&self.per_stage)
            .map(|(&f, &w)| f * w)
            .sum::<f64>()
            / self.total
    }
}

/// `min_{s: f_s<1} tb_s + f_s (te_s − tb_s)`, or 1 if all finished.
fn min_stage(fs: &[f64], rel: &[(f64, f64)]) -> f64 {
    let mut min = f64::INFINITY;
    for (s, &f) in fs.iter().enumerate() {
        if f < 1.0 {
            let (tb, te) = rel[s];
            min = min.min(tb + f * (te - tb));
        }
    }
    if min.is_infinite() {
        1.0
    } else {
        min
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jockey_jobgraph::graph::{EdgeKind, JobGraphBuilder};
    use jockey_jobgraph::profile::ProfileBuilder;
    use jockey_jobgraph::StageId;

    fn fixture() -> (JobGraph, JobProfile) {
        let mut b = JobGraphBuilder::new("f");
        let m = b.stage("map", 2);
        let r = b.stage("reduce", 2);
        b.edge(m, r, EdgeKind::AllToAll);
        let g = b.build().unwrap();
        let mut pb = ProfileBuilder::new(&g);
        // Map: 2 tasks, 10 s each, 2 s queue. Reduce: 2 tasks, 30 s, 0 q.
        pb.record_task(StageId(0), 2.0, 10.0, false);
        pb.record_task(StageId(0), 2.0, 10.0, false);
        pb.record_task(StageId(1), 0.0, 30.0, false);
        pb.record_task(StageId(1), 0.0, 30.0, false);
        pb.record_stage_window(StageId(0), 0.0, 10.0);
        pb.record_stage_window(StageId(1), 10.0, 40.0);
        let p = pb.finish(40.0, 1.0);
        (g, p)
    }

    #[test]
    fn all_indicators_span_zero_to_one() {
        let (g, p) = fixture();
        for kind in ProgressIndicator::ALL {
            let ctx = IndicatorContext::new(kind, &g, &p, None);
            assert_eq!(ctx.progress(&[0.0, 0.0]), 0.0, "{kind:?} at start");
            assert_eq!(ctx.progress(&[1.0, 1.0]), 1.0, "{kind:?} at end");
            let mid = ctx.progress(&[1.0, 0.5]);
            assert!((0.0..=1.0).contains(&mid), "{kind:?} mid {mid}");
        }
    }

    #[test]
    fn totalwork_with_q_weights_queueing() {
        let (g, p) = fixture();
        let with_q = IndicatorContext::new(ProgressIndicator::TotalWorkWithQ, &g, &p, None);
        let no_q = IndicatorContext::new(ProgressIndicator::TotalWork, &g, &p, None);
        // Map done only: withQ = 24/84, totalwork = 20/80.
        let fs = [1.0, 0.0];
        assert!((with_q.progress(&fs) - 24.0 / 84.0).abs() < 1e-12);
        assert!((no_q.progress(&fs) - 20.0 / 80.0).abs() < 1e-12);
    }

    #[test]
    fn vertexfrac_counts_tasks() {
        let (g, p) = fixture();
        let ctx = IndicatorContext::new(ProgressIndicator::VertexFrac, &g, &p, None);
        assert_eq!(ctx.progress(&[0.5, 0.0]), 0.25);
    }

    #[test]
    fn critical_path_tracks_remaining_cp() {
        let (g, p) = fixture();
        let ctx = IndicatorContext::new(ProgressIndicator::CriticalPath, &g, &p, None);
        // cp_total = 10 + 30 = 40. With map done, St = 30.
        assert!((ctx.progress(&[1.0, 0.0]) - 0.25).abs() < 1e-12);
        // Map half done: St = max(0.5*10+30, 30) = 35 -> p = 0.125.
        assert!((ctx.progress(&[0.5, 0.0]) - 0.125).abs() < 1e-12);
        assert_eq!(ctx.remaining_critical_path(&[1.0, 1.0]), 0.0);
    }

    #[test]
    fn cp_gets_stuck_during_long_reduce() {
        // The §5.4 pathology: while reduce tasks run (f unchanged), CP
        // reports constant progress even though work is happening.
        let (g, p) = fixture();
        let ctx = IndicatorContext::new(ProgressIndicator::CriticalPath, &g, &p, None);
        let a = ctx.progress(&[1.0, 0.0]);
        let b = ctx.progress(&[1.0, 0.0]);
        assert_eq!(a, b);
    }

    #[test]
    fn minstage_uses_relative_windows() {
        let (g, p) = fixture();
        let ctx = IndicatorContext::new(ProgressIndicator::MinStage, &g, &p, None);
        // Map windows [0, 0.25], reduce [0.25, 1.0].
        // fs = [0.5, 0]: map term = 0.125, reduce term = 0.25 -> 0.125.
        assert!((ctx.progress(&[0.5, 0.0]) - 0.125).abs() < 1e-12);
        // Map finished: only reduce term remains.
        assert!((ctx.progress(&[1.0, 0.5]) - (0.25 + 0.5 * 0.75)).abs() < 1e-12);
    }

    #[test]
    fn minstage_inf_uses_supplied_windows() {
        let (g, p) = fixture();
        let inf = vec![(0.0, 0.5), (0.5, 1.0)];
        let ctx = IndicatorContext::new(ProgressIndicator::MinStageInf, &g, &p, Some(inf));
        assert!((ctx.progress(&[0.5, 0.0]) - 0.25).abs() < 1e-12);
        // Without supplied windows it falls back to the profile's.
        let ctx2 = IndicatorContext::new(ProgressIndicator::MinStageInf, &g, &p, None);
        assert!((ctx2.progress(&[0.5, 0.0]) - 0.125).abs() < 1e-12);
    }

    #[test]
    fn monotone_in_fs_for_weighted_indicators() {
        let (g, p) = fixture();
        for kind in [
            ProgressIndicator::TotalWorkWithQ,
            ProgressIndicator::TotalWork,
            ProgressIndicator::VertexFrac,
            ProgressIndicator::CriticalPath,
        ] {
            let ctx = IndicatorContext::new(kind, &g, &p, None);
            let mut prev = -1.0;
            for i in 0..=4 {
                let f = i as f64 / 4.0;
                let v = ctx.progress(&[f, f]);
                assert!(v >= prev - 1e-12, "{kind:?} not monotone");
                prev = v;
            }
        }
    }

    #[test]
    fn names_match_paper() {
        assert_eq!(ProgressIndicator::TotalWorkWithQ.name(), "totalworkWithQ");
        assert_eq!(ProgressIndicator::CriticalPath.name(), "CP");
        assert_eq!(ProgressIndicator::MinStageInf.name(), "minstage-inf");
    }
}
