//! Job profiles: the per-stage statistics extracted from a prior run.
//!
//! Jockey is built around *recurring* jobs: a previous execution supplies
//! "performance statistics such as the per-stage distributions of task
//! runtimes and initialization latencies, and the probabilities of single
//! and multiple task failures" (§4.1). A [`JobProfile`] captures exactly
//! those statistics, and derives the aggregates the rest of the system
//! needs:
//!
//! - `T_s` — total task execution time of stage `s` ([`StageProfile::total_exec`]),
//! - `Q_s` — total queueing time of stage `s` ([`StageProfile::total_queue`]),
//! - `l_s` — the longest task runtime in stage `s` ([`StageProfile::max_runtime`]),
//! - `L_s` — longest path from `s`'s completion to job end ([`JobProfile::longest_paths`]),
//! - `tb_s`, `te_s` — relative start/end time of each stage
//!   ([`StageProfile::rel_start`] / [`StageProfile::rel_end`]), used by the
//!   `minstage` progress indicators.

use std::sync::Arc;

use crate::graph::{JobGraph, StageId};
use jockey_simrt::dist::Empirical;
use jockey_simrt::table::KvStore;

/// Observed statistics for one stage of a prior run.
#[derive(Clone, Debug, PartialEq)]
pub struct StageProfile {
    /// Stage name (shared with the graph's interned stage id).
    pub name: Arc<str>,
    /// Task count of the stage.
    pub tasks: u32,
    /// Observed task execution times in seconds (one entry per attempt).
    pub runtimes: Vec<f64>,
    /// Observed task queueing / initialization latencies in seconds.
    pub queue_times: Vec<f64>,
    /// Stage start time relative to job duration, in `[0, 1]`.
    pub rel_start: f64,
    /// Stage end time relative to job duration, in `[0, 1]`.
    pub rel_end: f64,
}

impl StageProfile {
    /// `T_s`: aggregate execution seconds of the stage's tasks.
    pub fn total_exec(&self) -> f64 {
        self.runtimes.iter().sum()
    }

    /// `Q_s`: aggregate queueing seconds of the stage's tasks.
    pub fn total_queue(&self) -> f64 {
        self.queue_times.iter().sum()
    }

    /// `l_s`: the longest observed task runtime (0 if none recorded).
    pub fn max_runtime(&self) -> f64 {
        self.runtimes.iter().copied().fold(0.0, f64::max)
    }

    /// Mean observed task runtime (0 if none recorded).
    pub fn mean_runtime(&self) -> f64 {
        if self.runtimes.is_empty() {
            0.0
        } else {
            self.total_exec() / self.runtimes.len() as f64
        }
    }

    /// An empirical distribution over the observed runtimes.
    ///
    /// # Panics
    ///
    /// Panics if no runtimes were recorded for the stage.
    pub fn runtime_dist(&self) -> Empirical {
        Empirical::new(self.runtimes.clone())
    }

    /// An empirical distribution over the observed queueing latencies.
    ///
    /// # Panics
    ///
    /// Panics if no queue times were recorded for the stage.
    pub fn queue_dist(&self) -> Empirical {
        Empirical::new(self.queue_times.clone())
    }
}

/// The statistics of one prior execution of a job, per stage plus
/// job-level aggregates.
#[derive(Clone, Debug, PartialEq)]
pub struct JobProfile {
    /// Job name (matches the graph).
    pub job_name: String,
    /// Per-stage statistics, indexed by [`StageId`].
    pub stages: Vec<StageProfile>,
    /// Observed end-to-end job latency in seconds.
    pub duration: f64,
    /// Estimated probability that a task attempt fails and must rerun.
    pub task_failure_prob: f64,
    /// Total input data read by the job, in gigabytes.
    pub total_data_gb: f64,
}

impl JobProfile {
    /// The stage profile for `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn stage(&self, id: StageId) -> &StageProfile {
        &self.stages[id.index()]
    }

    /// Total work: aggregate task execution seconds over all stages
    /// (the `T` of the oracle allocation `O(T, d) = ceil(T/d)`).
    pub fn total_work(&self) -> f64 {
        self.stages.iter().map(StageProfile::total_exec).sum()
    }

    /// Total queueing seconds over all stages.
    pub fn total_queue(&self) -> f64 {
        self.stages.iter().map(StageProfile::total_queue).sum()
    }

    /// `l_s` for every stage.
    pub fn max_runtimes(&self) -> Vec<f64> {
        self.stages.iter().map(StageProfile::max_runtime).collect()
    }

    /// `L_s` for every stage: the longest `l`-weighted path from the
    /// stage's completion to the end of the job.
    ///
    /// # Panics
    ///
    /// Panics if `graph` has a different stage count than this profile.
    pub fn longest_paths(&self, graph: &JobGraph) -> Vec<f64> {
        assert_eq!(
            graph.num_stages(),
            self.stages.len(),
            "graph/profile mismatch"
        );
        graph.longest_path_to_end(&self.max_runtimes())
    }

    /// The critical-path length implied by this profile (seconds):
    /// the minimum feasible latency with infinite resources.
    pub fn critical_path(&self, graph: &JobGraph) -> f64 {
        graph.critical_path(&self.max_runtimes())
    }

    /// Returns a copy with every runtime and queue time scaled by
    /// `factor`, modelling a proportionally larger or smaller input.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not strictly positive.
    pub fn scaled(&self, factor: f64) -> JobProfile {
        assert!(factor > 0.0 && factor.is_finite());
        let mut p = self.clone();
        for s in &mut p.stages {
            for r in &mut s.runtimes {
                *r *= factor;
            }
            for q in &mut s.queue_times {
                *q *= factor;
            }
        }
        p.duration *= factor;
        p.total_data_gb *= factor;
        p
    }

    /// Serializes the profile to a [`KvStore`] text representation.
    pub fn to_kv(&self) -> KvStore {
        let mut kv = KvStore::new();
        kv.set("job", &self.job_name);
        kv.set_f64("duration", self.duration);
        kv.set_f64("task_failure_prob", self.task_failure_prob);
        kv.set_f64("total_data_gb", self.total_data_gb);
        kv.set_u64("stages", self.stages.len() as u64);
        for (i, s) in self.stages.iter().enumerate() {
            kv.set(&format!("stage.{i}.name"), &s.name);
            kv.set_u64(&format!("stage.{i}.tasks"), u64::from(s.tasks));
            kv.set_f64(&format!("stage.{i}.rel_start"), s.rel_start);
            kv.set_f64(&format!("stage.{i}.rel_end"), s.rel_end);
            kv.set_f64_list(&format!("stage.{i}.runtimes"), &s.runtimes);
            kv.set_f64_list(&format!("stage.{i}.queue_times"), &s.queue_times);
        }
        kv
    }

    /// Deserializes a profile written by [`JobProfile::to_kv`].
    ///
    /// Returns `None` if any required key is missing or malformed, if
    /// `task_failure_prob` lies outside `[0, 1]`, or if a stage's
    /// runtimes or queue times are empty, negative or not finite — the
    /// values a simulation could not sample from.
    pub fn from_kv(kv: &KvStore) -> Option<JobProfile> {
        let job_name = kv.get("job")?.to_string();
        let duration = kv.get_f64("duration")?;
        let task_failure_prob = kv.get_f64("task_failure_prob")?;
        if !(0.0..=1.0).contains(&task_failure_prob) {
            return None;
        }
        let total_data_gb = kv.get_f64("total_data_gb")?;
        let n = kv.get_u64("stages")? as usize;
        let samples = |key: String| {
            let xs = kv.get_f64_list(&key)?;
            let valid = !xs.is_empty() && xs.iter().all(|v| v.is_finite() && *v >= 0.0);
            valid.then_some(xs)
        };
        let mut stages = Vec::with_capacity(n);
        for i in 0..n {
            stages.push(StageProfile {
                name: kv.get(&format!("stage.{i}.name"))?.into(),
                tasks: kv.get_u64(&format!("stage.{i}.tasks"))? as u32,
                rel_start: kv.get_f64(&format!("stage.{i}.rel_start"))?,
                rel_end: kv.get_f64(&format!("stage.{i}.rel_end"))?,
                runtimes: samples(format!("stage.{i}.runtimes"))?,
                queue_times: samples(format!("stage.{i}.queue_times"))?,
            });
        }
        Some(JobProfile {
            job_name,
            stages,
            duration,
            task_failure_prob,
            total_data_gb,
        })
    }
}

/// Accumulates task observations during a run and produces a
/// [`JobProfile`].
///
/// # Examples
///
/// ```
/// use jockey_jobgraph::graph::{EdgeKind, JobGraphBuilder};
/// use jockey_jobgraph::profile::ProfileBuilder;
///
/// let mut b = JobGraphBuilder::new("j");
/// let m = b.stage("map", 2);
/// let r = b.stage("reduce", 1);
/// b.edge(m, r, EdgeKind::AllToAll);
/// let g = b.build().unwrap();
///
/// let mut pb = ProfileBuilder::new(&g);
/// pb.record_task(m, 1.0, 10.0, false);
/// pb.record_task(m, 2.0, 12.0, false);
/// pb.record_task(r, 0.5, 5.0, false);
/// pb.record_stage_window(m, 0.0, 14.0);
/// pb.record_stage_window(r, 14.0, 19.5);
/// let profile = pb.finish(19.5, 1.5);
/// assert_eq!(profile.total_work(), 27.0);
/// assert_eq!(profile.stage(m).max_runtime(), 12.0);
/// ```
#[derive(Clone, Debug)]
pub struct ProfileBuilder {
    job_name: String,
    stages: Vec<StageProfile>,
    /// (start_secs, end_secs) absolute stage windows; converted to
    /// relative at `finish`.
    windows: Vec<Option<(f64, f64)>>,
    attempts: u64,
    failures: u64,
}

impl ProfileBuilder {
    /// Starts collecting a profile for `graph`.
    pub fn new(graph: &JobGraph) -> Self {
        let stages = graph
            .stage_ids()
            .map(|s| StageProfile {
                name: graph.stage(s).name.clone(),
                tasks: graph.tasks_in(s),
                runtimes: Vec::new(),
                queue_times: Vec::new(),
                rel_start: 0.0,
                rel_end: 1.0,
            })
            .collect::<Vec<_>>();
        let n = stages.len();
        ProfileBuilder {
            job_name: graph.name().to_string(),
            stages,
            windows: vec![None; n],
            attempts: 0,
            failures: 0,
        }
    }

    /// A builder that records nothing: zero stages, no name, no
    /// windows — and therefore no heap allocations. The hot-loop
    /// choice when per-task profiling is disabled: `finish` on it is
    /// a handful of moves and yields a structurally empty
    /// [`JobProfile`].
    pub fn empty() -> Self {
        ProfileBuilder {
            job_name: String::new(),
            stages: Vec::new(),
            windows: Vec::new(),
            attempts: 0,
            failures: 0,
        }
    }

    /// Records one task attempt: its queueing latency, execution time,
    /// and whether the attempt failed.
    ///
    /// # Panics
    ///
    /// Panics if `stage` is out of range.
    pub fn record_task(&mut self, stage: StageId, queue_secs: f64, run_secs: f64, failed: bool) {
        let s = &mut self.stages[stage.index()];
        s.queue_times.push(queue_secs);
        s.runtimes.push(run_secs);
        self.attempts += 1;
        if failed {
            self.failures += 1;
        }
    }

    /// Records the absolute time window in which `stage` ran; widened if
    /// called repeatedly.
    pub fn record_stage_window(&mut self, stage: StageId, start_secs: f64, end_secs: f64) {
        let w = &mut self.windows[stage.index()];
        *w = Some(match *w {
            None => (start_secs, end_secs),
            Some((s0, e0)) => (s0.min(start_secs), e0.max(end_secs)),
        });
    }

    /// Finalizes the profile given the observed job `duration_secs` and
    /// the total input `data_gb`.
    ///
    /// # Panics
    ///
    /// Panics if `duration_secs` is not strictly positive.
    pub fn finish(mut self, duration_secs: f64, data_gb: f64) -> JobProfile {
        assert!(duration_secs > 0.0, "job duration must be positive");
        for (i, s) in self.stages.iter_mut().enumerate() {
            if let Some((start, end)) = self.windows[i] {
                s.rel_start = (start / duration_secs).clamp(0.0, 1.0);
                s.rel_end = (end / duration_secs).clamp(0.0, 1.0);
            }
        }
        let task_failure_prob = if self.attempts == 0 {
            0.0
        } else {
            self.failures as f64 / self.attempts as f64
        };
        JobProfile {
            job_name: self.job_name,
            stages: self.stages,
            duration: duration_secs,
            task_failure_prob,
            total_data_gb: data_gb,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{EdgeKind, JobGraphBuilder};

    fn graph() -> JobGraph {
        let mut b = JobGraphBuilder::new("prof");
        let m = b.stage("map", 3);
        let r = b.stage("reduce", 2);
        b.edge(m, r, EdgeKind::AllToAll);
        b.build().unwrap()
    }

    fn sample_profile(g: &JobGraph) -> JobProfile {
        let mut pb = ProfileBuilder::new(g);
        pb.record_task(StageId(0), 1.0, 4.0, false);
        pb.record_task(StageId(0), 1.0, 6.0, true);
        pb.record_task(StageId(0), 2.0, 5.0, false);
        pb.record_task(StageId(1), 0.5, 10.0, false);
        pb.record_task(StageId(1), 0.5, 8.0, false);
        pb.record_stage_window(StageId(0), 0.0, 8.0);
        pb.record_stage_window(StageId(1), 8.0, 20.0);
        pb.finish(20.0, 100.0)
    }

    #[test]
    fn aggregates_match_hand_computation() {
        let g = graph();
        let p = sample_profile(&g);
        assert_eq!(p.total_work(), 33.0);
        assert_eq!(p.total_queue(), 5.0);
        assert_eq!(p.stage(StageId(0)).max_runtime(), 6.0);
        assert_eq!(p.stage(StageId(1)).total_exec(), 18.0);
        assert!((p.task_failure_prob - 0.2).abs() < 1e-12);
        assert_eq!(p.max_runtimes(), vec![6.0, 10.0]);
    }

    #[test]
    fn relative_windows_normalized() {
        let g = graph();
        let p = sample_profile(&g);
        assert_eq!(p.stage(StageId(0)).rel_start, 0.0);
        assert_eq!(p.stage(StageId(0)).rel_end, 0.4);
        assert_eq!(p.stage(StageId(1)).rel_start, 0.4);
        assert_eq!(p.stage(StageId(1)).rel_end, 1.0);
    }

    #[test]
    fn longest_paths_use_max_runtimes() {
        let g = graph();
        let p = sample_profile(&g);
        let ls = p.longest_paths(&g);
        assert_eq!(ls, vec![10.0, 0.0]);
        assert_eq!(p.critical_path(&g), 16.0);
    }

    #[test]
    fn kv_roundtrip_preserves_profile() {
        let g = graph();
        let p = sample_profile(&g);
        let round = JobProfile::from_kv(&p.to_kv()).unwrap();
        assert_eq!(round, p);
    }

    #[test]
    fn from_kv_rejects_missing_keys() {
        let g = graph();
        let mut kv = sample_profile(&g).to_kv();
        kv.set("stages", "4"); // Claims more stages than present.
        assert!(JobProfile::from_kv(&kv).is_none());
    }

    #[test]
    fn from_kv_rejects_values_a_simulation_cannot_sample() {
        let g = graph();
        let kv = sample_profile(&g).to_kv();
        for (key, value) in [
            ("stage.0.runtimes", "NaN,1"),
            ("stage.0.runtimes", "-5,1"),
            ("stage.0.runtimes", "inf"),
            ("stage.0.runtimes", ""),
            ("stage.1.queue_times", "1,-0.5"),
            ("stage.1.queue_times", ""),
            ("task_failure_prob", "2"),
            ("task_failure_prob", "-0.1"),
            ("task_failure_prob", "NaN"),
        ] {
            let mut bad = kv.clone();
            bad.set(key, value);
            assert!(
                JobProfile::from_kv(&bad).is_none(),
                "{key}={value} accepted"
            );
        }
        let mut edge = kv.clone();
        edge.set("task_failure_prob", "1");
        edge.set("stage.0.runtimes", "0");
        assert!(JobProfile::from_kv(&edge).is_some());
    }

    #[test]
    fn scaled_profile_scales_everything() {
        let g = graph();
        let p = sample_profile(&g).scaled(2.0);
        assert_eq!(p.total_work(), 66.0);
        assert_eq!(p.duration, 40.0);
        assert_eq!(p.total_data_gb, 200.0);
        // Relative windows are unchanged by uniform scaling.
        assert_eq!(p.stage(StageId(0)).rel_end, 0.4);
    }

    #[test]
    fn empirical_dists_resample_observations() {
        let g = graph();
        let p = sample_profile(&g);
        let d = p.stage(StageId(0)).runtime_dist();
        assert_eq!(d.values().len(), 3);
    }

    #[test]
    fn empty_stage_profile_defaults() {
        let g = graph();
        let pb = ProfileBuilder::new(&g);
        let p = pb.finish(10.0, 0.0);
        assert_eq!(p.total_work(), 0.0);
        assert_eq!(p.task_failure_prob, 0.0);
        assert_eq!(p.stage(StageId(0)).mean_runtime(), 0.0);
        assert_eq!(p.stage(StageId(0)).max_runtime(), 0.0);
    }
}

impl JobProfile {
    /// Merges several profiles of the *same* job into one training
    /// profile — §4.1's "based on one or more previous runs of the
    /// job". Task observations are pooled per stage (so empirical
    /// distributions draw from every run), relative stage windows are
    /// averaged, the duration is the mean, and the failure probability
    /// is attempt-weighted.
    ///
    /// # Panics
    ///
    /// Panics if `profiles` is empty or the profiles disagree on stage
    /// structure.
    pub fn merge(profiles: &[JobProfile]) -> JobProfile {
        assert!(!profiles.is_empty(), "merge of zero profiles");
        let first = &profiles[0];
        for p in profiles {
            assert_eq!(p.stages.len(), first.stages.len(), "stage count mismatch");
            assert_eq!(p.job_name, first.job_name, "job name mismatch");
        }
        let n = profiles.len() as f64;
        let stages = (0..first.stages.len())
            .map(|i| {
                let mut runtimes = Vec::new();
                let mut queue_times = Vec::new();
                let mut rel_start = 0.0;
                let mut rel_end = 0.0;
                for p in profiles {
                    runtimes.extend_from_slice(&p.stages[i].runtimes);
                    queue_times.extend_from_slice(&p.stages[i].queue_times);
                    rel_start += p.stages[i].rel_start;
                    rel_end += p.stages[i].rel_end;
                }
                StageProfile {
                    name: first.stages[i].name.clone(),
                    tasks: first.stages[i].tasks,
                    runtimes,
                    queue_times,
                    rel_start: rel_start / n,
                    rel_end: rel_end / n,
                }
            })
            .collect();
        // Attempt-weighted failure probability.
        let attempts: f64 = profiles
            .iter()
            .map(|p| p.stages.iter().map(|s| s.runtimes.len()).sum::<usize>() as f64)
            .sum();
        let failure = if attempts == 0.0 {
            0.0
        } else {
            profiles
                .iter()
                .map(|p| {
                    p.task_failure_prob
                        * p.stages.iter().map(|s| s.runtimes.len()).sum::<usize>() as f64
                })
                .sum::<f64>()
                / attempts
        };
        JobProfile {
            job_name: first.job_name.clone(),
            stages,
            duration: profiles.iter().map(|p| p.duration).sum::<f64>() / n,
            task_failure_prob: failure,
            total_data_gb: profiles.iter().map(|p| p.total_data_gb).sum::<f64>() / n,
        }
    }
}

#[cfg(test)]
mod merge_tests {
    use super::*;
    use crate::graph::{EdgeKind, JobGraphBuilder};

    fn profile(run_secs: f64, fail: bool, duration: f64) -> (JobGraph, JobProfile) {
        let mut b = JobGraphBuilder::new("m");
        let m = b.stage("map", 2);
        let r = b.stage("reduce", 1);
        b.edge(m, r, EdgeKind::AllToAll);
        let g = b.build().unwrap();
        let mut pb = ProfileBuilder::new(&g);
        pb.record_task(StageId(0), 1.0, run_secs, fail);
        pb.record_task(StageId(0), 1.0, run_secs, false);
        pb.record_task(StageId(1), 0.5, run_secs * 2.0, false);
        pb.record_stage_window(StageId(0), 0.0, duration / 2.0);
        pb.record_stage_window(StageId(1), duration / 2.0, duration);
        (g, pb.finish(duration, 10.0))
    }

    #[test]
    fn merge_pools_observations_and_averages_aggregates() {
        let (_, a) = profile(10.0, true, 30.0);
        let (_, b) = profile(20.0, false, 50.0);
        let m = JobProfile::merge(&[a.clone(), b.clone()]);
        assert_eq!(m.stages[0].runtimes.len(), 4);
        assert_eq!(m.stages[1].runtimes.len(), 2);
        assert_eq!(m.duration, 40.0);
        assert_eq!(m.total_data_gb, 10.0);
        // One failure in six attempts.
        assert!((m.task_failure_prob - 1.0 / 6.0).abs() < 1e-9);
        // Relative windows average to the same halves.
        assert_eq!(m.stages[1].rel_start, 0.5);
    }

    #[test]
    fn merge_of_one_is_identity_for_observations() {
        let (_, a) = profile(10.0, false, 30.0);
        let m = JobProfile::merge(std::slice::from_ref(&a));
        assert_eq!(m.stages, a.stages);
        assert_eq!(m.duration, a.duration);
    }

    #[test]
    #[should_panic(expected = "stage count mismatch")]
    fn merge_rejects_different_structures() {
        let (_, a) = profile(10.0, false, 30.0);
        let mut b = JobGraphBuilder::new("m");
        b.stage("only", 2);
        let g = b.build().unwrap();
        let other = ProfileBuilder::new(&g).finish(5.0, 0.0);
        JobProfile::merge(&[a, other]);
    }
}
