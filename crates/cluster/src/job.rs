//! Job specifications: what the simulator needs to execute a job.

use jockey_jobgraph::graph::JobGraph;
use jockey_jobgraph::profile::JobProfile;
use jockey_simrt::dist::Dist;
use std::sync::Arc;

/// Everything needed to execute one job in the simulator: the plan
/// graph plus per-stage task runtime and queueing distributions and a
/// task-failure probability.
///
/// Distributions are stored as the concrete [`Dist`] enum so the
/// engine's per-task-attempt draws dispatch by `match` over a
/// statically-typed RNG, with no vtable hop — this is the simulator's
/// hottest call.
///
/// Two construction paths exist:
///
/// - [`JobSpec::from_profile`] replays a measured [`JobProfile`] by
///   resampling its empirical distributions — this is what Jockey's
///   offline simulator does (§4.1);
/// - workload generators build specs from parametric distributions
///   directly (see `jockey-workloads`).
#[derive(Clone)]
pub struct JobSpec {
    /// The execution-plan graph.
    pub graph: Arc<JobGraph>,
    /// Per-stage task runtime distributions (seconds), indexed by stage.
    pub stage_runtimes: Vec<Dist>,
    /// Per-stage task queueing/initialization distributions (seconds).
    pub stage_queues: Vec<Dist>,
    /// Probability that a task attempt fails and must rerun.
    pub task_failure_prob: f64,
    /// Total input data in gigabytes (informational; reported in
    /// Table 2).
    pub data_gb: f64,
}

impl std::fmt::Debug for JobSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobSpec")
            .field("job", &self.graph.name())
            .field("stages", &self.graph.num_stages())
            .field("tasks", &self.graph.total_tasks())
            .field("task_failure_prob", &self.task_failure_prob)
            .field("data_gb", &self.data_gb)
            .finish()
    }
}

impl JobSpec {
    /// Builds a spec with the same runtime and queue distribution for
    /// every stage — convenient in tests.
    ///
    /// # Panics
    ///
    /// Panics if `task_failure_prob` is outside `[0, 1]`.
    pub fn uniform(
        graph: Arc<JobGraph>,
        runtime: impl Into<Dist>,
        queue: impl Into<Dist>,
        task_failure_prob: f64,
    ) -> Self {
        assert!((0.0..=1.0).contains(&task_failure_prob));
        let runtime = runtime.into();
        let queue = queue.into();
        let n = graph.num_stages();
        JobSpec {
            graph,
            stage_runtimes: vec![runtime; n],
            stage_queues: vec![queue; n],
            task_failure_prob,
            data_gb: 0.0,
        }
    }

    /// Builds a spec from per-stage distributions.
    ///
    /// # Panics
    ///
    /// Panics if the distribution vectors don't match the stage count
    /// or the failure probability is out of range.
    pub fn new(
        graph: Arc<JobGraph>,
        stage_runtimes: Vec<Dist>,
        stage_queues: Vec<Dist>,
        task_failure_prob: f64,
        data_gb: f64,
    ) -> Self {
        assert_eq!(stage_runtimes.len(), graph.num_stages());
        assert_eq!(stage_queues.len(), graph.num_stages());
        assert!((0.0..=1.0).contains(&task_failure_prob));
        JobSpec {
            graph,
            stage_runtimes,
            stage_queues,
            task_failure_prob,
            data_gb,
        }
    }

    /// Builds a spec that replays a measured profile by resampling its
    /// per-stage empirical distributions — the paper's offline
    /// simulator input.
    ///
    /// Stages with no recorded samples (possible in truncated runs)
    /// fall back to a 1-second constant runtime and zero queueing.
    ///
    /// # Panics
    ///
    /// Panics if the profile's stage count differs from the graph's.
    pub fn from_profile(graph: Arc<JobGraph>, profile: &JobProfile) -> Self {
        assert_eq!(graph.num_stages(), profile.stages.len());
        let stage_runtimes: Vec<Dist> = profile
            .stages
            .iter()
            .map(|s| {
                if s.runtimes.is_empty() {
                    Dist::from(jockey_simrt::dist::Constant(1.0))
                } else {
                    Dist::from(s.runtime_dist())
                }
            })
            .collect();
        let stage_queues: Vec<Dist> = profile
            .stages
            .iter()
            .map(|s| {
                if s.queue_times.is_empty() {
                    Dist::from(jockey_simrt::dist::Constant(0.0))
                } else {
                    Dist::from(s.queue_dist())
                }
            })
            .collect();
        JobSpec {
            graph,
            stage_runtimes,
            stage_queues,
            task_failure_prob: profile.task_failure_prob,
            data_gb: profile.total_data_gb,
        }
    }

    /// Expected total work in task-seconds, when stage means are known.
    pub fn expected_work(&self) -> Option<f64> {
        let mut total = 0.0;
        for (sid, dist) in self.graph.stage_ids().zip(&self.stage_runtimes) {
            total += dist.mean()? * f64::from(self.graph.tasks_in(sid));
        }
        Some(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jockey_jobgraph::graph::{EdgeKind, JobGraphBuilder};
    use jockey_jobgraph::profile::ProfileBuilder;
    use jockey_jobgraph::StageId;
    use jockey_simrt::dist::Constant;

    fn graph() -> Arc<JobGraph> {
        let mut b = JobGraphBuilder::new("j");
        let m = b.stage("m", 3);
        let r = b.stage("r", 2);
        b.edge(m, r, EdgeKind::AllToAll);
        Arc::new(b.build().unwrap())
    }

    #[test]
    fn uniform_replicates_distributions() {
        let spec = JobSpec::uniform(graph(), Constant(5.0), Constant(1.0), 0.1);
        assert_eq!(spec.stage_runtimes.len(), 2);
        assert_eq!(spec.expected_work(), Some(25.0));
    }

    #[test]
    fn from_profile_resamples_empirically() {
        let g = graph();
        let mut pb = ProfileBuilder::new(&g);
        pb.record_task(StageId(0), 1.0, 4.0, false);
        pb.record_task(StageId(1), 0.0, 8.0, false);
        let profile = pb.finish(12.0, 50.0);
        let spec = JobSpec::from_profile(g, &profile);
        assert_eq!(spec.data_gb, 50.0);
        assert_eq!(spec.task_failure_prob, 0.0);
        // Stage 0 empirical has a single value 4.0.
        let mut rng = jockey_simrt::rng::SeedDeriver::new(0).rng("t");
        assert_eq!(spec.stage_runtimes[0].sample(&mut rng), 4.0);
    }

    #[test]
    fn from_profile_handles_empty_stages() {
        let g = graph();
        let profile = ProfileBuilder::new(&g).finish(1.0, 0.0);
        let spec = JobSpec::from_profile(g, &profile);
        let mut rng = jockey_simrt::rng::SeedDeriver::new(0).rng("t");
        assert_eq!(spec.stage_runtimes[0].sample(&mut rng), 1.0);
        assert_eq!(spec.stage_queues[0].sample(&mut rng), 0.0);
    }

    #[test]
    #[should_panic]
    fn new_rejects_wrong_lengths() {
        let g = graph();
        JobSpec::new(g, vec![], vec![], 0.0, 0.0);
    }
}
