//! Reusable per-run buffers for repeated simulation.
//!
//! Offline training (`C(p, a)` tables) and experiment sweeps run the
//! same job spec hundreds of times. A [`SimWorkspace`] lets those loops
//! rent each run's per-job state vectors — task states, attempt
//! counters, ready/running queues, status scratch — instead of
//! reallocating them per run: construct the sim with
//! [`ClusterSim::with_workspace`](crate::ClusterSim::with_workspace)
//! and pass the workspace back as the `reclaim` hook of
//! [`RunHooks`](crate::RunHooks) so the finished run returns its
//! buffers. Reuse is observably identical to fresh allocation — every
//! buffer is cleared and re-shaped for the incoming job graph.

use std::collections::VecDeque;

use jockey_jobgraph::graph::JobGraph;
use jockey_jobgraph::task::TaskId;
use jockey_simrt::event::EventQueue;

use crate::engine::{Event, RunningTask, TaskTable};

/// Per-job state vectors pooled between runs.
#[derive(Default)]
pub(crate) struct JobBuffers {
    /// Flat struct-of-arrays task state (see [`TaskTable`]).
    pub(crate) tasks: TaskTable,
    pub(crate) completed: Vec<u32>,
    pub(crate) floor: Vec<u32>,
    pub(crate) ready: VecDeque<TaskId>,
    pub(crate) running: Vec<RunningTask>,
    pub(crate) stage_fraction: Vec<f64>,
    pub(crate) stage_completed: Vec<u32>,
}

impl JobBuffers {
    /// Clears every buffer and re-shapes the task table for `graph`,
    /// leaving the exact state a fresh allocation would have.
    pub(crate) fn reset_for(&mut self, graph: &JobGraph) {
        let n = graph.num_stages();
        self.tasks.reset_for(graph);
        self.completed.clear();
        self.completed.resize(n, 0);
        self.floor.clear();
        self.floor.resize(n, 0);
        self.ready.clear();
        self.running.clear();
        self.stage_fraction.clear();
        self.stage_completed.clear();
    }
}

/// A pool of simulation buffers reused across runs.
///
/// See the module docs for the rent/reclaim protocol. A workspace may
/// be shared across jobs of different shapes — buffers are re-shaped on
/// rent — and grows to the largest per-run job count it has seen.
#[derive(Default)]
pub struct SimWorkspace {
    pub(crate) job_buffers: Vec<JobBuffers>,
    pub(crate) candidates: Vec<TaskId>,
    /// Pooled event queue: rented by the next run (after a reset that
    /// rewinds it to a fresh state) so repeated simulations keep the
    /// heap storage instead of reallocating per run.
    pub(crate) event_queue: Option<EventQueue<Event>>,
}

impl SimWorkspace {
    /// Creates an empty workspace.
    pub fn new() -> Self {
        SimWorkspace::default()
    }

    /// Number of pooled per-job buffer sets currently available.
    pub fn pooled_jobs(&self) -> usize {
        self.job_buffers.len()
    }

    pub(crate) fn give_back(&mut self, buffers: JobBuffers) {
        self.job_buffers.push(buffers);
    }

    pub(crate) fn reclaim_spares(&mut self, spares: Vec<JobBuffers>, candidates: Vec<TaskId>) {
        if self.job_buffers.is_empty() {
            self.job_buffers = spares;
        } else {
            self.job_buffers.extend(spares);
        }
        self.candidates = candidates;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ClusterConfig;
    use crate::controller::FixedAllocation;
    use crate::job::JobSpec;
    use crate::sim::{ClusterSim, RunHooks};
    use jockey_jobgraph::graph::{EdgeKind, JobGraphBuilder};
    use jockey_simrt::dist::Uniform;
    use std::sync::Arc;

    fn noisy_spec() -> JobSpec {
        let mut b = JobGraphBuilder::new("ws-job");
        let m = b.stage("map", 12);
        let mid = b.stage("mid", 12);
        let r = b.stage("reduce", 3);
        b.edge(m, mid, EdgeKind::OneToOne);
        b.edge(mid, r, EdgeKind::AllToAll);
        JobSpec::uniform(
            Arc::new(b.build().unwrap()),
            Uniform::new(4.0, 12.0),
            Uniform::new(0.0, 1.0),
            0.1,
        )
    }

    fn cluster_cfg() -> ClusterConfig {
        let mut cfg = ClusterConfig::production();
        cfg.total_tokens = 20;
        cfg.max_guarantee = 10;
        cfg
    }

    /// Satellite: a workspace reused across runs must match fresh-sim
    /// results event-for-event (identical journal dumps).
    #[test]
    fn workspace_reuse_matches_fresh_event_for_event() {
        let spec = Arc::new(noisy_spec());
        let mut ws = SimWorkspace::new();
        for seed in [1_u64, 2, 3] {
            let mut fresh = ClusterSim::new(cluster_cfg(), seed);
            let fresh_journal = fresh.attach_journal(1 << 14);
            fresh.add_job_shared(spec.clone(), Box::new(FixedAllocation(6)));
            let fresh_result = fresh.run_single();

            let mut reused = ClusterSim::with_workspace(cluster_cfg(), seed, &mut ws);
            let reused_journal = reused.attach_journal(1 << 14);
            reused.add_job_shared(spec.clone(), Box::new(FixedAllocation(6)));
            let reused_result = reused.run_single_hooked(RunHooks {
                sink: None,
                reclaim: Some(&mut ws),
            });

            assert_eq!(
                fresh_journal.dump(),
                reused_journal.dump(),
                "seed {seed}: reused workspace diverged from fresh sim"
            );
            assert_eq!(fresh_result.completed_at, reused_result.completed_at);
            assert_eq!(fresh_result.work_done_secs, reused_result.work_done_secs);
            assert_eq!(fresh_result.wasted_secs, reused_result.wasted_secs);
        }
    }

    #[test]
    fn buffers_flow_back_into_the_workspace() {
        let spec = Arc::new(noisy_spec());
        let mut ws = SimWorkspace::new();
        assert_eq!(ws.pooled_jobs(), 0);
        let mut sim = ClusterSim::with_workspace(cluster_cfg(), 9, &mut ws);
        sim.add_job_shared(spec, Box::new(FixedAllocation(6)));
        sim.run_hooked(RunHooks {
            sink: None,
            reclaim: Some(&mut ws),
        });
        assert_eq!(ws.pooled_jobs(), 1, "run must return its job buffers");
        // The reclaimed buffers carry grown capacity back to the pool.
        assert!(ws.job_buffers[0].tasks.total() > 0);
    }
}
