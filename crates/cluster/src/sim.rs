//! The cluster-simulator facade.
//!
//! [`ClusterSim`] is the public entry point; the machinery lives in the
//! layered modules it composes:
//!
//! - [`engine`](crate::engine) — the discrete-event loop and the state
//!   mechanics (start/kill/evict/rollback);
//! - `scheduler` — token and spare-capacity arbitration
//!   (`WeightedFair`);
//! - `failure` — task and machine hazards (`DefaultFailureModel`);
//! - `invariants` — post-step consistency checks;
//! - [`workspace`](crate::workspace) — buffer pooling for repeated
//!   runs.
//!
//! # Diagnostics
//!
//! Every dispatched event, control decision, task transition and RNG
//! stream fork is reported through a [`SimObserver`]. By default no
//! observer is attached; call [`ClusterSim::attach_journal`] to retain
//! the last `N` records in a [`SharedJournal`] and dump them from a
//! failing test. In debug/test builds, after every step the simulator
//! checks its core invariants (token conservation, event-time
//! monotonicity, per-stage task accounting, monotone stage fractions)
//! and panics with the journal tail when one is violated.

use std::sync::Arc;

use jockey_jobgraph::profile::JobProfile;
use jockey_simrt::observe::{ProgressSink, SharedJournal, SimObserver};
use jockey_simrt::time::{SimDuration, SimTime};

use crate::config::ClusterConfig;
use crate::controller::JobController;
use crate::engine::{Engine, Event, JobRun};
use crate::job::JobSpec;
use crate::trace::RunTrace;
use crate::workspace::{JobBuffers, SimWorkspace};

/// The outcome of one job's simulated execution.
#[derive(Debug)]
pub struct JobResult {
    /// Job name (from its graph).
    pub name: String,
    /// When the job was submitted.
    pub started_at: SimTime,
    /// Completion time, or `None` if the simulation horizon was hit.
    pub completed_at: Option<SimTime>,
    /// Completed-work task-seconds (excluding failed/evicted attempts).
    pub work_done_secs: f64,
    /// Task-seconds lost to failures and evictions.
    pub wasted_secs: f64,
    /// Tasks started on guaranteed tokens.
    pub guaranteed_task_count: u64,
    /// Tasks started on spare tokens.
    pub spare_task_count: u64,
    /// Speculative clone attempts launched (clone-on-slow).
    pub clone_task_count: u64,
    /// Completions won by a clone (the straggling sibling lost).
    pub clone_wins: u64,
    /// Recorded control/allocation time series.
    pub trace: RunTrace,
    /// The profile measured during this run (usable as training data).
    pub profile: JobProfile,
}

impl JobResult {
    /// End-to-end latency, if the job finished.
    pub fn duration(&self) -> Option<SimDuration> {
        self.completed_at
            .map(|t| t.saturating_since(self.started_at))
    }

    /// The oracle allocation `O(T, d) = ceil(T/d)` for deadline `d`
    /// (§5.1), using this run's completed work as `T`.
    ///
    /// # Panics
    ///
    /// Panics if `deadline` is zero.
    pub fn oracle_allocation(&self, deadline: SimDuration) -> u32 {
        assert!(!deadline.is_zero());
        (self.work_done_secs / deadline.as_secs_f64()).ceil() as u32
    }
}

/// Borrowed hooks threaded through one run.
#[derive(Default)]
pub struct RunHooks<'a> {
    /// Receives a progress sample each time a job's controller is
    /// consulted (including the initial decision at job start).
    pub sink: Option<&'a mut dyn ProgressSink>,
    /// Workspace that reclaims the run's buffers after conversion.
    pub reclaim: Option<&'a mut SimWorkspace>,
}

/// The cluster simulator. See the crate docs for an end-to-end example.
pub struct ClusterSim {
    pub(crate) engine: Engine,
}

impl ClusterSim {
    /// Creates a simulator with the given configuration and root seed.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails validation.
    pub fn new(cfg: ClusterConfig, seed: u64) -> Self {
        ClusterSim {
            engine: Engine::new(cfg, seed),
        }
    }

    /// Like [`ClusterSim::new`], but rents per-job buffers from `ws`
    /// instead of allocating fresh ones. Pair with
    /// [`RunHooks::reclaim`] so the run returns them; reuse is
    /// observably identical to fresh allocation.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails validation.
    pub fn with_workspace(cfg: ClusterConfig, seed: u64, ws: &mut SimWorkspace) -> Self {
        ClusterSim {
            engine: Engine::with_workspace(cfg, seed, ws),
        }
    }

    /// Attaches `observer`, replacing any earlier one (by default none
    /// is attached and nothing is recorded).
    pub fn set_observer(&mut self, observer: Box<dyn SimObserver>) {
        self.engine.core.observer = Some(observer);
    }

    /// Attaches a fresh ring journal retaining `capacity` entries and
    /// returns a handle to it; use [`SharedJournal::dump`] after the
    /// run (or from a panic hook) to see what the simulator did last.
    pub fn attach_journal(&mut self, capacity: usize) -> SharedJournal {
        let journal = SharedJournal::new(capacity);
        self.engine.core.observer = Some(Box::new(journal.clone()));
        journal
    }

    /// Enables or disables the per-step invariant checks. They default
    /// to on in debug/test builds and off in release builds.
    pub fn set_invariant_checks(&mut self, enabled: bool) {
        self.engine.core.invariants_enabled = enabled;
    }

    /// Enables or disables per-task profile recording (default on).
    /// Training loops that only consume progress samples turn this off
    /// to keep per-run allocations out of the hot path; the returned
    /// [`JobResult::profile`] is then structurally empty (zero stages —
    /// the per-run profile builder itself is the allocation-free empty
    /// one). Must be set *before* jobs are added to take effect for
    /// those jobs.
    pub fn set_record_profile(&mut self, enabled: bool) {
        self.engine.core.record_profile = enabled;
    }

    /// Enables or disables control-trace recording (default on). With
    /// recording off, [`JobResult::trace`] stays empty.
    pub fn set_record_trace(&mut self, enabled: bool) {
        self.engine.core.record_trace = enabled;
    }

    /// Adds a job starting at time zero. Returns its index.
    pub fn add_job(&mut self, spec: JobSpec, controller: Box<dyn JobController>) -> usize {
        self.add_job_at(spec, controller, SimTime::ZERO)
    }

    /// Adds a job submitted at `start_at`. Returns its index.
    pub fn add_job_at(
        &mut self,
        spec: JobSpec,
        controller: Box<dyn JobController>,
        start_at: SimTime,
    ) -> usize {
        self.engine
            .core
            .add_job_at(Arc::new(spec), controller, start_at)
    }

    /// Adds a job from a shared spec, avoiding the per-run deep clone
    /// of graphs and distributions in repeated-simulation loops.
    /// Returns the job's index.
    pub fn add_job_shared(
        &mut self,
        spec: Arc<JobSpec>,
        controller: Box<dyn JobController>,
    ) -> usize {
        self.engine.core.add_job_at(spec, controller, SimTime::ZERO)
    }

    /// Schedules a deadline change for `job` at time `at` (§5.2's
    /// deadline-change experiments). The job's controller is notified
    /// via [`JobController::deadline_changed`].
    ///
    /// # Panics
    ///
    /// Panics if `job` is out of range.
    pub fn schedule_deadline_change(&mut self, job: usize, at: SimTime, new_deadline: SimDuration) {
        assert!(job < self.engine.core.jobs.len());
        self.engine
            .core
            .queue
            .schedule(at, Event::DeadlineChange { job, new_deadline });
    }

    /// Runs the simulation to completion (all jobs done, queue drained,
    /// or the configured horizon reached) and returns per-job results.
    pub fn run(self) -> Vec<JobResult> {
        self.run_hooked(RunHooks::default())
    }

    /// Runs a single-job simulation and returns its result.
    ///
    /// # Panics
    ///
    /// Panics if the simulation holds more or fewer than one job.
    pub fn run_single(self) -> JobResult {
        self.run_single_hooked(RunHooks::default())
    }

    /// [`ClusterSim::run_single`] with borrowed run hooks.
    ///
    /// # Panics
    ///
    /// Panics if the simulation holds more or fewer than one job.
    pub fn run_single_hooked(self, hooks: RunHooks<'_>) -> JobResult {
        let mut results = self.run_hooked(hooks);
        assert_eq!(
            results.len(),
            1,
            "run_single on a simulation with {} jobs",
            results.len()
        );
        results.swap_remove(0)
    }

    /// Runs the simulation with borrowed hooks: a [`ProgressSink`]
    /// sampling every controller consult, and/or a [`SimWorkspace`]
    /// reclaiming the run's buffers.
    pub fn run_hooked(mut self, hooks: RunHooks<'_>) -> Vec<JobResult> {
        let RunHooks { sink, mut reclaim } = hooks;
        self.engine.run_loop(sink);

        let horizon = self.engine.core.queue.now();
        let core = self.engine.core;
        let mut results = Vec::with_capacity(core.jobs.len());
        for (job, floor) in core.jobs.into_iter().zip(core.completed_floor) {
            let JobRun {
                spec,
                start_at,
                started,
                finished_at,
                tasks,
                completed,
                ready,
                running,
                work_done,
                wasted,
                guaranteed_task_count,
                spare_task_count,
                clone_task_count,
                clone_wins,
                profile,
                trace,
                status,
                ..
            } = job;
            let end = finished_at.unwrap_or(horizon.max_of(start_at));
            let duration = end.saturating_since(started.unwrap_or(start_at));
            let profile = profile.finish(duration.as_secs_f64().max(1e-3), spec.data_gb);
            results.push(JobResult {
                name: spec.graph.name().to_string(),
                started_at: start_at,
                completed_at: finished_at,
                work_done_secs: work_done,
                wasted_secs: wasted,
                guaranteed_task_count,
                spare_task_count,
                clone_task_count,
                clone_wins,
                trace,
                profile,
            });
            if let Some(ws) = reclaim.as_mut() {
                ws.give_back(JobBuffers {
                    tasks,
                    completed,
                    floor,
                    ready,
                    running,
                    stage_fraction: status.stage_fraction,
                    stage_completed: status.stage_completed,
                });
            }
        }
        if let Some(ws) = reclaim {
            ws.reclaim_spares(core.spare_buffers, core.cand_scratch);
            ws.event_queue = Some(core.queue);
        }
        results
    }
}
