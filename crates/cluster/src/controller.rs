//! The controller interface between the cluster and Jockey.
//!
//! Every [`crate::sim::ClusterSim`] job carries a [`JobController`];
//! the simulator invokes it once per control period with a
//! [`JobStatus`] snapshot and applies the returned guarantee. Jockey's
//! adaptive policies (in `jockey-core`) implement this trait; the
//! static baselines live here.

use jockey_simrt::time::{SimDuration, SimTime};

/// A point-in-time snapshot of one job's execution state, handed to
/// its controller each control period (§4.3's control-loop inputs 1–2;
/// the utility function and model are the controller's own state).
#[derive(Clone, Debug, PartialEq)]
pub struct JobStatus {
    /// Current simulation time.
    pub now: SimTime,
    /// Time since the job started (`t_r`).
    pub elapsed: SimDuration,
    /// Fraction of completed tasks per stage (`f_s`).
    pub stage_fraction: Vec<f64>,
    /// Completed-task counts per stage.
    pub stage_completed: Vec<u32>,
    /// Tasks currently running (any token class).
    pub running: u32,
    /// Tasks currently running on guaranteed tokens.
    pub running_guaranteed: u32,
    /// The job's current token guarantee.
    pub guarantee: u32,
    /// Aggregate execution seconds of completed tasks so far.
    pub work_done: f64,
    /// True once every task has completed.
    pub finished: bool,
}

impl JobStatus {
    /// Overall fraction of completed tasks, weighted by stage size —
    /// a convenience for quick checks (real indicators live in
    /// `jockey-core`).
    pub fn completed_fraction(&self, stage_tasks: &[u32]) -> f64 {
        let total: u64 = stage_tasks.iter().map(|&t| u64::from(t)).sum();
        if total == 0 {
            return 1.0;
        }
        let done: u64 = self.stage_completed.iter().map(|&c| u64::from(c)).sum();
        done as f64 / total as f64
    }
}

/// A controller's decision for one control period.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ControlDecision {
    /// The token guarantee to apply until the next period.
    pub guarantee: u32,
    /// The raw (pre-hysteresis) allocation, recorded in traces to
    /// reproduce Fig. 6's blue line.
    pub raw: Option<f64>,
    /// The controller's current progress estimate in `[0, 1]`, if any.
    pub progress: Option<f64>,
    /// The controller's predicted completion time in seconds from job
    /// start, if any (Fig. 9's `T_t`).
    pub predicted_completion: Option<f64>,
}

impl ControlDecision {
    /// A bare decision with no diagnostics.
    pub fn simple(guarantee: u32) -> Self {
        ControlDecision {
            guarantee,
            raw: None,
            progress: None,
            predicted_completion: None,
        }
    }
}

/// Reacts to job progress by choosing a token guarantee.
pub trait JobController: Send {
    /// Called once per control period; returns the new guarantee.
    fn tick(&mut self, status: &JobStatus) -> ControlDecision;

    /// Called once when the job is admitted, to choose the initial
    /// guarantee. Defaults to an immediate [`JobController::tick`].
    fn initial(&mut self, status: &JobStatus) -> ControlDecision {
        self.tick(status)
    }

    /// Notifies the controller that the job's deadline changed at
    /// runtime (§5.2's deadline-change experiments). Default: ignore.
    fn deadline_changed(&mut self, _new_deadline: SimDuration) {}
}

/// Boxed controllers forward transparently, so wrappers generic over
/// `C: JobController` (e.g. jockey-core's fallback guard) can wrap an
/// already-erased `Box<dyn JobController>` too.
impl JobController for Box<dyn JobController> {
    fn tick(&mut self, status: &JobStatus) -> ControlDecision {
        (**self).tick(status)
    }

    fn initial(&mut self, status: &JobStatus) -> ControlDecision {
        (**self).initial(status)
    }

    fn deadline_changed(&mut self, new_deadline: SimDuration) {
        (**self).deadline_changed(new_deadline);
    }
}

/// The static baseline: a constant guarantee, never adapted ("Jockey
/// w/o adaptation" uses this with a simulator-chosen constant; "max
/// allocation" uses it with the full token budget).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FixedAllocation(pub u32);

impl JobController for FixedAllocation {
    fn tick(&mut self, _status: &JobStatus) -> ControlDecision {
        ControlDecision::simple(self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn status() -> JobStatus {
        JobStatus {
            now: SimTime::from_mins(5),
            elapsed: SimDuration::from_mins(5),
            stage_fraction: vec![0.5, 0.0],
            stage_completed: vec![2, 0],
            running: 3,
            running_guaranteed: 2,
            guarantee: 10,
            work_done: 40.0,
            finished: false,
        }
    }

    #[test]
    fn fixed_allocation_is_constant() {
        let mut c = FixedAllocation(25);
        assert_eq!(c.tick(&status()).guarantee, 25);
        assert_eq!(c.initial(&status()).guarantee, 25);
        c.deadline_changed(SimDuration::from_mins(10)); // No-op.
        assert_eq!(c.tick(&status()).guarantee, 25);
    }

    #[test]
    fn completed_fraction_weights_by_tasks() {
        let s = status();
        // 2 of 4+2=6 tasks done.
        assert!((s.completed_fraction(&[4, 2]) - 2.0 / 6.0).abs() < 1e-12);
        assert_eq!(s.completed_fraction(&[]), 1.0);
    }

    #[test]
    fn simple_decision_has_no_diagnostics() {
        let d = ControlDecision::simple(7);
        assert_eq!(d.guarantee, 7);
        assert!(d.raw.is_none() && d.progress.is_none() && d.predicted_completion.is_none());
    }
}
