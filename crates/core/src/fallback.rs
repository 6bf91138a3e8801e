//! Fair-share fallback on persistent model error (§5.6).
//!
//! "In certain cases, the job execution can significantly diverge from
//! the model … In these cases, we could … simply fall back on weighted
//! fair-sharing once the control loop detects large errors in model
//! predictions." [`FallbackGuard`] wraps any controller and watches the
//! completion estimate `T̂_t` it reports: for a well-calibrated model
//! the estimate is stable, while a model that keeps *slipping* (each
//! tick pushing completion later by nearly the whole control period or
//! more) has lost predictive power. After `trigger_ticks` consecutive
//! large slips, the guard abandons the model and pins a configured
//! fair-share guarantee for the rest of the job.

use jockey_cluster::{ControlDecision, JobController, JobStatus};
use jockey_simrt::time::SimDuration;

/// The §5.6 fallback policy, wrapped around the controller `C`.
pub struct FallbackGuard<C> {
    inner: C,
    /// Guarantee applied after falling back (the job's weighted fair
    /// share).
    fair_share: u32,
    /// A slip counts when the completion estimate moves later by more
    /// than this fraction of the elapsed interval (1.0 = the estimate
    /// recedes as fast as time passes; the job is making no modelled
    /// progress).
    slip_tolerance: f64,
    /// Consecutive slips that trigger the fallback.
    trigger_ticks: u32,
    last: Option<(f64, f64, u32)>, // (elapsed, predicted completion, guarantee).
    consecutive: u32,
    fallen_back: bool,
}

impl<C: JobController> FallbackGuard<C> {
    /// Guards `inner`, falling back to `fair_share` tokens after
    /// `trigger_ticks` consecutive prediction slips beyond
    /// `slip_tolerance`.
    ///
    /// # Panics
    ///
    /// Panics if `trigger_ticks` is zero or `slip_tolerance` is not
    /// positive.
    pub fn new(inner: C, fair_share: u32, slip_tolerance: f64, trigger_ticks: u32) -> Self {
        assert!(trigger_ticks > 0);
        assert!(slip_tolerance > 0.0);
        FallbackGuard {
            inner,
            fair_share,
            slip_tolerance,
            trigger_ticks,
            last: None,
            consecutive: 0,
            fallen_back: false,
        }
    }

    /// True once the guard has abandoned the model.
    pub fn fallen_back(&self) -> bool {
        self.fallen_back
    }

    /// The guarded controller.
    pub fn inner(&self) -> &C {
        &self.inner
    }
}

impl<C: JobController> JobController for FallbackGuard<C> {
    fn tick(&mut self, status: &JobStatus) -> ControlDecision {
        let mut d = self.inner.tick(status);
        if self.fallen_back {
            // The inner controller keeps its bookkeeping running, but
            // the fair share is pinned.
            d.guarantee = self.fair_share;
            return d;
        }
        let elapsed = status.elapsed.as_secs_f64();
        if let (Some((prev_elapsed, prev_pred, prev_guarantee)), Some(pred)) =
            (self.last, d.predicted_completion)
        {
            let dt = elapsed - prev_elapsed;
            // Releasing tokens legitimately pushes the estimate later;
            // only slips at non-decreasing allocation indicate model
            // error.
            if dt > 0.0 && d.guarantee >= prev_guarantee {
                let slip = (pred - prev_pred) / dt;
                if slip > self.slip_tolerance {
                    self.consecutive += 1;
                    if self.consecutive >= self.trigger_ticks {
                        self.fallen_back = true;
                        d.guarantee = self.fair_share;
                        return d;
                    }
                } else {
                    self.consecutive = 0;
                }
            }
        }
        if let Some(pred) = d.predicted_completion {
            self.last = Some((elapsed, pred, d.guarantee));
        }
        d
    }

    /// Admission-time sizing carries no slip signal: the initial
    /// decision passes through unguarded and records nothing.
    fn initial(&mut self, status: &JobStatus) -> ControlDecision {
        self.inner.initial(status)
    }

    fn deadline_changed(&mut self, new_deadline: SimDuration) {
        self.inner.deadline_changed(new_deadline);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jockey_simrt::time::SimTime;

    /// A controller whose completion estimate recedes forever (a
    /// maximally wrong model).
    struct Slipping {
        pred: f64,
    }

    impl JobController for Slipping {
        fn tick(&mut self, _status: &JobStatus) -> ControlDecision {
            self.pred += 200.0; // Slips 200 s per 60 s tick.
            ControlDecision {
                guarantee: 50,
                raw: None,
                progress: None,
                predicted_completion: Some(self.pred),
            }
        }
    }

    /// A controller whose estimate is rock stable.
    struct Stable;

    impl JobController for Stable {
        fn tick(&mut self, _status: &JobStatus) -> ControlDecision {
            ControlDecision {
                guarantee: 50,
                raw: None,
                progress: None,
                predicted_completion: Some(1_000.0),
            }
        }
    }

    fn status(minute: u64) -> JobStatus {
        JobStatus {
            now: SimTime::from_mins(minute),
            elapsed: SimDuration::from_mins(minute),
            stage_fraction: vec![0.5],
            stage_completed: vec![5],
            running: 10,
            running_guaranteed: 10,
            guarantee: 50,
            work_done: 0.0,
            finished: false,
        }
    }

    #[test]
    fn persistent_slips_trigger_fallback() {
        let mut g = FallbackGuard::new(Slipping { pred: 0.0 }, 7, 1.5, 3);
        for minute in 0..3 {
            let d = g.tick(&status(minute));
            assert_eq!(d.guarantee, 50, "minute {minute} fell back early");
        }
        // Third consecutive slip (minute 3) trips the guard.
        let d = g.tick(&status(3));
        assert_eq!(d.guarantee, 7);
        assert!(g.fallen_back());
        // And it stays fallen back.
        let d = g.tick(&status(4));
        assert_eq!(d.guarantee, 7);
    }

    #[test]
    fn stable_predictions_never_fall_back() {
        let mut g = FallbackGuard::new(Stable, 7, 1.5, 3);
        for minute in 0..50 {
            let d = g.tick(&status(minute));
            assert_eq!(d.guarantee, 50);
        }
        assert!(!g.fallen_back());
    }

    #[test]
    fn initial_decision_bypasses_the_guard() {
        // Admission-time sizing carries no slip signal; the initial
        // decision passes through and records nothing.
        let mut g = FallbackGuard::new(Slipping { pred: 0.0 }, 7, 1.5, 1);
        let d = g.initial(&status(0));
        assert_eq!(d.guarantee, 50);
        assert!(!g.fallen_back());
    }

    #[test]
    fn deadline_changes_reach_the_inner_controller() {
        struct Recording(Vec<SimDuration>);
        impl JobController for Recording {
            fn tick(&mut self, _s: &JobStatus) -> ControlDecision {
                ControlDecision::simple(50)
            }
            fn deadline_changed(&mut self, new_deadline: SimDuration) {
                self.0.push(new_deadline);
            }
        }
        let mut g = FallbackGuard::new(Recording(Vec::new()), 7, 1.5, 3);
        g.deadline_changed(SimDuration::from_mins(9));
        assert_eq!(g.inner().0, [SimDuration::from_mins(9)]);
    }

    #[test]
    fn intermittent_slips_reset_the_counter() {
        // Alternating slip/stable never reaches the trigger.
        struct Alternating {
            pred: f64,
            up: bool,
        }
        impl JobController for Alternating {
            fn tick(&mut self, _s: &JobStatus) -> ControlDecision {
                self.up = !self.up;
                if self.up {
                    self.pred += 200.0;
                }
                ControlDecision {
                    guarantee: 50,
                    raw: None,
                    progress: None,
                    predicted_completion: Some(self.pred),
                }
            }
        }
        let mut g = FallbackGuard::new(
            Alternating {
                pred: 0.0,
                up: false,
            },
            7,
            1.5,
            3,
        );
        for minute in 0..40 {
            g.tick(&status(minute));
        }
        assert!(!g.fallen_back());
    }
}

#[cfg(test)]
mod release_tests {
    use super::*;
    use jockey_simrt::time::SimTime;

    /// A healthy controller releasing tokens: each tick the guarantee
    /// drops and the (still-met) completion estimate moves later.
    struct Releasing {
        guarantee: u32,
        pred: f64,
    }

    impl JobController for Releasing {
        fn tick(&mut self, _s: &JobStatus) -> ControlDecision {
            self.guarantee = self.guarantee.saturating_sub(5).max(1);
            self.pred += 150.0; // Prediction recedes as tokens go back.
            ControlDecision {
                guarantee: self.guarantee,
                raw: None,
                progress: None,
                predicted_completion: Some(self.pred),
            }
        }
    }

    fn status(minute: u64) -> JobStatus {
        JobStatus {
            now: SimTime::from_mins(minute),
            elapsed: SimDuration::from_mins(minute),
            stage_fraction: vec![0.5],
            stage_completed: vec![5],
            running: 10,
            running_guaranteed: 10,
            guarantee: 50,
            work_done: 0.0,
            finished: false,
        }
    }

    #[test]
    fn healthy_releases_do_not_trip_the_guard() {
        let mut g = FallbackGuard::new(
            Releasing {
                guarantee: 200,
                pred: 1_000.0,
            },
            7,
            1.5,
            3,
        );
        // Guarantee decreases on every one of these ticks, so no slip
        // may be counted however fast the estimate recedes.
        for minute in 0..30 {
            g.tick(&status(minute));
        }
        assert!(!g.fallen_back(), "guard tripped on healthy releases");
    }
}
