//! The resource-allocation control loop (§4.3).
//!
//! Each control period the loop:
//!
//! 1. computes job progress `p` with its progress indicator;
//! 2. evaluates, for every candidate allocation `a`, the expected
//!    utility `U_a = U(t_r + S·C(p, a))` — predictions inflated by the
//!    **slack** factor `S` and the utility **shifted left by the dead
//!    zone** `D`;
//! 3. picks the *minimum* allocation maximizing utility,
//!    `A^r = argmin_a {a : U_a = max_b U_b}`;
//! 4. conditions the raw allocation: **increases** are applied only
//!    when the job is at least `D` behind schedule (predicted, at the
//!    current allocation, to miss the shifted deadline) — decreases
//!    (releasing over-provisioned tokens, Fig. 6(c)) are always
//!    allowed; and **hysteresis** smooths the move:
//!    `A^s_t = A^s_{t−1} + α (A^r − A^s_{t−1})`.
//!
//! Steps 2–3 are the pure [`ArgminPolicy`] core. [`JockeyController`]
//! wraps it behind the `JobController` seam and runs step 4 as
//! straight-line code, in the paper's fixed order:
//!
//! ```text
//! raw A^r ──► dead-zone gate ──► hysteresis EWMA ──► clamp ──► guarantee
//!             (increases only    (A^s += α(A^r−A^s))  (⌈·⌉, ≥ min)
//!              when ≥ D behind)
//! ```
//!
//! Slack is not a step on this line: it multiplies predictions (the
//! argmin and the schedule verdicts), never allocations. The latest
//! tick is kept as a [`ControlTick`] ([`JockeyController::last_tick`])
//! holding the value after each step, so a caller that reads it after
//! every tick can attribute each grant to the step that moved it. The
//! per-run history is the cluster's `RunTrace`.

use std::fmt;
use std::sync::Arc;

use jockey_cluster::{ControlDecision, JobController, JobStatus};
use jockey_simrt::time::SimDuration;

use crate::alloc::ArgminPolicy;
use crate::predict::CompletionModel;
use crate::progress::IndicatorContext;
use crate::utility::UtilityFunction;

/// Control-loop conditioning parameters (§4.3's three mechanisms).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ControlParams {
    /// Prediction multiplier `S` compensating for model error
    /// (default 1.2).
    pub slack: f64,
    /// Hysteresis coefficient `α ∈ (0, 1]`; 1.0 disables smoothing
    /// (default 0.2).
    pub hysteresis: f64,
    /// Dead zone `D` (default 3 minutes).
    pub dead_zone: SimDuration,
    /// Lower bound on the applied guarantee.
    pub min_allocation: u32,
}

impl Default for ControlParams {
    fn default() -> Self {
        ControlParams {
            slack: 1.2,
            hysteresis: 0.2,
            dead_zone: SimDuration::from_mins(3),
            min_allocation: 1,
        }
    }
}

/// Why a [`ControlParams`] value was rejected.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum InvalidControlParams {
    /// `slack` must be finite and `>= 1` (NaN is rejected explicitly).
    Slack(f64),
    /// `hysteresis` must be finite and in `(0, 1]` (NaN is rejected
    /// explicitly).
    Hysteresis(f64),
    /// `min_allocation` must be `>= 1`.
    MinAllocation(u32),
}

impl fmt::Display for InvalidControlParams {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InvalidControlParams::Slack(v) => {
                write!(f, "slack must be a finite value >= 1, got {v}")
            }
            InvalidControlParams::Hysteresis(v) => {
                write!(f, "hysteresis must be a finite value in (0, 1], got {v}")
            }
            InvalidControlParams::MinAllocation(v) => {
                write!(f, "min_allocation must be >= 1, got {v}")
            }
        }
    }
}

impl std::error::Error for InvalidControlParams {}

impl ControlParams {
    /// Validates parameter ranges, returning the first problem found.
    /// NaN slack or hysteresis is rejected (comparison chains alone
    /// would be easy to get wrong around NaN, so finiteness is checked
    /// explicitly).
    pub fn check(&self) -> Result<(), InvalidControlParams> {
        if !self.slack.is_finite() || self.slack < 1.0 {
            return Err(InvalidControlParams::Slack(self.slack));
        }
        if !self.hysteresis.is_finite() || self.hysteresis <= 0.0 || self.hysteresis > 1.0 {
            return Err(InvalidControlParams::Hysteresis(self.hysteresis));
        }
        if self.min_allocation < 1 {
            return Err(InvalidControlParams::MinAllocation(self.min_allocation));
        }
        Ok(())
    }

    /// Validates parameter ranges.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range values; see [`ControlParams::check`] for
    /// the non-panicking form.
    pub fn validate(&self) {
        if let Err(e) = self.check() {
            panic!("invalid control params: {e}");
        }
    }
}

/// One control decision as the controller saw it: the inputs, the
/// allocation after each conditioning step (`raw → gated → smoothed →
/// guarantee`), and the dead-zone verdicts that gated the move.
/// The most recent one is [`JockeyController::last_tick`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ControlTick {
    /// Elapsed job time `t_r` in seconds.
    pub elapsed_secs: f64,
    /// Progress indicator value `p` in `[0, 1]`.
    pub progress: f64,
    /// Raw allocation `A^r`.
    pub raw: f64,
    /// The dead-zone gate's output: `raw`, or the allocation in force
    /// when an increase was blocked because the job was not behind.
    pub gated: f64,
    /// Smoothed allocation `A^s` after hysteresis.
    pub smoothed: f64,
    /// Whether the job was at least `D` behind schedule (the increase
    /// gate) at the allocation in force.
    pub behind: bool,
    /// Whether the job was at least `D` ahead of the shifted schedule
    /// (a diagnostic margin verdict; decreases are not gated on it).
    pub ahead: bool,
    /// The applied guarantee.
    pub guarantee: u32,
    /// Predicted completion time in seconds from job start.
    pub predicted_completion_secs: f64,
    /// Whether the job had already finished at this tick.
    pub finished: bool,
}

/// Jockey's adaptive controller: a completion model (simulator-trained
/// `C(p, a)` or Amdahl) driven through the §4.3 control policy.
///
/// The pure [`ArgminPolicy`] picks the raw allocation; the controller
/// conditions it (dead zone, hysteresis, clamp), wires job status in
/// and keeps its latest decision as a [`ControlTick`].
pub struct JockeyController {
    policy: ArgminPolicy,
    indicator: IndicatorContext,
    utility: UtilityFunction,
    params: ControlParams,
    /// The hysteresis memory `A^s_{t−1}`: `None` before the first
    /// decision and after a deadline change.
    smoothed: Option<f64>,
    /// The most recent decision, overwritten every tick.
    last: Option<ControlTick>,
    /// This tick's `C(p, min_allocation..=max)`, refilled every tick
    /// (λ updates and online model generations change the model
    /// between ticks) into a buffer that keeps its capacity.
    curve: Vec<f64>,
}

impl JockeyController {
    /// Creates a controller with the §4.3 conditioning.
    ///
    /// # Panics
    ///
    /// Panics on invalid [`ControlParams`].
    pub fn new(
        model: Arc<dyn CompletionModel>,
        indicator: IndicatorContext,
        utility: UtilityFunction,
        params: ControlParams,
    ) -> Self {
        params.validate();
        let shifted_utility = utility.shifted_left(params.dead_zone);
        JockeyController {
            policy: ArgminPolicy::new(model, shifted_utility, params.min_allocation),
            indicator,
            utility,
            params,
            smoothed: None,
            last: None,
            curve: Vec::new(),
        }
    }

    /// The most recent decision: its inputs, the allocation after each
    /// conditioning step and the dead-zone verdicts. `None` before the
    /// first tick.
    pub fn last_tick(&self) -> Option<&ControlTick> {
        self.last.as_ref()
    }

    /// The pure argmin decision core.
    pub fn policy(&self) -> &ArgminPolicy {
        &self.policy
    }

    /// The raw allocation `A^r`: the minimum allocation maximizing
    /// expected utility at progress `p` and elapsed time `t_r`.
    pub fn raw_allocation(&self, fs: &[f64], progress: f64, elapsed_secs: f64) -> u32 {
        self.policy
            .raw_allocation(fs, progress, elapsed_secs, self.params.slack)
    }

    /// The control parameters.
    pub fn params(&self) -> &ControlParams {
        &self.params
    }

    /// The dead-zone verdicts `(behind, ahead)` at allocation `probe`:
    /// behind when the slack-inflated completion lands past the
    /// deadline less `D`, ahead when it lands at least `2D` before the
    /// deadline. With no deadline encoded there is nothing to be
    /// behind or ahead of, and both verdicts are `true` (no gating).
    fn verdicts(&self, fs: &[f64], progress: f64, elapsed_secs: f64, probe: u32) -> (bool, bool) {
        let Some(deadline) = self.utility.deadline_duration() else {
            return (true, true);
        };
        let remaining = self.params.slack * self.remaining_at(fs, progress, probe);
        let finish = elapsed_secs + remaining;
        let deadline = deadline.as_secs_f64();
        let dead_zone = self.params.dead_zone.as_secs_f64();
        (
            finish > deadline - dead_zone,
            finish <= deadline - 2.0 * dead_zone,
        )
    }

    /// `C(p, allocation)` read from this tick's curve. An allocation
    /// outside it (below `min_allocation`, or above the model's cap,
    /// where `⌈A^s⌉` could land after rounding) takes the single query,
    /// so the answer never depends on whether the curve covers it.
    fn remaining_at(&self, fs: &[f64], progress: f64, allocation: u32) -> f64 {
        allocation
            .checked_sub(self.params.min_allocation)
            .and_then(|i| self.curve.get(i as usize))
            .copied()
            .unwrap_or_else(|| self.policy.model().remaining_secs(fs, progress, allocation))
    }
}

/// The dead-zone gate: an increase over the allocation in force passes
/// only when the job is `behind`; decreases (token releases, Fig. 6(c))
/// always pass, and the first decision adopts the raw allocation
/// outright (the pessimistic initial sizing of §1).
fn gate(in_force: Option<f64>, raw: f64, behind: bool) -> f64 {
    match in_force {
        Some(cur) if raw > cur && !behind => cur,
        _ => raw,
    }
}

/// The hysteresis EWMA `A^s_t = A^s_{t−1} + α (target − A^s_{t−1})`;
/// the first decision jumps straight to the target.
pub(crate) fn smooth(in_force: Option<f64>, target: f64, alpha: f64) -> f64 {
    match in_force {
        None => target,
        Some(cur) => cur + alpha * (target - cur),
    }
}

/// The applied guarantee: `⌈A^s⌉`, at least `min_allocation`.
pub(crate) fn clamp(smoothed: f64, min_allocation: u32) -> u32 {
    (smoothed.ceil().max(f64::from(min_allocation)) as u32).max(min_allocation)
}

impl JobController for JockeyController {
    fn tick(&mut self, status: &JobStatus) -> ControlDecision {
        let tr = status.elapsed.as_secs_f64();
        if status.finished {
            let g = self.params.min_allocation;
            self.last = Some(ControlTick {
                elapsed_secs: tr,
                progress: 1.0,
                raw: f64::from(g),
                gated: f64::from(g),
                smoothed: self.smoothed.unwrap_or(f64::from(g)),
                behind: false,
                ahead: true,
                guarantee: g,
                predicted_completion_secs: tr,
                finished: true,
            });
            return ControlDecision::simple(g);
        }
        let fs = &status.stage_fraction;
        let p = self.indicator.progress(fs);
        // One curve answers the argmin, the verdicts and the prediction.
        self.policy.fill_curve(fs, p, &mut self.curve);
        let raw = self.policy.argmin(&self.curve, tr, self.params.slack);

        // The verdicts are taken at the allocation in force (the raw
        // allocation itself on the first decision).
        let in_force = self.smoothed;
        let probe = match in_force {
            None => raw,
            Some(cur) => (cur.round() as u32).max(self.params.min_allocation),
        };
        let (behind, ahead) = self.verdicts(fs, p, tr, probe);

        let gated = gate(in_force, f64::from(raw), behind);
        let smoothed = smooth(in_force, gated, self.params.hysteresis);
        self.smoothed = Some(smoothed);
        let guarantee = clamp(smoothed, self.params.min_allocation);

        let predicted = tr + self.remaining_at(fs, p, guarantee);
        self.last = Some(ControlTick {
            elapsed_secs: tr,
            progress: p,
            raw: f64::from(raw),
            gated,
            smoothed,
            behind,
            ahead,
            guarantee,
            predicted_completion_secs: predicted,
            finished: false,
        });
        ControlDecision {
            guarantee,
            raw: Some(f64::from(raw)),
            progress: Some(p),
            predicted_completion: Some(predicted),
        }
    }

    fn deadline_changed(&mut self, new_deadline: SimDuration) {
        self.utility = self.utility.with_deadline(new_deadline);
        self.policy
            .set_shifted_utility(self.utility.shifted_left(self.params.dead_zone));
        // A new SLO is a fresh sizing problem: the next decision jumps
        // straight to the raw allocation (as at job admission) instead
        // of chasing it through the hysteresis filter — a halved
        // deadline cannot afford a multi-period ramp, and a relaxed one
        // should release its over-provision immediately (§5.2 reports
        // 63–83% released on doubling/tripling).
        self.smoothed = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::progress::{IndicatorContext, ProgressIndicator};
    use jockey_simrt::time::SimTime;

    /// A transparent analytic model: remaining = (1 - progress) * work / a.
    struct ToyModel {
        work: f64,
        max: u32,
    }

    impl CompletionModel for ToyModel {
        fn remaining_secs(&self, _fs: &[f64], progress: f64, allocation: u32) -> f64 {
            (1.0 - progress) * self.work / f64::from(allocation.max(1))
        }
        fn max_allocation(&self) -> u32 {
            self.max
        }
    }

    fn indicator() -> IndicatorContext {
        // Single-stage fixture.
        let mut b = jockey_jobgraph::graph::JobGraphBuilder::new("toy");
        b.stage("only", 10);
        let g = b.build().unwrap();
        let mut pb = jockey_jobgraph::profile::ProfileBuilder::new(&g);
        for _ in 0..10 {
            pb.record_task(jockey_jobgraph::StageId(0), 1.0, 10.0, false);
        }
        let p = pb.finish(100.0, 1.0);
        IndicatorContext::new(ProgressIndicator::VertexFrac, &g, &p, None)
    }

    fn status(frac: f64, elapsed_mins: f64, guarantee: u32) -> JobStatus {
        JobStatus {
            now: SimTime::from_secs_f64(elapsed_mins * 60.0),
            elapsed: SimDuration::from_secs_f64(elapsed_mins * 60.0),
            stage_fraction: vec![frac],
            stage_completed: vec![(frac * 10.0) as u32],
            running: guarantee,
            running_guaranteed: guarantee,
            guarantee,
            work_done: frac * 100.0,
            finished: frac >= 1.0,
        }
    }

    fn controller(work: f64, deadline_mins: u64, params: ControlParams) -> JockeyController {
        JockeyController::new(
            Arc::new(ToyModel { work, max: 100 }),
            indicator(),
            UtilityFunction::deadline(SimDuration::from_mins(deadline_mins)),
            params,
        )
    }

    #[test]
    fn raw_allocation_is_minimal_deadline_meeting() {
        // 6000 s of work, 60-min deadline (3600 s), slack 1.0, dead
        // zone 0: need ceil(6000/3600) = 2 tokens.
        let params = ControlParams {
            slack: 1.0,
            hysteresis: 1.0,
            dead_zone: SimDuration::ZERO,
            min_allocation: 1,
        };
        let c = controller(6_000.0, 60, params);
        assert_eq!(c.raw_allocation(&[0.0], 0.0, 0.0), 2);
        // With slack 1.5: 9000/3600 -> 3.
        let c = controller(
            6_000.0,
            60,
            ControlParams {
                slack: 1.5,
                ..params
            },
        );
        assert_eq!(c.raw_allocation(&[0.0], 0.0, 0.0), 3);
    }

    #[test]
    fn first_tick_jumps_to_raw() {
        let params = ControlParams {
            slack: 1.0,
            hysteresis: 0.2,
            dead_zone: SimDuration::ZERO,
            min_allocation: 1,
        };
        let mut c = controller(6_000.0, 60, params);
        let d = c.tick(&status(0.0, 0.0, 0));
        assert_eq!(d.guarantee, 2);
        assert_eq!(d.raw, Some(2.0));
        assert_eq!(d.progress, Some(0.0));
    }

    #[test]
    fn hysteresis_smooths_increases() {
        let params = ControlParams {
            slack: 1.0,
            hysteresis: 0.5,
            dead_zone: SimDuration::ZERO,
            min_allocation: 1,
        };
        let mut c = controller(6_000.0, 60, params);
        c.tick(&status(0.0, 0.0, 0)); // smoothed = 2.
                                      // 30 minutes in, no progress: need 6000/1800 = 4 raw; smoothed
                                      // moves halfway from 2 to 4 = 3.
        let d = c.tick(&status(0.0, 30.0, 2));
        assert_eq!(d.raw, Some(4.0));
        assert_eq!(d.guarantee, 3);
    }

    #[test]
    fn behind_schedule_jobs_get_more_tokens() {
        let mut c = controller(6_000.0, 60, ControlParams::default());
        let first = c.tick(&status(0.0, 0.0, 0)).guarantee;
        // Halfway to deadline with only 10% done: well behind.
        let later = c.tick(&status(0.1, 30.0, first)).guarantee;
        assert!(later > first, "{later} vs {first}");
    }

    #[test]
    fn ahead_of_schedule_jobs_release_tokens() {
        let mut c = controller(6_000.0, 60, ControlParams::default());
        let first = c.tick(&status(0.0, 0.0, 0)).guarantee;
        // 90% done after 10 minutes: way ahead; raw collapses.
        let later = c.tick(&status(0.9, 10.0, first)).guarantee;
        assert!(later <= first, "{later} vs {first}");
        let even_later = c.tick(&status(0.95, 12.0, later)).guarantee;
        assert!(even_later <= later);
    }

    #[test]
    fn dead_zone_tightens_effective_deadline() {
        // 3100 s of work against a 60-min deadline: 1 token meets the
        // raw deadline (3100 < 3600) but not a 50-min shifted one
        // (3100 > 3000), so a 10-minute dead zone asks for 2 tokens.
        let without = controller(
            3_100.0,
            60,
            ControlParams {
                slack: 1.0,
                hysteresis: 1.0,
                dead_zone: SimDuration::ZERO,
                min_allocation: 1,
            },
        );
        let with = controller(
            3_100.0,
            60,
            ControlParams {
                slack: 1.0,
                hysteresis: 1.0,
                dead_zone: SimDuration::from_mins(10),
                min_allocation: 1,
            },
        );
        assert_eq!(without.raw_allocation(&[0.0], 0.0, 0.0), 1);
        assert_eq!(with.raw_allocation(&[0.0], 0.0, 0.0), 2);
    }

    #[test]
    fn dead_zone_gate_blocks_increases_when_on_schedule() {
        // A model whose raw allocation can exceed the current one even
        // while the current allocation is on schedule: remaining time
        // is flat in `a` below 10 tokens, so the argmin lands high when
        // the tail begins to matter, but the current small allocation
        // already meets the shifted deadline.
        struct Step;
        impl CompletionModel for Step {
            fn remaining_secs(&self, _fs: &[f64], progress: f64, a: u32) -> f64 {
                let base = (1.0 - progress) * 2_000.0;
                if a >= 10 {
                    base * 0.5
                } else {
                    base
                }
            }
            fn max_allocation(&self) -> u32 {
                100
            }
        }
        let params = ControlParams {
            slack: 1.0,
            hysteresis: 1.0,
            dead_zone: SimDuration::from_mins(3),
            min_allocation: 1,
        };
        let mut c = JockeyController::new(
            Arc::new(Step),
            indicator(),
            UtilityFunction::deadline(SimDuration::from_mins(60)),
            params,
        );
        // First decision adopts the raw allocation (1: 2000 s meets the
        // 57-minute shifted deadline at any allocation).
        let g0 = c.tick(&status(0.0, 0.0, 0)).guarantee;
        assert_eq!(g0, 1);
        // Still on schedule later: no escalation.
        let g1 = c.tick(&status(0.5, 10.0, g0)).guarantee;
        assert_eq!(g1, 1);
    }

    #[test]
    fn impossible_deadline_pushes_to_max() {
        let params = ControlParams {
            slack: 1.0,
            hysteresis: 1.0,
            dead_zone: SimDuration::ZERO,
            min_allocation: 1,
        };
        let mut c = controller(1_000_000.0, 60, params);
        let d = c.tick(&status(0.0, 0.0, 0));
        // No allocation meets the deadline; utility still improves with
        // earlier completion, so the loop escalates to the cap.
        assert_eq!(d.guarantee, 100);
    }

    #[test]
    fn deadline_change_triggers_reallocation() {
        let params = ControlParams {
            slack: 1.0,
            hysteresis: 1.0,
            dead_zone: SimDuration::ZERO,
            min_allocation: 1,
        };
        let mut c = controller(6_000.0, 60, params);
        let before = c.tick(&status(0.0, 0.0, 0)).guarantee;
        c.deadline_changed(SimDuration::from_mins(30));
        let after = c.tick(&status(0.0, 1.0, before)).guarantee;
        assert!(after > before, "{after} vs {before}");
        // Relaxing the deadline releases resources again.
        c.deadline_changed(SimDuration::from_mins(120));
        let relaxed = c.tick(&status(0.1, 2.0, after)).guarantee;
        assert!(relaxed < after);
    }

    #[test]
    fn finished_job_releases_to_minimum() {
        let mut c = controller(6_000.0, 60, ControlParams::default());
        c.tick(&status(0.0, 0.0, 0));
        let d = c.tick(&status(1.0, 20.0, 5));
        assert_eq!(d.guarantee, 1);
    }

    #[test]
    fn predicted_completion_is_reported() {
        let params = ControlParams {
            slack: 1.0,
            hysteresis: 1.0,
            dead_zone: SimDuration::ZERO,
            min_allocation: 1,
        };
        let mut c = controller(6_000.0, 60, params);
        let d = c.tick(&status(0.0, 0.0, 0));
        // 2 tokens -> 3000 s predicted completion.
        assert_eq!(d.predicted_completion, Some(3_000.0));
    }

    #[test]
    #[should_panic(expected = "slack")]
    fn rejects_sub_one_slack() {
        ControlParams {
            slack: 0.9,
            ..ControlParams::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "hysteresis")]
    fn rejects_zero_hysteresis() {
        ControlParams {
            hysteresis: 0.0,
            ..ControlParams::default()
        }
        .validate();
    }

    #[test]
    fn check_rejects_nan_and_reports_typed_errors() {
        // `slack >= 1.0` alone would let NaN through: every comparison
        // against NaN is false, so `slack < 1.0` never fires for it.
        let p = ControlParams {
            slack: f64::NAN,
            ..ControlParams::default()
        };
        assert!(matches!(p.check(), Err(InvalidControlParams::Slack(v)) if v.is_nan()));

        let p = ControlParams {
            hysteresis: f64::NAN,
            ..ControlParams::default()
        };
        assert!(matches!(p.check(), Err(InvalidControlParams::Hysteresis(v)) if v.is_nan()));

        let p = ControlParams {
            slack: f64::INFINITY,
            ..ControlParams::default()
        };
        assert!(matches!(p.check(), Err(InvalidControlParams::Slack(_))));

        let p = ControlParams {
            min_allocation: 0,
            ..ControlParams::default()
        };
        assert_eq!(p.check(), Err(InvalidControlParams::MinAllocation(0)));

        assert_eq!(ControlParams::default().check(), Ok(()));
    }

    /// Remaining time collapses by 4x from the second token on, then is
    /// flat — lets the raw allocation drop below the current one while
    /// the job sits inside the dead zone (neither behind nor far
    /// ahead).
    struct TwoTier {
        work: f64,
    }

    impl CompletionModel for TwoTier {
        fn remaining_secs(&self, _fs: &[f64], progress: f64, a: u32) -> f64 {
            let base = (1.0 - progress) * self.work;
            if a >= 2 {
                base / 4.0
            } else {
                base
            }
        }
        fn max_allocation(&self) -> u32 {
            100
        }
    }

    #[test]
    fn releases_are_not_gated_on_ahead_margin() {
        // Decreases are always applied (module doc, step 4); only
        // increases are dead-zone gated. Regression test for a bug
        // where releases waited until the job was 2D *ahead* of
        // schedule, so a job inside the dead zone never gave back
        // over-provisioned tokens (and max-allocation runs tied
        // Jockey's §5.1 impact instead of exceeding it).
        let params = ControlParams {
            slack: 1.0,
            hysteresis: 1.0,
            dead_zone: SimDuration::from_mins(5),
            min_allocation: 1,
        };
        let mut c = JockeyController::new(
            Arc::new(TwoTier { work: 13_000.0 }),
            indicator(),
            UtilityFunction::deadline(SimDuration::from_mins(60)),
            params,
        );
        let g0 = c.tick(&status(0.0, 0.0, 0)).guarantee;
        assert_eq!(g0, 2);
        // 50 minutes in and nearly done: completion at the current
        // allocation lands inside the dead zone, and a single token now
        // suffices.
        let d = c.tick(&status(0.984, 50.0, g0));
        let last = *c.last_tick().unwrap();
        assert!(
            !last.behind && !last.ahead,
            "expected the dead-zone middle: {last:?}"
        );
        assert_eq!(d.guarantee, 1, "release must not wait for the ahead margin");
    }

    #[test]
    fn trace_records_every_tick() {
        let params = ControlParams {
            slack: 1.0,
            hysteresis: 0.5,
            dead_zone: SimDuration::ZERO,
            min_allocation: 1,
        };
        let mut c = controller(6_000.0, 60, params);
        assert!(c.last_tick().is_none());
        let d0 = c.tick(&status(0.0, 0.0, 0));
        let t0 = *c.last_tick().unwrap();
        let d1 = c.tick(&status(0.0, 30.0, 2));
        let t1 = *c.last_tick().unwrap();
        assert_eq!(t0.guarantee, d0.guarantee);
        assert_eq!(Some(t1.raw), d1.raw);
        assert_eq!(Some(t1.progress), d1.progress);
        assert_eq!(Some(t1.predicted_completion_secs), d1.predicted_completion);
        assert!(t1.behind, "30 min in with zero progress is behind");
        assert!(!t1.finished);
        assert_eq!(t1.elapsed_secs, 1800.0);
    }

    #[test]
    fn finished_ticks_are_recorded() {
        let mut c = controller(6_000.0, 60, ControlParams::default());
        c.tick(&status(0.0, 0.0, 0));
        c.tick(&status(1.0, 20.0, 5));
        let last = c.last_tick().unwrap();
        assert!(last.finished);
        assert_eq!(last.guarantee, 1);
        assert_eq!(last.progress, 1.0);
    }

    #[test]
    fn finished_status_with_empty_fractions_is_safe() {
        // The finished path must not consult the indicator: a drained
        // job may report no per-stage fractions at all.
        let mut c = controller(6_000.0, 60, ControlParams::default());
        let mut st = status(1.0, 20.0, 5);
        st.stage_fraction.clear();
        assert_eq!(c.tick(&st).guarantee, 1);
    }

    #[test]
    #[should_panic(expected = "fs length mismatch")]
    fn running_status_with_wrong_stage_count_panics() {
        // For a *running* job, a stage-fraction/graph mismatch is a
        // caller bug, surfaced loudly rather than silently mis-read.
        let mut c = controller(6_000.0, 60, ControlParams::default());
        let mut st = status(0.5, 20.0, 5);
        st.stage_fraction.clear();
        c.tick(&st);
    }

    #[test]
    fn progress_extremes_are_handled() {
        let params = ControlParams {
            slack: 1.0,
            hysteresis: 1.0,
            dead_zone: SimDuration::ZERO,
            min_allocation: 1,
        };
        let c = controller(6_000.0, 60, params);
        // Progress exactly 0: the full-work sizing.
        assert_eq!(c.raw_allocation(&[0.0], 0.0, 0.0), 2);
        // Progress exactly 1: nothing remains, the minimum suffices.
        assert_eq!(c.raw_allocation(&[1.0], 1.0, 100.0), 1);
    }

    #[test]
    fn no_deadline_disables_dead_zone_gating() {
        // A utility with no deadline encoded: both dead-zone verdicts
        // report `true` (nothing to be behind or ahead of), so the
        // controller simply chases the raw allocation.
        let params = ControlParams {
            slack: 1.0,
            hysteresis: 1.0,
            dead_zone: SimDuration::from_mins(3),
            min_allocation: 1,
        };
        let mut c = JockeyController::new(
            Arc::new(ToyModel {
                work: 6_000.0,
                max: 100,
            }),
            indicator(),
            UtilityFunction::from_knots(vec![(0.0, 1.0), (10_000.0, 0.0)]),
            params,
        );
        for st in [status(0.0, 0.0, 0), status(0.1, 30.0, 1)] {
            c.tick(&st);
            let t = c.last_tick().unwrap();
            assert!(t.behind && t.ahead, "no deadline: both gates open: {t:?}");
        }
    }

    /// A controller over the linear toy with no dead zone and no
    /// smoothing, at slack `slack`.
    fn linear(work: f64, deadline_mins: u64, slack: f64) -> JockeyController {
        controller(
            work,
            deadline_mins,
            ControlParams {
                slack,
                hysteresis: 1.0,
                dead_zone: SimDuration::ZERO,
                min_allocation: 1,
            },
        )
    }

    /// §4.3 argmin with the linear toy model: the minimum allocation
    /// that makes the deadline is `⌈S·W·(1−p) / (D − t)⌉`.
    #[test]
    fn argmin_matches_the_ceiling_closed_form() {
        let work = 36_000.0;
        let deadline = 3_600.0;
        for &(progress, elapsed, slack) in &[
            (0.0_f64, 0.0, 1.0_f64),
            (0.0, 0.0, 1.2),
            (0.5, 600.0, 1.0),
            (0.5, 600.0, 1.6),
            (0.9, 3_000.0, 1.2),
        ] {
            let expect = (slack * work * (1.0 - progress) / (deadline - elapsed)).ceil() as u32;
            let got = linear(work, 60, slack).raw_allocation(&[progress], progress, elapsed);
            assert_eq!(got, expect.max(1), "p={progress} t={elapsed} S={slack}");
        }
    }

    #[test]
    fn slack_inflates_predictions_not_allocations() {
        // 36000/3600 = 10 tokens without slack, ⌈1.5·10⌉ = 15 with
        // S = 1.5...
        assert_eq!(
            linear(36_000.0, 60, 1.0).raw_allocation(&[0.0], 0.0, 0.0),
            10
        );
        let mut c = linear(36_000.0, 60, 1.5);
        assert_eq!(c.raw_allocation(&[0.0], 0.0, 0.0), 15);
        // ...and the grant is that argmin, not the argmin times S: no
        // conditioning step scales an allocation.
        let d = c.tick(&status(0.0, 0.0, 0));
        let t = *c.last_tick().unwrap();
        assert_eq!((t.raw, t.gated, t.smoothed), (15.0, 15.0, 15.0));
        assert_eq!(d.guarantee, 15);
    }

    #[test]
    fn dead_zone_gates_increases_on_the_behind_boundary() {
        let c = controller(
            36_000.0,
            60,
            ControlParams {
                slack: 1.0,
                hysteresis: 1.0,
                dead_zone: SimDuration::from_secs_f64(300.0),
                min_allocation: 1,
            },
        );
        let behind = |p: f64, t: f64| c.verdicts(&[p], p, t, 4).0;
        // In force: 4 tokens. Behind iff t + W(1−p)/4 > D − Z = 3300 s.
        // p = 0.6 → remaining 3600 s > 3300: behind, the increase passes.
        assert!(behind(0.6, 0.0));
        assert_eq!(gate(Some(4.0), 6.0, true), 6.0);
        // p = 0.9 → remaining 900 s < 3300: on schedule, increase blocked.
        assert!(!behind(0.9, 0.0));
        assert_eq!(gate(Some(4.0), 6.0, false), 4.0);
        // The boundary itself is on schedule: 1050 + 2250 = 3300.
        assert!(!behind(0.75, 1_050.0));
        assert!(behind(0.75, 1_051.0));
        // Decreases always pass (Fig. 6(c): releases are never delayed).
        assert_eq!(gate(Some(4.0), 2.0, false), 2.0);
        // First decision (nothing in force) adopts the proposal outright.
        assert_eq!(gate(None, 6.0, false), 6.0);
    }

    #[test]
    fn hysteresis_follows_the_ewma_closed_form() {
        // First decision jumps to the target.
        assert_eq!(smooth(None, 8.0, 0.25), 8.0);
        // A^s ← A^s + α(A^r − A^s): 8 + 0.25·(4−8) = 7, then 6.25.
        assert_eq!(smooth(Some(8.0), 4.0, 0.25), 7.0);
        assert_eq!(smooth(Some(7.0), 4.0, 0.25), 6.25);
        // α = 1 disables smoothing.
        assert_eq!(smooth(Some(7.0), 4.0, 1.0), 4.0);
    }

    #[test]
    fn deadline_change_clears_hysteresis_memory() {
        let mut c = controller(6_000.0, 60, ControlParams::default());
        c.tick(&status(0.0, 0.0, 0));
        assert!(c.smoothed.is_some());
        c.deadline_changed(SimDuration::from_mins(30));
        assert_eq!(c.smoothed, None);
        // The next decision jumps straight to the raw allocation.
        let d = c.tick(&status(0.0, 1.0, 3));
        assert_eq!(d.raw, Some(f64::from(d.guarantee)));
    }

    #[test]
    fn min_clamp_ceils_and_floors() {
        assert_eq!(clamp(3.2, 2), 4);
        assert_eq!(clamp(5.0, 2), 5);
        assert_eq!(clamp(0.4, 2), 2);
    }
}
