//! Layer-composition integration tests.
//!
//! The control-layer refactor replaced the bespoke `FallbackGuard<C>`
//! and `RecalibratingController` wrapper structs with stackable
//! [`ControlLayer`] decorators over a plain [`JockeyController`]. These
//! tests pin down the two properties that refactor promised:
//!
//! 1. **Behavioral equivalence.** The layered stacks are tick-for-tick
//!    identical to the pre-refactor wrappers on a seeded closed-loop
//!    run. The old wrappers are embedded here verbatim as reference
//!    implementations, so any future drift in the layers shows up as a
//!    decision-by-decision diff.
//! 2. **Documented stacking precedence.** Hooks run outside-in before
//!    the inner tick and inside-out after it, so the *outermost* layer
//!    has the final say on the decision. Layers that act in disjoint
//!    phases (recalibration = `before_tick`, fallback = `after_tick`)
//!    commute; layers that rewrite the same decision do not, and the
//!    outermost wins.

use std::sync::Arc;

use jockey_cluster::{
    ClusterConfig, ClusterSim, ControlDecision, FixedAllocation, JobController, JobSpec, JobStatus,
};
use jockey_core::control::{ControlParams, JockeyController};
use jockey_core::cpa::{CpaModel, TrainConfig};
use jockey_core::fallback::FallbackLayer;
use jockey_core::layer::Layered;
use jockey_core::predict::CompletionModel;
use jockey_core::progress::{IndicatorContext, ProgressIndicator};
use jockey_core::recal::{recalibrated, RecalibrationLayer, ScaledModel};
use jockey_core::utility::UtilityFunction;
use jockey_jobgraph::graph::{EdgeKind, JobGraphBuilder};
use jockey_simrt::dist::Constant;
use jockey_simrt::time::{SimDuration, SimTime};

// ---------------------------------------------------------------------
// Reference implementations: the pre-refactor wrapper structs, kept
// verbatim (minus doc prose) as executable specifications.
// ---------------------------------------------------------------------

/// The pre-refactor §5.6 `FallbackGuard<C>` wrapper.
struct ReferenceFallbackGuard<C> {
    inner: C,
    fair_share: u32,
    slip_tolerance: f64,
    trigger_ticks: u32,
    last: Option<(f64, f64, u32)>,
    consecutive: u32,
    fallen_back: bool,
}

impl<C: JobController> ReferenceFallbackGuard<C> {
    fn new(inner: C, fair_share: u32, slip_tolerance: f64, trigger_ticks: u32) -> Self {
        assert!(trigger_ticks > 0);
        assert!(slip_tolerance > 0.0);
        ReferenceFallbackGuard {
            inner,
            fair_share,
            slip_tolerance,
            trigger_ticks,
            last: None,
            consecutive: 0,
            fallen_back: false,
        }
    }
}

impl<C: JobController> JobController for ReferenceFallbackGuard<C> {
    fn tick(&mut self, status: &JobStatus) -> ControlDecision {
        if self.fallen_back {
            let mut d = self.inner.tick(status);
            d.guarantee = self.fair_share;
            return d;
        }
        let d = self.inner.tick(status);
        let elapsed = status.elapsed.as_secs_f64();
        if let (Some((prev_elapsed, prev_pred, prev_guarantee)), Some(pred)) =
            (self.last, d.predicted_completion)
        {
            let dt = elapsed - prev_elapsed;
            if dt > 0.0 && d.guarantee >= prev_guarantee {
                let slip = (pred - prev_pred) / dt;
                if slip > self.slip_tolerance {
                    self.consecutive += 1;
                    if self.consecutive >= self.trigger_ticks {
                        self.fallen_back = true;
                        let mut d = d;
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

    fn initial(&mut self, status: &JobStatus) -> ControlDecision {
        self.inner.initial(status)
    }

    fn deadline_changed(&mut self, new_deadline: SimDuration) {
        self.inner.deadline_changed(new_deadline);
    }
}

/// The pre-refactor `RecalibratingController` (λ inflation tracking
/// fused into the controller struct).
struct ReferenceRecalibratingController {
    jockey: JockeyController,
    scaled: Arc<ScaledModel>,
    indicator: IndicatorContext,
    ema: f64,
    last: Option<(f64, f64)>,
    pending_dt: f64,
    pending_advance: f64,
}

impl ReferenceRecalibratingController {
    fn new(
        model: Arc<CpaModel>,
        indicator: IndicatorContext,
        utility: UtilityFunction,
        params: ControlParams,
    ) -> Self {
        let scaled = ScaledModel::new(model);
        let jockey = JockeyController::new(
            scaled.clone() as Arc<dyn CompletionModel>,
            indicator.clone(),
            utility,
            params,
        );
        ReferenceRecalibratingController {
            jockey,
            scaled,
            indicator,
            ema: 0.2,
            last: None,
            pending_dt: 0.0,
            pending_advance: 0.0,
        }
    }

    fn update_lambda(&mut self, status: &JobStatus) {
        let elapsed = status.elapsed.as_secs_f64();
        let p = self.indicator.progress(&status.stage_fraction);
        let Some((p_prev, elapsed_prev)) = self.last.replace((p, elapsed)) else {
            return;
        };
        let dt = elapsed - elapsed_prev;
        if dt <= 0.0 {
            return;
        }
        let a = status.guarantee.max(1);
        let base = self.scaled.base();
        let modelled_advance = (base.remaining_percentile(p_prev, a, 50.0)
            - base.remaining_percentile(p, a, 50.0))
        .max(0.0);
        self.pending_dt += dt;
        self.pending_advance += modelled_advance;

        let enough_signal = self.pending_advance >= 45.0;
        let long_silence = self.pending_dt >= 600.0;
        if !enough_signal && !long_silence {
            return;
        }
        let denom = self.pending_advance.max(self.pending_dt / 3.0);
        let observed = (self.pending_dt / denom).clamp(1.0 / 3.0, 3.0);
        self.pending_dt = 0.0;
        self.pending_advance = 0.0;
        let current = self.scaled.scale();
        self.scaled
            .set_scale(current + self.ema * (observed - current));
    }
}

impl JobController for ReferenceRecalibratingController {
    fn tick(&mut self, status: &JobStatus) -> ControlDecision {
        self.update_lambda(status);
        self.jockey.tick(status)
    }

    fn initial(&mut self, status: &JobStatus) -> ControlDecision {
        self.jockey.initial(status)
    }

    fn deadline_changed(&mut self, new_deadline: SimDuration) {
        self.jockey.deadline_changed(new_deadline);
    }
}

// ---------------------------------------------------------------------
// Shared fixtures.
// ---------------------------------------------------------------------

/// Trains a small two-stage C(p, a) model (same fixture as the recal
/// unit tests, fixed seeds throughout).
fn trained() -> (Arc<CpaModel>, IndicatorContext) {
    let mut b = JobGraphBuilder::new("layering");
    let m = b.stage("map", 24);
    let r = b.stage("reduce", 2);
    b.edge(m, r, EdgeKind::AllToAll);
    let graph = Arc::new(b.build().unwrap());
    let spec = JobSpec::uniform(graph.clone(), Constant(30.0), Constant(0.5), 0.0);
    let mut sim = ClusterSim::new(ClusterConfig::dedicated(6), 3);
    sim.add_job(spec, Box::new(FixedAllocation(6)));
    let profile = sim.run_single().profile;
    let ctx = IndicatorContext::new(ProgressIndicator::TotalWorkWithQ, &graph, &profile, None);
    let model = Arc::new(CpaModel::train(
        &graph,
        &profile,
        &ctx,
        &TrainConfig::fast(vec![1, 2, 4, 8]),
        7,
    ));
    (model, ctx)
}

fn status(minute: u64, map_frac: f64, guarantee: u32) -> JobStatus {
    JobStatus {
        now: SimTime::from_mins(minute),
        elapsed: SimDuration::from_mins(minute),
        stage_fraction: vec![map_frac, 0.0],
        stage_completed: vec![(map_frac * 24.0) as u32, 0],
        running: guarantee,
        running_guaranteed: guarantee,
        guarantee,
        work_done: map_frac * 24.0 * 30.0,
        finished: false,
    }
}

/// A seeded 40-minute progress script: jittered climb (LCG-driven, no
/// external RNG) with a 13-minute stall in the middle — long enough for
/// the controller to saturate its allocation, after which frozen
/// progress makes the completion estimate slip tick for tick.
fn script() -> Vec<(u64, f64)> {
    let mut out = Vec::new();
    let mut frac: f64 = 0.0;
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    for minute in 1..=40 {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let jitter = (x >> 40) as f64 / (1_u64 << 24) as f64;
        if !(12..=24).contains(&minute) {
            frac = (frac + 0.01 + 0.02 * jitter).min(1.0);
        }
        out.push((minute, frac));
    }
    out
}

/// Drives a controller closed-loop over the script (each tick sees the
/// guarantee the previous decision granted), returning every decision.
fn drive<C: JobController>(c: &mut C) -> Vec<ControlDecision> {
    let mut out = Vec::new();
    let d0 = c.initial(&status(0, 0.0, 0));
    let mut guarantee = d0.guarantee;
    out.push(d0);
    for (minute, frac) in script() {
        let d = c.tick(&status(minute, frac, guarantee));
        guarantee = d.guarantee;
        out.push(d);
    }
    out
}

fn jockey(model: Arc<dyn CompletionModel>, ctx: &IndicatorContext) -> JockeyController {
    JockeyController::new(
        model,
        ctx.clone(),
        UtilityFunction::deadline(SimDuration::from_mins(45)),
        ControlParams::default(),
    )
}

// ---------------------------------------------------------------------
// Equivalence: layered stacks vs. the pre-refactor wrappers.
// ---------------------------------------------------------------------

#[test]
fn fallback_layer_matches_pre_refactor_wrapper_tick_for_tick() {
    let (model, ctx) = trained();
    // Tolerance 0.5 < the slip≈1.0 a stalled job produces once its
    // allocation saturates, so the mid-script stall trips both guards.
    let mut reference = ReferenceFallbackGuard::new(
        jockey(model.clone() as Arc<dyn CompletionModel>, &ctx),
        11,
        0.5,
        3,
    );
    let mut layered = Layered::new(jockey(model as Arc<dyn CompletionModel>, &ctx))
        .with(Box::new(FallbackLayer::new(11, 0.5, 3)));

    let expect = drive(&mut reference);
    let got = drive(&mut layered);
    assert_eq!(got.len(), expect.len());
    for (i, (g, e)) in got.iter().zip(&expect).enumerate() {
        assert_eq!(g, e, "decision diverged at tick {i}");
    }
    // The run exercised the interesting path: both guards tripped.
    assert!(reference.fallen_back, "reference guard never tripped");
    assert!(
        layered.layer::<FallbackLayer>().unwrap().fallen_back(),
        "layered guard never tripped"
    );
}

#[test]
fn recalibration_layer_matches_pre_refactor_controller_tick_for_tick() {
    let (model, ctx) = trained();
    let mut reference = ReferenceRecalibratingController::new(
        model.clone(),
        ctx.clone(),
        UtilityFunction::deadline(SimDuration::from_mins(45)),
        ControlParams::default(),
    );
    let mut layered = recalibrated(
        model,
        ctx,
        UtilityFunction::deadline(SimDuration::from_mins(45)),
        ControlParams::default(),
    );

    let expect = drive(&mut reference);
    let got = drive(&mut layered);
    for (i, (g, e)) in got.iter().zip(&expect).enumerate() {
        assert_eq!(g, e, "decision diverged at tick {i}");
    }
    // λ followed the same trajectory, bit for bit, and actually moved
    // (the stall registers as inflation).
    let ref_lambda = reference.scaled.scale();
    let new_lambda = layered.layer::<RecalibrationLayer>().unwrap().inflation();
    assert_eq!(ref_lambda.to_bits(), new_lambda.to_bits());
    assert!(ref_lambda > 1.0, "stall did not register as inflation");
}

// ---------------------------------------------------------------------
// Stacking order.
// ---------------------------------------------------------------------

/// Recalibration acts in `before_tick` (feeding λ into the model the
/// inner controller consults) and fallback acts in `after_tick`
/// (rewriting the decision); the phases are disjoint, so the two
/// stacking orders produce identical runs.
#[test]
fn disjoint_phase_layers_commute() {
    let (model, ctx) = trained();
    let build = |recal_inner: bool| {
        let scaled = ScaledModel::new(model.clone());
        let inner = jockey(scaled.clone() as Arc<dyn CompletionModel>, &ctx);
        let recal = Box::new(RecalibrationLayer::new(scaled, ctx.clone()));
        let guard = Box::new(FallbackLayer::new(11, 0.5, 3));
        let stack = Layered::new(inner);
        if recal_inner {
            stack.with(recal).with(guard)
        } else {
            stack.with(guard).with(recal)
        }
    };
    let a = drive(&mut build(true));
    let b = drive(&mut build(false));
    assert_eq!(a, b, "disjoint-phase layers did not commute");
}

/// Two layers rewriting the same decision do not commute: after hooks
/// run inside-out, so the outermost layer has the final say.
#[test]
fn outermost_layer_wins_on_the_same_phase() {
    let (model, ctx) = trained();
    let build = |outer_fair: u32, inner_fair: u32| {
        // Tolerance low enough that both guards see the stall slip.
        Layered::new(jockey(model.clone() as Arc<dyn CompletionModel>, &ctx))
            .with(Box::new(FallbackLayer::new(inner_fair, 0.5, 3)))
            .with(Box::new(FallbackLayer::new(outer_fair, 0.5, 3)))
    };
    let mut seven_outside = build(7, 13);
    let last = drive(&mut seven_outside).last().unwrap().guarantee;
    assert_eq!(last, 7, "outermost fair share should win");

    let mut thirteen_outside = build(13, 7);
    let last = drive(&mut thirteen_outside).last().unwrap().guarantee;
    assert_eq!(last, 13, "outermost fair share should win after swap");
}
