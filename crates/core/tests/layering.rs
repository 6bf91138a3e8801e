//! Closed-loop decision streams of the controller and its §5.6
//! wrappers.
//!
//! 1. **Equivalence.** [`FallbackGuard`] and [`RecalibratingController`]
//!    are tick-for-tick identical to reference wrappers kept here as
//!    executable specifications (each forwards `initial` and
//!    `deadline_changed` untouched; fallback rewrites the decision
//!    after the inner tick, recalibration updates λ before it).
//! 2. **Pinned streams.** The plain controller on a Fig. 6(b) script
//!    and both wrappers on a stall script digest to fixed values, so
//!    any change to the §4.3 conditioning arithmetic shows up here.

use std::sync::Arc;

use jockey_cluster::{
    ClusterConfig, ClusterSim, ControlDecision, FixedAllocation, JobController, JobSpec, JobStatus,
};
use jockey_core::control::{ControlParams, ControlTick, JockeyController};
use jockey_core::cpa::{CpaModel, TrainConfig};
use jockey_core::fallback::FallbackGuard;
use jockey_core::predict::CompletionModel;
use jockey_core::progress::{IndicatorContext, ProgressIndicator};
use jockey_core::recal::{recalibrated, RecalibratingController, ScaledModel};
use jockey_core::utility::UtilityFunction;
use jockey_jobgraph::graph::{EdgeKind, JobGraphBuilder};
use jockey_simrt::dist::Constant;
use jockey_simrt::rng::fnv1a;
use jockey_simrt::time::{SimDuration, SimTime};

// ---------------------------------------------------------------------
// Reference implementations: the wrapper structs as first written,
// kept verbatim (minus doc prose) as executable specifications.
// ---------------------------------------------------------------------

/// The reference §5.6 fallback wrapper.
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

/// The reference recalibrating controller (λ inflation tracking fused
/// into the controller struct).
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
// Equivalence: the library wrappers vs. the references.
// ---------------------------------------------------------------------

#[test]
fn fallback_guard_matches_the_reference_tick_for_tick() {
    let (model, ctx) = trained();
    // Tolerance 0.5 < the slip≈1.0 a stalled job produces once its
    // allocation saturates, so the mid-script stall trips both guards.
    let mut reference = ReferenceFallbackGuard::new(
        jockey(model.clone() as Arc<dyn CompletionModel>, &ctx),
        11,
        0.5,
        3,
    );
    let mut guard = FallbackGuard::new(jockey(model as Arc<dyn CompletionModel>, &ctx), 11, 0.5, 3);

    let expect = drive(&mut reference);
    let got = drive(&mut guard);
    assert_eq!(got.len(), expect.len());
    for (i, (g, e)) in got.iter().zip(&expect).enumerate() {
        assert_eq!(g, e, "decision diverged at tick {i}");
    }
    // The run exercised the interesting path: both guards tripped.
    assert!(reference.fallen_back, "reference guard never tripped");
    assert!(guard.fallen_back(), "library guard never tripped");
}

#[test]
fn recalibrating_controller_matches_the_reference_tick_for_tick() {
    let (model, ctx) = trained();
    let mut reference = ReferenceRecalibratingController::new(
        model.clone(),
        ctx.clone(),
        UtilityFunction::deadline(SimDuration::from_mins(45)),
        ControlParams::default(),
    );
    let mut recal: RecalibratingController = recalibrated(
        model,
        ctx,
        UtilityFunction::deadline(SimDuration::from_mins(45)),
        ControlParams::default(),
    );

    let expect = drive(&mut reference);
    let got = drive(&mut recal);
    for (i, (g, e)) in got.iter().zip(&expect).enumerate() {
        assert_eq!(g, e, "decision diverged at tick {i}");
    }
    // λ followed the same trajectory, bit for bit, and actually moved
    // (the stall registers as inflation).
    let ref_lambda = reference.scaled.scale();
    let new_lambda = recal.inflation();
    assert_eq!(ref_lambda.to_bits(), new_lambda.to_bits());
    assert!(ref_lambda > 1.0, "stall did not register as inflation");
}

// ---------------------------------------------------------------------
// Pinned decision streams.
// ---------------------------------------------------------------------

/// Drives a controller and records its inner [`JockeyController`]'s
/// `last_tick()` after every `initial` and `tick` call (each wrapper
/// calls the inner controller exactly once per call).
struct Journaled<C> {
    ctl: C,
    inner: fn(&C) -> &JockeyController,
    ticks: Vec<ControlTick>,
}

impl<C: JobController> Journaled<C> {
    fn new(ctl: C, inner: fn(&C) -> &JockeyController) -> Self {
        Journaled {
            ctl,
            inner,
            ticks: Vec::new(),
        }
    }

    fn record(&mut self, d: ControlDecision) -> ControlDecision {
        let tick = (self.inner)(&self.ctl)
            .last_tick()
            .expect("inner controller ticked");
        self.ticks.push(*tick);
        d
    }
}

impl<C: JobController> JobController for Journaled<C> {
    fn tick(&mut self, status: &JobStatus) -> ControlDecision {
        let d = self.ctl.tick(status);
        self.record(d)
    }

    fn initial(&mut self, status: &JobStatus) -> ControlDecision {
        let d = self.ctl.initial(status);
        self.record(d)
    }
}

/// The plain controller is its own inner controller.
fn plain_inner(c: &JockeyController) -> &JockeyController {
    c
}

/// One word per field of every decision, then `raw`, `smoothed` and
/// `guarantee` of every recorded tick (`None` digests as all ones).
fn stream_digest(decisions: &[ControlDecision], ticks: &[ControlTick]) -> u64 {
    let opt = |x: Option<f64>| x.map_or(u64::MAX, f64::to_bits);
    let words = decisions.iter().flat_map(|d| {
        [
            u64::from(d.guarantee),
            opt(d.raw),
            opt(d.progress),
            opt(d.predicted_completion),
        ]
    });
    let ticks = ticks.iter().flat_map(|t| {
        [
            t.raw.to_bits(),
            t.smoothed.to_bits(),
            u64::from(t.guarantee),
        ]
    });
    let bytes: Vec<u8> = words.chain(ticks).flat_map(u64::to_le_bytes).collect();
    fnv1a(&bytes)
}

/// The Fig. 6(b) fixture: a map stage that runs on model, then a
/// reduce stage that crawls at about a tenth of its trained rate.
fn fig6_trained() -> (Arc<CpaModel>, IndicatorContext) {
    let mut b = JobGraphBuilder::new("conditioning");
    let m = b.stage("map", 24);
    let r = b.stage("reduce", 6);
    b.edge(m, r, EdgeKind::AllToAll);
    let graph = Arc::new(b.build().unwrap());
    let spec = JobSpec::uniform(graph.clone(), Constant(30.0), Constant(20.0), 0.0);
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

/// Drives `c` closed-loop over the Fig. 6(b) script: minutes 1..=40,
/// the map done by minute 12, the reduce then advancing 1.5% a minute.
fn drive_fig6<C: JobController>(c: &mut C) -> Vec<ControlDecision> {
    let mut out = Vec::new();
    let mut guarantee = 0;
    for minute in 1..=40_u64 {
        let map = (minute as f64 / 12.0).min(1.0);
        let reduce = if minute <= 12 {
            0.0
        } else {
            ((minute - 12) as f64 * 0.015).min(1.0)
        };
        let st = JobStatus {
            now: SimTime::from_mins(minute),
            elapsed: SimDuration::from_mins(minute),
            stage_fraction: vec![map, reduce],
            stage_completed: vec![(map * 24.0) as u32, (reduce * 6.0) as u32],
            running: guarantee,
            running_guaranteed: guarantee,
            guarantee,
            work_done: map * 24.0 * 30.0 + reduce * 6.0 * 20.0,
            finished: false,
        };
        let d = c.tick(&st);
        guarantee = d.guarantee;
        out.push(d);
    }
    out
}

/// The decision streams of the plain controller on the Fig. 6 script
/// and of both §5.6 wrappers on this file's stall script, pinned bit
/// for bit: any change to the slack, dead-zone, hysteresis or clamp
/// arithmetic, or to a wrapper's pass-through, moves a digest.
#[test]
fn decision_streams_are_pinned() {
    let (model, ctx) = fig6_trained();
    let mut plain = Journaled::new(jockey(model as Arc<dyn CompletionModel>, &ctx), plain_inner);
    let decisions = drive_fig6(&mut plain);
    // The run exercised the slowdown: a behind-schedule stretch after
    // the map stage finished.
    assert!(plain
        .ticks
        .iter()
        .any(|t| t.behind && t.elapsed_secs > 12.0 * 60.0));
    let fig6 = stream_digest(&decisions, &plain.ticks);

    let (model, ctx) = trained();
    let mut guard = Journaled::new(
        FallbackGuard::new(
            jockey(model.clone() as Arc<dyn CompletionModel>, &ctx),
            11,
            0.5,
            3,
        ),
        FallbackGuard::inner,
    );
    let decisions = drive(&mut guard);
    assert!(guard.ctl.fallen_back());
    let fallback = stream_digest(&decisions, &guard.ticks);

    let mut recal = Journaled::new(
        recalibrated(
            model,
            ctx,
            UtilityFunction::deadline(SimDuration::from_mins(45)),
            ControlParams::default(),
        ),
        RecalibratingController::inner,
    );
    let decisions = drive(&mut recal);
    let recalibrating = stream_digest(&decisions, &recal.ticks);

    assert_eq!(
        [fig6, fallback, recalibrating],
        [
            0x5f5e_ad28_afd5_d3a9,
            0x4857_b255_5626_b4d8,
            0x14d7_c622_a26e_ed5f
        ],
        "controller decision streams drifted"
    );
}
