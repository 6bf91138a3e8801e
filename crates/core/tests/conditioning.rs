//! Conditioner-stage integration tests.
//!
//! Each §4.3 conditioning mechanism — slack, dead-zone gate,
//! hysteresis EWMA, min clamp — is checked in isolation against its
//! closed form, and the standard pipeline composed with the pure
//! argmin policy is checked to reproduce [`JockeyController`]
//! decision-for-decision on a Fig. 6-style run (a mid-job stage
//! slowdown under a deadline utility).

use std::sync::Arc;

use jockey_cluster::{
    ClusterConfig, ClusterSim, FixedAllocation, JobController, JobSpec, JobStatus,
};
use jockey_core::alloc::ArgminPolicy;
use jockey_core::conditioner::{
    ConditionStage, ConditionerPipeline, DeadZoneGate, HysteresisEwma, MinClamp, SlackStage,
    StageCtx,
};
use jockey_core::control::{ControlParams, JockeyController};
use jockey_core::cpa::{CpaModel, TrainConfig};
use jockey_core::predict::CompletionModel;
use jockey_core::progress::{IndicatorContext, ProgressIndicator};
use jockey_core::utility::UtilityFunction;
use jockey_jobgraph::graph::{EdgeKind, JobGraphBuilder};
use jockey_simrt::dist::Constant;
use jockey_simrt::time::{SimDuration, SimTime};

/// Closed-form model: `remaining = W · (1 − p) / a`.
struct Toy {
    work: f64,
}

impl CompletionModel for Toy {
    fn remaining_secs(&self, _fs: &[f64], progress: f64, allocation: u32) -> f64 {
        self.work * (1.0 - progress) / f64::from(allocation.max(1))
    }
    fn max_allocation(&self) -> u32 {
        100
    }
}

fn toy_ctx<'a>(
    model: &'a dyn CompletionModel,
    utility: &'a UtilityFunction,
    progress: f64,
    elapsed_secs: f64,
    inflation: f64,
    in_force: Option<f64>,
) -> StageCtx<'a> {
    StageCtx {
        fs: &[],
        progress,
        elapsed_secs,
        model,
        utility,
        inflation,
        in_force,
    }
}

// ---------------------------------------------------------------------
// Per-stage closed forms.
// ---------------------------------------------------------------------

/// §4.3 argmin with the linear toy model: the minimum allocation that
/// makes the deadline is `⌈S·W·(1−p) / (D − t)⌉`.
#[test]
fn argmin_matches_the_ceiling_closed_form() {
    let work = 36_000.0;
    let deadline = 3_600.0;
    let policy = ArgminPolicy::new(
        Arc::new(Toy { work }) as Arc<dyn CompletionModel>,
        UtilityFunction::deadline(SimDuration::from_secs_f64(deadline)),
        1,
    );
    for &(progress, elapsed, inflation) in &[
        (0.0, 0.0, 1.0),
        (0.0, 0.0, 1.2),
        (0.5, 600.0, 1.0),
        (0.5, 600.0, 1.6),
        (0.9, 3_000.0, 1.2),
    ] {
        let expect = (inflation * work * (1.0 - progress) / (deadline - elapsed)).ceil() as u32;
        let got = policy.raw_allocation(&[], progress, elapsed, inflation);
        assert_eq!(got, expect.max(1), "p={progress} t={elapsed} S={inflation}");
    }
}

#[test]
fn slack_inflates_predictions_not_allocations() {
    let mut stage = SlackStage { slack: 1.4 };
    assert_eq!(stage.inflation(), 1.4);
    // Allocations pass through the stage untouched...
    let model = Toy { work: 36_000.0 };
    let utility = UtilityFunction::deadline(SimDuration::from_mins(60));
    let ctx = toy_ctx(&model, &utility, 0.0, 0.0, 1.4, None);
    assert_eq!(stage.condition(5.3, &ctx), 5.3);
    // ...while the inflation raises the raw argmin: 36000/3600 = 10
    // tokens without slack, ⌈1.5·10⌉ = 15 with S = 1.5.
    let policy = ArgminPolicy::new(
        Arc::new(Toy { work: 36_000.0 }) as Arc<dyn CompletionModel>,
        UtilityFunction::deadline(SimDuration::from_mins(60)),
        1,
    );
    assert_eq!(policy.raw_allocation(&[], 0.0, 0.0, 1.0), 10);
    assert_eq!(policy.raw_allocation(&[], 0.0, 0.0, 1.5), 15);
}

#[test]
fn dead_zone_gates_increases_on_the_behind_boundary() {
    let model = Toy { work: 36_000.0 };
    let utility = UtilityFunction::deadline(SimDuration::from_secs_f64(3_600.0));
    let mut gate = DeadZoneGate {
        dead_zone: SimDuration::from_secs_f64(300.0),
        min_allocation: 1,
    };
    // In force: 4 tokens. Behind iff t + W(1−p)/4 > D − Z = 3300 s.
    // p = 0.6 → remaining 3600 s > 3300: behind, the increase passes.
    let ctx = toy_ctx(&model, &utility, 0.6, 0.0, 1.0, Some(4.0));
    assert_eq!(gate.condition(6.0, &ctx), 6.0);
    // p = 0.9 → remaining 900 s < 3300: on schedule, increase blocked.
    let ctx = toy_ctx(&model, &utility, 0.9, 0.0, 1.0, Some(4.0));
    assert_eq!(gate.condition(6.0, &ctx), 4.0);
    // Decreases always pass (Fig. 6(c): releases are never delayed).
    assert_eq!(gate.condition(2.0, &ctx), 2.0);
    // First decision (nothing in force) adopts the proposal outright.
    let ctx = toy_ctx(&model, &utility, 0.9, 0.0, 1.0, None);
    assert_eq!(gate.condition(6.0, &ctx), 6.0);
}

#[test]
fn hysteresis_follows_the_ewma_closed_form() {
    let model = Toy { work: 36_000.0 };
    let utility = UtilityFunction::deadline(SimDuration::from_mins(60));
    let ctx = toy_ctx(&model, &utility, 0.0, 0.0, 1.0, None);
    let mut h = HysteresisEwma::new(0.25);
    assert_eq!(h.in_force(), None);
    // First decision jumps to the target.
    assert_eq!(h.condition(8.0, &ctx), 8.0);
    // A^s ← A^s + α(A^r − A^s): 8 + 0.25·(4−8) = 7, then 6.25.
    assert_eq!(h.condition(4.0, &ctx), 7.0);
    assert_eq!(h.condition(4.0, &ctx), 6.25);
    assert_eq!(h.in_force(), Some(6.25));
    // Reset forgets the smoothed state: the next decision jumps again.
    h.reset();
    assert_eq!(h.condition(4.0, &ctx), 4.0);
}

#[test]
fn min_clamp_ceils_and_floors() {
    let model = Toy { work: 36_000.0 };
    let utility = UtilityFunction::deadline(SimDuration::from_mins(60));
    let ctx = toy_ctx(&model, &utility, 0.0, 0.0, 1.0, None);
    let mut clamp = MinClamp { min_allocation: 2 };
    assert_eq!(clamp.condition(3.2, &ctx), 4.0);
    assert_eq!(clamp.condition(5.0, &ctx), 5.0);
    assert_eq!(clamp.condition(0.4, &ctx), 2.0);
}

// ---------------------------------------------------------------------
// The full pipeline vs. the controller on a Fig. 6-style run.
// ---------------------------------------------------------------------

fn trained() -> (Arc<CpaModel>, IndicatorContext) {
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

fn status(minute: u64, map_frac: f64, reduce_frac: f64, guarantee: u32) -> JobStatus {
    JobStatus {
        now: SimTime::from_mins(minute),
        elapsed: SimDuration::from_mins(minute),
        stage_fraction: vec![map_frac, reduce_frac],
        stage_completed: vec![(map_frac * 24.0) as u32, (reduce_frac * 6.0) as u32],
        running: guarantee,
        running_guaranteed: guarantee,
        guarantee,
        work_done: map_frac * 24.0 * 30.0 + reduce_frac * 6.0 * 20.0,
        finished: false,
    }
}

/// Fig. 6(b)'s scenario shape: the map stage runs on model, then the
/// reduce stage crawls at a fraction of its training rate, forcing the
/// controller to re-size mid-job.
fn fig6_script() -> Vec<(u64, f64, f64)> {
    let mut out = Vec::new();
    for minute in 1..=40 {
        let map = (minute as f64 / 12.0).min(1.0);
        let reduce = if minute <= 12 {
            0.0
        } else {
            ((minute - 12) as f64 * 0.015).min(1.0) // ~10x slower than trained.
        };
        out.push((minute, map, reduce));
    }
    out
}

#[test]
fn standard_pipeline_reproduces_the_controller_on_fig6() {
    let (model, indicator) = trained();
    let params = ControlParams::default();
    let utility = UtilityFunction::deadline(SimDuration::from_mins(45));

    let mut controller = JockeyController::new(
        model.clone() as Arc<dyn CompletionModel>,
        indicator.clone(),
        utility.clone(),
        params,
    );

    // The same decomposition the controller is built from, assembled
    // by hand: pure argmin core + the standard conditioning stack.
    let policy = ArgminPolicy::new(
        model.clone() as Arc<dyn CompletionModel>,
        utility.shifted_left(params.dead_zone),
        params.min_allocation,
    );
    let mut pipeline = ConditionerPipeline::standard(&params);

    let mut guarantee = 0;
    for (minute, map, reduce) in fig6_script() {
        let st = status(minute, map, reduce, guarantee);
        let got = controller.tick(&st);

        let tr = st.elapsed.as_secs_f64();
        let fs = &st.stage_fraction;
        let p = indicator.progress(fs);
        let inflation = pipeline.inflation();
        let raw = policy.raw_allocation(fs, p, tr, inflation);
        let ctx = StageCtx {
            fs,
            progress: p,
            elapsed_secs: tr,
            model: &*model,
            utility: &utility,
            inflation,
            in_force: pipeline.in_force(),
        };
        let conditioned = pipeline.run(f64::from(raw), &ctx);
        let expect_guarantee = (conditioned as u32).max(params.min_allocation);
        let expect_predicted = tr + model.remaining_secs(fs, p, expect_guarantee);

        assert_eq!(got.raw, Some(f64::from(raw)), "raw diverged at {minute}");
        assert_eq!(
            got.guarantee, expect_guarantee,
            "guarantee diverged at minute {minute}"
        );
        assert_eq!(
            got.predicted_completion,
            Some(expect_predicted),
            "prediction diverged at minute {minute}"
        );
        guarantee = got.guarantee;
    }

    // The run actually exercised the slowdown: the controller's trace
    // shows a mid-run behind-schedule stretch with a re-sized grant.
    let trace = controller.trace();
    assert!(trace
        .iter()
        .any(|t| t.behind && t.elapsed_secs > 12.0 * 60.0));
    // And its per-stage attribution survived alongside (one record per
    // tick, every stage accounted for).
    assert_eq!(controller.pipeline_trace().len(), trace.len());
}
