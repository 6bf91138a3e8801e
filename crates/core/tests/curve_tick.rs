//! One `C(p, ·)` curve per control tick.
//!
//! [`JockeyController`] asks its model for one curve over
//! `min_allocation..=max` per tick and reads the §4.3 argmin, the
//! dead-zone verdicts and the predicted completion from it. The
//! controller it replaced asked the model once per candidate, once for
//! the verdicts and once for the prediction; that controller is kept
//! here, verbatim in its arithmetic, as [`ReferenceController`], the
//! executable specification the curve-reading controller must match
//! bit for bit on every tick.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use jockey_cluster::{
    ClusterConfig, ClusterSim, ControlDecision, FixedAllocation, JobController, JobSpec, JobStatus,
};
use jockey_core::control::{ControlParams, ControlTick, JockeyController};
use jockey_core::cpa::{CpaModel, TrainConfig};
use jockey_core::predict::{AmdahlModel, CompletionModel};
use jockey_core::progress::{IndicatorContext, ProgressIndicator};
use jockey_core::recal::ScaledModel;
use jockey_core::utility::UtilityFunction;
use jockey_jobgraph::graph::{EdgeKind, JobGraphBuilder};
use jockey_simrt::dist::Constant;
use jockey_simrt::time::{SimDuration, SimTime};
use proptest::prelude::*;

/// The controller as it was before the curve: one model query per
/// candidate allocation in the argmin, one for the verdicts at the
/// allocation in force and one for the predicted completion.
struct ReferenceController {
    model: Arc<dyn CompletionModel>,
    indicator: IndicatorContext,
    utility: UtilityFunction,
    shifted_utility: UtilityFunction,
    params: ControlParams,
    smoothed: Option<f64>,
    last: Option<ControlTick>,
}

impl ReferenceController {
    fn new(
        model: Arc<dyn CompletionModel>,
        indicator: IndicatorContext,
        utility: UtilityFunction,
        params: ControlParams,
    ) -> Self {
        ReferenceController {
            model,
            indicator,
            shifted_utility: utility.shifted_left(params.dead_zone),
            utility,
            params,
            smoothed: None,
            last: None,
        }
    }

    fn raw_allocation(&self, fs: &[f64], progress: f64, elapsed_secs: f64) -> u32 {
        let max = self.model.max_allocation();
        let mut best_u = f64::NEG_INFINITY;
        let mut best_a = max;
        for a in self.params.min_allocation..=max {
            let remaining = self.params.slack * self.model.remaining_secs(fs, progress, a);
            let u = self.shifted_utility.eval(elapsed_secs + remaining);
            if u > best_u + 1e-9 {
                best_u = u;
                best_a = a;
            }
        }
        best_a
    }

    fn candidate_utilities(&self, fs: &[f64], progress: f64, elapsed_secs: f64) -> Vec<(u32, f64)> {
        (self.params.min_allocation..=self.model.max_allocation())
            .map(|a| {
                let remaining = self.params.slack * self.model.remaining_secs(fs, progress, a);
                (a, self.shifted_utility.eval(elapsed_secs + remaining))
            })
            .collect()
    }

    fn verdicts(&self, fs: &[f64], progress: f64, elapsed_secs: f64, probe: u32) -> (bool, bool) {
        let Some(deadline) = self.utility.deadline_duration() else {
            return (true, true);
        };
        let remaining = self.params.slack * self.model.remaining_secs(fs, progress, probe);
        let finish = elapsed_secs + remaining;
        let deadline = deadline.as_secs_f64();
        let dead_zone = self.params.dead_zone.as_secs_f64();
        (
            finish > deadline - dead_zone,
            finish <= deadline - 2.0 * dead_zone,
        )
    }
}

impl JobController for ReferenceController {
    fn tick(&mut self, status: &JobStatus) -> ControlDecision {
        let tr = status.elapsed.as_secs_f64();
        let min = self.params.min_allocation;
        if status.finished {
            self.last = Some(ControlTick {
                elapsed_secs: tr,
                progress: 1.0,
                raw: f64::from(min),
                gated: f64::from(min),
                smoothed: self.smoothed.unwrap_or(f64::from(min)),
                behind: false,
                ahead: true,
                guarantee: min,
                predicted_completion_secs: tr,
                finished: true,
            });
            return ControlDecision::simple(min);
        }
        let fs = &status.stage_fraction;
        let p = self.indicator.progress(fs);
        let raw = self.raw_allocation(fs, p, tr);
        let in_force = self.smoothed;
        let probe = match in_force {
            None => raw,
            Some(cur) => (cur.round() as u32).max(min),
        };
        let (behind, ahead) = self.verdicts(fs, p, tr, probe);
        let gated = match in_force {
            Some(cur) if f64::from(raw) > cur && !behind => cur,
            _ => f64::from(raw),
        };
        let smoothed = match in_force {
            None => gated,
            Some(cur) => cur + self.params.hysteresis * (gated - cur),
        };
        self.smoothed = Some(smoothed);
        let guarantee = (smoothed.ceil().max(f64::from(min)) as u32).max(min);
        let predicted = tr + self.model.remaining_secs(fs, p, guarantee);
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
        self.shifted_utility = self.utility.shifted_left(self.params.dead_zone);
        self.smoothed = None;
    }
}

/// Every field of a tick, floats as their bits.
fn tick_bits(t: &ControlTick) -> [u64; 10] {
    [
        t.elapsed_secs.to_bits(),
        t.progress.to_bits(),
        t.raw.to_bits(),
        t.gated.to_bits(),
        t.smoothed.to_bits(),
        u64::from(t.behind),
        u64::from(t.ahead),
        u64::from(t.guarantee),
        t.predicted_completion_secs.to_bits(),
        u64::from(t.finished),
    ]
}

/// Every field of a decision, floats as their bits.
fn decision_bits(d: &ControlDecision) -> (u32, [Option<u64>; 3]) {
    (
        d.guarantee,
        [d.raw, d.progress, d.predicted_completion].map(|v| v.map(f64::to_bits)),
    )
}

/// Every candidate's utility, as bits.
fn utility_bits(us: &[(u32, f64)]) -> Vec<(u32, u64)> {
    us.iter().map(|&(a, u)| (a, u.to_bits())).collect()
}

/// A two-stage job (24 map tasks, a barrier, 2 reduce tasks), its
/// indicator, a `C(p, a)` trained on `1, 2, 4, 8` tokens, and the
/// Amdahl model of the same profile capped at 12 tokens.
struct Fixture {
    indicator: IndicatorContext,
    cpa: Arc<CpaModel>,
    amdahl: Arc<AmdahlModel>,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let mut b = JobGraphBuilder::new("curve-tick");
        let m = b.stage("map", 24);
        let r = b.stage("reduce", 2);
        b.edge(m, r, EdgeKind::AllToAll);
        let graph = Arc::new(b.build().unwrap());
        let spec = JobSpec::uniform(graph.clone(), Constant(30.0), Constant(0.5), 0.0);
        let mut sim = ClusterSim::new(ClusterConfig::dedicated(6), 3);
        sim.add_job(spec, Box::new(FixedAllocation(6)));
        let profile = sim.run_single().profile;
        let indicator =
            IndicatorContext::new(ProgressIndicator::TotalWorkWithQ, &graph, &profile, None);
        let cpa = Arc::new(CpaModel::train(
            &graph,
            &profile,
            &indicator,
            &TrainConfig::fast(vec![1, 2, 4, 8]),
            7,
        ));
        let amdahl = Arc::new(AmdahlModel::new(&graph, &profile, 12));
        Fixture {
            indicator,
            cpa,
            amdahl,
        }
    })
}

/// Remaining time that rises and falls with the allocation, so the
/// argmin's first-maximum rule and the epsilon tie-break both matter:
/// equal teeth tie exactly, and a tooth a hair below an earlier one
/// gains a utility far below the argmin's `1e-9` epsilon.
struct Sawtooth;

impl CompletionModel for Sawtooth {
    fn remaining_secs(&self, _fs: &[f64], progress: f64, allocation: u32) -> f64 {
        let teeth = [1.0, 0.45, 0.7, 0.3, 0.3, 0.55, 0.2, 0.35, 0.2 - 1e-12, 0.25];
        (1.0 - progress) * 9_000.0 * teeth[allocation as usize % teeth.len()]
    }

    fn max_allocation(&self) -> u32 {
        10
    }
}

/// The model a case drives: 0 trained `C(p, a)`, 1 Amdahl, 2 λ-scaled
/// `C(p, a)`, 3 the non-monotone sawtooth.
fn model(kind: usize, lambda: f64) -> Arc<dyn CompletionModel> {
    let f = fixture();
    match kind {
        0 => f.cpa.clone(),
        1 => f.amdahl.clone(),
        2 => {
            let scaled = ScaledModel::new(f.cpa.clone());
            scaled.set_scale(lambda);
            scaled
        }
        _ => Arc::new(Sawtooth),
    }
}

/// The status of the two-stage job at overall fraction `x` (the map
/// stage fills the first half, the reduce stage the second).
fn status(x: f64, elapsed_secs: f64, guarantee: u32, finished: bool) -> JobStatus {
    let fs = vec![(2.0 * x).clamp(0.0, 1.0), (2.0 * x - 1.0).clamp(0.0, 1.0)];
    JobStatus {
        now: SimTime::from_secs_f64(elapsed_secs),
        elapsed: SimDuration::from_secs_f64(elapsed_secs),
        stage_completed: vec![(fs[0] * 24.0) as u32, (fs[1] * 2.0) as u32],
        stage_fraction: fs,
        running: guarantee,
        running_guaranteed: guarantee,
        guarantee,
        work_done: x * 24.0 * 30.0,
        finished,
    }
}

/// One step of a control script.
#[derive(Clone, Debug)]
enum Step {
    /// A tick `dt` seconds after the previous one at overall fraction
    /// `x` (not necessarily rising: indicators may regress).
    Tick { x: f64, dt: f64 },
    /// A mid-flight deadline change (ignored by a utility with no
    /// deadline).
    Deadline { mins: u64 },
    /// A tick reporting the job finished.
    Finished,
}

/// Eight ticks in ten, one deadline change, one finished tick.
fn step() -> impl Strategy<Value = Step> {
    (0_u32..10, 0.0..=1.0_f64, 0.0..900.0_f64, 1_u64..=180).prop_map(|(k, x, dt, mins)| match k {
        0 => Step::Deadline { mins },
        1 => Step::Finished,
        _ => Step::Tick { x, dt },
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The curve-reading controller and the reference agree on every
    /// field of every tick and decision, and on every candidate
    /// utility: over four models (trained, Amdahl, λ-scaled and
    /// non-monotone), random scripts with deadline changes and
    /// finished ticks, `min_allocation` up to past the model's cap
    /// (where every read falls back to the single query), and a
    /// utility with no deadline.
    #[test]
    fn ticks_match_the_per_query_reference_bit_for_bit(
        kind in 0_usize..4,
        // λ in [1/3, 3], away from 1.
        lambda in (0.34..2.9_f64).prop_map(|l| if (l - 1.0).abs() < 0.01 { l + 0.02 } else { l }),
        // One case in four has no deadline.
        deadline_mins in (0_u64..=200).prop_map(|m| (m <= 150).then_some(m.max(5))),
        slack in 1.0..2.0_f64,
        hysteresis in 0.05..=1.0_f64,
        dead_zone_secs in 0_u64..=600,
        // Half the cases at 1, some above, some past the caps (8, 10, 12).
        min_allocation in (0_u32..20).prop_map(|k| match k {
            0..=9 => 1,
            10..=15 => 2 + (k - 10) % 3,
            _ => 5 + 3 * (k - 16),
        }),
        steps in collection::vec(step(), 1..40),
    ) {
        let params = ControlParams {
            slack,
            hysteresis,
            dead_zone: SimDuration::from_secs(dead_zone_secs),
            min_allocation,
        };
        let utility = match deadline_mins {
            Some(mins) => UtilityFunction::deadline(SimDuration::from_mins(mins)),
            None => UtilityFunction::from_knots(vec![(0.0, 1.0), (5_000.0, 0.0)]),
        };
        let has_deadline = deadline_mins.is_some();
        let m = model(kind, lambda);
        let indicator = fixture().indicator.clone();
        let mut subject = JockeyController::new(m.clone(), indicator.clone(), utility.clone(), params);
        let mut reference = ReferenceController::new(m, indicator, utility, params);

        let (mut elapsed, mut guarantee, mut first) = (0.0, 0, true);
        for (i, s) in steps.iter().enumerate() {
            let st = match *s {
                Step::Deadline { mins } => {
                    if has_deadline {
                        subject.deadline_changed(SimDuration::from_mins(mins));
                        reference.deadline_changed(SimDuration::from_mins(mins));
                    }
                    continue;
                }
                Step::Tick { x, dt } => {
                    elapsed += dt;
                    status(x, elapsed, guarantee, false)
                }
                Step::Finished => status(1.0, elapsed, guarantee, true),
            };
            let (got, want) = if first {
                (subject.initial(&st), reference.initial(&st))
            } else {
                (subject.tick(&st), reference.tick(&st))
            };
            first = false;
            prop_assert_eq!(decision_bits(&got), decision_bits(&want), "step {}", i);
            prop_assert_eq!(
                tick_bits(subject.last_tick().unwrap()),
                tick_bits(reference.last.as_ref().unwrap()),
                "step {}: {:?} vs {:?}", i, subject.last_tick(), reference.last
            );
            if !st.finished {
                let t = subject.last_tick().unwrap();
                let fs = &st.stage_fraction;
                prop_assert_eq!(
                    utility_bits(&subject.policy().candidate_utilities(fs, t.progress, elapsed, slack)),
                    utility_bits(&reference.candidate_utilities(fs, t.progress, elapsed)),
                    "step {}", i
                );
                prop_assert_eq!(
                    subject.raw_allocation(fs, t.progress, elapsed),
                    reference.raw_allocation(fs, t.progress, elapsed)
                );
            }
            guarantee = got.guarantee;
        }
    }
}

/// Forwards to a model and counts the queries of each kind.
struct Counting {
    inner: Arc<dyn CompletionModel>,
    singles: AtomicUsize,
    curves: AtomicUsize,
}

impl CompletionModel for Counting {
    fn remaining_secs(&self, fs: &[f64], progress: f64, allocation: u32) -> f64 {
        self.singles.fetch_add(1, Ordering::Relaxed);
        self.inner.remaining_secs(fs, progress, allocation)
    }

    fn remaining_curve(&self, fs: &[f64], progress: f64, first: u32, out: &mut [f64]) {
        self.curves.fetch_add(1, Ordering::Relaxed);
        self.inner.remaining_curve(fs, progress, first, out);
    }

    fn max_allocation(&self) -> u32 {
        self.inner.max_allocation()
    }
}

/// A tick whose allocations all lie inside the curve asks the model
/// for exactly one curve and no single query; a finished tick asks for
/// nothing. With `min_allocation` past the cap, the curve is empty and
/// the verdict and the prediction each take the single query.
#[test]
fn an_in_range_tick_asks_for_one_curve_and_no_single_query() {
    let counting = Arc::new(Counting {
        inner: fixture().cpa.clone(),
        singles: AtomicUsize::new(0),
        curves: AtomicUsize::new(0),
    });
    let counts = || {
        (
            counting.singles.load(Ordering::Relaxed),
            counting.curves.load(Ordering::Relaxed),
        )
    };
    let utility = UtilityFunction::deadline(SimDuration::from_mins(20));
    let mut c = JockeyController::new(
        counting.clone(),
        fixture().indicator.clone(),
        utility.clone(),
        ControlParams::default(),
    );
    let mut guarantee = c.initial(&status(0.0, 0.0, 0, false)).guarantee;
    assert_eq!(counts(), (0, 1));
    for i in 1..=30_u32 {
        let x = f64::from(i) / 32.0;
        guarantee = c
            .tick(&status(x, f64::from(i) * 60.0, guarantee, false))
            .guarantee;
        assert!(guarantee <= counting.max_allocation());
        assert_eq!(counts(), (0, 1 + i as usize), "tick {i}");
    }
    c.tick(&status(1.0, 1_900.0, guarantee, true));
    assert_eq!(counts(), (0, 31), "a finished tick asks nothing");

    let mut past_cap = JockeyController::new(
        counting.clone(),
        fixture().indicator.clone(),
        utility,
        ControlParams {
            min_allocation: 9,
            ..ControlParams::default()
        },
    );
    let d = past_cap.initial(&status(0.2, 60.0, 0, false));
    assert_eq!(d.guarantee, 9);
    assert_eq!(counts(), (2, 32), "verdict and prediction fall back");
}
