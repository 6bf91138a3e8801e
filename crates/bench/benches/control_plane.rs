//! Multi-job control-path benchmarks: the per-tick cost of serving a
//! fleet of SLO jobs from one shared token budget.
//!
//! `plane` drives the sharded `ControlPlane`, which re-runs the greedy
//! marginal-utility split once per refresh epoch (~once per control
//! round) and serves every other tick from an atomically-swapped
//! allocation snapshot. Every job enters through `try_add_job`.
//!
//! Each benchmark iteration drives one whole control round (every job
//! ticks once), so ticks/sec is the fleet size divided by the mean
//! iteration time. Fleet sizes 1/16/256 bracket a single job, a typical
//! business-critical cohort, and Cosmos-scale concurrency (§2.1 notes
//! thousands of concurrent jobs per cluster). Results are recorded in
//! DESIGN.md §12 (*Plane round cost*).
//!
//! `plane_family` is the service plane's shape: every job shares one
//! `ModelHandle` over an online `ModelStore` (bounded sketches, 16
//! progress bins, the closed-form model as its floor), so each refresh
//! pins the store once and reads every job's `C(p, ·)` curve from that
//! one pinned view. Its jobs sit at progress spread over the bins.
//! `plane_family_on_track` is the same fleet with looser deadlines:
//! seven jobs in eight meet theirs at one token, so the split asks
//! their models for that one allocation and skips them, the common
//! case in the service's fleet. DESIGN §12 records both rows.

// Criterion macros expand to undocumented items.
#![allow(missing_docs)]

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use jockey_bench::{family_model, smoke_env};
use jockey_cluster::{JobController, JobStatus};
use jockey_core::alloc::ArgminPolicy;
use jockey_core::control::{ControlParams, JockeyController};
use jockey_core::online::{ModelHandle, ModelStore, OnlineConfig};
use jockey_core::predict::{AmdahlModel, CompletionModel};
use jockey_core::progress::{IndicatorContext, ProgressIndicator};
use jockey_core::recal::ScaledModel;
use jockey_core::utility::UtilityFunction;
use jockey_core::ControlPlane;
use jockey_jobgraph::graph::JobGraphBuilder;
use jockey_jobgraph::profile::ProfileBuilder;
use jockey_simrt::time::{SimDuration, SimTime};

/// Closed-form model: `remaining = work · (1 − p) / a` up to `max`
/// tokens. Keeps each utility evaluation cheap so the benchmark
/// isolates the runtimes' locking and batching structure rather than
/// model cost.
struct Toy {
    work: f64,
    max: u32,
}

impl Toy {
    fn new(work: f64) -> Self {
        Toy { work, max: 100 }
    }
}

impl CompletionModel for Toy {
    fn remaining_secs(&self, _fs: &[f64], progress: f64, allocation: u32) -> f64 {
        self.work * (1.0 - progress) / f64::from(allocation.max(1))
    }
    fn max_allocation(&self) -> u32 {
        self.max
    }
}

fn toy_indicator() -> IndicatorContext {
    let mut b = JobGraphBuilder::new("bench-plane");
    b.stage("only", 10);
    let g = b.build().unwrap();
    let mut pb = ProfileBuilder::new(&g);
    for _ in 0..10 {
        pb.record_task(jockey_jobgraph::StageId(0), 1.0, 10.0, false);
    }
    let p = pb.finish(100.0, 1.0);
    IndicatorContext::new(ProgressIndicator::VertexFrac, &g, &p, None)
}

/// Work and token cap of the service family: the shape of the
/// benchmark's `service` workload (3600 s of work, 16-token cap, 16
/// progress bins, 64-item sketches). Jobs reserve one or two tokens,
/// so the budget is about 1.3 tokens per job, as in that workload.
const FAMILY_WORK: f64 = 3_600.0;
const FAMILY_CAP: u32 = 16;

/// One family handle: a store over [`family_model`], with the toy
/// (capped at `FAMILY_CAP`) as its floor.
fn family_handle() -> Arc<dyn CompletionModel> {
    let model = family_model(FAMILY_WORK, FAMILY_CAP);
    let store = Arc::new(ModelStore::new(model, OnlineConfig::default()));
    let floor = Toy {
        work: FAMILY_WORK,
        max: FAMILY_CAP,
    };
    Arc::new(ModelHandle::with_floor(store, Arc::new(floor)))
}

fn status(minute: u64, frac: f64, guarantee: u32) -> JobStatus {
    JobStatus {
        now: SimTime::from_mins(minute),
        elapsed: SimDuration::from_mins(minute),
        stage_fraction: vec![frac],
        stage_completed: vec![(frac * 10.0) as u32],
        running: guarantee,
        running_guaranteed: guarantee,
        guarantee,
        work_done: frac * 100.0,
        finished: false,
    }
}

/// Staggered deadlines so the marginal-utility scan has real work to
/// do (identical jobs would converge in one grant each).
fn deadline_mins(i: usize) -> u64 {
    30 + 5 * (i as u64 % 12)
}

/// A deadline with room to spare: the family's 3600 s of work at one
/// token, five minutes in, still finishes inside it. Every eighth job
/// keeps its tight [`deadline_mins`].
fn on_track_deadline_mins(i: usize) -> u64 {
    if i.is_multiple_of(8) {
        deadline_mins(i)
    } else {
        deadline_mins(i) + 40
    }
}

/// Exactly the fleet's summed admission reservations under `model`, so
/// every job is admitted. The `plane` rows' ticks report jobs behind
/// schedule, whose summed demand exceeds their reservations, so
/// arbitration always runs its grant loop to exhaustion.
fn budget_for(model: &dyn CompletionModel, deadlines: &[u64]) -> u32 {
    deadlines
        .iter()
        .map(|&mins| {
            model
                .size_for_deadline(&[0.0], SimDuration::from_mins(mins), 1.0)
                .expect("feasible deadline")
        })
        .sum()
}

fn bench_control_plane(c: &mut Criterion) {
    // JOCKEY_BENCH_SMOKE=1 (set by scripts/tier1.sh) trims the sweep
    // to the small fleets with minimal sampling: enough to exercise
    // the plane end to end in the CI gate.
    let smoke = std::env::var_os("JOCKEY_BENCH_SMOKE").is_some();
    let fleets: &[usize] = if smoke { &[1, 16] } else { &[1, 16, 256] };

    let mut group = c.benchmark_group("control_plane");
    group.sample_size(if smoke { 3 } else { 10 });

    // One iteration = one control round (n ticks), so ticks/sec is
    // n / mean-iteration-time.
    for &n in fleets {
        // Five minutes in with no progress: every job is behind.
        let st = status(5, 0.0, 4);
        // Sharded plane: per-job slots, amortized snapshot refresh.
        let deadlines: Vec<u64> = (0..n).map(deadline_mins).collect();
        let plane = ControlPlane::new(budget_for(&Toy::new(36_000.0), &deadlines));
        let mut plane_handles: Vec<_> = deadlines
            .iter()
            .enumerate()
            .map(|(i, &mins)| {
                plane
                    .try_add_job(
                        &format!("job-{i}"),
                        Arc::new(Toy::new(36_000.0)),
                        toy_indicator(),
                        SimDuration::from_mins(mins),
                        1.0,
                    )
                    .expect("budget holds every reservation")
            })
            .collect();
        group.bench_function(BenchmarkId::new("plane", n), |b| {
            b.iter(|| {
                for h in &mut plane_handles {
                    std::hint::black_box(h.tick(&st));
                }
            });
        });
    }

    // Service-family plane: one shared handle, job i at progress
    // (i mod 16) / 16, so the jobs spread evenly over the 16 bins.
    let family_fleets: &[usize] = if smoke { &[16] } else { &[16, 256] };
    let kinds = [
        ("plane_family", deadline_mins as fn(usize) -> u64),
        ("plane_family_on_track", on_track_deadline_mins),
    ];
    for (row, deadline, &n) in kinds
        .into_iter()
        .flat_map(|(row, deadline)| family_fleets.iter().map(move |n| (row, deadline, n)))
    {
        let model = family_handle();
        let deadlines: Vec<u64> = (0..n).map(deadline).collect();
        let plane = ControlPlane::new(budget_for(model.as_ref(), &deadlines));
        let mut handles: Vec<_> = deadlines
            .iter()
            .enumerate()
            .map(|(i, &mins)| {
                let h = plane
                    .try_add_job(
                        &format!("job-{i}"),
                        model.clone(),
                        toy_indicator(),
                        SimDuration::from_mins(mins),
                        1.0,
                    )
                    .expect("budget holds every reservation");
                (h, status(5, (i % 16) as f64 / 16.0, 4))
            })
            .collect();
        group.bench_function(BenchmarkId::new(row, n), |b| {
            b.iter(|| {
                for (h, st) in &mut handles {
                    std::hint::black_box(h.tick(st));
                }
            });
        });
    }
    group.finish();
}

/// Decision-core cost of the §4.3 argmin: one scan over
/// `max_allocation` candidates, the part of a control tick that grows
/// with the token cap. `argmin_1d` scans the closed-form toy; the
/// `argmin_1d/<model>` rows time one whole controller decision (a
/// `JockeyController` tick: progress, argmin, dead-zone verdict,
/// prediction) over the first smoke job's trained `C(p, a)`
/// (`cpa`), its Amdahl model (`amdahl`) and the trained table scaled
/// by λ = 1.3 (`scaled`), at minute 5 of a 30-minute deadline with
/// every stage 40% done. DESIGN §12 records the rows.
fn bench_argmin(c: &mut Criterion) {
    let smoke = std::env::var_os("JOCKEY_BENCH_SMOKE").is_some();
    let policy = ArgminPolicy::new(
        Arc::new(Toy::new(36_000.0)) as Arc<dyn CompletionModel>,
        UtilityFunction::deadline(SimDuration::from_mins(45)),
        1,
    );
    let mut group = c.benchmark_group("control_plane");
    group.sample_size(if smoke { 3 } else { 20 });
    group.bench_function("argmin_1d", |b| {
        b.iter(|| std::hint::black_box(policy.raw_allocation(&[0.25], 0.25, 300.0, 1.0)));
    });

    let job = &smoke_env().jobs[0];
    let setup = &job.setup;
    let stages = setup.graph.num_stages();
    let status = JobStatus {
        now: SimTime::from_mins(5),
        elapsed: SimDuration::from_mins(5),
        stage_fraction: vec![0.4; stages],
        stage_completed: vec![1; stages],
        running: 8,
        running_guaranteed: 8,
        guarantee: 8,
        work_done: 100.0,
        finished: false,
    };
    let scaled = ScaledModel::new(setup.cpa.clone());
    scaled.set_scale(1.3);
    let models: [(&str, Arc<dyn CompletionModel>); 3] = [
        ("cpa", setup.cpa.clone()),
        (
            "amdahl",
            Arc::new(AmdahlModel::new(
                &setup.graph,
                &setup.profile,
                setup.max_tokens,
            )),
        ),
        ("scaled", scaled),
    ];
    for (row, model) in models {
        let mut controller = JockeyController::new(
            model,
            setup.indicator_context(),
            UtilityFunction::deadline(SimDuration::from_mins(30)),
            ControlParams::default(),
        );
        group.bench_function(BenchmarkId::new("argmin_1d", row), |b| {
            b.iter(|| std::hint::black_box(controller.tick(std::hint::black_box(&status))));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_control_plane, bench_argmin);
criterion_main!(benches);
