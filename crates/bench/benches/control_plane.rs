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
//! `BENCH_control_plane.json` at the repo root.

// Criterion macros expand to undocumented items.
#![allow(missing_docs)]

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use jockey_cluster::{JobController, JobStatus};
use jockey_core::alloc::{AllocationPolicy, ArgminPolicy, SpeculationLevel, SpeculativeArgmin};
use jockey_core::predict::CompletionModel;
use jockey_core::progress::{IndicatorContext, ProgressIndicator};
use jockey_core::utility::UtilityFunction;
use jockey_core::ControlPlane;
use jockey_jobgraph::graph::JobGraphBuilder;
use jockey_jobgraph::profile::ProfileBuilder;
use jockey_simrt::time::{SimDuration, SimTime};

/// Closed-form model: `remaining = work · (1 − p) / a`. Keeps each
/// utility evaluation cheap so the benchmark isolates the runtimes'
/// locking and batching structure rather than model cost.
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

/// Exactly the fleet's summed admission reservations, so every job is
/// admitted. The benchmarked ticks report jobs behind schedule, whose
/// summed demand exceeds their reservations, so arbitration always
/// runs its grant loop to exhaustion.
fn budget_for(jobs: usize) -> u32 {
    (0..jobs)
        .map(|i| {
            Toy { work: 36_000.0 }
                .size_for_deadline(&[0.0], SimDuration::from_mins(deadline_mins(i)), 1.0)
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
        let plane = ControlPlane::new(budget_for(n));
        let mut plane_handles: Vec<_> = (0..n)
            .map(|i| {
                plane
                    .try_add_job(
                        &format!("job-{i}"),
                        Arc::new(Toy { work: 36_000.0 }),
                        toy_indicator(),
                        SimDuration::from_mins(deadline_mins(i)),
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
    group.finish();
}

/// Decision-core cost of the §4.3 argmin against its 2D extension:
/// the 1D scan evaluates `max_allocation` candidates, the 2D scan
/// `levels × max_allocation` — this pins the constant factor the
/// speculation dimension adds per control tick.
fn bench_speculative_argmin(c: &mut Criterion) {
    let smoke = std::env::var_os("JOCKEY_BENCH_SMOKE").is_some();
    let utility = UtilityFunction::deadline(SimDuration::from_mins(45));
    let one_d = ArgminPolicy::new(
        Arc::new(Toy { work: 36_000.0 }) as Arc<dyn CompletionModel>,
        utility.clone(),
        1,
    );
    // Three levels, as the controller would hold: off plus two
    // clone-on-slow thresholds, each with its own C(p, a, s) surface
    // (the toy stands in so the bench isolates scan structure).
    let levels: Vec<SpeculationLevel> = [
        ("off", 0u32, 36_000.0),
        ("clone@2.0x", 2, 30_000.0),
        ("clone@1.5x", 4, 27_000.0),
    ]
    .into_iter()
    .map(|(label, clone_budget, work)| SpeculationLevel {
        label: label.to_string(),
        clone_budget,
        model: Arc::new(Toy { work }) as Arc<dyn CompletionModel>,
    })
    .collect();
    let two_d = SpeculativeArgmin::new(levels, utility, 1);

    let mut group = c.benchmark_group("control_plane");
    group.sample_size(if smoke { 3 } else { 20 });
    group.bench_function("argmin_1d", |b| {
        b.iter(|| std::hint::black_box(one_d.raw_allocation(&[0.25], 0.25, 300.0, 1.0)));
    });
    group.bench_function("argmin_2d_speculative", |b| {
        b.iter(|| std::hint::black_box(two_d.raw_decision(&[0.25], 0.25, 300.0, 1.0)));
    });
    group.finish();
}

criterion_group!(benches, bench_control_plane, bench_speculative_argmin);
criterion_main!(benches);
