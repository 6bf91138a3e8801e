//! Counting-allocator audits of the training hot path and the control
//! tick.
//!
//! The `C(p, a)` training loop runs the same job thousands of times;
//! every per-run heap allocation multiplies accordingly. The workspace
//! pooling (task tables, queues, status scratch, event queue) plus the
//! empty profile builder are supposed to leave only a small constant
//! number of unavoidable per-run allocations (policy boxes, the result
//! and its name, the harvested sample vector). This test pins that
//! budget with a counting `#[global_allocator]`: it fails if a change
//! reintroduces per-event or per-task allocations into the loop.
//!
//! The §4.3 controller ticks once per control period of every
//! controlled run; a tick must not allocate at all, over a trained
//! `C(p, a)`, the Amdahl model or the λ-recalibrated table.
//!
//! The multi-job service pays two costs per event: a plane tick per
//! live job per control period, and one model generation per completed
//! run. A plane tick that does not refresh the split must not
//! allocate, and a steady-state `ModelStore::record_completion` must
//! allocate a small constant number of times, whatever the grid's size
//! and even while a reader still holds the previous generation.
//!
//! Integration tests are separate binaries, so the global allocator
//! here affects no other test. The count is per thread, so the audits
//! in this binary may run in parallel without seeing each other's
//! allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use jockey_cluster::{
    ClusterConfig, ClusterSim, FixedAllocation, JobController, JobSpec, JobStatus, RunHooks,
    SimWorkspace,
};
use jockey_core::control::{ControlParams, JockeyController};
use jockey_core::cpa::{CpaModel, RunObservation, TrainConfig};
use jockey_core::online::{ModelHandle, ModelStore, OnlineConfig, RecordedRun};
use jockey_core::plane::ControlPlane;
use jockey_core::predict::{AmdahlModel, CompletionModel};
use jockey_core::progress::{IndicatorContext, ProgressIndicator};
use jockey_core::recal::recalibrated;
use jockey_core::utility::UtilityFunction;
use jockey_jobgraph::graph::{EdgeKind, JobGraphBuilder};
use jockey_simrt::dist::Uniform;
use jockey_simrt::observe::ProgressSink;
use jockey_simrt::time::{SimDuration, SimTime};

struct CountingAllocator;

thread_local! {
    // Const-initialized and without a destructor, so reading it never
    // allocates (which would recurse into the allocator).
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with` fails only while the thread is being torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its caller's pointer and layout
// contract unchanged to the system allocator; counting touches only a
// thread-local integer and never allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Allocations (and reallocations) made so far on the calling thread.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// A sink that only counts samples — mirrors training's borrowed
/// collector without the indicator dependency.
struct CountSink(u64);

impl ProgressSink for CountSink {
    fn sample(&mut self, _job: usize, _elapsed_secs: f64, _stage_fraction: &[f64]) {
        self.0 += 1;
    }
}

fn training_spec() -> Arc<JobSpec> {
    let mut b = JobGraphBuilder::new("alloc-audit");
    let m = b.stage("map", 40);
    let mid = b.stage("mid", 40);
    let r = b.stage("reduce", 8);
    b.edge(m, mid, EdgeKind::OneToOne);
    b.edge(mid, r, EdgeKind::AllToAll);
    Arc::new(JobSpec::uniform(
        Arc::new(b.build().unwrap()),
        Uniform::new(4.0, 12.0),
        Uniform::new(0.0, 1.0),
        0.05,
    ))
}

/// One training-shaped run: pooled workspace, recording off, borrowed
/// sink — exactly the shape of `cpa::train_one_run`.
fn one_run(spec: &Arc<JobSpec>, ws: &mut SimWorkspace, seed: u64) {
    let mut cfg = ClusterConfig::dedicated_with_failures(12);
    cfg.control_period = SimDuration::from_secs(15);
    cfg.max_sim_time = SimTime::from_mins(12 * 60);
    let mut sim = ClusterSim::with_workspace(cfg, seed, ws);
    sim.set_record_trace(false);
    sim.set_record_profile(false);
    sim.add_job_shared(spec.clone(), Box::new(FixedAllocation(12)));
    let mut sink = CountSink(0);
    let result = sim.run_single_hooked(RunHooks {
        sink: Some(&mut sink),
        reclaim: Some(ws),
    });
    assert!(result.completed_at.is_some(), "audit job must finish");
    assert!(sink.0 > 0, "training sink must observe samples");
}

#[test]
fn training_loop_allocations_are_pooled_and_constant_per_run() {
    let spec = training_spec();
    let mut ws = SimWorkspace::new();
    // Warm the pool: first runs grow the task table, the ready/running
    // buffers, the event queue's heap and the status scratch to this
    // job's high-water marks.
    for seed in 0..8 {
        one_run(&spec, &mut ws, seed);
    }

    // Steady state: measure two disjoint batches over fresh seeds.
    const BATCH: u64 = 16;
    let before_a = allocations();
    for seed in 100..100 + BATCH {
        one_run(&spec, &mut ws, seed);
    }
    let batch_a = allocations() - before_a;
    let before_b = allocations();
    for seed in 200..200 + BATCH {
        one_run(&spec, &mut ws, seed);
    }
    let batch_b = allocations() - before_b;

    let per_run_a = batch_a.div_ceil(BATCH);
    let per_run_b = batch_b.div_ceil(BATCH);
    // The job runs 88 tasks / ~90+ events per run; a pooled loop must
    // stay under a small constant that could never cover per-event or
    // per-task allocation. The exact count (the controller's box; the
    // result, its name, the job vector, the floor vector, the sample
    // growth) sits well under this bound — the bound is deliberately
    // loose so unrelated refactors don't thrash it, while still
    // catching any O(tasks) regression.
    assert!(
        per_run_a <= 40,
        "training run allocates too much: {per_run_a} allocations/run (batch {batch_a})"
    );
    // And the count is steady — nothing accumulates run over run.
    let spread = per_run_a.abs_diff(per_run_b);
    assert!(
        spread <= 8,
        "per-run allocations drift between batches: {per_run_a} vs {per_run_b}"
    );
}

/// The three controllers the §4.3 loop runs: a `JockeyController` over
/// a trained `C(p, a)` table for the audit job, one over the Amdahl
/// model of the same profile, and a recalibrating controller over the
/// λ-scaled table.
fn controllers() -> Vec<(&'static str, Box<dyn JobController>)> {
    let spec = training_spec();
    let graph = spec.graph.clone();
    let mut sim = ClusterSim::new(ClusterConfig::dedicated(12), 3);
    sim.add_job_shared(spec, Box::new(FixedAllocation(12)));
    let profile = sim.run_single().profile;
    let ctx = IndicatorContext::new(ProgressIndicator::TotalWorkWithQ, &graph, &profile, None);
    let model = Arc::new(CpaModel::train(
        &graph,
        &profile,
        &ctx,
        &TrainConfig::fast(vec![1, 2, 4, 8, 12]),
        7,
    ));
    let utility = UtilityFunction::deadline(SimDuration::from_mins(30));
    let params = ControlParams::default();
    vec![
        (
            "cpa",
            Box::new(JockeyController::new(
                model.clone(),
                ctx.clone(),
                utility.clone(),
                params,
            )),
        ),
        (
            "amdahl",
            Box::new(JockeyController::new(
                Arc::new(AmdahlModel::new(&graph, &profile, 12)),
                ctx.clone(),
                utility.clone(),
                params,
            )),
        ),
        (
            "recalibrated",
            Box::new(recalibrated(model, ctx, utility, params)),
        ),
    ]
}

#[test]
fn controller_ticks_allocate_nothing() {
    for (name, mut c) in controllers() {
        let stages = training_spec().graph.num_stages();
        let mut status = JobStatus {
            now: SimTime::ZERO,
            elapsed: SimDuration::ZERO,
            stage_fraction: vec![0.0; stages],
            stage_completed: vec![0; stages],
            running: 0,
            running_guaranteed: 0,
            guarantee: 0,
            work_done: 0.0,
            finished: false,
        };
        let first = c.initial(&status);
        status.guarantee = first.guarantee;

        // Past the 4096 ticks any bounded journal would hold, with
        // progress sweeping every stage, deadline pressure rising and
        // the guarantee fed back, so the argmin, the dead-zone gate,
        // the hysteresis memory and (recalibrated) λ all move.
        const TICKS: u32 = 5_000;
        let before = allocations();
        let mut last = None;
        for i in 1..=TICKS {
            let frac = f64::from(i % 1_000) / 1_000.0;
            for (s, f) in status.stage_fraction.iter_mut().enumerate() {
                *f = (frac * stages as f64 - s as f64).clamp(0.0, 1.0);
            }
            status.elapsed = SimDuration::from_secs(u64::from(i % 2_400));
            status.now = SimTime::ZERO + status.elapsed;
            status.finished = i == TICKS;
            let d = c.tick(&status);
            status.guarantee = d.guarantee;
            status.running = d.guarantee;
            status.running_guaranteed = d.guarantee;
            last = Some(d);
        }
        let allocated = allocations() - before;
        assert!(
            last.is_some_and(|d| d.raw.is_none()),
            "{name}: the last tick reports the job finished"
        );
        assert_eq!(
            allocated, 0,
            "{name}: {TICKS} controller ticks allocated {allocated} times"
        );
    }
}

/// A completed run of `ticks + 1` observations whose allocation moves
/// over `1..=max` as a plane-served job's guarantee does, so its
/// samples land in many rows of the grid. The moves are pseudo-random
/// in `seed`, so the cells fill at uneven rates.
fn moving_run(seed: u32, max: u32, ticks: u32) -> RecordedRun {
    let mut state = u64::from(seed).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let total = 600.0 + (next() % 600) as f64;
    let observations = (0..=ticks)
        .map(|i| {
            let p = f64::from(i) / f64::from(ticks);
            RunObservation {
                elapsed_secs: total * p,
                progress: p,
                allocation: 1 + (next() % u64::from(max)) as u32,
            }
        })
        .collect();
    RecordedRun {
        observations,
        total_secs: total,
        completed: true,
        // No admission prediction: the run absorbs without entering the
        // drift window, so no retrain fires mid-measurement.
        predicted_secs: f64::NAN,
    }
}

#[test]
fn steady_state_publish_allocates_a_constant_independent_of_the_grid() {
    // The service family's shape, and one with 8x its cells.
    let mut per_call = Vec::new();
    for (max, bins) in [(16_u32, 16_usize), (64, 32)] {
        let cfg = TrainConfig {
            progress_bins: bins,
            sketch_capacity: Some(64),
            ..TrainConfig::fast((1..=max).collect())
        };
        let store = Arc::new(ModelStore::new(
            CpaModel::empty(&cfg),
            OnlineConfig::default(),
        ));
        let handle = ModelHandle::new(store.clone());
        // Warm up: every touched cell's buffers grow to their working
        // size and the retained-run window fills.
        for seed in 0..6_000 {
            store.record_completion(moving_run(seed, max, 32));
        }
        const CALLS: u32 = 1_000;
        let (mut total, mut worst) = (0, 0);
        for seed in 100_000..100_000 + CALLS {
            let run = moving_run(seed, max, 32);
            // A reader holds the generation this call supersedes, so the
            // publish cannot write the table in place.
            let view = handle.pinned().expect("a handle pins");
            let before = allocations();
            store.record_completion(run);
            let n = allocations() - before;
            drop(view);
            total += n;
            worst = worst.max(n);
        }
        per_call.push((max, bins, total as f64 / f64::from(CALLS), worst));
    }
    for &(max, bins, mean, worst) in &per_call {
        // The publish copies the query table once: its `Arc` and its
        // values. The rest is the sketches' own amortized growth (a
        // level's first buffer, a buffer's first overflow), which rides
        // on the samples a run brings, not on the grid. A publish that
        // copied each touched row of sketches would cost about 1,100
        // allocations at the first shape and 2,600 at the second.
        assert!(
            mean <= 6.0,
            "{max} allocations x {bins} bins: {mean:.2} allocations per publish (worst {worst})"
        );
    }
}

/// Remaining time of a job with `work` token-seconds left at progress 0.
struct LinearWork(f64);

impl CompletionModel for LinearWork {
    fn remaining_secs(&self, _fs: &[f64], progress: f64, allocation: u32) -> f64 {
        self.0 * (1.0 - progress) / f64::from(allocation.max(1))
    }

    fn max_allocation(&self) -> u32 {
        64
    }
}

thread_local! {
    static VIEW_ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Runs `f`, charging the allocations it makes to `VIEW_ALLOCATIONS`.
fn charged<T>(f: impl FnOnce() -> T) -> T {
    let before = allocations();
    let out = f();
    let n = allocations() - before;
    VIEW_ALLOCATIONS.with(|v| v.set(v.get() + n));
    out
}

/// A model whose every answer, pinning included, charges the
/// allocations it makes to `VIEW_ALLOCATIONS`; its pinned view is one
/// too. During a refresh the plane asks the shared model only to pin,
/// so what it charges is the pinned view's own allocations.
struct Charged(Arc<dyn CompletionModel>);

impl CompletionModel for Charged {
    fn remaining_secs(&self, fs: &[f64], progress: f64, allocation: u32) -> f64 {
        charged(|| self.0.remaining_secs(fs, progress, allocation))
    }

    fn remaining_curve(&self, fs: &[f64], progress: f64, first: u32, out: &mut [f64]) {
        charged(|| self.0.remaining_curve(fs, progress, first, out));
    }

    fn max_allocation(&self) -> u32 {
        self.0.max_allocation()
    }

    fn size_for_deadline(&self, fs: &[f64], deadline: SimDuration, slack: f64) -> Option<u32> {
        charged(|| self.0.size_for_deadline(fs, deadline, slack))
    }

    fn pinned(&self) -> Option<Arc<dyn CompletionModel>> {
        charged(|| {
            let view: Arc<dyn CompletionModel> = Arc::new(Charged(self.0.pinned()?));
            Some(view)
        })
    }
}

/// What the plane's ticks allocated over one fleet's run.
#[derive(Debug)]
struct PlaneTickAudit {
    quiet_ticks: u64,
    quiet_allocations: u64,
    refreshing_ticks: u64,
    /// Allocations of refreshing ticks after the first two rounds,
    /// less the pinned views' own.
    refresh_allocations: u64,
    /// The pinned views' own allocations in those ticks.
    view_allocations: u64,
}

/// Ticks `fleet` jobs on one plane for 60 rounds and counts what the
/// ticks allocate.
fn audit_plane_ticks(fleet: u32) -> PlaneTickAudit {
    // The service shape: jobs share one online family model behind a
    // handle with a closed-form floor, and progress is the completed
    // fraction of one 16-task stage.
    let mut b = JobGraphBuilder::new("alloc-audit-plane");
    b.stage("body", 16);
    let graph = Arc::new(b.build().unwrap());
    let mut pb = jockey_jobgraph::profile::ProfileBuilder::new(&graph);
    for _ in 0..16 {
        pb.record_task(jockey_jobgraph::StageId(0), 1.0, 10.0, false);
    }
    let profile = pb.finish(160.0, 1.0);
    let indicator = IndicatorContext::new(ProgressIndicator::VertexFrac, &graph, &profile, None);
    let cfg = TrainConfig {
        progress_bins: 16,
        sketch_capacity: Some(64),
        ..TrainConfig::fast((1..=16).collect())
    };
    let store = Arc::new(ModelStore::new(
        CpaModel::empty(&cfg),
        OnlineConfig::default(),
    ));
    for seed in 0..64 {
        store.record_completion(moving_run(seed, 16, 32));
    }
    let model: Arc<dyn CompletionModel> = Arc::new(Charged(Arc::new(ModelHandle::with_floor(
        store,
        Arc::new(LinearWork(3_600.0)),
    ))));
    let plane = ControlPlane::new(256 * fleet / 48);
    let mut jobs: Vec<_> = (0..fleet)
        .map(|i| {
            plane
                .try_add_job(
                    &format!("job-{i}"),
                    model.clone(),
                    indicator.clone(),
                    SimDuration::from_secs(1_500 + u64::from(30 * (i % 48))),
                    1.2,
                )
                .expect("the budget admits every job")
        })
        .collect();
    let mut status = JobStatus {
        now: SimTime::ZERO,
        elapsed: SimDuration::ZERO,
        stage_fraction: vec![0.0],
        stage_completed: vec![0],
        running: 0,
        running_guaranteed: 0,
        guarantee: 0,
        work_done: 0.0,
        finished: false,
    };
    let mut audit = PlaneTickAudit {
        quiet_ticks: 0,
        quiet_allocations: 0,
        refreshing_ticks: 0,
        refresh_allocations: 0,
        view_allocations: 0,
    };
    for round in 1..=60_u32 {
        for (i, job) in jobs.iter_mut().enumerate() {
            let frac = f64::from((round + i as u32) % 60) / 60.0;
            status.stage_fraction[0] = frac;
            status.stage_completed[0] = (frac * 16.0) as u32;
            status.elapsed = SimDuration::from_secs(u64::from(round) * 10);
            status.now = SimTime::ZERO + status.elapsed;
            let refreshes = plane.stats().refreshes;
            VIEW_ALLOCATIONS.with(|v| v.set(0));
            let before = allocations();
            let decision = job.tick(&status);
            let n = allocations() - before;
            let view = VIEW_ALLOCATIONS.with(Cell::get);
            status.guarantee = decision.guarantee;
            // A refresh re-splits the whole budget once per epoch of
            // one tick per live job; every other tick reads the split.
            if plane.stats().refreshes == refreshes {
                audit.quiet_ticks += 1;
                audit.quiet_allocations += n;
            } else {
                audit.refreshing_ticks += 1;
                // The first two rounds' refreshes grow the plane's
                // buffers to the fleet's size, the published split's
                // two sides one each.
                if round > 2 {
                    audit.refresh_allocations += n - view;
                    audit.view_allocations += view;
                }
            }
        }
    }
    audit
}

#[test]
fn plane_ticks_with_a_reused_status_allocate_nothing() {
    for fleet in [48, 96] {
        let audit = audit_plane_ticks(fleet);
        assert!(
            audit.refreshing_ticks > 0 && audit.quiet_ticks > 40 * audit.refreshing_ticks,
            "{fleet} jobs: {audit:?}"
        );
        assert_eq!(audit.quiet_allocations, 0, "{fleet} jobs: {audit:?}");
        // A refresh allocates nothing beyond its pinned view: the
        // gather, the model list, the arbiter's buffers and the
        // published split are all reused.
        assert_eq!(audit.refresh_allocations, 0, "{fleet} jobs: {audit:?}");
    }
}
