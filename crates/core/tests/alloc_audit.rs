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
use jockey_core::cpa::{CpaModel, TrainConfig};
use jockey_core::predict::AmdahlModel;
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
