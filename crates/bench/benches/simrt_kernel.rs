//! Simulation-kernel microbenchmarks: the event queue, per-task
//! sampling and `C(p, a)` queries, the last measured against the
//! general code path it specializes.
//!
//! - `queue/hold`: a hold-model workload (pop one event, schedule a
//!   successor at a near-monotone future time) over a few thousand
//!   pending events, the access pattern the cluster engine produces.
//!   `engine_dense/run` and `engine_sparse/run` measure the same queue
//!   inside whole engine runs at high and low occupancy.
//! - `sample/enum`: per-task-attempt draws from a realistic
//!   distribution mix through the monomorphized [`Dist::sample`] match.
//! - `remaining/{scan,table}`: per-control-tick `C(p, a)` queries via
//!   the percentile scan vs. the precomputed dense table.
//!
//! DESIGN.md §10 records the numbers that still describe the code.

// Criterion macros expand to undocumented items.
#![allow(missing_docs)]

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use jockey_cluster::{ClusterConfig, ClusterSim, FixedAllocation, JobSpec};
use jockey_core::cpa::{CpaModel, TrainConfig};
use jockey_core::progress::{IndicatorContext, ProgressIndicator};
use jockey_simrt::dist::{Dist, LogNormal};
use jockey_simrt::event::EventQueue;
use jockey_simrt::time::{SimDuration, SimTime};
use jockey_workloads::jobs::paper_job;
use jockey_workloads::recurring::training_profile;

/// Pending events held in the queue during the hold-model loop.
const QUEUE_DEPTH: usize = 4_096;

/// Hold-model rounds per iteration (each = one pop + one schedule).
const QUEUE_ROUNDS: usize = 8_192;

/// Runs the hold model: `QUEUE_DEPTH` events are pre-scheduled, then
/// each round pops the earliest event and schedules a successor a
/// pseudo-random near-future delta ahead — the engine's task-completion
/// pattern.
fn queue_hold_model() -> u64 {
    let mut queue = EventQueue::new();
    // A cheap deterministic delta stream (xorshift) keeps the workload
    // identical across runs without RNG overhead in the loop.
    let mut state = 0x9e37_79b9_7f4a_7c15_u64;
    let mut delta = |limit: u64| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state % limit
    };
    for i in 0..QUEUE_DEPTH as u64 {
        queue.schedule(SimTime::ZERO + SimDuration::from_millis(delta(60_000)), i);
    }
    let mut acc = 0_u64;
    for _ in 0..QUEUE_ROUNDS {
        let (at, id) = queue.pop().expect("queue never drains");
        acc = acc.wrapping_add(id);
        queue.schedule(at + SimDuration::from_millis(1 + delta(30_000)), id);
    }
    acc
}

fn bench_queue(c: &mut Criterion) {
    let smoke = std::env::var_os("JOCKEY_BENCH_SMOKE").is_some();
    let mut g = c.benchmark_group("queue");
    g.sample_size(if smoke { 3 } else { 20 });
    g.bench_function("hold", |b| b.iter(queue_hold_model));
    g.finish();
}

/// A dense production-shaped run — the widest paper job (G, 8 496
/// tasks) held at an 800-token guarantee, so several hundred
/// task-completion events are pending at once. No experiment or
/// benchmark workload runs at this occupancy; the row shows what the
/// queue costs there.
fn dense_sim(spec: &JobSpec) -> ClusterSim {
    let mut cfg = ClusterConfig::production();
    cfg.max_guarantee = 800;
    let mut sim = ClusterSim::new(cfg, 17);
    sim.add_job(spec.clone(), Box::new(FixedAllocation(800)));
    sim
}

fn bench_engine_dense(c: &mut Criterion) {
    let smoke = std::env::var_os("JOCKEY_BENCH_SMOKE").is_some();
    let job = paper_job(6, 1);
    let mut g = c.benchmark_group("engine_dense");
    g.sample_size(if smoke { 2 } else { 15 });
    g.bench_function("run", |b| {
        b.iter(|| dense_sim(&job.spec).run());
    });
    g.finish();
}

/// A sparse production-shaped run — the same 60-token, ~20-pending-
/// event regime as `engine/events_per_sec`, and the occupancy of most
/// training runs.
fn sparse_sim(spec: &JobSpec) -> ClusterSim {
    let mut cfg = ClusterConfig::production();
    cfg.total_tokens = 60;
    cfg.max_guarantee = 40;
    let mut sim = ClusterSim::new(cfg, 17);
    sim.add_job(spec.clone(), Box::new(FixedAllocation(24)));
    sim
}

fn bench_engine_sparse(c: &mut Criterion) {
    let smoke = std::env::var_os("JOCKEY_BENCH_SMOKE").is_some();
    let job = paper_job(0, 1);
    let mut g = c.benchmark_group("engine_sparse");
    g.sample_size(if smoke { 3 } else { 20 });
    g.bench_function("run", |b| {
        b.iter(|| sparse_sim(&job.spec).run());
    });
    g.finish();
}

/// The distribution mix the engine draws from: clamped log-normal
/// runtimes and log-normal queueing delays, as built by
/// `jockey-workloads`.
fn engine_dists() -> Vec<Dist> {
    vec![
        Dist::clamped(LogNormal::from_median_p90(20.0, 90.0), 0.0, 225.0),
        Dist::from(LogNormal::from_median_p90(2.0, 6.0)),
        Dist::mixture(
            LogNormal::from_median_p90(12.0, 40.0),
            LogNormal::from_median_p90(60.0, 200.0),
            0.25,
        ),
    ]
}

/// Draws per iteration of the sampling bench.
const SAMPLE_DRAWS: usize = 4_096;

fn bench_sampling(c: &mut Criterion) {
    let smoke = std::env::var_os("JOCKEY_BENCH_SMOKE").is_some();
    let dists = engine_dists();
    let seeds = jockey_simrt::rng::SeedDeriver::new(7);

    let mut g = c.benchmark_group("sample");
    g.sample_size(if smoke { 3 } else { 20 });
    g.bench_function("enum", |b| {
        let mut rng = seeds.rng("enum");
        b.iter(|| {
            let mut acc = 0.0;
            for i in 0..SAMPLE_DRAWS {
                acc += dists[i % dists.len()].sample(&mut rng);
            }
            acc
        });
    });
    g.finish();
}

/// Queries per iteration of the `remaining` benches.
const QUERY_COUNT: usize = 4_096;

fn bench_remaining(c: &mut Criterion) {
    let smoke = std::env::var_os("JOCKEY_BENCH_SMOKE").is_some();
    // A real trained model, same setup as engine/train_one_model.
    let job = paper_job(0, 1);
    let profile = training_profile(&job.spec, 40, if smoke { 2 } else { 5 });
    let ctx = IndicatorContext::new(
        ProgressIndicator::TotalWorkWithQ,
        &job.graph,
        &profile,
        None,
    );
    let cfg = TrainConfig::fast(vec![4, 16, 64]);
    let model = CpaModel::train(&job.graph, &profile, &ctx, &cfg, 9);
    let pct = model.percentile();

    // A sweep of (progress, allocation) pairs covering interpolation
    // between grid allocations and off-grid extremes.
    let queries: Vec<(f64, u32)> = (0..QUERY_COUNT)
        .map(|i| {
            let progress = (i % 101) as f64 / 100.0;
            let allocation = 1 + (i * 7 % 80) as u32;
            (progress, allocation)
        })
        .collect();

    let mut g = c.benchmark_group("remaining");
    g.sample_size(if smoke { 3 } else { 20 });
    g.bench_function("scan", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for &(p, a) in &queries {
                let v = model.remaining_percentile(p, a, pct);
                if v.is_finite() {
                    acc += v;
                }
            }
            acc
        });
    });
    g.bench_function("table", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for &(p, a) in &queries {
                let v = model.remaining(p, a);
                if v.is_finite() {
                    acc += v;
                }
            }
            acc
        });
    });
    g.finish();
    black_box(queries);
}

criterion_group!(
    benches,
    bench_queue,
    bench_engine_dense,
    bench_engine_sparse,
    bench_sampling,
    bench_remaining
);
criterion_main!(benches);
