//! Hot-path kernels: cluster simulation throughput, `C(p, a)` training
//! and queries, and progress-indicator evaluation — the pieces whose
//! cost determines whether Jockey's offline/online split is viable
//! (§4.1 argues online simulation would be too slow; these numbers
//! quantify the claim for this implementation). A whole control tick
//! is timed by `control_plane/argmin_1d/{cpa,amdahl,scaled}` in
//! `benches/control_plane.rs`.

// Criterion macros expand to undocumented items.
#![allow(missing_docs)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use jockey_bench::smoke_env;
use jockey_cluster::{ClusterConfig, ClusterSim, FixedAllocation};
use jockey_core::cpa::{CpaModel, TrainConfig};
use jockey_core::progress::{IndicatorContext, ProgressIndicator};
use jockey_workloads::jobs::paper_job;

/// Simulate one full execution of a generated job on a dedicated
/// cluster — the unit of work repeated thousands of times in training.
fn bench_cluster_sim(c: &mut Criterion) {
    let mut g = c.benchmark_group("cluster_sim");
    g.sample_size(10);
    for (idx, label) in [(0_usize, "job-A_681_tasks"), (6, "job-G_8496_tasks")] {
        let job = paper_job(idx, 1);
        g.bench_with_input(BenchmarkId::new("dedicated_run", label), &job, |b, job| {
            b.iter(|| {
                let mut sim = ClusterSim::new(ClusterConfig::dedicated(40), 3);
                sim.add_job(job.spec.clone(), Box::new(FixedAllocation(40)));
                sim.run()
            })
        });
    }
    g.finish();
}

/// Offline training of a full C(p, a) table for one job.
fn bench_cpa_training(c: &mut Criterion) {
    let env = smoke_env();
    let job = &env.jobs[0];
    let ctx = job.setup.indicator_context();
    let mut g = c.benchmark_group("cpa");
    g.sample_size(10);
    g.bench_function("train_smoke_job", |b| {
        b.iter(|| {
            CpaModel::train(
                &job.gen.graph,
                &job.profile,
                &ctx,
                &TrainConfig::fast(vec![4, 16, 64]),
                9,
            )
        })
    });
    // Online query cost: this is what runs inside the control loop.
    let model = &job.setup.cpa;
    g.bench_function("query_remaining", |b| {
        b.iter(|| model.remaining(std::hint::black_box(0.37), std::hint::black_box(23)))
    });
    g.finish();
}

/// Progress-indicator evaluation (runs every control tick).
fn bench_indicators(c: &mut Criterion) {
    let job = paper_job(6, 1); // Job G: 110 stages.
    let profile = jockey_workloads::recurring::training_profile(&job.spec, 60, 5);
    let fs: Vec<f64> = (0..job.graph.num_stages())
        .map(|i| (i % 10) as f64 / 10.0)
        .collect();
    let mut g = c.benchmark_group("indicators_110_stages");
    for kind in ProgressIndicator::ALL {
        let ctx = IndicatorContext::new(kind, &job.graph, &profile, None);
        g.bench_function(kind.name(), |b| {
            b.iter(|| ctx.progress(std::hint::black_box(&fs)))
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_cluster_sim,
    bench_cpa_training,
    bench_indicators
);
criterion_main!(benches);
