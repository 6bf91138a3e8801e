//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! - **Simulator vs. Amdahl** end-to-end: an SLO-controlled run under
//!   each model, quantifying how much extra runtime the richer model
//!   costs (the paper's accuracy-vs-simplicity trade-off, §5.3).
//! - **Control conditioning**: the same run with and without
//!   hysteresis/dead zone (the §5.5 variants), to show the conditioning
//!   machinery itself has negligible runtime cost.
//! - **Empirical vs. parametric replay**: sampling cost of empirical
//!   profile distributions against parametric log-normals.

// Criterion macros expand to undocumented items.
#![allow(missing_docs)]

use criterion::{criterion_group, criterion_main, Criterion};
use jockey_bench::smoke_env;
use jockey_cluster::JobSpec;
use jockey_core::control::ControlParams;
use jockey_core::policy::Policy;
use jockey_experiments::slo::{run_slo, SloConfig};
use jockey_simrt::dist::{Dist, LogNormal};
use jockey_simrt::rng::SeedDeriver;
use jockey_simrt::time::SimDuration;

fn bench_model_ablation(c: &mut Criterion) {
    let env = smoke_env();
    let job = &env.jobs[0];
    let mut g = c.benchmark_group("model_ablation");
    g.sample_size(10);
    for (label, policy) in [
        ("controlled_run_cpa", Policy::Jockey),
        ("controlled_run_amdahl", Policy::JockeyNoSim),
        ("controlled_run_static", Policy::JockeyNoAdapt),
    ] {
        g.bench_function(label, |b| {
            b.iter(|| {
                let cfg = SloConfig::standard(policy, job.deadline, env.experiment_cluster(), 17);
                run_slo(job, &cfg)
            })
        });
    }
    g.finish();
}

fn bench_conditioning_ablation(c: &mut Criterion) {
    let env = smoke_env();
    let job = &env.jobs[0];
    let mut g = c.benchmark_group("conditioning_ablation");
    g.sample_size(10);
    let variants = [
        ("baseline", ControlParams::default()),
        (
            "no_hysteresis_no_deadzone",
            ControlParams {
                hysteresis: 1.0,
                dead_zone: SimDuration::ZERO,
                ..ControlParams::default()
            },
        ),
        (
            "no_slack",
            ControlParams {
                slack: 1.0,
                ..ControlParams::default()
            },
        ),
    ];
    for (label, params) in variants {
        g.bench_function(label, |b| {
            b.iter(|| {
                let mut cfg =
                    SloConfig::standard(Policy::Jockey, job.deadline, env.experiment_cluster(), 23);
                cfg.params = params;
                run_slo(job, &cfg)
            })
        });
    }
    g.finish();
}

fn bench_replay_distributions(c: &mut Criterion) {
    let env = smoke_env();
    let job = &env.jobs[0];
    let empirical = JobSpec::from_profile(job.gen.graph.clone(), &job.profile);
    let parametric = &job.gen.spec;
    let mut g = c.benchmark_group("replay_sampling");
    let mut rng = SeedDeriver::new(3).rng("bench");
    g.bench_function("empirical_profile", |b| {
        b.iter(|| empirical.stage_runtimes[0].sample(&mut rng))
    });
    g.bench_function("parametric_lognormal", |b| {
        b.iter(|| parametric.stage_runtimes[0].sample(&mut rng))
    });
    let raw = Dist::from(LogNormal::from_median_p90(4.0, 11.0));
    g.bench_function("raw_lognormal", |b| b.iter(|| raw.sample(&mut rng)));
    g.finish();
}

criterion_group!(
    benches,
    bench_model_ablation,
    bench_conditioning_ablation,
    bench_replay_distributions
);
criterion_main!(benches);
