//! Engine-layer benchmarks: raw event-loop throughput and the
//! repeated-simulation training hot path.
//!
//! These two numbers bracket the cost of everything Jockey does
//! offline: `events_per_sec` is the simulator's dispatch rate on a
//! production-shaped run (background load, failures, control ticks),
//! and `train_one_model` is the full `C(p, a)` training loop whose
//! per-run allocation behavior the engine refactor targets. Results
//! are recorded in DESIGN.md §15.

// Criterion macros expand to undocumented items.
#![allow(missing_docs)]

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};
use jockey_cluster::{ClusterConfig, ClusterSim, FixedAllocation, JobSpec, SpeculationConfig};
use jockey_core::cpa::{CpaModel, TrainConfig};
use jockey_core::progress::{IndicatorContext, ProgressIndicator};
use jockey_simrt::observe::{EntryKind, SimObserver};
use jockey_simrt::time::SimTime;
use jockey_workloads::jobs::paper_job;
use jockey_workloads::recurring::training_profile;

/// Counts dispatched events without retaining anything (shared so the
/// count survives the simulator consuming the observer).
#[derive(Clone, Default)]
struct EventCounter(Arc<AtomicU64>);

impl SimObserver for EventCounter {
    fn record(&mut self, _at: SimTime, kind: EntryKind, _message: fmt::Arguments<'_>) {
        if kind == EntryKind::Event {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// A production-shaped run: background load, failures, spare tokens.
fn engine_sim(spec: &JobSpec) -> ClusterSim {
    let mut cfg = ClusterConfig::production();
    cfg.total_tokens = 60;
    cfg.max_guarantee = 40;
    let mut sim = ClusterSim::new(cfg, 17);
    sim.add_job(spec.clone(), Box::new(FixedAllocation(24)));
    sim
}

/// Event-dispatch throughput of one production-shaped run.
fn bench_engine_events(c: &mut Criterion) {
    let smoke = std::env::var_os("JOCKEY_BENCH_SMOKE").is_some();
    let job = paper_job(0, 1);

    // One instrumented run establishes how many events the fixed seed
    // dispatches; the timed runs then execute uninstrumented.
    let counter = EventCounter::default();
    let mut sim = engine_sim(&job.spec);
    sim.set_observer(Box::new(counter.clone()));
    sim.run();
    let events = counter.0.load(Ordering::Relaxed);

    let mut g = c.benchmark_group("engine");
    g.sample_size(if smoke { 3 } else { 20 });
    g.bench_function("events_per_sec", |b| {
        b.iter(|| engine_sim(&job.spec).run());
    });
    // The same production-shaped run with clone-on-slow speculation
    // active: measures what the watcher ticks, sibling bookkeeping and
    // clone races add on top of the baseline event loop.
    g.bench_function("events_per_sec_speculative", |b| {
        b.iter(|| {
            let mut cfg = ClusterConfig::production();
            cfg.total_tokens = 60;
            cfg.max_guarantee = 40;
            cfg.speculation = Some(SpeculationConfig::clone_on_slow(2.0, 8));
            let mut sim = ClusterSim::new(cfg, 17);
            sim.add_job(job.spec.clone(), Box::new(FixedAllocation(24)));
            sim.run()
        });
    });
    g.finish();
    println!("engine/events_per_sec: {events} events per iteration");
}

/// Full offline training of one `C(p, a)` table — the repeated
/// simulation loop the zero-copy hot path targets.
fn bench_train_one_model(c: &mut Criterion) {
    let smoke = std::env::var_os("JOCKEY_BENCH_SMOKE").is_some();
    let job = paper_job(0, 1);
    let profile = training_profile(&job.spec, 40, if smoke { 2 } else { 5 });
    let ctx = IndicatorContext::new(
        ProgressIndicator::TotalWorkWithQ,
        &job.graph,
        &profile,
        None,
    );
    let cfg = TrainConfig::fast(vec![4, 16, 64]);
    let mut g = c.benchmark_group("engine");
    g.sample_size(if smoke { 3 } else { 10 });
    g.bench_function("train_one_model", |b| {
        b.iter(|| CpaModel::train(&job.graph, &profile, &ctx, &cfg, 9));
    });
    g.finish();
}

criterion_group!(benches, bench_engine_events, bench_train_one_model);
criterion_main!(benches);
