//! Online-model NFR benchmark: absorbing one completed run into a live
//! `C(p, a)` model versus retraining the table from scratch.
//!
//! The online-update design (`jockey_core::online`) only earns its keep
//! if folding a finished run into the model is *much* cheaper than the
//! simulation-based retrain it replaces — otherwise the control plane
//! could just retrain on every completion. This target measures:
//!
//! - `absorb`: `CpaModel::absorb_observations` — the O(cells) fold of
//!   one completed run (sketch updates plus incremental table rebuild);
//! - `absorb-family`: the same fold into a model of the service family's
//!   shape (allocations `1..=16`, 16 progress bins, 64-item sketches,
//!   no empty cell), from runs whose allocation moves every tick as a
//!   plane-served job's guarantee does. With no empty cell in a row,
//!   absorb recomputes only the cells a run touched (DESIGN §13);
//! - `store-publish`: `ModelStore::record_completion` end to end
//!   (absorb, drift bookkeeping, snapshot clone, generation bump), what
//!   the service driver pays per completion;
//! - `cold-start`: `CpaModel::empty` on the service family's grid plus
//!   one nominal run absorbed per allocation (`family_model`, which
//!   mirrors the service driver's `bootstrap_family_model`): what each
//!   service instance pays before its first admission;
//! - `window-retrain`: the drift response — `vacant_copy` plus
//!   re-absorbing the retained window with `CpaModel::absorb_runs` —
//!   i.e. the worst-case bounded work a drift fire performs inline;
//! - `full-retrain`: `CpaModel::train` at the same grid, the cost the
//!   online path avoids.
//!
//! Results are recorded in DESIGN.md §13; the headline number is the
//! full-retrain/absorb ratio (the acceptance floor is 20x).
//!
//! Not a criterion bench: the workload is three one-shot phases with
//! their own internal iteration counts, matching the other custom
//! harnesses here.

// Custom harness: no criterion macros here.
#![allow(missing_docs)]

use std::sync::Arc;
use std::time::Instant;

use jockey_bench::family_model;
use jockey_cluster::{ClusterConfig, ClusterSim, FixedAllocation, JobSpec};
use jockey_core::cpa::{CpaModel, RunObservation, TrainConfig};
use jockey_core::online::{ModelStore, OnlineConfig, RecordedRun};
use jockey_core::progress::{IndicatorContext, ProgressIndicator};
use jockey_jobgraph::graph::{EdgeKind, JobGraphBuilder};
use jockey_simrt::dist::Uniform;

/// One synthetic completed run at `allocation`: a full trace with one
/// observation per control tick, the shape the service driver records.
fn synthetic_run(allocation: u32, total_secs: f64, ticks: usize) -> RecordedRun {
    let observations: Vec<RunObservation> = (0..=ticks)
        .map(|i| {
            let p = i as f64 / ticks as f64;
            RunObservation {
                elapsed_secs: total_secs * p,
                progress: p,
                allocation,
            }
        })
        .collect();
    RecordedRun {
        observations,
        total_secs,
        completed: true,
        // NaN: absorb without feeding the drift detector, so the store
        // never fires a retrain mid-measurement.
        predicted_secs: f64::NAN,
    }
}

/// A completed run of `ticks + 1` observations whose allocation moves
/// every tick, as a plane-served job's guarantee does: its samples
/// land in one or two cells of most rows.
fn moving_run(seed: usize, ticks: usize) -> RecordedRun {
    let mut run = synthetic_run(1, 600.0 + (seed % 7) as f64 * 30.0, ticks);
    for (i, o) in run.observations.iter_mut().enumerate() {
        o.allocation = 1 + ((seed + i * 7) % 16) as u32;
    }
    run
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    let idx = ((sorted.len() - 1) as f64 * p / 100.0).round() as usize;
    sorted[idx]
}

fn main() {
    let smoke = std::env::var_os("JOCKEY_BENCH_SMOKE").is_some();
    let (train_iters, absorb_iters) = if smoke { (1, 64) } else { (5, 4_096) };
    println!(
        "online bench ({} mode): absorb vs retrain on a live C(p, a)",
        if smoke { "smoke" } else { "full" }
    );

    // The train_digest job: three stages, 12-token dedicated cluster —
    // the same setup the frozen-mode equivalence gate trains.
    let mut b = JobGraphBuilder::new("online-bench-job");
    let m = b.stage("map", 24);
    let mid = b.stage("mid", 24);
    let r = b.stage("reduce", 4);
    b.edge(m, mid, EdgeKind::OneToOne);
    b.edge(mid, r, EdgeKind::AllToAll);
    let graph = Arc::new(b.build().unwrap());
    let spec = JobSpec::uniform(
        graph.clone(),
        Uniform::new(5.0, 15.0),
        Uniform::new(0.0, 1.0),
        0.05,
    );
    let mut sim = ClusterSim::new(ClusterConfig::dedicated_with_failures(12), 77);
    sim.add_job(spec, Box::new(FixedAllocation(12)));
    let profile = sim.run_single().profile;
    let ctx = IndicatorContext::new(ProgressIndicator::TotalWorkWithQ, &graph, &profile, None);
    // Bounded sketches: the online deployment shape (the service driver
    // trains its family models the same way). Exact sketches would make
    // every absorb — and the snapshot clone it publishes — grow with
    // accumulated history, which is precisely what the compacting
    // sketch exists to avoid. Full mode measures against the *default*
    // training configuration (the 13-allocation production grid the
    // acceptance floor is stated for); smoke keeps the cheap test grid
    // so the CI gate stays fast.
    let cfg = if smoke {
        TrainConfig {
            allocations: vec![2, 4, 8, 16],
            runs_per_allocation: 6,
            sketch_capacity: Some(64),
            ..TrainConfig::fast(vec![2])
        }
    } else {
        TrainConfig {
            sketch_capacity: Some(64),
            ..TrainConfig::default()
        }
    };

    // Phase 1 — full retrain: the cost the online path avoids.
    let mut retrain_secs = Vec::with_capacity(train_iters);
    let mut model = None;
    for _ in 0..train_iters {
        let t0 = Instant::now();
        model = Some(CpaModel::train(&graph, &profile, &ctx, &cfg, 1234));
        retrain_secs.push(t0.elapsed().as_secs_f64());
    }
    let model = model.unwrap();
    let retrain_mean_ms = 1e3 * retrain_secs.iter().sum::<f64>() / retrain_secs.len() as f64;

    // Phase 2a — absorb: CpaModel::absorb_observations on a live model,
    // the O(cells) fold the acceptance floor is stated for.
    let ticks = 32;
    let mut live = model.clone();
    let mut absorb_us = Vec::with_capacity(absorb_iters);
    for i in 0..absorb_iters {
        let a = cfg.allocations[i % cfg.allocations.len()];
        let run = synthetic_run(a, 400.0 + (i % 7) as f64 * 30.0, ticks);
        let t0 = Instant::now();
        let added = live.absorb_observations(&run.observations, run.total_secs, run.completed);
        absorb_us.push(1e6 * t0.elapsed().as_secs_f64());
        assert!(added > 0, "absorb added nothing");
    }
    absorb_us.sort_by(f64::total_cmp);
    let absorb_mean_us = absorb_us.iter().sum::<f64>() / absorb_us.len() as f64;

    // Phase 2a' — absorb into the service family's shape.
    let mut family = family_model(3_600.0, 16);
    let mut family_us = Vec::with_capacity(absorb_iters);
    for i in 0..absorb_iters {
        let run = moving_run(i, ticks);
        let t0 = Instant::now();
        let added = family.absorb_observations(&run.observations, run.total_secs, run.completed);
        family_us.push(1e6 * t0.elapsed().as_secs_f64());
        assert!(added > 0, "absorb added nothing");
    }
    family_us.sort_by(f64::total_cmp);
    let family_mean_us = family_us.iter().sum::<f64>() / family_us.len() as f64;

    // Phase 2b — store publish: record_completion end to end (absorb +
    // drift bookkeeping + snapshot clone + generation bump), what the
    // service driver pays per completion.
    let store = ModelStore::new(model.clone(), OnlineConfig::default());
    let mut publish_us = Vec::with_capacity(absorb_iters);
    for i in 0..absorb_iters {
        let a = cfg.allocations[i % cfg.allocations.len()];
        let run = synthetic_run(a, 400.0 + (i % 7) as f64 * 30.0, ticks);
        let t0 = Instant::now();
        let outcome = store.record_completion(run);
        publish_us.push(1e6 * t0.elapsed().as_secs_f64());
        assert!(outcome.samples_added > 0, "absorb added nothing");
    }
    publish_us.sort_by(f64::total_cmp);
    let publish_mean_us = publish_us.iter().sum::<f64>() / publish_us.len() as f64;

    // Phase 2c — cold start: an empty family-shaped model plus its 16
    // bootstrap absorbs, as each service instance builds it.
    let mut cold_us = Vec::with_capacity(absorb_iters);
    for _ in 0..absorb_iters {
        let t0 = Instant::now();
        let bootstrapped = family_model(3_600.0, 16);
        cold_us.push(1e6 * t0.elapsed().as_secs_f64());
        assert!(bootstrapped.sample_count() > 0);
    }
    cold_us.sort_by(f64::total_cmp);
    let cold_mean_us = cold_us.iter().sum::<f64>() / cold_us.len() as f64;

    // Phase 3 — window retrain: what a drift fire pays inline.
    let window: Vec<RecordedRun> = (0..OnlineConfig::default().retain_runs)
        .map(|i| synthetic_run(cfg.allocations[i % cfg.allocations.len()], 500.0, ticks))
        .collect();
    let mut window_us = Vec::with_capacity(train_iters.max(16));
    for _ in 0..train_iters.max(16) {
        let t0 = Instant::now();
        // As `ModelStore::record_completion` does on a fire: fold the
        // window run by run, build the query table once.
        let mut fresh = model.vacant_copy();
        fresh.absorb_runs(
            window
                .iter()
                .map(|run| (run.observations.as_slice(), run.total_secs, run.completed)),
        );
        window_us.push(1e6 * t0.elapsed().as_secs_f64());
        assert!(fresh.sample_count() > 0);
    }
    let window_mean_us = window_us.iter().sum::<f64>() / window_us.len() as f64;

    let speedup = 1e3 * retrain_mean_ms / absorb_mean_us;
    println!(
        "{:<16} {:>12} {:>12} {:>12} {:>12}",
        "phase", "iters", "mean", "p50", "p99"
    );
    println!(
        "{:<16} {:>12} {:>9.1} ms {:>12} {:>12}",
        "full-retrain", train_iters, retrain_mean_ms, "-", "-"
    );
    println!(
        "{:<16} {:>12} {:>9.1} us {:>9.1} us {:>9.1} us",
        "absorb",
        absorb_iters,
        absorb_mean_us,
        percentile(&absorb_us, 50.0),
        percentile(&absorb_us, 99.0)
    );
    println!(
        "{:<16} {:>12} {:>9.1} us {:>9.1} us {:>9.1} us",
        "absorb-family",
        absorb_iters,
        family_mean_us,
        percentile(&family_us, 50.0),
        percentile(&family_us, 99.0)
    );
    println!(
        "{:<16} {:>12} {:>9.1} us {:>9.1} us {:>9.1} us",
        "store-publish",
        absorb_iters,
        publish_mean_us,
        percentile(&publish_us, 50.0),
        percentile(&publish_us, 99.0)
    );
    println!(
        "{:<16} {:>12} {:>9.1} us {:>9.1} us {:>9.1} us",
        "cold-start",
        absorb_iters,
        cold_mean_us,
        percentile(&cold_us, 50.0),
        percentile(&cold_us, 99.0)
    );
    println!(
        "{:<16} {:>12} {:>9.1} us {:>12} {:>12}",
        "window-retrain",
        train_iters.max(16),
        window_mean_us,
        "-",
        "-"
    );
    println!("speedup: absorb is {speedup:.0}x faster than a full retrain");
    // The 20x acceptance floor is stated for the default training grid
    // (full mode); the smoke grid is deliberately tiny, so the gate
    // only sanity-checks the direction there.
    let floor = if smoke { 1.0 } else { 20.0 };
    assert!(
        speedup >= floor,
        "online absorb must beat a full retrain by >= {floor}x, got {speedup:.1}x"
    );
}
