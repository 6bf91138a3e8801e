//! Integration tests of the speculation subsystem: clone-on-slow
//! strictly improves tail latency on a heavy-tailed stage at equal
//! total token budget, and kill-on-first-finish conserves tokens under
//! the per-step invariant checker.

use std::sync::Arc;

use jockey_cluster::{ClusterConfig, ClusterSim, FixedAllocation, JobSpec, SpeculationConfig};
use jockey_jobgraph::graph::JobGraphBuilder;
use jockey_simrt::dist::{Constant, Dist};

/// A single heavy-tailed map stage: runtimes are mostly fast with an
/// occasional straggler drawn from a Pareto tail (alpha 1.5 keeps the
/// mean finite, as the speculation machinery requires, while the far
/// quantiles run into the thousands of seconds).
fn heavy_tailed_spec(tasks: u32, p_straggle: f64) -> JobSpec {
    let mut b = JobGraphBuilder::new("straggler-map");
    b.stage("map", tasks);
    let graph = Arc::new(b.build().unwrap());
    let runtime = Dist::mixture(
        Constant(10.0),
        jockey_simrt::dist::Pareto::new(300.0, 1.5),
        p_straggle,
    );
    JobSpec::new(graph, vec![runtime], vec![Constant(0.0).into()], 0.0, 0.0)
}

/// Latency of one run, in seconds (the horizon if it never finished).
fn run_latency(cfg: &ClusterConfig, spec: &JobSpec, alloc: u32, seed: u64) -> f64 {
    let mut sim = ClusterSim::new(cfg.clone(), seed);
    sim.add_job(spec.clone(), Box::new(FixedAllocation(alloc)));
    let r = sim.run_single();
    r.duration()
        .map(|d| d.as_secs_f64())
        .unwrap_or_else(|| cfg.max_sim_time.as_secs_f64())
}

/// The `q`-quantile by rank on a sorted copy (nearest-rank method).
fn quantile(mut xs: Vec<f64>, q: f64) -> f64 {
    xs.sort_by(f64::total_cmp);
    let idx = ((xs.len() as f64 * q).ceil() as usize).clamp(1, xs.len()) - 1;
    xs[idx]
}

/// Clone-on-slow strictly improves p99 completion on a heavy-tailed
/// stage *at equal total token budget*: the no-speculation arm gets
/// the same 20 tokens as guarantee headroom (useless — the stage is
/// only 16 wide), the speculative arm holds 16 guaranteed plus the
/// 4-token clone budget. Both arms draw identical original runtimes
/// (clone draws happen after all first attempts), so speculation can
/// only shorten each seed's run — and at these seeds it strictly
/// shortens the tail.
#[test]
fn clone_on_slow_improves_p99_at_equal_token_budget() {
    let tasks = 16;
    let spec = heavy_tailed_spec(tasks, 0.25);

    let mut off = ClusterConfig::dedicated(20);
    off.max_guarantee = 20;
    let mut on = ClusterConfig::dedicated(20);
    on.max_guarantee = 16;
    on.speculation = Some(SpeculationConfig::clone_on_slow(1.5, 4));

    let seeds: Vec<u64> = (0..40).map(|i| 1000 + 17 * i).collect();
    let lat_off: Vec<f64> = seeds
        .iter()
        .map(|&s| run_latency(&off, &spec, 20, s))
        .collect();
    let lat_on: Vec<f64> = seeds
        .iter()
        .map(|&s| run_latency(&on, &spec, 16, s))
        .collect();

    for (i, (&a, &b)) in lat_off.iter().zip(&lat_on).enumerate() {
        assert!(
            b <= a + 1e-9,
            "seed {}: speculation made the run slower ({b} vs {a})",
            seeds[i]
        );
    }
    let (p99_off, p99_on) = (
        quantile(lat_off.clone(), 0.99),
        quantile(lat_on.clone(), 0.99),
    );
    assert!(
        p99_on < p99_off,
        "p99 did not strictly improve: on {p99_on} vs off {p99_off}"
    );
    let (p50_off, p50_on) = (quantile(lat_off, 0.50), quantile(lat_on, 0.50));
    assert!(
        p50_on <= p50_off,
        "median regressed: on {p50_on} vs off {p50_off}"
    );
}

/// Kill-on-first-finish conserves tokens: the run executes with the
/// per-step invariant checker enabled (token conservation including
/// the clone class, per-stage sibling accounting, clone-budget cap),
/// so any orphan clone or token leak panics mid-run. The counters
/// prove the machinery actually engaged: clones launched, races won,
/// and every losing sibling's partial work accounted as waste.
#[test]
fn kill_on_first_finish_conserves_tokens_under_invariants() {
    let spec = heavy_tailed_spec(24, 0.3);
    let mut cfg = ClusterConfig::dedicated(32);
    cfg.max_guarantee = 24;
    cfg.speculation = Some(SpeculationConfig::clone_on_slow(1.5, 8));
    let mut sim = ClusterSim::new(cfg, 11);
    sim.set_invariant_checks(true);
    sim.add_job(spec, Box::new(FixedAllocation(24)));
    let r = sim.run_single();
    assert!(r.completed_at.is_some(), "job must finish");
    assert!(r.clone_task_count > 0, "stragglers must be cloned");
    assert!(r.clone_wins > 0, "some clone must win its race");
    assert!(
        r.wasted_secs > 0.0,
        "losing siblings' partial work must be wasted"
    );
    // Work conservation: completed work is exactly the sum of winning
    // attempts; no double-count from killed siblings.
    assert!(r.work_done_secs > 0.0);
}
