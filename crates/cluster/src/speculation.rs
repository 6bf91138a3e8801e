//! Straggler detection and clone-on-slow mitigation.
//!
//! Jockey's paper treats stragglers as noise the §4.3 controller reacts
//! to after the fact. The task-cloning line of work (Xu & Lau's
//! clone-on-slow with kill-on-first-finish, PCS's argument that the
//! scheduler should *expose* such knobs) makes speculation a first-class
//! control dimension instead. The engine dispatches a periodic
//! `Event::SpeculationTick` to [`watch`], which acts through the
//! [`EngineCore`] mechanics — inspect running attempts, launch clones
//! with [`EngineCore::start_clone`]. Kill-on-first-finish itself lives
//! in the engine's completion mechanics, so the watcher cannot leak
//! sibling attempts.
//!
//! Clone-on-slow is configuration-driven: with no
//! [`SpeculationConfig`](crate::config::SpeculationConfig) in the
//! [`ClusterConfig`](crate::config::ClusterConfig), [`watch_period`] is
//! `None`, no `SpeculationTick` is ever scheduled, and the event stream
//! is bit-identical to the pre-speculation engine.

use jockey_simrt::observe;
use jockey_simrt::observe::EntryKind;
use jockey_simrt::time::{SimDuration, SimTime};

use crate::engine::{attempt_timing, class_multiplier, EngineCore, TokenClass};

/// How often the engine dispatches a watch tick, or `None` to keep
/// speculation entirely out of the event stream. Consulted at prime
/// time and after every tick.
pub(crate) fn watch_period(core: &EngineCore) -> Option<SimDuration> {
    core.config().speculation.as_ref().map(|sp| sp.watch_period)
}

/// One clone-on-slow scan at time `now`, with kill-on-first-finish
/// left to the engine.
///
/// Compares every non-clone running attempt against its *expected
/// occupancy* — the per-stage queue/runtime distribution means pushed
/// through the engine's shared [`attempt_timing`] derivation, so
/// watcher and engine use one formula. An attempt whose elapsed
/// occupancy exceeds `slowdown_threshold` times its expectation gets a
/// clone, provided:
///
/// - the attempt has no live sibling already racing it,
/// - the job runs fewer than `clone_budget` clones,
/// - the cluster has an idle token (clones never displace guaranteed,
///   spare, or background demand — they only soak up slack).
///
/// The clone runs at full speed ([`TokenClass::Clone`]); whichever
/// sibling finishes first wins and the engine kills the rest. The
/// engine runs a scheduling pass after every tick, so a scan is
/// idempotent when nothing changed.
pub(crate) fn watch(core: &mut EngineCore, now: SimTime) {
    let Some(sp) = core.config().speculation.clone() else {
        return;
    };
    let total = core.config().total_tokens;
    core.background_mut().advance_to(now);
    let bg_demand = core.background().demand_tokens(now, total);
    let slowdown = core.background().slowdown(now);
    let spare_slowdown = core.config().spare_slowdown;

    // Tokens the whole cluster currently holds; clones below only
    // ever claim genuinely idle capacity.
    let mut held: u32 = bg_demand;
    for j in 0..core.num_jobs() {
        held += core.job(j).running().len() as u32;
    }

    for j in 0..core.num_jobs() {
        if !core.job(j).is_active() {
            continue;
        }
        let mut clones_running = core.job(j).running_in_class(TokenClass::Clone);
        // Collect straggling tasks first: launching a clone mutates
        // the running list under scan.
        let mut stragglers = Vec::new();
        {
            let job = core.job(j);
            let spec = job.spec();
            for r in job.running() {
                if r.class == TokenClass::Clone {
                    continue;
                }
                // Already racing a sibling? One clone per straggler.
                if job
                    .running()
                    .iter()
                    .any(|o| o.task == r.task && o.attempt != r.attempt)
                {
                    continue;
                }
                let s = r.task.stage.index();
                let (Some(run_mean), Some(queue_mean)) =
                    (spec.stage_runtimes[s].mean(), spec.stage_queues[s].mean())
                else {
                    continue;
                };
                let class_mult = class_multiplier(r.class, spare_slowdown);
                let (eq, er) = attempt_timing(queue_mean, run_mean, slowdown, class_mult, 1.0);
                let expected = eq + er;
                let elapsed = now.saturating_since(r.started).as_secs_f64();
                if expected > 0.0 && elapsed > sp.slowdown_threshold * expected {
                    stragglers.push(r.task);
                }
            }
        }
        for task in stragglers {
            if clones_running >= sp.clone_budget || held >= total {
                break;
            }
            if core.start_clone(j, task, now, slowdown) {
                clones_running += 1;
                held += 1;
                observe!(
                    core.observer,
                    now,
                    EntryKind::Decision,
                    "job {j}: straggler s{}/{} cloned ({clones_running}/{} clone tokens held)",
                    task.stage.index(),
                    task.index,
                    sp.clone_budget
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::config::{ClusterConfig, SpeculationConfig};
    use crate::controller::FixedAllocation;
    use crate::job::JobSpec;
    use crate::sim::ClusterSim;
    use jockey_jobgraph::graph::JobGraphBuilder;
    use jockey_simrt::dist::{Constant, Dist};
    use std::sync::Arc;

    fn straggler_cfg(total: u32, guarantee: u32, budget: u32) -> ClusterConfig {
        let mut cfg = ClusterConfig::dedicated(total);
        cfg.max_guarantee = guarantee;
        cfg.speculation = Some(SpeculationConfig::clone_on_slow(2.0, budget));
        cfg
    }

    /// One stage whose runtime is a mixture: mostly 10 s, occasionally
    /// 600 s — a deterministic straggler factory under a fixed seed.
    fn heavy_tailed_spec(tasks: u32, p_straggle: f64) -> JobSpec {
        let mut b = JobGraphBuilder::new("straggler-job");
        b.stage("map", tasks);
        let graph = Arc::new(b.build().unwrap());
        let runtime = Dist::mixture(Constant(10.0), Constant(600.0), p_straggle);
        JobSpec::new(
            graph.clone(),
            vec![runtime],
            vec![Constant(0.0).into()],
            0.0,
            0.0,
        )
    }

    #[test]
    fn clone_on_slow_is_inert_without_a_config() {
        // With no `cfg.speculation` the watcher never clones.
        let mut sim = ClusterSim::new(ClusterConfig::dedicated(4), 7);
        sim.add_job(heavy_tailed_spec(8, 0.3), Box::new(FixedAllocation(4)));
        let r = sim.run_single();
        assert!(r.completed_at.is_some());
        assert_eq!(r.clone_task_count, 0);
        assert_eq!(r.clone_wins, 0);
    }

    #[test]
    fn clone_on_slow_clones_stragglers_and_wins_races() {
        // 16 tasks, ~30% straggle to 600s against a 10s median; with a
        // 2x threshold and spare headroom the watcher must clone, and
        // with Constant mixtures the clone (re-drawing the mixture) has
        // a 70% shot at 10s per attempt — across several stragglers a
        // win is overwhelmingly likely at this seed.
        let mut sim = ClusterSim::new(straggler_cfg(24, 16, 8), 11);
        sim.add_job(heavy_tailed_spec(16, 0.3), Box::new(FixedAllocation(16)));
        let r = sim.run_single();
        assert!(r.completed_at.is_some(), "job must finish");
        assert!(r.clone_task_count > 0, "stragglers must be cloned");
        assert!(
            r.clone_wins > 0,
            "at least one clone must beat its straggler (got {} clones, {} wins)",
            r.clone_task_count,
            r.clone_wins
        );
        assert!(r.wasted_secs > 0.0, "lost race partials are wasted");
    }

    #[test]
    fn clone_budget_caps_concurrent_clones() {
        // Invariant checks are on in test builds: a budget violation
        // would panic inside the run.
        let mut sim = ClusterSim::new(straggler_cfg(18, 16, 2), 3);
        sim.add_job(heavy_tailed_spec(16, 0.5), Box::new(FixedAllocation(16)));
        let r = sim.run_single();
        assert!(r.completed_at.is_some());
    }

    #[test]
    fn clones_only_soak_idle_tokens() {
        // Guarantee fills the whole cluster: no idle token, no clones,
        // even though every attempt above threshold is a straggler.
        let mut cfg = ClusterConfig::dedicated(16);
        cfg.max_guarantee = 15;
        cfg.speculation = Some(SpeculationConfig::clone_on_slow(2.0, 1));
        let mut sim = ClusterSim::new(cfg, 5);
        sim.add_job(heavy_tailed_spec(16, 0.4), Box::new(FixedAllocation(15)));
        let r = sim.run_single();
        assert!(r.completed_at.is_some());
        // With 15 of 16 tokens guaranteed-held for most of the run, at
        // most one clone can ever be in flight; the budget cap (1) and
        // idle-token gate were both live. Run must not violate token
        // conservation (invariants are on in test builds).
        assert!(r.clone_task_count <= r.guaranteed_task_count);
    }
}
