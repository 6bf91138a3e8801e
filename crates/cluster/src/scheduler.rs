//! Token and spare-capacity arbitration.
//!
//! Every event the engine dispatches funnels into one scheduling pass:
//! which ready tasks start, in which token class, and which spare
//! tasks are evicted when background load squeezes capacity.
//! [`WeightedFair`] reproduces Jockey's behavior (guaranteed admission
//! up to each job's guarantee, round-robin spare distribution,
//! newest-first spare eviction).

use jockey_simrt::time::SimTime;

use crate::engine::{EngineCore, TokenClass};

/// Jockey's scheduler: guaranteed admission per job, spare capacity
/// shared round-robin, and newest-first spare eviction under pressure.
///
/// Class balancing per job demotes the newest guaranteed tasks above
/// the guarantee and upgrades the oldest spare tasks into unused
/// guarantee, so in-flight work keeps its sampled completion time while
/// eviction priority tracks the current guarantee.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct WeightedFair;

impl WeightedFair {
    /// One scheduling pass at time `now`. The engine calls it after
    /// every event, so a pass is idempotent when nothing changed.
    pub(crate) fn schedule(&self, core: &mut EngineCore, now: SimTime) {
        core.background.advance_to(now);
        let total = core.cfg.total_tokens;
        let bg_demand = core.background.demand_tokens(now, total);
        let slowdown = core.background.slowdown(now);

        // Phase 1: per-job class balancing and guaranteed starts. Class
        // totals are the job's running counts (kept by the engine as
        // tasks start, stop and change class), so no check here
        // rescans a running list; only picking *which* task to demote
        // or upgrade does.
        for j in 0..core.jobs.len() {
            if !core.jobs[j].is_active() {
                continue;
            }
            let guarantee = core.jobs[j].guarantee;
            {
                let job = &mut core.jobs[j];
                // Demote newest guaranteed tasks above the guarantee.
                while job.running_in_class(TokenClass::Guaranteed) > guarantee {
                    let pos = job
                        .running
                        .iter()
                        .enumerate()
                        .filter(|(_, r)| r.class == TokenClass::Guaranteed)
                        .max_by_key(|(_, r)| r.started)
                        .map(|(i, _)| i)
                        .expect("counted above");
                    job.set_running_class(pos, TokenClass::Spare);
                }
                // Upgrade oldest spare tasks into unused guarantee.
                while job.running_in_class(TokenClass::Guaranteed) < guarantee
                    && job.running_in_class(TokenClass::Spare) > 0
                {
                    let pos = job
                        .running
                        .iter()
                        .enumerate()
                        .filter(|(_, r)| r.class == TokenClass::Spare)
                        .min_by_key(|(_, r)| r.started)
                        .map(|(i, _)| i)
                        .expect("counted above");
                    job.set_running_class(pos, TokenClass::Guaranteed);
                }
            }
            // Start new guaranteed tasks.
            while core.jobs[j].running_in_class(TokenClass::Guaranteed) < guarantee {
                let Some(task) = core.jobs[j].pop_ready() else {
                    break;
                };
                core.start_task(j, task, TokenClass::Guaranteed, now, slowdown);
            }
        }

        // Phase 2: spare capacity accounting from the per-job class
        // counts. Clone-class attempts hold real tokens, so they shrink
        // the spare budget; they are never demoted, upgraded, or
        // evicted here — their lifetime is bounded by
        // kill-on-first-finish.
        let mut guar_running: u32 = 0;
        let mut spare_running: u32 = 0;
        let mut clone_running: u32 = 0;
        for job in &core.jobs {
            guar_running += job.running_in_class(TokenClass::Guaranteed);
            spare_running += job.running_in_class(TokenClass::Spare);
            clone_running += job.running_in_class(TokenClass::Clone);
        }
        let spare_budget = i64::from(total)
            - i64::from(bg_demand)
            - i64::from(guar_running)
            - i64::from(clone_running);

        if i64::from(spare_running) > spare_budget {
            // Evict newest spare tasks first until within budget.
            let mut to_evict = i64::from(spare_running) - spare_budget.max(0);
            while to_evict > 0 {
                // Find the globally newest spare task.
                let mut newest: Option<(usize, usize, SimTime)> = None;
                for (ji, job) in core.jobs.iter().enumerate() {
                    for (ri, r) in job.running.iter().enumerate() {
                        if r.class == TokenClass::Spare
                            && newest.is_none_or(|(_, _, t)| r.started > t)
                        {
                            newest = Some((ji, ri, r.started));
                        }
                    }
                }
                let Some((ji, ri, _)) = newest else { break };
                core.evict_spare(ji, ri, now);
                to_evict -= 1;
            }
        } else if core.cfg.spare_enabled {
            // Distribute spare tokens round-robin among jobs with
            // pending work.
            let mut avail = spare_budget - i64::from(spare_running);
            'outer: while avail > 0 {
                let mut progressed = false;
                for j in 0..core.jobs.len() {
                    if avail == 0 {
                        break 'outer;
                    }
                    if !core.jobs[j].is_active() {
                        continue;
                    }
                    if let Some(task) = core.jobs[j].pop_ready() {
                        core.start_task(j, task, TokenClass::Spare, now, slowdown);
                        avail -= 1;
                        progressed = true;
                    }
                }
                if !progressed {
                    break;
                }
            }
        }

        // Token conservation: foreground tasks plus the background's
        // demand can never exceed the slice (guaranteed starts are
        // admission-bounded; spare starts are budgeted above). Like the
        // guarantee, in-flight clones are not evicted when background
        // demand rises after their launch, so they join the slack term.
        debug_assert!(
            {
                let fg: u32 = core.jobs.iter().map(|j| j.running.len() as u32).sum();
                i64::from(fg) + i64::from(bg_demand)
                    <= i64::from(total) + i64::from(guar_running) + i64::from(clone_running)
            },
            "token over-commit in scheduling pass"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ClusterConfig;
    use crate::controller::FixedAllocation;
    use crate::job::JobSpec;
    use jockey_jobgraph::graph::{EdgeKind, JobGraphBuilder};
    use jockey_simrt::dist::Constant;
    use std::sync::Arc;

    /// Engine with one 8-map/2-reduce job started and its first wave of
    /// guaranteed tasks running.
    fn started_engine(tokens: u32, guarantee: u32) -> crate::engine::Engine {
        let mut b = JobGraphBuilder::new("sched-test");
        let m = b.stage("map", 8);
        let r = b.stage("reduce", 2);
        b.edge(m, r, EdgeKind::AllToAll);
        let graph = Arc::new(b.build().unwrap());
        let spec = JobSpec::uniform(graph, Constant(10.0), Constant(0.0), 0.0);
        let mut cfg = ClusterConfig::dedicated(tokens);
        cfg.max_guarantee = tokens;
        cfg.spare_enabled = true;
        let mut engine = crate::engine::Engine::new(cfg, 1);
        engine.core.add_job_at(
            Arc::new(spec),
            Box::new(FixedAllocation(guarantee)),
            jockey_simrt::time::SimTime::ZERO,
        );
        engine.prime();
        let (now, event) = engine.core.queue.pop().unwrap();
        engine.step(now, event, None); // JobStart → first scheduling pass.
        engine
    }

    #[test]
    fn guaranteed_starts_respect_the_guarantee() {
        let engine = started_engine(8, 3);
        let job = &engine.core.jobs[0];
        assert_eq!(job.running_in_class(TokenClass::Guaranteed), 3);
    }

    #[test]
    fn spare_fills_idle_tokens() {
        let engine = started_engine(8, 3);
        let job = &engine.core.jobs[0];
        // 8 tokens, 3 guaranteed, no background: 5 spare starts.
        assert_eq!(job.running_in_class(TokenClass::Spare), 5);
    }

    #[test]
    fn lowering_the_guarantee_demotes_newest_tasks() {
        let mut engine = started_engine(8, 8);
        engine.core.jobs[0].guarantee = 2;
        WeightedFair.schedule(&mut engine.core, SimTime::from_secs(1));
        let job = &engine.core.jobs[0];
        assert_eq!(job.running_in_class(TokenClass::Guaranteed), 2);
        // Nothing was evicted — demoted tasks keep running as spare.
        assert_eq!(job.running_in_class(TokenClass::Spare), 6);
    }

    #[test]
    fn raising_the_guarantee_upgrades_spare_tasks() {
        let mut engine = started_engine(8, 2);
        assert_eq!(
            engine.core.jobs[0].running_in_class(TokenClass::Spare),
            6,
            "precondition: spare tasks fill the idle tokens"
        );
        engine.core.jobs[0].guarantee = 6;
        WeightedFair.schedule(&mut engine.core, SimTime::from_secs(1));
        let job = &engine.core.jobs[0];
        assert_eq!(job.running_in_class(TokenClass::Guaranteed), 6);
        assert_eq!(job.running_in_class(TokenClass::Spare), 2);
    }
}
