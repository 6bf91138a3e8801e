//! Task hazards, machine failures, data loss.
//!
//! Failures enter the simulation at three points:
//!
//! 1. every task completion rolls for a per-attempt failure;
//! 2. a Poisson process arms the next machine-failure arrival (and,
//!    under a topology, the next rack-failure arrival);
//! 3. each machine failure kills resident tasks and may destroy
//!    completed outputs (forcing recomputation before a barrier).

use jockey_simrt::dist::{bernoulli, exp_duration};
use jockey_simrt::time::{SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::Rng;

use crate::engine::EngineCore;

/// Jockey's failure model: independent per-attempt task failures, a
/// per-machine-hazard Poisson machine-failure process whose aggregate
/// rate scales with the slice's machine count, and Bernoulli data loss
/// that forces recomputation in incomplete stages.
///
/// The model owns its machine-failure RNG stream; the engine owns
/// *when* each hook is called: [`task_attempt_fails`] on every
/// non-stale completion, [`next_failure_delay`] at prime time and after
/// each machine failure, and [`on_machine_failure`] when the armed
/// arrival fires (likewise for the rack hooks).
///
/// [`task_attempt_fails`]: DefaultFailureModel::task_attempt_fails
/// [`next_failure_delay`]: DefaultFailureModel::next_failure_delay
/// [`on_machine_failure`]: DefaultFailureModel::on_machine_failure
pub(crate) struct DefaultFailureModel {
    rng_machine: StdRng,
}

impl DefaultFailureModel {
    /// Creates the model over its dedicated machine-failure RNG stream.
    pub(crate) fn new(rng_machine: StdRng) -> Self {
        DefaultFailureModel { rng_machine }
    }

    /// Whether this task attempt fails on completion. `prob` is the
    /// configured (or spec-supplied) per-attempt failure probability
    /// for job `job`.
    pub(crate) fn task_attempt_fails(
        &mut self,
        core: &mut EngineCore,
        job: usize,
        prob: f64,
    ) -> bool {
        // Drawn from the job's own failure stream so multi-job runs
        // stay independent of event interleaving across jobs.
        bernoulli(&mut core.jobs[job].rng_fail, prob)
    }

    /// Delay until the next machine failure, or `None` if machine
    /// failures are disabled under the current configuration.
    pub(crate) fn next_failure_delay(&mut self, core: &EngineCore) -> Option<SimDuration> {
        // The configured rate is a per-machine hazard, so the slice's
        // aggregate Poisson rate scales with its machine count — a
        // 4-machine slice fails less often than a 400-machine one at
        // the same per-machine reliability.
        let rate =
            core.cfg.failures.machine_failure_rate_per_hour * f64::from(core.machine_count());
        if rate <= 0.0 {
            return None;
        }
        Some(exp_duration(&mut self.rng_machine, 3600.0 / rate))
    }

    /// Applies one machine failure: kills resident/running tasks and
    /// (possibly) destroys completed outputs via the [`EngineCore`]
    /// mechanics. The engine re-arms the next arrival afterwards.
    pub(crate) fn on_machine_failure(&mut self, core: &mut EngineCore, now: SimTime) {
        // Choose a victim job weighted by running-task count.
        let weights: Vec<u32> = core
            .jobs
            .iter()
            .map(|j| {
                if j.is_active() {
                    j.running().len() as u32
                } else {
                    0
                }
            })
            .collect();
        let total: u32 = weights.iter().sum();
        if total > 0 {
            let mut pick = self.rng_machine.gen_range(0..total);
            let mut victim = 0;
            for (i, w) in weights.iter().enumerate() {
                if pick < *w {
                    victim = i;
                    break;
                }
                pick -= w;
            }
            let tasks_per_machine = core.cfg.failures.tasks_per_machine;
            if let Some(machines) = core.topology().map(|t| t.machine_count()) {
                // Topology model: a concrete machine dies, killing every
                // resident task of every job and (optionally) the input
                // replicas it hosted.
                let machine = self.rng_machine.gen_range(0..machines);
                for j in 0..core.jobs.len() {
                    core.kill_tasks_on_machine(j, machine, now);
                }
                let loss = core.cfg.failures.replica_loss_prob;
                core.destroy_replicas_on_machine(machine, loss, &mut self.rng_machine, now);
            } else {
                core.kill_running_tasks(victim, tasks_per_machine, now);
            }
            if bernoulli(&mut self.rng_machine, core.cfg.failures.data_loss_prob) {
                core.lose_completed_outputs(victim, tasks_per_machine, now);
            }
        }
    }

    /// Delay until the next correlated whole-rack failure, or `None`
    /// when rack failures are disabled.
    pub(crate) fn next_rack_failure_delay(&mut self, core: &EngineCore) -> Option<SimDuration> {
        // Per-rack hazard, aggregated over the topology's rack count —
        // the rack-level analogue of the per-machine scaling above.
        // Without a topology there are no racks and no draw is made, so
        // the legacy machine-failure stream is untouched.
        let racks = core.topology()?.rack_count();
        let rate = core.cfg.failures.rack_failure_rate_per_hour * f64::from(racks);
        if rate <= 0.0 {
            return None;
        }
        Some(exp_duration(&mut self.rng_machine, 3600.0 / rate))
    }

    /// Applies one rack failure: every resident task of every machine
    /// in a uniformly drawn rack dies. No-op without a topology.
    pub(crate) fn on_rack_failure(&mut self, core: &mut EngineCore, now: SimTime) {
        let (machines, loss) = {
            let Some(topo) = core.topology() else {
                return;
            };
            let rack = self.rng_machine.gen_range(0..topo.rack_count());
            (
                topo.machines_in_rack(rack),
                core.cfg.failures.replica_loss_prob,
            )
        };
        // The whole rack goes down at once: every resident task of
        // every machine in it dies, and each hosted replica may be
        // destroyed with it.
        for machine in machines {
            for j in 0..core.jobs.len() {
                core.kill_tasks_on_machine(j, machine, now);
            }
            core.destroy_replicas_on_machine(machine, loss, &mut self.rng_machine, now);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ClusterConfig, FailureConfig};
    use crate::controller::FixedAllocation;
    use crate::engine::Engine;
    use crate::job::JobSpec;
    use jockey_jobgraph::graph::{EdgeKind, JobGraphBuilder};
    use jockey_simrt::dist::Constant;
    use jockey_simrt::rng::SeedDeriver;
    use std::sync::Arc;

    fn engine_with(cfg: ClusterConfig) -> Engine {
        let mut b = JobGraphBuilder::new("fail-test");
        let m = b.stage("map", 6);
        let r = b.stage("reduce", 2);
        b.edge(m, r, EdgeKind::AllToAll);
        let graph = Arc::new(b.build().unwrap());
        let spec = JobSpec::uniform(graph, Constant(10.0), Constant(0.0), 0.0);
        let mut engine = Engine::new(cfg, 1);
        engine
            .core
            .add_job_at(Arc::new(spec), Box::new(FixedAllocation(4)), SimTime::ZERO);
        engine
    }

    #[test]
    fn no_delay_when_machine_failures_disabled() {
        let core = &engine_with(ClusterConfig::dedicated(4)).core;
        let mut model = DefaultFailureModel::new(SeedDeriver::new(7).rng("machine-failures"));
        assert_eq!(model.next_failure_delay(core), None);
    }

    #[test]
    fn delay_is_deterministic_for_a_fixed_stream() {
        let mut cfg = ClusterConfig::dedicated(4);
        cfg.failures = FailureConfig {
            task_failure_prob: Some(0.0),
            machine_failure_rate_per_hour: 1.0,
            tasks_per_machine: 2,
            data_loss_prob: 0.0,
            rack_failure_rate_per_hour: 0.0,
            replica_loss_prob: 0.0,
        };
        let core = &engine_with(cfg).core;
        let delay = |seed| {
            let mut m = DefaultFailureModel::new(SeedDeriver::new(seed).rng("machine-failures"));
            m.next_failure_delay(core).expect("rate is positive")
        };
        assert_eq!(delay(7), delay(7));
        assert!(delay(7) > SimDuration::ZERO);
    }

    #[test]
    fn task_attempt_failure_follows_probability_extremes() {
        let mut engine = engine_with(ClusterConfig::dedicated(4));
        let mut model = DefaultFailureModel::new(SeedDeriver::new(7).rng("machine-failures"));
        assert!(!model.task_attempt_fails(&mut engine.core, 0, 0.0));
        assert!(model.task_attempt_fails(&mut engine.core, 0, 1.0));
    }

    #[test]
    fn no_rack_delay_without_topology() {
        let mut cfg = ClusterConfig::dedicated(4);
        cfg.failures.machine_failure_rate_per_hour = 1.0;
        let core = &engine_with(cfg).core;
        let mut model = DefaultFailureModel::new(SeedDeriver::new(7).rng("machine-failures"));
        assert_eq!(model.next_rack_failure_delay(core), None);
    }

    #[test]
    fn rack_failure_kills_every_resident_task_in_the_rack() {
        use crate::topology::TopologyConfig;
        let mut cfg = ClusterConfig::dedicated(4);
        cfg.topology = Some(TopologyConfig::uniform(2, 4));
        cfg.failures.rack_failure_rate_per_hour = 1.0;
        let mut engine = engine_with(cfg);
        engine.prime();
        let (now, event) = engine.core.queue.pop().unwrap();
        engine.step(now, event, None); // JobStart: 4 tasks running.
        let mut model = DefaultFailureModel::new(SeedDeriver::new(7).rng("machine-failures"));
        assert!(model.next_rack_failure_delay(&engine.core).is_some());

        // Force-kill each rack in turn: afterwards no running task may
        // remain on any of that rack's machines.
        model.on_rack_failure(&mut engine.core, SimTime::from_secs(1));
        let dead_rack: Vec<u32> = {
            // Recover which rack died from the survivors: with two
            // racks, every surviving resident is in the other one.
            let topo = engine.core.topology().unwrap();
            let survivors: Vec<u32> = engine.core.jobs[0]
                .running()
                .iter()
                .filter_map(|r| r.machine)
                .map(|m| topo.rack_of(m))
                .collect();
            (0..topo.rack_count())
                .filter(|r| !survivors.contains(r))
                .collect()
        };
        assert!(!dead_rack.is_empty(), "one rack must have been cleared");
        let job = &engine.core.jobs[0];
        assert!(job.wasted > 0.0 || job.running().len() < 4);
    }

    #[test]
    fn machine_failure_under_topology_destroys_hosted_replicas() {
        use crate::topology::TopologyConfig;
        let mut cfg = ClusterConfig::dedicated(4);
        let mut topo = TopologyConfig::uniform(2, 4);
        topo.data_copies = 1; // Single copy: every loss forces a re-home.
        cfg.topology = Some(topo);
        cfg.failures.machine_failure_rate_per_hour = 1.0;
        cfg.failures.replica_loss_prob = 1.0;
        let mut engine = engine_with(cfg);
        engine.prime();
        let (now, event) = engine.core.queue.pop().unwrap();
        engine.step(now, event, None);
        let before: Vec<Vec<u32>> = engine.core.jobs[0].replicas.clone();
        assert!(!before.is_empty());
        // Fail machines until some replica set changes.
        let mut model = DefaultFailureModel::new(SeedDeriver::new(9).rng("machine-failures"));
        for i in 0..8 {
            model.on_machine_failure(&mut engine.core, SimTime::from_secs(1 + i));
        }
        let after = &engine.core.jobs[0].replicas;
        assert_ne!(&before, after, "replica placement must have churned");
        // Re-replication keeps every split at exactly one live copy.
        assert!(after.iter().all(|split| split.len() == 1));
    }

    /// PR 1 regression, extended to topologies: the configured rate is
    /// a *per-machine* hazard, so doubling the machine count halves the
    /// expected arrival delay — exactly, because the exponential draw
    /// is linear in its mean for a fixed RNG stream. Heterogeneous
    /// classes must not change the accounting: hazard scales with the
    /// machine *count*, not capacity.
    #[test]
    fn per_machine_hazard_scales_with_topology_machine_count() {
        use crate::topology::TopologyConfig;
        let delay_for = |topo: TopologyConfig| {
            let mut cfg = ClusterConfig::dedicated(4);
            cfg.topology = Some(topo);
            cfg.failures.machine_failure_rate_per_hour = 0.01;
            let core = &engine_with(cfg).core;
            let mut model = DefaultFailureModel::new(SeedDeriver::new(21).rng("machine-failures"));
            model.next_failure_delay(core).expect("rate is positive")
        };
        // Heterogeneous rack of 10 (5x1.0 + 3x0.5 + 2x0.25).
        let one_rack = delay_for(TopologyConfig::google_mix(1)).as_secs_f64();
        let two_racks = delay_for(TopologyConfig::google_mix(2)).as_secs_f64();
        let four_racks = delay_for(TopologyConfig::google_mix(4)).as_secs_f64();
        // The exponential draw is linear in its mean for a fixed
        // stream, so the ratios are exact up to ms quantization.
        assert!(
            (one_rack / two_racks - 2.0).abs() < 1e-6,
            "2x machines must halve the first arrival delay ({one_rack} vs {two_racks})"
        );
        assert!((one_rack / four_racks - 4.0).abs() < 1e-6);
        // A homogeneous topology with the same machine count draws the
        // same delay: capacities don't enter the hazard.
        let uniform = delay_for(TopologyConfig::uniform(1, 10)).as_secs_f64();
        assert_eq!(one_rack.to_bits(), uniform.to_bits());
        // And the topology count supersedes the flat-model accounting
        // (tokens / tasks_per_machine): same machine count, same
        // stream, identical aggregate hazard either way.
        let mut flat = ClusterConfig::dedicated(4);
        flat.failures.machine_failure_rate_per_hour = 0.01;
        flat.failures.tasks_per_machine = 2; // implies 2 machines
        let flat_core = &engine_with(flat).core;
        assert_eq!(flat_core.machine_count(), 2);
        let mut cfg = ClusterConfig::dedicated(4);
        let mut two = TopologyConfig::uniform(1, 2);
        two.data_copies = 2; // Only two machines to hold copies.
        cfg.topology = Some(two);
        cfg.failures.machine_failure_rate_per_hour = 0.01;
        let topo_core = &engine_with(cfg).core;
        assert_eq!(topo_core.machine_count(), 2);
        let mut a = DefaultFailureModel::new(SeedDeriver::new(3).rng("machine-failures"));
        let mut b = DefaultFailureModel::new(SeedDeriver::new(3).rng("machine-failures"));
        assert_eq!(
            a.next_failure_delay(flat_core),
            b.next_failure_delay(topo_core)
        );
    }

    #[test]
    fn machine_failure_kills_running_tasks() {
        let mut cfg = ClusterConfig::dedicated(4);
        cfg.failures = FailureConfig {
            task_failure_prob: Some(0.0),
            machine_failure_rate_per_hour: 1.0,
            tasks_per_machine: 2,
            data_loss_prob: 0.0,
            rack_failure_rate_per_hour: 0.0,
            replica_loss_prob: 0.0,
        };
        let mut engine = engine_with(cfg);
        engine.prime();
        let (now, event) = engine.core.queue.pop().unwrap();
        engine.step(now, event, None); // JobStart: 4 tasks running.
        let before = engine.core.jobs[0].running().len();
        assert!(before > 0);
        let mut model = DefaultFailureModel::new(SeedDeriver::new(7).rng("machine-failures"));
        model.on_machine_failure(&mut engine.core, SimTime::from_secs(1));
        let job = &engine.core.jobs[0];
        assert!(job.running().len() < before, "tasks must be killed");
        assert!(job.wasted > 0.0 || job.running().len() + job.ready.len() >= before);
    }
}
