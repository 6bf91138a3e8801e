//! Declarative scenario registry: named cluster environments for the
//! topology-aware evaluation.
//!
//! A [`ScenarioDef`] is a named transformation of the shared base
//! cluster configuration (the §5 experiment slice,
//! [`base_cluster`]). Each scenario turns one hostile phenomenon on —
//! heterogeneous machine classes, locality pressure, correlated rack
//! failures, diurnal background load — and the `hostile` scenario
//! combines them all. Scenarios are runnable by name from
//! `jockey-cli scenario` (via [`run_scenario`]) and swept by the
//! `scenarios` experiment, which retrains `C(p, a)` against each
//! scenario's topology so the controller's percentiles absorb the
//! geometry it will actually run on.

use jockey_cluster::{
    ClusterConfig, ClusterSim, JobController, JobSpec, SpeculationConfig, TopologyConfig,
};
use jockey_core::control::ControlParams;
use jockey_core::cpa::TrainConfig;
use jockey_core::policy::{JockeySetup, Policy};
use jockey_core::progress::ProgressIndicator;
use jockey_simrt::dist::{Dist, Pareto};
use jockey_simrt::time::SimDuration;

use crate::jobs::{self, JobTargets};
use crate::recurring::training_profile;

/// One named scenario: a transformation of the base cluster.
pub struct ScenarioDef {
    /// Stable registry name (`jockey-cli scenario <name>`).
    pub name: &'static str,
    /// Human-readable title.
    pub title: &'static str,
    /// One-line description of what the scenario stresses.
    pub blurb: &'static str,
    /// Applies the scenario to a base configuration.
    pub build: fn(ClusterConfig) -> ClusterConfig,
    /// Optional transformation of the probe job itself — for scenarios
    /// whose phenomenon lives in the *workload* (e.g. heavy-tailed
    /// service times) rather than the cluster. Applied before
    /// profiling, so training sees the shaped job too.
    pub shape: Option<fn(JobSpec) -> JobSpec>,
    /// Whether the `scenarios` experiment sweeps this scenario. The
    /// sweep's committed goldens predate workload-shaped scenarios, so
    /// those opt out and are exercised by their own experiments (the
    /// straggler scenario is swept by `speculation`).
    pub in_sweep: bool,
}

/// The standard five-rack heterogeneous topology scenarios share:
/// 50 machines (5 racks × [5× full-speed + 3× half + 2× quarter]),
/// matching the flat model's 150-token / 3-tasks-per-machine slice so
/// the per-machine failure hazard aggregates identically.
fn five_racks() -> TopologyConfig {
    TopologyConfig::google_mix(5)
}

/// Every registered scenario, in display order. `baseline` is always
/// first and is the identity transformation.
pub const SCENARIOS: &[ScenarioDef] = &[
    ScenarioDef {
        name: "baseline",
        title: "Baseline shared slice",
        blurb: "the unmodified flat-model experiment cluster",
        build: |cfg| cfg,
        shape: None,
        in_sweep: true,
    },
    ScenarioDef {
        name: "hetero-mix",
        title: "Heterogeneous machine classes",
        blurb: "5 racks of mixed-speed machines (1.0/0.5/0.25 capacity)",
        build: |mut cfg| {
            cfg.topology = Some(five_racks());
            cfg
        },
        shape: None,
        in_sweep: true,
    },
    ScenarioDef {
        name: "locality-stress",
        title: "Locality stress",
        blurb: "few replicas, steep off-rack penalties: placement matters",
        build: |mut cfg| {
            let mut topo = TopologyConfig::uniform(5, 10);
            topo.data_copies = 2;
            topo.rack_penalty = 1.25;
            topo.remote_penalty = 2.0;
            cfg.topology = Some(topo);
            cfg
        },
        shape: None,
        in_sweep: true,
    },
    ScenarioDef {
        name: "rack-failure",
        title: "Correlated rack failures",
        blurb: "whole racks fail together and destroy hosted replicas",
        build: |mut cfg| {
            cfg.topology = Some(five_racks());
            cfg.failures.rack_failure_rate_per_hour = 0.05;
            cfg.failures.replica_loss_prob = 0.5;
            cfg
        },
        shape: None,
        in_sweep: true,
    },
    ScenarioDef {
        name: "diurnal",
        title: "Diurnal background load",
        blurb: "background utilization swings ±0.10 on an 8-hour cycle",
        build: |mut cfg| {
            cfg.background.diurnal_amplitude = 0.10;
            cfg.background.diurnal_period = SimDuration::from_mins(8 * 60);
            // Start in the trough so runs climb into the peak.
            cfg.background.diurnal_phase = 0.75;
            cfg
        },
        shape: None,
        in_sweep: true,
    },
    ScenarioDef {
        name: "hostile",
        title: "Hostile cluster",
        blurb: "heterogeneity + rack failures + replica loss + diurnal load",
        build: |mut cfg| {
            cfg.topology = Some(five_racks());
            cfg.failures.rack_failure_rate_per_hour = 0.05;
            cfg.failures.replica_loss_prob = 0.5;
            cfg.background.diurnal_amplitude = 0.10;
            cfg.background.diurnal_period = SimDuration::from_mins(8 * 60);
            cfg.background.diurnal_phase = 0.75;
            cfg
        },
        shape: None,
        in_sweep: true,
    },
    ScenarioDef {
        name: "straggler",
        title: "Heavy-tailed stragglers",
        blurb: "Pareto-inflated task runtimes with clone-on-slow speculation",
        build: |mut cfg| {
            cfg.speculation = Some(SpeculationConfig::clone_on_slow(2.0, 12));
            cfg
        },
        shape: Some(inflate_stragglers),
        in_sweep: false,
    },
];

/// Probability that any one task draws its runtime from the straggler
/// tail instead of the stage's profiled body.
const STRAGGLE_PROB: f64 = 0.08;

/// The straggler scenario's workload shape: every stage's runtime
/// becomes a mixture of its profiled body and a Pareto tail
/// (`alpha = 1.5` keeps the mean finite — a requirement of the
/// speculation machinery — while the far quantiles reach into the
/// thousands of seconds).
fn inflate_stragglers(mut spec: JobSpec) -> JobSpec {
    spec.stage_runtimes = spec
        .stage_runtimes
        .into_iter()
        .map(|body| Dist::mixture(body, Pareto::new(120.0, 1.5), STRAGGLE_PROB))
        .collect();
    spec
}

/// Looks a scenario up by name.
pub fn find(name: &str) -> Option<&'static ScenarioDef> {
    SCENARIOS.iter().find(|s| s.name == name)
}

/// All registered scenario names, in display order.
pub fn names() -> Vec<&'static str> {
    SCENARIOS.iter().map(|s| s.name).collect()
}

/// The shared-cluster configuration the §5 experiments (and every
/// scenario) start from: a heavily utilized slice (≈93% mean
/// utilization) with volatile spare capacity, overload episodes,
/// load-dependent slowdown and machine failures — the §2.3/§2.4
/// variance sources.
pub fn base_cluster() -> ClusterConfig {
    use jockey_cluster::{BackgroundConfig, FailureConfig};
    use jockey_simrt::time::SimTime;
    ClusterConfig {
        topology: None,
        speculation: None,
        total_tokens: 150,
        max_guarantee: 100,
        spare_enabled: true,
        spare_slowdown: 1.4,
        control_period: SimDuration::from_mins(1),
        background: BackgroundConfig {
            enabled: true,
            mean_util: 0.88,
            volatility: 0.04,
            reversion: 0.10,
            overload_rate_per_hour: 0.8,
            overload_duration_mins: 10.0,
            overload_util: 1.0,
            tick: SimDuration::from_secs(30),
            slowdown_knee: 0.85,
            slowdown_slope: 1.5,
            diurnal_amplitude: 0.0,
            diurnal_period: SimDuration::from_mins(24 * 60),
            diurnal_phase: 0.0,
        },
        failures: FailureConfig {
            // Per-machine hazard; the 150-token / 50-machine slice
            // aggregates to about one machine failure per hour.
            task_failure_prob: None,
            machine_failure_rate_per_hour: 1.0 / 50.0,
            tasks_per_machine: 3,
            data_loss_prob: 0.5,
            rack_failure_rate_per_hour: 0.0,
            replica_loss_prob: 0.0,
        },
        max_sim_time: SimTime::from_mins(12 * 60),
    }
}

/// Aggregate outcome of [`run_scenario`].
#[derive(Clone, Debug, PartialEq)]
pub struct ScenarioReport {
    /// Scenario name.
    pub scenario: &'static str,
    /// Runs executed.
    pub runs: usize,
    /// Runs that met their SLO deadline.
    pub met: usize,
    /// Mean `duration / deadline` across runs (censored at the
    /// horizon for incomplete runs).
    pub mean_rel_deadline: f64,
    /// Mean end-to-end latency in minutes.
    pub mean_latency_mins: f64,
    /// Mean of the per-run median applied guarantee.
    pub mean_median_alloc: f64,
    /// The SLO deadline the runs were controlled against.
    pub deadline: SimDuration,
}

/// The probe job [`run_scenario`] trains and controls: a mid-sized
/// recurring job in the Table 2 style.
fn probe_targets() -> JobTargets {
    JobTargets {
        name: "scenario-probe",
        stages: 7,
        barriers: 2,
        vertices: 200,
        runtime_median: 5.0,
        runtime_p90: 12.0,
        p90_fastest: 2.0,
        p90_slowest: 30.0,
        data_gb: 12.0,
    }
}

/// Runs one scenario end to end, self-contained: generates the probe
/// job, trains `C(p, a)` *against the scenario's topology*, derives an
/// SLO deadline from the model, and executes `runs` Jockey-controlled
/// runs in the scenario cluster. Deterministic in `seed`.
///
/// # Panics
///
/// Panics if the scenario's cluster configuration fails validation.
pub fn run_scenario(def: &ScenarioDef, seed: u64, runs: usize) -> ScenarioReport {
    let cluster = (def.build)(base_cluster());
    if let Err(e) = cluster.validate() {
        panic!("scenario {} produced an invalid cluster: {e}", def.name);
    }

    let gen = jobs::generate(probe_targets(), seed);
    let spec = match def.shape {
        Some(shape) => shape(gen.spec.clone()),
        None => gen.spec.clone(),
    };
    let profile = training_profile(&spec, 80, seed ^ 0xa5);
    let mut train_cfg = TrainConfig::fast(vec![1, 5, 10, 20, 40, 100]);
    // Train on the same geometry the evaluation runs on, so the
    // model's percentiles absorb locality penalties and slow classes —
    // and under the same cloning policy, so `C(p, a, s)` prices the
    // tail the speculative engine actually produces.
    train_cfg.topology = cluster.topology.clone();
    train_cfg.speculation = cluster.speculation.clone();
    let setup = JockeySetup::train(
        gen.graph.clone(),
        profile,
        ProgressIndicator::TotalWorkWithQ,
        &train_cfg,
        seed ^ 0x5ce0_7210,
    );
    // Deadline policy mirrors the experiment environment: a loose
    // multiple of the model's p90 latency at the full budget.
    let p90_at_max = setup.cpa.remaining_percentile(0.0, setup.max_tokens, 90.0);
    let deadline_mins = (p90_at_max * 2.6 / 60.0).ceil().max(5.0);
    let deadline = SimDuration::from_mins(deadline_mins as u64);

    let mut met = 0;
    let mut rel_sum = 0.0;
    let mut latency_sum = 0.0;
    let mut alloc_sum = 0.0;
    for run in 0..runs {
        let mut sim = ClusterSim::new(cluster.clone(), seed ^ ((run as u64) << 8) ^ 0x5ce0);
        let controller: Box<dyn JobController> =
            setup.controller(Policy::Jockey, deadline, ControlParams::default());
        sim.add_job(spec.clone(), controller);
        let result = sim.run_single();
        let duration = result.duration().unwrap_or_else(|| {
            cluster
                .max_sim_time
                .saturating_since(jockey_simrt::time::SimTime::ZERO)
        });
        let rel = duration.as_secs_f64() / deadline.as_secs_f64();
        if result.completed_at.is_some() && rel <= 1.0 {
            met += 1;
        }
        rel_sum += rel;
        latency_sum += duration.as_minutes_f64();
        alloc_sum += result.trace.median_guarantee();
    }
    ScenarioReport {
        scenario: def.name,
        runs,
        met,
        mean_rel_deadline: rel_sum / runs.max(1) as f64,
        mean_latency_mins: latency_sum / runs.max(1) as f64,
        mean_median_alloc: alloc_sum / runs.max(1) as f64,
        deadline,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_covers_the_required_scenarios() {
        let names = names();
        assert!(names.len() >= 5, "need at least five scenarios");
        for required in [
            "baseline",
            "hetero-mix",
            "locality-stress",
            "rack-failure",
            "diurnal",
            "hostile",
            "straggler",
        ] {
            assert!(names.contains(&required), "missing scenario {required}");
        }
        let mut deduped = names.clone();
        deduped.sort_unstable();
        deduped.dedup();
        assert_eq!(deduped.len(), names.len(), "duplicate scenario names");
    }

    #[test]
    fn every_scenario_builds_a_valid_cluster() {
        for def in SCENARIOS {
            let cfg = (def.build)(base_cluster());
            assert_eq!(cfg.validate(), Ok(()), "scenario {}", def.name);
        }
    }

    #[test]
    fn baseline_is_the_identity_transformation() {
        let base = base_cluster();
        let built = (find("baseline").unwrap().build)(base_cluster());
        assert_eq!(built, base);
        assert!(built.topology.is_none());
    }

    #[test]
    fn topology_scenarios_match_the_flat_machine_count() {
        // The five-rack mix keeps the aggregate machine-failure hazard
        // of the flat 150-token / 3-tasks-per-machine slice.
        let topo = five_racks();
        assert_eq!(topo.machine_count(), 150 / 3);
    }

    #[test]
    fn run_scenario_is_deterministic_and_reports_sane_numbers() {
        let def = find("baseline").unwrap();
        let a = run_scenario(def, 7, 2);
        let b = run_scenario(def, 7, 2);
        assert_eq!(a, b);
        assert_eq!(a.runs, 2);
        assert!(a.met <= a.runs);
        assert!(a.mean_latency_mins > 0.0);
        assert!(a.deadline >= SimDuration::from_mins(5));
    }

    #[test]
    fn hostile_scenario_runs_with_topology_trained_model() {
        let def = find("hostile").unwrap();
        let r = run_scenario(def, 11, 1);
        assert_eq!(r.runs, 1);
        assert!(r.mean_rel_deadline > 0.0);
    }

    #[test]
    fn straggler_scenario_shapes_the_workload_and_enables_cloning() {
        let def = find("straggler").unwrap();
        assert!(
            !def.in_sweep,
            "straggler must stay out of the scenarios sweep"
        );
        let cfg = (def.build)(base_cluster());
        let sp = cfg.speculation.expect("straggler turns speculation on");
        assert!(sp.slowdown_threshold > 1.0);
        let gen = jobs::generate(probe_targets(), 3);
        let shaped = (def.shape.unwrap())(gen.spec.clone());
        for (i, (body, shaped)) in gen
            .spec
            .stage_runtimes
            .iter()
            .zip(&shaped.stage_runtimes)
            .enumerate()
        {
            let (bm, sm) = (body.mean().unwrap(), shaped.mean().unwrap());
            assert!(sm.is_finite(), "stage {i} shaped mean must stay finite");
            assert!(sm > bm, "stage {i}: the Pareto tail must inflate the mean");
        }
    }

    #[test]
    fn straggler_scenario_runs_with_speculation_trained_model() {
        let def = find("straggler").unwrap();
        let r = run_scenario(def, 13, 1);
        assert_eq!(r.runs, 1);
        assert!(r.mean_rel_deadline > 0.0);
    }

    #[test]
    fn exactly_the_workload_shaped_scenarios_opt_out_of_the_sweep() {
        let out: Vec<_> = SCENARIOS
            .iter()
            .filter(|s| !s.in_sweep)
            .map(|s| s.name)
            .collect();
        assert_eq!(out, ["straggler"]);
    }
}
