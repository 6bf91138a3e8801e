//! The evaluation fleet and single SLO runs, rebuilt from public
//! functions so that every layer call can be timed from outside.
//!
//! Everything here mirrors the library's own paths step for step
//! (`Env::build`'s per-job profiles and training seeds,
//! `experiments::slo::run_slo_with`,
//! `JockeySetup::controller_with_indicator`). Untraced passes call the
//! library itself; traced passes run the mirrors, whose outcomes must
//! digest exactly like the library's (checked on every traced pass and
//! by the tests).

use std::sync::Arc;

use jockey_cluster::{
    ClusterConfig, ClusterSim, JobController, JobResult, JobSpec, RunHooks, SimWorkspace,
};
use jockey_core::control::{ControlParams, JockeyController};
use jockey_core::cpa::TrainConfig;
use jockey_core::oracle::oracle_allocation;
use jockey_core::policy::{JockeySetup, Policy};
use jockey_core::predict::{AmdahlModel, CompletionModel};
use jockey_core::progress::ProgressIndicator;
use jockey_core::utility::UtilityFunction;
use jockey_experiments::slo::SloOutcome;
use jockey_jobgraph::profile::JobProfile;
use jockey_simrt::dist::Dist;
use jockey_simrt::time::{SimDuration, SimTime};
use jockey_workloads::jobs::{self, GeneratedJob};
use jockey_workloads::recurring::training_profile;

use crate::measure::Digest;
use crate::tracer::{TracedController, TracedModel, Tracer};

/// Seed of the job catalogue: the 21 recurring jobs (Table 2's A–G
/// plus 14 synthetic) and the production run each one's model trains
/// from. A recurring job is the same job on every run, so the catalogue
/// is fixed and `--seed` drives every simulation a pass runs. 42 is the
/// repository's default seed: the catalogue is the one
/// `Env::build(Scale::Full, 42)` builds.
pub const CATALOGUE_SEED: u64 = 42;

/// Number of Table 2 jobs at the head of the catalogue.
pub const DETAILED: usize = 7;

/// Synthetic recurring jobs after the Table 2 jobs.
const SYNTHETIC: usize = 14;

/// Tokens of each job's training ("production") run (as in `env.rs`).
const TRAINING_TOKENS: u32 = 80;

/// The first `n` catalogue jobs (detailed jobs first).
pub fn catalogue(n: usize) -> Vec<GeneratedJob> {
    let mut v = jobs::paper_jobs(CATALOGUE_SEED);
    v.extend(jobs::synthetic_recurring_jobs(
        SYNTHETIC,
        CATALOGUE_SEED ^ 0xabcd,
    ));
    v.truncate(n);
    v
}

/// Total catalogue size.
pub const FLEET: usize = DETAILED + SYNTHETIC;

/// Job `i`'s training profile at `seed`.
pub fn profile(gen: &GeneratedJob, i: usize, seed: u64) -> JobProfile {
    training_profile(&gen.spec, TRAINING_TOKENS, seed ^ ((i as u64) << 8))
}

/// Job `i`'s C(p, a) training seed at `seed`.
pub fn train_seed(i: usize, seed: u64) -> u64 {
    seed ^ 0x1234_5678_9abc_def0 ^ ((i as u64) << 16)
}

/// One `JockeySetup::train` call at the full-scale configuration.
pub fn train(
    gen: &GeneratedJob,
    profile: &JobProfile,
    cfg: &TrainConfig,
    seed: u64,
) -> JockeySetup {
    JockeySetup::train(
        gen.graph.clone(),
        profile.clone(),
        ProgressIndicator::TotalWorkWithQ,
        cfg,
        seed,
    )
}

/// Digest of a trained model: its fresh-latency curve over every
/// allocation, a mid-run query per grid allocation, and its sample
/// count.
pub fn model_digest(d: &mut Digest, setup: &JockeySetup) {
    let cpa = &setup.cpa;
    for a in 1..=cpa.max_allocation() {
        d.float(cpa.fresh_latency(a));
    }
    for &a in cpa.allocations() {
        d.float(cpa.remaining(0.5, a));
    }
    d.word(cpa.sample_count() as u64);
}

/// The controller `policy` runs with, as `controller_with_indicator`
/// builds it; with a tracer, the model and the controller are wrapped.
pub fn controller(
    setup: &JockeySetup,
    policy: Policy,
    deadline: SimDuration,
    tracer: Option<&Arc<Tracer>>,
) -> Box<dyn JobController> {
    let params = ControlParams::default();
    let Some(tracer) = tracer else {
        return setup.controller(policy, deadline, params);
    };
    let adaptive = |model: Arc<dyn CompletionModel>| -> Box<dyn JobController> {
        Box::new(JockeyController::new(
            Arc::new(TracedModel::new(model, tracer.clone())),
            setup.indicator_context(),
            UtilityFunction::deadline(deadline),
            params,
        ))
    };
    let inner = match policy {
        Policy::Jockey => adaptive(setup.cpa.clone()),
        Policy::JockeyNoSim => adaptive(Arc::new(AmdahlModel::new(
            &setup.graph,
            &setup.profile,
            setup.max_tokens,
        ))),
        Policy::JockeyNoAdapt | Policy::MaxAllocation => setup.controller(policy, deadline, params),
    };
    Box::new(TracedController::new(inner, tracer.clone()))
}

/// Runs one job to completion (or the horizon) in `cluster`, inside a
/// `cluster.run` span when tracing.
pub fn simulate(
    cluster: ClusterConfig,
    seed: u64,
    spec: JobSpec,
    controller: Box<dyn JobController>,
    ws: &mut SimWorkspace,
    trace: Option<(&Arc<Tracer>, u32)>,
) -> JobResult {
    let mut sim = ClusterSim::with_workspace(cluster, seed, ws);
    sim.add_job(spec, controller);
    let run = |ws: &mut SimWorkspace| {
        sim.run_single_hooked(RunHooks {
            sink: None,
            reclaim: Some(ws),
        })
    };
    match trace {
        None => run(ws),
        Some((t, parent)) => t.span("cluster.run", Some(parent), |_| run(ws)),
    }
}

/// What the engine did in one run.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Work {
    /// Tasks on guaranteed tokens.
    pub guaranteed_tasks: u64,
    /// Tasks on spare tokens.
    pub spare_tasks: u64,
    /// Clone attempts launched.
    pub clone_tasks: u64,
    /// Races a clone won.
    pub clone_wins: u64,
    /// Completed work, task-seconds.
    pub work_done_secs: f64,
    /// Work of killed attempts (failures, losing clones), task-seconds.
    pub wasted_secs: f64,
}

impl Work {
    /// The engine counters of `r`.
    pub fn of(r: &JobResult) -> Self {
        Work {
            guaranteed_tasks: r.guaranteed_task_count,
            spare_tasks: r.spare_task_count,
            clone_tasks: r.clone_task_count,
            clone_wins: r.clone_wins,
            work_done_secs: r.work_done_secs,
            wasted_secs: r.wasted_secs,
        }
    }

    /// Task attempts the engine scheduled.
    pub fn tasks(&self) -> u64 {
        self.guaranteed_tasks + self.spare_tasks + self.clone_tasks
    }
}

/// What one SLO-controlled run produced.
#[derive(Clone, Debug, PartialEq)]
pub struct RunOutcome {
    /// Policy that ran.
    pub policy: Policy,
    /// Finished within the simulation horizon.
    pub completed: bool,
    /// Finished within the deadline.
    pub met: bool,
    /// Latency in seconds (the horizon if incomplete).
    pub duration_secs: f64,
    /// Fraction of the requested allocation above the oracle.
    pub frac_above_oracle: f64,
    /// Engine counters.
    pub work: Work,
}

impl RunOutcome {
    /// The library's outcome of a run. `SloOutcome` carries no clone
    /// or wasted-work counters; they read 0.
    pub fn of_library(o: &SloOutcome) -> Self {
        RunOutcome {
            policy: o.policy,
            completed: o.completed,
            met: o.met,
            duration_secs: o.duration.as_secs_f64(),
            frac_above_oracle: o.frac_above_oracle,
            work: Work {
                guaranteed_tasks: o.guaranteed_tasks,
                spare_tasks: o.spare_tasks,
                work_done_secs: o.work_done_secs,
                ..Work::default()
            },
        }
    }

    /// Folds the simulated outcome into `d`: every field the library's
    /// `SloOutcome` reports as well, so that a pass through the library
    /// and a traced pass through the mirror digest alike.
    pub fn digest(&self, d: &mut Digest) {
        d.word(u64::from(self.completed) | u64::from(self.met) << 1);
        d.float(self.duration_secs);
        d.float(self.frac_above_oracle);
        d.word(self.work.guaranteed_tasks);
        d.word(self.work.spare_tasks);
        d.float(self.work.work_done_secs);
    }
}

/// One SLO run request: `run_slo_with` for a standard configuration
/// (default control parameters, optional input-size factor).
pub struct SloRun<'a> {
    /// The job as it runs.
    pub spec: &'a JobSpec,
    /// Its trained artifacts.
    pub setup: &'a JockeySetup,
    /// Policy in control.
    pub policy: Policy,
    /// SLO deadline.
    pub deadline: SimDuration,
    /// Input-size factor (1.0 = training size).
    pub work_scale: f64,
    /// Cluster the job shares.
    pub cluster: &'a ClusterConfig,
    /// Run seed.
    pub seed: u64,
}

/// Executes `r` and extracts the §5.1 metrics, as `run_slo_with` does.
pub fn run_slo(
    r: &SloRun<'_>,
    ws: &mut SimWorkspace,
    trace: Option<(&Arc<Tracer>, u32)>,
) -> RunOutcome {
    let base = r.spec;
    let runtimes: Vec<Dist> = base
        .stage_runtimes
        .iter()
        .map(|d| {
            if r.work_scale == 1.0 {
                d.clone()
            } else {
                Dist::scaled(d.clone(), r.work_scale)
            }
        })
        .collect();
    let spec = JobSpec::new(
        base.graph.clone(),
        runtimes,
        base.stage_queues.clone(),
        base.task_failure_prob,
        base.data_gb * r.work_scale,
    );
    let ctl = controller(r.setup, r.policy, r.deadline, trace.map(|(t, _)| t));
    let mut cluster = r.cluster.clone();
    cluster.control_period = SimDuration::from_mins(1);
    let result = simulate(cluster, r.seed, spec, ctl, ws, trace);
    outcome(r.policy, &result, r.deadline, r.cluster)
}

/// The §5.1 metrics of a finished run; incomplete runs are censored
/// at the horizon.
pub fn outcome(
    policy: Policy,
    result: &JobResult,
    deadline: SimDuration,
    cluster: &ClusterConfig,
) -> RunOutcome {
    let completed = result.completed_at.is_some();
    let end = result
        .completed_at
        .unwrap_or(result.started_at + cluster.max_sim_time.saturating_since(SimTime::ZERO));
    let duration = end.saturating_since(result.started_at);
    let rel = duration.as_secs_f64() / deadline.as_secs_f64();
    let oracle = oracle_allocation(result.work_done_secs, deadline);
    RunOutcome {
        policy,
        completed,
        met: completed && rel <= 1.0,
        duration_secs: duration.as_secs_f64(),
        frac_above_oracle: result.trace.fraction_above_oracle(end, oracle),
        work: Work::of(result),
    }
}

/// Correctness of one SLO run: it completed with positive work, or it
/// was censored at the horizon.
pub fn run_ok(o: &RunOutcome, cluster: &ClusterConfig) -> bool {
    let horizon = cluster
        .max_sim_time
        .saturating_since(SimTime::ZERO)
        .as_secs_f64();
    let sane = o.duration_secs.is_finite() && o.frac_above_oracle.is_finite();
    sane && if o.completed {
        o.work.work_done_secs > 0.0 && o.duration_secs > 0.0
    } else {
        o.duration_secs >= horizon && !o.met
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use jockey_experiments::env::{Env, EvalJob, Scale};
    use jockey_experiments::slo::{run_slo_with, SloConfig};

    /// One Table 2 job on a cheap training grid at full-scale repeats,
    /// so the mirror checks run in seconds.
    pub(crate) fn one_job_env(seed: u64) -> Env {
        let gen = catalogue(1).remove(0);
        let profile = profile(&gen, 0, seed);
        let cfg = TrainConfig::fast(vec![1, 5, 10, 20, 40, 100]);
        let setup = train(&gen, &profile, &cfg, train_seed(0, seed));
        let deadline = SimDuration::from_mins(40);
        Env {
            scale: Scale::Full,
            seed,
            jobs: vec![EvalJob {
                gen,
                profile,
                setup,
                deadline,
                detailed: true,
            }],
            cache_hits: 0,
        }
    }

    #[test]
    fn run_slo_mirrors_the_library_with_and_without_tracing() {
        let env = one_job_env(3);
        let job = &env.jobs[0];
        let cluster = env.experiment_cluster();
        let tracer = Arc::new(Tracer::default());
        let mut ws = SimWorkspace::new();
        for (k, policy) in Policy::ALL.into_iter().enumerate() {
            let seed = 100 + k as u64;
            let mut cfg = SloConfig::standard(policy, job.deadline, cluster.clone(), seed);
            cfg.work_scale = 1.1;
            let lib = run_slo_with(job, &cfg, &mut ws);
            let req = SloRun {
                spec: &job.gen.spec,
                setup: &job.setup,
                policy,
                deadline: job.deadline,
                work_scale: 1.1,
                cluster: &cluster,
                seed,
            };
            let traced = tracer.span("pass", None, |root| {
                run_slo(&req, &mut ws, Some((&tracer, root)))
            });
            let plain = run_slo(&req, &mut ws, None);
            for o in [&plain, &traced] {
                assert_eq!(o.met, lib.met, "{policy:?}");
                assert_eq!(o.completed, lib.completed);
                assert_eq!(o.duration_secs, lib.duration.as_secs_f64());
                assert_eq!(o.work.work_done_secs, lib.work_done_secs);
                assert_eq!(
                    o.frac_above_oracle.to_bits(),
                    lib.frac_above_oracle.to_bits()
                );
                assert_eq!(o.work.spare_tasks, lib.spare_tasks);
                assert!(run_ok(o, &cluster));
            }
            let mut digests = [Digest::default(); 3];
            plain.digest(&mut digests[0]);
            traced.digest(&mut digests[1]);
            RunOutcome::of_library(&lib).digest(&mut digests[2]);
            assert_eq!(
                digests[0], digests[1],
                "{policy:?}: tracing changed the outcome"
            );
            assert_eq!(
                digests[0], digests[2],
                "{policy:?}: the mirror left the library"
            );
            assert_eq!(plain, traced);
        }
        assert!(tracer.control_tick.count() > 0);
        assert!(tracer.model_query.count() > 0);
        assert_eq!(tracer.span_secs("cluster.run").len(), 4);
    }
}
