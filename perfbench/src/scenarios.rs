//! `scenarios`: the topology scenario sweep with per-topology
//! retraining of the Table 2 jobs (`figures::scenarios::sweep`), plus
//! the straggler scenario's clone-on-slow runs
//! (`scenario::run_scenario`). It covers `cluster::topology`,
//! `cluster::speculation` and the training path they force, which the
//! flat workloads never reach.
//!
//! Untraced passes call those two library functions. Traced passes run
//! the mirrors below, which rebuild them from public calls so every
//! training call, run, tick and query can be timed; their outcomes must
//! digest exactly like the library's.

use std::sync::Arc;
use std::time::Instant;

use jockey_cluster::{ClusterConfig, JobResult, JobSpec, SimWorkspace, TopologyConfig};
use jockey_core::cpa::TrainConfig;
use jockey_core::policy::{JockeySetup, Policy};
use jockey_experiments::env::{Env, Scale};
use jockey_experiments::figures::scenarios::sweep;
use jockey_experiments::par::{parallel_map, parallel_map_with};
use jockey_jobgraph::profile::JobProfile;
use jockey_simrt::stats::{mean, percentile};
use jockey_simrt::time::{SimDuration, SimTime};
use jockey_workloads::jobs::{self, GeneratedJob, JobTargets};
use jockey_workloads::recurring::training_profile;
use jockey_workloads::scenario::{self, ScenarioDef, ScenarioReport, SCENARIOS};

use crate::fleet::{self, RunOutcome, SloRun, Work};
use crate::measure::{median, ratio, secs_since, Digest, Metrics};
use crate::slo::run_layers;
use crate::tracer::{in_pass, Tracer};
use crate::{Pass, Workload};

/// Seed salt of the scenario sweep (as in `figures::scenarios`).
const SALT: u64 = 0x5ce0;

/// Repeats per (scenario, job) cell, as at full scale.
const REPEATS: usize = 3;

/// Clone-on-slow runs of the straggler scenario per pass.
const STRAGGLER_RUNS: usize = 12;

/// One training call, inside a `cpa.train` span when tracing.
fn train(
    trace: Option<(&Arc<Tracer>, u32)>,
    gen: &GeneratedJob,
    profile: &JobProfile,
    cfg: &TrainConfig,
    seed: u64,
) -> JockeySetup {
    match trace {
        None => fleet::train(gen, profile, cfg, seed),
        Some((tr, root)) => tr.span("cpa.train", Some(root), |_| {
            fleet::train(gen, profile, cfg, seed)
        }),
    }
}

/// The swept scenarios' clusters and distinct topologies, as
/// `figures::scenarios::sweep` derives them from `env`.
struct Sweep {
    clusters: Vec<ClusterConfig>,
    topologies: Vec<TopologyConfig>,
    cfg: TrainConfig,
}

/// What one traced pass's mirror produced.
struct Mirrored {
    runs: Vec<RunOutcome>,
    models: usize,
    train_secs: f64,
    run_secs: f64,
}

impl Sweep {
    fn new(env: &Env) -> Self {
        let base = env.experiment_cluster();
        let clusters: Vec<ClusterConfig> = SCENARIOS
            .iter()
            .filter(|s| s.in_sweep)
            .map(|s| (s.build)(base.clone()))
            .collect();
        let mut topologies: Vec<TopologyConfig> = Vec::new();
        for t in clusters.iter().filter_map(|c| c.topology.as_ref()) {
            if !topologies.contains(t) {
                topologies.push(t.clone());
            }
        }
        Sweep {
            clusters,
            topologies,
            cfg: env.scale.train_config(),
        }
    }

    /// The mirror of `figures::scenarios::sweep(env)`: retrains C(p, a)
    /// per (topology, Table 2 job), in parallel, then runs every
    /// (scenario, job, repeat) cell across every core.
    fn run(&self, env: &Env, trace: Option<(&Arc<Tracer>, u32)>) -> Mirrored {
        let seed = env.seed;
        let detailed = env.detailed();
        let t = Instant::now();
        let grid: Vec<(usize, usize)> = (0..self.topologies.len())
            .flat_map(|gi| (0..detailed.len()).map(move |ji| (gi, ji)))
            .collect();
        let retrained: Vec<JockeySetup> = parallel_map(grid, |(gi, ji)| {
            let mut cfg = self.cfg.clone();
            cfg.topology = Some(self.topologies[gi].clone());
            let job = detailed[ji];
            let s = seed ^ SALT ^ ((gi as u64) << 40) ^ ((ji as u64) << 16);
            train(trace, &job.gen, &job.profile, &cfg, s)
        });
        let train_secs = secs_since(t);

        let t = Instant::now();
        let mut items = Vec::new();
        for si in 0..self.clusters.len() {
            for ji in 0..detailed.len() {
                for rep in 0..REPEATS {
                    items.push((si, ji, rep));
                }
            }
        }
        let runs = parallel_map_with(items, SimWorkspace::new, |ws, (si, ji, rep)| {
            let cluster = &self.clusters[si];
            let job = detailed[ji];
            let setup = match &cluster.topology {
                None => &job.setup,
                Some(top) => {
                    let gi = self
                        .topologies
                        .iter()
                        .position(|g| g == top)
                        .expect("collected");
                    &retrained[gi * detailed.len() + ji]
                }
            };
            let req = SloRun {
                spec: &job.gen.spec,
                setup,
                policy: Policy::Jockey,
                deadline: job.deadline,
                work_scale: 1.0,
                cluster,
                seed: seed ^ ((si as u64) << 28) ^ ((ji as u64) << 12) ^ (rep as u64) ^ SALT,
            };
            fleet::run_slo(&req, ws, trace)
        });
        Mirrored {
            runs,
            models: retrained.len(),
            train_secs,
            run_secs: secs_since(t),
        }
    }

    /// The cluster run `i` of a pass's swept outcomes ran in.
    fn cluster_of(&self, i: usize, jobs: usize) -> &ClusterConfig {
        &self.clusters[i / (jobs * REPEATS)]
    }
}

/// The straggler scenario's probe job (as `scenario::run_scenario`).
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

/// The mirror of `scenario::run_scenario(straggler, seed, runs)`: the
/// shaped probe job, its clone-on-slow cluster and its training grid.
struct Straggler {
    def: &'static ScenarioDef,
    seed: u64,
    gen: GeneratedJob,
    spec: JobSpec,
    profile: JobProfile,
    cluster: ClusterConfig,
    cfg: TrainConfig,
}

impl Straggler {
    fn new(seed: u64) -> Self {
        let def = scenario::find("straggler").expect("straggler scenario is registered");
        let cluster = (def.build)(scenario::base_cluster());
        let gen = jobs::generate(probe_targets(), seed);
        let spec = def.shape.expect("straggler shapes its workload")(gen.spec.clone());
        let profile = training_profile(&spec, 80, seed ^ 0xa5);
        let mut cfg = TrainConfig::fast(vec![1, 5, 10, 20, 40, 100]);
        cfg.topology = cluster.topology.clone();
        cfg.speculation = cluster.speculation.clone();
        Straggler {
            def,
            seed,
            gen,
            spec,
            profile,
            cluster,
            cfg,
        }
    }

    /// Trains the probe's model, then runs `runs` jobs one after
    /// another; returns the library's report and every run's outcome.
    fn run(
        &self,
        runs: usize,
        trace: Option<(&Arc<Tracer>, u32)>,
    ) -> (ScenarioReport, Vec<RunOutcome>) {
        let seed = self.seed;
        let probe = train(
            trace,
            &self.gen,
            &self.profile,
            &self.cfg,
            seed ^ 0x5ce0_7210,
        );
        let p90 = probe.cpa.remaining_percentile(0.0, probe.max_tokens, 90.0);
        let deadline = SimDuration::from_mins((p90 * 2.6 / 60.0).ceil().max(5.0) as u64);
        let mut ws = SimWorkspace::new();
        let results: Vec<JobResult> = (0..runs)
            .map(|run| {
                let ctl =
                    fleet::controller(&probe, Policy::Jockey, deadline, trace.map(|(t, _)| t));
                let s = seed ^ ((run as u64) << 8) ^ 0x5ce0;
                fleet::simulate(
                    self.cluster.clone(),
                    s,
                    self.spec.clone(),
                    ctl,
                    &mut ws,
                    trace,
                )
            })
            .collect();
        let report = self.report(&results, deadline);
        let outcomes = results
            .iter()
            .map(|r| fleet::outcome(Policy::Jockey, r, deadline, &self.cluster))
            .collect();
        (report, outcomes)
    }

    /// The aggregates `run_scenario` reports, computed as it does.
    fn report(&self, results: &[JobResult], deadline: SimDuration) -> ScenarioReport {
        let horizon = self.cluster.max_sim_time.saturating_since(SimTime::ZERO);
        let (mut met, mut rel_sum, mut latency_sum, mut alloc_sum) = (0, 0.0, 0.0, 0.0);
        for r in results {
            let duration = r.duration().unwrap_or(horizon);
            let rel = duration.as_secs_f64() / deadline.as_secs_f64();
            if r.completed_at.is_some() && rel <= 1.0 {
                met += 1;
            }
            rel_sum += rel;
            latency_sum += duration.as_minutes_f64();
            alloc_sum += r.trace.median_guarantee();
        }
        let n = results.len().max(1) as f64;
        ScenarioReport {
            scenario: self.def.name,
            runs: results.len(),
            met,
            mean_rel_deadline: rel_sum / n,
            mean_latency_mins: latency_sum / n,
            mean_median_alloc: alloc_sum / n,
            deadline,
        }
    }
}

/// Folds a straggler report into `d`.
fn report_digest(d: &mut Digest, r: &ScenarioReport) {
    d.word(r.runs as u64);
    d.word(r.met as u64);
    d.float(r.mean_rel_deadline);
    d.float(r.mean_latency_mins);
    d.float(r.mean_median_alloc);
    d.word(r.deadline.as_millis());
}

/// Correctness of a straggler report: every run counted, and finite,
/// positive means.
fn report_ok(r: &ScenarioReport) -> bool {
    r.runs == STRAGGLER_RUNS
        && r.met <= r.runs
        && [
            r.mean_rel_deadline,
            r.mean_latency_mins,
            r.mean_median_alloc,
        ]
        .iter()
        .all(|x| x.is_finite() && *x > 0.0)
}

/// The `scenarios` workload.
pub struct Scenarios {
    env: Env,
    sweep: Sweep,
    straggler: Straggler,
    swept: Vec<RunOutcome>,
    report: Option<ScenarioReport>,
    /// What the traced passes measured: engine counters of the last
    /// one's runs, its model count, and every pass's training and run
    /// throughput.
    traced_runs: Vec<Work>,
    models: usize,
    train_rates: Vec<f64>,
    run_rates: Vec<f64>,
}

impl Workload for Scenarios {
    // One set-up trains 21 models in parallel: seconds of work, but with
    // two training pools nested on two cores its time moves by ±15% from
    // one build to the next.
    const SETUPS: usize = 4;

    fn setup(seed: u64) -> Self {
        // The sweep runs the Table 2 jobs of the full environment.
        let mut env = Env::build(Scale::Full, fleet::CATALOGUE_SEED);
        env.jobs.retain(|j| j.detailed);
        env.seed = seed;
        let sweep = Sweep::new(&env);
        Scenarios {
            env,
            sweep,
            straggler: Straggler::new(seed),
            swept: Vec::new(),
            report: None,
            traced_runs: Vec::new(),
            models: 0,
            train_rates: Vec::new(),
            run_rates: Vec::new(),
        }
    }

    fn pass(&mut self, tracer: Option<&Arc<Tracer>>) -> Pass {
        let t = Instant::now();
        let mut failed = 0;
        let (swept, report) = match tracer {
            None => {
                let groups = sweep(&self.env);
                let def = self.straggler.def;
                let report = scenario::run_scenario(def, self.env.seed, STRAGGLER_RUNS);
                let swept = groups
                    .iter()
                    .flat_map(|g| &g.outcomes)
                    .map(RunOutcome::of_library)
                    .collect();
                (swept, report)
            }
            Some(_) => in_pass(tracer, |trace| {
                let m = self.sweep.run(&self.env, trace);
                let t = Instant::now();
                let (report, runs) = self.straggler.run(STRAGGLER_RUNS, trace);
                let straggler_secs = secs_since(t);
                let all = m.runs.len() + runs.len();
                self.train_rates.push(m.models as f64 / m.train_secs);
                self.run_rates
                    .push(all as f64 / (m.run_secs + straggler_secs));
                self.models = m.models + 1;
                for o in &runs {
                    failed += u64::from(!fleet::run_ok(o, &self.straggler.cluster));
                }
                self.traced_runs = m.runs.iter().chain(&runs).map(|o| o.work).collect();
                (m.runs, report)
            }),
        };
        let secs = secs_since(t);

        let mut d = Digest::default();
        let jobs = self.env.jobs.len();
        for (i, o) in swept.iter().enumerate() {
            o.digest(&mut d);
            failed += u64::from(!fleet::run_ok(o, self.sweep.cluster_of(i, jobs)));
        }
        report_digest(&mut d, &report);
        if !report_ok(&report) {
            failed += STRAGGLER_RUNS as u64;
        }
        let ops = (swept.len() + STRAGGLER_RUNS) as u64;
        self.swept = swept;
        self.report = Some(report);
        Pass {
            secs,
            ops,
            failed,
            digest: d.value(),
            rates: Vec::new(),
        }
    }

    /// Jockey misses over every run, swept and straggler (incomplete
    /// counts as a miss); allocation above oracle over the swept runs,
    /// the only ones whose per-run allocation the library reports.
    fn quality(&self) -> Vec<(&'static str, f64)> {
        let swept_missed = self.swept.iter().filter(|o| !o.met).count();
        let (straggler_missed, straggler_runs) = self
            .report
            .as_ref()
            .map_or((0, 0), |r| (r.runs - r.met, r.runs));
        let runs = self.swept.len() + straggler_runs;
        let above: Vec<f64> = self.swept.iter().map(|o| o.frac_above_oracle).collect();
        vec![
            (
                "miss_frac",
                ratio((swept_missed + straggler_missed) as f64, runs as f64),
            ),
            ("above_oracle", mean(&above)),
        ]
    }

    fn layers(&self, tracer: &Tracer, traced: usize, out: &mut Metrics) {
        run_layers(&self.traced_runs, tracer, traced, out);
        let train = tracer.span_secs("cpa.train");
        out.put("cpa.models", self.models as f64, "");
        out.put("cpa.train_s_p50", percentile(&train, 50.0), "");
        out.put("cpa.train_s_p99", percentile(&train, 99.0), "");
        let grid = (self.sweep.cfg.allocations.len() * self.sweep.cfg.runs_per_allocation) as f64;
        let probe =
            (self.straggler.cfg.allocations.len() * self.straggler.cfg.runs_per_allocation) as f64;
        out.put(
            "cpa.train_sims",
            (self.models - 1) as f64 * grid + probe,
            "",
        );
        out.put("train_models_per_s", median(&self.train_rates), "");
        out.put("slo_runs_per_s", median(&self.run_rates), "");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_sweep_mirror_reproduces_the_library_traced_or_not() {
        let env = fleet::tests::one_job_env(5);
        let lib: Vec<RunOutcome> = sweep(&env)
            .iter()
            .flat_map(|g| &g.outcomes)
            .map(RunOutcome::of_library)
            .collect();
        let mirror = Sweep::new(&env);
        let plain = mirror.run(&env, None);
        let tracer = Arc::new(Tracer::default());
        let traced = in_pass(Some(&tracer), |tr| mirror.run(&env, tr));
        assert_eq!(
            plain.runs, traced.runs,
            "tracing changed a simulated outcome"
        );
        assert_eq!(plain.models, mirror.topologies.len());
        assert_eq!(lib.len(), plain.runs.len());
        for (i, (o, l)) in plain.runs.iter().zip(&lib).enumerate() {
            let (mut x, mut y) = (Digest::default(), Digest::default());
            o.digest(&mut x);
            l.digest(&mut y);
            assert_eq!(x, y, "run {i} left the library");
            assert!(fleet::run_ok(o, mirror.cluster_of(i, 1)));
        }
        assert_eq!(tracer.span_secs("cpa.train").len(), plain.models);
    }

    #[test]
    fn the_straggler_mirror_reproduces_run_scenario_traced_or_not() {
        let seed = fleet::CATALOGUE_SEED;
        let runs = 3;
        let straggler = Straggler::new(seed);
        let lib = scenario::run_scenario(straggler.def, seed, runs);
        let (plain, outcomes) = straggler.run(runs, None);
        assert_eq!(plain, lib);
        let tracer = Arc::new(Tracer::default());
        let (traced, traced_outcomes) = in_pass(Some(&tracer), |tr| straggler.run(runs, tr));
        assert_eq!(traced, lib, "tracing changed the straggler runs");
        assert_eq!(outcomes, traced_outcomes);
        assert!(outcomes
            .iter()
            .all(|o| fleet::run_ok(o, &straggler.cluster)));
        assert!(
            outcomes.iter().any(|o| o.work.clone_tasks > 0),
            "no clone launched"
        );
        assert_eq!(tracer.span_secs("cluster.run").len(), runs);
    }
}
